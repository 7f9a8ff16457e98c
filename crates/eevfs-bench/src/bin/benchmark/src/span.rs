//! In-memory spans around calls into each layer, plus the counting
//! allocator that attributes allocated bytes to them.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! repository's public functions; nothing inside the measured crates is
//! instrumented. A disabled [`Tracer`] runs the wrapped closures directly,
//! so traced and untraced samples execute the same pipeline code.

use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Enabled tracers alive; the allocator counts while any is. Both atomics
/// are statistics that publish no other data, so `Relaxed` suffices.
static ENABLED_TRACERS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting requested bytes process-wide while a
/// tracer is enabled (a `realloc` counts its growth).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count(bytes: usize) {
    if ENABLED_TRACERS.load(Ordering::Relaxed) > 0 {
        ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Layer-call name, `layer.call`.
    pub name: String,
    /// Workload the span belongs to.
    pub workload: String,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u64>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Bytes allocated process-wide while the span was open.
    pub alloc_bytes: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans, ns.
    pub self_ns: u64,
    /// Summed allocated bytes, children included.
    pub alloc_bytes: u64,
}

/// Span recorder for one workload's traced sample.
pub struct Tracer {
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::new(false, "")
    }

    /// A recording tracer; the allocator counts until it is dropped.
    pub fn enabled(workload: &str) -> Tracer {
        ENABLED_TRACERS.fetch_add(1, Ordering::Relaxed);
        Tracer::new(true, workload)
    }

    fn new(enabled: bool, workload: &str) -> Tracer {
        Tracer {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            workload: self.workload.clone(),
            parent: self.open.last().map(|&p| p as u64),
            start_ns: self.now_ns(),
            end_ns: 0,
            alloc_bytes: allocated(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.alloc_bytes = allocated() - span.alloc_bytes;
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9
    }

    /// Median duration of the spans named `name`, seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .named(name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        crate::stats::percentile(&d, 0.5)
    }

    /// Summed allocated bytes of the spans named `name`, in MB.
    pub fn alloc_mb(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.alloc_bytes).sum::<u64>() as f64 / 1e6
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Per-name totals with self time (duration minus children), sorted by
    /// self time, largest first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = by_name.entry(&s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(children);
            t.alloc_bytes += s.alloc_bytes;
        }
        let mut out: Vec<SelfTime> = by_name
            .into_iter()
            .map(|(name, t)| SelfTime {
                name: name.to_string(),
                ..t
            })
            .collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        out
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if self.enabled {
            ENABLED_TRACERS.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::enabled("test");
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let times = t.self_times();
        let outer = times.iter().find(|s| s.name == "outer").unwrap();
        let inner = times.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(outer.total_ns >= inner.total_ns + 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn spans_count_allocations_only_when_enabled() {
        let mut off = Tracer::disabled();
        let v = off.span("alloc", |_| vec![0u8; 1 << 20]);
        assert!(off.spans().is_empty());
        drop(v);
        let mut on = Tracer::enabled("test");
        let v = on.span("alloc", |_| std::hint::black_box(vec![1u8; 1 << 20]));
        assert!(on.spans()[0].alloc_bytes >= 1 << 20);
        assert!(on.alloc_mb("alloc") >= 1.0);
        drop(v);
    }
}
