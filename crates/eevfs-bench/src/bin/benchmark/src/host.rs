//! Host-speed normalisation of every end-to-end timing.
//!
//! The reference machine is a virtual machine sharing its host, and its
//! speed drifts over minutes: the same code has run 1.3–1.9× slower for
//! minutes at a time, in the simulator and in the prototype alike. A
//! fixed reference computation timed just before and just after every
//! sample slows down with it, so scaling the sample by the reference's
//! time cancels the drift. The reference is the benchmark's own code, so
//! no change to the measured crates can move it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Keys the reference computation pushes through its heap and map.
const REFERENCE_KEYS: usize = 16_384;
/// Median wall time of [`reference_work`] on the reference machine (an
/// Intel Xeon virtual machine with 2 vCPUs), seconds. Normalised timings
/// are seconds at that speed.
pub const REFERENCE_HOST_S: f64 = 2.75e-3;

/// A fixed computation owned by the benchmark, not by the measured
/// crates: heap pushes and pops, ordered-map inserts, a sort and the
/// allocations they make, the kinds of work a simulator pass does.
/// Returns a checksum so that none of it is optimised away.
fn reference_work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut heap = BinaryHeap::with_capacity(REFERENCE_KEYS);
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..REFERENCE_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x));
        map.insert(x % (4 * REFERENCE_KEYS as u64), i);
        if i % 3 == 2 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
    }
    let mut rest: Vec<u64> = heap.into_iter().map(|r| r.0).collect();
    rest.sort_unstable();
    acc ^ rest[rest.len() / 2] ^ map.len() as u64
}

/// Wall seconds of [`reference_work`]: the median of three runs, so that
/// one run slowed by a thread of the prototype still winding down, or by
/// an interrupt, does not skew it.
fn reference_s() -> f64 {
    let mut runs = [0.0; 3];
    for r in &mut runs {
        let start = Instant::now();
        black_box(reference_work());
        *r = start.elapsed().as_secs_f64();
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// One timed sample.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall seconds of the sample.
    pub wall_s: f64,
    /// Mean wall seconds of the reference computations just before and
    /// just after it.
    pub reference_s: f64,
}

impl Timing {
    /// The factor that turns the sample's wall times into times at the
    /// reference machine's speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_HOST_S / self.reference_s
    }

    /// The sample's seconds at the reference machine's speed.
    pub fn normalized_s(&self) -> f64 {
        self.wall_s * self.scale()
    }
}

/// Times samples with a reference computation between every two of them.
pub struct HostClock {
    last_reference_s: f64,
}

impl HostClock {
    /// A clock whose first reference is timed now.
    pub fn new() -> HostClock {
        HostClock {
            last_reference_s: reference_s(),
        }
    }

    /// Runs `f` as one sample.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let start = Instant::now();
        let out = f();
        (out, self.after(start.elapsed().as_secs_f64()))
    }

    /// Closes a sample of `wall_s` seconds, timed by the caller since the
    /// previous one closed.
    pub fn after(&mut self, wall_s: f64) -> Timing {
        let before = self.last_reference_s;
        self.last_reference_s = reference_s();
        Timing {
            wall_s,
            reference_s: (before + self.last_reference_s) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
    }

    #[test]
    fn normalisation_scales_by_the_reference() {
        let t = Timing {
            wall_s: 2.0,
            reference_s: 2.0 * REFERENCE_HOST_S,
        };
        assert!((t.normalized_s() - 1.0).abs() < 1e-12);
        assert!((t.scale() - 0.5).abs() < 1e-12);
        let mut clock = HostClock::new();
        let (v, t) = clock.time(|| 7);
        assert_eq!(v, 7);
        assert!(t.wall_s >= 0.0 && t.reference_s > 0.0);
    }
}
