//! Named counters, gauges, histograms, and time series.
//!
//! The registry is the aggregate companion to the event trace: where the
//! [`Recorder`](crate::Recorder) answers "what happened to request 17", the
//! registry answers "what did queue depth look like over the run". All
//! collections are `BTreeMap`s so iteration (and therefore export) order is
//! the lexicographic name order — deterministic by construction.

use sim_core::{Histogram, SimDuration, SimTime, TimeSeries};
use std::collections::BTreeMap;

/// A metrics lookup failed in a way the caller should surface instead of
/// unwrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// No histogram under this name — nothing was ever observed into it.
    MissingHistogram(String),
    /// No time series under this name — nothing was ever sampled into it.
    MissingSeries(String),
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::MissingHistogram(n) => {
                write!(f, "no histogram named {n:?} (nothing observed)")
            }
            MetricsError::MissingSeries(n) => {
                write!(f, "no time series named {n:?} (nothing sampled)")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

/// A deterministic, name-keyed metrics store.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter, creating it at zero.
    pub fn inc(&mut self, name: &str, by: u64) {
        update(&mut self.counters, name, || 0, |c| *c += by);
    }

    /// Current value of a counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        update(&mut self.gauges, name, || value, |g| *g = value);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `x` into the named histogram, creating it with the given
    /// range and bin count on first use (later calls reuse the existing
    /// shape).
    pub fn observe(&mut self, name: &str, lo: f64, hi: f64, bins: usize, x: f64) {
        update(
            &mut self.histograms,
            name,
            || Histogram::new(lo, hi, bins),
            |h| h.record(x),
        );
    }

    /// The named histogram, or a typed error naming what is missing —
    /// prefer this over `histogram(..).unwrap()` at call sites that
    /// report to users.
    pub fn try_histogram(&self, name: &str) -> Result<&Histogram, MetricsError> {
        self.histograms
            .get(name)
            .ok_or_else(|| MetricsError::MissingHistogram(name.to_string()))
    }

    /// The named time series, or a typed error naming what is missing.
    pub fn try_series(&self, name: &str) -> Result<&TimeSeries, MetricsError> {
        self.series
            .get(name)
            .ok_or_else(|| MetricsError::MissingSeries(name.to_string()))
    }

    /// Appends a sample to the named time series. Timestamps must be
    /// non-decreasing per series (simulation time is).
    pub fn sample(&mut self, name: &str, at: SimTime, value: f64) {
        update(&mut self.series, name, TimeSeries::new, |s| {
            s.push(at, value)
        });
    }

    /// Names of all recorded time series, lexicographically.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Names of all counters, lexicographically.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// Renders counters and gauges as a deterministic `name value` table,
    /// one per line, counters first.
    pub fn render_scalars(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k} {v}\n"));
        }
        out
    }
}

/// Applies `f` to the entry under `name`, creating it with `make` first
/// when absent. Updates outnumber names by far, so the key is looked up
/// by `&str` and allocated only on the first insert.
fn update<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    make: impl FnOnce() -> V,
    f: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_insert_with(make)),
    }
}

/// Interval gate for periodic sampling without scheduling extra simulation
/// events.
///
/// The driver consults the sampler from inside its event handler: the
/// first event at or past each interval boundary triggers a sample. This
/// keeps the event queue — and therefore the simulated outcome — exactly
/// identical to an uninstrumented run.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval_us: u64,
    next_us: u64,
}

impl Sampler {
    /// A sampler firing once per `interval` (clamped to ≥ 1 µs).
    pub fn new(interval: SimDuration) -> Self {
        Sampler {
            interval_us: interval.as_micros().max(1),
            next_us: 0,
        }
    }

    /// True when `now` has reached the next boundary; advances the
    /// boundary past `now` so each interval fires at most once.
    pub fn due(&mut self, now: SimTime) -> bool {
        let now_us = now.as_micros();
        if now_us < self.next_us {
            return false;
        }
        // Skip intervals nothing happened in rather than replaying them.
        self.next_us = now_us - (now_us % self.interval_us) + self.interval_us;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_from_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x", 2);
        m.inc("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("depth", 3.0);
        m.set_gauge("depth", 1.0);
        assert_eq!(m.gauge("depth"), Some(1.0));
    }

    #[test]
    fn histogram_created_on_first_observe() {
        let mut m = MetricsRegistry::new();
        m.observe("rt", 0.0, 10.0, 10, 2.5);
        m.observe("rt", 0.0, 10.0, 10, 3.5);
        assert_eq!(m.try_histogram("rt").unwrap().total(), 2);
    }

    #[test]
    fn try_lookups_name_the_missing_metric() {
        let mut m = MetricsRegistry::new();
        m.observe("rt", 0.0, 10.0, 10, 2.5);
        assert!(m.try_histogram("rt").is_ok());
        let err = m.try_histogram("nope").unwrap_err();
        assert_eq!(err, MetricsError::MissingHistogram("nope".into()));
        assert!(err.to_string().contains("nope"));
        assert_eq!(
            m.try_series("q").unwrap_err(),
            MetricsError::MissingSeries("q".into())
        );
    }

    #[test]
    fn series_samples_in_time_order() {
        let mut m = MetricsRegistry::new();
        m.sample("q", SimTime::from_secs(1), 1.0);
        m.sample("q", SimTime::from_secs(2), 4.0);
        let s = m.try_series("q").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((SimTime::from_secs(2), 4.0)));
    }

    #[test]
    fn scalar_render_is_name_sorted() {
        let mut m = MetricsRegistry::new();
        m.inc("b", 1);
        m.inc("a", 1);
        m.set_gauge("z", 0.5);
        assert_eq!(m.render_scalars(), "a 1\nb 1\nz 0.5\n");
    }

    #[test]
    fn sampler_fires_once_per_interval() {
        let mut s = Sampler::new(SimDuration::from_secs(10));
        assert!(s.due(SimTime::ZERO));
        assert!(!s.due(SimTime::from_secs(5)));
        assert!(s.due(SimTime::from_secs(10)));
        assert!(!s.due(SimTime::from_secs(19)));
        // A long gap does not replay the skipped intervals.
        assert!(s.due(SimTime::from_secs(65)));
        assert!(!s.due(SimTime::from_secs(66)));
        assert!(s.due(SimTime::from_secs(70)));
    }

    /// Repeated updates under a handful of names, the way a run drives the
    /// registry: a first use creates each entry, and later uses update it
    /// (a histogram keeps its first shape, a series overwrites a repeated
    /// timestamp).
    fn scripted() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for i in 0..12u64 {
            let node = i % 3;
            m.inc("requests", 1);
            m.inc(&format!("hits.n{node}"), i);
            m.set_gauge("depth", i as f64 / 4.0);
            m.set_gauge(&format!("util.n{node}"), 1.0 / (i + 1) as f64);
            m.observe("rt", 0.0, 10.0, 5, i as f64 * 0.3);
            m.observe("rt", 100.0, 200.0, 2, -1.0);
            m.observe("wide", -1.0, 1.0, 4, (i as f64).sin());
            m.sample("queue_depth", SimTime::from_micros(i / 2), i as f64);
            m.sample(
                &format!("disk_inflight.n{node}"),
                SimTime::from_micros(i),
                i as f64,
            );
        }
        m.inc("zero", 0);
        m
    }

    #[test]
    fn repeated_updates_accumulate_as_first_ones_do() {
        let m = scripted();
        assert_eq!(m.counter("requests"), 12);
        assert_eq!(m.counter("hits.n0"), (0..12).step_by(3).sum::<u64>());
        assert_eq!(m.gauge("depth"), Some(11.0 / 4.0));
        let rt = m.try_histogram("rt").unwrap();
        assert_eq!((rt.num_bins(), rt.total(), rt.underflow()), (5, 24, 12));
        assert_eq!(m.try_series("queue_depth").unwrap().len(), 6);
        assert_eq!(
            m.counter_names().collect::<Vec<_>>(),
            ["hits.n0", "hits.n1", "hits.n2", "requests", "zero"]
        );
        assert_eq!(
            m.series_names().collect::<Vec<_>>(),
            [
                "disk_inflight.n0",
                "disk_inflight.n1",
                "disk_inflight.n2",
                "queue_depth"
            ]
        );
        // The whole registry, every bin and sample included.
        assert_eq!(format!("{m:?}"), SCRIPTED_DEBUG);
    }

    /// `scripted()`'s `Debug` text, as first written by the registry
    /// that allocated a key on every update.
    const SCRIPTED_DEBUG: &str = concat!(
        r#"MetricsRegistry { counters: {"hits.n0": 18, "hits.n1": 22, "hits.n2": 26, "requests": 12, "zero": 0}, "#,
        r#"gauges: {"depth": 2.75, "util.n0": 0.1, "util.n1": 0.09090909090909091, "util.n2": 0.08333333333333333}, "#,
        r#"histograms: {"rt": Histogram { lo: 0.0, hi: 10.0, bins: [7, 5, 0, 0, 0], underflow: 12, overflow: 0, nan: 0 }, "#,
        r#""wide": Histogram { lo: -1.0, hi: 1.0, bins: [4, 1, 3, 4], underflow: 0, overflow: 0, nan: 0 }}, "#,
        r#"series: {"disk_inflight.n0": TimeSeries { times: [SimTime(0), SimTime(3), SimTime(6), SimTime(9)], values: [0.0, 3.0, 6.0, 9.0] }, "#,
        r#""disk_inflight.n1": TimeSeries { times: [SimTime(1), SimTime(4), SimTime(7), SimTime(10)], values: [1.0, 4.0, 7.0, 10.0] }, "#,
        r#""disk_inflight.n2": TimeSeries { times: [SimTime(2), SimTime(5), SimTime(8), SimTime(11)], values: [2.0, 5.0, 8.0, 11.0] }, "#,
        r#""queue_depth": TimeSeries { times: [SimTime(0), SimTime(1), SimTime(2), SimTime(3), SimTime(4), SimTime(5)], values: [1.0, 3.0, 5.0, 7.0, 9.0, 11.0] }} }"#,
    );
}
