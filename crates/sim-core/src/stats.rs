//! Summary statistics for experiment metrics.
//!
//! The harness reports the same quantities as the paper's figures: mean
//! response time, total energy, transition counts. [`OnlineStats`] gives
//! numerically stable running moments (Welford), and [`Histogram`] gives
//! fixed-width binned counts for distribution sanity checks.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance plus min/max.
///
/// Serialisation is hand-written rather than derived: an empty accumulator
/// holds `min = +inf` / `max = -inf`, and JSON has no representation for
/// non-finite floats (the serialiser writes them as `null`, which a derived
/// deserialiser would read back as NaN). The manual impl writes non-finite
/// min/max as `null` and restores the empty-accumulator sentinels, so the
/// struct round-trips through JSON in every state.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Serialize for OnlineStats {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        let finite = |x: f64| Some(x).filter(|x| x.is_finite());
        s.begin_map();
        s.serialize_field("count");
        s.serialize_u64(self.count);
        s.serialize_field("mean");
        s.serialize_f64(self.mean);
        s.serialize_field("m2");
        s.serialize_f64(self.m2);
        s.serialize_field("min");
        finite(self.min).serialize(s);
        s.serialize_field("max");
        finite(self.max).serialize(s);
        s.end_map();
    }
}

impl Deserialize for OnlineStats {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for OnlineStats"))?;
        let min: Option<f64> = serde::de_field(m, "min")?;
        let max: Option<f64> = serde::de_field(m, "max")?;
        Ok(OnlineStats {
            count: serde::de_field(m, "count")?,
            mean: serde::de_field(m, "mean")?,
            m2: serde::de_field(m, "m2")?,
            min: min.unwrap_or(f64::INFINITY),
            max: max.unwrap_or(f64::NEG_INFINITY),
        })
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (Chan's parallel update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

/// Sorts samples ascending for repeated [`percentile_sorted`] queries.
/// Panics on NaN input (percentiles over NaN are meaningless).
pub fn sorted_samples(samples: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    sorted
}

/// Percentile over *already sorted* samples via linear interpolation
/// between order statistics. `q` in `[0, 1]`. Returns `None` for an empty
/// slice. Use this (with one [`sorted_samples`] call) when extracting
/// several quantiles from the same sample set — [`percentile`] re-sorts
/// on every call.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "percentile q={q} outside [0,1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted input must be ascending"
    );
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Percentile of a sample set via linear interpolation between order
/// statistics. `q` in `[0, 1]`. Returns `None` for an empty slice.
///
/// Sorts a copy per call; for several quantiles over the same samples,
/// sort once with [`sorted_samples`] and use [`percentile_sorted`].
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    percentile_sorted(&sorted_samples(samples), q)
}

/// Ordinary-least-squares fit `y = slope * x + intercept` plus the
/// coefficient of determination `r2`. Returns `None` for fewer than two
/// points or zero x-variance.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Option<(f64, f64, f64)> {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some((slope, intercept, r2))
}

/// Fixed-width histogram over `[lo, hi)` with saturating under/overflow bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    nan: u64,
}

impl Histogram {
    /// Creates a histogram with `bins >= 1` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range [{lo}, {hi}) is empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            nan: 0,
        }
    }

    /// Records one observation.
    ///
    /// NaN fails both range comparisons, so without its own counter it
    /// would cast to index 0 and silently inflate the first bin; it is
    /// counted separately instead.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
        } else if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            // Float edge: x just below hi can round to bins.len().
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `(lo, hi)` bounds of bin `i`.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + width * i as f64, self.lo + width * (i + 1) as f64)
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// NaN observations (unorderable, so binned nowhere).
    pub fn nan(&self) -> u64 {
        self.nan
    }

    /// Total observations recorded, including under/overflow and NaN.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow + self.nan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..313] {
            left.push(x);
        }
        for &x in &data[313..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), before);

        let mut empty = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.push(7.0);
        empty.merge(&b);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
        // Unsorted input works too.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.5));
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        let raw = [4.0, 1.0, 3.0, 2.0, 8.0, 0.5];
        let sorted = sorted_samples(&raw);
        for q in [0.0, 0.25, 0.5, 0.77, 0.95, 1.0] {
            assert_eq!(percentile_sorted(&sorted, q), percentile(&raw, q));
        }
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 0.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 0.5), Some(42.0));
        assert_eq!(percentile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn regression_recovers_exact_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 7.0).collect();
        let (m, b, r2) = linear_regression(&xs, &ys).expect("fit");
        assert!((m - 3.0).abs() < 1e-12);
        assert!((b - 7.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_r2_drops_with_noise() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // Deterministic "noise" decorrelated from x.
        let ys: Vec<f64> = xs.iter().map(|x| x + 30.0 * (x * 12.9898).sin()).collect();
        let (_, _, r2) = linear_regression(&xs, &ys).expect("fit");
        assert!(r2 < 0.99 && r2 > 0.3, "r2 {r2}");
    }

    #[test]
    fn regression_degenerate_inputs() {
        assert!(linear_regression(&[], &[]).is_none());
        assert!(linear_regression(&[1.0], &[2.0]).is_none());
        assert!(
            linear_regression(&[5.0, 5.0], &[1.0, 2.0]).is_none(),
            "zero x-variance"
        );
        // Flat y: perfect fit with slope 0.
        let (m, _, r2) = linear_regression(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]).expect("fit");
        assert_eq!(m, 0.0);
        assert_eq!(r2, 1.0);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-0.1); // underflow
        h.record(0.0); // bin 0
        h.record(1.999); // bin 0
        h.record(2.0); // bin 1
        h.record(9.999); // bin 4
        h.record(10.0); // overflow
        h.record(100.0); // overflow
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(4), 1);
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_bounds(1), (2.0, 4.0));
        assert_eq!(h.num_bins(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn histogram_counts_nan_separately() {
        // Regression: NaN fails both range comparisons and `NaN as usize`
        // is 0, so it used to land silently in bin 0.
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(f64::NAN);
        h.record(f64::NAN);
        h.record(1.0);
        assert_eq!(h.bin_count(0), 1, "only the real observation");
        assert_eq!(h.nan(), 2);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn empty_online_stats_roundtrip_through_json() {
        // min/max are ±inf when empty; JSON would render them as null and
        // a derived deserialiser would read NaN back. The manual impl
        // restores the sentinels.
        let empty = OnlineStats::new();
        let json = serde_json::to_string(&empty).expect("serialise");
        let back: OnlineStats = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.count(), 0);
        assert_eq!(back.min(), f64::INFINITY);
        assert_eq!(back.max(), f64::NEG_INFINITY);
        // And the restored accumulator still works.
        let mut back = back;
        back.push(3.0);
        assert_eq!(back.min(), 3.0);
        assert_eq!(back.max(), 3.0);
    }

    #[test]
    fn online_stats_json_bytes_are_pinned() {
        let mut s = OnlineStats::new();
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"count":0,"mean":0,"m2":0,"min":null,"max":null}"#
        );
        for x in [2.0, 4.0, 9.5] {
            s.push(x);
        }
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"count":3,"mean":5.166666666666666,"m2":30.16666666666667,"min":2,"max":9.5}"#
        );
    }

    #[test]
    fn populated_online_stats_roundtrip_through_json() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 9.0] {
            s.push(x);
        }
        let json = serde_json::to_string(&s).expect("serialise");
        let back: OnlineStats = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.count(), s.count());
        assert_eq!(back.mean(), s.mean());
        assert_eq!(back.variance(), s.variance());
        assert_eq!(back.min(), 2.0);
        assert_eq!(back.max(), 9.0);
    }
}
