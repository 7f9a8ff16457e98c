//! Summary statistics for experiment metrics.
//!
//! The harness reports the same quantities as the paper's figures: mean
//! response time, total energy, transition counts. [`OnlineStats`] gives
//! a numerically stable running mean (Welford), and [`Histogram`] gives
//! fixed-width binned counts for distribution sanity checks.

use serde::{Deserialize, Serialize};

/// Running count, mean (Welford's update) and maximum.
#[derive(Debug, Clone)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.max = self.max.max(x);
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

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
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
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), f64::NEG_INFINITY);
        let mut d = OnlineStats::default();
        d.push(-5.0);
        assert_eq!(d.max(), -5.0, "the default is the empty accumulator");
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
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
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
        assert_eq!(h.nan, 2);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow, 0);
        assert_eq!(h.total(), 3);
    }
}
