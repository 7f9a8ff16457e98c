//! Order statistics and digests for the benchmark's reports.

use sim_core::stats::{percentile_sorted, sorted_samples};

/// One end-to-end metric over a run: the reported value plus the spread
/// of its per-sample values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value (the median of the samples, or a pooled
    /// percentile for latencies).
    pub value: f64,
    /// First quartile of the per-sample values.
    pub q1: f64,
    /// Third quartile of the per-sample values.
    pub q3: f64,
    /// Number of samples behind the value.
    pub n: usize,
}

impl Summary {
    /// The median and quartiles of `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(samples);
        Summary {
            value: median,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A pooled statistic `value` over `n` pooled observations, with the
    /// spread of the same statistic taken per sample.
    pub fn pooled(value: f64, n: usize, per_sample: &[f64]) -> Summary {
        let (q1, _, q3) = quartiles(per_sample);
        Summary { value, q1, q3, n }
    }
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, the definition the benchmark's
/// spreads are judged by. A single sample is its own quartiles; no
/// samples give zeros.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let s = sorted_samples(samples);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The `q`-quantile of `samples` by linear interpolation (the repository's
/// definition, shared with `RunMetrics`), zero when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted_samples(samples), q).unwrap_or(0.0)
}

/// The highest percentile of the ladder p99.9 / p99 / p90 / p50 that has
/// at least ten of `n` samples beyond it, as a quantile in `[0, 1]`.
pub fn highest_supported_quantile(n: usize) -> Option<f64> {
    [999, 990, 900, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, m, q3) = quartiles(&v);
        assert!(close(q1, 2.75) && close(m, 5.5) && close(q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let (q1, m, q3) = quartiles(&[4.0, 2.0, 1.0, 3.0]);
        assert!(close(q1, 1.25) && close(m, 2.5) && close(q3, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 6.0, 7.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn summary_reports_the_median() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.value, s.n), (3.0, 5));
        assert!(s.q1 < s.value && s.value < s.q3);
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!(close(percentile(&v, 0.5), 50.0));
        assert!(close(percentile(&v, 0.99), 99.0));
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_quantile(19), None);
        assert_eq!(highest_supported_quantile(20), Some(0.5));
        assert_eq!(highest_supported_quantile(99), Some(0.5));
        assert_eq!(highest_supported_quantile(100), Some(0.9));
        assert_eq!(highest_supported_quantile(999), Some(0.9));
        assert_eq!(highest_supported_quantile(1000), Some(0.99));
        assert_eq!(highest_supported_quantile(10_000), Some(0.999));
        for n in [20, 100, 1000, 10_000, 123_456] {
            let q = highest_supported_quantile(n).unwrap();
            let beyond = (0..n).filter(|&i| i as f64 > q * (n - 1) as f64).count();
            assert!(beyond >= 10, "n {n}: {beyond} beyond q {q}");
        }
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
