//! Seeded randomness and the distributions the EEVFS workloads need.
//!
//! The paper's synthetic traces draw file indices from a Poisson
//! distribution whose mean ("the MU value") runs from 1 to 1000. The
//! variate is defined by counting unit-rate exponential arrivals: it is
//! the number of terms `-ln(1 - u_j)` whose sequential `f64` sum stays at
//! or below `mu`. That definition never forms `exp(-mu)`, so it stays
//! sound where Knuth's product-of-uniforms method underflows
//! (`mu > ~708`). Summing it directly costs one `ln` per unit of mean,
//! which made trace generation the slowest stage of a MU = 1000 run, so
//! [`SimRng::poisson`] decides the same count from a rescaled running
//! product of the uniforms and sums only when the product cannot decide.
//! Every variate, and the stream state it leaves, is the summing loop's.
//!
//! A hand-rolled Zipf sampler (inverse-CDF over a precomputed table) backs
//! the Berkeley-web-trace substitute, whose defining property in the paper
//! is a heavy skew toward a small working set.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Largest mean [`SimRng::poisson`] decides by the product; [`MARGIN`] is
/// sized for means up to this.
const FAST_MU_CAP: f64 = 1e4;

/// Uniforms after which the product gives the decision to the summing
/// loop; [`MARGIN`] is sized for counts up to this. A Poisson(10⁴) count
/// exceeds it with probability below 10⁻¹⁰⁰⁰.
const FAST_MAX_DRAWS: u64 = 30_000;

/// Half-width, in units of the exponential sum, of the band around `mu`
/// where the product defers to the summing loop.
///
/// It must exceed every gap between what the two computations say about
/// the exact sum `S_n = Σ -ln v_j = -ln Π v_j`: the summing loop's `f64`
/// sum `Ŝ_n` on one side, the rescaled product, the budget and the
/// thresholds on the other. With
/// `u = 2⁻⁵³`, `mu ≤ FAST_MU_CAP = 10⁴`, `n ≤ FAST_MAX_DRAWS = 3·10⁴`
/// draws, `r ≤ 29` rescales, and every sum compared below
/// `mu + 53 ln 2 < 10⁴ + 37` (one term is at most `-ln 2⁻⁵³`):
///
/// - sequential summation of `n` nonnegative terms:
///   `≤ 1.01·n·u·Σe_j ≤ 1.01 · 3·10⁴ · 2⁻⁵³ · 10037 ≈ 3.4e-8`;
/// - libm `ln`, allowing 4 ulp per term:
///   `≤ 2⁻⁵⁰ · 10037 ≈ 8.9e-12`;
/// - the product, one rounding per multiply (the `v_j` and the 2⁵¹²
///   rescales are exact): `≤ 1.01·n·u ≈ 3.4e-12`;
/// - the budget `rem`, one rounded `512 ln 2` and one rounded subtraction
///   per rescale: `≤ r·u·(355 + mu) ≈ 3.4e-11`;
/// - the thresholds: the argument `rem ∓ MARGIN` rounds once and libm
///   `exp`, allowing 4 ulp, adds `2⁻⁵⁰` relative. Only a threshold above
///   2⁻⁵⁶⁵, the product's floor, can be crossed, so its argument is below
///   392: `≤ 392·u + 2⁻⁵⁰ ≈ 4.4e-14`. A lower (even subnormal or zero)
///   threshold is never crossed, and the product it was not crossed by is
///   already above `exp(-392)`.
///
/// The sum is about `3.4e-8`; `1e-6` leaves a factor of about 30, and
/// costs a redraw by the summing loop in roughly one variate in 10⁵.
const MARGIN: f64 = 1e-6;

/// 2⁻⁵¹²: the running product is rescaled when it falls below this.
const RESCALE_FLOOR: f64 = f64::from_bits((1023 - 512) << 52);
/// 2⁵¹².
const RESCALE: f64 = f64::from_bits((1023 + 512) << 52);
/// `ln 2⁵¹²`, taken off the budget at each rescale.
const RESCALE_LN: f64 = 512.0 * std::f64::consts::LN_2;

/// Deterministic simulation RNG. All workload randomness flows from one of
/// these, seeded from the experiment config, so runs are reproducible.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Splits off an independent child RNG. Deriving children from draws of
    /// the parent keeps sub-streams decoupled: adding draws to one consumer
    /// does not perturb another.
    pub fn split(&mut self) -> SimRng {
        let seed = self.inner.gen::<u64>();
        SimRng::seed_from_u64(seed)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform choice of an index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over an empty collection");
        self.inner.gen_range(0..n)
    }

    /// Exponential variate with the given mean (`mean > 0`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "bad exponential mean {mean}"
        );
        // Inverse CDF; guard the log against u == 0.
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Poisson variate with mean `mu >= 0`.
    ///
    /// Returns the number of unit-rate exponential inter-arrivals
    /// `-ln(1 - u_j)` whose sequential `f64` sum stays at or below `mu`
    /// (the private summing loop `poisson_by_sum` defines it), and leaves
    /// the stream exactly where that loop leaves it.
    ///
    /// Cost: the count is decided from the running product of
    /// `v_j = 1 - u_j`, one multiply per uniform, with two `exp` calls per
    /// variate plus one for every `512 ln 2 ≈ 355` units of `mu`; no `ln`.
    /// About one variate in a hundred thousand lands where the product
    /// cannot decide, and is redrawn by the summing loop from a copy of the
    /// entry state. Means above 10⁴ always take the summing loop, because
    /// the rounding bound grows with `mu²`.
    ///
    /// Exactness: the product stops at the first `n` whose product falls
    /// below `exp(-(mu - MARGIN))`; the product at `n - 1` did not, which
    /// proves the sum had not passed `mu` there. If the product at `n` is
    /// also below `exp(-(mu + MARGIN))`, the sum passes `mu` at `n`, and
    /// `n - 1` is the summing loop's answer. `MARGIN = 1e-6` dominates every
    /// rounding error between the two computations; the bound is written
    /// out beside the constant.
    pub fn poisson(&mut self, mu: f64) -> u64 {
        assert!(mu >= 0.0 && mu.is_finite(), "bad poisson mean {mu}");
        if mu == 0.0 {
            return 0;
        }
        if mu <= FAST_MU_CAP {
            let entry = self.inner.clone();
            if let Some(k) = self.poisson_by_product(mu) {
                return k;
            }
            self.inner = entry;
        }
        self.poisson_by_sum(mu)
    }

    /// The definition of [`SimRng::poisson`]: counts unit-rate exponential
    /// inter-arrivals until their running sum passes `mu` (`mu > 0`). One
    /// `ln` per uniform drawn.
    fn poisson_by_sum(&mut self, mu: f64) -> u64 {
        let mut sum = 0.0f64;
        let mut k = 0u64;
        loop {
            sum += self.exponential(1.0);
            if sum > mu {
                return k;
            }
            k += 1;
        }
    }

    /// Decides [`SimRng::poisson_by_sum`]'s answer from the running product
    /// of the same uniforms, or returns `None` (with the stream advanced)
    /// when the product lands within [`MARGIN`] of the crossing or more
    /// than [`FAST_MAX_DRAWS`] uniforms were needed. Needs
    /// `0 < mu <= FAST_MU_CAP`.
    ///
    /// `1 - u` is exact (a uniform is a multiple of 2⁻⁵³), so the product
    /// carries only one rounding per multiply. Whenever it falls below
    /// 2⁻⁵¹² it is scaled back up by 2⁵¹², exactly, and `512 ln 2` comes
    /// off the remaining budget `rem`, so it never leaves the normal range
    /// (it stays above 2⁻⁵⁶⁵).
    fn poisson_by_product(&mut self, mu: f64) -> Option<u64> {
        let mut rem = mu;
        // exp(-(rem - MARGIN)). While rem is too large to be spent before
        // the next rescale this lies below the product's floor of 2⁻⁵⁶⁵
        // (it is subnormal or 0 from rem ≈ 708 on) and never stops it.
        let mut hi = (MARGIN - rem).exp();
        let mut p = 1.0f64;
        let mut n = 0u64;
        loop {
            p *= 1.0 - self.uniform();
            n += 1;
            if p < hi {
                break;
            }
            if p < RESCALE_FLOOR {
                p *= RESCALE;
                rem -= RESCALE_LN;
                hi = (MARGIN - rem).exp();
            }
        }
        let lo = (-(rem + MARGIN)).exp();
        (n <= FAST_MAX_DRAWS && p < lo).then(|| n - 1)
    }

    /// Standard normal variate (Box–Muller, one value per call).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std dev {std_dev}");
        let u1: f64 = 1.0 - self.uniform();
        let u2: f64 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal variate parameterised by the *target* mean and the sigma
    /// of the underlying normal. Used for file-size distributions where the
    /// paper reports only a mean.
    pub fn log_normal_with_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(mean > 0.0, "log-normal mean must be positive, got {mean}");
        // If X = exp(N(m, s)), E[X] = exp(m + s^2/2); solve m for target mean.
        let m = mean.ln() - sigma * sigma / 2.0;
        self.normal(m, sigma).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// Zipf sampler over ranks `0..n` with exponent `alpha`.
///
/// Precomputes the CDF once (`O(n)`), then samples by binary search
/// (`O(log n)`). Rank 0 is the most popular item.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler for `n > 0` ranks with skew `alpha >= 0`
    /// (`alpha = 0` is uniform; larger is more skewed).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(alpha >= 0.0 && alpha.is_finite(), "bad Zipf alpha {alpha}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against accumulated float error at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is exactly one rank (degenerate sampler).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of a rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        hi - lo
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        // partition_point: first index whose cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "seeds 1 and 2 produced near-identical streams");
    }

    #[test]
    fn split_streams_are_decoupled() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut child1 = parent1.split();
        let mut child2 = parent2.split();
        // Consuming extra draws from parent2 must not change child2's stream.
        for _ in 0..10 {
            parent2.next_u64();
        }
        for _ in 0..50 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn poisson_small_mean_matches_expectation() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.poisson(4.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "poisson(4) sample mean {mean}");
    }

    #[test]
    fn poisson_large_mean_no_underflow() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 2_000;
        let samples: Vec<u64> = (0..n).map(|_| rng.poisson(1000.0)).collect();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        assert!(
            (mean - 1000.0).abs() < 5.0,
            "poisson(1000) sample mean {mean}"
        );
        // Variance of Poisson equals its mean.
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(
            (var - 1000.0).abs() < 150.0,
            "poisson(1000) sample var {var}"
        );
    }

    /// Means where the sampler changes regime: below `MARGIN`, where `exp`
    /// turns subnormal (708–710) and underflows (745), the paper's 1000,
    /// and both sides of the cap.
    const MU_EDGES: [f64; 18] = [
        0.0,
        1e-9,
        0.5,
        1.0,
        4.0,
        10.0,
        100.0,
        700.0,
        708.0,
        709.0,
        709.8,
        710.0,
        745.0,
        1000.0,
        5000.0,
        FAST_MU_CAP - 1.0,
        FAST_MU_CAP,
        FAST_MU_CAP + 1.0,
    ];

    proptest! {
        #[test]
        fn poisson_equals_its_summing_definition(
            seed in any::<u64>(),
            mu in prop_oneof![
                (0..MU_EDGES.len()).prop_map(|i| MU_EDGES[i]),
                0.0f64..FAST_MU_CAP,
            ],
        ) {
            let mut fast = SimRng::seed_from_u64(seed);
            let mut reference = fast.clone();
            for _ in 0..4 {
                let want = if mu == 0.0 { 0 } else { reference.poisson_by_sum(mu) };
                prop_assert_eq!(fast.poisson(mu), want, "mu {}, seed {}", mu, seed);
            }
            prop_assert_eq!(fast.next_u64(), reference.next_u64(), "mu {}, seed {}", mu, seed);
        }
    }

    #[test]
    fn poisson_redraws_by_sum_when_the_product_cannot_decide() {
        for (seed, k) in [(1u64, 1usize), (2, 10), (3, 100), (4, 1000), (5, 9000)] {
            let rng = SimRng::seed_from_u64(seed);
            // mu is the summing loop's own partial sum after k terms, so
            // the crossing sits inside the product's undecided band.
            let mut probe = rng.clone();
            let mu: f64 = (0..k).map(|_| probe.exponential(1.0)).sum();
            assert!(mu > 0.0 && mu <= FAST_MU_CAP, "seed {seed}, k {k}: mu {mu}");
            assert_eq!(
                rng.clone().poisson_by_product(mu),
                None,
                "seed {seed}, k {k}: the product decided a sum that ties mu"
            );
            let mut fast = rng.clone();
            let mut reference = rng;
            assert_eq!(fast.poisson(mu), reference.poisson_by_sum(mu));
            assert_eq!(fast.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10 {
            assert_eq!(rng.poisson(0.0), 0);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from_u64(6);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.7)).sum::<f64>() / n as f64;
        assert!((mean - 0.7).abs() < 0.02, "exp(0.7) sample mean {mean}");
    }

    #[test]
    fn log_normal_hits_target_mean() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| rng.log_normal_with_mean(10.0, 0.5))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "log-normal sample mean {mean}");
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SimRng::seed_from_u64(8);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[99]);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(137, 1.3);
        let sum: f64 = (0..z.len()).map(|r| z.pmf(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_sample_always_in_range() {
        let z = Zipf::new(5, 2.0);
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(10);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }
}
