//! Idle-window predictors: when should an idle data disk spin down?
//!
//! The driver asks the predictor once per idle onset ([`IdlePredictor::
//! on_idle`]) and maps the verdict onto its sleep-check machinery: sleep
//! immediately, re-check after a timer, or stay up until the next access.
//! Two feedback channels keep adaptive predictors honest:
//!
//! * [`IdlePredictor::on_access`] reports every realised idle gap (busy
//!   end → next arrival) on the disk, whether or not the disk slept — the
//!   estimator's training signal.
//! * [`IdlePredictor::observe`] reports the closed [`PredictionSample`]
//!   for every sleep actually taken — the payoff signal the PR-3
//!   prediction ledger already computes (did the realised window meet the
//!   drive's breakeven time?).

use eevfs_obs::PredictionSample;
use serde::{Deserialize, Serialize};
use sim_core::SimRng;
use sim_core::{SimDuration, SimTime};

/// What the predictor wants done with a disk that just went idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleVerdict {
    /// Spin down immediately.
    SleepNow,
    /// Re-check after this much further idleness; sleep if still idle.
    After(SimDuration),
    /// Stay up until the next access (re-evaluated at the next idle
    /// onset).
    Stay,
}

/// An online policy deciding when an idle disk should spin down.
///
/// Implementations must be deterministic: any randomness flows from a
/// seeded `SimRng` owned by the predictor, so same-seed replays make the
/// same decisions. They are `Send`, so a plane can run on the thread of
/// the prototype node it serves.
pub trait IdlePredictor: std::fmt::Debug + Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Called once when the disk goes idle. `now` is on the expected
    /// access pattern's clock: the simulation time minus the drift the
    /// plane was last told about (zero under open-loop replay).
    fn on_idle(&mut self, now: SimTime) -> IdleVerdict;

    /// Reports that a physical access the expected pattern predicted has
    /// arrived (hint-driven predictors advance their schedule).
    fn on_expected_touch(&mut self) {}

    /// Reports a realised idle gap on the disk (previous busy end to this
    /// access), slept through or not. Zero-length gaps (arrivals during a
    /// busy period) are not idle windows and are not reported.
    fn on_access(&mut self, idle_gap: SimDuration) {
        let _ = idle_gap;
    }

    /// Reports the closed prediction-ledger sample for a sleep this
    /// predictor's verdict caused.
    fn observe(&mut self, sample: &PredictionSample) {
        let _ = sample;
    }

    /// The predictor's current idle-window estimate, if it keeps one;
    /// recorded into the prediction ledger at sleep time.
    fn predicted_idle(&self) -> Option<SimDuration> {
        None
    }

    /// Whether an [`IdleVerdict::After`] timer that expired with the disk
    /// still idle should put it down. True for every bundled policy — the
    /// timer *was* the decision — but overridable for vetoing designs.
    fn timer_allows_sleep(&self) -> bool {
        true
    }
}

/// The paper's policy: wait out a fixed idle threshold, then sleep
/// (Table II fixes 5 s). No learning, no prediction.
#[derive(Debug, Clone)]
pub struct FixedThreshold {
    threshold: SimDuration,
}

impl FixedThreshold {
    /// A fixed-threshold predictor with the given idle threshold.
    pub fn new(threshold: SimDuration) -> Self {
        FixedThreshold { threshold }
    }
}

impl IdlePredictor for FixedThreshold {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn on_idle(&mut self, _now: SimTime) -> IdleVerdict {
        IdleVerdict::After(self.threshold)
    }
}

/// The paper's hint-driven policy (§III-C, §IV-C): the server hands each
/// node the expected access pattern, so the predictor knows when the disk
/// will next be *physically* touched — by a request the buffer disk will
/// not absorb — and sleeps the disk the moment it goes idle if that
/// window clears the idle threshold. No timer is ever armed.
///
/// The schedule's cursor advances once per expected touch that actually
/// arrives ([`IdlePredictor::on_expected_touch`]), in arrival order, so
/// the next pending entry is always the next *expected* touch.
#[derive(Debug, Clone)]
pub struct HintedThreshold {
    touches: Vec<SimTime>,
    cursor: usize,
    threshold: SimDuration,
    /// Window to the next pending touch computed at the last idle onset;
    /// `None` when unbounded (nothing pending) or the touch is overdue.
    window: Option<SimDuration>,
}

impl HintedThreshold {
    /// A hint-driven predictor over sorted expected touch times (on the
    /// pattern clock) with the given idle threshold.
    pub fn new(touches: Vec<SimTime>, threshold: SimDuration) -> Self {
        debug_assert!(touches.windows(2).all(|w| w[0] <= w[1]));
        HintedThreshold {
            touches,
            cursor: 0,
            threshold,
            window: None,
        }
    }
}

impl IdlePredictor for HintedThreshold {
    fn name(&self) -> &'static str {
        "hinted"
    }

    fn on_idle(&mut self, now: SimTime) -> IdleVerdict {
        // Nothing pending: the window is unbounded, sleep. An overdue
        // touch (queued somewhere) could land any moment: stay up.
        let Some(&next) = self.touches.get(self.cursor) else {
            self.window = None;
            return IdleVerdict::SleepNow;
        };
        self.window = (next > now).then(|| next - now);
        match self.window {
            Some(w) if w >= self.threshold => IdleVerdict::SleepNow,
            _ => IdleVerdict::Stay,
        }
    }

    fn on_expected_touch(&mut self) {
        self.cursor = (self.cursor + 1).min(self.touches.len());
    }

    fn predicted_idle(&self) -> Option<SimDuration> {
        self.window
    }
}

/// Exponentially-weighted moving average of the disk's realised idle
/// gaps, compared against the drive's breakeven time.
///
/// * Estimate clears `margin × breakeven` → sleep immediately: the 5 s
///   the fixed policy would idle away are saved on every window.
/// * Estimate below breakeven → stay up: the sleep would not pay off,
///   and the next access skips the 2 s spin-up penalty the fixed policy
///   would have inflicted.
/// * In between (expected to pay off, but not confidently) → wait out one
///   breakeven time first, the classic 2-competitive hedge.
#[derive(Debug, Clone)]
pub struct EwmaIdleWindow {
    alpha: f64,
    margin: f64,
    breakeven: SimDuration,
    /// Current idle-gap estimate, microseconds. `None` until the first
    /// observed gap.
    est_us: Option<f64>,
}

impl EwmaIdleWindow {
    /// An EWMA estimator with smoothing factor `alpha` in `(0, 1]` and a
    /// sleep-now confidence `margin ≥ 1` over the drive's breakeven time.
    pub fn new(alpha: f64, margin: f64, breakeven: SimDuration) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "bad EWMA alpha {alpha}");
        assert!(margin >= 1.0 && margin.is_finite(), "bad margin {margin}");
        EwmaIdleWindow {
            alpha,
            margin,
            breakeven,
            est_us: None,
        }
    }
}

impl IdlePredictor for EwmaIdleWindow {
    fn name(&self) -> &'static str {
        "ewma"
    }

    fn on_idle(&mut self, _now: SimTime) -> IdleVerdict {
        let be = self.breakeven.as_micros() as f64;
        match self.est_us {
            // No data yet: hedge with one breakeven of patience.
            None => IdleVerdict::After(self.breakeven),
            Some(e) if e >= self.margin * be => IdleVerdict::SleepNow,
            Some(e) if e >= be => IdleVerdict::After(self.breakeven),
            Some(_) => IdleVerdict::Stay,
        }
    }

    fn on_access(&mut self, idle_gap: SimDuration) {
        let gap = idle_gap.as_micros() as f64;
        self.est_us = Some(match self.est_us {
            None => gap,
            Some(e) => self.alpha * gap + (1.0 - self.alpha) * e,
        });
    }

    fn observe(&mut self, sample: &PredictionSample) {
        // A slept-through window is also a realised idle gap; keep the
        // estimator fresh even when every window ends in a sleep.
        self.on_access(SimDuration::from_micros(sample.realized_us));
    }

    fn predicted_idle(&self) -> Option<SimDuration> {
        self.est_us.map(|e| SimDuration::from_micros(e as u64))
    }
}

/// Epsilon-greedy bandit over candidate idle thresholds.
///
/// Each idle onset pulls an arm (a threshold; zero = sleep immediately).
/// When the sleep it armed closes, the PR-3 prediction ledger's payoff
/// signal rewards the arm (+1 paid off, −1 did not), steering future
/// pulls toward the threshold that best fits the workload. Exploration is
/// seeded and deterministic.
#[derive(Debug, Clone)]
pub struct BanditThreshold {
    arms: Vec<SimDuration>,
    epsilon: f64,
    rng: SimRng,
    /// Running mean reward per arm.
    value: Vec<f64>,
    pulls: Vec<u64>,
    last_arm: usize,
}

impl BanditThreshold {
    /// A bandit over `arms` (at least one; a zero arm means sleep
    /// immediately) exploring with probability `epsilon`, seeded.
    pub fn new(arms: Vec<SimDuration>, epsilon: f64, seed: u64) -> Self {
        assert!(!arms.is_empty(), "bandit needs at least one arm");
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "bad bandit epsilon {epsilon}"
        );
        let n = arms.len();
        BanditThreshold {
            arms,
            epsilon,
            rng: SimRng::seed_from_u64(seed),
            value: vec![0.0; n],
            pulls: vec![0; n],
            last_arm: 0,
        }
    }

    /// The default candidate set for a drive with the given breakeven
    /// time: sleep now, one/two breakevens of patience, and the paper's
    /// 5 s threshold.
    pub fn default_arms(breakeven: SimDuration) -> Vec<SimDuration> {
        vec![
            SimDuration::ZERO,
            breakeven,
            SimDuration::from_micros(breakeven.as_micros().saturating_mul(2)),
            SimDuration::from_secs(5),
        ]
    }

    fn pick(&mut self) -> usize {
        if self.rng.uniform() < self.epsilon {
            return self.rng.index(self.arms.len());
        }
        // Greedy, ties to the lowest index (deterministic).
        let mut best = 0;
        for i in 1..self.arms.len() {
            if self.value[i] > self.value[best] {
                best = i;
            }
        }
        best
    }
}

impl IdlePredictor for BanditThreshold {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn on_idle(&mut self, _now: SimTime) -> IdleVerdict {
        let arm = self.pick();
        self.last_arm = arm;
        let t = self.arms[arm];
        if t == SimDuration::ZERO {
            IdleVerdict::SleepNow
        } else {
            IdleVerdict::After(t)
        }
    }

    fn observe(&mut self, sample: &PredictionSample) {
        let reward = if sample.paid_off() { 1.0 } else { -1.0 };
        let arm = self.last_arm;
        self.pulls[arm] += 1;
        self.value[arm] += (reward - self.value[arm]) / self.pulls[arm] as f64;
    }
}

/// Serializable predictor choice; built per disk by the policy plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PredictorConfig {
    /// The paper's fixed idle threshold.
    FixedThreshold {
        /// Idle time to wait out before sleeping, seconds.
        threshold_s: f64,
    },
    /// Online EWMA idle-window estimation.
    EwmaIdleWindow {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
        /// Sleep-now confidence margin over breakeven, `≥ 1`.
        margin: f64,
    },
    /// Epsilon-greedy threshold selection rewarded by sleep payoff.
    BanditThreshold {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
}

impl PredictorConfig {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PredictorConfig::FixedThreshold { .. } => "fixed",
            PredictorConfig::EwmaIdleWindow { .. } => "ewma",
            PredictorConfig::BanditThreshold { .. } => "bandit",
        }
    }

    /// Builds the per-disk predictor instance. `seed` already mixes the
    /// policy seed with the disk coordinates; `breakeven` is the drive's
    /// breakeven time.
    pub fn build(&self, breakeven: SimDuration, seed: u64) -> Box<dyn IdlePredictor> {
        match *self {
            PredictorConfig::FixedThreshold { threshold_s } => {
                Box::new(FixedThreshold::new(SimDuration::from_secs_f64(threshold_s)))
            }
            PredictorConfig::EwmaIdleWindow { alpha, margin } => {
                Box::new(EwmaIdleWindow::new(alpha, margin, breakeven))
            }
            PredictorConfig::BanditThreshold { epsilon } => Box::new(BanditThreshold::new(
                BanditThreshold::default_arms(breakeven),
                epsilon,
                seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn sample(realized: SimDuration, breakeven: SimDuration) -> PredictionSample {
        PredictionSample {
            node: 0,
            disk: 0,
            predicted_us: None,
            realized_us: realized.as_micros(),
            breakeven_us: breakeven.as_micros(),
        }
    }

    #[test]
    fn fixed_always_arms_the_threshold_timer() {
        let mut p = FixedThreshold::new(secs(5));
        assert_eq!(
            p.on_idle(SimTime::from_secs(3)),
            IdleVerdict::After(secs(5))
        );
        p.on_access(secs(100)); // learning signal ignored
        assert_eq!(
            p.on_idle(SimTime::from_secs(9)),
            IdleVerdict::After(secs(5))
        );
        assert_eq!(p.predicted_idle(), None);
        assert!(p.timer_allows_sleep());
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The paper's hinted predictor: 5 s threshold over `touches`.
    fn hinted(touches: &[u64]) -> HintedThreshold {
        HintedThreshold::new(touches.iter().map(|&s| at(s)).collect(), secs(5))
    }

    /// Expected touches not yet arrived.
    fn remaining(p: &HintedThreshold) -> usize {
        p.touches.len() - p.cursor
    }

    #[test]
    fn hinted_cursor_walks_touches() {
        let mut p = hinted(&[1, 5, 20]);
        assert_eq!(remaining(&p), 3);
        // Next touch at 1 s: overdue at t=2.
        assert_eq!(p.on_idle(at(2)), IdleVerdict::Stay);
        p.on_expected_touch();
        // Next touch at 5 s: a 3 s window at t=2.
        assert_eq!(p.on_idle(at(2)), IdleVerdict::Stay);
        assert_eq!(p.predicted_idle(), Some(secs(3)));
        p.on_expected_touch();
        p.on_expected_touch();
        assert_eq!(remaining(&p), 0);
        assert_eq!(p.on_idle(at(2)), IdleVerdict::SleepNow);
        p.on_expected_touch(); // saturates
        assert_eq!(remaining(&p), 0);
    }

    #[test]
    fn hinted_sleeps_immediately_across_long_window() {
        let mut p = hinted(&[100]);
        assert_eq!(p.on_idle(at(10)), IdleVerdict::SleepNow);
        assert!(p.timer_allows_sleep());
    }

    #[test]
    fn hinted_refuses_short_window() {
        // Next touch 2 s away < 5 s threshold.
        assert_eq!(hinted(&[12]).on_idle(at(10)), IdleVerdict::Stay);
    }

    #[test]
    fn hinted_sleeps_forever_when_nothing_pending() {
        assert_eq!(hinted(&[]).on_idle(SimTime::ZERO), IdleVerdict::SleepNow);
    }

    #[test]
    fn hinted_overdue_touch_blocks_sleep() {
        // The expected touch is already overdue (queued somewhere): the
        // request could land any moment, so stay up.
        assert_eq!(hinted(&[5]).on_idle(at(10)), IdleVerdict::Stay);
    }

    #[test]
    fn hinted_drift_shifts_windows() {
        // The plane hands the predictor the pattern clock, `now − drift`.
        let mut p = hinted(&[12]);
        // Without drift, the window (2 s) is too short at t=10.
        assert_eq!(p.on_idle(at(10)), IdleVerdict::Stay);
        // With 8 s of drift the pattern clock reads 2 s at t=10, and the
        // touch is 10 s away: sleep.
        assert_eq!(p.on_idle(at(10 - 8)), IdleVerdict::SleepNow);
        assert_eq!(p.predicted_idle(), Some(secs(10)));
    }

    #[test]
    fn hinted_predicted_window_mirrors_the_decision() {
        let mut p = hinted(&[12]);
        // Bounded window: 2 s to the predicted touch.
        p.on_idle(at(10));
        assert_eq!(p.predicted_idle(), Some(secs(2)));
        // Overdue touch: no bounded prediction.
        p.on_idle(at(12));
        assert_eq!(p.predicted_idle(), None);
        // Nothing pending: unbounded.
        let mut p = hinted(&[]);
        p.on_idle(at(10));
        assert_eq!(p.predicted_idle(), None);
        // Timer policies never predict.
        let mut p = FixedThreshold::new(secs(5));
        p.on_idle(at(10));
        assert_eq!(p.predicted_idle(), None);
    }

    #[test]
    fn hinted_consume_moves_the_window() {
        let mut p = hinted(&[12, 100]);
        assert_eq!(p.on_idle(at(10)), IdleVerdict::Stay);
        p.on_expected_touch();
        // Next touch now 100 s: big window.
        assert_eq!(p.on_idle(at(13)), IdleVerdict::SleepNow);
        assert_eq!(p.predicted_idle(), Some(secs(87)));
        assert_eq!(remaining(&p), 1);
    }

    #[test]
    fn ewma_sleeps_fast_when_gaps_are_long() {
        let be = secs(13);
        let mut p = EwmaIdleWindow::new(0.5, 1.5, be);
        // Cold start: one breakeven of patience.
        assert_eq!(p.on_idle(SimTime::ZERO), IdleVerdict::After(be));
        for _ in 0..4 {
            p.on_access(secs(60));
        }
        assert_eq!(p.on_idle(SimTime::ZERO), IdleVerdict::SleepNow);
        assert!(p.predicted_idle().unwrap() >= secs(59));
    }

    #[test]
    fn ewma_stays_up_when_gaps_are_short() {
        let be = secs(13);
        let mut p = EwmaIdleWindow::new(0.5, 1.5, be);
        for _ in 0..6 {
            p.on_access(secs(3));
        }
        assert_eq!(p.on_idle(SimTime::ZERO), IdleVerdict::Stay);
    }

    #[test]
    fn ewma_hedges_in_the_uncertain_middle() {
        let be = secs(10);
        let mut p = EwmaIdleWindow::new(1.0, 2.0, be);
        p.on_access(secs(12)); // >= breakeven, < 2x margin
        assert_eq!(p.on_idle(SimTime::ZERO), IdleVerdict::After(be));
    }

    #[test]
    fn ewma_tracks_shifting_workloads() {
        let mut p = EwmaIdleWindow::new(0.5, 1.5, secs(10));
        for _ in 0..8 {
            p.on_access(secs(100));
        }
        assert_eq!(p.on_idle(SimTime::ZERO), IdleVerdict::SleepNow);
        for _ in 0..8 {
            p.on_access(secs(1));
        }
        assert_eq!(p.on_idle(SimTime::ZERO), IdleVerdict::Stay);
    }

    #[test]
    fn ewma_learns_from_sleep_samples_too() {
        let be = secs(10);
        let mut p = EwmaIdleWindow::new(1.0, 1.5, be);
        p.observe(&sample(secs(60), be));
        assert_eq!(p.on_idle(SimTime::ZERO), IdleVerdict::SleepNow);
    }

    #[test]
    fn bandit_is_deterministic_per_seed() {
        let arms = BanditThreshold::default_arms(secs(13));
        let mut a = BanditThreshold::new(arms.clone(), 0.2, 42);
        let mut b = BanditThreshold::new(arms, 0.2, 42);
        for i in 0..200 {
            let t = SimTime::from_secs(i);
            assert_eq!(a.on_idle(t), b.on_idle(t));
        }
    }

    #[test]
    fn bandit_converges_to_the_paying_arm() {
        let be = secs(13);
        // Two arms: sleep-now (always pays off here) and a 5 s timer
        // (never does).
        let mut p = BanditThreshold::new(vec![SimDuration::ZERO, secs(5)], 0.1, 7);
        for _ in 0..300 {
            let v = p.on_idle(SimTime::ZERO);
            let paid = v == IdleVerdict::SleepNow;
            let realized = if paid { secs(60) } else { secs(1) };
            p.observe(&sample(realized, be));
        }
        // The zero arm must dominate: exploit pulls all go to it.
        let exploit: Vec<IdleVerdict> = (0..50).map(|_| p.on_idle(SimTime::ZERO)).collect();
        let sleep_now = exploit
            .iter()
            .filter(|v| **v == IdleVerdict::SleepNow)
            .count();
        assert!(sleep_now > 40, "bandit failed to converge: {sleep_now}/50");
        assert!(p.value[0] > p.value[1]);
    }

    #[test]
    fn config_builds_the_right_impl() {
        let be = secs(13);
        for (cfg, name) in [
            (
                PredictorConfig::FixedThreshold { threshold_s: 5.0 },
                "fixed",
            ),
            (
                PredictorConfig::EwmaIdleWindow {
                    alpha: 0.25,
                    margin: 1.5,
                },
                "ewma",
            ),
            (PredictorConfig::BanditThreshold { epsilon: 0.1 }, "bandit"),
        ] {
            assert_eq!(cfg.label(), name);
            assert_eq!(cfg.build(be, 1).name(), name);
        }
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = PredictorConfig::EwmaIdleWindow {
            alpha: 0.25,
            margin: 1.5,
        };
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: PredictorConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
    }
}
