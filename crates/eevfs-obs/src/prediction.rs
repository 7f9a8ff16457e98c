//! Power-manager prediction-accuracy accounting.
//!
//! EEVFS spins a disk down when the predicted idle window clears the
//! drive's breakeven time (§III-C). The paper never reports how often that
//! prediction was *right* — this module closes the loop: every sleep
//! decision opens a window, the next wake (or the end of the run) closes
//! it, and the realised idle is scored against breakeven. A sleep "paid
//! off" when the disk actually stayed down at least the breakeven time.

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One closed sleep window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionSample {
    /// Node owning the disk.
    pub node: u32,
    /// Disk index within the node.
    pub disk: u32,
    /// Predicted idle at decision time, µs (`None` = predictor saw no
    /// future touches, an unbounded prediction).
    pub predicted_us: Option<u64>,
    /// Realised idle: sleep decision to next wake (or run end), µs.
    pub realized_us: u64,
    /// The drive's breakeven time, µs.
    pub breakeven_us: u64,
}

impl PredictionSample {
    /// True when the realised window met breakeven — the sleep saved
    /// energy on net.
    pub fn paid_off(&self) -> bool {
        self.realized_us >= self.breakeven_us
    }
}

/// Tracks open sleep windows and accumulates closed samples.
#[derive(Debug, Clone, Default)]
pub struct PredictionTracker {
    open: BTreeMap<(u32, u32), (u64, Option<u64>, u64)>, // slept_at, predicted, breakeven
    samples: Vec<PredictionSample>,
}

impl PredictionTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sleep decision for `(node, disk)` at `at` with the
    /// manager's predicted idle window and the drive's breakeven time.
    pub fn on_sleep(
        &mut self,
        node: u32,
        disk: u32,
        at: SimTime,
        predicted: Option<SimDuration>,
        breakeven: SimDuration,
    ) {
        self.open.insert(
            (node, disk),
            (
                at.as_micros(),
                predicted.map(SimDuration::as_micros),
                breakeven.as_micros(),
            ),
        );
    }

    /// Closes the open window for `(node, disk)` at wake time `at`,
    /// returning the sample (None when no sleep was outstanding).
    pub fn on_wake(&mut self, node: u32, disk: u32, at: SimTime) -> Option<PredictionSample> {
        let (slept_at, predicted_us, breakeven_us) = self.open.remove(&(node, disk))?;
        let sample = PredictionSample {
            node,
            disk,
            predicted_us,
            realized_us: at.as_micros().saturating_sub(slept_at),
            breakeven_us,
        };
        self.samples.push(sample);
        Some(sample)
    }

    /// Closes every still-open window at the end of the run. Disks asleep
    /// at `end` realised their whole remaining window.
    pub fn finish(&mut self, end: SimTime) -> Vec<PredictionSample> {
        let keys: Vec<(u32, u32)> = self.open.keys().copied().collect();
        keys.iter()
            .filter_map(|&(n, d)| self.on_wake(n, d, end))
            .collect()
    }

    /// All closed samples, in close order.
    pub fn samples(&self) -> &[PredictionSample] {
        &self.samples
    }

    /// The closed samples by value, in close order, dropping any window
    /// still open.
    pub fn into_samples(self) -> Vec<PredictionSample> {
        self.samples
    }

    /// Aggregates the closed samples.
    pub fn summary(&self) -> PredictionSummary {
        let mut s = PredictionSummary::default();
        let mut predicted_sum = 0u64;
        let mut predicted_n = 0u64;
        let mut realized_sum = 0u64;
        for sample in &self.samples {
            s.sleeps += 1;
            if sample.paid_off() {
                s.paid_off += 1;
            }
            realized_sum += sample.realized_us;
            if let Some(p) = sample.predicted_us {
                predicted_sum += p;
                predicted_n += 1;
            }
        }
        if predicted_n > 0 {
            s.mean_predicted_s = predicted_sum as f64 / predicted_n as f64 / 1e6;
        }
        if s.sleeps > 0 {
            s.mean_realized_s = realized_sum as f64 / s.sleeps as f64 / 1e6;
        }
        s
    }
}

/// Run-level prediction-accuracy summary — the number the paper discusses
/// but never plots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PredictionSummary {
    /// Sleep decisions taken (closed windows).
    pub sleeps: u64,
    /// Sleeps whose realised idle met the drive's breakeven time.
    pub paid_off: u64,
    /// Mean predicted idle window in seconds, over bounded predictions.
    pub mean_predicted_s: f64,
    /// Mean realised idle window in seconds, over all sleeps.
    pub mean_realized_s: f64,
}

impl PredictionSummary {
    /// Fraction of sleeps that paid off; 1.0 when no sleep was taken (no
    /// decision was wrong).
    pub fn accuracy(&self) -> f64 {
        if self.sleeps == 0 {
            1.0
        } else {
            self.paid_off as f64 / self.sleeps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn dur(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn sleep_then_wake_scores_against_breakeven() {
        let mut t = PredictionTracker::new();
        t.on_sleep(0, 1, secs(10), Some(dur(60)), dur(12));
        let sample = t.on_wake(0, 1, secs(70)).unwrap();
        assert_eq!(sample.realized_us, 60_000_000);
        assert!(sample.paid_off());

        t.on_sleep(0, 1, secs(100), Some(dur(60)), dur(12));
        let early = t.on_wake(0, 1, secs(105)).unwrap();
        assert!(!early.paid_off(), "5 s realised < 12 s breakeven");
    }

    #[test]
    fn wake_without_sleep_is_ignored() {
        let mut t = PredictionTracker::new();
        assert!(t.on_wake(0, 0, secs(5)).is_none());
    }

    #[test]
    fn finish_closes_outstanding_windows() {
        let mut t = PredictionTracker::new();
        t.on_sleep(0, 0, secs(10), None, dur(12));
        t.on_sleep(1, 2, secs(20), Some(dur(600)), dur(12));
        let closed = t.finish(secs(600));
        assert_eq!(closed.len(), 2);
        assert_eq!(t.samples().len(), 2);
        assert!(closed.iter().all(PredictionSample::paid_off));
        assert_eq!(t.into_samples(), closed);
    }

    #[test]
    fn summary_aggregates_means_and_accuracy() {
        let mut t = PredictionTracker::new();
        t.on_sleep(0, 0, secs(0), Some(dur(40)), dur(12));
        t.on_wake(0, 0, secs(30)); // paid off
        t.on_sleep(0, 0, secs(50), Some(dur(20)), dur(12));
        t.on_wake(0, 0, secs(52)); // 2 s: did not pay off
        t.on_sleep(0, 1, secs(0), None, dur(12));
        t.on_wake(0, 1, secs(100)); // unbounded prediction, paid off
        let s = t.summary();
        assert_eq!(s.sleeps, 3);
        assert_eq!(s.paid_off, 2);
        assert!((s.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert!(
            (s.mean_predicted_s - 30.0).abs() < 1e-9,
            "over bounded only"
        );
        assert!((s.mean_realized_s - 44.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_vacuously_accurate() {
        let s = PredictionTracker::new().summary();
        assert_eq!(s.sleeps, 0);
        assert_eq!(s.accuracy(), 1.0);
        assert_eq!(s.mean_predicted_s, 0.0);
    }
}
