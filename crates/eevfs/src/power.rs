//! Disk power management (§III-C, §IV-C): the paper's configuration as an
//! `eevfs-power` policy plane.
//!
//! Each storage node receives its slice of the expected access pattern
//! from the server and predicts, per data disk, when the disk will next be
//! *physically* touched — i.e. by a request the buffer disk will not
//! absorb. When a disk goes idle and the predicted window to the next
//! touch exceeds the idle threshold, the disk is sent to standby.
//!
//! Two refinements from the paper:
//!
//! * **Application hints** (§IV-C): with hints the node trusts the
//!   predicted window and sleeps the disk immediately as it goes idle
//!   ("we sleep a disk as a particular request enters the storage client
//!   node") — [`HintedThreshold`]; without hints it waits out the idle
//!   threshold first, the conservative timer behaviour —
//!   [`FixedThreshold`].
//! * **No-opportunity gate**: when the up-front energy prediction model
//!   finds no net benefit, power management stands down for the whole run
//!   rather than thrash drives for nothing.
//!
//! Under NPF the prediction-driven policy never engages: with no buffer
//! coverage there are no absorbed requests to create trustworthy windows,
//! which is why the paper's NPF runs show zero transitions.

use crate::config::{EevfsConfig, PowerPolicy};
use eevfs_power::{FixedThreshold, HintedThreshold, IdlePredictor};
use sim_core::{SimDuration, SimTime};

/// The plane [`paper_plane`] returns and the verdicts it gives, for
/// callers that drive it without depending on `eevfs-power` themselves.
pub use eevfs_power::{IdleVerdict, PolicyPlane};

/// The fields of [`EevfsConfig`] that decide a data disk's sleeps: the
/// whole input of [`paper_plane`] besides the run's own facts. The
/// prototype's nodes, which have no `EevfsConfig`, build one directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerRule {
    /// When data disks are sent to standby.
    pub policy: PowerPolicy,
    /// Whether the node trusts the hinted pattern (§IV-C).
    pub hints: bool,
    /// The idle threshold.
    pub idle_threshold: SimDuration,
}

impl From<&EevfsConfig> for PowerRule {
    fn from(cfg: &EevfsConfig) -> Self {
        PowerRule {
            policy: cfg.power,
            hints: cfg.hints,
            idle_threshold: cfg.idle_threshold,
        }
    }
}

/// Maps the paper's power rule onto a policy plane with no cache tiers
/// and unlimited spin budgets, and says whether it engages.
///
/// * `IdleTimer`, or `PrefetchAware` without hints: every data disk waits
///   out `rule.idle_threshold` ([`FixedThreshold`]).
/// * `PrefetchAware` with hints, engaged: [`HintedThreshold`] over
///   `touches()[node][disk]`, each data disk's sorted expected physical
///   touch times on the pattern clock. `touches` runs only in this case.
///
/// `IdleTimer` always engages; `PrefetchAware` engages only when
/// prefetching is active and the energy model found a benefit
/// (`worthwhile`); `None` never does. A disengaged plane is never asked
/// for a sleep decision, so its predictors are the cheap fixed ones.
pub fn paper_plane(
    rule: impl Into<PowerRule>,
    prefetch_active: bool,
    worthwhile: bool,
    breakeven: &[Vec<SimDuration>],
    touches: impl FnOnce() -> Vec<Vec<Vec<SimTime>>>,
) -> (PolicyPlane, bool) {
    let rule = rule.into();
    let engaged = match rule.policy {
        PowerPolicy::PrefetchAware => prefetch_active && worthwhile,
        PowerPolicy::IdleTimer => true,
        PowerPolicy::None => false,
    };
    let hinted = engaged && rule.policy == PowerPolicy::PrefetchAware && rule.hints;
    let mut touches = hinted.then(touches);
    let threshold = rule.idle_threshold;
    let plane = PolicyPlane::with_predictors(
        eevfs_power::PowerPolicy::paper_fixed(),
        breakeven,
        |node, disk, _| -> Box<dyn IdlePredictor> {
            match touches.as_mut() {
                Some(t) => Box::new(HintedThreshold::new(
                    std::mem::take(&mut t[node][disk]),
                    threshold,
                )),
                None => Box::new(FixedThreshold::new(threshold)),
            }
        },
    );
    (plane, engaged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The paper plane for one node with one data disk expecting
    /// `touches`.
    fn plane(cfg: &EevfsConfig, prefetch: bool, touches: Vec<SimTime>) -> (PolicyPlane, bool) {
        let breakeven = vec![vec![SimDuration::from_secs(13)]];
        paper_plane(cfg, prefetch, true, &breakeven, || vec![vec![touches]])
    }

    #[test]
    fn hints_sleep_now_and_without_hints_a_timer_is_armed() {
        let cfg = EevfsConfig::paper_pf(70);
        let (mut p, engaged) = plane(&cfg, true, vec![secs(100)]);
        assert!(engaged);
        assert_eq!(p.on_idle(0, 0, secs(10)), IdleVerdict::SleepNow);
        let mut cfg = EevfsConfig::paper_pf(70);
        cfg.hints = false;
        let (mut p, engaged) = plane(&cfg, true, vec![secs(100)]);
        assert!(engaged);
        assert_eq!(
            p.on_idle(0, 0, secs(10)),
            IdleVerdict::After(SimDuration::from_secs(5))
        );
        assert!(p.timer_allows_sleep(0, 0));
        assert_eq!(p.predicted_idle(0, 0), None);
    }

    #[test]
    fn npf_never_engages_under_prefetch_aware_policy() {
        let cfg = EevfsConfig::paper_npf();
        let breakeven = vec![vec![SimDuration::from_secs(13)]];
        let (_, engaged) = paper_plane(&cfg, false, true, &breakeven, || {
            unreachable!("a disengaged plane needs no touch schedule")
        });
        assert!(!engaged);
    }

    #[test]
    fn benefit_gate_disables_sleeping() {
        let cfg = EevfsConfig::paper_pf(70);
        let breakeven = vec![vec![SimDuration::from_secs(13)]];
        let (_, engaged) = paper_plane(&cfg, true, false, &breakeven, || {
            unreachable!("a disengaged plane needs no touch schedule")
        });
        assert!(!engaged);
    }

    #[test]
    fn idle_timer_policy_works_without_prefetch() {
        let mut cfg = EevfsConfig::paper_npf();
        cfg.power = PowerPolicy::IdleTimer;
        let (mut p, engaged) = plane(&cfg, false, vec![]);
        assert!(engaged);
        assert_eq!(
            p.on_idle(0, 0, secs(10)),
            IdleVerdict::After(SimDuration::from_secs(5))
        );
    }

    #[test]
    fn none_policy_never_engages() {
        let mut cfg = EevfsConfig::paper_pf(70);
        cfg.power = PowerPolicy::None;
        let (_, engaged) = plane(&cfg, true, vec![]);
        assert!(!engaged);
    }
}
