//! The per-run policy plane: predictors, tiers, and budgets assembled
//! from one [`PowerPolicy`] config.
//!
//! The `eevfs` driver owns the event loop and the device models; this
//! plane owns every *decision*: whether an idle disk sleeps, whether a
//! read is served from DRAM or SSD before touching the spin-up path, and
//! whether a spin-down is still within the drive's MTTF cycle allowance.
//! Keeping decisions here means a new policy is a new `PowerPolicy`
//! value, not a driver change.

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};

use eevfs_obs::PredictionSample;

use crate::budget::SpinBudget;
use crate::predictor::{IdlePredictor, IdleVerdict, PredictorConfig};
use crate::tier::{CacheTier, TierConfig};

/// Complete power/caching policy for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerPolicy {
    /// Idle-window predictor governing data-disk spin-downs.
    pub predictor: PredictorConfig,
    /// Cache-tier sizing above the buffer disk.
    pub tier: TierConfig,
    /// Per-disk spin-down cycle cap (`None` = uncapped).
    pub spin_cycle_cap: Option<u32>,
    /// Seed for every random policy choice (bandit exploration, LFU
    /// sampling), mixed with disk coordinates per instance.
    pub seed: u64,
}

impl PowerPolicy {
    /// The paper's static policy: a fixed 5 s idle threshold, no cache
    /// tiers, no cycle cap.
    pub fn paper_fixed() -> Self {
        PowerPolicy {
            predictor: PredictorConfig::FixedThreshold { threshold_s: 5.0 },
            tier: TierConfig::none(),
            spin_cycle_cap: None,
            seed: 0x5EED_0001,
        }
    }

    /// EWMA idle-window estimation with default smoothing and margin.
    pub fn ewma() -> Self {
        PowerPolicy {
            predictor: PredictorConfig::EwmaIdleWindow {
                alpha: 0.25,
                margin: 1.5,
            },
            ..Self::paper_fixed()
        }
    }

    /// Epsilon-greedy bandit over candidate thresholds.
    pub fn bandit() -> Self {
        PowerPolicy {
            predictor: PredictorConfig::BanditThreshold { epsilon: 0.1 },
            ..Self::paper_fixed()
        }
    }

    /// Returns the policy with the given tier configuration.
    pub fn with_tier(mut self, tier: TierConfig) -> Self {
        self.tier = tier;
        self
    }

    /// Returns the policy with the given per-disk spin-cycle cap.
    pub fn with_spin_cap(mut self, cap: u32) -> Self {
        self.spin_cycle_cap = Some(cap);
        self
    }

    /// Returns the policy with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Short `predictor/tier` label for reports.
    pub fn label(&self) -> String {
        format!("{}/{}", self.predictor.label(), self.tier.label())
    }
}

/// Tier and budget outcomes for one run, embedded in `RunMetrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TierStats {
    /// Reads served from the DRAM tier.
    pub dram_hits: u64,
    /// Reads that missed the DRAM tier (tier enabled only).
    pub dram_misses: u64,
    /// DRAM-tier capacity evictions.
    pub dram_evictions: u64,
    /// Reads served from the SSD buffer tier.
    pub ssd_hits: u64,
    /// Reads that missed the SSD tier (tier enabled only).
    pub ssd_misses: u64,
    /// SSD-tier capacity evictions.
    pub ssd_evictions: u64,
    /// Sleeps refused because a disk's spin-cycle budget was exhausted.
    pub sleeps_denied: u64,
    /// Total data-disk spin-down cycles actually taken.
    pub spin_cycles: u64,
    /// Energy drawn by the SSD buffer tier, joules (also folded into the
    /// run's disk energy total).
    pub ssd_energy_j: f64,
}

/// Deterministic per-instance seed: policy seed mixed with coordinates
/// via splitmix64 so adjacent disks get uncorrelated streams.
fn mix_seed(seed: u64, node: u32, disk: u32, salt: u64) -> u64 {
    let mut z =
        seed ^ (u64::from(node) << 32) ^ u64::from(disk) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct DiskPolicy {
    predictor: Box<dyn IdlePredictor>,
    budget: SpinBudget,
}

/// Per-run assembly of predictors, budgets, and cache tiers.
///
/// Indexed by `(node, disk)` for power decisions and by `node` for tier
/// lookups (tiers are node-local, like the buffer disk they sit above).
pub struct PolicyPlane {
    policy: PowerPolicy,
    disks: Vec<Vec<DiskPolicy>>,
    /// How far simulation time runs ahead of the expected access
    /// pattern's clock (closed-loop replay); predictors see `now − drift`.
    drift: SimDuration,
    dram: Vec<Box<dyn CacheTier>>,
    ssd: Vec<Box<dyn CacheTier>>,
}

impl std::fmt::Debug for PolicyPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyPlane")
            .field("policy", &self.policy)
            .field("nodes", &self.disks.len())
            .finish()
    }
}

impl PolicyPlane {
    /// Builds the plane for a cluster where node `n` has
    /// `data_disks[n].len()` data disks with the given per-disk breakeven
    /// times.
    pub fn new(policy: PowerPolicy, breakeven: &[Vec<SimDuration>]) -> Self {
        let (config, seed) = (policy.predictor.clone(), policy.seed);
        Self::with_predictors(policy, breakeven, |n, d, be| {
            config.build(be, mix_seed(seed, n as u32, d as u32, 1))
        })
    }

    /// Builds the plane with caller-built predictors:
    /// `predictor(node, disk, breakeven)` supplies each data disk's
    /// predictor in place of `policy.predictor`, which this plane then
    /// never consults. Tiers, budgets and seeds still follow `policy`.
    pub fn with_predictors(
        policy: PowerPolicy,
        breakeven: &[Vec<SimDuration>],
        mut predictor: impl FnMut(usize, usize, SimDuration) -> Box<dyn IdlePredictor>,
    ) -> Self {
        let disks = breakeven
            .iter()
            .enumerate()
            .map(|(n, node_be)| {
                node_be
                    .iter()
                    .enumerate()
                    .map(|(d, &be)| DiskPolicy {
                        predictor: predictor(n, d, be),
                        budget: match policy.spin_cycle_cap {
                            Some(cap) => SpinBudget::new(cap),
                            None => SpinBudget::unlimited(),
                        },
                    })
                    .collect()
            })
            .collect();
        let nodes = breakeven.len();
        let dram = (0..nodes)
            .map(|n| {
                policy.tier.policy.build(
                    policy.tier.dram_bytes,
                    mix_seed(policy.seed, n as u32, 0, 2),
                )
            })
            .collect();
        let ssd = (0..nodes)
            .map(|n| {
                policy
                    .tier
                    .policy
                    .build(policy.tier.ssd_bytes, mix_seed(policy.seed, n as u32, 0, 3))
            })
            .collect();
        PolicyPlane {
            policy,
            disks,
            drift: SimDuration::ZERO,
            dram,
            ssd,
        }
    }

    /// Whether the DRAM tier is enabled.
    pub fn has_dram(&self) -> bool {
        self.policy.tier.dram_bytes > 0
    }

    /// Whether the SSD buffer tier is enabled (the driver instantiates an
    /// `ssd_buffer` disk per node when true).
    pub fn has_ssd(&self) -> bool {
        self.policy.tier.ssd_bytes > 0
    }

    /// Updates the pattern-clock drift: under closed-loop replay actual
    /// time runs ahead of the expected pattern by however long responses
    /// have taken. Must not exceed the simulation time of any later
    /// [`Self::on_idle`].
    pub fn set_drift(&mut self, drift: SimDuration) {
        self.drift = drift;
    }

    /// Predictor verdict for a disk that went idle at `now`; the predictor
    /// sees `now` on the pattern clock.
    pub fn on_idle(&mut self, node: usize, disk: usize, now: SimTime) -> IdleVerdict {
        let pattern_now =
            SimTime::from_micros(now.as_micros().saturating_sub(self.drift.as_micros()));
        self.disks[node][disk].predictor.on_idle(pattern_now)
    }

    /// Reports that an access the expected pattern predicted reached
    /// `(node, disk)`.
    pub fn on_expected_touch(&mut self, node: usize, disk: usize) {
        self.disks[node][disk].predictor.on_expected_touch();
    }

    /// Whether an expired idle timer should still put the disk down.
    pub fn timer_allows_sleep(&self, node: usize, disk: usize) -> bool {
        self.disks[node][disk].predictor.timer_allows_sleep()
    }

    /// Charges one spin-down against the disk's cycle budget; a `false`
    /// return means the sleep must be skipped (counted as denied).
    pub fn try_charge_spin(&mut self, node: usize, disk: usize) -> bool {
        self.disks[node][disk].budget.try_charge()
    }

    /// The predictor's current idle estimate for the ledger.
    pub fn predicted_idle(&self, node: usize, disk: usize) -> Option<SimDuration> {
        self.disks[node][disk].predictor.predicted_idle()
    }

    /// Feeds a realised idle gap (busy end → this access) to the disk's
    /// predictor. Zero gaps are ignored.
    pub fn on_access(&mut self, node: usize, disk: usize, idle_gap: SimDuration) {
        if !idle_gap.is_zero() {
            self.disks[node][disk].predictor.on_access(idle_gap);
        }
    }

    /// Feeds a closed sleep sample (the ledger's payoff signal) back to
    /// the predictor that caused it.
    pub fn observe(&mut self, sample: &PredictionSample) {
        let (n, d) = (sample.node as usize, sample.disk as usize);
        if let Some(dp) = self.disks.get_mut(n).and_then(|v| v.get_mut(d)) {
            dp.predictor.observe(sample);
        }
    }

    /// DRAM-tier lookup for `file` on `node` (false when disabled).
    pub fn dram_lookup(&mut self, node: usize, file: u32) -> bool {
        self.has_dram() && self.dram[node].lookup(file)
    }

    /// SSD-tier lookup for `file` on `node` (false when disabled).
    pub fn ssd_lookup(&mut self, node: usize, file: u32) -> bool {
        self.has_ssd() && self.ssd[node].lookup(file)
    }

    /// Admits a just-served file into the tiers: DRAM always, SSD only
    /// when the read had to reach a data disk (`reached_data_disk`) —
    /// buffer-disk hits are already cheap and would churn the SSD.
    pub fn admit(&mut self, node: usize, file: u32, bytes: u64, reached_data_disk: bool) {
        if self.has_dram() {
            self.dram[node].admit(file, bytes);
        }
        if self.has_ssd() && reached_data_disk {
            self.ssd[node].admit(file, bytes);
        }
    }

    /// Drops `file` from every tier on `node` (a write made it stale).
    pub fn invalidate(&mut self, node: usize, file: u32) {
        if self.has_dram() {
            self.dram[node].invalidate(file);
        }
        if self.has_ssd() {
            self.ssd[node].invalidate(file);
        }
    }

    /// Snapshot of tier and budget outcomes. `spin_cycles` and
    /// `ssd_energy_j` are filled by the driver from the device models.
    pub fn stats(&self) -> TierStats {
        let mut s = TierStats::default();
        for t in &self.dram {
            s.dram_hits += t.hits();
            s.dram_misses += t.misses();
            s.dram_evictions += t.evictions();
        }
        for t in &self.ssd {
            s.ssd_hits += t.hits();
            s.ssd_misses += t.misses();
            s.ssd_evictions += t.evictions();
        }
        for node in &self.disks {
            for dp in node {
                s.sleeps_denied += u64::from(dp.budget.denied());
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::HintedThreshold;
    use crate::tier::EvictionPolicy;

    fn breakevens() -> Vec<Vec<SimDuration>> {
        vec![vec![SimDuration::from_secs(13); 2]; 2]
    }

    #[test]
    fn policy_roundtrips_through_json() {
        let p = PowerPolicy::ewma()
            .with_tier(TierConfig {
                dram_bytes: 64 << 20,
                ssd_bytes: 1 << 30,
                policy: EvictionPolicy::SampledLfu { sample: 8 },
            })
            .with_spin_cap(100)
            .with_seed(42);
        let json = serde_json::to_string(&p).expect("serialize");
        let back: PowerPolicy = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(p, back);
        assert_eq!(p.label(), "ewma/dram64m+ssd1g/slfu");
    }

    #[test]
    fn plane_routes_decisions_per_disk() {
        let mut plane = PolicyPlane::new(PowerPolicy::paper_fixed(), &breakevens());
        assert_eq!(
            plane.on_idle(0, 0, SimTime::ZERO),
            IdleVerdict::After(SimDuration::from_secs_f64(5.0))
        );
        assert!(plane.timer_allows_sleep(1, 1));
        assert!(!plane.has_dram());
        assert!(!plane.has_ssd());
        assert!(!plane.dram_lookup(0, 7));
        // Disabled tiers count nothing.
        assert_eq!(plane.stats(), TierStats::default());
    }

    #[test]
    fn plane_hands_predictors_the_pattern_clock() {
        let mut plane =
            PolicyPlane::with_predictors(PowerPolicy::paper_fixed(), &breakevens(), |n, d, _| {
                let touch = SimTime::from_secs(12 + 100 * (2 * n + d) as u64);
                Box::new(HintedThreshold::new(vec![touch], SimDuration::from_secs(5)))
            });
        // Disk (0,0) expects a touch at 12 s: 2 s away at t=10.
        assert_eq!(
            plane.on_idle(0, 0, SimTime::from_secs(10)),
            IdleVerdict::Stay
        );
        // 8 s of drift puts the pattern clock at 2 s: 10 s away.
        plane.set_drift(SimDuration::from_secs(8));
        assert_eq!(
            plane.on_idle(0, 0, SimTime::from_secs(10)),
            IdleVerdict::SleepNow
        );
        assert_eq!(plane.predicted_idle(0, 0), Some(SimDuration::from_secs(10)));
        // The touch arrives: nothing pending, the window is unbounded.
        plane.on_expected_touch(0, 0);
        assert_eq!(
            plane.on_idle(0, 0, SimTime::from_secs(10)),
            IdleVerdict::SleepNow
        );
        assert_eq!(plane.predicted_idle(0, 0), None);
        // Other disks keep their own schedules.
        assert_eq!(
            plane.on_idle(0, 1, SimTime::from_secs(10)),
            IdleVerdict::SleepNow
        );
        assert_eq!(
            plane.predicted_idle(0, 1),
            Some(SimDuration::from_secs(110))
        );
    }

    #[test]
    fn plane_enforces_spin_budgets_per_disk() {
        let mut plane =
            PolicyPlane::new(PowerPolicy::paper_fixed().with_spin_cap(1), &breakevens());
        assert!(plane.try_charge_spin(0, 0));
        assert!(!plane.try_charge_spin(0, 0));
        // Budgets are per disk, not shared.
        assert!(plane.try_charge_spin(0, 1));
        assert_eq!(plane.stats().sleeps_denied, 1);
    }

    #[test]
    fn plane_tiers_hit_after_admit_and_invalidate() {
        let tier = TierConfig {
            dram_bytes: 1 << 20,
            ssd_bytes: 1 << 20,
            policy: EvictionPolicy::Lru,
        };
        let mut plane = PolicyPlane::new(PowerPolicy::paper_fixed().with_tier(tier), &breakevens());
        assert!(!plane.dram_lookup(0, 7));
        plane.admit(0, 7, 4096, true);
        assert!(plane.dram_lookup(0, 7));
        assert!(plane.ssd_lookup(0, 7));
        // Buffer-disk-served reads stay out of the SSD tier.
        plane.admit(0, 8, 4096, false);
        assert!(plane.dram_lookup(0, 8));
        assert!(!plane.ssd_lookup(0, 8));
        // Tiers are node-local.
        assert!(!plane.dram_lookup(1, 7));
        plane.invalidate(0, 7);
        assert!(!plane.dram_lookup(0, 7));
        assert!(!plane.ssd_lookup(0, 7));
        let s = plane.stats();
        assert_eq!(s.dram_hits, 2);
        assert!(s.ssd_hits >= 1);
    }

    #[test]
    fn plane_feeds_payoff_to_predictors() {
        let mut plane = PolicyPlane::new(PowerPolicy::ewma(), &breakevens());
        // Before any signal: cold-start hedge.
        assert_eq!(
            plane.on_idle(0, 0, SimTime::ZERO),
            IdleVerdict::After(SimDuration::from_secs(13))
        );
        plane.observe(&PredictionSample {
            node: 0,
            disk: 0,
            predicted_us: None,
            realized_us: SimDuration::from_secs(60).as_micros(),
            breakeven_us: SimDuration::from_secs(13).as_micros(),
        });
        assert_eq!(plane.on_idle(0, 0, SimTime::ZERO), IdleVerdict::SleepNow);
        // Disk (0,1) saw nothing and still hedges.
        assert_eq!(
            plane.on_idle(0, 1, SimTime::ZERO),
            IdleVerdict::After(SimDuration::from_secs(13))
        );
    }
}
