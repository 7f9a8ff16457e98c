//! # eevfs-power — the adaptive power/caching policy plane
//!
//! The paper's energy win comes from a *static* spin-down threshold and a
//! single buffer disk. This crate owns the upgrade the paper could not
//! evaluate (ROADMAP item 5): online-adaptive idle-window predictors and a
//! tiered buffer cache, both behind traits so the DES driver stays policy
//! agnostic.
//!
//! * [`IdlePredictor`] — when should an idle data disk spin down?
//!   Implementations: the paper's [`FixedThreshold`] and its hint-driven
//!   [`HintedThreshold`] (sleep at idle onset when the next expected
//!   physical touch is at least the threshold away), an
//!   [`EwmaIdleWindow`] estimator that learns per-disk idle-gap lengths
//!   online, and an epsilon-greedy [`BanditThreshold`] that picks among
//!   candidate thresholds using the `PredictionTracker` payoff signal from
//!   `eevfs-obs`. All are seeded and deterministic.
//! * [`CacheTier`] — a capacity-bounded file cache with pluggable
//!   admission/eviction: recency-based [`Lru`] and the frequency-aware
//!   [`SampledLfu`]. The driver stacks a small DRAM tier above an SSD
//!   buffer tier (modelled by `DiskSpec::ssd_buffer`) above the paper's
//!   buffer disk.
//! * [`SpinBudget`] — per-disk spin-cycle budgets honouring an MTTF-style
//!   start/stop-cycle cap: once a disk exhausts its budget the plane
//!   refuses further sleeps rather than wear the drive out.
//! * [`PolicyPlane`] — the per-run assembly of all of the above, built
//!   from a [`PowerPolicy`] config; the `eevfs` driver consults it on the
//!   read path (tier lookups) and at every idle/wake edge (predictor
//!   decisions, budget charging, payoff feedback).
//!
//! Every `eevfs` simulation carries a `PolicyPlane` — without an explicit
//! policy, the paper's, built from its configuration — and remains a pure
//! function of its inputs: every random choice (bandit exploration, LFU
//! sampling) draws from `SimRng` streams seeded from the policy seed and
//! the disk/node coordinates, so same-seed replays are bit-identical at
//! any parallelism.

#![warn(missing_docs)]

pub mod budget;
pub mod policy;
pub mod predictor;
pub mod tier;

pub use budget::{mttf_cycle_cap, SpinBudget};
pub use policy::{PolicyPlane, PowerPolicy, TierStats};
pub use predictor::{
    BanditThreshold, EwmaIdleWindow, FixedThreshold, HintedThreshold, IdlePredictor, IdleVerdict,
    PredictorConfig,
};
pub use tier::{dram_service_time, CacheTier, EvictionPolicy, Lru, SampledLfu, TierConfig};
