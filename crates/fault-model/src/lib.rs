//! Deterministic fault injection for the EEVFS reproduction.
//!
//! The paper assumes every disk and node stays healthy forever, but its
//! headline mechanism — spinning data disks down to standby — is exactly
//! the regime where real clusters see failed spin-ups and unavailable
//! data. This crate produces *fault plans*: time-ordered schedules of
//! disk fail/repair, failed spin-up, and node crash/restart events that
//! are a pure function of a seed, so a (config, seed, fault plan) triple
//! replays bit-identically.
//!
//! Consumers:
//! - `eevfs::driver` schedules plan events into its discrete-event queue
//!   and redirects reads to surviving replicas;
//! - `eevfs-runtime` maps the same events onto protocol messages
//!   (`KillNode`/`ReviveNode`/`FailDisk`/`RepairDisk`) against live node
//!   threads, turning them into injected I/O errors.

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng, SimTime};

pub mod durability;
pub mod net;
pub mod policy;

pub use durability::{
    CorruptionEvent, CorruptionKind, CorruptionPlan, CorruptionSpec, CorruptionTracker, CrashPlan,
    CrashSpec,
};
pub use net::{
    LinkDecision, LinkFaultProfile, NetFaultEvent, NetFaultInjector, NetFaultKind, NetFaultPlan,
    NetFaultSpec,
};
pub use policy::{BackoffSchedule, BreakerConfig, BreakerState, CircuitBreaker, RpcPolicy};

/// One injected fault (or the repair that clears it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The disk drops every request until repaired.
    DiskFail { node: u32, disk: u32 },
    /// The disk returns to service.
    DiskRepair { node: u32, disk: u32 },
    /// The disk's *next* spin-up attempt fails; the retry costs one extra
    /// spin-up latency and energy.
    SpinUpFail { node: u32, disk: u32 },
    /// The whole node (buffer disk included) goes dark.
    NodeCrash { node: u32 },
    /// The node restarts and re-registers with the server.
    NodeRestart { node: u32 },
}

impl FaultKind {
    /// The node this fault lands on.
    pub fn node(&self) -> u32 {
        match *self {
            FaultKind::DiskFail { node, .. }
            | FaultKind::DiskRepair { node, .. }
            | FaultKind::SpinUpFail { node, .. }
            | FaultKind::NodeCrash { node }
            | FaultKind::NodeRestart { node } => node,
        }
    }
}

/// A fault at an instant of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// Parameters for seeded random fault schedules. Rates are per *hour of
/// simulated time* because the paper's traces run minutes to hours.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Schedule RNG seed; same seed, same plan.
    pub seed: u64,
    /// Horizon the schedule covers (events beyond it are not generated).
    pub horizon: SimDuration,
    /// Storage nodes in the cluster.
    pub nodes: u32,
    /// Data disks per node.
    pub disks_per_node: u32,
    /// Mean whole-disk failures per disk-hour (Poisson process).
    pub disk_fail_per_hour: f64,
    /// Mean time from a disk failure to its repair.
    pub mean_repair: SimDuration,
    /// Mean node crashes per node-hour (Poisson process).
    pub node_crash_per_hour: f64,
    /// Mean time from a node crash to its restart.
    pub mean_restart: SimDuration,
    /// Mean failed spin-ups per disk-hour.
    pub spin_up_fail_per_hour: f64,
}

impl FaultSpec {
    /// A quiet baseline: no faults at all.
    pub fn none(nodes: u32, disks_per_node: u32, horizon: SimDuration) -> FaultSpec {
        FaultSpec {
            seed: 0,
            horizon,
            nodes,
            disks_per_node,
            disk_fail_per_hour: 0.0,
            mean_repair: SimDuration::from_secs(120),
            node_crash_per_hour: 0.0,
            mean_restart: SimDuration::from_secs(60),
            spin_up_fail_per_hour: 0.0,
        }
    }
}

/// A validated, time-ordered fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (healthy cluster).
    pub const fn none() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// Builds a plan from explicit events, e.g. replayed from an outage
    /// trace. Events are sorted by time (stable, so same-instant events
    /// keep their given order).
    pub fn from_trace(events: impl IntoIterator<Item = FaultEvent>) -> FaultPlan {
        let mut events: Vec<FaultEvent> = events.into_iter().collect();
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Fluent single-fault constructors for tests and ablations.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder { events: Vec::new() }
    }

    /// Draws a random schedule from `spec`. Each disk and node gets an
    /// independent RNG stream split off the seed, so changing one rate
    /// does not perturb the other components' schedules.
    pub fn generate(spec: &FaultSpec) -> FaultPlan {
        let mut root = SimRng::seed_from_u64(spec.seed ^ 0x000F_A017_5EED);
        let mut events = Vec::new();
        let horizon_s = spec.horizon.as_secs_f64();
        for node in 0..spec.nodes {
            let mut node_rng = root.split();
            // Node crash/restart alternation.
            if spec.node_crash_per_hour > 0.0 {
                let mut t = 0.0f64;
                loop {
                    t += node_rng.exponential(3600.0 / spec.node_crash_per_hour);
                    if t >= horizon_s {
                        break;
                    }
                    events.push(FaultEvent {
                        at: SimTime::from_micros((t * 1e6) as u64),
                        kind: FaultKind::NodeCrash { node },
                    });
                    t += node_rng.exponential(spec.mean_restart.as_secs_f64().max(1e-6));
                    if t >= horizon_s {
                        break;
                    }
                    events.push(FaultEvent {
                        at: SimTime::from_micros((t * 1e6) as u64),
                        kind: FaultKind::NodeRestart { node },
                    });
                }
            }
            for disk in 0..spec.disks_per_node {
                let mut disk_rng = node_rng.split();
                if spec.disk_fail_per_hour > 0.0 {
                    let mut t = 0.0f64;
                    loop {
                        t += disk_rng.exponential(3600.0 / spec.disk_fail_per_hour);
                        if t >= horizon_s {
                            break;
                        }
                        events.push(FaultEvent {
                            at: SimTime::from_micros((t * 1e6) as u64),
                            kind: FaultKind::DiskFail { node, disk },
                        });
                        t += disk_rng.exponential(spec.mean_repair.as_secs_f64().max(1e-6));
                        if t >= horizon_s {
                            break;
                        }
                        events.push(FaultEvent {
                            at: SimTime::from_micros((t * 1e6) as u64),
                            kind: FaultKind::DiskRepair { node, disk },
                        });
                    }
                }
                if spec.spin_up_fail_per_hour > 0.0 {
                    let mut t = 0.0f64;
                    loop {
                        t += disk_rng.exponential(3600.0 / spec.spin_up_fail_per_hour);
                        if t >= horizon_s {
                            break;
                        }
                        events.push(FaultEvent {
                            at: SimTime::from_micros((t * 1e6) as u64),
                            kind: FaultKind::SpinUpFail { node, disk },
                        });
                    }
                }
            }
        }
        FaultPlan::from_trace(events)
    }

    /// The schedule, ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Events that target nodes or disks outside the given cluster shape
    /// (useful to validate a hand-written plan against a config).
    pub fn out_of_range(&self, nodes: u32, disks_per_node: u32) -> Vec<FaultEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| match e.kind {
                FaultKind::DiskFail { node, disk }
                | FaultKind::DiskRepair { node, disk }
                | FaultKind::SpinUpFail { node, disk } => node >= nodes || disk >= disks_per_node,
                FaultKind::NodeCrash { node } | FaultKind::NodeRestart { node } => node >= nodes,
            })
            .collect()
    }
}

/// Fluent builder for explicit plans.
#[derive(Debug, Clone, Default)]
pub struct FaultPlanBuilder {
    events: Vec<FaultEvent>,
}

impl FaultPlanBuilder {
    pub fn disk_fail(mut self, at: SimTime, node: u32, disk: u32) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DiskFail { node, disk },
        });
        self
    }

    pub fn disk_repair(mut self, at: SimTime, node: u32, disk: u32) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DiskRepair { node, disk },
        });
        self
    }

    pub fn spin_up_fail(mut self, at: SimTime, node: u32, disk: u32) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::SpinUpFail { node, disk },
        });
        self
    }

    pub fn node_crash(mut self, at: SimTime, node: u32) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::NodeCrash { node },
        });
        self
    }

    pub fn node_restart(mut self, at: SimTime, node: u32) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::NodeRestart { node },
        });
        self
    }

    pub fn build(self) -> FaultPlan {
        FaultPlan::from_trace(self.events)
    }
}

/// Live health state derived by replaying a [`FaultPlan`] up to "now".
///
/// Both the simulator and the threaded runtime keep one of these next to
/// their clock: `apply_until` returns the events that fired in the window
/// so the caller can act on them (mark disks dead, drop connections), and
/// the `*_ok` accessors answer routing queries.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    plan: FaultPlan,
    cursor: usize,
    node_up: Vec<bool>,
    disk_up: Vec<Vec<bool>>,
    /// Disks whose next spin-up attempt fails (cleared on consumption).
    spin_up_poisoned: Vec<Vec<bool>>,
}

impl HealthTracker {
    pub fn new(plan: FaultPlan, nodes: usize, disks_per_node: usize) -> HealthTracker {
        HealthTracker {
            plan,
            cursor: 0,
            node_up: vec![true; nodes],
            disk_up: vec![vec![true; disks_per_node]; nodes],
            spin_up_poisoned: vec![vec![false; disks_per_node]; nodes],
        }
    }

    /// Applies every event with `at <= now`, returning them in order.
    pub fn apply_until(&mut self, now: SimTime) -> Vec<FaultEvent> {
        let mut fired = Vec::new();
        while let Some(&ev) = self.plan.events.get(self.cursor) {
            if ev.at > now {
                break;
            }
            self.cursor += 1;
            self.apply(ev.kind);
            fired.push(ev);
        }
        fired
    }

    fn apply(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::DiskFail { node, disk } => {
                if let Some(d) = self.disk_slot(node, disk) {
                    *d = false;
                }
            }
            FaultKind::DiskRepair { node, disk } => {
                if let Some(d) = self.disk_slot(node, disk) {
                    *d = true;
                }
            }
            FaultKind::SpinUpFail { node, disk } => {
                if let Some(row) = self.spin_up_poisoned.get_mut(node as usize) {
                    if let Some(p) = row.get_mut(disk as usize) {
                        *p = true;
                    }
                }
            }
            FaultKind::NodeCrash { node } => {
                if let Some(n) = self.node_up.get_mut(node as usize) {
                    *n = false;
                }
            }
            FaultKind::NodeRestart { node } => {
                if let Some(n) = self.node_up.get_mut(node as usize) {
                    *n = true;
                }
            }
        }
    }

    fn disk_slot(&mut self, node: u32, disk: u32) -> Option<&mut bool> {
        self.disk_up.get_mut(node as usize)?.get_mut(disk as usize)
    }

    /// Time of the next unapplied event, if any (for event-queue bridges).
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.plan.events.get(self.cursor).map(|e| e.at)
    }

    pub fn node_ok(&self, node: usize) -> bool {
        self.node_up.get(node).copied().unwrap_or(false)
    }

    /// A disk serves requests only when both it and its node are up.
    pub fn disk_ok(&self, node: usize, disk: usize) -> bool {
        self.node_ok(node)
            && self
                .disk_up
                .get(node)
                .and_then(|row| row.get(disk))
                .copied()
                .unwrap_or(false)
    }

    /// Consumes a pending spin-up poisoning for this disk. Returns true if
    /// the caller must model one failed spin-up attempt (extra latency and
    /// energy) before the disk comes back.
    pub fn take_spin_up_failure(&mut self, node: usize, disk: usize) -> bool {
        match self
            .spin_up_poisoned
            .get_mut(node)
            .and_then(|row| row.get_mut(disk))
        {
            Some(p) if *p => {
                *p = false;
                true
            }
            _ => false,
        }
    }

    /// True when every node and disk is currently up.
    pub fn all_healthy(&self) -> bool {
        self.node_up.iter().all(|&n| n) && self.disk_up.iter().all(|row| row.iter().all(|&d| d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec {
            seed: 42,
            horizon: SimDuration::from_secs(3600),
            nodes: 4,
            disks_per_node: 2,
            disk_fail_per_hour: 2.0,
            mean_repair: SimDuration::from_secs(120),
            node_crash_per_hour: 1.0,
            mean_restart: SimDuration::from_secs(60),
            spin_up_fail_per_hour: 1.0,
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = FaultPlan::generate(&spec());
        let b = FaultPlan::generate(&spec());
        assert_eq!(a, b);
        assert!(!a.is_empty(), "rates this high should produce events");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&spec());
        let b = FaultPlan::generate(&FaultSpec { seed: 43, ..spec() });
        assert_ne!(a, b);
    }

    #[test]
    fn events_sorted_and_in_range() {
        let plan = FaultPlan::generate(&spec());
        for w in plan.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(plan.out_of_range(4, 2).is_empty());
        assert!(!plan.out_of_range(1, 1).is_empty());
    }

    #[test]
    fn zero_rates_mean_no_events() {
        let plan = FaultPlan::generate(&FaultSpec::none(8, 2, SimDuration::from_secs(3600)));
        assert!(plan.is_empty());
    }

    #[test]
    fn changing_one_rate_keeps_other_components_stable() {
        // Disk failures come from per-disk split streams, so turning node
        // crashes off must not move the disk-failure schedule.
        let with_crashes = FaultPlan::generate(&spec());
        let without = FaultPlan::generate(&FaultSpec {
            node_crash_per_hour: 0.0,
            ..spec()
        });
        let disk_events = |p: &FaultPlan| {
            p.events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::DiskFail { .. }))
                .count()
        };
        assert_eq!(disk_events(&with_crashes), disk_events(&without));
    }

    #[test]
    fn tracker_applies_fail_and_repair() {
        let plan = FaultPlan::builder()
            .disk_fail(SimTime::from_secs(10), 1, 0)
            .disk_repair(SimTime::from_secs(20), 1, 0)
            .node_crash(SimTime::from_secs(15), 2)
            .node_restart(SimTime::from_secs(25), 2)
            .build();
        let mut t = HealthTracker::new(plan, 4, 2);
        assert!(t.all_healthy());
        assert_eq!(t.apply_until(SimTime::from_secs(9)).len(), 0);

        let fired = t.apply_until(SimTime::from_secs(16));
        assert_eq!(fired.len(), 2);
        assert!(!t.disk_ok(1, 0));
        assert!(t.disk_ok(1, 1));
        assert!(!t.node_ok(2));
        // A healthy disk on a dead node is still unreachable.
        assert!(!t.disk_ok(2, 0));

        t.apply_until(SimTime::from_secs(30));
        assert!(t.all_healthy());
        assert_eq!(t.next_event_at(), None);
    }

    #[test]
    fn spin_up_poisoning_is_consumed_once() {
        let plan = FaultPlan::builder()
            .spin_up_fail(SimTime::from_secs(5), 0, 1)
            .build();
        let mut t = HealthTracker::new(plan, 2, 2);
        t.apply_until(SimTime::from_secs(6));
        assert!(t.disk_ok(0, 1), "poisoned disk still counts as up");
        assert!(t.take_spin_up_failure(0, 1));
        assert!(!t.take_spin_up_failure(0, 1), "consumed only once");
    }

    #[test]
    fn from_trace_sorts_events() {
        let plan = FaultPlan::from_trace([
            FaultEvent {
                at: SimTime::from_secs(30),
                kind: FaultKind::NodeCrash { node: 0 },
            },
            FaultEvent {
                at: SimTime::from_secs(10),
                kind: FaultKind::NodeRestart { node: 0 },
            },
        ]);
        assert_eq!(plan.events()[0].at, SimTime::from_secs(10));
    }
}
