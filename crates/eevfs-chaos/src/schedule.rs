//! The chaos schedule: one fully-explicit, serializable scenario.
//!
//! A [`ChaosSchedule`] is the unit the whole engine revolves around. It
//! pins *everything* a run depends on — trace parameters, replication,
//! scrub/power knobs, and the four fault-event lists in explicit form —
//! so that (a) executing it is a pure function with no hidden state, (b)
//! the shrinker can delete individual events, and (c) a JSON round-trip
//! reproduces the run bit-for-bit.
//!
//! Schedules are *sampled* from a [`SeverityEnvelope`]: per-scenario
//! split-stream RNGs draw concrete Poisson rates inside the envelope,
//! the existing `fault-model` generators materialise plans from those
//! rates, and the plans' events are flattened into the schedule. The
//! envelope changes *what* is explored; the schedule records *exactly*
//! what was explored.

use fault_model::{
    CorruptionEvent, CorruptionPlan, CorruptionSpec, CrashPlan, CrashSpec, FaultEvent, FaultPlan,
    FaultSpec, LinkFaultProfile, NetFaultEvent, NetFaultPlan, NetFaultSpec, RpcPolicy,
};
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng};

/// Storage nodes in the chaos cluster (the paper's 8-node testbed).
pub const NODES: u32 = 8;
/// Data disks per node in the chaos cluster.
pub const DISKS_PER_NODE: u32 = 2;
/// Blocks per data disk in the scrub address space.
pub const BLOCKS_PER_DISK: u32 = 2048;
/// The paper's inter-arrival gap, used to size schedule horizons.
const INTER_ARRIVAL_S: f64 = 0.7;
/// Slack past the last trace arrival so repairs/heals can land.
const HORIZON_MARGIN_S: u64 = 120;

/// One fully-explicit chaos scenario: every input of a run, serialized.
///
/// Executing the same schedule twice — in any process, at any `--jobs`
/// count — produces byte-identical [`eevfs::RunMetrics`]; that is the
/// determinism contract reproducer artifacts rely on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// Seed for the synthetic trace and any seeded policy streams.
    pub seed: u64,
    /// Requests in the synthetic trace.
    pub requests: u32,
    /// Replica count (`EevfsConfig::paper_pf_replicated`).
    pub replication: u32,
    /// Piggyback scrubbing on (`ScrubPolicy::piggyback_default`) or off.
    pub scrub: bool,
    /// Power plane: 0 = none (static idle threshold), 1 = fixed-threshold
    /// predictor, 2 = EWMA predictor, 3 = bandit predictor + DRAM/SSD tiers.
    pub power_kind: u8,
    /// Per-disk spin-cycle budget; only meaningful when `power_kind > 0`.
    pub spin_cap: Option<u32>,
    /// RPC policy: 0 = no-retry, 1 = retrying, 2 = retrying + hedged.
    pub policy_kind: u8,
    /// Bounded-admission gate: `Some(max_inflight)` runs the scenario
    /// behind the overload control plane (`OverloadOptions::bounded`),
    /// `None` keeps the legacy unbounded server queue. Defaults to
    /// `None` so pre-overload reproducer artifacts still parse.
    #[serde(default)]
    pub overload: Option<u32>,
    /// Disk/node fail-stop events (replay-relative times).
    pub faults: Vec<FaultEvent>,
    /// Link partition/heal events.
    pub net: Vec<NetFaultEvent>,
    /// Latent-sector-error / bit-flip events.
    pub corruption: Vec<CorruptionEvent>,
    /// Crash/restart events driving journal replay (node-only kinds).
    pub crashes: Vec<FaultEvent>,
    /// Per-message drop/reset/delay probabilities.
    pub profile: LinkFaultProfile,
}

impl ChaosSchedule {
    /// Total scheduled fault events across all four dimensions — the size
    /// the shrinker minimises.
    pub fn event_count(&self) -> usize {
        self.faults.len() + self.net.len() + self.corruption.len() + self.crashes.len()
    }

    /// A strict-order measure for "candidate is smaller than original":
    /// fewer events, or equally many events driven by fewer requests or a
    /// quieter link profile.
    pub fn size(&self) -> (usize, u32, u64) {
        let prob_milli =
            ((self.profile.drop_prob + self.profile.reset_prob + self.profile.delay_prob) * 1000.0)
                as u64;
        (self.event_count(), self.requests, prob_milli)
    }

    /// The RPC policy this schedule runs under, reconstructed from
    /// `policy_kind` and `seed`.
    pub fn rpc_policy(&self) -> RpcPolicy {
        let deadline = SimDuration::from_secs(60);
        let per_try = SimDuration::from_secs(3);
        match self.policy_kind {
            0 => RpcPolicy::no_retry(deadline),
            1 => {
                let mut p = RpcPolicy::retrying(deadline, per_try, 4);
                p.seed = self.seed;
                p
            }
            _ => {
                let mut p = RpcPolicy::hedged(deadline, per_try, 4, SimDuration::from_secs(4));
                p.seed = self.seed;
                p
            }
        }
    }

    /// Rebuilds the four validated plans from the explicit event lists.
    /// `Err` carries the reason when an event list violates a plan's shape
    /// rules (e.g. a disk event in the crash plan).
    pub fn plans(&self) -> Result<SchedulePlans, String> {
        Ok(SchedulePlans {
            faults: FaultPlan::from_trace(self.faults.iter().copied()),
            net: NetFaultPlan::from_trace(self.net.iter().copied()),
            corruption: CorruptionPlan::from_trace(self.corruption.iter().copied()),
            crashes: CrashPlan::from_trace(self.crashes.iter().copied())?,
        })
    }
}

/// The validated plan set a schedule expands to.
pub struct SchedulePlans {
    /// Disk/node fail-stop plan.
    pub faults: FaultPlan,
    /// Link partition plan.
    pub net: NetFaultPlan,
    /// Corruption plan.
    pub corruption: CorruptionPlan,
    /// Crash/restart plan.
    pub crashes: CrashPlan,
}

/// Per-hour rate range `[lo, hi]` sampled uniformly per scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Range {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Range {
    /// A degenerate range pinned to one value.
    pub fn fixed(v: f64) -> Range {
        Range { lo: v, hi: v }
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.hi <= self.lo {
            self.lo
        } else {
            self.lo + rng.uniform() * (self.hi - self.lo)
        }
    }
}

/// The severity envelope scenarios are drawn from: how many requests, how
/// hostile the fault processes, which optional planes engage. All rates
/// are per hour of simulated time, matching `fault-model` specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeverityEnvelope {
    /// Trace length range `[lo, hi)` in requests.
    pub requests_lo: u32,
    /// Upper bound (exclusive) of the trace length range.
    pub requests_hi: u32,
    /// Replica count range `[lo, hi]` (clamped to the node count).
    pub replication_lo: u32,
    /// Upper bound (inclusive) of the replica count range.
    pub replication_hi: u32,
    /// Whole-disk failures per disk-hour.
    pub disk_fail_per_hour: Range,
    /// Node crashes per node-hour fed to the *fail-stop* plan.
    pub node_crash_per_hour: Range,
    /// Failed spin-ups per disk-hour.
    pub spin_up_fail_per_hour: Range,
    /// Link partitions per link-hour.
    pub partition_per_hour: Range,
    /// Latent sector errors per disk-hour.
    pub lse_per_disk_hour: Range,
    /// Silent bit flips per disk-hour.
    pub flip_per_disk_hour: Range,
    /// Crash/restart cycles per node-hour feeding journal replay.
    pub crash_per_node_hour: Range,
    /// Per-message drop probability.
    pub drop_prob: Range,
    /// Probability a scenario scrubs (`ScrubPolicy::piggyback_default`).
    pub scrub_prob: f64,
    /// Probability a scenario runs under an `eevfs-power` policy plane.
    pub power_prob: f64,
    /// Probability a powered scenario also gets a spin-cycle cap.
    pub spin_cap_prob: f64,
    /// Probability a scenario runs behind a bounded admission gate
    /// (the overload control plane). Defaults to 0 so envelopes
    /// serialized before the overload plane existed still parse.
    #[serde(default)]
    pub overload_prob: f64,
}

impl SeverityEnvelope {
    /// The default search envelope: moderately hostile on every axis,
    /// every optional plane flipped on with meaningful probability.
    pub fn default_search() -> SeverityEnvelope {
        SeverityEnvelope {
            requests_lo: 40,
            requests_hi: 120,
            replication_lo: 1,
            replication_hi: 3,
            disk_fail_per_hour: Range { lo: 0.0, hi: 6.0 },
            node_crash_per_hour: Range { lo: 0.0, hi: 2.0 },
            spin_up_fail_per_hour: Range { lo: 0.0, hi: 8.0 },
            partition_per_hour: Range { lo: 0.0, hi: 6.0 },
            lse_per_disk_hour: Range { lo: 0.0, hi: 12.0 },
            flip_per_disk_hour: Range { lo: 0.0, hi: 12.0 },
            crash_per_node_hour: Range { lo: 0.0, hi: 2.0 },
            drop_prob: Range { lo: 0.0, hi: 0.08 },
            scrub_prob: 0.7,
            power_prob: 0.5,
            spin_cap_prob: 0.5,
            overload_prob: 0.5,
        }
    }

    /// The acceptance campaign envelope: replication pinned at >= 2 with
    /// scrubbing always on — the configuration the paper's durability
    /// story promises no data loss for (absent fail-stop outages).
    pub fn r2_scrubbed() -> SeverityEnvelope {
        SeverityEnvelope {
            replication_lo: 2,
            replication_hi: 3,
            scrub_prob: 1.0,
            ..SeverityEnvelope::default_search()
        }
    }

    /// The overload campaign envelope: every scenario runs behind a
    /// bounded admission gate, so the shed-ledger and bounded-queue
    /// invariants fire on every run instead of roughly half of them.
    pub fn overloaded() -> SeverityEnvelope {
        SeverityEnvelope {
            overload_prob: 1.0,
            ..SeverityEnvelope::default_search()
        }
    }
}

fn horizon_for(requests: u32) -> SimDuration {
    SimDuration::from_secs((requests as f64 * INTER_ARRIVAL_S) as u64 + HORIZON_MARGIN_S)
}

/// Samples scenario `index` of the campaign seeded by `base_seed`.
///
/// Each scenario gets its own RNG derived from `(base_seed, index)`, and
/// each fault dimension inside it gets an independent split stream, so
/// scenario `i` is identical no matter how many scenarios surround it and
/// tightening one envelope axis never perturbs the others' schedules.
pub fn generate_schedule(env: &SeverityEnvelope, base_seed: u64, index: u32) -> ChaosSchedule {
    let mut rng = SimRng::seed_from_u64(
        base_seed
            ^ (index as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1),
    );
    let mut dim = [
        rng.split(), // 0: shape (requests, replication, flags)
        rng.split(), // 1: fail-stop faults
        rng.split(), // 2: net partitions
        rng.split(), // 3: corruption
        rng.split(), // 4: crashes
        rng.split(), // 5: link profile
        rng.split(), // 6: overload gate
    ];

    let shape = &mut dim[0];
    let requests = shape.uniform_range(env.requests_lo as u64, env.requests_hi as u64) as u32;
    let replication = shape
        .uniform_range(env.replication_lo as u64, env.replication_hi as u64 + 1)
        .min(NODES as u64) as u32;
    let scrub = shape.uniform() < env.scrub_prob;
    let powered = shape.uniform() < env.power_prob;
    let power_kind = if powered { 1 + shape.index(3) as u8 } else { 0 };
    let spin_cap =
        (powered && shape.uniform() < env.spin_cap_prob).then(|| shape.uniform_range(2, 12) as u32);
    let policy_kind = shape.index(3) as u8;
    let seed = shape.uniform_range(1, u64::MAX);
    let horizon = horizon_for(requests);

    let frng = &mut dim[1];
    let fault_spec = FaultSpec {
        seed: frng.uniform_range(1, u64::MAX),
        horizon,
        nodes: NODES,
        disks_per_node: DISKS_PER_NODE,
        disk_fail_per_hour: env.disk_fail_per_hour.sample(frng),
        mean_repair: SimDuration::from_secs(frng.uniform_range(20, 180)),
        node_crash_per_hour: env.node_crash_per_hour.sample(frng),
        mean_restart: SimDuration::from_secs(frng.uniform_range(15, 90)),
        spin_up_fail_per_hour: env.spin_up_fail_per_hour.sample(frng),
    };

    let nrng = &mut dim[2];
    let net_spec = NetFaultSpec {
        seed: nrng.uniform_range(1, u64::MAX),
        horizon,
        links: NODES,
        partition_per_hour: env.partition_per_hour.sample(nrng),
        mean_partition: SimDuration::from_secs(nrng.uniform_range(10, 120)),
    };

    let crng = &mut dim[3];
    let corruption_spec = CorruptionSpec {
        seed: crng.uniform_range(1, u64::MAX),
        horizon,
        nodes: NODES,
        disks_per_node: DISKS_PER_NODE,
        blocks_per_disk: BLOCKS_PER_DISK,
        lse_per_disk_hour: env.lse_per_disk_hour.sample(crng),
        flip_per_disk_hour: env.flip_per_disk_hour.sample(crng),
    };

    let xrng = &mut dim[4];
    let crash_spec = CrashSpec {
        seed: xrng.uniform_range(1, u64::MAX),
        horizon,
        nodes: NODES,
        crash_per_node_hour: env.crash_per_node_hour.sample(xrng),
        mean_restart: SimDuration::from_secs(xrng.uniform_range(15, 60)),
    };

    let orng = &mut dim[6];
    let overload = (orng.uniform() < env.overload_prob).then(|| orng.uniform_range(2, 24) as u32);

    let prng = &mut dim[5];
    let drop_prob = env.drop_prob.sample(prng);
    let profile = LinkFaultProfile {
        seed: prng.uniform_range(1, u64::MAX),
        drop_prob,
        reset_prob: drop_prob / 4.0,
        delay_prob: drop_prob / 2.0,
        mean_delay: SimDuration::from_secs(2),
    };

    ChaosSchedule {
        seed,
        requests,
        replication,
        scrub,
        power_kind,
        spin_cap,
        policy_kind,
        overload,
        faults: FaultPlan::generate(&fault_spec).events().to_vec(),
        net: NetFaultPlan::generate(&net_spec).events().to_vec(),
        corruption: CorruptionPlan::generate(&corruption_spec).events().to_vec(),
        crashes: CrashPlan::generate(&crash_spec).events().to_vec(),
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_index_independent() {
        let env = SeverityEnvelope::default_search();
        let a = generate_schedule(&env, 7, 3);
        let b = generate_schedule(&env, 7, 3);
        assert_eq!(a, b);
        // A different index is a genuinely different scenario.
        assert_ne!(a, generate_schedule(&env, 7, 4));
        // And a different base seed re-rolls the same index.
        assert_ne!(a, generate_schedule(&env, 8, 3));
    }

    #[test]
    fn schedules_round_trip_through_json() {
        let env = SeverityEnvelope::default_search();
        for i in 0..8 {
            let s = generate_schedule(&env, 42, i);
            let text = serde_json::to_string(&s).expect("serialize");
            let back: ChaosSchedule = serde_json::from_str(&text).expect("parse");
            assert_eq!(s, back, "scenario {i} JSON round-trip");
        }
    }

    #[test]
    fn plans_rebuild_in_range() {
        let env = SeverityEnvelope::default_search();
        for i in 0..16 {
            let s = generate_schedule(&env, 9, i);
            let plans = s.plans().expect("valid plans");
            assert!(plans.faults.out_of_range(NODES, DISKS_PER_NODE).is_empty());
            assert!(plans.net.out_of_range(NODES).is_empty());
            assert!(plans
                .corruption
                .out_of_range(NODES, DISKS_PER_NODE, BLOCKS_PER_DISK)
                .is_empty());
            assert!(plans.crashes.out_of_range(NODES).is_empty());
        }
    }
}
