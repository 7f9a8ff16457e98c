//! Run metrics — the paper's three measured quantities (§V-C) plus the
//! internals needed to explain them.

use disk_model::TransitionCounts;
use eevfs_obs::PredictionSummary;
use eevfs_power::TierStats;
use serde::{Deserialize, Serialize};
use sim_core::stats::{percentile_sorted, sorted_samples};
use sim_core::OnlineStats;

/// Response-time summary over all requests, seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ResponseStats {
    /// Number of completed requests.
    pub count: u64,
    /// Mean response time.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile (absent in pre-overload summaries, so defaulted
    /// for old serialized runs).
    #[serde(default)]
    pub p99_s: f64,
    /// Worst case.
    pub max_s: f64,
}

impl ResponseStats {
    /// Summarises raw samples (seconds).
    pub fn from_samples(samples: &[f64]) -> ResponseStats {
        if samples.is_empty() {
            return ResponseStats::default();
        }
        let mut s = OnlineStats::new();
        for &x in samples {
            s.push(x);
        }
        // One sort serves every quantile below.
        let sorted = sorted_samples(samples);
        ResponseStats {
            count: s.count(),
            mean_s: s.mean(),
            p50_s: percentile_sorted(&sorted, 0.50).expect("non-empty"),
            p95_s: percentile_sorted(&sorted, 0.95).expect("non-empty"),
            p99_s: percentile_sorted(&sorted, 0.99).expect("non-empty"),
            max_s: s.max(),
        }
    }
}

/// Overload-control ledger for one run, booked by the
/// [`AdmissionGate`](crate::overload::AdmissionGate) in both worlds (all
/// zero when the config has no `overload` options — the legacy open-loop
/// replay).
///
/// Two equations close exactly, enforced as a chaos invariant:
/// `offered == admitted + rejected + shed` at the admission gate, and
/// `admitted == completed + node_shed + failed` past it — the same split
/// the prototype's `ClusterStats` reports, so sim and runtime ledgers
/// are comparable term by term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct OverloadStats {
    /// Requests that reached the admission gate.
    pub offered: u64,
    /// Requests admitted into the server queue.
    pub admitted: u64,
    /// Requests refused outright (gate full or L3).
    pub rejected: u64,
    /// Requests shed pre-admission by the brownout ladder (priority).
    pub shed: u64,
    /// Admitted requests served to completion.
    pub completed: u64,
    /// Admitted requests a node refused under brownout (buffer miss at
    /// L1+).
    pub node_shed: u64,
    /// Admitted requests that failed downstream (route/retry budget
    /// exhausted).
    pub failed: u64,
    /// Brownout ladder transitions (both directions).
    pub brownout_transitions: u64,
    /// Highest brownout level reached.
    pub max_level: u8,
    /// High-water mark of concurrently admitted requests (bounded by
    /// `max_inflight` by construction).
    pub queue_peak: u64,
}

impl OverloadStats {
    /// Whether both ledger equations close exactly.
    pub fn ledger_closes(&self) -> bool {
        self.offered == self.admitted + self.rejected + self.shed
            && self.admitted == self.completed + self.node_shed + self.failed
    }
}

/// Per-node breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMetrics {
    /// Node name from the cluster spec.
    pub name: String,
    /// Base (CPU/RAM/NIC) energy, joules.
    pub base_energy_j: f64,
    /// Buffer-disk energy, joules.
    pub buffer_disk_energy_j: f64,
    /// Data-disk energy, joules.
    pub data_disk_energy_j: f64,
    /// Spin transitions across the node's data disks.
    pub transitions: TransitionCounts,
    /// Mean standby fraction across data disks.
    pub standby_fraction: f64,
    /// Buffer-disk read hits.
    pub buffer_hits: u64,
    /// Buffer-disk read misses.
    pub buffer_misses: u64,
    /// NIC utilisation over the run.
    pub nic_utilization: f64,
}

impl NodeMetrics {
    /// Total node energy.
    pub fn total_j(&self) -> f64 {
        self.base_energy_j + self.buffer_disk_energy_j + self.data_disk_energy_j
    }
}

/// Prefetch-phase accounting.
///
/// The paper's energy figures cover the trace replay; the prefetch
/// warm-up that precedes it is accounted here instead of in
/// [`RunMetrics::total_energy_j`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PrefetchStats {
    /// Files copied into buffer disks.
    pub files: u64,
    /// Bytes copied.
    pub bytes: u64,
    /// Files dropped for capacity.
    pub dropped: u64,
    /// Warm-up duration before the trace replay began, microseconds.
    pub warmup_us: u64,
    /// Whole-cluster energy spent during the warm-up, joules.
    pub energy_j: f64,
}

/// RPC resilience counters for one run (all zero when the run used a
/// perfect network and no retry policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ResilienceStats {
    /// RPC flights re-sent after a drop, reset, or per-try timeout.
    pub rpc_retries: u64,
    /// Requests the network silently dropped.
    pub rpc_drops: u64,
    /// Requests that saw a connection reset.
    pub rpc_resets: u64,
    /// Injected latency spikes on delivered requests.
    pub rpc_delays: u64,
    /// Hedged reads issued (second replica raced).
    pub hedges: u64,
    /// Hedged reads where the second replica answered first.
    pub hedges_won: u64,
    /// Circuit-breaker trips (closed/half-open → open).
    pub breaker_trips: u64,
    /// Half-open probes that closed a breaker again.
    pub breaker_recoveries: u64,
    /// Requests that missed their end-to-end deadline: answered after it,
    /// or failed once their retry or routing budget ran out. Each request
    /// counts at most once.
    pub deadline_misses: u64,
    /// Scheduled network fault-plan events (partitions/heals) that fired.
    pub net_fault_events: u64,
}

/// Durability counters for one run (all zero without a corruption or
/// crash plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct DurabilityStats {
    /// Corruptions that landed on disk during the replay window.
    pub corruptions_landed: u64,
    /// Corrupt blocks caught by checksum verification on the read path.
    pub detected_on_read: u64,
    /// Corrupt blocks caught by an opportunistic scrub pass.
    pub detected_by_scrub: u64,
    /// Detected blocks restored from a healthy replica.
    pub repaired_blocks: u64,
    /// Detected blocks with no surviving replica to repair from.
    pub unrecoverable_blocks: u64,
    /// Scrub passes run (each piggybacks on an Active disk).
    pub scrub_passes: u64,
    /// Blocks verified by scrub passes.
    pub scrubbed_blocks: u64,
    /// Corrupt blocks still latent (neither read nor scrubbed) at the end
    /// of the run.
    pub latent_at_end: u64,
    /// Node restarts that replayed the buffer-disk journal.
    pub journal_replays: u64,
    /// Journal bytes read back across all replays.
    pub journal_bytes_replayed: u64,
    /// Journal records appended across all nodes during the run.
    pub journal_records: u64,
}

/// Everything one cluster run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Wall time of the trace replay, seconds (excludes the prefetch
    /// warm-up, which [`PrefetchStats`] reports; stretches past the trace
    /// span under queueing, which is the paper's 50 MB effect).
    pub duration_s: f64,
    /// Cluster-wide energy over the replay (server + all nodes), joules —
    /// Fig 3/6's axis. Warm-up energy is in [`PrefetchStats::energy_j`].
    pub total_energy_j: f64,
    /// Portion consumed by drives.
    pub disk_energy_j: f64,
    /// Portion consumed by node/server base power.
    pub base_energy_j: f64,
    /// Storage-server energy (base + its disk).
    pub server_energy_j: f64,
    /// Spin transitions summed over all data disks — Fig 4's axis.
    pub transitions: TransitionCounts,
    /// Response times — Fig 5's axis.
    pub response: ResponseStats,
    /// Raw response samples, seconds, in request order (kept for
    /// percentile work and the paper's linear-relationship check).
    pub response_samples_s: Vec<f64>,
    /// Requests served from buffer disks.
    pub buffer_hits: u64,
    /// Requests served from data disks.
    pub buffer_misses: u64,
    /// Requests that waited on a spin-up.
    pub spun_up_requests: u64,
    /// Writes absorbed by buffer-disk write areas.
    pub writes_buffered: u64,
    /// Dirty files destaged to data disks during the run.
    pub destages: u64,
    /// Dirty files still buffered at the end of the run.
    pub dirty_at_end: u64,
    /// MAID copy-ins (on-demand fills), zero for PF/NPF.
    pub maid_fills: u64,
    /// Prefetch-phase accounting.
    pub prefetch: PrefetchStats,
    /// Net predicted benefit from the energy model (joules).
    pub predicted_benefit_j: f64,
    /// Whether power management engaged this run.
    pub power_engaged: bool,
    /// Fault-plan events that fired during the replay (crashes, repairs,
    /// spin-up poisonings — zero for the healthy baseline).
    pub fault_events: u64,
    /// Reads served by a non-primary replica (failover or energy-aware
    /// selection).
    pub replica_redirects: u64,
    /// Spin-up attempts that failed under fault injection.
    pub spin_up_failures: u64,
    /// Requests that exhausted their retry budget with no healthy replica
    /// (only possible when replication cannot cover a failure).
    pub failed_requests: u64,
    /// RPC resilience counters (retries, hedges, breaker trips…).
    pub resilience: ResilienceStats,
    /// Durability counters (corruption detection, repair, journal replay).
    pub durability: DurabilityStats,
    /// Joules spent on integrity work — scrub transfers and replica
    /// repair transfers — charged separately from serving energy so
    /// experiments can price protection on its own. A restart's journal
    /// replay is a real buffer-disk read, so it lands in the disk energy
    /// instead.
    pub scrub_energy_j: f64,
    /// Predicted-vs-realised idle-window accounting for every sleep the
    /// power manager took (all zero when nothing slept).
    pub prediction: PredictionSummary,
    /// Cache-tier and spin-budget outcomes from the `eevfs-power` policy
    /// plane (all zero when no `PowerPolicy` was supplied).
    pub tier: TierStats,
    /// Overload-control ledger (all zero when the config has no
    /// `overload` options; defaulted for pre-overload serialized runs).
    #[serde(default)]
    pub overload: OverloadStats,
    /// Per-node breakdown.
    pub per_node: Vec<NodeMetrics>,
}

impl RunMetrics {
    /// Energy-efficiency gain of `self` versus a baseline run, as the
    /// paper reports it: `1 - E_self / E_baseline` (positive = saved).
    pub fn savings_vs(&self, baseline: &RunMetrics) -> f64 {
        if baseline.total_energy_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.total_energy_j / baseline.total_energy_j
    }

    /// Response-time degradation versus a baseline, as the paper reports
    /// it: `mean_self / mean_baseline - 1` (positive = slower).
    pub fn response_penalty_vs(&self, baseline: &RunMetrics) -> f64 {
        if baseline.response.mean_s <= 0.0 {
            return 0.0;
        }
        self.response.mean_s / baseline.response.mean_s - 1.0
    }

    /// Buffer hit rate over read traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.buffer_hits + self.buffer_misses;
        if total == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / total as f64
        }
    }

    /// Mean standby fraction across all data disks.
    pub fn mean_standby_fraction(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        self.per_node
            .iter()
            .map(|n| n.standby_fraction)
            .sum::<f64>()
            / self.per_node.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with_energy(e: f64, mean_rt: f64) -> RunMetrics {
        RunMetrics {
            duration_s: 100.0,
            total_energy_j: e,
            disk_energy_j: e * 0.3,
            base_energy_j: e * 0.7,
            server_energy_j: e * 0.1,
            transitions: TransitionCounts::default(),
            response: ResponseStats {
                count: 10,
                mean_s: mean_rt,
                p50_s: mean_rt,
                p95_s: mean_rt,
                p99_s: mean_rt,
                max_s: mean_rt,
            },
            response_samples_s: vec![mean_rt; 10],
            buffer_hits: 6,
            buffer_misses: 4,
            spun_up_requests: 0,
            writes_buffered: 0,
            destages: 0,
            dirty_at_end: 0,
            maid_fills: 0,
            prefetch: PrefetchStats::default(),
            predicted_benefit_j: 0.0,
            power_engaged: true,
            fault_events: 0,
            replica_redirects: 0,
            spin_up_failures: 0,
            failed_requests: 0,
            resilience: ResilienceStats::default(),
            durability: DurabilityStats::default(),
            scrub_energy_j: 0.0,
            prediction: PredictionSummary::default(),
            tier: TierStats::default(),
            overload: OverloadStats::default(),
            per_node: vec![],
        }
    }

    #[test]
    fn savings_math() {
        let pf = metrics_with_energy(85.0, 1.2);
        let npf = metrics_with_energy(100.0, 1.0);
        assert!((pf.savings_vs(&npf) - 0.15).abs() < 1e-12);
        assert!((npf.savings_vs(&pf) + 0.1765).abs() < 1e-3);
        assert!((pf.response_penalty_vs(&npf) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn degenerate_baselines_are_safe() {
        let a = metrics_with_energy(10.0, 1.0);
        let zero = metrics_with_energy(0.0, 0.0);
        assert_eq!(a.savings_vs(&zero), 0.0);
        assert_eq!(a.response_penalty_vs(&zero), 0.0);
    }

    #[test]
    fn hit_rate() {
        let m = metrics_with_energy(1.0, 1.0);
        assert!((m.hit_rate() - 0.6).abs() < 1e-12);
        let mut none = metrics_with_energy(1.0, 1.0);
        none.buffer_hits = 0;
        none.buffer_misses = 0;
        assert_eq!(none.hit_rate(), 0.0);
    }

    #[test]
    fn response_stats_from_samples() {
        let samples = vec![1.0, 2.0, 3.0, 4.0, 100.0];
        let r = ResponseStats::from_samples(&samples);
        assert_eq!(r.count, 5);
        assert!((r.mean_s - 22.0).abs() < 1e-12);
        assert_eq!(r.p50_s, 3.0);
        assert_eq!(r.max_s, 100.0);
        assert!(r.p95_s > 4.0);
    }

    #[test]
    fn empty_samples_yield_default() {
        let r = ResponseStats::from_samples(&[]);
        assert_eq!(r, ResponseStats::default());
    }
}
