//! Ablations over EEVFS design choices (DESIGN.md §5).
//!
//! These go beyond the paper's own figures: they quantify the individual
//! contributions of the mechanisms (§III/§IV) and run the §II baselines
//! the paper only discusses qualitatively, plus the §VII scale-out
//! prediction ("we believe this number will increase as more disks are
//! added to each EEVFS storage node").

use crate::runner::{GridError, Runner};
use crate::sweeps::SweepParams;
use eevfs::baselines;
use eevfs::config::{ClusterSpec, EevfsConfig};
use eevfs::driver::{run_cluster, simulate, ResilienceSetup, Scenario};
use eevfs::metrics::RunMetrics;
use fault_model::{FaultPlan, LinkFaultProfile, NetFaultPlan, RpcPolicy};
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;
use workload::synthetic::{generate, SyntheticSpec};

/// A named configuration's run, compared against the NPF baseline on the
/// same trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Configuration name.
    pub name: String,
    /// The run under test.
    pub run: RunMetrics,
    /// Savings vs the sweep's NPF run.
    pub savings: f64,
    /// Response penalty vs NPF.
    pub penalty: f64,
}

/// An ablation: baseline + variants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablation {
    /// What is being ablated.
    pub title: String,
    /// Rows, baseline first.
    pub rows: Vec<AblationRow>,
}

fn trace_default(p: &SweepParams, mu: f64) -> workload::record::Trace {
    generate(&SyntheticSpec {
        requests: p.requests,
        seed: p.seed,
        mu,
        ..SyntheticSpec::paper_default()
    })
}

fn row(
    name: &str,
    cluster: &ClusterSpec,
    cfg: &EevfsConfig,
    trace: &workload::record::Trace,
    npf: &RunMetrics,
) -> AblationRow {
    let run = run_cluster(cluster, cfg, trace);
    AblationRow {
        name: name.into(),
        savings: run.savings_vs(npf),
        penalty: run.response_penalty_vs(npf),
        run,
    }
}

/// Idle threshold sweep (§VI-B: raising the threshold trades savings for
/// fewer transitions).
pub fn ablate_threshold(p: &SweepParams) -> Ablation {
    let cluster = ClusterSpec::paper_testbed();
    let trace = trace_default(p, 1000.0);
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let mut rows = vec![AblationRow {
        name: "NPF".into(),
        savings: 0.0,
        penalty: 0.0,
        run: npf.clone(),
    }];
    for secs in [1u64, 5, 15, 30, 60] {
        let cfg = baselines::pf_with_threshold(70, SimDuration::from_secs(secs));
        rows.push(row(
            &format!("PF threshold={secs}s"),
            &cluster,
            &cfg,
            &trace,
            &npf,
        ));
    }
    Ablation {
        title: "Disk idle threshold".into(),
        rows,
    }
}

/// Application hints on/off (§IV-C).
pub fn ablate_hints(p: &SweepParams) -> Ablation {
    let cluster = ClusterSpec::paper_testbed();
    let trace = trace_default(p, 1000.0);
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let rows = vec![
        AblationRow {
            name: "NPF".into(),
            savings: 0.0,
            penalty: 0.0,
            run: npf.clone(),
        },
        row(
            "PF with hints",
            &cluster,
            &EevfsConfig::paper_pf(70),
            &trace,
            &npf,
        ),
        row(
            "PF without hints (timer)",
            &cluster,
            &baselines::pf_without_hints(70),
            &trace,
            &npf,
        ),
    ];
    Ablation {
        title: "Application hints".into(),
        rows,
    }
}

/// Write-buffer area on/off (§III-C) under a mixed read/write workload.
pub fn ablate_write_buffer(p: &SweepParams) -> Ablation {
    let cluster = ClusterSpec::paper_testbed();
    let trace = generate(&SyntheticSpec {
        requests: p.requests,
        seed: p.seed,
        mu: 100.0,
        write_fraction: 0.3,
        ..SyntheticSpec::paper_default()
    });
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let mut no_wb = EevfsConfig::paper_pf(70);
    no_wb.write_buffer = false;
    let rows = vec![
        AblationRow {
            name: "NPF".into(),
            savings: 0.0,
            penalty: 0.0,
            run: npf.clone(),
        },
        row(
            "PF + write buffer",
            &cluster,
            &EevfsConfig::paper_pf(70),
            &trace,
            &npf,
        ),
        row("PF, writes to data disks", &cluster, &no_wb, &trace, &npf),
    ];
    Ablation {
        title: "Buffer-disk write area (30% writes)".into(),
        rows,
    }
}

/// Placement policies (§III-B vs naive vs PDC).
pub fn ablate_placement(p: &SweepParams) -> Ablation {
    let cluster = ClusterSpec::paper_testbed();
    let trace = trace_default(p, 1000.0);
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let mut plain = EevfsConfig::paper_pf(70);
    plain.placement = eevfs::config::PlacementPolicy::PlainRoundRobin;
    let rows = vec![
        AblationRow {
            name: "NPF".into(),
            savings: 0.0,
            penalty: 0.0,
            run: npf.clone(),
        },
        row(
            "PF + popularity round-robin",
            &cluster,
            &EevfsConfig::paper_pf(70),
            &trace,
            &npf,
        ),
        row("PF + plain round-robin", &cluster, &plain, &trace, &npf),
        row(
            "PDC concentration + timers",
            &cluster,
            &baselines::pdc(),
            &trace,
            &npf,
        ),
    ];
    Ablation {
        title: "Placement policy".into(),
        rows,
    }
}

/// EEVFS prefetching vs MAID-style on-demand caching (§II "Disk as cache").
pub fn ablate_maid(p: &SweepParams) -> Ablation {
    let cluster = ClusterSpec::paper_testbed();
    let trace = trace_default(p, 100.0);
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let rows = vec![
        AblationRow {
            name: "NPF".into(),
            savings: 0.0,
            penalty: 0.0,
            run: npf.clone(),
        },
        row(
            "EEVFS PF (look-ahead)",
            &cluster,
            &EevfsConfig::paper_pf(70),
            &trace,
            &npf,
        ),
        row(
            "MAID (on-demand LRU)",
            &cluster,
            &baselines::maid(80_000_000_000),
            &trace,
            &npf,
        ),
        row(
            "Energy-oblivious (PVFS-like)",
            &cluster,
            &baselines::energy_oblivious(),
            &trace,
            &npf,
        ),
    ];
    Ablation {
        title: "Caching strategy".into(),
        rows,
    }
}

/// Disks per node (§VII: savings should grow with more disks per node).
pub fn ablate_scale(p: &SweepParams) -> Ablation {
    let trace = trace_default(p, 1000.0);
    let mut rows = Vec::new();
    for disks in [1usize, 2, 4, 8] {
        let cluster = ClusterSpec::paper_testbed_with(disks);
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        let mut r = row(
            &format!("{disks} data disk(s) per node"),
            &cluster,
            &EevfsConfig::paper_pf(70),
            &trace,
            &npf,
        );
        r.name = format!("{disks} data disk(s)/node (PF vs own NPF)");
        rows.push(r);
    }
    Ablation {
        title: "Scale-out: data disks per node (§VII prediction)".into(),
        rows,
    }
}

/// Striping on/off (§VII future work: performance without losing the
/// savings).
pub fn ablate_striping(p: &SweepParams) -> Ablation {
    let cluster = ClusterSpec::paper_testbed();
    let trace = trace_default(p, 1000.0);
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let rows = vec![
        AblationRow {
            name: "NPF".into(),
            savings: 0.0,
            penalty: 0.0,
            run: npf.clone(),
        },
        row(
            "PF, whole-file placement",
            &cluster,
            &EevfsConfig::paper_pf(70),
            &trace,
            &npf,
        ),
        row(
            "PF + intra-node striping",
            &cluster,
            &baselines::pf_striped(70),
            &trace,
            &npf,
        ),
    ];
    Ablation {
        title: "Striping (§VII)".into(),
        rows,
    }
}

/// Drive technology (§II related work): stock ATA vs a multi-speed
/// (DRPM-emulated) drive vs a modern nearline drive, all under EEVFS-PF.
pub fn ablate_disk_technology(p: &SweepParams) -> Ablation {
    use disk_model::DiskSpec;
    let trace = trace_default(p, 1000.0);
    let mut rows = Vec::new();
    for (name, spec) in [
        ("stock ATA/133 (the paper's)", DiskSpec::ata133_type1()),
        (
            "multi-speed DRPM emulation",
            DiskSpec::multispeed_emulated(),
        ),
        ("modern nearline SATA", DiskSpec::nearline_sata()),
    ] {
        let mut cluster = ClusterSpec::paper_testbed();
        for node in &mut cluster.nodes {
            node.buffer_disk = spec.clone();
            node.data_disks = vec![spec.clone(); node.data_disks.len()];
        }
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        let mut r = row(name, &cluster, &EevfsConfig::paper_pf(70), &trace, &npf);
        r.name = format!("{name} (PF vs own NPF)");
        rows.push(r);
    }
    Ablation {
        title: "Drive technology (§II): break-even vs savings".into(),
        rows,
    }
}

/// Open-loop vs closed-loop replay (the prototype's replayer feeds
/// response time back into arrival times; the load generator does not).
pub fn ablate_arrival_mode(p: &SweepParams) -> Ablation {
    use eevfs::config::ArrivalMode;
    let cluster = ClusterSpec::paper_testbed();
    let mut rows = Vec::new();
    for (name, mu) in [
        ("MU=100 (full coverage)", 100.0),
        ("MU=1000 (23% misses)", 1000.0),
    ] {
        let trace = trace_default(p, mu);
        for (mode_name, mode) in [
            ("open loop", ArrivalMode::OpenLoop),
            ("closed loop x4", ArrivalMode::ClosedLoop { streams: 4 }),
        ] {
            let mut pf_cfg = EevfsConfig::paper_pf(70);
            pf_cfg.arrival = mode;
            let mut npf_cfg = EevfsConfig::paper_npf();
            npf_cfg.arrival = mode;
            let npf = run_cluster(&cluster, &npf_cfg, &trace);
            let mut r = row(name, &cluster, &pf_cfg, &trace, &npf);
            r.name = format!("{name}, {mode_name}");
            rows.push(r);
        }
    }
    Ablation {
        title: "Replay discipline: open vs closed loop".into(),
        rows,
    }
}

/// Fault injection × replication: the energy/availability trade-off.
///
/// Sweeps the replication factor over a failure-rate grid. Extra copies
/// cost creation-time energy and spread load over more spindles, but they
/// are what keeps `failed_requests` at zero once nodes and disks start
/// dying; the energy-aware selector claws some of the cost back by
/// steering reads to already-spinning replicas.
///
/// The rate × R grid fans out on `runner`; a cell that dies comes back
/// as a [`GridError`] naming the grid point.
pub fn ablate_faults(runner: &Runner, p: &SweepParams) -> Result<Ablation, GridError> {
    use eevfs::config::ReplicaSelection;
    use fault_model::FaultSpec;

    let cluster = ClusterSpec::paper_testbed();
    let trace = trace_default(p, 1000.0);
    let horizon = trace
        .records
        .last()
        .map_or(SimDuration::from_secs(600), |r| {
            SimDuration::from_micros(r.at.as_micros()) + SimDuration::from_secs(120)
        });
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let mut rows = vec![AblationRow {
        name: "NPF healthy".into(),
        savings: 0.0,
        penalty: 0.0,
        run: npf.clone(),
    }];
    // Flattened rate × R grid. Each cell regenerates its rate's plan —
    // plan generation is seeded and cheap next to the simulation, and
    // owning the plan is what makes cells independent of each other.
    let cells: Vec<(f64, u32)> = [0.0f64, 2.0, 8.0]
        .iter()
        .flat_map(|&rate| [1u32, 2, 3].map(|r| (rate, r)))
        .collect();
    rows.extend(runner.try_map(
        &cells,
        |_, &(rate, r)| format!("R={r}, fail rate={rate}/h"),
        |_, &(rate, r)| {
            let plan = if rate == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::generate(&FaultSpec {
                    seed: p.seed,
                    horizon,
                    nodes: cluster.node_count() as u32,
                    disks_per_node: 2,
                    disk_fail_per_hour: rate,
                    mean_repair: SimDuration::from_secs(60),
                    node_crash_per_hour: rate / 2.0,
                    mean_restart: SimDuration::from_secs(30),
                    spin_up_fail_per_hour: rate,
                })
            };
            let cfg = EevfsConfig::paper_pf_replicated(70, r);
            let scenario = Scenario {
                faults: &plan,
                ..Scenario::new(&cluster, &cfg, &trace)
            };
            let (run, _) = simulate(&scenario, None).unwrap_or_else(|e| panic!("{e}"));
            AblationRow {
                name: format!("R={r}, fail rate={rate}/h"),
                savings: run.savings_vs(&npf),
                penalty: run.response_penalty_vs(&npf),
                run,
            }
        },
    )?);
    // The selector ablation: random-healthy vs energy-aware at R=2.
    let mut random = EevfsConfig::paper_pf_replicated(70, 2);
    random.replica_selection = ReplicaSelection::RandomHealthy;
    let run = run_cluster(&cluster, &random, &trace);
    rows.push(AblationRow {
        name: "R=2 healthy, random selector".into(),
        savings: run.savings_vs(&npf),
        penalty: run.response_penalty_vs(&npf),
        run,
    });
    Ok(Ablation {
        title: "Fault injection × replication (degraded mode)".into(),
        rows,
    })
}

/// Network resilience grid: drop-rate × retry-policy at R=2 (ISSUE 2).
///
/// Sweeps injected packet-loss profiles against three RPC policies —
/// fail-fast, bounded retries, retries + hedged reads — and records the
/// energy/response-time trade-off of each cell. Hedged reads race a second
/// replica, so their duplicate disk activations show up as extra joules:
/// availability bought with energy, the paper's currency.
///
/// The policy × drop-rate grid fans out on `runner`; a cell that dies
/// comes back as a [`GridError`] naming the grid point.
pub fn ablate_resilience(runner: &Runner, p: &SweepParams) -> Result<Ablation, GridError> {
    let cluster = ClusterSpec::paper_testbed();
    let trace = trace_default(p, 1000.0);
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let cfg = EevfsConfig::paper_pf_replicated(70, 2);
    let mut rows = vec![AblationRow {
        name: "NPF healthy".into(),
        savings: 0.0,
        penalty: 0.0,
        run: npf.clone(),
    }];
    let cells: Vec<(&'static str, RpcPolicy, f64)> = resilience_policies(p.seed)
        .into_iter()
        .flat_map(|(name, policy)| [0.0f64, 0.05, 0.2].map(|drop| (name, policy.clone(), drop)))
        .collect();
    rows.extend(runner.try_map(
        &cells,
        |_, (name, _, drop)| format!("drop={:.0}%, policy={name}", drop * 100.0),
        |_, (policy_name, policy, drop)| {
            let profile = if *drop == 0.0 {
                LinkFaultProfile::none()
            } else {
                LinkFaultProfile::lossy(p.seed, *drop)
            };
            let scenario = Scenario {
                resilience: Some(ResilienceSetup {
                    net_plan: &NetFaultPlan::none(),
                    profile: &profile,
                    policy,
                }),
                ..Scenario::new(&cluster, &cfg, &trace)
            };
            let (run, _) = simulate(&scenario, None).unwrap_or_else(|e| panic!("{e}"));
            AblationRow {
                name: format!("drop={:.0}%, policy={policy_name}", drop * 100.0),
                savings: run.savings_vs(&npf),
                penalty: run.response_penalty_vs(&npf),
                run,
            }
        },
    )?);
    Ok(Ablation {
        title: "Network drop rate × RPC policy (resilience)".into(),
        rows,
    })
}

/// Corruption rate × replication × scrub policy: the integrity grid
/// (ISSUE 4).
///
/// Injects seeded latent sector errors and bit flips at two rates and
/// runs each rate against R ∈ {1, 2} with scrubbing off and on. What the
/// grid shows: checksum-on-read alone leaves blocks latent, piggyback
/// scrubbing converts latent damage into detections while the disk is
/// already spinning, and a second replica is what turns a detection into
/// a repair instead of data loss — at R ≥ 2 with scrubbing the
/// unrecoverable count is zero. The last row crashes a node mid-run so
/// the journal-replay counters appear in the same report.
///
/// The rate × R × scrub grid fans out on `runner`; a cell that dies comes
/// back as a [`GridError`] naming the grid point.
pub fn ablate_scrub(runner: &Runner, p: &SweepParams) -> Result<Ablation, GridError> {
    use eevfs::driver::DurabilitySetup;
    use eevfs::scrub::ScrubPolicy;
    use fault_model::{CorruptionPlan, CorruptionSpec, CrashPlan};
    use sim_core::SimTime;

    let cluster = ClusterSpec::paper_testbed();
    let trace = trace_default(p, 1000.0);
    let horizon = trace
        .records
        .last()
        .map_or(SimDuration::from_secs(600), |r| {
            SimDuration::from_micros(r.at.as_micros()) + SimDuration::from_secs(120)
        });
    // Small enough that a 256-block piggyback pass covers a meaningful
    // slice of each disk within one run.
    let blocks_per_disk = 2048u32;
    let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    let mut rows = vec![AblationRow {
        name: "NPF healthy".into(),
        savings: 0.0,
        penalty: 0.0,
        run: npf.clone(),
    }];
    // Flattened rate × R × scrub grid; each cell regenerates its rate's
    // seeded corruption plan so cells own their inputs outright.
    let cells: Vec<(f64, u32, &'static str, ScrubPolicy)> = [2.0f64, 10.0]
        .iter()
        .flat_map(|&rate| {
            [1u32, 2].into_iter().flat_map(move |r| {
                [
                    ("scrub=off", ScrubPolicy::Off),
                    ("scrub=piggyback", ScrubPolicy::piggyback_default()),
                ]
                .map(|(scrub_name, scrub)| (rate, r, scrub_name, scrub))
            })
        })
        .collect();
    rows.extend(runner.try_map(
        &cells,
        |_, &(rate, r, scrub_name, _)| format!("R={r}, rot={rate}/disk-h, {scrub_name}"),
        |_, &(rate, r, scrub_name, scrub)| {
            let corruption = CorruptionPlan::generate(&CorruptionSpec {
                seed: p.seed,
                horizon,
                nodes: cluster.node_count() as u32,
                disks_per_node: 2,
                blocks_per_disk,
                lse_per_disk_hour: rate,
                flip_per_disk_hour: rate,
            });
            let cfg = EevfsConfig::paper_pf_replicated(70, r);
            let scenario = Scenario {
                durability: Some(DurabilitySetup {
                    corruption: &corruption,
                    crashes: &CrashPlan::none(),
                    scrub,
                    blocks_per_disk,
                }),
                ..Scenario::new(&cluster, &cfg, &trace)
            };
            let (run, _) = simulate(&scenario, None).unwrap_or_else(|e| panic!("{e}"));
            AblationRow {
                name: format!("R={r}, rot={rate}/disk-h, {scrub_name}"),
                savings: run.savings_vs(&npf),
                penalty: run.response_penalty_vs(&npf),
                run,
            }
        },
    )?);
    // Crash cell: kill a node mid-run under the heavy-rot scrubbed R=2
    // config; its restart replays the buffer-disk journal.
    let corruption = CorruptionPlan::generate(&CorruptionSpec {
        seed: p.seed,
        horizon,
        nodes: cluster.node_count() as u32,
        disks_per_node: 2,
        blocks_per_disk,
        lse_per_disk_hour: 10.0,
        flip_per_disk_hour: 10.0,
    });
    let mid = SimTime::ZERO + SimDuration::from_micros(horizon.as_micros() / 2);
    let crashes = CrashPlan::one(2, mid, mid + SimDuration::from_secs(30));
    let cfg = EevfsConfig::paper_pf_replicated(70, 2);
    let scenario = Scenario {
        durability: Some(DurabilitySetup {
            corruption: &corruption,
            crashes: &crashes,
            scrub: ScrubPolicy::piggyback_default(),
            blocks_per_disk,
        }),
        ..Scenario::new(&cluster, &cfg, &trace)
    };
    let (run, _) = simulate(&scenario, None).unwrap_or_else(|e| panic!("{e}"));
    rows.push(AblationRow {
        name: "R=2, rot=10/disk-h, scrub=piggyback, node crash mid-run".into(),
        savings: run.savings_vs(&npf),
        penalty: run.response_penalty_vs(&npf),
        run,
    });
    Ok(Ablation {
        title: "Corruption rate × replication × scrub (integrity)".into(),
        rows,
    })
}

/// The three retry policies the resilience grid compares.
pub fn resilience_policies(seed: u64) -> Vec<(&'static str, RpcPolicy)> {
    let deadline = SimDuration::from_secs(60);
    let per_try = SimDuration::from_secs(3);
    vec![
        (
            "no-retry",
            RpcPolicy {
                seed,
                ..RpcPolicy::no_retry(deadline)
            },
        ),
        (
            "retry",
            RpcPolicy {
                seed,
                ..RpcPolicy::retrying(deadline, per_try, 4)
            },
        ),
        (
            "retry+hedge",
            RpcPolicy {
                seed,
                ..RpcPolicy::hedged(deadline, per_try, 4, SimDuration::from_secs(4))
            },
        ),
    ]
}

/// Every ablation study, in report order, with whole studies fanned out
/// on `runner` (each study is one work item; the studies are mutually
/// independent, and each runs its own grid serially).
pub fn all_ablations(runner: &Runner, p: &SweepParams) -> Vec<Ablation> {
    let studies: [fn(&SweepParams) -> Ablation; 12] = [
        ablate_threshold,
        ablate_hints,
        ablate_write_buffer,
        ablate_placement,
        ablate_maid,
        ablate_scale,
        ablate_striping,
        ablate_disk_technology,
        ablate_arrival_mode,
        |p| ablate_faults(&Runner::serial(), p).unwrap_or_else(|e| panic!("{e}")),
        |p| ablate_resilience(&Runner::serial(), p).unwrap_or_else(|e| panic!("{e}")),
        |p| ablate_scrub(&Runner::serial(), p).unwrap_or_else(|e| panic!("{e}")),
    ];
    runner.map(&studies, |_, study| study(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepParams {
        SweepParams {
            requests: 120,
            ..SweepParams::default()
        }
    }

    #[test]
    fn threshold_ablation_trades_transitions_for_savings() {
        let a = ablate_threshold(&quick());
        assert_eq!(a.rows.len(), 6);
        // Transitions at 1 s threshold >= transitions at 60 s threshold.
        let t1 = a.rows[1].run.transitions.total();
        let t60 = a.rows[5].run.transitions.total();
        assert!(t1 >= t60, "t1={t1} t60={t60}");
    }

    #[test]
    fn scale_ablation_savings_grow_with_disks() {
        let a = ablate_scale(&quick());
        let s: Vec<f64> = a.rows.iter().map(|r| r.savings).collect();
        assert!(
            s[3] > s[0],
            "8 disks/node should save a larger fraction than 1: {s:?}"
        );
    }

    #[test]
    fn resilience_ablation_has_full_grid() {
        let a = ablate_resilience(&Runner::serial(), &quick()).expect("grid runs");
        // NPF baseline + 3 policies × 3 drop rates.
        assert_eq!(a.rows.len(), 10);
        // Clean-network cells inject nothing.
        let clean = &a.rows[1];
        assert_eq!(clean.run.resilience.rpc_drops, 0);
        // Lossy cells with retries recover what fail-fast loses.
        let lossy_noretry = a
            .rows
            .iter()
            .find(|r| r.name.contains("drop=20%") && r.name.contains("no-retry"))
            .expect("grid cell present");
        let lossy_retry = a
            .rows
            .iter()
            .find(|r| r.name.contains("drop=20%") && r.name.ends_with("policy=retry"))
            .expect("grid cell present");
        assert!(lossy_noretry.run.failed_requests > 0);
        assert!(lossy_retry.run.failed_requests < lossy_noretry.run.failed_requests);
        assert!(lossy_retry.run.resilience.rpc_retries > 0);
        // The hedged cell actually hedges under loss.
        let hedged = a
            .rows
            .iter()
            .find(|r| r.name.contains("drop=20%") && r.name.contains("retry+hedge"))
            .expect("grid cell present");
        assert!(hedged.run.resilience.hedges > 0);
    }

    #[test]
    fn maid_ablation_runs_all_configs() {
        let a = ablate_maid(&quick());
        assert_eq!(a.rows.len(), 4);
        // Energy-oblivious config saves nothing (same energy as NPF, which
        // also never sleeps — modulo placement differences).
        let oblivious = &a.rows[3];
        assert!(
            oblivious.savings.abs() < 0.05,
            "savings {}",
            oblivious.savings
        );
        // EEVFS prefetching beats on-demand MAID on a skewed read trace.
        assert!(a.rows[1].savings >= a.rows[2].savings - 0.02);
    }

    #[test]
    fn arrival_mode_ablation_shows_the_feedback() {
        let a = ablate_arrival_mode(&quick());
        assert_eq!(a.rows.len(), 4);
        // Full coverage saves under both disciplines.
        assert!(a.rows[0].savings > 0.08, "{:?}", a.rows[0].savings);
        assert!(a.rows[1].savings > 0.08, "{:?}", a.rows[1].savings);
        // With misses, closed loop erodes the open-loop savings.
        assert!(a.rows[3].savings < a.rows[2].savings, "{a:?}");
    }

    #[test]
    fn multispeed_drive_saves_at_least_as_much() {
        let a = ablate_disk_technology(&quick());
        // Smaller break-even means the same windows save no less energy
        // relative to that drive's own NPF... except the DRPM "standby"
        // draws more than a true standby; what must hold is that all
        // configurations save something and the run completes.
        for r in &a.rows {
            assert!(r.savings > 0.0, "{}: {}", r.name, r.savings);
        }
    }

    #[test]
    fn striping_ablation_is_not_slower() {
        let a = ablate_striping(&quick());
        let plain = &a.rows[1];
        let striped = &a.rows[2];
        assert!(striped.penalty <= plain.penalty + 0.10, "{a:?}");
        assert!(striped.savings > 0.0);
    }

    #[test]
    fn faults_ablation_shows_replication_absorbing_failures() {
        let a = ablate_faults(&Runner::serial(), &quick()).expect("grid runs");
        assert_eq!(a.rows.len(), 11, "{a:?}");
        // Healthy grid (rows 1..=3): no faults fire, nothing is lost.
        for r in &a.rows[1..=3] {
            assert_eq!(r.run.fault_events, 0, "{}", r.name);
            assert_eq!(r.run.failed_requests, 0, "{}", r.name);
        }
        // Heavy grid (rows 7..=9): faults fire; replication absorbs at
        // least as many requests as the unreplicated layout loses.
        let (r1, r2, r3) = (&a.rows[7], &a.rows[8], &a.rows[9]);
        assert!(r1.run.fault_events > 0, "{r1:?}");
        assert!(r2.run.failed_requests <= r1.run.failed_requests, "{a:?}");
        assert_eq!(
            r3.run.failed_requests, 0,
            "three copies over eight nodes: {r3:?}"
        );
    }

    #[test]
    fn scrub_ablation_shows_replication_repairing_detections() {
        // 120 requests leave the buffer unmissed — the piggyback scrubber
        // rides physical data-disk accesses, so give it some.
        let p = SweepParams {
            requests: 300,
            ..SweepParams::default()
        };
        let a = ablate_scrub(&Runner::serial(), &p).expect("grid runs");
        // NPF baseline + 2 rates × 2 R × 2 scrub policies + crash row.
        assert_eq!(a.rows.len(), 10, "{a:?}");
        for r in &a.rows[1..] {
            let d = &r.run.durability;
            assert!(d.corruptions_landed > 0, "{}: {d:?}", r.name);
            // Whatever was detected was either repaired or counted lost.
            assert_eq!(
                d.detected_on_read + d.detected_by_scrub,
                d.repaired_blocks + d.unrecoverable_blocks,
                "{}: {d:?}",
                r.name
            );
            // Two healthy copies cover every detection. (The crash row is
            // exempt: a detection while the replica's node is down has no
            // repair source.)
            if r.name.contains("R=2") && !r.name.contains("crash") {
                assert_eq!(d.unrecoverable_blocks, 0, "{}: {d:?}", r.name);
            }
            if r.name.contains("scrub=piggyback") {
                assert!(d.scrub_passes > 0, "{}: {d:?}", r.name);
                assert!(d.scrubbed_blocks > 0, "{}: {d:?}", r.name);
                assert!(r.run.scrub_energy_j > 0.0, "{}", r.name);
            } else {
                assert_eq!(d.scrub_passes, 0, "{}: {d:?}", r.name);
            }
        }
        // Scrubbing surfaces latent damage the read path alone missed.
        let off = &a.rows[7].run.durability; // R=2, rot=10, scrub=off
        let on = &a.rows[8].run.durability; // R=2, rot=10, scrub=piggyback
        assert!(on.detected_by_scrub > 0, "{on:?}");
        assert!(on.latent_at_end < off.latent_at_end, "{off:?} vs {on:?}");
        // The crash row replayed the buffer-disk journal.
        let crash = &a.rows[9].run.durability;
        assert!(crash.journal_replays >= 1, "{crash:?}");
        assert!(crash.journal_bytes_replayed > 0, "{crash:?}");
    }

    #[test]
    fn write_buffer_ablation_buffers_writes() {
        let a = ablate_write_buffer(&quick());
        assert!(a.rows[1].run.writes_buffered > 0);
        assert_eq!(a.rows[2].run.writes_buffered, 0);
    }
}
