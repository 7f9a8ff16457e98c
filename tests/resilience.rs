//! Cross-crate resilience acceptance tests — the CI gate for the
//! fault-injection determinism guarantee.
//!
//! The resilience layer's contract is that a run is a pure function of
//! its seeds: the same network fault plan, link profile, and RPC policy
//! replayed over the same trace must reproduce every statistic
//! bit-identically — retries, hedges, breaker trips, deadline misses,
//! *and* the energy/response results they perturb. Without that, no
//! drop-rate × policy grid cell is attributable to the knob it varies.

use eevfs::config::ClusterSpec;
use eevfs::config::EevfsConfig;
use eevfs::driver::{simulate, ResilienceSetup, Scenario};
use eevfs::metrics::RunMetrics;
use fault_model::{LinkFaultProfile, NetFaultPlan, NetFaultSpec, RpcPolicy};
use sim_core::SimDuration;
use workload::synthetic::{generate, SyntheticSpec};

fn trace(requests: u32) -> workload::record::Trace {
    generate(&SyntheticSpec {
        files: 200,
        requests,
        mean_size_bytes: 1_000_000,
        ..SyntheticSpec::paper_default()
    })
}

fn run(scenario: &Scenario<'_>) -> RunMetrics {
    simulate(scenario, None).expect("valid scenario").0
}

#[test]
fn seeded_fault_replay_is_bit_identical() {
    // The PR's acceptance criterion, asserted across crate boundaries:
    // generate a seeded partition plan plus a lossy per-message profile,
    // run the full cluster simulation twice, and require the entire
    // metrics struct — resilience counters included — to be equal.
    let trace = trace(400);
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf_replicated(70, 2);
    let net_plan = NetFaultPlan::generate(&NetFaultSpec {
        seed: 42,
        horizon: SimDuration::from_secs(600),
        links: 8,
        partition_per_hour: 10.0,
        mean_partition: SimDuration::from_secs(25),
    });
    let profile = LinkFaultProfile::lossy(9, 0.15);
    let policy = RpcPolicy {
        seed: 17,
        hedge_after: Some(SimDuration::from_secs(4)),
        ..RpcPolicy::retrying(SimDuration::from_secs(60), SimDuration::from_secs(3), 4)
    };
    let setup = ResilienceSetup {
        net_plan: &net_plan,
        profile: &profile,
        policy: &policy,
    };
    let scenario = Scenario {
        resilience: Some(setup),
        ..Scenario::new(&cluster, &cfg, &trace)
    };
    let a = run(&scenario);
    let b = run(&scenario);
    assert_eq!(a, b, "seeded fault replay must be bit-identical");
    // The run must actually have exercised the machinery it claims to
    // reproduce — an accidentally-perfect network would make the
    // determinism assertion vacuous.
    assert!(a.resilience.rpc_drops > 0, "{:?}", a.resilience);
    assert!(a.resilience.rpc_retries > 0, "{:?}", a.resilience);
    assert!(a.resilience.hedges > 0, "{:?}", a.resilience);
    assert!(a.total_energy_j > 0.0);
}

#[test]
fn observed_fault_replay_emits_bit_identical_jsonl() {
    // The observability layer's contract on top of the determinism one:
    // recording a trace must not perturb the run, and the exported JSONL
    // must be byte-identical across same-seed replays — including under
    // injected faults, where RPC retry/hedge events join the stream.
    use eevfs_obs::{EventKind, Recorder};
    let trace = trace(300);
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf_replicated(70, 2);
    let profile = LinkFaultProfile::lossy(9, 0.15);
    let policy = RpcPolicy {
        seed: 17,
        hedge_after: Some(SimDuration::from_secs(4)),
        ..RpcPolicy::retrying(SimDuration::from_secs(60), SimDuration::from_secs(3), 4)
    };
    let net_plan = NetFaultPlan::none();
    let scenario = Scenario {
        resilience: Some(ResilienceSetup {
            net_plan: &net_plan,
            profile: &profile,
            policy: &policy,
        }),
        ..Scenario::new(&cluster, &cfg, &trace)
    };
    let observe = || {
        let (metrics, report) =
            simulate(&scenario, Some(Recorder::default())).expect("valid scenario");
        (metrics, report.expect("a recorder was supplied"))
    };
    let (ma, ra) = observe();
    let (mb, rb) = observe();
    assert_eq!(ma, mb, "observed metrics must replay bit-identically");
    assert_eq!(
        ra.recorder.to_jsonl(),
        rb.recorder.to_jsonl(),
        "same-seed JSONL traces must be byte-identical"
    );
    // Observation must be passive: the observed metrics equal the plain
    // resilient run's.
    let plain = run(&scenario);
    assert_eq!(ma, plain, "recording a trace must not perturb the run");
    // The faults actually left marks in the trace stream.
    assert!(ma.resilience.rpc_retries > 0, "{:?}", ma.resilience);
    assert!(
        ra.recorder
            .events()
            .any(|e| matches!(e.kind, EventKind::RpcRetry { .. })),
        "retries must appear as trace events"
    );
    // One request id is followable from arrival to completion.
    let hist = ra.recorder.request_history(0);
    assert!(
        hist.iter()
            .any(|e| matches!(e.kind, EventKind::RequestArrive { .. })),
        "request 0 must have an arrival event"
    );
    assert!(
        hist.iter()
            .any(|e| matches!(e.kind, EventKind::RpcSend { .. })),
        "request 0 must have an RPC send span"
    );
}

#[test]
fn plan_seed_actually_steers_the_faults() {
    // Counterpart guard: different profile seeds must not collapse to the
    // same outcome, or the "seeded" in seeded determinism means nothing.
    let trace = trace(300);
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf_replicated(70, 2);
    let policy = RpcPolicy {
        seed: 17,
        ..RpcPolicy::retrying(SimDuration::from_secs(60), SimDuration::from_secs(3), 4)
    };
    let run_seeded = |profile_seed: u64| {
        run(&Scenario {
            resilience: Some(ResilienceSetup {
                net_plan: &NetFaultPlan::none(),
                profile: &LinkFaultProfile::lossy(profile_seed, 0.15),
                policy: &policy,
            }),
            ..Scenario::new(&cluster, &cfg, &trace)
        })
    };
    let a = run_seeded(1);
    let b = run_seeded(2);
    assert_ne!(
        (a.resilience.rpc_drops, a.resilience.rpc_retries),
        (b.resilience.rpc_drops, b.resilience.rpc_retries),
        "distinct seeds should draw distinct fault streams"
    );
}

#[test]
fn retry_policy_buys_availability_under_loss() {
    // The trade the harness grid measures, pinned as an invariant: under
    // a lossy network, bounded retries complete strictly more requests
    // than fail-fast.
    let trace = trace(300);
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf_replicated(70, 2);
    let profile = LinkFaultProfile::lossy(5, 0.25);
    let run_under = |policy: &RpcPolicy| {
        run(&Scenario {
            resilience: Some(ResilienceSetup {
                net_plan: &NetFaultPlan::none(),
                profile: &profile,
                policy,
            }),
            ..Scenario::new(&cluster, &cfg, &trace)
        })
    };
    let deadline = SimDuration::from_secs(60);
    let fail_fast = run_under(&RpcPolicy::no_retry(deadline));
    let retrying = run_under(&RpcPolicy::retrying(deadline, SimDuration::from_secs(3), 4));
    assert!(
        retrying.failed_requests < fail_fast.failed_requests,
        "retries must recover dropped flights: retry {} vs fail-fast {}",
        retrying.failed_requests,
        fail_fast.failed_requests
    );
}

#[test]
fn crash_during_prefetch_replay_is_bit_identical() {
    // The durability layer's acceptance case (ISSUE 4): with a seeded
    // corruption plan and a node crash landing while the prefetch
    // warm-up's disk tail is still rolling, two same-seed runs must
    // reproduce every statistic bit-identically — journal replays,
    // detection and repair counters, scrub energy, all of it.
    use eevfs::driver::DurabilitySetup;
    use eevfs::scrub::ScrubPolicy;
    use fault_model::{CorruptionPlan, CorruptionSpec, CrashPlan};
    use sim_core::SimTime;

    let trace = trace(400);
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf_replicated(70, 2);
    let corruption = CorruptionPlan::generate(&CorruptionSpec {
        seed: 11,
        horizon: SimDuration::from_secs(600),
        nodes: 8,
        disks_per_node: 2,
        blocks_per_disk: 64,
        lse_per_disk_hour: 60.0,
        flip_per_disk_hour: 60.0,
    });
    let crashes = CrashPlan::one(3, SimTime::from_secs(1), SimTime::from_secs(31));
    let setup = DurabilitySetup {
        corruption: &corruption,
        crashes: &crashes,
        scrub: ScrubPolicy::piggyback_default(),
        blocks_per_disk: 64,
    };
    let scenario = Scenario {
        durability: Some(setup),
        ..Scenario::new(&cluster, &cfg, &trace)
    };
    let a = run(&scenario);
    let b = run(&scenario);
    assert_eq!(a, b, "crash + corruption replay must be bit-identical");
    // The run exercised what it claims to reproduce.
    let d = &a.durability;
    assert!(d.journal_replays >= 1, "the restart must replay: {d:?}");
    assert!(d.journal_bytes_replayed > 0, "{d:?}");
    assert!(d.corruptions_landed > 0, "{d:?}");
    assert!(
        d.detected_on_read + d.detected_by_scrub > 0,
        "something must trip verification: {d:?}"
    );
    assert_eq!(a.response.count, 400, "no request may be lost to the crash");
}
