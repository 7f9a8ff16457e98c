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
use eevfs::metrics::{ResilienceStats, RunMetrics};
use fault_model::{BreakerConfig, LinkFaultProfile, NetFaultPlan, NetFaultSpec, RpcPolicy};
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
    // The only run in the tree that fires partitions and half-open
    // breaker recoveries: pin its exact outcome, so a change to breaker
    // probing order or to the retry/hedge paths cannot hide behind
    // self-equality.
    assert_eq!(
        a.resilience,
        ResilienceStats {
            rpc_retries: 95,
            rpc_drops: 80,
            rpc_resets: 21,
            rpc_delays: 36,
            hedges: 18,
            hedges_won: 11,
            breaker_trips: 10,
            breaker_recoveries: 3,
            deadline_misses: 0,
            net_fault_events: 20,
        }
    );
    assert_eq!(a.replica_redirects, 76);
    assert_eq!(a.transitions.spin_ups, 91);
    assert_eq!(a.transitions.spin_downs, 100);
}

#[test]
fn breakers_are_asked_on_every_routing_decision() {
    // `CircuitBreaker::allows` moves an open breaker whose cooldown has
    // elapsed to half-open, so the driver asks every node's breaker on
    // each routing decision, not only the candidates'. With a one-failure
    // threshold and a short cooldown, late deliveries often land on such
    // a breaker: asked, it is half-open and the success counts as a
    // recovery; never asked, it is still open and closes without one.
    // Asking only the candidates reads 57 recoveries here.
    let trace = trace(400);
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf_replicated(70, 2);
    let net_plan = NetFaultPlan::generate(&NetFaultSpec {
        seed: 1,
        horizon: SimDuration::from_secs(600),
        links: 8,
        partition_per_hour: 20.0,
        mean_partition: SimDuration::from_secs(25),
    });
    let profile = LinkFaultProfile {
        seed: 1,
        drop_prob: 0.1,
        reset_prob: 0.05,
        delay_prob: 0.3,
        mean_delay: SimDuration::from_secs(20),
    };
    let policy = RpcPolicy {
        seed: 17,
        hedge_after: Some(SimDuration::from_secs(4)),
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: SimDuration::from_secs(5),
        },
        ..RpcPolicy::retrying(SimDuration::from_secs(120), SimDuration::from_secs(3), 4)
    };
    let m = run(&Scenario {
        resilience: Some(ResilienceSetup {
            net_plan: &net_plan,
            profile: &profile,
            policy: &policy,
        }),
        ..Scenario::new(&cluster, &cfg, &trace)
    });
    assert_eq!(m.resilience.breaker_trips, 139, "{:?}", m.resilience);
    assert_eq!(m.resilience.breaker_recoveries, 61, "{:?}", m.resilience);
}

#[test]
fn perfect_network_setup_equals_no_setup() {
    // An engaged resilience plane over a perfect network — no partitions,
    // no per-message faults, a deadline nothing reaches, no hedging —
    // must reproduce the `resilience: None` run in every field: retries
    // never fire and closed breakers admit every node.
    let trace = generate(&SyntheticSpec {
        requests: 2_000,
        ..SyntheticSpec::paper_default()
    });
    let cluster = ClusterSpec::paper_testbed();
    let net_plan = NetFaultPlan::none();
    let profile = LinkFaultProfile::none();
    let hour = SimDuration::from_secs(3_600);
    let policies = [
        RpcPolicy::no_retry(hour),
        RpcPolicy::retrying(hour, SimDuration::from_secs(3), 4),
    ];
    for (name, cfg) in [
        ("PF(70)", EevfsConfig::paper_pf(70)),
        ("NPF", EevfsConfig::paper_npf()),
        ("PF(70) R=2", EevfsConfig::paper_pf_replicated(70, 2)),
    ] {
        let bare = run(&Scenario::new(&cluster, &cfg, &trace));
        for policy in &policies {
            assert!(policy.hedge_after.is_none());
            let perfect = run(&Scenario {
                resilience: Some(ResilienceSetup {
                    net_plan: &net_plan,
                    profile: &profile,
                    policy,
                }),
                ..Scenario::new(&cluster, &cfg, &trace)
            });
            assert_eq!(
                perfect, bare,
                "{name}, {} retries: a perfect network must change nothing",
                policy.max_retries
            );
        }
    }
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
