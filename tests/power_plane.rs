//! Cross-crate tests for the `eevfs-power` policy plane: every driver
//! variant scores sleeps through the same `PredictionTracker` path,
//! powered runs replay bit-identically, and observation stays passive.

use eevfs::config::{ClusterSpec, EevfsConfig, PowerPolicy as PowerPolicyKind};
use eevfs::driver::{run_cluster, simulate, DurabilitySetup, ObsReport, Scenario};
use eevfs::metrics::RunMetrics;
use eevfs::scrub::ScrubPolicy;
use eevfs_power::{EvictionPolicy, PowerPolicy, TierConfig};
use fault_model::{CorruptionPlan, CrashPlan};
use workload::record::Trace;
use workload::synthetic::{generate, SyntheticSpec};

fn small_trace() -> Trace {
    generate(&SyntheticSpec {
        requests: 150,
        ..SyntheticSpec::paper_default()
    })
}

fn run(scenario: &Scenario<'_>) -> RunMetrics {
    simulate(scenario, None).expect("valid scenario").0
}

fn observe(scenario: &Scenario<'_>) -> (RunMetrics, ObsReport) {
    let (metrics, report) =
        simulate(scenario, Some(eevfs_obs::Recorder::default())).expect("valid scenario");
    (metrics, report.expect("a recorder was supplied"))
}

/// A paper-testbed PF(70) run of `trace` under the policy plane.
fn powered<'a>(
    cluster: &'a ClusterSpec,
    cfg: &'a EevfsConfig,
    trace: &'a Trace,
    policy: &'a PowerPolicy,
) -> Scenario<'a> {
    Scenario {
        power: Some(policy),
        ..Scenario::new(cluster, cfg, trace)
    }
}

/// `run_cluster`, a durable run, and an observed run all route sleep scoring through the same tracker, so with
/// empty fault/corruption plans their prediction summaries agree exactly.
#[test]
fn every_variant_scores_predictions_identically() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();

    let plain = run_cluster(&cluster, &cfg, &trace);
    assert!(plain.prediction.sleeps > 0, "run must sleep to score");

    let corruption = CorruptionPlan::none();
    let crashes = CrashPlan::none();
    let durable = run(&Scenario {
        durability: Some(DurabilitySetup {
            corruption: &corruption,
            crashes: &crashes,
            scrub: ScrubPolicy::Off,
            blocks_per_disk: 64,
        }),
        ..Scenario::new(&cluster, &cfg, &trace)
    });
    assert_eq!(plain.prediction, durable.prediction);

    let (observed, _) = observe(&Scenario::new(&cluster, &cfg, &trace));
    assert_eq!(plain.prediction, observed.prediction);
}

/// Powered runs are pure functions of their inputs: same policy, same
/// trace, bit-identical metrics.
#[test]
fn powered_replay_is_bit_identical() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();
    let policy = PowerPolicy::bandit().with_tier(TierConfig {
        dram_bytes: 64 << 20,
        ssd_bytes: 1 << 30,
        policy: EvictionPolicy::SampledLfu { sample: 5 },
    });
    let scenario = powered(&cluster, &cfg, &trace, &policy);
    let a = run(&scenario);
    let b = run(&scenario);
    assert_eq!(a, b, "powered replay must be bit-identical");
    assert!(a.tier.dram_hits > 0, "tier must absorb reuse: {:?}", a.tier);
}

/// Observation never perturbs a powered run: metrics match the
/// unobserved path, and the registry carries the tier counters.
#[test]
fn powered_observation_is_passive() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();
    let policy = PowerPolicy::ewma().with_tier(TierConfig {
        dram_bytes: 256 << 20,
        ssd_bytes: 0,
        policy: EvictionPolicy::Lru,
    });
    let scenario = powered(&cluster, &cfg, &trace, &policy);
    let bare = run(&scenario);
    let (observed, report) = observe(&scenario);
    assert_eq!(bare, observed, "observation must be passive");
    assert_eq!(
        report.registry.counter("tier_dram_hits"),
        bare.tier.dram_hits,
    );
}

/// With no tier configured, tier counters stay zero and the fixed
/// predictor still spins disks down (the legacy-baseline shape).
#[test]
fn fixed_no_tier_matches_baseline_shape() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();
    let policy = PowerPolicy::paper_fixed();
    let fixed = run(&powered(&cluster, &cfg, &trace, &policy));
    assert!(fixed.prediction.sleeps > 0);
    assert_eq!(fixed.tier.dram_hits, 0);
    assert_eq!(fixed.tier.ssd_hits, 0);
    assert_eq!(fixed.tier.ssd_energy_j, 0.0);
    let legacy = run_cluster(&cluster, &cfg, &trace);
    assert_eq!(legacy.tier, eevfs_power::TierStats::default());
}

/// A spin-cycle cap of zero forbids every sleep: the budget records the
/// denials and the disks never spin down.
#[test]
fn spin_budget_denies_sleeps_at_cap_zero() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();
    let policy = PowerPolicy::paper_fixed().with_spin_cap(0);
    let capped = run(&powered(&cluster, &cfg, &trace, &policy));
    assert_eq!(capped.prediction.sleeps, 0, "cap 0 must forbid sleeping");
    assert!(capped.tier.sleeps_denied > 0, "denials must be metered");
    assert_eq!(capped.transitions.spin_downs, 0);
}

/// The paper's timer configurations — PF(70) with hints off, PF(70) under
/// the idle-timer (PDC) policy, and NPF under the idle-timer policy — make
/// exactly the sleep decisions of the plane's fixed 5 s threshold: every
/// `RunMetrics` field agrees except `tier`, which only an explicit policy
/// reports.
#[test]
fn paper_timer_configs_equal_the_fixed_plane() {
    let cluster = ClusterSpec::paper_testbed();
    let trace = generate(&SyntheticSpec {
        requests: 2_000,
        ..SyntheticSpec::paper_default()
    });
    let mut hints_off = EevfsConfig::paper_pf(70);
    hints_off.hints = false;
    let mut pf_timer = EevfsConfig::paper_pf(70);
    pf_timer.power = PowerPolicyKind::IdleTimer;
    let mut npf_timer = EevfsConfig::paper_npf();
    npf_timer.power = PowerPolicyKind::IdleTimer;
    let policy = PowerPolicy::paper_fixed();
    for (name, cfg) in [
        ("PF(70) hints off", hints_off),
        ("PF(70) idle timer", pf_timer),
        ("NPF idle timer", npf_timer),
    ] {
        let from_cfg = run(&Scenario::new(&cluster, &cfg, &trace));
        let mut from_plane = run(&powered(&cluster, &cfg, &trace, &policy));
        assert!(from_cfg.prediction.sleeps > 0, "{name}: run must sleep");
        from_plane.tier = from_cfg.tier;
        assert_eq!(from_cfg, from_plane, "{name}: the two paths disagree");
    }
}
