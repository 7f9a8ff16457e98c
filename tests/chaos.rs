//! Cross-crate chaos-engine tests: the search finds violations the
//! canary plants, the shrinker minimises them, replays are bit-exact at
//! any pool shape, and the real invariant plane is clean under the
//! default severity envelope.

use eevfs_chaos::{
    check_schedule, execute, generate_schedule, replay, run_campaign, CampaignConfig,
    ChaosSchedule, InvariantSet, ParallelMap, RunOutcome, ScenarioReport, SerialPool,
    SeverityEnvelope,
};

/// A pool that evaluates indices in reverse order on the calling thread —
/// the cheapest way to prove campaign output does not depend on
/// scheduling order.
struct ReversePool;

impl ParallelMap for ReversePool {
    fn map_indexed(
        &self,
        n: usize,
        f: &(dyn Fn(usize) -> ScenarioReport + Sync),
    ) -> Vec<ScenarioReport> {
        let mut out: Vec<ScenarioReport> = (0..n).rev().map(f).collect();
        out.reverse();
        out
    }
}

/// The real invariant plane stays clean across a hostile campaign drawn
/// from the default envelope: composite disk/node/net/corruption/crash
/// schedules, all optional planes engaged probabilistically.
#[test]
fn severe_campaign_is_clean_under_standard_invariants() {
    let cfg = CampaignConfig::new(48, 0xC4A0_5EED);
    let report = run_campaign(&SerialPool, &InvariantSet::standard(), &cfg);
    assert!(
        report.clean(),
        "standard invariants violated: {:?}",
        report.violating
    );
}

/// The acceptance configuration: replication >= 2 with scrubbing always
/// on. No scenario may lose data or break any ledger.
#[test]
fn r2_scrubbed_campaign_is_clean() {
    let cfg = CampaignConfig {
        envelope: SeverityEnvelope::r2_scrubbed(),
        ..CampaignConfig::new(32, 0xD15C_0DE5)
    };
    let report = run_campaign(&SerialPool, &InvariantSet::standard(), &cfg);
    assert!(
        report.clean(),
        "r2+scrub invariants violated: {:?}",
        report.violating
    );
}

/// Canary mode end-to-end: the search finds the planted violation,
/// shrinks it strictly, and the reproducer replays bit-for-bit.
#[test]
fn canary_campaign_finds_shrinks_and_replays() {
    let invariants = InvariantSet::with_canary();
    let cfg = CampaignConfig::new(16, 0x0BAD_5EED);
    let report = run_campaign(&SerialPool, &invariants, &cfg);
    assert!(!report.clean(), "the canary must trip");
    let rep = report.reproducer.expect("reproducer for the canary");
    assert_eq!(rep.invariant, "canary-quiet-cluster");
    assert!(
        rep.shrunk_events < rep.original_events,
        "strictly smaller: {} -> {}",
        rep.original_events,
        rep.shrunk_events
    );
    // JSON round-trip, then bit-exact replay.
    let text = serde_json::to_string_pretty(&rep).expect("serialize artifact");
    let parsed: eevfs_chaos::Reproducer = serde_json::from_str(&text).expect("parse artifact");
    assert_eq!(parsed, rep);
    let outcome = replay(&parsed, &invariants);
    assert!(
        outcome.exact(),
        "replay must reproduce exactly: {outcome:?}"
    );
}

/// Campaign reports — including the shrunk reproducer — are identical
/// regardless of evaluation order, the property that makes `--jobs N`
/// output byte-identical to serial.
#[test]
fn campaign_output_is_pool_independent() {
    let invariants = InvariantSet::with_canary();
    let cfg = CampaignConfig::new(12, 0x0B5E_47ED);
    let serial = run_campaign(&SerialPool, &invariants, &cfg);
    let reversed = run_campaign(&ReversePool, &invariants, &cfg);
    assert_eq!(serial.violating, reversed.violating);
    assert_eq!(serial.reproducer, reversed.reproducer);
    assert_eq!(serial.shrink_attempts, reversed.shrink_attempts);
}

/// Every scenario in a campaign is individually reproducible: the same
/// (envelope, seed, index) re-checks to the same violations.
#[test]
fn scenario_checks_are_reproducible() {
    let env = SeverityEnvelope::default_search();
    let invariants = InvariantSet::with_canary();
    for i in 0..6 {
        let s = generate_schedule(&env, 31337, i);
        let a = check_schedule(&s, &invariants, i % 2 == 0);
        let b = check_schedule(&s, &invariants, i % 2 == 0);
        assert_eq!(a, b, "scenario {i}");
    }
}

/// Scenario 114 of `harness --seed 1 chaos --scenarios 300 --envelope
/// overloaded`, shrunk to its one partition event. Its gate (cap 5) fills
/// on an admission, which enters L3, and drains before the next arrival,
/// so the ladder reaches L3 while rejecting nothing. That is legal, and
/// `bounded-queue` must not report it.
const GATE_FILLS_AND_DRAINS: &str = r#"{
  "seed": 3912461262301727819,
  "requests": 49,
  "replication": 3,
  "scrub": false,
  "power_kind": 0,
  "spin_cap": null,
  "policy_kind": 1,
  "overload": 5,
  "faults": [],
  "net": [{"at": 1466566, "kind": {"LinkDown": {"link": 4}}}],
  "corruption": [],
  "crashes": [],
  "profile": {
    "seed": 10824778686089814150,
    "drop_prob": 0,
    "reset_prob": 0,
    "delay_prob": 0,
    "mean_delay": 2000000
  }
}"#;

#[test]
fn l3_without_a_rejection_is_not_a_violation() {
    let s: ChaosSchedule = serde_json::from_str(GATE_FILLS_AND_DRAINS).expect("parse schedule");
    let RunOutcome::Done(m) = execute(&s) else {
        panic!("scenario must complete");
    };
    assert_eq!((m.overload.max_level, m.overload.rejected), (3, 0));
    let violations = check_schedule(&s, &InvariantSet::standard(), true);
    assert!(violations.is_empty(), "violations: {violations:?}");
}
