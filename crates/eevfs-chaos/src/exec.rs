//! Schedule execution: one [`ChaosSchedule`] in, one [`RunOutcome`] out.
//!
//! The executor rebuilds every driver input from the schedule's explicit
//! fields — synthetic trace, paper testbed cluster, validated plans, RPC
//! policy, optional power plane — into one [`Scenario`] with the fault,
//! resilience and durability planes on, and runs it through
//! [`eevfs::driver::simulate`] under `catch_unwind`: a rejected input
//! comes back as a typed error, and a simulator panic becomes data (an
//! `engine-panic` outcome) instead of poisoning the search. Nothing here
//! draws fresh randomness: the outcome is a pure function of the
//! schedule.

use crate::schedule::{ChaosSchedule, BLOCKS_PER_DISK};
use eevfs::config::{ClusterSpec, EevfsConfig};
use eevfs::driver::{simulate, DurabilitySetup, ObsReport, ResilienceSetup, Scenario};
use eevfs::scrub::ScrubPolicy;
use eevfs::RunMetrics;
use eevfs_obs::Recorder;
use eevfs_power::{EvictionPolicy, PowerPolicy, TierConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::synthetic::{generate, SyntheticSpec};

/// How one schedule execution ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run completed; metrics are ready for the invariant plane.
    Done(Box<RunMetrics>),
    /// The driver rejected the inputs with a typed error.
    Rejected(String),
    /// The simulator panicked mid-run (an internal invariant tripped).
    Panicked(String),
}

/// The power policy a schedule's `power_kind`/`spin_cap` expand to.
pub fn power_policy(s: &ChaosSchedule) -> Option<PowerPolicy> {
    let base = match s.power_kind {
        0 => return None,
        1 => PowerPolicy::paper_fixed(),
        2 => PowerPolicy::ewma(),
        _ => PowerPolicy::bandit().with_tier(TierConfig {
            dram_bytes: 64 << 20,
            ssd_bytes: 4 << 30,
            policy: EvictionPolicy::Lru,
        }),
    };
    let base = base.with_seed(s.seed);
    Some(match s.spin_cap {
        Some(cap) => base.with_spin_cap(cap),
        None => base,
    })
}

/// Executes a schedule once. Deterministic: same schedule, same outcome,
/// bit-for-bit — including the panic message when the engine panics.
pub fn execute(s: &ChaosSchedule) -> RunOutcome {
    match run(s, None) {
        Ok((metrics, _)) => RunOutcome::Done(Box::new(metrics)),
        Err(Failure::Rejected(e)) => RunOutcome::Rejected(e),
        Err(Failure::Panicked(p)) => RunOutcome::Panicked(p),
    }
}

/// How one *observed* schedule execution ended — [`execute`] with the
/// structured trace captured for the audit plane.
#[derive(Debug)]
pub enum ObservedOutcome {
    /// The run completed with its trace captured.
    Done(Box<RunMetrics>, Box<ObsReport>),
    /// The driver rejected the inputs with a typed error.
    Rejected(String),
    /// The simulator panicked mid-run.
    Panicked(String),
}

/// Executes a schedule once with a [`Recorder`] attached, so the
/// ledger-closure invariant can reconstruct spans and residency from the
/// trace. Observation is passive: the metrics are bit-identical to what
/// [`execute`] returns for the same schedule.
pub fn execute_observed(s: &ChaosSchedule) -> ObservedOutcome {
    match run(s, Some(Recorder::default())) {
        Ok((metrics, report)) => ObservedOutcome::Done(
            Box::new(metrics),
            Box::new(report.expect("a recorder was supplied")),
        ),
        Err(Failure::Rejected(e)) => ObservedOutcome::Rejected(e),
        Err(Failure::Panicked(p)) => ObservedOutcome::Panicked(p),
    }
}

/// Why [`run`] returned no metrics.
enum Failure {
    Rejected(String),
    Panicked(String),
}

/// Rebuilds every driver input from the schedule and simulates it, with
/// `recorder` attached when one is given.
fn run(
    s: &ChaosSchedule,
    recorder: Option<Recorder>,
) -> Result<(RunMetrics, Option<ObsReport>), Failure> {
    let trace = generate(&SyntheticSpec {
        requests: s.requests,
        seed: s.seed,
        ..SyntheticSpec::paper_default()
    });
    let cluster = ClusterSpec::paper_testbed();
    let mut cfg = EevfsConfig::paper_pf_replicated(70, s.replication);
    cfg.overload = s.overload.map(eevfs::config::OverloadConfig::bounded);
    let plans = s
        .plans()
        .map_err(|e| Failure::Rejected(format!("bad schedule: {e}")))?;
    let policy = s.rpc_policy();
    let power = power_policy(s);
    let scenario = Scenario {
        faults: &plans.faults,
        resilience: Some(ResilienceSetup {
            net_plan: &plans.net,
            profile: &s.profile,
            policy: &policy,
        }),
        durability: Some(DurabilitySetup {
            corruption: &plans.corruption,
            crashes: &plans.crashes,
            scrub: if s.scrub {
                ScrubPolicy::piggyback_default()
            } else {
                ScrubPolicy::Off
            },
            blocks_per_disk: BLOCKS_PER_DISK,
        }),
        power: power.as_ref(),
        ..Scenario::new(&cluster, &cfg, &trace)
    };
    match catch_unwind(AssertUnwindSafe(|| simulate(&scenario, recorder))) {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(Failure::Rejected(e.to_string())),
        Err(payload) => Err(Failure::Panicked(panic_text(payload))),
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{generate_schedule, SeverityEnvelope};

    #[test]
    fn quiet_schedule_completes() {
        let s = ChaosSchedule {
            seed: 11,
            requests: 30,
            replication: 2,
            scrub: true,
            power_kind: 0,
            spin_cap: None,
            policy_kind: 1,
            overload: None,
            faults: Vec::new(),
            net: Vec::new(),
            corruption: Vec::new(),
            crashes: Vec::new(),
            profile: fault_model::LinkFaultProfile::none(),
        };
        match execute(&s) {
            RunOutcome::Done(m) => {
                assert_eq!(m.failed_requests, 0);
                assert_eq!(m.durability.unrecoverable_blocks, 0);
            }
            other => panic!("quiet schedule should complete, got {other:?}"),
        }
    }

    #[test]
    fn execution_is_bit_identical() {
        let env = SeverityEnvelope::default_search();
        let s = generate_schedule(&env, 3, 5);
        let (a, b) = (execute(&s), execute(&s));
        match (a, b) {
            (RunOutcome::Done(ma), RunOutcome::Done(mb)) => {
                let ja = serde_json::to_string(&*ma).expect("serialize");
                let jb = serde_json::to_string(&*mb).expect("serialize");
                assert_eq!(ja, jb, "same schedule must replay bit-identically");
            }
            (RunOutcome::Rejected(a), RunOutcome::Rejected(b)) => assert_eq!(a, b),
            (RunOutcome::Panicked(a), RunOutcome::Panicked(b)) => assert_eq!(a, b),
            (a, b) => panic!("outcome kind diverged: {a:?} vs {b:?}"),
        }
    }
}
