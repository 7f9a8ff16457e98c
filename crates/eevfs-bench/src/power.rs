//! The `harness power` experiment: idle-predictor × cache-tier sweep.
//!
//! Every other experiment in this crate drives the legacy static power
//! manager. This module sweeps the `eevfs-power` policy plane instead:
//! each grid cell runs one workload under one
//! [`PredictorConfig`] × [`TierConfig`] combination via
//! [`simulate`], and the report compares energy, response
//! time, and sleep-prediction accuracy against the paper's fixed
//! 5-second threshold with no cache tier (the `fixed/none` row, which
//! reproduces the static baseline).
//!
//! The grid fans out on the deterministic [`Runner`], so results are
//! byte-identical at any `--jobs` count — `harness power` verifies this
//! on every invocation, the same contract `harness bench` enforces.

use crate::runner::Runner;
use crate::sweeps::SweepParams;
use eevfs::config::{ClusterSpec, EevfsConfig};
use eevfs::driver::{simulate, Scenario};
use eevfs::metrics::RunMetrics;
use eevfs_power::{EvictionPolicy, PowerPolicy, PredictorConfig, TierConfig};
use serde::{Deserialize, Serialize};
use workload::berkeley::{berkeley_web_trace, BerkeleySpec};
use workload::record::Trace;
use workload::synthetic::{generate, SyntheticSpec};

/// One grid cell: a workload under one predictor × tier policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerPoint {
    /// Workload name ("synthetic" or "berkeley").
    pub workload: String,
    /// Predictor label ([`PredictorConfig::label`]).
    pub predictor: String,
    /// Tier label ([`TierConfig::label`]).
    pub tier: String,
    /// The full run under this policy (tier counters in
    /// [`RunMetrics::tier`], sleep scoring in [`RunMetrics::prediction`]).
    pub run: RunMetrics,
}

impl PowerPoint {
    /// Energy saved vs `baseline`, as a fraction (positive = cheaper).
    pub fn savings_vs(&self, baseline: &PowerPoint) -> f64 {
        if baseline.run.total_energy_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.run.total_energy_j / baseline.run.total_energy_j
    }
}

/// The predictors every sweep exercises: the paper's fixed threshold,
/// the EWMA idle-window estimator, and the epsilon-greedy bandit.
pub fn predictor_grid() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::FixedThreshold { threshold_s: 5.0 },
        PredictorConfig::EwmaIdleWindow {
            alpha: 0.25,
            margin: 1.5,
        },
        PredictorConfig::BanditThreshold { epsilon: 0.1 },
    ]
}

/// The tier configurations every sweep exercises: no tier (the
/// baseline), a generous per-node DRAM LRU, and a small DRAM in front
/// of a large SSD tier under sampled-LFU (the small DRAM evicts often,
/// so reuse traffic actually reaches the SSD).
pub fn tier_grid() -> Vec<TierConfig> {
    vec![
        TierConfig::none(),
        TierConfig {
            dram_bytes: 256 << 20,
            ssd_bytes: 0,
            policy: EvictionPolicy::Lru,
        },
        TierConfig {
            dram_bytes: 64 << 20,
            ssd_bytes: 4 << 30,
            policy: EvictionPolicy::SampledLfu { sample: 5 },
        },
    ]
}

/// The two reference workloads: the paper-default synthetic trace and
/// the Berkeley web trace (both scaled to `p.requests`).
fn workloads(p: &SweepParams) -> Vec<(String, Trace)> {
    vec![
        (
            "synthetic".into(),
            generate(&SyntheticSpec {
                requests: p.requests,
                seed: p.seed,
                ..SyntheticSpec::paper_default()
            }),
        ),
        (
            "berkeley".into(),
            berkeley_web_trace(&BerkeleySpec {
                requests: p.requests,
                seed: p.seed,
                ..BerkeleySpec::paper_default()
            }),
        ),
    ]
}

/// Runs the full predictor × tier × workload grid with cells fanned out on
/// `runner`. Cell order (and therefore output order) is fixed regardless
/// of job count.
pub fn run_power_grid(runner: &Runner, p: &SweepParams) -> Vec<PowerPoint> {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let mut cells = Vec::new();
    for (wname, trace) in workloads(p) {
        for pred in predictor_grid() {
            for tier in tier_grid() {
                cells.push((wname.clone(), trace.clone(), pred.clone(), tier));
            }
        }
    }
    runner.map(&cells, |_, (wname, trace, pred, tier)| {
        let policy = PowerPolicy {
            predictor: pred.clone(),
            tier: *tier,
            ..PowerPolicy::paper_fixed()
        };
        let scenario = Scenario {
            power: Some(&policy),
            ..Scenario::new(&cluster, &cfg, trace)
        };
        let (run, _) = simulate(&scenario, None).unwrap_or_else(|e| panic!("{e}"));
        PowerPoint {
            workload: wname.clone(),
            predictor: pred.label().to_string(),
            tier: tier.label(),
            run,
        }
    })
}

/// Renders the sweep as one table per workload, each row scored against
/// that workload's `fixed/none` baseline.
pub fn render_power_report(points: &[PowerPoint]) -> String {
    let mut out = String::new();
    let mut workloads: Vec<&str> = Vec::new();
    for pt in points {
        if !workloads.contains(&pt.workload.as_str()) {
            workloads.push(&pt.workload);
        }
    }
    for w in workloads {
        let rows: Vec<&PowerPoint> = points.iter().filter(|pt| pt.workload == w).collect();
        let baseline = rows
            .iter()
            .find(|pt| pt.predictor == "fixed" && pt.tier == "none")
            .copied();
        out.push_str(&format!("power sweep: {w} workload\n"));
        out.push_str(&format!(
            "{:>8} {:>18} {:>10} {:>8} {:>8} {:>7} {:>7} {:>7} {:>9} {:>8} {:>7}\n",
            "pred",
            "tier",
            "energy J",
            "save %",
            "mean s",
            "acc %",
            "sleeps",
            "denied",
            "dram hit",
            "ssd hit",
            "cycles"
        ));
        for pt in &rows {
            let savings = baseline
                .map(|b| pt.savings_vs(b) * 100.0)
                .unwrap_or_default();
            let pred = &pt.run.prediction;
            out.push_str(&format!(
                "{:>8} {:>18} {:>10.0} {:>8.1} {:>8.3} {:>7.1} {:>7} {:>7} {:>9} {:>8} {:>7}\n",
                pt.predictor,
                pt.tier,
                pt.run.total_energy_j,
                savings,
                pt.run.response.mean_s,
                pred.accuracy() * 100.0,
                pred.sleeps,
                pt.run.tier.sleeps_denied,
                pt.run.tier.dram_hits,
                pt.run.tier.ssd_hits,
                pt.run.tier.spin_cycles,
            ));
        }
        out.push('\n');
    }
    out
}

/// True when at least one adaptive predictor (anything but `fixed`)
/// beats the `fixed` row on energy at equal-or-better mean response
/// time, compared tier-for-tier on the same workload. This is the
/// acceptance gate EXPERIMENTS.md records.
pub fn adaptive_beats_fixed(points: &[PowerPoint]) -> bool {
    points.iter().any(|pt| {
        if pt.predictor == "fixed" {
            return false;
        }
        points
            .iter()
            .find(|b| b.predictor == "fixed" && b.tier == pt.tier && b.workload == pt.workload)
            .is_some_and(|b| {
                pt.run.total_energy_j < b.run.total_energy_j
                    && pt.run.response.mean_s <= b.run.response.mean_s
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> SweepParams {
        SweepParams {
            requests: 120,
            ..SweepParams::default()
        }
    }

    #[test]
    fn grid_covers_every_combination_once() {
        let pts = run_power_grid(&Runner::serial(), &small_params());
        assert_eq!(pts.len(), 2 * 3 * 3);
        for pred in ["fixed", "ewma", "bandit"] {
            for w in ["synthetic", "berkeley"] {
                assert_eq!(
                    pts.iter()
                        .filter(|pt| pt.predictor == pred && pt.workload == w)
                        .count(),
                    3,
                    "{pred} on {w}"
                );
            }
        }
    }

    #[test]
    fn parallel_grid_is_byte_identical_to_serial() {
        let p = small_params();
        let serial = run_power_grid(&Runner::serial(), &p);
        let parallel = run_power_grid(&Runner::new(2), &p);
        let a = serde_json::to_string(&serial).expect("serialise");
        let b = serde_json::to_string(&parallel).expect("serialise");
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_grid_replay_is_bit_identical() {
        let p = small_params();
        let a = serde_json::to_string(&run_power_grid(&Runner::serial(), &p)).expect("serialise");
        let b = serde_json::to_string(&run_power_grid(&Runner::serial(), &p)).expect("serialise");
        assert_eq!(a, b, "same-seed power grid must replay bit-identically");
    }

    #[test]
    fn tiers_absorb_reads_and_report_hits() {
        let pts = run_power_grid(&Runner::serial(), &small_params());
        let tiered = pts
            .iter()
            .find(|pt| pt.tier != "none" && pt.workload == "berkeley")
            .expect("tiered berkeley row");
        assert!(
            tiered.run.tier.dram_hits > 0,
            "zipf reuse should hit the DRAM tier: {:?}",
            tiered.run.tier
        );
    }

    #[test]
    fn report_names_every_row() {
        let pts = run_power_grid(&Runner::serial(), &small_params());
        let report = render_power_report(&pts);
        for label in ["fixed", "ewma", "bandit", "none"] {
            assert!(report.contains(label), "missing {label} in:\n{report}");
        }
    }
}
