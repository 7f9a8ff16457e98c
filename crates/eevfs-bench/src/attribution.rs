//! The `harness report` cells: observed runs folded through the
//! `eevfs-audit` plane into the versioned `REPORT_sim.json` payload plus
//! its ASCII tables.
//!
//! Each cell is a pure function of `(SweepParams, cell descriptor)`, so
//! the [`Runner`] can fan cells across workers with the report —
//! serialized bytes included — identical at any `--jobs` count; the
//! harness proves that with the same serial-vs-parallel byte compare the
//! other subcommands use. Every cell's ledger is verified closed
//! ([`EnergyLedger::verify_closure`]) before it enters the report: a
//! report that fails closure is a bug, not an artifact.

use crate::runner::Runner;
use crate::sweeps::SweepParams;
use eevfs::config::{ClusterSpec, EevfsConfig};
use eevfs::driver::{simulate, Scenario};
use eevfs_audit::{
    build_ledger, reconstruct_spans, render_cell_tables, AttributionCell, AttributionModel,
    AuditReport, EnergyLedger, ResidencyTable, REPORT_VERSION,
};
use eevfs_obs::{Recorder, TraceEvent};
use workload::berkeley::{berkeley_web_trace, BerkeleySpec};
use workload::synthetic::{generate, SyntheticSpec};
use workload::Trace;

/// Top-K rows kept per table in the report.
const TOP_K: usize = 8;

/// The fixed cell grid of `harness report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    /// The paper's synthetic workload mix under PF(70).
    PaperPf,
    /// The paper's synthetic mix with prefetching disabled (NPF) — the
    /// energy-per-request contrast the paper's Fig 3 argues from.
    PaperNpf,
    /// The Berkeley web-trace substitute under PF(70).
    BerkeleyPf,
}

const CELLS: [CellKind; 3] = [CellKind::PaperPf, CellKind::PaperNpf, CellKind::BerkeleyPf];

fn cell_trace(kind: CellKind, p: &SweepParams) -> Trace {
    match kind {
        CellKind::PaperPf | CellKind::PaperNpf => generate(&SyntheticSpec {
            requests: p.requests,
            seed: p.seed,
            ..SyntheticSpec::paper_default()
        }),
        CellKind::BerkeleyPf => berkeley_web_trace(&BerkeleySpec {
            requests: p.requests,
            seed: p.seed,
            ..BerkeleySpec::paper_default()
        }),
    }
}

fn cell_meta(kind: CellKind) -> (&'static str, &'static str, &'static str, EevfsConfig) {
    match kind {
        CellKind::PaperPf => (
            "paper-pf70",
            "synthetic paper mix",
            "PF(70)",
            EevfsConfig::paper_pf(70),
        ),
        CellKind::PaperNpf => (
            "paper-npf",
            "synthetic paper mix",
            "NPF",
            EevfsConfig::paper_npf(),
        ),
        CellKind::BerkeleyPf => (
            "berkeley-pf70",
            "Berkeley web trace",
            "PF(70)",
            EevfsConfig::paper_pf(70),
        ),
    }
}

/// One observed run folded into a report cell plus its rendered tables.
fn build_cell(kind: CellKind, p: &SweepParams) -> Result<(AttributionCell, String), String> {
    let (name, workload, config, cfg) = cell_meta(kind);
    let trace = cell_trace(kind, p);
    let cluster = ClusterSpec::paper_testbed();
    let scenario = Scenario::new(&cluster, &cfg, &trace);
    let (metrics, report) =
        simulate(&scenario, Some(Recorder::default())).map_err(|e| format!("cell {name}: {e}"))?;
    let report = report.expect("a recorder was supplied");
    let events: Vec<TraceEvent> = report.recorder.events().cloned().collect();
    let spans = reconstruct_spans(&events);
    if spans.len() as u32 != p.requests {
        return Err(format!(
            "cell {name}: {} spans for {} requests",
            spans.len(),
            p.requests
        ));
    }
    let warmup_us = metrics.prefetch.warmup_us;
    let end_us = warmup_us + (metrics.duration_s * 1e6).round() as u64;
    let residency = ResidencyTable::from_events(&events, warmup_us, end_us);
    let model = AttributionModel::from_cluster(&cluster);
    let ledger: EnergyLedger = build_ledger(&metrics, &spans, &residency, &model);
    ledger
        .verify_closure(&metrics)
        .map_err(|e| format!("cell {name}: ledger failed closure: {e}"))?;
    let cell = AttributionCell::build(
        name, workload, config, &metrics, &spans, &ledger, &residency, TOP_K,
    );
    let tables = render_cell_tables(&cell, &ledger);
    Ok((cell, tables))
}

/// Builds the full attribution report over the fixed cell grid, fanning
/// cells across the runner's workers. Returns the report and the
/// concatenated ASCII tables. Deterministic and jobs-independent: the
/// serialized report is byte-identical for any worker count.
pub fn build_attribution_report(
    runner: &Runner,
    p: &SweepParams,
) -> Result<(AuditReport, String), String> {
    let results = runner
        .try_map(
            &CELLS,
            |_, kind| format!("report cell {:?}", kind),
            |_, kind| build_cell(*kind, p),
        )
        .map_err(|e| e.to_string())?;
    let mut cells = Vec::with_capacity(results.len());
    let mut tables = String::new();
    for r in results {
        let (cell, t) = r?;
        cells.push(cell);
        tables.push_str(&t);
        tables.push('\n');
    }
    Ok((
        AuditReport {
            version: REPORT_VERSION,
            requests: p.requests,
            seed: p.seed,
            cells,
        },
        tables,
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn quick() -> SweepParams {
        SweepParams {
            requests: 60,
            seed: 11,
        }
    }

    #[test]
    fn report_is_byte_identical_across_jobs() {
        let p = quick();
        let (serial, t1) = build_attribution_report(&Runner::serial(), &p).unwrap();
        let (parallel, t4) = build_attribution_report(&Runner::new(4), &p).unwrap();
        let a = serde_json::to_string_pretty(&serial).unwrap();
        let b = serde_json::to_string_pretty(&parallel).unwrap();
        assert_eq!(a, b, "report must not depend on worker count");
        assert_eq!(t1, t4, "tables must not depend on worker count");
    }

    #[test]
    fn pf_beats_npf_on_energy_per_request() {
        // The paper's headline claim, visible straight from the report:
        // prefetching onto the buffer disk lets data disks sleep, so
        // PF(70) spends fewer joules per request than NPF.
        let (report, _) = build_attribution_report(&Runner::serial(), &quick()).unwrap();
        let cell = |n: &str| {
            report
                .cells
                .iter()
                .find(|c| c.name == n)
                .unwrap_or_else(|| panic!("missing cell {n}"))
        };
        assert!(
            cell("paper-pf70").energy_per_request_j < cell("paper-npf").energy_per_request_j,
            "PF should beat NPF"
        );
    }

    #[test]
    fn every_cell_attributes_some_energy() {
        let (report, tables) = build_attribution_report(&Runner::serial(), &quick()).unwrap();
        assert_eq!(report.cells.len(), CELLS.len());
        for c in &report.cells {
            assert!(
                c.ledger.attributed_j > 0.0,
                "cell {} attributed nothing",
                c.name
            );
            assert!(
                !c.top_requests.is_empty(),
                "cell {} has no top requests",
                c.name
            );
            assert!(
                !c.residency.is_empty(),
                "cell {} has no residency rows",
                c.name
            );
        }
        assert!(tables.contains("paper-pf70"));
        assert!(tables.contains("berkeley-pf70"));
    }
}
