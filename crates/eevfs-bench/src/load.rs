//! The overload plane's measurement side: closed-loop load sweeps,
//! throughput-vs-offered-load saturation curves, and the versioned
//! `BENCH_runtime.json` snapshot behind `harness load`.
//!
//! Two halves:
//!
//! * **Sim grid** — a closed-loop offered-load sweep over the DES
//!   (stream counts × gated/ungated), fanned across the [`Runner`] and
//!   byte-identical at any `--jobs` count, plus the four "known
//!   deviation" figure cells re-run closed-loop (DESIGN.md §2 blamed all
//!   four on the open-loop client; these cells measure what survives).
//! * **Runtime campaign** — the loopback TCP prototype driven past its
//!   admission capacity by the closed-loop load generator
//!   (`eevfs_runtime::loadgen`), reporting percentiles, throughput, and
//!   the shed ledger. Wall-clock timings vary run to run; the *ledger*
//!   must close exactly every time.

use crate::runner::Runner;
use crate::sweeps::SweepParams;
use eevfs::config::{ArrivalMode, ClusterSpec, EevfsConfig};
use eevfs::driver::run_cluster;
use eevfs::metrics::{OverloadStats, RunMetrics};
use eevfs::overload::OverloadOptions;
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;
use workload::synthetic::{generate, SizeDist, SyntheticSpec};

/// `BENCH_runtime.json` schema version; bump on incompatible change.
pub const LOAD_SNAPSHOT_VERSION: u32 = 1;
/// Admission cap used by every gated grid point and the runtime campaign.
pub const GRID_MAX_INFLIGHT: u32 = 8;
/// Closed-loop stream counts swept by the sim grid (the offered-load
/// axis; the server serialises requests, so streams ≫ the admission cap
/// is deep saturation).
pub const GRID_STREAMS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// One point on the sim-side throughput-vs-offered-load curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Human-readable cell name ("8 streams, gated", ...).
    pub label: String,
    /// Closed-loop streams (offered concurrency).
    pub streams: u32,
    /// Whether the bounded admission gate was armed.
    pub gated: bool,
    /// Requests that finished with a latency sample (admitted and not
    /// shed; the throughput numerator).
    pub completed: u64,
    /// Completed requests per second of simulated replay time.
    pub throughput_rps: f64,
    /// Median response time, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile response time, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile response time, milliseconds.
    pub p99_ms: f64,
    /// Replay energy per completed request.
    pub joules_per_request: f64,
    /// The run's full shed ledger.
    pub overload: OverloadStats,
}

/// One figure cell re-run closed-loop next to its open-loop original —
/// the measurement behind the EXPERIMENTS.md "Known deviations" rewrite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviationCell {
    /// Which deviation the cell probes ("fig3a-savings", ...).
    pub name: String,
    /// The x value ("10 MB", "350 ms", ...).
    pub label: String,
    /// The metric under the paper's open-loop replay.
    pub open: f64,
    /// The same metric with a 4-stream closed-loop client.
    pub closed: f64,
}

/// One point of the runtime campaign: the prototype under `clients`
/// closed-loop workers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimePoint {
    /// Closed-loop client workers.
    pub clients: usize,
    /// Requests sent across all workers.
    pub sent: u64,
    /// Requests served with data.
    pub completed: u64,
    /// Requests refused `Busy` at admission.
    pub busy: u64,
    /// Requests shed by the control plane.
    pub shed: u64,
    /// Client-side errors/timeouts.
    pub errors: u64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Median completed-request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Server-side: gate rejections (`Busy`).
    pub rejected: u64,
    /// Server-side: node-level sheds (deadline/brownout/downstream).
    pub node_shed: u64,
    /// Brownout-ladder transitions over the campaign.
    pub brownout_transitions: u64,
    /// Peak admitted-inflight the gate ever saw.
    pub queue_peak: u64,
    /// Disk joules per completed request (virtual power meters).
    pub joules_per_request: f64,
    /// Client ledger AND both server ledger equations closed exactly.
    pub ledger_closed: bool,
}

/// The versioned `BENCH_runtime.json` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadSnapshot {
    /// [`LOAD_SNAPSHOT_VERSION`].
    pub version: u32,
    /// Requests per sim run.
    pub requests: u32,
    /// Workload seed.
    pub seed: u64,
    /// Admission cap of the gated cells.
    pub max_inflight: u32,
    /// The sim-side saturation curve.
    pub sim: Vec<LoadPoint>,
    /// The four deviation cells, open vs closed loop.
    pub deviations: Vec<DeviationCell>,
    /// The runtime campaign (empty under `--sim-only`).
    pub runtime: Vec<RuntimePoint>,
}

/// The workload behind the saturation curve: paper-shaped popularity,
/// zero think time so offered load is exactly the stream count.
fn load_spec(p: &SweepParams) -> SyntheticSpec {
    SyntheticSpec {
        requests: p.requests,
        seed: p.seed,
        inter_arrival: SimDuration::ZERO,
        ..SyntheticSpec::paper_default()
    }
}

fn point_from_run(label: String, streams: u32, gated: bool, m: &RunMetrics) -> LoadPoint {
    LoadPoint {
        label,
        streams,
        gated,
        completed: m.response.count,
        throughput_rps: m.response.count as f64 / m.duration_s.max(1e-9),
        p50_ms: m.response.p50_s * 1e3,
        p95_ms: m.response.p95_s * 1e3,
        p99_ms: m.response.p99_s * 1e3,
        joules_per_request: m.total_energy_j / (m.response.count.max(1)) as f64,
        overload: m.overload,
    }
}

/// Runs the closed-loop offered-load grid with its cells fanned out on
/// `runner`. Cells are pure functions of `(streams, gated, p)`, so any
/// `--jobs` count yields byte-identical results.
pub fn run_load_grid(runner: &Runner, p: &SweepParams) -> Vec<LoadPoint> {
    let cells: Vec<(u32, bool)> = GRID_STREAMS
        .iter()
        .flat_map(|&s| [(s, false), (s, true)])
        .collect();
    let cluster = ClusterSpec::paper_testbed();
    runner.map(&cells, |_, &(streams, gated)| {
        let trace = generate(&load_spec(p));
        let mut cfg = EevfsConfig::paper_pf(70);
        cfg.arrival = ArrivalMode::ClosedLoop { streams };
        if gated {
            cfg.overload = Some(OverloadOptions::bounded(GRID_MAX_INFLIGHT as usize));
        }
        let m = run_cluster(&cluster, &cfg, &trace);
        let label = format!(
            "{streams} stream{}, {}",
            if streams == 1 { "" } else { "s" },
            if gated { "gated" } else { "ungated" }
        );
        point_from_run(label, streams, gated, &m)
    })
}

/// The saturation gate `harness load` enforces on the sim grid. Returns
/// one description per violated property (empty = gate passed):
///
/// * every ledger closes exactly, gated or not;
/// * ungated cells keep the overload ledger untouched;
/// * gated cells never exceed the admission cap and keep p99 under
///   `p99_ms` (bounded tail instead of unbounded queueing);
/// * at ≥ 2× the admission cap the gate must actually shed.
pub fn saturation_gate(points: &[LoadPoint], p99_ms: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for pt in points {
        let o = &pt.overload;
        if !o.ledger_closes() {
            bad.push(format!("{}: shed ledger does not close: {o:?}", pt.label));
        }
        if !pt.gated && *o != OverloadStats::default() {
            bad.push(format!(
                "{}: overload counters moved ungated: {o:?}",
                pt.label
            ));
        }
        if pt.gated {
            if o.queue_peak > GRID_MAX_INFLIGHT as u64 {
                bad.push(format!(
                    "{}: queue peak {} exceeds cap {GRID_MAX_INFLIGHT}",
                    pt.label, o.queue_peak
                ));
            }
            if pt.p99_ms > p99_ms {
                bad.push(format!(
                    "{}: p99 {:.1} ms exceeds the {p99_ms:.0} ms gate",
                    pt.label, pt.p99_ms
                ));
            }
            if pt.streams >= 2 * GRID_MAX_INFLIGHT && o.rejected + o.shed + o.node_shed == 0 {
                bad.push(format!(
                    "{}: {}x saturation refused nothing",
                    pt.label,
                    pt.streams / GRID_MAX_INFLIGHT
                ));
            }
        }
    }
    bad
}

fn pf_npf_closed(
    cluster: &ClusterSpec,
    trace: &workload::record::Trace,
    closed: bool,
) -> (RunMetrics, RunMetrics) {
    let mut pf = EevfsConfig::paper_pf(70);
    let mut npf = EevfsConfig::paper_npf();
    if closed {
        pf.arrival = ArrivalMode::ClosedLoop { streams: 4 };
        npf.arrival = ArrivalMode::ClosedLoop { streams: 4 };
    }
    (
        run_cluster(cluster, &pf, trace),
        run_cluster(cluster, &npf, trace),
    )
}

/// Re-runs the four "known deviation" cells of EXPERIMENTS.md with a
/// 4-stream closed-loop client next to the open-loop original:
///
/// 1. `fig3a-savings` — energy savings vs data size (1/10/25/50 MB);
/// 2. `fig3a-penalty` — the 1 MB response-penalty cell rides along;
/// 3. `fig4c-transitions` — PF transition counts vs inter-arrival delay;
/// 4. `fig5c-penalty` — response penalty vs delay, including the
///    0 ms savings cell (`fig3c-0ms-savings`).
pub fn deviation_cells(runner: &Runner, p: &SweepParams) -> Vec<DeviationCell> {
    let cluster = ClusterSpec::paper_testbed();
    let base = SyntheticSpec {
        requests: p.requests,
        seed: p.seed,
        ..SyntheticSpec::paper_default()
    };

    let sizes = runner.map(&[1u64, 10, 25, 50], |_, &mb| {
        let trace = generate(&SyntheticSpec {
            mean_size_bytes: mb * 1_000_000,
            size_dist: SizeDist::Exponential,
            ..base
        });
        let (pf_o, npf_o) = pf_npf_closed(&cluster, &trace, false);
        let (pf_c, npf_c) = pf_npf_closed(&cluster, &trace, true);
        (mb, pf_o, npf_o, pf_c, npf_c)
    });
    let delays = runner.map(&[0u64, 350, 700, 1000], |_, &ms| {
        let trace = generate(&SyntheticSpec {
            inter_arrival: SimDuration::from_millis(ms),
            ..base
        });
        let (pf_o, npf_o) = pf_npf_closed(&cluster, &trace, false);
        let (pf_c, npf_c) = pf_npf_closed(&cluster, &trace, true);
        (ms, pf_o, npf_o, pf_c, npf_c)
    });

    let mut cells = Vec::new();
    for (mb, pf_o, npf_o, pf_c, npf_c) in &sizes {
        cells.push(DeviationCell {
            name: "fig3a-savings".into(),
            label: format!("{mb} MB"),
            open: pf_o.savings_vs(npf_o) * 100.0,
            closed: pf_c.savings_vs(npf_c) * 100.0,
        });
    }
    if let Some((_, pf_o, npf_o, pf_c, npf_c)) = sizes.iter().find(|(mb, ..)| *mb == 1) {
        cells.push(DeviationCell {
            name: "fig3a-penalty".into(),
            label: "1 MB".into(),
            open: pf_o.response_penalty_vs(npf_o) * 100.0,
            closed: pf_c.response_penalty_vs(npf_c) * 100.0,
        });
    }
    for (ms, pf_o, _, pf_c, _) in &delays {
        cells.push(DeviationCell {
            name: "fig4c-transitions".into(),
            label: format!("{ms} ms"),
            open: pf_o.transitions.total() as f64,
            closed: pf_c.transitions.total() as f64,
        });
    }
    for (ms, pf_o, npf_o, pf_c, npf_c) in &delays {
        cells.push(DeviationCell {
            name: "fig5c-penalty".into(),
            label: format!("{ms} ms"),
            open: pf_o.response_penalty_vs(npf_o) * 100.0,
            closed: pf_c.response_penalty_vs(npf_c) * 100.0,
        });
    }
    if let Some((_, pf_o, npf_o, pf_c, npf_c)) = delays.iter().find(|(ms, ..)| *ms == 0) {
        cells.push(DeviationCell {
            name: "fig3c-0ms-savings".into(),
            label: "0 ms".into(),
            open: pf_o.savings_vs(npf_o) * 100.0,
            closed: pf_c.savings_vs(npf_c) * 100.0,
        });
    }
    cells
}

/// Client counts the runtime campaign sweeps; the cap is
/// [`RUNTIME_MAX_INFLIGHT`], so the top step is 4× saturation.
pub const RUNTIME_CLIENTS: [usize; 3] = [2, 4, 8];
/// Admission cap of the runtime campaign's cluster.
pub const RUNTIME_MAX_INFLIGHT: usize = 2;

/// Drives the loopback prototype with the closed-loop load generator at
/// each client count in [`RUNTIME_CLIENTS`], a fresh cluster per point.
/// Wall-clock numbers are measurements, not replays — only the ledgers
/// are deterministic.
pub fn run_runtime_campaign(requests_per_client: usize) -> Result<Vec<RuntimePoint>, String> {
    use eevfs::overload::OverloadOptions;
    use eevfs_runtime::{loadgen, ClusterHandle, LoadConfig, RuntimeConfig};

    let trace = generate(&SyntheticSpec {
        files: 16,
        requests: 8,
        mu: 4.0,
        mean_size_bytes: 32 * 1024,
        size_dist: SizeDist::Fixed,
        inter_arrival: SimDuration::from_millis(700),
        ..SyntheticSpec::paper_default()
    });
    let mut points = Vec::new();
    for (i, &clients) in RUNTIME_CLIENTS.iter().enumerate() {
        let mut cfg = RuntimeConfig::small(&format!("load-campaign-{i}"));
        cfg.resilience.overload = OverloadOptions::bounded(RUNTIME_MAX_INFLIGHT);
        let mut cluster =
            ClusterHandle::start(cfg, &trace).map_err(|e| format!("start cluster: {e}"))?;
        let addr = cluster.server_addr().map_err(|e| format!("addr: {e}"))?;
        let report = loadgen::run(
            addr,
            &LoadConfig {
                clients,
                requests_per_client,
                think: std::time::Duration::ZERO,
                deadline_us: 0,
                files: 16,
                seed: 29 + i as u64,
                request_timeout: std::time::Duration::from_secs(30),
            },
        );
        let stats = cluster.stats().map_err(|e| format!("stats: {e}"))?;
        let ledger_closed = report.ledger_closes()
            && stats.offered == stats.admitted + stats.rejected + stats.shed
            && stats.admitted == stats.completed + stats.node_shed + stats.request_errors;
        points.push(RuntimePoint {
            clients,
            sent: report.sent,
            completed: report.completed,
            busy: report.busy,
            shed: report.shed,
            errors: report.errors,
            throughput_rps: report.throughput_rps(),
            p50_ms: report.percentile(0.50).as_secs_f64() * 1e3,
            p95_ms: report.percentile(0.95).as_secs_f64() * 1e3,
            p99_ms: report.percentile(0.99).as_secs_f64() * 1e3,
            rejected: stats.rejected,
            node_shed: stats.node_shed,
            brownout_transitions: stats.brownout_transitions,
            queue_peak: stats.queue_peak,
            joules_per_request: stats.disk_joules / (report.completed.max(1)) as f64,
            ledger_closed,
        });
        cluster.shutdown();
    }
    Ok(points)
}

/// The runtime campaign's own gate: every point must terminate with a
/// closed ledger, no client-side errors, and a bounded queue.
pub fn runtime_gate(points: &[RuntimePoint]) -> Vec<String> {
    let mut bad = Vec::new();
    for pt in points {
        if !pt.ledger_closed {
            bad.push(format!("{} clients: ledger open", pt.clients));
        }
        if pt.errors > 0 {
            bad.push(format!(
                "{} clients: {} request errors",
                pt.clients, pt.errors
            ));
        }
        if pt.queue_peak > RUNTIME_MAX_INFLIGHT as u64 {
            bad.push(format!(
                "{} clients: queue peak {} exceeds cap {RUNTIME_MAX_INFLIGHT}",
                pt.clients, pt.queue_peak
            ));
        }
    }
    bad
}

/// ASCII rendering of the saturation curve and deviation cells.
pub fn render_load_report(snapshot: &LoadSnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# closed-loop saturation curve, cap {} ({} requests/run)",
        snapshot.max_inflight, snapshot.requests
    );
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>6} {:>6}",
        "cell", "rps", "p50 ms", "p95 ms", "p99 ms", "J/req", "rejected", "shed", "node", "peak"
    );
    for pt in &snapshot.sim {
        let _ = writeln!(
            out,
            "{:<22} {:>9.1} {:>9.2} {:>9.2} {:>9.2} {:>8.2} {:>8} {:>8} {:>6} {:>6}",
            pt.label,
            pt.throughput_rps,
            pt.p50_ms,
            pt.p95_ms,
            pt.p99_ms,
            pt.joules_per_request,
            pt.overload.rejected,
            pt.overload.shed,
            pt.overload.node_shed,
            pt.overload.queue_peak,
        );
    }
    let _ = writeln!(out, "\n# deviation cells, open vs 4-stream closed loop");
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>10} {:>10}",
        "cell", "x", "open", "closed"
    );
    for c in &snapshot.deviations {
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>10.2} {:>10.2}",
            c.name, c.label, c.open, c.closed
        );
    }
    if !snapshot.runtime.is_empty() {
        let _ = writeln!(
            out,
            "\n# runtime campaign, cap {RUNTIME_MAX_INFLIGHT} (wall-clock, loopback TCP)"
        );
        let _ = writeln!(
            out,
            "{:>7} {:>6} {:>9} {:>6} {:>6} {:>7} {:>9} {:>9} {:>9} {:>6}",
            "clients", "sent", "rps", "busy", "shed", "errors", "p50 ms", "p99 ms", "J/req", "peak"
        );
        for pt in &snapshot.runtime {
            let _ = writeln!(
                out,
                "{:>7} {:>6} {:>9.1} {:>6} {:>6} {:>7} {:>9.2} {:>9.2} {:>9.3} {:>6}",
                pt.clients,
                pt.sent,
                pt.throughput_rps,
                pt.busy,
                pt.shed,
                pt.errors,
                pt.p50_ms,
                pt.p99_ms,
                pt.joules_per_request,
                pt.queue_peak,
            );
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn small_params() -> SweepParams {
        SweepParams {
            requests: 120,
            seed: 9,
        }
    }

    #[test]
    fn load_grid_saturates_and_passes_its_own_gate() {
        let pts = run_load_grid(&Runner::serial(), &small_params());
        assert_eq!(pts.len(), GRID_STREAMS.len() * 2);
        let gate = saturation_gate(&pts, 60_000.0);
        assert!(gate.is_empty(), "gate tripped: {gate:?}");
        // Deep saturation really sheds on the gated side.
        let deep = pts
            .iter()
            .find(|p| p.gated && p.streams == 32)
            .expect("32-stream gated cell");
        let o = &deep.overload;
        assert!(o.rejected + o.shed + o.node_shed > 0, "{o:?}");
        // An absurd p99 bound must trip the gate (the CI proof hook).
        assert!(!saturation_gate(&pts, 0.0).is_empty());
    }

    #[test]
    fn load_grid_is_byte_identical_across_jobs() {
        let p = small_params();
        let serial = run_load_grid(&Runner::serial(), &p);
        let parallel = run_load_grid(&Runner::new(4), &p);
        let a = serde_json::to_string(&serial).unwrap();
        let b = serde_json::to_string(&parallel).unwrap();
        assert_eq!(a, b, "--jobs must not change the curve");
    }

    #[test]
    fn deviation_cells_cover_all_four_deviations() {
        let cells = deviation_cells(&Runner::serial(), &small_params());
        for name in [
            "fig3a-savings",
            "fig3a-penalty",
            "fig4c-transitions",
            "fig5c-penalty",
            "fig3c-0ms-savings",
        ] {
            assert!(
                cells.iter().any(|c| c.name == name),
                "missing deviation cell {name}"
            );
        }
        for c in &cells {
            assert!(c.open.is_finite() && c.closed.is_finite(), "{c:?}");
        }
    }
}
