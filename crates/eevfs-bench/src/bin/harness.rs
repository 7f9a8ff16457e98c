//! Experiment harness: regenerates every table/figure in the paper.
//!
//! ```text
//! harness [--requests N] [--seed S] [--jobs N] [--json PATH] [--trace-out PATH] <command>
//!
//! --jobs N fans independent grid points across N worker threads (0 or
//! omitted = one per core, 1 = the old serial path); results are
//! byte-identical at any job count (DESIGN.md §11).
//!
//! commands:
//!   all        every figure and ablation
//!   fig3a..d   energy panels        (Fig 3)
//!   fig4       transition panels    (Fig 4)
//!   fig5       response panels      (Fig 5)
//!   fig6       Berkeley web trace   (Fig 6)
//!   sweeps     the raw sweep tables behind Figs 3-5
//!   ablate     all ablations
//!   faults     fault injection × replication grid (degraded mode)
//!   resilience network drop-rate × RPC-policy grid (retries/hedging)
//!   scrub      corruption-rate × replication × scrub-policy grid
//!              (integrity: detect/repair/unrecoverable counters)
//!   power-curve  whole-cluster power over time, PF vs NPF
//!   hist         response-time distributions, PF vs NPF
//!   trace        observed PF run: JSONL trace (--trace-out), power/state
//!                timeline, prediction accuracy, one request walkthrough
//!   bench        time the fixed 16-point reference grid at --jobs vs
//!                serial, verify byte-identical results, write
//!                BENCH_sim.json (wall-clock, runs/sec, speedup)
//!   power        eevfs-power policy sweep: idle predictors × cache
//!                tiers × workloads, verified byte-identical serial vs
//!                --jobs, report + POWER_sim.json (--json overrides)
//!   chaos        deterministic chaos search: --scenarios N seeded
//!                composite fault schedules through the invariant plane
//!                (--envelope r2 for the replicated+scrubbed envelope,
//!                --envelope overloaded to gate every scenario);
//!                a violation shrinks to a reproducer JSON (in
//!                --artifact-dir) and exits non-zero. --canary arms the
//!                deliberately broken invariant; --replay FILE re-executes
//!                a reproducer and verifies it bit-for-bit.
//!   load         overload control plane: closed-loop offered-load grid
//!                (saturation curve, gated vs ungated), the four "known
//!                deviation" figure cells re-run closed-loop, and a
//!                wall-clock runtime campaign through the loadgen;
//!                writes versioned BENCH_runtime.json (--json overrides)
//!                and exits non-zero when the saturation gate trips
//!                (open ledger, unbounded queue, p99 over --gate-p99-ms,
//!                or no shedding at ≥2× the admission cap). --sim-only
//!                skips the runtime campaign (CI determinism).
//!   report       energy attribution report: per-request spans + closed
//!                joule ledger over the paper/Berkeley cells, verified
//!                byte-identical serial vs --jobs, ASCII top-K tables,
//!                writes REPORT_sim.json (--json overrides). --baseline
//!                FILE gates energy-per-request and response time against
//!                a committed report and exits non-zero on regression;
//!                --inject-regression PCT perturbs the compared copy so
//!                CI can prove the gate fails; --bench-baseline FILE
//!                --bench-current FILE gate a BENCH_sim.json pair on
//!                runs/sec instead.
//! ```

#![warn(clippy::unwrap_used)]

use eevfs::config::{ClusterSpec, EevfsConfig};
use eevfs::driver::{simulate, ObsReport, Scenario};
use eevfs::metrics::RunMetrics;
use eevfs_bench::ablate::{all_ablations, Ablation};
use eevfs_bench::figures::{fig3_view, fig4_view, fig5_view, fig6, Panel};
use eevfs_bench::report::{render_ablation, render_figure, render_sweep};
use eevfs_bench::runner::{GridError, Runner};
use eevfs_bench::sweeps::{ExperimentPoint, SweepParams};
use eevfs_obs::Recorder;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use workload::record::Trace;
use workload::synthetic::{generate, SyntheticSpec};

struct Args {
    params: SweepParams,
    jobs: usize,
    json_path: Option<String>,
    trace_path: Option<String>,
    command: String,
    /// `chaos`: scenarios to search.
    scenarios: u32,
    /// `chaos`: arm the deliberately broken canary invariant.
    canary: bool,
    /// `chaos`: severity envelope name ("default", "r2", "overloaded").
    envelope: String,
    /// `chaos`: replay a reproducer artifact instead of searching.
    replay_path: Option<String>,
    /// `chaos`: where reproducer artifacts are written.
    artifact_dir: String,
    /// `report`: committed baseline REPORT_sim.json to gate against.
    baseline: Option<String>,
    /// `report`: perturb energy-per-request by this percentage before
    /// the baseline comparison (CI's proof the gate can fail).
    inject_regression: Option<f64>,
    /// `report`: baseline BENCH_sim.json for the throughput gate.
    bench_baseline: Option<String>,
    /// `report`: current BENCH_sim.json for the throughput gate.
    bench_current: Option<String>,
    /// `load`: skip the wall-clock runtime campaign.
    sim_only: bool,
    /// `load`: p99 bound (ms) the gated sim cells must stay under.
    gate_p99_ms: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        params: SweepParams::default(),
        jobs: 0,
        json_path: None,
        trace_path: None,
        command: String::new(),
        scenarios: 64,
        canary: false,
        envelope: "default".into(),
        replay_path: None,
        artifact_dir: ".".into(),
        baseline: None,
        inject_regression: None,
        bench_baseline: None,
        bench_current: None,
        sim_only: false,
        gate_p99_ms: 60_000.0,
    };
    let mut command = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--scenarios" => args.scenarios = parsed(&mut it, flag)?,
            "--canary" => args.canary = true,
            "--envelope" => match value(&mut it, flag)?.as_str() {
                e @ ("default" | "r2" | "overloaded") => args.envelope = e.into(),
                other => {
                    return Err(format!(
                        "bad --envelope {other}; try: default, r2, overloaded"
                    ))
                }
            },
            "--replay" => args.replay_path = Some(value(&mut it, flag)?),
            "--artifact-dir" => args.artifact_dir = value(&mut it, flag)?,
            "--requests" => args.params.requests = parsed(&mut it, flag)?,
            "--seed" => args.params.seed = parsed(&mut it, flag)?,
            "--jobs" => args.jobs = parsed(&mut it, flag)?,
            "--json" => args.json_path = Some(value(&mut it, flag)?),
            "--trace-out" => args.trace_path = Some(value(&mut it, flag)?),
            "--baseline" => args.baseline = Some(value(&mut it, flag)?),
            "--inject-regression" => args.inject_regression = Some(parsed(&mut it, flag)?),
            "--bench-baseline" => args.bench_baseline = Some(value(&mut it, flag)?),
            "--bench-current" => args.bench_current = Some(value(&mut it, flag)?),
            "--sim-only" => args.sim_only = true,
            "--gate-p99-ms" => args.gate_p99_ms = parsed(&mut it, flag)?,
            other if command.is_none() && !other.starts_with('-') => command = Some(arg.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.command = command.unwrap_or_else(|| "all".into());
    Ok(args)
}

/// The value after `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The value after `flag`, parsed.
fn parsed<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse().map_err(|_| format!("bad {flag} {v}"))
}

/// One subcommand: prints its report and writes the artifacts it owns;
/// `Err` fails the run.
type Command = fn(&Args, &Runner) -> Result<(), String>;

/// Every subcommand, by name.
const COMMANDS: &[(&str, Command)] = &[
    ("all", all),
    ("sweeps", |a, r| figures(a, r, &Panel::ALL, &[sweep_table])),
    ("fig3a", |a, r| {
        figures(a, r, &[Panel::DataSize], &[fig3_table])
    }),
    ("fig3b", |a, r| figures(a, r, &[Panel::Mu], &[fig3_table])),
    ("fig3c", |a, r| {
        figures(a, r, &[Panel::InterArrival], &[fig3_table])
    }),
    ("fig3d", |a, r| {
        figures(a, r, &[Panel::PrefetchK], &[fig3_table])
    }),
    ("fig4", |a, r| figures(a, r, &Panel::ALL, &[fig4_table])),
    ("fig5", |a, r| figures(a, r, &Panel::ALL, &[fig5_table])),
    ("fig6", |a, _| {
        println!("{}", render_figure(&fig6(&a.params)));
        HarnessOutput::new(&a.params).write(a)
    }),
    ("ablate", |a, r| {
        HarnessOutput::new(&a.params)
            .ablations(all_ablations(r, &a.params))
            .write(a)
    }),
    ("faults", |a, r| {
        let grid = eevfs_bench::ablate::ablate_faults(r, &a.params);
        ablation_grid(a, grid, faults_table)
    }),
    ("resilience", |a, r| {
        let grid = eevfs_bench::ablate::ablate_resilience(r, &a.params);
        ablation_grid(a, grid, resilience_table)
    }),
    ("scrub", |a, r| {
        let grid = eevfs_bench::ablate::ablate_scrub(r, &a.params);
        ablation_grid(a, grid, scrub_table)
    }),
    ("power-curve", power_curve),
    ("hist", hist),
    ("trace", trace),
    ("bench", bench),
    ("power", power),
    ("chaos", chaos),
    ("report", report),
    ("load", load),
];

/// Runs the subcommand `args` names.
fn run(args: &Args) -> Result<(), String> {
    let Some((_, command)) = COMMANDS.iter().find(|(name, _)| *name == args.command) else {
        let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown command {}; try: {}",
            args.command,
            names.join(", ")
        ));
    };
    command(args, &Runner::new(args.jobs))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `value` to `path` as pretty JSON.
fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("serialisation: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Reads a JSON artifact from `path`.
fn read_json<T: Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Runs `grid` serially, then on `runner`, and returns the serial result
/// with whether both serialise to the same bytes.
fn serial_vs_parallel<T: Serialize>(
    what: &str,
    p: &SweepParams,
    runner: &Runner,
    mut grid: impl FnMut(&Runner) -> Result<T, String>,
) -> Result<(T, bool), String> {
    eprintln!(
        "{what}, {} requests/run, serial then --jobs {}",
        p.requests,
        runner.jobs()
    );
    let serial = grid(&Runner::serial())?;
    let parallel = grid(runner)?;
    let json = |v: &T| serde_json::to_string(v).map_err(|e| format!("serialisation: {e}"));
    let same = json(&serial)? == json(&parallel)?;
    Ok((serial, same))
}

/// Fails the run when the parallel pass diverged from the serial one.
fn check_identical(same: bool) -> Result<(), String> {
    if same {
        Ok(())
    } else {
        Err("parallel results diverged from the serial path".into())
    }
}

/// Fails the run on any gate regression, one line each.
fn check_regressions(regs: &[eevfs_audit::Regression]) -> Result<(), String> {
    if regs.is_empty() {
        return Ok(());
    }
    let lines: Vec<String> = regs.iter().map(|r| r.describe()).collect();
    Err(lines.join("\n"))
}

/// Sweep panels and ablations, JSON-serialisable for EXPERIMENTS.md.
#[derive(Serialize)]
struct HarnessOutput {
    requests: u32,
    seed: u64,
    sweeps: Vec<(String, Vec<ExperimentPoint>)>,
    ablations: Vec<Ablation>,
}

impl HarnessOutput {
    fn new(p: &SweepParams) -> HarnessOutput {
        HarnessOutput {
            requests: p.requests,
            seed: p.seed,
            sweeps: Vec::new(),
            ablations: Vec::new(),
        }
    }

    /// Runs each panel, prints `views` of its points, and keeps them.
    fn panels(
        mut self,
        runner: &Runner,
        p: &SweepParams,
        panels: &[Panel],
        views: &[View],
    ) -> Self {
        for &panel in panels {
            let pts = panel.run(runner, p);
            for view in views {
                println!("{}", view(panel, &pts));
            }
            self.sweeps.push((panel.xlabel().to_string(), pts));
        }
        self
    }

    /// Prints each ablation and keeps it.
    fn ablations(mut self, ablations: Vec<Ablation>) -> Self {
        for a in ablations {
            println!("{}", render_ablation(&a));
            self.ablations.push(a);
        }
        self
    }

    /// Writes the output to `--json`, when given.
    fn write(&self, args: &Args) -> Result<(), String> {
        args.json_path
            .as_deref()
            .map_or(Ok(()), |path| write_json(path, self))
    }
}

/// One printed view of a sweep panel's points.
type View = fn(Panel, &[ExperimentPoint]) -> String;

fn sweep_table(panel: Panel, pts: &[ExperimentPoint]) -> String {
    render_sweep(&format!("sweep: {}", panel.xlabel()), pts)
}

fn fig3_table(panel: Panel, pts: &[ExperimentPoint]) -> String {
    render_figure(&fig3_view(panel, pts))
}

fn fig4_table(panel: Panel, pts: &[ExperimentPoint]) -> String {
    render_figure(&fig4_view(panel, pts))
}

fn fig5_table(panel: Panel, pts: &[ExperimentPoint]) -> String {
    render_figure(&fig5_view(panel, pts))
}

/// The figure subcommands: `views` of each of `panels`.
fn figures(args: &Args, runner: &Runner, panels: &[Panel], views: &[View]) -> Result<(), String> {
    let p = &args.params;
    HarnessOutput::new(p)
        .panels(runner, p, panels, views)
        .write(args)
}

/// Every figure and ablation.
fn all(args: &Args, runner: &Runner) -> Result<(), String> {
    let p = &args.params;
    let views: [View; 4] = [sweep_table, fig3_table, fig4_table, fig5_table];
    let out = HarnessOutput::new(p).panels(runner, p, &Panel::ALL, &views);
    println!("{}", render_figure(&fig6(p)));
    out.ablations(all_ablations(runner, p)).write(args)
}

/// A fault, resilience or scrub grid: its ablation summary, then `table`,
/// one machine-readable line per cell.
fn ablation_grid(
    args: &Args,
    grid: Result<Ablation, GridError>,
    table: fn(&Ablation),
) -> Result<(), String> {
    let out = HarnessOutput::new(&args.params).ablations(vec![grid.map_err(|e| e.to_string())?]);
    table(&out.ablations[0]);
    out.write(args)
}

fn faults_table(a: &Ablation) {
    println!(
        "{:>28} {:>10} {:>12} {:>8} {:>10} {:>10} {:>8}",
        "config", "energy J", "transitions", "mean s", "redirects", "failed", "events"
    );
    for r in &a.rows {
        println!(
            "{:>28} {:>10.0} {:>12} {:>8.3} {:>10} {:>10} {:>8}",
            r.name,
            r.run.total_energy_j,
            r.run.transitions.total(),
            r.run.response.mean_s,
            r.run.replica_redirects,
            r.run.failed_requests,
            r.run.fault_events,
        );
    }
}

/// One line per drop-rate × policy cell.
fn resilience_table(a: &Ablation) {
    println!(
        "{:>28} {:>10} {:>8} {:>8} {:>8} {:>7} {:>7} {:>6} {:>8} {:>7}",
        "config",
        "energy J",
        "mean s",
        "p95 s",
        "retries",
        "hedges",
        "won",
        "trips",
        "misses",
        "failed"
    );
    for r in &a.rows {
        let res = &r.run.resilience;
        println!(
            "{:>28} {:>10.0} {:>8.3} {:>8.3} {:>8} {:>7} {:>7} {:>6} {:>8} {:>7}",
            r.name,
            r.run.total_energy_j,
            r.run.response.mean_s,
            r.run.response.p95_s,
            res.rpc_retries,
            res.hedges,
            res.hedges_won,
            res.breaker_trips,
            res.deadline_misses,
            r.run.failed_requests,
        );
    }
}

/// One line per rate × R × policy cell.
fn scrub_table(a: &Ablation) {
    println!(
        "{:>48} {:>10} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8}",
        "config",
        "energy J",
        "landed",
        "det rd",
        "det scr",
        "repaired",
        "unrecov",
        "latent",
        "passes",
        "scrub J",
        "replays"
    );
    for r in &a.rows {
        let d = &r.run.durability;
        println!(
            "{:>48} {:>10.0} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8.1} {:>8}",
            r.name,
            r.run.total_energy_j,
            d.corruptions_landed,
            d.detected_on_read,
            d.detected_by_scrub,
            d.repaired_blocks,
            d.unrecoverable_blocks,
            d.latent_at_end,
            d.scrub_passes,
            r.run.scrub_energy_j,
            d.journal_replays,
        );
    }
}

/// The paper testbed and a paper-default synthetic trace at `--requests`
/// and `--seed`.
fn paper_setup(p: &SweepParams) -> (ClusterSpec, Trace) {
    let trace = generate(&SyntheticSpec {
        requests: p.requests,
        seed: p.seed,
        ..SyntheticSpec::paper_default()
    });
    (ClusterSpec::paper_testbed(), trace)
}

/// An observed run of `cfg`.
fn observed(
    cluster: &ClusterSpec,
    cfg: &EevfsConfig,
    trace: &Trace,
) -> Result<(RunMetrics, ObsReport), String> {
    let scenario = Scenario::new(cluster, cfg, trace);
    let (metrics, report) =
        simulate(&scenario, Some(Recorder::default())).map_err(|e| e.to_string())?;
    Ok((metrics, report.ok_or("a recorded run returned no report")?))
}

/// Whole-cluster power over time, PF vs NPF.
fn power_curve(args: &Args, _: &Runner) -> Result<(), String> {
    let p = &args.params;
    let (cluster, trace) = paper_setup(p);
    let pf = observed(&cluster, &EevfsConfig::paper_pf(70), &trace)?
        .1
        .energy_curve;
    let npf = observed(&cluster, &EevfsConfig::paper_npf(), &trace)?
        .1
        .energy_curve;
    println!(
        "# whole-cluster power over time (W), PF(70) vs NPF, {} requests",
        p.requests
    );
    println!("{:>10} {:>10} {:>10}", "t (s)", "P_pf (W)", "P_npf (W)");
    let n = 60;
    let pf_pts = pf.resample(n + 1);
    let npf_pts = npf.resample(n + 1);
    for i in 1..=n {
        let (t1, e1) = pf_pts[i];
        let (t0, e0) = pf_pts[i - 1];
        let dt = (t1 - t0).as_secs_f64().max(1e-9);
        let p_pf = (e1 - e0) / dt;
        let (u1, f1) = npf_pts[(i * (npf_pts.len() - 1)) / n];
        let (u0, f0) = npf_pts[((i - 1) * (npf_pts.len() - 1)) / n];
        let p_npf = (f1 - f0) / (u1 - u0).as_secs_f64().max(1e-9);
        println!("{:>10.1} {:>10.1} {:>10.1}", t1.as_secs_f64(), p_pf, p_npf);
    }
    HarnessOutput::new(p).write(args)
}

/// Response-time distributions, PF vs NPF.
fn hist(args: &Args, _: &Runner) -> Result<(), String> {
    use eevfs_bench::report::render_response_histogram;
    let p = &args.params;
    let (cluster, trace) = paper_setup(p);
    let pf = eevfs::driver::run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
    let npf = eevfs::driver::run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
    println!("PF(70):\n{}", render_response_histogram(&pf, 16));
    println!("NPF:\n{}", render_response_histogram(&npf, 16));
    HarnessOutput::new(p).write(args)
}

/// An observed PF run: power timeline, registry, prediction accuracy,
/// one request's history, and the JSONL trace to `--trace-out`.
fn trace(args: &Args, _: &Runner) -> Result<(), String> {
    let p = &args.params;
    let (cluster, trace) = paper_setup(p);
    let (metrics, mut report) = observed(&cluster, &EevfsConfig::paper_pf(70), &trace)?;
    let events = report.recorder.as_slice();
    let end_us = events.last().map(|e| e.at_us).unwrap_or(0);
    println!(
        "# observed PF(70) run: {} requests, seed {}, {} trace events",
        p.requests,
        p.seed,
        events.len()
    );
    println!("{}", eevfs_obs::render_power_timeline(events, end_us, 72));
    println!("{}", report.registry.render_scalars());
    let pred = &metrics.prediction;
    println!(
        "prediction accuracy: {}/{} sleeps paid off ({:.1}%), \
         mean predicted idle {:.1}s vs realised {:.1}s",
        pred.paid_off,
        pred.sleeps,
        pred.accuracy() * 100.0,
        pred.mean_predicted_s,
        pred.mean_realized_s,
    );
    println!("request 0, arrival to completion:");
    for e in report.recorder.request_history(0) {
        println!("  t={:>10.3}s  {:?}", e.at_us as f64 / 1e6, e.kind);
    }
    if let Some(path) = &args.trace_path {
        std::fs::write(path, report.recorder.to_jsonl())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    HarnessOutput::new(p).write(args)
}

/// Times the fixed reference grid serially and at `--jobs`, and writes
/// BENCH_sim.json.
fn bench(args: &Args, runner: &Runner) -> Result<(), String> {
    use eevfs_bench::sweeps::{reference_grid, run_reference_grid};
    use std::time::Instant;

    let p = &args.params;
    let grid_points = reference_grid().len();
    let runs = grid_points * 2; // PF + NPF per cell
    let what = format!("bench: {grid_points}-point reference grid ({runs} simulations per pass)");
    let mut secs = Vec::new();
    let (_, byte_identical) = serial_vs_parallel(&what, p, runner, |r| {
        let t = Instant::now();
        let pts = run_reference_grid(r, p);
        secs.push(t.elapsed().as_secs_f64());
        Ok(pts)
    })?;
    let (serial_s, parallel_s) = (secs[0], secs[1]);
    let report = eevfs_audit::BenchSnapshot {
        requests: p.requests,
        seed: p.seed,
        jobs: runner.jobs(),
        grid_points,
        runs,
        serial_s,
        parallel_s,
        serial_runs_per_sec: runs as f64 / serial_s.max(1e-9),
        parallel_runs_per_sec: runs as f64 / parallel_s.max(1e-9),
        speedup: serial_s / parallel_s.max(1e-9),
        byte_identical,
    };
    println!(
        "serial:   {:>8.3} s  ({:.1} runs/s)\n\
         parallel: {:>8.3} s  ({:.1} runs/s, --jobs {})\n\
         speedup:  {:>8.2}x\n\
         results byte-identical: {}",
        report.serial_s,
        report.serial_runs_per_sec,
        report.parallel_s,
        report.parallel_runs_per_sec,
        report.jobs,
        report.speedup,
        report.byte_identical,
    );
    write_json(
        args.json_path.as_deref().unwrap_or("BENCH_sim.json"),
        &report,
    )?;
    check_identical(byte_identical)
}

/// The eevfs-power policy grid, verified serial vs `--jobs`; writes
/// POWER_sim.json.
fn power(args: &Args, runner: &Runner) -> Result<(), String> {
    use eevfs_bench::power::{adaptive_beats_fixed, render_power_report, run_power_grid};

    let p = &args.params;
    let what = "power: predictor × tier × workload grid";
    let (pts, byte_identical) = serial_vs_parallel(what, p, runner, |r| Ok(run_power_grid(r, p)))?;
    print!("{}", render_power_report(&pts));
    println!(
        "adaptive predictor beats fixed (energy, ≤ response): {}",
        adaptive_beats_fixed(&pts)
    );
    println!("serial vs parallel byte-identical: {byte_identical}");
    write_json(args.json_path.as_deref().unwrap_or("POWER_sim.json"), &pts)?;
    check_identical(byte_identical)
}

/// The `load` subcommand: closed-loop saturation curve (byte-identical
/// at any `--jobs`), deviation cells, the runtime campaign, the
/// versioned BENCH_runtime.json artifact, and the saturation gate.
fn load(args: &Args, runner: &Runner) -> Result<(), String> {
    use eevfs_bench::load::{
        deviation_cells, render_load_report, run_load_grid, run_runtime_campaign, runtime_gate,
        saturation_gate, LoadSnapshot, GRID_MAX_INFLIGHT, LOAD_SNAPSHOT_VERSION,
    };

    let p = &args.params;
    let sim_only = if args.sim_only { " (sim only)" } else { "" };
    let what = format!("load: closed-loop grid{sim_only}");
    let (sim, byte_identical) = serial_vs_parallel(&what, p, runner, |r| Ok(run_load_grid(r, p)))?;
    let deviations = deviation_cells(runner, p);
    let runtime = if args.sim_only {
        Vec::new()
    } else {
        run_runtime_campaign(12).map_err(|e| format!("runtime campaign: {e}"))?
    };
    let snapshot = LoadSnapshot {
        version: LOAD_SNAPSHOT_VERSION,
        requests: p.requests,
        seed: p.seed,
        max_inflight: GRID_MAX_INFLIGHT,
        sim,
        deviations,
        runtime,
    };
    print!("{}", render_load_report(&snapshot));
    println!("serial vs parallel byte-identical: {byte_identical}");
    write_json(
        args.json_path.as_deref().unwrap_or("BENCH_runtime.json"),
        &snapshot,
    )?;
    check_identical(byte_identical)?;

    let sim_violations = saturation_gate(&snapshot.sim, args.gate_p99_ms);
    let runtime_violations = runtime_gate(&snapshot.runtime);
    for v in &sim_violations {
        eprintln!("saturation gate: {v}");
    }
    for v in &runtime_violations {
        eprintln!("runtime gate: {v}");
    }
    if !sim_violations.is_empty() || !runtime_violations.is_empty() {
        return Err("the saturation gate tripped".into());
    }
    println!(
        "saturation gate passed: {} sim cells, {} runtime points, p99 bound {:.0} ms",
        snapshot.sim.len(),
        snapshot.runtime.len(),
        args.gate_p99_ms
    );
    Ok(())
}

/// The `chaos` subcommand: search mode writes a reproducer and fails on
/// any violation; replay mode re-executes an artifact and fails unless it
/// reproduces bit-for-bit.
fn chaos(args: &Args, runner: &Runner) -> Result<(), String> {
    use eevfs_chaos::{replay, run_campaign, CampaignConfig, InvariantSet, Reproducer};

    let invariants = |canary: bool| {
        if canary {
            InvariantSet::with_canary()
        } else {
            InvariantSet::standard()
        }
    };
    if let Some(path) = &args.replay_path {
        let rep: Reproducer = read_json(path)?;
        let outcome = replay(&rep, &invariants(rep.invariant == "canary-quiet-cluster"));
        println!(
            "replay {path}: invariant '{}' ({} events, scenario {} of seed {})",
            rep.invariant, rep.shrunk_events, rep.scenario_index, rep.base_seed
        );
        println!(
            "  violation reproduced: {}\n  metrics digest {} == {}: {}",
            outcome.violation_reproduced,
            outcome.digest,
            rep.metrics_digest,
            outcome.digest_matches
        );
        if !outcome.exact() {
            return Err("replay did not reproduce the artifact exactly".into());
        }
        println!("  reproduced bit-for-bit");
        return Ok(());
    }

    let invariants = invariants(args.canary);
    let mut cfg = CampaignConfig::new(args.scenarios, args.params.seed);
    if args.envelope == "r2" {
        cfg.envelope = eevfs_chaos::SeverityEnvelope::r2_scrubbed();
    } else if args.envelope == "overloaded" {
        cfg.envelope = eevfs_chaos::SeverityEnvelope::overloaded();
    }
    eprintln!(
        "chaos: {} scenarios from seed {} ({} envelope), {} invariants{}, --jobs {}",
        cfg.scenarios,
        cfg.base_seed,
        args.envelope,
        invariants.names().len(),
        if args.canary { " (canary armed)" } else { "" },
        runner.jobs()
    );
    let report = run_campaign(runner, &invariants, &cfg);
    if report.clean() {
        println!(
            "chaos: {} scenarios clean under {} invariants",
            report.scenarios,
            invariants.names().len()
        );
        return Ok(());
    }
    println!(
        "chaos: {} of {} scenarios violated invariants:",
        report.violating.len(),
        report.scenarios
    );
    for r in &report.violating {
        for v in &r.violations {
            println!(
                "  scenario {:>4}: {:<24} {}",
                r.index, v.invariant, v.detail
            );
        }
    }
    let rep = (report.reproducer.as_ref()).ok_or("violations found but no reproducer built")?;
    println!(
        "shrunk scenario {} from {} to {} events in {} attempts",
        rep.scenario_index, rep.original_events, rep.shrunk_events, report.shrink_attempts
    );
    write_json(&format!("{}/chaos_reproducer.json", args.artifact_dir), rep)?;
    Err(format!(
        "{} of {} scenarios violated invariants",
        report.violating.len(),
        report.scenarios
    ))
}

/// The energy attribution report, verified serial vs `--jobs`; writes
/// REPORT_sim.json and gates it against `--baseline`. With
/// `--bench-baseline` and `--bench-current` it gates a BENCH_sim.json
/// pair on throughput instead.
fn report(args: &Args, runner: &Runner) -> Result<(), String> {
    use eevfs_audit::{compare_bench, compare_reports, AuditReport, BenchSnapshot};
    use eevfs_bench::attribution::build_attribution_report;

    if args.bench_baseline.is_some() || args.bench_current.is_some() {
        let (Some(base_path), Some(cur_path)) = (&args.bench_baseline, &args.bench_current) else {
            return Err("--bench-baseline and --bench-current must be given together".into());
        };
        let base: BenchSnapshot = read_json(base_path)?;
        let cur: BenchSnapshot = read_json(cur_path)?;
        check_regressions(&compare_bench(&cur, &base))?;
        println!(
            "bench gate passed: {:.1} runs/s parallel vs baseline {:.1} (floor {:.0}%)",
            cur.parallel_runs_per_sec,
            base.parallel_runs_per_sec,
            eevfs_audit::report::BENCH_FLOOR * 100.0
        );
        return Ok(());
    }

    let p = &args.params;
    let grid = |r: &Runner| build_attribution_report(r, p);
    let ((report, tables), byte_identical) =
        serial_vs_parallel("report: attribution cells", p, runner, grid)?;
    print!("{tables}");
    println!("serial vs parallel byte-identical: {byte_identical}");
    write_json(
        args.json_path.as_deref().unwrap_or("REPORT_sim.json"),
        &report,
    )?;
    check_identical(byte_identical)?;

    let Some(base_path) = &args.baseline else {
        return Ok(());
    };
    let base: AuditReport = read_json(base_path)?;
    // The written artifact stays truthful; only the compared copy is
    // perturbed, so CI can prove the gate trips on a real regression.
    let mut compared = report;
    if let Some(pct) = args.inject_regression {
        for cell in &mut compared.cells {
            cell.energy_per_request_j *= 1.0 + pct / 100.0;
        }
        eprintln!("injected a {pct}% energy-per-request regression before the gate");
    }
    check_regressions(&compare_reports(&compared, &base))?;
    println!("baseline gate passed against {base_path}");
    Ok(())
}
