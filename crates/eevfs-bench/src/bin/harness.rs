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

use eevfs_bench::ablate::all_ablations;
use eevfs_bench::figures::{fig3_view, fig4_view, fig5_view, fig6, Panel};
use eevfs_bench::report::{render_ablation, render_figure, render_sweep};
use eevfs_bench::runner::Runner;
use eevfs_bench::sweeps::SweepParams;
use std::process::ExitCode;

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
    let mut params = SweepParams::default();
    let mut jobs = 0usize;
    let mut json_path = None;
    let mut trace_path = None;
    let mut command = None;
    let mut scenarios = 64u32;
    let mut canary = false;
    let mut envelope = "default".to_string();
    let mut replay_path = None;
    let mut artifact_dir = ".".to_string();
    let mut baseline = None;
    let mut inject_regression = None;
    let mut bench_baseline = None;
    let mut bench_current = None;
    let mut sim_only = false;
    let mut gate_p99_ms = 60_000.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenarios" => {
                let v = it.next().ok_or("--scenarios needs a value")?;
                scenarios = v.parse().map_err(|_| format!("bad --scenarios {v}"))?;
            }
            "--canary" => canary = true,
            "--envelope" => {
                let v = it.next().ok_or("--envelope needs a value")?;
                match v.as_str() {
                    "default" | "r2" | "overloaded" => envelope = v,
                    other => {
                        return Err(format!(
                            "bad --envelope {other}; try: default, r2, overloaded"
                        ))
                    }
                }
            }
            "--replay" => {
                replay_path = Some(it.next().ok_or("--replay needs a path")?);
            }
            "--artifact-dir" => {
                artifact_dir = it.next().ok_or("--artifact-dir needs a path")?;
            }
            "--requests" => {
                let v = it.next().ok_or("--requests needs a value")?;
                params.requests = v.parse().map_err(|_| format!("bad --requests {v}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                params.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|_| format!("bad --jobs {v}"))?;
            }
            "--json" => {
                json_path = Some(it.next().ok_or("--json needs a path")?);
            }
            "--trace-out" => {
                trace_path = Some(it.next().ok_or("--trace-out needs a path")?);
            }
            "--baseline" => {
                baseline = Some(it.next().ok_or("--baseline needs a path")?);
            }
            "--inject-regression" => {
                let v = it.next().ok_or("--inject-regression needs a percentage")?;
                inject_regression = Some(
                    v.parse()
                        .map_err(|_| format!("bad --inject-regression {v}"))?,
                );
            }
            "--bench-baseline" => {
                bench_baseline = Some(it.next().ok_or("--bench-baseline needs a path")?);
            }
            "--bench-current" => {
                bench_current = Some(it.next().ok_or("--bench-current needs a path")?);
            }
            "--sim-only" => sim_only = true,
            "--gate-p99-ms" => {
                let v = it.next().ok_or("--gate-p99-ms needs a value")?;
                gate_p99_ms = v.parse().map_err(|_| format!("bad --gate-p99-ms {v}"))?;
            }
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        params,
        jobs,
        json_path,
        trace_path,
        command: command.unwrap_or_else(|| "all".into()),
        scenarios,
        canary,
        envelope,
        replay_path,
        artifact_dir,
        baseline,
        inject_regression,
        bench_baseline,
        bench_current,
        sim_only,
        gate_p99_ms,
    })
}

/// The `load` subcommand: closed-loop saturation curve (byte-identical
/// at any `--jobs`), deviation cells, the runtime campaign, the
/// versioned BENCH_runtime.json artifact, and the saturation gate.
fn run_load(args: &Args, runner: &Runner) -> ExitCode {
    use eevfs_bench::load::{
        deviation_cells, render_load_report, run_load_grid, runtime_gate, saturation_gate,
        LoadSnapshot, GRID_MAX_INFLIGHT, LOAD_SNAPSHOT_VERSION,
    };

    let p = &args.params;
    eprintln!(
        "load: closed-loop grid, {} requests/run, serial then --jobs {}{}",
        p.requests,
        runner.jobs(),
        if args.sim_only { " (sim only)" } else { "" }
    );
    let serial_pts = run_load_grid(&Runner::serial(), p);
    let parallel_pts = run_load_grid(runner, p);
    let (serial_json, parallel_json) = match (
        serde_json::to_string(&serial_pts),
        serde_json::to_string(&parallel_pts),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("serialisation error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let byte_identical = serial_json == parallel_json;
    let deviations = deviation_cells(runner, p);
    let runtime = if args.sim_only {
        Vec::new()
    } else {
        match eevfs_bench::load::run_runtime_campaign(12) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: runtime campaign: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let snapshot = LoadSnapshot {
        version: LOAD_SNAPSHOT_VERSION,
        requests: p.requests,
        seed: p.seed,
        max_inflight: GRID_MAX_INFLIGHT,
        sim: serial_pts,
        deviations,
        runtime,
    };
    print!("{}", render_load_report(&snapshot));
    println!("serial vs parallel byte-identical: {byte_identical}");

    let path = args.json_path.as_deref().unwrap_or("BENCH_runtime.json");
    match serde_json::to_string_pretty(&snapshot) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("error writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        Err(e) => {
            eprintln!("serialisation error: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut failed = false;
    if !byte_identical {
        eprintln!("error: parallel results diverged from the serial path");
        failed = true;
    }
    let sim_violations = saturation_gate(&snapshot.sim, args.gate_p99_ms);
    for v in &sim_violations {
        eprintln!("saturation gate: {v}");
    }
    let runtime_violations = runtime_gate(&snapshot.runtime);
    for v in &runtime_violations {
        eprintln!("runtime gate: {v}");
    }
    if !sim_violations.is_empty() || !runtime_violations.is_empty() {
        eprintln!("error: the saturation gate tripped");
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "saturation gate passed: {} sim cells, {} runtime points, p99 bound {:.0} ms",
        snapshot.sim.len(),
        snapshot.runtime.len(),
        args.gate_p99_ms
    );
    ExitCode::SUCCESS
}

/// The `chaos` subcommand: search mode writes a reproducer and exits
/// non-zero on any violation; replay mode re-executes an artifact and
/// exits non-zero unless it reproduces bit-for-bit.
fn run_chaos(args: &Args, runner: &Runner) -> ExitCode {
    use eevfs_chaos::{replay, run_campaign, CampaignConfig, InvariantSet, Reproducer};

    if let Some(path) = &args.replay_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let rep: Reproducer = match serde_json::from_str(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error parsing {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let invariants = if rep.invariant == "canary-quiet-cluster" {
            InvariantSet::with_canary()
        } else {
            InvariantSet::standard()
        };
        let outcome = replay(&rep, &invariants);
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
        if outcome.exact() {
            println!("  reproduced bit-for-bit");
            return ExitCode::SUCCESS;
        }
        eprintln!("error: replay did not reproduce the artifact exactly");
        return ExitCode::FAILURE;
    }

    let invariants = if args.canary {
        InvariantSet::with_canary()
    } else {
        InvariantSet::standard()
    };
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
        return ExitCode::SUCCESS;
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
    let Some(rep) = &report.reproducer else {
        eprintln!("error: violations found but no reproducer built");
        return ExitCode::FAILURE;
    };
    println!(
        "shrunk scenario {} from {} to {} events in {} attempts",
        rep.scenario_index, rep.original_events, rep.shrunk_events, report.shrink_attempts
    );
    let path = format!("{}/chaos_reproducer.json", args.artifact_dir);
    match serde_json::to_string_pretty(rep) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("error writing {path}: {e}");
            } else {
                eprintln!("wrote {path}");
            }
        }
        Err(e) => eprintln!("serialisation error: {e}"),
    }
    ExitCode::FAILURE
}

/// The regression gates of `harness report`: the REPORT_sim.json
/// baseline comparison (with optional injected regression so CI can
/// prove the gate fails) and the BENCH_sim.json throughput comparison.
/// Exits non-zero on any regression.
fn run_report(args: &Args, runner: &Runner) -> ExitCode {
    use eevfs_audit::{compare_bench, compare_reports, AuditReport, BenchSnapshot};
    use eevfs_bench::attribution::build_attribution_report;

    // Bench-gate mode: compare two BENCH_sim.json snapshots and exit.
    if args.bench_baseline.is_some() || args.bench_current.is_some() {
        let (Some(base_path), Some(cur_path)) = (&args.bench_baseline, &args.bench_current) else {
            eprintln!("error: --bench-baseline and --bench-current must be given together");
            return ExitCode::FAILURE;
        };
        let read = |path: &str| -> Result<BenchSnapshot, String> {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
        };
        let (base, cur) = match (read(base_path), read(cur_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let regs = compare_bench(&cur, &base);
        if regs.is_empty() {
            println!(
                "bench gate passed: {:.1} runs/s parallel vs baseline {:.1} (floor {:.0}%)",
                cur.parallel_runs_per_sec,
                base.parallel_runs_per_sec,
                eevfs_audit::report::BENCH_FLOOR * 100.0
            );
            return ExitCode::SUCCESS;
        }
        for r in &regs {
            eprintln!("{}", r.describe());
        }
        return ExitCode::FAILURE;
    }

    let p = &args.params;
    eprintln!(
        "report: attribution cells, {} requests/run, serial then --jobs {}",
        p.requests,
        runner.jobs()
    );
    let serial = build_attribution_report(&Runner::serial(), p);
    let parallel = build_attribution_report(runner, p);
    let ((report, tables), (par_report, _)) = match (serial, parallel) {
        (Ok(s), Ok(q)) => (s, q),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (serial_json, parallel_json) = match (
        serde_json::to_string_pretty(&report),
        serde_json::to_string_pretty(&par_report),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("serialisation error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let byte_identical = serial_json == parallel_json;
    print!("{tables}");
    println!("serial vs parallel byte-identical: {byte_identical}");
    let path = args.json_path.as_deref().unwrap_or("REPORT_sim.json");
    if let Err(e) = std::fs::write(path, &serial_json) {
        eprintln!("error writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {path}");
    if !byte_identical {
        eprintln!("error: parallel results diverged from the serial path");
        return ExitCode::FAILURE;
    }

    if let Some(base_path) = &args.baseline {
        let text = match std::fs::read_to_string(base_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error reading {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let base: AuditReport = match serde_json::from_str(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error parsing {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The written artifact stays truthful; only the compared copy is
        // perturbed, so CI can prove the gate trips on a real regression.
        let mut compared = report;
        if let Some(pct) = args.inject_regression {
            for cell in &mut compared.cells {
                cell.energy_per_request_j *= 1.0 + pct / 100.0;
            }
            eprintln!("injected a {pct}% energy-per-request regression before the gate");
        }
        let regs = compare_reports(&compared, &base);
        if regs.is_empty() {
            println!("baseline gate passed against {base_path}");
            return ExitCode::SUCCESS;
        }
        for r in &regs {
            eprintln!("{}", r.describe());
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Everything the harness can emit, JSON-serialisable for EXPERIMENTS.md.
#[derive(serde::Serialize)]
struct HarnessOutput {
    requests: u32,
    seed: u64,
    sweeps: Vec<(String, Vec<eevfs_bench::sweeps::ExperimentPoint>)>,
    ablations: Vec<eevfs_bench::ablate::Ablation>,
}

fn panel_of(name: &str) -> Option<Panel> {
    match name {
        "a" => Some(Panel::DataSize),
        "b" => Some(Panel::Mu),
        "c" => Some(Panel::InterArrival),
        "d" => Some(Panel::PrefetchK),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let p = &args.params;
    let runner = Runner::new(args.jobs);
    let mut output = HarnessOutput {
        requests: p.requests,
        seed: p.seed,
        sweeps: Vec::new(),
        ablations: Vec::new(),
    };

    let cmd = args.command.as_str();
    match cmd {
        "all" => {
            for panel in Panel::ALL {
                let pts = panel.run(&runner, p);
                println!(
                    "{}",
                    render_sweep(&format!("sweep: {}", panel.xlabel()), &pts)
                );
                println!("{}", render_figure(&fig3_view(panel, &pts)));
                println!("{}", render_figure(&fig4_view(panel, &pts)));
                println!("{}", render_figure(&fig5_view(panel, &pts)));
                output.sweeps.push((panel.xlabel().to_string(), pts));
            }
            println!("{}", render_figure(&fig6(p)));
            for a in all_ablations(&runner, p) {
                println!("{}", render_ablation(&a));
                output.ablations.push(a);
            }
        }
        "sweeps" => {
            for panel in Panel::ALL {
                let pts = panel.run(&runner, p);
                println!(
                    "{}",
                    render_sweep(&format!("sweep: {}", panel.xlabel()), &pts)
                );
                output.sweeps.push((panel.xlabel().to_string(), pts));
            }
        }
        "fig3a" | "fig3b" | "fig3c" | "fig3d" => {
            let panel = panel_of(&cmd[4..]).expect("suffix checked");
            let pts = panel.run(&runner, p);
            println!("{}", render_figure(&fig3_view(panel, &pts)));
            output.sweeps.push((panel.xlabel().to_string(), pts));
        }
        "fig4" => {
            for panel in Panel::ALL {
                let pts = panel.run(&runner, p);
                println!("{}", render_figure(&fig4_view(panel, &pts)));
                output.sweeps.push((panel.xlabel().to_string(), pts));
            }
        }
        "fig5" => {
            for panel in Panel::ALL {
                let pts = panel.run(&runner, p);
                println!("{}", render_figure(&fig5_view(panel, &pts)));
                output.sweeps.push((panel.xlabel().to_string(), pts));
            }
        }
        "fig6" => {
            println!("{}", render_figure(&fig6(p)));
        }
        "power-curve" => {
            use eevfs::config::{ClusterSpec, EevfsConfig};
            use eevfs::driver::{simulate, Scenario};
            use eevfs_obs::Recorder;
            use workload::synthetic::{generate, SyntheticSpec};
            let trace = generate(&SyntheticSpec {
                requests: p.requests,
                seed: p.seed,
                ..SyntheticSpec::paper_default()
            });
            let cluster = ClusterSpec::paper_testbed();
            let energy_curve = |cfg: &EevfsConfig| {
                let scenario = Scenario::new(&cluster, cfg, &trace);
                let (_, report) = simulate(&scenario, Some(Recorder::default()))
                    .unwrap_or_else(|e| panic!("{e}"));
                report.expect("a recorder was supplied").energy_curve
            };
            let pf = energy_curve(&EevfsConfig::paper_pf(70));
            let npf = energy_curve(&EevfsConfig::paper_npf());
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
        }
        "hist" => {
            use eevfs::config::{ClusterSpec, EevfsConfig};
            use eevfs_bench::report::render_response_histogram;
            use workload::synthetic::{generate, SyntheticSpec};
            let trace = generate(&SyntheticSpec {
                requests: p.requests,
                seed: p.seed,
                ..SyntheticSpec::paper_default()
            });
            let cluster = ClusterSpec::paper_testbed();
            let pf = eevfs::driver::run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
            let npf = eevfs::driver::run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
            println!("PF(70):\n{}", render_response_histogram(&pf, 16));
            println!("NPF:\n{}", render_response_histogram(&npf, 16));
        }
        "trace" => {
            use eevfs::config::{ClusterSpec, EevfsConfig};
            use eevfs::driver::{simulate, Scenario};
            use eevfs_obs::Recorder;
            use workload::synthetic::{generate, SyntheticSpec};
            let trace = generate(&SyntheticSpec {
                requests: p.requests,
                seed: p.seed,
                ..SyntheticSpec::paper_default()
            });
            let cluster = ClusterSpec::paper_testbed();
            let cfg = EevfsConfig::paper_pf(70);
            let scenario = Scenario::new(&cluster, &cfg, &trace);
            let (metrics, report) =
                simulate(&scenario, Some(Recorder::default())).unwrap_or_else(|e| panic!("{e}"));
            let mut report = report.expect("a recorder was supplied");
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
                if let Err(e) = std::fs::write(path, report.recorder.to_jsonl()) {
                    eprintln!("error writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
        }
        "ablate" => {
            for a in all_ablations(&runner, p) {
                println!("{}", render_ablation(&a));
                output.ablations.push(a);
            }
        }
        "faults" => {
            let a = match eevfs_bench::ablate::ablate_faults(&runner, p) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", render_ablation(&a));
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
            output.ablations.push(a);
        }
        "resilience" => {
            let a = match eevfs_bench::ablate::ablate_resilience(&runner, p) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", render_ablation(&a));
            // Machine-readable grid: one line per drop-rate × policy cell.
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
            output.ablations.push(a);
        }
        "scrub" => {
            let a = match eevfs_bench::ablate::ablate_scrub(&runner, p) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", render_ablation(&a));
            // Machine-readable grid: one line per rate × R × policy cell.
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
            output.ablations.push(a);
        }
        "power" => {
            use eevfs_bench::power::{adaptive_beats_fixed, render_power_report, run_power_grid};

            eprintln!(
                "power: predictor × tier × workload grid, {} requests/run, \
                 serial then --jobs {}",
                p.requests,
                runner.jobs()
            );
            let serial_pts = run_power_grid(&Runner::serial(), p);
            let parallel_pts = run_power_grid(&runner, p);
            let (serial_json, parallel_json) = match (
                serde_json::to_string(&serial_pts),
                serde_json::to_string(&parallel_pts),
            ) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("serialisation error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let byte_identical = serial_json == parallel_json;

            print!("{}", render_power_report(&serial_pts));
            println!(
                "adaptive predictor beats fixed (energy, ≤ response): {}",
                adaptive_beats_fixed(&serial_pts)
            );
            println!("serial vs parallel byte-identical: {byte_identical}");

            let path = args.json_path.as_deref().unwrap_or("POWER_sim.json");
            match serde_json::to_string_pretty(&serial_pts) {
                Ok(json) => {
                    if let Err(e) = std::fs::write(path, json) {
                        eprintln!("error writing {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {path}");
                }
                Err(e) => {
                    eprintln!("serialisation error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if !byte_identical {
                eprintln!("error: parallel results diverged from the serial path");
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        "bench" => {
            use eevfs_bench::sweeps::run_reference_grid;
            use std::time::Instant;

            let grid_points = eevfs_bench::sweeps::reference_grid().len();
            let runs = grid_points * 2; // PF + NPF per cell
            eprintln!(
                "bench: {grid_points}-point reference grid ({runs} simulations per pass), \
                 {} requests/run, serial then --jobs {}",
                p.requests,
                runner.jobs()
            );

            let t = Instant::now();
            let serial_pts = run_reference_grid(&Runner::serial(), p);
            let serial_s = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let parallel_pts = run_reference_grid(&runner, p);
            let parallel_s = t.elapsed().as_secs_f64();

            let (serial_json, parallel_json) = match (
                serde_json::to_string(&serial_pts),
                serde_json::to_string(&parallel_pts),
            ) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("serialisation error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let byte_identical = serial_json == parallel_json;

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
            let path = args.json_path.as_deref().unwrap_or("BENCH_sim.json");
            match serde_json::to_string_pretty(&report) {
                Ok(json) => {
                    if let Err(e) = std::fs::write(path, json) {
                        eprintln!("error writing {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {path}");
                }
                Err(e) => {
                    eprintln!("serialisation error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if !byte_identical {
                eprintln!("error: parallel results diverged from the serial path");
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        "chaos" => return run_chaos(&args, &runner),
        "report" => return run_report(&args, &runner),
        "load" => return run_load(&args, &runner),
        other => {
            eprintln!(
                "unknown command {other}; try: all, sweeps, fig3a-d, fig4, fig5, fig6, \
                 ablate, faults, resilience, scrub, power-curve, hist, trace, bench, power, \
                 chaos, report"
            );
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = args.json_path {
        match serde_json::to_string_pretty(&output) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("error writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            Err(e) => {
                eprintln!("serialisation error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
