//! CLI-level acceptance tests for the `harness` binary: error paths must
//! exit non-zero (CI pipelines gate on exit codes, not log scraping), and
//! the `trace` subcommand must be a pure function of its seed.

use std::path::PathBuf;
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("spawn harness")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eevfs-harness-cli-{}-{name}", std::process::id()))
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = harness(&["frobnicate"]);
    assert!(!out.status.success(), "unknown command must fail the run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "stderr: {err}");
    // The hint names every command.
    let hint = err.split("try: ").nth(1).expect("a hint follows").trim();
    let named: Vec<&str> = hint.split(", ").collect();
    for command in [
        "all",
        "sweeps",
        "fig3a",
        "fig3b",
        "fig3c",
        "fig3d",
        "fig4",
        "fig5",
        "fig6",
        "ablate",
        "faults",
        "resilience",
        "scrub",
        "power-curve",
        "hist",
        "trace",
        "bench",
        "power",
        "chaos",
        "report",
        "load",
    ] {
        assert!(named.contains(&command), "hint omits {command}: {hint}");
    }
}

#[test]
fn bad_flag_exits_nonzero() {
    let out = harness(&["--bogus", "trace"]);
    assert!(!out.status.success(), "unknown flag must fail the run");
    let out = harness(&["--requests"]);
    assert!(!out.status.success(), "missing flag value must fail");
    let out = harness(&["--requests", "many", "trace"]);
    assert!(!out.status.success(), "unparsable value must fail");
}

#[test]
fn unwritable_trace_out_exits_nonzero() {
    let out = harness(&[
        "--requests",
        "40",
        "--trace-out",
        "/nonexistent-dir/trace.jsonl",
        "trace",
    ]);
    assert!(!out.status.success(), "unwritable output must fail the run");
}

#[test]
fn report_is_byte_identical_across_jobs_and_gates_regressions() {
    let (p1, p4) = (temp_path("r1.json"), temp_path("r4.json"));
    let run = |path: &PathBuf, jobs: &str, extra: &[&str]| {
        let mut args = vec![
            "--requests",
            "60",
            "--seed",
            "7",
            "--jobs",
            jobs,
            "--json",
            path.to_str().expect("utf8 path"),
        ];
        args.extend_from_slice(extra);
        args.push("report");
        harness(&args)
    };
    let out1 = run(&p1, "1", &[]);
    assert!(
        out1.status.success(),
        "{}",
        String::from_utf8_lossy(&out1.stderr)
    );
    let out4 = run(&p4, "4", &[]);
    assert!(
        out4.status.success(),
        "{}",
        String::from_utf8_lossy(&out4.stderr)
    );
    let (j1, j4) = (
        std::fs::read(&p1).expect("read r1"),
        std::fs::read(&p4).expect("read r4"),
    );
    assert!(!j1.is_empty(), "REPORT json must not be empty");
    assert_eq!(
        j1, j4,
        "--jobs 1 and --jobs 4 reports must be byte-identical"
    );
    let text = String::from_utf8(out1.stdout).expect("utf8 report");
    for needle in [
        "energy component tree",
        "joules per request",
        "per-file energy vs hotness",
        "per-disk residency",
        "byte-identical: true",
    ] {
        assert!(text.contains(needle), "missing {needle}: {text}");
    }

    // Gate against our own report: identical ⇒ pass.
    let base = p1.to_str().expect("utf8 path").to_string();
    let gate = run(&p4, "2", &["--baseline", &base]);
    assert!(
        gate.status.success(),
        "identical baseline must pass: {}",
        String::from_utf8_lossy(&gate.stderr)
    );
    // An injected energy regression must trip the gate.
    let tripped = run(&p4, "2", &["--baseline", &base, "--inject-regression", "5"]);
    assert!(!tripped.status.success(), "injected regression must fail");
    let err = String::from_utf8_lossy(&tripped.stderr);
    assert!(
        err.contains("REGRESSION") && err.contains("energy_per_request_j"),
        "stderr: {err}"
    );
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p4);
}

#[test]
fn bench_gate_flags_must_come_in_pairs() {
    let out = harness(&["--bench-baseline", "/nonexistent.json", "report"]);
    assert!(!out.status.success(), "half a bench-gate pair must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--bench-current"), "stderr: {err}");
}

#[test]
fn trace_is_bit_identical_across_same_seed_runs() {
    let (p1, p2) = (temp_path("t1.jsonl"), temp_path("t2.jsonl"));
    let run = |p: &PathBuf| {
        let out = harness(&[
            "--requests",
            "150",
            "--seed",
            "7",
            "--trace-out",
            p.to_str().expect("utf8 path"),
            "trace",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let (stdout1, stdout2) = (run(&p1), run(&p2));
    let (j1, j2) = (
        std::fs::read(&p1).expect("read t1"),
        std::fs::read(&p2).expect("read t2"),
    );
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
    assert!(!j1.is_empty(), "trace JSONL must not be empty");
    assert_eq!(j1, j2, "same-seed JSONL traces must be byte-identical");
    assert_eq!(stdout1, stdout2, "same-seed reports must be byte-identical");
    let text = String::from_utf8(stdout1).expect("utf8 report");
    // The report carries all three promised views: the timeline, the
    // prediction score, and a followable request.
    assert!(text.contains("power/state timeline"), "{text}");
    assert!(text.contains("prediction accuracy:"), "{text}");
    assert!(text.contains("RequestArrive"), "{text}");
    assert!(text.contains("RequestComplete"), "{text}");
    let jsonl = String::from_utf8(j1).expect("utf8 jsonl");
    assert!(jsonl.contains("DiskTransition"), "trace must cover disks");
}

#[test]
fn load_is_byte_identical_across_jobs() {
    let (p1, p4) = (temp_path("l1.json"), temp_path("l4.json"));
    let run = |path: &PathBuf, jobs: &str| {
        harness(&[
            "--requests",
            "120",
            "--seed",
            "9",
            "--jobs",
            jobs,
            "--sim-only",
            "--json",
            path.to_str().expect("utf8 path"),
            "load",
        ])
    };
    let out1 = run(&p1, "1");
    assert!(
        out1.status.success(),
        "{}",
        String::from_utf8_lossy(&out1.stderr)
    );
    let out4 = run(&p4, "4");
    assert!(
        out4.status.success(),
        "{}",
        String::from_utf8_lossy(&out4.stderr)
    );
    let (j1, j4) = (
        std::fs::read(&p1).expect("read l1"),
        std::fs::read(&p4).expect("read l4"),
    );
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p4);
    assert!(!j1.is_empty(), "BENCH_runtime json must not be empty");
    assert_eq!(
        j1, j4,
        "--jobs 1 and --jobs 4 load snapshots must be byte-identical"
    );
    let text = String::from_utf8(out1.stdout).expect("utf8 report");
    for needle in [
        "saturation curve",
        "deviation cells",
        "byte-identical: true",
        "saturation gate passed",
    ] {
        assert!(text.contains(needle), "missing {needle}: {text}");
    }
}

#[test]
fn load_saturation_gate_trips_on_impossible_p99_bound() {
    let path = temp_path("lgate.json");
    // A 0 ms p99 bound is unsatisfiable: the gate must trip and the run
    // must exit non-zero, because CI consumes exit codes, not tables.
    let out = harness(&[
        "--requests",
        "120",
        "--seed",
        "9",
        "--sim-only",
        "--gate-p99-ms",
        "0",
        "--json",
        path.to_str().expect("utf8 path"),
        "load",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success(), "0 ms p99 bound must trip the gate");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("saturation gate"), "stderr: {err}");
}
