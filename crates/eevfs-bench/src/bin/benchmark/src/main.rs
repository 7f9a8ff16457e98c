//! Layer-resolved benchmark of both EEVFS worlds: the deterministic
//! simulator (`eevfs::driver`) and the loopback-TCP prototype
//! (`eevfs-runtime`).
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]
//! ```
//!
//! Every workload's inputs are generated from `--seed`. Each run repeats
//! samples for `--seconds` (default 15) and reports end-to-end metrics
//! with tracing off; `--trace` adds one traced sample whose spans give the
//! per-layer metrics and are written to `target/benchmark/spans.json`.
//! Without `--workload`, every workload runs in a process of its own.
//! Outputs are checked; the last line of standard output is the JSON
//! result, and the exit code is non-zero when any check failed.
//! `README.md` beside this crate explains the workloads and metrics.

mod des;
mod host;
mod report;
mod rt;
mod span;
mod stats;

use report::{
    result_line, Metric, Outcome, WorkloadRecord, AUDIT_LAYERS, RT_LAYERS, SIM_LAYERS, TIER_LAYERS,
    TRACER_LAYERS,
};
use serde::{Deserialize, Serialize};
use span::{CountingAlloc, SelfTime, Span};
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Where the benchmark writes its files, relative to the working
/// directory.
const OUT_DIR: &str = "target/benchmark";
/// Where the traced run's spans are written, relative to the working
/// directory.
const SPANS_PATH: &str = "target/benchmark/spans.json";
/// Samples every run takes, however long they last.
const MIN_SAMPLES: usize = 3;
/// Hard stop for the sampling loop, in multiples of the run's budget.
const BUDGET_OVERRUN: f64 = 4.0;

/// A workload: its name, its world, its size (requests per trace in the
/// simulator, requests per client in the prototype), and the groups of
/// per-layer metrics its traced sample measures.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    kind: Kind,
    requests: usize,
    layers: &'static [&'static [Metric]],
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Des(des::Des),
    Rt(rt::Rt),
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-pf70",
        kind: Kind::Des(des::Des::PaperPf70),
        requests: 100_000,
        layers: &[SIM_LAYERS, TRACER_LAYERS],
    },
    Workload {
        name: "scaled64-mixed",
        kind: Kind::Des(des::Des::Scaled64Mixed),
        requests: 400_000,
        layers: &[SIM_LAYERS, TIER_LAYERS, TRACER_LAYERS],
    },
    Workload {
        name: "berkeley-audit",
        kind: Kind::Des(des::Des::BerkeleyAudit),
        requests: 50_000,
        layers: &[SIM_LAYERS, AUDIT_LAYERS, TRACER_LAYERS],
    },
    Workload {
        name: "rt-hot-64k",
        kind: Kind::Rt(rt::HOT),
        requests: 3000,
        layers: &[RT_LAYERS, TRACER_LAYERS],
    },
    Workload {
        name: "rt-cold-1m",
        kind: Kind::Rt(rt::COLD),
        requests: 300,
        layers: &[RT_LAYERS, TRACER_LAYERS],
    },
];

/// How long a run samples, and the floor on its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds of sampling.
    pub seconds: f64,
    /// Samples taken regardless of time.
    pub min_samples: usize,
}

/// Takes at least `min_samples` samples, then stops once the budget is
/// spent and `enough` accepts them, or once it is overrun fourfold.
pub fn repeat<S>(
    budget: Budget,
    mut sample: impl FnMut(usize) -> S,
    enough: impl Fn(&[S]) -> bool,
) -> Vec<S> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        if out.len() >= budget.min_samples
            && spent >= budget.seconds
            && (enough(&out) || spent >= budget.seconds * BUDGET_OVERRUN)
        {
            return out;
        }
        out.push(sample(out.len()));
    }
}

/// Runs `f`, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Resets the process's peak resident set (`VmHWM`).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset, MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

impl Workload {
    /// Every per-layer metric the traced sample measures.
    fn layer_metrics(self) -> Vec<Metric> {
        self.layers.iter().flat_map(|g| g.iter().copied()).collect()
    }

    fn run(
        self,
        seed: u64,
        requests: usize,
        min_pooled: usize,
        budget: Budget,
        trace: bool,
    ) -> Outcome {
        let mut o = match self.kind {
            Kind::Des(w) => des::run(w, self.name, seed, requests as u32, budget, trace),
            Kind::Rt(shape) => rt::run(shape, self.name, seed, requests, min_pooled, budget, trace),
        };
        o.finish(&self.layer_metrics(), trace);
        o
    }

    /// [`Workload::run`] at full size, with a panic recorded as a check
    /// failure instead of aborting the benchmark.
    fn run_guarded(self, seed: u64, budget: Budget, trace: bool) -> Outcome {
        let run = || self.run(seed, self.requests, rt::MIN_POOLED, budget, trace);
        catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            let mut o = Outcome::new(self.name);
            o.fail(format!("panicked: {msg}"));
            o
        })
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: 15.0,
        trace: false,
        out: None,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            // `--trace 0|1`, or a bare `--trace` meaning 1.
            "--trace" => {
                a.trace = args.peek().map(String::as_str) != Some("0");
                if matches!(args.peek().map(String::as_str), Some("0" | "1")) {
                    args.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// One workload's spans in `spans.json`.
#[derive(Serialize, Deserialize)]
struct WorkloadSpans {
    workload: String,
    self_time: Vec<SelfTime>,
    spans: Vec<Span>,
}

/// The `--out` record.
#[derive(Serialize, Deserialize)]
struct RunRecord {
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: u64,
    cpu: String,
    workloads: Vec<WorkloadRecord>,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn write_json(path: &Path, value: &impl Serialize) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_here(w: Workload, args: &Args) -> (WorkloadRecord, Vec<WorkloadSpans>) {
    let budget = Budget {
        seconds: args.seconds,
        min_samples: MIN_SAMPLES,
    };
    let o = w.run_guarded(args.seed, budget, args.trace);
    let layers = w.layer_metrics();
    print!("{}", report::render(&o, &layers, args.trace));
    let spans = WorkloadSpans {
        workload: o.workload.to_string(),
        self_time: o.self_times.clone(),
        spans: o.spans.clone(),
    };
    (WorkloadRecord::of(&o, &layers), vec![spans])
}

/// Runs one workload in a child process of this binary, so that no other
/// workload's resident memory or allocator state shows in its numbers.
/// The child's report is passed through as it prints, all but its result
/// line; its record and spans come back through files.
fn run_in_child(w: Workload, args: &Args) -> Result<(WorkloadRecord, Vec<WorkloadSpans>), String> {
    let record_path = Path::new(OUT_DIR).join(format!("{}.record.json", w.name));
    let _ = std::fs::remove_file(&record_path);
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }, "--out"])
        .arg(&record_path)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("start {}: {e}", w.name))?;
    let mut held = None;
    if let Some(out) = child.stdout.take() {
        for line in BufReader::new(out).lines().map_while(Result::ok) {
            if let Some(previous) = held.replace(line) {
                println!("{previous}");
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("wait for {}: {e}", w.name))?;
    let record: Result<RunRecord, String> = read_json(&record_path);
    let _ = std::fs::remove_file(&record_path);
    let record = record
        .ok()
        .and_then(|r| r.workloads.into_iter().next())
        .ok_or(format!("{} exited ({status}) without a record", w.name))?;
    let spans = if args.trace {
        read_json(Path::new(SPANS_PATH))?
    } else {
        Vec::new()
    };
    Ok((record, spans))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let selected: Vec<Workload> = match &args.workload {
        None => WORKLOADS.to_vec(),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => vec![*w],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("benchmark: unknown workload {name:?}; one of {names:?}");
                return ExitCode::from(2);
            }
        },
    };
    println!(
        "benchmark: seed {}, {} s per workload, trace {}, nproc {}, cpu {}",
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        cpu_model()
    );
    let (mut records, mut spans) = (Vec::new(), Vec::new());
    for w in selected {
        let (record, workload_spans) = if args.workload.is_some() {
            run_here(w, &args)
        } else {
            run_in_child(w, &args).unwrap_or_else(|e| {
                eprintln!("benchmark: {e}");
                (WorkloadRecord::lost(w.name, e), Vec::new())
            })
        };
        records.push(record);
        spans.extend(workload_spans);
    }

    let mut io_errors = Vec::new();
    if args.trace {
        io_errors.extend(write_json(Path::new(SPANS_PATH), &spans).err());
    }
    if let Some(out) = &args.out {
        let record = RunRecord {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            nproc: nproc(),
            cpu: cpu_model(),
            workloads: records.clone(),
        };
        io_errors.extend(write_json(out, &record).err());
    }
    for e in &io_errors {
        eprintln!("benchmark: {e}");
    }
    println!("{}", result_line(&records, args.trace));
    let clean = io_errors.is_empty() && records.iter().all(|r| r.check_failures.is_empty());
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_valued_and_bare_flags() {
        let a = args("--workload rt-hot-64k --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("rt-hot-64k"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(!args("--trace 0 --seed 1").unwrap().trace);
        assert!(args("--trace").unwrap().trace);
        assert!(args("--trace --seed 2").unwrap().trace);
        assert!(args("--bogus").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seconds -1").is_err());
    }

    #[test]
    fn workload_names_are_unique() {
        let names: std::collections::BTreeSet<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), WORKLOADS.len());
    }

    #[test]
    fn repeat_honours_the_floor_and_the_budget() {
        let floor = Budget {
            seconds: 0.0,
            min_samples: 3,
        };
        assert_eq!(repeat(floor, |i| i, |_| false), vec![0, 1, 2]);
        let timed = Budget {
            seconds: 0.05,
            min_samples: 1,
        };
        let nap = |_| std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(repeat(timed, nap, |_| true).len() >= 5);
    }

    /// Runs `name` traced at a tiny size and requires every check to pass.
    fn passes_at_tiny_size(name: &str) {
        let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
        let (requests, min_pooled) = match w.kind {
            Kind::Des(_) => (2000, 0),
            Kind::Rt(_) => (10, 20),
        };
        let budget = Budget {
            seconds: 0.0,
            min_samples: 2,
        };
        let o = w.run(7, requests, min_pooled, budget, true);
        assert!(
            o.check_failures.is_empty(),
            "{name}: {:?}",
            o.check_failures
        );
        assert!(o.samples >= 2, "{name}: {} samples", o.samples);
        let record = WorkloadRecord::of(&o, &w.layer_metrics());
        assert_eq!(record.end_to_end.len(), report::END_TO_END.len());
        assert_eq!(record.per_layer.len(), w.layer_metrics().len());
        assert!(!o.spans.is_empty(), "{name}: no spans");
    }

    #[test]
    fn workloads_measure_every_declared_layer_metric() {
        let measured: std::collections::BTreeSet<&str> = WORKLOADS
            .iter()
            .flat_map(|w| w.layer_metrics())
            .map(|m| m.name)
            .collect();
        let declared: std::collections::BTreeSet<&str> =
            report::per_layer().map(|m| m.name).collect();
        assert_eq!(measured, declared);
    }

    #[test]
    fn paper_pf70_passes_at_tiny_size() {
        passes_at_tiny_size("paper-pf70");
    }

    #[test]
    fn scaled64_mixed_passes_at_tiny_size() {
        passes_at_tiny_size("scaled64-mixed");
    }

    #[test]
    fn berkeley_audit_passes_at_tiny_size() {
        passes_at_tiny_size("berkeley-audit");
    }

    #[test]
    fn rt_hot_64k_passes_at_tiny_size() {
        passes_at_tiny_size("rt-hot-64k");
    }

    #[test]
    fn rt_cold_1m_passes_at_tiny_size() {
        passes_at_tiny_size("rt-cold-1m");
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for w in [
            des::Des::PaperPf70,
            des::Des::Scaled64Mixed,
            des::Des::BerkeleyAudit,
        ] {
            assert_eq!(w.trace(7, 500), w.trace(7, 500), "{w:?}");
            assert_ne!(w.trace(7, 500), w.trace(8, 500), "{w:?}");
        }
        for shape in [rt::HOT, rt::COLD] {
            assert_eq!(shape.trace(7), shape.trace(7));
            assert_ne!(shape.trace(7), shape.trace(8));
        }
        let seed = |seed, sample| rt::HOT.load_config(seed, sample, 1).seed;
        assert_ne!(seed(7, 0), seed(8, 0));
        assert_ne!(seed(7, 0), seed(7, 1));
    }

    #[test]
    fn a_perturbed_digest_fails_the_check() {
        let entry = |digest: &str| des::ExpectedDigest {
            workload: "w".into(),
            seed: 7,
            requests: 10,
            digest: digest.into(),
        };
        let mut ok = Outcome::new("w");
        des::check_digests(
            &mut ok,
            &[0xabc, 0xabc],
            7,
            10,
            &[entry("0x0000000000000abc")],
        );
        assert!(ok.check_failures.is_empty(), "{:?}", ok.check_failures);
        let mut bad = Outcome::new("w");
        des::check_digests(
            &mut bad,
            &[0xabc, 0xabc],
            7,
            10,
            &[entry("0x0000000000000abd")],
        );
        assert_eq!(bad.check_failures.len(), 1);
        let mut unstable = Outcome::new("w");
        des::check_digests(&mut unstable, &[0xabc, 0xabd], 7, 10, &[]);
        assert_eq!(unstable.check_failures.len(), 1);
    }

    #[test]
    fn committed_digests_name_full_size_workloads() {
        let digests = des::expected_digests();
        assert!(!digests.is_empty());
        for d in digests {
            let w = WORKLOADS.iter().find(|w| w.name == d.workload);
            assert!(
                matches!(w, Some(w) if w.requests as u64 == d.requests),
                "digest for {} at {} requests matches no workload",
                d.workload,
                d.requests
            );
        }
    }
}
