//! The three simulator workloads: the set-up regenerates the workload's
//! trace from the seed, then each sample runs the workload's pipeline over
//! it (the timed pass). Both are timed at the reference machine's speed
//! (see [`crate::host`]).

use crate::host::{HostClock, Timing, REFERENCE_HOST_S};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{fnv1a, Summary};
use crate::{peak_rss_mb, repeat, timed, Budget};
use disk_model::DiskSpec;
use eevfs::config::{ClusterSpec, EevfsConfig, NodeSpec};
use eevfs::driver::{
    run_cluster, run_cluster_observed, run_cluster_powered, run_cluster_powered_observed, ObsReport,
};
use eevfs::metrics::RunMetrics;
use eevfs::placement::place;
use eevfs::prefetch::{plan_topk, predict_benefit};
use eevfs::replication::replicate;
use eevfs_audit::{build_ledger, reconstruct_spans, AttributionModel, ResidencyTable};
use eevfs_obs::{Category, Recorder, TraceEvent};
use eevfs_power::{EvictionPolicy, PowerPolicy, TierConfig};
use fault_model::FaultPlan;
use serde::Deserialize;
use sim_core::{EventQueue, SimDuration, SimRng};
use workload::Trace;
use workload::{berkeley_web_trace, generate, BerkeleySpec, Op, PopularityTable, SyntheticSpec};

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Des {
    /// The paper's testbed and synthetic mix, PF(70) then NPF per pass.
    PaperPf70,
    /// 64 nodes, Zipf web mix with 30 % writes, policy plane + DRAM tier.
    Scaled64Mixed,
    /// The Berkeley substitute through the observation and audit planes.
    BerkeleyAudit,
}

/// Share of `scaled64-mixed` records the benchmark's seeded coin turns
/// into writes.
const WRITE_SHARE: f64 = 0.3;
/// Salt separating the write coin's stream from the trace generator's.
const WRITE_COIN_SALT: u64 = 0x0057_5249_5445;
/// Per-node DRAM tier of `scaled64-mixed`.
const DRAM_TIER_BYTES: u64 = 32 << 20;
/// Timed set-up units per run, after the untimed generation whose trace
/// the passes use; `setup_s` is the median over units of the normalised
/// time per generation. Cheap generations repeat for a second so that
/// their median is steady.
const SETUP_BUDGET: Budget = Budget {
    seconds: 1.0,
    min_samples: 3,
};
/// A set-up unit holds as many generations as take this long, so that a
/// cheap generation (well under a millisecond for `berkeley-audit`) is
/// timed in units as long as the reference computation between them.
const SETUP_UNIT_S: f64 = 0.025;
/// Events a fault-free read takes through the driver's queue: issue,
/// server arrival, server done, node arrival, disk done, NIC done.
const EVENTS_PER_READ: u32 = 6;

impl Des {
    /// The storage cluster the workload runs on.
    pub fn cluster(self) -> ClusterSpec {
        match self {
            Des::PaperPf70 | Des::BerkeleyAudit => ClusterSpec::paper_testbed(),
            Des::Scaled64Mixed => {
                let mut c = ClusterSpec::paper_testbed();
                c.nodes = (0..32)
                    .map(|i| NodeSpec::type1(format!("t1-{i}"), 2))
                    .chain((0..32).map(|i| NodeSpec::type2(format!("t2-{i}"), 2)))
                    .collect();
                c
            }
        }
    }

    /// The configuration whose run the per-layer metrics describe.
    pub fn config(self) -> EevfsConfig {
        match self {
            Des::PaperPf70 | Des::BerkeleyAudit => EevfsConfig::paper_pf(70),
            Des::Scaled64Mixed => EevfsConfig::paper_pf(560),
        }
    }

    fn policy(self, seed: u64) -> Option<PowerPolicy> {
        (self == Des::Scaled64Mixed).then(|| {
            PowerPolicy::bandit()
                .with_tier(TierConfig {
                    dram_bytes: DRAM_TIER_BYTES,
                    ssd_bytes: 0,
                    policy: EvictionPolicy::Lru,
                })
                .with_seed(seed)
        })
    }

    /// The workload's inputs: a pure function of `(seed, requests)`.
    pub fn trace(self, seed: u64, requests: u32) -> Trace {
        match self {
            Des::PaperPf70 => generate(&SyntheticSpec {
                requests,
                seed,
                ..SyntheticSpec::paper_default()
            }),
            Des::Scaled64Mixed => {
                let mut trace = berkeley_web_trace(&BerkeleySpec {
                    files: 8000,
                    working_set: 4000,
                    zipf_alpha: 0.8,
                    requests,
                    size_bytes: 1_000_000,
                    inter_arrival: SimDuration::from_millis(10),
                    seed,
                });
                let mut coin = SimRng::seed_from_u64(seed ^ WRITE_COIN_SALT);
                for r in &mut trace.records {
                    if coin.uniform() < WRITE_SHARE {
                        r.op = Op::Write;
                    }
                }
                trace
            }
            Des::BerkeleyAudit => berkeley_web_trace(&BerkeleySpec {
                requests,
                seed,
                ..BerkeleySpec::paper_default()
            }),
        }
    }

    /// The timed pass over one trace.
    fn pipeline(self, t: &mut Tracer, trace: &Trace, seed: u64) -> Pass {
        let cluster = self.cluster();
        let cfg = self.config();
        let n = trace.len() as u64;
        match self {
            Des::PaperPf70 => {
                let pf = t.span("driver.run", |_| run_cluster(&cluster, &cfg, trace));
                let npf = t.span("driver.run_npf", |_| {
                    run_cluster(&cluster, &EevfsConfig::paper_npf(), trace)
                });
                Pass::new(2 * n, vec![pf, npf])
            }
            Des::Scaled64Mixed => {
                let policy = self.policy(seed).expect("scaled64 has a policy");
                let m = t.span("driver.run", |_| {
                    run_cluster_powered(&cluster, &cfg, trace, &policy)
                });
                Pass::new(n, vec![m])
            }
            Des::BerkeleyAudit => audit_pass(t, &cluster, &cfg, trace),
        }
    }
}

/// What one pipeline pass produced.
struct Pass {
    /// Requests simulated (a PF + NPF pair counts each request twice).
    simulated: u64,
    /// The runs' metrics, the per-layer configuration first.
    runs: Vec<RunMetrics>,
    /// Violations found inside the pipeline.
    checks: Vec<String>,
    /// The observed run's artefacts, when the pipeline observes.
    obs: Option<ObsReport>,
    /// JSONL bytes exported, when the pipeline exports.
    jsonl_bytes: usize,
}

impl Pass {
    fn new(simulated: u64, runs: Vec<RunMetrics>) -> Pass {
        Pass {
            simulated,
            runs,
            checks: Vec::new(),
            obs: None,
            jsonl_bytes: 0,
        }
    }
}

/// FNV-1a over the serialized metrics of every run.
fn digest(runs: &[RunMetrics]) -> u64 {
    let text: String = runs
        .iter()
        .map(|m| serde_json::to_string(m).expect("RunMetrics serializes"))
        .collect();
    fnv1a(text.as_bytes())
}

/// A recorder bound generous enough that nothing is evicted.
fn recorder_for(trace: &Trace) -> Recorder {
    Recorder::with_capacity(trace.len() * 64 + 65_536)
}

/// `harness report`'s pipeline: an observed run folded through the audit
/// plane into a ledger that must close.
fn audit_pass(t: &mut Tracer, cluster: &ClusterSpec, cfg: &EevfsConfig, trace: &Trace) -> Pass {
    let (metrics, obs) = t.span("driver.observe", |_| {
        run_cluster_observed(
            cluster,
            cfg,
            trace,
            &FaultPlan::none(),
            None,
            recorder_for(trace),
        )
    });
    let jsonl_bytes = t.span("obs.jsonl", |_| obs.recorder.to_jsonl().len());
    let events: Vec<TraceEvent> =
        t.span("audit.events", |_| obs.recorder.events().cloned().collect());
    let spans = t.span("audit.spans", |_| reconstruct_spans(&events));
    let warmup_us = metrics.prefetch.warmup_us;
    let end_us = warmup_us + (metrics.duration_s * 1e6).round() as u64;
    let residency = t.span("audit.residency", |_| {
        ResidencyTable::from_events(&events, warmup_us, end_us)
    });
    let closure = t.span("audit.ledger", |_| {
        build_ledger(
            &metrics,
            &spans,
            &residency,
            &AttributionModel::from_cluster(cluster),
        )
        .verify_closure(&metrics)
    });
    let mut checks = Vec::new();
    if obs.recorder.dropped() > 0 {
        checks.push(format!(
            "recorder dropped {} events",
            obs.recorder.dropped()
        ));
    }
    if spans.len() != trace.len() {
        checks.push(format!(
            "{} spans for {} requests",
            spans.len(),
            trace.len()
        ));
    }
    if let Err(e) = closure {
        checks.push(format!("ledger does not close: {e}"));
    }
    Pass {
        checks,
        obs: Some(obs),
        jsonl_bytes,
        ..Pass::new(trace.len() as u64, vec![metrics])
    }
}

/// A committed digest of one workload's serialized `RunMetrics`.
#[derive(Debug, Clone, Deserialize)]
pub struct ExpectedDigest {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Requests per trace.
    pub requests: u64,
    /// FNV-1a, `0x`-prefixed hex.
    pub digest: String,
}

/// The committed digests.
pub fn expected_digests() -> Vec<ExpectedDigest> {
    serde_json::from_str(include_str!("../expected_digests.json"))
        .expect("expected_digests.json parses")
}

/// The part of a pass a run keeps: its timing and what the checks need.
struct PassSummary {
    timing: Timing,
    simulated: u64,
    failed: u64,
    digest: u64,
    checks: Vec<String>,
}

impl PassSummary {
    fn of(pass: Pass, timing: Timing, requests: u64) -> PassSummary {
        let mut checks = pass.checks;
        let mut failed = 0;
        for m in &pass.runs {
            let ov = &m.overload;
            failed += m.failed_requests + ov.rejected + ov.shed + ov.node_shed;
            if m.response.count != requests {
                checks.push(format!(
                    "response.count {} != {requests} requests",
                    m.response.count
                ));
            }
        }
        PassSummary {
            timing,
            simulated: pass.simulated,
            failed,
            digest: digest(&pass.runs),
            checks,
        }
    }
}

/// Digests must repeat across a run's samples and match any committed
/// digest for `(workload, seed, requests)`.
pub fn check_digests(
    o: &mut Outcome,
    digests: &[u64],
    seed: u64,
    requests: u64,
    expected: &[ExpectedDigest],
) {
    let Some(&first) = digests.first() else {
        return;
    };
    o.check(digests.iter().all(|&d| d == first), || {
        format!("outputs differ between samples of one seed: {digests:x?}")
    });
    let got = format!("{first:#018x}");
    o.notes
        .push(format!("digest {got} (seed {seed}, {requests} requests)"));
    if let Some(e) = expected
        .iter()
        .find(|e| e.workload == o.workload && e.seed == seed && e.requests == requests)
    {
        o.check(e.digest == got, || {
            format!("digest {got} != committed {} for seed {seed}", e.digest)
        });
    }
}

/// Runs one simulator workload: the set-up repeated for
/// [`SETUP_BUDGET`], then pipeline passes over the trace until the budget
/// is spent.
pub fn run(
    w: Des,
    name: &'static str,
    seed: u64,
    requests: u32,
    budget: Budget,
    trace: bool,
) -> Outcome {
    let mut o = Outcome::new(name);
    let mut clock = HostClock::new();
    // The untimed first generation is the passes' input and sizes the
    // timed set-up units.
    let (input, first_s) = timed(|| w.trace(seed, requests));
    let per_unit = (SETUP_UNIT_S / first_s.max(1e-6)).ceil() as usize;
    let setup = repeat(
        SETUP_BUDGET,
        |_| {
            let mut wall_s = 0.0;
            for _ in 0..per_unit {
                let (again, s) = timed(|| w.trace(seed, requests));
                wall_s += s;
                o.check(again == input, || {
                    "trace generation is not deterministic".into()
                });
            }
            clock.after(wall_s).normalized_s() / per_unit as f64
        },
        |_| true,
    );
    let n = input.len() as u64;
    let mut plain = Tracer::disabled();
    let passes = repeat(
        budget,
        |i| {
            let (pass, timing) = clock.time(|| w.pipeline(&mut plain, &input, seed));
            let mut summary = PassSummary::of(pass, timing, n);
            if i == 0 && w == Des::BerkeleyAudit {
                let plain_run = run_cluster(&w.cluster(), &w.config(), &input);
                if digest(&[plain_run]) != summary.digest {
                    summary
                        .checks
                        .push("observed metrics differ from the plain run".into());
                }
            }
            summary
        },
        |_| true,
    );
    // The workload runs in a process of its own, so the process's peak
    // is the workload's: set-up and passes.
    let rss = peak_rss_mb();
    drop(input);

    let (mut pass_ms, mut rps, mut wall_ms, mut reference_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for p in &passes {
        o.failed += p.failed;
        o.attempted += p.simulated;
        o.check_failures.extend(p.checks.iter().cloned());
        let s = p.timing.normalized_s();
        pass_ms.push(s * 1e3);
        rps.push(p.simulated as f64 / s);
        wall_ms.push(p.timing.wall_s * 1e3);
        reference_ms.push(p.timing.reference_s * 1e3);
    }
    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    check_digests(&mut o, &digests, seed, n, &expected_digests());
    let wall = Summary::of(&wall_ms);
    o.notes.push(format!(
        "unscaled pass {:.3} ms (q1 {:.3}, q3 {:.3}); reference computation {:.4} ms here, {:.4} ms on the reference machine; generations per set-up unit: {per_unit}",
        wall.value,
        wall.q1,
        wall.q3,
        Summary::of(&reference_ms).value,
        REFERENCE_HOST_S * 1e3
    ));
    o.samples = passes.len();
    o.e2e.insert("setup_s", Summary::of(&setup));
    o.e2e.insert("throughput_rps", Summary::of(&rps));
    // The simulator's latency is the time of a whole pass. A run holds
    // fewer than a hundred passes, too few for ten beyond any percentile
    // above the median, so its tail is the median pass too: for the
    // simulator both latency metrics and the throughput are one measurement.
    o.e2e.insert("latency_p50_ms", Summary::of(&pass_ms));
    o.e2e.insert("latency_tail_ms", Summary::of(&pass_ms));
    o.e2e
        .insert("peak_rss_mb", Summary::pooled(rss, passes.len(), &[rss]));

    if trace {
        traced_layers(w, &mut o, seed, requests, Summary::of(&pass_ms).value / 1e3);
    }
    o
}

/// The traced sample plus the layer re-calls that only it makes.
fn traced_layers(w: Des, o: &mut Outcome, seed: u64, requests: u32, untraced_pass_s: f64) {
    let mut t = Tracer::enabled(o.workload);
    let input = t.span("workload.generate", |_| w.trace(seed, requests));
    let trace = &input;
    let (pass, timing) =
        HostClock::new().time(|| t.span("pipeline", |t| w.pipeline(t, trace, seed)));
    let cluster = w.cluster();
    let cfg = w.config();

    // Steps 1-4 of the driver, re-called through the same public functions.
    let counts = cluster.data_disk_counts();
    let popularity = t.span("eevfs.popularity", |_| PopularityTable::from_trace(trace));
    let placement = t.span("eevfs.placement", |_| {
        let p = place(cfg.placement, &popularity, &counts);
        let r = replicate(&p, cfg.replication.max(1) as usize, &counts);
        (p, r)
    });
    t.span("eevfs.prefetch_plan", |_| {
        let caps: Vec<u64> = cluster
            .nodes
            .iter()
            .map(|n| n.buffer_disk.capacity_bytes)
            .collect();
        let plan = plan_topk(
            cfg.prefetch_k(),
            &popularity,
            &placement.0,
            &trace.file_sizes,
            &caps,
        );
        let data: Vec<&[DiskSpec]> = cluster
            .nodes
            .iter()
            .map(|n| n.data_disks.as_slice())
            .collect();
        let buffers: Vec<&DiskSpec> = cluster.nodes.iter().map(|n| &n.buffer_disk).collect();
        predict_benefit(trace, &placement.0, &plan, &data, &buffers, &cfg)
    });

    // The plain and observed runs of the per-layer configuration; each
    // workload's pipeline already holds one of the two.
    let own_obs;
    let observed = match &pass.obs {
        Some(obs) => {
            t.span("driver.run", |_| run_cluster(&cluster, &cfg, trace));
            obs
        }
        None => {
            own_obs = t.span("driver.observe", |_| match w.policy(seed) {
                Some(p) => {
                    run_cluster_powered_observed(&cluster, &cfg, trace, &p, recorder_for(trace)).1
                }
                None => {
                    let faults = FaultPlan::none();
                    run_cluster_observed(&cluster, &cfg, trace, &faults, None, recorder_for(trace))
                        .1
                }
            });
            &own_obs
        }
    };
    let pops = t.span("sim_core.queue_replay", |_| queue_replay(trace, seed));

    let m = &pass.runs[0];
    let l = &mut o.layers;
    let run_s = t.total_s("driver.run");
    let replay_s = t.total_s("sim_core.queue_replay");
    let events = observed.recorder.len() as f64;
    l.insert("workload.generate_s", t.total_s("workload.generate"));
    l.insert("eevfs.popularity_s", t.total_s("eevfs.popularity"));
    l.insert("eevfs.placement_s", t.total_s("eevfs.placement"));
    l.insert("eevfs.prefetch_plan_s", t.total_s("eevfs.prefetch_plan"));
    l.insert("driver.run_s", run_s);
    l.insert("driver.events", events);
    l.insert("driver.ns_per_event", run_s * 1e9 / events.max(1.0));
    l.insert("driver.queue_depth_peak", queue_depth_peak(observed));
    l.insert("driver.alloc_mb", t.alloc_mb("driver.run"));
    l.insert(
        "sim_core.queue_hold_ns",
        replay_s * 1e9 / pops.max(1) as f64,
    );
    l.insert("sim_core.queue_share", replay_s / run_s.max(1e-9));
    l.insert("power.sleeps", m.prediction.sleeps as f64);
    l.insert(
        "power.sleep_payoff_ratio",
        ratio(m.prediction.paid_off, m.prediction.sleeps),
    );
    if w.policy(seed).is_some() {
        l.insert(
            "tier.dram_hit_ratio",
            ratio(m.tier.dram_hits, m.tier.dram_hits + m.tier.dram_misses),
        );
    }
    l.insert("disk.transitions", m.transitions.total() as f64);
    l.insert("disk.spun_up_requests", m.spun_up_requests as f64);
    l.insert("disk.standby_fraction", m.mean_standby_fraction());
    l.insert("buffer.hit_ratio", m.hit_rate());
    l.insert("buffer.writes_buffered", m.writes_buffered as f64);
    l.insert("buffer.destages", m.destages as f64);
    l.insert(
        "sim.joules_per_request",
        m.total_energy_j / m.response.count.max(1) as f64,
    );
    l.insert("sim.response_p50_s", m.response.p50_s);
    l.insert("sim.response_p99_s", m.response.p99_s);
    l.insert("obs.record_s", t.total_s("driver.observe") - run_s);
    for (name, cat) in [
        ("obs.events.request", Category::Request),
        ("obs.events.disk", Category::Disk),
        ("obs.events.power", Category::Power),
        ("obs.events.prefetch", Category::Prefetch),
    ] {
        let n = observed
            .recorder
            .events()
            .filter(|e| e.kind.category() == cat)
            .count();
        l.insert(name, n as f64);
    }
    if pass.obs.is_some() {
        l.insert("obs.jsonl_s", t.total_s("obs.jsonl"));
        l.insert("obs.jsonl_bytes", pass.jsonl_bytes as f64);
        l.insert("obs.jsonl_alloc_mb", t.alloc_mb("obs.jsonl"));
        l.insert("audit.spans_s", t.total_s("audit.spans"));
        l.insert("audit.residency_s", t.total_s("audit.residency"));
        l.insert("audit.ledger_s", t.total_s("audit.ledger"));
    }
    l.insert(
        "trace.overhead_pct",
        (timing.normalized_s() / untraced_pass_s - 1.0) * 100.0,
    );
    o.self_times = t.self_times();
    o.spans = t.spans().to_vec();
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Peak of the driver's sampled outstanding-request series.
fn queue_depth_peak(obs: &ObsReport) -> f64 {
    obs.registry
        .try_series("queue_depth")
        .map(|s| s.iter().map(|(_, v)| v).fold(0.0, f64::max))
        .unwrap_or(0.0)
}

/// Replays the open-loop driver's use of the event queue, timed by the
/// caller: every trace record's arrival is scheduled up front, as the
/// driver does, and each popped arrival starts a chain of
/// [`EVENTS_PER_READ`] events, each scheduled a service time after the one
/// before. Fault-free reads take exactly that chain; sleep checks, writes
/// and retries add events, so the replay is a lower bound on the driver's
/// queue work. Returns the events popped.
fn queue_replay(trace: &Trace, seed: u64) -> u64 {
    let mut q: EventQueue<u32> = EventQueue::with_capacity(trace.len() + 1);
    for r in &trace.records {
        q.schedule(r.at, 1);
    }
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pops = 0;
    while let Some((at, stage)) = q.pop() {
        pops += 1;
        if stage < EVENTS_PER_READ {
            let service = SimDuration::from_micros(rng.uniform_range(1, 100_000));
            q.schedule(at.saturating_add(service), std::hint::black_box(stage + 1));
        }
    }
    pops
}
