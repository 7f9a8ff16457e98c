//! The two prototype workloads: live daemons over loopback TCP, driven by
//! the closed-loop load generator. Each sample boots a fresh cluster (the
//! set-up), reads every file once untimed, then times the closed loop.
//! Timings are scaled to the reference machine's speed (see
//! [`crate::host`]).

use crate::host::{HostClock, REFERENCE_HOST_S};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{highest_supported_quantile, percentile, Summary};
use crate::{peak_rss_mb, repeat, reset_peak_rss, timed, Budget};
use disk_model::checksum::crc32;
use eevfs_runtime::clock::VirtualClock;
use eevfs_runtime::proto::Message;
use eevfs_runtime::server::ClusterStats;
use eevfs_runtime::store::{file_pattern, FileStore};
use eevfs_runtime::{loadgen, ClusterHandle, LoadConfig, LoadReport, RuntimeConfig};
use sim_core::SimDuration;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use workload::{berkeley_web_trace, BerkeleySpec, Trace};

/// Files in the prototype's population; the load generator draws from
/// all of them uniformly.
pub const FILES: u32 = 64;
/// Pooled latencies a full run collects before it may stop: p99 then has
/// at least ten samples beyond it.
pub const MIN_POOLED: usize = 1000;
/// Sequential `get`s on an idle cluster behind `client.get_unloaded_ms`.
const UNLOADED_GETS: u32 = 200;
/// Repetitions of each micro-measured layer call.
const MICRO_REPS: usize = 50;

/// One prototype workload's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rt {
    /// Bytes per file.
    pub file_bytes: u64,
    /// Files prefetched into the buffer areas.
    pub prefetch_k: u32,
}

/// Closed-loop client threads. One: on the 2-vCPU reference machine a
/// second client queues on the CPUs with the daemons' threads. For
/// `rt-hot-64k` it served 17 % more reads per second but made the tail
/// follow the host's load (over ten alternating runs the p99 spread 0.13
/// with two clients, 0.09 with one); for `rt-cold-1m` it added little
/// throughput and doubled the median.
const CLIENTS: usize = 1;

/// 64 × 64 KiB, all prefetched: every read is a buffer hit.
pub const HOT: Rt = Rt {
    file_bytes: 64 << 10,
    prefetch_k: FILES,
};

/// 64 × 1 MiB, the paper's top-8 prefetch: most reads hit a data disk.
pub const COLD: Rt = Rt {
    file_bytes: 1 << 20,
    prefetch_k: 8,
};

impl Rt {
    /// The setup trace the server derives popularity, placement, prefetch
    /// and hints from: a Zipf mix touching every file.
    pub fn trace(self, seed: u64) -> Trace {
        berkeley_web_trace(&BerkeleySpec {
            files: FILES,
            working_set: FILES,
            zipf_alpha: 0.8,
            requests: 4096,
            size_bytes: self.file_bytes,
            inter_arrival: SimDuration::from_millis(700),
            seed,
        })
    }

    fn all_hits(self) -> bool {
        self.prefetch_k >= FILES
    }

    fn cluster_config(self, root: &Path) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::small("benchmark");
        cfg.root_dir = root.to_path_buf();
        cfg.prefetch_k = self.prefetch_k;
        cfg
    }

    /// The closed loop of sample `sample`: its file sequence is seeded
    /// from the run's seed and the sample index.
    pub fn load_config(self, seed: u64, sample: usize, per_client: usize) -> LoadConfig {
        LoadConfig {
            clients: CLIENTS,
            requests_per_client: per_client,
            think: Duration::ZERO,
            deadline_us: 0,
            files: FILES,
            seed: seed.wrapping_mul(1_000_003).wrapping_add(sample as u64),
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// A sample's scratch directory for cluster stores, removed when dropped,
/// also while unwinding from a failed sample, so that no sample's files
/// are still being written back while the next one runs.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new() -> Result<TempRoot, String> {
        static ROOTS: AtomicUsize = AtomicUsize::new(0);
        let n = ROOTS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::current_dir()
            .map_err(|e| format!("cwd: {e}"))?
            .join("target/benchmark")
            .join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempRoot(dir))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One sample's measurements, in wall time.
struct Sample {
    /// Turns the sample's wall times into times at the reference
    /// machine's speed.
    scale: f64,
    setup_s: f64,
    rss_mb: f64,
    report: LoadReport,
    before: ClusterStats,
    after: ClusterStats,
}

/// Boots a cluster, warms it, runs the closed loop, and always shuts the
/// cluster down again.
fn sample(
    shape: Rt,
    t: &mut Tracer,
    clock: &mut HostClock,
    seed: u64,
    i: usize,
    per_client: usize,
) -> Result<Sample, String> {
    let root = TempRoot::new()?;
    let trace = shape.trace(seed);
    let cfg = shape.cluster_config(&root.0);
    reset_peak_rss();
    let ((started, setup_s), timing) = clock.time(|| {
        let (started, setup_s) =
            timed(|| t.span("runtime.start", |_| ClusterHandle::start(cfg, &trace)));
        let measured = started.map(|mut cluster| {
            let m = drive(&mut cluster, t, &shape.load_config(seed, i, per_client));
            cluster.shutdown();
            m
        });
        (measured, setup_s)
    });
    let rss_mb = peak_rss_mb();
    let (report, before, after) = started.map_err(|e| format!("cluster start: {e}"))??;
    Ok(Sample {
        scale: timing.scale(),
        setup_s,
        rss_mb,
        report,
        before,
        after,
    })
}

fn drive(
    cluster: &mut ClusterHandle,
    t: &mut Tracer,
    load: &LoadConfig,
) -> Result<(LoadReport, ClusterStats, ClusterStats), String> {
    for f in 0..FILES {
        cluster
            .get_verified(f)
            .map_err(|e| format!("warm-up read of file {f}: {e}"))?;
    }
    let before = cluster.stats().map_err(|e| format!("stats: {e}"))?;
    let addr = cluster.server_addr().map_err(|e| format!("addr: {e}"))?;
    let report = t.span("loadgen.run", |_| loadgen::run(addr, load));
    let after = cluster.stats().map_err(|e| format!("stats: {e}"))?;
    if t.is_enabled() {
        for i in 0..UNLOADED_GETS {
            t.span("client.get", |_| cluster.get(i % FILES))
                .map_err(|e| format!("unloaded get: {e}"))?;
        }
        for _ in 0..MICRO_REPS {
            t.span("server.stats", |_| cluster.stats())
                .map_err(|e| format!("stats: {e}"))?;
        }
    }
    Ok((report, before, after))
}

/// Output checks on one sample; returns the failed-request count.
fn check_sample(o: &mut Outcome, shape: Rt, s: &Sample, per_client: usize) -> u64 {
    let r = &s.report;
    let a = &s.after;
    let d = s.after - s.before;
    o.check(r.ledger_closes(), || format!("client ledger open: {r:?}"));
    o.check(
        a.offered == a.admitted + a.rejected + a.shed
            && a.admitted == a.completed + a.node_shed + a.request_errors,
        || format!("server shed ledger open: {a:?}"),
    );
    let offered = CLIENTS * per_client;
    o.check(r.sent == offered as u64, || {
        format!("{} of {offered} requests sent", r.sent)
    });
    o.check(d.hits + d.misses == r.completed, || {
        format!(
            "{} node reads for {} completed requests",
            d.hits + d.misses,
            r.completed
        )
    });
    if shape.all_hits() {
        o.check(d.misses == 0, || {
            format!("{} buffer misses on an all-hit workload", d.misses)
        });
    }
    r.errors + r.busy + r.shed
}

/// Runs one prototype workload.
pub fn run(
    shape: Rt,
    name: &'static str,
    seed: u64,
    per_client: usize,
    min_pooled: usize,
    budget: Budget,
    trace: bool,
) -> Outcome {
    let mut o = Outcome::new(name);
    let mut clock = HostClock::new();
    let mut plain = Tracer::disabled();
    let results = repeat(
        budget,
        |i| sample(shape, &mut plain, &mut clock, seed, i, per_client),
        |done| {
            done.iter().any(Result::is_err)
                || done
                    .iter()
                    .flatten()
                    .map(|s| s.report.latencies.len())
                    .sum::<usize>()
                    >= min_pooled
        },
    );

    let mut samples = Vec::new();
    for r in results {
        match r {
            Ok(s) => samples.push(s),
            Err(e) => o.fail(e),
        }
    }
    let (mut pooled, mut pooled_wall) = (Vec::new(), Vec::new());
    let (mut p50s, mut p99s, mut setup, mut rps, mut rss, mut scales) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut completed, mut loop_s, mut loop_wall_s) = (0, 0.0, 0.0);
    for s in &samples {
        let failed = check_sample(&mut o, shape, s, per_client);
        o.failed += failed;
        o.attempted += s.report.sent;
        let wall_ms: Vec<f64> = s
            .report
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let ms: Vec<f64> = wall_ms.iter().map(|l| l * s.scale).collect();
        p50s.push(percentile(&ms, 0.5));
        p99s.push(percentile(&ms, 0.99));
        pooled.extend(ms);
        pooled_wall.extend(wall_ms);
        setup.push(s.setup_s * s.scale);
        rss.push(s.rss_mb);
        rps.push(s.report.throughput_rps() / s.scale);
        scales.push(s.scale);
        completed += s.report.completed;
        loop_s += s.report.elapsed.as_secs_f64() * s.scale;
        loop_wall_s += s.report.elapsed.as_secs_f64();
    }
    o.samples = samples.len();
    o.check(pooled.len() >= min_pooled, || {
        format!("{} pooled latencies, fewer than {min_pooled}", pooled.len())
    });
    o.notes.push(format!(
        "unscaled: latency p50 {:.4} ms, p99 {:.4} ms, throughput {:.2}/s; reference computation {:.4} ms here (median over samples), {:.4} ms on the reference machine",
        percentile(&pooled_wall, 0.5),
        percentile(&pooled_wall, 0.99),
        completed as f64 / loop_wall_s,
        REFERENCE_HOST_S / percentile(&scales, 0.5) * 1e3,
        REFERENCE_HOST_S * 1e3
    ));
    if let Some(q) = highest_supported_quantile(pooled.len()) {
        o.notes.push(format!(
            "{} pooled latencies; highest supported percentile p{} = {:.3} ms",
            pooled.len(),
            q * 100.0,
            percentile(&pooled, q)
        ));
    }
    o.e2e.insert("setup_s", Summary::of(&setup));
    // Pooled like the latencies: a run holds only a few cold samples.
    let throughput = completed as f64 / loop_s;
    o.e2e.insert(
        "throughput_rps",
        Summary::pooled(throughput, rps.len(), &rps),
    );
    o.e2e.insert(
        "latency_p50_ms",
        Summary::pooled(percentile(&pooled, 0.5), pooled.len(), &p50s),
    );
    o.e2e.insert(
        "latency_tail_ms",
        Summary::pooled(percentile(&pooled, 0.99), pooled.len(), &p99s),
    );
    o.e2e.insert("peak_rss_mb", Summary::of(&rss));

    if trace && o.check_failures.is_empty() {
        if let Err(e) = traced_layers(shape, &mut o, seed, per_client, throughput) {
            o.fail(e);
        }
    }
    o
}

/// The traced sample plus the micro-measured layer calls.
fn traced_layers(
    shape: Rt,
    o: &mut Outcome,
    seed: u64,
    per_client: usize,
    untraced_rps: f64,
) -> Result<(), String> {
    let mut t = Tracer::enabled(o.workload);
    let s = sample(
        shape,
        &mut t,
        &mut HostClock::new(),
        seed,
        o.samples,
        per_client,
    )?;
    let failed = check_sample(o, shape, &s, per_client);
    o.check(failed == 0, || {
        format!("{failed} requests failed in the traced sample")
    });
    micro_layers(shape, &mut t)?;

    let d = s.after - s.before;
    let completed = s.report.completed.max(1) as f64;
    let l = &mut o.layers;
    l.insert("runtime.start_s", t.total_s("runtime.start"));
    l.insert("client.get_unloaded_ms", t.median_s("client.get") * 1e3);
    l.insert("server.stats_rpc_ms", t.median_s("server.stats") * 1e3);
    l.insert("proto.encode_us", t.median_s("proto.encode") * 1e6);
    l.insert("proto.decode_us", t.median_s("proto.decode") * 1e6);
    l.insert("store.read_data_us", t.median_s("store.read_data") * 1e6);
    l.insert(
        "store.read_buffer_us",
        t.median_s("store.read_buffer") * 1e6,
    );
    l.insert("disk_model.crc32_us", t.median_s("disk_model.crc32") * 1e6);
    l.insert(
        "clock.spinup_sleep_us",
        t.median_s("clock.spinup_sleep") * 1e6,
    );
    l.insert(
        "node.hit_ratio",
        d.hits as f64 / (d.hits + d.misses).max(1) as f64,
    );
    l.insert("node.spin_ups", d.spin_ups as f64);
    l.insert("node.virtual_j_per_request", d.disk_joules / completed);
    l.insert("server.queue_peak", s.after.queue_peak as f64);
    l.insert("server.retries", d.retries as f64);
    l.insert(
        "trace.overhead_pct",
        (untraced_rps / (s.report.throughput_rps() / s.scale) - 1.0) * 100.0,
    );
    o.self_times = t.self_times();
    o.spans = t.spans().to_vec();
    Ok(())
}

/// Layer calls timed outside the daemons at the workload's file size:
/// codec, store, checksum, and the virtual spin-up sleep.
fn micro_layers(shape: Rt, t: &mut Tracer) -> Result<(), String> {
    let root = TempRoot::new()?;
    let msg = Message::FileData {
        req_id: 1,
        file: 0,
        data: file_pattern(0, shape.file_bytes).into(),
    };
    for _ in 0..MICRO_REPS {
        let frame = t.span("proto.encode", |_| msg.encode());
        let back = t.span("proto.decode", |_| Message::decode(frame.slice(4..)));
        if !matches!(back, Ok(ref m) if *m == msg) {
            return Err("FileData does not survive encode/decode".into());
        }
    }
    let store = FileStore::create(&root.0, 1).map_err(|e| e.to_string())?;
    store
        .create_file(0, 0, shape.file_bytes)
        .and_then(|_| store.prefetch(0, 0))
        .map_err(|e| format!("micro store: {e}"))?;
    for _ in 0..MICRO_REPS {
        let data = t
            .span("store.read_data", |_| store.read_data(0, 0))
            .map_err(|e| format!("read_data: {e}"))?;
        t.span("store.read_buffer", |_| store.read_buffer(0))
            .map_err(|e| format!("read_buffer: {e}"))?;
        std::hint::black_box(t.span("disk_model.crc32", |_| crc32(&data)));
    }
    let cfg = shape.cluster_config(&root.0);
    let clock = VirtualClock::start(cfg.time_scale);
    let spinup = SimDuration::from_secs_f64(cfg.disk_spec.t_spinup_s);
    for _ in 0..MICRO_REPS {
        t.span("clock.spinup_sleep", |_| clock.sleep_virtual(spinup));
    }
    Ok(())
}
