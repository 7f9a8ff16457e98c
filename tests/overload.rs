//! End-to-end overload-control tests: a real cluster driven ≥2× past its
//! admission capacity must shed instead of queueing unboundedly, the shed
//! ledger must close exactly in the server's stats, and stepping the
//! brownout ladder must change which requests are served.

use eevfs::overload::{shed_code, OverloadOptions};
use eevfs_runtime::proto::Message;
use eevfs_runtime::{loadgen, ClusterHandle, GetOutcome, LoadConfig, RuntimeConfig};
use sim_core::SimDuration;
use std::time::Duration;
use workload::synthetic::{generate, SizeDist, SyntheticSpec};

fn small_trace(files: u32, requests: u32, mu: f64) -> workload::record::Trace {
    generate(&SyntheticSpec {
        files,
        requests,
        mu,
        mean_size_bytes: 32 * 1024,
        size_dist: SizeDist::Fixed,
        inter_arrival: SimDuration::from_millis(700),
        ..SyntheticSpec::paper_default()
    })
}

fn overloaded_config(tag: &str, max_inflight: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::small(tag);
    cfg.resilience.overload = OverloadOptions::bounded(max_inflight);
    cfg
}

/// Saturation: many more closed-loop clients than admission slots. The
/// campaign must terminate (no deadlock), some requests must be refused
/// or shed rather than queued, the admitted requests must see bounded
/// latency, and the server's ledger must close exactly.
#[test]
fn saturation_sheds_instead_of_queueing() {
    // 8 files hammered through a 64-request trace: every file the storm
    // can touch lands in the top-k prefetch set, so admitted requests
    // are buffer hits and complete even if the ladder sits at L1
    // (buffer-only serving) for the whole storm. Requesting unbuffered
    // files here would make `completed > 0` a race against the climb.
    let trace = small_trace(8, 64, 1.2);
    // 2 admission slots, 8 closed-loop clients with zero think time:
    // offered concurrency is 4× the gate — well past 2× saturation.
    let mut cluster =
        ClusterHandle::start(overloaded_config("saturate", 2), &trace).expect("start");
    let addr = cluster.server_addr().expect("addr");

    let report = loadgen::run(
        addr,
        &LoadConfig {
            clients: 8,
            requests_per_client: 12,
            think: Duration::ZERO,
            deadline_us: 0,
            files: 8,
            seed: 11,
            request_timeout: Duration::from_secs(20),
        },
    );

    assert!(report.ledger_closes(), "client ledger open: {report:?}");
    assert_eq!(report.sent, 8 * 12, "every request should be offered");
    assert!(report.completed > 0, "nothing completed: {report:?}");
    assert!(
        report.busy + report.shed > 0,
        "4x overload should refuse or shed something: {report:?}"
    );
    assert_eq!(report.errors, 0, "no request may time out: {report:?}");
    // Bounded p99 for admitted traffic: with 2 inflight slots and small
    // files the in-service time is milliseconds; 5 s means "queued
    // unboundedly" under any CI weather.
    assert!(
        report.percentile(0.99) < Duration::from_secs(5),
        "p99 {:?} looks like unbounded queueing",
        report.percentile(0.99)
    );

    // Server-side ledger closes exactly: offered == admitted + rejected +
    // shed, and admitted == completed + node_shed + request_errors.
    let stats = cluster.stats().expect("stats");
    assert_eq!(
        stats.offered,
        stats.admitted + stats.rejected + stats.shed,
        "admission ledger open: {stats:?}"
    );
    assert_eq!(
        stats.admitted,
        stats.completed + stats.node_shed + stats.request_errors,
        "post-admission ledger open: {stats:?}"
    );
    // The loadgen's refusals are the server's rejected+shed (the handle's
    // own setup ops all complete, adding only to offered/admitted).
    assert_eq!(report.busy, stats.rejected, "Busy vs rejected: {stats:?}");
    assert!(
        stats.queue_peak <= 2,
        "queue peak {} exceeded the admission bound",
        stats.queue_peak
    );
    cluster.shutdown();
}

/// Under saturation the gate climbs the brownout ladder; the transition
/// counter must record it and relief must step it back down (hysteresis),
/// after which low-priority requests are admitted again.
#[test]
fn brownout_ladder_climbs_and_recovers() {
    let trace = small_trace(8, 6, 2.0);
    let mut cluster = ClusterHandle::start(overloaded_config("ladder", 2), &trace).expect("start");
    let addr = cluster.server_addr().expect("addr");

    let report = loadgen::run(
        addr,
        &LoadConfig {
            clients: 6,
            requests_per_client: 10,
            think: Duration::ZERO,
            deadline_us: 0,
            files: 8,
            seed: 3,
            request_timeout: Duration::from_secs(20),
        },
    );
    assert!(report.ledger_closes(), "{report:?}");

    let stats = cluster.stats().expect("stats");
    assert!(
        stats.brownout_transitions > 0,
        "saturation never moved the ladder: {stats:?}"
    );

    // After the storm the gate may still sit at L2: stepping down takes
    // `relief_needed` *consecutive* idle observations, and every offer —
    // refused or not — is one observation. Probe until the ladder has
    // relaxed enough to admit and serve a low-priority request again;
    // each refusal feeds the hysteresis counter that unlocks the next.
    let mut served = false;
    for _ in 0..30 {
        match cluster.get_with(0, 0, 0).expect("post-storm get") {
            GetOutcome::Data(res) => {
                assert!(!res.data.is_empty());
                served = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert!(served, "ladder never relaxed after the storm");
    cluster.shutdown();
}

/// Deadline budgets shed deterministically: a microscopic budget expires
/// before routing, so the request comes back `Shed` with the deadline
/// code and the miss is visible in the stats.
#[test]
fn expired_deadline_budget_is_shed_not_served() {
    let trace = small_trace(8, 6, 2.0);
    let mut cluster =
        ClusterHandle::start(overloaded_config("deadline", 4), &trace).expect("start");

    // Warm path first: a sane budget is served.
    match cluster.get_with(0, 5_000_000, 3).expect("sane budget") {
        GetOutcome::Data(res) => assert!(!res.data.is_empty()),
        other => panic!("healthy request refused: {other:?}"),
    }
    // 1 µs of budget cannot survive the route lock.
    match cluster.get_with(1, 1, 3).expect("tiny budget") {
        GetOutcome::Shed { code, .. } => assert_eq!(code, shed_code::DEADLINE),
        other => panic!("expired budget not shed: {other:?}"),
    }
    let stats = cluster.stats().expect("stats");
    assert!(
        stats.node_shed >= 1,
        "deadline shed not in ledger: {stats:?}"
    );
    assert_eq!(
        stats.admitted,
        stats.completed + stats.node_shed + stats.request_errors,
        "{stats:?}"
    );
    cluster.shutdown();
}

/// With the gate disabled (`max_inflight == 0`, the default) the control
/// plane is inert: nothing is refused and the stats stay all-admitted,
/// i.e. legacy behaviour is preserved bit-for-bit.
#[test]
fn disabled_gate_admits_everything() {
    let trace = small_trace(8, 6, 2.0);
    let mut cluster =
        ClusterHandle::start(RuntimeConfig::small("gate-off"), &trace).expect("start");
    let addr = cluster.server_addr().expect("addr");

    let report = loadgen::run(
        addr,
        &LoadConfig {
            clients: 4,
            requests_per_client: 8,
            think: Duration::ZERO,
            deadline_us: 0,
            files: 8,
            seed: 5,
            request_timeout: Duration::from_secs(20),
        },
    );
    assert!(report.ledger_closes(), "{report:?}");
    assert_eq!(
        report.busy + report.shed,
        0,
        "inert gate refused: {report:?}"
    );
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.completed, report.sent);

    let stats = cluster.stats().expect("stats");
    assert_eq!(stats.rejected + stats.shed, 0, "{stats:?}");
    assert_eq!(stats.offered, stats.admitted, "{stats:?}");
    cluster.shutdown();
}

/// The wire protocol's overload frames survive a loopback round trip at
/// the message level (belt to the proptest braces in `eevfs-runtime`).
#[test]
fn overload_frames_roundtrip_over_tcp() {
    use eevfs_runtime::proto::{read_message, write_message};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let frames = vec![
        Message::Busy {
            retry_after_us: 10_000,
            level: 2,
        },
        Message::Shed {
            req_id: 42,
            code: shed_code::PRIORITY,
            level: 3,
        },
        Message::Brownout { level: 1 },
    ];
    let send = frames.clone();
    let writer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        for f in &send {
            write_message(&mut s, f).expect("write");
        }
    });
    let (mut conn, _) = listener.accept().expect("accept");
    for want in &frames {
        let got = read_message(&mut conn).expect("read");
        assert_eq!(&got, want);
    }
    writer.join().expect("writer");
}
