//! No thread outlives its client: the push path's acceptor and reader
//! threads are joined when `loadgen::run` returns, and every thread the
//! cluster started, the server's connection threads included, when
//! `ClusterHandle::shutdown` returns.
//!
//! The check counts this process's threads, so it lives in a test binary
//! of its own with a single test: no concurrently running test can add or
//! remove threads while it counts.

use eevfs_runtime::proto::{read_message, write_message, Message};
use eevfs_runtime::{loadgen, ClusterHandle, LoadConfig, RuntimeConfig};
use sim_core::SimDuration;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use workload::synthetic::{generate, SizeDist, SyntheticSpec};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Waits up to two seconds for the thread count to fall to `want`. Even a
/// joined thread can be listed for a moment: `join` returns when the
/// thread has run to its end, before the kernel removes its task entry
/// (on a 2-vCPU Linux host, a spawn-and-join loop counted one extra
/// thread right after `join` in 271 and 819 of 2000 rounds). After `loadgen::run` the wait also covers
/// the server's connection threads, which exit once they read the
/// client's close, a moment after the client is gone. A thread that
/// never exits (an acceptor left blocked in `accept`, a connection thread
/// waiting on a client that is still connected) keeps the count up for
/// good.
fn settles_to(want: usize) -> usize {
    let until = Instant::now() + Duration::from_secs(2);
    loop {
        let now = threads();
        if now <= want || Instant::now() >= until {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn no_thread_outlives_loadgen_or_shutdown() {
    if threads() == 0 {
        return; // no /proc: nothing to count
    }
    let trace = generate(&SyntheticSpec {
        files: 8,
        requests: 6,
        mu: 2.0,
        mean_size_bytes: 32 * 1024,
        size_dist: SizeDist::Fixed,
        inter_arrival: SimDuration::from_millis(700),
        ..SyntheticSpec::paper_default()
    });
    let before = threads();
    let mut cluster = ClusterHandle::start(RuntimeConfig::small("threads"), &trace).expect("start");
    cluster.get_verified(0).expect("get");
    let running = threads();
    assert!(running > before, "the cluster runs threads");

    let report = loadgen::run(
        cluster.server_addr().expect("addr"),
        &LoadConfig {
            clients: 3,
            requests_per_client: 20,
            think: Duration::ZERO,
            deadline_us: 0,
            files: 8,
            seed: 3,
            request_timeout: Duration::from_secs(20),
        },
    );
    assert_eq!(report.completed, 60, "{report:?}");
    assert_eq!(
        settles_to(running),
        running,
        "loadgen::run left threads behind"
    );

    // A client still connected at shutdown: the server closes its
    // connection and joins the thread that served it.
    let mut idle = TcpStream::connect(cluster.server_addr().expect("addr")).expect("connect");
    write_message(&mut idle, &Message::StatsRequest).expect("send");
    assert!(read_message(&mut idle).expect("reply").into_stats().is_ok());

    cluster.shutdown();
    assert_eq!(settles_to(before), before, "shutdown left threads behind");
    drop(idle);
}
