//! Multi-client closed-loop load generator.
//!
//! The historical measurement path (`ClusterHandle::replay`) is a fully
//! open loop: one client issues requests on the trace's schedule no
//! matter how the cluster is doing — the modelling choice behind the
//! documented deviations from the paper's figures. This module is the
//! closed loop: `clients` worker threads each run
//! *request → response → think time → next request*, so offered load is
//! bounded by concurrency and responds to service times exactly like a
//! population of real clients.
//!
//! Each worker is one `client::Client`, the client
//! [`crate::ClusterHandle`] runs too: one server connection and one push
//! inbox, kept across its requests, which the owning nodes reach over
//! their persistent push connections. A worker sends a `Get`, blocks on
//! the server's reply, then takes its push by `req_id`; a request
//! completes only when both have arrived, and its latency runs from the
//! send to the push's arrival. Refusals (`Busy`), sheds (`Shed`), and
//! errors arrive on the server connection and terminate the request —
//! the control plane's replies are never retried by the generator, so
//! the client-side tallies line up 1:1 with the server's shed ledger.

use crate::client::Client;
use crate::cluster::GetOutcome;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Closed-loop campaign parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients (each a thread).
    pub clients: usize,
    /// Requests each client issues before stopping.
    pub requests_per_client: usize,
    /// Think time between a response and the client's next request.
    pub think: Duration,
    /// Deadline budget stamped on every request, microseconds (0 = none).
    pub deadline_us: u64,
    /// Files to draw from (uniformly, seeded).
    pub files: u32,
    /// Seed for the per-worker file choice.
    pub seed: u64,
    /// Per-request hard wall-clock timeout (a stuck request is counted as
    /// an error rather than hanging its worker).
    pub request_timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 4,
            requests_per_client: 25,
            think: Duration::from_millis(1),
            deadline_us: 0,
            files: 16,
            seed: 7,
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// Aggregated campaign results (client-side view of the shed ledger).
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests sent (client-side offered load).
    pub sent: u64,
    /// Requests served with data.
    pub completed: u64,
    /// Requests refused with `Busy`.
    pub busy: u64,
    /// Requests shed by the control plane.
    pub shed: u64,
    /// Requests that errored or timed out.
    pub errors: u64,
    /// Wall-clock latency of each completed request.
    pub latencies: Vec<Duration>,
    /// Campaign wall-clock duration.
    pub elapsed: Duration,
}

impl LoadReport {
    /// The client-side ledger closes exactly:
    /// `sent == completed + busy + shed + errors`.
    pub fn ledger_closes(&self) -> bool {
        self.sent == self.completed + self.busy + self.shed + self.errors
    }

    /// Completed-request latency percentile (`q` in `[0, 1]`), or zero
    /// when nothing completed.
    pub fn percentile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / s
        }
    }
}

/// Per-worker tallies, merged into the [`LoadReport`].
#[derive(Debug, Default)]
struct WorkerTally {
    sent: u64,
    completed: u64,
    busy: u64,
    shed: u64,
    errors: u64,
    latencies: Vec<Duration>,
}

/// Runs a closed-loop campaign against a server and aggregates the
/// worker tallies. Workers that die on a transport error contribute what
/// they measured; their remaining requests are simply never offered, so
/// the client ledger still closes.
pub fn run(server: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    let started = Instant::now();
    let mut handles = Vec::with_capacity(cfg.clients);
    for w in 0..cfg.clients {
        let cfg = cfg.clone();
        let handle = std::thread::Builder::new()
            .name(format!("eevfs-loadgen-{w}"))
            .spawn(move || worker(server, &cfg, w as u64));
        if let Ok(h) = handle {
            handles.push(h);
        }
    }
    let mut report = LoadReport::default();
    for h in handles {
        if let Ok(t) = h.join() {
            report.sent += t.sent;
            report.completed += t.completed;
            report.busy += t.busy;
            report.shed += t.shed;
            report.errors += t.errors;
            report.latencies.extend(t.latencies);
        }
    }
    report.elapsed = started.elapsed();
    report
}

/// One closed-loop client: connect, then request → outcome → think,
/// `requests_per_client` times. The client, its inbox and their threads
/// are gone when this returns.
fn worker(server: SocketAddr, cfg: &LoadConfig, worker_id: u64) -> WorkerTally {
    let mut tally = WorkerTally::default();
    // The generator times the push and has no use for its bytes.
    let Ok(mut client) = Client::connect(server, cfg.request_timeout, false) else {
        return tally;
    };
    // Deterministic per-worker file sequence (xorshift64*).
    let mut rng = cfg
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(worker_id)
        | 1;
    for seq in 0..cfg.requests_per_client {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        let file = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % u64::from(cfg.files.max(1))) as u32;
        let req_id = (worker_id << 32) | seq as u64;
        // Priorities cycle 0–3 (threshold 2 makes half the traffic
        // sheddable at brownout L2) — mirrored by the simulator.
        let priority = (seq % 4) as u8;
        tally.sent += 1;
        let outcome = client
            .send_get(req_id, file, cfg.deadline_us, priority)
            .and_then(|()| {
                let started = Instant::now();
                client.await_get(req_id, file, started)
            });
        match outcome {
            Ok(GetOutcome::Data(got)) => {
                tally.completed += 1;
                tally.latencies.push(got.response);
            }
            Ok(GetOutcome::Busy { .. }) => tally.busy += 1,
            Ok(GetOutcome::Shed { .. }) => tally.shed += 1,
            // An error reply, a timeout, or a mismatched frame ends this
            // request only.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Other | io::ErrorKind::TimedOut | io::ErrorKind::InvalidData
                ) =>
            {
                tally.errors += 1
            }
            // Transport died: count this request and stop the worker.
            Err(_) => {
                tally.errors += 1;
                break;
            }
        }
        if !cfg.think.is_zero() {
            std::thread::sleep(cfg.think);
        }
    }
    tally
}
