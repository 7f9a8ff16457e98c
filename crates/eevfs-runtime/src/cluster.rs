//! Whole-cluster orchestration and the client API.
//!
//! [`ClusterHandle::start`] brings up the storage nodes and the server in
//! background threads, runs the setup flow against a trace, and exposes
//! the client view: [`ClusterHandle::get`] fetches one file through the
//! full server→node→client push path; [`ClusterHandle::replay`] replays a
//! trace sequentially with scaled inter-arrival delays (the prototype's
//! single-threaded trace replayer) and reports response times plus the
//! cluster's virtual-energy statistics.
//!
//! ## The client
//!
//! Every operation goes through one `client::Client`, the same
//! one [`crate::loadgen`] runs: one server connection whose replies the
//! calling thread reads under [`RuntimeConfig::client_deadline`], and one
//! push inbox that the nodes' persistent push connections feed. A `get`
//! waits for the server's reply, then takes its node's push by `req_id`.
//! A `put` keeps the paper's per-request pull connection: it binds a
//! listener for the one request, and a helper thread hands the payload to
//! the node that connects while this thread waits for the server's ack.

use crate::client::{refused, Client};
use crate::clock::VirtualClock;
use crate::node::{NodeConfig, NodeDaemon};
use crate::proto::{read_message, write_file_data, write_message, Message};
use crate::server::{ClusterStats, ResilienceOptions, ServerDaemon};
use crate::store::verify_pattern;
use crate::transport::no_delay;
use disk_model::DiskSpec;
use sim_core::SimDuration;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::record::Trace;

/// Prototype cluster configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of storage nodes.
    pub nodes: usize,
    /// Data disks per node.
    pub data_disks_per_node: usize,
    /// Files to prefetch (0 = NPF).
    pub prefetch_k: u32,
    /// Copies per file (clamped to the node count; 1 = the paper's
    /// unreplicated layout). Reads fail over across copies when nodes or
    /// disks are down.
    pub replication: usize,
    /// Disk idle threshold, virtual seconds.
    pub idle_threshold: SimDuration,
    /// Virtual seconds per wall second (use large values in tests).
    pub time_scale: f64,
    /// Root directory for node stores.
    pub root_dir: PathBuf,
    /// Drive model used for power accounting.
    pub disk_spec: DiskSpec,
    /// How long a client operation waits for its callback or server ack
    /// (wall clock) before giving up. Must exceed the server's worst-case
    /// routing time (deadline + backoff) when a retrying policy is set.
    pub client_deadline: Duration,
    /// Server-side resilience: RPC retry/hedge/breaker policy and the
    /// link fault profile.
    pub resilience: ResilienceOptions,
}

impl RuntimeConfig {
    /// A small fast-forwarded cluster for tests and examples: files live
    /// under a unique temp directory, the clock runs 10 000× wall speed.
    pub fn small(tag: &str) -> RuntimeConfig {
        RuntimeConfig {
            nodes: 2,
            data_disks_per_node: 2,
            prefetch_k: 8,
            replication: 1,
            idle_threshold: SimDuration::from_secs(5),
            time_scale: 10_000.0,
            root_dir: std::env::temp_dir()
                .join(format!("eevfs-runtime-{}-{tag}", std::process::id())),
            disk_spec: DiskSpec::ata133_type1(),
            client_deadline: Duration::from_secs(10),
            resilience: ResilienceOptions::default(),
        }
    }
}

/// Result of one `get`.
#[derive(Debug, Clone)]
pub struct GetResult {
    /// File contents: the payload of the node's `FileData` frame, handed
    /// over without a copy.
    pub data: bytes::Bytes,
    /// Wall-clock response time.
    pub response: Duration,
}

/// Outcome of a [`ClusterHandle::get_with`] under the overload control
/// plane: served, refused with backpressure, or shed. Only `Data` carries
/// file contents; the other two are *successful protocol exchanges*
/// (distinct from `Err`, which means the exchange itself failed).
#[derive(Debug, Clone)]
pub enum GetOutcome {
    /// The file was served.
    Data(GetResult),
    /// Admission refused the request; retry after the hint.
    Busy {
        /// Suggested retry delay, microseconds.
        retry_after_us: u64,
        /// Brownout level at the server.
        level: u8,
    },
    /// The control plane shed the request; do not retry it as-is.
    Shed {
        /// Shed reason ([`eevfs::overload::shed_code`]).
        code: u16,
        /// Brownout level at the decision point.
        level: u8,
    },
}

/// Result of a trace replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Wall-clock response time per request, in trace order.
    pub responses: Vec<Duration>,
    /// Aggregated node statistics after the replay.
    pub stats: ClusterStats,
}

impl ReplayReport {
    /// Mean response time, seconds.
    pub fn mean_response_s(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        self.responses.iter().map(|d| d.as_secs_f64()).sum::<f64>() / self.responses.len() as f64
    }

    /// Buffer hit rate over the replay.
    pub fn hit_rate(&self) -> f64 {
        let total = self.stats.hits + self.stats.misses;
        if total == 0 {
            0.0
        } else {
            self.stats.hits as f64 / total as f64
        }
    }
}

/// A running prototype cluster.
pub struct ClusterHandle {
    cfg: RuntimeConfig,
    clock: VirtualClock,
    server: Option<ServerDaemon>,
    nodes: Vec<NodeDaemon>,
    client: Client,
    /// Bumped per revival so each replacement daemon gets a fresh store
    /// directory.
    revival_gen: u32,
    /// Next end-to-end request id; assigned per `get`/`put` and echoed by
    /// the owning node so one id follows client → server → node → client.
    next_req_id: u64,
}

/// The daemon configuration of a node whose store is `root` under the
/// cluster's root directory.
fn node_config(cfg: &RuntimeConfig, clock: &VirtualClock, root: &str) -> NodeConfig {
    NodeConfig {
        root: cfg.root_dir.join(root),
        data_disks: cfg.data_disks_per_node,
        disk_spec: cfg.disk_spec.clone(),
        idle_threshold: cfg.idle_threshold,
        clock: clock.clone(),
    }
}

impl ClusterHandle {
    /// Boots nodes and server and runs the setup flow for `trace`.
    pub fn start(cfg: RuntimeConfig, trace: &Trace) -> io::Result<ClusterHandle> {
        trace
            .validate()
            .map_err(|e| io::Error::other(format!("bad trace: {e}")))?;
        let clock = VirtualClock::start(cfg.time_scale);
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            nodes.push(NodeDaemon::spawn(node_config(
                &cfg,
                &clock,
                &format!("node{i}"),
            ))?);
        }
        let node_addrs: Vec<_> = nodes.iter().map(|n| n.addr).collect();
        let server = ServerDaemon::spawn_resilient(
            &node_addrs,
            vec![cfg.data_disks_per_node; cfg.nodes],
            trace,
            cfg.prefetch_k,
            cfg.replication,
            cfg.resilience.clone(),
        )?;
        let client = Client::connect(server.addr, cfg.client_deadline, true)?;
        Ok(ClusterHandle {
            cfg,
            clock,
            server: Some(server),
            nodes,
            client,
            revival_gen: 0,
            next_req_id: 1,
        })
    }

    /// The server's listen address, for extra client connections (the
    /// closed-loop load generator dials its own workers here).
    pub fn server_addr(&self) -> io::Result<SocketAddr> {
        match &self.server {
            Some(s) => Ok(s.addr),
            None => Err(io::Error::other("server already shut down")),
        }
    }

    fn next_req_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id - 1
    }

    /// Fetches one file end-to-end; verifies nothing (callers can check
    /// [`verify_pattern`]). No deadline budget, default priority; a
    /// backpressure or shed reply surfaces as an error (use
    /// [`ClusterHandle::get_with`] to observe those as typed outcomes).
    pub fn get(&mut self, file: u32) -> io::Result<GetResult> {
        match self.get_with(file, 0, 3)? {
            GetOutcome::Data(r) => Ok(r),
            GetOutcome::Busy { level, .. } => Err(io::Error::other(format!(
                "server busy (brownout level {level})"
            ))),
            GetOutcome::Shed { code, level } => Err(io::Error::other(format!(
                "request shed (code {code}, brownout level {level})"
            ))),
        }
    }

    /// Fetches one file with an explicit deadline budget (microseconds,
    /// 0 = none) and priority (higher is more important; requests with
    /// priority below the configured threshold are shed first under
    /// brownout level 2). Backpressure and shedding come back as typed
    /// outcomes rather than errors.
    pub fn get_with(
        &mut self,
        file: u32,
        deadline_us: u64,
        priority: u8,
    ) -> io::Result<GetOutcome> {
        let req_id = self.next_req_id();
        let start = Instant::now();
        self.client.send_get(req_id, file, deadline_us, priority)?;
        self.client.await_get(req_id, file, start)
    }

    /// Writes a file through the cluster (the node pulls the payload from
    /// us over a connection it opens for this request). Returns the wall
    /// response time. The payload length must equal the file's creation
    /// size.
    pub fn put(&mut self, file: u32, data: &[u8]) -> io::Result<Duration> {
        let req_id = self.next_req_id();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // The feeder answers the node's pull, so this thread can wait for
        // the server's ack, which the node sends only after the pull.
        let (reply, start) = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("eevfs-client-feeder".into())
                .spawn_scoped(scope, || {
                    if let Ok(mut pull) = listener.accept().and_then(|(s, _)| no_delay(s)) {
                        let _ = write_file_data(&mut pull, req_id, file, data);
                    }
                })?;
            let put = Message::Put {
                req_id,
                file,
                client_port: addr.port(),
                deadline_us: 0,
                priority: 3,
            };
            let start = Instant::now();
            let reply = self.client.call(&put);
            // No pull comes once the server has replied; wake the feeder.
            let _ = TcpStream::connect(addr);
            reply.map(|reply| (reply, start))
        })?;
        match reply {
            Message::Ok => Ok(start.elapsed()),
            other => Err(refused(other)),
        }
    }

    /// Fetches and verifies a file's contents against the deterministic
    /// creation pattern.
    pub fn get_verified(&mut self, file: u32) -> io::Result<GetResult> {
        let r = self.get(file)?;
        if !verify_pattern(file, &r.data) {
            return Err(io::Error::other(format!("file {file} failed verification")));
        }
        Ok(r)
    }

    /// Replays a trace sequentially (the prototype's replayer): issues
    /// each read, waits for the response, then sleeps the scaled
    /// inter-arrival gap to the next record. Statistics cover the replay
    /// window only (setup/prefetch energy is excluded, as in the paper's
    /// measurements).
    pub fn replay(&mut self, trace: &Trace) -> io::Result<ReplayReport> {
        let before = self.stats()?;
        let mut responses = Vec::with_capacity(trace.len());
        let mut prev_at = None;
        for r in &trace.records {
            if let Some(prev) = prev_at {
                let gap = r.at - prev;
                if !gap.is_zero() {
                    self.clock.sleep_virtual(gap);
                }
            }
            prev_at = Some(r.at);
            let got = self.get(r.file.0)?;
            responses.push(got.response);
        }
        let stats = self.stats()? - before;
        Ok(ReplayReport { responses, stats })
    }

    /// Sends one admin message to the server and expects `Ok`.
    fn admin(&mut self, msg: &Message, what: &str) -> io::Result<()> {
        match self.client.call(msg) {
            Ok(Message::Ok) => Ok(()),
            Ok(other) => Err(refused(other)),
            Err(e) => Err(e),
        }
        .map_err(|e| io::Error::new(e.kind(), format!("{what}: {e}")))
    }

    /// Failure injection: shuts down one storage node, leaving the rest
    /// of the cluster (and the server) running. With replication, reads
    /// of its files fail over to surviving copies; without, they fail
    /// with a server error.
    pub fn kill_node(&mut self, node: usize) -> io::Result<()> {
        self.admin(&Message::KillNode { node: node as u32 }, "kill_node")
    }

    /// Network-fault injection: cuts the server↔node link for `node`.
    /// The node stays alive but the server's request-path frames to it
    /// are dropped until [`ClusterHandle::heal_node`]; the per-node
    /// circuit breaker trips once the policy's failure threshold is hit.
    pub fn partition_node(&mut self, node: usize) -> io::Result<()> {
        self.admin(
            &Message::PartitionLink { node: node as u32 },
            "partition_node",
        )
    }

    /// Undoes a [`ClusterHandle::partition_node`]; after the breaker's
    /// cooldown, a half-open probe restores routing to the node.
    pub fn heal_node(&mut self, node: usize) -> io::Result<()> {
        self.admin(&Message::HealLink { node: node as u32 }, "heal_node")
    }

    /// Failure injection: marks one data disk failed. Reads that need it
    /// fail over to a replica (or to the node's buffer copy).
    pub fn fail_disk(&mut self, node: usize, disk: usize) -> io::Result<()> {
        self.admin(
            &Message::FailDisk {
                node: node as u32,
                disk: disk as u32,
            },
            "fail_disk",
        )
    }

    /// Undoes a [`ClusterHandle::fail_disk`].
    pub fn repair_disk(&mut self, node: usize, disk: usize) -> io::Result<()> {
        self.admin(
            &Message::RepairDisk {
                node: node as u32,
                disk: disk as u32,
            },
            "repair_disk",
        )
    }

    /// Repair flow: boots a replacement daemon for a killed node (fresh
    /// store directory, same shared clock) and asks the server to
    /// re-register it — the server replays the node's creates, prefetch
    /// and hints, then resumes routing to it.
    pub fn revive_node(&mut self, node: usize) -> io::Result<()> {
        self.revival_gen += 1;
        let root = format!("node{node}-r{}", self.revival_gen);
        self.replace_node(node, &root, "revive_node", |node, port| {
            Message::ReviveNode { node, port }
        })
    }

    /// Crash-recovery flow: boots a replacement daemon for a killed node
    /// over its **original** store directory. The daemon replays the
    /// node's buffer-disk journal at boot — recovering its file map,
    /// buffer catalog, and power arming on its own — and the server is
    /// asked to `Register` it: reconnect, re-send hints, resume routing.
    /// Contrast [`ClusterHandle::revive_node`], which rebuilds a node
    /// from scratch by replaying the server-side setup logs.
    pub fn restart_node(&mut self, node: usize) -> io::Result<()> {
        let root = format!("node{node}");
        self.replace_node(node, &root, "restart_node", |node, port| {
            Message::Register { node, port }
        })
    }

    /// Boots a daemon over store directory `root` in place of node
    /// `node`, sends the server `take_up(node, port)`, and retires the
    /// daemon it replaces.
    fn replace_node(
        &mut self,
        node: usize,
        root: &str,
        what: &str,
        take_up: impl FnOnce(u32, u16) -> Message,
    ) -> io::Result<()> {
        if node >= self.nodes.len() {
            return Err(io::Error::other(format!("{what}: no node {node}")));
        }
        let replacement = NodeDaemon::spawn(node_config(&self.cfg, &self.clock, root))?;
        let port = replacement.addr.port();
        // Swap in place so node index -> daemon stays the invariant and
        // shutdown joins exactly the live set.
        let old = std::mem::replace(&mut self.nodes[node], replacement);
        let res = self.admin(&take_up(node as u32, port), what);
        // Retire the daemon previously at this index. After kill_node it
        // has already exited; on a revive of a live node (double revive)
        // the server just dropped its connection, so it is back in accept
        // and needs an explicit Shutdown — otherwise joining it hangs.
        if !old.is_finished() {
            if let Ok(mut conn) = TcpStream::connect(old.addr) {
                let _ = write_message(&mut conn, &Message::Shutdown);
                let _ = read_message(&mut conn);
            }
        }
        old.join();
        res
    }

    /// Collects cluster-wide statistics.
    pub fn stats(&mut self) -> io::Result<ClusterStats> {
        Ok(self.client.call(&Message::StatsRequest)?.into_stats()?)
    }

    /// Shuts the cluster down and removes its on-disk state. Every thread
    /// the cluster started has exited when this returns.
    ///
    /// # Panics
    ///
    /// If a server thread panicked, this panics in turn once every thread
    /// is joined and the state removed, as `std::thread::scope` does.
    pub fn shutdown(mut self) {
        // Wait for the shutdown echo (or the connection closing).
        if self.client.send(&Message::Shutdown).is_ok() {
            while let Ok(reply) = self.client.reply() {
                if matches!(reply, Message::Shutdown) {
                    break;
                }
            }
        }
        let server = self.server.take().map(ServerDaemon::join);
        for node in self.nodes.drain(..) {
            node.join();
        }
        let _ = std::fs::remove_dir_all(&self.cfg.root_dir);
        if let Some(Err(e)) = server {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::synthetic::{generate, SizeDist, SyntheticSpec};

    fn small_trace(files: u32, requests: u32, mu: f64) -> Trace {
        generate(&SyntheticSpec {
            files,
            requests,
            mu,
            mean_size_bytes: 16 * 1024,
            size_dist: SizeDist::Fixed,
            inter_arrival: SimDuration::from_millis(700),
            ..SyntheticSpec::paper_default()
        })
    }

    #[test]
    fn boots_serves_and_shuts_down() {
        let trace = small_trace(20, 10, 5.0);
        let mut cluster =
            ClusterHandle::start(RuntimeConfig::small("boot"), &trace).expect("start");
        let r = cluster.get_verified(0).expect("get file 0");
        assert_eq!(r.data.len(), 16 * 1024);
        cluster.shutdown();
    }

    /// Every node reaches the client over one persistent push connection:
    /// a hundred reads across both nodes open at most two.
    #[test]
    fn hundred_gets_open_one_push_connection_per_node() {
        let trace = small_trace(20, 10, 5.0);
        let mut cluster =
            ClusterHandle::start(RuntimeConfig::small("onepush"), &trace).expect("start");
        for i in 0..100u32 {
            cluster.get_verified(i % 20).expect("get");
        }
        let stats = cluster.stats().expect("stats");
        assert_eq!(stats.hits + stats.misses, 100, "{stats:?}");
        let accepted = cluster.client.push_connections();
        assert!(
            (1..=2).contains(&accepted),
            "{accepted} push connections for 100 gets on 2 nodes"
        );
        cluster.shutdown();
    }

    #[test]
    fn replay_reports_hits_and_energy() {
        let trace = small_trace(20, 30, 3.0);
        let mut cluster =
            ClusterHandle::start(RuntimeConfig::small("replay"), &trace).expect("start");
        let report = cluster.replay(&trace).expect("replay");
        assert_eq!(report.responses.len(), 30);
        // MU=3 concentrates on a handful of files, all within top-8
        // prefetch: replay should be dominated by buffer hits.
        assert!(
            report.hit_rate() > 0.9,
            "hit rate {} stats {:?}",
            report.hit_rate(),
            report.stats
        );
        assert!(report.stats.disk_joules > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn put_then_get_roundtrips_through_the_buffer() {
        let trace = small_trace(12, 8, 3.0);
        let mut cluster = ClusterHandle::start(RuntimeConfig::small("put"), &trace).expect("start");
        let payload = vec![0x5Au8; 16 * 1024];
        cluster.put(7, &payload).expect("put");
        let got = cluster.get(7).expect("get after put");
        assert_eq!(got.data, payload, "read must observe the write");
        // The write was absorbed by the buffer area, so the read hits.
        let stats = cluster.stats().expect("stats");
        assert!(stats.hits >= 1, "stats {stats:?}");
        cluster.shutdown();
    }

    #[test]
    fn put_with_wrong_size_is_rejected() {
        let trace = small_trace(12, 8, 3.0);
        let mut cluster =
            ClusterHandle::start(RuntimeConfig::small("putbad"), &trace).expect("start");
        let err = cluster.put(7, &[1, 2, 3]).expect_err("size mismatch");
        assert!(err.to_string().contains("3"), "{err}");
        cluster.shutdown();
    }

    #[test]
    fn npf_configuration_never_sleeps() {
        let trace = small_trace(20, 15, 5.0);
        let mut cfg = RuntimeConfig::small("npf");
        cfg.prefetch_k = 0;
        let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");
        let report = cluster.replay(&trace).expect("replay");
        assert_eq!(report.stats.hits, 0);
        assert_eq!(report.stats.spin_ups + report.stats.spin_downs, 0);
        cluster.shutdown();
    }

    #[test]
    fn rpc_spans_follow_the_request_id() {
        use crate::server::{RpcSpan, SpanKind};
        use std::sync::{Arc, Mutex};
        let trace = small_trace(12, 8, 3.0);
        let mut cfg = RuntimeConfig::small("spans");
        let sink = Arc::new(Mutex::new(Vec::new()));
        cfg.resilience.spans = Some(sink.clone());
        let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");
        cluster.get(0).expect("get 0");
        cluster.get(1).expect("get 1");
        cluster.shutdown();
        let spans: Vec<RpcSpan> = sink.lock().expect("sink").clone();
        // Each get produces at least Send then Complete, stamped with the
        // client-assigned id (1-based, monotone) on the same attempt.
        for req_id in [1u64, 2] {
            let of_req: Vec<_> = spans.iter().filter(|s| s.req_id == req_id).collect();
            assert!(
                of_req.iter().any(|s| s.kind == SpanKind::Send),
                "req {req_id} missing Send: {spans:?}"
            );
            let done = of_req
                .iter()
                .find(|s| s.kind == SpanKind::Complete)
                .unwrap_or_else(|| panic!("req {req_id} missing Complete: {spans:?}"));
            assert_eq!(done.attempt, 1, "healthy cluster needs one attempt");
        }
    }

    #[test]
    fn killed_node_restarts_from_its_journal() {
        let trace = small_trace(20, 10, 5.0);
        let mut cfg = RuntimeConfig::small("restart");
        let journal = cfg.root_dir.join("placement.journal");
        cfg.resilience.placement_journal = Some(journal.clone());
        let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");
        // The placement journal tells us which files node 1 owns.
        let placements = crate::server::recover_placements(&journal).expect("recover");
        let victim = placements
            .iter()
            .find(|(_, copies)| copies[0].0 == 1)
            .map(|(&file, _)| file)
            .expect("node 1 owns at least one of 20 files");
        cluster.get_verified(victim).expect("healthy get");

        cluster.kill_node(1).expect("kill");
        assert!(
            cluster.get(victim).is_err(),
            "unreplicated file must be unreachable while its node is down"
        );
        cluster.restart_node(1).expect("restart");
        cluster
            .get_verified(victim)
            .expect("restarted node serves from journal-recovered state");
        let stats = cluster.stats().expect("stats");
        assert_eq!(stats.journal_replays, 1, "stats {stats:?}");
        cluster.shutdown();
    }

    #[test]
    fn corrupt_primary_fails_over_and_is_counted() {
        let trace = small_trace(12, 8, 3.0);
        let mut cfg = RuntimeConfig::small("corrupt");
        cfg.replication = 2;
        cfg.prefetch_k = 0; // force data-disk reads
        let journal = cfg.root_dir.join("placement.journal");
        cfg.resilience.placement_journal = Some(journal.clone());
        let root = cfg.root_dir.clone();
        let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");
        // Rot one byte of file 0's primary copy behind the node's back,
        // leaving its checksum sidecar untouched.
        let placements = crate::server::recover_placements(&journal).expect("recover");
        let (node, disk) = placements[&0][0];
        let path = root
            .join(format!("node{node}"))
            .join(format!("disk{disk}"))
            .join("f00000000");
        let mut data = std::fs::read(&path).expect("read primary copy");
        data[100] ^= 0x01;
        std::fs::write(&path, data).expect("write rot");

        let r = cluster.get_verified(0).expect("replica serves clean data");
        assert_eq!(r.data.len(), 16 * 1024);
        let stats = cluster.stats().expect("stats");
        assert!(stats.corruptions_detected >= 1, "stats {stats:?}");
        assert!(stats.failovers >= 1, "stats {stats:?}");
        cluster.shutdown();
    }

    #[test]
    fn placement_journal_is_reproducible_and_recovers_the_map() {
        let trace = small_trace(20, 15, 4.0);
        let mut journals = Vec::new();
        for tag in ["pj-a", "pj-b"] {
            let mut cfg = RuntimeConfig::small(tag);
            cfg.replication = 2;
            let journal = cfg.root_dir.join("placement.journal");
            cfg.resilience.placement_journal = Some(journal.clone());
            let cluster = ClusterHandle::start(cfg, &trace).expect("start");
            journals.push(std::fs::read(&journal).expect("journal bytes"));
            cluster.shutdown();
        }
        assert_eq!(
            journals[0], journals[1],
            "same trace + config must journal byte-identically"
        );
        let recovered = eevfs::journal::MetaState::from_bytes(&journals[0]).placements;
        assert_eq!(recovered.len(), 20, "every file has a recovered placement");
        for (file, copies) in &recovered {
            assert_eq!(copies.len(), 2, "file {file} must have two copies");
            assert_ne!(
                copies[0].0, copies[1].0,
                "file {file} copies must be on distinct nodes"
            );
        }
    }

    #[test]
    fn resilience_counters_stay_zero_on_a_healthy_cluster() {
        let trace = small_trace(12, 10, 4.0);
        let mut cluster =
            ClusterHandle::start(RuntimeConfig::small("zerores"), &trace).expect("start");
        for file in 0..6u32 {
            cluster.get(file).expect("get");
        }
        let s = cluster.stats().expect("stats");
        assert_eq!(
            (s.retries, s.hedges, s.breaker_trips, s.deadline_misses),
            (0, 0, 0, 0),
            "default policy on a healthy cluster must be invisible: {s:?}"
        );
        cluster.shutdown();
    }
}
