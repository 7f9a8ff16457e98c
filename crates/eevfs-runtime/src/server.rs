//! Storage-server daemon.
//!
//! The thin metadata tier of the prototype (§III-A): it owns the
//! file → node map, performs the popularity round-robin placement during
//! setup (steps 1–4 of the process flow), and at run time resolves each
//! client request and forwards it to the owning node (step 5). It never
//! touches file data — responses flow node → client directly.
//!
//! Request forwarding runs under an [`fault_model::RpcPolicy`]: bounded
//! retries with seeded exponential backoff, per-node circuit breakers,
//! optional hedged reads against the next replica, and a
//! [`crate::transport::FaultyTransport`] per node link that can drop,
//! delay, or reset request-path frames (admin-driven partitions and
//! probabilistic link faults). `SimDuration` fields of the policy are
//! interpreted as **wall-clock** durations here; the default options
//! reproduce the historical fail-fast behaviour exactly.

use crate::proto::{read_message, write_message, CodecError, Message, StatsCounters};
use crate::transport::{no_delay, FaultyTransport, SendError};
use eevfs::config::PlacementPolicy;
use eevfs::journal::{encode, JournalRecord, MetaState};
use eevfs::metrics::OverloadStats;
use eevfs::overload::{shed_code, AdmissionGate, AdmitError, Outcome, OverloadOptions};
use eevfs::placement::place;
use eevfs::replication::replicate;
use fault_model::{CircuitBreaker, LinkFaultProfile, NetFaultInjector, NetFaultPlan, RpcPolicy};
use sim_core::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use workload::popularity::PopularityTable;
use workload::record::{FileId, Trace};

/// Poll quantum while racing a hedged read's two in-flight replies.
const HEDGE_POLL: Duration = Duration::from_millis(2);

/// Aggregated statistics: the counters of the nodes' `Stats` replies,
/// summed, plus the server's own, in the same shape the server sends a
/// client. Cumulative from cluster boot; subtract two snapshots to
/// measure a window.
pub type ClusterStats = StatsCounters;

impl std::ops::Sub for ClusterStats {
    type Output = ClusterStats;
    fn sub(self, earlier: ClusterStats) -> ClusterStats {
        // Saturating: a node that died between snapshots takes its
        // counters with it, so the later total can dip below the earlier.
        ClusterStats {
            disk_joules: self.disk_joules - earlier.disk_joules,
            spin_ups: self.spin_ups.saturating_sub(earlier.spin_ups),
            spin_downs: self.spin_downs.saturating_sub(earlier.spin_downs),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            failovers: self.failovers.saturating_sub(earlier.failovers),
            retries: self.retries.saturating_sub(earlier.retries),
            hedges: self.hedges.saturating_sub(earlier.hedges),
            hedges_won: self.hedges_won.saturating_sub(earlier.hedges_won),
            breaker_trips: self.breaker_trips.saturating_sub(earlier.breaker_trips),
            breaker_recoveries: self
                .breaker_recoveries
                .saturating_sub(earlier.breaker_recoveries),
            deadline_misses: self.deadline_misses.saturating_sub(earlier.deadline_misses),
            journal_replays: self.journal_replays.saturating_sub(earlier.journal_replays),
            corruptions_detected: self
                .corruptions_detected
                .saturating_sub(earlier.corruptions_detected),
            offered: self.offered.saturating_sub(earlier.offered),
            admitted: self.admitted.saturating_sub(earlier.admitted),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            shed: self.shed.saturating_sub(earlier.shed),
            node_shed: self.node_shed.saturating_sub(earlier.node_shed),
            completed: self.completed.saturating_sub(earlier.completed),
            request_errors: self.request_errors.saturating_sub(earlier.request_errors),
            brownout_transitions: self
                .brownout_transitions
                .saturating_sub(earlier.brownout_transitions),
            // Peaks are high-water marks, not monotone counters; a window
            // difference is meaningless, so keep the later snapshot's.
            queue_peak: self.queue_peak,
        }
    }
}

/// One step of a request's server-side RPC lifecycle, tagged with the
/// end-to-end request id from the client's frame so traces can nest
/// retries and hedges under the request they serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcSpan {
    /// End-to-end request id (from the `Get`/`Put` frame).
    pub req_id: u64,
    /// Node the step talked to (`u32::MAX` when no node is involved,
    /// e.g. a retry about to re-run candidate selection).
    pub node: u32,
    /// 1-based attempt number; all candidate sends within one routing
    /// pass share it, and each retry starts a new one.
    pub attempt: u32,
    /// What happened.
    pub kind: SpanKind,
}

/// The step kinds an [`RpcSpan`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A request frame went out to a node.
    Send,
    /// The routing pass failed everywhere; a backoff retry follows.
    Retry,
    /// A hedge fired against a second replica.
    Hedge,
    /// A node's reply was accepted as the request's answer.
    Complete,
}

/// Shared sink the server appends [`RpcSpan`]s into when tracing is on.
pub type SpanSink = Arc<Mutex<Vec<RpcSpan>>>;

/// Resilience knobs for the server's request forwarding.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Retry/hedge/breaker policy; durations are wall-interpreted.
    pub policy: RpcPolicy,
    /// Probabilistic per-link faults on request-path sends (injected
    /// delays are wall-interpreted and capped at the per-try timeout).
    pub profile: LinkFaultProfile,
    /// Optional span sink; when set, every request-path send, retry,
    /// hedge, and completion is appended here with its request id.
    pub spans: Option<SpanSink>,
    /// When set, the server journals every placement decision (file →
    /// copy list) to this file during setup, using the same framed-CRC
    /// record format as the node journals. [`recover_placements`] rebuilds
    /// the file → node map from it after a server crash; identical
    /// trace + config produce byte-identical journals.
    pub placement_journal: Option<PathBuf>,
    /// Overload control plane: admission gate + brownout ladder. The
    /// default is disabled (legacy unbounded admission).
    pub overload: OverloadOptions,
}

impl Default for ResilienceOptions {
    /// No retries, no hedging, no injected faults: an effectively
    /// unbounded deadline keeps the legacy fail-fast routing.
    fn default() -> ResilienceOptions {
        ResilienceOptions {
            policy: RpcPolicy::no_retry(SimDuration::from_secs(3600)),
            profile: LinkFaultProfile::none(),
            spans: None,
            placement_journal: None,
            overload: OverloadOptions::default(),
        }
    }
}

/// Rebuilds the file → copy-list map from a placement journal written via
/// [`ResilienceOptions::placement_journal`]. A torn or corrupt tail is
/// truncated, never fatal; the result is exactly the placements the
/// intact prefix recorded, copy order preserved (primary first).
pub fn recover_placements(path: &Path) -> std::io::Result<BTreeMap<u32, Vec<(u32, u32)>>> {
    let bytes = std::fs::read(path)?;
    Ok(MetaState::from_bytes(&bytes).placements)
}

/// Converts a wall-interpreted policy duration.
fn wall(d: SimDuration) -> Duration {
    Duration::from_micros(d.as_micros())
}

struct ServerState {
    /// One fault-gated control link per node.
    links: Vec<FaultyTransport>,
    /// Routing availability. A node is marked down by `KillNode` or by a
    /// transport failure mid-request, and up again by `ReviveNode`.
    node_up: Vec<bool>,
    /// All copies of each file, `(node, disk)`, primary first.
    copies_of_file: HashMap<u32, Vec<(usize, u32)>>,
    /// Reads served by a non-primary copy.
    failovers: u64,
    /// Per-node setup replay logs, so a revived node can be rebuilt:
    /// `CreateFile` arguments, prefetched files, and the hint pattern.
    create_log: Vec<Vec<(u32, u64, u32)>>,
    prefetch_log: Vec<Vec<u32>>,
    hints_log: Vec<Vec<(u64, u32)>>,
    /// Request-forwarding policy (wall-interpreted durations).
    policy: RpcPolicy,
    /// Link fault injection (admin partitions + probabilistic profile).
    injector: NetFaultInjector,
    /// One circuit breaker per node link, fed wall-derived ticks.
    breakers: Vec<CircuitBreaker>,
    /// Wall epoch the breakers' virtual clock counts from.
    epoch: Instant,
    /// Monotone id seeding backoff schedules for frames that carry no
    /// request id (control traffic never routes, so this is a fallback).
    next_request_id: u64,
    /// Span sink plus the request id / attempt the route in progress is
    /// stamping its spans with.
    spans: Option<SpanSink>,
    current_req: u64,
    current_attempt: u32,
    retries: u64,
    hedges: u64,
    hedges_won: u64,
    deadline_misses: u64,
    /// Last brownout level broadcast to the nodes.
    brownout_level: u8,
}

impl ServerState {
    /// Appends a span for the route in progress (no-op without a sink).
    fn span(&self, node: u32, kind: SpanKind) {
        if let Some(sink) = &self.spans {
            if let Ok(mut v) = sink.lock() {
                v.push(RpcSpan {
                    req_id: self.current_req,
                    node,
                    attempt: self.current_attempt,
                    kind,
                });
            }
        }
    }

    /// Wall time since boot on the breakers' `SimTime` axis.
    fn wall_now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Marks a link's transport as failed: breaker tick, and (for real
    /// socket errors) routing removal until revival.
    fn fail_link(&mut self, node: usize, node_died: bool) {
        let now = self.wall_now();
        self.breakers[node].on_failure(now);
        if node_died {
            self.node_up[node] = false;
        }
    }

    /// Raw request/reply exchange bypassing fault injection (setup,
    /// stats, admin, shutdown).
    fn rpc(&mut self, node: usize, msg: &Message) -> Result<Message, CodecError> {
        self.links[node].send_raw(msg)?;
        self.links[node].recv()
    }

    /// Steps 1-4: placement, creation (all `replication` copies),
    /// prefetch, hints.
    fn setup(
        &mut self,
        trace: &Trace,
        prefetch_k: u32,
        disks_per_node: &[usize],
        replication: usize,
        placement_journal: Option<&Path>,
    ) -> Result<(), CodecError> {
        let popularity = PopularityTable::from_trace(trace);
        let plan = place(
            PlacementPolicy::PopularityRoundRobin,
            &popularity,
            disks_per_node,
        );
        let replicas = replicate(&plan, replication.max(1), disks_per_node);

        // Step 3a: create every copy. Primaries go first in popularity
        // order (the node-local disk round-robin is encoded in the plan),
        // then backup copies. Everything lands in the replay log so a
        // revived node can be rebuilt.
        for node in 0..disks_per_node.len() {
            for &file in plan.files_on(node) {
                let size = trace.file_sizes[file.index()];
                let disk = plan.disk_of_file[file.index()];
                self.create_log[node].push((file.0, size, disk));
            }
        }
        for f in 0..replicas.file_count() {
            let copies = replicas.of(FileId(f as u32));
            self.copies_of_file.insert(
                f as u32,
                copies.iter().map(|&(n, d)| (n as usize, d)).collect(),
            );
            for &(node, disk) in &copies[1..] {
                self.create_log[node as usize].push((f as u32, trace.file_sizes[f], disk));
            }
        }

        // Durably record the placement decisions before any node acts on
        // them, so a crashed server can be rebuilt with the same file →
        // node map (file order and copy order are deterministic, making
        // the journal bytes reproducible run-to-run).
        if let Some(path) = placement_journal {
            let mut records = Vec::new();
            for f in 0..replicas.file_count() {
                for &(node, disk) in replicas.of(FileId(f as u32)) {
                    records.push(JournalRecord::Placement {
                        file: f as u32,
                        node,
                        disk,
                    });
                }
            }
            std::fs::write(path, encode(&records))
                .map_err(|_| CodecError::Malformed("placement journal write failed"))?;
        }
        for node in 0..disks_per_node.len() {
            for &(file, size, disk) in &self.create_log[node].clone() {
                match self.rpc(node, &Message::CreateFile { file, size, disk })? {
                    Message::Ok => {}
                    other => {
                        return Err(CodecError::Malformed(match other {
                            Message::Err { .. } => "node failed to create file",
                            _ => "unexpected reply to CreateFile",
                        }))
                    }
                }
            }
        }

        // Step 3b: prefetch the global top-K on each file's primary.
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); disks_per_node.len()];
        for &file in popularity.top_k(prefetch_k as usize) {
            per_node[plan.node_of_file[file.index()] as usize].push(file.0);
        }
        self.prefetch_log = per_node.clone();
        for (node, files) in per_node.into_iter().enumerate() {
            if files.is_empty() {
                continue;
            }
            match self.rpc(node, &Message::Prefetch { files })? {
                Message::Ok => {}
                _ => return Err(CodecError::Malformed("node failed to prefetch")),
            }
        }

        // Step 4: forward each node its expected *physical* pattern.
        let mut patterns: Vec<Vec<(u64, u32)>> = vec![Vec::new(); disks_per_node.len()];
        for r in &trace.records {
            let node = plan.node_of_file[r.file.index()] as usize;
            if !self.prefetch_log[node].contains(&r.file.0) {
                patterns[node].push((r.at.as_micros(), r.file.0));
            }
        }
        self.hints_log = patterns.clone();
        for (node, pattern) in patterns.into_iter().enumerate() {
            match self.rpc(node, &Message::Hints { pattern })? {
                Message::Ok => {}
                _ => return Err(CodecError::Malformed("node rejected hints")),
            }
        }
        Ok(())
    }

    /// Step 5: resolve and forward one client request (read or write)
    /// under the RPC policy: replica failover, circuit-breaker gating,
    /// optional hedging, then bounded backoff retries until the deadline.
    fn route(&mut self, msg: Message) -> Message {
        // Seed the deterministic backoff with the client's end-to-end
        // request id (every routable frame carries one; the monotone
        // counter covers anything that doesn't).
        let rid = msg.req_id().unwrap_or(self.next_request_id);
        self.next_request_id += 1;
        self.current_req = rid;
        let deadline = wall(self.policy.deadline);
        let started = Instant::now();
        let mut retry = 0usize;
        loop {
            self.current_attempt = retry as u32 + 1;
            match self.route_once(&msg, started) {
                Ok(reply) => return reply,
                Err(last) => {
                    let give_up = |state: &mut ServerState| {
                        state.deadline_misses += 1;
                        last.map_or(Message::Err { code: 2 }, |b| *b)
                    };
                    let Some(delay) = self.policy.backoff_delay(rid, retry) else {
                        return give_up(self);
                    };
                    let d = wall(delay);
                    if started.elapsed() + d >= deadline {
                        return give_up(self);
                    }
                    // The span carries the attempt the retry opens.
                    self.current_attempt = retry as u32 + 2;
                    self.span(u32::MAX, SpanKind::Retry);
                    std::thread::sleep(d);
                    self.retries += 1;
                    retry += 1;
                }
            }
        }
    }

    /// One pass over the healthy, breaker-admitted copies. `Ok` carries a
    /// terminal reply; `Err` means every copy failed transiently (with
    /// the last node-level error, if any, for the give-up reply).
    fn route_once(
        &mut self,
        msg: &Message,
        started: Instant,
    ) -> Result<Message, Option<Box<Message>>> {
        let (file, is_read) = match msg {
            Message::Get { file, .. } => (*file, true),
            Message::Put { file, .. } => (*file, false),
            _ => return Ok(Message::Err { code: 3 }),
        };
        let Some(copies) = self.copies_of_file.get(&file).cloned() else {
            return Ok(Message::Err { code: 1 });
        };
        // Writes go to the primary only (§III-C write buffering is a
        // per-node affair; the prototype does not propagate writes to
        // backups, so failing a write over would fork the copies).
        let tries = if is_read { copies.len() } else { 1 };
        let mut candidates = Vec::with_capacity(tries);
        let now = self.wall_now();
        for &(node, _disk) in copies.iter().take(tries) {
            // `allows` doubles as the half-open admission: an open breaker
            // past its cooldown turns half-open, and a half-open breaker
            // lets every request through until the first success closes
            // it or the first failure re-trips it.
            if self.node_up[node] && self.breakers[node].allows(now) {
                candidates.push(node);
            }
        }
        let mut last = None;
        for (i, &node) in candidates.iter().enumerate() {
            // Hedge only the first attempt of a read, against the next
            // admitted copy.
            let hedge_with = if is_read && i == 0 && self.policy.hedge_after.is_some() {
                candidates.get(1).copied()
            } else {
                None
            };
            match self.exchange(node, msg, hedge_with, started) {
                Ok(Message::Err {
                    code: code @ (1 | 2),
                }) => {
                    // This copy cannot serve (failed disk, lost file);
                    // transient from the route's point of view.
                    last = Some(Box::new(Message::Err { code }));
                }
                Ok(reply) => {
                    // Busy/Shed are terminal refusals, not served data: a
                    // backup refusing under brownout is no failover.
                    if node != copies[0].0
                        && !matches!(
                            reply,
                            Message::Err { .. } | Message::Busy { .. } | Message::Shed { .. }
                        )
                    {
                        self.failovers += 1;
                    }
                    self.span(node as u32, SpanKind::Complete);
                    return Ok(reply);
                }
                Err(()) => {}
            }
        }
        Err(last)
    }

    /// One request/reply exchange with node `node`, hedged against
    /// `hedge_with` when the policy arms hedging.
    fn exchange(
        &mut self,
        node: usize,
        msg: &Message,
        hedge_with: Option<usize>,
        started: Instant,
    ) -> Result<Message, ()> {
        let cap = wall(self.policy.per_try_timeout);
        if self.links[node].drain_pending().is_err() {
            self.fail_link(node, true);
            return Err(());
        }
        self.span(node as u32, SpanKind::Send);
        match self.links[node].send(&mut self.injector, msg, cap) {
            Ok(()) => {}
            Err(SendError::Dropped) | Err(SendError::Reset) => {
                // Injected loss: the node never saw the frame. Tick the
                // breaker but keep the node routable — the link may heal.
                self.fail_link(node, false);
                return Err(());
            }
            Err(SendError::Io(_)) => {
                self.fail_link(node, true);
                return Err(());
            }
        }
        if let (Some(h), Some(second)) = (self.policy.hedge_after, hedge_with) {
            return self.race_hedge(node, second, msg, h, started);
        }
        match self.links[node].recv() {
            Ok(reply) => {
                self.breakers[node].on_success();
                Ok(reply)
            }
            Err(_) => {
                self.fail_link(node, true);
                Err(())
            }
        }
    }

    /// The hedged-read race: wait `hedge_after` for the primary, then
    /// issue the same request to `second` and take whichever answers
    /// first. The loser's reply is left on its link's pending ledger.
    fn race_hedge(
        &mut self,
        primary: usize,
        second: usize,
        msg: &Message,
        hedge_after: SimDuration,
        started: Instant,
    ) -> Result<Message, ()> {
        let wait = wall(hedge_after).saturating_sub(started.elapsed());
        // A zero budget means the latency bound is already blown (e.g. an
        // injected delay burned it during the send): hedge immediately.
        if wait > Duration::ZERO {
            match self.links[primary].recv_timeout(wait) {
                Ok(Some(reply)) => {
                    self.breakers[primary].on_success();
                    return Ok(reply);
                }
                Ok(None) => {}
                Err(_) => {
                    self.fail_link(primary, true);
                    return Err(());
                }
            }
        }
        // Primary exceeded the hedge latency bound: race the next copy.
        self.hedges += 1;
        self.span(second as u32, SpanKind::Hedge);
        let cap = wall(self.policy.per_try_timeout);
        let mut hedged = self.links[second].drain_pending().is_ok()
            && self.links[second]
                .send(&mut self.injector, msg, cap)
                .is_ok();
        let mut primary_alive = true;
        let deadline = wall(self.policy.deadline);
        loop {
            if started.elapsed() >= deadline || (!primary_alive && !hedged) {
                if primary_alive {
                    self.links[primary].abandon_reply();
                }
                if hedged {
                    self.links[second].abandon_reply();
                }
                return Err(());
            }
            if primary_alive {
                match self.links[primary].recv_timeout(HEDGE_POLL) {
                    Ok(Some(reply)) => {
                        self.breakers[primary].on_success();
                        if hedged {
                            self.links[second].abandon_reply();
                        }
                        return Ok(reply);
                    }
                    Ok(None) => {}
                    Err(_) => {
                        self.fail_link(primary, true);
                        primary_alive = false;
                    }
                }
            }
            if hedged {
                match self.links[second].recv_timeout(HEDGE_POLL) {
                    Ok(Some(reply)) => {
                        self.breakers[second].on_success();
                        self.hedges_won += 1;
                        if primary_alive {
                            self.links[primary].abandon_reply();
                        }
                        return Ok(reply);
                    }
                    Ok(None) => {}
                    Err(_) => {
                        self.fail_link(second, true);
                        hedged = false;
                    }
                }
            }
        }
    }

    /// Reconnects to a replacement daemon for `node` listening on `port`,
    /// with a fresh breaker (its predecessor's failures say nothing about
    /// it), and resumes routing to it. A revived daemon starts from an
    /// empty store, so with `rebuild` its creates and prefetch are
    /// replayed from the setup logs. A restarted one has replayed its own
    /// journal and needs neither. Both get the hints again: the expected
    /// pattern is a prediction, which no node journals.
    fn take_up(&mut self, node: usize, port: u16, rebuild: bool) -> Result<(), CodecError> {
        let conn = no_delay(TcpStream::connect(SocketAddr::from((
            [127, 0, 0, 1],
            port,
        )))?)?;
        self.links[node].reconnect(conn);
        self.breakers[node] = CircuitBreaker::new(self.policy.breaker);
        let mut replay = Vec::new();
        if rebuild {
            replay.extend(
                self.create_log[node]
                    .iter()
                    .map(|&(file, size, disk)| Message::CreateFile { file, size, disk }),
            );
            let files = self.prefetch_log[node].clone();
            if !files.is_empty() {
                replay.push(Message::Prefetch { files });
            }
        }
        replay.push(Message::Hints {
            pattern: self.hints_log[node].clone(),
        });
        for msg in replay {
            if self.rpc(node, &msg)? != Message::Ok {
                return Err(CodecError::Malformed("replacement node refused its setup"));
            }
        }
        self.node_up[node] = true;
        Ok(())
    }

    /// Lazily broadcasts a changed brownout level to every routable node
    /// (bypassing fault injection — losing a control broadcast to an
    /// injected drop would desynchronise the cluster's degradation
    /// state). Nodes that cannot be reached drop out of routing, exactly
    /// as they would on the next forwarded request.
    fn sync_brownout(&mut self, level: u8) {
        if level == self.brownout_level {
            return;
        }
        for node in 0..self.links.len() {
            if !self.node_up[node] {
                continue;
            }
            if self.rpc(node, &Message::Brownout { level }).is_err() {
                self.node_up[node] = false;
            }
        }
        self.brownout_level = level;
    }

    fn collect_stats(&mut self, gate: OverloadStats) -> Result<ClusterStats, CodecError> {
        let mut total = ClusterStats {
            failovers: self.failovers,
            retries: self.retries,
            hedges: self.hedges,
            hedges_won: self.hedges_won,
            breaker_trips: self.breakers.iter().map(|b| b.trips()).sum(),
            breaker_recoveries: self.breakers.iter().map(|b| b.recoveries()).sum(),
            deadline_misses: self.deadline_misses,
            offered: gate.offered,
            admitted: gate.admitted,
            rejected: gate.rejected,
            shed: gate.shed,
            node_shed: gate.node_shed,
            completed: gate.completed,
            request_errors: gate.failed,
            brownout_transitions: gate.brownout_transitions,
            queue_peak: gate.queue_peak,
            ..ClusterStats::default()
        };
        for node in 0..self.links.len() {
            if !self.node_up[node] {
                continue;
            }
            match self.rpc(node, &Message::StatsRequest) {
                // A wrong-but-well-formed reply propagates as a typed
                // `CodecError::Unexpected` naming both sides.
                Ok(reply) => {
                    let s = reply.into_stats()?;
                    total.disk_joules += s.disk_joules;
                    total.spin_ups += s.spin_ups;
                    total.spin_downs += s.spin_downs;
                    total.hits += s.hits;
                    total.misses += s.misses;
                    total.journal_replays += s.journal_replays;
                    total.corruptions_detected += s.corruptions_detected;
                }
                // A node that died since the last request just drops out
                // of the totals.
                Err(_) => self.node_up[node] = false,
            }
        }
        Ok(total)
    }

    fn shutdown_nodes(&mut self) {
        for node in 0..self.links.len() {
            if self.node_up[node] {
                let _ = self.rpc(node, &Message::Shutdown);
            }
        }
    }
}

/// A running server daemon.
pub struct ServerDaemon {
    /// Address clients talk to.
    pub addr: SocketAddr,
    /// The accept loop; it returns how many connection threads panicked.
    handle: JoinHandle<usize>,
}

impl ServerDaemon {
    /// Connects to the nodes (step 1), performs setup (steps 2–4) with
    /// `replication` copies per file, then serves client requests until it
    /// receives `Shutdown` from a client. Request forwarding runs under
    /// `opts` (retry policy, link fault profile).
    pub fn spawn_resilient(
        node_addrs: &[SocketAddr],
        disks_per_node: Vec<usize>,
        trace: &Trace,
        prefetch_k: u32,
        replication: usize,
        opts: ResilienceOptions,
    ) -> std::io::Result<ServerDaemon> {
        let mut links = Vec::with_capacity(node_addrs.len());
        for (i, addr) in node_addrs.iter().enumerate() {
            links.push(FaultyTransport::new(
                no_delay(TcpStream::connect(addr)?)?,
                i,
            ));
        }
        let n_nodes = node_addrs.len();
        let mut state = ServerState {
            links,
            node_up: vec![true; n_nodes],
            copies_of_file: HashMap::new(),
            failovers: 0,
            create_log: vec![Vec::new(); n_nodes],
            prefetch_log: vec![Vec::new(); n_nodes],
            hints_log: vec![Vec::new(); n_nodes],
            injector: NetFaultInjector::new(opts.profile, NetFaultPlan::none(), n_nodes),
            breakers: vec![CircuitBreaker::new(opts.policy.breaker); n_nodes],
            policy: opts.policy,
            epoch: Instant::now(),
            next_request_id: 0,
            spans: opts.spans,
            current_req: 0,
            current_attempt: 1,
            retries: 0,
            hedges: 0,
            hedges_won: 0,
            deadline_misses: 0,
            brownout_level: 0,
        };
        state
            .setup(
                trace,
                prefetch_k,
                &disks_per_node,
                replication,
                opts.placement_journal.as_deref(),
            )
            .map_err(|e| std::io::Error::other(format!("setup failed: {e}")))?;

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(SharedServer {
            state: Mutex::new(state),
            gate: Mutex::new(AdmissionGate::new(opts.overload)),
            shutting_down: AtomicBool::new(false),
        });
        let handle = std::thread::Builder::new()
            .name("eevfs-server".into())
            .spawn(move || {
                let mut conns = Vec::new();
                let mut panicked = 0;
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok((stream, peer)) = stream
                        .and_then(no_delay)
                        .and_then(|s| Ok((s.try_clone()?, s)))
                    else {
                        continue;
                    };
                    panicked += reap(&mut conns, false);
                    // Thread-per-connection: concurrency is bounded by the
                    // admission gate, not by the accept loop — a refused
                    // request gets its Busy/Shed reply without ever
                    // waiting on the routing lock.
                    let conn_shared = Arc::clone(&shared);
                    if let Ok(conn) = std::thread::Builder::new()
                        .name("eevfs-server-conn".into())
                        .spawn(move || serve_connection(&conn_shared, stream, addr))
                    {
                        conns.push((conn, peer));
                    }
                }
                // Close every connection a client still holds open, so
                // that its thread sees the end of the stream and exits.
                for (_, peer) in &conns {
                    let _ = peer.shutdown(std::net::Shutdown::Both);
                }
                panicked + reap(&mut conns, true)
            })?;
        Ok(ServerDaemon { addr, handle })
    }

    /// Waits for the server thread and every connection thread to exit.
    /// A connection thread that panicked is an error.
    pub fn join(self) -> std::io::Result<()> {
        match self.handle.join() {
            Ok(0) => Ok(()),
            Ok(n) => Err(std::io::Error::other(format!(
                "{n} server connection thread(s) panicked"
            ))),
            Err(_) => Err(std::io::Error::other("the server's accept thread panicked")),
        }
    }
}

/// Joins the connection threads that have exited, or all of them with
/// `all`, and counts those that panicked. Each comes with its socket.
fn reap(conns: &mut Vec<(JoinHandle<()>, TcpStream)>, all: bool) -> usize {
    conns
        .extract_if(.., |(conn, _)| all || conn.is_finished())
        .map(|(conn, _)| conn.join())
        .filter(Result::is_err)
        .count()
}

/// Shared server context: routing state, the admission gate (under its
/// own lock, so admission refusals never wait on a routing pass), and the
/// shutdown latch.
struct SharedServer {
    state: Mutex<ServerState>,
    gate: Mutex<AdmissionGate>,
    shutting_down: AtomicBool,
}

/// Mutex lock that survives a poisoned peer: a panicked handler thread
/// must not wedge every other connection.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Suggested client retry delay quoted in server-side `Busy` replies.
const SERVER_RETRY_AFTER_US: u64 = 5_000;

/// Serves one client connection until it closes or the cluster shuts
/// down. Admitted `Get`/`Put` requests serialise on the routing lock —
/// the runtime analogue of the simulated server's serial service queue —
/// while admission decisions take only the gate lock.
fn serve_connection(shared: &SharedServer, mut stream: TcpStream, self_addr: SocketAddr) {
    while let Ok(msg) = read_message(&mut stream) {
        let arrived = Instant::now();
        let reply = match msg {
            msg @ (Message::Get { .. } | Message::Put { .. }) => {
                route_admitted(shared, msg, arrived)
            }
            Message::StatsRequest => {
                let gate = *lock(&shared.gate).stats();
                match lock(&shared.state).collect_stats(gate) {
                    Ok(counters) => Message::Stats { counters },
                    Err(_) => Message::Err { code: 2 },
                }
            }
            Message::KillNode { node } => {
                let n = node as usize;
                let mut state = lock(&shared.state);
                if n < state.links.len() {
                    // Best effort: the node acks Shutdown and its thread
                    // exits. Routing skips it from here on.
                    let _ = state.rpc(n, &Message::Shutdown);
                    state.node_up[n] = false;
                    Message::Ok
                } else {
                    Message::Err { code: 3 }
                }
            }
            Message::PartitionLink { node } | Message::HealLink { node } => {
                let (node, up) = (node as usize, matches!(msg, Message::HealLink { .. }));
                let mut state = lock(&shared.state);
                if node < state.links.len() {
                    state.injector.set_link(node, up);
                    Message::Ok
                } else {
                    Message::Err { code: 3 }
                }
            }
            Message::FailDisk { node, .. } | Message::RepairDisk { node, .. } => {
                let node = node as usize;
                let mut state = lock(&shared.state);
                if node < state.links.len() && state.node_up[node] {
                    state.rpc(node, &msg).unwrap_or(Message::Err { code: 2 })
                } else {
                    Message::Err { code: 3 }
                }
            }
            Message::ReviveNode { node, port } | Message::Register { node, port } => {
                let rebuild = matches!(msg, Message::ReviveNode { .. });
                let n = node as usize;
                let mut state = lock(&shared.state);
                if n < state.links.len() {
                    match state.take_up(n, port, rebuild) {
                        Ok(()) => Message::Ok,
                        Err(_) => Message::Err { code: 2 },
                    }
                } else {
                    Message::Err { code: 3 }
                }
            }
            Message::Shutdown => {
                shared.shutting_down.store(true, Ordering::SeqCst);
                lock(&shared.state).shutdown_nodes();
                let _ = write_message(&mut stream, &Message::Shutdown);
                // Unblock the accept loop so the daemon thread exits.
                let _ = TcpStream::connect(self_addr);
                return;
            }
            _ => Message::Err { code: 3 },
        };
        if write_message(&mut stream, &reply).is_err() {
            break;
        }
    }
}

/// Step 5 under the overload control plane: admission, hop-by-hop
/// deadline shrinking, brownout broadcast, routing, and the release of
/// the slot, booking the reply's [`Outcome`].
fn route_admitted(shared: &SharedServer, msg: Message, arrived: Instant) -> Message {
    let req_id = msg.req_id().unwrap_or(0);
    let priority = match &msg {
        Message::Get { priority, .. } | Message::Put { priority, .. } => *priority,
        _ => 3,
    };
    let level = {
        let mut gate = lock(&shared.gate);
        match gate.try_admit(priority) {
            Ok(()) => gate.level(),
            Err(AdmitError::Busy) => {
                return Message::Busy {
                    retry_after_us: SERVER_RETRY_AFTER_US,
                    level: gate.level(),
                }
            }
            Err(AdmitError::PriorityShed) => {
                return Message::Shed {
                    req_id,
                    code: shed_code::PRIORITY,
                    level: gate.level(),
                }
            }
        }
    };
    let shed = |req_id, code, level| {
        (
            Message::Shed {
                req_id,
                code,
                level,
            },
            Outcome::NodeShed,
        )
    };
    let (reply, outcome) = {
        let mut state = lock(&shared.state);
        state.sync_brownout(level);
        match shrink_deadline(msg, arrived) {
            Err(req_id) => {
                // The budget drained while queued for the routing lock.
                state.deadline_misses += 1;
                shed(req_id, shed_code::DEADLINE, level)
            }
            Ok(msg) => match state.route(msg) {
                // A node refusing under brownout becomes a typed Shed so
                // the client can tell "degraded, don't retry here" from
                // "server full, back off and retry".
                Message::Busy { level, .. } => shed(req_id, shed_code::DOWNSTREAM, level),
                reply @ Message::Shed { .. } => (reply, Outcome::NodeShed),
                reply @ Message::Err { .. } => (reply, Outcome::Failed),
                reply => (reply, Outcome::Completed),
            },
        }
    };
    lock(&shared.gate).release(outcome);
    reply
}

/// Shrinks a request's deadline budget by the time it has already spent
/// inside this server (admission plus routing-lock wait). `Err` carries
/// the request id of an already-expired budget. At least 1 us is always
/// charged: truncating a sub-microsecond hop to zero would let a 1 us
/// budget ride through for free on a fast enough machine, making the
/// shed/serve outcome depend on host speed instead of the budget.
fn shrink_deadline(msg: Message, arrived: Instant) -> Result<Message, u64> {
    let elapsed = (arrived.elapsed().as_micros() as u64).max(1);
    match msg {
        Message::Get {
            req_id,
            file,
            client_port,
            deadline_us,
            priority,
        } if deadline_us > 0 => {
            if elapsed >= deadline_us {
                Err(req_id)
            } else {
                Ok(Message::Get {
                    req_id,
                    file,
                    client_port,
                    deadline_us: deadline_us - elapsed,
                    priority,
                })
            }
        }
        Message::Put {
            req_id,
            file,
            client_port,
            deadline_us,
            priority,
        } if deadline_us > 0 => {
            if elapsed >= deadline_us {
                Err(req_id)
            } else {
                Ok(Message::Put {
                    req_id,
                    file,
                    client_port,
                    deadline_us: deadline_us - elapsed,
                    priority,
                })
            }
        }
        other => Ok(other),
    }
}
