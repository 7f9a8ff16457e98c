//! Whole-cluster simulation driver (§IV-A process flow, §VI experiments).
//!
//! [`simulate`] replays a [`Scenario`] — a trace, a simulated EEVFS
//! cluster, and its power, fault, resilience, and durability planes — and
//! returns the paper's metrics; [`run_cluster`] is its healthy-cluster
//! shorthand. The resilience, durability and observation planes are
//! always present; one the scenario leaves off (or, for observation, a
//! run without a recorder) is disengaged and schedules no event. The run
//! follows the paper's six steps:
//!
//! 1. **Init** — storage nodes built from the cluster spec.
//! 2. **Popularity** — the server derives popularity from the trace (its
//!    append-only request log).
//! 3. **Create + prefetch** — files placed node- and disk-round-robin in
//!    popularity order; the prefetch warm-up copies the top-K files into
//!    buffer disks (data-disk reads + buffer-disk log writes), and the
//!    trace replay starts once the warm-up completes.
//! 4. **Hints** — the expected per-disk access pattern is handed to the
//!    policy plane, which makes every sleep decision.
//! 5. **Requests** — clients submit; the server resolves file → node and
//!    forwards (a serialised stage) through the routing-and-resilience
//!    plane (`driver::resilience`).
//! 6. **Responses** — the node serves from buffer or data disk and streams
//!    the file back to the client over its NIC; `driver::durability`
//!    verifies and scrubs each data-disk access that serves a request.
//!
//! Everything is event-driven over the deterministic queue from
//! `sim-core`; a run is a pure function of its scenario. `driver::observe`
//! records the run from inside the handlers and folds it into an
//! [`ObsReport`] at the end, without scheduling an event.

// Fault-path audit (ISSUE 7): input rejection goes through `DriverError`;
// `.unwrap()` is banned here so new code can't reintroduce silent panics.
// The remaining `.expect()` sites assert internal simulator invariants
// (an SSD tier hit implies an SSD disk, every request is answered) whose
// failure means a simulator bug, not bad input — the chaos executor
// converts those unwinds into engine-panic violations.
#![warn(clippy::unwrap_used)]

mod durability;
mod observe;
mod overload;
mod resilience;

use crate::buffer::BufferCatalog;
use crate::config::{BufferPolicy, ClusterSpec, EevfsConfig};
use crate::metadata::ServerMetadata;
use crate::metrics::{NodeMetrics, PrefetchStats, ResponseStats, RunMetrics};
use crate::placement::{place, PlacementPlan};
use crate::power::paper_plane;
use crate::prefetch::{plan_topk, predict_benefit, PrefetchPlan};
use crate::replication::{replicate, ReplicaPlan};
use crate::server::StorageServer;
use disk_model::perf::AccessKind;
use disk_model::{breakeven_time, Disk, TransitionCounts};
use durability::DurabilityPlane;
pub use durability::DurabilitySetup;
use eevfs_obs::{EventKind, PredictionSample, PredictionTracker, Recorder};
use eevfs_power::{dram_service_time, IdleVerdict, PolicyPlane, TierStats};
use fault_model::{FaultEvent, FaultKind, FaultPlan, HealthTracker};
use net_model::message::control_message_time;
use net_model::Nic;
use observe::ObsPlane;
pub use observe::ObsReport;
use overload::{Admission, OverloadPlane};
use resilience::ResiliencePlane;
pub use resilience::ResilienceSetup;
use sim_core::{Engine, EventQueue, Model, SimDuration, SimTime};
use workload::popularity::PopularityTable;
use workload::record::{Op, Trace};

/// One storage node's live state.
struct NodeState {
    buffer_disk: Disk,
    data_disks: Vec<Disk>,
    catalog: BufferCatalog,
    nic: Nic,
    /// Server → node control-message time.
    ctl_in: SimDuration,
    /// SSD buffer tier (`eevfs-power`): present only when the run's
    /// `PowerPolicy` sizes one. Tier hits land here instead of waking a
    /// data disk.
    ssd: Option<Disk>,
}

/// Per-request bookkeeping.
#[derive(Clone, Copy)]
struct ReqState {
    /// Nominal (trace) time of the request, shifted by the warm-up.
    trace_at: SimTime,
    /// Actual submission time (equals `trace_at` under open loop).
    submitted: SimTime,
    node: usize,
    /// Local data disk of the replica serving this request (the primary's
    /// placement disk unless a redirect chose another copy).
    disk: usize,
    op: Op,
    size: u64,
    file: workload::record::FileId,
    from_buffer: bool,
    spun_up: bool,
    /// Routing attempts so far; bounded by `MAX_ROUTE_ATTEMPTS`.
    attempts: u32,
    /// RPC-level retries consumed (drops, resets, per-try timeouts).
    rpc_tries: u32,
    /// `Some(original)` for a hedge flight: it races the original and
    /// records its response into the original's slot.
    mirror_of: Option<u32>,
    /// A hedge has been armed for this request (at most one per request).
    hedge_armed: bool,
    response_s: Option<f64>,
    /// Request priority (0 = lowest), cycling 0–3 by trace index — the
    /// same assignment the runtime load generator stamps, so L2 sheds
    /// the same half of the traffic in both worlds.
    priority: u8,
    /// Standing with the overload plane, written at the gate and at the
    /// terminal site.
    admission: Admission,
}

/// Simulation events.
enum Ev {
    /// Client issues a request (sets its submission time; closed-loop
    /// chains these off completions).
    Issue(u32),
    /// Request reached the server.
    ServerArrive(u32),
    /// Server finished metadata handling; forward to the node.
    ServerDone { req: u32, node: u32 },
    /// Request reached its storage node.
    NodeArrive(u32),
    /// Disk service complete.
    DiskDone(u32),
    /// NIC transfer complete.
    NicDone(u32),
    /// MAID copy-in at the moment the miss read completed.
    MaidFill(u32),
    /// A fault-plan event comes due (the health tracker's own cursor
    /// knows which).
    Fault,
    /// A network fault-plan event (partition/heal) comes due.
    NetFault,
    /// A dropped RPC flight's per-try timeout expired; retry or give up.
    RpcLost(u32),
    /// The hedge timer for a read fired; race a second replica if the
    /// response is still outstanding.
    Hedge(u32),
    /// Power-management check for a data disk.
    SleepCheck {
        node: u16,
        disk: u16,
        generation: u64,
        /// False: evaluate the policy; true: a timer armed earlier has
        /// expired and the disk slept through the whole threshold.
        armed: bool,
    },
}

struct ClusterSim<'a> {
    cfg: EevfsConfig,
    server: StorageServer,
    nodes: Vec<NodeState>,
    placement: PlacementPlan,
    replicas: ReplicaPlan,
    health: HealthTracker,
    /// Network faults, RPC retries, hedges and breakers on the
    /// server→node leg; disengaged on a perfect network.
    resilience: ResiliencePlane<'a>,
    prefetch_member: Vec<bool>,
    reqs: Vec<ReqState>,
    /// Client -> server control-message time.
    ctl_client_server: SimDuration,
    /// Closed-loop state: gap before request i (from the trace) and the
    /// next request index to chain.
    closed_loop: bool,
    arrival_gaps: Vec<SimDuration>,
    next_issue: usize,
    // Counters.
    spun_up_requests: u64,
    writes_buffered: u64,
    destages: u64,
    maid_fills: u64,
    responses_recorded: u64,
    fault_events: u64,
    replica_redirects: u64,
    spin_up_failures: u64,
    failed_requests: u64,
    // Observability.
    /// Predicted-vs-realised idle-window ledger. Always on — it only does
    /// work when the power manager actually sleeps a disk, and it never
    /// feeds back into scheduling.
    pred: PredictionTracker,
    /// Per-data-disk breakeven time, indexed `[node][disk]`.
    breakeven: Vec<Vec<SimDuration>>,
    /// Trace and metrics capture; disengaged without a recorder.
    obs: ObsPlane,
    /// Corruption detection and repair, scrubbing and the metadata
    /// journals; disengaged without a durability setup.
    dur: DurabilityPlane,
    /// Power/caching policy plane (`eevfs-power`): makes every sleep
    /// decision and fronts the read path with DRAM/SSD tier lookups.
    /// Without an explicit policy it is the paper's plane, built from
    /// `cfg` (no tiers, unlimited spin budgets).
    plane: PolicyPlane,
    /// Whether the plane may sleep disks this run; when false no sleep
    /// check is ever scheduled.
    power_engaged: bool,
    /// The server's admission gate and brownout ladder; disengaged
    /// without `overload` options, leaving admission unbounded.
    overload: OverloadPlane,
}

impl ClusterSim<'_> {
    /// Performs one physical data-disk access: whole-file on the home
    /// disk, or striped `size / n` chunks across every disk of the node
    /// (§VII). Returns `(finish, paid_a_spin_up)`.
    fn physical_io(
        &mut self,
        node: usize,
        home_disk: usize,
        size: u64,
        kind: AccessKind,
        now: SimTime,
    ) -> (SimTime, bool) {
        let disks = self.touched_disks(node, home_disk);
        let chunk = size.div_ceil(disks.len() as u64);
        let (mut finish, mut spun) = (now, false);
        for d in disks {
            self.feed_idle_gap(node, d, now);
            let comp = self.nodes[node].data_disks[d].submit(now, chunk, kind);
            finish = finish.max(comp.finish);
            spun |= comp.spun_up;
            if comp.spun_up {
                self.note_wake(node, d, now);
            }
        }
        (finish, spun)
    }

    /// The data disks a physical access to `home_disk` touches: every disk
    /// of the node under striping, else the home disk alone.
    fn touched_disks(&self, node: usize, home_disk: usize) -> std::ops::Range<usize> {
        if self.cfg.striping {
            0..self.nodes[node].data_disks.len()
        } else {
            home_disk..home_disk + 1
        }
    }

    /// Reports the idle window this access ends to the plane's predictor.
    /// Slept-through windows are skipped here — [`Self::note_wake`] scores
    /// those through the prediction ledger, which the plane also sees.
    fn feed_idle_gap(&mut self, node: usize, disk: usize, now: SimTime) {
        let d = &self.nodes[node].data_disks[disk];
        let prev_busy = d.busy_until();
        if d.is_sleeping() || now <= prev_busy {
            return;
        }
        self.plane.on_access(node, disk, now.since(prev_busy));
    }

    /// Books a sleep decision: opens a prediction-ledger window and emits
    /// the trace event carrying the predicted window and breakeven time.
    fn note_sleep(&mut self, node: usize, disk: usize, now: SimTime) {
        // The predictor that decided owns the estimate the ledger scores.
        let predicted = self.plane.predicted_idle(node, disk);
        let breakeven = self.breakeven[node][disk];
        self.pred
            .on_sleep(node as u32, disk as u32, now, predicted, breakeven);
        self.obs.event(
            now,
            EventKind::SleepDecision {
                node: node as u32,
                disk: disk as u32,
                predicted_idle_us: predicted.map(|d| d.as_micros()),
                breakeven_us: breakeven.as_micros(),
            },
        );
    }

    /// Books a wake: closes the prediction-ledger window and scores the
    /// realised idle against breakeven.
    fn note_wake(&mut self, node: usize, disk: usize, now: SimTime) {
        if let Some(s) = self.pred.on_wake(node as u32, disk as u32, now) {
            self.plane.observe(&s);
            self.emit_idle_realized(now, &s);
        }
    }

    /// The single emission point for `IdleRealized`: every closed ledger
    /// window — mid-run wakes and the end-of-run flush alike — reports
    /// through here, so all driver variants score sleeps identically.
    fn emit_idle_realized(&mut self, at: SimTime, s: &PredictionSample) {
        self.obs.event(
            at,
            EventKind::IdleRealized {
                node: s.node,
                disk: s.disk,
                realized_us: s.realized_us,
                paid_off: s.paid_off(),
            },
        );
    }

    /// Advances the predictor for a predicted physical access (all disks
    /// of the node under striping).
    fn consume_predicted(&mut self, node: usize, home_disk: usize) {
        for d in self.touched_disks(node, home_disk) {
            self.plane.on_expected_touch(node, d);
        }
    }

    /// Arms sleep checks for every disk a physical access touched.
    fn arm_after_physical(&mut self, node: usize, home_disk: usize, queue: &mut EventQueue<Ev>) {
        for d in self.touched_disks(node, home_disk) {
            self.arm_sleep_check(node, d, queue);
        }
    }

    /// Schedules the power check that follows any data-disk activity.
    fn arm_sleep_check(&mut self, node: usize, disk: usize, queue: &mut EventQueue<Ev>) {
        if !self.power_engaged {
            return;
        }
        let d = &self.nodes[node].data_disks[disk];
        let at = d.busy_until().max(queue.now());
        let generation = d.generation();
        queue.schedule(
            at,
            Ev::SleepCheck {
                node: node as u16,
                disk: disk as u16,
                generation,
                armed: false,
            },
        );
    }

    /// Destages any dirty write-buffered files owned by `(node, disk)`
    /// while the disk is awake anyway (§III-C write-buffer area).
    fn piggyback_destage(&mut self, node: usize, disk: usize, now: SimTime) {
        if !self.cfg.write_buffer {
            return;
        }
        let dirty = self.nodes[node].catalog.dirty_files();
        for (file, size) in dirty {
            if self.placement.disk_of_file[file.index()] as usize != disk {
                continue;
            }
            // Read back from the buffer log, write to the data disk(s).
            self.nodes[node]
                .buffer_disk
                .submit(now, size, AccessKind::Sequential);
            self.physical_io(node, disk, size, AccessKind::Sequential, now);
            self.nodes[node].catalog.mark_clean(file);
            self.destages += 1;
        }
    }

    /// Closed loop: a completion frees a stream to issue the next request
    /// after its inter-arrival delay.
    fn maybe_issue_next(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        // `arrival_gaps.len()` is the trace length; `reqs` also holds hedge
        // mirrors, which must never be issued as trace requests.
        if !self.closed_loop || self.next_issue >= self.arrival_gaps.len() {
            return;
        }
        let i = self.next_issue;
        self.next_issue += 1;
        queue.schedule(now + self.arrival_gaps[i], Ev::Issue(i as u32));
    }

    /// Records the response for `req` (or, for a hedge mirror, for the
    /// original it races) and, under closed loop, chains the next
    /// request. Does nothing when the response was already recorded: the
    /// racing flight lost.
    fn record_response(&mut self, req: u32, now: SimTime, queue: &mut EventQueue<Ev>) {
        let root = self.reqs[req as usize].mirror_of.unwrap_or(req);
        let is_mirror = root != req;
        if self.reqs[root as usize].response_s.is_some() {
            // Only hedge/retry races may complete twice.
            debug_assert!(self.resilience.is_engaged(), "response recorded twice");
            return;
        }
        let elapsed = now - self.reqs[root as usize].submitted;
        self.reqs[root as usize].response_s = Some(elapsed.as_secs_f64());
        self.responses_recorded += 1;
        // Close the overload ledger for the root request: its slot is
        // released exactly once, here.
        self.release_slot(root);
        let failed = self.reqs[root as usize].admission == Admission::Failed;
        self.resilience.on_response(elapsed, is_mirror, failed);
        self.obs.answered();
        self.obs.event(
            now,
            EventKind::RequestComplete {
                req: root as u64,
                response_us: elapsed.as_micros(),
            },
        );
        self.obs.event(
            now,
            EventKind::RpcComplete {
                req: root as u64,
                won_by_hedge: is_mirror,
            },
        );
        self.maybe_issue_next(now, queue);
    }

    /// Serves `req` on data disk `(node, disk)`: the physical access, and
    /// when it had to spin a disk up, the `SpinupWait` the request paid.
    /// Returns when the access finishes.
    fn data_disk_io(&mut self, req: u32, node: usize, disk: usize, now: SimTime) -> SimTime {
        let size = self.reqs[req as usize].size;
        let (finish, spun_up) = self.physical_io(node, disk, size, AccessKind::Random, now);
        if spun_up {
            self.reqs[req as usize].spun_up = true;
            self.spun_up_requests += 1;
            self.obs.event(
                now,
                EventKind::SpinupWait {
                    req: req as u64,
                    node: node as u32,
                    disk: disk as u32,
                },
            );
        }
        finish
    }

    /// Books `req` as served on `node` from data disk `disk`, or from the
    /// buffer disk when `disk` is `None`, and schedules its `DiskDone` at
    /// `done`.
    fn serve(
        &mut self,
        req: u32,
        node: usize,
        disk: Option<usize>,
        now: SimTime,
        done: SimTime,
        queue: &mut EventQueue<Ev>,
    ) {
        self.obs.event(
            now,
            EventKind::RequestServe {
                req: req as u64,
                node: node as u32,
                disk: disk.map_or(u32::MAX, |d| d as u32),
                from_buffer: disk.is_none(),
            },
        );
        queue.schedule(done, Ev::DiskDone(req));
    }

    /// True when `(node, disk)` is the file's placement-plan home — the
    /// copy whose accesses the idle-window predictors were trained on.
    fn is_primary_copy(&self, node: usize, disk: usize, file: workload::record::FileId) -> bool {
        self.placement.node_of_file[file.index()] as usize == node
            && self.placement.disk_of_file[file.index()] as usize == disk
    }
}

impl Model for ClusterSim<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        self.obs.tick(now);
        match event {
            Ev::Issue(req) => {
                let r = &mut self.reqs[req as usize];
                r.submitted = now;
                // Under closed loop, actual time runs ahead of the trace
                // clock by however long responses have taken; keep the
                // plane's window predictions aligned.
                let drift = now - r.trace_at;
                let (file, op, bytes) = (r.file, r.op, r.size);
                self.plane.set_drift(drift);
                self.obs.issued();
                self.obs.event(
                    now,
                    EventKind::RequestArrive {
                        req: req as u64,
                        file: file.index() as u64,
                        write: op == Op::Write,
                        bytes,
                    },
                );
                queue.schedule(now + self.ctl_client_server, Ev::ServerArrive(req));
            }

            Ev::ServerArrive(req) => {
                if self.gate_admit(req, now, queue) {
                    self.route(req, now, queue);
                }
            }

            Ev::ServerDone { req, node } => self.send_rpc(req, node as usize, now, queue),

            Ev::NodeArrive(req) => {
                let (node, disk, file, size, op) = {
                    let r = &self.reqs[req as usize];
                    (r.node, r.disk, r.file, r.size, r.op)
                };
                // The node may have crashed while the request was in
                // flight: route again from the server.
                if !self.health.node_ok(node) {
                    self.retry_route(req, now, queue);
                    return;
                }
                self.resilience.on_delivered(node);
                if self.node_sheds(req, node, now, queue) {
                    return;
                }
                match op {
                    Op::Read => {
                        // Cache tiers (eevfs-power) front everything: a
                        // DRAM or SSD hit never touches the buffer disk,
                        // let alone the data-disk spin-up path.
                        let fid = file.index() as u32;
                        let tier_hit = if self.plane.dram_lookup(node, fid) {
                            Some((now + dram_service_time(size), false))
                        } else if self.plane.ssd_lookup(node, fid) {
                            let ssd = self.nodes[node].ssd.as_mut();
                            let ssd = ssd.expect("ssd tier hit implies an ssd disk");
                            Some((ssd.submit(now, size, AccessKind::Random).finish, true))
                        } else {
                            None
                        };
                        if let Some((done, ssd)) = tier_hit {
                            self.reqs[req as usize].from_buffer = true;
                            self.obs.event(
                                now,
                                EventKind::TierServe {
                                    req: req as u64,
                                    node: node as u32,
                                    ssd,
                                },
                            );
                            queue.schedule(done, Ev::DiskDone(req));
                            return;
                        }
                        let resident = self.nodes[node].catalog.lookup(file);
                        if resident {
                            let comp =
                                self.nodes[node]
                                    .buffer_disk
                                    .submit(now, size, AccessKind::Random);
                            self.reqs[req as usize].from_buffer = true;
                            self.plane.admit(node, fid, size, false);
                            self.serve(req, node, None, now, comp.finish, queue);
                        } else {
                            if !self.health.disk_ok(node, disk) {
                                self.retry_route(req, now, queue);
                                return;
                            }
                            // Injected spin-up failure: the wake attempt
                            // errors out and the request falls back to
                            // routing (another replica, or this disk's
                            // retried spin-up, which succeeds — the
                            // poisoning is consume-once).
                            if self.nodes[node].data_disks[disk].is_sleeping()
                                && self.health.take_spin_up_failure(node, disk)
                            {
                                self.spin_up_failures += 1;
                                self.retry_route(req, now, queue);
                                return;
                            }
                            if self.is_primary_copy(node, disk, file)
                                && !self.prefetch_member[file.index()]
                            {
                                self.consume_predicted(node, disk);
                            }
                            let finish = self.data_disk_io(req, node, disk, now);
                            // A read expensive enough to reach a data disk
                            // earns a slot in every cache tier.
                            self.plane.admit(node, fid, size, true);
                            self.serve(req, node, Some(disk), now, finish, queue);
                            if matches!(self.cfg.buffer, BufferPolicy::MaidLru { .. }) {
                                queue.schedule(finish, Ev::MaidFill(req));
                            }
                            self.piggyback_destage(node, disk, now);
                            self.verify_and_scrub(node, disk, Some(file), now);
                            self.arm_after_physical(node, disk, queue);
                        }
                    }
                    Op::Write => {
                        // A write makes any tiered copy stale; drop it
                        // before the new data lands.
                        self.plane.invalidate(node, file.index() as u32);
                        // Data flows client → node first; the disk write is
                        // issued when the payload has arrived (NicDone).
                        if self.cfg.write_buffer
                            && self.nodes[node].catalog.buffer_write(file, size).is_ok()
                        {
                            self.reqs[req as usize].from_buffer = true;
                            self.writes_buffered += 1;
                            // The absorbed write mutates node metadata:
                            // journal it, fsynced with the buffer-log
                            // append it rides on.
                            self.dur.journal_buffer_write(node, file);
                        }
                        let xfer = self.nodes[node].nic.send(now, size);
                        queue.schedule(xfer.finish, Ev::NicDone(req));
                    }
                }
            }

            Ev::DiskDone(req) => {
                let r = &self.reqs[req as usize];
                match r.op {
                    Op::Read => {
                        // Stream the file back to the client.
                        let (node, size) = (r.node, r.size);
                        let xfer = self.nodes[node].nic.send(now, size);
                        queue.schedule(xfer.finish, Ev::NicDone(req));
                    }
                    // Durable: respond.
                    Op::Write => self.record_response(req, now, queue),
                }
            }

            Ev::NicDone(req) => {
                let (node, file, size, op, from_buffer) = {
                    let r = &self.reqs[req as usize];
                    (r.node, r.file, r.size, r.op, r.from_buffer)
                };
                match op {
                    Op::Read => self.record_response(req, now, queue),
                    Op::Write => {
                        // The node may have died while the payload was in
                        // flight; the client re-sends through the server.
                        if !self.health.node_ok(node) {
                            self.retry_route(req, now, queue);
                            return;
                        }
                        if from_buffer {
                            // Append to the buffer-disk log.
                            let comp = self.nodes[node].buffer_disk.submit(
                                now,
                                size,
                                AccessKind::Sequential,
                            );
                            self.serve(req, node, None, now, comp.finish, queue);
                        } else {
                            let disk = self.reqs[req as usize].disk;
                            if !self.health.disk_ok(node, disk) {
                                self.retry_route(req, now, queue);
                                return;
                            }
                            if !self.cfg.write_buffer && self.is_primary_copy(node, disk, file) {
                                self.consume_predicted(node, disk);
                            }
                            let finish = self.data_disk_io(req, node, disk, now);
                            self.serve(req, node, Some(disk), now, finish, queue);
                            self.verify_and_scrub(node, disk, None, now);
                            self.arm_after_physical(node, disk, queue);
                        }
                    }
                }
            }

            Ev::MaidFill(req) => {
                let (node, file, size) = {
                    let r = &self.reqs[req as usize];
                    (r.node, r.file, r.size)
                };
                if self.nodes[node].catalog.insert_lru(file, size).is_ok() {
                    // Copy-in: sequential append on the buffer disk.
                    self.nodes[node]
                        .buffer_disk
                        .submit(now, size, AccessKind::Sequential);
                    self.maid_fills += 1;
                }
            }

            Ev::Fault => {
                // Apply every plan event due by now (same-instant events
                // fold into one application; the cursor makes this
                // idempotent).
                let fired = self.health.apply_until(now);
                self.fault_events += fired.len() as u64;
                for e in fired {
                    if let FaultKind::NodeRestart { node } = e.kind {
                        self.durable_restart(node as usize, now);
                    }
                }
            }

            Ev::NetFault => self.resilience.on_net_fault(now),

            // The flight was silently dropped; if nothing (a hedge)
            // answered meanwhile, consume a retry.
            Ev::RpcLost(req) => self.rpc_retry(req, now, queue),

            Ev::Hedge(req) => self.spawn_hedge(req, now, queue),

            Ev::SleepCheck {
                node,
                disk,
                generation,
                armed,
            } => {
                let (node, disk) = (node as usize, disk as usize);
                let d = &self.nodes[node].data_disks[disk];
                if d.generation() != generation || !d.is_idle(now) || d.is_sleeping() {
                    return;
                }
                // Sleeps are charged against the disk's spin-cycle budget
                // at decision time; an exhausted budget refuses the sleep
                // (counted in `sleeps_denied`).
                let sleep = if armed {
                    self.plane.timer_allows_sleep(node, disk)
                } else {
                    match self.plane.on_idle(node, disk, now) {
                        IdleVerdict::SleepNow => true,
                        IdleVerdict::After(wait) => {
                            queue.schedule(
                                now + wait,
                                Ev::SleepCheck {
                                    node: node as u16,
                                    disk: disk as u16,
                                    generation,
                                    armed: true,
                                },
                            );
                            false
                        }
                        IdleVerdict::Stay => false,
                    }
                };
                if sleep && self.plane.try_charge_spin(node, disk) {
                    self.nodes[node].data_disks[disk].sleep(now);
                    self.note_sleep(node, disk, now);
                }
            }
        }
    }
}

/// Everything one simulation replays: the cluster, the EEVFS
/// configuration, the trace, the power policy, and which of the optional
/// fault, resilience, and durability planes are on.
///
/// [`Scenario::new`] turns every optional plane off and runs the paper's
/// power plane; set the rest with struct-update syntax:
///
/// ```
/// # use eevfs::config::{ClusterSpec, EevfsConfig};
/// # use eevfs::driver::{simulate, Scenario};
/// # use fault_model::FaultPlan;
/// # use sim_core::SimTime;
/// # use workload::synthetic::{generate, SyntheticSpec};
/// let trace = generate(&SyntheticSpec { requests: 50, ..SyntheticSpec::paper_default() });
/// let cluster = ClusterSpec::paper_testbed();
/// let cfg = EevfsConfig::paper_pf_replicated(70, 2);
/// let faults = FaultPlan::builder().node_crash(SimTime::ZERO, 0).build();
/// let scenario = Scenario { faults: &faults, ..Scenario::new(&cluster, &cfg, &trace) };
/// let (metrics, _) = simulate(&scenario, None).unwrap();
/// assert_eq!(metrics.fault_events, 1);
/// ```
///
/// Every plan time (disk faults, network faults, corruption, crashes) is
/// relative to the start of the trace replay, after the prefetch warm-up.
/// A run is a pure function of its scenario: the same inputs replay
/// bit-identically, every counter included.
#[derive(Debug, Clone, Copy)]
pub struct Scenario<'a> {
    /// The simulated hardware.
    pub cluster: &'a ClusterSpec,
    /// Placement, buffer, power, and arrival policy.
    pub cfg: &'a EevfsConfig,
    /// The request stream to replay.
    pub trace: &'a Trace,
    /// Disk and node faults. Requests that hit a dead node or disk are
    /// re-routed to surviving replicas with a bounded retry budget; the
    /// run always terminates and accounts every request, abandoned ones
    /// included (`failed_requests`).
    pub faults: &'a FaultPlan,
    /// Network faults on the server→node leg and the RPC policy every
    /// request runs under; `None` for a perfect network.
    pub resilience: Option<ResilienceSetup<'a>>,
    /// Corruption and crash schedules plus scrubbing; `None` disables the
    /// durability layer.
    pub durability: Option<DurabilitySetup<'a>>,
    /// The `eevfs-power` policy every sleep decision and tier lookup
    /// runs under; `None` builds the paper's plane from `cfg` — its idle
    /// threshold, or the hint-driven predictor over the expected access
    /// pattern — with no tiers and no spin budgets. Only an explicit
    /// policy reports `RunMetrics::tier`.
    pub power: Option<&'a eevfs_power::PowerPolicy>,
}

static NO_FAULTS: FaultPlan = FaultPlan::none();

impl<'a> Scenario<'a> {
    /// A healthy run of `trace` on `cluster` under `cfg`: no faults, a
    /// perfect network, no durability layer, and the paper's power plane
    /// built from `cfg`.
    pub fn new(cluster: &'a ClusterSpec, cfg: &'a EevfsConfig, trace: &'a Trace) -> Self {
        Scenario {
            cluster,
            cfg,
            trace,
            faults: &NO_FAULTS,
            resilience: None,
            durability: None,
            power: None,
        }
    }
}

/// Runs one experiment: replays `scenario` on its simulated cluster.
///
/// With a `recorder`, the run also streams a structured trace into it and
/// returns an [`ObsReport`]. Observation is passive: no extra simulation
/// events exist, so every metric and every response time is identical to
/// the unobserved run, and the JSONL export is byte-identical across
/// same-input replays.
///
/// # Errors
/// Every input is checked before the run starts: an invalid cluster or
/// trace, or a plan that targets nodes, disks, or links outside the
/// cluster, is returned as a [`DriverError`] instead of unwinding, so
/// machine-generated scenarios (chaos-search schedules in particular)
/// surface bad inputs as data.
pub fn simulate(
    scenario: &Scenario<'_>,
    recorder: Option<Recorder>,
) -> Result<(RunMetrics, Option<ObsReport>), DriverError> {
    validate_inputs(scenario)?;
    Ok(run_validated(scenario, recorder))
}

/// Runs one experiment: replays `trace` on `cluster` under `cfg` with
/// every optional plane off and the paper's power plane.
///
/// # Panics
/// Panics on invalid cluster specs or traces — experiment configs are
/// programmer input, not runtime data.
pub fn run_cluster(cluster: &ClusterSpec, cfg: &EevfsConfig, trace: &Trace) -> RunMetrics {
    simulate(&Scenario::new(cluster, cfg, trace), None)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// [`simulate`] with disk faults, optional network resilience, and a
/// recorder. Kept because the standalone benchmark package calls it; new
/// code calls [`simulate`].
///
/// # Panics
/// Panics where [`simulate`] returns a [`DriverError`].
pub fn run_cluster_observed(
    cluster: &ClusterSpec,
    cfg: &EevfsConfig,
    trace: &Trace,
    faults: &FaultPlan,
    resilience: Option<ResilienceSetup<'_>>,
    recorder: Recorder,
) -> (RunMetrics, ObsReport) {
    let scenario = Scenario {
        faults,
        resilience,
        ..Scenario::new(cluster, cfg, trace)
    };
    let (metrics, report) = simulate(&scenario, Some(recorder)).unwrap_or_else(|e| panic!("{e}"));
    (metrics, report.expect("observation was requested"))
}

/// [`simulate`] with the `eevfs-power` policy plane. Kept because the
/// standalone benchmark package calls it; new code calls [`simulate`].
///
/// # Panics
/// Panics where [`simulate`] returns a [`DriverError`].
pub fn run_cluster_powered(
    cluster: &ClusterSpec,
    cfg: &EevfsConfig,
    trace: &Trace,
    policy: &eevfs_power::PowerPolicy,
) -> RunMetrics {
    let scenario = Scenario {
        power: Some(policy),
        ..Scenario::new(cluster, cfg, trace)
    };
    simulate(&scenario, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// [`simulate`] with the `eevfs-power` policy plane and a recorder. Kept
/// because the standalone benchmark package calls it; new code calls
/// [`simulate`].
///
/// # Panics
/// Panics where [`simulate`] returns a [`DriverError`].
pub fn run_cluster_powered_observed(
    cluster: &ClusterSpec,
    cfg: &EevfsConfig,
    trace: &Trace,
    policy: &eevfs_power::PowerPolicy,
    recorder: Recorder,
) -> (RunMetrics, ObsReport) {
    let scenario = Scenario {
        power: Some(policy),
        ..Scenario::new(cluster, cfg, trace)
    };
    let (metrics, report) = simulate(&scenario, Some(recorder)).unwrap_or_else(|e| panic!("{e}"));
    (metrics, report.expect("observation was requested"))
}

/// A typed rejection from [`simulate`].
///
/// [`run_cluster`] treats these as programmer errors and panics;
/// [`simulate`] returns them so machine-generated configurations —
/// chaos-search schedules in particular — surface bad inputs as data
/// instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The cluster spec failed [`ClusterSpec::validate`].
    BadCluster(String),
    /// The trace failed `Trace::validate`.
    BadTrace(String),
    /// A fault/net/corruption/crash plan targets nodes, disks, or links
    /// outside the cluster, or blocks outside the scrub address space.
    /// `plan` names the offending plan.
    PlanOutOfRange {
        /// Which plan was rejected ("fault", "net", "corruption", "crash").
        plan: &'static str,
        /// The stray targets, pre-rendered for the error message.
        detail: String,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::BadCluster(e) => write!(f, "bad cluster: {e}"),
            DriverError::BadTrace(e) => write!(f, "bad trace: {e}"),
            DriverError::PlanOutOfRange { plan, detail } => {
                write!(f, "{plan} plan targets outside the cluster: {detail}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Checks every input the driver would otherwise assert on.
fn validate_inputs(s: &Scenario<'_>) -> Result<(), DriverError> {
    let cluster = s.cluster;
    cluster
        .validate()
        .map_err(|e| DriverError::BadCluster(e.to_string()))?;
    s.trace
        .validate()
        .map_err(|e| DriverError::BadTrace(e.to_string()))?;
    let max_disks = cluster.data_disk_counts().into_iter().max().unwrap_or(0) as u32;
    let nodes = cluster.node_count() as u32;
    in_range("fault", s.faults.out_of_range(nodes, max_disks))?;
    if let Some(setup) = s.resilience {
        in_range("net", setup.net_plan.out_of_range(nodes))?;
    }
    if let Some(d) = s.durability {
        let blocks = d.blocks_per_disk.max(1);
        let stray = d.corruption.out_of_range(nodes, max_disks, blocks);
        in_range("corruption", stray)?;
        in_range("crash", d.crashes.out_of_range(nodes))?;
    }
    Ok(())
}

/// Rejects `plan` when `stray`, its targets outside the cluster, is not
/// empty.
fn in_range<T: std::fmt::Debug>(plan: &'static str, stray: Vec<T>) -> Result<(), DriverError> {
    if stray.is_empty() {
        return Ok(());
    }
    let detail = format!("{stray:?}");
    Err(DriverError::PlanOutOfRange { plan, detail })
}

/// The simulation proper; inputs are assumed validated.
fn run_validated(
    scenario: &Scenario<'_>,
    recorder: Option<Recorder>,
) -> (RunMetrics, Option<ObsReport>) {
    let &Scenario {
        cluster,
        cfg,
        trace,
        faults,
        resilience,
        durability,
        power: power_policy,
    } = scenario;
    // Steps 1-2: popularity and placement.
    let popularity = PopularityTable::from_trace(trace);
    let placement = place(cfg.placement, &popularity, &cluster.data_disk_counts());
    let replicas = replicate(
        &placement,
        cfg.replication.max(1) as usize,
        &cluster.data_disk_counts(),
    );

    // Step 3: plan the prefetch against buffer capacities.
    let buffer_caps: Vec<u64> = cluster
        .nodes
        .iter()
        .map(|n| match cfg.buffer {
            BufferPolicy::MaidLru { capacity_bytes } => {
                capacity_bytes.min(n.buffer_disk.capacity_bytes)
            }
            _ => n.buffer_disk.capacity_bytes,
        })
        .collect();
    let plan = match cfg.buffer {
        BufferPolicy::PrefetchTopK { k } => {
            plan_topk(k, &popularity, &placement, &trace.file_sizes, &buffer_caps)
        }
        _ => PrefetchPlan::empty(cluster.node_count()),
    };
    let prefetch_member = plan.membership(trace.file_count());

    // Step 4 (hints): the energy prediction model. Specs are borrowed
    // straight from the cluster description — no per-run copies.
    let data_specs: Vec<&[disk_model::DiskSpec]> = cluster
        .nodes
        .iter()
        .map(|n| n.data_disks.as_slice())
        .collect();
    let buffer_specs: Vec<&disk_model::DiskSpec> =
        cluster.nodes.iter().map(|n| &n.buffer_disk).collect();
    let benefit = predict_benefit(trace, &placement, &plan, &data_specs, &buffer_specs, cfg);

    // Build node state. The SSD buffer tier gets a real device model so
    // its latency and (small) energy draw are metered, not assumed.
    let ssd_enabled = power_policy.map(|p| p.tier.ssd_bytes > 0).unwrap_or(false);
    let mut nodes: Vec<NodeState> = cluster
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| NodeState {
            buffer_disk: Disk::new(n.buffer_disk.clone()),
            data_disks: n.data_disks.iter().cloned().map(Disk::new).collect(),
            catalog: BufferCatalog::new(buffer_caps[i]),
            nic: Nic::new(n.nic.compose(&cluster.client_nic, cluster.switch_latency)),
            ctl_in: control_message_time(
                &cluster.server_nic.compose(&n.nic, cluster.switch_latency),
                cluster.software_overhead,
            ),
            ssd: ssd_enabled.then(|| Disk::new(disk_model::DiskSpec::ssd_buffer())),
        })
        .collect();
    let mut obs = ObsPlane::new(recorder, &mut nodes);

    // Prefetch warm-up: read each planned file off its data disk and
    // append it to the buffer-disk log; the replay starts afterwards.
    let mut warmup_end = SimTime::ZERO;
    let mut prefetch_bytes = 0u64;
    for (node_idx, files) in plan.per_node.iter().enumerate() {
        let mut read_done: Vec<(SimTime, workload::record::FileId, u64)> = Vec::new();
        for &f in files {
            let size = trace.file_sizes[f.index()];
            let disk = placement.disk_of_file[f.index()] as usize;
            let finish = if cfg.striping {
                let n = nodes[node_idx].data_disks.len() as u64;
                let chunk = size.div_ceil(n);
                nodes[node_idx]
                    .data_disks
                    .iter_mut()
                    .map(|d| d.submit(SimTime::ZERO, chunk, AccessKind::Random).finish)
                    .max()
                    .expect("node has data disks")
            } else {
                nodes[node_idx].data_disks[disk]
                    .submit(SimTime::ZERO, size, AccessKind::Random)
                    .finish
            };
            read_done.push((finish, f, size));
            prefetch_bytes += size;
        }
        // Buffer writes in read-completion order keeps per-disk calls
        // time-monotone.
        read_done.sort_by_key(|&(t, f, _)| (t, f));
        for (t, f, size) in read_done {
            let comp = nodes[node_idx]
                .buffer_disk
                .submit(t, size, AccessKind::Sequential);
            nodes[node_idx]
                .catalog
                .insert_pinned(f, size)
                .expect("plan_topk respected capacity");
            obs.event(
                comp.finish,
                EventKind::PrefetchFile {
                    node: node_idx as u32,
                    file: f.index() as u64,
                    bytes: size,
                },
            );
            warmup_end = warmup_end.max(comp.finish);
        }
    }
    let warmup = warmup_end - SimTime::ZERO;

    // The paper's energy figures start at the trace replay; snapshot each
    // drive's warm-up energy so it can be reported separately.
    let mut warmup_snapshot: Vec<(f64, Vec<f64>)> = Vec::with_capacity(nodes.len());
    let mut ssd_snapshot: Vec<f64> = Vec::with_capacity(nodes.len());
    for n in &mut nodes {
        n.buffer_disk.finalize(warmup_end);
        let buf = n.buffer_disk.total_joules();
        let mut data = Vec::with_capacity(n.data_disks.len());
        for d in &mut n.data_disks {
            d.finalize(warmup_end);
            data.push(d.total_joules());
        }
        warmup_snapshot.push((buf, data));
        ssd_snapshot.push(match n.ssd.as_mut() {
            Some(s) => {
                s.finalize(warmup_end);
                s.total_joules()
            }
            None => 0.0,
        });
    }

    let prefetch_active = !plan.files.is_empty();

    let replica_nodes: Vec<Vec<u32>> = replicas
        .replicas
        .iter()
        .map(|copies| copies.iter().map(|&(n, _)| n).collect())
        .collect();
    let server = StorageServer::new(
        ServerMetadata::with_replicas(
            // Reference bumps: the server shares the placement and size
            // tables rather than copying them per run.
            std::sync::Arc::clone(&placement.node_of_file),
            std::sync::Arc::clone(&trace.file_sizes),
            replica_nodes,
        ),
        cluster.server_proc_time,
    );

    // Fault schedule, shifted from replay-relative time into sim time.
    // Crash-plan events are ordinary node faults: merged in, the health
    // tracker and the retry/failover paths treat a durable crash exactly
    // like any other node outage; only the restart's journal replay is
    // durability-specific.
    let crash_events: &[FaultEvent] = durability.map(|d| d.crashes.events()).unwrap_or(&[]);
    let shifted_faults = FaultPlan::from_trace(faults.events().iter().chain(crash_events).map(
        |e| FaultEvent {
            at: e.at + warmup,
            kind: e.kind,
        },
    ));
    let max_disks = cluster.data_disk_counts().into_iter().max().unwrap_or(0);
    // Only the wake-up instants are needed once the plan moves into the
    // tracker, so remember them instead of cloning the whole plan.
    let mut wakeups: Vec<(SimTime, Ev)> = shifted_faults
        .events()
        .iter()
        .map(|e| (e.at, Ev::Fault))
        .collect();
    let health = HealthTracker::new(shifted_faults, cluster.node_count(), max_disks);

    let dur = DurabilityPlane::new(
        durability, warmup, cluster, trace, &placement, &replicas, &plan,
    );

    let resilience = ResiliencePlane::new(resilience, warmup, cluster.node_count());
    wakeups.extend(resilience.wakeups().map(|at| (at, Ev::NetFault)));

    let ctl_client_server = control_message_time(
        &cluster
            .client_nic
            .compose(&cluster.server_nic, cluster.switch_latency),
        cluster.software_overhead,
    );

    let reqs: Vec<ReqState> = trace
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| ReqState {
            trace_at: r.at + warmup,
            submitted: r.at + warmup,
            node: usize::MAX,
            disk: usize::MAX,
            op: r.op,
            size: r.size,
            file: r.file,
            from_buffer: false,
            spun_up: false,
            attempts: 0,
            rpc_tries: 0,
            mirror_of: None,
            hedge_armed: false,
            response_s: None,
            priority: (i % 4) as u8,
            admission: Admission::Pending,
        })
        .collect();
    let n_requests = reqs.len();

    let arrival_gaps: Vec<SimDuration> = trace
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i == 0 {
                SimDuration::ZERO
            } else {
                r.at - trace.records[i - 1].at
            }
        })
        .collect();
    let (closed_loop, streams) = match cfg.arrival {
        crate::config::ArrivalMode::OpenLoop => (false, 0),
        crate::config::ArrivalMode::ClosedLoop { streams } => (true, streams.max(1) as usize),
    };

    // Breakeven times drive the predicted-vs-realised sleep scoring.
    let breakeven: Vec<Vec<SimDuration>> = cluster
        .nodes
        .iter()
        .map(|n| n.data_disks.iter().map(breakeven_time).collect())
        .collect();

    // The policy plane: the supplied PowerPolicy, which always engages,
    // or the paper's plane built from `cfg`.
    let (plane, power_engaged) = match power_policy {
        Some(p) => (PolicyPlane::new(p.clone(), &breakeven), true),
        None => paper_plane(cfg, prefetch_active, benefit.worthwhile, &breakeven, || {
            // The hint-driven predictor's schedule: expected physical
            // touches per data disk over the *shifted* pattern.
            let mut touches: Vec<Vec<Vec<SimTime>>> = cluster
                .nodes
                .iter()
                .map(|n| vec![Vec::new(); n.data_disks.len()])
                .collect();
            for r in &trace.records {
                let absorbed = match r.op {
                    Op::Read => prefetch_member[r.file.index()],
                    Op::Write => cfg.write_buffer,
                };
                if absorbed {
                    continue;
                }
                let node = placement.node_of_file[r.file.index()] as usize;
                if cfg.striping {
                    for per_disk in &mut touches[node] {
                        per_disk.push(r.at + warmup);
                    }
                } else {
                    let disk = placement.disk_of_file[r.file.index()] as usize;
                    touches[node][disk].push(r.at + warmup);
                }
            }
            touches
        }),
    };

    let sim = ClusterSim {
        cfg: cfg.clone(),
        server,
        nodes,
        placement,
        replicas,
        health,
        resilience,
        prefetch_member,
        reqs,
        ctl_client_server,
        closed_loop,
        arrival_gaps,
        next_issue: 0,
        spun_up_requests: 0,
        writes_buffered: 0,
        destages: 0,
        maid_fills: 0,
        responses_recorded: 0,
        fault_events: 0,
        replica_redirects: 0,
        spin_up_failures: 0,
        failed_requests: 0,
        pred: PredictionTracker::new(),
        breakeven,
        obs,
        dur,
        plane,
        power_engaged,
        overload: OverloadPlane::new(cfg.overload),
    };

    // Pre-size the heap for everything it holds from the start (fault and
    // net-fault wake-ups, one sleep check per disk, closed-loop stream
    // seeds) so the hot loop starts past its growth phase. Open-loop
    // arrivals bypass the heap: the arrival lane sizes itself below.
    let seeded = if closed_loop {
        streams.min(n_requests)
    } else {
        0
    };
    let initial_events = seeded + wakeups.len() + cluster.node_count() * max_disks;
    let mut engine = Engine::with_capacity(sim, initial_events);
    // Fault and network-fault events fire at their scheduled instants.
    for (at, ev) in wakeups {
        engine.queue_mut().schedule(at, ev);
    }
    // Initial power check: disks idle after their prefetch tail.
    for node in 0..cluster.node_count() {
        for disk in 0..cluster.nodes[node].data_disks.len() {
            let (at, generation) = {
                let d = &engine.model().nodes[node].data_disks[disk];
                // Meters were settled to warmup_end for the energy
                // snapshot; nothing may touch a disk before that.
                (d.busy_until().max(warmup_end), d.generation())
            };
            if engine.model().power_engaged {
                engine.queue_mut().schedule(
                    at,
                    Ev::SleepCheck {
                        node: node as u16,
                        disk: disk as u16,
                        generation,
                        armed: false,
                    },
                );
            }
        }
    }
    // Step 5: clients submit. Open loop issues every request at its trace
    // time through the queue's presorted arrival lane (`Trace::validate`
    // rejected out-of-order records), so the heap holds only work in
    // flight; closed loop seeds one request per stream and chains the rest
    // off completions.
    if closed_loop {
        let seed = streams.min(trace.len());
        for i in 0..seed {
            engine
                .queue_mut()
                .schedule(trace.records[i].at + warmup, Ev::Issue(i as u32));
        }
        engine.model_mut().next_issue = seed;
    } else {
        engine.queue_mut().schedule_sorted(
            trace
                .records
                .iter()
                .enumerate()
                .map(|(i, r)| (r.at + warmup, Ev::Issue(i as u32))),
        );
        engine.model_mut().next_issue = trace.len();
    }

    engine.run();
    let mut sim = engine.into_model();
    assert_eq!(
        sim.responses_recorded, n_requests as u64,
        "some requests never completed"
    );

    // Settle every meter to the true end of activity.
    let mut end = SimTime::ZERO;
    for n in &sim.nodes {
        end = end.max(n.buffer_disk.busy_until()).max(n.nic.free_at());
        for d in &n.data_disks {
            end = end.max(d.busy_until());
        }
        if let Some(s) = n.ssd.as_ref() {
            end = end.max(s.busy_until());
        }
    }
    for r in &sim.reqs {
        end = end.max(r.submitted + SimDuration::from_secs_f64(r.response_s.unwrap_or(0.0)));
    }
    for n in &mut sim.nodes {
        n.buffer_disk.finalize(end);
        for d in &mut n.data_disks {
            d.finalize(end);
        }
        if let Some(s) = n.ssd.as_mut() {
            s.finalize(end);
        }
    }
    // Close the prediction ledger: disks still asleep at the end realised
    // their whole remaining window. Flushed windows report through the
    // same emission path mid-run wakes use.
    for s in sim.pred.finish(end) {
        sim.emit_idle_realized(end, &s);
    }
    let prediction = sim.pred.summary();
    // Tier/budget outcomes, reported only under an explicit policy; spin
    // cycles and SSD energy come from the device models below.
    let explicit_policy = power_policy.is_some();
    let mut tier = TierStats::default();
    if explicit_policy {
        tier = sim.plane.stats();
        for n in &sim.nodes {
            for d in &n.data_disks {
                tier.spin_cycles += d.spin_cycles();
            }
        }
    }
    // Metrics assembly. Energy is measured over the replay window
    // [warmup_end, end], the same window the paper's meters covered.
    let duration_s = (end - warmup_end).as_secs_f64();
    let warmup_s = warmup.as_secs_f64();
    let server_disk_energy = cluster.server_disk.p_idle_w * duration_s;
    let mut per_node = Vec::with_capacity(sim.nodes.len());
    let mut disk_energy = 0.0;
    let mut base_energy = 0.0;
    let mut warmup_energy = (cluster.server_base_power_w + cluster.server_disk.p_idle_w) * warmup_s;
    let mut transitions = TransitionCounts::default();
    let mut buffer_hits = 0;
    let mut buffer_misses = 0;
    let mut dirty_at_end = 0u64;
    for (i, ((spec, n), snap)) in cluster
        .nodes
        .iter()
        .zip(&sim.nodes)
        .zip(&warmup_snapshot)
        .enumerate()
    {
        let node_base = spec.base_power_w * duration_s;
        warmup_energy += spec.base_power_w * warmup_s;
        let buf_e = n.buffer_disk.total_joules() - snap.0;
        warmup_energy += snap.0;
        if let Some(s) = n.ssd.as_ref() {
            // The SSD tier's draw joins the cluster disk-energy total and
            // is also reported on its own meter in `TierStats`.
            let ssd_e = s.total_joules() - ssd_snapshot[i];
            warmup_energy += ssd_snapshot[i];
            tier.ssd_energy_j += ssd_e;
            disk_energy += ssd_e;
        }
        let mut data_e = 0.0;
        let mut node_trans = TransitionCounts::default();
        let mut standby = 0.0;
        for (d, dsnap) in n.data_disks.iter().zip(&snap.1) {
            data_e += d.total_joules() - dsnap;
            warmup_energy += dsnap;
            node_trans.spin_ups += d.transitions().spin_ups;
            node_trans.spin_downs += d.transitions().spin_downs;
            standby += d.meter().standby_fraction();
        }
        standby /= n.data_disks.len() as f64;
        transitions.spin_ups += node_trans.spin_ups;
        transitions.spin_downs += node_trans.spin_downs;
        disk_energy += buf_e + data_e;
        base_energy += node_base;
        buffer_hits += n.catalog.hits();
        buffer_misses += n.catalog.misses();
        dirty_at_end += n.catalog.dirty_files().len() as u64;
        per_node.push(NodeMetrics {
            name: spec.name.clone(),
            base_energy_j: node_base,
            buffer_disk_energy_j: buf_e,
            data_disk_energy_j: data_e,
            transitions: node_trans,
            standby_fraction: standby,
            buffer_hits: n.catalog.hits(),
            buffer_misses: n.catalog.misses(),
            nic_utilization: n.nic.utilization(end),
        });
    }
    let server_energy = cluster.server_base_power_w * duration_s + server_disk_energy;
    disk_energy += server_disk_energy;
    base_energy += cluster.server_base_power_w * duration_s;

    // Hedge mirrors record into their original's slot; only trace
    // requests contribute response samples, and refusals (rejected,
    // shed, node-shed) are excluded — their "response" is the refusal
    // itself, reported through the overload ledger instead.
    let samples: Vec<f64> = sim
        .reqs
        .iter()
        .filter(|r| {
            let refused = matches!(r.admission, Admission::Refused | Admission::NodeShed);
            r.mirror_of.is_none() && !refused
        })
        .map(|r| r.response_s.expect("all responses recorded"))
        .collect();

    let resilience = sim.resilience.stats();

    let (durability_stats, scrub_energy_j) = sim.dur.finish(end);

    let metrics = RunMetrics {
        duration_s,
        total_energy_j: disk_energy + base_energy,
        disk_energy_j: disk_energy,
        base_energy_j: base_energy,
        server_energy_j: server_energy,
        transitions,
        response: ResponseStats::from_samples(&samples),
        response_samples_s: samples,
        buffer_hits,
        buffer_misses,
        spun_up_requests: sim.spun_up_requests,
        writes_buffered: sim.writes_buffered,
        destages: sim.destages,
        dirty_at_end,
        maid_fills: sim.maid_fills,
        prefetch: PrefetchStats {
            files: plan.files.len() as u64,
            bytes: prefetch_bytes,
            dropped: plan.dropped.len() as u64,
            warmup_us: warmup.as_micros(),
            energy_j: warmup_energy,
        },
        predicted_benefit_j: benefit.net_j(),
        power_engaged,
        fault_events: sim.fault_events,
        replica_redirects: sim.replica_redirects,
        spin_up_failures: sim.spin_up_failures,
        failed_requests: sim.failed_requests,
        resilience,
        durability: durability_stats,
        scrub_energy_j,
        prediction,
        tier,
        overload: sim.overload.stats(),
        per_node,
    };
    let report = sim
        .obs
        .finish(scenario, &sim.nodes, end, &metrics, sim.pred.into_samples());
    (metrics, report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::ResilienceStats;
    use crate::scrub::ScrubPolicy;
    use fault_model::{CorruptionPlan, CrashPlan, LinkFaultProfile, NetFaultPlan, RpcPolicy};
    use workload::berkeley::{berkeley_web_trace, BerkeleySpec};
    use workload::synthetic::{generate, SyntheticSpec};

    fn small_trace(mu: f64, requests: u32) -> Trace {
        generate(&SyntheticSpec {
            mu,
            requests,
            ..SyntheticSpec::paper_default()
        })
    }

    /// An unobserved run of a scenario the test knows is valid.
    fn run(scenario: &Scenario<'_>) -> RunMetrics {
        simulate(scenario, None).unwrap().0
    }

    /// An observed run of a scenario the test knows is valid.
    fn observe(scenario: &Scenario<'_>) -> (RunMetrics, ObsReport) {
        let (metrics, report) = simulate(scenario, Some(Recorder::default())).unwrap();
        (metrics, report.unwrap())
    }

    #[test]
    fn every_request_completes_and_is_deterministic() {
        let trace = small_trace(100.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf(70);
        let a = run_cluster(&cluster, &cfg, &trace);
        let b = run_cluster(&cluster, &cfg, &trace);
        assert_eq!(a.response.count, 200);
        assert_eq!(a, b, "simulation must be deterministic");
    }

    #[test]
    fn npf_never_transitions_disks() {
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let m = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        assert_eq!(m.transitions.total(), 0);
        assert_eq!(m.buffer_hits, 0);
        assert_eq!(m.spun_up_requests, 0);
        assert!(!m.power_engaged);
        assert_eq!(m.prefetch.files, 0);
    }

    #[test]
    fn pf_saves_energy_versus_npf() {
        let trace = small_trace(100.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        let savings = pf.savings_vs(&npf);
        assert!(
            savings > 0.05,
            "PF should save >5% at MU=100/K=70, got {:.3} (pf={} npf={})",
            savings,
            pf.total_energy_j,
            npf.total_energy_j
        );
        assert!(pf.transitions.total() > 0);
        assert!(pf.buffer_hits > 0);
    }

    #[test]
    fn full_coverage_sleeps_disks_for_the_whole_trace() {
        // MU=10: a handful of hot files, all prefetched; like the paper's
        // MU<=100 runs, data disks sleep from warm-up to the end.
        let trace = small_trace(10.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        assert!(
            pf.hit_rate() > 0.999,
            "everything should be buffer-served, hit rate {}",
            pf.hit_rate()
        );
        // Each touched disk spins down exactly once and never wakes.
        assert_eq!(pf.transitions.spin_ups, 0);
        assert!(pf.transitions.spin_downs > 0);
        assert!(pf.mean_standby_fraction() > 0.8);
        assert_eq!(pf.spun_up_requests, 0);
    }

    #[test]
    fn berkeley_trace_behaves_like_the_paper() {
        let trace = berkeley_web_trace(&BerkeleySpec {
            requests: 300,
            ..BerkeleySpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        // "we were able to place all of the data disks in the standby for
        // the entirety of the Berkeley web trace"
        assert_eq!(pf.transitions.spin_ups, 0);
        let savings = pf.savings_vs(&npf);
        assert!(savings > 0.10, "Berkeley savings {savings}");
    }

    #[test]
    fn response_penalty_exists_but_is_bounded() {
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        let penalty = pf.response_penalty_vs(&npf);
        assert!(
            penalty > -0.05,
            "PF should not be dramatically faster: {penalty}"
        );
        assert!(penalty < 3.0, "PF penalty out of control: {penalty}");
    }

    #[test]
    fn maid_baseline_fills_on_demand() {
        let trace = small_trace(10.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = crate::baselines::maid(80_000_000_000);
        let m = run_cluster(&cluster, &cfg, &trace);
        assert!(m.maid_fills > 0);
        assert!(m.buffer_hits > 0, "refetches of hot files should hit");
        assert_eq!(m.prefetch.files, 0);
    }

    #[test]
    fn writes_are_absorbed_by_the_buffer() {
        let trace = generate(&SyntheticSpec {
            mu: 10.0,
            requests: 200,
            write_fraction: 0.5,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let m = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        assert!(m.writes_buffered > 0);
        // Buffered writes either got destaged or remain dirty at the end.
        assert!(m.destages + m.dirty_at_end > 0);
    }

    #[test]
    fn energy_scale_matches_the_paper_ballpark() {
        // The paper's Fig 3 y-axis sits around 4-8 x 10^5 J for 1000
        // requests at 700 ms; with 300 requests we expect roughly 30% of
        // that — order 1e5.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        assert!(
            npf.total_energy_j > 5.0e4 && npf.total_energy_j < 5.0e5,
            "NPF energy {} J outside paper ballpark",
            npf.total_energy_j
        );
    }

    #[test]
    fn striping_speeds_up_misses_and_keeps_saving() {
        // §VII future work: striping should improve performance "while
        // still maintaining energy savings".
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let plain = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        let striped = run_cluster(&cluster, &EevfsConfig::paper_pf_striped(70), &trace);
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        // Misses are served by two disks in parallel: striped response
        // should not be slower overall.
        assert!(
            striped.response.mean_s <= plain.response.mean_s * 1.05,
            "striped {} vs plain {}",
            striped.response.mean_s,
            plain.response.mean_s
        );
        // And it still saves energy versus NPF.
        assert!(
            striped.savings_vs(&npf) > 0.05,
            "striped savings {}",
            striped.savings_vs(&npf)
        );
        assert!(striped.transitions.total() > 0);
    }

    #[test]
    fn striping_wakes_the_whole_array_per_miss() {
        // The striping trade-off: a miss after an idle window must wake
        // every disk of the node, so spin-ups are at least as frequent.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let plain = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        let striped = run_cluster(&cluster, &EevfsConfig::paper_pf_striped(70), &trace);
        assert!(
            striped.transitions.spin_ups >= plain.transitions.spin_ups,
            "striped {} vs plain {}",
            striped.transitions.spin_ups,
            plain.transitions.spin_ups
        );
    }

    #[test]
    fn closed_loop_completes_and_is_deterministic() {
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_closed_loop(70, 4);
        let a = run_cluster(&cluster, &cfg, &trace);
        let b = run_cluster(&cluster, &cfg, &trace);
        assert_eq!(a.response.count, 300);
        assert_eq!(a, b);
    }

    #[test]
    fn closed_loop_still_saves_energy_under_full_coverage() {
        // At MU=10 the prefetch absorbs everything: no wake penalties, no
        // run stretch, and the closed-loop savings match the open-loop
        // ones.
        let trace = small_trace(10.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf_closed_loop(70, 4), &trace);
        let mut npf_cfg = EevfsConfig::paper_npf();
        npf_cfg.arrival = crate::config::ArrivalMode::ClosedLoop { streams: 4 };
        let npf = run_cluster(&cluster, &npf_cfg, &trace);
        let savings = pf.savings_vs(&npf);
        assert!(savings > 0.10, "closed-loop savings {savings}");
        assert_eq!(pf.transitions.spin_ups, 0);
        assert_eq!(npf.transitions.total(), 0);
    }

    #[test]
    fn closed_loop_exposes_the_penalty_feedback() {
        // Under closed loop, every spin-up delays the *next* request, so
        // PF's response penalty stretches the run and costs base power —
        // a feedback the open-loop load generator hides. At MU=1000 (23%
        // misses) this erodes most of the disk savings: a real deployment
        // lesson the ablation harness records.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf_closed_loop(70, 4), &trace);
        let mut npf_cfg = EevfsConfig::paper_npf();
        npf_cfg.arrival = crate::config::ArrivalMode::ClosedLoop { streams: 4 };
        let npf = run_cluster(&cluster, &npf_cfg, &trace);
        assert!(pf.transitions.total() > 0, "sleeps still happen");
        assert!(
            pf.duration_s > npf.duration_s,
            "wake penalties must stretch the closed-loop run"
        );
        // Net savings collapse toward zero (between -5% and +8%).
        let savings = pf.savings_vs(&npf);
        assert!(
            (-0.05..0.08).contains(&savings),
            "closed-loop MU=1000 savings {savings}"
        );
    }

    #[test]
    fn closed_loop_bounds_queueing() {
        // The paper's replayer never lets queues grow without bound: at
        // the 50 MB saturation point, closed-loop response times stay
        // near service time while open-loop responses balloon.
        let trace = generate(&SyntheticSpec {
            mean_size_bytes: 50_000_000,
            requests: 300,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let open = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        let mut closed_cfg = EevfsConfig::paper_npf();
        closed_cfg.arrival = crate::config::ArrivalMode::ClosedLoop { streams: 4 };
        let closed = run_cluster(&cluster, &closed_cfg, &trace);
        assert!(
            closed.response.mean_s < open.response.mean_s / 2.0,
            "closed {} vs open {}",
            closed.response.mean_s,
            open.response.mean_s
        );
    }

    #[test]
    fn single_stream_closed_loop_serialises_requests() {
        // With one stream and zero delay, request i+1 is issued only after
        // response i: responses never overlap, so the mean response is
        // close to the fastest service path, not a queue.
        let trace = generate(&SyntheticSpec {
            inter_arrival: SimDuration::ZERO,
            requests: 100,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let mut cfg = EevfsConfig::paper_npf();
        cfg.arrival = crate::config::ArrivalMode::ClosedLoop { streams: 1 };
        let m = run_cluster(&cluster, &cfg, &trace);
        assert_eq!(m.response.count, 100);
        // 10 MB whole-file over the slowest path is ~1.7 s; a queued burst
        // would be tens of seconds.
        assert!(m.response.mean_s < 3.0, "mean {}", m.response.mean_s);
        // Run duration ~ sum of responses.
        let sum: f64 = m.response_samples_s.iter().sum();
        assert!(
            (m.duration_s - sum).abs() / sum < 0.2,
            "duration {} vs sum {sum}",
            m.duration_s
        );
    }

    #[test]
    fn traced_run_curve_matches_metrics() {
        let trace = small_trace(100.0, 150);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf(70);
        let scenario = Scenario::new(&cluster, &cfg, &trace);
        let (m, report) = observe(&scenario);
        let curve = report.energy_curve;
        // The curve covers the whole run and ends at the run's total
        // energy including the warm-up share.
        let (t_end, e_end) = curve.last().expect("non-empty curve");
        assert!(t_end.as_secs_f64() >= m.duration_s);
        let expected_total = m.total_energy_j + m.prefetch.energy_j;
        assert!(
            (e_end - expected_total).abs() / expected_total < 0.01,
            "curve end {e_end} vs metrics total {expected_total}"
        );
        // Monotone non-decreasing cumulative energy.
        let vals: Vec<f64> = curve.iter().map(|(_, v)| v).collect();
        assert!(vals.windows(2).all(|w| w[1] >= w[0] - 1e-9));
        // Identical metrics to the unobserved run.
        assert_eq!(m, run(&scenario));
    }

    #[test]
    fn replicated_healthy_run_matches_unreplicated_shape() {
        // With no faults and energy-aware selection, R=2 should behave
        // like R=1 on the hot path: buffered reads stay on the primary
        // (the only buffered copy), so hits and responses are unchanged.
        let trace = small_trace(10.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let r1 = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        let r2 = run_cluster(&cluster, &EevfsConfig::paper_pf_replicated(70, 2), &trace);
        assert_eq!(r1.buffer_hits, r2.buffer_hits);
        assert_eq!(r2.failed_requests, 0);
        assert_eq!(r2.fault_events, 0);
    }

    #[test]
    fn node_crash_with_replicas_loses_no_requests() {
        // The acceptance case: R=2, one node crashes mid-trace and never
        // comes back; every request still completes via the surviving
        // replicas.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let mid = trace.records[trace.len() / 2].at;
        let faults = FaultPlan::builder().node_crash(mid, 0).build();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let m = run(&Scenario {
            faults: &faults,
            ..Scenario::new(&cluster, &cfg, &trace)
        });
        assert_eq!(m.response.count, 300);
        assert_eq!(m.failed_requests, 0, "replicas must absorb the crash");
        assert_eq!(m.fault_events, 1);
        assert!(
            m.replica_redirects > 0,
            "requests owned by node 0 must fail over"
        );
    }

    #[test]
    fn disk_failure_with_replicas_loses_no_requests() {
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let mid = trace.records[trace.len() / 2].at;
        let faults = FaultPlan::builder().disk_fail(mid, 1, 0).build();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let m = run(&Scenario {
            faults: &faults,
            ..Scenario::new(&cluster, &cfg, &trace)
        });
        assert_eq!(m.response.count, 300);
        assert_eq!(m.failed_requests, 0);
    }

    #[test]
    fn unreplicated_crash_heals_after_restart() {
        // R=1 with a crash and a restart inside the retry budget: slow
        // (retries) but no losses.
        let trace = small_trace(1000.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let mid = trace.records[trace.len() / 2].at;
        let faults = FaultPlan::builder()
            .node_crash(mid, 2)
            .node_restart(mid + SimDuration::from_secs(10), 2)
            .build();
        let m = run(&Scenario {
            faults: &faults,
            ..Scenario::new(&cluster, &EevfsConfig::paper_pf(70), &trace)
        });
        assert_eq!(m.response.count, 200);
        assert_eq!(m.failed_requests, 0);
        assert_eq!(m.fault_events, 2);
    }

    #[test]
    fn unreplicated_permanent_crash_abandons_bounded() {
        // R=1, node dies for good: its requests exhaust the retry budget
        // and are counted, and the run still terminates with every
        // request accounted.
        let trace = small_trace(1000.0, 100);
        let cluster = ClusterSpec::paper_testbed();
        let faults = FaultPlan::builder().node_crash(SimTime::ZERO, 0).build();
        let m = run(&Scenario {
            faults: &faults,
            ..Scenario::new(&cluster, &EevfsConfig::paper_npf(), &trace)
        });
        assert_eq!(m.response.count, 100);
        assert!(m.failed_requests > 0, "node 0's files are unreachable");
        assert!(m.failed_requests < 100, "other nodes still serve");
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let trace = small_trace(1000.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let faults = FaultPlan::generate(&fault_model::FaultSpec {
            seed: 7,
            horizon: SimDuration::from_secs(600),
            nodes: 8,
            disks_per_node: 2,
            disk_fail_per_hour: 6.0,
            mean_repair: SimDuration::from_secs(30),
            node_crash_per_hour: 6.0,
            mean_restart: SimDuration::from_secs(20),
            spin_up_fail_per_hour: 12.0,
        });
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let scenario = Scenario {
            faults: &faults,
            ..Scenario::new(&cluster, &cfg, &trace)
        };
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(
            a, b,
            "same (config, trace, fault plan) must replay bit-identically"
        );
        assert_eq!(a.response.count, 200);
    }

    #[test]
    fn spin_up_poisoning_is_counted() {
        // Poison every disk just after the replay starts on a trace with
        // misses; at least one wake attempt must hit the poisoning.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let mut b = FaultPlan::builder();
        for node in 0..8 {
            for disk in 0..2 {
                b = b.spin_up_fail(SimTime::from_secs(1), node, disk);
            }
        }
        let faults = b.build();
        let m = run(&Scenario {
            faults: &faults,
            ..Scenario::new(&cluster, &EevfsConfig::paper_pf(70), &trace)
        });
        assert_eq!(m.response.count, 300);
        assert_eq!(m.failed_requests, 0, "poisoning is transient");
        assert!(m.spin_up_failures > 0, "some wake attempt must fail");
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let trace = small_trace(100.0, 10);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_npf();
        let ok = Scenario::new(&cluster, &cfg, &trace);
        let empty = ClusterSpec {
            nodes: Vec::new(),
            ..ClusterSpec::paper_testbed()
        };
        let mut unsorted = trace.clone();
        unsorted.records.swap(0, 1);
        let faults = FaultPlan::builder().node_crash(SimTime::ZERO, 99).build();
        let net_plan = NetFaultPlan::partition_window(99, SimTime::ZERO, SimTime::from_secs(1));
        let (profile, policy) = (LinkFaultProfile::none(), sim_policy());
        let corruption = CorruptionPlan::builder()
            .lse(SimTime::ZERO, 99, 0, 0)
            .build();
        // Node and disk exist; block 64 lies past the 64-block scrub space.
        let past_last_block = CorruptionPlan::builder()
            .lse(SimTime::ZERO, 0, 0, 64)
            .build();
        let crashes = CrashPlan::one(99, SimTime::ZERO, SimTime::from_secs(1));
        let (no_corruption, no_crashes) = no_durability();
        let durable = |corruption, crashes| DurabilitySetup {
            corruption,
            crashes,
            scrub: ScrubPolicy::Off,
            blocks_per_disk: 64,
        };
        let stray = |plan, detail: String| DriverError::PlanOutOfRange { plan, detail };
        let cases = [
            (
                Scenario {
                    cluster: &empty,
                    ..ok
                },
                DriverError::BadCluster("cluster has no storage nodes".into()),
            ),
            (
                Scenario {
                    trace: &unsorted,
                    ..ok
                },
                DriverError::BadTrace(unsorted.validate().unwrap_err()),
            ),
            (
                Scenario {
                    faults: &faults,
                    ..ok
                },
                stray("fault", format!("{:?}", faults.events())),
            ),
            (
                Scenario {
                    resilience: Some(ResilienceSetup {
                        net_plan: &net_plan,
                        profile: &profile,
                        policy: &policy,
                    }),
                    ..ok
                },
                stray("net", format!("{:?}", net_plan.events())),
            ),
            (
                Scenario {
                    durability: Some(durable(&corruption, &no_crashes)),
                    ..ok
                },
                stray("corruption", format!("{:?}", corruption.events())),
            ),
            (
                Scenario {
                    durability: Some(durable(&past_last_block, &no_crashes)),
                    ..ok
                },
                stray("corruption", format!("{:?}", past_last_block.events())),
            ),
            (
                Scenario {
                    durability: Some(durable(&no_corruption, &crashes)),
                    ..ok
                },
                stray("crash", format!("{:?}", crashes.events())),
            ),
        ];
        for (scenario, expected) in cases {
            assert_eq!(simulate(&scenario, None).err(), Some(expected));
        }
    }

    #[test]
    #[should_panic(expected = "bad cluster")]
    fn run_cluster_panics_on_invalid_input() {
        let trace = small_trace(100.0, 10);
        let empty = ClusterSpec {
            nodes: Vec::new(),
            ..ClusterSpec::paper_testbed()
        };
        let _ = run_cluster(&empty, &EevfsConfig::paper_npf(), &trace);
    }

    fn sim_policy() -> RpcPolicy {
        RpcPolicy {
            seed: 11,
            ..RpcPolicy::retrying(SimDuration::from_secs(60), SimDuration::from_secs(3), 4)
        }
    }

    #[test]
    fn resilient_with_perfect_network_matches_plain_run() {
        // The resilience layer must be pay-for-what-you-use: with no
        // network faults and no hedging, the event flow is identical to
        // the legacy path and only the (all-zero) counters differ.
        let trace = small_trace(1000.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let plain = run(&Scenario::new(&cluster, &cfg, &trace));
        let resilient = run(&Scenario {
            resilience: Some(ResilienceSetup {
                net_plan: &NetFaultPlan::none(),
                profile: &LinkFaultProfile::none(),
                policy: &sim_policy(),
            }),
            ..Scenario::new(&cluster, &cfg, &trace)
        });
        assert_eq!(resilient.resilience, ResilienceStats::default());
        let mut stripped = resilient.clone();
        stripped.resilience = plain.resilience;
        assert_eq!(stripped, plain);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        // The PR's acceptance criterion: a seeded network fault plan
        // replayed twice produces identical Stats — retries, hedges,
        // breaker trips, and energy joules included.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let net_plan = NetFaultPlan::generate(&fault_model::NetFaultSpec {
            seed: 5,
            horizon: SimDuration::from_secs(600),
            links: 8,
            partition_per_hour: 12.0,
            mean_partition: SimDuration::from_secs(20),
        });
        let profile = LinkFaultProfile::lossy(3, 0.1);
        let policy = RpcPolicy {
            hedge_after: Some(SimDuration::from_secs(4)),
            ..sim_policy()
        };
        let setup = ResilienceSetup {
            net_plan: &net_plan,
            profile: &profile,
            policy: &policy,
        };
        let scenario = Scenario {
            resilience: Some(setup),
            ..Scenario::new(&cluster, &cfg, &trace)
        };
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a, b, "resilient replays must be bit-identical");
        assert_eq!(a.response.count, 300);
        assert!(a.resilience.rpc_drops > 0, "{:?}", a.resilience);
        assert!(a.resilience.rpc_retries > 0, "{:?}", a.resilience);
    }

    #[test]
    fn each_request_misses_its_deadline_at_most_once() {
        // Without retries a dropped flight gives up at its per-try
        // timeout, the deadline itself, so a failed request both gave up
        // and answered late: one miss, not two.
        let trace = small_trace(1000.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let policy = RpcPolicy {
            seed: 7,
            ..RpcPolicy::no_retry(SimDuration::from_secs(60))
        };
        let m = run(&Scenario {
            resilience: Some(ResilienceSetup {
                net_plan: &NetFaultPlan::none(),
                profile: &LinkFaultProfile::lossy(7, 0.6),
                policy: &policy,
            }),
            ..Scenario::new(&cluster, &cfg, &trace)
        });
        let misses = m.resilience.deadline_misses;
        assert!(m.failed_requests > 0, "{:?}", m.resilience);
        assert!(misses >= m.failed_requests, "every failure is a miss");
        assert!(misses <= trace.len() as u64, "{misses} misses");
    }

    #[test]
    fn partition_is_absorbed_and_breaker_recovers() {
        // A node partitioned mid-trace with R=2: reads keep completing via
        // the surviving replica, the partitioned node's breaker trips so
        // later requests fail over without burning per-try timeouts, and
        // after the heal a half-open probe closes the breaker again.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let mid = trace.records[trace.len() / 2].at;
        let net_plan = NetFaultPlan::partition_window(0, mid, mid + SimDuration::from_secs(30));
        let policy = RpcPolicy {
            breaker: fault_model::BreakerConfig {
                failure_threshold: 3,
                cooldown: SimDuration::from_secs(20),
            },
            ..sim_policy()
        };
        let m = run(&Scenario {
            resilience: Some(ResilienceSetup {
                net_plan: &net_plan,
                profile: &LinkFaultProfile::none(),
                policy: &policy,
            }),
            ..Scenario::new(&cluster, &cfg, &trace)
        });
        assert_eq!(m.response.count, 300);
        assert_eq!(m.failed_requests, 0, "replicas must absorb the partition");
        assert_eq!(m.resilience.net_fault_events, 2);
        assert!(m.resilience.rpc_drops > 0);
        assert!(m.resilience.rpc_retries > 0);
        assert!(m.resilience.breaker_trips >= 1, "{:?}", m.resilience);
        assert!(
            m.resilience.breaker_recoveries >= 1,
            "breaker must half-open and recover after the heal: {:?}",
            m.resilience
        );
        assert!(m.replica_redirects > 0);
    }

    #[test]
    fn hedged_reads_cut_tail_latency_for_extra_disk_energy() {
        // Latency spikes on the wire; hedging races a second replica. The
        // tail improves, and the duplicated flights do real disk work —
        // the energy cost the paper's buffer-disk accounting surfaces.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let profile = LinkFaultProfile {
            seed: 21,
            drop_prob: 0.0,
            reset_prob: 0.0,
            delay_prob: 0.25,
            mean_delay: SimDuration::from_secs(10),
        };
        let base = sim_policy();
        let hedged = RpcPolicy {
            hedge_after: Some(SimDuration::from_secs(3)),
            ..base.clone()
        };
        let run = |policy: &RpcPolicy| {
            run(&Scenario {
                resilience: Some(ResilienceSetup {
                    net_plan: &NetFaultPlan::none(),
                    profile: &profile,
                    policy,
                }),
                ..Scenario::new(&cluster, &cfg, &trace)
            })
        };
        let without = run(&base);
        let with = run(&hedged);
        assert_eq!(without.resilience.hedges, 0);
        assert!(with.resilience.hedges > 0);
        assert!(with.resilience.hedges_won > 0, "{:?}", with.resilience);
        assert!(
            with.response.p95_s < without.response.p95_s,
            "hedging must cut the tail: with {} vs without {}",
            with.response.p95_s,
            without.response.p95_s
        );
        assert!(
            with.disk_energy_j > without.disk_energy_j,
            "duplicate flights must cost disk energy: with {} vs without {}",
            with.disk_energy_j,
            without.disk_energy_j
        );
    }

    fn no_durability() -> (CorruptionPlan, CrashPlan) {
        (CorruptionPlan::none(), CrashPlan::none())
    }

    /// Corrupts every block of the small scrub space at `at`, so any
    /// physically-read file trips verification.
    fn blanket_corruption(at: SimTime, blocks: u32) -> CorruptionPlan {
        let mut b = CorruptionPlan::builder();
        for node in 0..8 {
            for disk in 0..2 {
                for block in 0..blocks {
                    b = b.lse(at, node, disk, block);
                }
            }
        }
        b.build()
    }

    #[test]
    fn durable_with_empty_plans_matches_faulted_run() {
        // Pay-for-what-you-use: an empty corruption/crash plan with the
        // scrubber off must replay the exact event flow of the plain
        // faulted run; only the journal bookkeeping counters may differ.
        let trace = small_trace(1000.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let plain = run(&Scenario::new(&cluster, &cfg, &trace));
        let (corruption, crashes) = no_durability();
        let durable = run(&Scenario {
            durability: Some(DurabilitySetup {
                corruption: &corruption,
                crashes: &crashes,
                scrub: ScrubPolicy::Off,
                blocks_per_disk: 64,
            }),
            ..Scenario::new(&cluster, &cfg, &trace)
        });
        assert_eq!(durable.scrub_energy_j, 0.0);
        assert!(
            durable.durability.journal_records > 0,
            "setup is journalled"
        );
        let mut stripped = durable.clone();
        stripped.durability = plain.durability;
        assert_eq!(stripped, plain);
    }

    #[test]
    fn corruption_is_detected_and_repaired_at_r2() {
        // Blanket-corrupt a tiny block space just after the replay
        // starts: every physical read fails verification, and with R=2
        // every detected block has a healthy copy to repair from.
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let corruption = blanket_corruption(SimTime::from_secs(1), 64);
        let crashes = CrashPlan::none();
        let setup = DurabilitySetup {
            corruption: &corruption,
            crashes: &crashes,
            scrub: ScrubPolicy::piggyback_default(),
            blocks_per_disk: 64,
        };
        let scenario = Scenario {
            durability: Some(setup),
            ..Scenario::new(&cluster, &cfg, &trace)
        };
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a, b, "durable replays must be bit-identical");
        assert_eq!(a.response.count, 300);
        assert!(a.durability.corruptions_landed > 0);
        assert!(
            a.durability.detected_on_read > 0,
            "misses must trip checksum verification: {:?}",
            a.durability
        );
        assert!(a.durability.scrub_passes > 0);
        assert!(a.durability.detected_by_scrub > 0, "{:?}", a.durability);
        assert!(a.durability.repaired_blocks > 0);
        assert_eq!(
            a.durability.unrecoverable_blocks, 0,
            "R=2 must cover every detection: {:?}",
            a.durability
        );
        assert!(a.scrub_energy_j > 0.0, "integrity work is metered");
        // The separate meter does not leak into serving energy: the
        // serving-side metrics match a run that never detects anything
        // except through the repair meter.
        assert_eq!(
            a.durability.detected_on_read + a.durability.detected_by_scrub,
            a.durability.repaired_blocks
        );
    }

    #[test]
    fn read_detection_resolves_before_the_scrub_window() {
        // One corrupt block, damaging the file the first request reads,
        // and a scrub window covering the whole disk. The read's checksum
        // catches the block before the same access scrubs, so the scrub
        // finds nothing and the block counts once, as detected on read.
        let trace = small_trace(1000.0, 50);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_npf();
        let first = trace.records[0];
        assert_eq!(first.op, Op::Read);
        let placement = place(
            cfg.placement,
            &PopularityTable::from_trace(&trace),
            &cluster.data_disk_counts(),
        );
        let home = |f: usize| (placement.node_of_file[f], placement.disk_of_file[f]);
        let (node, disk) = home(first.file.index());
        // Unreplicated, so the disk's victim map is the files placed on
        // it, ascending; block `i` damages the `i`-th of them.
        let block = (0..trace.file_count())
            .filter(|&f| home(f) == (node, disk))
            .position(|f| f == first.file.index())
            .unwrap() as u32;
        let blocks_per_disk = trace.file_count() as u32;
        let corruption = CorruptionPlan::builder()
            .lse(SimTime::ZERO, node, disk, block)
            .build();
        let scenario = Scenario {
            durability: Some(DurabilitySetup {
                corruption: &corruption,
                crashes: &CrashPlan::none(),
                scrub: ScrubPolicy::Piggyback {
                    blocks_per_pass: blocks_per_disk,
                },
                blocks_per_disk,
            }),
            ..Scenario::new(&cluster, &cfg, &trace)
        };
        let (m, report) = observe(&scenario);
        assert_eq!(m.durability.corruptions_landed, 1);
        assert_eq!(m.durability.detected_on_read, 1, "{:?}", m.durability);
        assert_eq!(m.durability.detected_by_scrub, 0, "{:?}", m.durability);
        assert_eq!(m.durability.unrecoverable_blocks, 1, "R=1 has no source");
        let mut on_disk = report.recorder.events().filter_map(|e| match e.kind {
            EventKind::ScrubPass {
                node: n,
                disk: d,
                blocks,
                found,
            } if (n, d) == (node, disk) => Some((blocks, found)),
            _ => None,
        });
        assert_eq!(
            on_disk.next(),
            Some((blocks_per_disk, 0)),
            "the access that caught the block scrubs the whole disk and finds nothing"
        );
    }

    #[test]
    fn unreplicated_corruption_is_unrecoverable() {
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let corruption = blanket_corruption(SimTime::from_secs(1), 64);
        let crashes = CrashPlan::none();
        let m = run(&Scenario {
            durability: Some(DurabilitySetup {
                corruption: &corruption,
                crashes: &crashes,
                scrub: ScrubPolicy::piggyback_default(),
                blocks_per_disk: 64,
            }),
            ..Scenario::new(&cluster, &EevfsConfig::paper_pf(70), &trace)
        });
        assert!(
            m.durability.unrecoverable_blocks > 0,
            "R=1 has no repair source: {:?}",
            m.durability
        );
        assert_eq!(m.response.count, 300, "detection never fails requests");
    }

    #[test]
    fn scrub_off_limits_detection_to_the_read_path() {
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let corruption = blanket_corruption(SimTime::from_secs(1), 64);
        let crashes = CrashPlan::none();
        let m = run(&Scenario {
            durability: Some(DurabilitySetup {
                corruption: &corruption,
                crashes: &crashes,
                scrub: ScrubPolicy::Off,
                blocks_per_disk: 64,
            }),
            ..Scenario::new(&cluster, &cfg, &trace)
        });
        assert_eq!(m.durability.scrub_passes, 0);
        assert_eq!(m.durability.detected_by_scrub, 0);
        assert!(m.durability.detected_on_read > 0);
        assert!(
            m.durability.latent_at_end > 0,
            "without scrubbing, unread corruption stays latent"
        );
    }

    #[test]
    fn crash_restart_replays_the_journal() {
        let trace = small_trace(1000.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let mid = trace.records[trace.len() / 2].at;
        let corruption = CorruptionPlan::none();
        let crashes = CrashPlan::one(2, mid, mid + SimDuration::from_secs(10));
        let m = run(&Scenario {
            durability: Some(DurabilitySetup {
                corruption: &corruption,
                crashes: &crashes,
                scrub: ScrubPolicy::Off,
                blocks_per_disk: 64,
            }),
            ..Scenario::new(&cluster, &EevfsConfig::paper_pf(70), &trace)
        });
        assert_eq!(m.response.count, 200);
        assert_eq!(m.failed_requests, 0, "restart lands inside retry budget");
        assert_eq!(m.fault_events, 2, "crash + restart both fire");
        assert_eq!(m.durability.journal_replays, 1);
        assert!(m.durability.journal_bytes_replayed > 0);
    }

    #[test]
    fn durable_observed_emits_durability_events() {
        let trace = small_trace(1000.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_replicated(70, 2);
        let mid = trace.records[trace.len() / 2].at;
        let corruption = blanket_corruption(SimTime::from_secs(1), 64);
        let crashes = CrashPlan::one(3, mid, mid + SimDuration::from_secs(10));
        let setup = DurabilitySetup {
            corruption: &corruption,
            crashes: &crashes,
            scrub: ScrubPolicy::piggyback_default(),
            blocks_per_disk: 64,
        };
        let scenario = Scenario {
            durability: Some(setup),
            ..Scenario::new(&cluster, &cfg, &trace)
        };
        let (m1, r1) = observe(&scenario);
        let (m2, r2) = observe(&scenario);
        assert_eq!(m1, m2);
        assert_eq!(
            r1.recorder.to_jsonl(),
            r2.recorder.to_jsonl(),
            "durable trace export must be byte-identical across replays"
        );
        let has = |pred: &dyn Fn(&EventKind) -> bool| r1.recorder.events().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(k, EventKind::CorruptionDetected { .. })));
        assert!(has(&|k| matches!(k, EventKind::ScrubPass { .. })));
        assert!(has(&|k| matches!(k, EventKind::JournalReplay { .. })));
        assert!(has(&|k| matches!(k, EventKind::NodeRestart { .. })));
        // Observation stays passive.
        assert_eq!(m1, run(&scenario));
    }

    #[test]
    fn prefetch_warmup_is_accounted() {
        let trace = small_trace(100.0, 100);
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        assert!(pf.prefetch.files > 0);
        assert!(pf.prefetch.bytes > 0);
        assert!(pf.prefetch.warmup_us > 0);
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        assert_eq!(npf.prefetch.warmup_us, 0);
        assert!(pf.duration_s > npf.duration_s * 0.9);
    }

    #[test]
    fn observation_is_passive_and_bit_reproducible() {
        let trace = small_trace(1000.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf(70);
        let plain = run_cluster(&cluster, &cfg, &trace);
        let scenario = Scenario::new(&cluster, &cfg, &trace);
        let (m1, r1) = observe(&scenario);
        let (m2, r2) = observe(&scenario);
        assert_eq!(plain, m1, "observation must not perturb the simulation");
        let jsonl = r1.recorder.to_jsonl();
        assert_eq!(
            jsonl,
            r2.recorder.to_jsonl(),
            "trace export must be byte-identical across replays"
        );
        assert_eq!(m1, m2);
        assert!(!r1.recorder.is_empty());
        assert_eq!(r1.registry.counter("requests"), 200);
        assert!(r1.registry.try_series("queue_depth").is_ok());
        assert!(r1.registry.try_series("power_w.n0").is_ok());
        assert!(r2.registry.counter("sleeps") > 0, "PF runs sleep disks");
    }

    /// `power_w.n0` of the 200-request PF(70) observed run, one value per
    /// window of the 120-window power-draw series, as first recorded.
    #[rustfmt::skip]
    const POWER_W_N0: [f64; 120] = [
        86.20835520383305, 79.60554240055451, 77.9, 76.17590745750394,
        71.67604391592651, 68.95360337209175, 64.30000000000001, 64.29999999999998,
        64.78432180899165, 85.80000000000001, 81.37537894846638, 71.10000000000001,
        64.82540231170982, 64.30000000000001, 65.37302200422772, 64.37906582762528,
        64.87604440047917, 64.29999999999998, 64.29999999999998, 64.30000000000004,
        64.29999999999995, 64.29999999999998, 64.29999999999998, 64.30000000000001,
        64.29999999999998, 64.29999999999998, 64.30000000000001, 64.87604391592662,
        64.29999999999998, 64.87604391592652, 64.29999999999991, 64.30000000000008,
        64.2999999999999, 64.30000000000001, 64.30000000000008, 64.29999999999998,
        64.30000000000001, 64.30000000000008, 64.2999999999999, 64.87604391592652,
        64.30000000000001, 64.29999999999998, 64.87604391592652, 64.30000000000001,
        64.30000000000008, 64.29999999999998, 64.30000000000001, 64.29999999999998,
        64.87604391592643, 64.29999999999998, 81.60902132878438, 84.45002098725041,
        71.22196006618326, 66.30410256927898, 64.30000000000018, 75.17219269239934,
        86.37604440047885, 74.2729779267962, 68.33993617184143, 64.29999999999998,
        64.30000000000001, 64.29999999999998, 64.29999999999998, 64.30000000000001,
        64.61283662666341, 64.56320728926319, 64.87604440047907, 64.29999999999998,
        64.29999999999998, 64.30000000000018, 64.30000000000001, 64.36919349235416,
        64.80685042357226, 64.30000000000001, 64.5760083343358, 64.6000355815908,
        64.29999999999981, 64.30000000000018, 64.29999999999998, 64.87604391592662,
        64.87604440047889, 64.29999999999998, 64.30000000000018, 64.29999999999981,
        64.87604391592662, 64.29999999999998, 64.87604440047926, 64.29999999999998,
        64.29999999999998, 64.29999999999998, 64.29999999999981, 64.87604391592662,
        64.29999999999998, 64.30000000000001, 64.29999999999998, 64.29999999999998,
        64.30000000000001, 64.29999999999998, 64.30000000000018, 64.2999999999998,
        64.30000000000001, 64.30000000000018, 64.2999999999998, 64.3000000000002,
        64.46552345735293, 65.2865643745001, 64.30000000000001, 64.2999999999998,
        64.30000000000018, 64.2999999999998, 64.30000000000038, 64.2999999999998,
        64.87604391592623, 64.30000000000038, 64.2999999999998, 64.87604391592623,
        64.30000000000038, 64.2999999999998, 64.87604391592662, 64.87604391592623,
    ];

    #[test]
    fn observed_series_match_their_pinned_values() {
        let trace = small_trace(1000.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf(70);
        let (_, report) = observe(&Scenario::new(&cluster, &cfg, &trace));
        let queue = report.registry.try_series("queue_depth").unwrap();
        let peak = queue.iter().map(|(_, v)| v).fold(0.0, f64::max);
        assert_eq!((queue.len(), peak), (141, 5.0));
        let power = report.registry.try_series("power_w.n0").unwrap();
        let values: Vec<f64> = power.iter().map(|(_, w)| w).collect();
        assert_eq!(values, POWER_W_N0);
        assert_eq!(power.last().unwrap().0, SimTime::from_micros(142_658_004));
    }

    #[test]
    fn one_request_is_followable_arrive_to_complete() {
        let trace = small_trace(1000.0, 150);
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf(70);
        let (_, report) = observe(&Scenario::new(&cluster, &cfg, &trace));
        let hist = report.recorder.request_history(0);
        assert!(
            hist.iter()
                .any(|e| matches!(e.kind, EventKind::RequestArrive { .. })),
            "request 0 must arrive"
        );
        assert!(
            hist.iter()
                .any(|e| matches!(e.kind, EventKind::RequestQueued { .. })),
            "request 0 must be routed to a node"
        );
        assert!(
            hist.iter()
                .any(|e| matches!(e.kind, EventKind::RequestServe { .. })),
            "request 0 must be served by a disk"
        );
        assert!(
            hist.iter()
                .any(|e| matches!(e.kind, EventKind::RequestComplete { .. })),
            "request 0 must complete"
        );
        // Arrive precedes complete in the sorted timeline.
        let arrive = hist
            .iter()
            .position(|e| matches!(e.kind, EventKind::RequestArrive { .. }))
            .unwrap();
        let complete = hist
            .iter()
            .position(|e| matches!(e.kind, EventKind::RequestComplete { .. }))
            .unwrap();
        assert!(arrive < complete);
    }

    #[test]
    fn prediction_summary_scores_sleeps_on_every_run() {
        // MU=10 full coverage: every sleep window runs to the end of the
        // trace, so every prediction pays off.
        let trace = small_trace(10.0, 300);
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        assert!(pf.prediction.sleeps > 0);
        assert_eq!(pf.prediction.sleeps, pf.prediction.paid_off);
        assert_eq!(pf.prediction.accuracy(), 1.0);
        assert!(pf.prediction.mean_realized_s > 0.0);
        // NPF never engages power management: nothing to score.
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        assert_eq!(npf.prediction.sleeps, 0);
        assert_eq!(npf.prediction.accuracy(), 1.0);
    }

    #[test]
    fn overload_gate_sheds_at_saturation_and_ledger_closes() {
        // A zero-gap burst is the paper's worst case: every request lands
        // at once. With a bounded gate the server refuses the overflow
        // instead of queueing it, and the shed ledger closes exactly.
        let trace = generate(&SyntheticSpec {
            inter_arrival: SimDuration::ZERO,
            requests: 300,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let mut cfg = EevfsConfig::paper_pf(70);
        cfg.overload = Some(crate::overload::OverloadOptions::bounded(8));
        let a = run_cluster(&cluster, &cfg, &trace);
        let o = a.overload;
        assert!(o.ledger_closes(), "shed ledger must close: {o:?}");
        assert_eq!(o.offered, 300);
        assert!(
            o.rejected + o.shed > 0,
            "saturation must refuse work: {o:?}"
        );
        assert!(o.queue_peak <= 8, "queue bounded by max_inflight: {o:?}");
        assert!(o.brownout_transitions > 0 && o.max_level >= 1, "{o:?}");
        // Latency samples cover exactly the requests the gate admitted and
        // the node did not shed; refused work never pollutes the tail.
        assert_eq!(a.response.count as u64, o.completed + o.failed);
        let b = run_cluster(&cluster, &cfg, &trace);
        assert_eq!(a, b, "overloaded runs must stay deterministic");
    }

    #[test]
    fn overload_closed_loop_sheds_and_stays_deterministic() {
        // Closed loop with 32 streams against 8 admission slots: the loop
        // keeps re-offering, the gate keeps the queue bounded.
        let trace = generate(&SyntheticSpec {
            inter_arrival: SimDuration::ZERO,
            requests: 300,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_overload(70, 32, 8);
        let a = run_cluster(&cluster, &cfg, &trace);
        assert!(a.overload.ledger_closes(), "{:?}", a.overload);
        assert_eq!(a.overload.offered, 300);
        assert!(
            a.overload.rejected + a.overload.shed > 0,
            "{:?}",
            a.overload
        );
        assert!(a.overload.queue_peak <= 8);
        let b = run_cluster(&cluster, &cfg, &trace);
        assert_eq!(a, b, "closed-loop overload must stay deterministic");
    }

    #[test]
    fn brownout_level_one_sheds_buffer_misses_at_the_node() {
        // No prefetch at all: every read misses the buffer tier, so once
        // the ladder reaches L1 the node refuses spin-up work downstream
        // of admission and the run books it as node_shed.
        let trace = generate(&SyntheticSpec {
            inter_arrival: SimDuration::ZERO,
            requests: 300,
            write_fraction: 0.0,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf_overload(0, 32, 8);
        let m = run_cluster(&cluster, &cfg, &trace);
        assert!(m.overload.ledger_closes(), "{:?}", m.overload);
        assert!(
            m.overload.node_shed > 0,
            "L1 must shed misses: {:?}",
            m.overload
        );
    }

    #[test]
    fn admitted_requests_that_fail_downstream_close_the_ledger() {
        // R=1 and node 0 dead for good: requests the gate admitted for
        // node 0's files exhaust the retry budget, and the ledger books
        // them as failed rather than completed.
        let trace = small_trace(1000.0, 100);
        let cluster = ClusterSpec::paper_testbed();
        let faults = FaultPlan::builder().node_crash(SimTime::ZERO, 0).build();
        let mut cfg = EevfsConfig::paper_npf();
        cfg.overload = Some(crate::overload::OverloadOptions::bounded(8));
        let m = run(&Scenario {
            faults: &faults,
            ..Scenario::new(&cluster, &cfg, &trace)
        });
        let o = m.overload;
        assert!(o.failed > 0, "node 0's admitted reads must fail: {o:?}");
        assert!(o.ledger_closes(), "{o:?}");
        assert_eq!(o.failed, m.failed_requests, "{o:?}");
    }

    #[test]
    fn legacy_configs_report_zero_overload_stats() {
        // `overload: None` keeps the legacy unbounded-queue behaviour:
        // every request completes and the overload ledger stays empty.
        let trace = small_trace(100.0, 200);
        let cluster = ClusterSpec::paper_testbed();
        let m = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
        assert_eq!(m.overload, crate::metrics::OverloadStats::default());
        assert_eq!(m.response.count, 200);
    }
}
