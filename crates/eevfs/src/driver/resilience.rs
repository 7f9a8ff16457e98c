//! The routing-and-resilience plane (§IV-A steps 5–6, DESIGN §8): the
//! server resolves each request to a live copy of its file and forwards
//! it, under the faults and RPC policy of a [`ResilienceSetup`]. Without
//! a setup the plane is disengaged: it draws no random number, allocates
//! nothing per request and schedules no event.

use super::{Admission, ClusterSim, Ev, ReqState};
use crate::config::ReplicaSelection;
use crate::metrics::ResilienceStats;
use crate::replication::{select_replica, Selected};
use eevfs_obs::EventKind;
use fault_model::{
    CircuitBreaker, LinkDecision, LinkFaultProfile, NetFaultEvent, NetFaultInjector, NetFaultPlan,
    RpcPolicy,
};
use sim_core::{EventQueue, SimDuration, SimTime};
use workload::record::{FileId, Op};

/// Delay before a request that found no serviceable replica is re-routed.
const ROUTE_RETRY_BACKOFF_MS: u64 = 500;
/// Routing attempts before a request is abandoned (counted in
/// [`RunMetrics::failed_requests`](crate::metrics::RunMetrics::failed_requests));
/// 240 × 500 ms = a two-minute budget, enough to ride out the default
/// repair/restart times.
const MAX_ROUTE_ATTEMPTS: u32 = 240;

/// The network-resilience plane of a [`Scenario`](super::Scenario):
/// network faults are injected on the server→node leg and every request
/// runs under the RPC resilience policy — bounded retries with
/// deterministic jittered backoff, per-node circuit breakers gating
/// replica selection, and hedged reads that race a second replica (whose
/// duplicate disk activations are charged to the run's energy, the
/// paper-relevant hedging penalty).
#[derive(Debug, Clone, Copy)]
pub struct ResilienceSetup<'a> {
    /// Scheduled partitions/heals on the server↔node links.
    pub net_plan: &'a NetFaultPlan,
    /// Per-message drop/reset/delay probabilities.
    pub profile: &'a LinkFaultProfile,
    /// Deadlines, retries, hedging, breakers.
    pub policy: &'a RpcPolicy,
}

/// One run's routing-and-resilience state; `None` inside when the
/// scenario has no [`ResilienceSetup`].
pub(super) struct ResiliencePlane<'a>(Option<Engaged<'a>>);

/// The live state of an engaged plane. The injector, the policy and the
/// breakers come from one setup, so they exist together or not at all.
struct Engaged<'a> {
    net: NetFaultInjector,
    policy: &'a RpcPolicy,
    /// One breaker per node.
    breakers: Vec<CircuitBreaker>,
    /// Breaker admission per node at the last routing decision.
    admits: Vec<bool>,
    stats: ResilienceStats,
}

impl<'a> ResiliencePlane<'a> {
    /// The plane `setup` describes over `nodes` links, its network-fault
    /// plan shifted by `warmup` from replay-relative into sim time.
    pub(super) fn new(
        setup: Option<ResilienceSetup<'a>>,
        warmup: SimDuration,
        nodes: usize,
    ) -> Self {
        ResiliencePlane(setup.map(|s| {
            let shifted =
                NetFaultPlan::from_trace(s.net_plan.events().iter().map(|e| NetFaultEvent {
                    at: e.at + warmup,
                    kind: e.kind,
                }));
            Engaged {
                net: NetFaultInjector::new(s.profile.clone(), shifted, nodes),
                policy: s.policy,
                breakers: vec![CircuitBreaker::new(s.policy.breaker); nodes],
                admits: vec![true; nodes],
                stats: ResilienceStats::default(),
            }
        }))
    }

    /// The instants a link partitions or heals, ascending: each arms one
    /// [`Ev::NetFault`]. The plan deciding message fates and this
    /// schedule are the same object, so they cannot diverge.
    pub(super) fn wakeups(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.0.iter().flat_map(|e| e.net.event_times())
    }

    /// True when retries or hedges may race a flight to a second answer.
    pub(super) fn is_engaged(&self) -> bool {
        self.0.is_some()
    }

    /// Applies the partitions and heals due by `now`.
    pub(super) fn on_net_fault(&mut self, now: SimTime) {
        if let Some(e) = self.0.as_mut() {
            e.stats.net_fault_events += e.net.apply_until(now) as u64;
        }
    }

    /// Asks every node's breaker whether it admits traffic at `now`. Open
    /// breakers whose cooldown elapsed turn half-open here, so every
    /// breaker is asked on every routing decision, not only the
    /// candidates'.
    fn refresh_admissions(&mut self, now: SimTime) {
        if let Some(e) = self.0.as_mut() {
            for (ok, b) in e.admits.iter_mut().zip(&mut e.breakers) {
                *ok = b.allows(now);
            }
        }
    }

    /// Whether `node`'s breaker admitted traffic at the last refresh.
    fn admits(&self, node: usize) -> bool {
        self.0.as_ref().is_none_or(|e| e.admits[node])
    }

    /// A flight reached `node`: the link and node answered, which is what
    /// its breaker tracks.
    pub(super) fn on_delivered(&mut self, node: usize) {
        if let Some(e) = self.0.as_mut() {
            e.breakers[node].on_success();
        }
    }

    /// Books a recorded response that took `elapsed`, won by a hedge
    /// flight when `by_hedge`. A request that `failed` or answered after
    /// its deadline missed it; each request is booked once.
    pub(super) fn on_response(&mut self, elapsed: SimDuration, by_hedge: bool, failed: bool) {
        if let Some(e) = self.0.as_mut() {
            e.stats.hedges_won += u64::from(by_hedge);
            e.stats.deadline_misses += u64::from(failed || elapsed > e.policy.deadline);
        }
    }

    /// The run's counters, breaker trips and recoveries summed over nodes.
    pub(super) fn stats(&self) -> ResilienceStats {
        self.0
            .as_ref()
            .map_or_else(ResilienceStats::default, |e| ResilienceStats {
                breaker_trips: e.breakers.iter().map(|b| b.trips()).sum(),
                breaker_recoveries: e.breakers.iter().map(|b| b.recoveries()).sum(),
                ..e.stats
            })
    }
}

impl ClusterSim<'_> {
    /// The replica selector: picks a copy of `file` under `policy` among
    /// those `admit` accepts that sit on a live node with a working disk
    /// or a buffered copy, preferring buffered, then awake copies.
    pub(super) fn select_copy(
        &self,
        file: FileId,
        policy: ReplicaSelection,
        tiebreak: u64,
        admit: impl Fn(usize, usize) -> bool,
    ) -> Option<Selected> {
        select_replica(
            self.replicas.of(file),
            policy,
            |n, d| {
                admit(n, d)
                    && self.health.node_ok(n)
                    && (self.health.disk_ok(n, d) || self.nodes[n].catalog.contains(file))
            },
            |n| self.nodes[n].catalog.contains(file),
            |n, d| self.health.disk_ok(n, d) && !self.nodes[n].data_disks[d].is_sleeping(),
            tiebreak,
        )
    }

    /// Step 5: resolves `req` to a copy its breakers admit and forwards it
    /// through the server's serialised stage. Reads use the configured
    /// selection policy; writes always land on the first serviceable copy
    /// in placement order so the authoritative copy stays the primary
    /// whenever it is up.
    pub(super) fn route(&mut self, req: u32, now: SimTime, queue: &mut EventQueue<Ev>) {
        self.resilience.refresh_admissions(now);
        let r = &self.reqs[req as usize];
        let policy = match r.op {
            Op::Read => self.cfg.replica_selection,
            Op::Write => ReplicaSelection::Primary,
        };
        let sel = self.select_copy(r.file, policy, req as u64, |n, _| self.resilience.admits(n));
        let Some(sel) = sel else {
            // Every copy is currently unreachable: back off and re-route
            // (bounded).
            self.retry_route(req, now, queue);
            return;
        };
        if sel.replica != 0 {
            self.replica_redirects += 1;
        }
        let r = &mut self.reqs[req as usize];
        r.node = sel.node;
        r.disk = sel.disk;
        self.forward(req, sel.node, now, queue);
        self.obs.event(
            now,
            EventKind::RequestQueued {
                req: req as u64,
                node: sel.node as u32,
            },
        );
    }

    /// Step 6: sends `req`'s flight to `node` over the faulty link. It
    /// arrives (late under a delay spike), is dropped (the sender notices
    /// at the per-try timeout), or is reset (the sender notices at once).
    pub(super) fn send_rpc(
        &mut self,
        req: u32,
        node: usize,
        now: SimTime,
        queue: &mut EventQueue<Ev>,
    ) {
        let attempt = self.reqs[req as usize].rpc_tries + 1;
        self.obs.event(
            now,
            EventKind::RpcSend {
                req: req as u64,
                node: node as u32,
                attempt,
            },
        );
        let arrive = now + self.nodes[node].ctl_in;
        let Some(e) = self.resilience.0.as_mut() else {
            queue.schedule(arrive, Ev::NodeArrive(req));
            return;
        };
        // Arm at most one hedge per read, timed from this flight's
        // departure: if no response lands within `hedge_after`, a second
        // replica is raced (whatever delayed the first — injected
        // latency, a drop, or a slow spin-up).
        let r = &mut self.reqs[req as usize];
        if let Some(after) = e.policy.hedge_after {
            if r.op == Op::Read && r.mirror_of.is_none() && !r.hedge_armed {
                r.hedge_armed = true;
                queue.schedule(now + after, Ev::Hedge(req));
            }
        }
        match e.net.decide(node) {
            LinkDecision::Deliver => queue.schedule(arrive, Ev::NodeArrive(req)),
            LinkDecision::Delay(spike) => {
                e.stats.rpc_delays += 1;
                queue.schedule(arrive + spike, Ev::NodeArrive(req));
            }
            LinkDecision::Drop => {
                e.stats.rpc_drops += 1;
                e.breakers[node].on_failure(now);
                queue.schedule(now + e.policy.per_try_timeout, Ev::RpcLost(req));
                self.obs.event(
                    now,
                    EventKind::RpcDropped {
                        req: req as u64,
                        node: node as u32,
                        attempt,
                    },
                );
            }
            LinkDecision::Reset => {
                e.stats.rpc_resets += 1;
                e.breakers[node].on_failure(now);
                self.rpc_retry(req, now, queue);
            }
        }
    }

    /// An RPC flight for `req` was lost (drop, reset). Re-sends it through
    /// routing after the request's deterministic backoff, or gives up when
    /// the schedule (which never outlives the deadline) is exhausted.
    /// Hedge mirrors are never retried — the original still owns
    /// recovery — and a request a hedge already answered needs no retry.
    pub(super) fn rpc_retry(&mut self, req: u32, now: SimTime, queue: &mut EventQueue<Ev>) {
        let r = &self.reqs[req as usize];
        if r.mirror_of.is_some() || r.response_s.is_some() {
            return;
        }
        let tries = r.rpc_tries;
        let Some(e) = self.resilience.0.as_mut() else {
            return;
        };
        match e.policy.backoff_delay(req as u64, tries as usize) {
            Some(backoff) => {
                e.stats.rpc_retries += 1;
                self.reqs[req as usize].rpc_tries += 1;
                self.obs.event(
                    now,
                    EventKind::RpcRetry {
                        req: req as u64,
                        attempt: tries + 2,
                    },
                );
                queue.schedule(now + backoff, Ev::ServerArrive(req));
            }
            None => {
                // Retry budget (bounded by the deadline) exhausted: the
                // response books the deadline miss.
                self.failed_requests += 1;
                self.reqs[req as usize].admission = Admission::Failed;
                self.record_response(req, now, queue);
            }
        }
    }

    /// Spawns the hedge flight for `req`: a mirror request against the
    /// best alternate replica, racing the original through the full
    /// server→node→disk→NIC path (so its disk activations are charged).
    pub(super) fn spawn_hedge(&mut self, req: u32, now: SimTime, queue: &mut EventQueue<Ev>) {
        if self.reqs[req as usize].response_s.is_some() {
            return;
        }
        self.resilience.refresh_admissions(now);
        let r = self.reqs[req as usize];
        let sel = self.select_copy(r.file, self.cfg.replica_selection, req as u64, |n, _| {
            n != r.node && self.resilience.admits(n)
        });
        let (Some(sel), Some(e)) = (sel, self.resilience.0.as_mut()) else {
            return; // no alternate replica to race
        };
        e.stats.hedges += 1;
        let mirror = self.reqs.len() as u32;
        self.reqs.push(ReqState {
            node: sel.node,
            disk: sel.disk,
            from_buffer: false,
            spun_up: false,
            attempts: 0,
            rpc_tries: 0,
            mirror_of: Some(req),
            hedge_armed: true,
            response_s: None,
            admission: Admission::Pending,
            ..r
        });
        self.obs.event(
            now,
            EventKind::RpcHedge {
                req: mirror as u64,
                parent: req as u64,
                node: sel.node as u32,
            },
        );
        self.forward(mirror, sel.node, now, queue);
    }

    /// Passes `req` through the server's serialised metadata stage on its
    /// way to `node`.
    fn forward(&mut self, req: u32, node: usize, now: SimTime, queue: &mut EventQueue<Ev>) {
        let done = self.server.process(now);
        let node = node as u32;
        queue.schedule(done, Ev::ServerDone { req, node });
    }

    /// Degraded mode: sends the request back through routing after a
    /// backoff, or abandons it once the attempt budget is spent (the
    /// response is recorded at give-up time so the run still terminates
    /// and accounts every request).
    pub(super) fn retry_route(&mut self, req: u32, now: SimTime, queue: &mut EventQueue<Ev>) {
        let r = &mut self.reqs[req as usize];
        r.from_buffer = false;
        r.attempts += 1;
        if r.mirror_of.is_some() {
            // A hedge that cannot route is simply abandoned; the original
            // flight still owns completion and failure accounting.
            return;
        }
        if r.attempts >= MAX_ROUTE_ATTEMPTS {
            r.admission = Admission::Failed;
            self.failed_requests += 1;
            self.record_response(req, now, queue);
        } else {
            queue.schedule(
                now + SimDuration::from_millis(ROUTE_RETRY_BACKOFF_MS),
                Ev::ServerArrive(req),
            );
        }
    }
}
