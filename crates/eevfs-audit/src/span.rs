//! Causal span reconstruction: from a flat deterministic trace to one
//! span per request, with a critical-path latency decomposition.
//!
//! The trace schema (eevfs-obs) timestamps every milestone a request
//! crosses: arrival, server admission, RPC dispatch (with retries and
//! hedges), spin-up waits, disk/tier service, and completion. Because
//! the recorder sorts events by `(at_us, seq)` and every field is an
//! integer, folding the stream into spans is a pure function of the
//! trace — two same-seed runs reconstruct byte-identical spans.
//!
//! The decomposition telescopes: for a request with every milestone
//! present, `queue + dispatch + spinup + transfer == total` exactly
//! (integer microseconds, no rounding). Requests missing milestones
//! (failed requests, tier hits that skip the disk) carry the remainder
//! in `unaccounted_us` so the identity still holds by construction.

use disk_model::PowerState;
use eevfs_obs::{EventKind, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Where a request's winning service came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ServeSource {
    /// The node's always-on buffer disk absorbed the access.
    Buffer,
    /// A data disk serviced the access.
    Data,
    /// The DRAM cache tier above the buffer disk (eevfs-power).
    Dram,
    /// The SSD cache tier above the buffer disk (eevfs-power).
    Ssd,
    /// No serve event observed (the request failed or was dropped).
    #[default]
    Unserved,
}

/// One request's reconstructed causal span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestSpan {
    /// Request ID (hedge mirrors are folded into their parent).
    pub req: u64,
    /// File the request touched.
    pub file: u64,
    /// Request size in bytes.
    pub bytes: u64,
    /// True for writes.
    pub write: bool,
    /// Serving node, when a serve was observed.
    pub node: Option<u32>,
    /// Serving disk index (`u32::MAX` = buffer disk), data/buffer only.
    pub disk: Option<u32>,
    /// Where the winning service came from.
    pub source: ServeSource,
    /// Arrival timestamp, µs.
    pub arrive_us: u64,
    /// Completion timestamp, µs (present for every completed request).
    pub complete_us: Option<u64>,
    /// End-to-end latency, µs (completion − arrival).
    pub total_us: u64,
    /// Server admission/queue wait: arrival → routed to a node.
    pub queue_us: u64,
    /// Dispatch: routed → first disk/tier activity. Includes the RPC
    /// flight plus any retry backoff and hedge races.
    pub dispatch_us: u64,
    /// Spin-up wait: the paper's ~2 s wake penalty, when the request hit
    /// a standby disk.
    pub spinup_us: u64,
    /// Service/transfer: disk or tier begins → response at the client.
    pub transfer_us: u64,
    /// Remainder for spans missing milestones; zero when the full
    /// milestone chain was observed.
    pub unaccounted_us: u64,
    /// RPC attempts observed (1 for a clean send).
    pub attempts: u32,
    /// Retries scheduled after drops/resets/timeouts.
    pub retries: u32,
    /// Flights the network dropped.
    pub drops: u32,
    /// Speculative hedge duplicates launched for this request.
    pub hedges: u32,
    /// True when a hedge flight produced the winning response.
    pub hedge_won: bool,
}

impl RequestSpan {
    /// The decomposition identity every span satisfies by construction.
    pub fn segments_sum(&self) -> u64 {
        self.queue_us + self.dispatch_us + self.spinup_us + self.transfer_us + self.unaccounted_us
    }
}

#[derive(Default)]
struct SpanBuilder {
    file: u64,
    bytes: u64,
    write: bool,
    arrive_us: Option<u64>,
    queued_us: Option<u64>,
    spinup_us_at: Option<u64>,
    serve_us_at: Option<u64>,
    complete_us: Option<u64>,
    response_us: Option<u64>,
    node: Option<u32>,
    disk: Option<u32>,
    source: ServeSource,
    attempts: u32,
    retries: u32,
    drops: u32,
    hedges: u32,
    hedge_won: bool,
}

/// Folds a time-sorted trace into per-request spans, in request-ID order.
///
/// Hedge mirrors are canonicalised onto the request they cover (the
/// `RpcHedge` event names both IDs), so a span counts its duplicates
/// instead of leaking phantom requests. Requests that never complete
/// still produce a span with `complete_us: None`.
pub fn reconstruct_spans(events: &[TraceEvent]) -> Vec<RequestSpan> {
    // Pass 1: hedge-mirror ID → parent ID.
    let mut parent_of: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in events {
        if let EventKind::RpcHedge { req, parent, .. } = ev.kind {
            parent_of.insert(req, parent);
        }
    }

    // Pass 2: accumulate milestones per canonical request. Builders are
    // kept in first-seen order behind a hash index, one O(1) lookup per
    // event, and put in request-ID order once at the end.
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut builders: Vec<(u64, SpanBuilder)> = Vec::new();
    for ev in events {
        let Some(raw) = ev.kind.request_id() else {
            continue;
        };
        let (req, is_mirror) = match parent_of.get(&raw) {
            Some(&parent) => (parent, true),
            None => (raw, false),
        };
        let slot = *index.entry(req).or_insert_with(|| {
            builders.push((req, SpanBuilder::default()));
            builders.len() - 1
        });
        let b = &mut builders[slot].1;
        match &ev.kind {
            EventKind::RequestArrive {
                file, write, bytes, ..
            } => {
                b.arrive_us.get_or_insert(ev.at_us);
                b.file = *file;
                b.bytes = *bytes;
                b.write = *write;
            }
            EventKind::RequestQueued { .. } => {
                b.queued_us.get_or_insert(ev.at_us);
            }
            // Keep the last wait before service: under retries the
            // final replica's wake is the one on the critical path.
            EventKind::SpinupWait { node, disk, .. } if b.serve_us_at.is_none() => {
                b.spinup_us_at = Some(ev.at_us);
                b.node.get_or_insert(*node);
                b.disk.get_or_insert(*disk);
            }
            EventKind::RequestServe {
                node,
                disk,
                from_buffer,
                ..
            } => {
                b.serve_us_at = Some(ev.at_us);
                b.node = Some(*node);
                b.source = if *from_buffer {
                    b.disk = Some(u32::MAX);
                    ServeSource::Buffer
                } else {
                    b.disk = Some(*disk);
                    ServeSource::Data
                };
            }
            EventKind::TierServe { node, ssd, .. } => {
                b.serve_us_at = Some(ev.at_us);
                b.node = Some(*node);
                b.source = if *ssd {
                    ServeSource::Ssd
                } else {
                    ServeSource::Dram
                };
            }
            EventKind::RequestComplete { response_us, .. } if !is_mirror => {
                b.complete_us = Some(ev.at_us);
                b.response_us = Some(*response_us);
            }
            EventKind::RpcSend { .. } => b.attempts += 1,
            EventKind::RpcRetry { .. } => b.retries += 1,
            EventKind::RpcDropped { .. } => b.drops += 1,
            EventKind::RpcHedge { .. } => b.hedges += 1,
            EventKind::RpcComplete { won_by_hedge, .. } => b.hedge_won |= *won_by_hedge,
            _ => {}
        }
    }

    // Pass 3: close the decomposition. Only IDs that actually arrived
    // become spans (stray mirrors without an RpcHedge record do not).
    builders.sort_unstable_by_key(|&(req, _)| req);
    builders
        .into_iter()
        .filter_map(|(req, b)| {
            let arrive = b.arrive_us?;
            let total = b.complete_us.map(|c| c.saturating_sub(arrive)).unwrap_or(0);
            let queue = b.queued_us.map(|q| q.saturating_sub(arrive)).unwrap_or(0);
            let first_disk = b.spinup_us_at.or(b.serve_us_at);
            let dispatch = match (b.queued_us, first_disk) {
                (Some(q), Some(d)) => d.saturating_sub(q),
                _ => 0,
            };
            let spinup = match (b.spinup_us_at, b.serve_us_at) {
                (Some(w), Some(s)) => s.saturating_sub(w),
                _ => 0,
            };
            let transfer = match (b.serve_us_at, b.complete_us) {
                (Some(s), Some(c)) => c.saturating_sub(s),
                _ => 0,
            };
            let accounted = queue + dispatch + spinup + transfer;
            Some(RequestSpan {
                req,
                file: b.file,
                bytes: b.bytes,
                write: b.write,
                node: b.node,
                disk: b.disk,
                source: b.source,
                arrive_us: arrive,
                complete_us: b.complete_us,
                total_us: total,
                queue_us: queue,
                dispatch_us: dispatch,
                spinup_us: spinup,
                transfer_us: transfer,
                unaccounted_us: total.saturating_sub(accounted),
                attempts: b.attempts,
                retries: b.retries,
                drops: b.drops,
                hedges: b.hedges,
                hedge_won: b.hedge_won,
            })
        })
        .collect()
}

/// Power-state residency of one disk over an accounting window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiskResidency {
    /// Microseconds spent Active.
    pub active_us: u64,
    /// Microseconds spent Idle (spinning, not serving).
    pub idle_us: u64,
    /// Microseconds spent Standby (spun down).
    pub standby_us: u64,
    /// Microseconds spent spinning up.
    pub spinup_us: u64,
    /// Microseconds spent spinning down.
    pub spindown_us: u64,
    /// Spin-up transitions inside the window.
    pub spin_ups: u64,
}

impl DiskResidency {
    fn charge(&mut self, state: PowerState, us: u64) {
        match state {
            PowerState::Active => self.active_us += us,
            PowerState::Idle => self.idle_us += us,
            PowerState::Standby => self.standby_us += us,
            PowerState::SpinningUp => self.spinup_us += us,
            PowerState::SpinningDown => self.spindown_us += us,
        }
    }

    /// Total microseconds accounted (equals the window length).
    pub fn total_us(&self) -> u64 {
        self.active_us + self.idle_us + self.standby_us + self.spinup_us + self.spindown_us
    }
}

/// Per-disk power-state residency integrated from `DiskTransition`
/// events, keyed `(node, disk)` with `disk == u32::MAX` for buffer
/// disks. Deterministic: BTreeMap order is `(node, disk)` order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResidencyTable {
    /// Residency rows in `(node, disk)` order.
    pub disks: BTreeMap<(u32, u32), DiskResidency>,
    /// Window start, µs (the replay window excludes the prefetch warm-up).
    pub window_start_us: u64,
    /// Window end, µs.
    pub window_end_us: u64,
}

impl ResidencyTable {
    /// Integrates residency over `[window_start_us, window_end_us]`,
    /// matching the driver's energy accounting window (replay only; the
    /// warm-up is metered separately). Disks start Idle at `t = 0`, the
    /// meter's initial state.
    pub fn from_events(events: &[TraceEvent], window_start_us: u64, window_end_us: u64) -> Self {
        let mut edges: BTreeMap<(u32, u32), Vec<(u64, PowerState)>> = BTreeMap::new();
        for ev in events {
            if let EventKind::DiskTransition { node, disk, to, .. } = ev.kind {
                edges.entry((node, disk)).or_default().push((ev.at_us, to));
            }
        }
        let mut disks = BTreeMap::new();
        for (key, log) in edges {
            let mut r = DiskResidency::default();
            let mut state = PowerState::Idle;
            let mut cursor = window_start_us;
            for (at, to) in log {
                let at_clipped = at.clamp(window_start_us, window_end_us);
                if at_clipped > cursor {
                    r.charge(state, at_clipped - cursor);
                    cursor = at_clipped;
                }
                if at <= window_end_us {
                    if to == PowerState::SpinningUp && at >= window_start_us {
                        r.spin_ups += 1;
                    }
                    state = to;
                }
            }
            if window_end_us > cursor {
                r.charge(state, window_end_us - cursor);
            }
            disks.insert(key, r);
        }
        ResidencyTable {
            disks,
            window_start_us,
            window_end_us,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use eevfs_obs::Severity;

    fn ev(at_us: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq: at_us,
            at_us,
            sev: Severity::Debug,
            kind,
        }
    }

    #[test]
    fn clean_request_decomposition_telescopes() {
        let events = vec![
            ev(
                100,
                EventKind::RequestArrive {
                    req: 0,
                    file: 7,
                    write: false,
                    bytes: 4096,
                },
            ),
            ev(150, EventKind::RequestQueued { req: 0, node: 2 }),
            ev(
                200,
                EventKind::RpcSend {
                    req: 0,
                    node: 2,
                    attempt: 1,
                },
            ),
            ev(
                300,
                EventKind::SpinupWait {
                    req: 0,
                    node: 2,
                    disk: 1,
                },
            ),
            ev(
                2_300_300,
                EventKind::RequestServe {
                    req: 0,
                    node: 2,
                    disk: 1,
                    from_buffer: false,
                },
            ),
            ev(
                2_400_000,
                EventKind::RequestComplete {
                    req: 0,
                    response_us: 2_399_900,
                },
            ),
        ];
        let spans = reconstruct_spans(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.queue_us, 50);
        assert_eq!(s.dispatch_us, 150);
        assert_eq!(s.spinup_us, 2_300_000);
        assert_eq!(s.transfer_us, 99_700);
        assert_eq!(s.unaccounted_us, 0);
        assert_eq!(s.segments_sum(), s.total_us);
        assert_eq!(s.source, ServeSource::Data);
        assert_eq!(s.node, Some(2));
        assert_eq!(s.attempts, 1);
    }

    #[test]
    fn hedge_mirror_folds_into_parent() {
        let events = vec![
            ev(
                0,
                EventKind::RequestArrive {
                    req: 5,
                    file: 1,
                    write: false,
                    bytes: 10,
                },
            ),
            ev(10, EventKind::RequestQueued { req: 5, node: 0 }),
            ev(
                20,
                EventKind::RpcHedge {
                    req: 900,
                    parent: 5,
                    node: 1,
                },
            ),
            ev(
                30,
                EventKind::RequestServe {
                    req: 900,
                    node: 1,
                    disk: 0,
                    from_buffer: true,
                },
            ),
            ev(
                40,
                EventKind::RpcComplete {
                    req: 5,
                    won_by_hedge: true,
                },
            ),
            ev(
                40,
                EventKind::RequestComplete {
                    req: 5,
                    response_us: 40,
                },
            ),
        ];
        let spans = reconstruct_spans(&events);
        assert_eq!(spans.len(), 1, "mirror must not become its own span");
        let s = &spans[0];
        assert_eq!(s.req, 5);
        assert_eq!(s.hedges, 1);
        assert!(s.hedge_won);
        assert_eq!(s.source, ServeSource::Buffer);
        assert_eq!(s.segments_sum(), s.total_us);
    }

    #[test]
    fn unserved_request_carries_unaccounted_remainder() {
        let events = vec![
            ev(
                0,
                EventKind::RequestArrive {
                    req: 1,
                    file: 2,
                    write: false,
                    bytes: 10,
                },
            ),
            ev(5, EventKind::RequestQueued { req: 1, node: 0 }),
            ev(
                100,
                EventKind::RequestComplete {
                    req: 1,
                    response_us: 100,
                },
            ),
        ];
        let spans = reconstruct_spans(&events);
        let s = &spans[0];
        assert_eq!(s.source, ServeSource::Unserved);
        assert_eq!(s.queue_us, 5);
        assert_eq!(s.unaccounted_us, 95);
        assert_eq!(s.segments_sum(), s.total_us);
    }

    #[test]
    fn completion_stamped_before_arrival_reads_zero_total() {
        let events = vec![
            ev(
                5,
                EventKind::RequestComplete {
                    req: 1,
                    response_us: 0,
                },
            ),
            ev(
                10,
                EventKind::RequestArrive {
                    req: 1,
                    file: 2,
                    write: false,
                    bytes: 10,
                },
            ),
        ];
        let spans = reconstruct_spans(&events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].complete_us, Some(5));
        assert_eq!(spans[0].total_us, 0);
        assert_eq!(spans[0].segments_sum(), 0);
    }

    #[test]
    fn residency_integrates_and_clips_to_window() {
        use PowerState::*;
        let events = vec![
            ev(
                1_000,
                EventKind::DiskTransition {
                    node: 0,
                    disk: 0,
                    from: Idle,
                    to: Active,
                },
            ),
            ev(
                5_000,
                EventKind::DiskTransition {
                    node: 0,
                    disk: 0,
                    from: Active,
                    to: Standby,
                },
            ),
            ev(
                9_000,
                EventKind::DiskTransition {
                    node: 0,
                    disk: 0,
                    from: Standby,
                    to: SpinningUp,
                },
            ),
        ];
        let t = ResidencyTable::from_events(&events, 2_000, 10_000);
        let r = t.disks.get(&(0, 0)).unwrap();
        // [2000,5000) Active (edge at 1000 predates the window), then
        // Standby to 9000, SpinningUp to the end.
        assert_eq!(r.active_us, 3_000);
        assert_eq!(r.standby_us, 4_000);
        assert_eq!(r.spinup_us, 1_000);
        assert_eq!(r.spin_ups, 1);
        assert_eq!(r.total_us(), 8_000);
    }

    #[test]
    fn reconstruction_is_deterministic() {
        let events = vec![
            ev(
                0,
                EventKind::RequestArrive {
                    req: 3,
                    file: 0,
                    write: false,
                    bytes: 1,
                },
            ),
            ev(
                9,
                EventKind::RequestComplete {
                    req: 3,
                    response_us: 9,
                },
            ),
        ];
        assert_eq!(reconstruct_spans(&events), reconstruct_spans(&events));
    }

    /// The fold as it was when spans lived in a `BTreeMap` keyed by
    /// request ID: one ordered-map lookup per request event. Kept as the
    /// oracle the indexed fold must reproduce exactly.
    fn btree_fold(events: &[TraceEvent]) -> Vec<RequestSpan> {
        // Pass 1: hedge-mirror ID → parent ID.
        let mut parent_of: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in events {
            if let EventKind::RpcHedge { req, parent, .. } = ev.kind {
                parent_of.insert(req, parent);
            }
        }
        let canon = |req: u64| -> u64 { parent_of.get(&req).copied().unwrap_or(req) };

        // Pass 2: accumulate milestones per canonical request.
        let mut builders: BTreeMap<u64, SpanBuilder> = BTreeMap::new();
        for ev in events {
            let Some(raw) = ev.kind.request_id() else {
                continue;
            };
            let is_mirror = parent_of.contains_key(&raw);
            let b = builders.entry(canon(raw)).or_default();
            match &ev.kind {
                EventKind::RequestArrive {
                    file, write, bytes, ..
                } => {
                    b.arrive_us.get_or_insert(ev.at_us);
                    b.file = *file;
                    b.bytes = *bytes;
                    b.write = *write;
                }
                EventKind::RequestQueued { .. } => {
                    b.queued_us.get_or_insert(ev.at_us);
                }
                // Keep the last wait before service: under retries the
                // final replica's wake is the one on the critical path.
                EventKind::SpinupWait { node, disk, .. } if b.serve_us_at.is_none() => {
                    b.spinup_us_at = Some(ev.at_us);
                    b.node.get_or_insert(*node);
                    b.disk.get_or_insert(*disk);
                }
                EventKind::RequestServe {
                    node,
                    disk,
                    from_buffer,
                    ..
                } => {
                    b.serve_us_at = Some(ev.at_us);
                    b.node = Some(*node);
                    b.source = if *from_buffer {
                        b.disk = Some(u32::MAX);
                        ServeSource::Buffer
                    } else {
                        b.disk = Some(*disk);
                        ServeSource::Data
                    };
                }
                EventKind::TierServe { node, ssd, .. } => {
                    b.serve_us_at = Some(ev.at_us);
                    b.node = Some(*node);
                    b.source = if *ssd {
                        ServeSource::Ssd
                    } else {
                        ServeSource::Dram
                    };
                }
                EventKind::RequestComplete { response_us, .. } if !is_mirror => {
                    b.complete_us = Some(ev.at_us);
                    b.response_us = Some(*response_us);
                }
                EventKind::RpcSend { .. } => b.attempts += 1,
                EventKind::RpcRetry { .. } => b.retries += 1,
                EventKind::RpcDropped { .. } => b.drops += 1,
                EventKind::RpcHedge { .. } => b.hedges += 1,
                EventKind::RpcComplete { won_by_hedge, .. } => b.hedge_won |= *won_by_hedge,
                _ => {}
            }
        }

        // Pass 3: close the decomposition. Only IDs that actually arrived
        // become spans (stray mirrors without an RpcHedge record do not).
        builders
            .into_iter()
            .filter_map(|(req, b)| {
                let arrive = b.arrive_us?;
                let total = b.complete_us.map(|c| c.saturating_sub(arrive)).unwrap_or(0);
                let queue = b.queued_us.map(|q| q.saturating_sub(arrive)).unwrap_or(0);
                let first_disk = b.spinup_us_at.or(b.serve_us_at);
                let dispatch = match (b.queued_us, first_disk) {
                    (Some(q), Some(d)) => d.saturating_sub(q),
                    _ => 0,
                };
                let spinup = match (b.spinup_us_at, b.serve_us_at) {
                    (Some(w), Some(s)) => s.saturating_sub(w),
                    _ => 0,
                };
                let transfer = match (b.serve_us_at, b.complete_us) {
                    (Some(s), Some(c)) => c.saturating_sub(s),
                    _ => 0,
                };
                let accounted = queue + dispatch + spinup + transfer;
                Some(RequestSpan {
                    req,
                    file: b.file,
                    bytes: b.bytes,
                    write: b.write,
                    node: b.node,
                    disk: b.disk,
                    source: b.source,
                    arrive_us: arrive,
                    complete_us: b.complete_us,
                    total_us: total,
                    queue_us: queue,
                    dispatch_us: dispatch,
                    spinup_us: spinup,
                    transfer_us: transfer,
                    unaccounted_us: total.saturating_sub(accounted),
                    attempts: b.attempts,
                    retries: b.retries,
                    drops: b.drops,
                    hedges: b.hedges,
                    hedge_won: b.hedge_won,
                })
            })
            .collect()
    }

    /// Request IDs for generated streams: small and huge values, so the
    /// output order is checked across the whole `u64` range.
    const IDS: [u64; 9] = [
        0,
        1,
        2,
        7,
        900,
        1 << 40,
        u64::MAX - 2,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// Decodes one generated tuple into an event at time `t`. Any ID may
    /// be used before it arrives, be hedged (or be a hedge mirror of
    /// another), or never complete; arrivals are stamped at 0 so that a
    /// completion never precedes its request's arrival.
    fn gen_event(
        seq: u64,
        t: u64,
        (kind, id, other, payload): (u8, usize, usize, u64),
    ) -> TraceEvent {
        let req = IDS[id];
        let node = (payload % 3) as u32;
        let disk = (payload >> 2) as u32 % 4;
        let flag = payload & 1 == 1;
        let (at_us, kind) = match kind {
            0..=2 => (
                0,
                EventKind::RequestArrive {
                    req,
                    file: payload % 5,
                    write: flag,
                    bytes: payload >> 40,
                },
            ),
            3 => (t, EventKind::RequestQueued { req, node }),
            4 => (t, EventKind::SpinupWait { req, node, disk }),
            5 => (
                t,
                EventKind::RequestServe {
                    req,
                    node,
                    disk,
                    from_buffer: flag,
                },
            ),
            6 => (
                t,
                EventKind::TierServe {
                    req,
                    node,
                    ssd: flag,
                },
            ),
            7 | 8 => (
                t,
                EventKind::RequestComplete {
                    req,
                    response_us: payload >> 44,
                },
            ),
            9 => (
                t,
                EventKind::RpcSend {
                    req,
                    node,
                    attempt: disk,
                },
            ),
            10 => (
                t,
                EventKind::RpcDropped {
                    req,
                    node,
                    attempt: disk,
                },
            ),
            11 => (t, EventKind::RpcRetry { req, attempt: disk }),
            12 => (
                t,
                EventKind::RpcHedge {
                    req: IDS[other],
                    parent: req,
                    node,
                },
            ),
            13 => (
                t,
                EventKind::RpcComplete {
                    req,
                    won_by_hedge: flag,
                },
            ),
            _ => (
                t,
                EventKind::PrefetchFile {
                    node,
                    file: payload % 5,
                    bytes: payload >> 40,
                },
            ),
        };
        TraceEvent {
            seq,
            at_us,
            sev: kind.severity(),
            kind,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn indexed_fold_equals_the_ordered_map_fold(
            raw in proptest::collection::vec(
                (
                    (0u8..15, 0usize..IDS.len(), 0usize..IDS.len(), proptest::any::<u64>()),
                    0u64..4,
                ),
                0..160,
            )
        ) {
            let mut t = 0;
            let events: Vec<TraceEvent> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (fields, step))| {
                    t += step;
                    gen_event(i as u64, t, fields)
                })
                .collect();
            proptest::prop_assert_eq!(reconstruct_spans(&events), btree_fold(&events));
        }
    }
}
