//! The structured trace-event schema.
//!
//! Every observable moment in a simulated run is one [`TraceEvent`]: a
//! sim-time-stamped, sequence-numbered record whose [`EventKind`] payload
//! carries only integers and enums. Keeping floats out of the schema is a
//! deliberate determinism measure — the JSONL rendering of an event is then
//! a pure function of the simulation state with no float-formatting edge
//! cases, which is what lets two same-seed runs produce byte-identical
//! traces.

use disk_model::PowerState;
use serde::{Deserialize, Serialize};

/// Event severity, ordered from chattiest to most urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// High-volume per-request/per-transition bookkeeping.
    Debug,
    /// The normal lifecycle narrative.
    Info,
    /// Something cost energy or latency it should not have.
    Warn,
}

/// Coarse event family, for per-family event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Category {
    /// Request lifecycle: arrive, queue, serve, complete.
    Request,
    /// Disk power-state transitions.
    Disk,
    /// Power-manager decisions and their outcomes.
    Power,
    /// Prefetch activity.
    Prefetch,
    /// RPC spans: send, retry, hedge, complete.
    Rpc,
    /// Durability: corruption detection, scrub passes, journal replays,
    /// node restarts.
    Durability,
}

/// The typed payload of one trace event.
///
/// `req` fields are simulation request IDs (for the runtime prototype, the
/// client-assigned wire `req_id`); `node`/`disk` index into the cluster
/// spec. Durations are integer microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A request entered the system.
    RequestArrive {
        /// Request ID.
        req: u64,
        /// File the request touches.
        file: u64,
        /// True for writes.
        write: bool,
        /// Request size in bytes.
        bytes: u64,
    },
    /// The storage server admitted and routed the request to a node.
    RequestQueued {
        /// Request ID.
        req: u64,
        /// Destination node.
        node: u32,
    },
    /// The request had to wait for a data-disk spin-up (the paper's ~2 s
    /// wake penalty).
    SpinupWait {
        /// Request ID.
        req: u64,
        /// Node whose disk spun up.
        node: u32,
        /// The disk that was asleep.
        disk: u32,
    },
    /// A disk (buffer or data) began servicing the request.
    RequestServe {
        /// Request ID.
        req: u64,
        /// Serving node.
        node: u32,
        /// Serving disk (data-disk index; ignored when `from_buffer`).
        disk: u32,
        /// True when the buffer disk absorbed the access.
        from_buffer: bool,
    },
    /// A cache tier above the buffer disk absorbed the read: no data-disk
    /// access, no spin-up exposure (`eevfs-power`).
    TierServe {
        /// Request ID.
        req: u64,
        /// Serving node.
        node: u32,
        /// True for the SSD buffer tier, false for the DRAM tier.
        ssd: bool,
    },
    /// The response reached the client.
    RequestComplete {
        /// Request ID.
        req: u64,
        /// End-to-end response time in microseconds.
        response_us: u64,
    },
    /// A disk crossed a power-state edge.
    DiskTransition {
        /// Node owning the disk.
        node: u32,
        /// Disk index within the node (`u32::MAX` for the buffer disk).
        disk: u32,
        /// State before the edge.
        from: PowerState,
        /// State after the edge.
        to: PowerState,
    },
    /// The prefetcher staged a file onto a buffer disk.
    PrefetchFile {
        /// Node whose buffer disk received the file.
        node: u32,
        /// File staged.
        file: u64,
        /// Bytes copied.
        bytes: u64,
    },
    /// The power manager decided to spin a disk down.
    SleepDecision {
        /// Node owning the disk.
        node: u32,
        /// Disk index.
        disk: u32,
        /// Predicted idle window at decision time (`None` when the
        /// predictor saw no future touches — an unbounded prediction).
        predicted_idle_us: Option<u64>,
        /// The drive's breakeven time: sleeping pays off only if the
        /// realised idle window meets it.
        breakeven_us: u64,
    },
    /// A sleeping disk woke (or the run ended): the realised idle window
    /// behind a [`EventKind::SleepDecision`] is now known.
    IdleRealized {
        /// Node owning the disk.
        node: u32,
        /// Disk index.
        disk: u32,
        /// How long the disk actually stayed down, microseconds.
        realized_us: u64,
        /// True when the realised window met the breakeven time, i.e. the
        /// prediction that justified sleeping was right.
        paid_off: bool,
    },
    /// The server forwarded a request to a node (one RPC attempt).
    RpcSend {
        /// Request ID.
        req: u64,
        /// Destination node.
        node: u32,
        /// 1-based attempt number (retries and hedges increment it).
        attempt: u32,
    },
    /// The network dropped an RPC flight.
    RpcDropped {
        /// Request ID.
        req: u64,
        /// Node the flight was bound for.
        node: u32,
        /// Attempt that was lost.
        attempt: u32,
    },
    /// The RPC policy scheduled a retry after backoff.
    RpcRetry {
        /// Request ID.
        req: u64,
        /// Attempt number the retry will carry.
        attempt: u32,
    },
    /// The hedging policy launched a speculative duplicate.
    RpcHedge {
        /// The hedge's own request ID (a mirror).
        req: u64,
        /// The request the hedge covers; the hedge span nests under it.
        parent: u64,
        /// Node the hedge was sent to.
        node: u32,
    },
    /// The RPC completed and the response was recorded.
    RpcComplete {
        /// Root request ID.
        req: u64,
        /// True when a hedge flight produced the winning response.
        won_by_hedge: bool,
    },
    /// A checksum mismatch was caught — on the read path or by a scrub.
    CorruptionDetected {
        /// Node owning the corrupt disk.
        node: u32,
        /// Data-disk index.
        disk: u32,
        /// Corrupt block in the disk's scrub address space.
        block: u32,
        /// True when a scrub pass (not a client read) found it.
        by_scrub: bool,
        /// True when a healthy replica restored the block; false means the
        /// block is unrecoverable at the current replication factor.
        repaired: bool,
    },
    /// An opportunistic scrub pass verified a window of an Active disk.
    ScrubPass {
        /// Node owning the disk.
        node: u32,
        /// Data-disk index.
        disk: u32,
        /// Blocks verified in this pass.
        blocks: u32,
        /// Corrupt blocks the pass uncovered.
        found: u32,
    },
    /// A restarting node replayed its buffer-disk metadata journal.
    JournalReplay {
        /// The node that replayed.
        node: u32,
        /// Intact records applied.
        records: u64,
        /// Journal bytes read back from the buffer disk.
        bytes: u64,
    },
    /// A crashed node came back and re-registered with the server.
    NodeRestart {
        /// The node that restarted.
        node: u32,
    },
}

impl EventKind {
    /// The family this event belongs to.
    pub fn category(&self) -> Category {
        match self {
            EventKind::RequestArrive { .. }
            | EventKind::RequestQueued { .. }
            | EventKind::SpinupWait { .. }
            | EventKind::RequestServe { .. }
            | EventKind::TierServe { .. }
            | EventKind::RequestComplete { .. } => Category::Request,
            EventKind::DiskTransition { .. } => Category::Disk,
            EventKind::SleepDecision { .. } | EventKind::IdleRealized { .. } => Category::Power,
            EventKind::PrefetchFile { .. } => Category::Prefetch,
            EventKind::RpcSend { .. }
            | EventKind::RpcDropped { .. }
            | EventKind::RpcRetry { .. }
            | EventKind::RpcHedge { .. }
            | EventKind::RpcComplete { .. } => Category::Rpc,
            EventKind::CorruptionDetected { .. }
            | EventKind::ScrubPass { .. }
            | EventKind::JournalReplay { .. }
            | EventKind::NodeRestart { .. } => Category::Durability,
        }
    }

    /// Inherent severity of this event.
    pub fn severity(&self) -> Severity {
        match self {
            EventKind::RequestQueued { .. }
            | EventKind::RequestServe { .. }
            | EventKind::TierServe { .. }
            | EventKind::DiskTransition { .. }
            | EventKind::RpcSend { .. }
            | EventKind::ScrubPass { .. } => Severity::Debug,
            EventKind::SpinupWait { .. } | EventKind::RpcDropped { .. } => Severity::Warn,
            // Every corruption is worth seeing; one that replication could
            // not cover is the loudest thing the tracer can say.
            EventKind::CorruptionDetected { repaired, .. } => {
                if *repaired {
                    Severity::Info
                } else {
                    Severity::Warn
                }
            }
            EventKind::IdleRealized { paid_off, .. } => {
                if *paid_off {
                    Severity::Info
                } else {
                    Severity::Warn
                }
            }
            _ => Severity::Info,
        }
    }

    /// The request ID this event belongs to, if it is request-scoped.
    pub fn request_id(&self) -> Option<u64> {
        match self {
            EventKind::RequestArrive { req, .. }
            | EventKind::RequestQueued { req, .. }
            | EventKind::SpinupWait { req, .. }
            | EventKind::RequestServe { req, .. }
            | EventKind::TierServe { req, .. }
            | EventKind::RequestComplete { req, .. }
            | EventKind::RpcSend { req, .. }
            | EventKind::RpcDropped { req, .. }
            | EventKind::RpcRetry { req, .. }
            | EventKind::RpcComplete { req, .. } => Some(*req),
            // A hedge span nests under the request it covers.
            EventKind::RpcHedge { parent, .. } => Some(*parent),
            _ => None,
        }
    }
}

/// One recorded trace event.
///
/// `seq` is the recorder's admission counter: it breaks timestamp ties with
/// insertion order, so a stable sort by `(at_us, seq)` reconstructs a
/// deterministic timeline even after late events (e.g. disk transitions
/// merged post-run) are appended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Admission sequence number.
    pub seq: u64,
    /// Simulation timestamp, microseconds.
    pub at_us: u64,
    /// Severity at admission time.
    pub sev: Severity,
    /// The payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_debug_below_warn() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
    }

    #[test]
    fn unrealised_sleep_payoff_warns() {
        let bad = EventKind::IdleRealized {
            node: 0,
            disk: 0,
            realized_us: 10,
            paid_off: false,
        };
        let good = EventKind::IdleRealized {
            node: 0,
            disk: 0,
            realized_us: 10_000_000,
            paid_off: true,
        };
        assert_eq!(bad.severity(), Severity::Warn);
        assert_eq!(good.severity(), Severity::Info);
    }

    #[test]
    fn hedge_nests_under_parent_request() {
        let hedge = EventKind::RpcHedge {
            req: 400,
            parent: 7,
            node: 2,
        };
        assert_eq!(hedge.request_id(), Some(7));
    }

    #[test]
    fn events_roundtrip_through_json() {
        let ev = TraceEvent {
            seq: 3,
            at_us: 1_500_000,
            sev: Severity::Info,
            kind: EventKind::SleepDecision {
                node: 1,
                disk: 2,
                predicted_idle_us: Some(40_000_000),
                breakeven_us: 8_000_000,
            },
        };
        let json = serde_json::to_string(&ev).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(ev, back);
    }
}
