//! The bounded ring-buffer trace recorder and its JSONL export.
//!
//! # Determinism contract
//!
//! A recorder fed by a deterministic simulation produces a byte-identical
//! JSONL export across runs, because every step is deterministic:
//!
//! 1. events are admitted in simulation dispatch order (no wall clock, no
//!    hash-map iteration anywhere on the path);
//! 2. sequence numbers are a plain admission counter;
//! 3. [`Recorder::sort_by_time`] is a *stable* sort keyed on
//!    `(at_us, seq)`;
//! 4. the event schema is integers-and-enums only, and the vendored
//!    `serde_json` streams each event straight from its derived
//!    `Serialize` impl: struct fields in declaration order, integers as
//!    exact decimal text, no intermediate tree and no hash-map order to
//!    leak in. Every event is appended to one output buffer.
//!
//! Capacity eviction (oldest first) is itself deterministic, so the
//! contract survives overflow too.

use crate::event::{EventKind, TraceEvent};
use sim_core::SimTime;
use std::collections::VecDeque;

/// Most events [`Recorder::with_capacity`] reserves room for up front.
const RESERVE_CAP: usize = 1 << 22;

/// Bounded trace-event sink.
#[derive(Debug, Clone)]
pub struct Recorder {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` events (oldest evicted first).
    ///
    /// The ring is reserved up front, up to 2²² events, rather
    /// than grown by doubling; only the pages events are written to become
    /// resident.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            events: VecDeque::with_capacity(capacity.min(RESERVE_CAP)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records one event at simulation time `at`.
    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(TraceEvent {
            seq,
            at_us: at.as_micros(),
            sev: kind.severity(),
            kind,
        });
    }

    /// Stably re-orders the buffer by `(at_us, seq)`.
    ///
    /// Live instrumentation appends in dispatch order, but some sources
    /// (disk transition logs, end-of-run realisations) are merged after the
    /// engine finishes with timestamps in the past; call this once before
    /// exporting to interleave them deterministically.
    pub fn sort_by_time(&mut self) {
        self.events
            .make_contiguous()
            .sort_by_key(|e| (e.at_us, e.seq));
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The buffered events as one slice, oldest first, for folds that
    /// take `&[TraceEvent]` without copying the trace. Rotates the ring
    /// into one run if it wraps; after [`Recorder::sort_by_time`] it
    /// already is one.
    pub fn as_slice(&mut self) -> &[TraceEvent] {
        self.events.make_contiguous()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been admitted (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the buffer as JSON Lines: one event object per line,
    /// trailing newline included when non-empty.
    pub fn to_jsonl(&self) -> String {
        // One allocation sized for typical lines (70–150 bytes) instead of
        // a chain of doubling copies; pages of an over-estimate are never
        // touched, so they cost address space, not memory.
        const LINE_BYTES: usize = 128;
        let mut out = String::with_capacity(self.events.len() * LINE_BYTES);
        for ev in &self.events {
            serde_json::write_compact(&mut out, ev);
            out.push('\n');
        }
        out
    }

    /// All buffered events belonging to one request ID, in buffer order —
    /// the "follow one ID through the system" view.
    pub fn request_history(&self, req: u64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.kind.request_id() == Some(req))
            .collect()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::with_capacity(65_536)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrive(req: u64) -> EventKind {
        EventKind::RequestArrive {
            req,
            file: 1,
            write: false,
            bytes: 4096,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut r = Recorder::with_capacity(3);
        for i in 0..5 {
            r.record(SimTime::from_micros(i), arrive(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn sort_interleaves_late_events_stably() {
        let mut r = Recorder::with_capacity(16);
        r.record(SimTime::from_micros(10), arrive(0));
        r.record(SimTime::from_micros(30), arrive(1));
        // Late merge: an event from t=10 appended after the fact.
        r.record(
            SimTime::from_micros(10),
            EventKind::PrefetchFile {
                node: 0,
                file: 2,
                bytes: 8,
            },
        );
        r.sort_by_time();
        let order: Vec<(u64, u64)> = r.events().map(|e| (e.at_us, e.seq)).collect();
        assert_eq!(order, vec![(10, 0), (10, 2), (30, 1)]);
    }

    #[test]
    fn jsonl_export_is_reproducible() {
        let build = || {
            let mut r = Recorder::with_capacity(16);
            r.record(SimTime::from_micros(5), arrive(1));
            r.record(
                SimTime::from_micros(7),
                EventKind::RequestComplete {
                    req: 1,
                    response_us: 2,
                },
            );
            r.to_jsonl()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn request_history_follows_one_id() {
        let mut r = Recorder::with_capacity(16);
        r.record(SimTime::from_micros(1), arrive(7));
        r.record(SimTime::from_micros(2), arrive(8));
        r.record(
            SimTime::from_micros(3),
            EventKind::RpcHedge {
                req: 400,
                parent: 7,
                node: 1,
            },
        );
        r.record(
            SimTime::from_micros(4),
            EventKind::RequestComplete {
                req: 7,
                response_us: 3,
            },
        );
        let hist = r.request_history(7);
        assert_eq!(hist.len(), 3, "arrive + hedge (nested) + complete");
    }
}
