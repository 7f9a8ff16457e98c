//! Time-ordered event queue with stable FIFO tie-breaking.
//!
//! `std::collections::BinaryHeap` is not stable: equal-priority items pop in
//! an unspecified order that depends on the internal sift pattern. Energy
//! accounting in the disk model is order-sensitive (a sleep decision and a
//! request arriving at the same microsecond must resolve the same way every
//! run), so [`EventQueue`] tags every push with a monotone sequence number
//! and orders by `(time, seq)`.
//!
//! Events come from two sources that share that order: the heap, for
//! events a model schedules as it runs, and a presorted FIFO *arrival
//! lane* filled by [`EventQueue::schedule_sorted`], for a long run of
//! events known up front in time order (an open-loop trace). Every read
//! merges the lane head with the heap top by `(time, seq)`, so the pop
//! order is exactly that of a heap holding both, while the heap only ever
//! holds the events in flight.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Internal heap entry: a `Reverse`-style ordering on `(time, seq)` so the
/// `BinaryHeap` max-heap pops the earliest event first.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the smallest (time, seq) is the "greatest" heap element.
        other.key().cmp(&self.key())
    }
}

/// A deterministic future-event list.
///
/// Events with equal timestamps pop in insertion order. Scheduling an event
/// in the past is a logic error in the model and panics in debug builds; in
/// release builds the event fires "now" (at the time of the next pop) rather
/// than corrupting the clock.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Presorted arrivals, ascending in `(time, seq)`; see
    /// [`EventQueue::schedule_sorted`].
    lane: VecDeque<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose heap has room for `capacity` pending
    /// events. Drivers that know their event population up front (one slot
    /// per fault-plan entry, one sleep check per disk, ...) pre-size the
    /// heap so the hot loop never reallocates mid-run. Events fed through
    /// [`EventQueue::schedule_sorted`] do not need heap room.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            lane: VecDeque::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Reserves heap room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of pending events the heap can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Tags `payload` with the next sequence number, clamping a past `at`
    /// to the clock.
    fn entry(&mut self, at: SimTime, payload: E) -> Entry<E> {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        Entry {
            time: at.max(self.now),
            seq,
            payload,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let entry = self.entry(at, payload);
        self.heap.push(entry);
    }

    /// Schedules a batch of `(at, payload)` events, in iteration order.
    ///
    /// Each item gets the sequence number, clamp and past-time check that
    /// a [`EventQueue::schedule`] call in the same place would give it, so
    /// the pop order is the same as scheduling them one by one. Items that
    /// keep the arrival lane time-sorted go to its back and never enter
    /// the heap; an item earlier than the lane's last one falls back to the
    /// heap. A time-sorted batch (an open-loop trace) therefore costs the
    /// heap nothing, and any batch stays correct.
    pub fn schedule_sorted(&mut self, items: impl IntoIterator<Item = (SimTime, E)>) {
        let items = items.into_iter();
        self.lane.reserve(items.size_hint().0);
        for (at, payload) in items {
            let entry = self.entry(at, payload);
            // A later seq at an equal or later time sorts after the back.
            if self.lane.back().is_none_or(|b| b.time <= entry.time) {
                self.lane.push_back(entry);
            } else {
                self.heap.push(entry);
            }
        }
    }

    /// The earliest pending event and whether it is the lane head (`true`)
    /// or the heap top (`false`). One comparison: sequence numbers are
    /// unique, so the two keys never tie.
    fn next(&self) -> Option<(bool, &Entry<E>)> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) if h.key() < l.key() => Some((false, h)),
            (Some(l), _) => Some((true, l)),
            (None, h) => h.map(|h| (false, h)),
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(_, e)| e.time)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Pops the earliest event if it fires at or before `horizon`,
    /// advancing the clock to its timestamp. Returns `None`, leaving the
    /// queue untouched, when the queue is empty or the next event is later.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (from_lane, time) = self.next().map(|(lane, e)| (lane, e.time))?;
        if time > horizon {
            return None;
        }
        let entry = if from_lane {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Drains every pending event in order; the clock ends at the last
    /// event's timestamp.
    pub fn drain_ordered(&mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1u32);
        q.schedule(SimTime::from_secs(3), 3u32);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Schedule relative to the advanced clock.
        q.schedule(q.now() + SimDuration::from_secs(1), 2u32);
        let rest: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(rest, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn presized_queue_behaves_identically() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        q.schedule(SimTime::from_millis(20), "b");
        q.schedule(SimTime::from_millis(10), "a");
        q.reserve(128);
        assert!(q.capacity() >= 130);
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b"]);
    }

    #[test]
    fn pop_until_stops_at_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "late");
        q.schedule_sorted([(SimTime::from_secs(1), "a"), (SimTime::from_secs(2), "b")]);
        assert_eq!(
            q.pop_until(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), "a"))
        );
        assert_eq!(
            q.pop_until(SimTime::from_secs(2)),
            Some((SimTime::from_secs(2), "b"))
        );
        assert_eq!(q.pop_until(SimTime::from_secs(2)), None);
        assert_eq!(q.now(), SimTime::from_secs(2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "late")));
    }

    #[test]
    fn sorted_batch_merges_with_the_heap_in_seq_order() {
        let t = SimTime::from_secs(1);
        let mut q = EventQueue::new();
        // Heap events scheduled before the batch win ties against it;
        // heap events scheduled after lose them.
        q.schedule(t, 0);
        q.schedule_sorted([(t, 1), (t, 2), (SimTime::from_secs(2), 4)]);
        q.schedule(t, 3);
        assert_eq!(q.len(), 5);
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unsorted_batch_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_sorted([
            (SimTime::from_millis(30), "c"),
            (SimTime::from_millis(10), "a"),
            (SimTime::from_millis(40), "d"),
            (SimTime::from_millis(20), "b"),
        ]);
        assert_eq!(q.lane.len(), 2, "only the in-order items ride the lane");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn sorted_batch_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule_sorted([(SimTime::from_secs(1), ())]);
    }

    /// The arrival lane keeps the heap as deep as the work in flight, not
    /// as deep as the trace: with every arrival presorted and each popped
    /// arrival starting a short follow-up chain, the heap's peak length
    /// is the same for 1 000 arrivals as for 100 000.
    #[test]
    fn heap_depth_is_bounded_by_work_in_flight_not_arrivals() {
        const CHAIN: u32 = 4;
        let peak_heap = |n: u64| {
            let mut q = EventQueue::new();
            q.schedule_sorted((0..n).map(|i| (SimTime::from_millis(10 * i), 0u32)));
            let mut peak = q.heap.len();
            let mut pops = 0u64;
            while let Some((now, stage)) = q.pop() {
                pops += 1;
                if stage < CHAIN {
                    q.schedule(now + SimDuration::from_millis(3), stage + 1);
                }
                peak = peak.max(q.heap.len());
            }
            assert_eq!(pops, n * u64::from(CHAIN + 1));
            peak
        };
        let small = peak_heap(1_000);
        let large = peak_heap(100_000);
        assert!(
            small <= CHAIN as usize,
            "peak heap {small} exceeds the chain"
        );
        assert_eq!(large, small, "peak heap grew with the arrival count");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_until(SimTime::MAX), None);
        assert_eq!(q.peek_time(), None);
    }
}
