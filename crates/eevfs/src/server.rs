//! The storage server (§III-A, §IV-A steps 1–5).
//!
//! The server is intentionally thin — it resolves file → storage node and
//! forwards, never touching data — but it is still a *serialised* software
//! stage in the prototype, and under a 0 ms inter-arrival burst it is the
//! queue that builds first (the paper notes "a large amount of queuing
//! that took place on the storage server node" for 50 MB runs).
//! [`ServerQueue`] models that stage: FIFO, fixed per-request service
//! time.

use sim_core::{SimDuration, SimTime};

/// The serialised request-processing stage of the storage server.
#[derive(Debug, Clone)]
pub struct ServerQueue {
    proc_time: SimDuration,
    free_at: SimTime,
}

impl ServerQueue {
    /// A new idle server stage.
    pub fn new(proc_time: SimDuration) -> Self {
        ServerQueue {
            proc_time,
            free_at: SimTime::ZERO,
        }
    }

    /// Admits a request arriving at `now`; returns when the server is done
    /// with it (metadata resolved, forward underway).
    pub fn process(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.free_at);
        let done = start + self.proc_time;
        self.free_at = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serialisation() {
        let mut q = ServerQueue::new(SimDuration::from_millis(10));
        let a = q.process(SimTime::ZERO);
        let b = q.process(SimTime::ZERO);
        let c = q.process(SimTime::from_millis(100));
        assert_eq!(a, SimTime::from_millis(10));
        assert_eq!(b, SimTime::from_millis(20));
        assert_eq!(c, SimTime::from_millis(110));
    }

    #[test]
    fn burst_builds_queue_linearly() {
        let mut q = ServerQueue::new(SimDuration::from_millis(8));
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            last = q.process(SimTime::ZERO);
        }
        assert_eq!(last, SimTime::from_millis(800));
    }
}
