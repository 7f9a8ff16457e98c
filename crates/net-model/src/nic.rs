//! FIFO-serialised network port.
//!
//! A storage node streams one file to one client at a time over its NIC
//! (the paper's prototype opens a fresh TCP connection per response,
//! §IV-A step 6). Under heavy load the NIC becomes the queueing stage that
//! stretches runs — the effect behind the paper's 50 MB data point in
//! Fig 3(a) ("the queue for the storage client nodes becomes quite large
//! and the test runs longer than the original trace time").

use crate::link::Link;
use sim_core::{SimDuration, SimTime};

/// Outcome of scheduling a transfer on a [`Nic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferInfo {
    /// When the transfer began (after queueing behind earlier transfers).
    pub start: SimTime,
    /// When the last byte arrived at the far end.
    pub finish: SimTime,
    /// Queueing delay: `start - submit_time`.
    pub waited: SimDuration,
}

/// A serialised network port with FIFO service.
#[derive(Debug, Clone)]
pub struct Nic {
    link: Link,
    free_at: SimTime,
    busy_us: u64,
}

impl Nic {
    /// A new idle port on the given link.
    pub fn new(link: Link) -> Self {
        Nic {
            link,
            free_at: SimTime::ZERO,
            busy_us: 0,
        }
    }

    /// When everything queued so far will have drained.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Utilisation over a horizon (busy time / horizon).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.busy_us as f64 / 1e6) / horizon.as_secs_f64()
        }
    }

    /// Schedules a transfer of `bytes` submitted at `now`. FIFO behind any
    /// queued transfers.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> TransferInfo {
        let start = now.max(self.free_at);
        let dur = self.link.transfer_time(bytes);
        let finish = start + dur;
        self.free_at = finish;
        self.busy_us += dur.as_micros();
        TransferInfo {
            start,
            finish,
            waited: start - now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_transfers_queue() {
        let mut nic = Nic::new(Link::fast_ethernet()); // 7.5 MB/s payload
        let a = nic.send(SimTime::ZERO, 10_000_000);
        let b = nic.send(SimTime::ZERO, 10_000_000);
        assert!(a.waited.is_zero());
        assert_eq!(b.start, a.finish);
        assert!(b.waited > SimDuration::from_millis(1300));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut nic = Nic::new(Link::fast_ethernet());
        let a = nic.send(SimTime::ZERO, 1_000_000);
        let b = nic.send(SimTime::from_secs(10), 1_000_000);
        assert!(b.start > a.finish);
        assert!(b.waited.is_zero());
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut nic = Nic::new(Link::fast_ethernet());
        nic.send(SimTime::ZERO, 10_000_000); // ~1.33 s busy
        let u = nic.utilization(SimTime::from_secs(10));
        assert!(u > 0.12 && u < 0.15, "got {u}");
        assert_eq!(Nic::new(Link::gigabit()).utilization(SimTime::ZERO), 0.0);
    }
}
