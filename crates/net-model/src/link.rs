//! Point-to-point link model.
//!
//! A [`Link`] is bandwidth plus propagation/stack latency. End-to-end paths
//! through the paper's switch compose as store-and-forward: latencies add,
//! the slowest hop's bandwidth gates the transfer.

use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

/// Megabits per second → bytes per second.
pub const MBIT: u64 = 1_000_000 / 8;

/// A unidirectional network link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Achievable payload bandwidth, bytes/second.
    pub bandwidth_bps: u64,
    /// Fixed per-message latency (propagation + protocol stack).
    pub latency: SimDuration,
}

impl Link {
    /// Gigabit Ethernet as on the server and Type 1 nodes (Table I). The
    /// paper's cards are "1 Gbits/sec", but a 2003-class P4 running Linux
    /// 2.4 with a user-space file server moves ~400 Mb/s of payload
    /// (interrupt + copy bound), which is what we model.
    pub fn gigabit() -> Link {
        Link {
            bandwidth_bps: 400 * MBIT,
            latency: SimDuration::from_micros(150),
        }
    }

    /// Fast Ethernet as on the Type 2 nodes (Table I): ~60 Mb/s of payload
    /// through the same prototype stack.
    pub fn fast_ethernet() -> Link {
        Link {
            bandwidth_bps: 60 * MBIT,
            latency: SimDuration::from_micros(200),
        }
    }

    /// Time to push `bytes` through this link alone.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        if self.bandwidth_bps == u64::MAX {
            return self.latency;
        }
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps as f64)
    }

    /// Store-and-forward composition of two hops through a switch:
    /// latencies (plus the switch's own) add, bandwidth is the minimum.
    pub fn compose(&self, other: &Link, switch_latency: SimDuration) -> Link {
        Link {
            bandwidth_bps: self.bandwidth_bps.min(other.bandwidth_bps),
            latency: self.latency + other.latency + switch_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_moves_ten_megabytes_in_about_200ms() {
        let t = Link::gigabit().transfer_time(10_000_000);
        let s = t.as_secs_f64();
        assert!(s > 0.18 && s < 0.22, "got {s}");
    }

    #[test]
    fn fast_ethernet_is_several_times_slower_than_gigabit() {
        let g = Link::gigabit().transfer_time(100_000_000).as_secs_f64();
        let f = Link::fast_ethernet()
            .transfer_time(100_000_000)
            .as_secs_f64();
        let ratio = f / g;
        assert!((ratio - 400.0 / 60.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let l = Link::fast_ethernet();
        assert_eq!(l.transfer_time(0), l.latency);
    }

    #[test]
    fn compose_takes_min_bandwidth_and_sums_latency() {
        let sw = SimDuration::from_micros(50);
        let path = Link::gigabit().compose(&Link::fast_ethernet(), sw);
        assert_eq!(path.bandwidth_bps, Link::fast_ethernet().bandwidth_bps);
        assert_eq!(
            path.latency,
            Link::gigabit().latency + Link::fast_ethernet().latency + sw
        );
    }

    #[test]
    fn compose_is_commutative() {
        let sw = SimDuration::from_micros(10);
        let a = Link::gigabit().compose(&Link::fast_ethernet(), sw);
        let b = Link::fast_ethernet().compose(&Link::gigabit(), sw);
        assert_eq!(a, b);
    }

    #[test]
    fn transfer_monotone_in_bytes() {
        let l = Link::fast_ethernet();
        let mut prev = SimDuration::ZERO;
        for b in [0u64, 1_000, 1_000_000, 50_000_000] {
            let t = l.transfer_time(b);
            assert!(t >= prev);
            prev = t;
        }
    }
}
