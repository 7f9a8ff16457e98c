//! Control-message costs.
//!
//! EEVFS control traffic — a client's file request, the server's metadata
//! lookup + forward, hint propagation — is tiny compared to file payloads,
//! but it puts a floor under response time that matters at 1 MB file sizes
//! (the paper's Fig 5(a) measures ~120 ms total at 1 MB, far above raw
//! disk + wire time). We model a control message as a fixed payload over
//! the link plus a per-hop software overhead representing the prototype's
//! request parsing, thread hand-off, and TCP connection management on the
//! Linux 2.4 testbed.

use crate::link::Link;
use sim_core::SimDuration;

/// Payload size of a control message, bytes (request headers, metadata).
pub const CONTROL_MESSAGE_BYTES: u64 = 512;

/// Time for one control message over `link`, including software overhead.
pub fn control_message_time(link: &Link, software_overhead: SimDuration) -> SimDuration {
    link.transfer_time(CONTROL_MESSAGE_BYTES) + software_overhead
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_message_is_milliseconds_not_seconds() {
        let t = control_message_time(&Link::fast_ethernet(), SimDuration::from_millis(5));
        let s = t.as_secs_f64();
        assert!(s > 0.001 && s < 0.02, "got {s}");
    }

    #[test]
    fn overhead_dominates_wire_time() {
        let wire = Link::gigabit().transfer_time(CONTROL_MESSAGE_BYTES);
        assert!(SimDuration::from_millis(5) > wire);
    }

    #[test]
    fn zero_overhead_is_pure_wire_time() {
        let l = Link::gigabit();
        assert_eq!(
            control_message_time(&l, SimDuration::ZERO),
            l.transfer_time(CONTROL_MESSAGE_BYTES)
        );
    }
}
