//! Energy-aware scrub policy.
//!
//! A conventional background scrubber defeats EEVFS's purpose: sweeping a
//! standby disk means spinning it up, and the spin-up surge dwarfs the
//! energy "saved" by sleeping. The EEVFS scrubber therefore only rides
//! spindles that are **already Active**: each physical access a data disk
//! serves is followed by verifying the next window of that disk's blocks,
//! while the heads are moving anyway. Progress tracks the workload — hot
//! disks get scrubbed often, sleeping disks not at all (their data is
//! protected by replicas and checksum-on-read instead).
//!
//! The scrubber's marginal transfer energy is charged to a separate meter
//! ([`crate::metrics::RunMetrics::scrub_energy_j`]) so experiments can
//! price integrity independently of serving energy.

use serde::{Deserialize, Serialize};

/// When and how much to scrub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScrubPolicy {
    /// Never scrub; corruption is only caught by checksum-on-read.
    Off,
    /// After each physical access a data disk serves, verify the next
    /// `blocks_per_pass` blocks of that disk (wrapping at the end of its
    /// address space).
    Piggyback {
        /// Blocks verified per pass.
        blocks_per_pass: u32,
    },
}

impl ScrubPolicy {
    /// The paper-scale default: 256 × 64 KiB = 16 MB verified per pass,
    /// a fraction of a second of sequential bandwidth on an Active drive.
    pub fn piggyback_default() -> ScrubPolicy {
        ScrubPolicy::Piggyback {
            blocks_per_pass: 256,
        }
    }
}

/// Per-disk scrub cursors: each disk sweeps its block address space in
/// wrapping windows, so every block is eventually verified as long as the
/// disk keeps serving traffic.
#[derive(Debug, Clone)]
pub struct Scrubber {
    policy: ScrubPolicy,
    blocks_per_disk: u32,
    cursors: Vec<Vec<u32>>,
}

impl Scrubber {
    /// A scrubber for a `nodes × disks_per_node` cluster whose disks each
    /// expose `blocks_per_disk` checksummed blocks.
    pub fn new(
        policy: ScrubPolicy,
        blocks_per_disk: u32,
        nodes: usize,
        disks_per_node: usize,
    ) -> Scrubber {
        Scrubber {
            policy,
            blocks_per_disk: blocks_per_disk.max(1),
            cursors: vec![vec![0; disks_per_node]; nodes],
        }
    }

    /// Advances the cursor for `(node, disk)` and returns the window
    /// `(start, len)` to verify, or `None` when the policy is off. The
    /// window wraps modulo `blocks_per_disk`; `len` is capped at the disk
    /// size so a tiny address space is never scanned twice in one pass.
    pub fn next_window(&mut self, node: usize, disk: usize) -> Option<(u32, u32)> {
        let ScrubPolicy::Piggyback { blocks_per_pass } = self.policy else {
            return None;
        };
        let len = blocks_per_pass.min(self.blocks_per_disk);
        if len == 0 {
            return None;
        }
        let cursor = self.cursors.get_mut(node)?.get_mut(disk)?;
        let start = *cursor;
        *cursor = (start + len) % self.blocks_per_disk;
        Some((start, len))
    }

    /// True when `block` falls inside the wrapping window `(start, len)`.
    pub fn window_contains(&self, start: u32, len: u32, block: u32) -> bool {
        if block >= self.blocks_per_disk {
            return false;
        }
        let offset = (block + self.blocks_per_disk - start) % self.blocks_per_disk;
        offset < len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_policy_yields_no_windows() {
        let mut s = Scrubber::new(ScrubPolicy::Off, 100, 2, 2);
        assert_eq!(s.next_window(0, 0), None);
    }

    #[test]
    fn windows_advance_and_wrap() {
        let mut s = Scrubber::new(
            ScrubPolicy::Piggyback {
                blocks_per_pass: 40,
            },
            100,
            1,
            1,
        );
        assert_eq!(s.next_window(0, 0), Some((0, 40)));
        assert_eq!(s.next_window(0, 0), Some((40, 40)));
        // Third window wraps: 80..100 then 0..20.
        assert_eq!(s.next_window(0, 0), Some((80, 40)));
        assert!(s.window_contains(80, 40, 95));
        assert!(s.window_contains(80, 40, 10));
        assert!(!s.window_contains(80, 40, 30));
        assert_eq!(s.next_window(0, 0), Some((20, 40)));
    }

    #[test]
    fn cursors_are_per_disk() {
        let mut s = Scrubber::new(
            ScrubPolicy::Piggyback {
                blocks_per_pass: 10,
            },
            100,
            2,
            2,
        );
        assert_eq!(s.next_window(0, 0), Some((0, 10)));
        assert_eq!(s.next_window(1, 1), Some((0, 10)));
        assert_eq!(s.next_window(0, 0), Some((10, 10)));
    }

    #[test]
    fn pass_larger_than_disk_is_capped() {
        let mut s = Scrubber::new(
            ScrubPolicy::Piggyback {
                blocks_per_pass: 1000,
            },
            64,
            1,
            1,
        );
        assert_eq!(s.next_window(0, 0), Some((0, 64)));
        assert_eq!(
            s.next_window(0, 0),
            Some((0, 64)),
            "full-disk window wraps to start"
        );
        assert!(
            !s.window_contains(0, 64, 64),
            "out-of-space block never matches"
        );
    }
}
