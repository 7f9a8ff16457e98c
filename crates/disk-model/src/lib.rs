//! # disk-model
//!
//! Disk power-state, performance, and energy model — the substrate the
//! EEVFS paper exercised on physical ATA/SATA drives (Table I of the
//! paper). We reproduce the drives in simulation:
//!
//! * [`state`] — the power-state machine (Active / Idle / Standby plus the
//!   timed SpinningUp / SpinningDown transitions whose ~2 s spin-up the
//!   paper measures as the dominant response-time penalty).
//! * [`spec`] — drive parameter sets, including presets for the paper's
//!   testbed: the 58 MB/s ATA/133 Type 1 drive, the 34 MB/s Type 2 drive,
//!   and the server's SATA drive.
//! * [`perf`] — service-time model (seek + rotational latency + transfer).
//! * [`energy`] — per-state joule integration and the transition ledger
//!   behind the paper's "number of power state transitions" metric (Fig 4).
//! * [`disk`] — [`disk::Disk`]: a FIFO-queued simulated drive combining all
//!   of the above, driven in event order by the cluster simulation.
//! * [`breakeven`] — the standby break-even time the paper's related-work
//!   discussion centres on.
//! * [`checksum`] — per-block CRC32 integrity primitives used by the
//!   durability layer (detection on read, opportunistic scrubbing).

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod breakeven;
pub mod checksum;
pub mod disk;
pub mod energy;
pub mod perf;
pub mod spec;
pub mod state;

pub use breakeven::breakeven_time;
pub use checksum::{blocks_of, crc32, BLOCK_SIZE};
pub use disk::{CompletionInfo, Disk};
pub use energy::{EnergyMeter, TransitionCounts};
pub use perf::service_time;
pub use spec::DiskSpec;
pub use state::PowerState;
