//! # eevfs-runtime
//!
//! A running EEVFS prototype: real threads, real loopback TCP, real files
//! on disk — the §IV implementation, as opposed to the `eevfs` crate's
//! deterministic simulation of it.
//!
//! The process flow is the paper's Fig 2:
//!
//! 1. **Init** — the server connects to every storage node over TCP, one
//!    handler thread per node.
//! 2. **Popularity** — derived from the trace log (reusing
//!    `workload::popularity`).
//! 3. **Create + prefetch** — files are created on the nodes
//!    (popularity round-robin, reusing `eevfs::placement`) and the server
//!    instructs nodes to prefetch the top-K into their buffer areas.
//! 4. **Hints** — the server forwards each node its expected pattern,
//!    which feeds the node's power plane, the simulator's
//!    `eevfs::power::paper_plane`.
//! 5. **Request** — a client asks the server for a file, quoting a
//!    callback port.
//! 6. **Response** — the owning node streams the file *to the client*,
//!    the paper's push model, over one persistent push connection per
//!    (node, client) that the node opens on its first push.
//!
//! ## Power without hardware
//!
//! We cannot spin down laptop/CI disks (nor could we measure wall power),
//! so each node accounts disk power in **virtual time**: a
//! [`clock::VirtualClock`] maps wall-clock seconds to scaled simulated
//! seconds, and every node drives `disk_model::Disk` instances (the same
//! power state machine the simulator uses) from its single-threaded event
//! order. Spin-up penalties are *really slept* (scaled), so response
//! times measurably degrade when a disk must wake — the paper's §VI-C
//! effect, observable in integration tests.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod client;
pub mod clock;
pub mod cluster;
pub mod loadgen;
pub mod node;
pub mod proto;
pub mod server;
pub mod store;
pub mod transport;

pub use cluster::{ClusterHandle, GetOutcome, ReplayReport, RuntimeConfig};
pub use loadgen::{LoadConfig, LoadReport};
pub use server::{recover_placements, ResilienceOptions, RpcSpan, SpanKind, SpanSink};
