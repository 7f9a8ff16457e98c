//! # eevfs — Energy Efficient Virtual File System
//!
//! Reproduction of the system contributed by *"Energy Efficient
//! Prefetching with Buffer Disks for Cluster File Systems"* (ICPP 2010).
//!
//! EEVFS is a cluster file system that trades a little response time for a
//! lot of disk energy. A central **storage server** keeps coarse metadata
//! (file → storage node) and performs popularity-aware placement; each
//! **storage node** manages one always-on **buffer disk** plus several
//! **data disks**, prefetches the most popular files into the buffer disk,
//! and uses the expected access pattern to spin data disks down to standby
//! through predicted idle windows.
//!
//! The crate is organised around the paper's sections:
//!
//! | Paper | Module |
//! |---|---|
//! | §III-A system architecture, Table I testbed | [`config`] |
//! | §III-B / §IV-A data placement & process flow | [`placement`], [`server`] |
//! | §III-C power management | [`power`] |
//! | §IV-B prefetching | [`prefetch`], [`buffer`] |
//! | §IV-C application hints | [`power`] (hint source) |
//! | §IV-D distributed metadata | [`metadata`] |
//! | §V metrics | [`metrics`] |
//! | §VI experiments (the whole cluster in motion) | [`driver`] |
//! | §II baselines (MAID, PDC, plain DPM) | [`baselines`] |
//!
//! Beyond the paper, the durability layer adds a buffer-disk write-ahead
//! journal ([`journal`]) and an energy-aware scrubber ([`scrub`]) driven
//! by seeded corruption/crash plans from `fault_model::durability`.
//!
//! # Quick start
//!
//! ```
//! use eevfs::config::{ClusterSpec, EevfsConfig};
//! use eevfs::driver::run_cluster;
//! use workload::synthetic::{generate, SyntheticSpec};
//!
//! let trace = generate(&SyntheticSpec { requests: 50, ..SyntheticSpec::paper_default() });
//! let cluster = ClusterSpec::paper_testbed();
//!
//! let pf = run_cluster(&cluster, &EevfsConfig::paper_pf(70), &trace);
//! let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
//! assert!(pf.total_energy_j <= npf.total_energy_j * 1.001);
//! ```
//!
//! [`run_cluster`] is the healthy-cluster shorthand. Every other run —
//! faults, network resilience, durability, the `eevfs-power` policy
//! plane, observation — goes through [`simulate`] with a [`Scenario`].

#![warn(missing_docs)]

pub mod baselines;
pub mod buffer;
pub mod config;
pub mod driver;
pub mod journal;
pub mod metadata;
pub mod metrics;
pub mod overload;
pub mod placement;
pub mod power;
pub mod prefetch;
pub mod replication;
pub mod scrub;
pub mod server;

pub use config::{ClusterSpec, EevfsConfig, NodeSpec};
pub use driver::{run_cluster, simulate, DriverError, Scenario};
pub use metrics::RunMetrics;
