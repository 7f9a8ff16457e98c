//! # sim-core
//!
//! Deterministic discrete-event simulation (DES) substrate for the EEVFS
//! reproduction.
//!
//! The EEVFS paper (ICPP 2010) evaluates a physical cluster; this crate
//! provides the machinery to replay the same dynamics in simulated time:
//!
//! * [`time`] — integer microsecond clock ([`SimTime`], [`SimDuration`])
//!   so that event ordering is exact and runs are bit-reproducible.
//! * [`event`] — a time-ordered event queue with stable FIFO tie-breaking.
//! * [`engine`] — a minimal driver loop for models that own their state.
//! * [`rng`] — a seeded RNG with the distributions the workloads need
//!   (Poisson with arbitrarily large mean, Zipf, exponential, log-normal).
//! * [`stats`] — online summary statistics, percentiles, and histograms.
//! * [`series`] — append-only time series used by the energy meters.
//! * [`hash`] — a fixed, fast hasher for the integer-keyed maps on the
//!   simulator's per-request path.
//!
//! Everything here is deliberately free of wall-clock time, threads, and
//! global state: a simulation is a pure function of its inputs and seed.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod hash;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use engine::{Engine, Model};
pub use event::EventQueue;
pub use hash::IntMap;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{linear_regression, Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
