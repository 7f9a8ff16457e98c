//! # eevfs-obs — deterministic tracing and telemetry for the EEVFS repro
//!
//! The paper's whole argument is about *when* things happen — request
//! arrivals vs. disk power-state timing (§V-C) — but end-of-run aggregates
//! (`RunMetrics`) cannot show a single request's lifecycle or whether the
//! power manager's idle-window predictions were right. This crate is the
//! missing observability layer:
//!
//! * [`event`] — the structured, integer-only [`TraceEvent`] schema:
//!   request arrive/queue/spinup-wait/serve/complete, disk
//!   Active↔Idle↔Standby transitions, prefetch staging, power-manager
//!   predicted-vs-realised idle windows, RPC send/retry/hedge/complete.
//! * [`recorder`] — a bounded ring-buffer [`Recorder`] with JSONL export
//!   that is **byte-identical across same-seed runs** (the determinism
//!   contract is documented there).
//! * [`metrics`] — a name-keyed [`MetricsRegistry`] of counters and time
//!   series, plus an interval [`Sampler`] that takes periodic samples
//!   without perturbing the event queue.
//! * [`timeline`] — the paper's Fig-2-style ASCII power/state timeline,
//!   reconstructed from `DiskTransition` events.
//! * [`prediction`] — [`PredictionTracker`]: scores every sleep decision's
//!   realised idle window against the drive's breakeven time.
//!
//! The crate deliberately depends only on `sim-core`, `disk-model`, and
//! the serialisation shims, so every layer above (driver, runtime, bench
//! harness) can thread it through without cycles.

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod prediction;
pub mod recorder;
pub mod timeline;

pub use event::{Category, EventKind, Severity, TraceEvent};
pub use metrics::{MetricsError, MetricsRegistry, Sampler};
pub use prediction::{PredictionSample, PredictionSummary, PredictionTracker};
pub use recorder::Recorder;
pub use timeline::render_power_timeline;
