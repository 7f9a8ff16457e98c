//! # workload
//!
//! Trace records and workload generators for the EEVFS reproduction.
//!
//! The paper evaluates EEVFS against two workload families (§V-B):
//!
//! 1. **Synthetic traces** over 1000 files, where file indices are drawn
//!    from a Poisson distribution whose mean is "the MU value" (1–1000;
//!    small MU skews accesses to a few files), file sizes have a mean of
//!    1–50 MB, and a fixed inter-arrival delay of 0–1000 ms is inserted
//!    between requests — [`synthetic`].
//! 2. A section of the **Berkeley web trace** [UCB/CSD-98-1029], with data
//!    size and inter-arrival overridden by the authors (10 MB, fixed
//!    delay). We do not have the original trace, so [`berkeley`] generates
//!    a synthetic equivalent with the property the paper relies on: access
//!    skew toward a small working set — [`berkeley`].
//!
//! Supporting modules: [`record`] (trace data model), [`popularity`]
//! (access counting and ranking, the input to EEVFS placement and
//! prefetching), [`lookahead`] (idle-window extraction used by the power
//! manager), and [`trace_io`] (text/JSON trace serialisation).

#![warn(missing_docs)]

pub mod berkeley;
pub mod lookahead;
pub mod popularity;
pub mod record;
pub mod synthetic;
pub mod trace_io;

pub use berkeley::{berkeley_web_trace, BerkeleySpec};
pub use lookahead::idle_windows;
pub use popularity::PopularityTable;
pub use record::{FileId, Op, Trace, TraceRecord};
pub use synthetic::{generate, SizeDist, SyntheticSpec};
