//! The paper's Table II parameter sweeps.
//!
//! Defaults (each experiment varies one knob, the rest pinned, §VI):
//! data size 10 MB, MU 1000, inter-arrival 700 ms, 70 files to prefetch,
//! idle threshold 5 s, 1000 files, 1000 requests.

use crate::runner::Runner;
use eevfs::config::{ClusterSpec, EevfsConfig};
use eevfs::driver::run_cluster;
use eevfs::metrics::RunMetrics;
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;
use workload::berkeley::{berkeley_web_trace, BerkeleySpec};
use workload::synthetic::{generate, SyntheticSpec};

/// One sweep point: the PF and NPF runs for a parameter value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// Human-readable x value ("10 MB", "MU=100", ...).
    pub label: String,
    /// Numeric x value for series output.
    pub x: f64,
    /// EEVFS with prefetching.
    pub pf: RunMetrics,
    /// EEVFS without prefetching.
    pub npf: RunMetrics,
}

impl ExperimentPoint {
    /// Energy-efficiency gain, the number the paper quotes ("11 %", ...).
    pub fn savings(&self) -> f64 {
        self.pf.savings_vs(&self.npf)
    }

    /// Response-time degradation PF vs NPF.
    pub fn penalty(&self) -> f64 {
        self.pf.response_penalty_vs(&self.npf)
    }
}

/// Sweep-wide knobs. `requests` scales run length (the paper used 1000);
/// lower it for quick smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepParams {
    /// Requests per run.
    pub requests: u32,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            requests: 1000,
            seed: 0x5EED_EEF5,
        }
    }
}

/// Paper-default synthetic spec under these sweep params.
fn base_spec(p: &SweepParams) -> SyntheticSpec {
    SyntheticSpec {
        requests: p.requests,
        seed: p.seed,
        ..SyntheticSpec::paper_default()
    }
}

/// Runs PF(k=70) and NPF on one trace.
fn pf_npf(
    cluster: &ClusterSpec,
    trace: &workload::record::Trace,
    k: u32,
) -> (RunMetrics, RunMetrics) {
    let pf = run_cluster(cluster, &EevfsConfig::paper_pf(k), trace);
    let npf = run_cluster(cluster, &EevfsConfig::paper_npf(), trace);
    (pf, npf)
}

/// Fig 3(a)/4(a)/5(a): data size ∈ {1, 10, 25, 50} MB.
/// Grid points fan out on `runner`.
pub fn sweep_data_size(runner: &Runner, p: &SweepParams) -> Vec<ExperimentPoint> {
    let cluster = ClusterSpec::paper_testbed();
    runner.map(&[1u64, 10, 25, 50], |_, &mb| {
        let trace = generate(&SyntheticSpec {
            mean_size_bytes: mb * 1_000_000,
            ..base_spec(p)
        });
        let (pf, npf) = pf_npf(&cluster, &trace, 70);
        ExperimentPoint {
            label: format!("{mb} MB"),
            x: mb as f64,
            pf,
            npf,
        }
    })
}

/// Fig 3(b)/4(b)/5(b): MU ∈ {1, 10, 100, 1000}.
/// Grid points fan out on `runner`.
pub fn sweep_mu(runner: &Runner, p: &SweepParams) -> Vec<ExperimentPoint> {
    let cluster = ClusterSpec::paper_testbed();
    runner.map(&[1.0f64, 10.0, 100.0, 1000.0], |_, &mu| {
        let trace = generate(&SyntheticSpec { mu, ..base_spec(p) });
        let (pf, npf) = pf_npf(&cluster, &trace, 70);
        ExperimentPoint {
            label: format!("MU={mu}"),
            x: mu,
            pf,
            npf,
        }
    })
}

/// Fig 3(c)/4(c)/5(c): inter-arrival delay ∈ {0, 350, 700, 1000} ms.
/// Grid points fan out on `runner`.
pub fn sweep_inter_arrival(runner: &Runner, p: &SweepParams) -> Vec<ExperimentPoint> {
    let cluster = ClusterSpec::paper_testbed();
    runner.map(&[0u64, 350, 700, 1000], |_, &ms| {
        let trace = generate(&SyntheticSpec {
            inter_arrival: SimDuration::from_millis(ms),
            ..base_spec(p)
        });
        let (pf, npf) = pf_npf(&cluster, &trace, 70);
        ExperimentPoint {
            label: format!("{ms} ms"),
            x: ms as f64,
            pf,
            npf,
        }
    })
}

/// Fig 3(d)/4(d)/5(d): files to prefetch ∈ {10, 40, 70, 100}.
/// Grid points fan out on `runner`; all four K values replay the same
/// trace, so it is generated once and borrowed by every worker.
pub fn sweep_prefetch_k(runner: &Runner, p: &SweepParams) -> Vec<ExperimentPoint> {
    let cluster = ClusterSpec::paper_testbed();
    let trace = generate(&base_spec(p));
    runner.map(&[10u32, 40, 70, 100], |_, &k| {
        let (pf, npf) = pf_npf(&cluster, &trace, k);
        ExperimentPoint {
            label: format!("K={k}"),
            x: k as f64,
            pf,
            npf,
        }
    })
}

/// Fig 6: the Berkeley web-trace substitute (10 MB data size, K=70).
pub fn berkeley_experiment(p: &SweepParams) -> ExperimentPoint {
    let cluster = ClusterSpec::paper_testbed();
    let trace = berkeley_web_trace(&BerkeleySpec {
        requests: p.requests,
        seed: p.seed,
        ..BerkeleySpec::paper_default()
    });
    let (pf, npf) = pf_npf(&cluster, &trace, 70);
    ExperimentPoint {
        label: "Berkeley web trace".into(),
        x: 0.0,
        pf,
        npf,
    }
}

/// One cell of the fixed reference grid `harness bench` times.
///
/// The four Table II sweeps are flattened into a single list so the
/// runner's work-stealing cursor can balance mixed-cost cells (a 50 MB
/// data-size cell costs far more than a 1 MB one) across workers instead
/// of serialising sweep-by-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GridCell {
    /// A data-size sweep cell (mean file size, MB).
    DataSize(u64),
    /// An MU sweep cell.
    Mu(u32),
    /// An inter-arrival sweep cell (delay, ms).
    InterArrival(u64),
    /// A prefetch-K sweep cell.
    PrefetchK(u32),
}

impl GridCell {
    /// The cell's human-readable grid-point name.
    pub fn label(&self) -> String {
        match *self {
            GridCell::DataSize(mb) => format!("data size {mb} MB"),
            GridCell::Mu(mu) => format!("MU={mu}"),
            GridCell::InterArrival(ms) => format!("inter-arrival {ms} ms"),
            GridCell::PrefetchK(k) => format!("K={k}"),
        }
    }
}

/// The 16 cells of the reference grid, in Table II order.
pub fn reference_grid() -> Vec<GridCell> {
    let mut cells = Vec::with_capacity(16);
    cells.extend([1u64, 10, 25, 50].map(GridCell::DataSize));
    cells.extend([1u32, 10, 100, 1000].map(GridCell::Mu));
    cells.extend([0u64, 350, 700, 1000].map(GridCell::InterArrival));
    cells.extend([10u32, 40, 70, 100].map(GridCell::PrefetchK));
    cells
}

/// Runs one reference-grid cell: trace generation plus the PF and NPF
/// simulations. Pure in `(cell, p)`, which is what lets the runner fan
/// cells out in any order.
fn run_grid_cell(cell: &GridCell, p: &SweepParams) -> ExperimentPoint {
    let cluster = ClusterSpec::paper_testbed();
    let (spec, k) = match *cell {
        GridCell::DataSize(mb) => (
            SyntheticSpec {
                mean_size_bytes: mb * 1_000_000,
                ..base_spec(p)
            },
            70,
        ),
        GridCell::Mu(mu) => (
            SyntheticSpec {
                mu: mu as f64,
                ..base_spec(p)
            },
            70,
        ),
        GridCell::InterArrival(ms) => (
            SyntheticSpec {
                inter_arrival: SimDuration::from_millis(ms),
                ..base_spec(p)
            },
            70,
        ),
        GridCell::PrefetchK(k) => (base_spec(p), k),
    };
    let trace = generate(&spec);
    let (pf, npf) = pf_npf(&cluster, &trace, k);
    ExperimentPoint {
        label: cell.label(),
        x: 0.0,
        pf,
        npf,
    }
}

/// Runs the whole reference grid on `runner`, results in grid order.
pub fn run_reference_grid(runner: &Runner, p: &SweepParams) -> Vec<ExperimentPoint> {
    let cells = reference_grid();
    runner.map(&cells, |_, cell| run_grid_cell(cell, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepParams {
        SweepParams {
            requests: 150,
            ..SweepParams::default()
        }
    }

    #[test]
    fn data_size_sweep_has_four_points_and_positive_savings() {
        let pts = sweep_data_size(&Runner::serial(), &quick());
        assert_eq!(pts.len(), 4);
        for pt in &pts {
            assert!(pt.savings() > 0.0, "{}: savings {}", pt.label, pt.savings());
        }
    }

    #[test]
    fn mu_sweep_savings_fall_with_mu() {
        let pts = sweep_mu(&Runner::serial(), &quick());
        let s: Vec<f64> = pts.iter().map(|p| p.savings()).collect();
        // MU <= 100 all fully covered: equal (within noise); MU=1000 lower.
        assert!(s[3] < s[0], "MU=1000 should save less than MU=1: {s:?}");
        assert!(
            (s[0] - s[2]).abs() < 0.03,
            "MU=1 vs MU=100 should be close: {s:?}"
        );
    }

    #[test]
    fn prefetch_sweep_savings_rise_with_k() {
        let pts = sweep_prefetch_k(&Runner::serial(), &quick());
        let s: Vec<f64> = pts.iter().map(|p| p.savings()).collect();
        assert!(s[3] > s[0], "K=100 should beat K=10: {s:?}");
        // NPF baseline identical across K (same trace).
        let e0 = pts[0].npf.total_energy_j;
        for pt in &pts {
            assert!((pt.npf.total_energy_j - e0).abs() < 1e-6);
        }
    }

    #[test]
    fn reference_grid_is_schedule_independent() {
        let p = SweepParams {
            requests: 100,
            ..SweepParams::default()
        };
        let serial = run_reference_grid(&Runner::serial(), &p);
        let parallel = run_reference_grid(&Runner::new(8), &p);
        assert_eq!(serial.len(), 16);
        for (s, q) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, q.label);
            assert_eq!(s.pf, q.pf, "{}", s.label);
            assert_eq!(s.npf, q.npf, "{}", s.label);
        }
    }

    #[test]
    fn berkeley_sleeps_everything() {
        let pt = berkeley_experiment(&quick());
        assert_eq!(pt.pf.transitions.spin_ups, 0);
        assert!(pt.savings() > 0.08, "savings {}", pt.savings());
    }
}
