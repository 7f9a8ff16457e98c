//! One entry point per paper figure.
//!
//! Fig 3/4/5 are three views of the same sweep runs (energy, transitions,
//! response time), so each `figN` call re-runs the sweep it needs; the
//! harness's `all` mode runs each sweep once and renders all three views
//! from it.

use crate::runner::Runner;
use crate::sweeps::{
    berkeley_experiment, sweep_data_size, sweep_inter_arrival, sweep_mu, sweep_prefetch_k,
    ExperimentPoint, SweepParams,
};
use serde::{Deserialize, Serialize};

/// Which sub-figure (which swept parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Panel {
    /// (a) data size.
    DataSize,
    /// (b) the MU value.
    Mu,
    /// (c) inter-arrival delay.
    InterArrival,
    /// (d) number of files to prefetch.
    PrefetchK,
}

impl Panel {
    /// All four panels in paper order.
    pub const ALL: [Panel; 4] = [
        Panel::DataSize,
        Panel::Mu,
        Panel::InterArrival,
        Panel::PrefetchK,
    ];

    /// The x-axis label the paper uses.
    pub fn xlabel(self) -> &'static str {
        match self {
            Panel::DataSize => "Data Size (MB)",
            Panel::Mu => "MU",
            Panel::InterArrival => "Inter-arrival delay (ms)",
            Panel::PrefetchK => "# of files to prefetch",
        }
    }

    /// Runs the underlying sweep with its points fanned out on `runner`.
    pub fn run(self, runner: &Runner, p: &SweepParams) -> Vec<ExperimentPoint> {
        match self {
            Panel::DataSize => sweep_data_size(runner, p),
            Panel::Mu => sweep_mu(runner, p),
            Panel::InterArrival => sweep_inter_arrival(runner, p),
            Panel::PrefetchK => sweep_prefetch_k(runner, p),
        }
    }
}

/// A rendered figure: one row per x value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Figure id ("Fig 3(a)", ...).
    pub id: String,
    /// What the y axis is.
    pub ylabel: String,
    /// What the x axis is.
    pub xlabel: String,
    /// `(x label, PF value, NPF value)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

impl Figure {
    fn from_points(
        id: &str,
        ylabel: &str,
        xlabel: &str,
        pts: &[ExperimentPoint],
        f: impl Fn(&eevfs::metrics::RunMetrics) -> f64,
    ) -> Figure {
        Figure {
            id: id.into(),
            ylabel: ylabel.into(),
            xlabel: xlabel.into(),
            rows: pts
                .iter()
                .map(|p| (p.label.clone(), f(&p.pf), f(&p.npf)))
                .collect(),
        }
    }
}

/// Fig 3: energy consumption (J) as a function of the panel's parameter.
pub fn fig3(panel: Panel, p: &SweepParams) -> Figure {
    let pts = panel.run(&Runner::serial(), p);
    fig3_view(panel, &pts)
}

/// Fig 3 as a view over already-run sweep points.
pub fn fig3_view(panel: Panel, pts: &[ExperimentPoint]) -> Figure {
    Figure::from_points(
        &format!("Fig 3 ({})", panel.xlabel()),
        "Energy (J)",
        panel.xlabel(),
        pts,
        |m| m.total_energy_j,
    )
}

/// Fig 4: total power-state transitions (PF runs; the paper's NPF column
/// is implicitly zero and is included for completeness).
pub fn fig4(panel: Panel, p: &SweepParams) -> Figure {
    let pts = panel.run(&Runner::serial(), p);
    fig4_view(panel, &pts)
}

/// Fig 4 as a view over already-run sweep points.
pub fn fig4_view(panel: Panel, pts: &[ExperimentPoint]) -> Figure {
    Figure::from_points(
        &format!("Fig 4 ({})", panel.xlabel()),
        "Total state transitions",
        panel.xlabel(),
        pts,
        |m| m.transitions.total() as f64,
    )
}

/// Fig 5: mean file-request response time (s).
pub fn fig5(panel: Panel, p: &SweepParams) -> Figure {
    let pts = panel.run(&Runner::serial(), p);
    fig5_view(panel, &pts)
}

/// Fig 5 as a view over already-run sweep points.
pub fn fig5_view(panel: Panel, pts: &[ExperimentPoint]) -> Figure {
    Figure::from_points(
        &format!("Fig 5 ({})", panel.xlabel()),
        "Response time (s)",
        panel.xlabel(),
        pts,
        |m| m.response.mean_s,
    )
}

/// Fig 6: energy under the Berkeley web trace, PF vs NPF.
pub fn fig6(p: &SweepParams) -> Figure {
    let pt = berkeley_experiment(p);
    Figure {
        id: "Fig 6 (Berkeley web trace)".into(),
        ylabel: "Energy (J)".into(),
        xlabel: "configuration".into(),
        rows: vec![(
            pt.label.clone(),
            pt.pf.total_energy_j,
            pt.npf.total_energy_j,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepParams {
        SweepParams {
            requests: 120,
            ..SweepParams::default()
        }
    }

    #[test]
    fn fig3_rows_are_pf_under_npf() {
        let f = fig3(Panel::Mu, &quick());
        assert_eq!(f.rows.len(), 4);
        for (label, pf, npf) in &f.rows {
            assert!(pf <= npf, "{label}: PF {pf} > NPF {npf}");
        }
    }

    #[test]
    fn fig4_npf_column_is_zero() {
        let f = fig4(Panel::PrefetchK, &quick());
        for (_, _, npf) in &f.rows {
            assert_eq!(*npf, 0.0);
        }
    }

    #[test]
    fn fig6_single_row() {
        let f = fig6(&quick());
        assert_eq!(f.rows.len(), 1);
        let (_, pf, npf) = &f.rows[0];
        assert!(pf < npf);
    }

    #[test]
    fn views_reuse_sweep_points() {
        let pts = Panel::Mu.run(&Runner::serial(), &quick());
        let e = fig3_view(Panel::Mu, &pts);
        let t = fig4_view(Panel::Mu, &pts);
        let r = fig5_view(Panel::Mu, &pts);
        assert_eq!(e.rows.len(), t.rows.len());
        assert_eq!(t.rows.len(), r.rows.len());
        assert!(r.rows.iter().all(|(_, pf, npf)| *pf > 0.0 && *npf > 0.0));
    }

    #[test]
    fn panel_labels_match_paper() {
        assert_eq!(Panel::DataSize.xlabel(), "Data Size (MB)");
        assert_eq!(Panel::Mu.xlabel(), "MU");
        assert_eq!(Panel::ALL.len(), 4);
    }
}
