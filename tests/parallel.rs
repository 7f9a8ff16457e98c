//! Serial vs parallel equivalence for the experiment engine.
//!
//! The runner's contract (DESIGN.md §11) is that `--jobs 1` and
//! `--jobs 8` produce *byte-identical* reports: every simulation is a
//! pure function of its inputs, and results are reassembled in grid
//! order. These tests pin that contract across the sweep, ablation-grid,
//! and reference-grid paths, comparing both the in-memory `RunMetrics`
//! and the serialized JSON the harness would write.

use eevfs_bench::figures::Panel;
use eevfs_bench::runner::Runner;
use eevfs_bench::sweeps::{run_reference_grid, SweepParams};

fn quick() -> SweepParams {
    SweepParams {
        requests: 120,
        ..SweepParams::default()
    }
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializable")
}

#[test]
fn sweep_panels_are_byte_identical_across_job_counts() {
    let p = quick();
    let serial = Runner::serial();
    let parallel = Runner::new(8);
    for panel in Panel::ALL {
        let a = panel.run(&serial, &p);
        let b = panel.run(&parallel, &p);
        assert_eq!(a.len(), b.len(), "{panel:?}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label, "{panel:?}");
            assert_eq!(x.pf, y.pf, "{panel:?} {}", x.label);
            assert_eq!(x.npf, y.npf, "{panel:?} {}", x.label);
        }
        assert_eq!(json(&a), json(&b), "{panel:?}");
    }
}

type AblationGrid =
    fn(&Runner, &SweepParams) -> Result<eevfs_bench::ablate::Ablation, eevfs_bench::GridError>;

#[test]
fn ablation_grids_are_byte_identical_across_job_counts() {
    use eevfs_bench::ablate::{ablate_faults, ablate_resilience, ablate_scrub};
    let p = quick();
    let serial = Runner::serial();
    let parallel = Runner::new(8);
    let grids: [(&str, AblationGrid); 3] = [
        ("faults", ablate_faults),
        ("resilience", ablate_resilience),
        ("scrub", ablate_scrub),
    ];
    for (name, grid) in grids {
        let a = grid(&serial, &p).expect("serial grid");
        let b = grid(&parallel, &p).expect("parallel grid");
        assert_eq!(a.rows.len(), b.rows.len(), "{name}");
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.name, y.name, "{name}");
            assert_eq!(x.run, y.run, "{name}: {}", x.name);
        }
        assert_eq!(json(&a), json(&b), "{name}");
    }
}

#[test]
fn reference_grid_is_byte_identical_across_job_counts() {
    let p = quick();
    let a = run_reference_grid(&Runner::serial(), &p);
    let b = run_reference_grid(&Runner::new(8), &p);
    assert_eq!(json(&a), json(&b));
}
