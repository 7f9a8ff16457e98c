//! Re-run one of the paper's Table II sweeps and print all three metric
//! views (Figs 3/4/5), plus the ablations DESIGN.md calls out.
//!
//! ```text
//! cargo run --release --example parameter_sweep            # MU sweep
//! cargo run --release --example parameter_sweep size       # data-size sweep
//! cargo run --release --example parameter_sweep ablate     # ablations
//! ```

use eevfs_bench::ablate::all_ablations;
use eevfs_bench::figures::{fig3_view, fig4_view, fig5_view, Panel};
use eevfs_bench::report::{render_ablation, render_figure, render_sweep};
use eevfs_bench::runner::Runner;
use eevfs_bench::sweeps::SweepParams;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "mu".into());
    let params = SweepParams {
        requests: 400,
        ..SweepParams::default()
    };

    if which == "ablate" {
        for a in all_ablations(&Runner::serial(), &params) {
            println!("{}", render_ablation(&a));
        }
        return;
    }

    let panel = match which.as_str() {
        "size" => Panel::DataSize,
        "mu" => Panel::Mu,
        "delay" => Panel::InterArrival,
        "k" => Panel::PrefetchK,
        other => {
            eprintln!("unknown sweep {other}; use size|mu|delay|k|ablate");
            std::process::exit(1);
        }
    };

    let pts = panel.run(&Runner::serial(), &params);
    println!(
        "{}",
        render_sweep(&format!("sweep over {}", panel.xlabel()), &pts)
    );
    println!("{}", render_figure(&fig3_view(panel, &pts)));
    println!("{}", render_figure(&fig4_view(panel, &pts)));
    println!("{}", render_figure(&fig5_view(panel, &pts)));
}
