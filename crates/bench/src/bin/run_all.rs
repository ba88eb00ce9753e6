//! Regenerates every table and figure of the paper in one go (plus the
//! extensions), writing CSVs under `results/`. Controlled by
//! `NOC_SCALE` (quick | full | paper).
use noc_bench::{experiments::Experiment, Scale};

fn main() {
    let scale = Scale::from_env();
    let t0 = std::time::Instant::now();
    println!("# RoCo reproduction — full experiment suite\n");
    for experiment in Experiment::RUN_ALL {
        experiment.write(scale);
    }
    println!("\n[run_all completed in {:.1?}]", t0.elapsed());
}
