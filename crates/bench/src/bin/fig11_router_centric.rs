//! Regenerates Fig 11 (completion probability, router-centric/critical
//! faults).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig11.write(Scale::from_env());
}
