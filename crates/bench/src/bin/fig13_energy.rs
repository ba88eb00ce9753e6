//! Regenerates Fig 13 (energy per packet at 0.3 injection).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig13.write(Scale::from_env());
}
