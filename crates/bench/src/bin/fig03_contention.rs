//! Regenerates Fig 3 (contention probabilities vs injection rate).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig3.write(Scale::from_env());
}
