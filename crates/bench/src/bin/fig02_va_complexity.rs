//! Regenerates Fig 2 (VA/SA arbiter complexity comparison).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig2.write(Scale::from_env());
}
