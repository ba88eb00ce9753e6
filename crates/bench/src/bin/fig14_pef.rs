//! Regenerates Fig 14 (PEF metric under critical and non-critical
//! faults) and prints the RoCo improvement headline.
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig14.write(Scale::from_env());
}
