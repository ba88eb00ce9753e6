//! Regenerates Fig 12 (completion probability, message-centric/
//! non-critical faults, Hardware Recycling).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig12.write(Scale::from_env());
}
