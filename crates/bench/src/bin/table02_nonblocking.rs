//! Regenerates Table 2 (non-blocking probabilities).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Table2.write(Scale::from_env());
}
