//! Regenerates Fig 8 (latency vs injection, uniform random traffic).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig8.write(Scale::from_env());
}
