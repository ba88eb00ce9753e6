//! Regenerates Fig 10 (latency vs injection, transpose traffic).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig10.write(Scale::from_env());
}
