//! Regenerates Fig 9 (latency vs injection, self-similar traffic).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Fig9.write(Scale::from_env());
}
