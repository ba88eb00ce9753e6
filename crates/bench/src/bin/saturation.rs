//! Saturation-throughput comparison across routers and routing
//! algorithms (single-number summary of the Fig 8 curves).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Saturation.write(Scale::from_env());
}
