//! Extension: mesh-size scaling sweep.
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::ExtScaling.write(Scale::from_env());
}
