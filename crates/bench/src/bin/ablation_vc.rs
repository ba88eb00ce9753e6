//! Ablation: generic-router buffer partitioning (VC count vs depth at a
//! fixed 60-flit budget).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::VcPartitioning.write(Scale::from_env());
}
