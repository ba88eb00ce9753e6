//! Ablations: Mirroring Effect vs separable SA; west-first vs odd-even
//! adaptive routing.
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Ablations.write(Scale::from_env());
}
