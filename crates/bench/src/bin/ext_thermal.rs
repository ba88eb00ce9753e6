//! Extension: thermal comparison of the three routers (the paper's §6
//! future work).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::ExtThermal.write(Scale::from_env());
}
