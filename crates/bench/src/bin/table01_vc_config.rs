//! Regenerates Table 1 (RoCo VC buffer configuration).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::Table1.write(Scale::from_env());
}
