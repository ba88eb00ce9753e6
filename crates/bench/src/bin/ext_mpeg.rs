//! Extension experiment: MPEG-2 GoP video traffic (the paper omitted
//! these results for space).
use noc_bench::{experiments::Experiment, Scale};
fn main() {
    Experiment::ExtMpeg.write(Scale::from_env());
}
