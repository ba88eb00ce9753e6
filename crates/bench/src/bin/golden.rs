//! Golden regression corpus runner (ISSUE 4).
//!
//! Re-runs every scenario in `crates/bench/src/golden.rs` and diffs
//! the results against the committed files under `goldens/`, exiting
//! non-zero on any missing file or differing key. A check run writes
//! nothing. `--update` regenerates the whole corpus for an intentional
//! behaviour change.

use noc_bench::golden::check_all;

fn main() {
    let update = std::env::args().any(|a| a == "--update");
    if update {
        eprintln!("[golden] regenerating the corpus (--update)");
    }
    let summary = check_all(update);
    print!("{}", summary.render());
    if summary.failed() {
        std::process::exit(1);
    }
}
