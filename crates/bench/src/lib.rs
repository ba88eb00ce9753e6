//! # noc-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the paper's evaluation (§5). Each `fig*`/`table*` binary runs the
//! corresponding experiment, prints the paper's rows/series as a
//! markdown table, and writes a CSV under `results/`; `run_all`
//! regenerates everything.
//!
//! Experiment sizes are controlled by the `NOC_SCALE` environment
//! variable: `quick` (default — every figure in seconds/minutes),
//! `full` (a deeper sweep), or `paper` (the paper's 20 000 warm-up +
//! 1 000 000 measured packets).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod experiments;
pub mod fuzz;
pub mod golden;
pub mod plot;

use noc_sim::{SimConfig, SimResults};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Warm-up packets per run.
    pub warmup: u64,
    /// Measured packets per run.
    pub measured: u64,
    /// Random fault patterns averaged per faulty data point.
    pub fault_seeds: u64,
}

impl Scale {
    /// Quick scale: every figure regenerates in seconds to minutes.
    pub fn quick() -> Self {
        Scale { warmup: 1_000, measured: 15_000, fault_seeds: 5 }
    }

    /// Deeper sweep.
    pub fn full() -> Self {
        Scale { warmup: 5_000, measured: 100_000, fault_seeds: 10 }
    }

    /// The paper's §5.4 sizes (20 000 + 1 000 000 packets).
    pub fn paper() -> Self {
        Scale { warmup: 20_000, measured: 1_000_000, fault_seeds: 10 }
    }

    /// Reads `NOC_SCALE` (`quick` | `full` | `paper`), defaulting to
    /// quick.
    pub fn from_env() -> Self {
        match std::env::var("NOC_SCALE").as_deref() {
            Ok("paper") => Scale::paper(),
            Ok("full") => Scale::full(),
            _ => Scale::quick(),
        }
    }

    /// Applies this scale to a config.
    pub fn apply(&self, mut cfg: SimConfig) -> SimConfig {
        cfg.warmup_packets = self.warmup;
        cfg.measured_packets = self.measured;
        cfg
    }
}

/// Resolves the worker-thread count for work that fans whole
/// simulations across threads ([`run_batch`] and the degradation
/// campaigns, both through [`parallel_map`]). A single simulation
/// always runs on one thread.
///
/// Precedence: the `NOC_THREADS` environment variable, then
/// [`std::thread::available_parallelism`], then 1. Zero and unparsable
/// values are treated as unset so a bad `NOC_THREADS` degrades to the
/// default instead of panicking.
///
/// Thread count never affects results — each job is independent and
/// results come back in input order — so this is purely a performance
/// knob.
pub(crate) fn worker_threads() -> usize {
    std::env::var("NOC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Maps `f` over `items` on [`worker_threads`] scoped threads and
/// returns the results in input order. Work is handed out through a
/// lock-free shared index: each worker claims the next unclaimed item
/// with a `fetch_add`, so there is no queue mutex to contend on between
/// (long) jobs.
pub(crate) fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    const POISONED: &str = "a worker panicked while holding the results lock";
    let next = AtomicUsize::new(0);
    let slots = Mutex::new(items.iter().map(|_| None).collect::<Vec<Option<R>>>());
    std::thread::scope(|scope| {
        for _ in 0..worker_threads().min(items.len()) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                let r = f(item);
                slots.lock().expect(POISONED)[idx] = Some(r);
            });
        }
    });
    slots.into_inner().expect(POISONED).into_iter().map(|r| r.expect("every item ran")).collect()
}

/// Runs a batch of independent simulations across CPU cores, preserving
/// input order. It shares one worker pool (`parallel_map`, sized by
/// `NOC_THREADS`) with the degradation campaigns.
pub fn run_batch(configs: Vec<SimConfig>) -> Vec<SimResults> {
    parallel_map(&configs, |cfg| noc_sim::run(cfg.clone()))
}

/// A simple table: header plus rows of cells, rendered as markdown and
/// CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ =
            writeln!(out, "|{}|", self.header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Prints the markdown and writes `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.to_markdown());
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("[wrote {}]", path.display());
            }
        }
    }
}

/// Where experiment CSVs land (`results/` under the workspace root, or
/// the current directory as a fallback).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{RouterKind, RoutingKind};
    use noc_traffic::TrafficKind;

    #[test]
    fn scale_selection() {
        assert_eq!(Scale::quick().warmup, 1_000);
        assert_eq!(Scale::paper().measured, 1_000_000);
        let cfg = Scale::quick().apply(SimConfig::paper_scaled(
            RouterKind::RoCo,
            RoutingKind::Xy,
            TrafficKind::Uniform,
        ));
        assert_eq!(cfg.warmup_packets, 1_000);
    }

    // Env-var manipulation is process-global, so the scenarios live in
    // one test to avoid racing parallel test threads.
    #[test]
    fn precedence_env_then_detected() {
        std::env::set_var("NOC_THREADS", "3");
        assert_eq!(worker_threads(), 3, "NOC_THREADS beats detection");
        std::env::set_var("NOC_THREADS", "0");
        let detected = worker_threads();
        assert!(detected >= 1, "zero NOC_THREADS falls back to detection");
        std::env::set_var("NOC_THREADS", "not-a-number");
        assert_eq!(worker_threads(), detected, "garbage NOC_THREADS is unset");
        std::env::remove_var("NOC_THREADS");
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn batch_preserves_order_and_determinism() {
        let mk = |rate: f64| {
            let mut c =
                SimConfig::paper_scaled(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform);
            c.warmup_packets = 50;
            c.measured_packets = 300;
            c.injection_rate = rate;
            c
        };
        let batch = run_batch(vec![mk(0.1), mk(0.2), mk(0.1)]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].avg_latency, batch[2].avg_latency, "same config, same seed");
        assert!(batch[1].avg_latency > batch[0].avg_latency);
    }

    #[test]
    fn table_rendering() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("1,2"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
