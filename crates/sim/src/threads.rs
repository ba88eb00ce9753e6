//! Worker-count selection for the work that fans whole simulations
//! across threads: `noc_bench::run_batch` and the degradation-campaign
//! harness both resolve their thread count here so one knob
//! (`NOC_THREADS`) governs them. A single simulation
//! always runs on one thread.

/// Resolves a worker-thread count.
///
/// Precedence: the `NOC_THREADS` environment variable, then
/// [`std::thread::available_parallelism`], then 1. Zero and unparsable
/// values are treated as unset so a bad `NOC_THREADS` degrades to the
/// default instead of panicking.
///
/// Thread count never affects simulation results — each simulation is
/// independent and batches collect results in input order — so this is
/// purely a performance knob.
pub fn worker_threads() -> usize {
    std::env::var("NOC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
