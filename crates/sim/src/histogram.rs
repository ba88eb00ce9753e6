//! A fixed-memory latency histogram with percentile queries.

/// Number of unit-width buckets before switching to overflow handling.
const UNIT_BUCKETS: usize = 1024;
/// Width of the coarse buckets covering the tail.
const COARSE_WIDTH: u64 = 64;
/// Number of coarse buckets (covers up to 1024 + 64·1024 ≈ 66.5k cycles).
const COARSE_BUCKETS: usize = 1024;

/// A latency histogram: exact counts for latencies below
/// 1024 cycles, 64-cycle buckets up to ~66 000 cycles, and a single
/// overflow bucket beyond — bounded memory at any run size.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    unit: Vec<u64>,
    coarse: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            unit: vec![0; UNIT_BUCKETS],
            coarse: vec![0; COARSE_BUCKETS],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency as u128;
        self.max = self.max.max(latency);
        if latency < UNIT_BUCKETS as u64 {
            self.unit[latency as usize] += 1;
        } else {
            let idx = ((latency - UNIT_BUCKETS as u64) / COARSE_WIDTH) as usize;
            if idx < COARSE_BUCKETS {
                self.coarse[idx] += 1;
            } else {
                self.overflow += 1;
            }
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    ///
    /// Every statistic of an empty histogram is defined as 0 —
    /// [`mean`](Self::mean), [`max`](Self::max) and every
    /// [`percentile`](Self::percentile) query return 0 rather than
    /// panicking — so callers may query unconditionally and treat
    /// `count() == 0` as "no data" when 0 would be misleading.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resets the histogram to empty without releasing bucket storage,
    /// so per-window histograms can be reused allocation-free.
    pub fn clear(&mut self) {
        self.unit.fill(0);
        self.coarse.fill(0);
        self.overflow = 0;
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Mean latency, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0.0–1.0), resolved to bucket granularity
    /// (exact below 1024 cycles). Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64 * p).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (latency, &c) in self.unit.iter().enumerate() {
            seen += c;
            if seen >= target {
                return latency as u64;
            }
        }
        for (idx, &c) in self.coarse.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Report the bucket's upper edge.
                return UNIT_BUCKETS as u64 + (idx as u64 + 1) * COARSE_WIDTH - 1;
            }
        }
        self.max
    }

    /// Median (p50) sample, or 0 when empty.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile sample, or 0 when empty.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile sample, or 0 when empty.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th-percentile sample, or 0 when empty — the SLO tail
    /// quantile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Merges another histogram into this one.
    ///
    /// Bucket counts add, so merging the histograms of disjoint sample
    /// sets is exactly equivalent to recording the union into one
    /// histogram: every percentile query agrees bit-for-bit (property-
    /// tested below). This is what makes per-window and per-flow-class
    /// histograms composable into run totals.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.unit.iter_mut().zip(&other.unit) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(&other.coarse) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        // Every percentile of an empty histogram is 0, never a panic.
        for p in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(p), 0);
        }
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut h = LatencyHistogram::new();
        for v in [3, 700, 2_000, 900_000] {
            h.record(v);
        }
        assert!(!h.is_empty());
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(1.0), 0);
        // A cleared histogram behaves exactly like a fresh one.
        h.record(41);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 41);
        assert_eq!(h.max(), 41);
    }

    #[test]
    fn p999_resolves_the_tail() {
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(10);
        }
        h.record(500);
        assert_eq!(h.p50(), 10);
        assert_eq!(h.p99(), 10);
        assert_eq!(h.p999(), 10);
        h.record(600);
        // 1001 samples: rank ceil(1001·0.999) = 1000 → the 500 outlier.
        assert_eq!(h.p999(), 500);
        assert_eq!(h.percentile(1.0), 600);
    }

    /// Deterministic xorshift generator so the property test below
    /// needs no external crate.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Property: merging histograms of split sample sets is
    /// indistinguishable from recording the whole set into one
    /// histogram — for any split point, and for samples spanning the
    /// unit, coarse and overflow ranges.
    #[test]
    fn merge_of_splits_equals_recomputed_whole() {
        for seed in 1..=24u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let len = 1 + (xorshift(&mut state) % 400) as usize;
            let samples: Vec<u64> = (0..len)
                .map(|_| match xorshift(&mut state) % 3 {
                    0 => xorshift(&mut state) % 1024,            // unit range
                    1 => 1024 + xorshift(&mut state) % 65_536,   // coarse range
                    _ => 70_000 + xorshift(&mut state) % 10_000, // overflow
                })
                .collect();
            let split = (xorshift(&mut state) as usize) % (len + 1);
            let mut whole = LatencyHistogram::new();
            let mut left = LatencyHistogram::new();
            let mut right = LatencyHistogram::new();
            for (i, &v) in samples.iter().enumerate() {
                whole.record(v);
                if i < split {
                    left.record(v)
                } else {
                    right.record(v)
                }
            }
            left.merge(&right);
            assert_eq!(left.count(), whole.count(), "seed {seed}");
            assert_eq!(left.max(), whole.max(), "seed {seed}");
            assert_eq!(left.mean().to_bits(), whole.mean().to_bits(), "seed {seed}");
            for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
                assert_eq!(left.percentile(p), whole.percentile(p), "seed {seed} p {p}");
            }
        }
    }

    #[test]
    fn exact_percentiles_in_unit_range() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.5), 50);
        assert_eq!(h.percentile(0.95), 95);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.percentile(0.0), 1);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn coarse_range_is_bucketed() {
        let mut h = LatencyHistogram::new();
        h.record(2_000);
        let p = h.percentile(1.0);
        assert!((2_000..2_000 + 64).contains(&p), "bucketed tail estimate, got {p}");
    }

    #[test]
    fn overflow_reports_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        assert_eq!(h.percentile(0.99), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 1..=50 {
            a.record(v);
        }
        for v in 51..=100 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.percentile(0.5), 50);
        assert_eq!(a.max(), 100);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.percentile(1.5);
    }
}
