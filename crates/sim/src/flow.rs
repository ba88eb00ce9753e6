//! Flow-class latency telemetry and SLO gating.
//!
//! Aggregate latency hides how service degrades: under faults, long
//! routes around a disabled region suffer first while single-hop
//! traffic still looks healthy. This module classifies every delivered
//! packet into a *flow class* by src→dst Manhattan hop distance and
//! keeps one mergeable [`LatencyHistogram`] per class, so run
//! summaries, interval windows and campaign reports can show tail
//! percentiles (p50/p95/p99/p999) per class rather than in aggregate.
//!
//! The classifier is deliberately a closed enum keyed only on data
//! already carried by every flit (`src`, `dst`): it works identically
//! in all three cycle kernels and costs one subtraction per delivery.
//! The run-level traffic pattern is a *label* on exported metrics (the
//! whole run shares one pattern), and a request/reply dimension will
//! join as a third axis once closed-loop traffic lands (ROADMAP).
//!
//! [`SloSpec`] is the machine-checkable form of SLO reporting:
//! `near:p99<=40` parses into a spec that [`check_slos`] evaluates
//! against [`SimResults`], and the CLI turns violations into a nonzero
//! exit. It lives in the library (not the CLI) so a campaign server
//! (parked on the ROADMAP) could reuse it.

use crate::histogram::LatencyHistogram;
use crate::stats::SimResults;
use noc_core::Coord;
use std::fmt;
use std::str::FromStr;

/// A latency flow class: the src→dst Manhattan hop-distance band.
///
/// Bands are fixed (not mesh-relative) so a class name means the same
/// thing across sweep points and campaign cells of different mesh
/// sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// Same-node traffic (0 hops): pure injection/ejection cost.
    Local,
    /// 1–2 hops: immediate-neighbourhood traffic.
    Near,
    /// 3–6 hops: mid-range traffic.
    Mid,
    /// 7 or more hops: cross-chip traffic, the first to degrade when
    /// routes lengthen around faults.
    Far,
}

impl FlowClass {
    /// All classes, in reporting order.
    pub const ALL: [FlowClass; 4] =
        [FlowClass::Local, FlowClass::Near, FlowClass::Mid, FlowClass::Far];

    /// Number of flow classes.
    pub const COUNT: usize = Self::ALL.len();

    /// Classifies a src→dst pair by Manhattan hop distance.
    pub fn of(src: Coord, dst: Coord) -> FlowClass {
        match src.manhattan_distance(dst) {
            0 => FlowClass::Local,
            1..=2 => FlowClass::Near,
            3..=6 => FlowClass::Mid,
            _ => FlowClass::Far,
        }
    }

    /// Stable lowercase name, used in JSON output, Prometheus labels
    /// and `--slo` specs.
    pub fn name(self) -> &'static str {
        match self {
            FlowClass::Local => "local",
            FlowClass::Near => "near",
            FlowClass::Mid => "mid",
            FlowClass::Far => "far",
        }
    }

    /// Index into [`Self::ALL`]-ordered storage.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for FlowClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FlowClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "local" => Ok(FlowClass::Local),
            "near" => Ok(FlowClass::Near),
            "mid" => Ok(FlowClass::Mid),
            "far" => Ok(FlowClass::Far),
            other => Err(format!("unknown flow class '{other}' (local|near|mid|far)")),
        }
    }
}

/// One mergeable latency histogram per flow class.
#[derive(Debug, Clone)]
pub struct ClassHistograms {
    hists: Vec<LatencyHistogram>,
}

impl Default for ClassHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassHistograms {
    /// Empty histograms for every class.
    pub fn new() -> Self {
        ClassHistograms { hists: vec![LatencyHistogram::new(); FlowClass::COUNT] }
    }

    /// Records one latency sample under `class`.
    pub fn record(&mut self, class: FlowClass, latency: u64) {
        self.hists[class.index()].record(latency);
    }

    /// The histogram of one class.
    pub fn class(&self, class: FlowClass) -> &LatencyHistogram {
        &self.hists[class.index()]
    }

    /// Merges another set of per-class histograms into this one
    /// (class-wise; see [`LatencyHistogram::merge`]).
    pub fn merge(&mut self, other: &ClassHistograms) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Resets every class to empty without releasing bucket storage.
    pub fn clear(&mut self) {
        for h in &mut self.hists {
            h.clear();
        }
    }

    /// One histogram of every class's samples. Merging is bit-exact
    /// ([`LatencyHistogram::merge`]), so this is the run-wide latency
    /// distribution.
    pub fn merged(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }

    /// Total samples across all classes.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(LatencyHistogram::count).sum()
    }

    /// Percentile summaries for every class, in [`FlowClass::ALL`]
    /// order (empty classes report all-zero statistics).
    pub fn summaries(&self) -> Vec<ClassLatency> {
        FlowClass::ALL
            .iter()
            .map(|&class| {
                let h = self.class(class);
                ClassLatency {
                    class,
                    count: h.count(),
                    mean: h.mean(),
                    p50: h.p50(),
                    p95: h.p95(),
                    p99: h.p99(),
                    p999: h.p999(),
                    max: h.max(),
                }
            })
            .collect()
    }
}

/// Latency percentile summary of one flow class over a run or window.
///
/// A class nobody sent traffic to has `count == 0` and all-zero
/// statistics (see [`LatencyHistogram::is_empty`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassLatency {
    /// The flow class summarized.
    pub class: FlowClass,
    /// Samples recorded under this class.
    pub count: u64,
    /// Mean latency in cycles (0 when empty).
    pub mean: f64,
    /// Median latency (bucket resolution).
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// 99.9th-percentile latency.
    pub p999: u64,
    /// Largest recorded latency.
    pub max: u64,
}

/// The latency statistic an SLO bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloMetric {
    /// Median latency.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// 99.9th percentile.
    P999,
    /// Mean latency.
    Mean,
    /// Maximum latency.
    Max,
}

impl SloMetric {
    /// Stable lowercase name as written in `--slo` specs.
    pub fn name(self) -> &'static str {
        match self {
            SloMetric::P50 => "p50",
            SloMetric::P95 => "p95",
            SloMetric::P99 => "p99",
            SloMetric::P999 => "p999",
            SloMetric::Mean => "mean",
            SloMetric::Max => "max",
        }
    }
}

impl FromStr for SloMetric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "p50" => Ok(SloMetric::P50),
            "p95" => Ok(SloMetric::P95),
            "p99" => Ok(SloMetric::P99),
            "p999" => Ok(SloMetric::P999),
            "mean" => Ok(SloMetric::Mean),
            "max" => Ok(SloMetric::Max),
            other => Err(format!("unknown SLO metric '{other}' (p50|p95|p99|p999|mean|max)")),
        }
    }
}

/// One parsed SLO clause: `class:metric<=limit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// The flow class the bound applies to, or `None` for the
    /// aggregate (`all`) latency distribution.
    pub class: Option<FlowClass>,
    /// The bounded statistic.
    pub metric: SloMetric,
    /// Inclusive upper bound, in cycles.
    pub limit: f64,
}

impl SloSpec {
    /// The measured value of this spec's statistic, or `None` when the
    /// targeted class recorded no samples (a vacuous pass: no traffic,
    /// no violation).
    pub fn observed(&self, results: &SimResults) -> Option<f64> {
        match self.class {
            None => {
                if results.measured_delivered == 0 {
                    return None;
                }
                Some(match self.metric {
                    SloMetric::P50 => results.latency_p50 as f64,
                    SloMetric::P95 => results.latency_p95 as f64,
                    SloMetric::P99 => results.latency_p99 as f64,
                    SloMetric::P999 => results.latency_p999 as f64,
                    SloMetric::Mean => results.avg_latency,
                    SloMetric::Max => results.max_latency as f64,
                })
            }
            Some(class) => {
                let c = results.classes.iter().find(|c| c.class == class)?;
                if c.count == 0 {
                    return None;
                }
                Some(match self.metric {
                    SloMetric::P50 => c.p50 as f64,
                    SloMetric::P95 => c.p95 as f64,
                    SloMetric::P99 => c.p99 as f64,
                    SloMetric::P999 => c.p999 as f64,
                    SloMetric::Mean => c.mean,
                    SloMetric::Max => c.max as f64,
                })
            }
        }
    }

    /// The class name as written in specs (`all` for the aggregate).
    pub fn class_name(&self) -> &'static str {
        self.class.map_or("all", FlowClass::name)
    }
}

impl fmt::Display for SloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}<={}", self.class_name(), self.metric.name(), self.limit)
    }
}

/// One SLO clause the run failed to meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloViolation {
    /// The violated clause.
    pub spec: SloSpec,
    /// The measured value that exceeded the limit.
    pub observed: f64,
}

impl fmt::Display for SloViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SLO violated: {}:{} = {} exceeds limit {}",
            self.spec.class_name(),
            self.spec.metric.name(),
            self.observed,
            self.spec.limit
        )
    }
}

/// Parses a comma-separated `--slo` argument such as
/// `near:p99<=40,all:p999<=200`. The class may be omitted
/// (`p99<=40` bounds the aggregate distribution, as does `all:`).
///
/// # Errors
///
/// Returns a description of the first malformed clause.
pub fn parse_slos(text: &str) -> Result<Vec<SloSpec>, String> {
    let mut specs = Vec::new();
    for clause in text.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (lhs, limit) = clause
            .split_once("<=")
            .ok_or_else(|| format!("SLO clause '{clause}' is missing '<=' (class:metric<=N)"))?;
        let limit: f64 = limit
            .trim()
            .parse()
            .map_err(|_| format!("SLO clause '{clause}' has a non-numeric limit"))?;
        if !limit.is_finite() || limit < 0.0 {
            return Err(format!("SLO clause '{clause}' needs a finite non-negative limit"));
        }
        let (class, metric) = match lhs.trim().split_once(':') {
            Some(("all", metric)) => (None, metric),
            Some((class, metric)) => (Some(class.parse::<FlowClass>()?), metric),
            None => (None, lhs.trim()),
        };
        specs.push(SloSpec { class, metric: metric.trim().parse()?, limit });
    }
    if specs.is_empty() {
        return Err("empty --slo specification".to_string());
    }
    Ok(specs)
}

/// Evaluates SLO clauses against run results, returning every
/// violation (empty ⇒ the run met its SLOs). Clauses targeting a
/// class with no samples pass vacuously.
pub fn check_slos(specs: &[SloSpec], results: &SimResults) -> Vec<SloViolation> {
    specs
        .iter()
        .filter_map(|spec| {
            let observed = spec.observed(results)?;
            (observed > spec.limit).then_some(SloViolation { spec: *spec, observed })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_by_manhattan_distance() {
        let o = Coord::new(0, 0);
        assert_eq!(FlowClass::of(o, o), FlowClass::Local);
        assert_eq!(FlowClass::of(o, Coord::new(1, 0)), FlowClass::Near);
        assert_eq!(FlowClass::of(o, Coord::new(1, 1)), FlowClass::Near);
        assert_eq!(FlowClass::of(o, Coord::new(2, 1)), FlowClass::Mid);
        assert_eq!(FlowClass::of(o, Coord::new(3, 3)), FlowClass::Mid);
        assert_eq!(FlowClass::of(o, Coord::new(4, 3)), FlowClass::Far);
        assert_eq!(FlowClass::of(Coord::new(7, 7), o), FlowClass::Far);
    }

    #[test]
    fn class_names_round_trip() {
        for class in FlowClass::ALL {
            assert_eq!(class.name().parse::<FlowClass>().unwrap(), class);
            assert_eq!(FlowClass::ALL[class.index()], class);
        }
        assert!("bogus".parse::<FlowClass>().is_err());
    }

    #[test]
    fn class_histograms_record_merge_and_summarize() {
        let mut a = ClassHistograms::new();
        a.record(FlowClass::Near, 10);
        a.record(FlowClass::Near, 20);
        a.record(FlowClass::Far, 100);
        let mut b = ClassHistograms::new();
        b.record(FlowClass::Near, 30);
        a.merge(&b);
        assert_eq!(a.total_count(), 4);
        let summaries = a.summaries();
        assert_eq!(summaries.len(), FlowClass::COUNT);
        let near = summaries[FlowClass::Near.index()];
        assert_eq!(near.count, 3);
        assert_eq!(near.p50, 20);
        assert_eq!(near.max, 30);
        let local = summaries[FlowClass::Local.index()];
        assert_eq!(local.count, 0);
        assert_eq!(local.p999, 0);
        a.clear();
        assert_eq!(a.total_count(), 0);
    }

    #[test]
    fn parses_slo_specs() {
        let specs = parse_slos("near:p99<=40, all:p999<=200.5,mean<=12").unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].class, Some(FlowClass::Near));
        assert_eq!(specs[0].metric, SloMetric::P99);
        assert_eq!(specs[0].limit, 40.0);
        assert_eq!(specs[1].class, None);
        assert_eq!(specs[1].metric, SloMetric::P999);
        assert_eq!(specs[2].class, None);
        assert_eq!(specs[2].metric, SloMetric::Mean);
        assert_eq!(specs[0].to_string(), "near:p99<=40");
    }

    #[test]
    fn rejects_malformed_slo_specs() {
        assert!(parse_slos("").is_err());
        assert!(parse_slos("p99=40").is_err(), "missing <=");
        assert!(parse_slos("bogus:p99<=40").is_err(), "unknown class");
        assert!(parse_slos("near:p98<=40").is_err(), "unknown metric");
        assert!(parse_slos("near:p99<=abc").is_err(), "bad limit");
        assert!(parse_slos("near:p99<=-1").is_err(), "negative limit");
    }
}
