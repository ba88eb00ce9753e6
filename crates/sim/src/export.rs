//! The unified metrics exporter registry.
//!
//! Every observability surface of the simulator — run statistics,
//! per-flow-class latency summaries, energy/PEF breakdowns, recovery
//! accounting, audit counters, interval windows and profiler gauges —
//! registers its values once as [`Metric`] samples, and the registry
//! renders them to either Prometheus text exposition
//! ([`Registry::render_prometheus`], the `--prom-out` flag) or the
//! workspace's hand-rolled JSONL ([`Registry::render_jsonl`]). A
//! campaign server (parked on the ROADMAP) would consume this scrape
//! surface unchanged: one registrar call per result, two render calls.
//!
//! Prometheus names are sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*` and
//! label values escaped per the text-exposition rules (`\\`, `\"`,
//! `\n`); the JSONL side reuses [`crate::json`]'s escaping. Both are
//! covered by golden-string tests.

use crate::json::{write_f64, write_key, write_str};
use crate::metrics::IntervalSample;
use crate::profile::ProfileReport;
use crate::stats::SimResults;
use std::fmt::Write as _;

/// Prometheus metric type of a registered sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulated count (events, packets, cycles).
    Counter,
    /// Point-in-time or derived value (latency, ratios, seconds).
    Gauge,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One registered metric sample: a name, kind, help text, ordered
/// label set and value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric family name (sanitized on render).
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// One-line help text (first registration of a family wins).
    pub help: String,
    /// Ordered `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// An ordered collection of metric samples with Prometheus and JSONL
/// renderers. Registration order is preserved; families with several
/// samples (different label sets) are grouped on render.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Vec<Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(MetricKind::Counter, name, help, labels, value);
    }

    /// Registers a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(MetricKind::Gauge, name, help, labels, value);
    }

    fn push(
        &mut self,
        kind: MetricKind,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            kind,
            help: help.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            value,
        });
    }

    /// The registered samples, in registration order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Number of registered samples.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// one `# HELP` / `# TYPE` header per metric family (first
    /// registration wins), samples grouped by family in first-
    /// registration order.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut done: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if done.iter().any(|n| *n == m.name) {
                continue;
            }
            done.push(&m.name);
            let name = sanitize_name(&m.name);
            let _ = writeln!(
                out,
                "# HELP {name} {}",
                m.help.replace('\\', "\\\\").replace('\n', "\\n")
            );
            let _ = writeln!(out, "# TYPE {name} {}", m.kind.as_str());
            for s in self.metrics.iter().filter(|s| s.name == m.name) {
                out.push_str(&name);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label(v));
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", s.value);
            }
        }
        out
    }

    /// Renders the registry as JSONL: one JSON object per sample, in
    /// registration order, using the workspace's hand-rolled writer
    /// (non-finite values become `null`).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let mut first = true;
            out.push('{');
            write_key(&mut out, &mut first, "metric");
            write_str(&mut out, &m.name);
            write_key(&mut out, &mut first, "kind");
            write_str(&mut out, m.kind.as_str());
            write_key(&mut out, &mut first, "labels");
            out.push('{');
            let mut lf = true;
            for (k, v) in &m.labels {
                write_key(&mut out, &mut lf, k);
                write_str(&mut out, v);
            }
            out.push('}');
            write_key(&mut out, &mut first, "value");
            write_f64(&mut out, m.value);
            out.push('}');
            out.push('\n');
        }
        out
    }
}

/// Maps an arbitrary string onto the Prometheus name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (offending characters become `_`; an
/// empty input becomes `_`).
pub fn sanitize_name(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    name.chars()
        .enumerate()
        .map(|(i, c)| match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => c,
            '0'..='9' if i > 0 => c,
            _ => '_',
        })
        .collect()
}

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Registers every run-level statistic of `results` under the given
/// base labels: core packet/latency stats, per-flow-class percentiles
/// (label `class`), the energy breakdown (label `component`), PEF
/// (only when defined — a run that delivered nothing has no PEF),
/// recovery accounting and audit counters when present.
pub fn export_results(reg: &mut Registry, results: &SimResults, labels: &[(&str, &str)]) {
    let c = |v: u64| v as f64;
    reg.counter("noc_cycles", "Cycles simulated.", labels, c(results.cycles));
    reg.counter(
        "noc_generated_packets",
        "Packets offered by the traffic model.",
        labels,
        c(results.generated_packets),
    );
    reg.counter(
        "noc_injected_packets",
        "Packets whose head entered the network.",
        labels,
        c(results.injected_packets),
    );
    reg.counter(
        "noc_measured_injected_packets",
        "Measured-window injections.",
        labels,
        c(results.measured_injected),
    );
    reg.counter(
        "noc_delivered_packets",
        "Packets fully delivered.",
        labels,
        c(results.delivered_packets),
    );
    reg.counter(
        "noc_measured_delivered_packets",
        "Measured-window deliveries.",
        labels,
        c(results.measured_delivered),
    );
    reg.counter(
        "noc_dropped_packets",
        "Packets discarded by fault handling.",
        labels,
        c(results.dropped_packets),
    );
    reg.gauge(
        "noc_latency_avg_cycles",
        "Mean measured end-to-end latency.",
        labels,
        results.avg_latency,
    );
    reg.gauge(
        "noc_latency_max_cycles",
        "Largest measured latency.",
        labels,
        c(results.max_latency),
    );
    for (q, v) in [
        ("p50", results.latency_p50),
        ("p95", results.latency_p95),
        ("p99", results.latency_p99),
        ("p999", results.latency_p999),
    ] {
        let mut with_q = labels.to_vec();
        with_q.push(("quantile", q));
        reg.gauge("noc_latency_cycles", "Measured latency quantiles.", &with_q, c(v));
    }
    for cl in &results.classes {
        let mut with_class = labels.to_vec();
        with_class.push(("class", cl.class.name()));
        reg.counter(
            "noc_class_delivered_packets",
            "Measured deliveries per flow class.",
            &with_class,
            c(cl.count),
        );
        reg.gauge(
            "noc_class_latency_mean_cycles",
            "Mean measured latency per flow class.",
            &with_class,
            cl.mean,
        );
        reg.gauge(
            "noc_class_latency_max_cycles",
            "Largest measured latency per flow class.",
            &with_class,
            c(cl.max),
        );
        for (q, v) in [("p50", cl.p50), ("p95", cl.p95), ("p99", cl.p99), ("p999", cl.p999)] {
            let mut with_q = with_class.clone();
            with_q.push(("quantile", q));
            reg.gauge(
                "noc_class_latency_cycles",
                "Measured latency quantiles per flow class.",
                &with_q,
                c(v),
            );
        }
    }
    reg.gauge("noc_throughput", "Delivered flits per node per cycle.", labels, results.throughput);
    reg.gauge(
        "noc_completion_probability",
        "Measured deliveries over measured injections.",
        labels,
        results.completion_probability(),
    );
    for (component, joules) in [
        ("buffers", results.energy.buffers),
        ("crossbar", results.energy.crossbar),
        ("arbitration", results.energy.arbitration),
        ("routing", results.energy.routing),
        ("links", results.energy.links),
        ("leakage", results.energy.leakage),
    ] {
        let mut with_c = labels.to_vec();
        with_c.push(("component", component));
        reg.counter("noc_energy_joules", "Energy by router component.", &with_c, joules);
    }
    reg.counter("noc_energy_total_joules", "Total network energy.", labels, results.energy.total());
    reg.gauge(
        "noc_energy_per_packet_joules",
        "Total energy over delivered packets.",
        labels,
        results.energy_per_packet,
    );
    let completion = results.completion_probability();
    if completion > 0.0 && completion <= 1.0 {
        reg.gauge(
            "noc_pef",
            "Performance-energy-fault product metric.",
            labels,
            results.pef_inputs().pef(),
        );
    }
    reg.gauge(
        "noc_stalled",
        "1 when the run ended on the stall detector.",
        labels,
        results.stalled as u64 as f64,
    );
    if let Some(rec) = results.recovery {
        reg.counter(
            "noc_retransmissions",
            "Source retransmissions issued.",
            labels,
            c(rec.retransmissions),
        );
        reg.counter(
            "noc_recovered_packets",
            "Packets delivered by a retry.",
            labels,
            c(rec.recovered_packets),
        );
        reg.counter(
            "noc_abandoned_packets",
            "Packets given up after the retry budget.",
            labels,
            c(rec.abandoned_packets),
        );
        reg.counter(
            "noc_duplicates_suppressed",
            "Late duplicates suppressed at sinks.",
            labels,
            c(rec.duplicates_suppressed),
        );
        reg.counter(
            "noc_unroutable_packets",
            "Packets failed fast toward an unreachable destination.",
            labels,
            c(rec.unroutable_packets),
        );
    }
    if let Some(audit) = &results.audit {
        reg.counter("noc_audit_checks", "Audit sweeps executed.", labels, c(audit.checks_run));
        reg.counter(
            "noc_audit_flits_observed",
            "Link transfers seen by per-flit checks.",
            labels,
            c(audit.flits_observed),
        );
        reg.counter(
            "noc_audit_violations",
            "Invariant violations detected.",
            labels,
            c(audit.total_violations),
        );
        for &(kind, count) in &audit.counts {
            let mut with_k = labels.to_vec();
            with_k.push(("kind", kind.label()));
            reg.counter(
                "noc_audit_violations_by_kind",
                "Invariant violations per kind.",
                &with_k,
                c(count),
            );
        }
    }
}

/// Registers one interval window's network-wide statistics and
/// per-class latency summaries. Base labels should identify the run;
/// a `window` label carrying the window index is added to every
/// sample.
pub fn export_interval(reg: &mut Registry, sample: &IntervalSample, labels: &[(&str, &str)]) {
    let window = sample.window.to_string();
    let mut with_w = labels.to_vec();
    with_w.push(("window", &window));
    let c = |v: u64| v as f64;
    reg.gauge(
        "noc_window_start_cycle",
        "First cycle of the window.",
        &with_w,
        c(sample.cycle_start),
    );
    reg.gauge(
        "noc_window_end_cycle",
        "One past the last cycle of the window.",
        &with_w,
        c(sample.cycle_end),
    );
    reg.gauge(
        "noc_window_generated_packets",
        "Packets generated in the window.",
        &with_w,
        c(sample.generated),
    );
    reg.gauge(
        "noc_window_injected_packets",
        "Packets injected in the window.",
        &with_w,
        c(sample.injected),
    );
    reg.gauge(
        "noc_window_delivered_packets",
        "Packets delivered in the window.",
        &with_w,
        c(sample.delivered),
    );
    reg.gauge(
        "noc_window_dropped_packets",
        "Flits dropped in the window.",
        &with_w,
        c(sample.dropped),
    );
    reg.gauge(
        "noc_window_latency_mean_cycles",
        "Mean window latency.",
        &with_w,
        sample.latency_mean,
    );
    reg.gauge(
        "noc_window_latency_max_cycles",
        "Largest window latency.",
        &with_w,
        c(sample.latency_max),
    );
    for (q, v) in [("p99", sample.latency_p99), ("p999", sample.latency_p999)] {
        let mut with_q = with_w.clone();
        with_q.push(("quantile", q));
        reg.gauge("noc_window_latency_cycles", "Window latency quantiles.", &with_q, c(v));
    }
    reg.gauge(
        "noc_window_throughput",
        "Delivered flits per node per cycle.",
        &with_w,
        sample.throughput(),
    );
    reg.gauge(
        "noc_window_flits_in_system",
        "Flits in flight at the sample instant.",
        &with_w,
        c(sample.flits_in_system),
    );
    reg.gauge(
        "noc_window_fault_events",
        "Fault/repair events in the window.",
        &with_w,
        c(sample.fault_events),
    );
    for cl in &sample.classes {
        let mut with_class = with_w.clone();
        with_class.push(("class", cl.class.name()));
        reg.gauge(
            "noc_window_class_delivered_packets",
            "Window deliveries per flow class.",
            &with_class,
            c(cl.count),
        );
        for (q, v) in [("p50", cl.p50), ("p99", cl.p99), ("p999", cl.p999)] {
            let mut with_q = with_class.clone();
            with_q.push(("quantile", q));
            reg.gauge(
                "noc_window_class_latency_cycles",
                "Window latency quantiles per flow class.",
                &with_q,
                c(v),
            );
        }
    }
}

/// Registers the self-profiler gauges of one run.
pub fn export_profile(reg: &mut Registry, profile: &ProfileReport, labels: &[(&str, &str)]) {
    reg.counter(
        "noc_profile_cycles",
        "Cycles the profiler observed.",
        labels,
        profile.cycles as f64,
    );
    reg.gauge("noc_profile_wall_seconds", "Wall time of the run.", labels, profile.wall_s);
    for (phase, seconds) in [
        ("faults", profile.faults_s),
        ("links", profile.links_s),
        ("credits", profile.credits_s),
        ("traffic", profile.traffic_s),
        ("routers", profile.routers_s),
        ("audit", profile.audit_s),
        ("metrics", profile.metrics_s),
    ] {
        let mut with_p = labels.to_vec();
        with_p.push(("phase", phase));
        reg.gauge("noc_profile_phase_seconds", "Wall time per step phase.", &with_p, seconds);
    }
    reg.gauge(
        "noc_profile_stepped_mean",
        "Mean routers stepped per cycle.",
        labels,
        profile.stepped_mean,
    );
    reg.gauge(
        "noc_profile_stepped_max",
        "Max routers stepped in one cycle.",
        labels,
        profile.stepped_max as f64,
    );
    reg.gauge(
        "noc_profile_wake_fraction",
        "Wake-set occupancy as a mesh fraction.",
        labels,
        profile.wake_fraction,
    );
    reg.gauge(
        "noc_profile_wake_word_occupancy",
        "Fraction of wake-bitset words holding an awake router.",
        labels,
        profile.wake_word_occupancy,
    );
    reg.gauge(
        "noc_profile_capacity_growth_events",
        "Steady-state in-flight buffer capacity growths.",
        labels,
        profile.capacity_growth_events as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn prometheus_exposition_golden() {
        let mut reg = Registry::new();
        reg.counter(
            "noc_delivered_packets",
            "Packets fully delivered.",
            &[("router", "roco")],
            1234.0,
        );
        reg.counter(
            "noc_delivered_packets",
            "Packets fully delivered.",
            &[("router", "generic")],
            90.0,
        );
        reg.gauge("noc_latency_avg_cycles", "Mean latency.", &[], 18.25);
        let text = reg.render_prometheus();
        let expected = "# HELP noc_delivered_packets Packets fully delivered.\n\
                        # TYPE noc_delivered_packets counter\n\
                        noc_delivered_packets{router=\"roco\"} 1234\n\
                        noc_delivered_packets{router=\"generic\"} 90\n\
                        # HELP noc_latency_avg_cycles Mean latency.\n\
                        # TYPE noc_latency_avg_cycles gauge\n\
                        noc_latency_avg_cycles 18.25\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_escapes_names_and_label_values() {
        let mut reg = Registry::new();
        reg.gauge("9bad name-with.dots", "h", &[("mesh size", "8x8 \"wide\"\nquoted\\path")], 1.0);
        let text = reg.render_prometheus();
        let expected = "# HELP _bad_name_with_dots h\n\
                        # TYPE _bad_name_with_dots gauge\n\
                        _bad_name_with_dots{mesh_size=\"8x8 \\\"wide\\\"\\nquoted\\\\path\"} 1\n";
        assert_eq!(text, expected);
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("a:b_c9"), "a:b_c9");
    }

    #[test]
    fn jsonl_escapes_and_parses() {
        let mut reg = Registry::new();
        reg.gauge("noc_x", "h", &[("note", "tab\there \"quoted\"")], f64::NAN);
        reg.counter("noc_y", "h", &[], 7.0);
        let text = reg.render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"metric\":\"noc_x\",\"kind\":\"gauge\",\"labels\":\
             {\"note\":\"tab\\there \\\"quoted\\\"\"},\"value\":null}"
        );
        for line in &lines {
            Json::parse(line).expect("each JSONL line parses");
        }
        let v = Json::parse(lines[1]).unwrap();
        assert_eq!(v.get("value").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("counter"));
    }

    #[test]
    fn exposition_groups_families_once() {
        let mut reg = Registry::new();
        for q in ["p50", "p99"] {
            reg.gauge("noc_latency_cycles", "Quantiles.", &[("quantile", q)], 10.0);
        }
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE noc_latency_cycles gauge").count(), 1);
        assert_eq!(text.matches("noc_latency_cycles{").count(), 2);
    }
}
