//! Interval time-series metrics: the `MetricsSink` abstraction and its
//! JSONL exporter.
//!
//! Every `sample_window` cycles the simulation snapshots one
//! [`IntervalSample`]: network-wide deltas (injected/delivered packets,
//! window latency statistics) plus one [`RouterWindow`] per router with
//! buffer occupancy, credit stalls, VA failures, and per-stage
//! RC/VA/SA/ST/LT activity deltas. Samples stream into a
//! [`MetricsSink`], mirroring how packet events stream into
//! [`crate::TraceSink`].

use crate::flow::ClassLatency;
use crate::json::{write_f64, write_key, write_str};
use noc_core::{Coord, Cycle};
use std::cell::{Ref, RefCell};
use std::fmt::Write as _;
use std::io::Write;
use std::rc::Rc;

/// Per-router portion of one sample window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterWindow {
    /// Mesh position.
    pub node: Coord,
    /// Flits buffered in this router at the sample instant.
    pub occupancy: u64,
    /// Lifetime buffer-occupancy high-water mark (cumulative, not a
    /// delta: a high-water mark has no meaningful per-window form).
    pub occupancy_high_water: u64,
    /// Packets injected at this node during the window.
    pub injected: u64,
    /// Packets delivered to this node during the window.
    pub delivered: u64,
    /// Credit-starved cycles during the window.
    pub credit_stall_cycles: u64,
    /// Failed VA requests during the window.
    pub va_failures: u64,
    /// Lifetime fault-blocked packets (cumulative).
    pub blocked_packets: u64,
    /// Route computations during the window (RC stage).
    pub rc: u64,
    /// VA arbitration operations (local + global) during the window.
    pub va: u64,
    /// SA arbitration operations (local + global) during the window.
    pub sa: u64,
    /// Crossbar traversals during the window (ST stage).
    pub st: u64,
    /// Link traversals during the window (LT stage).
    pub lt: u64,
}

/// One interval of network-wide and per-router time-series data.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Zero-based window index.
    pub window: u64,
    /// First cycle covered by the window.
    pub cycle_start: Cycle,
    /// One past the last cycle covered.
    pub cycle_end: Cycle,
    /// Packets generated during the window.
    pub generated: u64,
    /// Packets injected during the window.
    pub injected: u64,
    /// Packets delivered during the window.
    pub delivered: u64,
    /// Flits dropped during the window.
    pub dropped: u64,
    /// Mean latency of packets delivered in the window (0 when none).
    pub latency_mean: f64,
    /// P99 latency of packets delivered in the window (0 when none).
    pub latency_p99: u64,
    /// P99.9 latency of packets delivered in the window (0 when none).
    pub latency_p999: u64,
    /// Maximum latency of packets delivered in the window (0 when none).
    pub latency_max: u64,
    /// Flits in flight (buffered or on links) at the sample instant.
    pub flits_in_system: u64,
    /// Mid-run fault/repair events applied during the window.
    pub fault_events: u64,
    /// Per-flow-class latency summaries of the window, in
    /// [`crate::FlowClass::ALL`] order (empty classes all-zero).
    pub classes: Vec<ClassLatency>,
    /// Per-router breakdown, in node-index order.
    pub routers: Vec<RouterWindow>,
}

impl IntervalSample {
    /// Delivered packets per node per cycle over the window — the
    /// throughput axis of the paper's load-latency curves.
    pub fn throughput(&self) -> f64 {
        let cycles = self.cycle_end.saturating_sub(self.cycle_start);
        if cycles == 0 || self.routers.is_empty() {
            return 0.0;
        }
        self.delivered as f64 / cycles as f64 / self.routers.len() as f64
    }

    /// Serializes the sample as one JSON object (a single JSONL line,
    /// without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.routers.len());
        out.push('{');
        let mut first = true;
        for (key, value) in [
            ("window", self.window),
            ("cycle_start", self.cycle_start),
            ("cycle_end", self.cycle_end),
            ("generated", self.generated),
            ("injected", self.injected),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
        ] {
            write_key(&mut out, &mut first, key);
            let _ = write!(out, "{value}");
        }
        write_key(&mut out, &mut first, "latency_mean");
        write_f64(&mut out, self.latency_mean);
        for (key, value) in [
            ("latency_p99", self.latency_p99),
            ("latency_p999", self.latency_p999),
            ("latency_max", self.latency_max),
            ("flits_in_system", self.flits_in_system),
            ("fault_events", self.fault_events),
        ] {
            write_key(&mut out, &mut first, key);
            let _ = write!(out, "{value}");
        }
        write_key(&mut out, &mut first, "throughput");
        write_f64(&mut out, self.throughput());
        write_key(&mut out, &mut first, "classes");
        out.push('[');
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let mut cf = true;
            write_key(&mut out, &mut cf, "class");
            write_str(&mut out, c.class.name());
            write_key(&mut out, &mut cf, "count");
            let _ = write!(out, "{}", c.count);
            write_key(&mut out, &mut cf, "mean");
            write_f64(&mut out, c.mean);
            for (key, value) in
                [("p50", c.p50), ("p95", c.p95), ("p99", c.p99), ("p999", c.p999), ("max", c.max)]
            {
                write_key(&mut out, &mut cf, key);
                let _ = write!(out, "{value}");
            }
            out.push('}');
        }
        out.push(']');
        write_key(&mut out, &mut first, "routers");
        out.push('[');
        for (i, r) in self.routers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let mut rf = true;
            write_key(&mut out, &mut rf, "node");
            let _ = write!(out, "[{},{}]", r.node.x, r.node.y);
            for (key, value) in [
                ("occupancy", r.occupancy),
                ("occupancy_high_water", r.occupancy_high_water),
                ("injected", r.injected),
                ("delivered", r.delivered),
                ("credit_stall_cycles", r.credit_stall_cycles),
                ("va_failures", r.va_failures),
                ("blocked_packets", r.blocked_packets),
                ("rc", r.rc),
                ("va", r.va),
                ("sa", r.sa),
                ("st", r.st),
                ("lt", r.lt),
            ] {
                write_key(&mut out, &mut rf, key);
                let _ = write!(out, "{value}");
            }
            out.push('}');
        }
        out.push(']');
        out.push('}');
        out
    }
}

/// A consumer of interval samples, attached to a simulation via
/// [`crate::Simulation::set_metrics_sink`].
pub trait MetricsSink: std::fmt::Debug {
    /// Receives one completed sample window.
    fn record_sample(&mut self, sample: &IntervalSample);

    /// Called once after the final (possibly partial) window, before
    /// the simulation releases the sink. Writers flush here.
    fn finish(&mut self) {}
}

/// A sink that buffers samples in memory (tests, the `timeline` command,
/// campaigns). Clones share one buffer: keep a handle, box a clone into
/// the simulation, and read the samples back through the handle.
#[derive(Debug, Default, Clone)]
pub struct VecMetricsSink {
    samples: Rc<RefCell<Vec<IntervalSample>>>,
}

impl VecMetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The samples received so far, in window order.
    pub fn samples(&self) -> Ref<'_, [IntervalSample]> {
        Ref::map(self.samples.borrow(), Vec::as_slice)
    }
}

impl MetricsSink for VecMetricsSink {
    fn record_sample(&mut self, sample: &IntervalSample) {
        self.samples.borrow_mut().push(sample.clone());
    }
}

/// A sink writing one JSON object per line (JSONL).
#[derive(Debug)]
pub struct JsonlMetricsSink<W: Write + std::fmt::Debug> {
    writer: W,
}

impl<W: Write + std::fmt::Debug> JsonlMetricsSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlMetricsSink { writer }
    }

    /// Unwraps the writer (tests read back the bytes).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write + std::fmt::Debug> MetricsSink for JsonlMetricsSink<W> {
    fn record_sample(&mut self, sample: &IntervalSample) {
        let _ = writeln!(self.writer, "{}", sample.to_json());
    }

    fn finish(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowClass;
    use crate::json::Json;

    fn sample() -> IntervalSample {
        IntervalSample {
            window: 2,
            cycle_start: 200,
            cycle_end: 300,
            generated: 40,
            injected: 38,
            delivered: 35,
            dropped: 1,
            latency_mean: 18.25,
            latency_p99: 44,
            latency_p999: 49,
            latency_max: 51,
            flits_in_system: 12,
            fault_events: 0,
            classes: vec![ClassLatency {
                class: FlowClass::Near,
                count: 20,
                mean: 12.5,
                p50: 11,
                p95: 30,
                p99: 40,
                p999: 44,
                max: 51,
            }],
            routers: vec![RouterWindow {
                node: Coord::new(3, 4),
                occupancy: 5,
                occupancy_high_water: 9,
                injected: 2,
                delivered: 1,
                credit_stall_cycles: 7,
                va_failures: 3,
                blocked_packets: 0,
                rc: 11,
                va: 12,
                sa: 13,
                st: 14,
                lt: 15,
            }],
        }
    }

    #[test]
    fn sample_serializes_to_parseable_json() {
        let s = sample();
        let v = Json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(v.get("window").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("delivered").unwrap().as_u64(), Some(35));
        assert_eq!(v.get("latency_mean").unwrap().as_f64(), Some(18.25));
        assert_eq!(v.get("latency_p999").unwrap().as_u64(), Some(49));
        let classes = v.get("classes").unwrap().as_arr().unwrap();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].get("class").unwrap().as_str(), Some("near"));
        assert_eq!(classes[0].get("p999").unwrap().as_u64(), Some(44));
        let routers = v.get("routers").unwrap().as_arr().unwrap();
        assert_eq!(routers.len(), 1);
        let r = &routers[0];
        assert_eq!(r.get("node").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(r.get("credit_stall_cycles").unwrap().as_u64(), Some(7));
        assert_eq!(r.get("st").unwrap().as_u64(), Some(14));
    }

    #[test]
    fn throughput_is_per_node_per_cycle() {
        let s = sample();
        assert!((s.throughput() - 35.0 / 100.0).abs() < 1e-12);
        let empty = IntervalSample { routers: Vec::new(), ..sample() };
        assert_eq!(empty.throughput(), 0.0);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_sample() {
        let mut sink = JsonlMetricsSink::new(Vec::new());
        sink.record_sample(&sample());
        sink.record_sample(&sample());
        sink.finish();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Json::parse(line).expect("each line is a standalone document");
        }
    }
}
