//! Graceful-degradation campaign: §4 evaluated *dynamically*.
//!
//! The paper's fault experiments inject a fixed fault pattern before
//! cycle 0. This harness instead sweeps a Monte Carlo grid of
//! fault-arrival rates (mean time between faults) × router
//! architectures, with faults landing mid-run from a seeded
//! [`FaultSchedule`] and optionally healing after a fixed repair time.
//! Each cell runs against a fault-free baseline of the same seed and
//! reports per-window time-series — availability (delivered/generated),
//! throughput retention vs the baseline, and a PEF-over-time proxy —
//! plus end-to-end recovery totals. Everything is deterministic per
//! seed: reruns byte-match, which the CI smoke job asserts.

use noc_core::{MeshConfig, RouterKind, RoutingKind, TopologyConfig};
use noc_fault::{FaultCategory, FaultSchedule};
use noc_sim::json::{write_f64, write_key, write_str};
use noc_sim::{
    ClassLatency, IntervalSample, RecoveryConfig, Registry, SimConfig, Simulation, VecMetricsSink,
};
use noc_traffic::TrafficKind;
use std::fmt::Write as _;

/// One campaign's sweep grid and per-run sizing.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Mesh dimensions (the topology's bounding grid when `topology`
    /// is not [`TopologyConfig::Mesh`]; snapped by the retarget).
    pub mesh: MeshConfig,
    /// Network topology (ISSUE 9). Every cell's config is retargeted
    /// through [`noc_sim::retarget_topology`], which snaps the grid
    /// and, on wraparound topologies, forces the supported
    /// router/routing/VC combination for every router column.
    pub topology: TopologyConfig,
    /// Architectures to compare.
    pub routers: Vec<RouterKind>,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Workload family.
    pub traffic: TrafficKind,
    /// Offered load in flits/node/cycle.
    pub injection_rate: f64,
    /// Mean-time-between-faults sweep, in cycles (one campaign column
    /// per value; smaller = harsher).
    pub mtbfs: Vec<f64>,
    /// Component population faults are drawn from.
    pub category: FaultCategory,
    /// `Some(d)`: every fault is transient and heals `d` cycles after
    /// onset. `None`: every fault is permanent.
    pub repair_after: Option<u64>,
    /// Monte Carlo replications per (router, mtbf) cell.
    pub seeds: u64,
    /// Base RNG seed; replication `k` runs with `base_seed + k`.
    pub base_seed: u64,
    /// Unmeasured warm-up packets per run.
    pub warmup_packets: u64,
    /// Measured packets per run.
    pub measured_packets: u64,
    /// Interval-sampler window in cycles.
    pub sample_window: u64,
    /// End-to-end retransmission layer (`None` disables it).
    pub recovery: Option<RecoveryConfig>,
    /// Fault-aware routing comparison (ISSUE 8): when `true`, every
    /// (router × mtbf × seed) cell is run twice against the *same*
    /// fault schedule — once fault-oblivious, once with
    /// [`SimConfig::fault_routing`] — so the report carries paired
    /// delivered-coverage-retention numbers.
    pub fault_routing: bool,
}

impl CampaignConfig {
    /// A small deterministic campaign that finishes in seconds: 4×4
    /// mesh, all three routers, one harsh mtbf column, transient
    /// faults, recovery on. The CI smoke job runs exactly this.
    pub fn smoke() -> Self {
        CampaignConfig {
            mesh: MeshConfig::new(4, 4),
            topology: TopologyConfig::Mesh,
            routers: RouterKind::ALL.to_vec(),
            routing: RoutingKind::Xy,
            traffic: TrafficKind::Uniform,
            injection_rate: 0.15,
            mtbfs: vec![600.0],
            category: FaultCategory::Recyclable,
            repair_after: Some(400),
            seeds: 1,
            base_seed: 0xCA_4A,
            warmup_packets: 100,
            measured_packets: 2_000,
            sample_window: 250,
            recovery: Some(RecoveryConfig::default()),
            fault_routing: false,
        }
    }

    /// The fault-aware routing smoke (ISSUE 8, CI `fault-routing`
    /// job): adaptive routing, permanent isolating faults and a tight
    /// retry budget, with the paired fault-aware leg enabled — the
    /// configuration where reachability-aware recovery and the masked
    /// escape path visibly buy delivered coverage over the oblivious
    /// baseline.
    pub fn fault_aware_smoke() -> Self {
        CampaignConfig {
            mesh: MeshConfig::new(4, 4),
            topology: TopologyConfig::Mesh,
            routers: vec![RouterKind::RoCo],
            routing: RoutingKind::Adaptive,
            traffic: TrafficKind::Uniform,
            injection_rate: 0.15,
            mtbfs: vec![150.0],
            category: FaultCategory::Isolating,
            repair_after: None,
            seeds: 2,
            base_seed: 0xFA_8A,
            warmup_packets: 100,
            measured_packets: 2_000,
            sample_window: 250,
            recovery: Some(RecoveryConfig { timeout: 150, max_retries: 2, backoff_cap: 1_200 }),
            fault_routing: true,
        }
    }
}

/// One (router × mtbf × seed) campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Architecture under test.
    pub router: RouterKind,
    /// Mean time between faults for this cell, in cycles.
    pub mtbf: f64,
    /// Replication seed.
    pub seed: u64,
    /// Whether this cell ran with fault-aware routing (ISSUE 8). Cells
    /// come in (oblivious, aware) pairs when the campaign's
    /// `fault_routing` switch is on, sharing the same fault schedule.
    pub fault_aware: bool,
    /// Fault + repair events the schedule actually fired.
    pub fault_events: u64,
    /// Cycles the faulted run took.
    pub cycles: u64,
    /// Packets generated / delivered / dropped (drop events count per
    /// attempt) in the faulted run.
    pub generated: u64,
    /// Delivered packets (first copies only).
    pub delivered: u64,
    /// Drop events (a retried packet may count several times).
    pub dropped: u64,
    /// Retransmissions the recovery layer issued (0 without recovery).
    pub retransmissions: u64,
    /// Packets whose retry eventually arrived.
    pub recovered: u64,
    /// Packets abandoned after the retry budget.
    pub abandoned: u64,
    /// Packets refused or short-circuited because their destination
    /// was unreachable over the usable-link graph (always 0 for
    /// fault-oblivious cells).
    pub unroutable: u64,
    /// Measured completion probability of the faulted run.
    pub completion: f64,
    /// Whole-run delivered coverage as a fraction of the same-seed
    /// fault-free baseline's delivered count — the headline
    /// graceful-degradation number the fault-aware leg must retain
    /// more of.
    pub coverage_retention: f64,
    /// Whole-run PEF of the faulted run, in J·cycles.
    pub pef: f64,
    /// Per-window availability: delivered/generated (1.0 when the
    /// window generated nothing).
    pub availability: Vec<f64>,
    /// Per-window delivered throughput as a fraction of the fault-free
    /// baseline's steady-state mean.
    pub retention: Vec<f64>,
    /// Per-window PEF proxy: window mean latency × run energy/packet ÷
    /// window availability (rises while faults bite, falls back after
    /// repairs).
    pub pef_over_time: Vec<f64>,
    /// Per-flow-class latency summaries of the faulted run, in
    /// [`noc_sim::FlowClass::ALL`] order — under faults, `far` traffic
    /// degrades first while `near` still looks healthy. Deterministic
    /// per seed, so it is part of the byte-stable report JSON.
    pub classes: Vec<ClassLatency>,
}

/// A full campaign: the grid plus every cell's series.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Mesh dimensions.
    pub mesh: MeshConfig,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Offered load.
    pub injection_rate: f64,
    /// Sampler window in cycles.
    pub sample_window: u64,
    /// Transient heal time (`None` = permanent faults).
    pub repair_after: Option<u64>,
    /// Whether the retransmission layer was active.
    pub recovery: bool,
    /// Every (router × mtbf × seed) cell, in grid order.
    pub cells: Vec<CampaignCell>,
}

/// Runs `cfg` to completion with an interval sampler attached.
fn run_sampled(cfg: SimConfig) -> (noc_sim::SimResults, Vec<IntervalSample>) {
    let sink = VecMetricsSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_metrics_sink(Box::new(sink.clone()));
    while !sim.finished() {
        sim.step();
    }
    sim.finish_observability();
    let samples = sink.samples().to_vec();
    (sim.results(), samples)
}

fn base_config(c: &CampaignConfig, router: RouterKind, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_scaled(router, c.routing, c.traffic);
    cfg.mesh = c.mesh;
    noc_sim::retarget_topology(&mut cfg, c.topology);
    cfg.injection_rate = c.injection_rate;
    cfg.warmup_packets = c.warmup_packets;
    cfg.measured_packets = c.measured_packets;
    cfg.sample_window = c.sample_window;
    cfg.seed = seed;
    cfg.stall_window = 5_000;
    cfg
}

/// Mean delivered packets per complete window, skipping the cold-start
/// window (index 0) and any trailing partial window.
fn steady_mean_delivered(samples: &[IntervalSample], window: u64) -> f64 {
    let picked: Vec<u64> = samples
        .iter()
        .skip(1)
        .filter(|s| s.cycle_end - s.cycle_start == window)
        .map(|s| s.delivered)
        .collect();
    if picked.is_empty() {
        return 0.0;
    }
    picked.iter().sum::<u64>() as f64 / picked.len() as f64
}

/// Runs the whole campaign grid. The independent (router, seed) units
/// fan out across worker threads through `parallel_map`, the same pool
/// and `NOC_THREADS` knob that pace `run_batch`. Each unit
/// runs entirely on one worker (its metrics plumbing is thread-local)
/// and the units come back in grid order (router, then seed, then
/// mtbf), so the report is byte-identical at any thread count.
pub fn run_campaign(c: &CampaignConfig) -> CampaignReport {
    let units: Vec<(RouterKind, u64)> = c
        .routers
        .iter()
        .flat_map(|&router| (0..c.seeds).map(move |k| (router, c.base_seed.wrapping_add(k))))
        .collect();
    let cells = crate::parallel_map(&units, |&(router, seed)| run_unit(c, router, seed))
        .into_iter()
        .flatten()
        .collect();
    CampaignReport {
        mesh: c.mesh,
        routing: c.routing,
        injection_rate: c.injection_rate,
        sample_window: c.sample_window,
        repair_after: c.repair_after,
        recovery: c.recovery.is_some(),
        cells,
    }
}

/// One campaign unit: the fault-free baseline for `(router, seed)`
/// plus every mtbf cell drawn against it, in mtbf order. When the
/// campaign's `fault_routing` switch is on, every mtbf yields an
/// (oblivious, fault-aware) cell pair sharing one schedule.
fn run_unit(c: &CampaignConfig, router: RouterKind, seed: u64) -> Vec<CampaignCell> {
    let mut cells = Vec::new();
    // Fault-free baseline: provides the retention denominators
    // and the horizon faults are drawn over.
    let (baseline, base_samples) = run_sampled(base_config(c, router, seed));
    let base_mean = steady_mean_delivered(&base_samples, c.sample_window);
    let base_delivered = baseline.delivered_packets;
    for &mtbf in &c.mtbfs {
        let vcs = base_config(c, router, seed).router_config().vcs_per_port;
        let schedule = FaultSchedule::random_mtbf(
            c.category,
            c.mesh,
            mtbf,
            c.repair_after,
            baseline.cycles,
            vcs,
            seed ^ mtbf.to_bits(),
        );
        for fault_aware in [false, true] {
            if fault_aware && !c.fault_routing {
                continue;
            }
            let mut cfg = base_config(c, router, seed).with_schedule(schedule.clone());
            if let Some(rc) = c.recovery {
                cfg = cfg.with_recovery(rc);
            }
            if fault_aware {
                cfg = cfg.with_fault_routing();
            }
            let (results, samples) = run_sampled(cfg);
            let epp = results.energy_per_packet;
            let availability: Vec<f64> = samples
                .iter()
                .map(|s| {
                    if s.generated == 0 {
                        1.0
                    } else {
                        (s.delivered as f64 / s.generated as f64).min(1.0)
                    }
                })
                .collect();
            let retention: Vec<f64> = samples
                .iter()
                .map(|s| if base_mean > 0.0 { s.delivered as f64 / base_mean } else { 0.0 })
                .collect();
            let pef_over_time: Vec<f64> = samples
                .iter()
                .zip(&availability)
                .map(|(s, a)| s.latency_mean * epp / a.max(1e-3))
                .collect();
            let rec = results.recovery.unwrap_or_default();
            let coverage_retention = if base_delivered > 0 {
                results.delivered_packets as f64 / base_delivered as f64
            } else {
                0.0
            };
            cells.push(CampaignCell {
                router,
                mtbf,
                seed,
                fault_aware,
                fault_events: samples.iter().map(|s| s.fault_events).sum(),
                cycles: results.cycles,
                generated: results.generated_packets,
                delivered: results.delivered_packets,
                dropped: results.dropped_packets,
                retransmissions: rec.retransmissions,
                recovered: rec.recovered_packets,
                abandoned: rec.abandoned_packets,
                unroutable: rec.unroutable_packets,
                completion: results.completion_probability(),
                coverage_retention,
                pef: results.pef_inputs().pef(),
                availability,
                retention,
                pef_over_time,
                classes: results.classes.clone(),
            });
        }
    }
    cells
}

fn write_f64_arr(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, *v);
    }
    out.push(']');
}

impl CampaignReport {
    /// Serializes the whole report as one JSON document. Byte-stable
    /// for a given config: the CI smoke job diffs two same-seed runs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + 512 * self.cells.len());
        out.push('{');
        let mut first = true;
        write_key(&mut out, &mut first, "mesh");
        let _ = write!(out, "[{},{}]", self.mesh.width, self.mesh.height);
        write_key(&mut out, &mut first, "routing");
        write_str(&mut out, &self.routing.to_string());
        write_key(&mut out, &mut first, "injection_rate");
        write_f64(&mut out, self.injection_rate);
        write_key(&mut out, &mut first, "sample_window");
        let _ = write!(out, "{}", self.sample_window);
        write_key(&mut out, &mut first, "repair_after");
        match self.repair_after {
            Some(d) => {
                let _ = write!(out, "{d}");
            }
            None => out.push_str("null"),
        }
        write_key(&mut out, &mut first, "recovery");
        let _ = write!(out, "{}", self.recovery);
        write_key(&mut out, &mut first, "cells");
        out.push('[');
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let mut cf = true;
            write_key(&mut out, &mut cf, "router");
            write_str(&mut out, &cell.router.to_string());
            write_key(&mut out, &mut cf, "mtbf");
            write_f64(&mut out, cell.mtbf);
            write_key(&mut out, &mut cf, "fault_aware");
            let _ = write!(out, "{}", cell.fault_aware);
            for (key, value) in [
                ("seed", cell.seed),
                ("fault_events", cell.fault_events),
                ("cycles", cell.cycles),
                ("generated", cell.generated),
                ("delivered", cell.delivered),
                ("dropped", cell.dropped),
                ("retransmissions", cell.retransmissions),
                ("recovered", cell.recovered),
                ("abandoned", cell.abandoned),
                ("unroutable", cell.unroutable),
            ] {
                write_key(&mut out, &mut cf, key);
                let _ = write!(out, "{value}");
            }
            write_key(&mut out, &mut cf, "completion");
            write_f64(&mut out, cell.completion);
            write_key(&mut out, &mut cf, "coverage_retention");
            write_f64(&mut out, cell.coverage_retention);
            write_key(&mut out, &mut cf, "pef");
            write_f64(&mut out, cell.pef);
            write_key(&mut out, &mut cf, "availability");
            write_f64_arr(&mut out, &cell.availability);
            write_key(&mut out, &mut cf, "retention");
            write_f64_arr(&mut out, &cell.retention);
            write_key(&mut out, &mut cf, "pef_over_time");
            write_f64_arr(&mut out, &cell.pef_over_time);
            write_key(&mut out, &mut cf, "classes");
            out.push('[');
            for (j, c) in cell.classes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('{');
                let mut lf = true;
                write_key(&mut out, &mut lf, "class");
                write_str(&mut out, c.class.name());
                write_key(&mut out, &mut lf, "count");
                let _ = write!(out, "{}", c.count);
                write_key(&mut out, &mut lf, "mean");
                write_f64(&mut out, c.mean);
                for (key, value) in [
                    ("p50", c.p50),
                    ("p95", c.p95),
                    ("p99", c.p99),
                    ("p999", c.p999),
                    ("max", c.max),
                ] {
                    write_key(&mut out, &mut lf, key);
                    let _ = write!(out, "{value}");
                }
                out.push('}');
            }
            out.push(']');
            out.push('}');
        }
        out.push(']');
        out.push('}');
        out
    }
}

/// Registers every campaign cell's headline statistics into a metrics
/// [`Registry`] under `mesh`/`routing`/`router`/`mtbf`/`seed` labels —
/// the scrape surface a campaign server (parked on the ROADMAP) would
/// serve, rendered by the CLI's `campaign --prom-out`.
pub fn export_campaign(reg: &mut Registry, report: &CampaignReport) {
    let mesh = format!("{}x{}", report.mesh.width, report.mesh.height);
    let routing = report.routing.to_string();
    let min_of = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    for cell in &report.cells {
        let router = cell.router.to_string();
        let mtbf = cell.mtbf.to_string();
        let seed = cell.seed.to_string();
        let fault_aware = if cell.fault_aware { "true" } else { "false" };
        let labels: [(&str, &str); 6] = [
            ("mesh", &mesh),
            ("routing", &routing),
            ("router", &router),
            ("mtbf", &mtbf),
            ("seed", &seed),
            ("fault_aware", fault_aware),
        ];
        let c = |v: u64| v as f64;
        reg.counter(
            "noc_campaign_fault_events",
            "Fault/repair events the schedule fired.",
            &labels,
            c(cell.fault_events),
        );
        reg.counter("noc_campaign_cycles", "Cycles the faulted run took.", &labels, c(cell.cycles));
        reg.counter(
            "noc_campaign_generated_packets",
            "Packets generated in the faulted run.",
            &labels,
            c(cell.generated),
        );
        reg.counter(
            "noc_campaign_delivered_packets",
            "Packets delivered in the faulted run.",
            &labels,
            c(cell.delivered),
        );
        reg.counter(
            "noc_campaign_dropped_packets",
            "Drop events in the faulted run.",
            &labels,
            c(cell.dropped),
        );
        reg.counter(
            "noc_campaign_retransmissions",
            "Source retransmissions issued.",
            &labels,
            c(cell.retransmissions),
        );
        reg.counter(
            "noc_campaign_recovered_packets",
            "Packets delivered by a retry.",
            &labels,
            c(cell.recovered),
        );
        reg.counter(
            "noc_campaign_abandoned_packets",
            "Packets given up after the retry budget.",
            &labels,
            c(cell.abandoned),
        );
        reg.counter(
            "noc_campaign_unroutable_packets",
            "Packets refused or short-circuited toward unreachable destinations.",
            &labels,
            c(cell.unroutable),
        );
        reg.gauge(
            "noc_campaign_completion_probability",
            "Measured completion of the faulted run.",
            &labels,
            cell.completion,
        );
        reg.gauge(
            "noc_campaign_coverage_retention",
            "Whole-run delivered coverage vs the fault-free baseline.",
            &labels,
            cell.coverage_retention,
        );
        reg.gauge("noc_campaign_pef", "Whole-run PEF of the faulted run.", &labels, cell.pef);
        if !cell.availability.is_empty() {
            reg.gauge(
                "noc_campaign_availability_min",
                "Worst per-window availability.",
                &labels,
                min_of(&cell.availability),
            );
        }
        if !cell.retention.is_empty() {
            reg.gauge(
                "noc_campaign_retention_min",
                "Worst per-window throughput retention.",
                &labels,
                min_of(&cell.retention),
            );
        }
        for cl in &cell.classes {
            let mut with_class = labels.to_vec();
            with_class.push(("class", cl.class.name()));
            reg.counter(
                "noc_campaign_class_delivered_packets",
                "Measured deliveries per flow class.",
                &with_class,
                c(cl.count),
            );
            for (q, v) in [("p50", cl.p50), ("p99", cl.p99), ("p999", cl.p999)] {
                let mut with_q = with_class.clone();
                with_q.push(("quantile", q));
                reg.gauge(
                    "noc_campaign_class_latency_cycles",
                    "Faulted-run latency quantiles per flow class.",
                    &with_q,
                    c(v),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_is_small() {
        let c = CampaignConfig::smoke();
        assert_eq!(c.mesh.nodes(), 16);
        assert_eq!(c.routers.len(), 3);
        assert!(c.recovery.is_some());
    }

    #[test]
    fn report_json_round_trips() {
        let report = CampaignReport {
            mesh: MeshConfig::new(4, 4),
            routing: RoutingKind::Xy,
            injection_rate: 0.15,
            sample_window: 250,
            repair_after: Some(400),
            recovery: true,
            cells: vec![CampaignCell {
                router: RouterKind::RoCo,
                mtbf: 600.0,
                seed: 7,
                fault_aware: true,
                fault_events: 4,
                cycles: 3_000,
                generated: 2_100,
                delivered: 2_050,
                dropped: 60,
                retransmissions: 55,
                recovered: 40,
                abandoned: 10,
                unroutable: 12,
                completion: 0.97,
                coverage_retention: 0.96,
                pef: 1.5e-7,
                availability: vec![1.0, 0.8, 0.95],
                retention: vec![1.02, 0.7, 0.98],
                pef_over_time: vec![1.1e-7, 2.0e-7, 1.2e-7],
                classes: vec![ClassLatency {
                    class: noc_sim::FlowClass::Far,
                    count: 300,
                    mean: 44.5,
                    p50: 40,
                    p95: 70,
                    p99: 90,
                    p999: 120,
                    max: 140,
                }],
            }],
        };
        let v = noc_sim::json::Json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(v.get("sample_window").unwrap().as_u64(), Some(250));
        assert_eq!(v.get("repair_after").unwrap().as_u64(), Some(400));
        let cells = v.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("router").unwrap().as_str(), Some("roco"));
        assert_eq!(cells[0].get("fault_aware"), Some(&noc_sim::json::Json::Bool(true)));
        assert_eq!(cells[0].get("fault_events").unwrap().as_u64(), Some(4));
        assert_eq!(cells[0].get("unroutable").unwrap().as_u64(), Some(12));
        assert!(cells[0].get("coverage_retention").is_some());
        assert_eq!(cells[0].get("availability").unwrap().as_arr().unwrap().len(), 3);
        let classes = cells[0].get("classes").unwrap().as_arr().unwrap();
        assert_eq!(classes[0].get("class").unwrap().as_str(), Some("far"));
        assert_eq!(classes[0].get("p999").unwrap().as_u64(), Some(120));

        let mut reg = Registry::new();
        export_campaign(&mut reg, &report);
        let prom = reg.render_prometheus();
        assert!(prom.contains("noc_campaign_completion_probability{"));
        assert!(prom.contains("noc_campaign_unroutable_packets{"));
        assert!(prom.contains("noc_campaign_coverage_retention{"));
        assert!(prom.contains("fault_aware=\"true\""));
        assert!(prom.contains("mtbf=\"600\""));
        assert!(prom.contains("noc_campaign_class_latency_cycles{"));
        assert!(prom.contains("class=\"far\",quantile=\"p999\"} 120"));
    }
}
