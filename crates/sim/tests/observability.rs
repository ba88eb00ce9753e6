//! Observability must never change behaviour: the self-profiler and
//! the flow-class telemetry are strictly read-only with respect to the
//! simulated machine, so [`SimResults::digest`] is byte-identical with
//! profiling on or off under both kernels (DESIGN.md §14). These tests
//! also pin the flow-class surfaces — run results, interval windows —
//! and the SLO gate end to end.

use noc_core::{MeshConfig, RouterKind, RoutingKind};
use noc_sim::{
    check_slos, parse_slos, FlowClass, KernelMode, SimConfig, SimResults, Simulation,
    VecMetricsSink,
};
use noc_traffic::TrafficKind;

fn base() -> SimConfig {
    let mut cfg = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
    cfg.mesh = MeshConfig::new(4, 4);
    cfg.warmup_packets = 50;
    cfg.measured_packets = 400;
    cfg.injection_rate = 0.15;
    cfg.seed = 0x0B5E;
    cfg
}

fn run_with(kernel: KernelMode, profile: bool) -> SimResults {
    let mut cfg = base();
    cfg.kernel = kernel;
    cfg.profile = profile;
    noc_sim::run(cfg)
}

/// The acceptance criterion of the profiler: enabling it changes
/// nothing about the simulated run, under both kernels.
#[test]
fn digest_identical_with_profiling_on_or_off_across_kernels() {
    let baseline = run_with(KernelMode::Reference, false);
    assert!(baseline.profile.is_none(), "profiling off leaves no report");
    for kernel in [KernelMode::Reference, KernelMode::Soa] {
        let plain = run_with(kernel, false);
        let profiled = run_with(kernel, true);
        assert_eq!(
            plain.digest(),
            profiled.digest(),
            "{kernel:?}: profiling must not change results"
        );
        assert_eq!(
            baseline.digest(),
            profiled.digest(),
            "{kernel:?}: kernels must stay bit-identical while profiled"
        );
        assert_eq!(plain.router_steps, profiled.router_steps, "{kernel:?}: same work");
        let report = profiled.profile.expect("profiling on yields a report");
        assert_eq!(report.cycles, profiled.cycles, "the profiler saw every cycle");
        assert_eq!(
            (report.stepped_mean * report.cycles as f64).round() as u64,
            profiled.router_steps,
            "{kernel:?}: the wake gauge counts every router step"
        );
        assert!(report.wall_s > 0.0);
        assert!(report.stepped_max as f64 >= report.stepped_mean);
        assert!(report.wake_fraction > 0.0 && report.wake_fraction <= 1.0);
        if kernel == KernelMode::Reference {
            assert_eq!(
                report.stepped_mean, 16.0,
                "the reference kernel steps every router every cycle"
            );
        }
    }
}

/// Flow-class summaries appear in run results in `FlowClass::ALL`
/// order, their counts add up to the measured deliveries, and the
/// aggregate tail percentiles are ordered.
#[test]
fn class_percentiles_cover_the_measured_stream() {
    let r = run_with(KernelMode::Soa, false);
    assert_eq!(r.classes.len(), FlowClass::ALL.len());
    for (slot, c) in FlowClass::ALL.iter().zip(&r.classes) {
        assert_eq!(c.class, *slot, "summaries are in reporting order");
    }
    let total: u64 = r.classes.iter().map(|c| c.count).sum();
    assert_eq!(total, r.measured_delivered, "every measured delivery is classified");
    // A 4x4 uniform workload exercises short and medium routes.
    assert!(r.classes[FlowClass::Near.index()].count > 0);
    assert!(r.classes[FlowClass::Mid.index()].count > 0);
    assert!(r.latency_p50 <= r.latency_p95);
    assert!(r.latency_p95 <= r.latency_p99);
    assert!(r.latency_p99 <= r.latency_p999);
    assert!(r.latency_p999 <= r.max_latency);
    for c in r.classes.iter().filter(|c| c.count > 0) {
        assert!(c.p50 <= c.p99 && c.p99 <= c.p999 && c.p999 <= c.max);
    }
}

/// Interval windows carry the same per-class summaries, and their
/// counts account for every delivery the window counted.
#[test]
fn interval_windows_carry_class_summaries() {
    let mut cfg = base();
    cfg.sample_window = 200;
    let sink = VecMetricsSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_metrics_sink(Box::new(sink.clone()));
    while !sim.finished() {
        sim.step();
    }
    sim.finish_observability();
    let samples = sink.samples();
    assert!(samples.len() > 1, "several windows elapsed");
    for s in samples.iter() {
        assert_eq!(s.classes.len(), FlowClass::ALL.len());
        let classified: u64 = s.classes.iter().map(|c| c.count).sum();
        assert_eq!(classified, s.delivered, "window {} classifies every delivery", s.window);
        for c in s.classes.iter().filter(|c| c.count > 0) {
            assert!(c.p99 <= c.p999 && c.p999 <= c.max);
            assert!(c.max <= s.latency_max);
        }
    }
}

/// The SLO machinery end to end: generous bounds pass, an impossible
/// bound reports the measured value, and an untrafficked class passes
/// vacuously.
#[test]
fn slo_gate_end_to_end() {
    let r = run_with(KernelMode::Soa, false);
    let generous = parse_slos("all:p99<=1000000,near:max<=1000000,mean<=1000000").unwrap();
    assert!(check_slos(&generous, &r).is_empty());

    let impossible = parse_slos("all:p50<=0").unwrap();
    let violations = check_slos(&impossible, &r);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].observed, r.latency_p50 as f64);
    assert!(violations[0].to_string().contains("SLO violated"));

    // 0 hops: uniform traffic never sends a packet to its own node, so
    // the `local` class is empty and its clauses pass vacuously.
    assert_eq!(r.classes[FlowClass::Local.index()].count, 0);
    let vacuous = parse_slos("local:p999<=0").unwrap();
    assert!(check_slos(&vacuous, &r).is_empty());
}
