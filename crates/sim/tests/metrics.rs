//! Interval-sampler integration: windows tile the run exactly, their
//! deltas add up to the run totals, and the new pipeline probes are
//! live in all three router microarchitectures.

use noc_core::{RouterKind, RoutingKind};
use noc_sim::{IntervalSample, SimConfig, Simulation, VecMetricsSink};
use noc_traffic::TrafficKind;

/// An 8x8 transpose run pushed well past saturation, so buffers fill,
/// VA requests fail and credits run out at every architecture.
fn saturated_run(router: RouterKind) -> (noc_sim::SimResults, Vec<IntervalSample>) {
    let mut cfg = SimConfig::paper_scaled(router, RoutingKind::Xy, TrafficKind::Transpose);
    cfg.warmup_packets = 100;
    cfg.measured_packets = 1_500;
    cfg.injection_rate = 0.45;
    cfg.sample_window = 100;
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

#[test]
fn windows_tile_the_run_and_deltas_sum_to_the_totals() {
    let (results, samples) = saturated_run(RouterKind::RoCo);
    assert!(samples.len() > 2, "a multi-thousand-cycle run spans many 100-cycle windows");
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.window, i as u64, "windows arrive in order");
        assert!(s.cycle_end > s.cycle_start);
        if i > 0 {
            assert_eq!(s.cycle_start, samples[i - 1].cycle_end, "windows are gap-free");
        }
        assert_eq!(s.routers.len(), 64, "one entry per router");
        if s.delivered > 0 {
            assert!(s.latency_mean > 0.0);
            assert!(s.latency_p99 <= s.latency_max);
        }
    }
    assert_eq!(samples[0].cycle_start, 0);
    assert_eq!(samples.last().unwrap().cycle_end, results.cycles, "the final window is flushed");
    let delivered: u64 = samples.iter().map(|s| s.delivered).sum();
    assert_eq!(delivered, results.delivered_packets, "window deltas add up");
    let generated: u64 = samples.iter().map(|s| s.generated).sum();
    assert_eq!(generated, results.generated_packets);
    let per_router_delivered: u64 =
        samples.iter().flat_map(|s| s.routers.iter().map(|r| r.delivered)).sum();
    assert_eq!(per_router_delivered, results.delivered_packets);
}

#[test]
fn pipeline_probes_fire_in_every_router_architecture() {
    for router in RouterKind::ALL {
        let (results, samples) = saturated_run(router);
        assert!(
            results.counters.occupancy_high_water > 0,
            "{router}: buffers held flits at some point"
        );
        assert!(
            results.counters.va_failures > 0,
            "{router}: a saturated network must see failed VA requests"
        );
        assert!(
            results.counters.credit_stall_cycles > 0,
            "{router}: a saturated network must see credit starvation"
        );
        let window_va: u64 =
            samples.iter().flat_map(|s| s.routers.iter().map(|r| r.va_failures)).sum();
        assert_eq!(window_va, results.counters.va_failures, "VA-failure deltas add up");
        let window_stalls: u64 =
            samples.iter().flat_map(|s| s.routers.iter().map(|r| r.credit_stall_cycles)).sum();
        assert_eq!(
            window_stalls, results.counters.credit_stall_cycles,
            "credit-stall deltas add up"
        );
        assert!(
            samples.iter().any(|s| s.routers.iter().any(|r| r.occupancy > 0)),
            "{router}: instantaneous occupancy visible in some window"
        );
    }
}
