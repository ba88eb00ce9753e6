//! Mid-run fault/repair behaviour: a transient fault must dent the
//! per-window delivered throughput while active and the network must
//! measurably recover after the repair, with the end-to-end
//! retransmission layer winning back packets the fault destroyed
//! (ISSUE PR 3 acceptance scenario; all runs seeded and deterministic).

use noc_core::{Axis, ComponentFault, Coord, FaultComponent, MeshConfig, RouterKind, RoutingKind};
use noc_fault::FaultSchedule;
use noc_sim::{
    IntervalSample, RecoveryConfig, SimConfig, SimResults, Simulation, TraceEvent, VecMetricsSink,
    VecTraceSink,
};
use noc_traffic::TrafficKind;

const FAULT_AT: u64 = 1_000;
const REPAIR_AT: u64 = 3_000;

/// Two routers lose both axis modules (node-dead) at `FAULT_AT` and
/// heal at `REPAIR_AT`: packets to and through them are discarded
/// while the fault is active.
fn scenario() -> SimConfig {
    let mut schedule = FaultSchedule::none();
    for site in [Coord::new(1, 1), Coord::new(2, 2)] {
        for axis in [Axis::X, Axis::Y] {
            schedule.push_transient(
                FAULT_AT,
                site,
                ComponentFault::new(FaultComponent::Crossbar, axis),
                REPAIR_AT - FAULT_AT,
            );
        }
    }
    let mut cfg = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
    cfg.mesh = MeshConfig::new(4, 4);
    cfg.warmup_packets = 100;
    cfg.measured_packets = 4_000;
    cfg.injection_rate = 0.2;
    cfg.sample_window = 250;
    cfg.stall_window = 5_000;
    cfg.with_schedule(schedule).with_recovery(RecoveryConfig {
        timeout: 150,
        max_retries: 6,
        backoff_cap: 1_200,
    })
}

fn run_scenario() -> (SimResults, Vec<IntervalSample>) {
    let sink = VecMetricsSink::new();
    let mut sim = Simulation::new(scenario());
    sim.set_metrics_sink(Box::new(sink.clone()));
    while !sim.finished() {
        sim.step();
    }
    sim.finish_observability();
    let samples = sink.samples().to_vec();
    (sim.results(), samples)
}

/// Mean delivered packets per window over the windows lying entirely
/// inside `[from, to)`.
fn mean_delivered(samples: &[IntervalSample], from: u64, to: u64) -> f64 {
    let picked: Vec<u64> = samples
        .iter()
        .filter(|s| s.cycle_start >= from && s.cycle_end <= to)
        .map(|s| s.delivered)
        .collect();
    assert!(!picked.is_empty(), "no complete windows in [{from}, {to})");
    picked.iter().sum::<u64>() as f64 / picked.len() as f64
}

#[test]
fn transient_fault_dents_then_restores_window_throughput() {
    let (results, samples) = run_scenario();
    assert!(!results.stalled, "the healed network must drain cleanly");
    // Skip the first window (cold start) and the windows straddling the
    // fault edges; compare steady-state bands.
    let healthy = mean_delivered(&samples, 250, FAULT_AT);
    let faulted = mean_delivered(&samples, FAULT_AT + 250, REPAIR_AT);
    let healed = mean_delivered(&samples, REPAIR_AT + 250, 4_500);
    assert!(
        faulted < 0.9 * healthy,
        "two dead routers must dent throughput: healthy {healthy}, faulted {faulted}"
    );
    assert!(healed > faulted, "repair must restore throughput: faulted {faulted}, healed {healed}");
    assert!(
        healed > 0.75 * healthy,
        "healed throughput must approach the healthy band: healthy {healthy}, healed {healed}"
    );
}

#[test]
fn retransmission_recovers_packets_lost_to_the_fault() {
    let (results, samples) = run_scenario();
    let recovery = results.recovery.expect("recovery layer enabled");
    assert!(recovery.retransmissions >= 1, "the fault must force retransmissions");
    assert!(recovery.recovered_packets >= 1, "at least one retry must get through");
    assert!(results.dropped_packets >= 1, "the fault must destroy at least one attempt");
    // Every generated packet is resolved exactly once: delivered (first
    // copy) or abandoned after the retry budget. Late duplicates are
    // suppressed, drop events count per attempt.
    assert_eq!(
        results.delivered_packets + recovery.abandoned_packets,
        results.generated_packets,
        "per-packet accounting must balance"
    );
    // The fault/repair timeline reaches the interval metrics: 4 inject
    // + 4 repair events (2 sites x 2 axes).
    let fault_events: u64 = samples.iter().map(|s| s.fault_events).sum();
    assert_eq!(fault_events, 8, "all schedule events surface in the metrics windows");
}

#[test]
fn fault_and_repair_events_reach_the_trace() {
    let sink = VecTraceSink::new();
    let mut sim = Simulation::new(scenario());
    sim.set_trace_sink(Box::new(sink.clone()));
    while !sim.finished() {
        sim.step();
    }
    sim.finish_observability();
    let events = sink.events();
    let faults = events.iter().filter(|e| matches!(e, TraceEvent::Fault { .. })).count();
    let repairs = events.iter().filter(|e| matches!(e, TraceEvent::Repair { .. })).count();
    assert_eq!(faults, 4, "4 injections traced");
    assert_eq!(repairs, 4, "4 repairs traced");
    for e in events.iter() {
        if let TraceEvent::Fault { cycle, .. } = e {
            assert_eq!(*cycle, FAULT_AT);
        }
        if let TraceEvent::Repair { cycle, .. } = e {
            assert_eq!(*cycle, REPAIR_AT);
        }
    }
}

/// A mid-run permanent node death (both crossbar axes) at each `site`.
fn node_death(sites: &[Coord], at: u64) -> FaultSchedule {
    let mut schedule = FaultSchedule::none();
    for &site in sites {
        for axis in [Axis::X, Axis::Y] {
            schedule.push_permanent(at, site, ComponentFault::new(FaultComponent::Crossbar, axis));
        }
    }
    schedule
}

/// Shared scenario for the ISSUE 8 reachability tests: adaptive
/// routing on a 4x4 mesh; at cycle 1000 a wall of three nodes dies
/// down column x=1 (only (1,3) survives). A single interior hole is
/// routable with the always-on one-hop §4.1 status checks alone, so
/// the wall is what separates the fault-aware layer from the
/// oblivious baseline: eastbound packets must take the masked
/// west-first *escape* detour through row y=3, which needs the global
/// link mask. The slow handshake keeps sources injecting toward the
/// dead nodes for a while (those packets must be short-circuited at
/// their next timeout instead of burning retries), and the tight
/// retry budget makes wasted attempts toward the wall cost real
/// delivered coverage.
fn reachability_scenario(fault_aware: bool) -> SimConfig {
    let wall = [Coord::new(1, 0), Coord::new(1, 1), Coord::new(1, 2)];
    let mut cfg =
        SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Adaptive, TrafficKind::Uniform);
    cfg.mesh = MeshConfig::new(4, 4);
    cfg.warmup_packets = 100;
    cfg.measured_packets = 3_000;
    cfg.injection_rate = 0.15;
    cfg.stall_window = 5_000;
    cfg.handshake_latency = 100;
    cfg.fault_routing = fault_aware;
    cfg.with_schedule(node_death(&wall, 1_000)).with_recovery(RecoveryConfig {
        timeout: 150,
        max_retries: 2,
        backoff_cap: 1_200,
    })
}

#[test]
fn unreachable_destinations_fail_fast_as_unroutable() {
    let mut sim = Simulation::new(reachability_scenario(true));
    while !sim.finished() {
        sim.step();
    }
    let results = sim.results();
    assert!(!results.stalled, "the fault-aware network must drain around the dead node");
    let recovery = results.recovery.expect("recovery + fault routing expose stats");
    assert!(
        recovery.unroutable_packets > 0,
        "uniform traffic toward the dead node must be refused at the source"
    );
    // The ISSUE 8 accounting identity: every generated packet resolves
    // exactly once, as delivered, abandoned or unroutable.
    assert_eq!(
        results.delivered_packets + recovery.abandoned_packets + recovery.unroutable_packets,
        results.generated_packets,
        "unroutable packets must stay inside the conservation identity"
    );
}

#[test]
fn retries_toward_dead_destinations_are_short_circuited() {
    // The short-circuit leg fires for packets already in flight (and
    // outstanding at the source NI) when their destination dies: the
    // trace must show `Unroutable` events for packets that were
    // injected before the death, proving the retry loop was cut rather
    // than burned down to `max_retries`.
    let sink = VecTraceSink::new();
    let mut sim = Simulation::new(reachability_scenario(true));
    sim.set_trace_sink(Box::new(sink.clone()));
    while !sim.finished() {
        sim.step();
    }
    let events = sink.events();
    let injected: std::collections::HashSet<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Injected { packet, .. } => Some(*packet),
            _ => None,
        })
        .collect();
    let short_circuited = events
        .iter()
        .filter(|e| match e {
            TraceEvent::Unroutable { packet, .. } => injected.contains(packet),
            _ => false,
        })
        .count();
    let refused_at_source = events
        .iter()
        .filter(|e| match e {
            TraceEvent::Unroutable { packet, .. } => !injected.contains(packet),
            _ => false,
        })
        .count();
    assert!(
        short_circuited > 0,
        "at least one in-flight packet must be short-circuited when its destination dies"
    );
    assert!(
        refused_at_source > 0,
        "packets generated after the death must be refused before injection"
    );
}

#[test]
fn fault_aware_routing_retains_more_delivered_coverage() {
    let run = |fault_aware: bool| {
        let mut sim = Simulation::new(reachability_scenario(fault_aware));
        while !sim.finished() {
            sim.step();
        }
        sim.results()
    };
    let aware = run(true);
    let oblivious = run(false);
    // Identical traffic and fault timeline; the only difference is the
    // ISSUE 8 routing layer. Fault-aware must retain strictly more
    // delivered coverage than the fault-oblivious baseline.
    assert_eq!(aware.generated_packets, oblivious.generated_packets, "same offered load");
    assert!(
        aware.delivered_packets > oblivious.delivered_packets,
        "fault-aware must deliver more: aware {} vs oblivious {}",
        aware.delivered_packets,
        oblivious.delivered_packets
    );
    // And it gets there with less wasted work: the reachability map
    // stops retry storms toward the dead node instead of burning the
    // full retry budget per packet.
    let aware_rec = aware.recovery.expect("stats exposed");
    let oblivious_rec = oblivious.recovery.expect("stats exposed");
    assert!(
        aware_rec.retransmissions < oblivious_rec.retransmissions,
        "short-circuiting must cut retransmissions: aware {} vs oblivious {}",
        aware_rec.retransmissions,
        oblivious_rec.retransmissions
    );
    assert_eq!(oblivious_rec.unroutable_packets, 0, "oblivious runs never refuse packets");
}

#[test]
fn dynamic_runs_are_deterministic_per_seed() {
    let (a, _) = run_scenario();
    let (b, _) = run_scenario();
    assert_eq!(a.generated_packets, b.generated_packets);
    assert_eq!(a.delivered_packets, b.delivered_packets);
    assert_eq!(a.dropped_packets, b.dropped_packets);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.counters, b.counters);
}
