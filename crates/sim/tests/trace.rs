//! Trace-sink integration: every packet's lifecycle is observable and
//! self-consistent.

use noc_core::{Coord, RouterKind, RoutingKind};
use noc_sim::{SimConfig, Simulation, TraceEvent, VecTraceSink};
use noc_traffic::TrafficKind;
use std::collections::HashMap;

fn traced_run() -> Vec<TraceEvent> {
    let sink = VecTraceSink::new();
    let mut cfg = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
    cfg.warmup_packets = 20;
    cfg.measured_packets = 200;
    cfg.injection_rate = 0.15;
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.clone()));
    while !sim.finished() {
        sim.step();
    }
    // Bound first: the `Ref` borrow must end before `sink` drops.
    let events = sink.events().to_vec();
    events
}

#[test]
fn vec_sink_round_trips_through_the_simulation() {
    let mut cfg = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
    cfg.warmup_packets = 5;
    cfg.measured_packets = 50;
    cfg.injection_rate = 0.1;
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(VecTraceSink::new()));
    for _ in 0..50 {
        sim.step();
    }
    assert!(sim.take_trace_sink().is_some());
    assert!(sim.take_trace_sink().is_none(), "sink can only be taken once");
}

#[test]
fn every_packet_has_a_complete_lifecycle() {
    let events = traced_run();
    assert!(!events.is_empty());
    let mut generated = HashMap::new();
    let mut injected = HashMap::new();
    let mut delivered = HashMap::new();
    let mut hops: HashMap<_, u64> = HashMap::new();
    for e in &events {
        match e {
            TraceEvent::Generated { packet, src, dst, .. } => {
                generated.insert(*packet, (*src, *dst));
            }
            TraceEvent::Injected { packet, node, .. } => {
                injected.insert(*packet, *node);
            }
            TraceEvent::Delivered { packet, latency, .. } => {
                delivered.insert(*packet, *latency);
            }
            TraceEvent::Hop { packet, .. } => *hops.entry(*packet).or_default() += 1,
            TraceEvent::Dropped { .. }
            | TraceEvent::Unroutable { .. }
            | TraceEvent::Fault { .. }
            | TraceEvent::Repair { .. } => {}
        }
    }
    assert_eq!(generated.len(), 220, "every generated packet traced");
    assert_eq!(delivered.len(), 220, "fault-free: all delivered");
    for (packet, (src, dst)) in &generated {
        assert_eq!(injected.get(packet), Some(src), "{packet} injected at its source");
        assert!(delivered.contains_key(packet), "{packet} delivered");
        // 4 flits x manhattan hops each (RoCo ejects without a local hop).
        let expected = 4 * src.manhattan_distance(*dst) as u64;
        assert_eq!(hops.get(packet), Some(&expected), "{packet} hop count");
    }
}

#[test]
fn events_are_causally_ordered_per_packet() {
    let events = traced_run();
    let mut last_stage: HashMap<_, u8> = HashMap::new();
    let mut last_cycle: HashMap<_, u64> = HashMap::new();
    for e in &events {
        let stage = match e {
            TraceEvent::Generated { .. } => 0,
            TraceEvent::Injected { .. } => 1,
            TraceEvent::Hop { .. } => 2,
            TraceEvent::Delivered { .. }
            | TraceEvent::Dropped { .. }
            | TraceEvent::Unroutable { .. } => 3,
            TraceEvent::Fault { .. } | TraceEvent::Repair { .. } => continue,
        };
        let p = e.packet().expect("packet lifecycle event");
        let prev = last_stage.insert(p, stage).unwrap_or(0);
        assert!(stage >= prev || stage == 2, "stage regression for {p}");
        let prev_cycle = last_cycle.insert(p, e.cycle()).unwrap_or(0);
        assert!(e.cycle() >= prev_cycle, "time regression for {p}");
    }
}

#[test]
fn hop_trace_follows_a_contiguous_path() {
    let events = traced_run();
    // For each packet, head-flit hops must form a connected path from
    // src to the destination's neighbour.
    let mut paths: HashMap<_, Vec<Coord>> = HashMap::new();
    let mut dsts = HashMap::new();
    for e in &events {
        match e {
            TraceEvent::Generated { packet, dst, .. } => {
                dsts.insert(*packet, *dst);
            }
            TraceEvent::Hop { packet, seq: 0, node, .. } => {
                paths.entry(*packet).or_default().push(*node);
            }
            _ => {}
        }
    }
    for (packet, path) in paths {
        for pair in path.windows(2) {
            assert_eq!(
                pair[0].manhattan_distance(pair[1]),
                1,
                "{packet}: head hops must be adjacent"
            );
        }
        let dst = dsts[&packet];
        let last = *path.last().unwrap();
        assert_eq!(last.manhattan_distance(dst), 1, "{packet}: last hop borders the destination");
    }
}
