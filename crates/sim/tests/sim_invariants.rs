//! Simulator-level invariants (run in debug so the engine's
//! `debug_assert!`s — credit conservation, SA-with-credit — are armed).

use noc_core::{MeshConfig, RouterKind, RoutingKind};
use noc_sim::{run, KernelMode, SimConfig, Simulation};
use noc_traffic::TrafficKind;

fn cfg(router: RouterKind) -> SimConfig {
    let mut cfg = SimConfig::paper_scaled(router, RoutingKind::Xy, TrafficKind::Uniform);
    cfg.warmup_packets = 100;
    cfg.measured_packets = 900;
    cfg.injection_rate = 0.2;
    cfg
}

#[test]
fn measurement_window_excludes_warmup() {
    let r = run(cfg(RouterKind::RoCo));
    assert_eq!(r.generated_packets, 1_000);
    assert_eq!(r.measured_injected, 900);
    assert_eq!(r.measured_delivered, 900);
    assert_eq!(r.delivered_packets, 1_000);
}

#[test]
fn latency_grows_with_load() {
    let lo = run(cfg(RouterKind::Generic).with_rate(0.05));
    let hi = run(cfg(RouterKind::Generic).with_rate(0.3));
    assert!(hi.avg_latency > lo.avg_latency);
    assert!(lo.avg_latency < 30.0, "zero-ish load latency should be small");
}

#[test]
fn max_latency_bounds_average() {
    let r = run(cfg(RouterKind::PathSensitive));
    assert!(r.max_latency as f64 >= r.avg_latency);
}

#[test]
fn stepping_api_matches_run() {
    let mut sim = Simulation::new(cfg(RouterKind::RoCo));
    while !sim.finished() {
        sim.step();
    }
    let stepped = sim.results();
    let ran = run(cfg(RouterKind::RoCo));
    assert_eq!(stepped.avg_latency, ran.avg_latency);
    assert_eq!(stepped.cycles, ran.cycles);
}

#[test]
fn max_cycles_is_a_hard_cap() {
    let mut c = cfg(RouterKind::Generic);
    c.max_cycles = 200;
    c.measured_packets = 1_000_000; // will never finish generating
    let r = run(c);
    assert_eq!(r.cycles, 200);
}

#[test]
fn counters_scale_with_traffic() {
    let small = run(cfg(RouterKind::RoCo));
    let mut big_cfg = cfg(RouterKind::RoCo);
    big_cfg.measured_packets = 2_900;
    let big = run(big_cfg);
    assert!(big.counters.buffer_writes > small.counters.buffer_writes);
    assert!(big.counters.link_traversals > small.counters.link_traversals);
    assert!(big.energy.total() > small.energy.total());
}

#[test]
fn every_router_kind_reports_activity() {
    for router in RouterKind::ALL {
        let r = run(cfg(router));
        assert!(r.counters.buffer_writes > 0, "{router}");
        assert!(r.counters.crossbar_traversals > 0, "{router}");
        assert!(r.counters.link_traversals > 0, "{router}");
        assert!(r.counters.rc_computations > 0, "{router}");
        assert!(r.counters.va_global_arbs > 0, "{router}");
        assert!(r.counters.sa_global_arbs > 0, "{router}");
        assert!(r.counters.cycles > 0, "{router}");
    }
}

#[test]
fn link_traversals_match_flit_hops() {
    // Each delivered flit crosses (hops) links; RoCo ejects at the
    // destination without an extra local hop. Verify the aggregate is
    // plausible: between 1× and the mesh diameter × flits.
    let r = run(cfg(RouterKind::RoCo));
    let flits = r.delivered_packets * 4;
    assert!(r.counters.link_traversals >= flits, "every flit crosses at least one link");
    assert!(r.counters.link_traversals <= flits * 14, "no flit can exceed the diameter");
}

#[test]
fn mpeg_and_selfsimilar_complete_on_all_routers() {
    for traffic in [TrafficKind::Mpeg, TrafficKind::SelfSimilar] {
        for router in RouterKind::ALL {
            let mut c = cfg(router);
            c.traffic = traffic;
            c.injection_rate = 0.15;
            let r = run(c);
            assert_eq!(r.completion_probability(), 1.0, "{router}/{traffic}");
        }
    }
}

/// The simulator's own work: Reference steps every router every cycle
/// over all of RoCo's 12 VCs (Table 1); Soa reaches the same digest
/// with fewer steps and scans, so neither count can be in the digest.
/// How few VC slots Soa scans is pinned per scenario by the golden
/// corpus.
#[test]
fn work_counts_follow_the_kernel() {
    let reference = run(cfg(RouterKind::RoCo).with_kernel(KernelMode::Reference));
    let soa = run(cfg(RouterKind::RoCo).with_kernel(KernelMode::Soa));
    assert_eq!(reference.digest(), soa.digest());
    assert_eq!(reference.router_steps, reference.cycles * 64);
    assert_eq!(reference.vc_slots_scanned, reference.router_steps * 12);
    assert!(soa.router_steps < reference.router_steps);
    assert!(soa.vc_slots_scanned < reference.vc_slots_scanned);
}

/// The flat flit slab is sized once from the config, so its geometry
/// is a pure function of the mesh: nominal VC depth plus two slots of
/// poison slop per ring, 40-byte flits.
#[test]
fn slab_geometry_at_paper_config() {
    assert_eq!(std::mem::size_of::<noc_core::Flit>(), 40);
    for (side, slots, bytes) in
        [(4, 1_344, 55_392), (8, 5_376, 221_280), (16, 21_504, 884_832), (32, 86_016, 3_539_040)]
    {
        let mut cfg =
            SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
        cfg.mesh = MeshConfig::new(side, side);
        let sim = Simulation::new(cfg);
        let slab = sim.slab();
        assert_eq!((slab.slot_count(), slab.footprint_bytes()), (slots, bytes), "{side}x{side}");
    }
}
