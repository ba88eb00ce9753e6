//! Behavioural tests driving single routers directly (no network),
//! pinning down pipeline timing, Early Ejection, credits, guided
//! queuing and fault reactions.

use noc_core::rng::SmallRng;
use noc_core::{
    Axis, AxisOrder, ComponentFault, Coord, Direction, FaultComponent, Flit, FlitSlab, MeshConfig,
    ModuleHealth, PacketId, RouterConfig, RouterKind, RoutingKind, StepContext, VcAdmission,
    VcClass, ALL_VCS, EJECT_VC,
};
use noc_fault::{reaction, Reaction};
use noc_router::Router;

const MESH: MeshConfig = MeshConfig::new(3, 3);

/// Builds a router at the mesh centre with all four outputs wired to
/// representative neighbour VC lists, plus a one-router flit slab
/// backing its VC rings.
fn wired(kind: RouterKind, routing: RoutingKind) -> (Router, FlitSlab) {
    let cfg = RouterConfig::paper(kind, routing);
    let mut r = Router::new(Coord::new(1, 1), cfg, MESH);
    for d in Direction::MESH {
        let neighbor = Router::new(Coord::new(1, 1).neighbor(d, 3, 3).unwrap(), cfg, MESH);
        let descs = neighbor.core.link_descriptors(d.opposite()).to_vec();
        r.core.connect_output(d, &descs);
    }
    let slab = FlitSlab::new(1, &r.core.ring_capacities());
    (r, slab)
}

fn head(src: Coord, dst: Coord, next_out: Direction) -> Flit {
    let mut flits = Flit::packet_flits(PacketId(1), src, dst, 0, 1, AxisOrder::Xy);
    flits[0].next_out = next_out;
    flits[0]
}

fn step(
    r: &mut Router,
    slab: &mut FlitSlab,
    cycle: u64,
    rng: &mut SmallRng,
) -> noc_core::RouterOutputs {
    let mut ctx = StepContext::new(cycle, rng);
    for d in Direction::MESH {
        ctx.neighbors[d.index()] = Some(noc_core::NodeStatus::healthy());
    }
    let mut out = noc_core::RouterOutputs::new();
    r.step(&mut ctx, &mut slab.window(0), &mut out, ALL_VCS);
    out
}

#[test]
fn two_stage_pipeline_timing() {
    // A single-flit packet arriving at cycle 0 must win VA+SA in cycle
    // 0 (speculatively) and appear on the output link at cycle 1.
    for kind in [RouterKind::RoCo, RouterKind::Generic, RouterKind::PathSensitive] {
        let (mut r, mut slab) = wired(kind, RoutingKind::Xy);
        let mut rng = SmallRng::seed_from_u64(1);
        // Eastbound through-flit: from West, continuing East to (2,1).
        let f = head(Coord::new(0, 1), Coord::new(2, 1), Direction::East);
        r.core.deliver_flit(&mut slab.window(0), Direction::West, 0, f);
        let out0 = step(&mut r, &mut slab, 0, &mut rng);
        assert!(out0.flits.is_empty(), "{kind:?}: ST happens in stage 2");
        let out1 = step(&mut r, &mut slab, 1, &mut rng);
        assert_eq!(out1.flits.len(), 1, "{kind:?}: flit should depart in cycle 1");
        let (dir, dvc, flit) = out1.flits[0];
        assert_eq!(dir, Direction::East);
        assert_eq!(flit.next_out, Direction::Local, "look-ahead: next stop is the destination");
        // Non-generic routers skip downstream VC allocation for ejection.
        if kind == RouterKind::Generic {
            assert_ne!(dvc, EJECT_VC);
        } else {
            assert_eq!(dvc, EJECT_VC);
        }
    }
}

#[test]
fn credit_is_returned_upstream() {
    let (mut r, mut slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    let mut rng = SmallRng::seed_from_u64(2);
    let f = head(Coord::new(0, 1), Coord::new(2, 1), Direction::East);
    r.core.deliver_flit(&mut slab.window(0), Direction::West, 0, f);
    let out0 = step(&mut r, &mut slab, 0, &mut rng);
    let out1 = step(&mut r, &mut slab, 1, &mut rng);
    let credits: Vec<_> = out0.credits.iter().chain(&out1.credits).collect();
    assert_eq!(credits.len(), 1, "one flit read out, one credit back");
    let (side, credit) = credits[0];
    assert_eq!(*side, Direction::West);
    assert_eq!(credit.vc, 0);
    assert!(credit.vc_freed, "single-flit packet frees the VC");
}

#[test]
fn early_ejection_is_immediate_for_roco_and_ps() {
    for kind in [RouterKind::RoCo, RouterKind::PathSensitive] {
        let (mut r, mut slab) = wired(kind, RoutingKind::Xy);
        let mut rng = SmallRng::seed_from_u64(3);
        let f = head(Coord::new(0, 1), Coord::new(1, 1), Direction::Local);
        r.core.deliver_flit(&mut slab.window(0), Direction::West, EJECT_VC, f);
        let out0 = step(&mut r, &mut slab, 0, &mut rng);
        assert_eq!(out0.ejected.len(), 1, "{kind:?}: ejected in the arrival cycle");
        assert_eq!(r.core.counters.early_ejections, 1);
        assert_eq!(r.core.counters.crossbar_traversals, 0, "no switch traversal");
        assert_eq!(r.core.occupancy(), 0);
    }
}

#[test]
fn generic_ejection_goes_through_the_crossbar() {
    let (mut r, mut slab) = wired(RouterKind::Generic, RoutingKind::Xy);
    let mut rng = SmallRng::seed_from_u64(4);
    let f = head(Coord::new(0, 1), Coord::new(1, 1), Direction::Local);
    r.core.deliver_flit(&mut slab.window(0), Direction::West, 0, f);
    let out0 = step(&mut r, &mut slab, 0, &mut rng);
    assert!(out0.ejected.is_empty(), "generic ejection takes SA + ST");
    let out1 = step(&mut r, &mut slab, 1, &mut rng);
    assert_eq!(out1.ejected.len(), 1);
    assert_eq!(r.core.counters.crossbar_traversals, 1);
    assert_eq!(r.core.counters.early_ejections, 0);
}

#[test]
fn guided_queuing_publishes_table1_classes() {
    let (r, _slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    // West link under XY: two dx buffers (row module) + one txy
    // (column module).
    let west = r.core.link_descriptors(Direction::West);
    assert_eq!(west.len(), 3);
    let classes: Vec<_> = west.iter().map(|d| d.admission).collect();
    assert_eq!(classes.iter().filter(|a| **a == VcAdmission::Class(VcClass::Dx)).count(), 2);
    assert_eq!(classes.iter().filter(|a| **a == VcAdmission::Class(VcClass::Txy)).count(), 1);
    // Injection side: 2 Injxy + 1 Injyx under XY.
    let local = r.core.link_descriptors(Direction::Local);
    assert_eq!(local.len(), 3);
}

#[test]
fn wormhole_streams_flits_in_order() {
    let (mut r, mut slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut flits =
        Flit::packet_flits(PacketId(9), Coord::new(0, 1), Coord::new(2, 1), 0, 4, AxisOrder::Xy);
    for f in &mut flits {
        f.next_out = Direction::East;
    }
    // Deliver one flit per cycle, like a real link.
    let mut received = Vec::new();
    for cycle in 0..8u64 {
        if let Some(f) = flits.get(cycle as usize) {
            r.core.deliver_flit(&mut slab.window(0), Direction::West, 0, *f);
        }
        let out = step(&mut r, &mut slab, cycle, &mut rng);
        received.extend(out.flits.into_iter().map(|(_, _, f)| f.seq));
    }
    assert_eq!(received, vec![0, 1, 2, 3], "flits must stream in order, one per cycle");
    assert_eq!(r.core.occupancy(), 0);
}

#[test]
fn module_fault_reports_degraded_status_and_zeroes_descriptors() {
    let (mut r, _slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    r.inject_fault(ComponentFault::new(FaultComponent::Crossbar, Axis::X));
    let status = r.core.status();
    assert_eq!(status.row, ModuleHealth::Dead);
    assert_eq!(status.col, ModuleHealth::Healthy);
    assert!(!status.node_dead());
    // The row-module buffers are advertised with zero capacity...
    let west = r.core.link_descriptors(Direction::West);
    assert!(west
        .iter()
        .filter(|d| d.admission == VcAdmission::Class(VcClass::Dx))
        .all(|d| d.capacity == 0));
    // ...but the column-module txy buffer on the same link survives.
    assert!(west.iter().any(|d| d.capacity > 0));
}

#[test]
fn generic_fault_kills_the_whole_node() {
    let (mut r, mut slab) = wired(RouterKind::Generic, RoutingKind::Xy);
    r.inject_fault(ComponentFault::new(FaultComponent::SaArbiter, Axis::X));
    assert!(r.core.status().node_dead());
    for d in Direction::MESH {
        assert!(r.core.link_descriptors(d).iter().all(|v| v.capacity == 0));
    }
    // Delivered flits are discarded, not buffered.
    let mut rng = SmallRng::seed_from_u64(6);
    r.core.deliver_flit(
        &mut slab.window(0),
        Direction::West,
        0,
        head(Coord::new(0, 1), Coord::new(2, 1), Direction::East),
    );
    let out = step(&mut r, &mut slab, 0, &mut rng);
    assert_eq!(out.dropped.len(), 1);
    assert_eq!(r.core.occupancy(), 0);
}

#[test]
fn sa_offload_fault_marks_module_degraded() {
    let (mut r, _slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    r.inject_fault(ComponentFault::new(FaultComponent::SaArbiter, Axis::Y));
    assert_eq!(r.core.status().col, ModuleHealth::Degraded);
    assert!(r.core.status().can_serve_output(Direction::North), "degraded ≠ dead");
}

#[test]
fn rc_fault_sets_handshake_bit() {
    let (mut r, _slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    assert!(r.core.status().rc_ok);
    r.inject_fault(ComponentFault::new(FaultComponent::RoutingComputation, Axis::X));
    assert!(!r.core.status().rc_ok);
    assert_eq!(r.core.status().row, ModuleHealth::Healthy, "RC fault blocks no module");
}

#[test]
fn injection_respects_class_buffers() {
    let (mut r, mut slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    let mut rng = SmallRng::seed_from_u64(7);
    // A packet going East first must land in an Injxy buffer.
    let f =
        Flit::packet_flits(PacketId(3), Coord::new(1, 1), Coord::new(2, 2), 0, 1, AxisOrder::Xy)[0];
    let mut ctx = StepContext::new(0, &mut rng);
    assert!(r.core.try_inject(&mut slab.window(0), f, &mut ctx));
    assert_eq!(r.core.occupancy(), 1);
    // The injected head must depart East (X first) within a few cycles.
    let mut departed = None;
    for cycle in 0..4 {
        let out = step(&mut r, &mut slab, cycle, &mut rng);
        if let Some(&(dir, _, _)) = out.flits.first() {
            departed = Some(dir);
            break;
        }
    }
    assert_eq!(departed, Some(Direction::East));
}

#[test]
fn mirror_allocator_serves_both_directions_in_one_cycle() {
    let (mut r, mut slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    let mut rng = SmallRng::seed_from_u64(8);
    // Eastbound flit from West and westbound flit from East: the row
    // module must grant both in the same cycle (maximal matching).
    let east = head(Coord::new(0, 1), Coord::new(2, 1), Direction::East);
    let west = head(Coord::new(2, 1), Coord::new(0, 1), Direction::West);
    r.core.deliver_flit(&mut slab.window(0), Direction::West, 0, east);
    r.core.deliver_flit(&mut slab.window(0), Direction::East, 0, west);
    let _ = step(&mut r, &mut slab, 0, &mut rng);
    let out1 = step(&mut r, &mut slab, 1, &mut rng);
    let dirs: Vec<_> = out1.flits.iter().map(|(d, _, _)| *d).collect();
    assert!(dirs.contains(&Direction::East) && dirs.contains(&Direction::West));
}

#[test]
fn injection_class_utilization_is_x_heavy_under_xy() {
    // §3.1: "the injection channel Injxy is much more frequently used
    // than Injyx as a result of the routing scheme" — under XY, every
    // packet with a nonzero X displacement injects X-first, so in a
    // full 3x3 network with one-hop ring traffic the X channels carry
    // more injections. (Verified network-wide in tests/paper_claims.rs;
    // here we check the per-class accounting plumbing on one router.)
    use noc_core::VcClass;
    let (mut r, mut slab) = wired(RouterKind::RoCo, RoutingKind::Xy);
    let mut rng = SmallRng::seed_from_u64(99);
    // Inject two X-bound single-flit packets and one Y-bound packet
    // (all to direct neighbours so the detached test harness can drain
    // them via Early Ejection without return credits).
    for (i, dst) in [Coord::new(2, 1), Coord::new(0, 1), Coord::new(1, 0)].iter().enumerate() {
        let f = Flit::packet_flits(
            PacketId(100 + i as u64),
            Coord::new(1, 1),
            *dst,
            i as u64,
            1,
            AxisOrder::Xy,
        )[0];
        let mut ctx = StepContext::new(i as u64, &mut rng);
        assert!(r.core.try_inject(&mut slab.window(0), f, &mut ctx));
        let _ = step(&mut r, &mut slab, i as u64, &mut rng);
    }
    let util = r.class_utilization();
    assert_eq!(util.get(&VcClass::InjXy), Some(&2));
    assert_eq!(util.get(&VcClass::InjYx), Some(&1));
}

#[test]
fn fault_reactions_follow_table3_for_every_router() {
    // Every (router, component, axis) fault must leave the published
    // status and link descriptors exactly as `noc_fault::reaction`
    // prescribes; Path-Sensitive's whole-node block is covered here.
    for kind in [RouterKind::Generic, RouterKind::PathSensitive, RouterKind::RoCo] {
        for component in FaultComponent::ALL {
            for axis in [Axis::X, Axis::Y] {
                let case = format!("{kind:?} {component:?} {axis:?}");
                let (mut r, _slab) = wired(kind, RoutingKind::Xy);
                r.inject_fault(ComponentFault::new(component, axis));
                let status = r.core.status();
                let module = if axis == Axis::X { 0 } else { 1 };
                // What neighbours see must match the internal VC state.
                for side in Direction::ALL {
                    let published = r.core.link_descriptors(side);
                    for (desc, &vc) in published.iter().zip(&r.core.link_map[side.index()]) {
                        assert_eq!(*desc, r.core.vcs[vc].desc, "{case}: stale descriptor");
                    }
                }
                // RoCo VC groups are module-ports: group / 2 is the module.
                let in_module = |vc: &noc_router::Vc| vc.group as usize / 2 == module;
                match reaction(kind, component) {
                    Reaction::NodeBlocked => {
                        assert!(status.node_dead(), "{case}");
                        for side in Direction::ALL {
                            let descs = r.core.link_descriptors(side);
                            assert!(descs.iter().all(|d| d.capacity == 0), "{case}: {side}");
                        }
                    }
                    Reaction::ModuleBlocked => {
                        assert_eq!(status.module(axis), ModuleHealth::Dead, "{case}");
                        assert_eq!(status.module(axis.other()), ModuleHealth::Healthy, "{case}");
                        assert!(status.rc_ok, "{case}");
                        for vc in &r.core.vcs {
                            assert_eq!(vc.desc.capacity == 0, in_module(vc), "{case}");
                        }
                    }
                    Reaction::DoubleRouting => {
                        assert!(!status.rc_ok, "{case}");
                        assert_eq!(
                            (status.row, status.col),
                            (ModuleHealth::Healthy, ModuleHealth::Healthy)
                        );
                    }
                    Reaction::SaOffload | Reaction::VirtualQueuing => {
                        assert_eq!(status.module(axis), ModuleHealth::Degraded, "{case}");
                        assert_eq!(status.module(axis.other()), ModuleHealth::Healthy, "{case}");
                        assert!(status.rc_ok, "{case}");
                        assert!(
                            r.core.vcs.iter().all(|vc| !vc.disabled),
                            "{case}: degraded, not lost"
                        );
                    }
                }
            }
        }
    }
}
