//! White-box tests of the shared `RouterCore` engine through its public
//! surface: VC bookkeeping, credit flow, injection admission and
//! switch-eligibility rules.

use noc_core::rng::SmallRng;
use noc_core::{
    AxisOrder, Coord, Credit, Direction, Flit, FlitSlab, MeshConfig, PacketId, RouterConfig,
    RouterKind, RoutingKind, StepContext, VcAdmission, VcDescriptor, ALL_VCS,
};
use noc_router::{RouterCore, Vc, VcState};
use noc_routing::RouteComputer;

fn mesh() -> MeshConfig {
    MeshConfig::new(4, 4)
}

/// A tiny single-VC core at (1,1): one network VC on the West link and
/// one injection VC, with the East output wired to a 2-VC downstream.
fn tiny_core() -> RouterCore {
    let cfg = RouterConfig::paper(RouterKind::Generic, RoutingKind::Xy);
    let computer = RouteComputer::new(RoutingKind::Xy, mesh());
    let vcs = vec![
        Vc::new(
            VcDescriptor::new(VcAdmission::Any, 4).with_arrival(Direction::West),
            Direction::West,
            0,
            0,
        ),
        Vc::new(
            VcDescriptor::new(VcAdmission::Any, 4).with_arrival(Direction::Local),
            Direction::Local,
            0,
            0,
        ),
    ];
    let mut link_map: [Vec<usize>; 5] = Default::default();
    link_map[Direction::West.index()].push(0);
    link_map[Direction::Local.index()].push(1);
    let mut core = RouterCore::new(Coord::new(1, 1), cfg, computer, vcs, link_map);
    let downstream = vec![VcDescriptor::new(VcAdmission::Any, 4); 2];
    for d in Direction::MESH {
        core.connect_output(d, &downstream);
    }
    core
}

/// A one-router flit slab backing `tiny_core`'s VC rings.
fn tiny_slab(core: &RouterCore) -> FlitSlab {
    FlitSlab::new(1, &core.ring_capacities())
}

fn head_flit(dst: Coord, next_out: Direction) -> Flit {
    let mut f = Flit::packet_flits(PacketId(1), Coord::new(0, 1), dst, 0, 1, AxisOrder::Xy)[0];
    f.next_out = next_out;
    f
}

#[test]
fn credit_score_counts_admissible_free_slots() {
    let core = tiny_core();
    let port = core.outputs[Direction::East.index()].as_ref().unwrap();
    let req = noc_core::VcRequest {
        in_dir: Direction::West,
        out_dir: Direction::East,
        order: AxisOrder::Xy,
        quadrant_mask: 0b1111,
        dateline: false,
    };
    // Two free VCs x (4 credits + 1 free bonus) each.
    assert_eq!(port.credit_score(&req), 10);
}

#[test]
fn va_grants_and_consumes_downstream_vc() {
    let mut core = tiny_core();
    let mut slab = tiny_slab(&core);
    let mut rng = SmallRng::seed_from_u64(1);
    core.deliver_flit(
        &mut slab.window(0),
        Direction::West,
        0,
        head_flit(Coord::new(3, 1), Direction::East),
    );
    let mut ctx = StepContext::new(0, &mut rng);
    for d in Direction::MESH {
        ctx.neighbors[d.index()] = Some(noc_core::NodeStatus::healthy());
    }
    core.va_stage(&mut ctx, &mut slab.window(0), ALL_VCS);
    match core.vcs[0].state {
        VcState::Active { out, dvc, .. } => {
            assert_eq!(out, Direction::East);
            let port = core.outputs[Direction::East.index()].as_ref().unwrap();
            assert!(!port.is_free(dvc as usize), "granted VC is no longer free");
        }
        other => panic!("expected Active after VA, got {other:?}"),
    }
    // The VC is now switch-eligible.
    assert_eq!(core.sa_candidate(&slab.view(0), 0), Some(Direction::East));
}

#[test]
fn sa_requires_credits() {
    let mut core = tiny_core();
    let mut slab = tiny_slab(&core);
    let mut rng = SmallRng::seed_from_u64(2);
    core.deliver_flit(
        &mut slab.window(0),
        Direction::West,
        0,
        head_flit(Coord::new(3, 1), Direction::East),
    );
    let mut ctx = StepContext::new(0, &mut rng);
    for d in Direction::MESH {
        ctx.neighbors[d.index()] = Some(noc_core::NodeStatus::healthy());
    }
    core.va_stage(&mut ctx, &mut slab.window(0), ALL_VCS);
    let VcState::Active { dvc, .. } = core.vcs[0].state else { panic!("active") };
    // Exhaust the downstream credits.
    core.outputs[Direction::East.index()].as_mut().unwrap().debug_set_credits(dvc as usize, 0);
    assert_eq!(core.sa_candidate(&slab.view(0), 0), None, "no credits, no switch request");
    // A credit restores eligibility.
    core.deliver_credit(Direction::East, Credit { vc: dvc, vc_freed: false });
    assert_eq!(core.sa_candidate(&slab.view(0), 0), Some(Direction::East));
}

#[test]
fn apply_grant_emits_credit_and_frees_on_tail() {
    let mut core = tiny_core();
    let mut slab = tiny_slab(&core);
    let mut rng = SmallRng::seed_from_u64(3);
    core.deliver_flit(
        &mut slab.window(0),
        Direction::West,
        0,
        head_flit(Coord::new(3, 1), Direction::East),
    );
    let mut ctx = StepContext::new(0, &mut rng);
    for d in Direction::MESH {
        ctx.neighbors[d.index()] = Some(noc_core::NodeStatus::healthy());
    }
    core.va_stage(&mut ctx, &mut slab.window(0), ALL_VCS);
    let VcState::Active { dvc, .. } = core.vcs[0].state else { panic!("active") };
    let freed = core.apply_grant(&mut slab.window(0), 0);
    assert!(freed, "a single-flit packet frees its downstream VC on transmission");
    assert_eq!(core.vcs[0].state, VcState::Idle);
    assert_eq!(core.pending_credits.len(), 1, "upstream credit queued");
    assert_eq!(core.pending_credits[0].0, Direction::West);
    let port = core.outputs[Direction::East.index()].as_ref().unwrap();
    assert_eq!(port.vcs()[dvc as usize].credits, 3, "one downstream slot consumed");
    assert!(port.is_free(dvc as usize), "freed at tail transmission");
    assert_eq!(core.st_latch.len(), 1, "flit latched for switch traversal");
}

#[test]
fn injection_is_atomic_per_vc() {
    let mut core = tiny_core();
    let mut slab = tiny_slab(&core);
    let mut rng = SmallRng::seed_from_u64(4);
    let mut ctx = StepContext::new(0, &mut rng);
    let flits =
        Flit::packet_flits(PacketId(5), Coord::new(1, 1), Coord::new(3, 3), 0, 4, AxisOrder::Xy);
    assert!(
        core.try_inject(&mut slab.window(0), flits[0], &mut ctx),
        "head fits the idle injection VC"
    );
    // A second packet's head must wait: the single injection VC is bound.
    let other =
        Flit::packet_flits(PacketId(6), Coord::new(1, 1), Coord::new(2, 2), 0, 1, AxisOrder::Xy)[0];
    assert!(!core.try_inject(&mut slab.window(0), other, &mut ctx));
    // Body flits of the bound packet continue to flow in.
    assert!(core.try_inject(&mut slab.window(0), flits[1], &mut ctx));
    assert!(core.try_inject(&mut slab.window(0), flits[2], &mut ctx));
    assert!(core.try_inject(&mut slab.window(0), flits[3], &mut ctx), "tail fits (4-deep buffer)");
    assert_eq!(core.occupancy(), 4);
}

#[test]
fn injection_respects_buffer_depth() {
    let mut core = tiny_core();
    let mut slab = tiny_slab(&core);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut ctx = StepContext::new(0, &mut rng);
    let flits = Flit::packet_flits(
        PacketId(7),
        Coord::new(1, 1),
        Coord::new(3, 3),
        0,
        6, // longer than the 4-deep buffer
        AxisOrder::Xy,
    );
    for f in &flits[..4] {
        assert!(core.try_inject(&mut slab.window(0), *f, &mut ctx));
    }
    assert!(
        !core.try_inject(&mut slab.window(0), flits[4], &mut ctx),
        "buffer full: fifth flit must wait"
    );
}

#[test]
fn ready_for_new_packet_rules() {
    let desc = VcDescriptor::new(VcAdmission::Any, 4);
    let mut vc = Vc::new(desc, Direction::West, 0, 0);
    // `ready_for_new_packet` takes the ring-emptiness bit the caller
    // reads from the slab (an empty, idle VC can accept a new head).
    assert!(vc.ready_for_new_packet(true));
    vc.disabled = true;
    assert!(!vc.ready_for_new_packet(true));
    vc.disabled = false;
    vc.state = VcState::WaitingVa { next_route: Direction::East };
    assert!(!vc.ready_for_new_packet(true));
}

#[test]
#[should_panic(expected = "link map references VC")]
fn core_rejects_bad_link_map() {
    let cfg = RouterConfig::paper(RouterKind::Generic, RoutingKind::Xy);
    let computer = RouteComputer::new(RoutingKind::Xy, mesh());
    let mut link_map: [Vec<usize>; 5] = Default::default();
    link_map[0].push(3); // out of range
    let _ = RouterCore::new(Coord::new(0, 0), cfg, computer, vec![], link_map);
}
