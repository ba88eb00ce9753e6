//! The admission masks against the definition they replace,
//! `VcDescriptor::accepts`: every VC list the three routers publish,
//! fault-free and after each fault reaction that rewrites capacities,
//! on every arrival side and for every request field combination.

use noc_core::{
    Axis, AxisOrder, ComponentFault, Coord, Direction, FaultComponent, MeshConfig, RouterConfig,
    RouterKind, RoutingKind, Topology, TopologyConfig, VcDescriptor, VcRequest,
};
use noc_router::{AdmissionMasks, Router};

const MESH: MeshConfig = MeshConfig::new(4, 4);

/// One router per published layout: generic on a mesh and on a torus
/// (dateline classes), Path-Sensitive (quadrant path sets) and RoCo's
/// Table 1 under every routing algorithm. Each comes fault-free and
/// after every fault whose reaction rewrites VC capacities: node and
/// module blocking (capacity 0) and Virtual Queuing (capacity 1).
fn layouts() -> Vec<(String, Router)> {
    use RoutingKind::{Adaptive, AdaptiveOddEven, Xy, XyYx};
    let torus = TopologyConfig::Torus.resolve(MESH).expect("a 4x4 torus resolves");
    let mut shapes = vec![
        (RouterKind::Generic, Xy, Topology::from(MESH)),
        (RouterKind::Generic, Xy, torus),
        (RouterKind::PathSensitive, Xy, Topology::from(MESH)),
        (RouterKind::PathSensitive, XyYx, Topology::from(MESH)),
    ];
    for routing in [Xy, XyYx, Adaptive, AdaptiveOddEven] {
        shapes.push((RouterKind::RoCo, routing, Topology::from(MESH)));
    }
    let mut faults = vec![None];
    for axis in [Axis::X, Axis::Y] {
        faults.push(Some(ComponentFault::new(FaultComponent::Crossbar, axis)));
        faults.extend((0..6).map(|vc| Some(ComponentFault::buffer(axis, vc))));
    }
    let mut out = Vec::new();
    for (kind, routing, topology) in shapes {
        for fault in &faults {
            let cfg = RouterConfig::paper(kind, routing);
            let mut router = Router::new(Coord::new(1, 1), cfg, topology.clone());
            if let Some(f) = fault {
                router.inject_fault(*f);
            }
            out.push((format!("{kind:?}/{routing}/{topology:?} {fault:?}"), router));
        }
    }
    out
}

/// The `accepts` oracle as a VC word.
fn accepted(descs: &[VcDescriptor], req: &VcRequest) -> u64 {
    descs.iter().enumerate().filter(|(_, d)| d.accepts(req)).fold(0, |w, (i, _)| w | 1 << i)
}

/// Every request a VC on `side` can see: all outputs but the U-turn
/// (which `VcClass::derive` rejects), both orders, every quadrant mask
/// and both dateline classes.
fn requests(side: Direction) -> impl Iterator<Item = VcRequest> {
    Direction::ALL.into_iter().filter(move |&out| out != side).flat_map(move |out_dir| {
        [AxisOrder::Xy, AxisOrder::Yx].into_iter().flat_map(move |order| {
            (0u8..16).flat_map(move |quadrant_mask| {
                [false, true].map(|dateline| VcRequest {
                    in_dir: side,
                    out_dir,
                    order,
                    quadrant_mask,
                    dateline,
                })
            })
        })
    })
}

#[test]
fn derived_masks_match_accepts_on_every_side() {
    for (name, router) in layouts() {
        for side in Direction::ALL {
            let descs = router.core.link_descriptors(side);
            let masks = AdmissionMasks::derive(side, descs);
            for req in requests(side) {
                assert_eq!(masks.admissible(&req), accepted(descs, &req), "{name}: {req:?}");
            }
        }
    }
}

#[test]
fn output_port_admission_and_credit_score_match_accepts() {
    let cfg = RouterConfig::paper(RouterKind::Generic, RoutingKind::Xy);
    let mut upstream = Router::new(Coord::new(1, 1), cfg, MESH);
    for (name, router) in layouts() {
        for side in Direction::MESH {
            let descs = router.core.link_descriptors(side);
            let dir = side.opposite();
            upstream.core.connect_output(dir, descs);
            let port = upstream.core.outputs[dir.index()].as_ref().expect("just wired");
            assert_eq!(port.side(), side);
            for req in requests(side) {
                let want = accepted(descs, &req);
                assert_eq!(port.admissible(&req), want, "{name}: {req:?}");
                // A freshly wired port: full credits, every VC free.
                let score: i64 =
                    descs.iter().filter(|d| d.accepts(&req)).map(|d| d.capacity as i64 + 1).sum();
                assert_eq!(port.credit_score(&req), score, "{name}: {req:?}");
            }
        }
    }
}
