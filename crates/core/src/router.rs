//! The one router type: the shared two-stage VC pipeline
//! ([`RouterCore`]) plus the architecture's switch allocation.
//!
//! The three evaluated microarchitectures differ only in their VC
//! layout, in how the crossbar is split up and allocated, and in how
//! they react to a hard fault (Table 3):
//!
//! * **Generic** (Fig 1a): a monolithic 5×5 crossbar, `vcs_per_port`
//!   `Any`-admission VCs per input port, separable input-first switch
//!   allocation, and ejection through the crossbar's PE column (no
//!   Early Ejection).
//! * **Path-Sensitive** (Kim et al., DAC 2005; §2): arriving flits are
//!   grouped into four destination-quadrant *path sets* (NE, NW, SE,
//!   SW), each holding three VCs — one per possible arrival direction
//!   (the two compatible mesh ports plus the local PE). A 4×4
//!   decomposed crossbar connects the sets to the four outputs; every
//!   output is shared by exactly two sets, producing the chained
//!   arbitration dependency that caps its non-blocking probability at
//!   2/24 (Table 2). Look-ahead routing and arrival-time ejection are
//!   used as in the original design.
//! * **RoCo** (§3): the Table-1 VCs on two decoupled Row/Column modules
//!   with Mirroring-Effect allocation (see `roco`).
//!
//! Generic and Path-Sensitive have unified control, so any hard fault
//! blocks the whole node (§4.1); RoCo recycles hardware per module.

use crate::engine::{BitIds, RouterCore, Vc};
use crate::roco::{table1_vcs, Modules};
use noc_arbiter::{SeparableAllocator, SwitchGrant, SwitchRequest};
use noc_core::{
    Axis, ComponentFault, Coord, Direction, ModuleHealth, RouterConfig, RouterKind, RouterOutputs,
    SlabWindow, StepContext, StepReport, Topology, TopologyOps, VcAdmission, VcClass, VcDescriptor,
};
use noc_fault::{reaction, Reaction};
use noc_routing::{Quadrant, RouteComputer};
use std::collections::BTreeMap;

/// A wormhole-switched virtual-channel router of any of the three
/// evaluated architectures, driven cycle by cycle by the network
/// simulator.
///
/// Only [`Router::new`], [`Router::step`] and [`Router::inject_fault`]
/// depend on the architecture; everything else lives on the public
/// [`Router::core`].
///
/// # Contract
///
/// * Everything arriving at the start of a cycle is handed over first
///   ([`RouterCore::deliver_flit`], [`RouterCore::deliver_credit`]),
///   then local traffic ([`RouterCore::try_inject`]), then
///   [`Router::step`] runs exactly once.
/// * `step` is deterministic given the delivered inputs and the context
///   RNG.
/// * Flits emitted by `step` arrive at the neighbour after the link
///   delay; credits likewise.
/// * Flit buffers live outside the router, in the network-wide
///   [`noc_core::FlitSlab`]: every method that touches buffered flits
///   receives this router's [`SlabWindow`] (or a read-only
///   [`noc_core::SlabView`]), whose ring `r` holds internal VC `r`'s
///   flits. The ring layout must match [`RouterCore::ring_capacities`].
#[derive(Debug)]
pub struct Router {
    /// The shared pipeline: VC state, credits, route computation, VA,
    /// switch traversal, counters and fault bookkeeping.
    pub core: RouterCore,
    sa: SwitchAlloc,
}

/// How the crossbar is split up and allocated. Stored inline (the
/// simulator keeps a `Vec<Router>`), so stepping a router needs no
/// pointer chase from the vector spine; the padding a separable router
/// carries is small next to its [`RouterCore`].
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SwitchAlloc {
    /// Generic and Path-Sensitive: one separable allocator.
    Separable(Separable),
    /// RoCo: two 2×2 Mirror modules.
    Modules(Modules),
}

impl SwitchAlloc {
    /// The RoCo modules, which module-scoped fault reactions act on.
    ///
    /// # Panics
    ///
    /// Panics on a separable crossbar: unified-control routers block the
    /// whole node instead (`noc_fault::reaction`).
    fn modules(&self) -> &Modules {
        match self {
            SwitchAlloc::Modules(m) => m,
            SwitchAlloc::Separable(_) => unreachable!("only RoCo reacts per module"),
        }
    }
}

/// One separable input-first allocator over a crossbar whose inputs
/// are equal VC groups: the input ports (Generic) or the path sets
/// (Path-Sensitive). VC ids are group-major, so VC `id` is slot
/// `id % vcs_per_input` of input `id / vcs_per_input`.
#[derive(Debug)]
struct Separable {
    allocator: SeparableAllocator,
    vcs_per_input: usize,
    /// Reusable SA request/grant scratch (cleared every step).
    requests: Vec<SwitchRequest>,
    grants: Vec<SwitchGrant>,
}

impl Separable {
    fn new(inputs: usize, outputs: usize, vcs_per_input: usize) -> Self {
        Separable {
            allocator: SeparableAllocator::new(inputs, outputs, vcs_per_input),
            vcs_per_input,
            // Pre-sized to their per-cycle worst case (one request per
            // input VC): recycled scratch must never grow on the hot
            // path, even when the first busy cycle lands late in a run.
            requests: Vec::with_capacity(inputs * vcs_per_input),
            grants: Vec::with_capacity(inputs * vcs_per_input),
        }
    }

    /// One allocation pass over the swept VCs. Returns whether a tail
    /// departure freed a downstream VC.
    fn allocate(&mut self, core: &mut RouterCore, slab: &mut SlabWindow<'_>, sweep: u64) -> bool {
        let v = self.vcs_per_input;
        // Only swept VCs can be SA candidates (a candidate needs a
        // non-empty Active VC). Ascending ids visit the requests in
        // input order.
        self.requests.clear();
        for vc_id in BitIds(sweep) {
            if let Some(want) = core.sa_candidate(&slab.as_view(), vc_id) {
                let (input, vc) = (vc_id / v, vc_id % v);
                self.requests.push(SwitchRequest { input, output: want.index(), vc });
            }
        }
        let effort = self.allocator.allocate_into(&self.requests, &mut self.grants);
        core.counters.sa_local_arbs += effort.local_ops;
        core.counters.sa_global_arbs += effort.global_ops;
        let mut freed = false;
        let mut granted = 0u64;
        for g in &self.grants {
            let vc_id = g.input * v + g.vc;
            freed |= core.apply_grant(slab, vc_id);
            granted |= 1 << vc_id;
        }
        // Fig 3 contention accounting: one observation per eligible VC
        // request, classified by its arrival link's axis ("row input" =
        // the East/West ports, "column input" = North/South); injection
        // VCs are not row/column inputs and are skipped.
        for r in &self.requests {
            let vc_id = r.input * v + r.vc;
            let Some(axis) = core.vcs[vc_id].input_side.axis() else { continue };
            core.record_contention(axis, 1, granted >> vc_id & 1);
        }
        freed
    }
}

/// The two mesh arrival ports whose traffic can be destined for `q`
/// (plus `Local`, which always can).
fn arrivals_of(q: Quadrant) -> [Direction; 2] {
    // A flit moving North arrives on the South port, etc. The flits
    // that can still need quadrant q's outputs are those moving one of
    // q's two directions.
    let [a, b] = q.directions();
    [a.opposite(), b.opposite()]
}

/// A router's VC layout under construction: the VCs and the per-link
/// DEMUX map.
struct Layout {
    vcs: Vec<Vc>,
    link_map: [Vec<usize>; 5],
}

impl Layout {
    fn new(cfg: &RouterConfig) -> Self {
        Layout { vcs: Vec::with_capacity(cfg.internal_vcs()), link_map: Default::default() }
    }

    /// Appends a VC, fed by its descriptor's arrival link, to crossbar
    /// input `group`, and returns its id.
    fn add(&mut self, desc: VcDescriptor, group: usize) -> usize {
        let side = desc.arrival.expect("every VC is fed by exactly one input link");
        let id = self.vcs.len();
        let link_index = self.link_map[side.index()].len() as u8;
        self.link_map[side.index()].push(id);
        self.vcs.push(Vc::new(desc, side, link_index, group as u8));
        id
    }
}

impl Router {
    /// Builds a router of `cfg.router`'s architecture at `coord` on
    /// `topo` (a [`Topology`], or a [`noc_core::MeshConfig`] for a plain
    /// mesh).
    ///
    /// On wraparound topologies (torus, circulant) the generic router's
    /// non-Local input VCs are partitioned into dateline classes: VC 1
    /// holds packets that crossed the current ring's dateline, every
    /// other VC holds those that have not. The Local (injection) side is
    /// unfiltered — freshly injected packets have crossed nothing yet,
    /// and the class only matters once the packet is buffered on a ring
    /// channel. Path-Sensitive and RoCo reject wraparound topologies:
    /// quadrant path sets and the Table-1 layout assume a bounded mesh.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation or the topology
    /// rejects the (router, routing, VC) combination.
    pub fn new(coord: Coord, cfg: RouterConfig, topo: impl Into<Topology>) -> Self {
        let topo = topo.into();
        cfg.validate().expect("invalid router configuration");
        topo.check_support(cfg.router, cfg.routing, cfg.vcs_per_port as usize)
            .expect("topology rejects this router configuration");
        let v = cfg.vcs_per_port as usize;
        let depth = cfg.buffer_depth;
        let mut layout = Layout::new(&cfg);
        let sa = match cfg.router {
            RouterKind::Generic => {
                let dateline_vcs = topo.needs_dateline_vcs();
                for side in Direction::ALL {
                    for i in 0..v {
                        let mut desc =
                            VcDescriptor::new(VcAdmission::Any, depth).with_arrival(side);
                        if dateline_vcs && side != Direction::Local {
                            desc = desc.with_dateline(i == 1);
                        }
                        layout.add(desc, side.index());
                    }
                }
                SwitchAlloc::Separable(Separable::new(5, 5, v))
            }
            RouterKind::PathSensitive => {
                assert_eq!(v, 3, "a path set holds one VC per arrival group");
                for q in Quadrant::ALL {
                    let [a, b] = arrivals_of(q);
                    for side in [a, b, Direction::Local] {
                        let desc = VcDescriptor::new(VcAdmission::Any, depth)
                            .with_quadrant(q.index() as u8)
                            .with_arrival(side);
                        layout.add(desc, q.index());
                    }
                }
                SwitchAlloc::Separable(Separable::new(4, 4, v))
            }
            RouterKind::RoCo => {
                let mut port_vcs: [Vec<usize>; 4] = Default::default();
                for spec in table1_vcs(&cfg) {
                    let port = spec.port as usize;
                    port_vcs[port].push(layout.add(spec.desc, port));
                }
                let injection_vcs =
                    layout.link_map[Direction::Local.index()].iter().fold(0, |m, &id| m | 1 << id);
                SwitchAlloc::Modules(Modules::new(port_vcs, v, injection_vcs))
            }
        };
        debug_assert!(
            !matches!(sa, SwitchAlloc::Separable(_))
                || layout.vcs.iter().enumerate().all(|(id, vc)| vc.group as usize == id / v),
            "a separable crossbar's VC ids must be group-major"
        );
        let computer = RouteComputer::on(cfg.routing, topo);
        let core = RouterCore::new(coord, cfg, computer, layout.vcs, layout.link_map);
        Router { core, sa }
    }

    /// Advances the router one cycle: VA, SA and switch traversal.
    ///
    /// `scan` is a superset of the internal VCs that may be busy (bit
    /// `v` = VC `v`). The step scans those VCs once, and VA and SA then
    /// visit only the ones found busy: a VC outside the mask is empty
    /// and `Idle` and stays so for the whole step, so skipping it is
    /// bit-exact. The `Soa` kernel passes [`RouterCore::hot_mask`]; the
    /// Reference kernel passes [`noc_core::ALL_VCS`], which makes VA and
    /// SA sweep every VC as an independent oracle for the busy-mask
    /// logic.
    ///
    /// Everything leaving the router this cycle is written into `out`,
    /// a caller-owned scratch buffer that the router clears on entry —
    /// the steady-state hot loop performs no heap allocation this way.
    pub fn step(
        &mut self,
        ctx: &mut StepContext<'_>,
        slab: &mut SlabWindow<'_>,
        out: &mut RouterOutputs,
        scan: u64,
    ) -> StepReport {
        out.clear();
        let core = &mut self.core;
        let (busy, sweep) = core.hot_open(&slab.as_view(), scan);
        core.flush(out);
        if core.node_dead() {
            return core.hot_close(busy, sweep);
        }
        let va_activity = core.va_stage(ctx, slab, sweep);
        let freed = match &mut self.sa {
            SwitchAlloc::Separable(s) => s.allocate(core, slab, sweep),
            SwitchAlloc::Modules(m) => m.allocate(core, slab, sweep, va_activity),
        };
        if freed {
            // Tail departures freed downstream VCs: a further VA
            // iteration lets waiting heads claim them without a bubble.
            // The sweep stays a sound superset: no VC gains flits
            // mid-step.
            core.va_stage(ctx, slab, sweep);
        }
        core.hot_close(busy, sweep)
    }

    /// Injects a hardware fault (§4), reacting as
    /// [`noc_fault::reaction`] prescribes for this architecture. May be
    /// called mid-run; the simulator follows up with
    /// [`RouterCore::purge_faulted`] so in-flight flits caught at the
    /// afflicted component are discarded or fragmented per §4.1.
    pub fn inject_fault(&mut self, fault: ComponentFault) {
        let core = &mut self.core;
        let module = if fault.axis == Axis::X { 0 } else { 1 };
        match reaction(core.cfg.router, fault.component) {
            Reaction::NodeBlocked => {
                // Unified control: any hard fault takes the whole node
                // off-line (§4.1: "a hard failure may cause the entire
                // node to be taken off-line, since the operation of the
                // router is unified").
                core.module_health = [ModuleHealth::Dead; 2];
                for vc in &mut core.vcs {
                    vc.disabled = true;
                    vc.desc.capacity = 0;
                }
                core.refresh_link_descs();
            }
            Reaction::ModuleBlocked => {
                *core.module_health_mut(fault.axis) = ModuleHealth::Dead;
                for vc in self.sa.modules().module_vcs(module) {
                    core.vcs[vc].disabled = true;
                    core.vcs[vc].desc.capacity = 0;
                }
                core.refresh_link_descs();
            }
            Reaction::DoubleRouting => {
                core.rc_ok = false;
            }
            Reaction::VirtualQueuing => {
                // §4.1/Fig 6: the faulty buffer is bypassed — flits are
                // physically stored at the previous node and virtually
                // queued/arbitrated here through the bypass register.
                // Model: the VC stays in service with an effective
                // depth of one flit (the bypass latch), so it streams
                // at the credit round-trip rate: degraded, never lost.
                let pool: Vec<usize> = self.sa.modules().module_vcs(module).collect();
                let vc = pool[fault.vc as usize % pool.len()];
                core.vcs[vc].desc.capacity = 1;
                if *core.module_health_mut(fault.axis) == ModuleHealth::Healthy {
                    *core.module_health_mut(fault.axis) = ModuleHealth::Degraded;
                }
                core.refresh_link_descs();
            }
            Reaction::SaOffload => {
                core.sa_degraded[module] = true;
                if *core.module_health_mut(fault.axis) == ModuleHealth::Healthy {
                    *core.module_health_mut(fault.axis) = ModuleHealth::Degraded;
                }
            }
        }
    }

    /// Lifetime flit writes per Table-1 buffer class — quantifies the
    /// §3.1 utilization claims (e.g. "the injection channel Injxy is
    /// much more frequently used than Injyx" under XY routing). Empty
    /// for the generic and Path-Sensitive routers, whose VCs admit any
    /// class.
    pub fn class_utilization(&self) -> BTreeMap<VcClass, u64> {
        let mut map = BTreeMap::new();
        for vc in &self.core.vcs {
            if let VcAdmission::Class(c) = vc.desc.admission {
                *map.entry(c).or_insert(0) += vc.writes;
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{MeshConfig, RoutingKind};

    #[test]
    fn arrivals_match_quadrant_semantics() {
        // NE-destined flits move North (arriving on the South port) or
        // East (arriving on the West port).
        let a = arrivals_of(Quadrant::Ne);
        assert!(a.contains(&Direction::South));
        assert!(a.contains(&Direction::West));
        let a = arrivals_of(Quadrant::Sw);
        assert!(a.contains(&Direction::North));
        assert!(a.contains(&Direction::East));
    }

    #[test]
    fn each_mesh_link_exposes_two_vcs() {
        let cfg = RouterConfig::paper(RouterKind::PathSensitive, RoutingKind::Xy);
        let r = Router::new(Coord::new(3, 3), cfg, MeshConfig::new(8, 8));
        for d in Direction::MESH {
            assert_eq!(r.core.link_descriptors(d).len(), 2, "{d}");
        }
        assert_eq!(r.core.link_descriptors(Direction::Local).len(), 4);
    }
}
