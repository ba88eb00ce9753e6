//! The per-cycle interface between a router and the network simulator.
//!
//! The router itself (`noc_router::Router`, one concrete type for all
//! three architectures) lives downstream; this module holds what both
//! sides exchange. The contract encodes the paper's two-stage pipeline:
//! flits and credits delivered at the start of a cycle may be acted upon
//! by the same cycle's allocation stage, and `Router::step` writes
//! everything that leaves the router during that cycle into
//! [`RouterOutputs`] (flits begin their single-cycle link traversal when
//! `step` emits them).

use crate::flit::{Cycle, Flit};
use crate::geometry::{Axis, Direction};
use crate::rng::{SmallRng, SplitMix64};
use crate::vc::Credit;

/// Sentinel VC index used when transferring a flit that will be handled
/// by Early Ejection downstream (no downstream VC is allocated).
pub const EJECT_VC: u8 = u8::MAX;

/// Health of one RoCo module (or of a whole generic/Path-Sensitive node,
/// which degrades as a unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleHealth {
    /// Fully functional.
    Healthy,
    /// Operating with a Hardware-Recycling workaround (§4): reduced
    /// throughput but correct.
    Degraded,
    /// Isolated after a critical or router-centric fault.
    Dead,
}

impl ModuleHealth {
    /// `true` unless the module is [`ModuleHealth::Dead`].
    pub fn is_operational(self) -> bool {
        self != ModuleHealth::Dead
    }
}

/// Operational state of a node, tracked by neighbouring routers through
/// handshake signals (§4.1) and consulted by look-ahead routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStatus {
    /// Row (East–West) module health. For generic and Path-Sensitive
    /// routers both fields move together: any hard fault kills the node.
    pub row: ModuleHealth,
    /// Column (North–South) module health.
    pub col: ModuleHealth,
    /// Whether the Routing Computation unit works; when `false`,
    /// downstream neighbours must perform Double Routing (§4.1, Fig 5).
    pub rc_ok: bool,
}

impl NodeStatus {
    /// A fully healthy node.
    pub fn healthy() -> Self {
        NodeStatus { row: ModuleHealth::Healthy, col: ModuleHealth::Healthy, rc_ok: true }
    }

    /// Whether both modules are dead (the whole node is off-line).
    pub fn node_dead(&self) -> bool {
        self.row == ModuleHealth::Dead && self.col == ModuleHealth::Dead
    }

    /// Health of the module serving `axis`.
    pub fn module(&self, axis: Axis) -> ModuleHealth {
        match axis {
            Axis::X => self.row,
            Axis::Y => self.col,
        }
    }

    /// Whether a flit requiring output `dir` *at this node* can be
    /// served. Ejection survives single-module failures thanks to Early
    /// Ejection, but not a whole-node failure.
    pub fn can_serve_output(&self, dir: Direction) -> bool {
        match dir.axis() {
            Some(a) => self.module(a).is_operational(),
            None => !self.node_dead(),
        }
    }
}

impl Default for NodeStatus {
    fn default() -> Self {
        NodeStatus::healthy()
    }
}

/// Stream selector for [`router_rng`]: draws consumed inside
/// `Router::step`.
pub const RNG_STREAM_STEP: u64 = 0;

/// Stream selector for [`router_rng`]: draws consumed inside
/// `RouterCore::try_inject`.
pub const RNG_STREAM_INJECT: u64 = 1;

/// Derives the counter-based RNG stream a router draws from during one
/// cycle of one phase.
///
/// Both kernels (Reference, Soa) seed a fresh [`SmallRng`] from
/// `(master_seed, router_index, cycle, stream)` before calling into a
/// router, so the numbers a router sees depend only on *which router*
/// is stepping on *which cycle* — never on how many other routers
/// stepped first or which routers the wake-set skipped. That
/// independence is what lets `SimResults::digest()` equality hold
/// across kernels.
///
/// The mixer is a chain of [`SplitMix64::mix`] finalizers: each counter is
/// absorbed with its own odd offset and avalanched before the next, so
/// nearby `(router, cycle)` pairs land in unrelated streams.
pub fn router_rng(master_seed: u64, router_index: usize, cycle: Cycle, stream: u64) -> SmallRng {
    let mix = SplitMix64::mix;
    let mut h = mix(master_seed ^ 0x9E37_79B9_7F4A_7C15);
    h = mix(h ^ (router_index as u64).wrapping_add(0xA076_1D64_78BD_642F));
    h = mix(h ^ cycle.wrapping_add(0xE703_7ED1_A0B4_28DB));
    h = mix(h ^ stream.wrapping_add(0x8EBC_6AF0_9C88_C6E3));
    SmallRng::seed_from_u64(h)
}

/// Per-cycle context handed to `Router::step`.
#[derive(Debug)]
pub struct StepContext<'a> {
    /// Current simulation cycle.
    pub cycle: Cycle,
    /// Deterministic RNG (arbitration tie-breaks, XY-YX coin flips,
    /// adaptive selection). The simulator hands each router its own
    /// counter-based stream from [`router_rng`], so draws are
    /// independent of step order.
    pub rng: &'a mut SmallRng,
    /// Operational status of the four mesh neighbours (`None` at a mesh
    /// boundary), indexed by [`Direction::index`].
    pub neighbors: [Option<NodeStatus>; 4],
    /// Network-wide usable-link mask built from the published statuses
    /// (ISSUE 8). `None` when fault-aware routing is disabled — routers
    /// then behave exactly as before the mask existed.
    pub mask: Option<&'a crate::mask::LinkMask>,
}

impl<'a> StepContext<'a> {
    /// Creates a context; `neighbors` defaults to all-absent and `mask`
    /// to absent (fault-oblivious routing).
    pub fn new(cycle: Cycle, rng: &'a mut SmallRng) -> Self {
        StepContext { cycle, rng, neighbors: [None; 4], mask: None }
    }

    /// Status of the neighbour reached through `dir`.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is [`Direction::Local`].
    pub fn neighbor_status(&self, dir: Direction) -> Option<NodeStatus> {
        assert!(dir != Direction::Local, "the local PE has no neighbour status");
        self.neighbors[dir.index()]
    }
}

/// Everything leaving a router in one cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterOutputs {
    /// Flits entering their output links: `(output direction, downstream
    /// input-VC index or [`EJECT_VC`], flit)`.
    pub flits: Vec<(Direction, u8, Flit)>,
    /// Credits returned to upstream neighbours: `(input side the credit
    /// leaves through, credit)`.
    pub credits: Vec<(Direction, Credit)>,
    /// Flits delivered to the local PE this cycle.
    pub ejected: Vec<Flit>,
    /// Flits discarded because a fault made their route unserviceable
    /// (§4.1: "any fragmented packets are simply discarded").
    pub dropped: Vec<Flit>,
}

impl RouterOutputs {
    /// An empty output set.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when nothing left the router.
    pub fn is_empty(&self) -> bool {
        self.flits.is_empty()
            && self.credits.is_empty()
            && self.ejected.is_empty()
            && self.dropped.is_empty()
    }

    /// Empties every list while keeping the allocations, so one
    /// `RouterOutputs` can serve as a reusable scratch buffer across
    /// routers and cycles (`Router::step` calls this on entry).
    pub fn clear(&mut self) {
        self.flits.clear();
        self.credits.clear();
        self.ejected.clear();
        self.dropped.clear();
    }
}

/// The scan mask that makes `Router::step` visit every VC: the
/// Reference kernel's setting, which never consults the router's
/// persistent `RouterCore::hot_mask`.
pub const ALL_VCS: u64 = u64::MAX;

/// What one `Router::step` reports back to the simulator, so the
/// caller needs no follow-up `RouterCore::occupancy` /
/// `RouterCore::is_quiescent` sweeps.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Flits buffered after the step (same value `occupancy()` would
    /// return).
    pub occupancy: usize,
    /// Whether the router ended the step quiescent (same value
    /// `is_quiescent()` would return).
    pub quiescent: bool,
    /// Busy-VC mask: bit `v` set means internal VC `v` was non-idle at
    /// the start of the step (non-empty queue, non-`Idle` state, or
    /// mid-drop).
    pub busy_vcs: u64,
}

/// The six fundamental router components of §4.1's fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultComponent {
    /// Routing Computation unit (per-packet, message-centric,
    /// non-critical): recoverable by Double Routing.
    RoutingComputation,
    /// A VC buffer (per-flit, message-centric): recoverable through the
    /// bypass path / Virtual Queuing.
    VcBuffer,
    /// Virtual-channel allocator (per-packet, router-centric): forces
    /// module isolation.
    VaArbiter,
    /// Switch allocator (per-flit, router-centric): recoverable by
    /// offloading onto idle VA arbiters.
    SaArbiter,
    /// Crossbar (per-flit, critical pathway): forces module isolation.
    Crossbar,
    /// Input MUX/DEMUX (per-flit, critical pathway): forces module
    /// isolation.
    MuxDemux,
}

impl FaultComponent {
    /// All components, in Table 3 order.
    pub const ALL: [FaultComponent; 6] = [
        FaultComponent::RoutingComputation,
        FaultComponent::VcBuffer,
        FaultComponent::VaArbiter,
        FaultComponent::SaArbiter,
        FaultComponent::Crossbar,
        FaultComponent::MuxDemux,
    ];
}

/// A permanent hard fault affecting one component instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentFault {
    /// Which component failed.
    pub component: FaultComponent,
    /// Which RoCo module the instance belongs to (Row = X, Column = Y).
    /// Generic and Path-Sensitive routers ignore this: any hard fault
    /// blocks the whole node (§4.1).
    pub axis: Axis,
    /// For [`FaultComponent::VcBuffer`], the index of the failed VC
    /// within the afflicted module's buffer pool; ignored otherwise.
    pub vc: u8,
}

impl ComponentFault {
    /// A fault in `component` within the module serving `axis`.
    pub fn new(component: FaultComponent, axis: Axis) -> Self {
        ComponentFault { component, axis, vc: 0 }
    }

    /// A buffer fault targeting a specific VC.
    pub fn buffer(axis: Axis, vc: u8) -> Self {
        ComponentFault { component: FaultComponent::VcBuffer, axis, vc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_status_serves_everything() {
        let s = NodeStatus::healthy();
        assert!(!s.node_dead());
        for d in Direction::ALL {
            assert!(s.can_serve_output(d));
        }
    }

    #[test]
    fn row_dead_blocks_only_x_outputs() {
        let s = NodeStatus { row: ModuleHealth::Dead, ..NodeStatus::healthy() };
        assert!(!s.can_serve_output(Direction::East));
        assert!(!s.can_serve_output(Direction::West));
        assert!(s.can_serve_output(Direction::North));
        assert!(s.can_serve_output(Direction::South));
        assert!(s.can_serve_output(Direction::Local), "early ejection survives module loss");
        assert!(!s.node_dead());
    }

    #[test]
    fn node_dead_blocks_ejection_too() {
        let s = NodeStatus { row: ModuleHealth::Dead, col: ModuleHealth::Dead, rc_ok: true };
        assert!(s.node_dead());
        assert!(!s.can_serve_output(Direction::Local));
    }

    #[test]
    fn degraded_module_is_operational() {
        assert!(ModuleHealth::Degraded.is_operational());
        assert!(ModuleHealth::Healthy.is_operational());
        assert!(!ModuleHealth::Dead.is_operational());
    }

    #[test]
    fn step_context_neighbor_lookup() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = StepContext::new(5, &mut rng);
        assert_eq!(ctx.cycle, 5);
        assert_eq!(ctx.neighbor_status(Direction::North), None);
        ctx.neighbors[Direction::East.index()] = Some(NodeStatus::healthy());
        assert!(ctx.neighbor_status(Direction::East).is_some());
    }

    #[test]
    #[should_panic(expected = "no neighbour status")]
    fn step_context_rejects_local() {
        let mut rng = SmallRng::seed_from_u64(0);
        let ctx = StepContext::new(0, &mut rng);
        let _ = ctx.neighbor_status(Direction::Local);
    }

    #[test]
    fn outputs_empty_check() {
        let o = RouterOutputs::new();
        assert!(o.is_empty());
    }

    #[test]
    fn router_rng_streams_are_deterministic_and_distinct() {
        let draw = |seed, router, cycle, stream| router_rng(seed, router, cycle, stream).next_u64();
        // Same counters ⇒ same stream, independent of call order.
        assert_eq!(draw(7, 3, 100, RNG_STREAM_STEP), draw(7, 3, 100, RNG_STREAM_STEP));
        // Any counter change ⇒ a different stream.
        let base = draw(7, 3, 100, RNG_STREAM_STEP);
        assert_ne!(base, draw(8, 3, 100, RNG_STREAM_STEP));
        assert_ne!(base, draw(7, 4, 100, RNG_STREAM_STEP));
        assert_ne!(base, draw(7, 3, 101, RNG_STREAM_STEP));
        assert_ne!(base, draw(7, 3, 100, RNG_STREAM_INJECT));
        // Adjacent (router, cycle) pairs must not collide via linear
        // cancellation: (r, c) vs (r+1, c-1).
        assert_ne!(draw(7, 3, 100, RNG_STREAM_STEP), draw(7, 4, 99, RNG_STREAM_STEP));
    }

    #[test]
    fn fault_constructors() {
        let f = ComponentFault::new(FaultComponent::Crossbar, Axis::Y);
        assert_eq!(f.component, FaultComponent::Crossbar);
        assert_eq!(f.axis, Axis::Y);
        let b = ComponentFault::buffer(Axis::X, 2);
        assert_eq!(b.component, FaultComponent::VcBuffer);
        assert_eq!(b.vc, 2);
    }
}
