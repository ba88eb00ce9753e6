//! Shared router machinery: virtual-channel state machines, the
//! upstream view of downstream buffers, look-ahead routing + VA, switch
//! traversal, injection, and fault bookkeeping.
//!
//! The three router architectures (generic, Path-Sensitive, RoCo) share
//! [`RouterCore`]; [`crate::Router`] adds only their VC layout, switch
//! allocation and fault reaction, and callers use this core directly
//! for everything else. The per-cycle contract follows the paper's
//! two-stage pipeline: stage 1 = buffer write + look-ahead RC + VA +
//! (speculative) SA, stage 2 = switch traversal, then one cycle of link
//! propagation handled by the network.

use noc_arbiter::RoundRobinArbiter;
use noc_core::{
    ActivityCounters, Axis, ContentionCounters, Coord, Cycle, Direction, Flit, LinkMask,
    ModuleHealth, NodeStatus, PacketId, RouterConfig, RouterOutputs, SlabView, SlabWindow,
    StepContext, StepReport, VcClass, VcDescriptor, VcRequest, ALL_VCS, EJECT_VC, MAX_INTERNAL_VCS,
};
use noc_routing::{quadrant_mask, DirSet, RouteComputer};

/// Allocation state of one virtual channel's resident packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet being processed.
    Idle,
    /// Head seen, but route computation is delayed one cycle (Double
    /// Routing penalty when the upstream RC unit is faulty, §4.1).
    RoutePending {
        /// Output at the next router, already computed.
        next_route: Direction,
        /// Cycle at which VA may begin.
        ready_at: Cycle,
    },
    /// Head waiting for a downstream virtual channel.
    WaitingVa {
        /// Output at the next router (look-ahead route).
        next_route: Direction,
    },
    /// Blocked at a fault: the route requires a dead node/module and
    /// this architecture has no graceful-discard handshake. The packet
    /// wedges, back-pressure builds around the fault (the "excessive
    /// congestion around the faulty nodes" of §5.4), and after
    /// [`RouterConfig::block_timeout`] cycles the router's watchdog
    /// discards it.
    Blocked {
        /// Cycle the packet wedged.
        since: Cycle,
    },
    /// Downstream VC allocated; flits stream through SA/ST.
    Active {
        /// Output port at this router.
        out: Direction,
        /// Downstream input-VC index (or [`EJECT_VC`]).
        dvc: u8,
        /// Output at the next router, stamped on departing flits.
        next_route: Direction,
        /// First cycle the head may bid for the switch. Equal to the
        /// VA-grant cycle under speculative SA (§3.1); one later in the
        /// non-speculative 3-stage ablation.
        sa_from: Cycle,
    },
}

/// Extra slab ring slots beyond a VC's nominal capacity: headroom for
/// poison tails, which may transiently exceed the credited capacity
/// (this is the `+2` credit slop the `VecDeque` implementation hid in
/// `Vc::with_capacity`).
pub const RING_SLOP: u32 = 2;

/// One virtual channel's state machine. The flit buffer itself lives in
/// the network-wide [`noc_core::FlitSlab`] (ISSUE 10): ring `vc_id` of
/// this router's [`SlabWindow`] holds the flits, fixed at
/// `nominal_capacity + RING_SLOP` slots for the router's lifetime.
#[derive(Debug, Clone)]
pub struct Vc {
    /// Static descriptor (admission rules, capacity).
    pub desc: VcDescriptor,
    /// Link this VC is fed from (`Local` for injection VCs).
    pub input_side: Direction,
    /// Index of this VC within its link's published list (credit id).
    pub link_index: u8,
    /// Architecture tag: crossbar input port (generic), path set
    /// (Path-Sensitive) or module-port (RoCo).
    pub group: u8,
    /// Packet-processing state.
    pub state: VcState,
    /// Discarding a dropped packet's remaining flits (§4.1: fragmented
    /// packets are discarded).
    pub dropping: bool,
    /// Taken out of service by a buffer fault (Virtual Queuing).
    pub disabled: bool,
    /// The fault-free buffer capacity this VC was built with; repair
    /// ([`RouterCore::clear_all_faults`]) restores `desc.capacity` to
    /// this value. The slab ring is sized from this, so a fault-time
    /// capacity shrink never moves buffered flits.
    pub nominal_capacity: u8,
    /// Flits written into this VC over the router's lifetime
    /// (per-class utilization statistics).
    pub writes: u64,
}

impl Vc {
    /// Creates an idle VC.
    pub fn new(desc: VcDescriptor, input_side: Direction, link_index: u8, group: u8) -> Self {
        Vc {
            desc,
            input_side,
            link_index,
            group,
            state: VcState::Idle,
            dropping: false,
            disabled: false,
            nominal_capacity: desc.capacity,
            writes: 0,
        }
    }

    /// Whether a new packet head may be injected/enqueued atomically.
    /// `empty` is this VC's slab-ring emptiness (the buffer state lives
    /// outside the struct).
    pub fn ready_for_new_packet(&self, empty: bool) -> bool {
        !self.disabled && self.state == VcState::Idle && empty && !self.dropping
    }
}

/// Upstream bookkeeping for one downstream input VC.
#[derive(Debug, Clone)]
pub struct OutputVcState {
    /// The downstream VC's descriptor.
    pub desc: VcDescriptor,
    /// Free buffer slots (credits).
    pub credits: u8,
}

/// `VcClass::derive(side, out)` for every (arrival side, output) pair,
/// indexed by [`Direction::index`]; `None` where `derive` panics
/// (U-turns and `Local` to `Local`). A table, so building a port's
/// admission masks derives no class.
const CLASS_OF: [[Option<VcClass>; 5]; 5] = {
    use VcClass::{Dx, Dy, Eject, InjXy, InjYx, Txy, Tyx};
    [
        // Arriving on North: N, E, S, W, Local.
        [None, Some(Tyx), Some(Dy), Some(Tyx), Some(Eject)],
        // East.
        [Some(Txy), None, Some(Txy), Some(Dx), Some(Eject)],
        // South.
        [Some(Dy), Some(Tyx), None, Some(Tyx), Some(Eject)],
        // West.
        [Some(Txy), Some(Dx), Some(Txy), None, Some(Eject)],
        // Local (injection).
        [Some(InjYx), Some(InjXy), Some(InjYx), Some(InjXy), None],
    ]
};

/// One output link's downstream VCs as bit sets, one set per
/// descriptor attribute, so VA intersects words instead of calling
/// [`VcDescriptor::accepts`] per VC. Bit `i` is the link's VC `i`.
/// For a request arriving on the link's far side,
/// `by_out[out] & by_order[order] & by_dateline[dateline] & quadrant`
/// is exactly the set of VCs that `accepts` it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionMasks {
    /// Per downstream output direction: capacity > 0, arrival side,
    /// class and turn all admit the request.
    by_out: [u64; 5],
    /// Per [`noc_core::AxisOrder`]: no order restriction, or that one.
    by_order: [u64; 2],
    /// Per dateline class (`false`, `true`): unrestricted, or that one.
    by_dateline: [u64; 2],
    /// No quadrant restriction.
    any_quadrant: u64,
    /// Restricted to quadrant `q`.
    by_quadrant: [u64; 4],
}

impl AdmissionMasks {
    /// Derives the masks of the VCs `descs`, in link order, on a link
    /// whose flits arrive on `side` at the downstream router.
    ///
    /// # Panics
    ///
    /// Panics past 64 descriptors, or on a quadrant index of 4 or more.
    pub fn derive<'a>(side: Direction, descs: impl IntoIterator<Item = &'a VcDescriptor>) -> Self {
        let classes = &CLASS_OF[side.index()];
        let mut m = AdmissionMasks::default();
        for (i, d) in descs.into_iter().enumerate() {
            assert!(i < 64, "a link's VCs must fit one u64 word");
            let bit = 1u64 << i;
            if d.capacity > 0 && d.arrival.map_or(true, |a| a == side) {
                for (out, class) in classes.iter().enumerate() {
                    let turn_ok =
                        d.turn.map_or(true, |t| t.in_dir == side && t.out_dir.index() == out);
                    if class.is_some_and(|c| turn_ok && d.admission.admits(c)) {
                        m.by_out[out] |= bit;
                    }
                }
            }
            match d.order {
                None => m.by_order.iter_mut().for_each(|w| *w |= bit),
                Some(o) => m.by_order[o as usize] |= bit,
            }
            match d.dateline {
                None => m.by_dateline.iter_mut().for_each(|w| *w |= bit),
                Some(crossed) => m.by_dateline[crossed as usize] |= bit,
            }
            match d.quadrant {
                None => m.any_quadrant |= bit,
                Some(q) => m.by_quadrant[q as usize] |= bit,
            }
        }
        m
    }

    /// The VCs admitting `req` (bit `i` = VC `i`): those for which
    /// [`VcDescriptor::accepts`] holds, provided `req.in_dir` is the side
    /// these masks were derived for.
    #[inline]
    pub fn admissible(&self, req: &VcRequest) -> u64 {
        let mut quadrant = self.any_quadrant;
        for q in BitIds(u64::from(req.quadrant_mask) & 0xF) {
            quadrant |= self.by_quadrant[q];
        }
        self.by_out[req.out_dir.index()]
            & self.by_order[req.order as usize]
            & self.by_dateline[req.dateline as usize]
            & quadrant
    }
}

/// Upstream view of one output link: the downstream VCs' descriptors
/// and credits, which of them are free for a new packet, and their
/// [`AdmissionMasks`]. The masks are derived from the descriptors only
/// when the link is wired or resynchronised, and the fields are
/// private, so nothing else can put them out of step.
#[derive(Debug, Clone)]
pub struct OutputPort {
    /// Downstream input VCs in link order.
    vcs: Vec<OutputVcState>,
    /// Bit `i` set: downstream VC `i` may be allocated to a new packet.
    free: u64,
    /// Side the link's flits arrive on at the downstream router.
    side: Direction,
    masks: AdmissionMasks,
}

impl OutputPort {
    fn new(dir: Direction, descs: &[VcDescriptor]) -> Self {
        let side = dir.opposite();
        OutputPort {
            vcs: descs.iter().map(|d| OutputVcState { desc: *d, credits: d.capacity }).collect(),
            free: low_bits(descs.len()),
            side,
            masks: AdmissionMasks::derive(side, descs),
        }
    }

    /// Downstream VCs in link order: descriptor and credits.
    pub fn vcs(&self) -> &[OutputVcState] {
        &self.vcs
    }

    /// The free-VC mask (bit `i` = downstream VC `i`).
    pub fn free(&self) -> u64 {
        self.free
    }

    /// Whether downstream VC `dvc` is free for a new packet.
    pub fn is_free(&self, dvc: usize) -> bool {
        self.free >> dvc & 1 != 0
    }

    /// Side the link's flits arrive on at the downstream router.
    pub fn side(&self) -> Direction {
        self.side
    }

    /// The admission masks as last derived.
    pub fn masks(&self) -> &AdmissionMasks {
        &self.masks
    }

    /// The downstream VCs that admit `req` (bit `i` = VC `i`): the VCs
    /// for which [`VcDescriptor::accepts`] holds. `req.in_dir` must be
    /// [`OutputPort::side`].
    pub fn admissible(&self, req: &VcRequest) -> u64 {
        debug_assert_eq!(req.in_dir, self.side, "request arrives on another link");
        self.masks.admissible(req)
    }

    /// Total free credits over VCs admissible for `req` — the
    /// backpressure congestion signal used by adaptive look-ahead
    /// selection.
    pub fn credit_score(&self, req: &VcRequest) -> i64 {
        BitIds(self.admissible(req))
            .map(|i| self.vcs[i].credits as i64 + (self.free >> i & 1) as i64)
            .sum()
    }

    fn set_free(&mut self, dvc: usize, free: bool) {
        if free {
            self.free |= 1 << dvc;
        } else {
            self.free &= !(1 << dvc);
        }
    }

    /// Overwrites downstream VC `dvc`'s credit count (test hook for
    /// seeded corruptions).
    #[doc(hidden)]
    pub fn debug_set_credits(&mut self, dvc: usize, credits: u8) {
        self.vcs[dvc].credits = credits;
    }

    /// Overwrites downstream VC `dvc`'s free bit (test hook for seeded
    /// corruptions).
    #[doc(hidden)]
    pub fn debug_set_free(&mut self, dvc: usize, free: bool) {
        self.set_free(dvc, free);
    }

    /// Flips VC `dvc`'s bit in the admission mask for downstream output
    /// `out`, leaving the descriptors alone (test hook for seeded
    /// corruptions, as `FlitSlab::debug_set_head` is for the slab).
    #[doc(hidden)]
    pub fn debug_flip_admission(&mut self, out: Direction, dvc: usize) {
        self.masks.by_out[out.index()] ^= 1 << dvc;
    }
}

/// The word with the low `n` bits set (`n` ≤ 64).
fn low_bits(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Ascending iterator over the set bits of a VC mask (see
/// [`RouterCore::hot_open`]).
#[derive(Debug, Clone)]
pub struct BitIds(pub u64);

impl Iterator for BitIds {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// A VA request: this VC wants that downstream VC. The onward route
/// stays in the requester's `WaitingVa` state until the grant.
#[derive(Debug, Clone, Copy)]
struct VaRequest {
    vc_id: u8,
    out: Direction,
    dvc: u8,
}

/// The shared state and pipeline of every router architecture.
#[derive(Debug)]
pub struct RouterCore {
    /// Mesh position.
    pub coord: Coord,
    /// Configuration.
    pub cfg: RouterConfig,
    /// Route computation (look-ahead).
    pub computer: RouteComputer,
    /// All virtual channels.
    pub vcs: Vec<Vc>,
    /// Per input side: internal VC ids visible on that link, in credit
    /// order. Index 4 (`Local`) lists the injection VCs.
    pub link_map: [Vec<usize>; 5],
    /// Cached descriptors per link (what `link_descriptors` returns).
    pub link_descs: [Vec<VcDescriptor>; 5],
    /// Upstream view of each mesh output (None at mesh boundaries).
    pub outputs: [Option<OutputPort>; 4],
    /// Switch-traversal latch: SA winners of the previous cycle.
    pub st_latch: Vec<(Direction, u8, Flit)>,
    /// Early-ejected flits awaiting emission this cycle.
    pub pending_ejects: Vec<Flit>,
    /// Credits awaiting emission.
    pub pending_credits: Vec<(Direction, noc_core::Credit)>,
    /// Flits dropped by the fault logic awaiting emission.
    pub pending_drops: Vec<Flit>,
    /// Per-output, per-downstream-VC VA arbiters (second stage of Fig 2).
    va_arbs: [Vec<RoundRobinArbiter>; 4],
    /// Activity counters.
    pub counters: ActivityCounters,
    /// Contention counters (Fig 3).
    pub contention: ContentionCounters,
    /// Health of the Row (X) and Column (Y) modules. Generic and
    /// Path-Sensitive routers fail as a unit: both entries move together.
    pub module_health: [ModuleHealth; 2],
    /// Routing Computation unit health.
    pub rc_ok: bool,
    /// Per-module SA-offload degradation (RoCo SA fault, Fig 7).
    pub sa_degraded: [bool; 2],
    /// Injection binding: the VC currently receiving a packet from the PE.
    inj_vc: Option<usize>,
    /// Discarding the remainder of an unserviceable injected packet.
    inj_dropping: bool,
    /// The most recent cycle seen by `va_stage` (watchdog timestamps).
    last_cycle: Cycle,
    /// Reusable VA-request scratch (cleared every `va_stage` call).
    va_requests: Vec<VaRequest>,
    /// Persistent superset of the busy-VC bits (bit `v` set ⇒ VC `v`
    /// *may* be non-idle). [`RouterCore::hot_open`] scans only these
    /// bits and narrows the mask to the exact busy set; the only paths
    /// that can make a quiet VC busy between steps —
    /// [`RouterCore::deliver_flit`] and [`RouterCore::try_inject`] —
    /// re-set the bit. Cold reconfiguration paths widen it back to
    /// all-ones defensively.
    hot_mask: u64,
    /// One bit per internal VC (validation caps the count at
    /// [`MAX_INTERNAL_VCS`], so the set fits one word).
    all_vcs: u64,
    /// Flits currently buffered across every VC ring, maintained
    /// incrementally on each push/pop (ISSUE 10): `occupancy`,
    /// `is_quiescent` and the per-cycle high-water probe read this
    /// instead of re-summing queue lengths.
    buffered: u32,
}

impl RouterCore {
    /// Builds a core from an architecture's VC layout.
    ///
    /// # Panics
    ///
    /// Panics if `link_map` references VC ids out of range, if a link's
    /// VCs are not tagged with that `input_side`, or if there are more
    /// than [`MAX_INTERNAL_VCS`] VCs.
    pub fn new(
        coord: Coord,
        cfg: RouterConfig,
        computer: RouteComputer,
        vcs: Vec<Vc>,
        link_map: [Vec<usize>; 5],
    ) -> Self {
        for (side, ids) in link_map.iter().enumerate() {
            for (li, &id) in ids.iter().enumerate() {
                assert!(id < vcs.len(), "link map references VC {id} out of range");
                assert_eq!(vcs[id].input_side, Direction::from_index(side));
                assert_eq!(vcs[id].link_index as usize, li, "link index mismatch");
            }
        }
        let link_descs = std::array::from_fn(|side| {
            link_map[side].iter().map(|&id| vcs[id].desc).collect::<Vec<_>>()
        });
        // Scratch vectors are recycled across cycles; pre-sizing them to
        // their worst-case per-cycle population keeps the steady-state
        // hot path allocation-free even when the first contested cycle
        // (or first drop, eject, ...) lands deep into a run.
        let n_vcs = vcs.len();
        assert!(n_vcs <= MAX_INTERNAL_VCS, "{n_vcs} VCs exceed the busy-mask word");
        let all_vcs = low_bits(n_vcs);
        RouterCore {
            coord,
            cfg,
            computer,
            vcs,
            link_map,
            link_descs,
            outputs: [None, None, None, None],
            st_latch: Vec::with_capacity(n_vcs),
            pending_ejects: Vec::with_capacity(n_vcs),
            pending_credits: Vec::with_capacity(n_vcs),
            pending_drops: Vec::with_capacity(n_vcs),
            va_arbs: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            counters: ActivityCounters::new(),
            contention: ContentionCounters::new(),
            module_health: [ModuleHealth::Healthy; 2],
            rc_ok: true,
            sa_degraded: [false; 2],
            inj_vc: None,
            inj_dropping: false,
            last_cycle: 0,
            va_requests: Vec::with_capacity(n_vcs),
            hot_mask: u64::MAX,
            all_vcs,
            buffered: 0,
        }
    }

    /// Fixed slab ring capacity of every VC, in VC-id order: the
    /// nominal depth plus `RING_SLOP` headroom for poison tails. The
    /// simulator sizes the network [`noc_core::FlitSlab`] from this once
    /// at construction; fault reconfiguration shrinks only
    /// `desc.capacity`, never the ring.
    pub fn ring_capacities(&self) -> Vec<u32> {
        self.vcs.iter().map(|v| v.nominal_capacity as u32 + RING_SLOP).collect()
    }

    /// Pushes a flit into `vc_id`'s slab ring, tracking the incremental
    /// buffered-flit counter.
    #[inline]
    fn qpush(&mut self, slab: &mut SlabWindow<'_>, vc_id: usize, flit: Flit) {
        slab.push_back(vc_id, flit);
        self.buffered += 1;
    }

    /// Pops the front flit of `vc_id`'s slab ring, tracking the
    /// incremental buffered-flit counter.
    #[inline]
    fn qpop(&mut self, slab: &mut SlabWindow<'_>, vc_id: usize) -> Option<Flit> {
        let f = slab.pop_front(vc_id);
        if f.is_some() {
            self.buffered -= 1;
        }
        f
    }

    /// Wires this router's `dir` output to a neighbour's published VC
    /// list. Must be called after fault injection so faulted-out VCs
    /// are advertised with zero capacity.
    pub fn connect_output(&mut self, dir: Direction, descs: &[VcDescriptor]) {
        let n = self.vcs.len().max(1);
        self.va_arbs[dir.index()] = descs.iter().map(|_| RoundRobinArbiter::new(n)).collect();
        self.outputs[dir.index()] = Some(OutputPort::new(dir, descs));
        self.hot_mask = u64::MAX;
    }

    /// Refreshes the published link descriptors (after fault injection).
    pub fn refresh_link_descs(&mut self) {
        for side in 0..5 {
            self.link_descs[side] =
                self.link_map[side].iter().map(|&id| self.vcs[id].desc).collect();
        }
        self.hot_mask = u64::MAX;
    }

    /// Current node status from the fault bookkeeping (consumed by the
    /// neighbours next cycle).
    pub fn status(&self) -> NodeStatus {
        NodeStatus { row: self.module_health[0], col: self.module_health[1], rc_ok: self.rc_ok }
    }

    /// Whether the whole node is off-line.
    pub fn node_dead(&self) -> bool {
        self.status().node_dead()
    }

    fn module_of(axis: Axis) -> usize {
        match axis {
            Axis::X => 0,
            Axis::Y => 1,
        }
    }

    /// Health index accessor for `axis` (0 = Row/X, 1 = Column/Y).
    pub fn module_health_mut(&mut self, axis: Axis) -> &mut ModuleHealth {
        &mut self.module_health[Self::module_of(axis)]
    }

    /// Descriptors of the input VCs reachable through the link arriving
    /// on side `side` (what the upstream router runs VA against). For
    /// `Direction::Local` this is the injection VC set.
    pub fn link_descriptors(&self, side: Direction) -> &[VcDescriptor] {
        &self.link_descs[side.index()]
    }

    /// Accepts a flit from the upstream neighbour on side `from` into
    /// input VC `vc` (or hands it to Early Ejection when `vc ==
    /// EJECT_VC`). Called for everything arriving at the start of a
    /// cycle, before [`RouterCore::try_inject`] and `Router::step`.
    pub fn deliver_flit(&mut self, slab: &mut SlabWindow<'_>, from: Direction, vc: u8, flit: Flit) {
        if self.node_dead() {
            self.pending_drops.push(flit);
            return;
        }
        if vc == EJECT_VC {
            // Early Ejection: straight off the input DEMUX to the PE.
            self.counters.early_ejections += 1;
            self.pending_ejects.push(flit);
            return;
        }
        let id = self.link_map[from.index()][vc as usize];
        if self.vcs[id].disabled {
            // Mid-run buffer fault: the upstream neighbour keeps
            // streaming until the §4.1 availability republication
            // reaches it; flits landing in the dead buffer are lost.
            // The credit still returns upstream so the sender's books
            // stay leak-free even when the fault heals before the
            // republication fires.
            self.send_credit(id, flit.kind.is_tail());
            self.pending_drops.push(flit);
            return;
        }
        let v = &self.vcs[id];
        if !flit.kind.is_head() && !v.dropping && slab.is_empty(id) && v.state == VcState::Idle {
            // Orphan continuation: the head was discarded while this VC
            // was disabled (a transient fault healing before the §4.1
            // republication reaches the sender). A live stream always
            // has its head buffered or an Active/Blocked state, so the
            // rest of the wormhole is discarded as it arrives.
            self.send_credit(id, flit.kind.is_tail());
            self.pending_drops.push(flit);
            return;
        }
        self.counters.buffer_writes += 1;
        self.vcs[id].writes += 1;
        self.qpush(slab, id, flit);
        self.mark_hot(id);
    }

    /// Accepts a credit returned by the downstream neighbour reached
    /// through output `output`.
    pub fn deliver_credit(&mut self, output: Direction, credit: noc_core::Credit) {
        let port =
            self.outputs[output.index()].as_mut().expect("credit arrived on an unwired output");
        let vc = &mut port.vcs[credit.vc as usize];
        // Saturate instead of asserting: a mid-run capacity shrink
        // (buffer fault) can leave more credits in flight than the new
        // capacity; the §4.1 resynchronisation makes the clamp exact.
        vc.credits = (vc.credits + 1).min(vc.desc.capacity);
        // Note: `credit.vc_freed` is informational only; the VC was
        // already marked reallocatable when the tail was transmitted.
    }

    /// Tears down whatever packet occupies `vc_id` after a mid-run
    /// fault: releases the downstream VC it holds, closes an
    /// already-departed wormhole with a poison tail (see
    /// [`Flit::poison`]) and discards everything still buffered.
    /// `credit_upstream` selects whether the discarded flits return
    /// credits to the upstream neighbour — yes while that link stays
    /// alive, no when the link's bookkeeping is itself being rebuilt by
    /// the §4.1 status republication.
    fn abort_stream(&mut self, slab: &mut SlabWindow<'_>, vc_id: usize, credit_upstream: bool) {
        if let VcState::Active { out, dvc, next_route, .. } = self.vcs[vc_id].state {
            if dvc != EJECT_VC {
                let head_still_here = slab.front(vc_id).is_some_and(|f| f.kind.is_head());
                if head_still_here {
                    // Nothing was forwarded yet: just release the VC.
                    let port = self.outputs[out.index()].as_mut().expect("output wired");
                    port.set_free(dvc as usize, true);
                } else {
                    // The head already moved on: close the wormhole with
                    // a poison tail so every downstream hop releases its
                    // VC (§4.1: the fragment is discarded in flight).
                    let (packet, src, dst) = match slab.front(vc_id) {
                        Some(f) => (f.packet, f.src, f.dst),
                        None => (PacketId(u64::MAX), self.coord, self.coord),
                    };
                    let port = self.outputs[out.index()].as_mut().expect("output wired");
                    let d = &mut port.vcs[dvc as usize];
                    d.credits = d.credits.saturating_sub(1);
                    port.set_free(dvc as usize, true);
                    let poison = Flit::poison_tail(packet, src, dst, next_route);
                    self.st_latch.push((out, dvc, poison));
                }
            }
        }
        while let Some(flit) = self.qpop(slab, vc_id) {
            if credit_upstream {
                self.send_credit(vc_id, flit.kind.is_tail());
            }
            self.pending_drops.push(flit);
        }
        self.vcs[vc_id].state = VcState::Idle;
        self.vcs[vc_id].dropping = false;
        if self.inj_vc == Some(vc_id) {
            // The PE is still streaming this packet in; discard the
            // remainder as it arrives.
            self.inj_vc = None;
            self.inj_dropping = true;
        }
    }

    /// Discards every resident packet that a freshly-injected fault
    /// made unserviceable: streams in disabled VCs and streams
    /// committed to an output this node can no longer drive (§4:
    /// packets fragmented by a fault are discarded, not repaired).
    /// Called by the network right after a mid-run
    /// `Router::inject_fault` (and after a repair re-applies the
    /// remaining faults).
    pub fn purge_faulted(&mut self, slab: &mut SlabWindow<'_>) {
        self.hot_mask = u64::MAX;
        let own = self.status();
        for vc_id in 0..self.vcs.len() {
            let vc = &self.vcs[vc_id];
            if slab.is_empty(vc_id) && vc.state == VcState::Idle && !vc.dropping {
                continue;
            }
            let committed_out = match vc.state {
                VcState::Active { out, .. } => Some(out),
                _ => slab.front(vc_id).filter(|f| f.kind.is_head()).map(|f| f.next_out),
            };
            let dead_route =
                committed_out.is_some_and(|o| o != Direction::Local && !own.can_serve_output(o));
            if vc.disabled || dead_route {
                // Credits always flow upstream, dead buffer or not: the
                // upstream books must never leak a credit for a flit it
                // sent, and the §4.1 resynchronisation only reconciles
                // genuinely in-flight flits against the new capacity.
                self.abort_stream(slab, vc_id, true);
            }
        }
        if let Some(id) = self.inj_vc {
            if self.vcs[id].disabled {
                self.inj_vc = None;
                self.inj_dropping = true;
            }
        }
    }

    /// Repairs the router: restores every module, the RC unit, the SA
    /// arbiters and all VC buffers to their fault-free state, and
    /// republishes the link descriptors. In-flight state (queues,
    /// arbiter pointers, credits) is untouched — the network follows up
    /// with the §4.1 handshake so neighbours resynchronise, and
    /// re-injects whatever faults remain scheduled as active.
    pub fn clear_all_faults(&mut self) {
        self.module_health = [ModuleHealth::Healthy; 2];
        self.rc_ok = true;
        self.sa_degraded = [false; 2];
        for vc in &mut self.vcs {
            vc.disabled = false;
            vc.desc.capacity = vc.nominal_capacity;
        }
        self.refresh_link_descs();
    }

    /// Resynchronises the upstream view of the `dir` output with the
    /// neighbour's republished VC descriptors (the §4.1 availability
    /// handshake, delivered `handshake_latency` cycles after the fault
    /// or repair). Credits are recomputed so that flits still counted
    /// as outstanding stay outstanding; streams holding a downstream VC
    /// that vanished are aborted.
    pub fn resync_output(
        &mut self,
        slab: &mut SlabWindow<'_>,
        dir: Direction,
        descs: &[VcDescriptor],
    ) {
        self.hot_mask = u64::MAX;
        let Some(port) = self.outputs[dir.index()].as_mut() else { return };
        debug_assert_eq!(port.vcs.len(), descs.len(), "link VC count is fixed at build time");
        for (i, d) in descs.iter().enumerate() {
            let v = &mut port.vcs[i];
            let old_cap = v.desc.capacity;
            let outstanding = old_cap.saturating_sub(v.credits);
            v.desc = *d;
            v.credits = d.capacity.saturating_sub(outstanding);
            if d.capacity == 0 {
                port.set_free(i, false);
            } else if old_cap == 0 {
                port.set_free(i, true);
            }
        }
        port.masks = AdmissionMasks::derive(port.side, descs);
        for vc_id in 0..self.vcs.len() {
            if let VcState::Active { out, dvc, .. } = self.vcs[vc_id].state {
                if out == dir && dvc != EJECT_VC {
                    let gone = self.outputs[dir.index()]
                        .as_ref()
                        .map_or(true, |p| p.vcs[dvc as usize].desc.capacity == 0);
                    if gone {
                        self.abort_stream(slab, vc_id, true);
                    }
                }
            }
        }
    }

    /// Clears every stream arriving on the `from` link after it was
    /// re-established by a repair (§4.1 handshake): buffered flits,
    /// stream state and drop latches are discarded without returning
    /// upstream credits, so both ends of the rebuilt link restart from
    /// empty buffers and full credits.
    pub fn reset_input_link(&mut self, slab: &mut SlabWindow<'_>, from: Direction) {
        self.hot_mask = u64::MAX;
        for i in 0..self.link_map[from.index()].len() {
            let vc_id = self.link_map[from.index()][i];
            self.abort_stream(slab, vc_id, false);
        }
    }

    /// Flits currently buffered across every VC ring: the incremental
    /// counter bumped on each push/pop. The audit's slab-coherence
    /// check compares it against the summed ring lengths.
    pub fn buffered_flits(&self) -> usize {
        self.buffered as usize
    }

    /// Flits currently buffered or latched (for drain detection).
    /// Pending drops count too: a flit discarded by the pipeline stays
    /// "in the system" until the next flush hands it to the network for
    /// drop accounting — otherwise a drop landing right as the network
    /// drains would end the run before it is ever recorded.
    pub fn occupancy(&self) -> usize {
        self.buffered as usize
            + self.st_latch.len()
            + self.pending_ejects.len()
            + self.pending_drops.len()
    }

    /// Whether a `Router::step` would change nothing and consume no
    /// context RNG, so the simulator's wake-set may skip this router:
    /// nothing buffered, latched or pending, every VC idle, and no
    /// packet mid-injection.
    /// A quiescent router's `va_stage` touches no VC, its SA sees no
    /// candidates (so every arbiter stays untouched and every effort
    /// counter stays zero), `hot_open` observes nothing, and no context
    /// RNG is consumed.
    pub fn is_quiescent(&self) -> bool {
        self.buffered == 0
            && self.st_latch.is_empty()
            && self.pending_ejects.is_empty()
            && self.pending_credits.is_empty()
            && self.pending_drops.is_empty()
            && !self.inj_dropping
            && self.inj_vc.is_none()
            && self.vcs.iter().all(|v| v.state == VcState::Idle && !v.dropping)
    }

    /// Records that `vc_id` may now be busy (a flit entered its queue
    /// between steps), so the next [`RouterCore::hot_open`] scans it.
    #[inline]
    fn mark_hot(&mut self, vc_id: usize) {
        self.hot_mask |= 1u64 << vc_id;
    }

    /// The persistent busy-VC superset: the busy set of the last step,
    /// widened by every flit that entered a queue since and reset to
    /// all-ones by fault reconfiguration. The `Soa` kernel passes it as
    /// `Router::step`'s `scan`.
    pub fn hot_mask(&self) -> u64 {
        self.hot_mask
    }

    /// One bit per internal VC: a step over `scan` visits the VCs in
    /// `scan & all_vcs()`.
    pub fn all_vcs(&self) -> u64 {
        self.all_vcs
    }

    /// Whether an `Active` VC with flits to send is starved of credits
    /// on its downstream VC (ejection never starves: it needs no VC).
    /// `has_flits` is the VC's slab-ring non-emptiness. The per-cycle
    /// `credit_stall_cycles` counter and the stall post-mortem both use
    /// this one definition.
    pub fn vc_credit_starved(&self, vc: &Vc, has_flits: bool) -> bool {
        match vc.state {
            VcState::Active { out, dvc, .. } if dvc != EJECT_VC && has_flits => {
                self.outputs[out.index()].as_ref().is_some_and(|p| p.vcs[dvc as usize].credits == 0)
            }
            _ => false,
        }
    }

    /// Start-of-step scan over the VCs in `scan` (see `Router::step`):
    /// one pass that does the per-cycle
    /// telemetry — the buffer-occupancy high-water mark, and a
    /// credit-stall cycle whenever some VC is credit-starved — *and*
    /// computes the busy-VC mask (bit `v` set ⇔ VC `v` is non-idle:
    /// non-empty queue, non-`Idle` state, or mid-drop).
    ///
    /// Returns `(busy, sweep)`, where `sweep` is the VC set the rest of
    /// the step visits: every VC under [`ALL_VCS`] (the Reference
    /// oracle), the busy set otherwise.
    pub fn hot_open(&mut self, slab: &SlabView<'_>, scan: u64) -> (u64, u64) {
        // `scan` is a superset of the busy VCs (the `hot_mask` field
        // doc, or every VC), so scanning only its bits is exact: a VC
        // outside it is empty and `Idle` and cannot be credit-starved
        // (starvation requires an `Active` state with a non-empty
        // queue), so it contributes nothing to any output below.
        let mut bits = scan & self.all_vcs;
        let mut busy = 0u64;
        let mut starved = false;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let vc = &self.vcs[v];
            let qlen = slab.len(v);
            if qlen != 0 || vc.state != VcState::Idle || vc.dropping {
                busy |= 1u64 << v;
            }
            starved = starved || self.vc_credit_starved(vc, qlen != 0);
        }
        // VCs outside the hot mask are empty, so the incremental counter
        // equals the masked queue-length sum the scan used to compute.
        let buffered = self.buffered as u64;
        if buffered > self.counters.occupancy_high_water {
            self.counters.occupancy_high_water = buffered;
        }
        if starved {
            self.counters.credit_stall_cycles += 1;
        }
        // Narrow the persistent mask to the exact busy set: the step
        // about to run cannot make a quiet VC busy (the `va_stage`
        // argument), and between steps `deliver_flit`/`try_inject`
        // re-widen it as flits arrive.
        self.hot_mask = busy;
        let sweep = if scan == ALL_VCS { self.all_vcs } else { busy };
        (busy, sweep)
    }

    /// End-of-step scan over the `sweep` VCs only (see
    /// [`RouterCore::hot_open`]): reports occupancy and quiescence
    /// exactly as [`RouterCore::occupancy`] /
    /// [`RouterCore::is_quiescent`] would. Sound for the same reason as
    /// [`RouterCore::va_stage`]: VCs outside the start-of-step busy set
    /// are empty and `Idle` and cannot change during the step, so they
    /// contribute zero occupancy and never break quiescence.
    pub fn hot_close(&self, busy: u64, sweep: u64) -> StepReport {
        // Queue emptiness is covered by the incremental counter (VCs
        // outside the mask hold nothing); the scan only needs the
        // per-VC state machines, so the slab is not touched at all.
        let mut vcs_quiet = self.buffered == 0;
        let mut bits = sweep;
        while vcs_quiet && bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let vc = &self.vcs[v];
            vcs_quiet = vc.state == VcState::Idle && !vc.dropping;
        }
        let occupancy = self.buffered as usize
            + self.st_latch.len()
            + self.pending_ejects.len()
            + self.pending_drops.len();
        let quiescent = vcs_quiet
            && self.st_latch.is_empty()
            && self.pending_ejects.is_empty()
            && self.pending_credits.is_empty()
            && self.pending_drops.is_empty()
            && !self.inj_dropping
            && self.inj_vc.is_none();
        StepReport { occupancy, quiescent, busy_vcs: busy }
    }

    /// Emits everything that leaves the router this cycle: last cycle's
    /// ST winners, early ejections, credits and drops.
    pub fn flush(&mut self, out: &mut RouterOutputs) {
        for (dir, dvc, flit) in self.st_latch.drain(..) {
            if dir == Direction::Local {
                out.ejected.push(flit);
            } else {
                self.counters.link_traversals += 1;
                out.flits.push((dir, dvc, flit));
            }
        }
        out.ejected.append(&mut self.pending_ejects);
        out.credits.append(&mut self.pending_credits);
        out.dropped.append(&mut self.pending_drops);
    }

    /// Sends the credit for a flit leaving `vc_id`'s buffer.
    fn send_credit(&mut self, vc_id: usize, is_tail: bool) {
        let vc = &self.vcs[vc_id];
        if vc.input_side != Direction::Local {
            self.pending_credits
                .push((vc.input_side, noc_core::Credit { vc: vc.link_index, vc_freed: is_tail }));
        }
    }

    /// Reaction to an unserviceable head: the RoCo router's fault
    /// handshake discards it gracefully (§4.1: fragmented packets are
    /// discarded); the baselines have no such mechanism, so the packet
    /// blocks forever and congests the region around the fault.
    fn drop_or_block(&mut self, slab: &mut SlabWindow<'_>, vc_id: usize) {
        if self.cfg.router == noc_core::RouterKind::RoCo {
            self.start_drop(slab, vc_id);
        } else {
            self.counters.blocked_packets += 1;
            self.vcs[vc_id].state = VcState::Blocked { since: self.last_cycle };
        }
    }

    /// Starts discarding the packet at the head of `vc_id` (fault drop).
    fn start_drop(&mut self, slab: &mut SlabWindow<'_>, vc_id: usize) {
        let head = self.qpop(slab, vc_id).expect("drop requires a head");
        let is_tail = head.kind.is_tail();
        self.send_credit(vc_id, is_tail);
        self.pending_drops.push(head);
        self.vcs[vc_id].state = VcState::Idle;
        if !is_tail {
            self.vcs[vc_id].dropping = true;
            self.drain_dropping(slab, vc_id);
        }
    }

    /// Discards already-buffered flits of a dropping packet.
    fn drain_dropping(&mut self, slab: &mut SlabWindow<'_>, vc_id: usize) {
        while self.vcs[vc_id].dropping {
            let Some(flit) = self.qpop(slab, vc_id) else { break };
            let is_tail = flit.kind.is_tail();
            self.send_credit(vc_id, is_tail);
            self.pending_drops.push(flit);
            if is_tail {
                self.vcs[vc_id].dropping = false;
            }
        }
    }

    /// The look-ahead routing + virtual-channel allocation stage over
    /// the VCs in `ids`, in ascending id order. Returns per-axis VA
    /// activity (used by the SA-offload fault model).
    ///
    /// A step passes the `sweep` mask from [`RouterCore::hot_open`].
    /// Visiting only busy VCs is sound because a VC outside the
    /// start-of-step busy set is empty and `Idle` and stays so for the
    /// whole step (flits only enter VC queues via
    /// `deliver_flit`/`try_inject`, which run between steps), so every
    /// skipped id would fail each sub-pass's guards without any side
    /// effect — including RNG draws and counter bumps.
    pub fn va_stage(
        &mut self,
        ctx: &mut StepContext<'_>,
        slab: &mut SlabWindow<'_>,
        ids: u64,
    ) -> [bool; 2] {
        let ids = BitIds(ids & self.all_vcs);
        self.last_cycle = ctx.cycle;
        let mut va_activity = [false; 2];
        // Sub-pass 1: drain dropping packets, release RoutePending
        // holds whose extra cycle elapsed, and fire the watchdog on
        // fault-blocked packets that have wedged long enough.
        for vc_id in ids.clone() {
            if self.vcs[vc_id].dropping {
                self.drain_dropping(slab, vc_id);
            }
            if let VcState::RoutePending { next_route, ready_at } = self.vcs[vc_id].state {
                if ctx.cycle >= ready_at {
                    self.vcs[vc_id].state = VcState::WaitingVa { next_route };
                }
            }
            if let VcState::Blocked { since } = self.vcs[vc_id].state {
                if ctx.cycle.saturating_sub(since) >= self.cfg.block_timeout
                    && !slab.is_empty(vc_id)
                {
                    self.start_drop(slab, vc_id);
                }
            }
        }
        // Sub-pass 2: heads newly at the front compute their look-ahead
        // route (or get dropped if a fault makes them unserviceable).
        for vc_id in ids.clone() {
            if self.vcs[vc_id].state != VcState::Idle || self.vcs[vc_id].dropping {
                continue;
            }
            let Some(&head) = slab.front(vc_id) else { continue };
            if !head.kind.is_head() {
                // Stray body flit without a head: only possible for a
                // packet whose head was dropped — keep draining.
                self.vcs[vc_id].dropping = true;
                self.drain_dropping(slab, vc_id);
                continue;
            }
            self.route_head(slab, vc_id, head, ctx);
        }
        // Sub-pass 3: collect VA requests (reusing the scratch buffer —
        // the steady-state path allocates nothing).
        let mut requests = std::mem::take(&mut self.va_requests);
        requests.clear();
        for vc_id in ids {
            let VcState::WaitingVa { next_route } = self.vcs[vc_id].state else { continue };
            let Some(&head) = slab.front(vc_id) else { continue };
            let out = head.next_out;
            if out != Direction::Local {
                let bstat = ctx.neighbor_status(out).unwrap_or_default();
                // Under fault-aware routing the link mask also vetoes a
                // committed onward route whose downstream link went
                // unusable (e.g. the next-next node died) after the
                // look-ahead computed it.
                let masked_off = ctx.mask.is_some_and(|m| {
                    next_route != Direction::Local
                        && self
                            .computer
                            .neighbor(self.coord, out)
                            .is_some_and(|b| !m.usable(b, next_route))
                });
                if bstat.node_dead() || !bstat.can_serve_output(next_route) || masked_off {
                    // The committed next hop lost serviceability after
                    // this route was computed (mid-run fault): re-route
                    // from scratch or discard.
                    self.vcs[vc_id].state = VcState::Idle;
                    self.reroute_or_fail(slab, vc_id, head, ctx);
                    continue;
                }
            }
            if next_route == Direction::Local && !self.downstream_eject_needs_vc() {
                // Early Ejection downstream: no VC needed (§3.1).
                let sa_from = self.sa_from(ctx.cycle);
                self.vcs[vc_id].state = VcState::Active { out, dvc: EJECT_VC, next_route, sa_from };
                if let Some(a) = out.axis() {
                    va_activity[Self::module_of(a)] = true;
                }
                continue;
            }
            self.counters.va_local_arbs += 1;
            let b =
                self.computer.neighbor(self.coord, out).expect("minimal routes stay in the mesh");
            let req = VcRequest {
                in_dir: out.opposite(),
                out_dir: next_route,
                order: head.order,
                quadrant_mask: quadrant_mask(b, head.dst),
                dateline: self.computer.vc_dateline(head.src, head.dst, b, out.opposite()),
            };
            let port = self.outputs[out.index()].as_ref().expect("output wired");
            // The lowest free admissible VC: the first one a scan in link
            // order would accept (admissibility implies capacity > 0).
            let candidates = port.free & port.admissible(&req);
            if candidates != 0 {
                let dvc = candidates.trailing_zeros() as u8;
                requests.push(VaRequest { vc_id: vc_id as u8, out, dvc });
            } else {
                // No admissible downstream VC is free this cycle.
                self.counters.va_failures += 1;
                if matches!(
                    self.computer.routing(),
                    noc_core::RoutingKind::Adaptive | noc_core::RoutingKind::AdaptiveOddEven
                ) {
                    // Adaptive re-selection: no admissible VC is available
                    // for the committed candidate this cycle, so return to
                    // routing and let the next cycle's look-ahead pick the
                    // currently least-congested legal direction instead.
                    // (Deterministic algorithms have a single legal route;
                    // recomputing it would change nothing.)
                    self.vcs[vc_id].state = VcState::Idle;
                }
            }
        }
        // Sub-pass 4: arbitrate per contested downstream VC and grant.
        // Groups are independent (each grants its own downstream VC
        // through its own arbiter), so they go in list order: the first
        // open request starts a group, and one pass over the open rest
        // gathers its members into a request word over VC ids.
        let mut open = low_bits(requests.len());
        while open != 0 {
            let VaRequest { out, dvc, .. } = requests[open.trailing_zeros() as usize];
            let mut word = 0u64;
            for k in BitIds(open) {
                let r = requests[k];
                if r.out == out && r.dvc == dvc {
                    word |= 1 << r.vc_id;
                    open &= !(1 << k);
                }
            }
            self.counters.va_global_arbs += 1;
            // Every requester but the winner fails this cycle.
            self.counters.va_failures += u64::from(word.count_ones()) - 1;
            // A lone requester wins without touching the arbiter.
            let winner = if word & (word - 1) == 0 {
                word.trailing_zeros() as usize
            } else {
                let arb = &mut self.va_arbs[out.index()][dvc as usize];
                arb.arbitrate(word).expect("at least one requester")
            };
            let VcState::WaitingVa { next_route } = self.vcs[winner].state else {
                unreachable!("a VA requester waits for VA until granted");
            };
            let port = self.outputs[out.index()].as_mut().expect("output wired");
            port.set_free(dvc as usize, false);
            self.vcs[winner].state =
                VcState::Active { out, dvc, next_route, sa_from: self.sa_from(ctx.cycle) };
            if let Some(a) = out.axis() {
                va_activity[Self::module_of(a)] = true;
            }
        }
        self.va_requests = requests;
        va_activity
    }

    /// Whether flits addressed to the downstream PE must still be
    /// allocated a VC there (true for the generic router, which lacks
    /// Early Ejection).
    fn downstream_eject_needs_vc(&self) -> bool {
        self.cfg.router == noc_core::RouterKind::Generic
    }

    /// Candidate outputs at `cur`, fault-aware when the step context
    /// carries a link mask (ISSUE 8): masked candidates exclude links
    /// the published statuses declare unusable and may substitute the
    /// west-first escape set. Without a mask this is byte-identical to
    /// the plain candidate computation.
    fn route_candidates(
        &self,
        src: Coord,
        cur: Coord,
        dst: Coord,
        order: noc_core::AxisOrder,
        arrival: Direction,
        mask: Option<&LinkMask>,
    ) -> DirSet {
        match mask {
            Some(m) => self.computer.masked_candidates(src, cur, dst, order, arrival, m),
            None => self.computer.candidates(src, cur, dst, order),
        }
    }

    /// Last-resort reaction when the head's committed output leads into
    /// a fault: try to re-route it out of a *different* output of this
    /// router, and otherwise drop (RoCo) or block (baselines).
    ///
    /// Re-routing in place is only physically possible when the flit
    /// sits in a direction-agnostic buffer — the generic router's
    /// `Any`-admission VCs or a Path-Sensitive path set (whose two
    /// outputs cover every minimal candidate) — and only adaptive
    /// routing offers an alternative minimal direction at all. The RoCo
    /// router's Guided Flit Queuing pins a flit to one module, so it
    /// relies on its §4.1 handshake to discard the packet gracefully
    /// upstream instead.
    fn reroute_or_fail(
        &mut self,
        slab: &mut SlabWindow<'_>,
        vc_id: usize,
        head: Flit,
        ctx: &mut StepContext<'_>,
    ) {
        let adaptive = matches!(
            self.computer.routing(),
            noc_core::RoutingKind::Adaptive | noc_core::RoutingKind::AdaptiveOddEven
        );
        if adaptive && self.cfg.router != noc_core::RouterKind::RoCo {
            let arrival = self.vcs[vc_id].input_side;
            let mut cands = self
                .route_candidates(head.src, self.coord, head.dst, head.order, arrival, ctx.mask);
            // A usable alternative output: not the committed one, its
            // next hop is alive, and the packet remains serviceable one
            // hop further (either it ends there or some minimal
            // candidate survives that node's module health).
            cands.retain(|d| {
                if d == head.next_out {
                    return false;
                }
                let Some(c) = self.computer.neighbor(self.coord, d) else {
                    return false;
                };
                let Some(cstat) = ctx.neighbor_status(d) else { return false };
                if cstat.node_dead() {
                    return false;
                }
                if c == head.dst {
                    return cstat.can_serve_output(Direction::Local);
                }
                let mut onward = self.route_candidates(
                    head.src,
                    c,
                    head.dst,
                    head.order,
                    d.opposite(),
                    ctx.mask,
                );
                onward.retain(|o| cstat.can_serve_output(o));
                !onward.is_empty()
            });
            let new_out = cands.iter().next();
            if let Some(new_out) = new_out {
                self.counters.rc_computations += 1;
                if let Some(front) = slab.front_mut(vc_id) {
                    front.next_out = new_out;
                }
                // Re-processed (with the new output) next cycle.
                return;
            }
        }
        self.drop_or_block(slab, vc_id);
    }

    /// Computes the look-ahead route for the head of `vc_id` (Fig 1b's
    /// Routing Logic), dropping the packet when faults make every
    /// candidate unserviceable.
    fn route_head(
        &mut self,
        slab: &mut SlabWindow<'_>,
        vc_id: usize,
        head: Flit,
        ctx: &mut StepContext<'_>,
    ) {
        let out = head.next_out;
        if out == Direction::Local {
            // Generic router: eject through the crossbar's PE column.
            let sa_from = self.sa_from(ctx.cycle);
            self.vcs[vc_id].state =
                VcState::Active { out, dvc: EJECT_VC, next_route: Direction::Local, sa_from };
            return;
        }
        if !self.status().can_serve_output(out) {
            // The committed output's own module died after this route
            // was stamped one hop upstream (mid-run fault): there is no
            // crossbar lane left to reach it.
            self.reroute_or_fail(slab, vc_id, head, ctx);
            return;
        }
        let Some(b) = self.computer.neighbor(self.coord, out) else {
            // A route can only point off-mesh after corruption; drop.
            self.start_drop(slab, vc_id);
            return;
        };
        let bstat = ctx.neighbor_status(out).unwrap_or_default();
        if bstat.node_dead() {
            self.reroute_or_fail(slab, vc_id, head, ctx);
            return;
        }
        self.counters.rc_computations += 1;
        let next_route = if b == head.dst {
            Direction::Local
        } else {
            let mut cands =
                self.route_candidates(head.src, b, head.dst, head.order, out.opposite(), ctx.mask);
            cands.retain(|d| bstat.can_serve_output(d));
            if cands.is_empty() {
                self.reroute_or_fail(slab, vc_id, head, ctx);
                return;
            }
            let port = self.outputs[out.index()].as_ref().expect("output wired");
            let in_dir = out.opposite();
            let quadrant_mask = quadrant_mask(b, head.dst);
            // Adaptive look-ahead selection: prefer the candidate whose
            // admissible downstream buffers hold the most credits (the
            // backpressure congestion signal); break ties randomly. A
            // minimal route has at most two candidates, so fixed arrays
            // suffice (no heap).
            let mut scored = [(0i64, Direction::Local); 2];
            let mut n = 0;
            let dateline = self.computer.vc_dateline(head.src, head.dst, b, in_dir);
            for d in cands.iter() {
                let req =
                    VcRequest { in_dir, out_dir: d, order: head.order, quadrant_mask, dateline };
                scored[n] = (port.credit_score(&req), d);
                n += 1;
            }
            let best = scored[..n].iter().map(|&(s, _)| s).max().expect("non-empty");
            let mut tied = [Direction::Local; 2];
            let mut t = 0;
            for &(s, d) in &scored[..n] {
                if s == best {
                    tied[t] = d;
                    t += 1;
                }
            }
            tied[ctx.rng.gen_range(0..t)]
        };
        self.vcs[vc_id].state = if self.rc_ok {
            VcState::WaitingVa { next_route }
        } else {
            // RC fault: Double Routing adds one cycle (§4.1, Fig 5).
            VcState::RoutePending { next_route, ready_at: ctx.cycle + 1 }
        };
    }

    /// First cycle a freshly-VA'd head may bid for the switch.
    fn sa_from(&self, cycle: Cycle) -> Cycle {
        if self.cfg.speculative_sa {
            cycle
        } else {
            cycle + 1
        }
    }

    /// Whether `vc_id` may bid for the crossbar this cycle, and the
    /// output it wants.
    pub fn sa_candidate(&self, slab: &SlabView<'_>, vc_id: usize) -> Option<Direction> {
        let vc = &self.vcs[vc_id];
        let VcState::Active { out, dvc, sa_from, .. } = vc.state else { return None };
        if slab.is_empty(vc_id) || vc.disabled || self.last_cycle < sa_from {
            return None;
        }
        if dvc != EJECT_VC {
            let port = self.outputs[out.index()].as_ref()?;
            if port.vcs[dvc as usize].credits == 0 {
                return None;
            }
        }
        Some(out)
    }

    /// Applies an SA grant to `vc_id`: reads the flit out of the buffer,
    /// pushes it through the crossbar into the ST latch, sends the
    /// credit upstream and updates the downstream VC state. Returns
    /// `true` when a tail departure made a downstream VC reallocatable
    /// (so the router can run a further VA iteration this cycle —
    /// "multiple iterative arbitrations", §3.1).
    pub fn apply_grant(&mut self, slab: &mut SlabWindow<'_>, vc_id: usize) -> bool {
        let VcState::Active { out, dvc, next_route, .. } = self.vcs[vc_id].state else {
            panic!("SA grant for a VC without an active packet");
        };
        let mut flit = self.qpop(slab, vc_id).expect("SA grant on empty VC");
        self.counters.buffer_reads += 1;
        self.counters.crossbar_traversals += 1;
        let is_tail = flit.kind.is_tail();
        self.send_credit(vc_id, is_tail);
        if dvc != EJECT_VC {
            let port = self.outputs[out.index()].as_mut().expect("output wired");
            let d = &mut port.vcs[dvc as usize];
            debug_assert!(d.credits > 0, "SA granted without credit");
            d.credits -= 1;
            if is_tail {
                // Canonical VC reuse: the downstream VC is reallocatable
                // as soon as the previous packet's tail has been sent
                // into it; successor flits queue behind it in FIFO order.
                port.set_free(dvc as usize, true);
            }
        }
        flit.next_out = next_route;
        self.st_latch.push((out, dvc, flit));
        if is_tail {
            self.vcs[vc_id].state = VcState::Idle;
            return dvc != EJECT_VC;
        }
        false
    }

    /// Offers one locally generated flit to the router. Returns `false`
    /// when no admissible injection VC has space this cycle (the network
    /// interface will retry).
    ///
    /// Packets whose every first hop is unserviceable because of faults
    /// are accepted and immediately discarded (they count as injected
    /// but lost — §4.1's discard semantics), flagged via `inj_dropping`.
    pub fn try_inject(
        &mut self,
        slab: &mut SlabWindow<'_>,
        mut flit: Flit,
        ctx: &mut StepContext<'_>,
    ) -> bool {
        if self.node_dead() {
            return false;
        }
        if flit.kind.is_head() {
            if self.inj_vc.is_some() || self.inj_dropping {
                return false; // previous packet still streaming in
            }
            let own = self.status();
            let mut cands = self.route_candidates(
                flit.src,
                self.coord,
                flit.dst,
                flit.order,
                Direction::Local,
                ctx.mask,
            );
            cands.retain(|d| own.can_serve_output(d));
            if cands.is_empty() {
                // Every productive first hop needs a dead module: the
                // packet can never leave this node. RoCo's handshake
                // discards it; this only arises on a partially-dead
                // node, which only RoCo can be.
                flit.injected_at = ctx.cycle;
                self.pending_drops.push(flit);
                self.inj_dropping = !flit.kind.is_tail();
                return true;
            }
            // Among serviceable first hops, prefer one with a free
            // admissible injection VC; tie-break by downstream credit.
            let quadrant_mask = quadrant_mask(self.coord, flit.dst);
            let mut best: Option<(i64, Direction, usize)> = None;
            for d in cands.iter() {
                let req = VcRequest {
                    in_dir: Direction::Local,
                    out_dir: d,
                    order: flit.order,
                    quadrant_mask,
                    dateline: false,
                };
                let Some(vc_id) =
                    self.link_map[Direction::Local.index()].iter().copied().find(|&id| {
                        self.vcs[id].ready_for_new_packet(slab.is_empty(id))
                            && self.vcs[id].desc.accepts(&req)
                    })
                else {
                    continue;
                };
                let downstream_dateline = self.computer.neighbor(self.coord, d).is_some_and(|b| {
                    self.computer.vc_dateline(flit.src, flit.dst, b, d.opposite())
                });
                let score = self.outputs[d.index()].as_ref().map_or(0, |p| {
                    p.credit_score(&VcRequest {
                        in_dir: d.opposite(),
                        dateline: downstream_dateline,
                        ..req
                    })
                });
                if best.map_or(true, |(s, _, _)| score > s) {
                    best = Some((score, d, vc_id));
                }
            }
            let Some((_, out, vc_id)) = best else { return false };
            self.counters.rc_computations += 1;
            flit.next_out = out;
            flit.injected_at = ctx.cycle;
            self.counters.buffer_writes += 1;
            self.vcs[vc_id].writes += 1;
            self.qpush(slab, vc_id, flit);
            self.mark_hot(vc_id);
            self.inj_vc = Some(vc_id);
            if flit.kind.is_tail() {
                self.inj_vc = None;
            }
            true
        } else {
            if self.inj_dropping {
                self.pending_drops.push(flit);
                if flit.kind.is_tail() {
                    self.inj_dropping = false;
                }
                return true;
            }
            let Some(vc_id) = self.inj_vc else { return false };
            if slab.len(vc_id) >= self.vcs[vc_id].desc.capacity as usize {
                return false;
            }
            flit.injected_at = ctx.cycle;
            self.counters.buffer_writes += 1;
            self.vcs[vc_id].writes += 1;
            self.qpush(slab, vc_id, flit);
            self.mark_hot(vc_id);
            if flit.kind.is_tail() {
                self.inj_vc = None;
            }
            true
        }
    }

    /// Records SA contention observations: `requests` crossbar inputs
    /// with at least one eligible request for an output on `axis`, of
    /// which `granted` won and the rest were blocked.
    pub fn record_contention(&mut self, axis: Axis, requests: u64, granted: u64) {
        debug_assert!(granted <= requests, "more grants than requests");
        let c = &mut self.contention;
        let (req, blocked) = match axis {
            Axis::X => (&mut c.x_requests, &mut c.x_blocked),
            Axis::Y => (&mut c.y_requests, &mut c.y_blocked),
        };
        *req += requests;
        *blocked += requests - granted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_matches_derive() {
        for side in Direction::ALL {
            for out in Direction::ALL {
                let rejected = side == out;
                let want = (!rejected).then(|| VcClass::derive(side, out));
                assert_eq!(CLASS_OF[side.index()][out.index()], want, "{side} -> {out}");
            }
        }
    }
}
