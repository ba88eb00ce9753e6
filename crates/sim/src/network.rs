//! The flit-level, cycle-accurate mesh simulator (§5.1).
//!
//! Per cycle: (0) scheduled fault/repair events fire, §4.1 status
//! republications land, and end-to-end recovery timeouts retransmit;
//! then (1) flits and credits emitted in the previous cycle are
//! delivered across their one-cycle links; (2) the traffic model offers
//! new packets to the network interfaces, which inject at most one flit
//! per node per cycle; (3) every router executes one pipeline step
//! (stage 1 = look-ahead RC + VA + speculative SA, stage 2 = switch
//! traversal of the previous cycle's winners). All randomness is
//! counter-based: the sequential phases draw from the seeded master
//! RNG, and each router step draws from its own
//! `(seed, router, cycle)` stream ([`noc_core::router_rng`]), so runs
//! are exactly reproducible regardless of kernel.
//!
//! The cycle kernel is allocation-free in steady state: topology is
//! precomputed into index tables, in-flight lists and router outputs
//! are recycled as double/scratch buffers, and under the default
//! [`KernelMode::Soa`] a wake bitset skips routers that are provably
//! quiescent while each awake router scans only its busy VCs (see
//! DESIGN.md §10 for the invariants and the proof obligations that keep
//! it bit-identical to [`KernelMode::Reference`]).

use crate::audit::Auditor;
use crate::config::{KernelMode, SimConfig};
use crate::flow::{ClassHistograms, FlowClass};
use crate::metrics::{IntervalSample, MetricsSink, RouterWindow};
use crate::postmortem::{
    CreditLine, FaultTimelineEntry, RouterDiagnosis, StallPostmortem, VcPhase, WedgedPacket,
};
use crate::profile::{Phase, Profiler};
use crate::report::{NodeReport, NodeSummary};
use crate::stats::{RecoveryStats, SimResults, StatsCollector};
use crate::trace::{TraceEvent, TraceSink};
use noc_core::rng::SmallRng;
use noc_core::{
    router_rng, ActivityCounters, ComponentFault, Coord, Credit, Cycle, Direction, Flit, FlitSlab,
    LinkMask, NodeStatus, PacketId, ReachabilityMap, RouterOutputs, StepContext, Topology,
    TopologyOps, VcDescriptor, WakeSet, ALL_VCS, EJECT_VC, RNG_STREAM_INJECT, RNG_STREAM_STEP,
};
use noc_deadlock::{find_channel_cycle, Channel};
use noc_fault::{FaultAction, FaultEvent};
use noc_power::{energy_of, EnergyBreakdown, RouterEnergyProfile};
use noc_router::{Router, VcState};
use noc_routing::RouteComputer;
use noc_traffic::{build_traffic, Traffic};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Instant;

/// Precomputed adjacency: for each node index, the node index of the
/// neighbour in every port direction (indexed by [`Direction::index`];
/// `None` at an unconnected port). Built once per simulation so the
/// hot loop never recomputes [`TopologyOps::neighbor`]; the
/// `kernel_equivalence` tests check it against the coordinate
/// arithmetic exhaustively for every mesh shape from 2×2 to 9×7.
/// Accepts a plain [`noc_core::MeshConfig`] (via `From`) or any resolved
/// [`Topology`] — wraparound and die-to-die links land in the same
/// flat table the kernels index.
pub fn neighbor_table(topo: impl Into<Topology>) -> Vec<[Option<usize>; 4]> {
    let topo = topo.into();
    let grid = topo.grid();
    (0..topo.nodes())
        .map(|i| {
            let coord = Coord::from_index(i, grid.width);
            let mut row = [None; 4];
            for dir in Direction::MESH {
                row[dir.index()] = topo.neighbor(coord, dir).map(|n| n.index(grid.width));
            }
            row
        })
        .collect()
}

/// Per-node, per-direction link delays in cycles (1 everywhere except
/// a chiplet mesh's die-to-die boundary links).
fn link_delay_table(topo: &Topology) -> Vec<[u8; 4]> {
    let grid = topo.grid();
    (0..topo.nodes())
        .map(|i| {
            let coord = Coord::from_index(i, grid.width);
            let mut row = [1u8; 4];
            for dir in Direction::MESH {
                row[dir.index()] = topo.link_delay(coord, dir);
            }
            row
        })
        .collect()
}

/// A flit in flight on a link, due at `node` on side `from`.
#[derive(Debug, Clone)]
pub(crate) struct FlitInFlight {
    pub(crate) node: usize,
    pub(crate) from: Direction,
    pub(crate) vc: u8,
    pub(crate) flit: Flit,
}

/// A credit in flight, due at `node`'s output `output`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditInFlight {
    pub(crate) node: usize,
    pub(crate) output: Direction,
    pub(crate) credit: Credit,
}

/// End-to-end recovery bookkeeping for one not-yet-delivered packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outstanding {
    src: Coord,
    dst: Coord,
    created_at: Cycle,
    /// Retransmission attempts issued so far (0 = original send). The
    /// current attempt's deadline lives only in its `timeouts` heap
    /// entry; stale entries are detected by this counter.
    attempt: u32,
    /// Whether the head has been counted in the injected statistics
    /// (retries re-inject the same packet without re-counting it).
    injected_counted: bool,
}

/// Interval-sampler state: the baselines captured at the previous
/// window boundary, subtracted from the live totals to form per-window
/// deltas.
#[derive(Debug)]
struct Sampler {
    /// Index of the window currently accumulating.
    window: u64,
    /// Cycle the current window started at.
    window_start: Cycle,
    /// Per-router counter baselines.
    counters: Vec<ActivityCounters>,
    /// Per-node injected-packet baselines.
    injected: Vec<u64>,
    /// Per-node delivered-packet baselines.
    delivered: Vec<u64>,
    /// Network-wide baselines.
    generated: u64,
    injected_total: u64,
    delivered_total: u64,
    dropped: u64,
    fault_events: u64,
    /// Latencies of packets delivered during the current window.
    latencies: Vec<u64>,
    /// Per-flow-class histograms of the current window's deliveries.
    class_hists: ClassHistograms,
}

impl Sampler {
    fn new(nodes: usize) -> Self {
        Sampler {
            window: 0,
            window_start: 0,
            counters: vec![ActivityCounters::default(); nodes],
            injected: vec![0; nodes],
            delivered: vec![0; nodes],
            generated: 0,
            injected_total: 0,
            delivered_total: 0,
            dropped: 0,
            fault_events: 0,
            latencies: Vec::new(),
            class_hists: ClassHistograms::new(),
        }
    }
}

/// A running simulation. Most callers use [`Simulation::run`]; the
/// stepping API exists for tests and interactive tooling.
#[derive(Debug)]
pub struct Simulation {
    pub(crate) cfg: SimConfig,
    pub(crate) routers: Vec<Router>,
    /// Flat flit storage for every router's VC buffers (ISSUE 10): one
    /// contiguous per-network slab of fixed-capacity rings, indexed by
    /// `(router, ring)`. Routers keep the control state (heads of line,
    /// credits, phases); the flits themselves live here, so a flit hop
    /// is an index move instead of a `VecDeque` operation. A separate
    /// field from `routers` on purpose — the kernel borrows the two
    /// disjointly (a slab window alongside `&mut` routers).
    pub(crate) slab: FlitSlab,
    traffic: Box<dyn Traffic>,
    computer: RouteComputer,
    pub(crate) sources: Vec<VecDeque<Flit>>,
    pub(crate) flits_in_flight: Vec<FlitInFlight>,
    pub(crate) credits_in_flight: Vec<CreditInFlight>,
    /// Double buffers for the in-flight lists: swapped with
    /// `*_in_flight` at the top of every cycle and drained, so the
    /// steady state reuses two allocations instead of growing new ones.
    flits_arriving: Vec<FlitInFlight>,
    credits_arriving: Vec<CreditInFlight>,
    /// The resolved network topology ([`SimConfig::topology`]). The
    /// default mesh reproduces pre-topology behaviour exactly; the
    /// kernels themselves only see the flat `neighbor_idx` /
    /// `link_delay` tables derived from it.
    pub(crate) topology: Topology,
    /// Per-node, per-direction link delays ([`link_delay_table`]);
    /// all-ones except on chiplet die-to-die boundaries.
    link_delay: Vec<[u8; 4]>,
    /// Delay-wheel slots for flits on multi-cycle links, one slot per
    /// future arrival cycle beyond the next (`max_link_delay - 1`
    /// slots; empty on single-cycle topologies, where the legacy
    /// `flits_in_flight`/`flits_arriving` double buffer is the whole
    /// story). A flit emitted at cycle `T` over a delay-`d` link sits
    /// in slot `(T + d) % slots` until promoted into
    /// `flits_in_flight` one cycle before delivery.
    flits_future: Vec<Vec<FlitInFlight>>,
    /// Delay-wheel slots for credits (credits cross the same wires, so
    /// they pay the same die-to-die latency).
    credits_future: Vec<Vec<CreditInFlight>>,
    /// Precomputed per-node coordinates (index ↔ coord cache).
    pub(crate) coords: Vec<Coord>,
    /// Precomputed per-node neighbour indices ([`neighbor_table`]).
    pub(crate) neighbor_idx: Vec<[Option<usize>; 4]>,
    /// Per-node status as last *published* to the neighbours through
    /// the §4.1 handshake. A mid-run fault or repair changes the
    /// afflicted router immediately, but this buffer — and therefore
    /// every neighbour's look-ahead decision — only updates when the
    /// republication fires `handshake_latency` cycles later.
    pub(crate) statuses: Vec<NodeStatus>,
    /// Network-wide usable-link mask derived from the *published*
    /// statuses (ISSUE 8): rebuilt whenever a §4.1 republication lands,
    /// so it inherits the same bounded `handshake_latency` staleness
    /// every neighbour view has. `None` unless
    /// [`SimConfig::fault_routing`] is on — the routers then behave
    /// exactly as before the mask existed.
    pub(crate) mask: Option<LinkMask>,
    /// Source-side reachability map over the masked link graph,
    /// recomputed together with `mask`. Drives the generation-
    /// time fail-fast and the retry short-circuit (the `unroutable`
    /// outcome). `None` unless fault-aware routing is on.
    pub(crate) reach: Option<ReachabilityMap>,
    /// Reusable router-output scratch (`Router::step` clears it on entry).
    outputs: RouterOutputs,
    /// Wake-set: an awake bit means the router may do observable work
    /// this cycle and must be stepped. Set on flit/credit delivery and
    /// successful injection; cleared after a step that leaves the
    /// router quiescent. Kept under both kernels, but only
    /// [`KernelMode::Soa`] skips the routers it marks asleep. Packed
    /// into `u64` words ([`WakeSet`]) so the kernel scans 64 routers
    /// per word via `trailing_zeros` (DESIGN.md §10).
    pub(crate) wake: WakeSet,
    /// Flat mirror of each router's `status().node_dead()`, refreshed
    /// whenever a fault event strikes. Saves the traffic generator one
    /// virtual dispatch per node per cycle.
    node_dead: Vec<bool>,
    /// Busy-VC masks reported by each router's last step (bit =
    /// internal VC id; `u64::MAX` before the first step). The audit
    /// checks every non-quiet VC lies inside its router's mask.
    pub(crate) vc_busy: Vec<u64>,
    /// Last observed per-router occupancy (valid after each phase 3:
    /// a router's occupancy only changes in cycles it is stepped in).
    pub(crate) occ_cache: Vec<usize>,
    /// Σ `occ_cache` — buffered flits network-wide, kept incrementally.
    pub(crate) occ_total: usize,
    /// Σ `sources[i].len()` — flits awaiting injection, kept
    /// incrementally so [`Simulation::flits_in_system`] is O(1).
    pub(crate) source_total: usize,
    /// Router steps taken so far (the simulator's own work, reported
    /// as [`SimResults::router_steps`]).
    router_steps: u64,
    /// VC slots the stepped routers scanned so far
    /// ([`SimResults::vc_slots_scanned`]).
    vc_slots_scanned: u64,
    /// Master RNG, consumed only by the sequential phases (traffic
    /// generation, injection ordering). Router steps and injections
    /// draw from counter-based per-router streams instead
    /// ([`router_rng`]), so their draws are independent of kernel and
    /// step order.
    rng: SmallRng,
    pub(crate) cycle: Cycle,
    pub(crate) stats: StatsCollector,
    per_node: Vec<NodeSummary>,
    trace: Option<Box<dyn TraceSink>>,
    metrics: Option<Box<dyn MetricsSink>>,
    sampler: Sampler,
    pub(crate) next_packet: u64,
    last_progress: Cycle,
    pub(crate) stalled: bool,
    postmortem: Option<StallPostmortem>,
    /// Index of the next unfired event in `cfg.schedule`.
    schedule_cursor: usize,
    /// Faults currently active at each node (repairs remove theirs,
    /// then re-inject the remainder).
    active_faults: Vec<Vec<ComponentFault>>,
    /// Pending §4.1 republications: `(due cycle, node index)`, pushed
    /// in nondecreasing due order because the handshake latency is
    /// constant.
    republish_queue: VecDeque<(Cycle, usize)>,
    /// Every applied fault/repair event, for the stall post-mortem.
    fault_log: Vec<FaultTimelineEntry>,
    /// Cumulative applied fault/repair events (interval-sampler source).
    fault_events_total: u64,
    /// Outstanding-packet table of the recovery layer, keyed by packet
    /// id (empty when recovery is disabled).
    pub(crate) outstanding: HashMap<u64, Outstanding>,
    /// Retransmission deadlines: a min-heap of `(deadline, packet id,
    /// attempt)` with lazy deletion (stale attempts are skipped).
    timeouts: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    /// Recovery outcome counters (reported when recovery is enabled).
    pub(crate) recovery: RecoveryStats,
    /// The runtime invariant checker, present when [`SimConfig::audit`]
    /// is set. Boxed: the checker carries per-packet/per-stream tables
    /// that would bloat the `Simulation` footprint, and it is taken out
    /// and put back around every sweep so it can borrow the simulation
    /// immutably.
    auditor: Option<Box<Auditor>>,
    /// The self-profiler, present when [`SimConfig::profile`] is set.
    /// Strictly read-only with respect to simulated state: it observes
    /// wall clocks and already-computed sizes, so digests are identical
    /// with profiling on or off (asserted by the observability tests).
    profiler: Option<Box<Profiler>>,
}

impl Simulation {
    /// Builds the network, injects the fault plan and wires the links.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: SimConfig) -> Self {
        let rcfg = cfg.router_config();
        let traffic = build_traffic(cfg.traffic, cfg.mesh, cfg.injection_rate, rcfg.num_flits);
        Self::with_traffic(cfg, traffic)
    }

    /// Like [`Simulation::new`] but with a caller-supplied traffic
    /// generator (e.g. [`noc_traffic::ReplayTraffic`] to replay a
    /// recorded schedule; the config's `traffic`/`injection_rate`
    /// fields are then only documentation).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn with_traffic(cfg: SimConfig, traffic: Box<dyn Traffic>) -> Self {
        // Grid legality is per-topology (a circulant's N×1 bounding
        // strip is not a legal *mesh*), so `resolve` owns it.
        let rcfg = cfg.router_config();
        rcfg.validate().expect("invalid router config");
        let topo = cfg.topology.resolve(cfg.mesh).expect("invalid topology");
        assert_eq!(
            topo.grid(),
            cfg.mesh,
            "SimConfig::mesh must equal the topology's bounding grid \
             (use SimConfig::with_topology, which snaps it)"
        );
        topo.check_support(rcfg.router, cfg.routing, rcfg.vcs_per_port as usize)
            .expect("router/routing unsupported on this topology");
        let mesh = cfg.mesh;
        let mut routers: Vec<Router> = (0..mesh.nodes())
            .map(|i| Router::new(Coord::from_index(i, mesh.width), rcfg, &topo))
            .collect();
        // Faults first: the wiring below publishes post-fault VC lists,
        // modelling the neighbour handshake of §4.1. Construction
        // faults also seed the active-fault registry, so a scheduled
        // mid-run repair at the same node re-applies them correctly.
        let mut active_faults: Vec<Vec<ComponentFault>> = vec![Vec::new(); mesh.nodes()];
        for (coord, fault) in &cfg.faults.faults {
            routers[coord.index(mesh.width)].inject_fault(*fault);
            active_faults[coord.index(mesh.width)].push(*fault);
        }
        // Wire each output to the neighbour's opposite-side VC list.
        // One scratch vector bridges the `routers[n]` read / `routers[i]`
        // write borrow conflict for all links instead of a fresh copy
        // per link.
        let neighbor_idx = neighbor_table(&topo);
        let mut descs: Vec<VcDescriptor> = Vec::new();
        for i in 0..routers.len() {
            for dir in Direction::MESH {
                if let Some(n) = neighbor_idx[i][dir.index()] {
                    descs.clear();
                    descs.extend_from_slice(routers[n].core.link_descriptors(dir.opposite()));
                    routers[i].core.connect_output(dir, &descs);
                }
            }
        }
        let computer = RouteComputer::on(cfg.routing, topo.clone());
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let nodes = mesh.nodes();
        let statuses: Vec<NodeStatus> = routers.iter().map(|r| r.core.status()).collect();
        let statuses_dead = statuses.iter().map(|s| s.node_dead()).collect();
        let auditor = cfg.audit.map(|a| Box::new(Auditor::new(a, &cfg)));
        let profiler = cfg.profile.then(|| Box::new(Profiler::new()));
        // Construction faults are part of the initial published statuses
        // (§4.1 wires post-fault VC lists above), so the initial mask
        // and reachability view already account for them.
        let mask = cfg.fault_routing.then(|| LinkMask::from_statuses(&topo, &statuses));
        let reach = mask.as_ref().map(ReachabilityMap::compute);
        let link_delay = link_delay_table(&topo);
        // One wheel slot per arrival cycle beyond the next; none at all
        // on single-cycle topologies, where the double buffer alone
        // carries every in-flight flit exactly as before.
        let wheel_slots = topo.max_link_delay().saturating_sub(1) as usize;
        // One slab ring per internal VC, every router identical: the
        // mesh is homogeneous (same RouterConfig everywhere), and ring
        // capacities are nominal + slop — construction faults shrink a
        // VC's *credited* capacity, never its storage, so the slab
        // layout is fault-invariant.
        let ring_caps = routers[0].core.ring_capacities();
        debug_assert!(
            routers.iter().all(|r| r.core.ring_capacities() == ring_caps),
            "slab layout requires homogeneous routers"
        );
        let slab = FlitSlab::new(nodes, &ring_caps);
        Simulation {
            cfg,
            routers,
            slab,
            traffic,
            computer,
            // Source queues absorb generation bursts that outpace
            // injection; a generous initial capacity keeps occasional
            // new backlog records from reallocating mid-run (the
            // steady-state zero-allocation guarantee). Built with map,
            // not vec![..; n]: cloning a VecDeque drops its capacity.
            sources: (0..nodes).map(|_| VecDeque::with_capacity(256)).collect(),
            flits_in_flight: Vec::new(),
            credits_in_flight: Vec::new(),
            flits_arriving: Vec::new(),
            credits_arriving: Vec::new(),
            topology: topo,
            link_delay,
            flits_future: (0..wheel_slots).map(|_| Vec::new()).collect(),
            credits_future: (0..wheel_slots).map(|_| Vec::new()).collect(),
            coords: (0..nodes).map(|i| Coord::from_index(i, mesh.width)).collect(),
            neighbor_idx,
            statuses,
            mask,
            reach,
            outputs: RouterOutputs::new(),
            // All routers start on the wake-set: the first step settles
            // each one into its true quiescence state.
            wake: WakeSet::all_awake(nodes),
            node_dead: statuses_dead,
            vc_busy: vec![u64::MAX; nodes],
            occ_cache: vec![0; nodes],
            occ_total: 0,
            source_total: 0,
            router_steps: 0,
            vc_slots_scanned: 0,
            rng,
            cycle: 0,
            stats: StatsCollector::new(),
            per_node: vec![NodeSummary::default(); nodes],
            trace: None,
            metrics: None,
            sampler: Sampler::new(nodes),
            next_packet: 0,
            last_progress: 0,
            stalled: false,
            postmortem: None,
            schedule_cursor: 0,
            active_faults,
            republish_queue: VecDeque::new(),
            fault_log: Vec::new(),
            fault_events_total: 0,
            outstanding: HashMap::new(),
            timeouts: BinaryHeap::new(),
            recovery: RecoveryStats::default(),
            auditor,
            profiler,
        }
    }

    /// Attaches a trace sink receiving every packet lifecycle event.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detaches and returns the trace sink, if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Attaches a metrics sink receiving one [`IntervalSample`] every
    /// `sample_window` cycles. The sampler baseline resets to the
    /// current state, so a sink attached mid-run sees deltas from this
    /// point onward only.
    pub fn set_metrics_sink(&mut self, sink: Box<dyn MetricsSink>) {
        self.reset_sampler();
        self.metrics = Some(sink);
    }

    /// Detaches and returns the metrics sink, if any.
    pub fn take_metrics_sink(&mut self) -> Option<Box<dyn MetricsSink>> {
        self.metrics.take()
    }

    /// The stall diagnosis, present once the inactivity detector fired.
    pub fn postmortem(&self) -> Option<&StallPostmortem> {
        self.postmortem.as_ref()
    }

    fn reset_sampler(&mut self) {
        self.sampler.window = 0;
        self.sampler.window_start = self.cycle;
        self.sampler.counters = self.routers.iter().map(|r| r.core.counters).collect();
        self.sampler.injected = self.per_node.iter().map(|n| n.injected).collect();
        self.sampler.delivered = self.per_node.iter().map(|n| n.delivered).collect();
        self.sampler.generated = self.stats.generated;
        self.sampler.injected_total = self.stats.injected;
        self.sampler.delivered_total = self.stats.delivered;
        self.sampler.dropped = self.stats.dropped;
        self.sampler.fault_events = self.fault_events_total;
        self.sampler.latencies.clear();
        self.sampler.class_hists.clear();
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(event);
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Read access to the routers (tests, tooling).
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// Read access to the flat flit slab (benchmarks report its
    /// footprint; the audit layer derives conservation from it).
    pub fn slab(&self) -> &FlitSlab {
        &self.slab
    }

    /// The resolved topology the network was built on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Every flit currently on a link: the next-cycle arrivals plus any
    /// still riding the multi-cycle delay wheel. The audit layer's
    /// credit-book check walks this instead of `flits_in_flight` so
    /// die-to-die links stay conservation-accurate.
    pub(crate) fn flits_on_links(&self) -> impl Iterator<Item = &FlitInFlight> {
        self.flits_in_flight.iter().chain(self.flits_future.iter().flatten())
    }

    /// Every credit currently on a link (see
    /// [`Simulation::flits_on_links`]).
    pub(crate) fn credits_on_links(&self) -> impl Iterator<Item = &CreditInFlight> {
        self.credits_in_flight.iter().chain(self.credits_future.iter().flatten())
    }

    /// Flits currently anywhere in the system (buffers, links, sources).
    /// O(1) in the network size: maintained incrementally by the cycle
    /// kernel (the delay wheel adds one length read per slot, and the
    /// wheel has at most `max_link_delay - 1` slots).
    pub fn flits_in_system(&self) -> usize {
        debug_assert_eq!(
            self.occ_total,
            self.routers.iter().map(|r| r.core.occupancy()).sum::<usize>(),
            "incremental occupancy diverged from the router buffers"
        );
        debug_assert_eq!(
            self.source_total,
            self.sources.iter().map(|s| s.len()).sum::<usize>(),
            "incremental source count diverged from the source queues"
        );
        let wheel: usize = self.flits_future.iter().map(|s| s.len()).sum();
        self.occ_total + self.flits_in_flight.len() + wheel + self.source_total
    }

    /// Whether the run has finished (drained or stalled). With recovery
    /// enabled the run also waits for the outstanding-packet table to
    /// empty, so pending retransmissions still get their chance.
    pub fn finished(&self) -> bool {
        if self.cycle >= self.cfg.max_cycles || self.stalled {
            return true;
        }
        self.generation_done() && self.flits_in_system() == 0 && self.outstanding.is_empty()
    }

    fn generation_done(&self) -> bool {
        self.next_packet >= self.cfg.total_packets()
    }

    /// Whether a packet serial number falls in the measured window.
    fn measured(&self, serial: u64) -> bool {
        serial >= self.cfg.warmup_packets
    }

    /// Advances the simulation one cycle. Allocation-free in steady
    /// state: every buffer below is recycled across cycles.
    pub fn step(&mut self) {
        // Self-profiler segment mark: `None` (and every prof_phase
        // call a no-op) unless profiling is enabled.
        let mut mark = self.profiler.as_ref().map(|_| Instant::now());
        // Phase 0: dynamic faults and recovery. Scheduled fault/repair
        // events strike the afflicted router immediately; the updated
        // availability reaches the neighbours when the §4.1
        // republication fires `handshake_latency` cycles later.
        // Recovery timeouts fire here so retransmitted flits reach the
        // source queues before this cycle's injection phase.
        self.process_schedule();
        self.process_republications();
        self.process_timeouts();
        self.prof_phase(Phase::Faults, &mut mark);
        // Phase 1: link delivery. Swap last cycle's in-flight lists
        // into the arriving double buffers and drain them, so the
        // emission lists below refill the (already sized) originals.
        std::mem::swap(&mut self.flits_in_flight, &mut self.flits_arriving);
        std::mem::swap(&mut self.credits_in_flight, &mut self.credits_arriving);
        // Delay-wheel promotion (multi-cycle links only): flits and
        // credits due next cycle move into the just-emptied in-flight
        // lists ahead of this cycle's emissions, so per-link delivery
        // order is emission order and identical under both kernels.
        if !self.flits_future.is_empty() {
            let slots = self.flits_future.len() as u64;
            let idx = ((self.cycle + 1) % slots) as usize;
            let due = &mut self.flits_future[idx];
            self.flits_in_flight.append(due);
            let due = &mut self.credits_future[idx];
            self.credits_in_flight.append(due);
        }
        for f in self.flits_arriving.drain(..) {
            if let Some(a) = self.auditor.as_deref_mut() {
                a.on_link_flit(self.cycle, f.node, f.from, f.vc, &f.flit);
            }
            self.routers[f.node].core.deliver_flit(
                &mut self.slab.window(f.node),
                f.from,
                f.vc,
                f.flit,
            );
            self.wake.wake(f.node);
        }
        self.prof_phase(Phase::Links, &mut mark);
        for c in self.credits_arriving.drain(..) {
            self.routers[c.node].core.deliver_credit(c.output, c.credit);
            self.wake.wake(c.node);
        }
        self.prof_phase(Phase::Credits, &mut mark);
        // Phase 2: traffic generation and injection.
        self.generate_traffic();
        self.inject();
        self.prof_phase(Phase::Traffic, &mut mark);
        // Wake-word gauge, read before phase 3 edits the wake set.
        if let Some(p) = self.profiler.as_deref_mut() {
            p.record_wake_words(self.wake.occupied_words() as u64, self.wake.words().len() as u64);
        }
        // Phase 3: router pipelines. Neighbour statuses come from the
        // published-status buffer, which only changes when a §4.1
        // republication fires — routers act on the last published
        // availability, not the instantaneous one. Every stepped
        // router draws from its own counter-based RNG stream, so
        // results do not depend on which kernel runs this phase.
        let steps_before = self.router_steps;
        self.step_routers();
        // Wake-set gauge: the routers stepped this cycle (every router
        // under Reference, the awake set under Soa).
        if let Some(p) = self.profiler.as_deref_mut() {
            p.record_wake(self.router_steps - steps_before, self.routers.len() as u64);
        }
        self.prof_phase(Phase::Routers, &mut mark);
        // Stall detection: once generation has ended, a long silence
        // means the remaining packets are wedged behind faults.
        if self.generation_done()
            && self.flits_in_system() > 0
            && self.cycle.saturating_sub(self.last_progress) > self.cfg.stall_window
        {
            self.stalled = true;
            self.postmortem = Some(self.build_postmortem());
        }
        // Audit sweep: taken out so the checker can borrow the whole
        // simulation immutably. Read-only — the sweep never perturbs a
        // run, so digests are identical with auditing on or off.
        if let Some(mut a) = self.auditor.take() {
            if self.cycle % a.interval() == 0 {
                a.check(self);
            }
            self.auditor = Some(a);
        }
        self.prof_phase(Phase::Audit, &mut mark);
        self.cycle += 1;
        if self.metrics.is_some()
            && self.cfg.sample_window > 0
            && self.cycle.saturating_sub(self.sampler.window_start) >= self.cfg.sample_window
        {
            self.flush_window();
        }
        self.prof_phase(Phase::Metrics, &mut mark);
        if let Some(p) = self.profiler.as_deref_mut() {
            p.end_cycle(
                self.flits_in_flight.capacity() + self.flits_arriving.capacity(),
                self.credits_in_flight.capacity() + self.credits_arriving.capacity(),
            );
        }
    }

    /// Charges the wall time since `mark` to `phase` and restarts the
    /// mark. A no-op when profiling is off (`mark` is `None`).
    fn prof_phase(&mut self, phase: Phase, mark: &mut Option<Instant>) {
        if let (Some(p), Some(t)) = (self.profiler.as_deref_mut(), mark.as_mut()) {
            p.add_phase(phase, *t);
            *t = Instant::now();
        }
    }

    /// Phase 3. [`KernelMode::Soa`] scans the wake bitset word by word
    /// (`trailing_zeros` recovers each awake router in ascending order,
    /// so the absorb order — and therefore every digest — matches the
    /// Reference kernel) and steps each awake router over its persistent
    /// busy-VC superset. Asleep routers cost nothing at all: their
    /// clocked-cycle counter is stamped at read-out
    /// ([`Simulation::materialized_counters`]). [`KernelMode::Reference`]
    /// steps every router over every VC.
    fn step_routers(&mut self) {
        let mut out = std::mem::take(&mut self.outputs);
        if self.cfg.kernel == KernelMode::Reference {
            for i in 0..self.routers.len() {
                self.step_router(i, ALL_VCS, &mut out);
            }
        } else {
            for w in 0..self.wake.words().len() {
                // Snapshot the word: `sleep` edits below must not
                // perturb the scan of the cycle's starting wake
                // population.
                let mut bits = self.wake.word(w);
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let scan = self.routers[i].core.hot_mask();
                    self.step_router(i, scan, &mut out);
                }
            }
        }
        self.outputs = out;
    }

    /// Steps router `i` over the VCs in `scan`, absorbs its outputs and
    /// refreshes its wake bit, busy mask and occupancy entry. Only
    /// stepped routers can change occupancy, so refreshing here keeps
    /// the incremental total exact.
    fn step_router(&mut self, i: usize, scan: u64, out: &mut RouterOutputs) {
        let mut rng = router_rng(self.cfg.seed, i, self.cycle, RNG_STREAM_STEP);
        let mut ctx = StepContext::new(self.cycle, &mut rng);
        for dir in Direction::MESH {
            ctx.neighbors[dir.index()] =
                self.neighbor_idx[i][dir.index()].map(|n| self.statuses[n]);
        }
        ctx.mask = self.mask.as_ref();
        self.router_steps += 1;
        self.vc_slots_scanned += u64::from((scan & self.routers[i].core.all_vcs()).count_ones());
        let report = self.routers[i].step(&mut ctx, &mut self.slab.window(i), out, scan);
        self.absorb_step(i, out);
        self.vc_busy[i] = report.busy_vcs;
        self.occ_total = self.occ_total - self.occ_cache[i] + report.occupancy;
        self.occ_cache[i] = report.occupancy;
        self.wake.set(i, !report.quiescent);
    }

    /// Absorbs one stepped router's [`RouterOutputs`] into the global
    /// simulation state: emitted flits and credits onto their links,
    /// local ejections (delivery, recovery accounting, duplicate
    /// suppression), fault drops — plus the audit hooks and trace
    /// events for each. Both kernels funnel every stepped router
    /// through this method in ascending router order, which is what
    /// keeps `flits_in_flight`, `credits_in_flight`, traces and stats
    /// byte-identical across kernels.
    fn absorb_step(&mut self, i: usize, out: &RouterOutputs) {
        let coord = self.coords[i];
        for &(dir, vc, flit) in &out.flits {
            let n = self.neighbor_idx[i][dir.index()].expect("emitted flit must have a neighbour");
            if let Some(a) = self.auditor.as_deref_mut() {
                a.on_emission(self.cycle, n, self.coords[n], self.statuses[n], &flit);
            }
            self.emit(TraceEvent::Hop {
                cycle: self.cycle,
                packet: flit.packet,
                seq: flit.seq,
                node: coord,
                out: dir,
            });
            let hop = FlitInFlight { node: n, from: dir.opposite(), vc, flit };
            let d = self.link_delay[i][dir.index()];
            if d <= 1 {
                self.flits_in_flight.push(hop);
            } else {
                // Multi-cycle (die-to-die) link: park the flit on the
                // wheel slot for its arrival cycle `cycle + d`.
                let slots = self.flits_future.len() as u64;
                let slot = ((self.cycle + d as u64) % slots) as usize;
                self.flits_future[slot].push(hop);
            }
        }
        for &(side, credit) in &out.credits {
            let n =
                self.neighbor_idx[i][side.index()].expect("credits only flow to real neighbours");
            let back = CreditInFlight { node: n, output: side.opposite(), credit };
            let d = self.link_delay[i][side.index()];
            if d <= 1 {
                self.credits_in_flight.push(back);
            } else {
                let slots = self.credits_future.len() as u64;
                let slot = ((self.cycle + d as u64) % slots) as usize;
                self.credits_future[slot].push(back);
            }
        }
        for &flit in &out.ejected {
            if flit.poison {
                if let Some(a) = self.auditor.as_deref_mut() {
                    a.on_poison_ejected(self.cycle, coord, flit.packet.0);
                }
                // The poison tail chasing a fragmented packet made
                // it to the ejection port: the fragment is
                // discarded here (§4.1), never delivered. (A
                // sentinel id means the aborting router no longer
                // knew which packet the wormhole carried.)
                self.stats.dropped += 1;
                self.per_node[i].dropped += 1;
                self.last_progress = self.cycle;
                if flit.packet.0 != u64::MAX {
                    self.emit(TraceEvent::Dropped {
                        cycle: self.cycle,
                        packet: flit.packet,
                        node: coord,
                    });
                }
                continue;
            }
            debug_assert_eq!(flit.dst, coord, "flit ejected at the wrong node");
            if flit.kind.is_tail() {
                let mut deliver = true;
                if self.cfg.recovery.is_some() {
                    match self.outstanding.remove(&flit.packet.0) {
                        Some(o) => {
                            if o.attempt > 0 {
                                self.recovery.recovered_packets += 1;
                            }
                        }
                        None => {
                            // An earlier attempt already delivered
                            // this packet: sink-side duplicate
                            // suppression.
                            self.recovery.duplicates_suppressed += 1;
                            self.last_progress = self.cycle;
                            deliver = false;
                            if let Some(a) = self.auditor.as_deref_mut() {
                                a.on_duplicate(self.cycle, coord, flit.packet.0);
                            }
                        }
                    }
                }
                if deliver {
                    let latency = self.cycle - flit.created_at;
                    let measured = self.measured(flit.packet.0);
                    let class = FlowClass::of(flit.src, flit.dst);
                    self.stats.record_delivery(latency, measured, class);
                    if let Some(a) = self.auditor.as_deref_mut() {
                        a.on_delivered(self.cycle, coord, flit.packet.0);
                    }
                    let node = &mut self.per_node[i];
                    node.delivered += 1;
                    node.latency_sum += latency;
                    if self.metrics.is_some() {
                        self.sampler.latencies.push(latency);
                        self.sampler.class_hists.record(class, latency);
                    }
                    self.last_progress = self.cycle;
                    self.emit(TraceEvent::Delivered {
                        cycle: self.cycle,
                        packet: flit.packet,
                        latency,
                    });
                }
            }
            self.stats.delivered_flits += 1;
        }
        for &flit in &out.dropped {
            if let Some(a) = self.auditor.as_deref_mut() {
                a.on_dropped(self.cycle, coord, &flit);
            }
            if flit.kind.is_head() {
                self.stats.dropped += 1;
                self.per_node[i].dropped += 1;
                self.last_progress = self.cycle;
                self.emit(TraceEvent::Dropped {
                    cycle: self.cycle,
                    packet: flit.packet,
                    node: coord,
                });
            }
        }
    }

    /// Emits the sample for the window ending at the current cycle and
    /// advances the sampler baseline.
    fn flush_window(&mut self) {
        let mesh = self.cfg.mesh;
        let mut latencies = std::mem::take(&mut self.sampler.latencies);
        latencies.sort_unstable();
        let rank = |p: f64| {
            ((latencies.len() as f64 * p).ceil() as usize)
                .saturating_sub(1)
                .min(latencies.len().saturating_sub(1))
        };
        let (latency_mean, latency_p99, latency_p999, latency_max) = if latencies.is_empty() {
            (0.0, 0, 0, 0)
        } else {
            let sum: u128 = latencies.iter().map(|&l| l as u128).sum();
            let mean = sum as f64 / latencies.len() as f64;
            (
                mean,
                latencies[rank(0.99)],
                latencies[rank(0.999)],
                *latencies.last().expect("non-empty"),
            )
        };
        let mut routers = Vec::with_capacity(self.routers.len());
        for i in 0..self.routers.len() {
            let now = self.routers[i].core.counters;
            let prev = self.sampler.counters[i];
            routers.push(RouterWindow {
                node: Coord::from_index(i, mesh.width),
                occupancy: self.routers[i].core.occupancy() as u64,
                occupancy_high_water: now.occupancy_high_water,
                injected: self.per_node[i].injected - self.sampler.injected[i],
                delivered: self.per_node[i].delivered - self.sampler.delivered[i],
                credit_stall_cycles: now.credit_stall_cycles - prev.credit_stall_cycles,
                va_failures: now.va_failures - prev.va_failures,
                blocked_packets: now.blocked_packets,
                rc: now.rc_computations - prev.rc_computations,
                va: (now.va_local_arbs + now.va_global_arbs)
                    - (prev.va_local_arbs + prev.va_global_arbs),
                sa: (now.sa_local_arbs + now.sa_global_arbs)
                    - (prev.sa_local_arbs + prev.sa_global_arbs),
                st: now.crossbar_traversals - prev.crossbar_traversals,
                lt: now.link_traversals - prev.link_traversals,
            });
            self.sampler.counters[i] = now;
            self.sampler.injected[i] = self.per_node[i].injected;
            self.sampler.delivered[i] = self.per_node[i].delivered;
        }
        let sample = IntervalSample {
            window: self.sampler.window,
            cycle_start: self.sampler.window_start,
            cycle_end: self.cycle,
            generated: self.stats.generated - self.sampler.generated,
            injected: self.stats.injected - self.sampler.injected_total,
            delivered: self.stats.delivered - self.sampler.delivered_total,
            dropped: self.stats.dropped - self.sampler.dropped,
            latency_mean,
            latency_p99,
            latency_p999,
            latency_max,
            flits_in_system: self.flits_in_system() as u64,
            fault_events: self.fault_events_total - self.sampler.fault_events,
            classes: self.sampler.class_hists.summaries(),
            routers,
        };
        self.sampler.class_hists.clear();
        self.sampler.window += 1;
        self.sampler.window_start = self.cycle;
        self.sampler.generated = self.stats.generated;
        self.sampler.injected_total = self.stats.injected;
        self.sampler.delivered_total = self.stats.delivered;
        self.sampler.dropped = self.stats.dropped;
        self.sampler.fault_events = self.fault_events_total;
        if let Some(sink) = self.metrics.as_mut() {
            sink.record_sample(&sample);
        }
    }

    /// Freezes the wedged network state into a structured diagnosis.
    fn build_postmortem(&self) -> StallPostmortem {
        let mesh = self.cfg.mesh;
        let mut wedged = Vec::new();
        let mut adj: HashMap<Channel, Vec<Channel>> = HashMap::new();
        for (i, router) in self.routers.iter().enumerate() {
            let coord = Coord::from_index(i, mesh.width);
            let core = &router.core;
            let slab = self.slab.view(i);
            for (k, vc) in core.vcs.iter().enumerate() {
                let Some(head) = slab.front(k) else { continue };
                let (out, blocked_since) = match vc.state {
                    VcState::WaitingVa { .. } => (Some(head.next_out), None),
                    VcState::Blocked { since } => (None, Some(since)),
                    VcState::Active { out, .. } => (Some(out), None),
                    _ => (None, None),
                };
                let credit_starved = core.vc_credit_starved(vc, true);
                wedged.push(WedgedPacket {
                    packet: Some(head.packet),
                    node: coord,
                    input_side: vc.input_side,
                    vc: vc.link_index,
                    phase: VcPhase::of(vc.state, false),
                    out,
                    buffered: slab.len(k),
                    credit_starved,
                    blocked_since,
                    dst: Some(head.dst),
                    // Topology-native destination rendering (ISSUE 9):
                    // a circulant's `#7` or a chiplet's
                    // `chip(1,0)/(0,1)` instead of the raw grid coord.
                    dst_name: Some(self.topology.node_name(head.dst)),
                    // `unroutable destination` diagnosis class (ISSUE
                    // 8): the stream is wedged because no usable-link
                    // path from here reaches where it was going.
                    unroutable_dst: self
                        .reach
                        .as_ref()
                        .is_some_and(|r| !r.reachable(coord, head.dst)),
                });
                // Observed wait-for edges: an Active VC starved of
                // credits waits on the specific downstream VC it holds;
                // a VC stuck in VA waits (over-approximately) on every
                // VC of the link it requested. A cycle among these
                // edges is a deadlock signature; fault blocking
                // produces only chains.
                let here = Channel { node: coord, side: vc.input_side, vc: vc.link_index };
                let Some(out) = out else { continue };
                if out == Direction::Local {
                    continue;
                }
                let Some(n) = self.topology.neighbor(coord, out) else {
                    continue;
                };
                let side = out.opposite();
                match vc.state {
                    VcState::Active { dvc, .. } if credit_starved && dvc != EJECT_VC => {
                        adj.entry(here).or_default().push(Channel { node: n, side, vc: dvc });
                    }
                    VcState::WaitingVa { .. } => {
                        let count =
                            self.routers[n.index(mesh.width)].core.link_descriptors(side).len();
                        adj.entry(here).or_default().extend((0..count as u8).map(|vc| Channel {
                            node: n,
                            side,
                            vc,
                        }));
                    }
                    _ => {}
                }
            }
        }
        let routers = self
            .routers
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let c = &r.core.counters;
                let buffered = r.core.occupancy() as u64;
                (buffered > 0 || c.blocked_packets > 0).then(|| RouterDiagnosis {
                    node: Coord::from_index(i, mesh.width),
                    blocked_packets: c.blocked_packets,
                    buffered,
                    credit_stall_cycles: c.credit_stall_cycles,
                })
            })
            .collect();
        // Remaining credits per downstream VC of every wired output.
        let credit_map = self
            .routers
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                let node = Coord::from_index(i, mesh.width);
                Direction::MESH.into_iter().filter_map(move |output| {
                    let port = r.core.outputs[output.index()].as_ref()?;
                    let credits = port.vcs().iter().map(|v| v.credits).collect();
                    Some(CreditLine { node, output, credits })
                })
            })
            .collect();
        let suspected_loop = find_channel_cycle(&adj).map(|cycle| {
            cycle.iter().map(|ch| format!("{} {}#{}", ch.node, ch.side, ch.vc)).collect()
        });
        StallPostmortem {
            cycle: self.cycle,
            last_progress: self.last_progress,
            flits_in_system: self.flits_in_system() as u64,
            wedged,
            routers,
            credit_map,
            suspected_loop,
            fault_timeline: self.fault_log.clone(),
            abandoned_packets: self.recovery.abandoned_packets,
            unroutable_packets: self.recovery.unroutable_packets,
        }
    }

    /// Flushes the final (possibly partial) sample window and calls
    /// `finish` on the metrics and trace sinks. [`Simulation::run`]
    /// does this automatically; drivers that step manually and then
    /// take the sinks back should call it once the run has finished.
    pub fn finish_observability(&mut self) {
        if let Some(mut a) = self.auditor.take() {
            a.finish(self);
            self.auditor = Some(a);
        }
        if self.metrics.is_some() && self.cycle > self.sampler.window_start {
            self.flush_window();
        }
        if let Some(sink) = self.metrics.as_mut() {
            sink.finish();
        }
        if let Some(sink) = self.trace.as_mut() {
            sink.finish();
        }
    }

    fn generate_traffic(&mut self) {
        if self.generation_done() {
            return;
        }
        let flits_per_packet = self.cfg.router_config().num_flits;
        for i in 0..self.routers.len() {
            if self.generation_done() {
                break;
            }
            let node = self.coords[i];
            if self.node_dead[i] {
                // A dead router's PE cannot reach the network at all; it
                // stops offering traffic (documented in DESIGN.md).
                continue;
            }
            if let Some(dst) = self.traffic.generate(node, self.cycle, &mut self.rng) {
                let id = PacketId(self.next_packet);
                self.next_packet += 1;
                // Generation-time fail-fast (ISSUE 8): when the
                // reachability map proves no path of usable links leads
                // to `dst`, the packet is refused at the source instead
                // of being injected into a retry/abandon cycle. It still
                // counts as generated — the accounting closes as
                // delivered + abandoned + unroutable == generated.
                if self.reach.as_ref().is_some_and(|r| !r.reachable(node, dst)) {
                    self.stats.generated += 1;
                    self.recovery.unroutable_packets += 1;
                    self.last_progress = self.cycle;
                    if let Some(a) = self.auditor.as_deref_mut() {
                        a.on_generated(self.cycle, id.0);
                        a.on_unroutable(self.cycle, id.0);
                    }
                    self.emit(TraceEvent::Generated {
                        cycle: self.cycle,
                        packet: id,
                        src: node,
                        dst,
                    });
                    self.emit(TraceEvent::Unroutable {
                        cycle: self.cycle,
                        packet: id,
                        src: node,
                        dst,
                    });
                    continue;
                }
                let order = self.computer.choose_order(node, dst, &mut self.rng);
                self.sources[i].extend(Flit::packet_flit_iter(
                    id,
                    node,
                    dst,
                    self.cycle,
                    flits_per_packet,
                    order,
                ));
                self.source_total += flits_per_packet as usize;
                self.stats.generated += 1;
                if let Some(a) = self.auditor.as_deref_mut() {
                    a.on_generated(self.cycle, id.0);
                }
                if let Some(rc) = self.cfg.recovery {
                    let deadline = self.cycle + rc.timeout.max(1);
                    self.outstanding.insert(
                        id.0,
                        Outstanding {
                            src: node,
                            dst,
                            created_at: self.cycle,
                            attempt: 0,
                            injected_counted: false,
                        },
                    );
                    self.timeouts.push(Reverse((deadline, id.0, 0)));
                }
                self.emit(TraceEvent::Generated { cycle: self.cycle, packet: id, src: node, dst });
            }
        }
    }

    fn inject(&mut self) {
        for i in 0..self.routers.len() {
            let Some(&flit) = self.sources[i].front() else {
                continue;
            };
            // Injection gets its own counter-based stream (distinct
            // from the step stream) so any future randomized admission
            // policy stays kernel- and thread-count-independent.
            let mut rng = router_rng(self.cfg.seed, i, self.cycle, RNG_STREAM_INJECT);
            let mut ctx = StepContext::new(self.cycle, &mut rng);
            if self.routers[i].core.try_inject(&mut self.slab.window(i), flit, &mut ctx) {
                self.sources[i].pop_front();
                self.source_total -= 1;
                self.wake.wake(i);
                if flit.kind.is_head() {
                    // Retransmitted heads re-enter the network but must
                    // not inflate the injected (completion-denominator)
                    // statistics: each packet is counted once.
                    let count = if self.cfg.recovery.is_none() {
                        true
                    } else {
                        match self.outstanding.get_mut(&flit.packet.0) {
                            Some(o) => !std::mem::replace(&mut o.injected_counted, true),
                            None => false,
                        }
                    };
                    if count {
                        self.stats.injected += 1;
                        self.per_node[i].injected += 1;
                        if self.measured(flit.packet.0) {
                            self.stats.measured_injected += 1;
                        }
                    }
                    self.emit(TraceEvent::Injected {
                        cycle: self.cycle,
                        packet: flit.packet,
                        node: self.coords[i],
                    });
                }
            }
        }
    }

    /// Puts router `i` back on the wake-set and refreshes its entry in
    /// the incremental occupancy total. Any mutation of a router that
    /// happens outside its normal pipeline step (fault injection,
    /// purges, resyncs, retransmission enqueues) must route through
    /// this so the `Soa` kernel stays digest-identical to the
    /// `Reference` kernel (DESIGN.md §10).
    fn wake_and_refresh(&mut self, i: usize) {
        let occ = self.routers[i].core.occupancy();
        self.occ_total = self.occ_total - self.occ_cache[i] + occ;
        self.occ_cache[i] = occ;
        self.wake.wake(i);
    }

    /// Applies every schedule event due at or before the current cycle.
    fn process_schedule(&mut self) {
        while let Some(&ev) = self.cfg.schedule.events().get(self.schedule_cursor) {
            if ev.cycle > self.cycle {
                break;
            }
            self.schedule_cursor += 1;
            self.apply_fault_event(ev);
        }
    }

    /// Applies one fault or repair event to the target router: updates
    /// the active-fault registry, reconfigures the router, discards
    /// in-flight fragments through the faulted module (§4), and queues
    /// the §4.1 status republication `handshake_latency` cycles out.
    fn apply_fault_event(&mut self, ev: FaultEvent) {
        let site = ev.site.index(self.cfg.mesh.width);
        let fault = ev.action.fault();
        match ev.action {
            FaultAction::Inject(_) => {
                self.active_faults[site].push(fault);
                self.routers[site].inject_fault(fault);
                self.emit(TraceEvent::Fault { cycle: self.cycle, node: ev.site, fault });
            }
            FaultAction::Repair(_) => {
                if let Some(pos) = self.active_faults[site].iter().position(|f| *f == fault) {
                    self.active_faults[site].remove(pos);
                }
                // Faults overlap arbitrarily (a node may carry several at
                // once), so a repair rebuilds the router's fault state
                // from scratch: clear everything, re-apply the survivors.
                self.routers[site].core.clear_all_faults();
                for i in 0..self.active_faults[site].len() {
                    let f = self.active_faults[site][i];
                    self.routers[site].inject_fault(f);
                }
                self.emit(TraceEvent::Repair { cycle: self.cycle, node: ev.site, fault });
            }
        }
        // §4: packets caught mid-wormhole through a newly faulted (or
        // just-reconfigured) module are discarded on the spot; poison
        // tails chase the fragments out of downstream routers.
        self.routers[site].core.purge_faulted(&mut self.slab.window(site));
        self.fault_log.push(FaultTimelineEntry {
            cycle: self.cycle,
            node: ev.site,
            repair: !ev.action.is_inject(),
            fault,
        });
        self.fault_events_total += 1;
        self.wake_and_refresh(site);
        // Live/dead status only changes here, so the flat mirror the
        // traffic generator scans every cycle is refreshed in place.
        self.node_dead[site] = self.routers[site].core.status().node_dead();
        if let Some(a) = self.auditor.as_deref_mut() {
            a.on_fault_event(self.cycle, site, self.neighbor_idx[site]);
        }
        // A dead node's PE is cut off entirely: flush its source queue,
        // counting each waiting packet as dropped at the source.
        if self.node_dead[site] && !self.sources[site].is_empty() {
            let flushed = std::mem::take(&mut self.sources[site]);
            self.source_total -= flushed.len();
            let node = self.coords[site];
            for flit in flushed {
                if let Some(a) = self.auditor.as_deref_mut() {
                    a.on_dropped(self.cycle, node, &flit);
                }
                if flit.kind.is_head() {
                    self.stats.dropped += 1;
                    self.per_node[site].dropped += 1;
                    self.emit(TraceEvent::Dropped { cycle: self.cycle, packet: flit.packet, node });
                }
            }
            self.last_progress = self.cycle;
        }
        self.republish_queue.push_back((self.cycle + self.cfg.handshake_latency, site));
    }

    /// Fires every queued §4.1 status republication that has come due.
    /// `handshake_latency` is constant, so the queue is naturally
    /// sorted by due cycle and a FIFO scan suffices.
    fn process_republications(&mut self) {
        let mut changed = false;
        while let Some(&(due, site)) = self.republish_queue.front() {
            if due > self.cycle {
                break;
            }
            self.republish_queue.pop_front();
            self.republish(site);
            changed = true;
        }
        if changed && self.cfg.fault_routing {
            self.rebuild_fault_view();
        }
    }

    /// Rebuilds the usable-link mask and the source-side reachability
    /// map from the just-updated published statuses (ISSUE 8). Runs
    /// only when a §4.1 republication actually landed, so the fault-
    /// aware routing view changes exactly when the neighbour views do
    /// — never earlier, never later — and carries the same bounded
    /// `handshake_latency` staleness.
    ///
    /// No router needs waking: a router sleeps only after a step left
    /// it quiescent (no flit buffered, latched or pending, every VC
    /// idle), so it holds no route the new mask could change and its
    /// step is a no-op under any mask. A router wedged toward a
    /// now-masked link holds a head flit and is therefore awake.
    fn rebuild_fault_view(&mut self) {
        let mask = LinkMask::from_statuses(&self.topology, &self.statuses);
        self.reach = Some(ReachabilityMap::compute(&mask));
        self.mask = Some(mask);
    }

    /// Publishes router `site`'s current status and VC availability to
    /// its neighbours (§4.1): neighbours resynchronise their output-side
    /// credit books against the router's post-fault VC capacities, and
    /// links that just came back into service get their demux state
    /// cleared.
    fn republish(&mut self, site: usize) {
        let prev = self.statuses[site];
        let now = self.routers[site].core.status();
        let mut descs: Vec<VcDescriptor> = Vec::new();
        for dir in Direction::MESH {
            let Some(n) = self.neighbor_idx[site][dir.index()] else {
                continue;
            };
            if !prev.can_serve_output(dir) && now.can_serve_output(dir) {
                // The output module covering `dir` was repaired: any
                // stale mid-wormhole demux state on the input side of
                // that link belongs to packets that no longer exist.
                self.routers[site].core.reset_input_link(&mut self.slab.window(site), dir);
            }
            descs.clear();
            descs.extend_from_slice(self.routers[site].core.link_descriptors(dir));
            self.routers[n].core.resync_output(&mut self.slab.window(n), dir.opposite(), &descs);
            self.wake_and_refresh(n);
        }
        self.statuses[site] = now;
        self.wake_and_refresh(site);
        if let Some(a) = self.auditor.as_deref_mut() {
            a.on_republish(self.cycle, site);
        }
    }

    /// Retransmission clock: expires overdue outstanding packets,
    /// re-enqueueing a fresh copy at the source with exponential
    /// backoff until the retry budget runs out.
    fn process_timeouts(&mut self) {
        let Some(rc) = self.cfg.recovery else { return };
        let flits_per_packet = self.cfg.router_config().num_flits;
        while let Some(&Reverse((due, id, attempt))) = self.timeouts.peek() {
            if due > self.cycle {
                break;
            }
            self.timeouts.pop();
            // Lazy deletion: entries for delivered packets or stale
            // attempts stay in the heap and are skipped here.
            let Some(&o) = self.outstanding.get(&id) else {
                continue;
            };
            if o.attempt != attempt {
                continue;
            }
            // Retry short-circuit (ISSUE 8): when the destination is
            // provably unreachable over the usable-link graph, further
            // retransmissions are a retry storm toward a dead node.
            // Fail the packet fast as unroutable instead of burning the
            // remaining retry budget; a late delivery (the destination
            // repaired mid-flight) is suppressed sink-side as a
            // duplicate, so the accounting stays closed.
            if self.reach.as_ref().is_some_and(|r| !r.reachable(o.src, o.dst)) {
                self.outstanding.remove(&id);
                self.recovery.unroutable_packets += 1;
                self.last_progress = self.cycle;
                if let Some(a) = self.auditor.as_deref_mut() {
                    a.on_unroutable(self.cycle, id);
                }
                self.emit(TraceEvent::Unroutable {
                    cycle: self.cycle,
                    packet: PacketId(id),
                    src: o.src,
                    dst: o.dst,
                });
                continue;
            }
            let src = o.src.index(self.cfg.mesh.width);
            if o.attempt >= rc.max_retries || self.routers[src].core.status().node_dead() {
                self.outstanding.remove(&id);
                self.recovery.abandoned_packets += 1;
                self.last_progress = self.cycle;
                if let Some(a) = self.auditor.as_deref_mut() {
                    a.on_abandoned(self.cycle, id);
                }
                continue;
            }
            let attempt = o.attempt + 1;
            let backoff =
                rc.timeout.saturating_mul(1u64 << attempt.min(20)).min(rc.backoff_cap.max(1));
            let deadline = self.cycle + backoff.max(1);
            let order = self.computer.choose_order(o.src, o.dst, &mut self.rng);
            self.sources[src].extend(Flit::packet_flit_iter(
                PacketId(id),
                o.src,
                o.dst,
                o.created_at,
                flits_per_packet,
                order,
            ));
            self.source_total += flits_per_packet as usize;
            self.wake.wake(src);
            self.outstanding.insert(id, Outstanding { attempt, ..o });
            self.timeouts.push(Reverse((deadline, id, attempt)));
            self.recovery.retransmissions += 1;
            self.last_progress = self.cycle;
        }
    }

    /// Runs one audit sweep immediately, outside the normal cadence, so
    /// mutation-style negative tests can corrupt state and observe the
    /// verdict without waiting for (or perturbing) a full step.
    #[cfg(test)]
    pub(crate) fn audit_sweep_now(&mut self) {
        if let Some(mut a) = self.auditor.take() {
            a.check(self);
            self.auditor = Some(a);
        }
    }

    /// Runs to completion and aggregates the results.
    pub fn run(mut self) -> SimResults {
        while !self.finished() {
            self.step();
        }
        self.finish_observability();
        self.results()
    }

    /// Per-node report: traffic summaries plus each router's activity
    /// and contention counters (heatmap-ready).
    pub fn node_report(&self) -> NodeReport {
        NodeReport {
            mesh: self.cfg.mesh,
            nodes: self.per_node.clone(),
            activity: self.routers.iter().map(|r| self.materialized_counters(r)).collect(),
            contention: self.routers.iter().map(|r| r.core.contention).collect(),
        }
    }

    /// A router's activity counters with the clocked-cycle count
    /// materialised. Every router is clocked every cycle, so instead of
    /// touching each sleeping router per cycle the simulation cycle is
    /// stamped at read-out.
    fn materialized_counters(&self, r: &Router) -> ActivityCounters {
        ActivityCounters { cycles: self.cycle, ..r.core.counters }
    }

    /// Aggregates results at the current point of the run.
    pub fn results(&self) -> SimResults {
        let profile = RouterEnergyProfile::synthesized(&self.cfg.router_config());
        let mut counters = noc_core::ActivityCounters::new();
        let mut contention = noc_core::ContentionCounters::new();
        let mut energy = EnergyBreakdown::default();
        for r in &self.routers {
            let c = self.materialized_counters(r);
            counters.merge(&c);
            contention.merge(&r.core.contention);
            energy.merge(&energy_of(&c, &profile));
        }
        // Link energy is accounted from the same counters (one link
        // traversal per emitted flit), already inside `energy`.
        let delivered = self.stats.delivered;
        let nodes = self.cfg.mesh.nodes() as f64;
        let latency = self.stats.class_histograms.merged();
        SimResults {
            cycles: self.cycle,
            generated_packets: self.stats.generated,
            injected_packets: self.stats.injected,
            measured_injected: self.stats.measured_injected,
            delivered_packets: self.stats.delivered,
            measured_delivered: self.stats.measured_delivered,
            dropped_packets: self.stats.dropped,
            avg_latency: latency.mean(),
            max_latency: latency.max(),
            latency_p50: latency.p50(),
            latency_p95: latency.p95(),
            latency_p99: latency.p99(),
            latency_p999: latency.p999(),
            throughput: self.stats.delivered_flits as f64 / (self.cycle.max(1) as f64 * nodes),
            classes: self.stats.class_histograms.summaries(),
            counters,
            contention,
            router_steps: self.router_steps,
            vc_slots_scanned: self.vc_slots_scanned,
            energy,
            energy_per_packet: if delivered == 0 { 0.0 } else { energy.total() / delivered as f64 },
            stalled: self.stalled,
            postmortem: self.postmortem.clone(),
            // Fault-aware routing reports its unroutable fail-fasts
            // through the same counters even without retransmission.
            recovery: (self.cfg.recovery.is_some() || self.cfg.fault_routing)
                .then_some(self.recovery),
            audit: self.auditor.as_ref().map(|a| a.report()),
            profile: self.profiler.as_ref().map(|p| p.report()),
        }
    }
}

/// Convenience: build and run in one call.
pub fn run(cfg: SimConfig) -> SimResults {
    Simulation::new(cfg).run()
}
