//! Experiment configuration.

use noc_core::{Coord, MeshConfig, RouterConfig, RouterKind, RoutingKind, TopologyConfig};
use noc_fault::{FaultEvent, FaultPlan, FaultSchedule};
use noc_traffic::TrafficKind;

/// Cycle-kernel selection for [`crate::Simulation`].
///
/// Both kernels produce bit-identical [`crate::SimResults`] for a given
/// config and seed — routers draw from counter-based per-router RNG
/// streams ([`noc_core::router_rng`]), so results do not depend on step
/// order or wake-set skipping (the equivalence tests, the fuzz oracle
/// and the benchmark's checks assert this). DESIGN.md §10 documents the
/// kernel and the measurements behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The scheduling oracle: step every router every cycle, each over
    /// every VC. Slow; exists to check [`KernelMode::Soa`] against.
    Reference,
    /// The production kernel (the default): the wake bitset is scanned
    /// word-at-a-time so quiescent routers cost nothing, each awake
    /// router scans only its busy VCs, and idle routers' clocked-cycle
    /// counters are stamped at read-out.
    #[default]
    Soa,
}

/// Full description of one simulation run (§5.4's experimental setup).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Router architecture.
    pub router: RouterKind,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Mesh dimensions (paper: 8×8). With a non-mesh
    /// [`SimConfig::topology`] this is the topology's bounding grid and
    /// must equal `topology.grid(mesh)`.
    pub mesh: MeshConfig,
    /// Network topology (ISSUE 9). The default [`TopologyConfig::Mesh`]
    /// reproduces pre-topology behaviour byte for byte; `Torus`,
    /// `Circulant` and `Chiplet` reshape the port map, link delays and
    /// routing while both kernels, the fault engine, the audit layer and
    /// the energy pipeline run unchanged.
    pub topology: TopologyConfig,
    /// Workload family.
    pub traffic: TrafficKind,
    /// Offered load in flits/node/cycle (the paper's x-axis).
    pub injection_rate: f64,
    /// Unmeasured warm-up packets (paper: 20 000).
    pub warmup_packets: u64,
    /// Measured packets injected after warm-up (paper: 1 000 000).
    pub measured_packets: u64,
    /// RNG seed (traffic, arbitration tie-breaks, fault sites).
    pub seed: u64,
    /// Permanent faults injected before the first cycle.
    pub faults: FaultPlan,
    /// Hard wall-clock cap in cycles (safety net).
    pub max_cycles: u64,
    /// Terminate after this many cycles without a delivery or drop once
    /// generation has finished (the paper's "long period of inactivity").
    pub stall_window: u64,
    /// Whether the RoCo router uses the Mirroring-Effect allocator
    /// (ablation toggle; ignored by the other architectures).
    pub mirror_allocator: bool,
    /// Override of the paper's VCs-per-port (generic router ablations;
    /// the RoCo Table-1 layout requires exactly 3).
    pub vcs_per_port: Option<u8>,
    /// Override of the paper's per-VC buffer depth.
    pub buffer_depth: Option<u8>,
    /// Whether heads may bid for the switch in their VA cycle
    /// (speculative 2-stage pipeline; `false` = 3-stage ablation).
    pub speculative_sa: bool,
    /// Interval-sampler window in cycles: every `sample_window` cycles
    /// the simulation snapshots network-wide and per-router time-series
    /// into the attached `MetricsSink` (no-op without one).
    pub sample_window: u64,
    /// Override of the baseline routers' blocked-packet watchdog timeout
    /// (`u64::MAX` disables the watchdog so fault-blocked packets wedge
    /// forever; used to exercise the stall detector and post-mortem).
    pub block_timeout: Option<u64>,
    /// Which cycle kernel drives the routers (results are identical
    /// either way; see [`KernelMode`]).
    pub kernel: KernelMode,
    /// Timed mid-run fault/repair events, applied when their cycle
    /// arrives (empty = static faults only). The static `faults` plan
    /// still fires before cycle 0, exactly as before.
    pub schedule: FaultSchedule,
    /// Cycles between a mid-run fault (or repair) taking effect inside
    /// a router and its updated availability reaching the neighbours
    /// through the §4.1 handshake signals. Until the republication
    /// lands, neighbours keep acting on the stale status. `0` models an
    /// ideal instant handshake.
    pub handshake_latency: u64,
    /// End-to-end recovery: source network interfaces retransmit
    /// timed-out packets and sinks suppress late duplicates. `None`
    /// (the default) disables the whole layer.
    pub recovery: Option<RecoveryConfig>,
    /// Fault-aware adaptive routing (ISSUE 8): when `true`, the
    /// published §4.1 statuses are condensed into a network-wide
    /// [`noc_core::LinkMask`] handed to every router's route
    /// computation (masked candidate sets + the west-first escape
    /// path), and a [`noc_core::ReachabilityMap`] lets sources fail
    /// packets toward unreachable destinations fast as `unroutable`.
    /// `false` (the default) keeps the fault-oblivious behaviour
    /// byte-identical to earlier releases.
    pub fault_routing: bool,
    /// Runtime invariant auditing: when set, an [`crate::Auditor`] runs
    /// inside every [`crate::Simulation::step`], checking flit
    /// conservation, credit-book consistency, VC state-machine legality
    /// and fault-status coherence. `None` (the default) keeps the hot
    /// path audit-free.
    pub audit: Option<AuditConfig>,
    /// Simulator self-profiling: when set, per-phase wall-time timers,
    /// wake-set gauges and steady-state allocation
    /// counters run inside every [`crate::Simulation::step`], and
    /// [`crate::SimResults`] carries a [`crate::ProfileReport`].
    /// Strictly read-only — results and digests are identical with
    /// profiling on or off.
    pub profile: bool,
}

/// Source-retransmission parameters for the end-to-end recovery layer.
///
/// A source keeps every injected packet in an outstanding table until
/// the sink's delivery is observed. A packet that stays outstanding for
/// `timeout` cycles is re-sent from the network interface; each retry
/// doubles the wait (capped at `backoff_cap`) until `max_retries`
/// attempts have failed, after which the packet is abandoned and
/// counted in [`crate::RecoveryStats::abandoned_packets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Cycles a packet may stay outstanding before its first
    /// retransmission.
    pub timeout: u64,
    /// Maximum number of retransmission attempts per packet.
    pub max_retries: u32,
    /// Upper bound on the exponentially backed-off timeout.
    pub backoff_cap: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { timeout: 200, max_retries: 4, backoff_cap: 2_000 }
    }
}

/// Parameters of the runtime invariant auditor (see `crate::audit`).
///
/// Per-flit checks (stream ordering, the conservation ledger, status
/// coherence) always run every cycle while auditing is on; `interval`
/// only paces the global state sweep (credit books, VC legality,
/// quiescence), which walks every router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Cycles between global invariant sweeps (1 = every cycle).
    pub interval: u64,
    /// At most this many violations are recorded verbatim in the
    /// report (all violations are still *counted*).
    pub max_recorded: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { interval: 1, max_recorded: 16 }
    }
}

impl SimConfig {
    /// A scaled-down version of the paper's setup that regenerates every
    /// figure in seconds: 1 000 warm-up + 20 000 measured packets on an
    /// 8×8 mesh. Scale `warmup_packets`/`measured_packets` up to
    /// 20 000 / 1 000 000 for the full-size runs.
    pub fn paper_scaled(router: RouterKind, routing: RoutingKind, traffic: TrafficKind) -> Self {
        SimConfig {
            router,
            routing,
            mesh: MeshConfig::new(8, 8),
            topology: TopologyConfig::Mesh,
            traffic,
            injection_rate: 0.3,
            warmup_packets: 1_000,
            measured_packets: 20_000,
            seed: 0xC0C0,
            faults: FaultPlan::none(),
            max_cycles: 2_000_000,
            stall_window: 10_000,
            mirror_allocator: true,
            vcs_per_port: None,
            buffer_depth: None,
            speculative_sa: true,
            sample_window: 100,
            block_timeout: None,
            kernel: KernelMode::default(),
            schedule: FaultSchedule::none(),
            handshake_latency: 4,
            recovery: None,
            fault_routing: false,
            audit: None,
            profile: false,
        }
    }

    /// The per-router configuration implied by this run.
    pub fn router_config(&self) -> RouterConfig {
        let mut cfg = RouterConfig::paper(self.router, self.routing);
        cfg.mirror_allocator = self.mirror_allocator;
        if let Some(v) = self.vcs_per_port {
            cfg.vcs_per_port = v;
        }
        if let Some(d) = self.buffer_depth {
            cfg.buffer_depth = d;
        }
        cfg.speculative_sa = self.speculative_sa;
        if let Some(t) = self.block_timeout {
            cfg.block_timeout = t;
        }
        cfg
    }

    /// Selects the network topology (builder style), snapping the mesh
    /// dimensions to the topology's bounding grid so flat node indexing
    /// stays coherent.
    pub fn with_topology(mut self, topology: TopologyConfig) -> Self {
        self.topology = topology;
        self.mesh = topology.grid(self.mesh);
        self
    }

    /// Sets the injection rate (builder style).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.injection_rate = rate;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the cycle kernel (builder style).
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the mid-run fault/repair schedule (builder style).
    pub fn with_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enables end-to-end recovery (builder style).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Enables fault-aware adaptive routing with reachability-aware
    /// recovery (builder style). See [`SimConfig::fault_routing`].
    pub fn with_fault_routing(mut self) -> Self {
        self.fault_routing = true;
        self
    }

    /// Enables runtime invariant auditing (builder style).
    pub fn with_audit(mut self, audit: AuditConfig) -> Self {
        self.audit = Some(audit);
        self
    }

    /// Enables the simulator self-profiler (builder style). Results
    /// and digests are identical with profiling on or off.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Total packets to generate.
    pub fn total_packets(&self) -> u64 {
        self.warmup_packets + self.measured_packets
    }
}

/// Re-targets an existing config onto `topology`, adjusting whatever
/// else must move with it (unlike [`SimConfig::with_topology`], which
/// only snaps the grid):
///
/// * a torus grows the mesh to at least 3×3 (rings need three nodes to
///   wrap meaningfully), and the mesh then snaps to the topology's
///   bounding grid;
/// * wraparound topologies (torus, circulant) force the Generic router
///   with deterministic XY routing and ≥ 2 VCs per port — the dateline
///   scheme's support envelope ([`noc_core::TopologyOps::check_support`]);
/// * fault-plan and fault-schedule sites are remapped onto the new node
///   set by flat index modulo the node count, so a campaign drawn for
///   an 8×8 mesh keeps striking *somewhere* on a 13-node circulant
///   instead of panicking off-grid.
///
/// This is the transform behind the CI topology matrix
/// ([`apply_env_topology`]) and the fuzz harness's topology draw.
pub fn retarget_topology(cfg: &mut SimConfig, topology: TopologyConfig) {
    if topology == TopologyConfig::Torus {
        cfg.mesh = MeshConfig::new(cfg.mesh.width.max(3), cfg.mesh.height.max(3));
    }
    let old_width = cfg.mesh.width;
    let old_nodes = cfg.mesh.nodes();
    cfg.topology = topology;
    cfg.mesh = topology.grid(cfg.mesh);
    if matches!(topology, TopologyConfig::Torus | TopologyConfig::Circulant { .. }) {
        cfg.router = RouterKind::Generic;
        cfg.routing = RoutingKind::Xy;
        if cfg.router_config().vcs_per_port < 2 {
            cfg.vcs_per_port = Some(2);
        }
    }
    let nodes = cfg.mesh.nodes();
    if cfg.mesh.width != old_width || nodes != old_nodes {
        let remap = |site: Coord| Coord::from_index(site.index(old_width) % nodes, cfg.mesh.width);
        for (site, _) in cfg.faults.faults.iter_mut() {
            *site = remap(*site);
        }
        if !cfg.schedule.is_empty() {
            let mut remapped = FaultSchedule::none();
            for &ev in cfg.schedule.events() {
                remapped.push(FaultEvent { site: remap(ev.site), ..ev });
            }
            cfg.schedule = remapped;
        }
    }
}

/// Applies the `NOC_TOPOLOGY` environment selection to `cfg` — the hook
/// the CI topology matrix uses to sweep the kernel-equivalence and
/// audit suites across all four topologies without
/// duplicating their config tables (ISSUE 9).
///
/// Recognised values: the bare names `mesh`, `torus`, `circulant` and
/// `chiplet` (with matrix-friendly defaults: C(13; 1, 5) for the
/// circulant; the mesh factorised into up to 2×2 chips with a 3-cycle
/// die-to-die delay for the chiplet), or any full
/// [`TopologyConfig::parse_spec`] spec such as `circulant:25,1,7` or
/// `chiplet:2x2,4x4,3`. Unset or empty leaves `cfg` untouched. The
/// re-targeting semantics are those of [`retarget_topology`].
///
/// # Panics
///
/// Panics on an unparseable spec: in CI a typo in the matrix must fail
/// the job, not silently run the mesh again.
pub fn apply_env_topology(cfg: &mut SimConfig) {
    let Ok(raw) = std::env::var("NOC_TOPOLOGY") else { return };
    let spec = raw.trim();
    if spec.is_empty() {
        return;
    }
    let topology = match spec {
        "circulant" => TopologyConfig::Circulant { nodes: 13, s1: 1, s2: 5 },
        "chiplet" => {
            let chips_x = if cfg.mesh.width % 2 == 0 { 2 } else { 1 };
            let chips_y = if cfg.mesh.height % 2 == 0 { 2 } else { 1 };
            TopologyConfig::Chiplet {
                chips_x,
                chips_y,
                chip_width: cfg.mesh.width / chips_x,
                chip_height: cfg.mesh.height / chips_y,
                d2d_delay: 3,
            }
        }
        spec => {
            TopologyConfig::parse_spec(spec).unwrap_or_else(|e| panic!("NOC_TOPOLOGY={spec}: {e}"))
        }
    };
    retarget_topology(cfg, topology);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_defaults() {
        let c = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
        assert_eq!(c.mesh.nodes(), 64);
        assert_eq!(c.total_packets(), 21_000);
        assert!(c.faults.is_empty());
        assert!(c.schedule.is_empty());
        assert!(c.recovery.is_none());
        assert!(!c.fault_routing, "fault-aware routing is opt-in");
        assert_eq!(c.router_config().buffer_depth, 5);
    }

    #[test]
    fn builders() {
        let c = SimConfig::paper_scaled(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform)
            .with_rate(0.1)
            .with_seed(7)
            .with_kernel(KernelMode::Reference);
        assert_eq!(c.injection_rate, 0.1);
        assert_eq!(c.seed, 7);
        assert_eq!(c.kernel, KernelMode::Reference);
        assert_eq!(c.router_config().buffer_depth, 4);
    }

    #[test]
    fn topology_builder_snaps_mesh_to_grid() {
        let c = SimConfig::paper_scaled(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform);
        assert_eq!(c.topology, TopologyConfig::Mesh, "mesh topology is the default");
        let c = c.with_topology(TopologyConfig::Circulant { nodes: 13, s1: 1, s2: 5 });
        assert_eq!(c.mesh, MeshConfig::new(13, 1));
        let c = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform)
            .with_topology(TopologyConfig::Chiplet {
                chips_x: 2,
                chips_y: 2,
                chip_width: 4,
                chip_height: 4,
                d2d_delay: 3,
            });
        assert_eq!(c.mesh, MeshConfig::new(8, 8));
    }

    #[test]
    fn retarget_forces_wraparound_support_and_remaps_faults() {
        use noc_core::{ComponentFault, TopologyOps};
        let mut c =
            SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Adaptive, TrafficKind::Uniform);
        let fault = ComponentFault::new(noc_core::FaultComponent::Crossbar, noc_core::Axis::X);
        // A site valid on the 8×8 mesh but off-grid on a 13×1 strip.
        c.faults = FaultPlan::single(Coord::new(7, 7), fault);
        c.schedule.push_permanent(50, Coord::new(7, 7), fault);
        retarget_topology(&mut c, TopologyConfig::Circulant { nodes: 13, s1: 1, s2: 5 });
        assert_eq!(c.mesh, MeshConfig::new(13, 1));
        assert_eq!(c.router, RouterKind::Generic, "wraparound forces Generic");
        assert_eq!(c.routing, RoutingKind::Xy, "wraparound forces XY");
        assert!(c.router_config().vcs_per_port >= 2, "dateline scheme needs 2 VCs");
        let site = c.faults.faults[0].0;
        assert_eq!(site, Coord::from_index(63 % 13, 13), "site remapped by index mod nodes");
        assert_eq!(c.schedule.events()[0].site, site);
        // Resolves and passes the support check end to end.
        let topo = c.topology.resolve(c.mesh).unwrap();
        topo.check_support(c.router, c.routing, c.router_config().vcs_per_port as usize).unwrap();
    }

    #[test]
    fn retarget_torus_grows_small_grids() {
        let mut c =
            SimConfig::paper_scaled(RouterKind::Generic, RoutingKind::Xy, TrafficKind::Uniform);
        c.mesh = MeshConfig::new(2, 2);
        retarget_topology(&mut c, TopologyConfig::Torus);
        assert_eq!(c.mesh, MeshConfig::new(3, 3));
        assert!(c.topology.resolve(c.mesh).is_ok());
    }

    #[test]
    fn default_kernel_is_soa() {
        let c = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
        assert_eq!(c.kernel, KernelMode::Soa);
    }
}
