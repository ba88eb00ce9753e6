//! Differential fuzzing of the simulator (ISSUE 4).
//!
//! Each fuzz case draws a small random configuration — mesh size,
//! router architecture, routing algorithm, traffic pattern, static
//! and/or scheduled faults, optional end-to-end recovery — and runs it
//! under **both** cycle kernels (Reference, Soa) with the runtime
//! invariant auditor enabled. A case passes when
//!
//! 1. the [`noc_sim::Auditor`] reports zero violations under each
//!    kernel (flit conservation, credit books, VC legality, status
//!    coherence, busy-mask superset),
//! 2. the Reference and Soa kernels produce bit-identical
//!    [`SimResults::digest`]s, and
//! 3. recovery accounting closes: on a cleanly drained run with
//!    recovery enabled, every generated packet is either delivered or
//!    abandoned.
//!
//! Failures are *shrunk* — the harness greedily simplifies the config
//! (drop the fault schedule, drop static faults, drop recovery, shrink
//! the mesh, shorten the run) while the failure persists — and rendered
//! as a copy-pasteable Rust snippet so a failing case becomes a unit
//! test in seconds.
//!
//! Everything is deterministic: case `i` under base seed `s` is always
//! the same configuration, so a CI failure reproduces locally with
//! `NOC_FUZZ_SEED=<s> NOC_FUZZ_ITERS=<i+1> cargo run --release -p
//! noc-bench --bin fuzz`.

use noc_core::rng::SplitMix64;
use noc_core::{
    ComponentFault, Coord, LinkMask, MeshConfig, NodeStatus, RouterKind, RoutingKind,
    TopologyConfig,
};
use noc_fault::{FaultAction, FaultCategory, FaultEvent, FaultPlan, FaultSchedule};
use noc_router::Router;
use noc_sim::{
    retarget_topology, AuditConfig, KernelMode, RecoveryConfig, SimConfig, SimResults, Simulation,
};
use noc_traffic::TrafficKind;

/// Default iteration count for a full fuzz run (ISSUE 4 acceptance:
/// ≥ 200 configs across all three routers).
pub const DEFAULT_ITERS: u64 = 240;

/// Default base seed; override with `NOC_FUZZ_SEED`.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;

/// How a fuzz case perturbs the network, cycled deterministically so
/// every run covers all modes regardless of the random draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    /// No faults at all (pure kernel-equivalence check).
    None,
    /// A static [`FaultPlan`] applied before cycle 0.
    Static,
    /// A mid-run [`FaultSchedule`] (MTBF-driven injections + repairs).
    Dynamic,
}

/// The deterministic configuration for fuzz case `case` under
/// `base_seed`.
///
/// Coverage is round-robin on the case index — router `case % 3`,
/// fault mode `(case / 3) % 3`, recovery `(case / 9) % 2`, fault-aware
/// routing `(case / 18) % 2`, topology `case % 4` (mesh, torus,
/// C(13;1,5) circulant, 2×2 chiplet mesh) — so the first 36 cases
/// already cross every router with every fault mode, recovery setting,
/// routing awareness and topology; the remaining knobs (mesh, routing,
/// traffic, load, seeds, fault details, die-to-die delay) are drawn
/// from [`SplitMix64`]. Wraparound draws are retargeted through
/// [`noc_sim::retarget_topology`], which forces the supported
/// router/routing/VC combination and remaps fault sites onto the new
/// node set.
pub fn case_config(case: u64, base_seed: u64) -> SimConfig {
    let mut rng = SplitMix64::new(base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let router = RouterKind::ALL[(case % 3) as usize];
    let fault_mode = match (case / 3) % 3 {
        0 => FaultMode::None,
        1 => FaultMode::Static,
        _ => FaultMode::Dynamic,
    };
    let recovery_on = (case / 9) % 2 == 1;
    let fault_routing_on = (case / 18) % 2 == 1;

    let routing = RoutingKind::ALL[rng.below(3) as usize];
    let traffic = TrafficKind::ALL[rng.below(TrafficKind::ALL.len() as u64) as usize];
    let (w, h) = [(3, 3), (4, 3), (4, 4), (5, 4)][rng.below(4) as usize];

    let mut cfg = SimConfig::paper_scaled(router, routing, traffic);
    cfg.mesh = MeshConfig::new(w, h);
    cfg.injection_rate = 0.05 + rng.next_f64() * 0.30;
    cfg.warmup_packets = 10 + rng.below(40);
    cfg.measured_packets = 60 + rng.below(240);
    cfg.seed = rng.next_u64();
    cfg.max_cycles = 40_000;
    cfg.stall_window = 2_000;
    cfg.handshake_latency = rng.below(8);
    cfg.fault_routing = fault_routing_on;
    cfg.audit = Some(AuditConfig { interval: 1, max_recorded: 8 });
    // Per-VC buffer depth: half the cases keep the paper's depth, the
    // rest draw 2..=7 so the flit-slab ring sizing (nominal capacity
    // plus the poison slop) is fuzzed across capacities (ISSUE 10).
    if rng.below(2) == 1 {
        cfg.buffer_depth = Some(2 + rng.below(6) as u8);
    }

    let category =
        if rng.below(2) == 0 { FaultCategory::Isolating } else { FaultCategory::Recyclable };
    match fault_mode {
        FaultMode::None => {}
        FaultMode::Static => {
            let count = 1 + rng.below(3) as usize;
            cfg.faults = FaultPlan::random(category, count, cfg.mesh, rng.next_u64());
        }
        FaultMode::Dynamic => {
            let repair = if rng.below(2) == 0 { Some(400 + rng.below(1_600)) } else { None };
            let mtbf = 1_500.0 + rng.next_f64() * 3_000.0;
            cfg.schedule = FaultSchedule::random_mtbf(
                category,
                cfg.mesh,
                mtbf,
                repair,
                10_000,
                3,
                rng.next_u64(),
            );
        }
    }
    if recovery_on {
        cfg.recovery = Some(RecoveryConfig {
            timeout: 200 + rng.below(400),
            max_retries: 1 + rng.below(3) as u32,
            backoff_cap: 2_000,
        });
    }
    // Topology draw (after faults so retargeting can remap their
    // sites onto the new node set). The traffic patterns clamp
    // destinations to the bounding grid, so every pattern is safe on
    // the circulant's N×1 strip.
    let topology = match case % 4 {
        0 => TopologyConfig::Mesh,
        1 => TopologyConfig::Torus,
        2 => TopologyConfig::Circulant { nodes: 13, s1: 1, s2: 5 },
        _ => TopologyConfig::Chiplet {
            chips_x: 2,
            chips_y: 2,
            chip_width: 2,
            chip_height: 2,
            d2d_delay: 2 + rng.below(3) as u8,
        },
    };
    if topology != TopologyConfig::Mesh {
        retarget_topology(&mut cfg, topology);
    }
    cfg
}

/// Runs `cfg` under both kernels and applies the fuzz oracles.
///
/// Returns `Err(description)` on the first violated oracle; the
/// description embeds the audit report / digests involved.
pub fn check_config(cfg: &SimConfig) -> Result<(), String> {
    if let Some(problem) = masked_cdg_mismatch(cfg) {
        return Err(problem);
    }
    let r = Simulation::new(cfg.clone().with_kernel(KernelMode::Reference)).run();
    let s = Simulation::new(cfg.clone().with_kernel(KernelMode::Soa)).run();

    for (kernel, res) in [("reference", &r), ("soa", &s)] {
        if let Some(report) = &res.audit {
            if !report.clean() {
                return Err(format!("{kernel} kernel audit violations:\n{}", report.render()));
            }
        } else {
            return Err(format!("{kernel} kernel produced no audit report"));
        }
        if let Some(problem) = recovery_mismatch(cfg, res) {
            return Err(format!("{kernel} kernel {problem}"));
        }
    }
    if r.digest() != s.digest() {
        return Err(format!(
            "kernel divergence: reference digest {:#018x} != soa digest {:#018x} \
             (ref: {} delivered / {} dropped in {} cycles; soa: {} delivered / {} dropped in {} \
             cycles)",
            r.digest(),
            s.digest(),
            r.delivered_packets,
            r.dropped_packets,
            r.cycles,
            s.delivered_packets,
            s.dropped_packets,
            s.cycles,
        ));
    }
    Ok(())
}

/// The recovery-accounting oracle: on a cleanly drained run with
/// recovery enabled, `delivered + abandoned + unroutable == generated`
/// (ISSUE 8: reachability-refused packets resolve as `unroutable`).
fn recovery_mismatch(cfg: &SimConfig, res: &SimResults) -> Option<String> {
    let rec = res.recovery.as_ref()?;
    cfg.recovery?;
    let drained = !res.stalled && res.cycles < cfg.max_cycles;
    if !drained {
        return None;
    }
    let closed = res.delivered_packets + rec.abandoned_packets + rec.unroutable_packets;
    if closed != res.generated_packets {
        return Some(format!(
            "recovery accounting open: delivered {} + abandoned {} + unroutable {} = {} != \
             generated {}",
            res.delivered_packets,
            rec.abandoned_packets,
            rec.unroutable_packets,
            closed,
            res.generated_packets,
        ));
    }
    None
}

/// The CDG-acyclicity oracle for fault-aware configs (ISSUE 8): every
/// link-mask state the run's fault timeline can publish — the static
/// plan's mask plus the mask after each scheduled inject/repair — must
/// leave the masked routing function provably deadlock-free.
fn masked_cdg_mismatch(cfg: &SimConfig) -> Option<String> {
    if !cfg.fault_routing {
        return None;
    }
    let mesh = cfg.mesh;
    let topo = cfg.topology.resolve(mesh).expect("fuzz configs carry a valid topology");
    let rcfg = cfg.router_config();
    let mut active: Vec<Vec<ComponentFault>> = vec![Vec::new(); mesh.nodes()];
    for (site, fault) in &cfg.faults.faults {
        active[site.index(mesh.width)].push(*fault);
    }
    let check_state = |active: &[Vec<ComponentFault>], when: &str| -> Option<String> {
        let statuses: Vec<NodeStatus> = (0..mesh.nodes())
            .map(|i| {
                let mut r = Router::new(Coord::from_index(i, mesh.width), rcfg, &topo);
                for f in &active[i] {
                    r.inject_fault(*f);
                }
                r.core.status()
            })
            .collect();
        let mask = LinkMask::from_statuses(&topo, &statuses);
        let analysis = noc_deadlock::verify_masked(cfg.router, cfg.routing, mask);
        (!analysis.deadlock_free()).then(|| {
            format!("masked routing function has a CDG cycle {when}: {:?}", analysis.cycle)
        })
    };
    if let Some(problem) = check_state(&active, "under the static fault plan") {
        return Some(problem);
    }
    for (n, e) in cfg.schedule.events().iter().enumerate() {
        let site = e.site.index(mesh.width);
        match e.action {
            FaultAction::Inject(f) => active[site].push(f),
            FaultAction::Repair(f) => {
                if let Some(pos) = active[site].iter().position(|x| *x == f) {
                    active[site].remove(pos);
                }
            }
        }
        if let Some(problem) = check_state(&active, &format!("after schedule event {n}")) {
            return Some(problem);
        }
    }
    None
}

/// A failing fuzz case, already shrunk.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the failing case under the run's base seed.
    pub case: u64,
    /// Base seed of the run.
    pub base_seed: u64,
    /// The shrunk configuration that still fails.
    pub config: SimConfig,
    /// The oracle's description of the (post-shrink) failure.
    pub reason: String,
}

impl FuzzFailure {
    /// The copy-pasteable Rust reproduction snippet for this failure.
    pub fn render_repro(&self) -> String {
        render_repro(self.case, self.base_seed, &self.config, &self.reason)
    }
}

/// Outcome of a fuzz run: how many cases ran, and the first shrunk
/// failure (if any).
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Cases executed (stops at the first failure).
    pub cases_run: u64,
    /// The first failure, shrunk; `None` when every case passed.
    pub failure: Option<FuzzFailure>,
}

impl FuzzOutcome {
    /// `true` when every case passed.
    pub fn clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs `iters` fuzz cases under `base_seed`, stopping (and shrinking)
/// at the first failure. `progress` is called after each passing case
/// with the case index.
pub fn run_fuzz(iters: u64, base_seed: u64, mut progress: impl FnMut(u64)) -> FuzzOutcome {
    for case in 0..iters {
        let cfg = case_config(case, base_seed);
        if let Err(reason) = check_config(&cfg) {
            let (config, reason) = shrink(&cfg, reason);
            return FuzzOutcome {
                cases_run: case + 1,
                failure: Some(FuzzFailure { case, base_seed, config, reason }),
            };
        }
        progress(case);
    }
    FuzzOutcome { cases_run: iters, failure: None }
}

/// Drops fault sites (static and scheduled) that fell off the grid
/// after a shrink transform changed the mesh shape.
fn drop_offgrid_faults(d: &mut SimConfig) {
    let (w, h) = (d.mesh.width, d.mesh.height);
    d.faults.faults.retain(|(site, _)| site.x < w && site.y < h);
    let kept: Vec<FaultEvent> =
        d.schedule.events().iter().copied().filter(|e| e.site.x < w && e.site.y < h).collect();
    d.schedule = FaultSchedule::none();
    for e in kept {
        d.schedule.push(e);
    }
}

/// Greedily shrinks a failing configuration.
///
/// Transforms are tried in order — drop the fault schedule, drop static
/// faults, drop recovery, disable fault-aware routing, drop a
/// non-mesh topology back to the plain mesh, shrink the mesh
/// to 3×3, shorten the run, simplify traffic/routing, zero the
/// handshake latency, drop the buffer-depth override — and each is
/// kept only when the shrunk config *still fails*. The loop restarts
/// after every accepted shrink and stops at a fixpoint or after a
/// bounded number of re-runs.
pub fn shrink(cfg: &SimConfig, reason: String) -> (SimConfig, String) {
    let transforms: &[fn(&SimConfig) -> Option<SimConfig>] = &[
        |c| {
            (!c.schedule.is_empty()).then(|| {
                let mut d = c.clone();
                d.schedule = FaultSchedule::none();
                d
            })
        },
        |c| {
            (!c.faults.is_empty()).then(|| {
                let mut d = c.clone();
                d.faults = FaultPlan::none();
                d
            })
        },
        |c| {
            c.recovery.is_some().then(|| {
                let mut d = c.clone();
                d.recovery = None;
                d
            })
        },
        |c| {
            c.fault_routing.then(|| {
                let mut d = c.clone();
                d.fault_routing = false;
                d
            })
        },
        |c| {
            (c.topology != TopologyConfig::Mesh).then(|| {
                let mut d = c.clone();
                d.topology = TopologyConfig::Mesh;
                if d.mesh.validate().is_err() {
                    // A circulant's N×1 strip is not a legal mesh grid.
                    d.mesh = MeshConfig::new(3, 3);
                }
                drop_offgrid_faults(&mut d);
                d
            })
        },
        |c| {
            // Only the grid topologies survive an arbitrary 3×3 grid; a
            // circulant or chiplet's grid is fixed by its own shape (the
            // topology-drop transform above handles those first).
            (c.mesh.nodes() > 9
                && matches!(c.topology, TopologyConfig::Mesh | TopologyConfig::Torus))
            .then(|| {
                let mut d = c.clone();
                d.mesh = MeshConfig::new(3, 3);
                drop_offgrid_faults(&mut d);
                d
            })
        },
        |c| {
            (c.measured_packets > 40).then(|| {
                let mut d = c.clone();
                d.measured_packets = (d.measured_packets / 2).max(40);
                d.warmup_packets = 0;
                d
            })
        },
        |c| {
            (c.traffic != TrafficKind::Uniform).then(|| {
                let mut d = c.clone();
                d.traffic = TrafficKind::Uniform;
                d
            })
        },
        |c| {
            (c.routing != RoutingKind::Xy).then(|| {
                let mut d = c.clone();
                d.routing = RoutingKind::Xy;
                d
            })
        },
        |c| {
            (c.handshake_latency != 0).then(|| {
                let mut d = c.clone();
                d.handshake_latency = 0;
                d
            })
        },
        |c| {
            c.buffer_depth.is_some().then(|| {
                let mut d = c.clone();
                d.buffer_depth = None;
                d
            })
        },
    ];

    let mut best = cfg.clone();
    let mut best_reason = reason;
    let mut budget: u32 = 32;
    'outer: loop {
        for t in transforms {
            if budget == 0 {
                break 'outer;
            }
            let Some(candidate) = t(&best) else { continue };
            budget -= 1;
            if let Err(new_reason) = check_config(&candidate) {
                best = candidate;
                best_reason = new_reason;
                continue 'outer;
            }
        }
        break;
    }
    (best, best_reason)
}

/// Renders a failing config as a copy-pasteable Rust snippet.
pub fn render_repro(case: u64, base_seed: u64, cfg: &SimConfig, reason: &str) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "// Fuzz failure: case {case} under base seed {base_seed:#x}.\n\
         // Re-run with: NOC_FUZZ_SEED={base_seed} NOC_FUZZ_ITERS={} \\\n\
         //     cargo run --release -p noc-bench --bin fuzz\n//\n",
        case + 1
    ));
    for line in reason.lines() {
        s.push_str(&format!("// {line}\n"));
    }
    s.push_str(&format!(
        "let mut cfg = SimConfig::paper_scaled(\n    RouterKind::{:?},\n    RoutingKind::{:?},\n    TrafficKind::{:?},\n);\n",
        cfg.router, cfg.routing, cfg.traffic
    ));
    s.push_str(&format!("cfg.mesh = MeshConfig::new({}, {});\n", cfg.mesh.width, cfg.mesh.height));
    if cfg.topology != TopologyConfig::Mesh {
        // retarget_topology replays the same forcing the fuzzer
        // applied (grid snap, router/routing/VC support, site remap —
        // a no-op here since the rendered knobs are post-retarget).
        s.push_str(&format!(
            "noc_sim::retarget_topology(&mut cfg, TopologyConfig::parse_spec({:?}).unwrap());\n",
            cfg.topology.to_string()
        ));
    }
    s.push_str(&format!("cfg.injection_rate = {:?};\n", cfg.injection_rate));
    s.push_str(&format!("cfg.warmup_packets = {};\n", cfg.warmup_packets));
    s.push_str(&format!("cfg.measured_packets = {};\n", cfg.measured_packets));
    s.push_str(&format!("cfg.seed = {:#018x};\n", cfg.seed));
    s.push_str(&format!("cfg.max_cycles = {};\n", cfg.max_cycles));
    s.push_str(&format!("cfg.stall_window = {};\n", cfg.stall_window));
    s.push_str(&format!("cfg.handshake_latency = {};\n", cfg.handshake_latency));
    if let Some(depth) = cfg.buffer_depth {
        // The buffer depth fixes the slab's ring capacities, so a repro
        // without it would rebuild a differently-shaped slab.
        s.push_str(&format!("cfg.buffer_depth = Some({depth});\n"));
    }
    if cfg.fault_routing {
        s.push_str("cfg.fault_routing = true;\n");
    }
    s.push_str("cfg.audit = Some(AuditConfig { interval: 1, max_recorded: 8 });\n");
    for (site, fault) in &cfg.faults.faults {
        s.push_str(&format!(
            "cfg.faults.faults.push((Coord::new({}, {}), {}));\n",
            site.x,
            site.y,
            fault_expr(fault)
        ));
    }
    for e in cfg.schedule.events() {
        let action = match e.action {
            FaultAction::Inject(f) => format!("FaultAction::Inject({})", fault_expr(&f)),
            FaultAction::Repair(f) => format!("FaultAction::Repair({})", fault_expr(&f)),
        };
        s.push_str(&format!(
            "cfg.schedule.push(FaultEvent {{ cycle: {}, site: Coord::new({}, {}), action: {} }});\n",
            e.cycle, e.site.x, e.site.y, action
        ));
    }
    if let Some(rec) = cfg.recovery {
        s.push_str(&format!(
            "cfg.recovery = Some(RecoveryConfig {{ timeout: {}, max_retries: {}, backoff_cap: {} }});\n",
            rec.timeout, rec.max_retries, rec.backoff_cap
        ));
    }
    s.push_str(
        "// Run under both kernels (Reference, Soa);\n\
         // compare digests and inspect results.audit.\n",
    );
    s
}

/// Renders a [`noc_core::ComponentFault`] as a Rust expression.
fn fault_expr(f: &noc_core::ComponentFault) -> String {
    format!(
        "ComponentFault {{ component: FaultComponent::{:?}, axis: Axis::{:?}, vc: {} }}",
        f.component, f.axis, f.vc
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::TopologyOps;

    #[test]
    fn case_generation_is_deterministic() {
        for case in [0, 7, 23] {
            assert_eq!(case_config(case, DEFAULT_SEED), case_config(case, DEFAULT_SEED));
        }
        assert_ne!(case_config(0, DEFAULT_SEED).seed, case_config(1, DEFAULT_SEED).seed);
    }

    #[test]
    fn round_robin_covers_every_router_and_fault_mode() {
        let mut saw_faults = false;
        let mut saw_schedule = false;
        let mut saw_recovery = false;
        let mut saw_fault_routing = [false; 2];
        let mut routers = std::collections::HashSet::new();
        let mut topologies = std::collections::HashSet::new();
        for case in 0..36 {
            let cfg = case_config(case, DEFAULT_SEED);
            routers.insert(cfg.router);
            // By variant: chiplet draws vary the d2d delay, so the
            // spec string alone would over-count.
            topologies.insert(std::mem::discriminant(&cfg.topology));
            saw_faults |= !cfg.faults.is_empty();
            saw_schedule |= !cfg.schedule.is_empty();
            saw_recovery |= cfg.recovery.is_some();
            saw_fault_routing[cfg.fault_routing as usize] = true;
            // Every drawn config must actually build: the resolved
            // topology accepts the (possibly retargeted) router,
            // routing function and VC count.
            let topo = cfg.topology.resolve(cfg.mesh).expect("drawn topology resolves");
            topo.check_support(cfg.router, cfg.routing, cfg.router_config().vcs_per_port as usize)
                .expect("retargeted config is supported");
        }
        assert_eq!(routers.len(), 3, "mesh/chiplet cases still cover all routers");
        assert_eq!(topologies.len(), 4, "all four topologies are drawn");
        assert!(saw_faults && saw_schedule && saw_recovery);
        assert!(saw_fault_routing == [true, true], "both routing-awareness legs are drawn");
    }

    #[test]
    fn repro_snippet_mentions_every_knob() {
        let cfg = case_config(14, DEFAULT_SEED);
        let text = render_repro(14, DEFAULT_SEED, &cfg, "synthetic reason");
        assert!(text.contains("SimConfig::paper_scaled"));
        assert!(text.contains("cfg.seed ="));
        assert!(!text.contains("threads"), "worker counts are gone from the repro");
        assert!(text.contains("Reference, Soa"));
        assert!(text.contains("synthetic reason"));
        if !cfg.schedule.is_empty() {
            assert!(text.contains("cfg.schedule.push"));
        }
        // Fault-aware cases render the knob so the repro replays the
        // masked routing function too.
        let aware = case_config(20, DEFAULT_SEED);
        assert!(aware.fault_routing, "cases 18..36 draw the fault-aware leg");
        let text = render_repro(20, DEFAULT_SEED, &aware, "synthetic reason");
        assert!(text.contains("cfg.fault_routing = true;"));
        // Non-mesh cases render the topology retarget line (case 14 is
        // a circulant draw: 14 % 4 == 2).
        let wrap = case_config(14, DEFAULT_SEED);
        assert_eq!(wrap.topology, TopologyConfig::Circulant { nodes: 13, s1: 1, s2: 5 });
        let text = render_repro(14, DEFAULT_SEED, &wrap, "synthetic reason");
        assert!(text.contains("retarget_topology"));
        assert!(text.contains("circulant:13,1,5"), "spec string round-trips:\n{text}");
        // Mesh cases stay clean: no topology line at all.
        let mesh_case = case_config(20, DEFAULT_SEED);
        assert_eq!(mesh_case.topology, TopologyConfig::Mesh);
        let text = render_repro(20, DEFAULT_SEED, &mesh_case, "synthetic reason");
        assert!(!text.contains("retarget_topology"));
        // A buffer-depth override must survive into the snippet: it
        // fixes the flit slab's ring capacities (ISSUE 10).
        let mut deep = case_config(20, DEFAULT_SEED);
        deep.buffer_depth = Some(6);
        let text = render_repro(20, DEFAULT_SEED, &deep, "synthetic reason");
        assert!(text.contains("cfg.buffer_depth = Some(6);"));
        let mut shallow = deep.clone();
        shallow.buffer_depth = None;
        let text = render_repro(20, DEFAULT_SEED, &shallow, "synthetic reason");
        assert!(!text.contains("cfg.buffer_depth"));
    }

    #[test]
    fn masked_cdg_oracle_accepts_fault_aware_cases() {
        // A fault-aware case with a dynamic schedule: the oracle must
        // walk every mask state without reporting a cycle (the masked
        // west-first argument is machine-checked per state).
        for case in [23, 25, 29, 33] {
            let cfg = case_config(case, DEFAULT_SEED);
            assert!(cfg.fault_routing);
            assert_eq!(masked_cdg_mismatch(&cfg), None, "case {case}");
        }
        let oblivious = case_config(5, DEFAULT_SEED);
        assert!(!oblivious.fault_routing);
        assert_eq!(masked_cdg_mismatch(&oblivious), None, "oracle is a no-op when off");
    }
}
