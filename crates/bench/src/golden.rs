//! Golden regression corpus (ISSUE 4).
//!
//! A fixed set of ~20 deterministic scenario configurations spanning
//! the three routers, the routing algorithms, the traffic families,
//! static and scheduled faults, and end-to-end recovery. Each scenario
//! has a committed golden file under `goldens/` holding the run's
//! [`SimResults::digest`], a handful of headline statistics and the
//! run's exact work counts; the runner re-executes every scenario and
//! diffs the live values against the committed ones, key by key.
//!
//! The work counts make the corpus a machine-independent performance
//! gate: a change that leaves behaviour alone but makes the kernel
//! step more routers or scan more VC slots fails here on any machine,
//! where a wall-clock gate would need a same-runner baseline.
//!
//! Intentional updates (a behaviour-changing commit) regenerate the
//! corpus with `cargo run --release -p noc-bench --bin golden --
//! --update` (or `noc golden --update`); the rewritten files are then
//! reviewed and committed alongside the change.

use noc_core::{Coord, MeshConfig, RouterKind, RoutingKind, TopologyConfig};
use noc_fault::{FaultCategory, FaultPlan, FaultSchedule};
use noc_sim::{retarget_topology, AuditConfig, KernelMode, RecoveryConfig, SimConfig, SimResults};
use noc_traffic::TrafficKind;
use std::path::{Path, PathBuf};

/// Where the committed golden files live (`goldens/` under the
/// workspace root, or the current directory as a fallback).
pub fn goldens_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("goldens")
}

/// One named scenario of the corpus.
#[derive(Debug, Clone)]
pub struct GoldenScenario {
    /// Stable scenario name; also the golden file's stem.
    pub name: &'static str,
    /// The full run configuration.
    pub config: SimConfig,
}

/// A small deterministic base config shared by most scenarios.
fn base(
    router: RouterKind,
    routing: RoutingKind,
    traffic: TrafficKind,
    mesh: (u16, u16),
    rate: f64,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::paper_scaled(router, routing, traffic);
    cfg.mesh = MeshConfig::new(mesh.0, mesh.1);
    cfg.injection_rate = rate;
    cfg.warmup_packets = 50;
    cfg.measured_packets = 400;
    cfg.seed = seed;
    cfg.max_cycles = 150_000;
    cfg.stall_window = 5_000;
    cfg.audit = Some(AuditConfig { interval: 4, max_recorded: 8 });
    cfg
}

/// The corpus: ~20 deterministic scenarios covering routers, routing
/// algorithms, traffic families, fault modes, recovery and both
/// kernels. Order and names are stable — CI artifacts and golden file
/// stems key off them.
pub fn scenarios() -> Vec<GoldenScenario> {
    use RouterKind::{Generic, PathSensitive, RoCo};
    use RoutingKind::{Adaptive, Xy, XyYx};
    let mut v = Vec::new();
    let mut push = |name: &'static str, config: SimConfig| {
        v.push(GoldenScenario { name, config });
    };

    // Fault-free baselines: every router on uniform XY.
    push("roco-uniform-xy", base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.20, 0xA001));
    push("generic-uniform-xy", base(Generic, Xy, TrafficKind::Uniform, (4, 4), 0.20, 0xA002));
    push(
        "pathsensitive-uniform-xy",
        base(PathSensitive, Xy, TrafficKind::Uniform, (4, 4), 0.20, 0xA003),
    );

    // Routing algorithms and traffic families.
    push("roco-transpose-xyyx", base(RoCo, XyYx, TrafficKind::Transpose, (5, 5), 0.18, 0xA004));
    push(
        "generic-hotspot-adaptive",
        base(Generic, Adaptive, TrafficKind::Hotspot, (4, 4), 0.15, 0xA005),
    );
    push(
        "roco-bitcomplement-adaptive",
        base(RoCo, Adaptive, TrafficKind::BitComplement, (4, 4), 0.18, 0xA006),
    );
    push("roco-selfsimilar-xy", base(RoCo, Xy, TrafficKind::SelfSimilar, (4, 4), 0.15, 0xA007));
    push("roco-mpeg-xy", base(RoCo, Xy, TrafficKind::Mpeg, (4, 4), 0.15, 0xA008));
    push(
        "pathsensitive-transpose-xyyx",
        base(PathSensitive, XyYx, TrafficKind::Transpose, (4, 4), 0.15, 0xA009),
    );

    // One medium mesh at higher load (saturation-adjacent).
    push("roco-uniform-8x8-load", base(RoCo, Xy, TrafficKind::Uniform, (8, 8), 0.30, 0xA00A));

    // Static fault plans (§5.4 random injection, both categories).
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA00B);
        cfg.faults = FaultPlan::random(FaultCategory::Recyclable, 3, cfg.mesh, 0xFA01);
        push("roco-static-recyclable", cfg);
    }
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA00C);
        cfg.faults = FaultPlan::random(FaultCategory::Isolating, 2, cfg.mesh, 0xFA02);
        push("roco-static-isolating", cfg);
    }
    {
        let mut cfg = base(Generic, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA00D);
        cfg.faults = FaultPlan::random(FaultCategory::Recyclable, 2, cfg.mesh, 0xFA03);
        push("generic-static-faults", cfg);
    }
    {
        let mut cfg = base(PathSensitive, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA00E);
        cfg.faults = FaultPlan::random(FaultCategory::Isolating, 1, cfg.mesh, 0xFA04);
        push("pathsensitive-static-fault", cfg);
    }

    // Mid-run fault schedules (transient and permanent).
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA00F);
        cfg.schedule.push_transient(
            300,
            Coord::new(1, 1),
            noc_core::ComponentFault::new(noc_core::FaultComponent::Crossbar, noc_core::Axis::X),
            600,
        );
        push("roco-transient-crossbar", cfg);
    }
    {
        let mut cfg = base(Generic, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA010);
        cfg.schedule.push_permanent(
            500,
            Coord::new(2, 2),
            noc_core::ComponentFault::new(noc_core::FaultComponent::SaArbiter, noc_core::Axis::Y),
        );
        push("generic-midrun-permanent", cfg);
    }
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (5, 4), 0.15, 0xA011);
        cfg.schedule = FaultSchedule::random_mtbf(
            FaultCategory::Recyclable,
            cfg.mesh,
            2_500.0,
            Some(800),
            12_000,
            3,
            0xFA05,
        );
        push("roco-mtbf-campaign", cfg);
    }

    // End-to-end recovery.
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA012);
        cfg.schedule.push_transient(
            300,
            Coord::new(1, 2),
            noc_core::ComponentFault::new(noc_core::FaultComponent::VaArbiter, noc_core::Axis::X),
            700,
        );
        cfg.recovery = Some(RecoveryConfig { timeout: 300, max_retries: 3, backoff_cap: 2_000 });
        push("roco-recovery-transient", cfg);
    }
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA013);
        cfg.faults = FaultPlan::random(FaultCategory::Isolating, 2, cfg.mesh, 0xFA06);
        cfg.recovery = Some(RecoveryConfig { timeout: 150, max_retries: 1, backoff_cap: 600 });
        push("roco-recovery-abandonment", cfg);
    }

    // Kernel and handshake variants.
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.20, 0xA001);
        cfg.kernel = KernelMode::Reference;
        push("roco-uniform-reference-kernel", cfg);
    }
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.18, 0xA014);
        cfg.handshake_latency = 0;
        cfg.schedule.push_transient(
            400,
            Coord::new(0, 1),
            noc_core::ComponentFault::new(noc_core::FaultComponent::MuxDemux, noc_core::Axis::Y),
            500,
        );
        push("roco-instant-handshake", cfg);
    }

    // Topology matrix (ISSUE 9): each non-mesh topology fault-free and
    // under an MTBF fault campaign. Scenarios retarget *before*
    // drawing the schedule so fault sites land on the topology's own
    // node set (a remap would also be deterministic, but native sites
    // make the golden files readable).
    let wrapped = |topology: TopologyConfig, rate: f64, seed: u64| {
        let mut cfg = base(Generic, Xy, TrafficKind::Uniform, (4, 4), rate, seed);
        retarget_topology(&mut cfg, topology);
        cfg
    };
    let with_mtbf = |mut cfg: SimConfig, seed: u64| {
        cfg.schedule = FaultSchedule::random_mtbf(
            FaultCategory::Recyclable,
            cfg.mesh,
            2_500.0,
            Some(800),
            12_000,
            3,
            seed,
        );
        cfg
    };
    let circulant = TopologyConfig::Circulant { nodes: 13, s1: 1, s2: 5 };
    let chiplet = TopologyConfig::Chiplet {
        chips_x: 2,
        chips_y: 2,
        chip_width: 3,
        chip_height: 3,
        d2d_delay: 3,
    };
    push("torus-uniform-xy", wrapped(TopologyConfig::Torus, 0.18, 0xA015));
    push("torus-mtbf-campaign", with_mtbf(wrapped(TopologyConfig::Torus, 0.15, 0xA016), 0xFA07));
    push("circulant-uniform-xy", wrapped(circulant, 0.18, 0xA017));
    push("circulant-mtbf-campaign", with_mtbf(wrapped(circulant, 0.15, 0xA018), 0xFA08));
    push("chiplet-uniform-xy", wrapped(chiplet, 0.18, 0xA019));
    push("chiplet-mtbf-campaign", with_mtbf(wrapped(chiplet, 0.15, 0xA01A), 0xFA09));

    // Fault-aware routing: a transient wall of three nodes that lose
    // both crossbar axes, so the link mask, the reachability map and
    // the `unroutable` outcome all feed the digest.
    {
        let mut cfg = base(RoCo, Adaptive, TrafficKind::Uniform, (4, 4), 0.15, 0xA01B);
        for y in 0..3 {
            for axis in [noc_core::Axis::X, noc_core::Axis::Y] {
                cfg.schedule.push_transient(
                    80,
                    Coord::new(1, y),
                    noc_core::ComponentFault::new(noc_core::FaultComponent::Crossbar, axis),
                    150,
                );
            }
        }
        cfg.recovery = Some(RecoveryConfig { timeout: 150, max_retries: 2, backoff_cap: 1_200 });
        cfg.fault_routing = true;
        push("roco-faultaware-wall", cfg);
    }

    // Allocator paths no other scenario reaches: RoCo's separable
    // ablation with the non-speculative 3-stage pipeline, and a
    // generic router wide enough (60 internal VCs, 12 per downstream
    // link) that VA request words use most of their 64 bits.
    {
        let mut cfg = base(RoCo, Xy, TrafficKind::Uniform, (4, 4), 0.25, 0xA01C);
        cfg.mirror_allocator = false;
        cfg.speculative_sa = false;
        push("roco-separable-nonspec", cfg);
    }
    {
        let mut cfg = base(
            Generic,
            RoutingKind::AdaptiveOddEven,
            TrafficKind::Transpose,
            (4, 4),
            0.20,
            0xA01D,
        );
        cfg.vcs_per_port = Some(12);
        push("generic-oddeven-60vc", cfg);
    }

    v
}

/// The stable key/value pairs recorded per scenario. `digest` gates
/// behaviour, and the headline keys make its drift a human-readable
/// diff instead of a bare hash mismatch. The trailing work counts gate
/// the simulator's own work: `router_steps` and `vc_slots_scanned`
/// live outside the digest, and the arbitration, route-computation and
/// buffer-write counts are summed as in the benchmark's outcome line.
pub fn observed_values(res: &SimResults) -> Vec<(&'static str, String)> {
    let mut v = vec![
        ("digest", format!("{:#018x}", res.digest())),
        ("cycles", res.cycles.to_string()),
        ("generated", res.generated_packets.to_string()),
        ("injected", res.injected_packets.to_string()),
        ("delivered", res.delivered_packets.to_string()),
        ("dropped", res.dropped_packets.to_string()),
        ("stalled", res.stalled.to_string()),
        ("avg_latency", format!("{:.4}", res.avg_latency)),
        ("throughput", format!("{:.6}", res.throughput)),
    ];
    if let Some(a) = &res.audit {
        let audit = if a.clean() {
            "clean".to_string()
        } else {
            format!("{} violations", a.total_violations)
        };
        v.push(("audit", audit));
    }
    if let Some(r) = &res.recovery {
        v.push(("retransmissions", r.retransmissions.to_string()));
        v.push(("abandoned", r.abandoned_packets.to_string()));
    }
    let c = &res.counters;
    for (k, n) in [
        ("router_steps", res.router_steps),
        ("vc_slots_scanned", res.vc_slots_scanned),
        ("va_arbs", c.va_local_arbs + c.va_global_arbs),
        ("sa_arbs", c.sa_local_arbs + c.sa_global_arbs),
        ("rc", c.rc_computations),
        ("buffer_writes", c.buffer_writes),
    ] {
        v.push((k, n.to_string()));
    }
    v
}

/// Renders a golden file from recorded values.
pub fn render_golden(name: &str, values: &[(&'static str, String)]) -> String {
    let mut s = format!(
        "# Golden scenario: {name}\n\
         # Regenerate intentionally with: cargo run --release -p noc-bench --bin golden -- --update\n"
    );
    for (k, v) in values {
        s.push_str(&format!("{k} = {v}\n"));
    }
    s
}

/// Parses a golden file into ordered key/value pairs.
pub fn parse_golden(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let (k, v) = line.split_once('=')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

/// Per-scenario outcome of a corpus run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioOutcome {
    /// Live values matched the committed golden exactly.
    Match,
    /// `--update` was given and the golden has been rewritten from the
    /// live run.
    Recorded,
    /// The committed golden file is missing entirely.
    Missing,
    /// Live values diverged; one human-readable line per differing key.
    Mismatch(Vec<String>),
    /// The golden file could not be read or written.
    Error(String),
}

/// Outcome of one scenario.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Scenario name.
    pub name: String,
    /// What happened.
    pub outcome: ScenarioOutcome,
}

/// Outcome of a whole corpus run.
#[derive(Debug, Clone)]
pub struct GoldenSummary {
    /// Per-scenario outcomes, in corpus order.
    pub runs: Vec<GoldenRun>,
}

impl GoldenSummary {
    /// `true` when any scenario is missing, mismatched, or errored.
    pub fn failed(&self) -> bool {
        self.runs.iter().any(|r| {
            matches!(
                r.outcome,
                ScenarioOutcome::Missing | ScenarioOutcome::Mismatch(_) | ScenarioOutcome::Error(_)
            )
        })
    }

    /// Human-readable report: one line per scenario, with per-key
    /// expected-vs-got lines for mismatches.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for run in &self.runs {
            match &run.outcome {
                ScenarioOutcome::Match => s.push_str(&format!("ok       {}\n", run.name)),
                ScenarioOutcome::Recorded => s.push_str(&format!("recorded {}\n", run.name)),
                ScenarioOutcome::Missing => {
                    s.push_str(&format!(
                        "MISSING  {} (golden file absent; run with --update)\n",
                        run.name
                    ));
                }
                ScenarioOutcome::Error(e) => s.push_str(&format!("ERROR    {}: {e}\n", run.name)),
                ScenarioOutcome::Mismatch(diffs) => {
                    s.push_str(&format!("DIFF     {}\n", run.name));
                    for d in diffs {
                        s.push_str(&format!("           {d}\n"));
                    }
                }
            }
        }
        let recorded = self.runs.iter().filter(|r| r.outcome == ScenarioOutcome::Recorded).count();
        let matched = self.runs.iter().filter(|r| r.outcome == ScenarioOutcome::Match).count();
        let failed = self.runs.len() - recorded - matched;
        s.push_str(&format!(
            "golden corpus: {matched} matched, {recorded} recorded, {failed} failed of {}\n",
            self.runs.len()
        ));
        s
    }
}

/// Compares one scenario's live results against its golden file in
/// `dir`, or rewrites the file when `update` is set.
pub fn check_one(dir: &Path, name: &str, res: &SimResults, update: bool) -> GoldenRun {
    let path = dir.join(format!("{name}.txt"));
    let observed = observed_values(res);
    if update {
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, render_golden(name, &observed)));
        let outcome = match written {
            Ok(()) => ScenarioOutcome::Recorded,
            Err(e) => ScenarioOutcome::Error(e.to_string()),
        };
        return GoldenRun { name: name.to_string(), outcome };
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return GoldenRun { name: name.to_string(), outcome: ScenarioOutcome::Missing };
        }
        Err(e) => {
            return GoldenRun {
                name: name.to_string(),
                outcome: ScenarioOutcome::Error(e.to_string()),
            };
        }
    };
    let expected = parse_golden(&text);
    let mut diffs = Vec::new();
    for &(k, ref got) in &observed {
        match expected.iter().find(|(ek, _)| ek.as_str() == k) {
            Some((_, want)) if want == got => {}
            Some((_, want)) => diffs.push(format!("{k}: expected {want}, got {got}")),
            None => diffs.push(format!("{k}: not in golden file, got {got}")),
        }
    }
    for (k, want) in &expected {
        if !observed.iter().any(|(ok, _)| *ok == k.as_str()) {
            diffs.push(format!("{k}: in golden file ({want}) but absent from the run"));
        }
    }
    let outcome =
        if diffs.is_empty() { ScenarioOutcome::Match } else { ScenarioOutcome::Mismatch(diffs) };
    GoldenRun { name: name.to_string(), outcome }
}

/// Runs `scenarios` (in parallel across cores) and checks each against
/// its golden file in `dir`.
pub fn check_scenarios(dir: &Path, scenarios: &[GoldenScenario], update: bool) -> GoldenSummary {
    let configs: Vec<SimConfig> = scenarios.iter().map(|s| s.config.clone()).collect();
    let results = crate::run_batch(configs);
    let runs = scenarios
        .iter()
        .zip(results.iter())
        .map(|(s, res)| check_one(dir, s.name, res, update))
        .collect();
    GoldenSummary { runs }
}

/// Runs the whole committed corpus against `goldens/`.
pub fn check_all(update: bool) -> GoldenSummary {
    check_scenarios(&goldens_dir(), &scenarios(), update)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_well_formed() {
        let all = scenarios();
        assert!(all.len() >= 20, "corpus has {} scenarios", all.len());
        let mut names = std::collections::HashSet::new();
        for s in &all {
            assert!(names.insert(s.name), "duplicate scenario name {}", s.name);
            assert!(s.config.audit.is_some(), "{}: golden runs must be audited", s.name);
            assert!(s.config.max_cycles > 0);
            // Every scenario's topology must resolve on its own grid —
            // a retarget slip here would only surface on CI runners.
            let topo = s.config.topology.resolve(s.config.mesh).expect(s.name);
            assert_eq!(noc_core::TopologyOps::grid(&topo), s.config.mesh, "{}: grid", s.name);
        }
        // The ISSUE 9 topology corpus: every non-mesh topology, both
        // fault-free and under an MTBF campaign.
        for name in [
            "torus-uniform-xy",
            "torus-mtbf-campaign",
            "circulant-uniform-xy",
            "circulant-mtbf-campaign",
            "chiplet-uniform-xy",
            "chiplet-mtbf-campaign",
        ] {
            assert!(names.contains(name), "missing topology scenario {name}");
        }
    }

    #[test]
    fn topology_scenarios_draw_faults_on_their_own_grid() {
        for s in scenarios() {
            for &(site, _) in &s.config.faults.faults {
                assert!(
                    site.x < s.config.mesh.width && site.y < s.config.mesh.height,
                    "{}: static fault site {site} off-grid",
                    s.name
                );
            }
            for e in s.config.schedule.events() {
                assert!(
                    e.site.x < s.config.mesh.width && e.site.y < s.config.mesh.height,
                    "{}: scheduled fault site {} off-grid",
                    s.name,
                    e.site
                );
            }
        }
    }

    #[test]
    fn golden_round_trip_parses() {
        let values = vec![("digest", "0xdeadbeef".to_string()), ("cycles", "42".to_string())];
        let text = render_golden("demo", &values);
        let parsed = parse_golden(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], ("digest".to_string(), "0xdeadbeef".to_string()));
        assert_eq!(parsed[1], ("cycles".to_string(), "42".to_string()));
    }
}
