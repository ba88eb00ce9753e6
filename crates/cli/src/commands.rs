//! The `noc` subcommands: `run`, `sweep`, `fault`, `campaign`,
//! `timeline`, `audit`, `golden`, `info`.

use crate::{parse_mesh, parse_rates, parse_router, parse_routing, parse_traffic, ArgError, Args};
use noc_bench::campaign::{run_campaign, CampaignConfig};
use noc_core::{RouterKind, RoutingKind};
use noc_fault::{FaultCategory, FaultPlan};
use noc_sim::export::{export_interval, export_profile, export_results};
use noc_sim::{
    check_slos, parse_slos, CsvTraceSink, IntervalSample, JsonlMetricsSink, JsonlTraceSink,
    MetricsSink, PerfettoTraceSink, RecoveryConfig, Registry, SimConfig, SimResults, Simulation,
    TraceSink, VecMetricsSink,
};
use std::fmt::Write as _;
use std::io::BufWriter;

/// Top-level usage text.
pub const USAGE: &str = "\
noc — RoCo NoC simulator (ISCA 2006 reproduction)

USAGE:
  noc run   [--router R] [--routing A] [--traffic T] [--rate F] [--mesh WxH]
            [--packets N] [--warmup N] [--seed N] [--heatmaps true]
            [--metrics-out F.jsonl] [--trace-out F.perfetto.json|F.jsonl|F.csv]
            [--sample-window N] [--postmortem-out F.json]
            [--kernel soa|reference]
            [--slo CLASS:METRIC<=N,...] [--profile true] [--prom-out F.prom]
            [--fault-routing true] [--topology SPEC]
  noc sweep [--router R|all] [--routing A] [--traffic T] [--rates F,F,...]
            [--mesh WxH] [--packets N] [--seed N] [--topology SPEC]
  noc fault [--router R|all] [--routing A] [--category critical|recyclable]
            [--faults N] [--rate F] [--packets N] [--seed N]
            [--fault-routing true] [--topology SPEC]
  noc campaign [--router R|all] [--routing A] [--traffic T] [--rate F]
            [--mesh WxH] [--packets N] [--warmup N] [--seed N]
            [--mtbfs C,C,...] [--repair N|0] [--seeds N] [--recovery true]
            [--category critical|recyclable] [--sample-window N]
            [--json-out F.json] [--prom-out F.prom] [--fault-routing true]
            [--topology SPEC]
  noc timeline [--router R] [--routing A] [--traffic T] [--rate F] [--mesh WxH]
            [--packets N] [--warmup N] [--seed N] [--sample-window N]
            [--json true] [--topology SPEC]
  noc thermal [--router R] [--routing A] [--traffic T] [--rate F] [--packets N]
  noc audit [--router R] [--routing A] [--traffic T] [--rate F] [--mesh WxH]
            [--packets N] [--warmup N] [--seed N]
            [--kernel soa|reference]
            [--interval N] [--faults N] [--category critical|recyclable]
            [--recovery true] [--fault-routing true] [--topology SPEC]
  noc golden [--update true]
  noc info

VALUES:
  R: generic | path-sensitive | roco (default roco)
  A: xy | xy-yx | adaptive | odd-even (default xy)
  T: uniform | transpose | self-similar | mpeg | hotspot | bit-complement
  CLASS:  all | local | near | mid | far (hop-distance flow classes)
  METRIC: p50 | p95 | p99 | p999 | mean | max (latency, cycles)
  SPEC:   mesh | torus | circulant:N,S1,S2 | chiplet:CXxCY,WxH,D
          (default mesh; DESIGN.md §17)

TOPOLOGY (DESIGN.md §17):
  --topology selects the network graph the same simulator runs on:
  'torus' adds wraparound rings (dateline VCs break the ring cycles),
  'circulant:13,1,5' is the ring circulant C(13;1,5), and
  'chiplet:2x2,4x4,3' stitches 2x2 chips of 4x4 nodes with 3-cycle
  die-to-die boundary links. Wraparound topologies require
  dimension-ordered XY on the generic router with >=2 VCs; the flag
  retargets the config (and remaps any fault sites) accordingly.
  --mesh sets the bounding grid for mesh/torus and is snapped to the
  topology's own grid for circulant/chiplet.

TELEMETRY:
  --metrics-out streams one JSON object per sample window (JSONL);
  --trace-out picks its format from the extension: .perfetto.json / .json
  (Chrome trace events, open in ui.perfetto.dev), .csv, else JSONL;
  --prom-out writes the run's metrics registry as Prometheus text
  exposition; --slo gates the exit code on latency service levels
  (e.g. 'near:p99<=40,all:p999<=200'); --profile true prints the
  simulator self-profile (never changes results: digests are identical
  with profiling on or off).

FAULT-AWARE ROUTING (DESIGN.md §16):
  --fault-routing true turns on the published-status link mask: route
  computation excludes links faulted in the network-wide health view,
  takes the deadlock-safe escape path around dead regions, and refuses
  packets whose destination is unreachable (the 'unroutable' outcome;
  with recovery on, delivered + abandoned + unroutable == generated).
  For `campaign` the flag runs a paired oblivious/aware leg per cell
  sharing the same fault schedule, so delivered-coverage retention is
  directly comparable.
";

fn base_config(args: &Args) -> Result<SimConfig, ArgError> {
    // `--router all` is resolved by the sweep/fault loops; the base
    // config then acts as a template whose router field is overwritten.
    let router = match args.get("router") {
        Some("all") => RouterKind::RoCo,
        other => parse_router(other.unwrap_or("roco"))?,
    };
    let routing = parse_routing(args.get("routing").unwrap_or("xy"))?;
    let traffic = parse_traffic(args.get("traffic").unwrap_or("uniform"))?;
    let mut cfg = SimConfig::paper_scaled(router, routing, traffic);
    cfg.mesh = parse_mesh(args.get("mesh").unwrap_or("8x8"))?;
    // ISSUE 9: topology selection. The retarget snaps the mesh to the
    // topology's bounding grid and, on wraparound topologies (torus,
    // circulant), forces the supported generic/XY/2-VC combination.
    if let Some(spec) = args.get("topology") {
        let topology = noc_core::TopologyConfig::parse_spec(spec)
            .map_err(|e| ArgError(format!("--topology: {e}")))?;
        noc_sim::retarget_topology(&mut cfg, topology);
    }
    cfg.injection_rate = args.get_or("rate", 0.25)?;
    if cfg.injection_rate <= 0.0 || cfg.injection_rate > 1.0 {
        return Err(ArgError("--rate must be in (0, 1]".into()));
    }
    cfg.measured_packets = args.get_or("packets", 10_000u64)?;
    cfg.warmup_packets = args.get_or("warmup", cfg.measured_packets / 10)?;
    cfg.seed = args.get_or("seed", 0xC0C0u64)?;
    // Both kernels are bit-identical (DESIGN.md §10); `reference`
    // steps every router over every VC and exists for bisecting.
    cfg.kernel = match args.get("kernel") {
        None | Some("soa") => noc_sim::KernelMode::Soa,
        Some("reference") => noc_sim::KernelMode::Reference,
        Some(other) => {
            return Err(ArgError(format!("--kernel: 'soa' or 'reference', got '{other}'")))
        }
    };
    // ISSUE 8: the network-wide fault-status mask for route
    // computation, plus reachability-aware fail-fast (DESIGN.md §16).
    cfg.fault_routing = args.get_or("fault-routing", false)?;
    Ok(cfg)
}

fn summarize(r: &SimResults) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "  cycles              {}", r.cycles);
    let _ = writeln!(
        s,
        "  packets             {} generated / {} injected / {} delivered / {} dropped",
        r.generated_packets, r.injected_packets, r.delivered_packets, r.dropped_packets
    );
    let _ = writeln!(
        s,
        "  latency             avg {:.2}  p50 {}  p95 {}  p99 {}  p999 {}  max {} cycles",
        r.avg_latency, r.latency_p50, r.latency_p95, r.latency_p99, r.latency_p999, r.max_latency
    );
    for c in r.classes.iter().filter(|c| c.count > 0) {
        let _ =
            writeln!(
            s,
            "  latency[{:<5}]      avg {:.2}  p50 {}  p95 {}  p99 {}  p999 {}  max {}  ({} pkts)",
            c.class.to_string(), c.mean, c.p50, c.p95, c.p99, c.p999, c.max, c.count
        );
    }
    let _ = writeln!(s, "  throughput          {:.4} flits/node/cycle", r.throughput);
    let _ = writeln!(s, "  completion          {:.4}", r.completion_probability());
    let _ = writeln!(s, "  energy per packet   {:.4} nJ", r.energy_per_packet * 1e9);
    let _ = writeln!(
        s,
        "  contention          x {:.3} / y {:.3}",
        r.contention.x_contention_probability().unwrap_or(0.0),
        r.contention.y_contention_probability().unwrap_or(0.0)
    );
    let _ = writeln!(s, "  PEF                 {:.3} nJ·cycles", r.pef_inputs().pef() * 1e9);
    if let Some(rec) = r.recovery.as_ref() {
        let _ = writeln!(
            s,
            "  recovery            retrans {}  recovered {}  abandoned {}  unroutable {}",
            rec.retransmissions,
            rec.recovered_packets,
            rec.abandoned_packets,
            rec.unroutable_packets
        );
    }
    if r.stalled {
        let _ = writeln!(s, "  [run ended on the inactivity detector]");
    }
    s
}

/// Opens `path` as a JSONL metrics sink.
fn open_metrics_sink(path: &str) -> Result<Box<dyn MetricsSink>, ArgError> {
    let file = std::fs::File::create(path)
        .map_err(|e| ArgError(format!("cannot create '{path}': {e}")))?;
    Ok(Box::new(JsonlMetricsSink::new(BufWriter::new(file))))
}

/// Opens `path` as a trace sink, picking the format from the extension:
/// `.perfetto.json` / `.json` → Chrome trace events, `.csv` → CSV,
/// anything else → JSONL.
fn open_trace_sink(path: &str) -> Result<Box<dyn TraceSink>, ArgError> {
    let file = std::fs::File::create(path)
        .map_err(|e| ArgError(format!("cannot create '{path}': {e}")))?;
    let writer = BufWriter::new(file);
    let io_err = |e: std::io::Error| ArgError(format!("cannot write '{path}': {e}"));
    if path.ends_with(".json") {
        Ok(Box::new(PerfettoTraceSink::new(writer).map_err(io_err)?))
    } else if path.ends_with(".csv") {
        Ok(Box::new(CsvTraceSink::new(writer).map_err(io_err)?))
    } else {
        Ok(Box::new(JsonlTraceSink::new(writer)))
    }
}

/// The identifying labels attached to every metric a command exports
/// (owned strings, because `SimConfig` moves into the simulation).
#[derive(Debug)]
struct RunLabels {
    router: String,
    routing: String,
    traffic: String,
    mesh: String,
}

impl RunLabels {
    fn of(cfg: &SimConfig) -> Self {
        RunLabels {
            router: cfg.router.to_string(),
            routing: cfg.routing.to_string(),
            traffic: cfg.traffic.to_string(),
            mesh: format!("{}x{}", cfg.mesh.width, cfg.mesh.height),
        }
    }

    fn as_pairs(&self) -> [(&str, &str); 4] {
        [
            ("router", &self.router),
            ("routing", &self.routing),
            ("traffic", &self.traffic),
            ("mesh", &self.mesh),
        ]
    }
}

/// `noc run`: one simulation, full summary, optional heatmaps and
/// telemetry exports.
pub fn cmd_run(args: &Args) -> Result<String, ArgError> {
    let unknown = args.unknown_flags(&[
        "router",
        "routing",
        "traffic",
        "rate",
        "mesh",
        "packets",
        "warmup",
        "seed",
        "heatmaps",
        "metrics-out",
        "trace-out",
        "sample-window",
        "postmortem-out",
        "kernel",
        "slo",
        "profile",
        "prom-out",
        "fault-routing",
        "topology",
    ]);
    if !unknown.is_empty() {
        return Err(ArgError(format!("unknown flags: {}", unknown.join(", "))));
    }
    // Parse the SLO gate up front so a malformed spec fails before the
    // simulation spends any cycles.
    let slos = match args.get("slo") {
        Some(text) => parse_slos(text).map_err(ArgError)?,
        None => Vec::new(),
    };
    let mut cfg = base_config(args)?;
    cfg.sample_window = args.get_or("sample-window", cfg.sample_window)?;
    cfg.profile = args.get_or("profile", false)?;
    let heatmaps: bool = args.get_or("heatmaps", false)?;
    let label = format!(
        "{} router, {} routing, {} traffic @ {} flits/node/cycle on {}x{}",
        cfg.router, cfg.routing, cfg.traffic, cfg.injection_rate, cfg.mesh.width, cfg.mesh.height
    );
    let run_labels = RunLabels::of(&cfg);
    let mut sim = Simulation::new(cfg);
    if let Some(path) = args.get("metrics-out") {
        sim.set_metrics_sink(open_metrics_sink(path)?);
    }
    if let Some(path) = args.get("trace-out") {
        sim.set_trace_sink(open_trace_sink(path)?);
    }
    while !sim.finished() {
        sim.step();
    }
    sim.finish_observability();
    let results = sim.results();
    let mut out = format!("{label}\n{}", summarize(&results));
    if heatmaps {
        let report = sim.node_report();
        out.push('\n');
        out.push_str(&report.crossbar_heatmap());
        out.push('\n');
        out.push_str(&report.contention_heatmap());
        out.push('\n');
        out.push_str(&report.latency_heatmap());
        out.push('\n');
        out.push_str(&report.occupancy_heatmap());
        out.push('\n');
        out.push_str(&report.credit_stall_heatmap());
    }
    if let Some(pm) = results.postmortem.as_ref() {
        out.push('\n');
        out.push_str(&pm.render());
        if let Some(path) = args.get("postmortem-out") {
            std::fs::write(path, pm.to_json())
                .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
        }
    }
    if let Some(profile) = results.profile.as_ref() {
        out.push('\n');
        out.push_str(&profile.render());
    }
    if let Some(path) = args.get("prom-out") {
        let mut reg = Registry::new();
        let pairs = run_labels.as_pairs();
        export_results(&mut reg, &results, &pairs);
        if let Some(profile) = results.profile.as_ref() {
            export_profile(&mut reg, profile, &pairs);
        }
        std::fs::write(path, reg.render_prometheus())
            .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out, "[wrote {path}]");
    }
    // The SLO gate runs last so every requested artifact is on disk
    // before a violation turns the run into a nonzero exit.
    let violations = check_slos(&slos, &results);
    if !violations.is_empty() {
        let mut msg = String::from("SLO gate failed\n");
        for v in &violations {
            let _ = writeln!(msg, "  {v}");
        }
        return Err(ArgError(msg));
    }
    if !slos.is_empty() {
        let _ = writeln!(out, "  SLO                 {} clause(s) met", slos.len());
    }
    Ok(out)
}

/// One character per window, scaled 0..max over an ASCII density ramp.
fn sparkline(values: &[f64]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let max = values.iter().copied().filter(|v| v.is_finite()).fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '?'
            } else if max <= 0.0 {
                ' '
            } else {
                let idx = (v / max * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[idx.min(RAMP.len() - 1)] as char
            }
        })
        .collect()
}

/// `noc timeline`: run with the interval sampler attached and print
/// ASCII sparklines of the per-window time-series.
pub fn cmd_timeline(args: &Args) -> Result<String, ArgError> {
    let unknown = args.unknown_flags(&[
        "router",
        "routing",
        "traffic",
        "rate",
        "mesh",
        "packets",
        "warmup",
        "seed",
        "sample-window",
        "json",
        "topology",
    ]);
    if !unknown.is_empty() {
        return Err(ArgError(format!("unknown flags: {}", unknown.join(", "))));
    }
    let json: bool = args.get_or("json", false)?;
    let mut cfg = base_config(args)?;
    cfg.sample_window = args.get_or("sample-window", cfg.sample_window)?;
    let window = cfg.sample_window;
    let label = format!(
        "{} router, {} routing, {} traffic @ {} flits/node/cycle on {}x{}",
        cfg.router, cfg.routing, cfg.traffic, cfg.injection_rate, cfg.mesh.width, cfg.mesh.height
    );
    let run_labels = RunLabels::of(&cfg);
    let sink = VecMetricsSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_metrics_sink(Box::new(sink.clone()));
    while !sim.finished() {
        sim.step();
    }
    sim.finish_observability();
    let samples = sink.samples();
    if json {
        // Machine-readable mode: every window goes through the
        // exporter registry and comes out as JSONL, the same samples
        // the sparklines are drawn from.
        let mut reg = Registry::new();
        let pairs = run_labels.as_pairs();
        for sample in samples.iter() {
            export_interval(&mut reg, sample, &pairs);
        }
        return Ok(reg.render_jsonl());
    }
    let mut out = format!("{label}\n{} windows of {window} cycles\n", samples.len());
    let rows: [(&str, Vec<f64>); 8] = [
        ("injected/window", samples.iter().map(|s| s.injected as f64).collect()),
        ("delivered/window", samples.iter().map(|s| s.delivered as f64).collect()),
        ("throughput", samples.iter().map(IntervalSample::throughput).collect()),
        ("mean latency", samples.iter().map(|s| s.latency_mean).collect()),
        ("p99 latency", samples.iter().map(|s| s.latency_p99 as f64).collect()),
        ("p999 latency", samples.iter().map(|s| s.latency_p999 as f64).collect()),
        (
            "buffered flits",
            samples
                .iter()
                .map(|s| s.routers.iter().map(|r| r.occupancy).sum::<u64>() as f64)
                .collect(),
        ),
        (
            "credit stalls",
            samples
                .iter()
                .map(|s| s.routers.iter().map(|r| r.credit_stall_cycles).sum::<u64>() as f64)
                .collect(),
        ),
    ];
    for (name, values) in rows {
        let max = values.iter().copied().filter(|v| v.is_finite()).fold(0.0f64, f64::max);
        let _ = writeln!(out, "  {name:>16} |{}| max {max:.2}", sparkline(&values));
    }
    Ok(out)
}

fn routers_of(args: &Args) -> Result<Vec<RouterKind>, ArgError> {
    match args.get("router") {
        Some("all") => Ok(RouterKind::ALL.to_vec()),
        Some(s) => Ok(vec![parse_router(s)?]),
        None => Ok(vec![RouterKind::RoCo]),
    }
}

/// `noc sweep`: latency/energy vs injection rate, CSV to stdout.
pub fn cmd_sweep(args: &Args) -> Result<String, ArgError> {
    let unknown = args.unknown_flags(&[
        "router", "routing", "traffic", "rates", "mesh", "packets", "warmup", "seed", "topology",
    ]);
    if !unknown.is_empty() {
        return Err(ArgError(format!("unknown flags: {}", unknown.join(", "))));
    }
    let routers = routers_of(args)?;
    let rates = parse_rates(args.get("rates").unwrap_or("0.05,0.1,0.15,0.2,0.25,0.3"))?;
    let mut out =
        String::from("router,rate,avg_latency,p95_latency,throughput,energy_nj,completion\n");
    for router in routers {
        for &rate in &rates {
            let mut cfg = base_config(args)?;
            cfg.router = router;
            cfg.injection_rate = rate;
            let r = noc_sim::run(cfg);
            let _ = writeln!(
                out,
                "{router},{rate},{:.3},{},{:.4},{:.4},{:.4}",
                r.avg_latency,
                r.latency_p95,
                r.throughput,
                r.energy_per_packet * 1e9,
                r.completion_probability()
            );
        }
    }
    Ok(out)
}

/// `noc fault`: §4 fault experiment at one operating point.
pub fn cmd_fault(args: &Args) -> Result<String, ArgError> {
    let unknown = args.unknown_flags(&[
        "router",
        "routing",
        "traffic",
        "rate",
        "mesh",
        "packets",
        "warmup",
        "seed",
        "category",
        "faults",
        "fault-routing",
        "topology",
    ]);
    if !unknown.is_empty() {
        return Err(ArgError(format!("unknown flags: {}", unknown.join(", "))));
    }
    let category = parse_category(args, "critical")?;
    let count: usize = args.get_or("faults", 2usize)?;
    let routers = routers_of(args)?;
    let mut out = format!("{category} faults x{count}, 0.3 injection unless overridden\n");
    for router in routers {
        let mut cfg = base_config(args)?;
        cfg.router = router;
        if args.get("rate").is_none() {
            cfg.injection_rate = 0.3;
        }
        cfg.stall_window = 5_000;
        cfg.faults = FaultPlan::random(category, count, cfg.mesh, cfg.seed ^ 0xFA);
        let r = noc_sim::run(cfg);
        let _ = writeln!(
            out,
            "{router:>15}: completion {:.4}  latency {:>7.2}  blocked {:>5}  dropped {:>5}  PEF {:.2} nJ·cycles",
            r.completion_probability(),
            r.avg_latency,
            r.counters.blocked_packets,
            r.dropped_packets,
            r.pef_inputs().pef() * 1e9,
        );
    }
    Ok(out)
}

/// Parses the fault-category flag (shared by `fault` and `campaign`).
fn parse_category(args: &Args, default: &str) -> Result<FaultCategory, ArgError> {
    match args.get("category").unwrap_or(default) {
        "critical" | "router-centric" => Ok(FaultCategory::Isolating),
        "recyclable" | "message-centric" | "non-critical" => Ok(FaultCategory::Recyclable),
        other => {
            Err(ArgError(format!("unknown category '{other}' (expected critical | recyclable)")))
        }
    }
}

/// `noc campaign`: the graceful-degradation campaign — Monte Carlo
/// mid-run fault arrivals swept over fault rate × router, with
/// per-window availability / throughput-retention / PEF timelines and
/// an optional deterministic JSON report.
pub fn cmd_campaign(args: &Args) -> Result<String, ArgError> {
    let unknown = args.unknown_flags(&[
        "router",
        "routing",
        "traffic",
        "rate",
        "mesh",
        "packets",
        "warmup",
        "seed",
        "mtbfs",
        "repair",
        "seeds",
        "recovery",
        "category",
        "sample-window",
        "json-out",
        "prom-out",
        "fault-routing",
        "topology",
    ]);
    if !unknown.is_empty() {
        return Err(ArgError(format!("unknown flags: {}", unknown.join(", "))));
    }
    let mtbfs: Vec<f64> = args
        .get("mtbfs")
        .unwrap_or("500,2000")
        .split(',')
        .map(|tok| {
            let v: f64 = tok.trim().parse().map_err(|_| ArgError(format!("bad mtbf '{tok}'")))?;
            if v <= 0.0 {
                return Err(ArgError(format!("mtbf {v} must be > 0 cycles")));
            }
            Ok(v)
        })
        .collect::<Result<_, _>>()?;
    let repair: u64 = args.get_or("repair", 400u64)?;
    let base = base_config(args)?;
    let campaign = CampaignConfig {
        mesh: base.mesh,
        topology: base.topology,
        routers: routers_of(args)?,
        routing: base.routing,
        traffic: base.traffic,
        injection_rate: base.injection_rate,
        mtbfs,
        category: parse_category(args, "recyclable")?,
        repair_after: if repair == 0 { None } else { Some(repair) },
        seeds: args.get_or("seeds", 2u64)?,
        base_seed: base.seed,
        warmup_packets: base.warmup_packets,
        measured_packets: base.measured_packets,
        sample_window: args.get_or("sample-window", base.sample_window)?,
        recovery: if args.get_or("recovery", true)? {
            Some(RecoveryConfig::default())
        } else {
            None
        },
        fault_routing: base.fault_routing,
    };
    let report = run_campaign(&campaign);
    let repair_desc = match campaign.repair_after {
        Some(d) => format!("transient, heal after {d}"),
        None => "permanent".to_string(),
    };
    let mut out = format!(
        "graceful-degradation campaign: {}x{} mesh, {} routing, {} faults ({repair_desc}), \
         recovery {}{}\n",
        campaign.mesh.width,
        campaign.mesh.height,
        campaign.routing,
        campaign.category,
        if campaign.recovery.is_some() { "on" } else { "off" },
        if campaign.fault_routing { ", paired oblivious/fault-aware legs" } else { "" },
    );
    for cell in &report.cells {
        let min_of = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "{:>15}{} mtbf {:>7} seed {}: {} fault events, completion {:.4}, \
             delivered {}/{} (retention {:.3}), retrans {} (recovered {}, abandoned {}, \
             unroutable {}), PEF {:.2} nJ·cycles",
            cell.router.to_string(),
            if cell.fault_aware { " [aware]" } else { "" },
            cell.mtbf,
            cell.seed,
            cell.fault_events,
            cell.completion,
            cell.delivered,
            cell.generated,
            cell.coverage_retention,
            cell.retransmissions,
            cell.recovered,
            cell.abandoned,
            cell.unroutable,
            cell.pef * 1e9,
        );
        let _ = writeln!(
            out,
            "     availability |{}| min {:.3}",
            sparkline(&cell.availability),
            min_of(&cell.availability)
        );
        let _ = writeln!(
            out,
            "     retention    |{}| min {:.3}",
            sparkline(&cell.retention),
            min_of(&cell.retention)
        );
        let _ = writeln!(out, "     PEF/time     |{}|", sparkline(&cell.pef_over_time));
    }
    if let Some(path) = args.get("json-out") {
        std::fs::write(path, report.to_json())
            .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out, "[wrote {path}]");
    }
    if let Some(path) = args.get("prom-out") {
        let mut reg = Registry::new();
        noc_bench::campaign::export_campaign(&mut reg, &report);
        std::fs::write(path, reg.render_prometheus())
            .map_err(|e| ArgError(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out, "[wrote {path}]");
    }
    Ok(out)
}

/// `noc audit`: one simulation with the runtime invariant auditor
/// enabled every `--interval` cycles; prints the audit report and
/// exits non-zero when any invariant fired.
pub fn cmd_audit(args: &Args) -> Result<String, ArgError> {
    let unknown = args.unknown_flags(&[
        "router",
        "routing",
        "traffic",
        "rate",
        "mesh",
        "packets",
        "warmup",
        "seed",
        "kernel",
        "interval",
        "faults",
        "category",
        "recovery",
        "fault-routing",
        "topology",
    ]);
    if !unknown.is_empty() {
        return Err(ArgError(format!("unknown flags: {}", unknown.join(", "))));
    }
    let mut cfg = base_config(args)?;
    cfg.audit = Some(noc_sim::AuditConfig {
        interval: args.get_or("interval", 1u64)?.max(1),
        max_recorded: 16,
    });
    let count: usize = args.get_or("faults", 0usize)?;
    if count > 0 {
        cfg.faults = FaultPlan::random(
            parse_category(args, "recyclable")?,
            count,
            cfg.mesh,
            cfg.seed ^ 0xFA,
        );
        cfg.stall_window = 5_000;
    }
    if args.get_or("recovery", false)? {
        cfg.recovery = Some(RecoveryConfig::default());
    }
    let label = format!(
        "audit: {} router, {} routing, {} traffic @ {} flits/node/cycle on {}x{}",
        cfg.router, cfg.routing, cfg.traffic, cfg.injection_rate, cfg.mesh.width, cfg.mesh.height
    );
    let r = noc_sim::run(cfg);
    let report = r.audit.as_ref().expect("audit was enabled");
    if !report.clean() {
        return Err(ArgError(format!("invariant violations detected\n{}", report.render())));
    }
    Ok(format!("{label}\n{}{}", summarize(&r), report.render()))
}

/// `noc golden`: the golden regression corpus — re-runs every
/// committed scenario and diffs digests, headline statistics and work
/// counts; `--update true` regenerates the corpus after an intentional
/// change.
pub fn cmd_golden(args: &Args) -> Result<String, ArgError> {
    let unknown = args.unknown_flags(&["update"]);
    if !unknown.is_empty() {
        return Err(ArgError(format!("unknown flags: {}", unknown.join(", "))));
    }
    let update: bool = args.get_or("update", false)?;
    let summary = noc_bench::golden::check_all(update);
    let rendered = summary.render();
    if summary.failed() {
        return Err(ArgError(format!("golden corpus drift\n{rendered}")));
    }
    Ok(rendered)
}

/// `noc thermal`: simulate, derive per-tile power, solve the
/// steady-state temperature field and print its heatmap.
pub fn cmd_thermal(args: &Args) -> Result<String, ArgError> {
    let unknown = args.unknown_flags(&[
        "router", "routing", "traffic", "rate", "mesh", "packets", "warmup", "seed", "topology",
    ]);
    if !unknown.is_empty() {
        return Err(ArgError(format!("unknown flags: {}", unknown.join(", "))));
    }
    let cfg = base_config(args)?;
    let rcfg = cfg.router_config();
    let mesh = cfg.mesh;
    let label = format!("{} router, {} routing, {} traffic", cfg.router, cfg.routing, cfg.traffic);
    let mut sim = Simulation::new(cfg);
    while !sim.finished() {
        sim.step();
    }
    let params = noc_thermal::ThermalParams::default();
    let power = noc_thermal::power_map(&sim.node_report(), &rcfg, &params);
    let temps = noc_thermal::steady_state(mesh, &power, &params);
    let s = noc_thermal::summarize(&temps);
    let mut out = format!("{label}\n");
    let _ = writeln!(
        out,
        "  total power {:.3} W   peak {:.2} C   avg {:.2} C   gradient {:.2} C\n",
        power.iter().sum::<f64>(),
        s.max_c,
        s.avg_c,
        s.gradient_c
    );
    out.push_str(&noc_sim::render_heatmap(mesh, "temperature per tile", &temps));
    Ok(out)
}

/// `noc info`: the analytic tables (Table 1/2, arbiter inventory).
pub fn cmd_info() -> String {
    use noc_analysis as an;
    let mut out = String::new();
    let _ = writeln!(out, "Non-blocking maximal-matching probabilities (Table 2):");
    let _ = writeln!(out, "  generic        {:.4}", an::generic_non_blocking_probability(5));
    let _ = writeln!(out, "  path-sensitive {:.4}", an::path_sensitive_non_blocking_probability());
    let _ = writeln!(out, "  roco           {:.4}", an::roco_non_blocking_probability());
    let _ = writeln!(out, "\nVA arbiters for v = 3 (Fig 2):");
    let g = an::generic_va(3);
    let r = an::roco_va(3);
    let _ = writeln!(
        out,
        "  generic: {} x {}:1 second-stage arbiters   roco: {} x {}:1",
        g.second_stage.count, g.second_stage.size, r.second_stage.count, r.second_stage.size
    );
    let _ = writeln!(out, "\nRoCo Table-1 VC configuration:");
    for routing in RoutingKind::ALL {
        let cfg = noc_core::RouterConfig::paper(RouterKind::RoCo, routing);
        let hist = noc_router::class_histogram(&noc_router::table1_vcs(&cfg));
        let desc: Vec<String> = hist.iter().map(|(k, v)| format!("{v}x{k}")).collect();
        let _ = writeln!(out, "  {routing:>9}: {}", desc.join(" "));
    }
    let _ = writeln!(
        out,
        "\nWorkloads: uniform, transpose, self-similar, mpeg, hotspot, bit-complement"
    );
    let _ = writeln!(out, "Run `noc run --help` style usage:\n\n{USAGE}");
    out
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, ArgError> {
    match args.command.as_deref() {
        Some("run") => cmd_run(args),
        Some("sweep") => cmd_sweep(args),
        Some("fault") => cmd_fault(args),
        Some("campaign") => cmd_campaign(args),
        Some("timeline") => cmd_timeline(args),
        Some("audit") => cmd_audit(args),
        Some("golden") => cmd_golden(args),
        Some("thermal") => cmd_thermal(args),
        Some("info") => Ok(cmd_info()),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(ArgError(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn run_produces_summary() {
        let out = dispatch(&parse("run --packets 300 --warmup 30 --rate 0.1")).unwrap();
        assert!(out.contains("roco router"));
        assert!(out.contains("completion          1.0000"));
        assert!(out.contains("PEF"));
    }

    #[test]
    fn run_with_heatmaps() {
        let out =
            dispatch(&parse("run --packets 200 --warmup 20 --rate 0.1 --heatmaps true")).unwrap();
        assert!(out.contains("crossbar traversals per router"));
        assert!(out.contains("SA contention probability"));
    }

    #[test]
    fn sweep_emits_csv() {
        let out =
            dispatch(&parse("sweep --router all --rates 0.1 --packets 200 --warmup 20")).unwrap();
        assert!(out.starts_with("router,rate,"));
        assert_eq!(out.lines().count(), 4, "header + one row per router");
    }

    #[test]
    fn fault_reports_all_routers() {
        let out =
            dispatch(&parse("fault --router all --faults 1 --packets 400 --warmup 40")).unwrap();
        assert!(out.contains("generic"));
        assert!(out.contains("roco"));
        assert!(out.contains("completion"));
    }

    #[test]
    fn campaign_reports_and_writes_deterministic_json() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("noc-cli-test-{}-campaign.json", std::process::id()));
        let cmd = format!(
            "campaign --router roco --mesh 4x4 --rate 0.15 --packets 800 --warmup 80 \
             --mtbfs 400 --repair 300 --seeds 1 --sample-window 200 --json-out {}",
            path.display()
        );
        let out = dispatch(&parse(&cmd)).unwrap();
        assert!(out.contains("graceful-degradation campaign"));
        assert!(out.contains("availability"));
        assert!(out.contains("retention"));
        let first = std::fs::read_to_string(&path).unwrap();
        let v = noc_sim::json::Json::parse(&first).expect("report parses");
        assert_eq!(v.get("cells").unwrap().as_arr().unwrap().len(), 1);
        // Same seed, same flags → byte-identical report.
        dispatch(&parse(&cmd)).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second, "campaign JSON must be deterministic per seed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_fault_routing_runs_paired_legs() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("noc-cli-test-{}-aware.json", std::process::id()));
        let cmd = format!(
            "campaign --router roco --routing adaptive --mesh 4x4 --rate 0.15 --packets 800 \
             --warmup 80 --mtbfs 150 --repair 0 --seeds 1 --sample-window 200 \
             --category critical --fault-routing true --json-out {}",
            path.display()
        );
        let out = dispatch(&parse(&cmd)).unwrap();
        assert!(out.contains("paired oblivious/fault-aware legs"), "{out}");
        assert!(out.contains(" [aware]"), "{out}");
        assert!(out.contains("unroutable"), "{out}");
        let v = noc_sim::json::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let cells = v.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 2, "one oblivious + one aware leg");
        assert_eq!(cells[0].get("fault_aware"), Some(&noc_sim::json::Json::Bool(false)));
        assert_eq!(cells[1].get("fault_aware"), Some(&noc_sim::json::Json::Bool(true)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_accepts_fault_routing_flag() {
        // With no faults the mask stays all-healthy, so the flag must
        // not perturb a clean run's statistics; the only new output is
        // the recovery accounting line carrying the zero `unroutable`
        // counter (fault-aware runs always track it).
        let base = "run --packets 300 --warmup 30 --rate 0.1 --mesh 4x4 --seed 9";
        let plain = dispatch(&parse(base)).unwrap();
        let aware = dispatch(&parse(&format!("{base} --fault-routing true"))).unwrap();
        let stats: String =
            aware.lines().filter(|l| !l.contains("recovery")).collect::<Vec<_>>().join("\n");
        assert_eq!(plain.trim_end(), stats, "an all-healthy mask must be behavior-neutral");
        assert!(aware.contains("unroutable 0"), "{aware}");
        // But sweep/timeline do not take the flag.
        assert!(dispatch(&parse("sweep --fault-routing true --rates 0.1")).is_err());
    }

    #[test]
    fn audit_passes_on_clean_and_faulted_runs() {
        let out =
            dispatch(&parse("audit --mesh 4x4 --packets 300 --warmup 30 --rate 0.15")).unwrap();
        assert!(out.contains("0 violation(s)"), "{out}");
        let out = dispatch(&parse(
            "audit --mesh 4x4 --packets 300 --warmup 30 --rate 0.15 --faults 2 \
             --category recyclable --recovery true --interval 2",
        ))
        .unwrap();
        assert!(out.contains("0 violation(s)"), "{out}");
    }

    #[test]
    fn thermal_prints_a_temperature_map() {
        let out = dispatch(&parse("thermal --packets 300 --warmup 30 --rate 0.15")).unwrap();
        assert!(out.contains("temperature per tile"));
        assert!(out.contains("peak"));
    }

    #[test]
    fn info_and_help() {
        let info = dispatch(&parse("info")).unwrap();
        assert!(info.contains("0.0430"));
        assert!(info.contains("Table-1"));
        let help = dispatch(&Args::default()).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn unknown_command_and_flags_error() {
        assert!(dispatch(&parse("explode")).is_err());
        assert!(dispatch(&parse("run --bogus 1")).is_err());
        assert!(dispatch(&parse("run --rate 2.0")).is_err());
        assert!(dispatch(&parse("run --kernel warp")).is_err());
    }

    #[test]
    fn removed_kernels_and_threads_flag_are_rejected() {
        for cmd in ["run", "audit"] {
            for kernel in ["optimized", "parallel"] {
                let err = dispatch(&parse(&format!("{cmd} --kernel {kernel}"))).unwrap_err();
                assert!(err.0.contains("'soa' or 'reference'"), "{cmd} {kernel}: {}", err.0);
            }
            let err = dispatch(&parse(&format!("{cmd} --threads 2"))).unwrap_err();
            assert!(err.0.contains("unknown flags: threads"), "{cmd}: {}", err.0);
        }
        assert!(!USAGE.contains("--threads"));
    }

    #[test]
    fn run_kernels_print_identical_summaries() {
        // Same seed, both kernels: byte-identical summaries, the CLI
        // face of DESIGN.md §10.
        let base = "run --packets 300 --warmup 30 --rate 0.1 --seed 42";
        let soa = dispatch(&parse(&format!("{base} --kernel soa"))).unwrap();
        let reference = dispatch(&parse(&format!("{base} --kernel reference"))).unwrap();
        assert_eq!(soa, reference);
        assert_eq!(soa, dispatch(&parse(base)).unwrap(), "soa is the default");
        assert!(soa.contains("completion"));
    }

    #[test]
    fn run_exports_metrics_and_perfetto_trace() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let metrics = dir.join(format!("noc-cli-test-{pid}-m.jsonl"));
        let trace = dir.join(format!("noc-cli-test-{pid}-t.perfetto.json"));
        let cmd = format!(
            "run --packets 300 --warmup 30 --rate 0.1 --sample-window 50 \
             --metrics-out {} --trace-out {}",
            metrics.display(),
            trace.display()
        );
        let out = dispatch(&parse(&cmd)).unwrap();
        assert!(out.contains("completion"));
        let mtext = std::fs::read_to_string(&metrics).unwrap();
        assert!(mtext.lines().count() > 1, "several 50-cycle windows elapsed");
        for line in mtext.lines() {
            let v = noc_sim::json::Json::parse(line).expect("each metrics line parses");
            assert!(v.get("latency_mean").is_some());
            assert!(v.get("throughput").is_some());
            let routers = v.get("routers").unwrap().as_arr().unwrap();
            assert_eq!(routers.len(), 64, "one entry per router of the 8x8 mesh");
            assert!(routers[0].get("occupancy").is_some());
        }
        let ttext = std::fs::read_to_string(&trace).unwrap();
        let v = noc_sim::json::Json::parse(&ttext).expect("the Perfetto document parses");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.get("ph").is_some() && e.get("ts").is_some()));
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn timeline_prints_sparklines() {
        let out =
            dispatch(&parse("timeline --packets 300 --warmup 30 --rate 0.1 --sample-window 50"))
                .unwrap();
        assert!(out.contains("windows of 50 cycles"));
        assert!(out.contains("delivered/window"));
        assert!(out.contains("p99 latency"));
        assert!(out.contains("p999 latency"));
        assert!(out.contains('|'));
    }

    #[test]
    fn timeline_json_mode_emits_registry_jsonl() {
        let out = dispatch(&parse(
            "timeline --packets 300 --warmup 30 --rate 0.1 --mesh 4x4 \
             --sample-window 50 --json true",
        ))
        .unwrap();
        assert!(out.lines().count() > 10, "several metrics per window");
        for line in out.lines() {
            let v = noc_sim::json::Json::parse(line).expect("each line parses");
            assert!(v.get("metric").is_some());
            assert!(v.get("labels").unwrap().get("window").is_some());
        }
        assert!(out.contains("\"metric\":\"noc_window_latency_cycles\""));
        assert!(out.contains("\"quantile\":\"p999\""));
        assert!(out.contains("\"router\":\"roco\""));
    }

    #[test]
    fn run_slo_gate_passes_and_fails() {
        let base = "run --packets 300 --warmup 30 --rate 0.1 --mesh 4x4";
        let ok =
            dispatch(&parse(&format!("{base} --slo all:p99<=100000,near:max<=100000"))).unwrap();
        assert!(ok.contains("2 clause(s) met"), "{ok}");
        let err = dispatch(&parse(&format!("{base} --slo all:p50<=0"))).unwrap_err();
        assert!(err.0.contains("SLO violated"), "{}", err.0);
        assert!(err.0.contains("all:p50"), "{}", err.0);
        // Malformed specs fail before the simulation runs.
        assert!(dispatch(&parse(&format!("{base} --slo bogus:p99<=10"))).is_err());
        assert!(dispatch(&parse(&format!("{base} --slo near:p99=10"))).is_err());
    }

    #[test]
    fn run_summary_includes_flow_classes() {
        let out = dispatch(&parse("run --packets 300 --warmup 30 --rate 0.1 --mesh 4x4")).unwrap();
        assert!(out.contains("p999"), "{out}");
        assert!(out.contains("latency[near ]"), "{out}");
        assert!(out.contains("latency[mid  ]"), "{out}");
    }

    #[test]
    fn run_profile_and_prom_export() {
        let dir = std::env::temp_dir();
        let prom = dir.join(format!("noc-cli-test-{}.prom", std::process::id()));
        let cmd = format!(
            "run --packets 300 --warmup 30 --rate 0.1 --mesh 4x4 --profile true --prom-out {}",
            prom.display()
        );
        let out = dispatch(&parse(&cmd)).unwrap();
        assert!(out.contains("self-profile"), "{out}");
        assert!(out.contains("wake set"), "{out}");
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE noc_delivered_packets counter"));
        assert!(text.contains("router=\"roco\""));
        assert!(text.contains("mesh=\"4x4\""));
        assert!(text.contains("class=\"near\""));
        assert!(text.contains("quantile=\"p999\""));
        assert!(text.contains("noc_profile_wall_seconds"));
        assert!(text.contains("noc_profile_wake_word_occupancy"));
        // One sample per profiler phase, in step order.
        let phases: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("noc_profile_phase_seconds{"))
            .filter_map(|l| l.split("phase=\"").nth(1)?.split('"').next())
            .collect();
        assert_eq!(
            phases,
            ["faults", "links", "credits", "traffic", "routers", "audit", "metrics"]
        );
        let _ = std::fs::remove_file(&prom);
    }

    #[test]
    fn run_prom_export_counts_unroutable_packets() {
        let prom = std::env::temp_dir().join(format!("noc-cli-test-{}-u.prom", std::process::id()));
        let cmd = format!(
            "run --packets 300 --warmup 30 --rate 0.1 --mesh 4x4 --fault-routing true \
             --prom-out {}",
            prom.display()
        );
        dispatch(&parse(&cmd)).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE noc_unroutable_packets counter"), "{text}");
        let _ = std::fs::remove_file(&prom);
    }

    #[test]
    fn sparkline_scales_zero_to_max() {
        assert_eq!(sparkline(&[0.0, 9.0]), " @");
        assert_eq!(sparkline(&[0.0, 0.0]), "  ", "an all-zero series stays blank");
        assert_eq!(sparkline(&[f64::NAN, 1.0]), "?@");
    }
}
