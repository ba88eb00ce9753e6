//! # noc-sim
//!
//! The flit-level, cycle-accurate NoC simulator of §5.1: a network of
//! routers (generic, Path-Sensitive or RoCo) on a configurable topology
//! (mesh, torus, ring circulant, or chiplet mesh — see
//! [`noc_core::TopologyConfig`]), credit-based virtual-channel flow
//! control, wormhole switching, single-cycle links (multi-cycle on
//! chiplet die-to-die boundaries), deterministic seeded execution,
//! warm-up + measurement phases, fault injection, and full
//! activity/energy/contention accounting.
//!
//! # Examples
//!
//! ```
//! use noc_core::{RouterKind, RoutingKind};
//! use noc_sim::{run, SimConfig};
//! use noc_traffic::TrafficKind;
//!
//! let mut cfg = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
//! cfg.warmup_packets = 50;
//! cfg.measured_packets = 200;
//! let results = run(cfg);
//! assert_eq!(results.completion_probability(), 1.0); // fault-free: everything arrives
//! assert!(results.avg_latency > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod config;
pub mod export;
mod flow;
mod histogram;
pub mod json;
mod metrics;
mod network;
mod postmortem;
mod profile;
mod report;
mod stats;
mod trace;

pub use audit::{AuditKind, AuditReport, AuditViolation, Auditor};
pub use config::{
    apply_env_topology, retarget_topology, AuditConfig, KernelMode, RecoveryConfig, SimConfig,
};
pub use export::{Metric, MetricKind, Registry};
pub use flow::{
    check_slos, parse_slos, ClassHistograms, ClassLatency, FlowClass, SloMetric, SloSpec,
    SloViolation,
};
pub use histogram::LatencyHistogram;
pub use metrics::{IntervalSample, JsonlMetricsSink, MetricsSink, RouterWindow, VecMetricsSink};
pub use network::{neighbor_table, run, Simulation};
pub use postmortem::{
    CreditLine, FaultTimelineEntry, RouterDiagnosis, StallPostmortem, VcPhase, WedgedPacket,
};
pub use profile::ProfileReport;
pub use report::{render_heatmap, NodeReport, NodeSummary};
pub use stats::{RecoveryStats, SimResults, StatsCollector};
pub use trace::{
    replay_entries, CsvTraceSink, JsonlTraceSink, PerfettoTraceSink, TraceEvent, TraceSink,
    VecTraceSink,
};
