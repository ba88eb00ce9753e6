//! # roco-noc
//!
//! A from-scratch reproduction of **"A Gracefully Degrading and
//! Energy-Efficient Modular Router Architecture for On-Chip Networks"**
//! (Kim et al., ISCA 2006) — the **RoCo** Row-Column decoupled router —
//! including the full evaluation platform: a flit-level cycle-accurate
//! mesh simulator, the generic and Path-Sensitive baseline routers, the
//! three routing algorithms, the §4 fault model with Hardware
//! Recycling, the §5.2 energy model and the §5.3 PEF metric.
//!
//! This crate is a facade: it re-exports the workspace crates under
//! stable module names. Depend on it to get everything, or on the
//! individual `noc-*` crates for a narrower footprint.
//!
//! # Quickstart
//!
//! ```
//! use roco_noc::prelude::*;
//!
//! // An 8×8 mesh of RoCo routers under XY routing, uniform traffic at
//! // 0.2 flits/node/cycle.
//! let mut cfg = SimConfig::paper_scaled(RouterKind::RoCo, RoutingKind::Xy, TrafficKind::Uniform);
//! cfg.warmup_packets = 100;
//! cfg.measured_packets = 1_000;
//! cfg.injection_rate = 0.2;
//! let results = roco_noc::sim::run(cfg);
//! assert_eq!(results.completion_probability(), 1.0);
//! println!("avg latency: {:.1} cycles", results.avg_latency);
//! ```

#![warn(missing_docs)]

/// Core data model (geometry, flits, VCs, configuration).
pub use noc_core as core;

/// Arbiters and switch allocators (round-robin, matrix, Mirror, separable).
pub use noc_arbiter as arbiter;

/// Routing algorithms (XY, XY-YX, west-first/odd-even adaptive, quadrants).
pub use noc_routing as routing;

/// Traffic generators (uniform, transpose, self-similar, MPEG, …).
pub use noc_traffic as traffic;

/// Energy model and the PEF metric.
pub use noc_power as power;

/// Fault taxonomy, reactions and injection plans.
pub use noc_fault as fault;

/// The three router microarchitectures.
pub use noc_router as router;

/// The cycle-accurate network simulator.
pub use noc_sim as sim;

/// Analytic models (Table 2's F(N), Fig 2's arbiter complexity).
pub use noc_analysis as analysis;

/// Steady-state thermal model (extension: the paper's future work).
pub use noc_thermal as thermal;

/// Channel-dependency-graph deadlock-freedom verification.
pub use noc_deadlock as deadlock;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use noc_core::{
        Axis, AxisOrder, ComponentFault, Coord, Direction, FaultComponent, MeshConfig,
        RouterConfig, RouterKind, RoutingKind, VcClass,
    };
    pub use noc_fault::{FaultCategory, FaultPlan, Reaction};
    pub use noc_power::{PefInputs, RouterEnergyProfile};
    pub use noc_router::Router;
    pub use noc_sim::{SimConfig, SimResults, Simulation};
    pub use noc_traffic::TrafficKind;
}
