//! # noc-router
//!
//! The three router microarchitectures of the RoCo paper (ISCA 2006),
//! selected by [`noc_core::RouterKind`]:
//!
//! * **RoCo** — the paper's contribution: a Row-Column decoupled router
//!   with dual 2×2 crossbars, Table-1 Guided Flit Queuing,
//!   Mirroring-Effect switch allocation, Early Ejection and §4's
//!   Hardware Recycling fault tolerance.
//! * **Generic** — the generic 2-stage 5-port virtual-channel baseline
//!   with a monolithic 5×5 crossbar (Fig 1a).
//! * **Path-Sensitive** — the DAC 2005 Path-Sensitive baseline with
//!   quadrant path sets and a decomposed 4×4 crossbar.
//!
//! All three are one concrete [`Router`]: the shared two-stage pipeline
//! ([`RouterCore`]) plus an architecture-specific switch allocator. The
//! `noc-sim` network simulator drives a `Vec<Router>`.
//!
//! # Examples
//!
//! ```
//! use noc_core::{Coord, Direction, MeshConfig, RouterConfig, RouterKind, RoutingKind};
//! use noc_router::Router;
//!
//! let cfg = RouterConfig::paper(RouterKind::RoCo, RoutingKind::Xy);
//! let router = Router::new(Coord::new(3, 3), cfg, MeshConfig::new(8, 8));
//! // Table 1: three VCs hang off the West input link under XY routing.
//! assert_eq!(router.core.link_descriptors(Direction::West).len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod roco;
mod router;

pub use engine::{AdmissionMasks, BitIds, OutputPort, OutputVcState, RouterCore, Vc, VcState};
pub use roco::{class_histogram, table1_vcs, ModulePort, RocoVcSpec};
pub use router::Router;
