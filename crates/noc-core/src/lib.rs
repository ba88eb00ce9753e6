//! # noc-core
//!
//! Shared data model for the RoCo (Row-Column decoupled router, ISCA
//! 2006) reproduction: mesh geometry, flits and packets, virtual-channel
//! classes, router/mesh configuration, the per-cycle step interface
//! ([`StepContext`], [`RouterOutputs`], [`StepReport`]) between the
//! routers and the cycle-accurate simulator, and activity counters for
//! the energy model.
//!
//! Architecture-specific logic lives elsewhere: arbiters in
//! `noc-arbiter`, routing functions in `noc-routing`, router
//! microarchitectures in `noc-router`, and the network simulator in
//! `noc-sim`.
//!
//! # Examples
//!
//! ```
//! use noc_core::{Coord, Direction, VcClass};
//!
//! // A flit arriving from the West and continuing East is X-dimension
//! // through-traffic, queued in a `dx` buffer by Guided Flit Queuing.
//! let class = VcClass::derive(Direction::West, Direction::East);
//! assert_eq!(class, VcClass::Dx);
//! assert_eq!(Coord::new(0, 0).manhattan_distance(Coord::new(7, 7)), 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod counters;
mod error;
mod flit;
mod geometry;
mod mask;
mod node;
pub mod rng;
mod slab;
mod topology;
mod vc;
mod wake;

pub use config::{MeshConfig, RouterConfig, RouterKind, RoutingKind, MAX_INTERNAL_VCS};
pub use counters::{ActivityCounters, ContentionCounters};
pub use error::ConfigError;
pub use flit::{Cycle, Flit, FlitKind, Packet, PacketId};
pub use geometry::{Axis, AxisOrder, Coord, Direction};
pub use mask::{LinkMask, ReachabilityMap};
pub use node::{
    router_rng, ComponentFault, FaultComponent, ModuleHealth, NodeStatus, RouterOutputs,
    StepContext, StepReport, ALL_VCS, EJECT_VC, RNG_STREAM_INJECT, RNG_STREAM_STEP,
};
pub use slab::{FlitSlab, SlabView, SlabWindow};
pub use topology::{
    ChipletTopology, CirculantTopology, MeshTopology, Topology, TopologyConfig, TopologyOps,
    TorusTopology, WRAP_AXIS_ORDER,
};
pub use vc::{Credit, TurnFilter, VcAdmission, VcClass, VcDescriptor, VcRef, VcRequest};
pub use wake::WakeSet;
