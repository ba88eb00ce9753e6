//! # noc-arbiter
//!
//! Arbiters and switch allocators for the RoCo reproduction:
//!
//! * [`RoundRobinArbiter`] — rotating-priority `v:1` arbiter over a
//!   `u64` request word, the basic cell of every VA/SA unit in the
//!   paper's Fig 2 and Fig 4.
//! * [`SeparableAllocator`] — classic input-first two-stage switch
//!   allocator (generic router, Path-Sensitive router).
//! * [`MirrorAllocator`] — the paper's Mirroring-Effect allocator
//!   (§3.3), guaranteeing maximal matching on each RoCo 2×2 module.
//!
//! # Examples
//!
//! ```
//! use noc_arbiter::{MirrorAllocator, max_matching_2x2};
//!
//! let mut mirror = MirrorAllocator::new();
//! let pattern = [[true, true], [true, false]];
//! let grant = mirror.allocate(pattern);
//! assert_eq!(grant.matches(), max_matching_2x2(pattern));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod mirror;
mod rr;
mod separable;

pub use mirror::{max_matching_2x2, MirrorAllocator, MirrorGrant};
pub use rr::RoundRobinArbiter;
pub use separable::{AllocationEffort, SeparableAllocator, SwitchGrant, SwitchRequest};
