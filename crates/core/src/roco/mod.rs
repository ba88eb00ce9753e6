//! The Row-Column (RoCo) Decoupled Router's switch allocation (§3).
//!
//! Two operationally independent modules — Row (East/West) and Column
//! (North/South) — each own a compact 2×2 crossbar, a small VA, and a
//! Mirroring-Effect switch allocator (Fig 4). Guided Flit Queuing
//! steers arriving flits into Table-1 path-set buffers, Early Ejection
//! delivers destination flits straight off the input DEMUX, and the
//! Hardware Recycling mechanisms of §4 let the router degrade
//! gracefully instead of failing whole.

mod vc_config;

pub use vc_config::{class_histogram, table1_vcs, ModulePort, RocoVcSpec};

use crate::engine::{BitIds, RouterCore};
use noc_arbiter::{
    MirrorAllocator, RoundRobinArbiter, SeparableAllocator, SwitchGrant, SwitchRequest,
};
use noc_core::{Axis, Direction, ModuleHealth, SlabWindow};

/// Output direction served by `module` (0 = Row, 1 = Column) and
/// crossbar slot `slot` (0 or 1).
fn slot_direction(module: usize, slot: usize) -> Direction {
    match (module, slot) {
        (0, 0) => Direction::East,
        (0, 1) => Direction::West,
        (1, 0) => Direction::North,
        (1, 1) => Direction::South,
        _ => unreachable!("module/slot out of range"),
    }
}

/// RoCo's switch allocator: one 2×2 crossbar per module, each with two
/// v:1 local arbiters per module-port and a Mirror global arbiter.
///
/// Module-port VC ids are contiguous in Table-1 order (RowP1, RowP2,
/// ColP1, ColP2), so a port's VCs are one run of bits in every VC word
/// and its local arbiters take that run shifted down to bit 0.
#[derive(Debug)]
pub(crate) struct Modules {
    /// Bitmask of each module-port's internal VC ids.
    port_mask: [u64; 4],
    /// Per module-port, per direction-slot local SA arbiters (the two
    /// v:1 arbiters of Fig 4's local arbitration).
    dir_arbs: [[RoundRobinArbiter; 2]; 4],
    /// One Mirror allocator per module (global arbitration).
    mirrors: [MirrorAllocator; 2],
    /// Ablation fallback: input-first separable allocation per module
    /// when `cfg.mirror_allocator` is false.
    separable: [SeparableAllocator; 2],
    /// Reusable separable-ablation scratch (cleared every use).
    sa_requests: Vec<SwitchRequest>,
    sa_grants: Vec<SwitchGrant>,
    /// Bitmask of each module's internal VC ids, for the step's
    /// module-skip test.
    module_vc_mask: [u64; 2],
    /// Bitmask of the injection VCs, which Fig 3's contention counts
    /// skip (they are not row or column inputs).
    injection_vcs: u64,
}

impl Modules {
    /// Builds the allocator over the Table-1 module-port VC groups
    /// (`port_vcs[p]` lists port `p`'s internal VC ids).
    ///
    /// # Panics
    ///
    /// Panics unless the ports' VC ids are contiguous and ascending in
    /// port order.
    pub(crate) fn new(port_vcs: [Vec<usize>; 4], vcs_per_port: usize, injection_vcs: u64) -> Self {
        let mut next = 0;
        let mut port_mask = [0u64; 4];
        for (mask, ids) in port_mask.iter_mut().zip(&port_vcs) {
            for &vc in ids {
                assert_eq!(vc, next, "module-port VC ids must be contiguous in Table-1 order");
                *mask |= 1u64 << vc;
                next += 1;
            }
        }
        Modules {
            port_mask,
            dir_arbs: std::array::from_fn(|_| {
                std::array::from_fn(|_| RoundRobinArbiter::new(vcs_per_port))
            }),
            mirrors: [MirrorAllocator::new(), MirrorAllocator::new()],
            separable: [
                SeparableAllocator::new(2, 2, vcs_per_port),
                SeparableAllocator::new(2, 2, vcs_per_port),
            ],
            // Pre-sized to their per-cycle worst case (one entry per
            // VC): recycled scratch must never grow on the hot path,
            // even when the first busy cycle lands late in a run.
            sa_requests: Vec::with_capacity(next),
            sa_grants: Vec::with_capacity(next),
            module_vc_mask: [port_mask[0] | port_mask[1], port_mask[2] | port_mask[3]],
            injection_vcs,
        }
    }

    /// Internal VC ids of `module` (0 = Row, 1 = Column) in port order:
    /// the buffer pool a module-scoped fault acts on.
    pub(crate) fn module_vcs(&self, module: usize) -> BitIds {
        BitIds(self.module_vc_mask[module])
    }

    /// Switch allocation for both modules in one step. `va_activity` is
    /// the step's per-module VA activity (the SA-offload fault model).
    /// Returns whether a tail departure freed a downstream VC.
    pub(crate) fn allocate(
        &mut self,
        core: &mut RouterCore,
        slab: &mut SlabWindow<'_>,
        sweep: u64,
        va_activity: [bool; 2],
    ) -> bool {
        let mut freed = false;
        // Index loop on purpose: `module` selects health, degradation,
        // VA activity, and the allocator sweep together.
        #[allow(clippy::needless_range_loop)]
        for module in 0..2 {
            // A module with no swept VC has no SA candidates: running it
            // would touch no arbiter and no counter, so skipping it
            // outright is bit-exact.
            if sweep & self.module_vc_mask[module] == 0 {
                continue;
            }
            if core.module_health[module] == ModuleHealth::Dead {
                continue;
            }
            // SA fault: arbitration is offloaded to the VA arbiters via
            // 2-to-1 MUXes (Fig 7) and can only run in cycles where the
            // VA left them idle.
            if core.sa_degraded[module] && va_activity[module] {
                continue;
            }
            let want = self.want_words(core, slab, module, sweep);
            freed |= if core.cfg.mirror_allocator {
                self.module_sa(core, slab, module, want)
            } else {
                self.module_sa_separable(core, slab, module, want)
            };
        }
        freed
    }

    /// The module's SA candidates, one VC word per output slot: one
    /// `sa_candidate` call per swept module VC.
    fn want_words(
        &self,
        core: &RouterCore,
        slab: &SlabWindow<'_>,
        module: usize,
        sweep: u64,
    ) -> [u64; 2] {
        let mut want = [0u64; 2];
        // A VC outside the sweep is empty and Idle, so its
        // `sa_candidate` is always None: skipping the load is bit-exact
        // (see `RouterCore::hot_open`).
        for vc in BitIds(sweep & self.module_vc_mask[module]) {
            if let Some(dir) = core.sa_candidate(&slab.as_view(), vc) {
                let slot = usize::from(dir != slot_direction(module, 0));
                debug_assert_eq!(
                    dir,
                    slot_direction(module, slot),
                    "module VCs want module outputs"
                );
                want[slot] |= 1 << vc;
            }
        }
        want
    }

    /// Ablation SA: plain input-first separable allocation on the 2×2
    /// module (no Mirroring Effect, so head-of-line blocking between a
    /// port's two directions is possible).
    fn module_sa_separable(
        &mut self,
        core: &mut RouterCore,
        slab: &mut SlabWindow<'_>,
        module: usize,
        want: [u64; 2],
    ) -> bool {
        let mut freed = false;
        let ports = [2 * module, 2 * module + 1];
        let requests = &mut self.sa_requests;
        requests.clear();
        let mut port_requests = [0u64; 2];
        for (pi, &port) in ports.iter().enumerate() {
            let base = self.port_mask[port].trailing_zeros() as usize;
            for vc in BitIds((want[0] | want[1]) & self.port_mask[port]) {
                let output = usize::from(want[0] >> vc & 1 == 0);
                requests.push(SwitchRequest { input: pi, output, vc: vc - base });
                port_requests[pi] = 1;
            }
        }
        let effort = self.separable[module].allocate_into(requests, &mut self.sa_grants);
        core.counters.sa_local_arbs += effort.local_ops;
        core.counters.sa_global_arbs += effort.global_ops;
        let mut port_granted = [0u64; 2];
        for g in &self.sa_grants {
            let port = ports[g.input];
            let vc = self.port_mask[port].trailing_zeros() as usize + g.vc;
            freed |= core.apply_grant(slab, vc);
            port_granted[g.input] = 1;
        }
        let axis = if module == 0 { Axis::X } else { Axis::Y };
        for pi in 0..2 {
            core.record_contention(axis, port_requests[pi], port_granted[pi]);
        }
        freed
    }

    /// Switch allocation for one module using the Mirroring Effect.
    /// Returns whether a tail departure freed a downstream VC.
    fn module_sa(
        &mut self,
        core: &mut RouterCore,
        slab: &mut SlabWindow<'_>,
        module: usize,
        want: [u64; 2],
    ) -> bool {
        let mut freed = false;
        let ports = [2 * module, 2 * module + 1];
        // Local stage: per port, per direction, a v:1 arbiter picks one
        // candidate VC (Fig 4's two arbiters per input port).
        let mut cand: [[Option<usize>; 2]; 2] = [[None; 2]; 2];
        for (pi, &port) in ports.iter().enumerate() {
            let base = self.port_mask[port].trailing_zeros();
            for (slot, arb) in self.dir_arbs[port].iter_mut().enumerate() {
                let lines = (want[slot] & self.port_mask[port]) >> base;
                if lines != 0 {
                    core.counters.sa_local_arbs += 1;
                    cand[pi][slot] = arb.arbitrate(lines).map(|w| base as usize + w);
                }
            }
        }
        let requests = [
            [cand[0][0].is_some(), cand[0][1].is_some()],
            [cand[1][0].is_some(), cand[1][1].is_some()],
        ];
        if requests.iter().flatten().any(|&r| r) {
            // Global stage: a single 2:1 mirror arbitration per module.
            core.counters.sa_global_arbs += 1;
            let grant = self.mirrors[module].allocate(requests);
            let mut granted = 0u64;
            for (pi, slot) in [(0, grant.port0), (1, grant.port1)] {
                if let Some(s) = slot {
                    let vc = cand[pi][s].expect("mirror grants only requested slots");
                    freed |= core.apply_grant(slab, vc);
                    granted |= 1 << vc;
                }
            }
            // Fig 3: one observation per eligible network VC, on this
            // module's axis (row module = row inputs, column = column).
            let eligible = (want[0] | want[1]) & !self.injection_vcs;
            let axis = if module == 0 { Axis::X } else { Axis::Y };
            core.record_contention(
                axis,
                u64::from(eligible.count_ones()),
                u64::from((eligible & granted).count_ones()),
            );
        }
        freed
    }
}
