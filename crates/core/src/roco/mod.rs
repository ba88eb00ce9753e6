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

use crate::engine::RouterCore;
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
#[derive(Debug)]
pub(crate) struct Modules {
    /// Internal VC ids per module-port (RowP1, RowP2, ColP1, ColP2).
    port_vcs: [Vec<usize>; 4],
    /// Per module-port, per direction-slot local SA arbiters (the two
    /// v:1 arbiters of Fig 4's local arbitration).
    dir_arbs: [[RoundRobinArbiter; 2]; 4],
    /// One Mirror allocator per module (global arbitration).
    mirrors: [MirrorAllocator; 2],
    /// Ablation fallback: input-first separable allocation per module
    /// when `cfg.mirror_allocator` is false.
    separable: [SeparableAllocator; 2],
    /// Reusable SA scratch buffers (cleared every use).
    sa_requests: Vec<SwitchRequest>,
    sa_grants: Vec<SwitchGrant>,
    sa_lines: Vec<bool>,
    sa_eligible: Vec<usize>,
    /// Bitmask of each module's internal VC ids, for the step's
    /// module-skip test.
    module_vc_mask: [u64; 2],
}

impl Modules {
    /// Builds the allocator over the Table-1 module-port VC groups.
    pub(crate) fn new(port_vcs: [Vec<usize>; 4], vcs_per_port: usize) -> Self {
        let n_vcs = port_vcs.iter().map(Vec::len).sum();
        let mut module_vc_mask = [0u64; 2];
        for (port, ids) in port_vcs.iter().enumerate() {
            for &vc in ids {
                module_vc_mask[port / 2] |= 1u64 << vc;
            }
        }
        Modules {
            port_vcs,
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
            sa_requests: Vec::with_capacity(n_vcs),
            sa_grants: Vec::with_capacity(n_vcs),
            sa_lines: Vec::with_capacity(n_vcs),
            sa_eligible: Vec::with_capacity(n_vcs),
            module_vc_mask,
        }
    }

    /// Internal VC ids of `module` (0 = Row, 1 = Column) in port order:
    /// the buffer pool a module-scoped fault acts on.
    pub(crate) fn module_vcs(&self, module: usize) -> impl Iterator<Item = usize> + '_ {
        self.port_vcs[2 * module..2 * module + 2].iter().flatten().copied()
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
            freed |= if core.cfg.mirror_allocator {
                self.module_sa(core, slab, module, sweep)
            } else {
                self.module_sa_separable(core, slab, module, sweep)
            };
        }
        freed
    }

    /// Ablation SA: plain input-first separable allocation on the 2×2
    /// module (no Mirroring Effect, so head-of-line blocking between a
    /// port's two directions is possible).
    fn module_sa_separable(
        &mut self,
        core: &mut RouterCore,
        slab: &mut SlabWindow<'_>,
        module: usize,
        sweep: u64,
    ) -> bool {
        let mut freed = false;
        let ports = [2 * module, 2 * module + 1];
        let requests = &mut self.sa_requests;
        requests.clear();
        let mut port_had_request = [false; 2];
        for (pi, &port) in ports.iter().enumerate() {
            for (vi, &vc) in self.port_vcs[port].iter().enumerate() {
                // A VC outside the sweep is empty and Idle, so its
                // `sa_candidate` is always None: skipping the load is
                // bit-exact (see `RouterCore::hot_open`).
                if sweep & (1u64 << vc) == 0 {
                    continue;
                }
                if let Some(want) = core.sa_candidate(&slab.as_view(), vc) {
                    let slot = (0..2)
                        .find(|&s| slot_direction(module, s) == want)
                        .expect("module VCs only want module outputs");
                    requests.push(SwitchRequest { input: pi, output: slot, vc: vi });
                    port_had_request[pi] = true;
                }
            }
        }
        let effort = self.separable[module].allocate_into(requests, &mut self.sa_grants);
        core.counters.sa_local_arbs += effort.local_ops;
        core.counters.sa_global_arbs += effort.global_ops;
        let mut port_granted = [false; 2];
        for g in &self.sa_grants {
            let vc = self.port_vcs[ports[g.input]][g.vc];
            freed |= core.apply_grant(slab, vc);
            port_granted[g.input] = true;
        }
        let axis = if module == 0 { Axis::X } else { Axis::Y };
        for pi in 0..2 {
            if port_had_request[pi] {
                core.record_contention(axis, port_granted[pi]);
            }
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
        sweep: u64,
    ) -> bool {
        let mut freed = false;
        let ports = [2 * module, 2 * module + 1];
        // Local stage: per port, per direction, a v:1 arbiter picks one
        // candidate VC (Fig 4's two arbiters per input port).
        let mut cand: [[Option<usize>; 2]; 2] = [[None; 2]; 2];
        let mut eligible = std::mem::take(&mut self.sa_eligible);
        let mut lines = std::mem::take(&mut self.sa_lines);
        eligible.clear();
        for (pi, &port) in ports.iter().enumerate() {
            // Index loop on purpose: `slot` feeds `slot_direction`,
            // `dir_arbs`, and `cand` symmetrically.
            #[allow(clippy::needless_range_loop)]
            for slot in 0..2 {
                let want = slot_direction(module, slot);
                lines.clear();
                // A VC outside the sweep is empty and Idle, so its
                // `sa_candidate` is always None: skipping the load is
                // bit-exact (see `RouterCore::hot_open`).
                lines.extend(self.port_vcs[port].iter().map(|&vc| {
                    sweep & (1u64 << vc) != 0
                        && core.sa_candidate(&slab.as_view(), vc) == Some(want)
                }));
                for (vi, &l) in lines.iter().enumerate() {
                    if l && core.vcs[self.port_vcs[port][vi]].input_side != Direction::Local {
                        eligible.push(self.port_vcs[port][vi]);
                    }
                }
                if lines.iter().any(|&l| l) {
                    core.counters.sa_local_arbs += 1;
                    if let Some(w) = self.dir_arbs[port][slot].arbitrate(&lines) {
                        cand[pi][slot] = Some(self.port_vcs[port][w]);
                    }
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
            let axis = if module == 0 { Axis::X } else { Axis::Y };
            let mut granted_vcs = [None, None];
            for (pi, slot) in [(0, grant.port0), (1, grant.port1)] {
                if let Some(s) = slot {
                    let vc = cand[pi][s].expect("mirror grants only requested slots");
                    freed |= core.apply_grant(slab, vc);
                    granted_vcs[pi] = Some(vc);
                }
            }
            // Fig 3: one observation per eligible network VC, on this
            // module's axis (row module = row inputs, column = column).
            for &vc in &eligible {
                let granted = granted_vcs.contains(&Some(vc));
                core.record_contention(axis, granted);
            }
        }
        self.sa_eligible = eligible;
        self.sa_lines = lines;
        freed
    }
}
