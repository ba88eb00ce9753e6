//! Steady-state allocation check: once every recycled buffer has
//! reached its high-water capacity, `Simulation::step` must not touch
//! the heap at all. A counting global allocator is armed after a
//! warm-up period and every allocation/reallocation is counted.
//!
//! This file must hold exactly one test: the `#[global_allocator]` is
//! binary-wide, and a sibling test running on another thread would
//! pollute the count.

use noc_core::{RouterKind, RoutingKind};
use noc_sim::{KernelMode, SimConfig, Simulation};
use noc_traffic::TrafficKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static PANIC_ON_ALLOC: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the only extra work is a
// relaxed counter bump, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if PANIC_ON_ALLOC.load(Ordering::Relaxed) && ARMED.swap(false, Ordering::SeqCst) {
                panic!("steady-state allocation of {} bytes", layout.size());
            }
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if PANIC_ON_ALLOC.load(Ordering::Relaxed) && ARMED.swap(false, Ordering::SeqCst) {
                panic!("steady-state reallocation to {new_size} bytes");
            }
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The legs: every architecture under XY at the paper configuration,
/// RoCo's separable-allocator ablation with non-speculative SA, and a
/// generic odd-even router with 12 VCs per port (60-bit VA words).
fn legs() -> Vec<(String, SimConfig)> {
    let leg = |router, routing| {
        let mut cfg = SimConfig::paper_scaled(router, routing, TrafficKind::Uniform);
        // Enough packets that generation never finishes mid-test.
        cfg.warmup_packets = 1_000_000;
        cfg.measured_packets = 1_000_000;
        cfg.injection_rate = 0.1;
        cfg
    };
    let mut legs: Vec<(String, SimConfig)> =
        [RouterKind::RoCo, RouterKind::Generic, RouterKind::PathSensitive]
            .into_iter()
            .map(|router| (format!("{router:?}"), leg(router, RoutingKind::Xy)))
            .collect();
    let mut separable = leg(RouterKind::RoCo, RoutingKind::Xy);
    separable.mirror_allocator = false;
    separable.speculative_sa = false;
    legs.push(("RoCo separable non-speculative".into(), separable));
    let mut wide = leg(RouterKind::Generic, RoutingKind::AdaptiveOddEven);
    wide.vcs_per_port = Some(12);
    legs.push(("Generic odd-even 12 VCs per port".into(), wide));
    legs
}

#[test]
fn steady_state_step_is_allocation_free() {
    PANIC_ON_ALLOC.store(std::env::var_os("NOC_ALLOC_PANIC").is_some(), Ordering::SeqCst);
    // Both kernels: the flit slab backs the VC rings everywhere, so
    // each leg also proves the flit path itself never allocates (a
    // flit hop is an index move inside the pre-sized slab).
    for kernel in [KernelMode::Reference, KernelMode::Soa] {
        for (router, mut cfg) in legs() {
            cfg.kernel = kernel;
            let mut sim = Simulation::new(cfg);
            // The slab is sized once at construction: nominal VC depth
            // plus the 2-slot poison slop per ring (DESIGN.md §18).
            let slab_bytes = sim.slab().footprint_bytes();
            let slab_slots = sim.slab().slot_count();
            assert!(sim.slab().ring_caps().iter().all(|&c| c >= 2), "+2 slop missing");
            // Warm-up: let every recycled buffer (in-flight lists, router
            // scratch, source queues, arbiter lines) hit its high water.
            for _ in 0..5_000 {
                sim.step();
            }
            ALLOCS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            for _ in 0..1_000 {
                sim.step();
            }
            ARMED.store(false, Ordering::SeqCst);
            let n = ALLOCS.load(Ordering::SeqCst);
            assert_eq!(
                n, 0,
                "{kernel:?}/{router}: {n} heap allocation(s) in 1000 steady-state cycles"
            );
            assert_eq!(
                (sim.slab().footprint_bytes(), sim.slab().slot_count()),
                (slab_bytes, slab_slots),
                "{kernel:?}/{router}: slab grew after construction"
            );
        }
    }
}
