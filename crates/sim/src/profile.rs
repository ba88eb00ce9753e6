//! The simulator self-profiler (opt-in via [`crate::SimConfig`]'s
//! `profile` flag).
//!
//! "Where does the wall time go" is answered per phase: timers bracket
//! the sections of [`crate::Simulation::step`], the wake-set gauge
//! records how many routers each cycle actually steps, and a
//! steady-state allocation counter watches the recycled in-flight
//! buffers for capacity growth after warm-up.
//!
//! The profiler is strictly read-only with respect to the simulated
//! machine: it observes wall clocks and already-computed sizes, never
//! an RNG, a router or a queue. [`crate::SimResults::digest`] is
//! therefore byte-identical with profiling on or off (asserted by the
//! `observability` test suite under both kernels), and the
//! [`ProfileReport`] — being nondeterministic wall-clock data — is
//! excluded from the digest, the golden corpus and every byte-compared
//! artifact.

use std::fmt::Write as _;
use std::time::Instant;

/// The instrumented sections of one simulation cycle, in step order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Phase 0: scheduled faults, republications, recovery timeouts.
    Faults,
    /// Phase 1a: link flit delivery.
    Links,
    /// Phase 1b: credit delivery.
    Credits,
    /// Phase 2: traffic generation and injection.
    Traffic,
    /// Phase 3: router pipeline steps.
    Routers,
    /// Stall detection plus the periodic audit sweep.
    Audit,
    /// Interval-sampler window flushes.
    Metrics,
}

const PHASE_COUNT: usize = 7;

impl Phase {
    fn index(self) -> usize {
        self as usize
    }
}

/// Wall-time and wake-set accumulators, attached to a
/// [`crate::Simulation`] when profiling is enabled.
#[derive(Debug)]
pub(crate) struct Profiler {
    started: Instant,
    phase_ns: [u64; PHASE_COUNT],
    cycles: u64,
    stepped_total: u64,
    stepped_max: u64,
    routers: u64,
    capacity_events: u64,
    flit_capacity: usize,
    credit_capacity: usize,
    wake_words_occupied: u64,
    wake_words_total: u64,
}

impl Profiler {
    /// Starts the run clock.
    pub(crate) fn new() -> Self {
        Profiler {
            started: Instant::now(),
            phase_ns: [0; PHASE_COUNT],
            cycles: 0,
            stepped_total: 0,
            stepped_max: 0,
            routers: 0,
            capacity_events: 0,
            flit_capacity: 0,
            credit_capacity: 0,
            wake_words_occupied: 0,
            wake_words_total: 0,
        }
    }

    /// Charges the time since `since` to `phase`.
    pub(crate) fn add_phase(&mut self, phase: Phase, since: Instant) {
        self.phase_ns[phase.index()] += since.elapsed().as_nanos() as u64;
    }

    /// Records the wake-set occupancy of one cycle: `stepped` of
    /// `routers` routers stepped (the cycle's increase of
    /// [`crate::SimResults::router_steps`]).
    pub(crate) fn record_wake(&mut self, stepped: u64, routers: u64) {
        self.stepped_total += stepped;
        self.stepped_max = self.stepped_max.max(stepped);
        self.routers = routers;
    }

    /// Records the wake bitset's word occupancy of one cycle:
    /// `occupied` of `words` `u64` words held at least one awake bit.
    /// A low ratio means the word-skipping scan of the `Soa` kernel
    /// jumps over most of the mesh in one comparison per 64 routers.
    pub(crate) fn record_wake_words(&mut self, occupied: u64, words: u64) {
        self.wake_words_occupied += occupied;
        self.wake_words_total += words;
    }

    /// Ends one cycle: advances the cycle count and watches the
    /// recycled in-flight buffers for steady-state capacity growth
    /// (the first observation seeds the watermark without counting).
    pub(crate) fn end_cycle(&mut self, flit_capacity: usize, credit_capacity: usize) {
        if self.cycles > 0 {
            if flit_capacity > self.flit_capacity {
                self.capacity_events += 1;
            }
            if credit_capacity > self.credit_capacity {
                self.capacity_events += 1;
            }
        }
        self.flit_capacity = self.flit_capacity.max(flit_capacity);
        self.credit_capacity = self.credit_capacity.max(credit_capacity);
        self.cycles += 1;
    }

    /// Snapshots the accumulators into a report.
    pub(crate) fn report(&self) -> ProfileReport {
        let s = |ns: u64| ns as f64 / 1e9;
        let stepped_mean =
            if self.cycles == 0 { 0.0 } else { self.stepped_total as f64 / self.cycles as f64 };
        ProfileReport {
            cycles: self.cycles,
            wall_s: self.started.elapsed().as_nanos() as f64 / 1e9,
            faults_s: s(self.phase_ns[Phase::Faults.index()]),
            links_s: s(self.phase_ns[Phase::Links.index()]),
            credits_s: s(self.phase_ns[Phase::Credits.index()]),
            traffic_s: s(self.phase_ns[Phase::Traffic.index()]),
            routers_s: s(self.phase_ns[Phase::Routers.index()]),
            audit_s: s(self.phase_ns[Phase::Audit.index()]),
            metrics_s: s(self.phase_ns[Phase::Metrics.index()]),
            stepped_mean,
            stepped_max: self.stepped_max,
            wake_fraction: if self.routers == 0 { 0.0 } else { stepped_mean / self.routers as f64 },
            wake_word_occupancy: if self.wake_words_total == 0 {
                0.0
            } else {
                self.wake_words_occupied as f64 / self.wake_words_total as f64
            },
            capacity_growth_events: self.capacity_events,
        }
    }
}

/// The simulator self-profile of one run: per-phase wall time,
/// wake-set occupancy and steady-state allocation behaviour.
///
/// All `*_s` fields are wall-clock seconds and vary run to run; the
/// report is diagnostic output only and never enters digests, goldens
/// or byte-compared campaign JSON. `noc run --profile` renders it, the
/// exporter registry publishes it (`export_profile`), and the
/// repository benchmark (`benchmark/`) reads its fields, so every
/// field stays. The wake-set counts are exact: `stepped_mean × cycles`
/// rounds to [`crate::SimResults::router_steps`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Cycles the profiler observed.
    pub cycles: u64,
    /// Wall time from simulation construction to report.
    pub wall_s: f64,
    /// Phase 0: scheduled faults, republications, recovery timeouts.
    pub faults_s: f64,
    /// Phase 1a: link flit delivery.
    pub links_s: f64,
    /// Phase 1b: credit delivery.
    pub credits_s: f64,
    /// Phase 2: traffic generation and injection.
    pub traffic_s: f64,
    /// Phase 3: router pipeline steps.
    pub routers_s: f64,
    /// Stall detection plus periodic audit sweeps.
    pub audit_s: f64,
    /// Interval-sampler window flushes.
    pub metrics_s: f64,
    /// Mean routers stepped per cycle (wake-set occupancy).
    pub stepped_mean: f64,
    /// Largest number of routers stepped in any one cycle.
    pub stepped_max: u64,
    /// `stepped_mean` as a fraction of the mesh (1.0 = every router
    /// steps every cycle, as under the Reference kernel).
    pub wake_fraction: f64,
    /// Mean fraction of wake-bitset `u64` words holding at least one
    /// awake bit (how much of the mesh the word-skipping scan touches;
    /// 1.0 = every word occupied every cycle).
    pub wake_word_occupancy: f64,
    /// Times a recycled in-flight buffer grew its capacity after the
    /// first observed cycle (0 = allocation-free steady state).
    pub capacity_growth_events: u64,
}

impl ProfileReport {
    /// Multi-line human-readable report (the `noc run --profile` view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "self-profile ({} cycles, {:.3}s wall)", self.cycles, self.wall_s);
        let _ = writeln!(
            out,
            "  phases        faults {:.3}s | links {:.3}s | credits {:.3}s | traffic {:.3}s \
             | routers {:.3}s | audit {:.3}s | metrics {:.3}s",
            self.faults_s,
            self.links_s,
            self.credits_s,
            self.traffic_s,
            self.routers_s,
            self.audit_s,
            self.metrics_s
        );
        let _ = writeln!(
            out,
            "  wake set      mean {:.1} routers/cycle ({:.1}% of mesh), max {}, \
             {:.1}% of words occupied",
            self.stepped_mean,
            self.wake_fraction * 100.0,
            self.stepped_max,
            self.wake_word_occupancy * 100.0
        );
        let _ = writeln!(
            out,
            "  allocation    {} steady-state capacity growth event(s)",
            self.capacity_growth_events
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_phases_and_wake_set() {
        let mut p = Profiler::new();
        let t = Instant::now();
        p.add_phase(Phase::Routers, t);
        p.record_wake(3, 16);
        p.record_wake_words(1, 4);
        p.end_cycle(10, 10);
        p.record_wake(5, 16);
        p.record_wake_words(2, 4);
        p.end_cycle(10, 10);
        let r = p.report();
        assert_eq!(r.cycles, 2);
        assert_eq!(r.stepped_max, 5);
        assert!((r.stepped_mean - 4.0).abs() < 1e-12);
        assert!((r.wake_fraction - 0.25).abs() < 1e-12);
        assert!((r.wake_word_occupancy - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(r.capacity_growth_events, 0);
        assert!(r.render().contains("wake set"));
    }

    #[test]
    fn counts_capacity_growth_after_first_cycle() {
        let mut p = Profiler::new();
        p.end_cycle(64, 64); // seeds the watermark, no event
        p.end_cycle(64, 64);
        p.end_cycle(128, 64); // flit buffer grew
        p.end_cycle(128, 96); // credit buffer grew
        assert_eq!(p.report().capacity_growth_events, 2);
    }
}
