//! Run-level measurements: latency, completion, energy, contention.

use crate::audit::AuditReport;
use crate::flow::{ClassHistograms, ClassLatency, FlowClass};
use crate::postmortem::StallPostmortem;
use crate::profile::ProfileReport;
use noc_core::{ActivityCounters, ContentionCounters, Cycle};
use noc_power::{EnergyBreakdown, PefInputs};

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResults {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Packets generated by the traffic model (offered load).
    pub generated_packets: u64,
    /// Packets whose head entered the network (or was discarded at a
    /// faulty injection port) — the completion denominator.
    pub injected_packets: u64,
    /// Measured-window subset of `injected_packets`.
    pub measured_injected: u64,
    /// Packets fully delivered (tail ejected).
    pub delivered_packets: u64,
    /// Measured-window subset of `delivered_packets`.
    pub measured_delivered: u64,
    /// Packets discarded by fault handling.
    pub dropped_packets: u64,
    /// Average end-to-end latency of measured delivered packets, in
    /// cycles (generation to tail ejection, including source queueing).
    pub avg_latency: f64,
    /// Largest observed measured latency.
    pub max_latency: u64,
    /// Median measured latency (bucket resolution).
    pub latency_p50: u64,
    /// 95th-percentile measured latency.
    pub latency_p95: u64,
    /// 99th-percentile measured latency.
    pub latency_p99: u64,
    /// 99.9th-percentile measured latency.
    pub latency_p999: u64,
    /// Delivered flits per node per cycle over the whole run.
    pub throughput: f64,
    /// Per-flow-class latency summaries (measured window), in
    /// [`FlowClass::ALL`] order. A derived view of the same latency
    /// stream the aggregate percentiles digest — excluded from
    /// [`Self::digest`] like the other derived/diagnostic attachments.
    pub classes: Vec<ClassLatency>,
    /// Network-wide activity counters.
    pub counters: ActivityCounters,
    /// Network-wide SA contention (Fig 3).
    pub contention: ContentionCounters,
    /// Router steps the cycle kernel took: every router every cycle
    /// under [`crate::KernelMode::Reference`], the awake ones under
    /// `Soa`. This is the simulator's own work, not simulated
    /// behaviour, so it differs between kernels by design and stays
    /// out of [`Self::digest`].
    pub router_steps: u64,
    /// VC slots those steps scanned: per step, the router's VCs inside
    /// the scan mask (all of them under `Reference`, the busy-VC
    /// superset under `Soa`). Outside the digest like `router_steps`.
    pub vc_slots_scanned: u64,
    /// Network-wide energy by component.
    pub energy: EnergyBreakdown,
    /// Total energy / delivered packets, in joules.
    pub energy_per_packet: f64,
    /// Whether the run ended on the inactivity (stall) detector rather
    /// than by draining every packet.
    pub stalled: bool,
    /// Structured diagnosis captured at the moment the stall detector
    /// fired (`None` for runs that drained cleanly).
    pub postmortem: Option<StallPostmortem>,
    /// End-to-end recovery accounting; present only when
    /// [`crate::SimConfig::recovery`] was enabled for the run.
    pub recovery: Option<RecoveryStats>,
    /// Invariant-audit report; present only when
    /// [`crate::SimConfig::audit`] was enabled for the run.
    pub audit: Option<AuditReport>,
    /// Simulator self-profile; present only when
    /// [`crate::SimConfig::profile`] was enabled for the run.
    /// Wall-clock measurements — nondeterministic by nature, excluded
    /// from [`Self::digest`] and from every byte-compared artifact.
    pub profile: Option<ProfileReport>,
}

/// Outcome counters of the end-to-end recovery layer.
///
/// With recovery enabled, every delivered packet is classified: a
/// first-attempt delivery, a delivery that needed at least one
/// retransmission (`recovered_packets`), or a give-up after the retry
/// budget ran out (`abandoned_packets`). A retried packet may count in
/// `dropped_packets` once per failed attempt; the per-packet verdict
/// lives here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Packet retransmissions issued by source network interfaces.
    pub retransmissions: u64,
    /// Packets ultimately delivered by a retry (attempt > 0).
    pub recovered_packets: u64,
    /// Packets given up after `max_retries` failed attempts (or because
    /// their source node died).
    pub abandoned_packets: u64,
    /// Late duplicate deliveries suppressed at the sink (an earlier
    /// attempt already delivered the packet).
    pub duplicates_suppressed: u64,
    /// Packets failed fast because the reachability map proved their
    /// destination unreachable over the usable-link graph (ISSUE 8):
    /// refused at generation time, or short-circuited out of the retry
    /// loop when the destination died mid-flight. Always `0` unless
    /// [`crate::SimConfig::fault_routing`] is on. With recovery
    /// enabled, accounting closes as
    /// `delivered + abandoned + unroutable == generated`.
    pub unroutable_packets: u64,
}

impl SimResults {
    /// Received / injected over the measured window (§5.3).
    pub fn completion_probability(&self) -> f64 {
        if self.measured_injected == 0 {
            return 1.0;
        }
        self.measured_delivered as f64 / self.measured_injected as f64
    }

    /// The PEF metric inputs for this run.
    pub fn pef_inputs(&self) -> PefInputs {
        PefInputs {
            avg_latency_cycles: self.avg_latency,
            energy_per_packet: self.energy_per_packet,
            completion_probability: self.completion_probability(),
        }
    }

    /// FNV-1a over every behavioural result field, floats by bit
    /// pattern. Equal digests ⇔ (up to hash collision) bit-identical
    /// results. This is the single digest definition shared by the
    /// kernel-equivalence tests, the differential fuzzer and the golden
    /// regression corpus. Diagnostic attachments (`postmortem`,
    /// `audit`, `profile`) are deliberately excluded: they describe the
    /// run, not the simulated behaviour — `profile` in particular is
    /// wall-clock data that differs on every execution. `classes` is
    /// likewise excluded as a derived view of the latency stream
    /// already digested through the aggregate percentiles, and the
    /// simulator's own work counts (`router_steps`,
    /// `vc_slots_scanned`) because they differ between kernels.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(self.cycles);
        mix(self.generated_packets);
        mix(self.injected_packets);
        mix(self.measured_injected);
        mix(self.delivered_packets);
        mix(self.measured_delivered);
        mix(self.dropped_packets);
        mix(self.avg_latency.to_bits());
        mix(self.max_latency);
        mix(self.latency_p50);
        mix(self.latency_p95);
        mix(self.latency_p99);
        mix(self.latency_p999);
        mix(self.throughput.to_bits());
        mix(self.counters.cycles);
        mix(self.counters.rc_computations);
        mix(self.counters.va_local_arbs);
        mix(self.counters.va_global_arbs);
        mix(self.counters.va_failures);
        mix(self.counters.sa_local_arbs);
        mix(self.counters.sa_global_arbs);
        mix(self.counters.crossbar_traversals);
        mix(self.counters.link_traversals);
        mix(self.counters.buffer_writes);
        mix(self.counters.buffer_reads);
        mix(self.counters.credit_stall_cycles);
        mix(self.counters.early_ejections);
        mix(self.counters.blocked_packets);
        mix(self.counters.occupancy_high_water);
        mix(self.contention.x_requests);
        mix(self.contention.x_blocked);
        mix(self.contention.y_requests);
        mix(self.contention.y_blocked);
        mix(self.energy.total().to_bits());
        mix(self.energy_per_packet.to_bits());
        mix(self.stalled as u64);
        let rec = self.recovery.unwrap_or_default();
        mix(rec.retransmissions);
        mix(rec.recovered_packets);
        mix(rec.abandoned_packets);
        mix(rec.duplicates_suppressed);
        mix(rec.unroutable_packets);
        h
    }
}

/// Streaming latency/delivery accumulator used while the run executes.
#[derive(Debug, Clone, Default)]
pub struct StatsCollector {
    /// See [`SimResults`] field docs.
    pub generated: u64,
    /// Packets that entered the network.
    pub injected: u64,
    /// Measured-window injections.
    pub measured_injected: u64,
    /// Delivered packets.
    pub delivered: u64,
    /// Measured-window deliveries.
    pub measured_delivered: u64,
    /// Dropped packets.
    pub dropped: u64,
    /// Delivered flits (all windows).
    pub delivered_flits: u64,
    /// Per-flow-class histograms of measured latencies: the one latency
    /// record. Run-wide mean, max and percentiles come from their merge
    /// ([`ClassHistograms::merged`]), which is bit-exact.
    pub class_histograms: ClassHistograms,
}

impl StatsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivered tail flit under its flow class.
    pub fn record_delivery(&mut self, latency: u64, measured: bool, class: FlowClass) {
        self.delivered += 1;
        if measured {
            self.measured_delivered += 1;
            self.class_histograms.record(class, latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_averages_measured_only() {
        let mut c = StatsCollector::new();
        c.record_delivery(10, false, FlowClass::Near); // warm-up
        c.record_delivery(20, true, FlowClass::Near);
        c.record_delivery(40, true, FlowClass::Far);
        assert_eq!(c.delivered, 3);
        assert_eq!(c.measured_delivered, 2);
        let all = c.class_histograms.merged();
        assert_eq!(all.mean(), 30.0);
        assert_eq!(all.max(), 40);
        // Warm-up deliveries stay out of the class histograms too.
        assert_eq!(c.class_histograms.total_count(), 2);
        assert_eq!(c.class_histograms.class(FlowClass::Near).count(), 1);
        assert_eq!(c.class_histograms.class(FlowClass::Far).max(), 40);
    }

    #[test]
    fn completion_probability_edge_cases() {
        let mut r = SimResults {
            cycles: 0,
            generated_packets: 0,
            injected_packets: 0,
            measured_injected: 0,
            delivered_packets: 0,
            measured_delivered: 0,
            dropped_packets: 0,
            avg_latency: 0.0,
            max_latency: 0,
            latency_p50: 0,
            latency_p95: 0,
            latency_p99: 0,
            latency_p999: 0,
            throughput: 0.0,
            classes: Vec::new(),
            counters: ActivityCounters::default(),
            contention: ContentionCounters::default(),
            router_steps: 0,
            vc_slots_scanned: 0,
            energy: EnergyBreakdown::default(),
            energy_per_packet: 0.0,
            stalled: false,
            postmortem: None,
            recovery: None,
            audit: None,
            profile: None,
        };
        assert_eq!(r.completion_probability(), 1.0);
        r.measured_injected = 10;
        r.measured_delivered = 7;
        assert!((r.completion_probability() - 0.7).abs() < 1e-12);
    }
}
