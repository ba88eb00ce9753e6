//! Pipeline probe types: per-VC state snapshots routers expose for
//! telemetry and stall post-mortems.
//!
//! Every router model can describe the instantaneous state of each of
//! its input virtual channels as a [`VcSnapshot`]. The simulator's
//! interval sampler and the stall post-mortem both consume these to
//! answer "where is every flit right now, and what is it waiting for?"
//! without reaching into router internals.

use crate::flit::{Cycle, PacketId};
use crate::geometry::{Coord, Direction};

/// The pipeline phase an input VC is in, abstracted over the three
/// router microarchitectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcPhase {
    /// No packet occupies the VC.
    Idle,
    /// A head flit is waiting for (or completing) route computation.
    Routing,
    /// The head holds a route but has not yet won a downstream VC.
    WaitingVa,
    /// A fault made the route unserviceable; the packet is wedged until
    /// the watchdog fires (baseline blocking behaviour).
    Blocked,
    /// The VC owns a downstream VC and competes for switch traversal.
    Active,
}

impl VcPhase {
    /// Short lower-case label used in post-mortem and timeline output.
    pub fn label(self) -> &'static str {
        match self {
            VcPhase::Idle => "idle",
            VcPhase::Routing => "routing",
            VcPhase::WaitingVa => "waiting-va",
            VcPhase::Blocked => "blocked",
            VcPhase::Active => "active",
        }
    }
}

/// A point-in-time description of one input virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcSnapshot {
    /// The input side the VC sits on (`Local` for injection VCs).
    pub input_side: Direction,
    /// The VC's index on that input link.
    pub link_index: u8,
    /// Flits currently buffered in the VC.
    pub buffered: usize,
    /// The packet whose flit is at the head of the buffer, if any.
    pub head_packet: Option<PacketId>,
    /// Destination of the head flit, if any — lets diagnostics relate
    /// the wedged stream to the reachability of where it was going.
    pub head_dst: Option<Coord>,
    /// Current pipeline phase.
    pub phase: VcPhase,
    /// The output direction the VC is (or wants to be) routed towards,
    /// when known.
    pub out: Option<Direction>,
    /// The downstream VC held by an `Active` channel
    /// ([`crate::node::EJECT_VC`] denotes ejection).
    pub downstream_vc: Option<u8>,
    /// `true` when the VC is `Active` with flits to send but its
    /// downstream VC has zero credits — the credit-starvation signal.
    pub credit_starved: bool,
    /// The cycle a `Blocked` VC wedged at.
    pub blocked_since: Option<Cycle>,
    /// Whether the VC is discarding the remainder of a dropped packet.
    pub dropping: bool,
    /// Whether a fault disabled the VC.
    pub disabled: bool,
}

/// Audit-grade snapshot of one input virtual channel: everything the
/// runtime invariant checker needs that [`VcSnapshot`] does not carry
/// (capacities, poison counts, the dropping latch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcAudit {
    /// The input side the VC sits on (`Local` for injection VCs).
    pub input_side: Direction,
    /// The VC's index on that input link (its credit id).
    pub link_index: u8,
    /// Flits currently buffered.
    pub queue_len: usize,
    /// Buffered poison tails (emergency control flits that may
    /// transiently exceed the credited capacity).
    pub poison_queued: usize,
    /// Whether the flit at the front of the buffer is a head flit.
    pub head_is_head_kind: Option<bool>,
    /// Current (possibly fault-reduced) buffer capacity.
    pub capacity: u8,
    /// The fault-free capacity the VC was built with.
    pub nominal_capacity: u8,
    /// Taken out of service by a buffer fault.
    pub disabled: bool,
    /// Discarding the remainder of a dropped packet.
    pub dropping: bool,
    /// Current pipeline phase.
    pub phase: VcPhase,
    /// Output direction held by an `Active` stream.
    pub active_out: Option<Direction>,
    /// Downstream VC held by an `Active` stream
    /// ([`crate::node::EJECT_VC`] denotes ejection).
    pub active_dvc: Option<u8>,
}

/// The sender-side credit book for one downstream input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditBook {
    /// Free downstream slots this router believes it may still use.
    pub credits: u8,
    /// The downstream VC's capacity as last published (§4.1 handshake).
    pub capacity: u8,
    /// Whether the downstream VC is free for allocation to a new packet.
    pub free: bool,
}

/// One flit sitting in the switch-traversal latch, awaiting emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatchedFlit {
    /// Output direction the flit leaves through.
    pub out: Direction,
    /// Downstream VC index (or [`crate::node::EJECT_VC`]).
    pub dvc: u8,
    /// Raw packet id (`u64::MAX` for sentinel poison tails).
    pub packet: u64,
    /// Whether the flit is a tail (closes its wormhole).
    pub is_tail: bool,
    /// Whether the flit is a poison tail (§4.1 abort marker).
    pub poison: bool,
}

/// A complete audit snapshot of one router, consumed by the simulator's
/// invariant checker (`RouterCore::audit_probe` in `noc-router`). Built
/// only when auditing is enabled; the hot path never allocates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditProbe {
    /// Every input VC's audit state.
    pub vcs: Vec<VcAudit>,
    /// Credit books per mesh output (indexed by
    /// [`Direction::index`]; empty at unwired mesh edges).
    pub outputs: [Vec<CreditBook>; 4],
    /// Flits latched for switch traversal this cycle.
    pub latched: Vec<LatchedFlit>,
    /// Credits awaiting emission: `(input side they leave through,
    /// downstream VC index)`.
    pub pending_credits: Vec<(Direction, u8)>,
    /// Early-ejected flits awaiting delivery to the PE.
    pub pending_ejects: usize,
    /// Fault-dropped flits awaiting emission.
    pub pending_drops: usize,
    /// The router's incrementally maintained buffered-flit counter
    /// (ISSUE 10). The audit layer cross-checks it against the summed
    /// slab ring lengths to catch slab/engine divergence.
    pub buffered_total: usize,
    /// Slab ring-invariant health per VC: `head < ring capacity` and
    /// `len <= ring capacity` (ISSUE 10). `false` marks a corrupted
    /// ring index.
    pub rings_coherent: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_are_distinct() {
        let phases = [
            VcPhase::Idle,
            VcPhase::Routing,
            VcPhase::WaitingVa,
            VcPhase::Blocked,
            VcPhase::Active,
        ];
        for (i, a) in phases.iter().enumerate() {
            for b in &phases[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }
}
