//! Runtime invariant auditing (the simulation audit layer).
//!
//! When [`crate::SimConfig::audit`] is set, an [`Auditor`] rides inside
//! every [`crate::Simulation::step`] and checks that the simulator's
//! flow-control and accounting machinery never drifts from the
//! protocol it claims to implement:
//!
//! * **Flit conservation** — every generated packet is eventually
//!   delivered, dropped, or abandoned, exactly once; no packet is
//!   delivered twice and no event references a packet that was never
//!   generated. Poison tails and recovery retransmissions are folded
//!   into the ledger (a retried packet may fragment several times but
//!   resolves exactly once).
//! * **Credit-book consistency** — for every link and VC, the sender's
//!   credit counter equals the downstream capacity minus the flits and
//!   credits provably in the pipeline (switch latch, link, receiver
//!   buffer, pending and in-flight credits). Links touched by a mid-run
//!   fault or repair are *tainted* — §4.1 deliberately lets the books
//!   desynchronise until the availability republication and clamps heal
//!   them — and only re-checked exactly once the link is fully at rest.
//! * **VC state-machine legality** — heads open streams, bodies and
//!   tails continue them in sequence order, nothing interleaves within
//!   a link VC (Early Ejection transfers excepted, which are per-flit),
//!   every `Active` stream holds a downstream VC that is marked
//!   non-free, no two streams hold the same downstream VC, and buffers
//!   never exceed their nominal capacity (poison tails excepted).
//! * **Fault-status coherence** — no non-poison flit is emitted toward
//!   a node whose *published* status is dead, once the §4.1
//!   republication that published it is more than the one-cycle
//!   switch-latch grace old.
//! * **Quiescence / accounting** — a router off the wake-set is
//!   provably quiescent; every non-quiet VC sits inside the busy mask
//!   the router's last step recorded (the superset invariant the
//!   `Soa` kernel's busy-VC scan relies on, DESIGN.md §10); and the
//!   incremental occupancy/source
//!   totals match a from-scratch re-derivation (the release-mode
//!   version of the kernel's debug assertions).
//! * **VC mask coherence** — every wired output's admission masks equal
//!   the masks re-derived from its downstream descriptors, and its
//!   free mask sets no bit at or beyond its VC count.
//!
//! Violations are recorded as structured [`AuditViolation`]s (cycle,
//! router, link/VC, packet, post-mortem-style detail) and surfaced in
//! [`crate::SimResults::audit`]; the differential fuzz harness and the
//! `noc audit` CLI subcommand both gate on [`AuditReport::clean`].

use crate::config::AuditConfig;
use crate::network::Simulation;
use crate::postmortem::VcPhase;
use noc_core::{Coord, Cycle, Direction, Flit, NodeStatus, EJECT_VC};
use noc_router::{AdmissionMasks, VcState};
use std::collections::{HashMap, HashSet};

/// The invariant families the auditor distinguishes. Mutation-style
/// negative tests assert that a seeded corruption is reported under the
/// exact kind it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// A packet was lost, duplicated, or resolved inconsistently.
    Conservation,
    /// A sender's credit counter disagrees with the derived number of
    /// outstanding flits on a healthy link.
    CreditBook,
    /// Head/body/tail ordering was broken on a link VC.
    StreamOrder,
    /// A router's VC or allocation state is illegal.
    VcState,
    /// A flit was emitted toward a node published as dead.
    StatusCoherence,
    /// A non-quiescent router was left off the wake-set.
    Quiescence,
    /// The incremental statistics diverged from a re-derivation.
    Accounting,
    /// The flat flit slab's ring indices or the router's incremental
    /// buffered counter diverged from the slab contents (ISSUE 10).
    SlabCoherence,
    /// An output port's free or admission masks disagree with its
    /// downstream VC descriptors.
    VcCoherence,
}

impl AuditKind {
    /// Every kind, in reporting order.
    pub const ALL: [AuditKind; 9] = [
        AuditKind::Conservation,
        AuditKind::CreditBook,
        AuditKind::StreamOrder,
        AuditKind::VcState,
        AuditKind::StatusCoherence,
        AuditKind::Quiescence,
        AuditKind::Accounting,
        AuditKind::SlabCoherence,
        AuditKind::VcCoherence,
    ];

    /// Stable index into per-kind count arrays.
    fn index(self) -> usize {
        match self {
            AuditKind::Conservation => 0,
            AuditKind::CreditBook => 1,
            AuditKind::StreamOrder => 2,
            AuditKind::VcState => 3,
            AuditKind::StatusCoherence => 4,
            AuditKind::Quiescence => 5,
            AuditKind::Accounting => 6,
            AuditKind::SlabCoherence => 7,
            AuditKind::VcCoherence => 8,
        }
    }

    /// Short lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AuditKind::Conservation => "conservation",
            AuditKind::CreditBook => "credit-book",
            AuditKind::StreamOrder => "stream-order",
            AuditKind::VcState => "vc-state",
            AuditKind::StatusCoherence => "status-coherence",
            AuditKind::Quiescence => "quiescence",
            AuditKind::Accounting => "accounting",
            AuditKind::SlabCoherence => "slab-coherence",
            AuditKind::VcCoherence => "vc-coherence",
        }
    }
}

/// One detected invariant violation, with enough context to start a
/// post-mortem without re-running the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Cycle the violation was detected at.
    pub cycle: Cycle,
    /// Which invariant family was broken.
    pub kind: AuditKind,
    /// The router the violation localises to, when it does.
    pub node: Option<Coord>,
    /// The link (output direction at `node`) involved, when one is.
    pub link: Option<Direction>,
    /// The VC index involved, when one is.
    pub vc: Option<u8>,
    /// The packet id involved, when one is.
    pub packet: Option<u64>,
    /// Human-readable context dump (expected vs observed).
    pub detail: String,
}

impl AuditViolation {
    /// One-line rendering for logs and the CLI.
    pub fn render_line(&self) -> String {
        let mut line = format!("cycle {:>8}  [{}]", self.cycle, self.kind.label());
        if let Some(n) = self.node {
            line.push_str(&format!("  {n}"));
        }
        if let Some(l) = self.link {
            line.push_str(&format!("  {l}"));
        }
        if let Some(v) = self.vc {
            line.push_str(&format!("#{v}"));
        }
        if let Some(p) = self.packet {
            line.push_str(&format!("  pkt {p}"));
        }
        line.push_str("  ");
        line.push_str(&self.detail);
        line
    }
}

/// Aggregated audit outcome of one run, attached to
/// [`crate::SimResults::audit`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Global invariant sweeps executed.
    pub checks_run: u64,
    /// Link flit transfers observed by the per-flit checks.
    pub flits_observed: u64,
    /// Total violations detected (all kinds, recorded or not).
    pub total_violations: u64,
    /// Violations per kind (only kinds that fired appear).
    pub counts: Vec<(AuditKind, u64)>,
    /// The first violations verbatim, capped at
    /// [`crate::AuditConfig::max_recorded`].
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether the run passed every check.
    pub fn clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Multi-line human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = format!(
            "audit: {} sweep(s), {} link flits observed, {} violation(s)\n",
            self.checks_run, self.flits_observed, self.total_violations
        );
        for &(kind, n) in &self.counts {
            out.push_str(&format!("  {:>6}x {}\n", n, kind.label()));
        }
        for v in &self.violations {
            out.push_str("  ");
            out.push_str(&v.render_line());
            out.push('\n');
        }
        if self.total_violations as usize > self.violations.len() {
            out.push_str(&format!(
                "  ... {} more violation(s) not recorded verbatim\n",
                self.total_violations as usize - self.violations.len()
            ));
        }
        out
    }
}

/// Per-link-VC stream state of the head/body/tail order checker.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// The packet whose wormhole is open on this link VC.
    packet: u64,
    /// Sequence number of the last flit observed.
    last_seq: u16,
}

/// Outcome of a ledger resolution attempt.
enum Resolution {
    /// The packet was live and is now resolved.
    Fresh,
    /// The packet had already been resolved (a later fragment event).
    Already,
    /// The packet was never generated — always a violation.
    Unknown,
}

/// The runtime invariant checker. One instance rides inside a
/// [`Simulation`] when [`crate::SimConfig::audit`] is set; the hot path
/// calls its per-event hooks every cycle and its global [`check`] sweep
/// every [`AuditConfig::interval`] cycles.
///
/// [`check`]: Auditor::check
#[derive(Debug)]
pub struct Auditor {
    /// Sweep pacing and recording cap.
    cfg: AuditConfig,
    /// Mesh width, for index → coordinate rendering.
    width: u16,
    /// Whether end-to-end recovery is on (changes ledger resolution).
    recovery: bool,
    /// Whether the run carries no faults at all (enables the strict
    /// variants of the buffer-bound checks).
    fault_free: bool,
    /// Open wormholes per `(node, arrival-side index, vc)` link VC.
    streams: HashMap<(usize, u8, u8), Stream>,
    /// Generated but not yet resolved packet ids.
    live: HashSet<u64>,
    /// Resolved (delivered / dropped / abandoned) packet ids.
    resolved: HashSet<u64>,
    /// Ledger counters, cross-checked against the simulator's.
    generated: u64,
    delivered: u64,
    abandoned: u64,
    unroutable: u64,
    /// Last §4.1 republication cycle per node (0 = construction).
    last_republish: Vec<Cycle>,
    /// Directed links `(sender node, direction index)` whose credit
    /// books §4.1 currently allows to be desynchronised, mapped to the
    /// `(faulted site, event cycle)` that tainted them. Set on every
    /// fault/repair event touching either endpoint; cleared only after
    /// the site's republication has landed *and* the books agree with
    /// the derivation again. Clearing any earlier is unsound: a link at
    /// rest when the fault strikes can still desynchronise afterwards,
    /// because flits launched before the republication arrives are
    /// swallowed by the dead node without a credit return.
    tainted: HashMap<(usize, u8), (usize, Cycle)>,
    /// Report accumulators.
    checks_run: u64,
    flits_observed: u64,
    total: u64,
    counts: [u64; 9],
    recorded: Vec<AuditViolation>,
    /// Whether the final end-of-run checks have fired.
    done: bool,
}

impl Auditor {
    /// Builds an auditor for a simulation of `sim_cfg`'s shape.
    pub(crate) fn new(cfg: AuditConfig, sim_cfg: &crate::SimConfig) -> Self {
        Auditor {
            cfg,
            width: sim_cfg.mesh.width,
            recovery: sim_cfg.recovery.is_some(),
            fault_free: sim_cfg.faults.is_empty() && sim_cfg.schedule.is_empty(),
            streams: HashMap::new(),
            live: HashSet::new(),
            resolved: HashSet::new(),
            generated: 0,
            delivered: 0,
            abandoned: 0,
            unroutable: 0,
            last_republish: vec![0; sim_cfg.mesh.nodes()],
            tainted: HashMap::new(),
            checks_run: 0,
            flits_observed: 0,
            total: 0,
            counts: [0; 9],
            recorded: Vec::new(),
            done: false,
        }
    }

    /// The sweep interval (≥ 1).
    pub(crate) fn interval(&self) -> u64 {
        self.cfg.interval.max(1)
    }

    /// Snapshot of the accumulated report.
    pub(crate) fn report(&self) -> AuditReport {
        AuditReport {
            checks_run: self.checks_run,
            flits_observed: self.flits_observed,
            total_violations: self.total,
            counts: AuditKind::ALL
                .iter()
                .filter(|k| self.counts[k.index()] > 0)
                .map(|&k| (k, self.counts[k.index()]))
                .collect(),
            violations: self.recorded.clone(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn violate(
        &mut self,
        kind: AuditKind,
        cycle: Cycle,
        node: Option<Coord>,
        link: Option<Direction>,
        vc: Option<u8>,
        packet: Option<u64>,
        detail: String,
    ) {
        self.total += 1;
        self.counts[kind.index()] += 1;
        if self.recorded.len() < self.cfg.max_recorded {
            self.recorded.push(AuditViolation { cycle, kind, node, link, vc, packet, detail });
        }
    }

    fn coord(&self, i: usize) -> Coord {
        Coord::from_index(i, self.width)
    }

    // ------------------------------------------------------------------
    // Conservation ledger
    // ------------------------------------------------------------------

    fn resolve(&mut self, id: u64) -> Resolution {
        if self.live.remove(&id) {
            self.resolved.insert(id);
            Resolution::Fresh
        } else if self.resolved.contains(&id) {
            Resolution::Already
        } else {
            Resolution::Unknown
        }
    }

    fn known(&self, id: u64) -> bool {
        self.live.contains(&id) || self.resolved.contains(&id)
    }

    /// A new packet left the traffic generator.
    pub(crate) fn on_generated(&mut self, cycle: Cycle, id: u64) {
        self.generated += 1;
        if self.resolved.contains(&id) || !self.live.insert(id) {
            self.violate(
                AuditKind::Accounting,
                cycle,
                None,
                None,
                None,
                Some(id),
                "packet id generated twice".into(),
            );
        }
    }

    /// A tail was ejected at its destination and counted as delivered.
    pub(crate) fn on_delivered(&mut self, cycle: Cycle, node: Coord, id: u64) {
        self.delivered += 1;
        match self.resolve(id) {
            Resolution::Fresh => {}
            Resolution::Already => self.violate(
                AuditKind::Conservation,
                cycle,
                Some(node),
                None,
                None,
                Some(id),
                "packet delivered twice (already resolved)".into(),
            ),
            Resolution::Unknown => self.violate(
                AuditKind::Conservation,
                cycle,
                Some(node),
                None,
                None,
                Some(id),
                "delivery of a packet that was never generated".into(),
            ),
        }
    }

    /// A late duplicate delivery was suppressed at the sink.
    pub(crate) fn on_duplicate(&mut self, cycle: Cycle, node: Coord, id: u64) {
        if self.live.contains(&id) {
            self.violate(
                AuditKind::Conservation,
                cycle,
                Some(node),
                None,
                None,
                Some(id),
                "duplicate suppressed while the packet is still outstanding".into(),
            );
        } else if !self.resolved.contains(&id) {
            self.violate(
                AuditKind::Conservation,
                cycle,
                Some(node),
                None,
                None,
                Some(id),
                "duplicate of a packet that was never generated".into(),
            );
        }
    }

    /// A fragment of `id` was provably destroyed. Without recovery this
    /// resolves the packet (it can never complete); with recovery the
    /// packet stays live until delivery or abandonment.
    fn resolve_fragment(&mut self, cycle: Cycle, node: Coord, id: u64, what: &str) {
        if self.recovery {
            if !self.known(id) {
                self.violate(
                    AuditKind::Conservation,
                    cycle,
                    Some(node),
                    None,
                    None,
                    Some(id),
                    format!("{what} of a packet that was never generated"),
                );
            }
            return;
        }
        if let Resolution::Unknown = self.resolve(id) {
            self.violate(
                AuditKind::Conservation,
                cycle,
                Some(node),
                None,
                None,
                Some(id),
                format!("{what} of a packet that was never generated"),
            );
        }
    }

    /// A flit surfaced in a router's drop list (fault discard paths) or
    /// a dead node's source-queue flush.
    pub(crate) fn on_dropped(&mut self, cycle: Cycle, node: Coord, flit: &Flit) {
        let id = flit.packet.0;
        if flit.poison {
            // A discarded poison tail is pure control traffic; resolve
            // its packet when the aborting router still knew it.
            if id != u64::MAX {
                self.resolve_fragment(cycle, node, id, "poison drop");
            }
            return;
        }
        if flit.kind.is_head() || flit.kind.is_tail() {
            self.resolve_fragment(cycle, node, id, "drop");
        } else if !self.known(id) {
            self.violate(
                AuditKind::Conservation,
                cycle,
                Some(node),
                None,
                None,
                Some(id),
                "dropped body flit of a packet that was never generated".into(),
            );
        }
    }

    /// A poison tail reached an ejection port.
    pub(crate) fn on_poison_ejected(&mut self, cycle: Cycle, node: Coord, raw_id: u64) {
        if raw_id != u64::MAX {
            self.resolve_fragment(cycle, node, raw_id, "poison ejection");
        }
        // Sentinel poisons resolve on the link where they crossed an
        // open stream (the stream state names the truncated packet).
    }

    /// Fault-aware routing failed a packet fast: its destination is
    /// provably unreachable over the usable-link graph (ISSUE 8). Like
    /// abandonment, this resolves the packet exactly once.
    pub(crate) fn on_unroutable(&mut self, cycle: Cycle, id: u64) {
        self.unroutable += 1;
        match self.resolve(id) {
            Resolution::Fresh => {}
            _ => self.violate(
                AuditKind::Conservation,
                cycle,
                None,
                None,
                None,
                Some(id),
                "unroutable packet was not outstanding".into(),
            ),
        }
    }

    /// The recovery layer gave a packet up.
    pub(crate) fn on_abandoned(&mut self, cycle: Cycle, id: u64) {
        self.abandoned += 1;
        match self.resolve(id) {
            Resolution::Fresh => {}
            _ => self.violate(
                AuditKind::Conservation,
                cycle,
                None,
                None,
                None,
                Some(id),
                "abandoned packet was not outstanding".into(),
            ),
        }
    }

    // ------------------------------------------------------------------
    // Link stream checker
    // ------------------------------------------------------------------

    /// A flit is being delivered across a link: `node` receives it on
    /// side `from`, destined for input VC `vc`.
    pub(crate) fn on_link_flit(
        &mut self,
        cycle: Cycle,
        node: usize,
        from: Direction,
        vc: u8,
        flit: &Flit,
    ) {
        self.flits_observed += 1;
        if vc == EJECT_VC {
            // Early Ejection transfers are per-flit: flits of different
            // packets legally interleave on the link's ejection lane.
            return;
        }
        let coord = self.coord(node);
        let key = (node, from.index() as u8, vc);
        let id = flit.packet.0;
        if flit.poison {
            if let Some(s) = self.streams.remove(&key) {
                if id != u64::MAX && id != s.packet {
                    self.violate(
                        AuditKind::StreamOrder,
                        cycle,
                        Some(coord),
                        Some(from),
                        Some(vc),
                        Some(id),
                        format!("poison tail names packet {id} but stream {} is open", s.packet),
                    );
                }
                // The open stream can never complete: its wormhole was
                // just closed by force.
                let truncated = s.packet;
                self.resolve_fragment(cycle, coord, truncated, "poison-closed stream");
            } else if id != u64::MAX {
                self.resolve_fragment(cycle, coord, id, "poison transfer");
            }
            return;
        }
        if flit.kind.is_head() {
            if let Some(s) = self.streams.get(&key) {
                let open = s.packet;
                self.violate(
                    AuditKind::StreamOrder,
                    cycle,
                    Some(coord),
                    Some(from),
                    Some(vc),
                    Some(id),
                    format!("head arrived while packet {open}'s wormhole is still open"),
                );
            }
            if flit.seq != 0 {
                self.violate(
                    AuditKind::StreamOrder,
                    cycle,
                    Some(coord),
                    Some(from),
                    Some(vc),
                    Some(id),
                    format!("head flit carries sequence {} (expected 0)", flit.seq),
                );
            }
            if flit.kind.is_tail() {
                self.streams.remove(&key);
            } else {
                self.streams.insert(key, Stream { packet: id, last_seq: flit.seq });
            }
            return;
        }
        // Body or tail: must continue the open stream in order. The
        // stream entry is inspected (and advanced) first so the map
        // borrow ends before any violation is recorded.
        let (open, last_seq) = match self.streams.get_mut(&key) {
            None => {
                self.violate(
                    AuditKind::StreamOrder,
                    cycle,
                    Some(coord),
                    Some(from),
                    Some(vc),
                    Some(id),
                    format!("{:?} flit arrived with no wormhole open", flit.kind),
                );
                return;
            }
            Some(s) => {
                let prior = (s.packet, s.last_seq);
                if s.packet == id {
                    s.last_seq = flit.seq;
                }
                prior
            }
        };
        if open != id {
            self.violate(
                AuditKind::StreamOrder,
                cycle,
                Some(coord),
                Some(from),
                Some(vc),
                Some(id),
                format!("flit of packet {id} interleaved into packet {open}'s wormhole"),
            );
        } else {
            let expected = last_seq.wrapping_add(1);
            if flit.seq != expected {
                let got = flit.seq;
                self.violate(
                    AuditKind::StreamOrder,
                    cycle,
                    Some(coord),
                    Some(from),
                    Some(vc),
                    Some(id),
                    format!("sequence gap: expected {expected}, got {got}"),
                );
            }
        }
        if flit.kind.is_tail() {
            self.streams.remove(&key);
        }
    }

    // ------------------------------------------------------------------
    // Status coherence
    // ------------------------------------------------------------------

    /// A router emitted a flit toward neighbour `receiver` (published
    /// status `status`).
    pub(crate) fn on_emission(
        &mut self,
        cycle: Cycle,
        receiver: usize,
        receiver_coord: Coord,
        status: NodeStatus,
        flit: &Flit,
    ) {
        if flit.poison || !status.node_dead() {
            return;
        }
        // One-cycle grace: flits latched for switch traversal before
        // the republication landed legally flush the cycle it lands.
        if cycle > self.last_republish[receiver] {
            self.violate(
                AuditKind::StatusCoherence,
                cycle,
                Some(receiver_coord),
                None,
                None,
                Some(flit.packet.0),
                "flit emitted toward a node published as dead".into(),
            );
        }
    }

    /// A fault or repair event fired at `site`: §4.1 allows every link
    /// touching it to desynchronise until the site's republication has
    /// landed and the books have provably resynchronised.
    pub(crate) fn on_fault_event(
        &mut self,
        cycle: Cycle,
        site: usize,
        neighbors: [Option<usize>; 4],
    ) {
        for dir in Direction::MESH {
            if let Some(n) = neighbors[dir.index()] {
                self.tainted.insert((site, dir.index() as u8), (site, cycle));
                self.tainted.insert((n, dir.opposite().index() as u8), (site, cycle));
            }
        }
    }

    /// A §4.1 status republication for `site` landed.
    pub(crate) fn on_republish(&mut self, cycle: Cycle, site: usize) {
        self.last_republish[site] = cycle;
    }

    // ------------------------------------------------------------------
    // Global sweep
    // ------------------------------------------------------------------

    /// Runs the global invariant sweep against the simulation state at
    /// the end of a cycle's phase 3 (credit books, VC legality,
    /// quiescence, incremental-accounting re-derivation).
    pub(crate) fn check(&mut self, sim: &Simulation) {
        self.checks_run += 1;
        let cycle = sim.cycle;
        let nodes = sim.routers.len();

        // In-pipeline flit/credit tallies keyed by link VC.
        let mut latched: HashMap<(usize, u8, u8), u32> = HashMap::new();
        let mut pend_credits: HashMap<(usize, u8, u8), u32> = HashMap::new();
        for (i, r) in sim.routers.iter().enumerate() {
            for &(out, dvc, _) in &r.core.st_latch {
                if out != Direction::Local && dvc != EJECT_VC {
                    *latched.entry((i, out.index() as u8, dvc)).or_insert(0) += 1;
                }
            }
            for &(side, credit) in &r.core.pending_credits {
                *pend_credits.entry((i, side.index() as u8, credit.vc)).or_insert(0) += 1;
            }
        }
        // `flits_on_links` includes the multi-cycle delay wheel, so
        // flits mid-flight across a die-to-die link still count
        // against the upstream credit book.
        let mut on_link: HashMap<(usize, u8, u8), u32> = HashMap::new();
        for f in sim.flits_on_links() {
            if f.vc != EJECT_VC {
                *on_link.entry((f.node, f.from.index() as u8, f.vc)).or_insert(0) += 1;
            }
        }
        let mut cred_link: HashMap<(usize, u8, u8), u32> = HashMap::new();
        for c in sim.credits_on_links() {
            *cred_link.entry((c.node, c.output.index() as u8, c.credit.vc)).or_insert(0) += 1;
        }

        // Credit books, link by link.
        for i in 0..nodes {
            let coord = self.coord(i);
            for dir in Direction::MESH {
                let Some(n) = sim.neighbor_idx[i][dir.index()] else { continue };
                let books =
                    sim.routers[i].core.outputs[dir.index()].as_ref().map_or(&[][..], |p| p.vcs());
                let opp = dir.opposite();
                let d_idx = dir.index() as u8;
                let o_idx = opp.index() as u8;
                let taint = self.tainted.get(&(i, d_idx)).copied();
                let mut all_match = true;
                for (v, book) in books.iter().enumerate() {
                    let vu = v as u8;
                    let capacity = book.desc.capacity;
                    if book.credits > capacity {
                        self.violate(
                            AuditKind::CreditBook,
                            cycle,
                            Some(coord),
                            Some(dir),
                            Some(vu),
                            None,
                            format!(
                                "credits {} exceed downstream capacity {capacity}",
                                book.credits
                            ),
                        );
                    }
                    let in_latch = latched.get(&(i, d_idx, vu)).copied().unwrap_or(0);
                    let in_flight = on_link.get(&(n, o_idx, vu)).copied().unwrap_or(0);
                    let in_queue = sim.routers[n].core.link_map[opp.index()]
                        .get(v)
                        .map_or(0u32, |&k| sim.slab.view(n).len(k) as u32);
                    let cred_pend = pend_credits.get(&(n, o_idx, vu)).copied().unwrap_or(0);
                    let cred_fly = cred_link.get(&(i, d_idx, vu)).copied().unwrap_or(0);
                    let outstanding = in_latch + in_flight + in_queue + cred_pend + cred_fly;
                    let expected = (capacity as u32).saturating_sub(outstanding) as u8;
                    if book.credits != expected {
                        all_match = false;
                    }
                    if taint.is_none() && book.credits != expected {
                        self.violate(
                            AuditKind::CreditBook,
                            cycle,
                            Some(coord),
                            Some(dir),
                            Some(vu),
                            None,
                            format!(
                                "credits {} != capacity {capacity} - outstanding {outstanding} \
                                 (latch {in_latch} + link {in_flight} + queue {in_queue} \
                                 + credits pending {cred_pend} + in flight {cred_fly})",
                                book.credits
                            ),
                        );
                    }
                }
                if let Some((src, when)) = taint {
                    // The link goes back to exact checking only once
                    // the faulted site's republication has landed (so
                    // the sender's books have been resynchronised) and
                    // the books actually agree with the derivation —
                    // flits swallowed during the §4.1 window make the
                    // two disagree until republication re-bases them.
                    if self.last_republish[src] >= when && all_match {
                        self.tainted.remove(&(i, d_idx));
                    }
                }
            }
        }

        // VC state legality, router by router.
        for (i, r) in sim.routers.iter().enumerate() {
            let coord = self.coord(i);
            let core = &r.core;
            let slab = sim.slab.view(i);
            let mut holders: HashSet<(u8, u8)> = HashSet::new();
            for (k, v) in core.vcs.iter().enumerate() {
                let vc = v.link_index;
                let side = v.input_side;
                let queue_len = slab.len(k);
                let poison_queued = slab.iter(k).filter(|f| f.poison).count();
                let overflow_bound = v.nominal_capacity as usize + poison_queued;
                if queue_len > overflow_bound {
                    self.violate(
                        AuditKind::VcState,
                        cycle,
                        Some(coord),
                        Some(side),
                        Some(vc),
                        None,
                        format!(
                            "buffer holds {queue_len} flits, nominal capacity {} \
                             (+{poison_queued} poison)",
                            v.nominal_capacity
                        ),
                    );
                }
                if self.fault_free {
                    if queue_len > v.desc.capacity as usize {
                        self.violate(
                            AuditKind::VcState,
                            cycle,
                            Some(coord),
                            Some(side),
                            Some(vc),
                            None,
                            format!(
                                "buffer holds {queue_len} flits over capacity {} in a \
                                 fault-free run",
                                v.desc.capacity
                            ),
                        );
                    }
                    if poison_queued > 0 || v.disabled {
                        self.violate(
                            AuditKind::VcState,
                            cycle,
                            Some(coord),
                            Some(side),
                            Some(vc),
                            None,
                            "poisoned or disabled VC in a fault-free run".into(),
                        );
                    }
                }
                let phase = VcPhase::of(v.state, slab.is_empty(k));
                if matches!(phase, VcPhase::Routing | VcPhase::WaitingVa | VcPhase::Blocked)
                    && !v.dropping
                    && slab.front(k).is_some_and(|f| !f.kind.is_head())
                {
                    self.violate(
                        AuditKind::VcState,
                        cycle,
                        Some(coord),
                        Some(side),
                        Some(vc),
                        None,
                        format!("{phase:?} VC fronts a non-head flit"),
                    );
                }
                let VcState::Active { out, dvc, .. } = v.state else { continue };
                if dvc == EJECT_VC {
                    continue;
                }
                if out == Direction::Local {
                    self.violate(
                        AuditKind::VcState,
                        cycle,
                        Some(coord),
                        Some(side),
                        Some(vc),
                        None,
                        "active stream holds a non-ejection VC on the local port".into(),
                    );
                    continue;
                }
                let port = core.outputs[out.index()].as_ref();
                match port.filter(|p| (dvc as usize) < p.vcs().len()) {
                    None => self.violate(
                        AuditKind::VcState,
                        cycle,
                        Some(coord),
                        Some(out),
                        Some(dvc),
                        None,
                        "active stream holds a downstream VC that does not exist".into(),
                    ),
                    Some(p) if p.is_free(dvc as usize) => self.violate(
                        AuditKind::VcState,
                        cycle,
                        Some(coord),
                        Some(out),
                        Some(dvc),
                        None,
                        "downstream VC marked free while a stream still holds it".into(),
                    ),
                    Some(_) => {}
                }
                if !holders.insert((out.index() as u8, dvc)) {
                    self.violate(
                        AuditKind::VcState,
                        cycle,
                        Some(coord),
                        Some(out),
                        Some(dvc),
                        None,
                        "two input VCs hold the same downstream VC".into(),
                    );
                }
            }
        }

        // Mask coherence: each wired output's masks against a fresh
        // derivation from its descriptors.
        for (i, r) in sim.routers.iter().enumerate() {
            for dir in Direction::MESH {
                let Some(port) = r.core.outputs[dir.index()].as_ref() else { continue };
                let derived =
                    AdmissionMasks::derive(port.side(), port.vcs().iter().map(|v| &v.desc));
                if derived != *port.masks() {
                    self.violate(
                        AuditKind::VcCoherence,
                        cycle,
                        Some(self.coord(i)),
                        Some(dir),
                        None,
                        None,
                        format!(
                            "admission masks {:?} != masks derived from the descriptors {derived:?}",
                            port.masks()
                        ),
                    );
                }
                let n = port.vcs().len();
                let stray = if n >= 64 { 0 } else { port.free() >> n };
                if stray != 0 {
                    self.violate(
                        AuditKind::VcCoherence,
                        cycle,
                        Some(self.coord(i)),
                        Some(dir),
                        Some((n + stray.trailing_zeros() as usize) as u8),
                        None,
                        format!("free-mask bit set at or beyond the port's {n} VCs"),
                    );
                }
            }
        }

        // Quiescence (wake-set soundness) and incremental accounting.
        let mut derived_occ_total = 0usize;
        for (i, r) in sim.routers.iter().enumerate() {
            let core = &r.core;
            let slab = sim.slab.view(i);
            let rings = core.vcs.len();
            let ring_total: usize = (0..rings).map(|k| slab.len(k)).sum();
            let derived = ring_total
                + core.st_latch.len()
                + core.pending_ejects.len()
                + core.pending_drops.len();
            derived_occ_total += derived;
            if derived != sim.occ_cache[i] {
                self.violate(
                    AuditKind::Accounting,
                    cycle,
                    Some(self.coord(i)),
                    None,
                    None,
                    None,
                    format!("cached occupancy {} != derived occupancy {derived}", sim.occ_cache[i]),
                );
            }
            // Flat flit-slab coherence (ISSUE 10): the router's
            // incrementally maintained buffered counter must equal the
            // summed slab ring lengths, and every ring's head/len must
            // stay inside its capacity. Divergence means the slab and
            // the engine's view of it have drifted apart.
            if core.buffered_flits() != ring_total {
                self.violate(
                    AuditKind::SlabCoherence,
                    cycle,
                    Some(self.coord(i)),
                    None,
                    None,
                    None,
                    format!(
                        "incremental buffered counter {} != summed slab ring lengths {ring_total}",
                        core.buffered_flits()
                    ),
                );
            }
            if !(0..rings).all(|k| {
                slab.head(k) < slab.ring_cap(k) && slab.len(k) <= slab.ring_cap(k) as usize
            }) {
                self.violate(
                    AuditKind::SlabCoherence,
                    cycle,
                    Some(self.coord(i)),
                    None,
                    None,
                    None,
                    "slab ring index out of bounds (head or len exceeds ring capacity)".into(),
                );
            }
            if !sim.wake.is_awake(i) && !core.is_quiescent() {
                self.violate(
                    AuditKind::Quiescence,
                    cycle,
                    Some(self.coord(i)),
                    None,
                    None,
                    None,
                    "router is off the wake-set but not quiescent".into(),
                );
            }
            // Busy-mask superset invariant (DESIGN.md §10): phase 1
            // deliveries precede phase 3, so after a step every
            // non-quiet VC must appear in the mask the step recorded —
            // a miss means the busy-VC scan skipped live state.
            for (vc_id, v) in core.vcs.iter().enumerate() {
                let quiet =
                    VcPhase::of(v.state, slab.is_empty(vc_id)) == VcPhase::Idle && !v.dropping;
                if !quiet && sim.vc_busy[i] & (1u64 << vc_id) == 0 {
                    self.violate(
                        AuditKind::Quiescence,
                        cycle,
                        Some(self.coord(i)),
                        Some(v.input_side),
                        Some(v.link_index),
                        None,
                        "non-quiet VC is outside the recorded busy mask".into(),
                    );
                }
            }
        }
        if derived_occ_total != sim.occ_total {
            self.violate(
                AuditKind::Accounting,
                cycle,
                None,
                None,
                None,
                None,
                format!("incremental occupancy {} != derived {derived_occ_total}", sim.occ_total),
            );
        }
        let derived_sources: usize = sim.sources.iter().map(|s| s.len()).sum();
        if derived_sources != sim.source_total {
            self.violate(
                AuditKind::Accounting,
                cycle,
                None,
                None,
                None,
                None,
                format!(
                    "incremental source count {} != derived {derived_sources}",
                    sim.source_total
                ),
            );
        }

        // Ledger vs simulator statistics.
        if self.generated != sim.stats.generated {
            self.violate(
                AuditKind::Accounting,
                cycle,
                None,
                None,
                None,
                None,
                format!(
                    "auditor saw {} generated packets, stats say {}",
                    self.generated, sim.stats.generated
                ),
            );
        }
        if self.delivered != sim.stats.delivered {
            self.violate(
                AuditKind::Accounting,
                cycle,
                None,
                None,
                None,
                None,
                format!(
                    "auditor saw {} delivered packets, stats say {}",
                    self.delivered, sim.stats.delivered
                ),
            );
        }
        // Unroutable fail-fasts happen with or without recovery, so the
        // ledger/stats comparison is unconditional (both sides are zero
        // when fault-aware routing is off).
        if self.unroutable != sim.recovery.unroutable_packets {
            self.violate(
                AuditKind::Accounting,
                cycle,
                None,
                None,
                None,
                None,
                format!(
                    "auditor saw {} unroutable packets, recovery stats say {}",
                    self.unroutable, sim.recovery.unroutable_packets
                ),
            );
        }
        if self.recovery {
            if self.abandoned != sim.recovery.abandoned_packets {
                self.violate(
                    AuditKind::Accounting,
                    cycle,
                    None,
                    None,
                    None,
                    None,
                    format!(
                        "auditor saw {} abandoned packets, recovery stats say {}",
                        self.abandoned, sim.recovery.abandoned_packets
                    ),
                );
            }
            if self.live.len() != sim.outstanding.len() {
                self.violate(
                    AuditKind::Conservation,
                    cycle,
                    None,
                    None,
                    None,
                    None,
                    format!(
                        "{} packets unresolved in the ledger but {} outstanding in recovery",
                        self.live.len(),
                        sim.outstanding.len()
                    ),
                );
            }
        }
    }

    /// End-of-run checks: on a clean drain (not stalled, not clipped by
    /// `max_cycles`) every packet must be resolved and every wormhole
    /// closed. Runs one final sweep either way. Idempotent.
    pub(crate) fn finish(&mut self, sim: &Simulation) {
        if self.done {
            return;
        }
        self.done = true;
        self.check(sim);
        let drained = sim.next_packet >= sim.cfg.total_packets()
            && sim.flits_in_system() == 0
            && sim.outstanding.is_empty();
        let clean = drained && !sim.stalled && sim.cycle < sim.cfg.max_cycles;
        if !clean {
            return;
        }
        let cycle = sim.cycle;
        let mut leftovers: Vec<u64> = self.live.iter().copied().collect();
        leftovers.sort_unstable();
        for id in leftovers {
            self.violate(
                AuditKind::Conservation,
                cycle,
                None,
                None,
                None,
                Some(id),
                "packet neither delivered, dropped nor abandoned at clean drain".into(),
            );
        }
        let mut open: Vec<(usize, u8, u8, u64)> =
            self.streams.iter().map(|(&(n, s, v), st)| (n, s, v, st.packet)).collect();
        open.sort_unstable();
        for (n, s, v, packet) in open {
            let node = self.coord(n);
            let side = Direction::ALL[s as usize];
            self.violate(
                AuditKind::StreamOrder,
                cycle,
                Some(node),
                Some(side),
                Some(v),
                Some(packet),
                "wormhole still open at clean drain".into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AuditConfig, RecoveryConfig, SimConfig};
    use crate::network::{FlitInFlight, Simulation};
    use noc_core::{
        Axis, AxisOrder, ComponentFault, FaultComponent, MeshConfig, ModuleHealth, PacketId,
        RouterKind, RoutingKind,
    };
    use noc_fault::FaultSchedule;
    use noc_traffic::TrafficKind;

    fn small_cfg(router: RouterKind) -> SimConfig {
        let mut cfg = SimConfig::paper_scaled(router, RoutingKind::Xy, TrafficKind::Uniform);
        cfg.mesh = MeshConfig::new(4, 4);
        cfg.injection_rate = 0.25;
        cfg.warmup_packets = 20;
        cfg.measured_packets = 200;
        cfg.max_cycles = 50_000;
        cfg.audit = Some(AuditConfig::default());
        cfg
    }

    fn count_of(report: &AuditReport, kind: AuditKind) -> u64 {
        report.counts.iter().find(|(k, _)| *k == kind).map_or(0, |&(_, n)| n)
    }

    fn dead_status() -> NodeStatus {
        NodeStatus { row: ModuleHealth::Dead, col: ModuleHealth::Dead, rc_ok: false }
    }

    #[test]
    fn clean_runs_audit_clean_for_every_router() {
        for router in RouterKind::ALL {
            let results = Simulation::new(small_cfg(router)).run();
            let report = results.audit.expect("audit was enabled");
            assert!(report.clean(), "{router:?}: {}", report.render());
            assert!(report.checks_run > 0);
            assert!(report.flits_observed > 0, "{router:?} never moved a flit");
            assert!(!results.stalled);
        }
    }

    #[test]
    fn faulted_recovery_runs_audit_clean() {
        for router in [RouterKind::RoCo, RouterKind::Generic] {
            let mut cfg = small_cfg(router);
            let mut schedule = FaultSchedule::none();
            schedule.push_transient(
                200,
                Coord::new(1, 1),
                ComponentFault::new(FaultComponent::Crossbar, Axis::X),
                400,
            );
            schedule.push_permanent(
                500,
                Coord::new(2, 2),
                ComponentFault::new(FaultComponent::VaArbiter, Axis::Y),
            );
            cfg.schedule = schedule;
            cfg.recovery =
                Some(RecoveryConfig { timeout: 300, max_retries: 3, backoff_cap: 2_000 });
            let results = Simulation::new(cfg).run();
            let report = results.audit.expect("audit was enabled");
            assert!(report.clean(), "{router:?}: {}", report.render());
        }
    }

    #[test]
    fn auditing_never_changes_the_results() {
        let audited = Simulation::new(small_cfg(RouterKind::RoCo)).run();
        let mut plain_cfg = small_cfg(RouterKind::RoCo);
        plain_cfg.audit = None;
        let plain = Simulation::new(plain_cfg).run();
        assert_eq!(audited.digest(), plain.digest(), "auditing perturbed the simulation");
        let mut ref_cfg = small_cfg(RouterKind::RoCo);
        ref_cfg.kernel = crate::KernelMode::Reference;
        let reference = Simulation::new(ref_cfg).run();
        assert_eq!(audited.digest(), reference.digest(), "kernels diverged");
    }

    #[test]
    fn corrupted_credit_counter_flags_credit_book() {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        for _ in 0..50 {
            sim.step();
        }
        sim.audit_sweep_now();
        assert!(sim.results().audit.expect("enabled").clean(), "corrupted before mutation");
        let mut hit = false;
        'outer: for i in 0..sim.routers.len() {
            let core = &mut sim.routers[i].core;
            for d in 0..4 {
                if let Some(p) = core.outputs[d].as_mut() {
                    if let Some(v) = p.vcs().iter().position(|v| v.credits > 0) {
                        p.debug_set_credits(v, p.vcs()[v].credits - 1);
                        hit = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(hit, "no credited output VC found to corrupt");
        sim.audit_sweep_now();
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, AuditKind::CreditBook) > 0, "{}", report.render());
    }

    #[test]
    fn stolen_in_flight_flit_flags_credit_book() {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        let mut victim = None;
        for _ in 0..500 {
            sim.step();
            if let Some(pos) = sim.flits_in_flight.iter().position(|f| f.vc != noc_core::EJECT_VC) {
                victim = Some(pos);
                break;
            }
        }
        let pos = victim.expect("no mesh-link flit ever in flight");
        sim.flits_in_flight.swap_remove(pos);
        sim.audit_sweep_now();
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, AuditKind::CreditBook) > 0, "{}", report.render());
    }

    #[test]
    fn forged_body_flit_flags_stream_order() {
        let mut sim = Simulation::new(small_cfg(RouterKind::Generic));
        for _ in 0..10 {
            sim.step();
        }
        // An interior node, on a link VC that is idle, empty, and not
        // about to receive a genuine flit: the forged body is an orphan.
        let node = Coord::new(1, 1).index(4);
        let slab = sim.slab.view(node);
        let slot = sim.routers[node]
            .core
            .vcs
            .iter()
            .enumerate()
            .find(|&(k, v)| {
                v.input_side != Direction::Local
                    && slab.is_empty(k)
                    && v.state == VcState::Idle
                    && !sim
                        .flits_in_flight
                        .iter()
                        .any(|f| f.node == node && f.from == v.input_side && f.vc == v.link_index)
            })
            .map(|(_, v)| (v.input_side, v.link_index))
            .expect("no idle link VC at the interior node");
        let forged = Flit::packet_flit_iter(
            PacketId(999_999_999),
            Coord::new(0, 0),
            Coord::new(3, 3),
            0,
            4,
            AxisOrder::Xy,
        )
        .nth(1)
        .expect("packet has a second flit");
        sim.flits_in_flight.push(FlitInFlight { node, from: slot.0, vc: slot.1, flit: forged });
        sim.step();
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, AuditKind::StreamOrder) > 0, "{}", report.render());
    }

    #[test]
    fn killed_published_status_flags_status_coherence() {
        let mut cfg = small_cfg(RouterKind::Generic);
        cfg.injection_rate = 0.35;
        let mut sim = Simulation::new(cfg);
        // Step until some router is mid-wormhole toward a neighbour with
        // flits still queued behind the head, then lie to the network:
        // publish that neighbour as dead. The committed stream keeps
        // emitting (SA never re-reads the status table), which the
        // status-coherence check must flag.
        let mut victim = None;
        'search: for _ in 0..500 {
            sim.step();
            for (i, r) in sim.routers.iter().enumerate() {
                for (k, v) in r.core.vcs.iter().enumerate() {
                    if let VcState::Active { out, dvc, .. } = v.state {
                        if sim.slab.view(i).len(k) >= 2 && dvc != EJECT_VC {
                            if let Some(n) = sim.neighbor_idx[i][out.index()] {
                                victim = Some(n);
                                break 'search;
                            }
                        }
                    }
                }
            }
        }
        let victim = victim.expect("no mid-wormhole stream found");
        sim.statuses[victim] = dead_status();
        let mut found = false;
        for _ in 0..50 {
            sim.step();
            let report = sim.results().audit.expect("enabled");
            if count_of(&report, AuditKind::StatusCoherence) > 0 {
                found = true;
                break;
            }
        }
        assert!(found, "no emission toward the dead-published node was flagged");
    }

    #[test]
    fn off_wake_set_busy_router_flags_quiescence() {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        let mut target = None;
        for _ in 0..500 {
            sim.step();
            if let Some(i) =
                (0..sim.routers.len()).find(|&i| sim.wake.is_awake(i) && sim.occ_cache[i] > 0)
            {
                target = Some(i);
                break;
            }
        }
        let i = target.expect("no busy router found");
        sim.wake.sleep(i);
        sim.audit_sweep_now();
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, AuditKind::Quiescence) > 0, "{}", report.render());
    }

    #[test]
    fn cleared_busy_mask_flags_quiescence() {
        for kernel in [crate::KernelMode::Soa, crate::KernelMode::Reference] {
            let mut cfg = small_cfg(RouterKind::RoCo);
            cfg.kernel = kernel;
            let mut sim = Simulation::new(cfg);
            let mut target = None;
            for _ in 0..500 {
                sim.step();
                // A router with buffered flits necessarily has a
                // non-quiet VC, so zeroing its recorded mask must trip
                // the check.
                if let Some(i) = (0..sim.routers.len()).find(|&i| {
                    let slab = sim.slab.view(i);
                    sim.occ_cache[i] > 0
                        && (0..sim.routers[i].core.vcs.len()).any(|k| !slab.is_empty(k))
                }) {
                    target = Some(i);
                    break;
                }
            }
            let i = target.expect("no router with buffered flits found");
            sim.audit_sweep_now();
            let report = sim.results().audit.expect("enabled");
            assert!(report.clean(), "{kernel:?} before mutation: {}", report.render());
            sim.vc_busy[i] = 0;
            sim.audit_sweep_now();
            let report = sim.results().audit.expect("enabled");
            assert!(
                count_of(&report, AuditKind::Quiescence) > 0,
                "{kernel:?}: {}",
                report.render()
            );
        }
    }

    #[test]
    fn inflated_generated_stat_flags_accounting() {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        for _ in 0..20 {
            sim.step();
        }
        sim.stats.generated += 1;
        sim.audit_sweep_now();
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, AuditKind::Accounting) > 0, "{}", report.render());
    }

    #[test]
    fn corrupted_slab_head_flags_slab_coherence() {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        for _ in 0..50 {
            sim.step();
        }
        sim.audit_sweep_now();
        assert!(sim.results().audit.expect("enabled").clean(), "violations before mutation");
        // Push an *empty* ring's head index past its capacity: nothing
        // else in the router observes an empty ring, so the only report
        // must come from the slab-coherence check (exact class).
        let rings = sim.slab.ring_caps().len();
        let (node, ring, cap) = (0..sim.routers.len())
            .flat_map(|n| (0..rings).map(move |r| (n, r)))
            .find_map(|(n, r)| {
                let v = sim.slab.view(n);
                v.is_empty(r).then(|| (n, r, v.ring_cap(r)))
            })
            .expect("no empty VC ring found");
        sim.slab.debug_set_head(node, ring, cap);
        sim.audit_sweep_now();
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, AuditKind::SlabCoherence) > 0, "{}", report.render());
        assert_eq!(
            report.total_violations,
            count_of(&report, AuditKind::SlabCoherence),
            "corruption misattributed to another class: {}",
            report.render()
        );
    }

    #[test]
    fn corrupted_occupancy_total_flags_accounting() {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        for _ in 0..20 {
            sim.step();
        }
        sim.occ_total += 1;
        sim.audit_sweep_now();
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, AuditKind::Accounting) > 0, "{}", report.render());
    }

    #[test]
    fn freed_held_downstream_vc_flags_vc_state() {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        let mut target = None;
        'search: for _ in 0..500 {
            sim.step();
            for (i, r) in sim.routers.iter().enumerate() {
                for v in &r.core.vcs {
                    if let VcState::Active { out, dvc, .. } = v.state {
                        if out != Direction::Local && dvc != EJECT_VC {
                            target = Some((i, out, dvc));
                            break 'search;
                        }
                    }
                }
            }
        }
        let (i, out, dvc) = target.expect("no active stream found");
        let core = &mut sim.routers[i].core;
        core.outputs[out.index()]
            .as_mut()
            .expect("wired output")
            .debug_set_free(dvc as usize, true);
        sim.audit_sweep_now();
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, AuditKind::VcState) > 0, "{}", report.render());
    }

    /// Asserts that every violation `sim`'s audit recorded is of `kind`,
    /// and that there is at least one.
    fn assert_only(sim: &Simulation, kind: AuditKind) {
        let report = sim.results().audit.expect("enabled");
        assert!(count_of(&report, kind) > 0, "{}", report.render());
        assert_eq!(
            report.total_violations,
            count_of(&report, kind),
            "corruption misattributed to another class: {}",
            report.render()
        );
    }

    #[test]
    fn flipped_admission_bit_flags_vc_coherence() {
        let mut sim = clean_sim_after(50);
        let port = sim.routers[5].core.outputs[Direction::East.index()]
            .as_mut()
            .expect("an interior router's outputs are wired");
        port.debug_flip_admission(Direction::North, 0);
        sim.audit_sweep_now();
        assert_only(&sim, AuditKind::VcCoherence);
    }

    #[test]
    fn free_bit_beyond_the_port_flags_vc_coherence() {
        let mut sim = clean_sim_after(50);
        let port = sim.routers[5].core.outputs[Direction::East.index()]
            .as_mut()
            .expect("an interior router's outputs are wired");
        port.debug_set_free(port.vcs().len(), true);
        sim.audit_sweep_now();
        assert_only(&sim, AuditKind::VcCoherence);
    }

    /// A 4×4 RoCo simulation stepped `cycles` times whose audit is still
    /// clean: the starting point of the `VcState` mutation tests.
    fn clean_sim_after(cycles: usize) -> Simulation {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        for _ in 0..cycles {
            sim.step();
        }
        sim.audit_sweep_now();
        assert!(sim.results().audit.expect("enabled").clean(), "violations before mutation");
        sim
    }

    /// Asserts that `sim`'s audit recorded a `VcState` violation with
    /// exactly `detail`, so a test pins the one check it mutates for.
    fn assert_vc_state(sim: &Simulation, detail: &str) {
        let report = sim.results().audit.expect("enabled");
        assert!(
            report.violations.iter().any(|v| v.kind == AuditKind::VcState && v.detail == detail),
            "no `{detail}` violation: {}",
            report.render()
        );
    }

    #[test]
    fn body_flit_fronting_a_routing_vc_flags_vc_state() {
        let mut sim = clean_sim_after(50);
        // An idle, empty injection VC (no upstream credit book to
        // disturb): a body flit at its front makes it a `Routing` VC
        // whose head is not a head flit.
        let (node, k) = (0..sim.routers.len())
            .flat_map(|n| (0..sim.routers[n].core.vcs.len()).map(move |k| (n, k)))
            .find(|&(n, k)| {
                let v = &sim.routers[n].core.vcs[k];
                v.input_side == Direction::Local
                    && v.state == VcState::Idle
                    && !v.dropping
                    && sim.slab.view(n).is_empty(k)
            })
            .expect("no idle injection VC found");
        sim.slab.window(node).push_back(k, packet_flits(999_999_999)[1]);
        sim.audit_sweep_now();
        assert_vc_state(&sim, "Routing VC fronts a non-head flit");
    }

    #[test]
    fn shared_downstream_vc_flags_vc_state() {
        let mut sim = Simulation::new(small_cfg(RouterKind::RoCo));
        let mut target = None;
        'search: for _ in 0..500 {
            sim.step();
            for (i, r) in sim.routers.iter().enumerate() {
                let slab = sim.slab.view(i);
                let held = r.core.vcs.iter().map(|v| v.state).find(|s| {
                    matches!(*s, VcState::Active { out, dvc, .. }
                        if out != Direction::Local && dvc != EJECT_VC)
                });
                let idle =
                    r.core.vcs.iter().enumerate().position(|(k, v)| {
                        v.state == VcState::Idle && !v.dropping && slab.is_empty(k)
                    });
                if let (Some(state), Some(k)) = (held, idle) {
                    target = Some((i, k, state));
                    break 'search;
                }
            }
        }
        let (i, k, state) = target.expect("no active stream beside an idle VC found");
        sim.audit_sweep_now();
        assert!(sim.results().audit.expect("enabled").clean(), "violations before mutation");
        // A second input VC claims the downstream VC the stream holds.
        sim.routers[i].core.vcs[k].state = state;
        sim.audit_sweep_now();
        assert_vc_state(&sim, "two input VCs hold the same downstream VC");
    }

    #[test]
    fn disabled_vc_in_a_fault_free_run_flags_vc_state() {
        let mut sim = clean_sim_after(50);
        sim.routers[5].core.vcs[0].disabled = true;
        sim.audit_sweep_now();
        assert_vc_state(&sim, "poisoned or disabled VC in a fault-free run");
        let report = sim.results().audit.expect("enabled");
        assert_eq!(
            report.total_violations,
            count_of(&report, AuditKind::VcState),
            "corruption misattributed to another class: {}",
            report.render()
        );
    }

    // ---- direct hook tests: exact violation-class mapping ----

    fn bare_auditor() -> Auditor {
        Auditor::new(AuditConfig::default(), &small_cfg(RouterKind::RoCo))
    }

    fn packet_flits(id: u64) -> Vec<Flit> {
        Flit::packet_flit_iter(
            PacketId(id),
            Coord::new(0, 0),
            Coord::new(3, 3),
            0,
            4,
            AxisOrder::Xy,
        )
        .collect()
    }

    #[test]
    fn double_delivery_is_conservation() {
        let mut a = bare_auditor();
        a.on_generated(0, 42);
        a.on_delivered(5, Coord::new(3, 3), 42);
        assert_eq!(a.total, 0);
        a.on_delivered(6, Coord::new(3, 3), 42);
        assert_eq!(count_of(&a.report(), AuditKind::Conservation), 1);
    }

    #[test]
    fn delivery_of_unknown_packet_is_conservation() {
        let mut a = bare_auditor();
        a.on_delivered(5, Coord::new(3, 3), 77);
        assert_eq!(count_of(&a.report(), AuditKind::Conservation), 1);
    }

    #[test]
    fn unroutable_resolves_once_and_double_resolution_is_conservation() {
        let mut a = bare_auditor();
        a.on_generated(0, 42);
        a.on_unroutable(1, 42);
        assert_eq!(a.total, 0, "{}", a.report().render());
        assert!(a.live.is_empty(), "unroutable must resolve the packet");
        // Resolving the same packet again (delivered after fail-fast
        // without sink-side suppression) is a conservation violation.
        a.on_delivered(5, Coord::new(3, 3), 42);
        assert_eq!(count_of(&a.report(), AuditKind::Conservation), 1);
        // An unroutable verdict for a never-generated packet too.
        a.on_unroutable(6, 77);
        assert_eq!(count_of(&a.report(), AuditKind::Conservation), 2);
    }

    #[test]
    fn stream_machine_flags_interleave_gap_and_orphan() {
        let mut a = bare_auditor();
        a.on_generated(0, 1);
        a.on_generated(0, 2);
        let p1 = packet_flits(1);
        let p2 = packet_flits(2);
        // Proper head..tail sequence on one link VC: no violation.
        for f in &p1 {
            a.on_link_flit(1, 5, Direction::West, 0, f);
        }
        assert_eq!(a.total, 0, "{}", a.report().render());
        // Head of packet 2 while packet 1's wormhole is re-opened and
        // left dangling: interleave.
        a.on_link_flit(2, 5, Direction::West, 0, &p1[0]);
        a.on_link_flit(3, 5, Direction::West, 0, &p2[0]);
        assert_eq!(count_of(&a.report(), AuditKind::StreamOrder), 1);
        // A sequence gap within packet 2 (skip seq 1).
        a.on_link_flit(4, 5, Direction::West, 0, &p2[2]);
        assert_eq!(count_of(&a.report(), AuditKind::StreamOrder), 2);
        // A body with no wormhole open on a fresh link VC.
        a.on_link_flit(5, 6, Direction::East, 1, &p1[1]);
        assert_eq!(count_of(&a.report(), AuditKind::StreamOrder), 3);
    }

    #[test]
    fn poison_closes_and_resolves_the_open_stream() {
        let mut a = bare_auditor();
        a.on_generated(0, 9);
        let p = packet_flits(9);
        a.on_link_flit(1, 5, Direction::West, 0, &p[0]);
        a.on_link_flit(2, 5, Direction::West, 0, &p[1]);
        // Sentinel poison: the aborting router no longer knew the id.
        let poison = Flit::poison_tail(
            PacketId(u64::MAX),
            Coord::new(0, 0),
            Coord::new(3, 3),
            Direction::East,
        );
        a.on_link_flit(3, 5, Direction::West, 0, &poison);
        assert_eq!(a.total, 0, "{}", a.report().render());
        assert!(a.live.is_empty(), "poisoned packet must resolve via the stream state");
        assert!(a.streams.is_empty(), "poison must close the wormhole");
    }

    #[test]
    fn emission_toward_published_dead_node_is_status_coherence() {
        let mut a = bare_auditor();
        a.on_generated(0, 3);
        let p = packet_flits(3);
        // Republication landed this cycle: one-cycle switch-latch grace.
        a.on_republish(10, 5);
        a.on_emission(10, 5, Coord::new(1, 1), dead_status(), &p[0]);
        assert_eq!(a.total, 0);
        // Past the grace window: violation.
        a.on_emission(11, 5, Coord::new(1, 1), dead_status(), &p[1]);
        assert_eq!(count_of(&a.report(), AuditKind::StatusCoherence), 1);
        // Poison tails legally chase fragments into dead territory.
        let poison =
            Flit::poison_tail(PacketId(3), Coord::new(0, 0), Coord::new(1, 1), Direction::East);
        a.on_emission(12, 5, Coord::new(1, 1), dead_status(), &poison);
        assert_eq!(count_of(&a.report(), AuditKind::StatusCoherence), 1);
    }

    #[test]
    fn recorded_violations_are_capped_but_all_are_counted() {
        let cfg = small_cfg(RouterKind::RoCo);
        let mut a = Auditor::new(AuditConfig { interval: 1, max_recorded: 2 }, &cfg);
        for id in 0..5 {
            a.on_delivered(1, Coord::new(0, 0), id);
        }
        let report = a.report();
        assert_eq!(report.total_violations, 5);
        assert_eq!(report.violations.len(), 2);
        assert!(!report.clean());
        assert!(report.render().contains("3 more"));
    }
}
