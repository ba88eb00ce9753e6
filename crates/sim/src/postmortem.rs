//! Stall post-mortems: a structured diagnosis emitted when the
//! inactivity detector fires.
//!
//! When generation has finished, flits remain in the system, and no
//! delivery or drop has happened for `stall_window` cycles, the
//! simulation declares itself stalled. Instead of just setting a flag,
//! it now freezes the network state into a [`StallPostmortem`]: every
//! wedged packet with its node/VC and pipeline phase, per-router
//! blocked/buffered counts, the full credit map, and — via the
//! `noc-deadlock` crate's cycle detector run over the *observed*
//! wait-for edges — a suspected deadlock loop when one exists.

use crate::json::{write_key, write_str};
use noc_core::{ComponentFault, Coord, Cycle, Direction, PacketId};
use noc_router::VcState;
use std::fmt::Write as _;

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
    /// The phase of a VC in `state` whose slab ring is `ring_empty`. An
    /// `Idle` VC with buffered flits is `Routing`: its head arrived and
    /// awaits route computation. The audit sweep and the stall
    /// post-mortem both classify VCs through this one mapping.
    pub fn of(state: VcState, ring_empty: bool) -> VcPhase {
        match state {
            VcState::Idle if ring_empty => VcPhase::Idle,
            VcState::Idle | VcState::RoutePending { .. } => VcPhase::Routing,
            VcState::WaitingVa { .. } => VcPhase::WaitingVa,
            VcState::Blocked { .. } => VcPhase::Blocked,
            VcState::Active { .. } => VcPhase::Active,
        }
    }

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

/// One entry of the fault/repair history leading up to a stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTimelineEntry {
    /// Cycle the event took effect.
    pub cycle: Cycle,
    /// Afflicted router.
    pub node: Coord,
    /// `true` for a repair, `false` for a fault injection.
    pub repair: bool,
    /// The fault injected or repaired.
    pub fault: ComponentFault,
}

/// One packet (or packet fragment) stuck in the network at stall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WedgedPacket {
    /// The packet at the head of the VC (`None` for a headless fragment
    /// whose head was dropped elsewhere).
    pub packet: Option<PacketId>,
    /// Router holding the flits.
    pub node: Coord,
    /// Input side of the occupied VC.
    pub input_side: Direction,
    /// VC index on that link.
    pub vc: u8,
    /// Pipeline phase the VC is frozen in.
    pub phase: VcPhase,
    /// Output the VC wants (or holds), when known.
    pub out: Option<Direction>,
    /// Flits buffered in the VC.
    pub buffered: usize,
    /// Whether the VC is `Active` but starved of downstream credits.
    pub credit_starved: bool,
    /// The cycle a `Blocked` VC wedged at.
    pub blocked_since: Option<Cycle>,
    /// Destination of the head flit, when one is buffered.
    pub dst: Option<Coord>,
    /// Topology-native rendering of `dst` (ISSUE 9): `(x,y)` on a
    /// mesh/torus, `#i` on a circulant, `chip(cx,cy)/(lx,ly)` on a
    /// chiplet mesh. `None` in diagnoses recorded before the topology
    /// layer existed; the renderer then falls back to the raw grid
    /// coordinate.
    pub dst_name: Option<String>,
    /// `unroutable destination` diagnosis class (ISSUE 8): the packet's
    /// destination is unreachable over the usable-link graph at stall
    /// time — the stream is wedged behind dead links, not a deadlock.
    /// Only ever `true` when fault-aware routing is enabled.
    pub unroutable_dst: bool,
}

/// Per-router summary of the wedged state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterDiagnosis {
    /// Mesh position.
    pub node: Coord,
    /// Lifetime fault-blocked packets at this router.
    pub blocked_packets: u64,
    /// Flits buffered at stall time.
    pub buffered: u64,
    /// Lifetime credit-starved cycles.
    pub credit_stall_cycles: u64,
}

/// Credits remaining on one output link at stall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditLine {
    /// Upstream router.
    pub node: Coord,
    /// Its output direction.
    pub output: Direction,
    /// Per-downstream-VC remaining credits, in link order.
    pub credits: Vec<u8>,
}

/// The full structured diagnosis of a stalled run.
#[derive(Debug, Clone, PartialEq)]
pub struct StallPostmortem {
    /// Cycle the detector fired.
    pub cycle: Cycle,
    /// Last cycle that saw a delivery or drop.
    pub last_progress: Cycle,
    /// Flits still buffered, latched, queued at sources or on links.
    pub flits_in_system: u64,
    /// Every stuck packet, in node-index order.
    pub wedged: Vec<WedgedPacket>,
    /// Routers holding flits or with blocked-packet history.
    pub routers: Vec<RouterDiagnosis>,
    /// The complete credit map (every wired output of every router).
    pub credit_map: Vec<CreditLine>,
    /// A wait-for loop among the wedged channels, rendered as
    /// `"(x,y) in S#v"` strings with the first channel repeated at the
    /// end — present only when the observed dependencies actually close
    /// a cycle (a true deadlock signature, not mere fault blocking).
    pub suspected_loop: Option<Vec<String>>,
    /// Every mid-run fault/repair event applied before the stall, in
    /// order — a stall right after an injection usually implicates it.
    pub fault_timeline: Vec<FaultTimelineEntry>,
    /// Packets the end-to-end recovery layer gave up on after
    /// exhausting its retry budget. These left the system deliberately —
    /// they are *not* wedged — so they are classified separately from
    /// the `wedged` list.
    pub abandoned_packets: u64,
    /// Packets the fault-aware routing layer failed fast because their
    /// destination was provably unreachable (ISSUE 8). Like abandoned
    /// packets, these left the system deliberately.
    pub unroutable_packets: u64,
}

impl StallPostmortem {
    /// Human-readable multi-line rendering (the CLI prints this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stall post-mortem: no progress since cycle {} (detector fired at cycle {}, {} \
             flits in system)",
            self.last_progress, self.cycle, self.flits_in_system
        );
        if !self.fault_timeline.is_empty() {
            let _ =
                writeln!(out, "  fault/repair timeline ({} events):", self.fault_timeline.len());
            for e in &self.fault_timeline {
                let _ = writeln!(
                    out,
                    "    cycle {}: {} {:?} ({}-axis) at {}",
                    e.cycle,
                    if e.repair { "repair" } else { "fault" },
                    e.fault.component,
                    e.fault.axis,
                    e.node
                );
            }
        }
        if self.abandoned_packets > 0 {
            let _ = writeln!(
                out,
                "  abandoned after retry budget: {} packets (recovery gave up; not wedged)",
                self.abandoned_packets
            );
        }
        if self.unroutable_packets > 0 {
            let _ = writeln!(
                out,
                "  failed fast as unroutable: {} packets (destination unreachable over the \
                 usable-link graph; not wedged)",
                self.unroutable_packets
            );
        }
        let _ = writeln!(out, "  wedged packets ({}):", self.wedged.len());
        for w in &self.wedged {
            let packet = match w.packet {
                Some(p) => format!("pkt {}", p.0),
                None => "fragment".to_string(),
            };
            let mut line = format!(
                "    {packet} at {} in {}#{} phase {} ({} flits buffered",
                w.node,
                w.input_side,
                w.vc,
                w.phase.label(),
                w.buffered
            );
            if w.credit_starved {
                line.push_str(", credit-starved");
            }
            if let Some(since) = w.blocked_since {
                let _ = write!(line, ", blocked since cycle {since}");
            }
            if let Some(d) = w.out {
                let _ = write!(line, ", wants {d}");
            }
            if w.unroutable_dst {
                match (&w.dst_name, w.dst) {
                    (Some(name), _) => {
                        let _ = write!(line, ", unroutable destination {name}");
                    }
                    (None, Some(d)) => {
                        let _ = write!(line, ", unroutable destination {d}");
                    }
                    (None, None) => line.push_str(", unroutable destination"),
                }
            }
            line.push(')');
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "  routers holding flits or blocked packets:");
        for r in &self.routers {
            let _ = writeln!(
                out,
                "    {}: {} buffered, {} blocked packets, {} credit-stall cycles",
                r.node, r.buffered, r.blocked_packets, r.credit_stall_cycles
            );
        }
        let exhausted: Vec<&CreditLine> =
            self.credit_map.iter().filter(|l| l.credits.contains(&0)).collect();
        let _ = writeln!(
            out,
            "  outputs with exhausted downstream VCs ({} of {}):",
            exhausted.len(),
            self.credit_map.len()
        );
        for l in exhausted {
            let credits: Vec<String> = l.credits.iter().map(u8::to_string).collect();
            let _ =
                writeln!(out, "    {} -> {}: credits [{}]", l.node, l.output, credits.join(","));
        }
        match &self.suspected_loop {
            Some(cycle) => {
                let _ = writeln!(out, "  suspected deadlock loop: {}", cycle.join(" -> "));
            }
            None => {
                let _ = writeln!(
                    out,
                    "  no wait-for cycle among wedged channels (fault-induced blocking, \
                     not a deadlock)"
                );
            }
        }
        out
    }

    /// Serializes the diagnosis as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        let mut first = true;
        for (key, value) in [
            ("cycle", self.cycle),
            ("last_progress", self.last_progress),
            ("flits_in_system", self.flits_in_system),
        ] {
            write_key(&mut out, &mut first, key);
            let _ = write!(out, "{value}");
        }
        write_key(&mut out, &mut first, "wedged");
        out.push('[');
        for (i, w) in self.wedged.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let mut wf = true;
            write_key(&mut out, &mut wf, "packet");
            match w.packet {
                Some(p) => {
                    let _ = write!(out, "{}", p.0);
                }
                None => out.push_str("null"),
            }
            write_key(&mut out, &mut wf, "node");
            let _ = write!(out, "[{},{}]", w.node.x, w.node.y);
            write_key(&mut out, &mut wf, "input_side");
            write_str(&mut out, &w.input_side.to_string());
            write_key(&mut out, &mut wf, "vc");
            let _ = write!(out, "{}", w.vc);
            write_key(&mut out, &mut wf, "phase");
            write_str(&mut out, w.phase.label());
            write_key(&mut out, &mut wf, "buffered");
            let _ = write!(out, "{}", w.buffered);
            write_key(&mut out, &mut wf, "credit_starved");
            out.push_str(if w.credit_starved { "true" } else { "false" });
            write_key(&mut out, &mut wf, "dst");
            match w.dst {
                Some(d) => {
                    let _ = write!(out, "[{},{}]", d.x, d.y);
                }
                None => out.push_str("null"),
            }
            write_key(&mut out, &mut wf, "dst_name");
            match &w.dst_name {
                Some(name) => write_str(&mut out, name),
                None => out.push_str("null"),
            }
            write_key(&mut out, &mut wf, "unroutable_dst");
            out.push_str(if w.unroutable_dst { "true" } else { "false" });
            out.push('}');
        }
        out.push(']');
        write_key(&mut out, &mut first, "routers");
        out.push('[');
        for (i, r) in self.routers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let mut rf = true;
            write_key(&mut out, &mut rf, "node");
            let _ = write!(out, "[{},{}]", r.node.x, r.node.y);
            for (key, value) in [
                ("blocked_packets", r.blocked_packets),
                ("buffered", r.buffered),
                ("credit_stall_cycles", r.credit_stall_cycles),
            ] {
                write_key(&mut out, &mut rf, key);
                let _ = write!(out, "{value}");
            }
            out.push('}');
        }
        out.push(']');
        write_key(&mut out, &mut first, "credit_map");
        out.push('[');
        for (i, l) in self.credit_map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let mut lf = true;
            write_key(&mut out, &mut lf, "node");
            let _ = write!(out, "[{},{}]", l.node.x, l.node.y);
            write_key(&mut out, &mut lf, "output");
            write_str(&mut out, &l.output.to_string());
            write_key(&mut out, &mut lf, "credits");
            out.push('[');
            for (j, c) in l.credits.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push(']');
            out.push('}');
        }
        out.push(']');
        write_key(&mut out, &mut first, "suspected_loop");
        match &self.suspected_loop {
            Some(cycle) => {
                out.push('[');
                for (i, ch) in cycle.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(&mut out, ch);
                }
                out.push(']');
            }
            None => out.push_str("null"),
        }
        write_key(&mut out, &mut first, "fault_timeline");
        out.push('[');
        for (i, e) in self.fault_timeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let mut ef = true;
            write_key(&mut out, &mut ef, "cycle");
            let _ = write!(out, "{}", e.cycle);
            write_key(&mut out, &mut ef, "node");
            let _ = write!(out, "[{},{}]", e.node.x, e.node.y);
            write_key(&mut out, &mut ef, "action");
            write_str(&mut out, if e.repair { "repair" } else { "fault" });
            write_key(&mut out, &mut ef, "component");
            write_str(&mut out, &format!("{:?}", e.fault.component));
            out.push('}');
        }
        out.push(']');
        write_key(&mut out, &mut first, "abandoned_packets");
        let _ = write!(out, "{}", self.abandoned_packets);
        write_key(&mut out, &mut first, "unroutable_packets");
        let _ = write!(out, "{}", self.unroutable_packets);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn postmortem() -> StallPostmortem {
        StallPostmortem {
            cycle: 1500,
            last_progress: 400,
            flits_in_system: 4,
            wedged: vec![WedgedPacket {
                packet: Some(PacketId(3)),
                node: Coord::new(1, 1),
                input_side: Direction::West,
                vc: 0,
                phase: VcPhase::Blocked,
                out: None,
                buffered: 4,
                credit_starved: false,
                blocked_since: Some(410),
                dst: Some(Coord::new(3, 3)),
                dst_name: None,
                unroutable_dst: true,
            }],
            routers: vec![RouterDiagnosis {
                node: Coord::new(1, 1),
                blocked_packets: 1,
                buffered: 4,
                credit_stall_cycles: 0,
            }],
            credit_map: vec![CreditLine {
                node: Coord::new(0, 1),
                output: Direction::East,
                credits: vec![0, 5, 5],
            }],
            suspected_loop: None,
            fault_timeline: vec![FaultTimelineEntry {
                cycle: 405,
                node: Coord::new(1, 1),
                repair: false,
                fault: ComponentFault::new(noc_core::FaultComponent::Crossbar, noc_core::Axis::X),
            }],
            abandoned_packets: 2,
            unroutable_packets: 3,
        }
    }

    #[test]
    fn render_mentions_the_wedged_packet_and_router() {
        let text = postmortem().render();
        assert!(text.contains("pkt 3"));
        assert!(text.contains("(1,1)"));
        assert!(text.contains("phase blocked"));
        assert!(text.contains("blocked since cycle 410"));
        assert!(text.contains("1 blocked packets"));
        assert!(text.contains("not a deadlock"));
        assert!(text.contains("cycle 405: fault Crossbar"));
        assert!(text.contains("abandoned after retry budget: 2 packets"));
        assert!(text.contains("failed fast as unroutable: 3 packets"));
        assert!(text.contains("unroutable destination (3,3)"));
    }

    #[test]
    fn topology_node_name_overrides_grid_coordinate() {
        let mut pm = postmortem();
        pm.wedged[0].dst_name = Some("chip(1,0)/(1,1)".into());
        let text = pm.render();
        assert!(text.contains("unroutable destination chip(1,0)/(1,1)"));
        assert!(!text.contains("unroutable destination (3,3)"));
        let v = Json::parse(&pm.to_json()).unwrap();
        let wedged = v.get("wedged").unwrap().as_arr().unwrap();
        assert_eq!(wedged[0].get("dst_name").unwrap().as_str(), Some("chip(1,0)/(1,1)"));
    }

    #[test]
    fn json_form_parses() {
        let v = Json::parse(&postmortem().to_json()).expect("valid JSON");
        assert_eq!(v.get("cycle").unwrap().as_u64(), Some(1500));
        let wedged = v.get("wedged").unwrap().as_arr().unwrap();
        assert_eq!(wedged.len(), 1);
        assert_eq!(wedged[0].get("packet").unwrap().as_u64(), Some(3));
        assert_eq!(wedged[0].get("phase").unwrap().as_str(), Some("blocked"));
        assert_eq!(v.get("suspected_loop"), Some(&Json::Null));
        let credits = v.get("credit_map").unwrap().as_arr().unwrap()[0].get("credits").unwrap();
        assert_eq!(credits.as_arr().unwrap()[0].as_u64(), Some(0));
        let timeline = v.get("fault_timeline").unwrap().as_arr().unwrap();
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline[0].get("action").unwrap().as_str(), Some("fault"));
        assert_eq!(timeline[0].get("component").unwrap().as_str(), Some("Crossbar"));
        assert_eq!(v.get("abandoned_packets").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("unroutable_packets").unwrap().as_u64(), Some(3));
        assert_eq!(wedged[0].get("unroutable_dst"), Some(&Json::Bool(true)));
        let dst = wedged[0].get("dst").unwrap().as_arr().unwrap();
        assert_eq!(dst[0].as_u64(), Some(3));
    }

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

    #[test]
    fn phase_of_maps_every_vc_state() {
        assert_eq!(VcPhase::of(VcState::Idle, true), VcPhase::Idle);
        assert_eq!(VcPhase::of(VcState::Idle, false), VcPhase::Routing);
        let pending = VcState::RoutePending { next_route: Direction::East, ready_at: 3 };
        assert_eq!(VcPhase::of(pending, false), VcPhase::Routing);
        let waiting = VcState::WaitingVa { next_route: Direction::East };
        assert_eq!(VcPhase::of(waiting, false), VcPhase::WaitingVa);
        assert_eq!(VcPhase::of(VcState::Blocked { since: 9 }, false), VcPhase::Blocked);
        let active = VcState::Active {
            out: Direction::East,
            dvc: 0,
            next_route: Direction::East,
            sa_from: 4,
        };
        assert_eq!(VcPhase::of(active, true), VcPhase::Active);
    }

    #[test]
    fn loop_renders_with_arrows() {
        let mut pm = postmortem();
        pm.suspected_loop = Some(vec!["(1,1) W#0".into(), "(2,1) W#0".into(), "(1,1) W#0".into()]);
        assert!(pm.render().contains("(1,1) W#0 -> (2,1) W#0 -> (1,1) W#0"));
        let v = Json::parse(&pm.to_json()).unwrap();
        assert_eq!(v.get("suspected_loop").unwrap().as_arr().unwrap().len(), 3);
    }
}
