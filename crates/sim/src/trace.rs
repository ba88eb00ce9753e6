//! Packet-level event tracing.
//!
//! Attach a [`TraceSink`] to a [`crate::Simulation`] to receive every
//! packet lifecycle event (generation, injection, per-hop link
//! transfer, delivery, drop) as it happens — for debugging, replay, or
//! export to external analysis tools. Mid-run fault injections and
//! repairs appear in the same stream as packet-less [`TraceEvent::Fault`]
//! / [`TraceEvent::Repair`] markers.

use noc_core::{ComponentFault, Coord, Cycle, Direction, PacketId};
use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;

/// One packet lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The traffic model created a packet at `src` addressed to `dst`.
    Generated {
        /// Event cycle.
        cycle: Cycle,
        /// Packet id.
        packet: PacketId,
        /// Source node.
        src: Coord,
        /// Destination node.
        dst: Coord,
    },
    /// The head flit entered the source router.
    Injected {
        /// Event cycle.
        cycle: Cycle,
        /// Packet id.
        packet: PacketId,
        /// Injecting node.
        node: Coord,
    },
    /// A flit crossed the link leaving `node` through `out`.
    Hop {
        /// Event cycle.
        cycle: Cycle,
        /// Packet id.
        packet: PacketId,
        /// Flit sequence number within the packet.
        seq: u16,
        /// Node the flit departed from.
        node: Coord,
        /// Output direction taken.
        out: Direction,
    },
    /// The tail flit reached the destination PE.
    Delivered {
        /// Event cycle.
        cycle: Cycle,
        /// Packet id.
        packet: PacketId,
        /// End-to-end latency in cycles.
        latency: u64,
    },
    /// The packet was discarded by fault handling.
    Dropped {
        /// Event cycle.
        cycle: Cycle,
        /// Packet id.
        packet: PacketId,
        /// Node that discarded it.
        node: Coord,
    },
    /// The fault-aware routing layer proved the packet's destination
    /// unreachable over the usable-link graph and failed it fast
    /// (ISSUE 8): refused at generation, or short-circuited out of the
    /// recovery retry loop.
    Unroutable {
        /// Event cycle.
        cycle: Cycle,
        /// Packet id.
        packet: PacketId,
        /// Source node.
        src: Coord,
        /// The unreachable destination.
        dst: Coord,
    },
    /// A hardware fault struck `node` mid-run (§4).
    Fault {
        /// Event cycle.
        cycle: Cycle,
        /// Afflicted router.
        node: Coord,
        /// The injected component fault.
        fault: ComponentFault,
    },
    /// A previously injected fault at `node` was repaired.
    Repair {
        /// Event cycle.
        cycle: Cycle,
        /// Recovering router.
        node: Coord,
        /// The fault that was repaired.
        fault: ComponentFault,
    },
}

impl TraceEvent {
    /// The packet this event concerns (`None` for the packet-less
    /// fault/repair markers).
    pub fn packet(&self) -> Option<PacketId> {
        match *self {
            TraceEvent::Generated { packet, .. }
            | TraceEvent::Injected { packet, .. }
            | TraceEvent::Hop { packet, .. }
            | TraceEvent::Delivered { packet, .. }
            | TraceEvent::Dropped { packet, .. }
            | TraceEvent::Unroutable { packet, .. } => Some(packet),
            TraceEvent::Fault { .. } | TraceEvent::Repair { .. } => None,
        }
    }

    /// The event cycle.
    pub fn cycle(&self) -> Cycle {
        match *self {
            TraceEvent::Generated { cycle, .. }
            | TraceEvent::Injected { cycle, .. }
            | TraceEvent::Hop { cycle, .. }
            | TraceEvent::Delivered { cycle, .. }
            | TraceEvent::Dropped { cycle, .. }
            | TraceEvent::Unroutable { cycle, .. }
            | TraceEvent::Fault { cycle, .. }
            | TraceEvent::Repair { cycle, .. } => cycle,
        }
    }

    /// A compact one-line CSV rendering
    /// (`cycle,kind,packet,a,b` with event-specific `a`/`b`).
    pub fn to_csv_line(&self) -> String {
        match *self {
            TraceEvent::Generated { cycle, packet, src, dst } => {
                format!("{cycle},generated,{},{src},{dst}", packet.0)
            }
            TraceEvent::Injected { cycle, packet, node } => {
                format!("{cycle},injected,{},{node},", packet.0)
            }
            TraceEvent::Hop { cycle, packet, seq, node, out } => {
                format!("{cycle},hop,{},{node}:{seq},{out}", packet.0)
            }
            TraceEvent::Delivered { cycle, packet, latency } => {
                format!("{cycle},delivered,{},{latency},", packet.0)
            }
            TraceEvent::Dropped { cycle, packet, node } => {
                format!("{cycle},dropped,{},{node},", packet.0)
            }
            TraceEvent::Unroutable { cycle, packet, src, dst } => {
                format!("{cycle},unroutable,{},{src},{dst}", packet.0)
            }
            TraceEvent::Fault { cycle, node, fault } => {
                format!("{cycle},fault,,{node},{:?}", fault.component)
            }
            TraceEvent::Repair { cycle, node, fault } => {
                format!("{cycle},repair,,{node},{:?}", fault.component)
            }
        }
    }
}

/// Extracts the packet schedule from a recorded event stream, ready to
/// feed [`noc_traffic::ReplayTraffic`].
pub fn replay_entries(events: &[TraceEvent]) -> Vec<noc_traffic::ReplayEntry> {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Generated { cycle, src, dst, .. } => Some((cycle, src, dst)),
            _ => None,
        })
        .collect()
}

/// Receives trace events during a run.
pub trait TraceSink: fmt::Debug {
    /// Called once per event, in simulation order.
    fn record(&mut self, event: TraceEvent);

    /// Called once when the run ends (or the sink is taken back from
    /// the simulation), letting exporters emit trailers and flush.
    fn finish(&mut self) {}
}

/// Collects every event into memory. Clones share one buffer: keep a
/// handle, box a clone into the simulation, and read the events back
/// through the handle.
#[derive(Debug, Default, Clone)]
pub struct VecTraceSink {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl VecTraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, in simulation order.
    pub fn events(&self) -> Ref<'_, [TraceEvent]> {
        Ref::map(self.events.borrow(), Vec::as_slice)
    }
}

impl TraceSink for VecTraceSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.borrow_mut().push(event);
    }
}

/// Streams events as CSV lines into any writer.
#[derive(Debug)]
pub struct CsvTraceSink<W: std::io::Write + fmt::Debug> {
    writer: W,
}

impl<W: std::io::Write + fmt::Debug> CsvTraceSink<W> {
    /// Wraps `writer` and emits the CSV header.
    pub fn new(mut writer: W) -> std::io::Result<Self> {
        writeln!(writer, "cycle,event,packet,where,detail")?;
        Ok(CsvTraceSink { writer })
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write + fmt::Debug> TraceSink for CsvTraceSink<W> {
    fn record(&mut self, event: TraceEvent) {
        let _ = writeln!(self.writer, "{}", event.to_csv_line());
    }
}

impl TraceEvent {
    /// Serializes the event as one JSON object (a single JSONL line,
    /// without the trailing newline).
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        fn node(out: &mut String, first: &mut bool, key: &str, c: Coord) {
            crate::json::write_key(out, first, key);
            let _ = write!(out, "[{},{}]", c.x, c.y);
        }
        let mut out = String::with_capacity(96);
        out.push('{');
        let mut first = true;
        crate::json::write_key(&mut out, &mut first, "cycle");
        let _ = write!(out, "{}", self.cycle());
        crate::json::write_key(&mut out, &mut first, "event");
        let kind = match self {
            TraceEvent::Generated { .. } => "generated",
            TraceEvent::Injected { .. } => "injected",
            TraceEvent::Hop { .. } => "hop",
            TraceEvent::Delivered { .. } => "delivered",
            TraceEvent::Dropped { .. } => "dropped",
            TraceEvent::Unroutable { .. } => "unroutable",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Repair { .. } => "repair",
        };
        crate::json::write_str(&mut out, kind);
        if let Some(packet) = self.packet() {
            crate::json::write_key(&mut out, &mut first, "packet");
            let _ = write!(out, "{}", packet.0);
        }
        match *self {
            TraceEvent::Generated { src, dst, .. } => {
                node(&mut out, &mut first, "src", src);
                node(&mut out, &mut first, "dst", dst);
            }
            TraceEvent::Injected { node: n, .. } => node(&mut out, &mut first, "node", n),
            TraceEvent::Hop { seq, node: n, out: dir, .. } => {
                crate::json::write_key(&mut out, &mut first, "seq");
                let _ = write!(out, "{seq}");
                node(&mut out, &mut first, "node", n);
                crate::json::write_key(&mut out, &mut first, "out");
                crate::json::write_str(&mut out, &dir.to_string());
            }
            TraceEvent::Delivered { latency, .. } => {
                crate::json::write_key(&mut out, &mut first, "latency");
                let _ = write!(out, "{latency}");
            }
            TraceEvent::Dropped { node: n, .. } => node(&mut out, &mut first, "node", n),
            TraceEvent::Unroutable { src, dst, .. } => {
                node(&mut out, &mut first, "src", src);
                node(&mut out, &mut first, "dst", dst);
            }
            TraceEvent::Fault { node: n, fault, .. }
            | TraceEvent::Repair { node: n, fault, .. } => {
                node(&mut out, &mut first, "node", n);
                crate::json::write_key(&mut out, &mut first, "component");
                crate::json::write_str(&mut out, &format!("{:?}", fault.component));
            }
        }
        out.push('}');
        out
    }
}

/// Streams events as JSON Lines — one standalone JSON object per event.
#[derive(Debug)]
pub struct JsonlTraceSink<W: std::io::Write + fmt::Debug> {
    writer: W,
}

impl<W: std::io::Write + fmt::Debug> JsonlTraceSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlTraceSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write + fmt::Debug> TraceSink for JsonlTraceSink<W> {
    fn record(&mut self, event: TraceEvent) {
        let _ = writeln!(self.writer, "{}", event.to_json_line());
    }

    fn finish(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Exports the run in Chrome-trace ("Trace Event") JSON, openable in
/// `ui.perfetto.dev` or `chrome://tracing`.
///
/// Each packet becomes one async track (`cat:"packet"`, `id` = packet
/// id): `Generated` opens it with a `"b"` begin event, `Injected` and
/// every `Hop` land on it as `"n"` instants, and `Delivered`/`Dropped`
/// close it with an `"e"` end event. Timestamps are simulation cycles
/// (interpreted as µs by the viewers — only relative scale matters).
/// Packets still in flight when [`TraceSink::finish`] runs are closed
/// at their last observed cycle so every `"b"` pairs with an `"e"`.
/// Mid-run fault and repair events appear as `"i"` instant markers
/// under `cat:"fault"`, so they line up against the packet tracks.
#[derive(Debug)]
pub struct PerfettoTraceSink<W: std::io::Write + fmt::Debug> {
    writer: W,
    /// Whether any event has been written (comma management).
    wrote_event: bool,
    /// Open async tracks: packet id → last event cycle seen.
    open: std::collections::HashMap<u64, Cycle>,
    /// Guards against double-finishing (take + drop both finish).
    finished: bool,
}

impl<W: std::io::Write + fmt::Debug> PerfettoTraceSink<W> {
    /// Wraps `writer` and emits the JSON preamble.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn new(mut writer: W) -> std::io::Result<Self> {
        write!(writer, "{{\"traceEvents\":[")?;
        Ok(PerfettoTraceSink {
            writer,
            wrote_event: false,
            open: std::collections::HashMap::new(),
            finished: false,
        })
    }

    /// Unwraps the inner writer (after `finish`).
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn emit(
        &mut self,
        phase: &str,
        cat: &str,
        name: &str,
        id: u64,
        ts: Cycle,
        args: &[(&str, String)],
    ) {
        let mut line = String::with_capacity(128);
        if self.wrote_event {
            line.push(',');
        }
        self.wrote_event = true;
        line.push('{');
        let mut first = true;
        crate::json::write_key(&mut line, &mut first, "ph");
        crate::json::write_str(&mut line, phase);
        crate::json::write_key(&mut line, &mut first, "cat");
        crate::json::write_str(&mut line, cat);
        crate::json::write_key(&mut line, &mut first, "name");
        crate::json::write_str(&mut line, name);
        crate::json::write_key(&mut line, &mut first, "id");
        crate::json::write_str(&mut line, &format!("{id:#x}"));
        crate::json::write_key(&mut line, &mut first, "ts");
        {
            use std::fmt::Write as _;
            let _ = write!(line, "{ts}");
        }
        crate::json::write_key(&mut line, &mut first, "pid");
        line.push('0');
        crate::json::write_key(&mut line, &mut first, "tid");
        line.push('0');
        if !args.is_empty() {
            crate::json::write_key(&mut line, &mut first, "args");
            line.push('{');
            let mut af = true;
            for (k, v) in args {
                crate::json::write_key(&mut line, &mut af, k);
                crate::json::write_str(&mut line, v);
            }
            line.push('}');
        }
        line.push('}');
        let _ = write!(self.writer, "{line}");
    }
}

impl<W: std::io::Write + fmt::Debug> TraceSink for PerfettoTraceSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.finished {
            return;
        }
        let cycle = event.cycle();
        let id = event.packet().map_or(0, |p| p.0);
        let track = format!("pkt{id}");
        match event {
            TraceEvent::Generated { src, dst, .. } => {
                self.emit(
                    "b",
                    "packet",
                    &track,
                    id,
                    cycle,
                    &[("src", src.to_string()), ("dst", dst.to_string())],
                );
                self.open.insert(id, cycle);
            }
            TraceEvent::Injected { node, .. } => {
                self.emit("n", "packet", &track, id, cycle, &[("at", format!("inject {node}"))]);
                self.open.entry(id).and_modify(|c| *c = cycle);
            }
            TraceEvent::Hop { seq, node, out, .. } => {
                self.emit(
                    "n",
                    "packet",
                    &track,
                    id,
                    cycle,
                    &[("at", format!("hop {node}->{out} seq {seq}"))],
                );
                self.open.entry(id).and_modify(|c| *c = cycle);
            }
            TraceEvent::Delivered { latency, .. } => {
                self.emit("e", "packet", &track, id, cycle, &[("latency", latency.to_string())]);
                self.open.remove(&id);
            }
            TraceEvent::Dropped { node, .. } => {
                self.emit("e", "packet", &track, id, cycle, &[("dropped_at", node.to_string())]);
                self.open.remove(&id);
            }
            TraceEvent::Unroutable { dst, .. } => {
                self.emit("e", "packet", &track, id, cycle, &[("unroutable_dst", dst.to_string())]);
                self.open.remove(&id);
            }
            TraceEvent::Fault { node, fault, .. } => {
                // Global instant marker on its own category, so fault
                // strikes line up visually against the packet tracks.
                self.emit(
                    "i",
                    "fault",
                    &format!("fault {node}"),
                    0,
                    cycle,
                    &[("component", format!("{:?}", fault.component)), ("node", node.to_string())],
                );
            }
            TraceEvent::Repair { node, fault, .. } => {
                self.emit(
                    "i",
                    "fault",
                    &format!("repair {node}"),
                    0,
                    cycle,
                    &[("component", format!("{:?}", fault.component)), ("node", node.to_string())],
                );
            }
        }
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        // Close tracks of packets still in flight so begins/ends pair.
        let mut in_flight: Vec<(u64, Cycle)> = self.open.drain().collect();
        in_flight.sort_unstable();
        for (id, last_cycle) in in_flight {
            self.emit(
                "e",
                "packet",
                &format!("pkt{id}"),
                id,
                last_cycle,
                &[("note", "in flight at trace end".to_string())],
            );
        }
        let _ = write!(self.writer, "]}}");
        let _ = self.writer.flush();
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_lines_are_stable() {
        let e = TraceEvent::Generated {
            cycle: 5,
            packet: PacketId(7),
            src: Coord::new(0, 0),
            dst: Coord::new(3, 2),
        };
        assert_eq!(e.to_csv_line(), "5,generated,7,(0,0),(3,2)");
        let e = TraceEvent::Hop {
            cycle: 9,
            packet: PacketId(7),
            seq: 2,
            node: Coord::new(1, 0),
            out: Direction::East,
        };
        assert_eq!(e.to_csv_line(), "9,hop,7,(1,0):2,E");
        assert_eq!(e.packet(), Some(PacketId(7)));
        assert_eq!(e.cycle(), 9);
    }

    #[test]
    fn fault_events_render_without_a_packet() {
        let fault = ComponentFault::new(noc_core::FaultComponent::VaArbiter, noc_core::Axis::X);
        let e = TraceEvent::Fault { cycle: 42, node: Coord::new(1, 2), fault };
        assert_eq!(e.packet(), None);
        assert_eq!(e.cycle(), 42);
        assert_eq!(e.to_csv_line(), "42,fault,,(1,2),VaArbiter");
        let v = crate::json::Json::parse(&e.to_json_line()).expect("valid JSON");
        assert_eq!(v.get("event").unwrap().as_str(), Some("fault"));
        assert!(v.get("packet").is_none());
        assert_eq!(v.get("component").unwrap().as_str(), Some("VaArbiter"));
        let e = TraceEvent::Repair { cycle: 50, node: Coord::new(1, 2), fault };
        assert_eq!(e.to_csv_line(), "50,repair,,(1,2),VaArbiter");
    }

    #[test]
    fn unroutable_events_render_in_every_format() {
        let e = TraceEvent::Unroutable {
            cycle: 12,
            packet: PacketId(4),
            src: Coord::new(0, 0),
            dst: Coord::new(3, 3),
        };
        assert_eq!(e.packet(), Some(PacketId(4)));
        assert_eq!(e.cycle(), 12);
        assert_eq!(e.to_csv_line(), "12,unroutable,4,(0,0),(3,3)");
        let v = crate::json::Json::parse(&e.to_json_line()).expect("valid JSON");
        assert_eq!(v.get("event").unwrap().as_str(), Some("unroutable"));
        assert_eq!(v.get("packet").unwrap().as_u64(), Some(4));
        // Perfetto: an unroutable packet's track closes like a drop.
        let mut sink = PerfettoTraceSink::new(Vec::new()).unwrap();
        sink.record(TraceEvent::Generated {
            cycle: 11,
            packet: PacketId(4),
            src: Coord::new(0, 0),
            dst: Coord::new(3, 3),
        });
        sink.record(e);
        sink.finish();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("unroutable_dst"));
        assert!(!text.contains("in flight at trace end"));
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecTraceSink::new();
        for c in 0..3 {
            sink.record(TraceEvent::Delivered { cycle: c, packet: PacketId(c), latency: 10 });
        }
        assert_eq!(sink.events().len(), 3);
        assert!(sink.events().windows(2).all(|w| w[0].cycle() <= w[1].cycle()));
    }

    #[test]
    fn csv_sink_writes_header_and_rows() {
        let mut sink = CsvTraceSink::new(Vec::new()).unwrap();
        sink.record(TraceEvent::Dropped { cycle: 3, packet: PacketId(1), node: Coord::new(2, 2) });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with("cycle,event,packet"));
        assert!(text.contains("3,dropped,1,(2,2),"));
    }

    #[test]
    fn jsonl_lines_parse_and_carry_the_event_fields() {
        let e = TraceEvent::Hop {
            cycle: 9,
            packet: PacketId(7),
            seq: 2,
            node: Coord::new(1, 0),
            out: Direction::East,
        };
        let v = crate::json::Json::parse(&e.to_json_line()).expect("valid JSON");
        assert_eq!(v.get("cycle").unwrap().as_u64(), Some(9));
        assert_eq!(v.get("event").unwrap().as_str(), Some("hop"));
        assert_eq!(v.get("packet").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("out").unwrap().as_str(), Some("E"));
    }

    #[test]
    fn perfetto_sink_pairs_begin_and_end_and_closes_strays() {
        let mut sink = PerfettoTraceSink::new(Vec::new()).unwrap();
        let src = Coord::new(0, 0);
        let dst = Coord::new(2, 0);
        sink.record(TraceEvent::Generated { cycle: 1, packet: PacketId(0), src, dst });
        sink.record(TraceEvent::Injected { cycle: 2, packet: PacketId(0), node: src });
        sink.record(TraceEvent::Delivered { cycle: 9, packet: PacketId(0), latency: 8 });
        // Packet 1 never completes: finish() must close its track.
        sink.record(TraceEvent::Generated { cycle: 3, packet: PacketId(1), src, dst });
        sink.finish();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let v = crate::json::Json::parse(&text).expect("valid Chrome-trace JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let phases = |id: &str, ph: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("id").unwrap().as_str() == Some(id)
                        && e.get("ph").unwrap().as_str() == Some(ph)
                })
                .count()
        };
        assert_eq!(phases("0x0", "b"), 1);
        assert_eq!(phases("0x0", "e"), 1);
        assert_eq!(phases("0x0", "n"), 1);
        assert_eq!(phases("0x1", "b"), 1);
        assert_eq!(phases("0x1", "e"), 1, "stray track closed at finish");
    }
}
