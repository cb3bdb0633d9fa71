//! Structured event tracing — the simulator's "tcpdump".
//!
//! A [`Tracer`] records queue-level events (enqueue, dequeue, CE mark, drop,
//! PFC pause/resume) into a bounded ring, with an optional filter so a
//! large simulation can watch a single hot queue cheaply. Harnesses use it
//! for deep-dive timelines (the paper's Fig. 15) and for debugging new
//! controllers; it deliberately stores compact records rather than packets.
//!
//! Tracing is opt-in: [`crate::sim::Simulator::set_tracer`] installs one;
//! without it the hot path pays a single branch.

use crate::ids::{FlowId, NodeId, PortId, Prio};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Packet admitted to an egress queue.
    Enqueue,
    /// Packet handed to the serializer.
    Dequeue,
    /// Packet got CE-marked on enqueue.
    CeMark,
    /// Packet dropped (tail drop / buffer full).
    Drop,
    /// PFC PAUSE sent upstream from this (node, port).
    PfcPause,
    /// PFC RESUME sent upstream from this (node, port).
    PfcResume,
    /// The link attached to (node, port) was administratively failed.
    LinkDown,
    /// The link attached to (node, port) was restored.
    LinkUp,
    /// The link attached to (node, port) changed serialization rate
    /// (fault injection: degrade or restore).
    LinkDegraded,
    /// The switch rebooted: queues flushed, ECN reset to static defaults.
    SwitchReboot,
    /// Telemetry reads from this node froze, blanked or recovered
    /// (fault injection).
    TelemetryFault,
    /// Packet lost to injected loss or to arriving at a downed link.
    FaultDrop,
    /// The injected loss fraction of (node, port) was set — or cleared, with
    /// a fraction of zero (fault injection). No packet is involved: count
    /// [`TraceKind::FaultDrop`] records to count lost packets.
    LossConfig,
}

/// One trace record.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When.
    pub at: SimTime,
    /// What.
    pub kind: TraceKind,
    /// Switch (or host) where it happened.
    pub node: NodeId,
    /// Port of the queue (egress port for queue events, ingress port for
    /// PFC events).
    pub port: PortId,
    /// Traffic class.
    pub prio: Prio,
    /// Flow involved (zero for PFC events).
    pub flow: FlowId,
    /// Queue depth in bytes right after the event.
    pub qlen_bytes: u64,
}

/// Which events a tracer keeps.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TraceFilter {
    /// Only this node (None = all nodes).
    pub node: Option<NodeId>,
    /// Only this port (None = all ports).
    pub port: Option<PortId>,
    /// Only this class (None = all classes).
    pub prio: Option<Prio>,
    /// Keep Enqueue/Dequeue records (the bulk); marks, drops and PFC are
    /// always kept when the location matches.
    pub data_path: bool,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            node: None,
            port: None,
            prio: None,
            data_path: true,
        }
    }
}

impl TraceFilter {
    /// Watch one specific queue.
    pub fn queue(node: NodeId, port: PortId, prio: Prio) -> Self {
        TraceFilter {
            node: Some(node),
            port: Some(port),
            prio: Some(prio),
            data_path: true,
        }
    }

    fn matches(&self, ev: &TraceEvent) -> bool {
        if let Some(n) = self.node {
            if n != ev.node {
                return false;
            }
        }
        if let Some(p) = self.port {
            if p != ev.port {
                return false;
            }
        }
        if let Some(q) = self.prio {
            if q != ev.prio {
                return false;
            }
        }
        if !self.data_path && matches!(ev.kind, TraceKind::Enqueue | TraceKind::Dequeue) {
            return false;
        }
        true
    }
}

/// Bounded ring of trace records.
#[derive(Debug)]
pub struct Tracer {
    filter: TraceFilter,
    ring: VecDeque<TraceEvent>,
    cap: usize,
    /// Total events that matched (including ones evicted from the ring).
    pub matched: u64,
    /// Events dropped because the ring was full.
    pub evicted: u64,
}

impl Tracer {
    /// A tracer keeping at most `cap` records matching `filter`.
    pub fn new(filter: TraceFilter, cap: usize) -> Self {
        assert!(cap > 0);
        Tracer {
            filter,
            ring: VecDeque::with_capacity(cap.min(4096)),
            cap,
            matched: 0,
            evicted: 0,
        }
    }

    /// Record one event (called by the engine).
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.filter.matches(&ev) {
            return;
        }
        self.matched += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(ev);
    }

    /// The retained records, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Drain the retained records (oldest first), leaving the tracer armed.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.ring.drain(..).collect()
    }

    /// Stream the retained records as JSON lines (one event per line) into
    /// `w`, reusing a single line buffer — the whole trace never has to fit
    /// in one allocation. Bytes are identical to [`Tracer::to_jsonl`].
    pub fn write_jsonl(&self, w: &mut impl io::Write) -> io::Result<()> {
        let mut line = String::new();
        for ev in &self.ring {
            line.clear();
            serde_json::to_string_into(ev, &mut line).expect("trace event serializes");
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Serialize the retained records as JSON lines (one event per line),
    /// a gdb-friendly analogue of a pcap file. Thin wrapper over
    /// [`Tracer::write_jsonl`] collecting into a `String`.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSON is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, node: u32, port: u16, prio: Prio) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_us(1),
            kind,
            node: NodeId(node),
            port: PortId(port),
            prio,
            flow: FlowId(7),
            qlen_bytes: 123,
        }
    }

    #[test]
    fn filter_by_queue() {
        let mut t = Tracer::new(TraceFilter::queue(NodeId(1), PortId(2), 1), 16);
        t.record(ev(TraceKind::Enqueue, 1, 2, 1)); // match
        t.record(ev(TraceKind::Enqueue, 1, 3, 1)); // wrong port
        t.record(ev(TraceKind::Enqueue, 2, 2, 1)); // wrong node
        t.record(ev(TraceKind::Enqueue, 1, 2, 0)); // wrong prio
        assert_eq!(t.len(), 1);
        assert_eq!(t.matched, 1);
    }

    #[test]
    fn exceptional_filter_drops_data_path() {
        let exceptional = TraceFilter {
            data_path: false,
            ..TraceFilter::default()
        };
        let mut t = Tracer::new(exceptional, 16);
        t.record(ev(TraceKind::Enqueue, 0, 0, 0));
        t.record(ev(TraceKind::Dequeue, 0, 0, 0));
        t.record(ev(TraceKind::CeMark, 0, 0, 0));
        t.record(ev(TraceKind::Drop, 0, 0, 0));
        t.record(ev(TraceKind::PfcPause, 0, 0, 0));
        assert_eq!(t.len(), 3);
        assert!(t
            .events()
            .all(|e| !matches!(e.kind, TraceKind::Enqueue | TraceKind::Dequeue)));
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Tracer::new(TraceFilter::default(), 3);
        for i in 0..5u32 {
            t.record(ev(TraceKind::Enqueue, i, 0, 0));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.evicted, 2);
        let nodes: Vec<u32> = t.events().map(|e| e.node.0).collect();
        assert_eq!(nodes, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut t = Tracer::new(TraceFilter::default(), 4);
        t.record(ev(TraceKind::CeMark, 1, 2, 1));
        let text = t.to_jsonl();
        let back: TraceEvent = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(back.kind, TraceKind::CeMark);
        assert_eq!(back.node, NodeId(1));
    }

    #[test]
    fn write_jsonl_matches_to_jsonl_bytes() {
        let mut t = Tracer::new(TraceFilter::default(), 16);
        for i in 0..8u32 {
            t.record(ev(TraceKind::Enqueue, i, 1, 0));
            t.record(ev(TraceKind::CeMark, i, 2, 1));
        }
        let owned = t.to_jsonl();
        let mut streamed = Vec::new();
        t.write_jsonl(&mut streamed).unwrap();
        assert_eq!(owned.as_bytes(), streamed.as_slice());
        assert_eq!(owned.lines().count(), 16);
    }

    #[test]
    fn take_drains_but_keeps_armed() {
        let mut t = Tracer::new(TraceFilter::default(), 4);
        t.record(ev(TraceKind::Drop, 0, 0, 0));
        let drained = t.take();
        assert_eq!(drained.len(), 1);
        assert!(t.is_empty());
        t.record(ev(TraceKind::Drop, 0, 0, 0));
        assert_eq!(t.len(), 1);
    }
}
