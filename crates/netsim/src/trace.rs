//! Structured event tracing — the simulator's "tcpdump".
//!
//! A [`Tracer`] records queue-level events (enqueue, dequeue, CE mark, drop,
//! PFC pause/resume) into a bounded ring, with an optional filter so a
//! large simulation can watch a single hot queue cheaply. Harnesses use it
//! for deep-dive timelines (the paper's Fig. 15) and for debugging new
//! controllers; it deliberately stores compact records rather than packets.
//!
//! Tracing is opt-in: [`crate::sim::Simulator::set_tracer`] installs one;
//! without it the hot path pays a single branch. The engine reports to it
//! through its one probe point, like every observer.

use crate::fault::{FaultDetail, FaultKind};
use crate::ids::{FlowId, NodeId, PortId, Prio};
use crate::sim::{Happening, Probe};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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

impl TraceKind {
    /// The record kind an executed fault leaves.
    fn of_fault(kind: &FaultKind) -> Self {
        match kind {
            FaultKind::LinkDown { .. } => TraceKind::LinkDown,
            FaultKind::LinkUp { .. } => TraceKind::LinkUp,
            FaultKind::DegradeLink { .. } | FaultKind::RestoreLinkRate { .. } => {
                TraceKind::LinkDegraded
            }
            FaultKind::PacketLoss { .. } => TraceKind::LossConfig,
            FaultKind::SwitchReboot { .. } => TraceKind::SwitchReboot,
            FaultKind::TelemetryFreeze { .. }
            | FaultKind::TelemetryBlank { .. }
            | FaultKind::TelemetryRestore { .. } => TraceKind::TelemetryFault,
        }
    }
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

    /// Keep a record per probe (none for a pause ending), and a second one
    /// for the far end a link fault names, so per-node filters see either
    /// end change. A reboot's record carries its flush count as the depth.
    #[inline]
    pub(crate) fn observe(&mut self, at: SimTime, p: &Probe) {
        let (kind, qlen_bytes) = match p.what {
            Happening::Enqueue => (TraceKind::Enqueue, p.qlen_bytes),
            Happening::Dequeue => (TraceKind::Dequeue, p.qlen_bytes),
            Happening::CeMark => (TraceKind::CeMark, p.qlen_bytes),
            Happening::Drop => (TraceKind::Drop, p.qlen_bytes),
            Happening::FaultDrop => (TraceKind::FaultDrop, p.qlen_bytes),
            Happening::Pfc { pause: true } => (TraceKind::PfcPause, p.qlen_bytes),
            Happening::Pfc { pause: false } => (TraceKind::PfcResume, p.qlen_bytes),
            Happening::PauseEnd { .. } => return,
            Happening::Fault(kind, FaultDetail::Flushed(n)) => (TraceKind::of_fault(&kind), n),
            Happening::Fault(kind, _) => (TraceKind::of_fault(&kind), 0),
        };
        let ev = TraceEvent {
            at,
            kind,
            node: p.node,
            port: p.port,
            prio: p.prio,
            flow: p.flow,
            qlen_bytes,
        };
        self.record(ev);
        if let Happening::Fault(_, FaultDetail::Peer { node, port }) = p.what {
            self.record(TraceEvent { node, port, ..ev });
        }
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

    /// Serialize the retained records as JSON lines (one event per line),
    /// a gdb-friendly analogue of a pcap file.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.ring {
            serde_json::to_string_into(ev, &mut out).expect("trace event serializes");
            out.push('\n');
        }
        out
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
