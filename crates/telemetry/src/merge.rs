//! Deterministic merge of per-shard telemetry buffers.
//!
//! A sharded run records each shard's telemetry into its own
//! [`VecSink`]; replaying those buffers through this
//! merge produces one stream whose bytes are independent of the shard
//! count. The merge relies on two properties the engine guarantees:
//!
//! * **Ownership** — every record names a `node`, and each node is sampled
//!   (queues), controlled (agents) and fault-logged (events) only by the
//!   shard that owns it, so no record is duplicated across shards.
//! * **Per-shard order** — within one shard, records of one node appear in
//!   simulated-time execution order, which is itself deterministic.
//!
//! Queue samples get a total order (`t_ps`, `node`, `port`, `prio`) — at
//! most one sample per queue per tick exists. Agent and event records are
//! *stably* sorted by (`t_ps`, `node`): all records of a node come from a
//! single shard, so the stable sort preserves that shard's execution order
//! for same-timestamp records while interleaving nodes canonically.

use crate::samples::{AgentSample, EventSample, QueueSample};
use crate::sink::{TelemetrySink, VecSink};

/// Record counts produced by a merge, in the order
/// (queue samples, agent samples, event samples).
pub type MergeCounts = (u64, u64, u64);

/// Merge per-shard telemetry buffers into `out`, in the canonical order
/// described in the module docs, and return how many records of each kind
/// were replayed. The result is byte-identical for any partition of the
/// same run into shards (1, 2, 4, ... — any grouping that preserves node
/// ownership).
pub fn merge_shards(shards: Vec<VecSink>, out: &mut dyn TelemetrySink) -> MergeCounts {
    let mut queues: Vec<QueueSample> = Vec::new();
    let mut agents: Vec<AgentSample> = Vec::new();
    let mut events: Vec<EventSample> = Vec::new();
    for s in shards {
        queues.extend(s.queues);
        agents.extend(s.agents);
        events.extend(s.events);
    }
    // Total order: one sample per (queue, tick).
    queues.sort_by_key(|q| (q.t_ps, q.node, q.port, q.prio));
    // Stable: preserves the owning shard's order within (t_ps, node).
    agents.sort_by_key(|a| (a.t_ps, a.node));
    events.sort_by_key(|e| (e.t_ps, e.node));
    let counts = (
        queues.len() as u64,
        agents.len() as u64,
        events.len() as u64,
    );
    for q in &queues {
        out.on_queue(q);
    }
    for a in &agents {
        out.on_agent(a);
    }
    for e in &events {
        out.on_event(e);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(t_ps: u64, node: u32, port: u16, prio: u8) -> QueueSample {
        QueueSample {
            t_ps,
            node,
            port,
            prio,
            ..Default::default()
        }
    }

    fn ev(t_ps: u64, node: u32, kind: &str) -> EventSample {
        EventSample {
            t_ps,
            node,
            kind: kind.to_string(),
            ..Default::default()
        }
    }

    #[test]
    fn merge_is_independent_of_the_partition() {
        // The same four records, partitioned two different ways (node 0+1
        // vs node 0 / node 1), merge to identical output.
        let all = vec![
            q(100, 0, 0, 0),
            q(100, 1, 0, 0),
            q(200, 0, 1, 3),
            q(200, 1, 0, 0),
        ];
        let mut one = VecSink::new();
        for r in &all {
            one.on_queue(r);
        }
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        for r in &all {
            if r.node == 0 {
                a.on_queue(r);
            } else {
                b.on_queue(r);
            }
        }
        let mut out1 = VecSink::new();
        let mut out2 = VecSink::new();
        let c1 = merge_shards(vec![one], &mut out1);
        let c2 = merge_shards(vec![a, b], &mut out2);
        assert_eq!(c1, c2);
        assert_eq!(out1.queues, out2.queues);
    }

    #[test]
    fn same_time_events_of_one_node_keep_shard_order() {
        // Two events of node 3 at the same tick must keep their recorded
        // order (execution order) after merging with another shard's
        // records at the same tick.
        let mut s0 = VecSink::new();
        s0.on_event(&ev(500, 3, "link_down"));
        s0.on_event(&ev(500, 3, "link_up"));
        let mut s1 = VecSink::new();
        s1.on_event(&ev(500, 1, "guard_trip"));
        let mut out = VecSink::new();
        merge_shards(vec![s0, s1], &mut out);
        let kinds: Vec<&str> = out.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["guard_trip", "link_down", "link_up"]);
    }
}
