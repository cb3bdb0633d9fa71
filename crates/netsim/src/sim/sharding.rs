//! Shard plumbing: what makes every [`SimCore`] one shard of a partition
//! (see [`crate::shard`] for the protocol; [`Simulator::new`] builds the
//! one-shard partition). The canonical event keys and the diversion of
//! foreign events into outboxes (all of [`SimCore::schedule`]), the inbound
//! side, node ownership, and the per-node RNG streams that make a node's
//! draws independent of its thread placement.

use super::{ShardCtx, SimCore, Simulator};
use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::ids::NodeId;
use crate::shard::{
    control_tick_key, fault_event_key, mix64, node_event_key, remote_buf_capacity,
    telemetry_sample_key, RemoteEvent, ShardPlan, RANK_ARRIVE, RANK_PFC, RANK_TIMER, RANK_TXDONE,
};
use crate::time::SimTime;
use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `node`'s own RNG stream derived from `seed`.
pub(super) fn node_stream(seed: u64, node: usize) -> SmallRng {
    SmallRng::seed_from_u64(mix64(seed) ^ mix64(node as u64))
}

impl ShardCtx {
    fn new(plan: &ShardPlan, me: u32, seed: u64) -> Self {
        let n_nodes = plan.owner_of.len();
        ShardCtx {
            my_shard: me,
            n_shards: plan.n_shards,
            owner_of: plan.owner_of.clone(),
            // An event for an owned node is pushed locally, so this shard's
            // own slot is never written and reserves nothing.
            outboxes: (0..plan.n_shards)
                .map(|s| {
                    let cap = if s == me {
                        0
                    } else {
                        remote_buf_capacity(n_nodes)
                    };
                    Vec::with_capacity(cap)
                })
                .collect(),
            timer_seq: vec![0; n_nodes],
            node_rngs: (0..n_nodes).map(|i| node_stream(seed, i)).collect(),
            node_fault_rngs: (0..n_nodes)
                .map(|i| super::faults::node_fault_stream(seed, i))
                .collect(),
            next_fault_key: 0,
            sent: 0,
            received: 0,
        }
    }

    #[inline]
    pub(super) fn owns(&self, node: NodeId) -> bool {
        self.owner_of[node.idx()] == self.my_shard
    }

    /// [`SimCore::schedule`]: every event gets a canonical content-derived
    /// key so simultaneous events pop in a partition-invariant order, and
    /// events addressed to foreign nodes divert to the owner's mailbox. Only
    /// `Arrive` and `PfcUpdate` can target foreign nodes — `TxDone` is
    /// scheduled by the owner of the transmitting port and `HostTimer` by
    /// the owner of the host.
    #[inline]
    pub(super) fn schedule(&mut self, events: &mut EventQueue, at: SimTime, ev: Event) {
        let (key, target) = match &ev {
            Event::Arrive { node, port, .. } => (
                node_event_key(*node, RANK_ARRIVE, port.0 as u64),
                Some(*node),
            ),
            Event::PfcUpdate {
                node,
                port,
                prio,
                pause,
            } => (
                node_event_key(
                    *node,
                    RANK_PFC,
                    ((port.0 as u64) << 9) | ((*prio as u64) << 1) | *pause as u64,
                ),
                Some(*node),
            ),
            Event::TxDone { node, port } => {
                debug_assert!(self.owns(*node), "TxDone scheduled for a foreign node");
                (node_event_key(*node, RANK_TXDONE, port.0 as u64), None)
            }
            Event::HostTimer { host, .. } => {
                debug_assert!(self.owns(*host), "HostTimer scheduled for a foreign host");
                let seq = self.timer_seq[host.idx()];
                self.timer_seq[host.idx()] = seq.wrapping_add(1);
                (node_event_key(*host, RANK_TIMER, seq), None)
            }
            Event::ControlTick => (control_tick_key(), None),
            Event::TelemetrySample => (telemetry_sample_key(), None),
            Event::Fault(_) => {
                let k = fault_event_key(self.next_fault_key);
                self.next_fault_key += 1;
                (k, None)
            }
        };
        if let Some(node) = target {
            let owner = self.owner_of[node.idx()];
            if owner != self.my_shard {
                self.sent += 1;
                self.outboxes[owner as usize].push(RemoteEvent { at, key, event: ev });
                return;
            }
        }
        events.push_keyed(at, key, ev);
    }
}

impl SimCore {
    /// Insert a cross-shard event received from a peer shard (the conservative
    /// bound in [`crate::shard::run_sharded_phased`] guarantees it is not in
    /// this shard's past).
    pub fn inject_remote(&mut self, ev: RemoteEvent) {
        debug_assert!(
            ev.at >= self.now,
            "remote event arrived in this shard's past"
        );
        self.shard.received += 1;
        self.events.push_keyed(ev.at, ev.key, ev.event);
    }

    /// Move every staged outbound event for `shard` into `out` (appends;
    /// both vectors keep their capacity, so a steady-state exchange does not
    /// allocate).
    pub fn drain_outbox_into(&mut self, shard: u32, out: &mut Vec<RemoteEvent>) {
        out.append(&mut self.shard.outboxes[shard as usize]);
    }

    /// Cross-shard (sent, received) event counts of this shard; (0, 0) on a
    /// one-shard core.
    pub fn shard_comm_counters(&self) -> (u64, u64) {
        (self.shard.sent, self.shard.received)
    }

    /// Whether this core owns `node` (every node, on a one-shard core).
    /// Telemetry samplers and harness readbacks use this to emit each node's
    /// data from exactly one shard.
    #[inline]
    pub fn owns_node(&self, node: NodeId) -> bool {
        self.shard.owns(node)
    }

    /// The RNG a node's driver and its ECN marking draw from: the node's own
    /// stream, so its draws do not depend on which nodes share its core.
    #[inline]
    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut SmallRng {
        &mut self.shard.node_rngs[node.idx()]
    }

    /// The RNG a node's probabilistic packet loss draws from; per node like
    /// [`Self::node_rng`].
    #[inline]
    pub(super) fn node_fault_rng(&mut self, node: NodeId) -> &mut SmallRng {
        &mut self.shard.node_fault_rngs[node.idx()]
    }
}

impl Simulator {
    /// Build one shard's simulator for a sharded run (see [`crate::shard`]):
    /// the full topology with this shard's nodes live and foreign nodes as
    /// stand-ins that never queue a packet (the packet slab is sized from
    /// the switches this shard owns), canonical event keys, per-node RNG
    /// streams, and cross-shard mailboxes for `plan.n_shards` peers.
    pub fn new_sharded(topo: Topology, cfg: SimConfig, plan: &ShardPlan, shard: u32) -> Self {
        assert!(shard < plan.n_shards, "shard index out of range");
        assert_eq!(
            plan.owner_of.len(),
            topo.nodes.len(),
            "shard plan was built for a different topology"
        );
        let ctx = Box::new(ShardCtx::new(plan, shard, cfg.seed));
        Self::from_core(SimCore::new(topo, cfg, ctx))
    }

    /// Panic unless this simulator was built for exactly (`n_shards`,
    /// `shard`) — the sharded runner's guard against a builder closure
    /// wiring up the wrong shard.
    pub(crate) fn assert_shard(&self, n_shards: u32, shard: u32) {
        let sc = &self.core.shard;
        assert_eq!(sc.n_shards, n_shards, "simulator built for another plan");
        assert_eq!(sc.my_shard, shard, "simulator built for another shard");
    }
}
