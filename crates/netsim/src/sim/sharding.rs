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
    /// the full topology, but ports, shared buffers and drivers for
    /// the nodes this shard owns only — of a foreign node it keeps just the
    /// up/down state of its links, which the route rebuild reads. The packet
    /// slab is sized from the owned switches and the event queue from the
    /// owned nodes; events carry canonical keys, draws come from per-node
    /// RNG streams, and outboxes stage events for the `plan.n_shards - 1`
    /// peers.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PortId;
    use crate::topology::TopologySpec;

    /// A shard holds the header and class rows of every port of the nodes
    /// it owns and no other, so the shards of any partition together hold
    /// the fabric's ports exactly once.
    #[test]
    fn shards_hold_exactly_the_ports_they_own() {
        let topo = TopologySpec::paper_xl_clos().build();
        let total: usize = topo.nodes.iter().map(|n| n.ports.len()).sum();
        assert_eq!(total, 3072);
        for n_shards in [1, 2, 4] {
            let plan = ShardPlan::build(&topo, n_shards);
            let mut held = 0;
            for s in 0..n_shards {
                let sim = Simulator::new_sharded(topo.clone(), SimConfig::default(), &plan, s);
                let core = sim.core();
                let mut owned_ports = 0;
                for (i, n) in topo.nodes.iter().enumerate() {
                    let node = NodeId(i as u32);
                    if !core.owns_node(node) {
                        assert!(core.ports_of(node).is_empty(), "{node:?} in shard {s}");
                        continue;
                    }
                    for p in 0..n.ports.len() {
                        let i = core.port_index(node, PortId(p as u16));
                        assert_eq!(core.ports[i].peer_node, n.ports[p].peer_node);
                    }
                    owned_ports += n.ports.len();
                }
                assert_eq!(core.ports_held(), owned_ports, "shard {s} of {n_shards}");
                assert_eq!(core.classes.rows.len(), owned_ports * 3, "shard {s} rows");
                held += core.ports_held();
            }
            assert_eq!(held, total, "{n_shards} shards");
        }
    }

    /// Reaching a foreign node's port is a bug in the caller, and the
    /// panic says whose node it is.
    #[test]
    #[should_panic(expected = "shard 0 holds no ports of NodeId(")]
    fn a_foreign_port_is_refused_by_name() {
        let topo = TopologySpec::paper_testbed().build();
        let plan = ShardPlan::build(&topo, 2);
        let foreign = *topo
            .switches()
            .iter()
            .find(|&&sw| plan.owner(sw) == 1)
            .unwrap();
        let sim = Simulator::new_sharded(topo, SimConfig::default(), &plan, 0);
        sim.core().queue_telem(foreign, PortId(0), 0);
    }
}
