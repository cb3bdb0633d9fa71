//! The simulation engine: node state, the packet forwarding path (with
//! ECN marking, shared-buffer accounting and PFC), and the event loop.

use crate::buffer::SharedBuffer;
use crate::config::SimConfig;
use crate::control::{ControllerHost, QueueController, SwitchView, ViewBackend};
use crate::driver::{HostCtx, NicDriver};
use crate::event::{Event, EventQueue};
use crate::fault::{FaultDetail, FaultKind, FaultLogEntry, FaultPlan, FaultPlanError, TelemFault};
use crate::ids::{NodeId, PortId, Prio};
use crate::packet::Packet;
use crate::profile::{event_kind, SimProfiler};
use crate::queues::{Dwrr, EgressQueue, PortTelemetry, QItem, QueueArena, QueueTelemetry};
use crate::routing::RouteTable;
use crate::shard::{
    control_tick_key, fault_event_key, mix64, node_event_key, telemetry_sample_key, RemoteEvent,
    ShardPlan, RANK_ARRIVE, RANK_PFC, RANK_TIMER, RANK_TXDONE,
};
use crate::time::{tx_time, SimTime};
use crate::topology::Topology;
use crate::trace::{TraceEvent, TraceKind, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// On-wire size of a PFC pause frame (only used for its serialization delay).
const PFC_FRAME_BYTES: u64 = 64;

/// Salt XORed into the fault-plan seed so the fault RNG stream never aliases
/// the engine RNG even when both are seeded with the same number.
const FAULT_SEED_SALT: u64 = 0xFA17_0B5E_55ED_0001;

/// Defensive cap on buffered fault-log entries between drains.
const FAULT_LOG_CAP: usize = 1 << 16;

/// The packet currently being serialized by a port's transmitter.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    size: u32,
    /// Ingress port the bytes were charged to (switches only).
    ingress: Option<PortId>,
    prio: Prio,
}

/// Mutable state of one port.
pub(crate) struct PortState {
    /// Transmitter busy serializing.
    tx_busy: bool,
    /// Bitmask of classes paused by PFC frames we *received*.
    paused: u8,
    /// Bitmask of classes for which we have *sent* PAUSE upstream (ingress
    /// side of this port) and not yet resumed.
    pfc_sent: u8,
    /// Ingress byte counters per class: bytes buffered in this switch that
    /// arrived through this port.
    ingress_bytes: Vec<u64>,
    /// Egress FIFOs, one per class.
    queues: Vec<EgressQueue>,
    /// Cache-line-aligned SoA telemetry counters for every class of this
    /// port (see [`PortTelemetry`]): one block per port means shard threads
    /// never write counters on a cache line another shard reads.
    telem: PortTelemetry,
    /// Slab backing every class's FIFO on this port (intrusive links; see
    /// [`QueueArena`]) — enqueue/dequeue never allocates at steady state.
    arena: QueueArena,
    /// Egress scheduler.
    dwrr: Dwrr,
    in_flight: Option<InFlight>,
    /// PAUSE events sent from the ingress side of this port.
    pfc_pause_events: u64,
    /// Cumulative time each class of this port's transmitter has spent
    /// paused by received PFC frames, in picoseconds.
    pause_ps: Vec<u64>,
    /// When the currently active pause of each class began (None = not
    /// paused); lets `pause_ps` include the in-progress pause on read.
    pause_since: Vec<Option<SimTime>>,
    /// Administrative/physical link state (fault injection).
    link_up: bool,
    /// Degraded serialization rate in bits/s (fault injection); `None`
    /// means the topology-configured rate applies.
    rate_override: Option<u64>,
    /// Fraction of arrivals on this port black-holed (fault injection).
    loss_frac: f64,
}

impl PortState {
    fn new(cfg: &SimConfig, arena_slots: usize) -> Self {
        let pc = &cfg.port;
        let queues = (0..pc.num_prios)
            .map(|p| EgressQueue::new(p, pc.max_queue_bytes[p], pc.ecn[p]))
            .collect();
        PortState {
            tx_busy: false,
            paused: 0,
            pfc_sent: 0,
            ingress_bytes: vec![0; pc.num_prios],
            queues,
            telem: PortTelemetry::new(),
            arena: QueueArena::with_capacity(arena_slots),
            dwrr: Dwrr::new(pc.weights.clone()),
            in_flight: None,
            pfc_pause_events: 0,
            pause_ps: vec![0; pc.num_prios],
            pause_since: vec![None; pc.num_prios],
            link_up: true,
            rate_override: None,
            loss_frac: 0.0,
        }
    }
}

/// Mutable state of one node.
pub(crate) struct NodeState {
    ports: Vec<PortState>,
    /// Shared packet buffer — switches only.
    buffer: Option<SharedBuffer>,
    /// Active telemetry-read distortion (fault injection).
    telem_fault: Option<TelemFault>,
}

/// Sharded-mode state attached to a [`SimCore`] (see [`crate::shard`]):
/// ownership map, staged cross-shard events, and the per-node RNG streams
/// that make a node's random draws independent of its thread placement.
pub(crate) struct ShardCtx {
    my_shard: u32,
    n_shards: u32,
    owner_of: Vec<u32>,
    /// Outbound cross-shard events staged per destination shard; drained by
    /// the run loop after each processing slice ([`SimCore::drain_outbox_into`]).
    outboxes: Vec<Vec<RemoteEvent>>,
    /// Per-host sequence numbers disambiguating simultaneous host timers in
    /// the canonical event key (two timers may share (host, token, time)).
    timer_seq: Vec<u64>,
    /// Per-node engine RNG streams (ECN marking draws, driver randomness).
    node_rngs: Vec<SmallRng>,
    /// Per-node fault RNG streams (probabilistic packet-loss draws).
    node_fault_rngs: Vec<SmallRng>,
    /// Monotone index over scheduled faults — identical in every shard
    /// because fault plans install in the same order everywhere.
    next_fault_key: u64,
    sent: u64,
    received: u64,
}

impl ShardCtx {
    #[inline]
    fn owns(&self, node: NodeId) -> bool {
        self.owner_of[node.idx()] == self.my_shard
    }
}

/// Everything the engine owns except the pluggable drivers/controllers.
///
/// Split out so that [`HostCtx`] / [`SwitchView`] can borrow the core while a
/// driver or controller (stored separately in [`Simulator`]) runs.
pub struct SimCore {
    /// Global configuration.
    pub cfg: SimConfig,
    pub(crate) now: SimTime,
    pub(crate) events: EventQueue,
    /// The immutable network.
    pub topo: Topology,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) routes: RouteTable,
    pub(crate) rng: SmallRng,
    /// Total packets dropped anywhere in the fabric.
    pub total_drops: u64,
    /// Drops on PFC-protected classes — should stay 0; nonzero means the
    /// buffer/PFC configuration cannot guarantee losslessness.
    pub lossless_drops: u64,
    /// Packets dropped because no route existed (after link failures).
    pub unroutable_drops: u64,
    /// Packets lost to fault injection: arrivals at a downed link, injected
    /// packet loss, and queue flushes from switch reboots (also counted in
    /// `total_drops`).
    pub fault_drops: u64,
    /// Total PFC PAUSE events sent by all switches.
    pub total_pfc_pauses: u64,
    /// Total events processed (for performance reporting).
    pub events_processed: u64,
    /// Optional structured event tracer (see [`crate::trace`]).
    pub tracer: Option<Tracer>,
    /// Dedicated RNG for probabilistic faults; reseeded from
    /// [`FaultPlan::seed`] when a plan is installed so the packet-path RNG
    /// stream is untouched by fault injection.
    pub(crate) fault_rng: SmallRng,
    /// Executed faults awaiting collection by [`SimCore::drain_fault_log`].
    fault_log: Vec<FaultLogEntry>,
    /// Entries discarded because the log hit [`FAULT_LOG_CAP`] between
    /// drains. Surfaced in run manifests so a soak run that outpaces its
    /// sampler is visible rather than silently lossy.
    pub fault_log_dropped: u64,
    /// Cumulative count of faults executed, independent of the (drainable,
    /// capped) fault log — the number a long soak reports at the end.
    pub faults_executed: u64,
    /// Self-profiler (see [`crate::profile`]). `None` (the default) costs
    /// one pointer check per dispatch; enabled it observes wall-clock time
    /// and counters only, never the simulated trajectory.
    pub(crate) prof: Option<Box<SimProfiler>>,
    /// Reused scratch for reboot queue flushes (grows to the deepest flush
    /// ever seen, then reboots stop allocating).
    flush_scratch: Vec<QItem>,
    /// Reused scratch for the PFC resumes a reboot sends upstream.
    resume_scratch: Vec<(PortId, Prio)>,
    /// Recycled telemetry-freeze snapshot storage: when a freeze ends, its
    /// buffer parks here so the next freeze reuses the capacity.
    telem_snap_pool: Vec<(u64, QueueTelemetry)>,
    /// Sharded-mode context; `None` on the classic single-threaded path,
    /// which keeps its original shared-RNG, sequence-numbered behaviour
    /// (existing seeded baselines stay byte-stable).
    pub(crate) shard: Option<Box<ShardCtx>>,
}

impl SimCore {
    fn new(topo: Topology, cfg: SimConfig) -> Self {
        Self::new_inner(topo, cfg, None)
    }

    fn new_inner(topo: Topology, cfg: SimConfig, shard_init: Option<(&ShardPlan, u32)>) -> Self {
        cfg.validate();
        assert!(
            cfg.port.num_prios <= 8,
            "at most 8 traffic classes (PFC bitmask)"
        );
        let shard = shard_init.map(|(plan, me)| {
            let n_nodes = topo.nodes.len();
            Box::new(ShardCtx {
                my_shard: me,
                n_shards: plan.n_shards,
                owner_of: plan.owner_of.clone(),
                outboxes: (0..plan.n_shards)
                    .map(|_| Vec::with_capacity(crate::shard::remote_buf_capacity(n_nodes)))
                    .collect(),
                timer_seq: vec![0; n_nodes],
                node_rngs: (0..n_nodes)
                    .map(|i| SmallRng::seed_from_u64(mix64(cfg.seed) ^ mix64(i as u64)))
                    .collect(),
                node_fault_rngs: (0..n_nodes)
                    .map(|i| {
                        SmallRng::seed_from_u64(mix64(cfg.seed ^ FAULT_SEED_SALT) ^ mix64(i as u64))
                    })
                    .collect(),
                next_fault_key: 0,
                sent: 0,
                received: 0,
            })
        });
        let nodes = topo
            .nodes
            .iter()
            .enumerate()
            .map(|(ni, n)| {
                // Foreign nodes never enqueue packets in this shard (their
                // events route to their owner), so their packet arenas get
                // zero capacity — at 1024 hosts the replicated topology
                // would otherwise cost hundreds of MB per shard.
                let arena_slots = match shard.as_ref() {
                    Some(sc) if !sc.owns(NodeId(ni as u32)) => 0,
                    _ => cfg.port.arena_slots,
                };
                let ports = n
                    .ports
                    .iter()
                    .map(|_| PortState::new(&cfg, arena_slots))
                    .collect();
                let buffer = match n.kind {
                    crate::topology::NodeKind::Switch => Some(SharedBuffer::new(
                        cfg.buffer_bytes,
                        cfg.pfc_alpha,
                        cfg.pfc_xon_frac,
                    )),
                    crate::topology::NodeKind::Host => None,
                };
                NodeState {
                    ports,
                    buffer,
                    telem_fault: None,
                }
            })
            .collect();
        let routes = RouteTable::build(&topo);
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let fault_rng = SmallRng::seed_from_u64(cfg.seed ^ FAULT_SEED_SALT);
        // Fault-path scratch buffers are sized from the topology up front so
        // the *first* reboot or telemetry freeze after warmup doesn't grow
        // them (growth on first use would show up as a steady-state alloc).
        let max_ports = topo.nodes.iter().map(|n| n.ports.len()).max().unwrap_or(0);
        let snap_cap = max_ports * cfg.port.num_prios;
        let flush_cap = cfg.port.arena_slots;
        SimCore {
            cfg,
            now: SimTime::ZERO,
            // Like the scratch buffers above, the event queue is pre-sized
            // from the topology: per-bucket burst size scales with ports.
            events: EventQueue::sized_for(topo.nodes.len()),
            topo,
            nodes,
            routes,
            rng,
            total_drops: 0,
            lossless_drops: 0,
            unroutable_drops: 0,
            fault_drops: 0,
            total_pfc_pauses: 0,
            events_processed: 0,
            tracer: None,
            fault_rng,
            fault_log: Vec::new(),
            fault_log_dropped: 0,
            faults_executed: 0,
            prof: None,
            flush_scratch: Vec::with_capacity(flush_cap),
            resume_scratch: Vec::with_capacity(snap_cap),
            telem_snap_pool: Vec::with_capacity(snap_cap),
            shard,
        }
    }

    #[inline]
    fn trace(
        &mut self,
        kind: TraceKind,
        node: NodeId,
        port: PortId,
        prio: Prio,
        flow: crate::ids::FlowId,
        qlen: u64,
    ) {
        // Sharded runs replicate fault events into every shard; only the
        // owner of the node involved records the trace, so the merged
        // per-shard streams are disjoint and partition-invariant.
        if self.tracer.is_none() || !self.owns_node(node) {
            return;
        }
        let at = self.now;
        if let Some(t) = self.tracer.as_mut() {
            t.record(TraceEvent {
                at,
                kind,
                node,
                port,
                prio,
                flow,
                qlen_bytes: qlen,
            });
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn schedule(&mut self, at: SimTime, ev: Event) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let Some(sc) = self.shard.as_mut() else {
            self.events.push(at, ev);
            return;
        };
        // Sharded mode: every event gets a canonical content-derived key so
        // simultaneous events pop in a partition-invariant order, and events
        // addressed to foreign nodes divert to the owner's mailbox. Only
        // `Arrive` and `PfcUpdate` can target foreign nodes — `TxDone` is
        // scheduled by the owner of the transmitting port and `HostTimer`
        // by the owner of the host.
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
                debug_assert!(sc.owns(*node), "TxDone scheduled for a foreign node");
                (node_event_key(*node, RANK_TXDONE, port.0 as u64), None)
            }
            Event::HostTimer { host, .. } => {
                debug_assert!(sc.owns(*host), "HostTimer scheduled for a foreign host");
                let seq = sc.timer_seq[host.idx()];
                sc.timer_seq[host.idx()] = seq.wrapping_add(1);
                (node_event_key(*host, RANK_TIMER, seq), None)
            }
            Event::ControlTick => (control_tick_key(), None),
            Event::TelemetrySample => (telemetry_sample_key(), None),
            Event::Fault(_) => {
                let k = fault_event_key(sc.next_fault_key);
                sc.next_fault_key += 1;
                (k, None)
            }
        };
        if let Some(node) = target {
            let owner = sc.owner_of[node.idx()];
            if owner != sc.my_shard {
                sc.sent += 1;
                sc.outboxes[owner as usize].push(RemoteEvent { at, key, event: ev });
                return;
            }
        }
        self.events.push_keyed(at, key, ev);
    }

    /// Insert a cross-shard event received from a peer shard (the conservative
    /// bound in [`crate::shard::run_sharded`] guarantees it is not in this
    /// shard's past).
    pub fn inject_remote(&mut self, ev: RemoteEvent) {
        debug_assert!(
            ev.at >= self.now,
            "remote event arrived in this shard's past"
        );
        if let Some(sc) = self.shard.as_mut() {
            sc.received += 1;
        }
        self.events.push_keyed(ev.at, ev.key, ev.event);
    }

    /// Move every staged outbound event for `shard` into `out` (appends;
    /// both vectors keep their capacity, so a steady-state exchange does not
    /// allocate). No-op on an unsharded core.
    pub fn drain_outbox_into(&mut self, shard: u32, out: &mut Vec<RemoteEvent>) {
        if let Some(sc) = self.shard.as_mut() {
            out.append(&mut sc.outboxes[shard as usize]);
        }
    }

    /// Cross-shard (sent, received) event counts of this shard; (0, 0) on an
    /// unsharded core.
    pub fn shard_comm_counters(&self) -> (u64, u64) {
        self.shard
            .as_ref()
            .map(|sc| (sc.sent, sc.received))
            .unwrap_or((0, 0))
    }

    /// Whether this core owns `node` (always true on an unsharded core).
    /// Telemetry samplers and harness readbacks use this to emit each node's
    /// data from exactly one shard.
    pub fn owns_node(&self, node: NodeId) -> bool {
        self.shard.as_ref().map(|sc| sc.owns(node)).unwrap_or(true)
    }

    /// The RNG a node's driver and its ECN marking draw from: the node's own
    /// stream in sharded mode (placement-independent), the shared engine RNG
    /// otherwise.
    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut SmallRng {
        match self.shard.as_mut() {
            Some(sc) => &mut sc.node_rngs[node.idx()],
            None => &mut self.rng,
        }
    }

    /// The RNG a node's probabilistic packet loss draws from; split like
    /// [`Self::node_rng`].
    fn node_fault_rng(&mut self, node: NodeId) -> &mut SmallRng {
        match self.shard.as_mut() {
            Some(sc) => &mut sc.node_fault_rngs[node.idx()],
            None => &mut self.fault_rng,
        }
    }

    pub(crate) fn schedule_host_timer(&mut self, at: SimTime, host: NodeId, token: u64) {
        let at = at.max(self.now);
        self.schedule(at, Event::HostTimer { host, token });
    }

    /// Highest number of simultaneously pending events observed so far —
    /// the event queue's high-water mark, exported into run manifests and
    /// the `peak_event_queue` column of `acc-bench perf`'s gate document.
    pub fn event_queue_peak(&self) -> u64 {
        self.events.peak_len() as u64
    }

    /// Timing-wheel push-tier and migration counters for this run's event
    /// queue — exported by the self-profiler into `acc-bench` profile
    /// artifacts.
    pub fn event_queue_stats(&self) -> crate::event::QueueStats {
        self.events.stats()
    }

    /// Largest per-port packet-arena ever grown in this run, in slots — the
    /// packet path's high-water mark (arenas never shrink, so the current
    /// maximum is the historical one). Diagnostic for sizing
    /// [`crate::config::PortConfig::arena_slots`].
    pub fn max_arena_slots(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| n.ports.iter())
            .map(|p| p.arena.slot_count())
            .max()
            .unwrap_or(0)
    }

    /// Mutable access to an egress queue (telemetry sync / reconfiguration
    /// from harness code).
    pub fn queue_mut(&mut self, node: NodeId, port: PortId, prio: Prio) -> &mut EgressQueue {
        &mut self.nodes[node.idx()].ports[port.idx()].queues[prio as usize]
    }

    /// Read-only access to an egress queue (harness/telemetry use).
    pub fn queue(&self, node: NodeId, port: PortId, prio: Prio) -> &EgressQueue {
        &self.nodes[node.idx()].ports[port.idx()].queues[prio as usize]
    }

    /// Assembled per-queue telemetry view of (`node`, `port`, `prio`).
    /// The queue-length time integral is only current up to the queue's
    /// last push/pop; use [`Self::synced_queue_telem`] when reading it.
    pub fn queue_telem(&self, node: NodeId, port: PortId, prio: Prio) -> QueueTelemetry {
        self.nodes[node.idx()].ports[port.idx()]
            .telem
            .queue(prio as usize)
    }

    /// Bring one queue's time-integral up to the current simulated time and
    /// return the assembled telemetry view.
    pub fn synced_queue_telem(&mut self, node: NodeId, port: PortId, prio: Prio) -> QueueTelemetry {
        let now = self.now;
        let ps = &mut self.nodes[node.idx()].ports[port.idx()];
        ps.queues[prio as usize].sync_clock(&mut ps.telem, now);
        ps.telem.queue(prio as usize)
    }

    /// PFC PAUSE events sent upstream from the ingress side of one port.
    pub fn pfc_pauses_of_port(&self, node: NodeId, port: PortId) -> u64 {
        self.nodes[node.idx()].ports[port.idx()].pfc_pause_events
    }

    /// Cumulative time class `prio` of (`node`, `port`)'s transmitter has
    /// spent paused by received PFC frames, including any pause still in
    /// progress at the current simulated time.
    pub fn pfc_pause_time(&self, node: NodeId, port: PortId, prio: Prio) -> SimTime {
        let ps = &self.nodes[node.idx()].ports[port.idx()];
        let mut total = ps.pause_ps[prio as usize];
        if let Some(since) = ps.pause_since[prio as usize] {
            total += (self.now - since).as_ps();
        }
        SimTime::from_ps(total)
    }

    pub(crate) fn host_backlog(&self, host: NodeId, prio: Prio) -> u64 {
        self.nodes[host.idx()].ports[0].queues[prio as usize].bytes()
    }

    /// Enqueue a host-originated packet on the host's NIC and kick the
    /// transmitter.
    pub(crate) fn host_enqueue(&mut self, host: NodeId, pkt: Packet) {
        debug_assert!(self.topo.is_host(host));
        debug_assert!((pkt.prio as usize) < self.cfg.port.num_prios);
        let now = self.now;
        let ps = &mut self.nodes[host.idx()].ports[0];
        // Host NICs have effectively unbounded send memory (the transport's
        // windows/rate limits bound it in practice); no drop here.
        ps.queues[pkt.prio as usize].push(
            &mut ps.arena,
            &mut ps.telem,
            QItem { pkt, ingress: None },
            now,
        );
        self.try_send(host, PortId(0));
    }

    /// If the transmitter of (node, port) is idle, pick the next packet by
    /// DWRR (honouring PFC pause) and start serializing it.
    fn try_send(&mut self, node: NodeId, port: PortId) {
        let ps = &mut self.nodes[node.idx()].ports[port.idx()];
        if ps.tx_busy || !ps.link_up {
            return;
        }
        let n = ps.queues.len();
        let mut heads = [None; 8];
        for (i, q) in ps.queues.iter().enumerate() {
            heads[i] = q.head_size(&ps.arena);
        }
        let Some(prio) = ps.dwrr.pick(&heads[..n], ps.paused) else {
            return;
        };
        let now = self.now;
        let item = ps.queues[prio]
            .pop(&mut ps.arena, &mut ps.telem, now)
            .expect("dwrr picked an empty queue");
        ps.in_flight = Some(InFlight {
            size: item.pkt.size,
            ingress: item.ingress,
            prio: item.pkt.prio,
        });
        ps.tx_busy = true;
        let qlen = ps.queues[prio].bytes();
        let (t_flow, t_prio) = (item.pkt.flow, item.pkt.prio);
        self.trace(TraceKind::Dequeue, node, port, t_prio, t_flow, qlen);
        let info = *self.topo.port(node, port);
        let ser = tx_time(item.pkt.size as u64, self.port_rate(node, port));
        self.schedule(now + ser, Event::TxDone { node, port });
        self.schedule(
            now + ser + info.delay,
            Event::Arrive {
                node: info.peer_node,
                port: info.peer_port,
                pkt: item.pkt,
            },
        );
    }

    /// Transmitter finished: release buffer accounting, maybe send PFC
    /// RESUME, and start the next packet.
    fn on_tx_done(&mut self, node: NodeId, port: PortId) {
        let inflight = self.nodes[node.idx()].ports[port.idx()]
            .in_flight
            .take()
            .expect("TxDone without in-flight packet");
        self.nodes[node.idx()].ports[port.idx()].tx_busy = false;

        if let Some(ingress) = inflight.ingress {
            // Switch: give the bytes back to the shared pool and the ingress
            // counter, then re-evaluate the PFC state of that ingress.
            let st = &mut self.nodes[node.idx()];
            if let Some(buf) = st.buffer.as_mut() {
                buf.release(inflight.size);
            }
            let prio = inflight.prio as usize;
            let ip = &mut st.ports[ingress.idx()];
            debug_assert!(ip.ingress_bytes[prio] >= inflight.size as u64);
            ip.ingress_bytes[prio] -= inflight.size as u64;
            let bit = 1u8 << (inflight.prio & 7);
            if ip.pfc_sent & bit != 0 {
                let resume = st
                    .buffer
                    .as_ref()
                    .map(|b| b.should_resume(st.ports[ingress.idx()].ingress_bytes[prio]))
                    .unwrap_or(true);
                if resume {
                    self.nodes[node.idx()].ports[ingress.idx()].pfc_sent &= !bit;
                    self.send_pfc(node, ingress, inflight.prio, false);
                }
            }
        }
        self.try_send(node, port);
    }

    /// Effective serialization rate of (`node`, `port`): the fault-injected
    /// override when present, the topology-configured rate otherwise.
    #[inline]
    fn port_rate(&self, node: NodeId, port: PortId) -> u64 {
        self.nodes[node.idx()].ports[port.idx()]
            .rate_override
            .unwrap_or_else(|| self.topo.port(node, port).rate_bps)
    }

    /// Deliver a PFC pause/resume to the peer of `ingress` on `node`.
    fn send_pfc(&mut self, node: NodeId, ingress: PortId, prio: Prio, pause: bool) {
        let info = *self.topo.port(node, ingress);
        let delay = tx_time(PFC_FRAME_BYTES, self.port_rate(node, ingress)) + info.delay;
        let at = self.now + delay;
        self.schedule(
            at,
            Event::PfcUpdate {
                node: info.peer_node,
                port: info.peer_port,
                prio,
                pause,
            },
        );
        if pause {
            self.nodes[node.idx()].ports[ingress.idx()].pfc_pause_events += 1;
            self.total_pfc_pauses += 1;
        }
        let kind = if pause {
            TraceKind::PfcPause
        } else {
            TraceKind::PfcResume
        };
        let qlen = self.nodes[node.idx()].ports[ingress.idx()].ingress_bytes[prio as usize];
        self.trace(kind, node, ingress, prio, crate::ids::FlowId(0), qlen);
    }

    fn on_pfc_update(&mut self, node: NodeId, port: PortId, prio: Prio, pause: bool) {
        let bit = 1u8 << (prio & 7);
        let now = self.now;
        let ps = &mut self.nodes[node.idx()].ports[port.idx()];
        if !ps.link_up {
            // A pause landing on a downed port would stick forever: the
            // sender's pfc_sent state was cleared when the link failed, so
            // no resume would ever arrive. Drop it with the link.
            return;
        }
        if pause {
            if ps.paused & bit == 0 {
                ps.pause_since[prio as usize] = Some(now);
            }
            ps.paused |= bit;
        } else {
            if let Some(since) = ps.pause_since[prio as usize].take() {
                let dur = (now - since).as_ps();
                ps.pause_ps[prio as usize] += dur;
                if let Some(p) = self.prof.as_mut() {
                    p.pause(dur / 1000);
                }
            }
            ps.paused &= !bit;
            self.try_send(node, port);
        }
    }

    /// The switch forwarding path: route, admission control, RED/ECN
    /// marking, shared-buffer + PFC accounting, enqueue.
    fn switch_rx(&mut self, node: NodeId, in_port: PortId, mut pkt: Packet) {
        let Some(out_port) = self.routes.try_next_hop(node, pkt.dst, pkt.flow) else {
            // Destination unreachable (link failures): black-hole, counted.
            self.total_drops += 1;
            self.unroutable_drops += 1;
            return;
        };
        let prio = pkt.prio as usize;
        let now = self.now;

        // Admission: per-queue drop-tail bound and shared-buffer capacity.
        let st = &self.nodes[node.idx()];
        let q = &st.ports[out_port.idx()].queues[prio];
        let buffer_full = st
            .buffer
            .as_ref()
            .map(|b| !b.can_admit(pkt.size))
            .unwrap_or(false);
        if q.would_overflow(pkt.size) || buffer_full {
            self.total_drops += 1;
            if self.cfg.lossless_mask & (1u8 << (pkt.prio & 7)) != 0 {
                self.lossless_drops += 1;
            }
            let qlen = q.bytes();
            {
                let ps = &mut self.nodes[node.idx()].ports[out_port.idx()];
                ps.queues[prio].record_drop(&mut ps.telem);
            }
            self.trace(TraceKind::Drop, node, out_port, pkt.prio, pkt.flow, qlen);
            if let Some(p) = self.prof.as_mut() {
                p.drop_at(qlen);
            }
            return;
        }

        // RED/ECN marking against the instantaneous egress queue depth.
        if pkt.ecn.markable() {
            let q = &self.nodes[node.idx()].ports[out_port.idx()].queues[prio];
            let ecn_at = q.ecn.map(|cfg| (cfg, q.marking_qlen()));
            if let Some((cfg, qlen)) = ecn_at {
                let p = cfg.mark_probability(qlen);
                let marked = p >= 1.0 || (p > 0.0 && self.node_rng(node).gen::<f64>() < p);
                if marked {
                    pkt.ecn = crate::packet::Ecn::Ce;
                    self.trace(TraceKind::CeMark, node, out_port, pkt.prio, pkt.flow, qlen);
                    if let Some(prof) = self.prof.as_mut() {
                        prof.ecn_mark(qlen);
                    }
                }
            }
        }

        // Charge the shared buffer and the ingress counter; evaluate Xoff.
        let st = &mut self.nodes[node.idx()];
        if let Some(buf) = st.buffer.as_mut() {
            buf.charge(pkt.size);
            let ip = &mut st.ports[in_port.idx()];
            ip.ingress_bytes[prio] += pkt.size as u64;
            let bit = 1u8 << (pkt.prio & 7);
            let lossless = self.cfg.lossless_mask & bit != 0;
            if lossless && ip.pfc_sent & bit == 0 {
                let over = st
                    .buffer
                    .as_ref()
                    .map(|b| b.should_pause(st.ports[in_port.idx()].ingress_bytes[prio]))
                    .unwrap_or(false);
                if over {
                    self.nodes[node.idx()].ports[in_port.idx()].pfc_sent |= bit;
                    self.send_pfc(node, in_port, pkt.prio, true);
                }
            }
        }

        let ps = &mut self.nodes[node.idx()].ports[out_port.idx()];
        let q = &mut ps.queues[prio];
        q.push(
            &mut ps.arena,
            &mut ps.telem,
            QItem {
                pkt,
                ingress: Some(in_port),
            },
            now,
        );
        let qlen = q.bytes();
        self.trace(TraceKind::Enqueue, node, out_port, pkt.prio, pkt.flow, qlen);
        self.try_send(node, out_port);
    }

    /// Finalize pause accounting and clear all PFC state on one port
    /// (link failure / reboot). Clearing `pfc_sent` matters: after the
    /// peer's pause state is gone, a resume would never be sent, so leaving
    /// the bit set would wedge the handshake after restoration.
    fn clear_pfc_state(&mut self, node: NodeId, port: PortId) {
        let now = self.now;
        let ps = &mut self.nodes[node.idx()].ports[port.idx()];
        for prio in 0..ps.pause_since.len() {
            if let Some(since) = ps.pause_since[prio].take() {
                let dur = (now - since).as_ps();
                ps.pause_ps[prio] += dur;
                if let Some(p) = self.prof.as_mut() {
                    p.pause(dur / 1000);
                }
            }
        }
        ps.paused = 0;
        ps.pfc_sent = 0;
    }

    /// Administratively fail or restore the link attached to
    /// (`node`, `port`). Both directions go down (the peer port too); the
    /// route table is rebuilt to steer around the failure. Packets already
    /// queued behind a downed transmitter wait for restoration; packets
    /// already propagating toward a downed link are lost on arrival (see
    /// `fault_drops`); packets with no remaining route are dropped (see
    /// `unroutable_drops`). PFC pause state on both endpoints is cleared so
    /// a flap can never leave a port permanently paused.
    pub fn set_link_state(&mut self, node: NodeId, port: PortId, up: bool) {
        let peer = *self.topo.port(node, port);
        self.nodes[node.idx()].ports[port.idx()].link_up = up;
        self.nodes[peer.peer_node.idx()].ports[peer.peer_port.idx()].link_up = up;
        if !up {
            self.clear_pfc_state(node, port);
            self.clear_pfc_state(peer.peer_node, peer.peer_port);
        }
        if let Some(p) = self.prof.as_mut() {
            // One window per administrative endpoint; the trace span covers
            // down → restore.
            let key = (node.0 as u64) << 32 | port.0 as u64;
            if up {
                p.close_window(key);
            } else {
                let sim_us = self.now.as_us_f64();
                p.open_window(key, format!("sw{}:{} sim_us={sim_us:.1}", node.0, port.0));
            }
        }
        self.log_fault(
            if up { "link_up" } else { "link_down" },
            node,
            port,
            FaultDetail::Peer {
                node: peer.peer_node,
                port: peer.peer_port,
            },
        );
        let kind = if up {
            TraceKind::LinkUp
        } else {
            TraceKind::LinkDown
        };
        // One record per endpoint, so per-node trace filters see the change.
        self.trace(kind, node, port, 0, crate::ids::FlowId(0), 0);
        self.trace(
            kind,
            peer.peer_node,
            peer.peer_port,
            0,
            crate::ids::FlowId(0),
            0,
        );
        // Rebuild routing honouring every port's current state, reusing the
        // existing table's storage (no fresh table allocation per flap).
        {
            let SimCore {
                ref mut routes,
                ref nodes,
                ref topo,
                ..
            } = *self;
            routes.rebuild_filtered(topo, |n, p| nodes[n.idx()].ports[p.idx()].link_up);
        }
        if up {
            // Restart the transmitters on both ends.
            self.try_send(node, port);
            self.try_send(peer.peer_node, peer.peer_port);
        }
    }

    /// Whether the link attached to (`node`, `port`) is up.
    pub fn link_is_up(&self, node: NodeId, port: PortId) -> bool {
        self.nodes[node.idx()].ports[port.idx()].link_up
    }

    /// Total bytes currently buffered in a switch.
    pub fn buffer_used(&self, node: NodeId) -> u64 {
        self.nodes[node.idx()]
            .buffer
            .as_ref()
            .map(|b| b.used)
            .unwrap_or(0)
    }

    /// Append one executed fault to the in-core fault log.
    fn log_fault(&mut self, kind: &'static str, node: NodeId, port: PortId, detail: FaultDetail) {
        // Faults replicate into every shard (link state and routing must stay
        // globally consistent) but only the owner logs and counts them, so
        // merged fault streams carry each fault exactly once.
        if !self.owns_node(node) {
            return;
        }
        self.faults_executed += 1;
        if self.fault_log.len() >= FAULT_LOG_CAP {
            self.fault_log_dropped += 1;
        } else {
            self.fault_log.push(FaultLogEntry {
                at: self.now,
                kind,
                node,
                port,
                detail,
            });
        }
    }

    /// Take every fault executed since the previous drain (telemetry
    /// samplers call this each interval; harnesses may drain at the end).
    pub fn drain_fault_log(&mut self) -> Vec<FaultLogEntry> {
        std::mem::take(&mut self.fault_log)
    }

    /// Should this arrival be lost to fault injection? Downed ingress links
    /// lose every packet still propagating toward them; ports with injected
    /// loss black-hole a seeded-random fraction. The fault RNG is only
    /// consulted for partial loss, so loss-free runs never touch it.
    pub(crate) fn rx_fault_drop(&mut self, node: NodeId, port: PortId, pkt: &Packet) -> bool {
        let ps = &self.nodes[node.idx()].ports[port.idx()];
        let lost = if !ps.link_up {
            true
        } else {
            let frac = ps.loss_frac;
            frac > 0.0 && (frac >= 1.0 || self.node_fault_rng(node).gen::<f64>() < frac)
        };
        if lost {
            self.total_drops += 1;
            self.fault_drops += 1;
            self.trace(TraceKind::FaultDrop, node, port, pkt.prio, pkt.flow, 0);
        }
        lost
    }

    /// Execute one fault right now. Normally driven by scheduled
    /// [`Event::Fault`]s from an installed [`FaultPlan`]; harnesses may also
    /// call it directly.
    pub fn apply_fault(&mut self, kind: FaultKind) {
        if let Some(p) = self.prof.as_mut() {
            let sim_us = self.now.as_us_f64();
            p.instant(crate::profile::fault_name(&kind), "fault", {
                format!("sim_us={sim_us:.1}")
            });
        }
        match kind {
            FaultKind::LinkDown { node, port } => self.set_link_state(node, port, false),
            FaultKind::LinkUp { node, port } => self.set_link_state(node, port, true),
            FaultKind::DegradeLink {
                node,
                port,
                rate_bps,
            } => {
                let rate = rate_bps.max(1);
                let peer = *self.topo.port(node, port);
                self.nodes[node.idx()].ports[port.idx()].rate_override = Some(rate);
                self.nodes[peer.peer_node.idx()].ports[peer.peer_port.idx()].rate_override =
                    Some(rate);
                self.trace(
                    TraceKind::LinkDegraded,
                    node,
                    port,
                    0,
                    crate::ids::FlowId(0),
                    0,
                );
                self.log_fault("link_degrade", node, port, FaultDetail::RateBps(rate));
            }
            FaultKind::RestoreLinkRate { node, port } => {
                let peer = *self.topo.port(node, port);
                self.nodes[node.idx()].ports[port.idx()].rate_override = None;
                self.nodes[peer.peer_node.idx()].ports[peer.peer_port.idx()].rate_override = None;
                self.trace(
                    TraceKind::LinkDegraded,
                    node,
                    port,
                    0,
                    crate::ids::FlowId(0),
                    0,
                );
                self.log_fault("link_rate_restore", node, port, FaultDetail::None);
            }
            FaultKind::PacketLoss { node, port, frac } => {
                let frac = frac.clamp(0.0, 1.0);
                self.nodes[node.idx()].ports[port.idx()].loss_frac = frac;
                self.trace(
                    TraceKind::FaultDrop,
                    node,
                    port,
                    0,
                    crate::ids::FlowId(0),
                    0,
                );
                self.log_fault("packet_loss", node, port, FaultDetail::LossFrac(frac));
            }
            FaultKind::SwitchReboot { node } => self.reboot_switch(node),
            FaultKind::TelemetryFreeze { node } => {
                let now = self.now;
                // Reuse the pooled snapshot vector (recycled on restore) so a
                // freeze/restore cycle settles into zero allocations.
                let mut snap = std::mem::take(&mut self.telem_snap_pool);
                snap.clear();
                let st = &mut self.nodes[node.idx()];
                for p in st.ports.iter_mut() {
                    for (prio, q) in p.queues.iter_mut().enumerate() {
                        q.sync_clock(&mut p.telem, now);
                        snap.push((q.bytes(), p.telem.queue(prio)));
                    }
                }
                self.recycle_telem_fault(node);
                self.nodes[node.idx()].telem_fault = Some(TelemFault::Frozen(snap));
                self.trace(
                    TraceKind::TelemetryFault,
                    node,
                    PortId(0),
                    0,
                    crate::ids::FlowId(0),
                    0,
                );
                self.log_fault("telem_freeze", node, PortId(u16::MAX), FaultDetail::None);
            }
            FaultKind::TelemetryBlank { node } => {
                self.recycle_telem_fault(node);
                self.nodes[node.idx()].telem_fault = Some(TelemFault::Blank);
                self.trace(
                    TraceKind::TelemetryFault,
                    node,
                    PortId(0),
                    0,
                    crate::ids::FlowId(0),
                    0,
                );
                self.log_fault("telem_blank", node, PortId(u16::MAX), FaultDetail::None);
            }
            FaultKind::TelemetryRestore { node } => {
                self.recycle_telem_fault(node);
                self.trace(
                    TraceKind::TelemetryFault,
                    node,
                    PortId(0),
                    0,
                    crate::ids::FlowId(0),
                    0,
                );
                self.log_fault("telem_restore", node, PortId(u16::MAX), FaultDetail::None);
            }
        }
    }

    /// Reboot a switch: every queued packet is flushed (and counted as a
    /// fault drop), shared-buffer and ingress accounting is released per
    /// packet, every queue's ECN config reverts to the configured static
    /// default, the schedulers reset, and PFC state clears with resumes
    /// sent upstream so paused peers un-stick. The packet currently being
    /// serialized (if any) survives — its bytes are on the wire — and its
    /// accounting is released normally by its pending `TxDone`. Telemetry
    /// counters are *not* reset: they model the collector's view, which
    /// outlives the device (and samplers difference them as monotone).
    fn reboot_switch(&mut self, node: NodeId) {
        let now = self.now;
        let num_ports = self.nodes[node.idx()].ports.len();
        let mut flushed: u64 = 0;
        // Reuse the core-owned scratch buffers across reboots (Vec::new()
        // placeholders left behind by `take` never allocate).
        let mut items = std::mem::take(&mut self.flush_scratch);
        let mut resumes = std::mem::take(&mut self.resume_scratch);
        resumes.clear();
        for pi in 0..num_ports {
            let port = PortId(pi as u16);
            self.clear_pfc_state_keep_sent(node, port);
            let nq = self.nodes[node.idx()].ports[pi].queues.len();
            for prio in 0..nq {
                let st = &mut self.nodes[node.idx()];
                let ps = &mut st.ports[pi];
                ps.queues[prio].flush_into(&mut ps.arena, &mut ps.telem, now, &mut items);
                flushed += items.len() as u64;
                for item in &items {
                    if let Some(buf) = st.buffer.as_mut() {
                        buf.release(item.pkt.size);
                    }
                    if let Some(ingress) = item.ingress {
                        let ib = &mut st.ports[ingress.idx()].ingress_bytes[item.pkt.prio as usize];
                        *ib = ib.saturating_sub(item.pkt.size as u64);
                    }
                }
                st.ports[pi].queues[prio].ecn = self.cfg.port.ecn[prio];
            }
            let ps = &mut self.nodes[node.idx()].ports[pi];
            ps.dwrr.reset();
            let sent = ps.pfc_sent;
            ps.pfc_sent = 0;
            for prio in 0..nq {
                if sent & (1u8 << prio) != 0 {
                    resumes.push((port, prio as Prio));
                }
            }
        }
        self.total_drops += flushed;
        self.fault_drops += flushed;
        for &(port, prio) in &resumes {
            if self.nodes[node.idx()].ports[port.idx()].link_up {
                self.send_pfc(node, port, prio, false);
            }
        }
        items.clear();
        self.flush_scratch = items;
        self.resume_scratch = resumes;
        self.recycle_telem_fault(node);
        self.trace(
            TraceKind::SwitchReboot,
            node,
            PortId(0),
            0,
            crate::ids::FlowId(0),
            flushed,
        );
        self.log_fault(
            "switch_reboot",
            node,
            PortId(u16::MAX),
            FaultDetail::Flushed(flushed),
        );
    }

    /// Clear a node's telemetry fault, recycling a frozen snapshot's storage
    /// into the shared pool so the next freeze reuses it.
    fn recycle_telem_fault(&mut self, node: NodeId) {
        if let Some(TelemFault::Frozen(mut v)) = self.nodes[node.idx()].telem_fault.take() {
            if v.capacity() > self.telem_snap_pool.capacity() {
                v.clear();
                self.telem_snap_pool = v;
            }
        }
    }

    /// [`Self::clear_pfc_state`] minus the `pfc_sent` clear (the reboot path
    /// collects those bits first so it can send explicit resumes).
    fn clear_pfc_state_keep_sent(&mut self, node: NodeId, port: PortId) {
        let now = self.now;
        let ps = &mut self.nodes[node.idx()].ports[port.idx()];
        for prio in 0..ps.pause_since.len() {
            if let Some(since) = ps.pause_since[prio].take() {
                let dur = (now - since).as_ps();
                ps.pause_ps[prio] += dur;
                if let Some(p) = self.prof.as_mut() {
                    p.pause(dur / 1000);
                }
            }
        }
        ps.paused = 0;
    }

    /// The (qlen, telemetry) a controller *reads* for this queue right now,
    /// when distorted by an active telemetry fault; `None` means reads are
    /// healthy and the live queue state applies. Only control-plane
    /// snapshots route through this — the flight-recorder sampler keeps
    /// reading ground truth, which is exactly what makes the distortion
    /// observable in recorded runs.
    pub(crate) fn faulted_reading(
        &self,
        node: NodeId,
        port: PortId,
        prio: Prio,
    ) -> Option<(u64, QueueTelemetry)> {
        match self.nodes[node.idx()].telem_fault.as_ref()? {
            TelemFault::Blank => Some((0, QueueTelemetry::default())),
            TelemFault::Frozen(snap) => {
                let num_prios = self.cfg.port.num_prios;
                snap.get(port.idx() * num_prios + prio as usize).copied()
            }
        }
    }
}

/// A periodic telemetry sampling hook (see [`Simulator::set_sampler`]).
struct Sampler {
    interval: SimTime,
    hook: Box<dyn FnMut(&mut SimCore)>,
}

/// The user-facing simulator: the core plus the pluggable host drivers and
/// switch controllers.
pub struct Simulator {
    core: SimCore,
    drivers: Vec<Option<Box<dyn NicDriver>>>,
    controllers: Vec<Option<Box<dyn QueueController>>>,
    sampler: Option<Sampler>,
    /// Switch ids, cached at construction: the topology is immutable, and
    /// rebuilding this list on every [`Event::ControlTick`] was measurable
    /// allocator traffic at 50 µs tick intervals.
    switch_cache: Vec<NodeId>,
}

impl Simulator {
    /// Build a simulator for `topo` with the given configuration.
    ///
    /// Hosts start without drivers (packets delivered to a driverless host
    /// are counted and discarded); switches start without controllers (the
    /// initial ECN configuration stays in force — i.e. a static-ECN network).
    pub fn new(topo: Topology, cfg: SimConfig) -> Self {
        Self::from_core(SimCore::new(topo, cfg))
    }

    /// Build one shard's simulator for a sharded run (see [`crate::shard`]):
    /// the full topology with this shard's nodes live and foreign nodes as
    /// zero-capacity stand-ins, canonical event keys, per-node RNG streams,
    /// and cross-shard mailboxes for `plan.n_shards` peers.
    pub fn new_sharded(topo: Topology, cfg: SimConfig, plan: &ShardPlan, shard: u32) -> Self {
        assert!(shard < plan.n_shards, "shard index out of range");
        assert_eq!(
            plan.owner_of.len(),
            topo.nodes.len(),
            "shard plan was built for a different topology"
        );
        Self::from_core(SimCore::new_inner(topo, cfg, Some((plan, shard))))
    }

    fn from_core(mut core: SimCore) -> Self {
        let n = core.topo.nodes.len();
        if let Some(dt) = core.cfg.control_interval {
            core.schedule(dt, Event::ControlTick);
        }
        let switch_cache = core.topo.switches().to_vec();
        Simulator {
            core,
            drivers: (0..n).map(|_| None).collect(),
            controllers: (0..n).map(|_| None).collect(),
            sampler: None,
            switch_cache,
        }
    }

    /// Panic unless this simulator was built with [`Simulator::new_sharded`]
    /// for exactly (`n_shards`, `shard`) — the sharded runner's guard against
    /// a builder closure wiring up the wrong shard.
    pub(crate) fn assert_shard(&self, n_shards: u32, shard: u32) {
        let sc = self
            .core
            .shard
            .as_ref()
            .expect("sharded run requires Simulator::new_sharded");
        assert_eq!(sc.n_shards, n_shards, "simulator built for another plan");
        assert_eq!(sc.my_shard, shard, "simulator built for another shard");
    }

    /// Install a periodic telemetry sampler: `hook` runs against the core
    /// every `interval`, starting one interval from now. The hook must only
    /// *read* simulation state (counters, queue depths); sampling must never
    /// perturb the packet trajectory, so two identical seeded runs with and
    /// without a sampler stay identical. Without a sampler no
    /// [`Event::TelemetrySample`] is ever scheduled.
    pub fn set_sampler(&mut self, interval: SimTime, hook: Box<dyn FnMut(&mut SimCore)>) {
        assert!(
            interval > SimTime::ZERO,
            "sampling interval must be positive"
        );
        let first = self.core.now + interval;
        if self.sampler.is_none() {
            self.core.schedule(first, Event::TelemetrySample);
        }
        self.sampler = Some(Sampler { interval, hook });
    }

    /// Read-only access to the core (telemetry, topology, counters).
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// Validate `plan` and schedule every fault it contains into the event
    /// loop (faults dated in the past fire immediately). The dedicated
    /// fault RNG is reseeded from [`FaultPlan::seed`], so identical plans
    /// on identical simulations reproduce identical runs; a plan with no
    /// probabilistic faults leaves the packet trajectory of the fault-free
    /// portions untouched.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate()?;
        self.core.fault_rng = SmallRng::seed_from_u64(plan.seed ^ FAULT_SEED_SALT);
        if let Some(sc) = self.core.shard.as_mut() {
            for (i, r) in sc.node_fault_rngs.iter_mut().enumerate() {
                *r = SmallRng::seed_from_u64(mix64(plan.seed ^ FAULT_SEED_SALT) ^ mix64(i as u64));
            }
        }
        // Every scheduled fault appends at most one log entry; reserving up
        // front keeps the steady-state loop free of fault-log growth.
        self.core
            .fault_log
            .reserve(plan.events.len().min(FAULT_LOG_CAP));
        let now = self.core.now;
        for ev in &plan.events {
            let at = ev.at.max(now);
            self.core.schedule(at, Event::Fault(ev.kind.clone()));
        }
        Ok(())
    }

    /// Switch on self-profiling (see [`crate::profile`]). Idempotent; the
    /// profiler observes wall-clock time and counters only, so the simulated
    /// trajectory — and any recorded JSONL — is identical with or without it.
    pub fn enable_profiling(&mut self) {
        if self.core.prof.is_none() {
            self.core.prof = Some(Box::new(SimProfiler::new()));
        }
    }

    /// The live profiler, if profiling is enabled.
    pub fn profiler(&self) -> Option<&SimProfiler> {
        self.core.prof.as_deref()
    }

    /// Detach and return the profiler (flushing still-open fault windows),
    /// leaving profiling disabled. Harnesses call this once at run end.
    pub fn take_profiler(&mut self) -> Option<Box<SimProfiler>> {
        let mut p = self.core.prof.take();
        if let Some(p) = p.as_mut() {
            p.finish();
        }
        p
    }

    /// Install a structured event tracer (see [`crate::trace`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.tracer = Some(tracer);
    }

    /// Access the installed tracer, if any.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.core.tracer.as_mut()
    }

    /// Mutable access to the core for harnesses that need to sync telemetry
    /// clocks or reconfigure queues outside a controller tick.
    pub fn core_mut(&mut self) -> &mut SimCore {
        &mut self.core
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Install the NIC driver for `host`.
    ///
    /// In a sharded simulator, installing onto a host owned by another shard
    /// is a silent no-op: full-topology installers (`install_stacks`, the
    /// bench harness) run unchanged in every shard, and each host's driver
    /// ends up alive only in the shard that owns it.
    pub fn set_driver(&mut self, host: NodeId, driver: Box<dyn NicDriver>) {
        assert!(self.core.topo.is_host(host), "drivers attach to hosts");
        if !self.core.owns_node(host) {
            return;
        }
        self.drivers[host.idx()] = Some(driver);
    }

    /// Whether `node` currently has a controller installed.
    pub fn has_controller(&self, node: NodeId) -> bool {
        self.controllers[node.idx()].is_some()
    }

    /// Install the control-plane logic for `switch`.
    ///
    /// In a sharded simulator, installing onto a switch owned by another
    /// shard is a silent no-op (see [`Simulator::set_driver`]): a foreign
    /// controller would tick against queues that never carry traffic in this
    /// shard and duplicate the owner's telemetry.
    pub fn set_controller(&mut self, switch: NodeId, ctl: Box<dyn QueueController>) {
        assert!(
            !self.core.topo.is_host(switch),
            "controllers attach to switches"
        );
        if !self.core.owns_node(switch) {
            return;
        }
        self.controllers[switch.idx()] = Some(ctl);
    }

    /// Run driver code for `host` outside of an event (e.g. to start flows).
    pub fn with_driver<R>(
        &mut self,
        host: NodeId,
        f: impl FnOnce(&mut dyn NicDriver, &mut HostCtx<'_>) -> R,
    ) -> R {
        let mut d = self.drivers[host.idx()]
            .take()
            .expect("host has no driver installed");
        let mut ctx = HostCtx {
            core: &mut self.core,
            host,
        };
        let r = f(d.as_mut(), &mut ctx);
        self.drivers[host.idx()] = Some(d);
        r
    }

    /// Run controller code for `switch` outside of a tick (e.g. to extract a
    /// trained model).
    pub fn with_controller<R>(
        &mut self,
        switch: NodeId,
        f: impl FnOnce(&mut dyn QueueController, &mut SwitchView<'_>) -> R,
    ) -> R {
        let mut c = self.controllers[switch.idx()]
            .take()
            .expect("switch has no controller installed");
        let mut view = SwitchView {
            backend: ViewBackend::Packet(&mut self.core),
            node: switch,
        };
        let r = f(c.as_mut(), &mut view);
        self.controllers[switch.idx()] = Some(c);
        r
    }

    /// Process a single event. Returns `false` when the event queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(s) = self.core.events.pop() else {
            return false;
        };
        debug_assert!(s.time >= self.core.now, "time went backwards");
        self.core.now = s.time;
        self.core.events_processed += 1;
        // Self-profiling: disabled this is one pointer check; enabled it
        // reads the wall clock on 1-in-SAMPLE_EVERY dispatches and tallies
        // the kind on all of them. Wall-clock only — the simulated
        // trajectory is untouched either way.
        let prof_t0 = match self.core.prof.as_mut() {
            Some(p) => Some((event_kind(&s.event), p.dispatch_begin())),
            None => None,
        };
        match s.event {
            Event::Arrive { node, port, pkt } => {
                if self.core.rx_fault_drop(node, port, &pkt) {
                    // Lost to a downed link or injected loss: counted and
                    // traced, never delivered.
                } else if self.core.topo.is_host(node) {
                    if let Some(mut d) = self.drivers[node.idx()].take() {
                        let mut ctx = HostCtx {
                            core: &mut self.core,
                            host: node,
                        };
                        d.on_packet(&pkt, &mut ctx);
                        self.drivers[node.idx()] = Some(d);
                    }
                } else {
                    self.core.switch_rx(node, port, pkt);
                }
            }
            Event::TxDone { node, port } => {
                self.core.on_tx_done(node, port);
                // Hosts get the completion signal so deferred sends resume.
                if self.core.topo.is_host(node) {
                    if let Some(mut d) = self.drivers[node.idx()].take() {
                        let mut ctx = HostCtx {
                            core: &mut self.core,
                            host: node,
                        };
                        d.on_tx_ready(&mut ctx);
                        self.drivers[node.idx()] = Some(d);
                    }
                }
            }
            Event::PfcUpdate {
                node,
                port,
                prio,
                pause,
            } => self.core.on_pfc_update(node, port, prio, pause),
            Event::HostTimer { host, token } => {
                if let Some(mut d) = self.drivers[host.idx()].take() {
                    let mut ctx = HostCtx {
                        core: &mut self.core,
                        host,
                    };
                    d.on_timer(token, &mut ctx);
                    self.drivers[host.idx()] = Some(d);
                }
            }
            Event::ControlTick => {
                let span_t0 = self.core.prof.as_ref().map(|_| std::time::Instant::now());
                // Indexed loop over the cached list: `sw` is Copy, so no
                // borrow of `self` outlives the controller call and no Vec
                // is rebuilt per tick.
                for i in 0..self.switch_cache.len() {
                    let sw = self.switch_cache[i];
                    if let Some(mut c) = self.controllers[sw.idx()].take() {
                        let mut view = SwitchView {
                            backend: ViewBackend::Packet(&mut self.core),
                            node: sw,
                        };
                        c.on_tick(&mut view);
                        self.controllers[sw.idx()] = Some(c);
                    }
                }
                if let Some(t0) = span_t0 {
                    let sim_us = self.core.now.as_us_f64();
                    if let Some(p) = self.core.prof.as_mut() {
                        p.span("control_tick", "control", t0, format!("sim_us={sim_us:.1}"));
                    }
                }
                if let Some(dt) = self.core.cfg.control_interval {
                    let at = self.core.now + dt;
                    self.core.schedule(at, Event::ControlTick);
                }
            }
            Event::TelemetrySample => {
                if let Some(mut s) = self.sampler.take() {
                    let span_t0 = self.core.prof.as_ref().map(|_| std::time::Instant::now());
                    (s.hook)(&mut self.core);
                    if let Some(t0) = span_t0 {
                        let sim_us = self.core.now.as_us_f64();
                        if let Some(p) = self.core.prof.as_mut() {
                            p.span(
                                "telemetry_sample",
                                "telemetry",
                                t0,
                                format!("sim_us={sim_us:.1}"),
                            );
                        }
                    }
                    let at = self.core.now + s.interval;
                    self.core.schedule(at, Event::TelemetrySample);
                    self.sampler = Some(s);
                }
            }
            Event::Fault(kind) => self.core.apply_fault(kind),
        }
        if let Some((kind, t0)) = prof_t0 {
            let pending = self.core.events.len();
            if let Some(p) = self.core.prof.as_mut() {
                p.dispatch_end(kind, t0, pending);
            }
        }
        true
    }

    /// Run until simulated time reaches `t` (events at exactly `t` are
    /// processed). Afterwards `now() == t` even if the queue drained early.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.core.events.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        if self.core.now < t {
            self.core.now = t;
        }
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: SimTime) {
        let t = self.core.now + d;
        self.run_until(t);
    }

    /// Process every pending event with activation time strictly below
    /// `bound`, returning how many were processed. Unlike
    /// [`Simulator::run_until`] this never advances `now` past the last
    /// processed event — the sharded run loop owns time advancement.
    pub fn run_events_before(&mut self, bound: SimTime) -> u64 {
        let mut n = 0;
        while let Some(next) = self.core.events.peek_time() {
            if next >= bound {
                break;
            }
            self.step();
            n += 1;
        }
        n
    }

    /// Advance `now` to `t` if it is behind (no events are processed) — the
    /// end-of-horizon counterpart of [`Simulator::run_until`] for sharded
    /// runs, so post-run telemetry syncs see the full horizon.
    pub fn advance_now_to(&mut self, t: SimTime) {
        if self.core.now < t {
            self.core.now = t;
        }
    }
}

impl ControllerHost for Simulator {
    fn topo(&self) -> &Topology {
        &self.core.topo
    }

    fn is_sharded(&self) -> bool {
        self.core.shard.is_some()
    }

    fn set_controller(&mut self, switch: NodeId, ctl: Box<dyn QueueController>) {
        Simulator::set_controller(self, switch, ctl);
    }

    fn controller_mut(&mut self, switch: NodeId) -> Option<&mut dyn QueueController> {
        self.controllers[switch.idx()].as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, PRIO_RDMA};
    use crate::packet::{Ecn, PacketKind};
    use crate::topology::TopologySpec;
    use std::any::Any;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Driver that records received data bytes and their arrival times.
    struct Sink {
        got: Rc<RefCell<Vec<(SimTime, u32)>>>,
    }
    impl NicDriver for Sink {
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut HostCtx<'_>) {
            self.got.borrow_mut().push((ctx.now(), pkt.size));
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut HostCtx<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Driver that blasts `n` packets at t=0.
    struct Blaster {
        dst: NodeId,
        n: u32,
        flow: u64,
        ecn: Ecn,
    }
    impl NicDriver for Blaster {
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut HostCtx<'_>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
            let src = ctx.host();
            for i in 0..self.n {
                let pkt = Packet::data(
                    FlowId(self.flow),
                    src,
                    self.dst,
                    PRIO_RDMA,
                    i as u64 * 1000,
                    1000,
                    i == self.n - 1,
                    self.ecn,
                );
                ctx.send(pkt);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_host_sim(rate: u64) -> (Simulator, Rc<RefCell<Vec<(SimTime, u32)>>>) {
        let topo = TopologySpec::single_switch(2, rate, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let got = Rc::new(RefCell::new(Vec::new()));
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        sim.set_driver(hosts[1], Box::new(Sink { got: got.clone() }));
        sim.set_driver(
            hosts[0],
            Box::new(Blaster {
                dst: hosts[1],
                n: 100,
                flow: 1,
                ecn: Ecn::Ect,
            }),
        );
        sim.with_driver(hosts[0], |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        (sim, got)
    }

    #[test]
    fn packets_traverse_switch_at_line_rate() {
        let (mut sim, got) = two_host_sim(10_000_000_000);
        sim.run_until(SimTime::from_ms(10));
        let got = got.borrow();
        assert_eq!(got.len(), 100, "all packets delivered");
        // 100 packets of 1048B at 10 Gbps back to back: the gap between
        // consecutive arrivals equals one serialization time (838.4 ns).
        let ser = tx_time(1048, 10_000_000_000);
        for w in got.windows(2) {
            assert_eq!(w[1].0 - w[0].0, ser);
        }
        // First packet: 2 serializations (host + switch) + 2 propagation.
        let first = got[0].0;
        assert_eq!(first, ser + ser + SimTime::from_ns(1000));
        assert_eq!(sim.core().total_drops, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut s1, g1) = two_host_sim(25_000_000_000);
        let (mut s2, g2) = two_host_sim(25_000_000_000);
        s1.run_until(SimTime::from_ms(1));
        s2.run_until(SimTime::from_ms(1));
        assert_eq!(*g1.borrow(), *g2.borrow());
        assert_eq!(s1.core().events_processed, s2.core().events_processed);
    }

    #[test]
    fn ecn_marking_applies_under_congestion() {
        // Two senders at 25G into one 25G receiver -> queue builds at the
        // switch; with a tiny Kmin every ECT packet beyond the threshold is
        // marked.
        let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.port.ecn[PRIO_RDMA as usize] = Some(crate::queues::EcnConfig::new(2_000, 2_000, 1.0));
        let mut sim = Simulator::new(topo, cfg);
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.set_driver(hosts[2], Box::new(Sink { got: got.clone() }));
        for (i, &h) in hosts[..2].iter().enumerate() {
            sim.set_driver(
                h,
                Box::new(Blaster {
                    dst: hosts[2],
                    n: 200,
                    flow: i as u64 + 1,
                    ecn: Ecn::Ect,
                }),
            );
            sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        }
        sim.run_until(SimTime::from_ms(5));
        let sw = sim.core().topo.switches()[0];
        // The egress queue towards host 2 is port index 2.
        let t = sim.core().queue_telem(sw, PortId(2), PRIO_RDMA);
        assert_eq!(t.tx_pkts, 400);
        assert!(
            t.tx_marked_pkts > 300,
            "most packets should be CE-marked, got {}",
            t.tx_marked_pkts
        );
        assert_eq!(sim.core().total_drops, 0);
    }

    #[test]
    fn non_ect_never_marked() {
        let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.port.ecn[PRIO_RDMA as usize] = Some(crate::queues::EcnConfig::new(0, 0, 1.0));
        let mut sim = Simulator::new(topo, cfg);
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.set_driver(hosts[2], Box::new(Sink { got: got.clone() }));
        sim.set_driver(
            hosts[0],
            Box::new(Blaster {
                dst: hosts[2],
                n: 50,
                flow: 1,
                ecn: Ecn::NotEct,
            }),
        );
        sim.with_driver(hosts[0], |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        sim.run_until(SimTime::from_ms(5));
        let sw = sim.core().topo.switches()[0];
        let t = sim.core().queue_telem(sw, PortId(2), PRIO_RDMA);
        assert_eq!(t.tx_marked_pkts, 0);
    }

    #[test]
    fn pfc_prevents_loss_on_lossless_class() {
        // 8 senders blast a single receiver with far more data than the
        // switch buffer; with PFC on the RDMA class nothing may be dropped.
        let topo = TopologySpec::single_switch(9, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.buffer_bytes = 512 * 1024; // small buffer to force PFC
        let mut sim = Simulator::new(topo, cfg);
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.set_driver(hosts[8], Box::new(Sink { got: got.clone() }));
        for (i, &h) in hosts[..8].iter().enumerate() {
            sim.set_driver(
                h,
                Box::new(Blaster {
                    dst: hosts[8],
                    n: 1000, // 8 MB total >> 512 KB buffer
                    flow: i as u64 + 1,
                    ecn: Ecn::Ect,
                }),
            );
            sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        }
        sim.run_until(SimTime::from_ms(50));
        assert_eq!(sim.core().total_drops, 0, "PFC must keep RDMA lossless");
        assert!(sim.core().total_pfc_pauses > 0, "PFC must have triggered");
        assert_eq!(got.borrow().len(), 8000, "everything eventually delivered");
    }

    #[test]
    fn droptail_drops_without_pfc() {
        // Same overload on the TCP class (not lossless, NotEct) with a small
        // per-queue bound: drops must occur.
        let topo = TopologySpec::single_switch(9, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.port.max_queue_bytes[0] = 64 * 1024;
        let mut sim = Simulator::new(topo, cfg);
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.set_driver(hosts[8], Box::new(Sink { got: got.clone() }));
        struct TcpBlaster {
            dst: NodeId,
        }
        impl NicDriver for TcpBlaster {
            fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
                let src = ctx.host();
                for i in 0..500u32 {
                    let pkt = Packet::data(
                        FlowId(src.0 as u64),
                        src,
                        self.dst,
                        crate::ids::PRIO_TCP,
                        i as u64 * 1000,
                        1000,
                        false,
                        Ecn::NotEct,
                    );
                    ctx.send(pkt);
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        for &h in &hosts[..8] {
            sim.set_driver(h, Box::new(TcpBlaster { dst: hosts[8] }));
            sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        }
        sim.run_until(SimTime::from_ms(20));
        assert!(sim.core().total_drops > 0, "drop-tail class must drop");
    }

    #[test]
    fn control_tick_fires_and_can_reconfigure() {
        struct Tuner {
            ticks: Rc<RefCell<u32>>,
        }
        impl QueueController for Tuner {
            fn on_tick(&mut self, view: &mut SwitchView<'_>) {
                *self.ticks.borrow_mut() += 1;
                view.set_ecn(
                    PortId(0),
                    PRIO_RDMA,
                    Some(crate::queues::EcnConfig::new(1234, 5678, 0.5)),
                );
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let cfg = SimConfig::default().with_control_interval(SimTime::from_us(100));
        let mut sim = Simulator::new(topo, cfg);
        let sw = sim.core().topo.switches()[0];
        let ticks = Rc::new(RefCell::new(0));
        sim.set_controller(
            sw,
            Box::new(Tuner {
                ticks: ticks.clone(),
            }),
        );
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(*ticks.borrow(), 10);
        let q = sim.core().queue(sw, PortId(0), PRIO_RDMA);
        assert_eq!(q.ecn.unwrap().kmin_bytes, 1234);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.control_interval = None;
        let mut sim = Simulator::new(topo, cfg);
        sim.run_until(SimTime::from_ms(3));
        assert_eq!(sim.now(), SimTime::from_ms(3));
    }

    #[test]
    fn ack_kind_round_trips_through_fabric() {
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let got = Rc::new(RefCell::new(Vec::new()));
        struct KindSink {
            kinds: Rc<RefCell<Vec<PacketKind>>>,
        }
        impl NicDriver for KindSink {
            fn on_packet(&mut self, p: &Packet, _c: &mut HostCtx<'_>) {
                self.kinds.borrow_mut().push(p.kind);
            }
            fn on_timer(&mut self, _t: u64, _c: &mut HostCtx<'_>) {}
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.set_driver(hosts[1], Box::new(KindSink { kinds: got.clone() }));
        struct Once {
            dst: NodeId,
        }
        impl NicDriver for Once {
            fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
                let src = ctx.host();
                ctx.send(Packet::ack(FlowId(9), src, self.dst, 2, 77, true, false));
                ctx.send(Packet::cnp(FlowId(9), src, self.dst, 2));
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.set_driver(hosts[0], Box::new(Once { dst: hosts[1] }));
        sim.with_driver(hosts[0], |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        sim.run_until(SimTime::from_ms(1));
        let kinds = got.borrow();
        assert_eq!(kinds.len(), 2);
        assert!(matches!(
            kinds[0],
            PacketKind::Ack {
                cum_ack: 77,
                ce_echo: true,
                fin: false
            }
        ));
        assert!(matches!(kinds[1], PacketKind::Cnp));
    }

    #[test]
    fn sampler_fires_at_cadence() {
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.control_interval = None;
        let mut sim = Simulator::new(topo, cfg);
        let times: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let t2 = times.clone();
        sim.set_sampler(
            SimTime::from_us(100),
            Box::new(move |core| t2.borrow_mut().push(core.now())),
        );
        sim.run_until(SimTime::from_ms(1));
        let times = times.borrow();
        assert_eq!(times.len(), 10);
        for (i, t) in times.iter().enumerate() {
            assert_eq!(*t, SimTime::from_us(100 * (i as u64 + 1)));
        }
    }

    #[test]
    fn sampler_does_not_perturb_the_run() {
        let (mut s1, g1) = two_host_sim(25_000_000_000);
        let (mut s2, g2) = two_host_sim(25_000_000_000);
        s2.set_sampler(SimTime::from_us(10), Box::new(|_| {}));
        s1.run_until(SimTime::from_ms(1));
        s2.run_until(SimTime::from_ms(1));
        assert_eq!(
            *g1.borrow(),
            *g2.borrow(),
            "sampling must not change delivery"
        );
        assert_eq!(s1.core().total_drops, s2.core().total_drops);
    }

    #[test]
    fn pfc_pause_time_accumulates() {
        // Same overload as pfc_prevents_loss: the switch pauses the sending
        // hosts, so their NIC ports accumulate pause time on the RDMA class.
        let topo = TopologySpec::single_switch(9, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.buffer_bytes = 512 * 1024;
        let mut sim = Simulator::new(topo, cfg);
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.set_driver(hosts[8], Box::new(Sink { got: got.clone() }));
        for (i, &h) in hosts[..8].iter().enumerate() {
            sim.set_driver(
                h,
                Box::new(Blaster {
                    dst: hosts[8],
                    n: 1000,
                    flow: i as u64 + 1,
                    ecn: Ecn::Ect,
                }),
            );
            sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        }
        sim.run_until(SimTime::from_ms(50));
        assert!(sim.core().total_pfc_pauses > 0);
        let paused_total: u64 = hosts[..8]
            .iter()
            .map(|&h| sim.core().pfc_pause_time(h, PortId(0), PRIO_RDMA).as_ps())
            .sum();
        assert!(paused_total > 0, "hosts must have spent time paused");
        // Pause time on any one port cannot exceed the run length.
        for &h in &hosts[..8] {
            assert!(sim.core().pfc_pause_time(h, PortId(0), PRIO_RDMA) <= SimTime::from_ms(50));
        }
    }

    #[test]
    fn link_state_changes_are_traced() {
        let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.set_tracer(Tracer::new(crate::trace::TraceFilter::default(), 64));
        let sw = sim.core().topo.switches()[0];
        sim.core_mut().set_link_state(sw, PortId(0), false);
        sim.core_mut().set_link_state(sw, PortId(0), true);
        let events = sim.tracer_mut().unwrap().take();
        let downs = events
            .iter()
            .filter(|e| e.kind == TraceKind::LinkDown)
            .count();
        let ups = events
            .iter()
            .filter(|e| e.kind == TraceKind::LinkUp)
            .count();
        assert_eq!(downs, 2, "one LinkDown per endpoint");
        assert_eq!(ups, 2, "one LinkUp per endpoint");
        assert!(events.iter().any(|e| e.node == sw && e.port == PortId(0)));
    }

    #[test]
    fn loss_free_fault_plan_does_not_perturb() {
        use crate::fault::{FaultKind, FaultPlan};
        // A plan whose faults never fire within the horizon and draw no
        // randomness must leave the run bit-identical to a plan-free run.
        let (mut s1, g1) = two_host_sim(25_000_000_000);
        let (mut s2, g2) = two_host_sim(25_000_000_000);
        let sw = s2.core().topo.switches()[0];
        let plan =
            FaultPlan::new(99).at(SimTime::from_ms(500), FaultKind::SwitchReboot { node: sw });
        s2.install_fault_plan(&plan).unwrap();
        s1.run_until(SimTime::from_ms(1));
        s2.run_until(SimTime::from_ms(1));
        assert_eq!(*g1.borrow(), *g2.borrow());
        assert_eq!(s1.core().total_drops, s2.core().total_drops);
    }

    #[test]
    fn blackhole_drops_everything_and_partial_loss_some() {
        use crate::fault::{FaultKind, FaultPlan};
        let (mut sim, got) = two_host_sim(10_000_000_000);
        let sw = sim.core().topo.switches()[0];
        // Blackhole the switch's ingress from host 0 from t=0.
        let plan = FaultPlan::new(7).at(
            SimTime::ZERO,
            FaultKind::PacketLoss {
                node: sw,
                port: PortId(0),
                frac: 1.0,
            },
        );
        sim.install_fault_plan(&plan).unwrap();
        sim.run_until(SimTime::from_ms(10));
        assert_eq!(got.borrow().len(), 0, "blackhole delivers nothing");
        assert_eq!(sim.core().fault_drops, 100);
        assert_eq!(sim.core().total_drops, 100);

        let (mut sim, got) = two_host_sim(10_000_000_000);
        let sw = sim.core().topo.switches()[0];
        let plan = FaultPlan::new(7).at(
            SimTime::ZERO,
            FaultKind::PacketLoss {
                node: sw,
                port: PortId(0),
                frac: 0.3,
            },
        );
        sim.install_fault_plan(&plan).unwrap();
        sim.run_until(SimTime::from_ms(10));
        let delivered = got.borrow().len();
        assert!(
            delivered > 0 && delivered < 100,
            "partial loss: {delivered}"
        );
        assert_eq!(sim.core().fault_drops as usize, 100 - delivered);
    }

    #[test]
    fn degraded_link_slows_delivery_and_restores() {
        use crate::fault::FaultPlan;
        // 10G link degraded to 1G for the whole run: 100 packets take ~10x
        // longer than at full rate.
        let (mut fast, got_fast) = two_host_sim(10_000_000_000);
        fast.run_until(SimTime::from_ms(10));
        let fast_last = got_fast.borrow().last().unwrap().0;

        let (mut slow, got_slow) = two_host_sim(10_000_000_000);
        let hosts: Vec<NodeId> = slow.core().topo.hosts().to_vec();
        let plan = FaultPlan::new(0).degrade_window(
            hosts[0],
            PortId(0),
            1_000_000_000,
            SimTime::ZERO,
            SimTime::from_ms(5),
        );
        slow.install_fault_plan(&plan).unwrap();
        slow.run_until(SimTime::from_ms(10));
        assert_eq!(got_slow.borrow().len(), 100, "all delivered eventually");
        let slow_last = got_slow.borrow().last().unwrap().0;
        assert!(
            slow_last > fast_last.mul(4),
            "degraded run must be much slower: {slow_last:?} vs {fast_last:?}"
        );
    }

    #[test]
    fn switch_reboot_flushes_queues_and_resets_ecn() {
        use crate::fault::FaultKind;
        // Two 25G senders into one 25G sink builds a standing queue; a
        // reboot mid-run must empty it, release the buffer, and restore the
        // default ECN config over a controller-modified one.
        let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.set_driver(hosts[2], Box::new(Sink { got: got.clone() }));
        for (i, &h) in hosts[..2].iter().enumerate() {
            sim.set_driver(
                h,
                Box::new(Blaster {
                    dst: hosts[2],
                    n: 400,
                    flow: i as u64 + 1,
                    ecn: Ecn::Ect,
                }),
            );
            sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        }
        let sw = sim.core().topo.switches()[0];
        // Let the queue build, then tamper with the config and reboot.
        sim.run_until(SimTime::from_us(60));
        assert!(sim.core().buffer_used(sw) > 0, "queue must have built");
        let default_ecn = sim.core().cfg.port.ecn[PRIO_RDMA as usize];
        sim.core_mut().queue_mut(sw, PortId(2), PRIO_RDMA).ecn =
            Some(crate::queues::EcnConfig::new(1, 2, 1.0));
        sim.core_mut()
            .apply_fault(FaultKind::SwitchReboot { node: sw });
        assert!(sim.core().fault_drops > 0, "flushed packets counted");
        let buffered = sim.core().buffer_used(sw);
        // At most the one in-flight packet can still be charged.
        assert!(buffered <= 2000, "buffer released on reboot: {buffered}");
        assert_eq!(
            sim.core().queue(sw, PortId(2), PRIO_RDMA).ecn,
            default_ecn,
            "ECN reverts to the static default"
        );
        // The run continues and the remaining traffic drains cleanly.
        sim.run_until(SimTime::from_ms(20));
        assert!(!got.borrow().is_empty());
    }

    #[test]
    fn telemetry_freeze_and_blank_distort_reads_not_ground_truth() {
        use crate::fault::FaultKind;
        let (mut sim, _got) = two_host_sim(10_000_000_000);
        let sw = sim.core().topo.switches()[0];
        sim.run_until(SimTime::from_us(50));
        let live = sim.core().queue_telem(sw, PortId(1), PRIO_RDMA);
        assert!(live.enq_pkts > 0, "traffic flowed");
        assert!(
            sim.core()
                .faulted_reading(sw, PortId(1), PRIO_RDMA)
                .is_none(),
            "healthy reads are undistorted"
        );
        sim.core_mut()
            .apply_fault(FaultKind::TelemetryFreeze { node: sw });
        let (q0, t0) = sim
            .core()
            .faulted_reading(sw, PortId(1), PRIO_RDMA)
            .unwrap();
        sim.run_until(SimTime::from_ms(10));
        let (q1, t1) = sim
            .core()
            .faulted_reading(sw, PortId(1), PRIO_RDMA)
            .unwrap();
        assert_eq!((q0, t0), (q1, t1), "frozen reads never move");
        let truth = sim.core().queue_telem(sw, PortId(1), PRIO_RDMA);
        assert!(truth.enq_pkts > t1.enq_pkts, "ground truth kept advancing");
        sim.core_mut()
            .apply_fault(FaultKind::TelemetryBlank { node: sw });
        let (qb, tb) = sim
            .core()
            .faulted_reading(sw, PortId(1), PRIO_RDMA)
            .unwrap();
        assert_eq!(qb, 0);
        assert_eq!(tb, QueueTelemetry::default());
        sim.core_mut()
            .apply_fault(FaultKind::TelemetryRestore { node: sw });
        assert!(sim
            .core()
            .faulted_reading(sw, PortId(1), PRIO_RDMA)
            .is_none());
    }

    #[test]
    fn fault_log_records_and_drains() {
        use crate::fault::{FaultKind, FaultPlan};
        let (mut sim, _got) = two_host_sim(10_000_000_000);
        let sw = sim.core().topo.switches()[0];
        let plan = FaultPlan::new(1)
            .link_flap(sw, PortId(0), SimTime::from_us(10), SimTime::from_us(20))
            .at(SimTime::from_us(30), FaultKind::SwitchReboot { node: sw });
        sim.install_fault_plan(&plan).unwrap();
        sim.run_until(SimTime::from_ms(1));
        let log = sim.core_mut().drain_fault_log();
        let kinds: Vec<&str> = log.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["link_down", "link_up", "switch_reboot"]);
        assert_eq!(log[0].at, SimTime::from_us(10));
        assert!(sim.core_mut().drain_fault_log().is_empty(), "drained");
    }
}
