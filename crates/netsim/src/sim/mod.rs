//! The simulation engine, one layer per file:
//!
//! * `mod.rs` (this file) — the state structs ([`SimCore`], its ports and
//!   nodes), the **datapath** every packet event runs (`host_enqueue`,
//!   `try_send`, `on_tx_done`, `send_pfc`, `on_pfc_update`, `switch_rx`:
//!   RED/ECN marking, shared-buffer accounting, dynamic-threshold PFC, DWRR)
//!   and the **event loop** ([`Simulator::step`] and the `run_*` drivers).
//!   They stay in one module so the hot path compiles as one unit.
//! * `faults.rs` — **fault execution**: link state, rate and loss faults,
//!   switch reboot, telemetry freeze/blank, fault-plan installation, and
//!   the single function that reports an executed fault: to the fault log
//!   and through the probe.
//! * `probe.rs` — **the probe point**: the one value (`Happening`) every
//!   happening above that the self-profiler keeps is reported as, and the
//!   profiler it reaches.
//! * `sharding.rs` — **shard plumbing**: canonical event keys, outboxes
//!   and remote injection, node ownership and the per-node RNG streams
//!   (every core is one shard of a partition, [`Simulator::new`]'s of the
//!   one-shard partition; the protocol itself is [`crate::shard`]).
//!
//! The children are ordinary child modules: they reach the private fields
//! of the state structs, and nothing is more visible than it was when this
//! was one file.

mod faults;
mod probe;
mod sharding;

pub(crate) use probe::Happening;

use crate::buffer::SharedBuffer;
use crate::config::{PortConfig, SimConfig};
use crate::control::{ControllerHost, QueueController, SwitchView, ViewBackend};
use crate::driver::{HostCtx, NicDriver};
use crate::event::{Event, EventQueue};
use crate::fault::{FaultLogEntry, TelemFault};
use crate::ids::{NodeId, PortId, Prio};
use crate::packet::{Packet, HEADER_BYTES};
use crate::profile::{event_kind, SimProfiler};
use crate::queues::{dwrr_pick, DwrrClass, EgressQueue, QItem, QueueArena, QueueTelemetry};
use crate::routing::RouteTable;
use crate::shard::{RemoteEvent, ShardPlan, MAX_KEYED_NODES};
use crate::time::{tx_time, SimTime};
use crate::topology::{NodeKind, PortInfo, Topology};
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Instant;

/// On-wire size of a PFC pause frame (only used for its serialization delay).
const PFC_FRAME_BYTES: u64 = 64;

/// The packet currently being serialized by a port's transmitter.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    size: u32,
    /// Ingress port the bytes were charged to (switches only).
    ingress: Option<PortId>,
    prio: Prio,
}

/// One port's header — the constants of the link it drives, its transmitter
/// and PFC state, flags, loss fraction and DWRR round pointer — as one
/// pointer-free cache line of the core's flat port table. The port's
/// classes are rows of the core's class table (see [`ClassRow`]).
///
/// `repr(C)`: declaration order is memory order; `align(64)` keeps every
/// header on a line of its own, so ports never share one.
#[repr(C, align(64))]
pub(crate) struct PortState {
    /// Propagation delay of the attached link.
    delay: SimTime,
    /// Serialization rate in force, bits/s: the topology's, or the degraded
    /// rate a fault injected.
    rate_bps: u64,
    /// The node and port at the far end of the link.
    peer_node: NodeId,
    peer_port: PortId,
    /// Whether this port's node is a host: the event loop asks the port
    /// it is about to touch anyway, not the topology.
    is_host: bool,
    /// Administrative/physical link state (fault injection).
    link_up: bool,
    /// Bitmask of classes paused by PFC frames we *received*.
    paused: u8,
    /// Bitmask of classes for which we have *sent* PAUSE upstream (ingress
    /// side of this port) and not yet resumed.
    pfc_sent: u8,
    /// The packet the transmitter is serializing; `None` = idle.
    in_flight: Option<InFlight>,
    /// The class the DWRR round-robin pointer rests on.
    dwrr_ptr: u8,
    /// Fraction of arrivals on this port black-holed (fault injection).
    loss_frac: f64,
    /// PAUSE events sent from the ingress side of this port.
    pfc_pause_events: u64,
}

impl PortState {
    fn new(link: &PortInfo, is_host: bool) -> Self {
        PortState {
            delay: link.delay,
            rate_bps: link.rate_bps,
            peer_node: link.peer_node,
            peer_port: link.peer_port,
            is_host,
            link_up: true,
            paused: 0,
            pfc_sent: 0,
            in_flight: None,
            dwrr_ptr: 0,
            loss_frac: 0.0,
            pfc_pause_events: 0,
        }
    }

    /// Close the running PFC pause of class `prio` (whose row is `row`), if
    /// any: clear its bit in `paused` and fold it into the row's
    /// `pause_ps`; returns its length in picoseconds.
    #[inline]
    fn end_pause(&mut self, row: &mut ClassRow, prio: usize, now: SimTime) -> Option<u64> {
        let bit = 1u8 << prio;
        if self.paused & bit == 0 {
            return None;
        }
        self.paused &= !bit;
        let dur = (now - row.pause_since).as_ps();
        row.pause_ps += dur;
        Some(dur)
    }
}

/// One traffic class of one port: its FIFO, its DWRR state, its counters,
/// the bytes buffered in this switch that arrived through the port in this
/// class, and its pause accounting — three cache lines of the core's flat
/// class table, `num_prios` rows per held port.
///
/// `repr(C)`: the first line holds the ingress counter, the scheduler
/// state and the queue's list scalars, depth, bound and clock — all a DWRR
/// scan reads of a class it passes, and all an arrival through the port
/// touches; the marking configuration and the telemetry record follow, and
/// pause accounting comes last.
#[repr(C, align(64))]
pub(crate) struct ClassRow {
    /// Ingress byte counter: bytes buffered in this switch that arrived
    /// through this port in this class.
    ingress_bytes: u64,
    sched: DwrrClass,
    queue: EgressQueue,
    telem: QueueTelemetry,
    /// Cumulative time this class of the port's transmitter has spent
    /// paused by received PFC frames, in picoseconds.
    pause_ps: u64,
    /// When the running pause began; meaningful only while the class's bit
    /// is set in the header's `paused`.
    pause_since: SimTime,
}

impl ClassRow {
    fn new(pc: &PortConfig, prio: usize) -> Self {
        ClassRow {
            ingress_bytes: 0,
            sched: DwrrClass::new(pc.weights[prio]),
            queue: EgressQueue::new(prio, pc.max_queue_bytes[prio], pc.ecn[prio]),
            telem: QueueTelemetry::default(),
            pause_ps: 0,
            pause_since: SimTime::ZERO,
        }
    }
}

impl AsMut<DwrrClass> for ClassRow {
    #[inline]
    fn as_mut(&mut self) -> &mut DwrrClass {
        &mut self.sched
    }
}

/// The class rows of a core's held ports: `prios` rows per port, in the
/// order of the port table — class `prio` of the port at flat index `i` is
/// row `i * prios + prio`.
struct ClassTable {
    rows: Vec<ClassRow>,
    /// Classes per port (`cfg.port.num_prios` at construction).
    prios: usize,
}

impl ClassTable {
    /// The rows of the port at flat index `i`; indexing the slice checks a
    /// class against `num_prios`.
    #[inline]
    fn of(&self, i: usize) -> &[ClassRow] {
        &self.rows[i * self.prios..][..self.prios]
    }

    #[inline]
    fn of_mut(&mut self, i: usize) -> &mut [ClassRow] {
        &mut self.rows[i * self.prios..][..self.prios]
    }

    /// The rows of the ports at flat indices `ports`.
    fn of_ports_mut(&mut self, ports: std::ops::Range<usize>) -> &mut [ClassRow] {
        &mut self.rows[ports.start * self.prios..ports.end * self.prios]
    }
}

/// Per-node state that is not per-port.
pub(crate) struct NodeState {
    /// Shared packet buffer — switches this core owns only.
    buffer: Option<SharedBuffer>,
    /// Active telemetry-read distortion (fault injection).
    telem_fault: Option<TelemFault>,
}

/// The link state of every port a core does not hold. A sharded core
/// builds no [`PortState`] for a foreign node, but faults replicate into
/// every shard and the route rebuild reads every link, so a foreign port's
/// up/down bit lives here — and only here; an owned port's lives in its
/// block. Empty on a core that owns every node.
struct ForeignLinks {
    /// Where each node's entries start in `up`, plus one closing entry; an
    /// owned node's range is empty.
    base: Vec<u32>,
    up: Vec<bool>,
}

impl ForeignLinks {
    fn new(topo: &Topology, shard: &ShardCtx) -> Self {
        let (mut base, mut held) = (Vec::new(), 0u32);
        if shard.owner_of.iter().any(|&o| o != shard.my_shard) {
            base.reserve_exact(topo.nodes.len() + 1);
            for (i, n) in topo.nodes.iter().enumerate() {
                base.push(held);
                if !shard.owns(NodeId(i as u32)) {
                    held += n.ports.len() as u32;
                }
            }
            base.push(held);
        }
        ForeignLinks {
            base,
            up: vec![true; held as usize],
        }
    }

    fn slot(&self, node: NodeId, port: PortId) -> usize {
        let i = self.base[node.idx()] as usize + port.idx();
        assert!(
            i < self.base[node.idx() + 1] as usize,
            "{node:?} has no {port:?}"
        );
        i
    }

    fn is_up(&self, node: NodeId, port: PortId) -> bool {
        self.up[self.slot(node, port)]
    }

    fn set(&mut self, node: NodeId, port: PortId, up: bool) {
        let i = self.slot(node, port);
        self.up[i] = up;
    }
}

/// A [`SimCore`]'s place in its partition (see [`crate::shard`]; one shard
/// of one for [`Simulator::new`]): ownership map, the event-key state,
/// staged cross-shard events, and the per-node RNG streams that make a
/// node's random draws independent of its thread placement.
struct ShardCtx {
    my_shard: u32,
    n_shards: u32,
    owner_of: Vec<u32>,
    /// Outbound cross-shard events staged per destination shard; drained by
    /// the run loop after each processing slice ([`SimCore::drain_outbox_into`]).
    /// This shard's own entry stays empty and unallocated.
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
    /// The header of every port of every node this core owns, node after
    /// node: (`node`, `port`) lives at `ports[port_base[node] + port]`.
    ports: Vec<PortState>,
    /// The class rows of those ports.
    classes: ClassTable,
    /// Where each node's ports start in `ports`; one extra entry closes the
    /// last node's range. A foreign node's range is empty.
    port_base: Vec<u32>,
    /// Link state of the ports of foreign nodes.
    foreign_links: ForeignLinks,
    pub(crate) nodes: Vec<NodeState>,
    /// The slab behind every egress FIFO of this core (see [`QueueArena`]):
    /// enqueue/dequeue never allocates at steady state.
    arena: QueueArena,
    /// Slots `arena` was created with.
    arena_reserved: usize,
    /// Ports that are down or lossy; while 0, the per-arrival fault check
    /// does not look at the ingress port.
    impaired_ports: usize,
    pub(crate) routes: RouteTable,
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
    /// Executed faults awaiting collection by [`SimCore::drain_fault_log`].
    fault_log: Vec<FaultLogEntry>,
    /// Entries discarded because the log hit its cap (`FAULT_LOG_CAP`) between
    /// drains. Surfaced in run manifests so a soak run that outpaces its
    /// sampler is visible rather than silently lossy.
    pub fault_log_dropped: u64,
    /// Cumulative count of faults executed, independent of the (drainable,
    /// capped) fault log — the number a long soak reports at the end.
    pub faults_executed: u64,
    /// The self-profiler, when installed (see `probe.rs`). `None` (the
    /// default) costs one pointer check per probe and per dispatch; it sees
    /// the run, never steers it.
    prof: Option<Box<SimProfiler>>,
    /// Reused scratch for the PFC resumes a reboot sends upstream.
    resume_scratch: Vec<(PortId, Prio)>,
    /// Recycled telemetry-freeze snapshot storage: when a freeze ends, its
    /// buffer parks here so the next freeze reuses the capacity.
    telem_snap_pool: Vec<(u64, QueueTelemetry)>,
    /// This core's shard: every event is keyed and every random draw comes
    /// from a per-node stream through it, whatever the shard count.
    shard: Box<ShardCtx>,
}

impl SimCore {
    /// A core for the shard `shard` describes.
    fn new(topo: Topology, cfg: SimConfig, shard: Box<ShardCtx>) -> Self {
        cfg.validate();
        assert!(
            topo.nodes.len() <= MAX_KEYED_NODES,
            "{} nodes do not fit the event key's node field",
            topo.nodes.len()
        );
        // Only owned nodes get ports and a buffer: a foreign node's events
        // route to its owner, so nothing ever queues on its ports here.
        let owned = |i: usize| shard.owns(NodeId(i as u32));
        let held = topo.nodes.iter().enumerate().filter(|&(i, _)| owned(i));
        let held_ports: usize = held.map(|(_, n)| n.ports.len()).sum();
        let prios = cfg.port.num_prios;
        let mut ports = Vec::with_capacity(held_ports);
        let mut rows = Vec::with_capacity(held_ports * prios);
        let mut port_base = Vec::with_capacity(topo.nodes.len() + 1);
        let mut nodes = Vec::with_capacity(topo.nodes.len());
        for (i, n) in topo.nodes.iter().enumerate() {
            let is_host = n.kind == NodeKind::Host;
            port_base.push(ports.len() as u32);
            if owned(i) {
                for link in &n.ports {
                    ports.push(PortState::new(link, is_host));
                    rows.extend((0..prios).map(|p| ClassRow::new(&cfg.port, p)));
                }
            }
            nodes.push(NodeState {
                buffer: (!is_host && owned(i))
                    .then(|| SharedBuffer::new(cfg.buffer_bytes, cfg.pfc_alpha, cfg.pfc_xon_frac)),
                telem_fault: None,
            });
        }
        port_base.push(ports.len() as u32);
        let foreign_links = ForeignLinks::new(&topo, &shard);
        // The one packet slab is sized from the switches this core owns —
        // their shared buffers are where a fabric's backlog stands — up to
        // the MTU packets one shared buffer holds (see `arena_slots`).
        let owned_switches = topo.switches().iter().filter(|&&sw| shard.owns(sw)).count();
        let owned_nodes = (0..topo.nodes.len()).filter(|&i| owned(i)).count();
        let one_buffer = cfg.buffer_bytes / u64::from(cfg.mtu_payload + HEADER_BYTES);
        let arena_reserved =
            (cfg.port.arena_slots * owned_switches.max(1)).min(one_buffer as usize);
        let routes = RouteTable::build(&topo);
        SimCore {
            cfg,
            now: SimTime::ZERO,
            // The events in flight scale with the ports of the nodes this
            // core simulates.
            events: EventQueue::sized_for(owned_nodes),
            topo,
            ports,
            classes: ClassTable { rows, prios },
            port_base,
            foreign_links,
            nodes,
            arena: QueueArena::with_capacity(arena_reserved),
            arena_reserved,
            impaired_ports: 0,
            routes,
            total_drops: 0,
            lossless_drops: 0,
            unroutable_drops: 0,
            fault_drops: 0,
            total_pfc_pauses: 0,
            events_processed: 0,
            fault_log: Vec::new(),
            fault_log_dropped: 0,
            faults_executed: 0,
            prof: None,
            resume_scratch: Vec::new(),
            telem_snap_pool: Vec::new(),
            shard,
        }
    }

    /// Index of (`node`, `port`) in the flat port table, which holds the
    /// ports of owned nodes only.
    #[inline]
    fn port_index(&self, node: NodeId, port: PortId) -> usize {
        let ports = self.ports_of(node);
        if port.idx() >= ports.len() {
            self.no_port(node, port);
        }
        ports.start + port.idx()
    }

    #[cold]
    #[inline(never)]
    fn no_port(&self, node: NodeId, port: PortId) -> ! {
        let sc = &self.shard;
        if !sc.owns(node) {
            let owner = sc.owner_of[node.idx()];
            panic!(
                "shard {} holds no ports of {node:?}: shard {owner} owns it",
                sc.my_shard
            );
        }
        panic!("{node:?} has no {port:?}")
    }

    /// Ports this core holds — a header and `num_prios` class rows each:
    /// every port of every node it owns, and none of a foreign node's.
    pub fn ports_held(&self) -> usize {
        self.ports.len()
    }

    #[inline]
    fn port(&self, node: NodeId, port: PortId) -> &PortState {
        &self.ports[self.port_index(node, port)]
    }

    #[inline]
    fn port_mut(&mut self, node: NodeId, port: PortId) -> &mut PortState {
        let i = self.port_index(node, port);
        &mut self.ports[i]
    }

    /// Every port of `node`, in port order.
    #[inline]
    fn ports_of(&self, node: NodeId) -> std::ops::Range<usize> {
        self.port_base[node.idx()] as usize..self.port_base[node.idx() + 1] as usize
    }

    /// Class `prio` of (`node`, `port`).
    #[inline]
    fn class(&self, node: NodeId, port: PortId, prio: Prio) -> &ClassRow {
        &self.classes.of(self.port_index(node, port))[prio as usize]
    }

    #[inline]
    fn class_mut(&mut self, node: NodeId, port: PortId, prio: Prio) -> &mut ClassRow {
        let i = self.port_index(node, port);
        &mut self.classes.of_mut(i)[prio as usize]
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn schedule(&mut self, at: SimTime, ev: Event) {
        debug_assert!(at >= self.now, "scheduling into the past");
        // Keyed canonically, and diverted when another shard owns the
        // target (see `sharding.rs`).
        self.shard.schedule(&mut self.events, at, ev);
    }

    pub(crate) fn schedule_host_timer(&mut self, at: SimTime, host: NodeId, token: u64) {
        let at = at.max(self.now);
        self.schedule(at, Event::HostTimer { host, token });
    }

    /// Highest number of simultaneously pending events observed so far —
    /// the event queue's high-water mark, exported into run manifests and
    /// bounded by `acc-bench`'s `engine_counts` test.
    pub fn event_queue_peak(&self) -> u64 {
        self.events.peak_len() as u64
    }

    /// Pending events the event queue holds before it next allocates
    /// ([`crate::event::EventQueue::capacity`]): while the peak is at or
    /// below it, the queue has never grown.
    pub fn event_queue_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Timing-wheel push-tier and migration counters for this run's event
    /// queue — exported by the self-profiler into `acc-bench` profile
    /// artifacts.
    pub fn event_queue_stats(&self) -> crate::event::QueueStats {
        self.events.stats()
    }

    /// Packets the core's slab was sized for at construction
    /// ([`crate::config::PortConfig::arena_slots`] per owned switch, at
    /// most the MTU packets one shared buffer holds, because PFC keeps a
    /// switch's backlog below its buffer), and the most it has held queued
    /// at once: while the second is at or below the first, the packet path
    /// has never grown the slab.
    pub fn arena_slots(&self) -> (usize, usize) {
        (self.arena_reserved, self.arena.slot_count())
    }

    /// Mutable access to an egress queue (telemetry sync / reconfiguration
    /// from harness code).
    pub fn queue_mut(&mut self, node: NodeId, port: PortId, prio: Prio) -> &mut EgressQueue {
        &mut self.class_mut(node, port, prio).queue
    }

    /// Read-only access to an egress queue (harness/telemetry use).
    pub fn queue(&self, node: NodeId, port: PortId, prio: Prio) -> &EgressQueue {
        &self.class(node, port, prio).queue
    }

    /// Assembled per-queue telemetry view of (`node`, `port`, `prio`).
    /// The queue-length time integral is only current up to the queue's
    /// last push/pop; use [`Self::synced_queue_telem`] when reading it.
    pub fn queue_telem(&self, node: NodeId, port: PortId, prio: Prio) -> QueueTelemetry {
        self.class(node, port, prio).telem
    }

    /// Bring one queue's time-integral up to the current simulated time and
    /// return the assembled telemetry view.
    pub fn synced_queue_telem(&mut self, node: NodeId, port: PortId, prio: Prio) -> QueueTelemetry {
        let now = self.now;
        let row = self.class_mut(node, port, prio);
        row.queue.sync_clock(&mut row.telem, now);
        row.telem
    }

    /// PFC PAUSE events sent upstream from the ingress side of one port.
    pub fn pfc_pauses_of_port(&self, node: NodeId, port: PortId) -> u64 {
        self.port(node, port).pfc_pause_events
    }

    /// Cumulative time class `prio` of (`node`, `port`)'s transmitter has
    /// spent paused by received PFC frames, including any pause still in
    /// progress at the current simulated time.
    pub fn pfc_pause_time(&self, node: NodeId, port: PortId, prio: Prio) -> SimTime {
        let row = self.class(node, port, prio);
        let mut total = row.pause_ps;
        if self.port(node, port).paused & (1u8 << prio) != 0 {
            total += (self.now - row.pause_since).as_ps();
        }
        SimTime::from_ps(total)
    }

    pub(crate) fn host_backlog(&self, host: NodeId, prio: Prio) -> u64 {
        self.class(host, PortId(0), prio).queue.bytes()
    }

    /// Enqueue a host-originated packet on the host's NIC and kick the
    /// transmitter.
    pub(crate) fn host_enqueue(&mut self, host: NodeId, pkt: Packet) {
        debug_assert!(self.topo.is_host(host));
        let now = self.now;
        let i = self.port_index(host, PortId(0));
        // Packets enter the fabric here only, and indexing the port's rows
        // panics on a class it does not have: none reaches a switch.
        let row = &mut self.classes.of_mut(i)[pkt.prio as usize];
        // Host NICs have effectively unbounded send memory (the transport's
        // windows/rate limits bound it in practice); no drop here.
        row.queue.push(
            &mut self.arena,
            &mut row.telem,
            QItem { pkt, ingress: None },
            now,
        );
        self.try_send(host, PortId(0));
    }

    /// If the transmitter of (node, port) is idle, pick the next packet by
    /// DWRR (honouring PFC pause) and start serializing it.
    fn try_send(&mut self, node: NodeId, port: PortId) {
        let i = self.port_index(node, port);
        let ps = &mut self.ports[i];
        if ps.in_flight.is_some() || !ps.link_up {
            return;
        }
        let rows = self.classes.of_mut(i);
        let nonempty = (0..rows.len())
            .filter(|&c| !rows[c].queue.is_empty())
            .fold(0u8, |m, c| m | 1 << c);
        let arena = &mut self.arena;
        let head = |_: usize, row: &ClassRow| row.queue.head_size(arena).expect("non-empty");
        let Some(prio) = dwrr_pick(rows, &mut ps.dwrr_ptr, nonempty, ps.paused, head) else {
            return;
        };
        let now = self.now;
        let row = &mut rows[prio];
        let item = row
            .queue
            .pop(arena, &mut row.telem, now)
            .expect("dwrr picked an empty queue");
        ps.in_flight = Some(InFlight {
            size: item.pkt.size,
            ingress: item.ingress,
            prio: item.pkt.prio,
        });
        let ser = tx_time(item.pkt.size as u64, ps.rate_bps);
        let (delay, peer_node, peer_port) = (ps.delay, ps.peer_node, ps.peer_port);
        self.schedule(now + ser, Event::TxDone { node, port });
        self.schedule(
            now + ser + delay,
            Event::Arrive {
                node: peer_node,
                port: peer_port,
                pkt: item.pkt,
            },
        );
    }

    /// Transmitter finished: release buffer accounting, maybe send PFC
    /// RESUME, and start the next packet.
    fn on_tx_done(&mut self, node: NodeId, port: PortId) {
        let inflight = self.port_mut(node, port).in_flight.take();
        let inflight = inflight.expect("TxDone without in-flight packet");

        if let Some(ingress) = inflight.ingress {
            // Switch: give the bytes back to the shared pool and the ingress
            // counter, then re-evaluate the PFC state of that ingress.
            let i = self.port_index(node, ingress);
            let buffer = &mut self.nodes[node.idx()].buffer;
            if let Some(buf) = buffer.as_mut() {
                buf.release(inflight.size);
            }
            let prio = inflight.prio as usize;
            let ib = &mut self.classes.of_mut(i)[prio].ingress_bytes;
            debug_assert!(*ib >= inflight.size as u64);
            *ib -= inflight.size as u64;
            let left = *ib;
            let ip = &mut self.ports[i];
            let bit = 1u8 << (inflight.prio & 7);
            let resume = |b: &SharedBuffer| b.should_resume(left);
            if ip.pfc_sent & bit != 0 && buffer.as_ref().is_none_or(resume) {
                ip.pfc_sent &= !bit;
                self.send_pfc(node, ingress, inflight.prio, false);
            }
        }
        self.try_send(node, port);
    }

    /// Deliver a PFC pause/resume to the peer of `ingress` on `node`.
    fn send_pfc(&mut self, node: NodeId, ingress: PortId, prio: Prio, pause: bool) {
        let i = self.port_index(node, ingress);
        let ip = &mut self.ports[i];
        let at = self.now + tx_time(PFC_FRAME_BYTES, ip.rate_bps) + ip.delay;
        let (peer_node, peer_port) = (ip.peer_node, ip.peer_port);
        if pause {
            ip.pfc_pause_events += 1;
            self.total_pfc_pauses += 1;
        }
        self.schedule(
            at,
            Event::PfcUpdate {
                node: peer_node,
                port: peer_port,
                prio,
                pause,
            },
        );
    }

    fn on_pfc_update(&mut self, node: NodeId, port: PortId, prio: Prio, pause: bool) {
        let bit = 1u8 << (prio & 7);
        let now = self.now;
        let i = self.port_index(node, port);
        let ps = &mut self.ports[i];
        if !ps.link_up {
            // A pause landing on a downed port would stick forever: the
            // sender's pfc_sent state was cleared when the link failed, so
            // no resume would ever arrive. Drop it with the link.
            return;
        }
        let row = &mut self.classes.of_mut(i)[prio as usize];
        if pause {
            if ps.paused & bit == 0 {
                row.pause_since = now;
            }
            ps.paused |= bit;
        } else {
            if let Some(dur_ps) = ps.end_pause(row, prio as usize, now) {
                self.probe(Happening::PauseEnd { dur_ps });
            }
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
        let bit = 1u8 << (pkt.prio & 7);
        let now = self.now;
        let (out, inp) = (
            self.port_index(node, out_port),
            self.port_index(node, in_port),
        );

        // Admission: per-queue drop-tail bound and shared-buffer capacity.
        let row = &mut self.classes.of_mut(out)[prio];
        let q = &row.queue;
        let buffer = self.nodes[node.idx()].buffer.as_ref();
        if q.would_overflow(pkt.size) || buffer.is_some_and(|b| !b.can_admit(pkt.size)) {
            self.total_drops += 1;
            if self.cfg.lossless_mask & bit != 0 {
                self.lossless_drops += 1;
            }
            let qlen = q.bytes();
            q.record_drop(&mut row.telem);
            self.probe(Happening::Drop { qlen });
            return;
        }

        // RED/ECN marking against the instantaneous egress queue depth.
        if pkt.ecn.markable() {
            let ecn_at = q.ecn.map(|cfg| (cfg, q.marking_qlen()));
            if let Some((cfg, qlen)) = ecn_at {
                let p = cfg.mark_probability(qlen);
                let marked = p >= 1.0 || (p > 0.0 && self.node_rng(node).gen::<f64>() < p);
                if marked {
                    pkt.ecn = crate::packet::Ecn::Ce;
                    self.probe(Happening::CeMark { qlen });
                }
            }
        }

        // Charge the shared buffer and the ingress counter; evaluate Xoff.
        if let Some(buf) = self.nodes[node.idx()].buffer.as_mut() {
            buf.charge(pkt.size);
            let ib = &mut self.classes.of_mut(inp)[prio].ingress_bytes;
            *ib += pkt.size as u64;
            let ingress = *ib;
            let ip = &mut self.ports[inp];
            let lossless = self.cfg.lossless_mask & bit != 0;
            if lossless && ip.pfc_sent & bit == 0 && buf.should_pause(ingress) {
                ip.pfc_sent |= bit;
                self.send_pfc(node, in_port, pkt.prio, true);
            }
        }

        let row = &mut self.classes.of_mut(out)[prio];
        row.queue.push(
            &mut self.arena,
            &mut row.telem,
            QItem {
                pkt,
                ingress: Some(in_port),
            },
            now,
        );
        self.try_send(node, out_port);
    }

    /// Total bytes currently buffered in a switch.
    pub fn buffer_used(&self, node: NodeId) -> u64 {
        self.nodes[node.idx()].buffer.as_ref().map_or(0, |b| b.used)
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
    /// Build a simulator for `topo` with the given configuration: the one
    /// shard of a one-shard [`ShardPlan`], so it runs exactly what
    /// [`Simulator::new_sharded`] runs on any partition of the same
    /// topology, one shard at a time.
    ///
    /// Hosts start without drivers (packets delivered to a driverless host
    /// are counted and discarded); switches start without controllers (the
    /// initial ECN configuration stays in force — i.e. a static-ECN network).
    pub fn new(topo: Topology, cfg: SimConfig) -> Self {
        let plan = ShardPlan::build(&topo, 1);
        Self::new_sharded(topo, cfg, &plan, 0)
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
    /// is a silent no-op: a full-topology installer may run unchanged in
    /// every shard, and each host's driver ends up alive only in the shard
    /// that owns it. Installers that build a costly driver ask
    /// [`SimCore::owns_node`] first (`transport::install_stacks` does).
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

    /// Run `f` on `host`'s driver with the core borrowed beside it: the
    /// driver leaves its slot for the call, so [`HostCtx`] can hold the core
    /// mutably. `None` (and `f` not run) when the host has no driver — a
    /// driverless host discards what reaches it, and so does a host this
    /// shard does not own.
    #[inline]
    fn dispatch_driver<R>(
        &mut self,
        host: NodeId,
        f: impl FnOnce(&mut dyn NicDriver, &mut HostCtx<'_>) -> R,
    ) -> Option<R> {
        let mut d = self.drivers[host.idx()].take()?;
        let mut ctx = HostCtx {
            core: &mut self.core,
            host,
        };
        let r = f(d.as_mut(), &mut ctx);
        self.drivers[host.idx()] = Some(d);
        Some(r)
    }

    /// [`Self::dispatch_driver`] for `switch`'s controller and a
    /// [`SwitchView`].
    #[inline]
    fn dispatch_controller<R>(
        &mut self,
        switch: NodeId,
        f: impl FnOnce(&mut dyn QueueController, &mut SwitchView<'_>) -> R,
    ) -> Option<R> {
        let mut c = self.controllers[switch.idx()].take()?;
        let mut view = SwitchView {
            backend: ViewBackend::Packet(&mut self.core),
            node: switch,
        };
        let r = f(c.as_mut(), &mut view);
        self.controllers[switch.idx()] = Some(c);
        Some(r)
    }

    /// Run `f`; with profiling on, record its wall-clock span. Wall-clock
    /// only — the simulated trajectory is untouched either way.
    fn spanned(&mut self, name: &'static str, cat: &'static str, f: impl FnOnce(&mut Self)) {
        let t0 = self.core.profiler().map(|_| Instant::now());
        f(self);
        let sim_us = self.core.now.as_us_f64();
        if let (Some(t0), Some(p)) = (t0, self.core.profiler_mut()) {
            p.span(name, cat, t0, format!("sim_us={sim_us:.1}"));
        }
    }

    /// Run driver code for `host` outside of an event (e.g. to start flows).
    pub fn with_driver<R>(
        &mut self,
        host: NodeId,
        f: impl FnOnce(&mut dyn NicDriver, &mut HostCtx<'_>) -> R,
    ) -> R {
        self.dispatch_driver(host, f)
            .expect("host has no driver installed")
    }

    /// Run controller code for `switch` outside of a tick (e.g. to extract a
    /// trained model).
    pub fn with_controller<R>(
        &mut self,
        switch: NodeId,
        f: impl FnOnce(&mut dyn QueueController, &mut SwitchView<'_>) -> R,
    ) -> R {
        self.dispatch_controller(switch, f)
            .expect("switch has no controller installed")
    }

    /// Process a single event. Returns `false` when the event queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_through(SimTime::MAX)
    }

    /// Process the earliest event if it fires at or before `limit`.
    /// Returns `false` when nothing is due.
    fn step_through(&mut self, limit: SimTime) -> bool {
        // Self-profiling: disabled this is one pointer check; enabled it
        // reads the wall clock around the queue and the handler on
        // 1-in-SAMPLE_EVERY dispatches and tallies the kind on all of
        // them. Wall-clock only — the simulated trajectory is untouched
        // either way.
        let queue_t0 = self.core.profiler().map(|p| p.queue_begin());
        if self.core.events.peek_time().is_none_or(|t| t > limit) {
            return false;
        }
        let s = self.core.events.pop().expect("peeked an event");
        debug_assert!(s.time >= self.core.now, "time went backwards");
        self.core.now = s.time;
        self.core.events_processed += 1;
        let prof_t0 = queue_t0.and_then(|q0| {
            let p = self.core.profiler_mut()?;
            Some((event_kind(&s.event), p.dispatch_begin_after_queue(q0)))
        });
        match s.event {
            Event::Arrive { node, port, pkt } => {
                if self.core.rx_fault_drop(node, port) {
                    // Lost to a downed link or injected loss: counted,
                    // never delivered.
                } else if self.core.port(node, port).is_host {
                    self.dispatch_driver(node, |d, ctx| d.on_packet(&pkt, ctx));
                } else {
                    self.core.switch_rx(node, port, pkt);
                }
            }
            Event::TxDone { node, port } => {
                self.core.on_tx_done(node, port);
                // Hosts get the completion signal so deferred sends resume.
                if self.core.port(node, port).is_host {
                    self.dispatch_driver(node, |d, ctx| d.on_tx_ready(ctx));
                }
            }
            Event::PfcUpdate {
                node,
                port,
                prio,
                pause,
            } => self.core.on_pfc_update(node, port, prio, pause),
            Event::HostTimer { host, token } => {
                self.dispatch_driver(host, |d, ctx| d.on_timer(token, ctx));
            }
            Event::ControlTick => {
                self.spanned("control_tick", "control", |sim| {
                    // Indexed loop over the cached list: `sw` is Copy, so no
                    // borrow of `sim` outlives the controller call and no
                    // Vec is rebuilt per tick.
                    for i in 0..sim.switch_cache.len() {
                        let sw = sim.switch_cache[i];
                        sim.dispatch_controller(sw, |c, view| c.on_tick(view));
                    }
                });
                if let Some(dt) = self.core.cfg.control_interval {
                    let at = self.core.now + dt;
                    self.core.schedule(at, Event::ControlTick);
                }
            }
            Event::TelemetrySample => {
                if let Some(mut s) = self.sampler.take() {
                    self.spanned("telemetry_sample", "telemetry", |sim| {
                        (s.hook)(&mut sim.core)
                    });
                    let at = self.core.now + s.interval;
                    self.core.schedule(at, Event::TelemetrySample);
                    self.sampler = Some(s);
                }
            }
            Event::Fault(kind) => self.core.apply_fault(kind),
        }
        if let Some((kind, t0)) = prof_t0 {
            let pending = self.core.events.len();
            if let Some(p) = self.core.profiler_mut() {
                p.dispatch_end(kind, t0, pending);
            }
        }
        true
    }

    /// Run until simulated time reaches `t` (events at exactly `t` are
    /// processed). Afterwards `now() == t` even if the queue drained early.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step_through(t) {}
        self.advance_now_to(t);
    }

    /// Process every pending event with activation time strictly below
    /// `bound`, returning how many were processed. Unlike
    /// [`Simulator::run_until`] this never advances `now` past the last
    /// processed event — the sharded run loop owns time advancement.
    pub fn run_events_before(&mut self, bound: SimTime) -> u64 {
        // Strictly below `bound` is at or before the picosecond before it.
        let Some(limit) = bound.as_ps().checked_sub(1) else {
            return 0;
        };
        let mut n = 0;
        while self.step_through(SimTime::from_ps(limit)) {
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
        self.core.shard.n_shards > 1
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

    /// Driver that blasts `n` packets of class `prio` at t=0.
    struct Blaster {
        dst: NodeId,
        n: u32,
        flow: u64,
        prio: Prio,
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
                    self.prio,
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

    /// What a [`Sink`] received: arrival time and size of every packet.
    pub(super) type Got = Rc<RefCell<Vec<(SimTime, u32)>>>;

    /// `senders` hosts on one switch, each blasting `n` packets of class
    /// `prio` at t=0 into one more host. Returns the simulator, the hosts
    /// (the receiver last) and what the receiver got.
    pub(super) fn blast_sim(
        senders: usize,
        n: u32,
        class: (Prio, Ecn),
        rate: u64,
        cfg: SimConfig,
    ) -> (Simulator, Vec<NodeId>, Got) {
        blast_classes(&vec![class; senders], n, rate, cfg)
    }

    /// [`blast_sim`] with one sender per entry of `classes`, sender `i`
    /// blasting in class `classes[i]`.
    fn blast_classes(
        classes: &[(Prio, Ecn)],
        n: u32,
        rate: u64,
        cfg: SimConfig,
    ) -> (Simulator, Vec<NodeId>, Got) {
        let senders = classes.len();
        let topo = TopologySpec::single_switch(senders + 1, rate, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, cfg);
        let got = Got::default();
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let dst = hosts[senders];
        sim.set_driver(dst, Box::new(Sink { got: got.clone() }));
        for (i, (&h, &(prio, ecn))) in hosts.iter().zip(classes).enumerate() {
            let flow = i as u64 + 1;
            let blaster = Blaster {
                dst,
                n,
                flow,
                prio,
                ecn,
            };
            sim.set_driver(h, Box::new(blaster));
            sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        }
        (sim, hosts, got)
    }

    /// The RDMA class, ECN-capable: what most scenarios here send.
    pub(super) const RDMA_ECT: (Prio, Ecn) = (PRIO_RDMA, Ecn::Ect);

    pub(super) fn two_host_sim(rate: u64) -> (Simulator, Got) {
        let (sim, _, got) = blast_sim(1, 100, RDMA_ECT, rate, SimConfig::default());
        (sim, got)
    }

    /// A port's header is one cache line of its own, and each of its
    /// classes is three more: the ingress counter, the scheduler state and
    /// the queue's list scalars, depth, bound and clock share the first —
    /// and a queued packet takes one 48-byte slab slot, no padding.
    #[test]
    fn port_block_keeps_its_hot_line() {
        use crate::queues::ArenaSlot;
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<PortState>(), 64);
        assert_eq!(size_of::<PortState>(), 64);
        assert_eq!(align_of::<ClassRow>(), 64);
        assert_eq!(size_of::<ClassRow>(), 3 * 64);
        assert_eq!(offset_of!(ClassRow, ingress_bytes), 0);
        assert!(offset_of!(ClassRow, sched) + size_of::<DwrrClass>() <= 64);
        assert_eq!(
            offset_of!(ClassRow, queue) + offset_of!(EgressQueue, ecn),
            64
        );
        assert!(offset_of!(ClassRow, telem) < offset_of!(ClassRow, pause_ps));
        assert_eq!(size_of::<ArenaSlot>(), 48);
    }

    /// A core's slab reserves 2,048 packets per switch it owns, but never
    /// more than one shared buffer of MTU packets (32 MiB / 1,048 B).
    #[test]
    fn slab_reserves_at_most_one_shared_buffer() {
        let reserved = |spec: TopologySpec, buffer_bytes: u64| {
            let cfg = SimConfig {
                buffer_bytes,
                ..SimConfig::default()
            };
            Simulator::new(spec.build(), cfg).core().arena_slots().0
        };
        let mib32 = 32 << 20;
        let host_delay = SimTime::from_ns(500);
        let one_switch = TopologySpec::single_switch(4, 25_000_000_000, host_delay);
        assert_eq!(reserved(one_switch, mib32), 2_048);
        assert_eq!(reserved(TopologySpec::paper_testbed(), mib32), 12_288);
        // 18 switches would reserve 36,864.
        assert_eq!(reserved(TopologySpec::paper_large_sim(), mib32), 32_017);
        // Each half of the 132-switch Clos would reserve 135,168.
        let topo = TopologySpec::paper_xl_clos().build();
        let plan = ShardPlan::build(&topo, 2);
        for s in 0..2 {
            let sim = Simulator::new_sharded(topo.clone(), SimConfig::default(), &plan, s);
            assert_eq!(sim.core().arena_slots().0, 32_017, "shard {s}");
        }
        assert_eq!(reserved(TopologySpec::paper_testbed(), 512 << 10), 500);
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
        let mut cfg = SimConfig::default();
        cfg.port.ecn[PRIO_RDMA as usize] = Some(crate::queues::EcnConfig::new(2_000, 2_000, 1.0));
        let (mut sim, ..) = blast_sim(2, 200, RDMA_ECT, 25_000_000_000, cfg);
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
        let mut cfg = SimConfig::default();
        cfg.port.ecn[PRIO_RDMA as usize] = Some(crate::queues::EcnConfig::new(0, 0, 1.0));
        let (mut sim, ..) = blast_sim(1, 50, (PRIO_RDMA, Ecn::NotEct), 25_000_000_000, cfg);
        sim.run_until(SimTime::from_ms(5));
        let sw = sim.core().topo.switches()[0];
        let t = sim.core().queue_telem(sw, PortId(1), PRIO_RDMA);
        assert_eq!(t.tx_pkts, 50);
        assert_eq!(t.tx_marked_pkts, 0);
    }

    #[test]
    fn pfc_prevents_loss_on_lossless_class() {
        // 8 senders blast a single receiver with far more data than the
        // switch buffer; with PFC on the RDMA class nothing may be dropped.
        let mut cfg = SimConfig::default();
        cfg.buffer_bytes = 512 * 1024; // small buffer to force PFC; 8 MB arrive
        let (mut sim, _, got) = blast_sim(8, 1000, RDMA_ECT, 25_000_000_000, cfg);
        sim.run_until(SimTime::from_ms(50));
        assert_eq!(sim.core().total_drops, 0, "PFC must keep RDMA lossless");
        assert!(sim.core().total_pfc_pauses > 0, "PFC must have triggered");
        assert_eq!(got.borrow().len(), 8000, "everything eventually delivered");
    }

    #[test]
    fn droptail_drops_without_pfc() {
        // Same overload on the TCP class (not lossless, NotEct) with a small
        // per-queue bound: drops must occur.
        let mut cfg = SimConfig::default();
        cfg.port.max_queue_bytes[0] = 64 * 1024;
        let tcp = (crate::ids::PRIO_TCP, Ecn::NotEct);
        let (mut sim, ..) = blast_sim(8, 500, tcp, 25_000_000_000, cfg);
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
        let mut cfg = SimConfig::default();
        cfg.buffer_bytes = 512 * 1024;
        let (mut sim, hosts, _) = blast_sim(8, 1000, RDMA_ECT, 25_000_000_000, cfg);
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

    /// A port of eight classes (the most a PFC bitmask covers), one sender
    /// per class into one receiver; class 7 is strict, the rest weighted
    /// 1:1:1:1:2:2:4. The strict class drains first, the weighted ones then
    /// share the receiver's link by weight, and every class's bytes are
    /// counted in its own row, at the sender's NIC and at the switch.
    #[test]
    fn eight_classes_share_by_weight_behind_a_strict_class() {
        let mut cfg = SimConfig::default();
        cfg.port = crate::config::PortConfig::plain(8);
        cfg.port.weights = vec![1, 1, 1, 1, 2, 2, 4, 0];
        let n = 400;
        let classes: Vec<(Prio, Ecn)> = (0..8).map(|c| (c, Ecn::NotEct)).collect();
        let (mut sim, hosts, got) = blast_classes(&classes, n, 25_000_000_000, cfg);
        let sw = sim.core().topo.switches()[0];
        let out = PortId(8); // the switch's port towards the receiver
        let sent = |sim: &Simulator, c: Prio| sim.core().queue_telem(sw, out, c).tx_bytes;
        // Class 7 arrives at line rate and leaves at line rate: strict
        // priority lets it through as it comes, and it is done well before
        // any weighted class.
        sim.run_until(SimTime::from_us(150));
        let pkt = 1000 + crate::packet::HEADER_BYTES as u64;
        assert_eq!(sent(&sim, 7), n as u64 * pkt, "strict class drained");
        let before: Vec<u64> = (0..7).map(|c| sent(&sim, c)).collect();
        for (c, &b) in before.iter().enumerate() {
            assert!(
                b < n as u64 * pkt / 4,
                "class {c} sent {b} behind the strict class"
            );
        }
        // Every weighted class is still backlogged over the next 200 µs.
        sim.run_until(SimTime::from_us(350));
        let moved: Vec<u64> = (0..7).map(|c| sent(&sim, c) - before[c as usize]).collect();
        let total: u64 = moved.iter().sum();
        for (c, &m) in moved.iter().enumerate() {
            let want = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 4.0][c] / 12.0;
            let share = m as f64 / total as f64;
            assert!(
                (share - want).abs() < 0.02,
                "class {c}: {share:.3} of the link, want {want:.3}"
            );
        }
        sim.run_until(SimTime::from_ms(5));
        assert_eq!(got.borrow().len(), 8 * n as usize, "everything delivered");
        assert_eq!(sim.core().total_drops, 0);
        for (s, &h) in hosts[..8].iter().enumerate() {
            for c in 0..8 {
                let want = if c as usize == s { n as u64 * pkt } else { 0 };
                let nic = sim.core().queue_telem(h, PortId(0), c).tx_bytes;
                assert_eq!(nic, want, "sender {s}, class {c}");
                assert_eq!(sent(&sim, c), n as u64 * pkt, "switch, class {c}");
            }
        }
    }

    /// PFC on the eighth class: bit 7 of the pause masks. Eight senders
    /// overrun a small buffer in class 7, the only lossless one; the switch
    /// pauses them in class 7, resumes them, and nothing is lost. The pause
    /// time lands in class 7's row and in no other.
    #[test]
    fn pfc_pauses_and_resumes_the_eighth_class() {
        let mut cfg = SimConfig::default();
        cfg.port = crate::config::PortConfig::plain(8);
        cfg.lossless_mask = 1 << 7;
        cfg.buffer_bytes = 512 * 1024;
        let (mut sim, hosts, got) = blast_sim(8, 1000, (7, Ecn::NotEct), 25_000_000_000, cfg);
        sim.run_until(SimTime::from_ms(50));
        assert!(sim.core().total_pfc_pauses > 0, "class 7 was paused");
        assert_eq!(sim.core().total_drops, 0, "PFC kept class 7 lossless");
        assert_eq!(got.borrow().len(), 8000, "every pause was resumed");
        for &h in &hosts[..8] {
            assert_eq!(
                sim.core().port(h, PortId(0)).paused,
                0,
                "{h:?} still paused"
            );
            for c in 0..7 {
                assert_eq!(sim.core().pfc_pause_time(h, PortId(0), c), SimTime::ZERO);
            }
        }
        let paused: u64 = hosts[..8]
            .iter()
            .map(|&h| sim.core().pfc_pause_time(h, PortId(0), 7).as_ps())
            .sum();
        assert!(paused > 0, "the pause time is class 7's");
    }

    /// A port of one class, lossy: a four-to-one blast delivers every
    /// packet.
    #[test]
    fn one_class_delivers_a_blast() {
        let mut cfg = SimConfig::default();
        cfg.port = crate::config::PortConfig::plain(1);
        cfg.lossless_mask = 0;
        let (mut sim, _, got) = blast_sim(4, 200, (0, Ecn::Ect), 25_000_000_000, cfg);
        sim.run_until(SimTime::from_ms(5));
        assert_eq!(got.borrow().len(), 800);
        assert_eq!(sim.core().total_drops, 0);
        let sw = sim.core().topo.switches()[0];
        assert_eq!(sim.core().queue_telem(sw, PortId(4), 0).tx_pkts, 800);
    }
}
