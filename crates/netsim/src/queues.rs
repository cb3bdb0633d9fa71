//! Egress queues: RED/ECN marking, DWRR scheduling and per-queue telemetry.

use crate::ids::PortId;
use crate::packet::Packet;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// An ECN/RED marking configuration for one egress queue — the knob ACC tunes.
///
/// Marking is evaluated against the *instantaneous* queue length at enqueue
/// time, the convention used by DCQCN deployments and the ACC paper:
///
/// * `q < kmin`          → never mark;
/// * `kmin <= q < kmax`  → mark with probability `pmax * (q-kmin)/(kmax-kmin)`;
/// * `q >= kmax`         → always mark.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EcnConfig {
    /// Low marking threshold, bytes.
    pub kmin_bytes: u64,
    /// High marking threshold, bytes.
    pub kmax_bytes: u64,
    /// Marking probability reached at `kmax` (0..=1).
    pub pmax: f64,
}

impl EcnConfig {
    /// Build a config; panics on invalid parameters.
    pub fn new(kmin_bytes: u64, kmax_bytes: u64, pmax: f64) -> Self {
        assert!(kmin_bytes <= kmax_bytes, "Kmin must not exceed Kmax");
        assert!((0.0..=1.0).contains(&pmax), "Pmax must be in [0,1]");
        EcnConfig {
            kmin_bytes,
            kmax_bytes,
            pmax,
        }
    }

    /// `SECN0`: the DCTCP-paper-style single threshold (Kmin = Kmax = 18 KB).
    pub fn dctcp_paper() -> Self {
        EcnConfig::new(18 * 1024, 18 * 1024, 1.0)
    }

    /// `SECN1`: the DCQCN-paper setting used as a baseline by ACC
    /// (Kmin = 5 KB, Kmax = 200 KB, Pmax = 1%).
    pub fn dcqcn_paper() -> Self {
        EcnConfig::new(5 * 1024, 200 * 1024, 0.01)
    }

    /// `SECN2`: the cloud-provider (HPCC-paper) setting, scaled to the link
    /// bandwidth: Kmin = 100 KB * BW/25G, Kmax = 400 KB * BW/25G, Pmax = 5%.
    pub fn cloud_provider(link_bps: u64) -> Self {
        let scale = link_bps as f64 / 25_000_000_000.0;
        EcnConfig::new(
            (100.0 * 1024.0 * scale) as u64,
            (400.0 * 1024.0 * scale) as u64,
            0.05,
        )
    }

    /// The device-vendor default used in the storage macro-benchmark (§5.3):
    /// Kmin = 30 KB, Kmax = 270 KB, Pmax = 10%.
    pub fn vendor_default() -> Self {
        EcnConfig::new(30 * 1024, 270 * 1024, 0.10)
    }

    /// Marking probability for a queue currently holding `qlen` bytes.
    pub fn mark_probability(&self, qlen: u64) -> f64 {
        if qlen < self.kmin_bytes {
            0.0
        } else if qlen >= self.kmax_bytes {
            1.0
        } else {
            let span = (self.kmax_bytes - self.kmin_bytes) as f64;
            if span == 0.0 {
                1.0
            } else {
                self.pmax * (qlen - self.kmin_bytes) as f64 / span
            }
        }
    }
}

/// Cumulative per-queue counters exposed to the control plane.
///
/// Counters are monotone; consumers (e.g. the ACC agent) difference them
/// between control ticks. `qlen_integral_byte_ps` is the time integral of the
/// queue length, so `(integral_b - integral_a) / (t_b - t_a)` is the exact
/// time-average queue length over an interval — the paper's reward uses the
/// average rather than the instantaneous depth (§3.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueTelemetry {
    /// Bytes handed to the serializer (counted at dequeue).
    pub tx_bytes: u64,
    /// Packets handed to the serializer.
    pub tx_pkts: u64,
    /// Transmitted packets carrying CE.
    pub tx_marked_pkts: u64,
    /// Transmitted bytes carrying CE.
    pub tx_marked_bytes: u64,
    /// Packets dropped at this queue (tail drop / buffer exhaustion).
    pub drops: u64,
    /// Packets enqueued.
    pub enq_pkts: u64,
    /// Time integral of queue length in byte-picoseconds.
    pub qlen_integral_byte_ps: u128,
    /// Largest instantaneous queue length observed, bytes.
    pub max_qlen_bytes: u64,
}

/// Maximum traffic classes per port (PFC pause state is a `u8` bitmask
/// throughout the engine).
pub const MAX_PRIOS: usize = 8;

/// Cache-line-aligned telemetry block for all traffic classes of one port:
/// one [`QueueTelemetry`] per class, side by side.
///
/// * **No false sharing between shard threads.** Each port belongs to
///   exactly one shard; `#[repr(align(64))]` keeps every port's counters on
///   cache lines no other port (hence no other thread) writes.
/// * **One class, two lines.** Everything an enqueue and a dequeue bump for
///   a class sits in that class's 80 bytes, so a packet hop dirties at most
///   two lines of the block — with one array per counter it was one line
///   per counter touched.
///
/// [`PortTelemetry::queue`] returns the per-queue [`QueueTelemetry`] view,
/// which is the interchange type everywhere outside the packet path.
#[repr(align(64))]
#[derive(Clone, Debug, Default)]
pub struct PortTelemetry {
    classes: [QueueTelemetry; MAX_PRIOS],
}

impl PortTelemetry {
    /// Fresh all-zero block.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-queue view of class `prio`.
    pub fn queue(&self, prio: usize) -> QueueTelemetry {
        self.classes[prio]
    }
}

/// One entry waiting in an egress queue.
#[derive(Clone, Copy, Debug)]
pub struct QItem {
    /// The packet.
    pub pkt: Packet,
    /// Ingress port the packet was charged to in the shared buffer
    /// (None for host-originated packets / host queues).
    pub ingress: Option<PortId>,
}

/// Sentinel slot index: "no slot".
const NIL: u32 = u32::MAX;

/// One arena slot: a queued item plus the intrusive link to the next item
/// of the same FIFO (or the next free slot while on the freelist).
#[derive(Clone, Copy, Debug)]
struct ArenaSlot {
    item: QItem,
    next: u32,
}

/// Slab backing every egress FIFO of one simulation core.
///
/// Queued packets live in one contiguous `Vec` shared by every queue of
/// every port the core simulates; each [`EgressQueue`] keeps head/tail slot
/// indices and slots are chained with intrusive `next` links. Freed slots
/// go on an intrusive LIFO freelist and are reused, so the live slots stay
/// the recently touched ones and steady-state enqueue/dequeue never touches
/// the allocator — the arena only grows while the core's aggregate backlog
/// sets a new high-water mark.
#[derive(Debug)]
pub struct QueueArena {
    slots: Vec<ArenaSlot>,
    free_head: u32,
}

impl Default for QueueArena {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl QueueArena {
    /// New empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty arena with room for `slots` packets before any growth —
    /// a core pre-sizes from [`crate::config::PortConfig::arena_slots`] so
    /// the packet path starts at its expected high-water capacity.
    pub fn with_capacity(slots: usize) -> Self {
        QueueArena {
            slots: Vec::with_capacity(slots),
            free_head: NIL,
        }
    }

    /// Slots currently backing this arena: the high-water mark of packets
    /// queued at once.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    fn alloc(&mut self, item: QItem) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.item = item;
            slot.next = NIL;
            idx
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NIL, "queue arena exhausted u32 slot space");
            self.slots.push(ArenaSlot { item, next: NIL });
            idx
        }
    }

    fn free(&mut self, idx: u32) {
        self.slots[idx as usize].next = self.free_head;
        self.free_head = idx;
    }
}

/// A single egress FIFO for one traffic class of one port.
///
/// Packet storage lives in the core's shared [`QueueArena`] and cumulative
/// counters live in the port's [`PortTelemetry`] block; the queue only
/// holds the intrusive list's head/tail indices and its class index, so
/// every mutating method takes the arena and telemetry block explicitly.
#[derive(Debug)]
pub struct EgressQueue {
    /// Arena index of the head item (`NIL` = empty).
    head: u32,
    /// Arena index of the tail item (`NIL` = empty).
    tail: u32,
    /// Number of queued packets.
    count: u32,
    /// This queue's class index into the port's [`PortTelemetry`].
    prio: u8,
    /// Current depth in bytes.
    bytes: u64,
    /// Drop-tail bound in bytes.
    pub max_bytes: u64,
    /// Active marking configuration (`None` = no marking).
    pub ecn: Option<EcnConfig>,
    last_update: SimTime,
}

impl EgressQueue {
    /// New empty queue for class `prio` with the given drop-tail bound and
    /// marking config.
    pub fn new(prio: usize, max_bytes: u64, ecn: Option<EcnConfig>) -> Self {
        assert!(prio < MAX_PRIOS, "at most {MAX_PRIOS} traffic classes");
        EgressQueue {
            head: NIL,
            tail: NIL,
            count: 0,
            prio: prio as u8,
            bytes: 0,
            max_bytes,
            ecn,
            last_update: SimTime::ZERO,
        }
    }

    /// Instantaneous depth, bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of queued packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True if no packets are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// On-wire size of the head packet, if any.
    #[inline]
    pub fn head_size(&self, arena: &QueueArena) -> Option<u32> {
        if self.head == NIL {
            None
        } else {
            Some(arena.slots[self.head as usize].item.pkt.size)
        }
    }

    fn advance_clock(&mut self, telem: &mut PortTelemetry, now: SimTime) {
        let dt = now.saturating_sub(self.last_update);
        telem.classes[self.prio as usize].qlen_integral_byte_ps +=
            self.bytes as u128 * dt.as_ps() as u128;
        self.last_update = now;
    }

    /// Would enqueueing `size` bytes exceed this queue's own bound?
    #[inline]
    pub fn would_overflow(&self, size: u32) -> bool {
        self.bytes + size as u64 > self.max_bytes
    }

    /// The queue length RED marks against: the instantaneous depth.
    #[inline]
    pub fn marking_qlen(&self) -> u64 {
        self.bytes
    }

    /// Enqueue an item. The caller has already performed admission control
    /// and ECN marking; this only does bookkeeping.
    pub fn push(
        &mut self,
        arena: &mut QueueArena,
        telem: &mut PortTelemetry,
        item: QItem,
        now: SimTime,
    ) {
        self.advance_clock(telem, now);
        self.bytes += item.pkt.size as u64;
        let t = &mut telem.classes[self.prio as usize];
        t.enq_pkts += 1;
        t.max_qlen_bytes = t.max_qlen_bytes.max(self.bytes);
        let idx = arena.alloc(item);
        if self.tail == NIL {
            self.head = idx;
        } else {
            arena.slots[self.tail as usize].next = idx;
        }
        self.tail = idx;
        self.count += 1;
    }

    /// Record a drop at this queue.
    pub fn record_drop(&self, telem: &mut PortTelemetry) {
        telem.classes[self.prio as usize].drops += 1;
    }

    /// Dequeue the head packet into the serializer, updating tx counters.
    pub fn pop(
        &mut self,
        arena: &mut QueueArena,
        telem: &mut PortTelemetry,
        now: SimTime,
    ) -> Option<QItem> {
        self.advance_clock(telem, now);
        if self.head == NIL {
            return None;
        }
        let idx = self.head;
        let slot = arena.slots[idx as usize];
        self.head = slot.next;
        if self.head == NIL {
            self.tail = NIL;
        }
        arena.free(idx);
        self.count -= 1;
        let item = slot.item;
        let sz = item.pkt.size as u64;
        self.bytes -= sz;
        let t = &mut telem.classes[self.prio as usize];
        t.tx_bytes += sz;
        t.tx_pkts += 1;
        if item.pkt.ecn == crate::packet::Ecn::Ce {
            t.tx_marked_pkts += 1;
            t.tx_marked_bytes += sz;
        }
        Some(item)
    }

    /// Bring the time-integral up to `now` (call before reading telemetry).
    pub fn sync_clock(&mut self, telem: &mut PortTelemetry, now: SimTime) {
        self.advance_clock(telem, now);
    }

    /// Discard every queued packet (switch reboot / power loss), counting
    /// each as a drop, and append the discarded items to `out` (cleared
    /// first) so the caller can release their shared-buffer accounting. The
    /// reboot path passes one reused scratch buffer, so flushes stop
    /// allocating once the buffer has grown to the deepest queue seen.
    pub fn flush_into(
        &mut self,
        arena: &mut QueueArena,
        telem: &mut PortTelemetry,
        now: SimTime,
        out: &mut Vec<QItem>,
    ) {
        self.advance_clock(telem, now);
        out.clear();
        let mut idx = self.head;
        while idx != NIL {
            let slot = arena.slots[idx as usize];
            out.push(slot.item);
            arena.free(idx);
            idx = slot.next;
        }
        self.head = NIL;
        self.tail = NIL;
        self.count = 0;
        self.bytes = 0;
        telem.classes[self.prio as usize].drops += out.len() as u64;
    }
}

/// Deficit-weighted round robin across the traffic classes of one port.
///
/// Classes with weight 0 are *strict priority* and always served first
/// (highest class index wins among them). Weighted classes share the residual
/// bandwidth in proportion to their weights using the classic DRR algorithm
/// with a per-visit quantum of `weight * QUANTUM_UNIT` bytes.
///
/// The per-class state is inline (no heap), one 16-byte record per class, so
/// a port's scheduler lives inside the port's own block and the classes in
/// use share a cache line.
#[derive(Debug, Clone)]
pub struct Dwrr {
    /// Classes in use (`<= MAX_PRIOS`).
    n: u8,
    /// The class the round-robin pointer rests on.
    ptr: u8,
    classes: [DwrrClass; MAX_PRIOS],
}

/// Scheduling state of one class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DwrrClass {
    deficit: u64,
    weight: u32,
    /// Whether this visit's quantum has been added already.
    granted: bool,
}

/// Bytes of quantum granted per unit of weight per DRR round.
pub const QUANTUM_UNIT: u64 = 1600;

impl Dwrr {
    /// Build a scheduler for the given per-class weights.
    ///
    /// At most 8 classes: PFC pause state is a `u8` bitmask throughout the
    /// engine, and a 9th class would silently alias the pause bit of class
    /// 1 in [`Dwrr::pick`].
    pub fn new(weights: Vec<u32>) -> Self {
        let n = weights.len();
        assert!(n > 0);
        assert!(
            n <= MAX_PRIOS,
            "at most 8 traffic classes (PFC pause bitmask is u8), got {n}"
        );
        let mut classes = [DwrrClass::default(); MAX_PRIOS];
        for (c, weight) in classes.iter_mut().zip(weights) {
            c.weight = weight;
        }
        Dwrr {
            n: n as u8,
            ptr: 0,
            classes,
        }
    }

    /// Current deficit counter of `class`, in bytes (diagnostics/tests).
    pub fn deficit(&self, class: usize) -> u64 {
        self.classes[class].deficit
    }

    /// Reset all scheduling state (deficits, grants, round pointer) to the
    /// just-constructed state — what a switch reboot does to its scheduler.
    pub fn reset(&mut self) {
        for c in &mut self.classes {
            c.deficit = 0;
            c.granted = false;
        }
        self.ptr = 0;
    }

    /// Pick the class to transmit from next.
    ///
    /// `heads[i]` is the head-packet size of class `i` (`None` = empty) and
    /// `paused` is a bitmask of PFC-paused classes. Returns the chosen class
    /// and updates internal deficit state assuming the head packet of that
    /// class is then transmitted.
    pub fn pick(&mut self, heads: &[Option<u32>], paused: u8) -> Option<usize> {
        let n = self.n as usize;
        debug_assert_eq!(heads.len(), n);
        let classes = &mut self.classes[..n];
        // `new` rejects >8 classes, so `1u8 << i` cannot overflow or alias.
        let avail = |i: usize| heads[i].is_some() && (paused & (1u8 << i)) == 0;

        // Strict-priority classes first, highest index wins.
        for i in (0..n).rev() {
            if classes[i].weight == 0 && avail(i) {
                return Some(i);
            }
        }

        // Fast path: no weighted class is servable (every queue is drained
        // or paused). The scan below would spin the full `n * 64` bound —
        // on every TxDone of a port with nothing left to send — before
        // returning None. Because the bound is a multiple of `n`, its net
        // state effect is exactly: drained classes lose their deficit,
        // every grant clears, and `ptr` ends where it started. Apply that
        // directly in O(n).
        if !(0..n).any(|i| classes[i].weight != 0 && avail(i)) {
            for (c, head) in classes.iter_mut().zip(heads) {
                if head.is_none() {
                    c.deficit = 0;
                }
                c.granted = false;
            }
            return None;
        }

        // DRR over weighted classes. Scan at most enough rounds for the
        // deficit of some available class to reach its head-packet size.
        let mut ptr = self.ptr as usize;
        let mut picked = None;
        // Generous bound; quantum>=1600 vs pkt<=~9KB.
        for _ in 0..n * 64 {
            let c = &mut classes[ptr];
            if c.weight != 0 && avail(ptr) {
                let sz = heads[ptr].unwrap() as u64;
                if !c.granted {
                    c.deficit += c.weight as u64 * QUANTUM_UNIT;
                    c.granted = true;
                }
                if c.deficit >= sz {
                    c.deficit -= sz;
                    picked = Some(ptr);
                    break;
                }
                // Not enough deficit: move on, keep the accumulated deficit.
            } else if heads[ptr].is_none() {
                // Queue drained: per DRR, its deficit resets.
                c.deficit = 0;
            }
            c.granted = false;
            ptr = (ptr + 1) % n;
        }
        self.ptr = ptr as u8;
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};
    use crate::packet::{Ecn, Packet};

    fn pkt(size_payload: u32) -> Packet {
        Packet::data(
            FlowId(1),
            NodeId(0),
            NodeId(1),
            1,
            0,
            size_payload,
            false,
            Ecn::Ect,
        )
    }

    #[test]
    fn ecn_probability_shape() {
        let c = EcnConfig::new(100, 300, 0.5);
        assert_eq!(c.mark_probability(0), 0.0);
        assert_eq!(c.mark_probability(99), 0.0);
        assert_eq!(c.mark_probability(100), 0.0);
        assert!((c.mark_probability(200) - 0.25).abs() < 1e-12);
        assert_eq!(c.mark_probability(300), 1.0);
        assert_eq!(c.mark_probability(1_000_000), 1.0);
    }

    #[test]
    fn single_threshold_is_step() {
        let c = EcnConfig::dctcp_paper();
        assert_eq!(c.mark_probability(18 * 1024 - 1), 0.0);
        assert_eq!(c.mark_probability(18 * 1024), 1.0);
    }

    #[test]
    #[should_panic(expected = "Kmin")]
    fn invalid_thresholds_rejected() {
        EcnConfig::new(10, 5, 0.1);
    }

    #[test]
    fn cloud_provider_scales_with_bandwidth() {
        let c25 = EcnConfig::cloud_provider(25_000_000_000);
        let c100 = EcnConfig::cloud_provider(100_000_000_000);
        assert_eq!(c25.kmin_bytes, 100 * 1024);
        assert_eq!(c100.kmin_bytes, 400 * 1024);
        assert_eq!(c100.kmax_bytes, 1600 * 1024);
    }

    #[test]
    fn queue_accounting_and_time_average() {
        let mut a = QueueArena::new();
        let mut pt = PortTelemetry::new();
        let mut q = EgressQueue::new(0, 1 << 20, None);
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_us(10);
        let t2 = SimTime::from_us(20);
        q.push(
            &mut a,
            &mut pt,
            QItem {
                pkt: pkt(952), // 1000B on wire
                ingress: None,
            },
            t0,
        );
        assert_eq!(q.bytes(), 1000);
        q.pop(&mut a, &mut pt, t1).unwrap();
        assert_eq!(q.bytes(), 0);
        q.sync_clock(&mut pt, t2);
        let telem = pt.queue(0);
        // 1000 bytes held for 10 us then 0 for 10 us -> avg 500 bytes over 20us.
        let avg = telem.qlen_integral_byte_ps as f64 / SimTime::from_us(20).as_ps() as f64;
        assert!((avg - 500.0).abs() < 1e-9);
        assert_eq!(telem.tx_bytes, 1000);
        assert_eq!(telem.tx_pkts, 1);
        assert_eq!(telem.max_qlen_bytes, 1000);
    }

    #[test]
    fn marked_packets_counted() {
        let mut a = QueueArena::new();
        let mut pt = PortTelemetry::new();
        let mut q = EgressQueue::new(0, 1 << 20, None);
        let mut p = pkt(952);
        p.ecn = Ecn::Ce;
        q.push(
            &mut a,
            &mut pt,
            QItem {
                pkt: p,
                ingress: None,
            },
            SimTime::ZERO,
        );
        q.pop(&mut a, &mut pt, SimTime::from_ns(1)).unwrap();
        assert_eq!(pt.queue(0).tx_marked_pkts, 1);
        assert_eq!(pt.queue(0).tx_marked_bytes, 1000);
    }

    /// The layout claims of "one contiguous block per port", pinned so a
    /// later field does not silently undo them: the telemetry block starts
    /// on a cache line and one class's counters span 80 bytes — at most two
    /// lines, whichever class — the scheduler holds no pointer and its
    /// first three classes (the default configuration) share a line with
    /// the round pointer, and a queue is under a line and a half.
    #[test]
    fn per_port_blocks_keep_their_layout() {
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<PortTelemetry>(), 64);
        assert_eq!(size_of::<QueueTelemetry>(), 80);
        assert_eq!(size_of::<PortTelemetry>(), MAX_PRIOS * 80);
        assert_eq!(size_of::<DwrrClass>(), 16);
        assert_eq!(size_of::<Dwrr>(), 8 + MAX_PRIOS * 16);
        assert_eq!(size_of::<EgressQueue>(), 72);
    }

    /// Classes never alias: counters bumped through one queue land only in
    /// that class's record.
    #[test]
    fn port_telemetry_classes_are_isolated() {
        let mut a = QueueArena::new();
        let mut pt = PortTelemetry::new();
        let mut q2 = EgressQueue::new(2, 1 << 20, None);
        q2.push(
            &mut a,
            &mut pt,
            QItem {
                pkt: pkt(952),
                ingress: None,
            },
            SimTime::ZERO,
        );
        q2.record_drop(&mut pt);
        q2.pop(&mut a, &mut pt, SimTime::from_us(3)).unwrap();
        for prio in 0..MAX_PRIOS {
            if prio == 2 {
                assert_eq!(pt.queue(prio).tx_pkts, 1);
                assert_eq!(pt.queue(prio).drops, 1);
                assert_eq!(pt.queue(prio).enq_pkts, 1);
                assert!(pt.queue(prio).qlen_integral_byte_ps > 0);
            } else {
                assert_eq!(pt.queue(prio), QueueTelemetry::default(), "class {prio}");
            }
        }
    }

    /// Configs saved before the averaged-RED knob was removed (deploy
    /// bundles, run manifests) carry `"ewma_weight": null`; they still load.
    #[test]
    fn config_with_retired_ewma_field_loads() {
        let c: EcnConfig = serde_json::from_str(
            r#"{"kmin_bytes":5120,"kmax_bytes":204800,"pmax":0.01,"ewma_weight":null}"#,
        )
        .unwrap();
        assert_eq!(c, EcnConfig::dcqcn_paper());
    }

    #[test]
    fn strict_priority_wins() {
        let mut d = Dwrr::new(vec![3, 7, 0]);
        let heads = [Some(1000u32), Some(1000), Some(64)];
        assert_eq!(d.pick(&heads, 0), Some(2));
        // Paused strict class falls back to weighted classes.
        assert!(matches!(d.pick(&heads, 0b100), Some(0) | Some(1)));
    }

    #[test]
    fn dwrr_respects_weights() {
        let mut d = Dwrr::new(vec![3, 7]);
        let heads = [Some(1000u32), Some(1000)];
        let mut counts = [0u64, 0u64];
        for _ in 0..10_000 {
            let i = d.pick(&heads, 0).unwrap();
            counts[i] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!(
            (frac - 0.7).abs() < 0.02,
            "expected ~70% for weight-7 class, got {frac}"
        );
    }

    #[test]
    fn dwrr_skips_paused_and_empty() {
        let mut d = Dwrr::new(vec![1, 1]);
        let heads = [Some(1000u32), Some(1000)];
        // Class 0 paused -> always class 1.
        for _ in 0..10 {
            assert_eq!(d.pick(&heads, 0b01), Some(1));
        }
        let heads2 = [None, Some(1000)];
        for _ in 0..10 {
            assert_eq!(d.pick(&heads2, 0), Some(1));
        }
        // Everything paused -> None.
        assert_eq!(d.pick(&heads, 0b11), None);
    }

    #[test]
    fn arena_fifo_order_across_classes_and_freelist_reuse() {
        // Two FIFOs interleaved in one arena keep per-queue FIFO order, and
        // slots freed by pops are reused instead of growing the slab.
        let mut a = QueueArena::new();
        let mut pt = PortTelemetry::new();
        let mut q0 = EgressQueue::new(0, 1 << 20, None);
        let mut q1 = EgressQueue::new(1, 1 << 20, None);
        let t = SimTime::ZERO;
        for i in 0..4u64 {
            let mut p = pkt(952);
            p.flow = FlowId(i);
            q0.push(
                &mut a,
                &mut pt,
                QItem {
                    pkt: p,
                    ingress: None,
                },
                t,
            );
            let mut p = pkt(952);
            p.flow = FlowId(100 + i);
            q1.push(
                &mut a,
                &mut pt,
                QItem {
                    pkt: p,
                    ingress: None,
                },
                t,
            );
        }
        assert_eq!(a.slot_count(), 8);
        for i in 0..4u64 {
            assert_eq!(q0.pop(&mut a, &mut pt, t).unwrap().pkt.flow, FlowId(i));
            assert_eq!(
                q1.pop(&mut a, &mut pt, t).unwrap().pkt.flow,
                FlowId(100 + i)
            );
        }
        assert!(q0.is_empty() && q1.is_empty());
        // Refill: the freelist supplies every slot, the slab must not grow.
        for _ in 0..8 {
            q0.push(
                &mut a,
                &mut pt,
                QItem {
                    pkt: pkt(952),
                    ingress: None,
                },
                t,
            );
        }
        assert_eq!(a.slot_count(), 8, "freed slots are reused");
    }

    #[test]
    fn flush_into_reuses_scratch_and_counts_drops() {
        let mut a = QueueArena::new();
        let mut pt = PortTelemetry::new();
        let mut q = EgressQueue::new(0, 1 << 20, None);
        let t = SimTime::ZERO;
        let mut scratch = Vec::new();
        for round in 1..=3usize {
            for _ in 0..round * 2 {
                q.push(
                    &mut a,
                    &mut pt,
                    QItem {
                        pkt: pkt(952),
                        ingress: None,
                    },
                    t,
                );
            }
            q.flush_into(&mut a, &mut pt, t, &mut scratch);
            assert_eq!(scratch.len(), round * 2);
            assert!(q.is_empty());
            assert_eq!(q.bytes(), 0);
        }
        assert_eq!(pt.queue(0).drops, 2 + 4 + 6);
        // Slab never exceeded the deepest flush; scratch kept its capacity.
        assert_eq!(a.slot_count(), 6);
        assert!(scratch.capacity() >= 6);
    }

    #[test]
    #[should_panic(expected = "at most 8 traffic classes")]
    fn dwrr_rejects_more_than_eight_classes() {
        // 9 classes would alias class 8's PFC pause bit onto class 0's
        // (the old `i & 7` wrap); construction must refuse.
        Dwrr::new(vec![1; 9]);
    }

    #[test]
    fn dwrr_eight_classes_use_distinct_pause_bits() {
        // Class 7 paused must not affect class 7 only — with the old wrap a
        // hypothetical 9th class would share bit 0; at exactly 8 classes
        // every class maps to its own bit.
        let mut d = Dwrr::new(vec![1; 8]);
        let heads = [Some(1000u32); 8];
        // Pause everything except class 3: only class 3 may be served.
        for _ in 0..16 {
            assert_eq!(d.pick(&heads, !(1u8 << 3)), Some(3));
        }
        // Pause everything: nothing to serve.
        assert_eq!(d.pick(&heads, 0xFF), None);
    }

    #[test]
    fn dwrr_reset_matches_fresh_scheduler() {
        let weights = vec![3, 7, 0];
        let mut a = Dwrr::new(weights.clone());
        let heads = [Some(1000u32), Some(1000), None];
        // Advance `a` into an arbitrary mid-round state, then reset.
        for _ in 0..5 {
            a.pick(&heads, 0);
        }
        a.reset();
        let mut b = Dwrr::new(weights);
        for step in 0..64 {
            assert_eq!(a.pick(&heads, 0), b.pick(&heads, 0), "step {step}");
        }
    }

    /// Reference reimplementation of the pre-fast-path scan loop, used to
    /// prove the idle early-exit is state-identical.
    #[derive(Clone)]
    struct ScanDwrr {
        weights: Vec<u32>,
        deficit: Vec<u64>,
        granted: Vec<bool>,
        ptr: usize,
    }

    impl ScanDwrr {
        fn new(weights: Vec<u32>) -> Self {
            let n = weights.len();
            ScanDwrr {
                weights,
                deficit: vec![0; n],
                granted: vec![false; n],
                ptr: 0,
            }
        }

        fn pick(&mut self, heads: &[Option<u32>], paused: u8) -> Option<usize> {
            let n = self.weights.len();
            let avail = |i: usize| heads[i].is_some() && (paused & (1u8 << i)) == 0;
            for i in (0..n).rev() {
                if self.weights[i] == 0 && avail(i) {
                    return Some(i);
                }
            }
            let mut scanned = 0usize;
            let max_scan = n * 64;
            while scanned < max_scan {
                let i = self.ptr;
                if self.weights[i] == 0 || !avail(i) {
                    if heads[i].is_none() {
                        self.deficit[i] = 0;
                    }
                    self.granted[i] = false;
                    self.ptr = (self.ptr + 1) % n;
                    scanned += 1;
                    continue;
                }
                let sz = heads[i].unwrap() as u64;
                if !self.granted[i] {
                    self.deficit[i] += self.weights[i] as u64 * QUANTUM_UNIT;
                    self.granted[i] = true;
                }
                if self.deficit[i] >= sz {
                    self.deficit[i] -= sz;
                    return Some(i);
                }
                self.granted[i] = false;
                self.ptr = (self.ptr + 1) % n;
                scanned += 1;
            }
            None
        }
    }

    #[test]
    fn dwrr_fast_path_matches_full_scan_reference() {
        // Drive both schedulers through a deterministic mix of servable,
        // drained and paused states — including the all-drained case the
        // fast path optimizes — and demand identical picks AND identical
        // internal state at every step.
        let mut fast = Dwrr::new(vec![3, 7, 0]);
        let mut slow = ScanDwrr::new(vec![3, 7, 0]);
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for step in 0..20_000 {
            let mut heads = [None, None, None];
            for h in heads.iter_mut() {
                // Bias towards empty queues: the TxDone-on-idle-port case.
                if rng() % 4 == 0 {
                    *h = Some(64 + (rng() % 9000) as u32);
                }
            }
            let paused = (rng() % 8) as u8;
            assert_eq!(
                fast.pick(&heads, paused),
                slow.pick(&heads, paused),
                "step {step}"
            );
            for (i, c) in fast.classes[..3].iter().enumerate() {
                let reference = (slow.deficit[i], slow.granted[i]);
                assert_eq!((c.deficit, c.granted), reference, "class {i} at {step}");
            }
            assert_eq!(fast.ptr as usize, slow.ptr, "ptr diverged at {step}");
        }
    }

    #[test]
    fn dwrr_handles_large_packets_smaller_quantum() {
        // Head packets larger than one quantum must still eventually be sent
        // (deficit accumulates across rounds).
        let mut d = Dwrr::new(vec![1, 1]);
        let heads = [Some(9000u32), Some(9000)];
        let mut got = [false, false];
        for _ in 0..20 {
            if let Some(i) = d.pick(&heads, 0) {
                got[i] = true;
            }
        }
        assert!(got[0] && got[1]);
    }
}
