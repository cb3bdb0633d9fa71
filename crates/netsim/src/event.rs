//! The discrete-event core: event kinds and the future-event queue.
//!
//! The future-event list is a **timing wheel** ([`EventQueue`]) whose rule
//! is *order keys, not events*. A push writes the 64-byte event into a slot
//! of one pool of pending events, and that is the only time the event is
//! written; every tier holds pool indices. A near-future event's index is
//! linked into the unsorted bucket its time falls in. When the wheel
//! reaches the bucket, one 8-byte `(offset in the bucket, index)` key per
//! event is sorted, once, and pops walk the keys and copy each event out
//! of the pool. Far-future timers (control ticks, telemetry sampling,
//! retransmit timeouts, scheduled faults) wait in an overflow heap of
//! `(time, seq, index)` keys until the wheel rotates toward them, and the
//! few pushes that arrive for a bucket already sorted go to a small side
//! heap of the same keys that `pop` merges in. The previous
//! `BinaryHeap`-based queue is kept in this module's tests as
//! `HeapEventQueue`, the reference the wheel is differentially tested and
//! timed against.
//!
//! ## Determinism contract
//!
//! Both queues pop events in identical `(time, seq)` order: earliest
//! activation time first, ties broken by the caller's key
//! ([`EventQueue::push_keyed`], the engine's only push) or FIFO by insertion
//! sequence ([`EventQueue::push`]). The wheel is therefore a drop-in
//! replacement — a recorded run's JSONL is byte-identical to one produced
//! with the heap queue.

use crate::fault::FaultKind;
use crate::ids::{NodeId, PortId, Prio};
use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Everything that can happen in the simulated world.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A packet finished propagating and arrives at `node` via `port`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port on that node.
        port: PortId,
        /// The packet itself.
        pkt: Packet,
    },
    /// The transmitter on (`node`, `port`) finished serializing its packet.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// The port whose serializer became free.
        port: PortId,
    },
    /// A PFC pause/resume takes effect at (`node`, `port`) for class `prio`.
    ///
    /// PFC frames are modelled as out-of-band control with the link's
    /// propagation delay plus one 64-byte serialization time; they do not
    /// compete with data for bandwidth (hardware transmits them preemptively).
    PfcUpdate {
        /// Node receiving the pause/resume.
        node: NodeId,
        /// Port it arrives on (the egress to be paused).
        port: PortId,
        /// Traffic class affected.
        prio: Prio,
        /// `true` = pause, `false` = resume.
        pause: bool,
    },
    /// A timer set by a host's [`crate::driver::NicDriver`] fires.
    HostTimer {
        /// Host whose driver is woken.
        host: NodeId,
        /// Opaque token, interpreted by the driver.
        token: u64,
    },
    /// Periodic control-plane tick: switch controllers run.
    ControlTick,
    /// Periodic telemetry sampling tick: the installed sampler hook runs
    /// (see [`crate::sim::Simulator::set_sampler`]). Never scheduled unless
    /// a sampler is installed, so runs without telemetry pay nothing.
    TelemetrySample,
    /// A scheduled fault from a [`crate::fault::FaultPlan`] executes.
    /// Never scheduled unless a plan is installed
    /// ([`crate::sim::Simulator::install_fault_plan`]).
    Fault(FaultKind),
}

/// An event with its activation time and a monotone sequence number used to
/// break ties deterministically (FIFO among simultaneous events).
#[derive(Clone, Copy, Debug)]
pub struct Scheduled {
    /// Activation time.
    pub time: SimTime,
    /// Insertion sequence number; earlier insertions fire first at equal times.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Picoseconds per wheel bucket, as a shift: 2^16 ps = 65.536 ns.
///
/// The near tier sorts a bucket once when the wheel reaches it, so the
/// width trades two costs: a wider bucket sorts more keys per rotation and
/// sends more pushes to the late heap (a push into the bucket being drained
/// cannot join a sort that already happened — 12 % of pushes at 2^18 ps,
/// 0.1 % at 2^16, on the quick WebSearch fabric), a narrower one rotates
/// more often over emptier slots. On the 288-host WebSearch run (≈45 events
/// per bucket at 2^16) 2^16 measured fastest, 2^15 1–2 % and 2^17 3–6 %
/// behind it; see EXPERIMENTS.md, "The event queue was 46 % of
/// `websearch-packet`".
const BUCKET_PS_SHIFT: u32 = 16;

/// Buckets on the wheel. Fixed at 64 so slot occupancy fits one `u64`
/// bitmask and "find the next non-empty bucket" is a single
/// `trailing_zeros`. Horizon = 64 × 65.5 ns ≈ 4.2 µs: serialization and
/// propagation events (≤ 1 µs each) are in-wheel, while pace timers of slow
/// flows, control ticks (50 µs), telemetry samples (≥100 µs), retransmit
/// timers and scheduled faults overflow to the far heap — about one event
/// in 200 on the WebSearch run, which is what the overflow heap is for.
const WHEEL_SLOTS: u64 = 64;

/// Sentinel pool index: "no event".
const NIL: u32 = u32::MAX;

#[inline]
const fn bucket_of(time: SimTime) -> u64 {
    time.as_ps() >> BUCKET_PS_SHIFT
}

/// The sort key of pooled event `idx` of the current bucket: its offset
/// into the bucket (the whole run is one bucket, so `BUCKET_PS_SHIFT` bits
/// of its time order it) above its pool index.
fn sort_key(idx: u32, time: SimTime) -> u64 {
    (time.as_ps() & ((1 << BUCKET_PS_SHIFT) - 1)) << 32 | idx as u64
}

/// The pool index a sort key carries.
fn key_index(key: u64) -> usize {
    key as u32 as usize
}

/// A pooled event's place in the late or the overflow heap: its time, its
/// `seq` and its pool index, reversed so the max-heap's top is the earliest.
type HeapKey = Reverse<(SimTime, u64, u32)>;

/// The future-event list: a single-level timing wheel over an overflow
/// heap, every tier of it indexing one pool of pending events.
///
/// A push writes the 64-byte event into a free slot of `pool` — the
/// freelist is LIFO, so the live slots stay the recently touched ones — and
/// files the slot's index in one of three tiers, ordered by activation time:
///
/// * **near** — the bucket currently being drained. One 8-byte key per
///   event is sorted once per rotation (`order`) and `pop` walks that order
///   with a cursor, copying each event out of the pool exactly once. Pushes
///   that arrive for the current bucket after its sort, or for the past, go
///   to the small `late` heap of `(time, seq, index)` keys, which `pop`
///   merges with the sorted run by `(time, seq)`;
/// * **wheel** — 64 unsorted buckets covering the next ~4.2 µs, each an
///   intrusive list through `next` (the order inside a bucket does not
///   matter: the rotation sorts it); a push is O(1);
/// * **overflow** — a binary heap of `(time, seq, index)` keys for
///   everything beyond the horizon; migrating to the wheel moves an index.
///
/// Invariants: every wheel bucket holds exactly one absolute bucket index's
/// events and that index is within `(cur_bucket, cur_bucket + 64)`; the
/// overflow heap only holds events at or beyond `cur_bucket + 64` (restored
/// on every rotation, and an overflow event whose bucket *is* the new
/// current one joins the sort); `order[pos..]` is sorted and indexes
/// exactly the unpopped events of bucket `cur_bucket` that were there at
/// the sort; `late` holds only events of bucket `cur_bucket` or earlier. So
/// every event outside `order[pos..]` ∪ `late` fires strictly after
/// everything inside it, the smaller of the two heads is the global
/// minimum, and pops are exact `(time, seq)` order — the same order a
/// `BinaryHeap` of [`Scheduled`] produces. The wheel rotates only when both
/// are empty.
///
/// Capacity follows the number pending, not the shape of the schedule: a
/// pool slot is appended only when every slot holds a pending event, so
/// the pool's length is the high-water mark, and `order` and both heaps
/// never hold more entries than are pending. All five vectors are reserved
/// to one capacity ([`EventQueue::capacity`]) and grow together, only when
/// the number pending passes it.
#[derive(Debug)]
pub struct EventQueue {
    /// Every pending event, in the slot its push took.
    pool: Vec<Scheduled>,
    /// Per pool slot, the next slot of the same wheel bucket, or of the
    /// freelist while the slot is free; `NIL` ends both lists.
    next: Vec<u32>,
    /// First free pool slot.
    free_head: u32,
    /// One key per event of the current bucket (see `sort_key`), in
    /// `(time, seq)` order of the events after a rotation.
    order: Vec<u64>,
    /// Cursor into `order`: keys before it have been popped.
    pos: usize,
    /// Events at or before the current bucket pushed after its sort.
    late: BinaryHeap<HeapKey>,
    /// First pool slot of each near-horizon bucket; bucket `b` lives in
    /// wheel slot `b % 64`.
    heads: [u32; WHEEL_SLOTS as usize],
    /// Bit `i` set ⇔ wheel slot `i` is non-empty.
    occupied: u64,
    /// Events at or beyond `cur_bucket + WHEEL_SLOTS` buckets.
    overflow: BinaryHeap<HeapKey>,
    /// Absolute index of the bucket currently being drained.
    cur_bucket: u64,
    next_seq: u64,
    len: usize,
    stats: QueueStats,
}

/// Lifetime operation counters for the timing wheel — which tier pushes
/// landed in, how often the wheel rotated, and how many far-future events
/// migrated out of the overflow heap. Plain `u64` bumps on paths the queue
/// already takes; they never influence pop order.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// Pushes that landed in the near tier's late heap (current bucket or
    /// the past).
    pub pushes_near: u64,
    /// Pushes that landed in a wheel bucket (O(1) fast path).
    pub pushes_wheel: u64,
    /// Pushes beyond the wheel horizon, parked in the overflow heap.
    pub pushes_overflow: u64,
    /// Wheel rotations to a new current bucket.
    pub advances: u64,
    /// Events migrated overflow → wheel/near as the horizon caught up.
    pub overflow_migrations: u64,
}

impl Default for EventQueue {
    /// The floor capacity: [`EventQueue::sized_for`] the smallest fabric.
    fn default() -> Self {
        Self::sized_for(0)
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `4 × max(512, n_nodes.next_power_of_two())`
    /// pending events, for a fabric (or a shard's part of one) of `n_nodes`
    /// nodes: 2,048 up to 512 nodes, 4,096 up to 1,024 and 8,192 up to
    /// 2,048. The events in flight scale with the ports, i.e. with the
    /// nodes. The packet runs measured peak at 803–2,140 pending events on
    /// up to 578 nodes and at 5,819 on 1,156; the 306-node WebSearch fabric
    /// at 2,140 (one seed) and at 5,602 (load 0.5) doubles the pool once
    /// and twice, early in the run. Growth is an allocation, so a rule
    /// that let a steady state grow the pool would be too small.
    pub fn sized_for(n_nodes: usize) -> Self {
        let cap = 4 * 512usize.max(n_nodes.next_power_of_two());
        EventQueue {
            pool: Vec::with_capacity(cap),
            next: Vec::with_capacity(cap),
            free_head: NIL,
            order: Vec::with_capacity(cap),
            pos: 0,
            late: BinaryHeap::with_capacity(cap),
            heads: [NIL; WHEEL_SLOTS as usize],
            occupied: 0,
            overflow: BinaryHeap::with_capacity(cap),
            cur_bucket: 0,
            next_seq: 0,
            len: 0,
            stats: QueueStats::default(),
        }
    }

    /// Schedule `event` at absolute time `time`, after every event already
    /// pushed for that time (the key is the push count). For a queue used
    /// on its own; the engine keys every event ([`EventQueue::push_keyed`]),
    /// and a queue should not mix the two.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, event);
    }

    /// Schedule `event` at `time` under a caller-supplied ordering key in
    /// place of the insertion sequence number. Pops stay exact `(time, key)`
    /// order. The engine schedules every event this way, with canonical
    /// keys that are pure functions of the event's content, so the pop order
    /// at equal timestamps is identical no matter which shard inserted the
    /// event or in what order — the property that makes recorded output
    /// byte-stable across shard counts, one included. Keys must be unique
    /// per timestamp; duplicate `(time, key)` pairs pop in unspecified
    /// order.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: Event) {
        self.push_with_seq(time, key, event);
    }

    #[inline]
    fn push_with_seq(&mut self, time: SimTime, seq: u64, event: Event) {
        self.len += 1;
        let idx = self.alloc(Scheduled { time, seq, event });
        let b = bucket_of(time);
        if b <= self.cur_bucket {
            // Current bucket, already sorted (or, for a standalone queue
            // driven with non-monotone times, the past): the late heap
            // orders it and `pop` merges.
            self.stats.pushes_near += 1;
            self.late.push(Reverse((time, seq, idx)));
        } else if b - self.cur_bucket < WHEEL_SLOTS {
            self.stats.pushes_wheel += 1;
            self.link(idx, b);
        } else {
            self.stats.pushes_overflow += 1;
            self.overflow.push(Reverse((time, seq, idx)));
        }
    }

    /// Put `s` in a free pool slot and return its index.
    #[inline]
    fn alloc(&mut self, s: Scheduled) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.next[idx as usize];
            self.pool[idx as usize] = s;
            return idx;
        }
        if self.pool.len() == self.pool.capacity() {
            self.grow();
        }
        let idx = self.pool.len() as u32;
        assert!(idx != NIL, "event pool exhausted u32 index space");
        self.pool.push(s);
        self.next.push(NIL);
        idx
    }

    /// Double the capacity of the pool and of everything that indexes it:
    /// the pending count is about to pass it, and none of the others can
    /// hold more entries than are pending.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let cap = 2 * self.pool.capacity().max(1);
        self.pool.reserve_exact(cap - self.pool.len());
        self.next.reserve_exact(cap - self.next.len());
        self.order.reserve_exact(cap - self.order.len());
        self.late.reserve_exact(cap - self.late.len());
        self.overflow.reserve_exact(cap - self.overflow.len());
    }

    /// Put pooled event `idx` at the head of absolute bucket `b`'s wheel
    /// slot.
    #[inline]
    fn link(&mut self, idx: u32, b: u64) {
        let slot = (b % WHEEL_SLOTS) as usize;
        self.next[idx as usize] = self.heads[slot];
        self.heads[slot] = idx;
        self.occupied |= 1u64 << slot;
    }

    /// True when the near tier has nothing left to pop.
    #[inline]
    fn near_is_empty(&self) -> bool {
        self.pos == self.order.len() && self.late.is_empty()
    }

    /// Rotate the wheel to the next non-empty bucket and sort its keys.
    /// Caller guarantees the near tier is empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.near_is_empty());
        // Next occupied wheel bucket after the current one: rotate the
        // occupancy mask so bit j corresponds to bucket cur_bucket + j + 1.
        let base = (self.cur_bucket % WHEEL_SLOTS) as u32;
        let rotated = self.occupied.rotate_right((base + 1) % 64);
        let wheel_next = if rotated != 0 {
            Some(self.cur_bucket + rotated.trailing_zeros() as u64 + 1)
        } else {
            None
        };
        let overflow_next = self.overflow.peek().map(|Reverse((t, ..))| bucket_of(*t));
        let target = match (wheel_next, overflow_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        self.cur_bucket = target;
        self.stats.advances += 1;
        let slot = (target % WHEEL_SLOTS) as usize;
        self.occupied &= !(1u64 << slot);
        // The slot's list becomes the current bucket's keys.
        self.order.clear();
        let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
        while idx != NIL {
            let i = idx as usize;
            self.order.push(sort_key(idx, self.pool[i].time));
            idx = self.next[i];
        }
        // Restore the overflow invariant: events now within the horizon
        // migrate to their buckets. Nothing in the overflow heap is earlier
        // than `target`, so the rest join the current bucket.
        while let Some(&Reverse((time, _, idx))) = self.overflow.peek() {
            let b = bucket_of(time);
            if b - self.cur_bucket >= WHEEL_SLOTS {
                break;
            }
            self.overflow.pop();
            self.stats.overflow_migrations += 1;
            if b == self.cur_bucket {
                self.order.push(sort_key(idx, time));
            } else {
                self.link(idx, b);
            }
        }
        self.order.sort_unstable();
        // Events of equal time now stand in pool-index order, which is not
        // `seq` order: settle each run of equal times by `seq`.
        let pool = &self.pool;
        let order = &mut self.order[..];
        let mut i = 0;
        while i + 1 < order.len() {
            let offset = order[i] >> 32;
            let mut end = i + 1;
            while end < order.len() && order[end] >> 32 == offset {
                end += 1;
            }
            if end - i > 1 {
                order[i..end].sort_unstable_by_key(|&k| pool[key_index(k)].seq);
            }
            i = end;
        }
        self.pos = 0;
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        if self.near_is_empty() {
            self.advance();
        }
        // The earlier head of the sorted run and the late heap.
        let sorted = self.order.get(self.pos).map(|&k| key_index(k));
        let idx = match (sorted, self.late.peek()) {
            (Some(i), Some(Reverse((t, seq, _))))
                if (*t, *seq) < (self.pool[i].time, self.pool[i].seq) =>
            {
                self.late.pop().map(|Reverse((.., idx))| idx as usize)
            }
            (Some(i), _) => {
                self.pos += 1;
                Some(i)
            }
            (None, _) => self.late.pop().map(|Reverse((.., idx))| idx as usize),
        };
        debug_assert!(idx.is_some(), "len tracked a phantom event");
        let idx = idx?;
        self.len -= 1;
        self.next[idx] = self.free_head;
        self.free_head = idx as u32;
        Some(self.pool[idx])
    }

    /// Activation time of the earliest pending event.
    ///
    /// Takes `&mut self` because peeking may rotate the wheel to the next
    /// occupied bucket (the rotation never changes pop order).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.near_is_empty() {
            self.advance();
        }
        let sorted = self
            .order
            .get(self.pos)
            .map(|&k| self.pool[key_index(k)].time);
        let late = self.late.peek().map(|Reverse((t, ..))| *t);
        match (sorted, late) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Highest number of simultaneously pending events observed so far —
    /// the queue's high-water mark, reported by the perf harness. It is the
    /// pool's length: a slot is appended only when every slot is pending.
    pub fn peak_len(&self) -> usize {
        self.pool.len()
    }

    /// Pending events the queue holds before it next allocates: the
    /// capacity of its pool, to which the key vector and both heaps are
    /// reserved as well.
    pub fn capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Lifetime tier/rotation counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::time::Instant;

    /// The pre-timing-wheel future-event list: a thin wrapper over
    /// [`BinaryHeap`] that stamps insertion order so simultaneous events pop
    /// in FIFO order.
    ///
    /// Kept as the **reference implementation**: the differential tests
    /// below check that [`EventQueue`] pops any push sequence, plain or
    /// keyed, in the identical order, and `wheel_beats_reference_heap`
    /// times the wheel against it.
    #[derive(Default)]
    struct HeapEventQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl HeapEventQueue {
        fn new() -> Self {
            Self::default()
        }

        fn push(&mut self, time: SimTime, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { time, seq, event });
        }

        /// Schedule `event` at `time` under `key`, as
        /// [`EventQueue::push_keyed`] does.
        fn push_keyed(&mut self, time: SimTime, key: u64, event: Event) {
            self.heap.push(Scheduled {
                time,
                seq: key,
                event,
            });
        }

        fn pop(&mut self) -> Option<Scheduled> {
            self.heap.pop()
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    fn tick() -> Event {
        Event::ControlTick
    }

    /// A deterministic xorshift standing in for an RNG.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(3), tick());
        q.push(SimTime::from_us(1), tick());
        q.push(SimTime::from_us(2), tick());
        let times: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| s.time).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_us(1),
                SimTime::from_us(2),
                SimTime::from_us(3)
            ]
        );
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5);
        for i in 0..10 {
            q.push(
                t,
                Event::HostTimer {
                    host: NodeId(0),
                    token: i,
                },
            );
        }
        let mut tokens = Vec::new();
        while let Some(s) = q.pop() {
            if let Event::HostTimer { token, .. } = s.event {
                tokens.push(token);
            }
        }
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(7), tick());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
    }

    #[test]
    fn peak_len_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(SimTime::from_us(i), tick());
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_us(9), tick());
        assert_eq!(q.len(), 4);
        assert_eq!(q.peak_len(), 5);
    }

    /// Far-future events (control ticks, telemetry, faults) cross the
    /// overflow heap and still pop in exact order as the wheel rotates to
    /// them, including FIFO among equal far times.
    #[test]
    fn overflow_events_pop_in_order() {
        let mut q = EventQueue::new();
        // Far beyond the ~4.2 µs horizon.
        q.push(SimTime::from_ms(5), tick());
        q.push(
            SimTime::from_ms(5),
            Event::HostTimer {
                host: NodeId(1),
                token: 42,
            },
        );
        q.push(SimTime::from_us(1), tick());
        q.push(SimTime::from_secs(1), tick());
        assert_eq!(q.pop().unwrap().time, SimTime::from_us(1));
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!(a.time, SimTime::from_ms(5));
        assert!(matches!(a.event, Event::ControlTick), "FIFO across tiers");
        assert!(matches!(b.event, Event::HostTimer { token: 42, .. }));
        assert_eq!(q.pop().unwrap().time, SimTime::from_secs(1));
        assert!(q.pop().is_none());
    }

    /// The tier counters attribute each push to the tier it actually landed
    /// in, and migrations/rotations tick as the wheel catches up.
    #[test]
    fn stats_track_tiers_and_migrations() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, tick()); // current bucket → late heap
        q.push(SimTime::from_us(1), tick()); // within horizon → wheel
        q.push(SimTime::from_ms(1), tick()); // beyond horizon → overflow
        let s = q.stats();
        assert_eq!(
            (s.pushes_near, s.pushes_wheel, s.pushes_overflow),
            (1, 1, 1)
        );
        assert_eq!(s.overflow_migrations, 0);
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.overflow_migrations, 1);
        assert!(s.advances >= 2);
    }

    /// Every push is counted in exactly one tier, and once the queue has
    /// drained every overflow push has migrated exactly once — the two
    /// identities `event.wheel_push_frac` and
    /// `event.overflow_migrations_per_event` are computed from.
    #[test]
    fn tier_counters_partition_the_pushes() {
        let mut q = EventQueue::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut clock = SimTime::ZERO;
        let mut pushed = 0u64;
        for round in 0..5_000u64 {
            let dt = match xorshift(&mut x) % 8 {
                0 => 0,                                         // tie with the last pop
                1..=3 => xorshift(&mut x) % 100_000,            // current bucket or next
                4..=5 => xorshift(&mut x) % 4_000_000,          // across the wheel
                _ => 5_000_000 + xorshift(&mut x) % 90_000_000, // beyond the horizon
            };
            q.push(clock + SimTime::from_ps(dt), tick());
            pushed += 1;
            if round % 3 != 0 {
                clock = q.pop().expect("just pushed").time;
            }
        }
        let s = q.stats();
        assert_eq!(s.pushes_near + s.pushes_wheel + s.pushes_overflow, pushed);
        assert!(s.pushes_near > 0 && s.pushes_wheel > 0 && s.pushes_overflow > 0);
        assert!(s.overflow_migrations <= s.pushes_overflow);
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.pushes_near + s.pushes_wheel + s.pushes_overflow, pushed);
        assert_eq!(s.overflow_migrations, s.pushes_overflow);
    }

    /// Far events that share a bucket and reach it straight from the
    /// overflow heap (nothing nearer is pending, so their bucket becomes
    /// the current one) are sorted with it, and a push into that bucket
    /// after the rotation still pops in its place.
    #[test]
    fn overflow_events_join_the_bucket_that_becomes_current() {
        let mut q = EventQueue::new();
        // 67 µs out and bucket-aligned; every offset below stays in its bucket.
        let base = SimTime::from_ps(1 << 26);
        for (key, off_ps) in [(7u64, 30_000u64), (3, 10_000), (9, 10_000), (1, 20_000)] {
            q.push_keyed(base + SimTime::from_ps(off_ps), key, tick());
        }
        assert_eq!(q.peek_time(), Some(base + SimTime::from_ps(10_000)));
        assert_eq!(q.stats().overflow_migrations, 4);
        // After the sort: before the head, between two sorted events, and
        // tied with one on time but ahead of it on key.
        q.push_keyed(base + SimTime::from_ps(5_000), 8, tick());
        q.push_keyed(base + SimTime::from_ps(15_000), 2, tick());
        q.push_keyed(base + SimTime::from_ps(30_000), 4, tick());
        assert_eq!(q.stats().pushes_near, 3);
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|s| ((s.time - base).as_ps(), s.seq))
            .collect();
        assert_eq!(
            got,
            vec![
                (5_000, 8),
                (10_000, 3),
                (10_000, 9),
                (15_000, 2),
                (20_000, 1),
                (30_000, 4),
                (30_000, 7)
            ]
        );
    }

    /// Keyed pushes pop in `(time, key)` order regardless of insertion
    /// order — the invariant the sharded engine's canonical keys rely on.
    #[test]
    fn keyed_pushes_pop_by_key_not_insertion_order() {
        let t = SimTime::from_us(5);
        let far = SimTime::from_ms(7); // overflow tier
        let mut orders: Vec<Vec<u64>> = Vec::new();
        for perm in [[3u64, 1, 2], [2, 3, 1], [1, 2, 3]] {
            let mut q = EventQueue::new();
            for k in perm {
                q.push_keyed(
                    t,
                    k,
                    Event::HostTimer {
                        host: NodeId(0),
                        token: k,
                    },
                );
                q.push_keyed(
                    far,
                    k,
                    Event::HostTimer {
                        host: NodeId(1),
                        token: k,
                    },
                );
            }
            let mut got = Vec::new();
            while let Some(s) = q.pop() {
                got.push(s.seq);
            }
            orders.push(got);
        }
        for got in &orders {
            assert_eq!(got, &vec![1, 2, 3, 1, 2, 3]);
        }
    }

    /// Interleaved pushes and pops, with pushes landing in the current
    /// bucket, the wheel and the overflow, match the reference heap exactly.
    /// (A deterministic LCG stands in for a RNG; the proptest differential
    /// in `tests/properties.rs` explores this space much harder.)
    #[test]
    fn differential_against_reference_heap() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || xorshift(&mut x);
        let mut clock = SimTime::ZERO;
        for round in 0..2_000u64 {
            // Mostly near-future pushes, occasionally far-future, clustered
            // so ties happen.
            let dt = match rng() % 10 {
                0..=5 => rng() % 150_000,                // within a couple of buckets
                6..=7 => rng() % (4 << 20),              // across the wheel
                8 => 50_000_000 + rng() % 1_000_000_000, // overflow tier
                _ => 0,                                  // exact tie with `clock`
            };
            let t = clock + SimTime::from_ps(dt);
            let ev = Event::HostTimer {
                host: NodeId(0),
                token: round,
            };
            wheel.push(t, ev);
            heap.push(t, ev);
            if rng() % 3 == 0 {
                let a = wheel.pop();
                let b = heap.pop();
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.time, a.seq), (b.time, b.seq), "round {round}");
                        clock = a.time; // monotone, like the engine's `now`
                    }
                    (None, None) => {}
                    _ => panic!("one queue drained before the other"),
                }
            }
        }
        loop {
            match (wheel.pop(), heap.pop()) {
                (Some(a), Some(b)) => assert_eq!((a.time, a.seq), (b.time, b.seq)),
                (None, None) => break,
                _ => panic!("queues drained at different lengths"),
            }
        }
    }

    proptest! {
        /// Differential test of the timing-wheel queue against the reference
        /// `BinaryHeap` queue: any interleaving of pushes and pops produces an
        /// identical pop sequence — same `(time, seq)` at every step, including
        /// the order among same-timestamp ties. Times span all three wheel
        /// tiers (current bucket, in-wheel, overflow), and `near` puts a push at
        /// a recent timestamp or 7 or 14 ns after it, so ties occur and one
        /// bucket holds several runs of them. `keyed` cases push as
        /// the engine does, through `push_keyed`, under keys unique per time and
        /// drawn out of order, so equal-time runs reach a bucket out of key
        /// order — directly and as migrants from the overflow heap — and the
        /// wheel has to settle them; the others `push`, whose key is the push
        /// count.
        #[test]
        fn wheel_queue_matches_reference_heap(
            keyed in any::<bool>(),
            ops in prop::collection::vec(
                (
                    0u64..200_000_000_000,
                    any::<bool>(),
                    prop::option::of((0u8..4, 0u64..3)),
                    any::<u64>(),
                ),
                1..400,
            ),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut recent: Vec<u64> = Vec::new();
            let mut used: BTreeSet<(u64, u64)> = BTreeSet::new();
            for (i, &(t_ps, do_pop, near, key)) in ops.iter().enumerate() {
                // Either a fresh time or one at or just after a recent one.
                let t_ps = match near {
                    Some((k, step)) if !recent.is_empty() => {
                        recent[k as usize % recent.len()] + step * 7_000
                    }
                    _ => t_ps,
                };
                recent.push(t_ps);
                if recent.len() > 8 {
                    recent.remove(0);
                }
                let t = SimTime::from_ps(t_ps);
                let ev = Event::HostTimer { host: NodeId(0), token: i as u64 };
                if keyed {
                    // Keys must be unique per timestamp.
                    if !used.insert((t_ps, key)) {
                        continue;
                    }
                    wheel.push_keyed(t, key, ev);
                    heap.push_keyed(t, key, ev);
                } else {
                    wheel.push(t, ev);
                    heap.push(t, ev);
                }
                prop_assert_eq!(wheel.len(), heap.len());
                if do_pop {
                    let a = wheel.pop().expect("just pushed");
                    let b = heap.pop().expect("just pushed");
                    prop_assert_eq!((a.time, a.seq), (b.time, b.seq));
                }
            }
            // Drain: both queues must agree to the very last event.
            loop {
                match (wheel.pop(), heap.pop()) {
                    (Some(a), Some(b)) => prop_assert_eq!((a.time, a.seq), (b.time, b.seq)),
                    (None, None) => break,
                    _ => prop_assert!(false, "queues drained at different lengths"),
                }
            }
            prop_assert!(wheel.is_empty() && heap.is_empty());
        }
    }

    /// Pairs the wall-clock ratio is measured over.
    const RATIO_ROUNDS: usize = 5;

    /// A ratio of two throughputs from `RATIO_ROUNDS` back-to-back pairs.
    struct PairedRatio {
        /// Median throughput of the first side.
        a: f64,
        /// Median throughput of the second side.
        b: f64,
        /// Median over the pairs of `a_i / b_i`.
        ratio: f64,
    }

    fn median(mut v: Vec<f64>) -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    /// Measure `a` against `b` (each returns one throughput sample) as
    /// [`RATIO_ROUNDS`] pairs, the side that goes first alternating, and
    /// take the median of the per-pair ratios. A shared host runs the same
    /// code several times slower for seconds at a stretch; the two halves
    /// of a pair run within one such stretch, so its ratio holds where a
    /// best-of-N of each side taken separately compares a fast stretch with
    /// a slow one.
    fn paired_ratio(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> PairedRatio {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for round in 0..RATIO_ROUNDS {
            let (x, y) = if round % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            };
            xs.push(x);
            ys.push(y);
        }
        let ratios = xs.iter().zip(&ys).map(|(x, y)| x / y.max(1e-9)).collect();
        PairedRatio {
            a: median(xs),
            b: median(ys),
            ratio: median(ratios),
        }
    }

    /// Working depth of the queue during the hold benchmark (an incast run
    /// on the quick fabric keeps a few thousand events in flight).
    const HOLD_DEPTH: usize = 4096;

    /// Incast-like inter-event offset: mostly sub-microsecond serialization
    /// and propagation gaps (in-wheel), a sliver of control-tick-distance
    /// timers (overflow tier), and exact ties from simultaneous arrivals.
    fn incast_offset(x: &mut u64) -> u64 {
        match xorshift(x) % 16 {
            0..=9 => xorshift(x) % 700_000,
            10..=13 => xorshift(x) % 4_000_000,
            14 => 50_000_000,
            _ => 0,
        }
    }

    /// Run `ops` pop-one/push-one hold operations against queue `Q`,
    /// returning ops/sec. `Q` is abstracted by the two functions so wheel
    /// and heap run the byte-identical op stream. Pushes are keyed, as the
    /// engine's are: push `i` under a bijective scramble of `i`, so keys are
    /// unique and reach each bucket out of order.
    fn hold_throughput<Q>(
        mut q: Q,
        push: fn(&mut Q, SimTime, u64, Event),
        pop: fn(&mut Q) -> Option<Scheduled>,
        ops: u64,
    ) -> f64 {
        let timer = |token| Event::HostTimer {
            host: NodeId(0),
            token,
        };
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let mut t = SimTime::ZERO;
        for i in 0..HOLD_DEPTH as u64 {
            t = SimTime::from_ps(t.as_ps() + incast_offset(&mut rng) / 16);
            push(&mut q, t, key(i), timer(i));
        }
        let start = Instant::now();
        let mut acc = 0u64;
        for i in HOLD_DEPTH as u64..HOLD_DEPTH as u64 + ops {
            let s = pop(&mut q).expect("queue stays at depth");
            acc ^= s.seq;
            let nt = SimTime::from_ps(s.time.as_ps() + incast_offset(&mut rng));
            push(&mut q, nt, key(i), timer(i));
        }
        let wall = start.elapsed().as_secs_f64();
        // Defeat dead-code elimination without perturbing timing.
        assert!(acc < u64::MAX);
        ops as f64 / wall.max(1e-9)
    }

    /// The one wall-clock gate kept, because it is a ratio of two runs of
    /// the same op stream on the same host: the timing wheel against the
    /// reference `BinaryHeap`, as the median of alternating pairs.
    #[test]
    fn wheel_beats_reference_heap() {
        let ops = 200_000;
        let r = paired_ratio(
            || {
                let q = EventQueue::new();
                hold_throughput(q, EventQueue::push_keyed, EventQueue::pop, ops)
            },
            || {
                hold_throughput(
                    HeapEventQueue::new(),
                    HeapEventQueue::push_keyed,
                    HeapEventQueue::pop,
                    ops,
                )
            },
        );
        assert!(
            r.ratio >= 1.3,
            "wheel must be >=1.3x the reference heap on the incast hold workload, measured \
             {:.2}x ({:.0} vs {:.0} ops/s)",
            r.ratio,
            r.a,
            r.b
        );
    }
}
