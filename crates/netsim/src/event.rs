//! The discrete-event core: event kinds and the future-event queue.
//!
//! The future-event list is a **timing wheel** ([`EventQueue`]) whose rule
//! is *order keys, not events*. A push appends the 64-byte event to the
//! unsorted bucket its time falls in, and that is the only time the event
//! is written. When the wheel reaches the bucket, one 8-byte `(offset in
//! the bucket, index)` key per event is sorted, once, and pops walk the keys
//! and read each event where the push left it. Far-future timers (control ticks,
//! telemetry sampling, retransmit timeouts, scheduled faults) wait in an
//! overflow heap until the wheel rotates toward them, and the few pushes
//! that arrive for a bucket already sorted go to a small side heap that
//! `pop` merges in. The previous `BinaryHeap`-based queue is kept as
//! `HeapEventQueue`, a reference implementation for differential tests and
//! benchmarks, outside the rendered docs.
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
use std::cmp::Ordering;
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

/// Per-slot pre-sizing is stated for a 2^18-ps bucket — the width the
/// perf scenarios' high-water marks were taken at — and shifted down by
/// this for the actual width: a bucket a quarter as wide holds a quarter of
/// the events, and slots × capacity × 64 B does not grow when the wheel is
/// re-tuned.
const SLOT_CAPACITY_SHIFT: u32 = 18 - BUCKET_PS_SHIFT;

#[inline]
const fn bucket_of(time: SimTime) -> u64 {
    time.as_ps() >> BUCKET_PS_SHIFT
}

/// The sort key of event `idx` of the current bucket: its offset into the
/// bucket (all of `cur` is one bucket, so `BUCKET_PS_SHIFT` bits of its time
/// order it) above its index into `EventQueue::cur`.
fn sort_key(idx: usize, time: SimTime) -> u64 {
    (time.as_ps() & ((1 << BUCKET_PS_SHIFT) - 1)) << 32 | idx as u64
}

/// The index into `EventQueue::cur` a sort key carries.
fn key_index(key: u64) -> usize {
    key as u32 as usize
}

/// The future-event list: a single-level timing wheel over an overflow heap.
///
/// Three tiers, ordered by activation time:
///
/// * **near** — the bucket currently being drained. Its events stay where
///   they were pushed (`cur`, the slot's own vector, swapped in whole when
///   the wheel reaches it); one 8-byte key per event is sorted once
///   per rotation (`order`) and `pop` walks that order with a cursor,
///   copying each 64-byte event out exactly once. Pushes that arrive for
///   the current bucket after its sort, or for the past, go to the small
///   `late` heap, which `pop` merges with the sorted run by `(time, seq)`;
/// * **wheel** — 64 unsorted buckets covering the next ~4.2 µs; a push is
///   O(1) (shift, mask, `Vec::push` into a recycled buffer);
/// * **overflow** — a binary heap for everything beyond the horizon.
///
/// Invariants: every wheel bucket holds exactly one absolute bucket index's
/// events and that index is within `(cur_bucket, cur_bucket + 64)`; the
/// overflow heap only holds events at or beyond `cur_bucket + 64` (restored
/// on every rotation, and an overflow event whose bucket *is* the new
/// current one joins `cur` before the sort); `order[pos..]` is sorted and
/// indexes exactly the unpopped events of `cur`, all of bucket
/// `cur_bucket`; `late` holds only events of bucket `cur_bucket` or
/// earlier. So every event outside `order[pos..]` ∪ `late` fires strictly
/// after everything inside it, the smaller of the two heads is the global
/// minimum, and pops are exact `(time, seq)` order — the same order
/// `HeapEventQueue` produces. The wheel rotates only when both are empty.
#[derive(Debug)]
pub struct EventQueue {
    /// The current bucket's events, in push order; read in place by `pop`.
    cur: Vec<Scheduled>,
    /// One key per event of `cur` (see `sort_key`), in `(time, seq)` order
    /// of the events after a rotation.
    order: Vec<u64>,
    /// Cursor into `order`: keys before it have been popped.
    pos: usize,
    /// Events at or before the current bucket pushed after its sort.
    late: BinaryHeap<Scheduled>,
    /// Unsorted near-horizon buckets; bucket `b` lives in slot `b % 64`.
    wheel: Vec<Vec<Scheduled>>,
    /// Bit `i` set ⇔ wheel slot `i` is non-empty.
    occupied: u64,
    /// Events at or beyond `cur_bucket + WHEEL_SLOTS` buckets.
    overflow: BinaryHeap<Scheduled>,
    /// Absolute index of the bucket currently being drained.
    cur_bucket: u64,
    next_seq: u64,
    len: usize,
    peak_len: usize,
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
    /// The floor capacities: [`EventQueue::sized_for`] the smallest fabric.
    fn default() -> Self {
        Self::sized_for(0)
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue pre-sized for a fabric of `n_nodes` nodes: wheel
    /// slots and heaps scale with the node count so the first congestion
    /// burst on a large topology (same-bucket packet events scale with
    /// ports, i.e. with nodes) doesn't double a slot vector mid-run —
    /// growth after warmup would break the zero-alloc steady-state gate.
    /// Small fabrics get a floor the netsim perf scenarios peak well under.
    ///
    /// The current bucket and its key vector are sized like a slot (they
    /// trade places with the slots). The late heap is sized like the
    /// overflow heap: it holds a handful of events while a run is in
    /// progress, but a batch scheduled between runs, after a `peek_time`
    /// rotated the wheel ahead of it, lands there whole.
    pub fn sized_for(n_nodes: usize) -> Self {
        let slot = 512usize.max(n_nodes.next_power_of_two()) >> SLOT_CAPACITY_SHIFT;
        let heap = 1024usize.max((2 * n_nodes).next_power_of_two());
        EventQueue {
            cur: Vec::with_capacity(slot),
            order: Vec::with_capacity(slot),
            pos: 0,
            late: BinaryHeap::with_capacity(heap),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::with_capacity(slot)).collect(),
            occupied: 0,
            overflow: BinaryHeap::with_capacity(heap),
            cur_bucket: 0,
            next_seq: 0,
            len: 0,
            peak_len: 0,
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
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        let s = Scheduled { time, seq, event };
        let b = bucket_of(time);
        if b <= self.cur_bucket {
            // Current bucket, already sorted (or, for a standalone queue
            // driven with non-monotone times, the past): the late heap
            // orders it and `pop` merges.
            self.stats.pushes_near += 1;
            self.late.push(s);
        } else if b - self.cur_bucket < WHEEL_SLOTS {
            self.stats.pushes_wheel += 1;
            let slot = (b % WHEEL_SLOTS) as usize;
            self.wheel[slot].push(s);
            self.occupied |= 1u64 << slot;
        } else {
            self.stats.pushes_overflow += 1;
            self.overflow.push(s);
        }
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
        let overflow_next = self.overflow.peek().map(|s| bucket_of(s.time));
        let target = match (wheel_next, overflow_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        self.cur_bucket = target;
        self.stats.advances += 1;
        let slot = (target % WHEEL_SLOTS) as usize;
        // The spent bucket's vector becomes the slot's empty one and the
        // slot's vector becomes the current bucket: no event is copied and
        // both keep their capacity, so steady state allocates nothing.
        self.cur.clear();
        std::mem::swap(&mut self.cur, &mut self.wheel[slot]);
        self.occupied &= !(1u64 << slot);
        // Restore the overflow invariant: events now within the horizon
        // migrate to their buckets. Nothing in the overflow heap is earlier
        // than `target`, so the rest join the current bucket.
        while let Some(s) = self.overflow.peek() {
            let b = bucket_of(s.time);
            if b - self.cur_bucket >= WHEEL_SLOTS {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            self.stats.overflow_migrations += 1;
            if b == self.cur_bucket {
                self.cur.push(s);
            } else {
                let slot = (b % WHEEL_SLOTS) as usize;
                self.wheel[slot].push(s);
                self.occupied |= 1u64 << slot;
            }
        }
        let cur = &self.cur;
        self.order.clear();
        self.order
            .extend(cur.iter().enumerate().map(|(idx, s)| sort_key(idx, s.time)));
        self.order.sort_unstable();
        // Events of equal time now stand in index order: `seq` order for
        // `push`, but keyed pushes (and keyed migrants from the overflow
        // heap) arrive in any order. Settle each run of equal times by `seq`.
        let order = &mut self.order[..];
        let mut i = 0;
        while i + 1 < order.len() {
            let offset = order[i] >> 32;
            let mut end = i + 1;
            while end < order.len() && order[end] >> 32 == offset {
                end += 1;
            }
            if end - i > 1 {
                order[i..end].sort_unstable_by_key(|&k| cur[key_index(k)].seq);
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
        let sorted = self.order.get(self.pos).map(|&k| &self.cur[key_index(k)]);
        let s = match (sorted, self.late.peek()) {
            (Some(s), Some(l)) if (l.time, l.seq) < (s.time, s.seq) => self.late.pop(),
            (Some(s), _) => {
                self.pos += 1;
                Some(*s)
            }
            (None, _) => self.late.pop(),
        };
        debug_assert!(s.is_some(), "len tracked a phantom event");
        self.len -= s.is_some() as usize;
        s
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
            .map(|&k| self.cur[key_index(k)].time);
        let late = self.late.peek().map(|l| l.time);
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
    /// the queue's high-water mark, reported by the perf harness.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Lifetime tier/rotation counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// The pre-timing-wheel future-event list: a thin wrapper over
/// [`BinaryHeap`] that stamps insertion order so simultaneous events pop in
/// FIFO order.
///
/// Kept as the **reference implementation**: differential tests
/// (`tests/properties.rs`) check that [`EventQueue`] pops any push sequence,
/// plain or keyed, in the identical order, and the `event_queue` criterion bench measures
/// the wheel's push/pop throughput against this baseline, as does `perf`'s
/// ratio test. Not used by the engine, so not in the rendered docs.
#[doc(hidden)]
#[derive(Default, Debug)]
pub struct HeapEventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl HeapEventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Schedule `event` at `time` under `key`, as
    /// [`EventQueue::push_keyed`] does.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: Event) {
        self.heap.push(Scheduled {
            time,
            seq: key,
            event,
        });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    /// Activation time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
