//! Sharded execution: conservative-lookahead parallel simulation.
//!
//! The fabric is partitioned into **shards** — disjoint sets of nodes, one
//! worker thread each. Every shard runs a full [`Simulator`] restricted to
//! its own nodes: events for foreign nodes are intercepted at the single
//! scheduling point and forwarded through bounded inter-shard mailboxes as
//! timestamped [`RemoteEvent`]s.
//!
//! ## Synchronization model
//!
//! The protocol is classic conservative (null-message-free) lookahead. Each
//! shard publishes a monotone **clock** — a promise that every event it will
//! ever send cross-shard from now on carries a timestamp `>= clock +
//! lookahead`, where the lookahead `L` is the minimum propagation delay over
//! all cross-shard links (packets cannot cross a link faster than the link's
//! delay). A worker iteration — one **slice** — is:
//!
//! 1. snapshot every peer's published clock (`Acquire`),
//! 2. compute `bound = min(min_peer_clock + L, own_clock + L, end + 1)`
//!    (`slice_bound`); if that is the clock already published, wait (below)
//!    and snapshot again,
//! 3. drain the inbound mailboxes into the local event queue,
//! 4. process every local event with `time < bound`,
//! 5. flush outbound mailboxes, **then** publish `clock = bound` (`Release`).
//!
//! The snapshot-before-drain and flush-before-publish orderings are
//! load-bearing: together they guarantee that when a shard reads peer clock
//! `C`, every message that peer sent with a timestamp below `C + L` is
//! already visible in the mailbox, so processing strictly below `bound` can
//! never violate causality. Published clocks double as the termination
//! signal: a shard leaves a phase once its clock reaches `end + 1`.
//!
//! ### Why a slice is capped at one lookahead
//!
//! `min_peer_clock + L` alone is safe, and it serialises the shards. A clock
//! moves only at the end of a slice, so once shard A is one window ahead the
//! pair leapfrogs. Say A has published `L` and B `2L`:
//!
//! * A's bound is `2L + L = 3L`. It runs `[L, 3L)`, and all that time its
//!   published clock still reads `L`.
//! * B's bound is `L + L = 2L`, which B has already published: B waits.
//! * A publishes `3L`. Now B runs `[2L, 4L)` with its clock at `2L`, so A's
//!   bound is `3L`, already published: A waits.
//!
//! Every slice is `2L` long and exactly one shard runs at a time; the wall
//! time is the *sum* of the shards' work. With the `own_clock + L` term A
//! stops at `2L` and publishes it, and then both shards hold `2L` and both
//! run `[2L, 3L)`. In general a shard that is ahead never computes further
//! than one lookahead past what its peers have been told, equal clocks give
//! every shard a non-empty window, no clock is ever more than `L` behind
//! another, and what is left of the waiting is the difference in load between
//! the shards inside one window. [`ShardStats::max_slice`] records the
//! longest slice, and the tests pin it to `L`.
//!
//! ### Waiting
//!
//! A shard whose bound equals its own clock has processed everything below
//! it, and since peers flush before they publish, nothing new can become
//! processable until a peer's clock moves. So it waits on the clocks alone —
//! no mailbox is touched — with `SPIN_ROUNDS` `spin_loop` hints and then
//! `yield_now`, which lets more shards than cores make progress. Each round
//! is one [`ShardStats::stalls`] and is charged to the peer holding the
//! minimum clock ([`ShardStats::blocked_on`]); the time goes to
//! [`ShardStats::wait_s`]. Outside the wait path an empty mailbox costs one
//! atomic load (`Mailbox::pending`), not a lock.
//!
//! ### Poisoning
//!
//! A worker that panics (in `build`, in a driver, in `assert_shard`) would
//! never advance its clock nor reach the phase barrier, and its peers would
//! wait for both forever. Every thread of a run therefore executes inside
//! `Gate::guard`: the first panic's payload is kept and a poison flag
//! raised; the wait path and the barrier check the flag and return, and
//! [`run_sharded_phased`] re-raises the payload once all threads are joined.
//!
//! ## Determinism contract
//!
//! Runs are reproducible **across shard counts**: the merged recorded output
//! of `--shards 1/2/4/8` is byte-identical. There is one engine: a
//! [`Simulator::new`] is the one shard of a one-shard plan, so an unsharded
//! run is the `--shards 1` run. Three mechanisms deliver this:
//!
//! * **Partition-invariant event keys.** Every event is inserted with a
//!   canonical 64-bit key derived from its content (node, port, class, …)
//!   instead of an arrival-order sequence number, so simultaneous events
//!   pop in the same relative order no matter which shard's queue they sit
//!   in (see `node_event_key`'s encoding notes).
//! * **Per-node RNG streams.** ECN marking draws, host driver randomness and
//!   probabilistic fault draws come from per-node `SmallRng`s seeded from
//!   `(seed, node)`, so a node's stream does not depend on which other nodes
//!   share its thread.
//! * **Owner gating.** Faults replicate into every shard (so routing tables
//!   and link state stay globally consistent) but an executed fault is
//!   reported — fault-log entry, profiler marker — only by the
//!   shard that owns the node it names, and telemetry is emitted only by
//!   the owner of the node sampled; the per-shard streams are disjoint and
//!   merge deterministically.
//!
//! Shard boundaries follow the racks: each host-facing switch forms a group
//! with its attached hosts (so host↔ToR links never cross shards), groups
//! are dealt to shards in contiguous runs, and fabric-only switches (aggs,
//! spines, cores) are distributed round-robin.

use crate::event::Event;
use crate::ids::NodeId;
use crate::sim::Simulator;
use crate::time::SimTime;
use crate::topology::Topology;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Event classes occupying the top two bits of a canonical event key.
/// Faults sort before packet events at equal timestamps (they reconfigure
/// the world the packets then see); control and telemetry ticks sort after.
const CLASS_FAULT: u64 = 0;
const CLASS_NODE: u64 = 1;
const CLASS_TICK: u64 = 2;
const CLASS_SAMPLE: u64 = 3;

/// Within-node event ranks (bits 41..39 of a class-1 key).
pub(crate) const RANK_ARRIVE: u64 = 0;
pub(crate) const RANK_TXDONE: u64 = 1;
pub(crate) const RANK_PFC: u64 = 2;
pub(crate) const RANK_TIMER: u64 = 3;

/// Mask for the per-event auxiliary discriminant (bits 38..0).
pub(crate) const AUX_MASK: u64 = (1 << 39) - 1;

/// Nodes a node-addressed event key can name: its node field is 20 bits.
/// Every core asserts that its topology fits when it is built.
pub(crate) const MAX_KEYED_NODES: usize = 1 << 20;

/// Canonical key of a node-addressed event: class 1, then node id (20 bits,
/// see [`MAX_KEYED_NODES`]), then rank, then an aux discriminant. Keys are
/// unique among simultaneous events — link serialization separates
/// same-port arrivals, a port has one in-flight packet, PFC pause/resume
/// alternates per (port, prio) under the Xoff/Xon hysteresis, and host
/// timers carry a per-host sequence number — so `(time, key)` is a total
/// order independent of the partition.
#[inline]
pub(crate) fn node_event_key(node: NodeId, rank: u64, aux: u64) -> u64 {
    (CLASS_NODE << 62) | ((node.0 as u64) << 42) | (rank << 39) | (aux & AUX_MASK)
}

/// Canonical key of a scheduled fault: class 0, ordered by plan index.
#[inline]
pub(crate) fn fault_event_key(index: u64) -> u64 {
    (CLASS_FAULT << 62) | (index & ((1 << 62) - 1))
}

/// Canonical key of the (shard-local) control tick.
#[inline]
pub(crate) fn control_tick_key() -> u64 {
    CLASS_TICK << 62
}

/// Canonical key of the (shard-local) telemetry sampling tick.
#[inline]
pub(crate) fn telemetry_sample_key() -> u64 {
    CLASS_SAMPLE << 62
}

/// Initial capacity for the cross-shard staging buffers (per-destination
/// outboxes, mailboxes, and the flush scratch vector). Scaled with fabric
/// size: a steady-state congestion burst on a large topology can stage
/// hundreds of remote events in one slice, and letting those vectors double
/// mid-run would break the zero-alloc steady-state property the perf
/// harness asserts.
#[inline]
pub(crate) fn remote_buf_capacity(n_nodes: usize) -> usize {
    1024usize.max(n_nodes.next_power_of_two())
}

/// SplitMix64 finalizer — decorrelates per-node RNG seeds.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An event in flight between shards: its activation time, canonical key,
/// and payload. Plain data — this is the only thing that crosses threads.
#[derive(Clone, Debug)]
pub struct RemoteEvent {
    /// Activation time at the destination.
    pub at: SimTime,
    /// Canonical partition-invariant key (see the module's determinism
    /// contract).
    pub key: u64,
    /// The event payload (only `Arrive` and `PfcUpdate` cross shards).
    pub event: Event,
}

/// A partition of the topology into `n_shards` node sets plus the derived
/// conservative lookahead.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Number of shards (worker threads).
    pub n_shards: u32,
    /// Owning shard of every node, indexed by `NodeId::idx()`.
    pub owner_of: Vec<u32>,
    /// Minimum propagation delay over cross-shard links — the lookahead `L`.
    /// [`SimTime::MAX`] when no link crosses shards (e.g. one shard).
    pub lookahead: SimTime,
}

impl ShardPlan {
    /// Partition `topo` into `n_shards` shards along rack boundaries.
    ///
    /// Every switch with at least one host-facing port anchors a group
    /// containing it and its attached hosts; groups are assigned to shards
    /// in contiguous runs (pods stay together), and fabric-only switches
    /// are dealt round-robin. Host↔ToR links therefore never cross shards;
    /// only switch↔switch fabric links do, and those carry the fabric
    /// propagation delay that becomes the lookahead.
    pub fn build(topo: &Topology, n_shards: u32) -> ShardPlan {
        assert!(n_shards >= 1, "need at least one shard");
        let mut owner_of = vec![u32::MAX; topo.nodes.len()];
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        let mut fabric: Vec<NodeId> = Vec::new();
        for &sw in topo.switches() {
            let mut group = vec![sw];
            for p in &topo.node(sw).ports {
                if topo.is_host(p.peer_node) {
                    group.push(p.peer_node);
                }
            }
            if group.len() > 1 {
                groups.push(group);
            } else {
                fabric.push(sw);
            }
        }
        let g = groups.len().max(1);
        for (gi, group) in groups.iter().enumerate() {
            let shard = (gi * n_shards as usize / g) as u32;
            for &n in group {
                owner_of[n.idx()] = shard;
            }
        }
        for (fi, &sw) in fabric.iter().enumerate() {
            owner_of[sw.idx()] = (fi % n_shards as usize) as u32;
        }
        // Anything unreached (isolated hosts) defaults to shard 0.
        for o in owner_of.iter_mut() {
            if *o == u32::MAX {
                *o = 0;
            }
        }
        let mut la = u64::MAX;
        for (ni, n) in topo.nodes.iter().enumerate() {
            for p in &n.ports {
                if owner_of[ni] != owner_of[p.peer_node.idx()] {
                    la = la.min(p.delay.as_ps());
                }
            }
        }
        assert!(
            la > 0,
            "a zero-delay link crosses shards: conservative lookahead would be zero"
        );
        ShardPlan {
            n_shards,
            owner_of,
            lookahead: SimTime::from_ps(la),
        }
    }

    /// The shard that owns `node`.
    #[inline]
    pub fn owner(&self, node: NodeId) -> u32 {
        self.owner_of[node.idx()]
    }

    /// Number of nodes owned by `shard`.
    #[cfg(test)]
    fn nodes_of(&self, shard: u32) -> usize {
        self.owner_of.iter().filter(|&&o| o == shard).count()
    }
}

/// Per-shard execution counters reported by [`run_sharded_phased`].
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u32,
    /// Events processed by this shard's event loop.
    pub events_processed: u64,
    /// Wait rounds: how often this shard, with nothing processable below
    /// its bound, re-read the peer clocks and found them unmoved. Most
    /// rounds are a `spin_loop` hint, the rest a `yield_now`; the sum of
    /// [`ShardStats::blocked_on`].
    pub stalls: u64,
    /// Cross-shard events this shard sent.
    pub remote_sent: u64,
    /// Cross-shard events this shard received.
    pub remote_received: u64,
    /// Wall-clock seconds this shard's worker spent in its run loop.
    pub wall_s: f64,
    /// Events processed as of each phase boundary ([`run_sharded_phased`]):
    /// `phase_events[i]` is the cumulative count when phase `i` ended. One
    /// entry per phase.
    pub phase_events: Vec<u64>,
    /// Slices (loop iterations) that processed at least one event.
    pub slices: u64,
    /// The longest such slice in simulated time, `bound - clock` when it
    /// started. Never above the plan's lookahead: that cap is what lets
    /// the shards overlap (see the module docs).
    pub max_slice: SimTime,
    /// Wall-clock seconds of [`ShardStats::wall_s`] spent in the wait path.
    pub wait_s: f64,
    /// Wait rounds charged to the peer that held the minimum clock, indexed
    /// by shard (this shard's own entry stays 0).
    pub blocked_on: Vec<u64>,
}

/// Wait rounds a stalled worker spends on `spin_loop` hints (about 2 us in
/// all) before it starts yielding its core: long enough to catch a peer that
/// is about to publish without a syscall, short enough to cost nothing when
/// more shards than cores time-slice and the peer cannot be running. Chosen
/// by measurement on a 2-core host among 0 / 32 / 256 / 4096: two shards do
/// not tell them apart, four shards lose 8 % at 256 and half at 4096
/// (EXPERIMENTS.md, "Sharded execution").
const SPIN_ROUNDS: u32 = 32;

/// The slice policy: how far a shard whose published clock is `published`
/// may run when the slowest peer has published `min_peer`.
///
/// `min_peer + lookahead` is the conservative limit (nothing below it can
/// still arrive); `published + lookahead` keeps a slice from extending more
/// than one lookahead past what the peers have been told, so a shard that is
/// ahead publishes in time for them to follow; `bound_max` is the phase end.
/// The final `max` keeps the bound monotone under a lagging snapshot. A
/// result equal to `published` means a peer has to move first.
#[inline]
fn slice_bound(min_peer: u64, published: u64, lookahead: u64, bound_max: u64) -> u64 {
    min_peer
        .min(published)
        .saturating_add(lookahead)
        .min(bound_max)
        .max(published)
}

/// The lowest clock among `me`'s peers and the shard holding it;
/// `(u64::MAX, me)` when there are none.
#[inline]
fn min_peer_clock(clocks: &[AtomicU64], me: usize) -> (u64, usize) {
    let mut min = (u64::MAX, me);
    for (s, c) in clocks.iter().enumerate() {
        if s != me {
            let c = c.load(Ordering::Acquire);
            if c < min.0 {
                min = (c, s);
            }
        }
    }
    min
}

/// One direction of one shard pair: events from a fixed source awaiting a
/// fixed destination.
struct Mailbox {
    /// Set (under the lock) by `post`, cleared (under the lock) by `drain`,
    /// so the destination checks an empty mailbox with one load. `post`
    /// happens before the source's clock store (`Release`) and the drain
    /// after the destination's load of that clock (`Acquire`), so a flag
    /// read as clear means no event below the snapshot's bound is inside.
    pending: AtomicBool,
    events: Mutex<Vec<RemoteEvent>>,
}

impl Mailbox {
    fn with_capacity(cap: usize) -> Self {
        Mailbox {
            pending: AtomicBool::new(false),
            events: Mutex::new(Vec::with_capacity(cap)),
        }
    }

    /// Append `batch` (left empty, capacity kept). No-op when it is empty.
    fn post(&self, batch: &mut Vec<RemoteEvent>) {
        if batch.is_empty() {
            return;
        }
        let mut events = self.events.lock().expect("a peer shard panicked");
        events.append(batch);
        self.pending.store(true, Ordering::Release);
    }

    /// Hand every waiting event to `sink`.
    fn drain(&self, sink: impl FnMut(RemoteEvent)) {
        if !self.pending.load(Ordering::Acquire) {
            return;
        }
        let mut events = self.events.lock().expect("a peer shard panicked");
        self.pending.store(false, Ordering::Release);
        events.drain(..).for_each(sink);
    }
}

/// The phase barrier, plus the poison flag that opens it: `std`'s `Barrier`
/// would hold every other thread forever once one party has panicked.
struct Gate {
    parties: usize,
    /// (threads arrived in this generation, generation).
    state: Mutex<(usize, u64)>,
    cv: Condvar,
    /// Raised once, by the first thread that unwinds. Publishes no data
    /// (the payload travels through `first_panic`'s mutex).
    poisoned: AtomicBool,
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Gate {
    fn new(parties: usize) -> Self {
        Gate {
            parties,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
            first_panic: Mutex::new(None),
        }
    }

    #[inline]
    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Block until all parties have arrived; `false` if the run was
    /// poisoned instead, in which case the caller must leave.
    #[must_use]
    fn wait(&self) -> bool {
        let mut st = self.state.lock().expect("gate holds plain counters");
        if self.is_poisoned() {
            return false;
        }
        st.0 += 1;
        if st.0 == self.parties {
            *st = (0, st.1 + 1);
            self.cv.notify_all();
            return true;
        }
        let generation = st.1;
        while st.1 == generation {
            if self.is_poisoned() {
                return false;
            }
            st = self.cv.wait(st).expect("gate holds plain counters");
        }
        true
    }

    /// Run `f`; if it unwinds, keep the first payload, raise the flag and
    /// wake the barrier, so that every other thread leaves too.
    fn guard<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(payload) => {
                if !self.poisoned.swap(true, Ordering::SeqCst) {
                    *self.first_panic.lock().expect("only payloads move here") = Some(payload);
                }
                // Taking the lock orders this wake-up after any waiter's
                // check of the flag, so none sleeps through it.
                let _st = self.state.lock();
                self.cv.notify_all();
                None
            }
        }
    }
}

/// Run one sharded simulation through `phase_ends` (each inclusive, like
/// [`Simulator::run_until`]).
///
/// `build` is called on each worker thread with the shard index and must
/// return a simulator created with [`Simulator::new_sharded`] for the same
/// plan and shard (asserted), fully equipped with drivers, controllers and
/// samplers for its **owned** nodes, plus any shard-local state `S` the
/// caller wants back (per-shard recorders, FCT collectors, ...). `finish`
/// runs on the same worker after the horizon is reached and turns
/// `(Simulator, S)` into a `Send` result; the simulator and `S` themselves
/// never cross threads (they may hold `Rc`s).
///
/// Phases are barrier-separated: after all shards reach `phase_ends[i]`,
/// every worker parks on a barrier and `between(i)` runs on the calling
/// thread before the next phase starts. The `xl-clos-1024` rows of
/// `acc-bench perf` read the global allocation counter there, at the
/// warmup/steady boundary, while no shard is mid-flight.
///
/// Results are returned in shard order. A panic on any worker (or in
/// `between`) stops the others and is re-raised here.
pub fn run_sharded_phased<S, R, B, P, F>(
    plan: &ShardPlan,
    phase_ends: &[SimTime],
    build: B,
    mut between: P,
    finish: F,
) -> Vec<(ShardStats, R)>
where
    B: Fn(u32) -> (Simulator, S) + Sync,
    P: FnMut(usize),
    F: Fn(u32, Simulator, S) -> R + Sync,
    R: Send,
{
    assert!(!phase_ends.is_empty(), "need at least one phase");
    assert!(
        phase_ends.windows(2).all(|w| w[0] <= w[1]),
        "phase ends must be non-decreasing"
    );
    let n = plan.n_shards as usize;
    let la_ps = plan.lookahead.as_ps();
    // Published clocks: clock[s] is shard s's promise that all its future
    // cross-shard sends have timestamps >= clock[s] + lookahead.
    let clocks: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    // Mailboxes: inboxes[dst][src] holds events from src awaiting dst. A
    // shard never posts to itself, so inboxes[s][s] reserves nothing.
    let remote_cap = remote_buf_capacity(plan.owner_of.len());
    let inboxes: Vec<Vec<Mailbox>> = (0..n)
        .map(|dst| {
            (0..n)
                .map(|src| Mailbox::with_capacity(if src == dst { 0 } else { remote_cap }))
                .collect()
        })
        .collect();
    // Workers + the coordinating thread meet here between phases.
    let gate = Gate::new(n + 1);
    let (clocks, inboxes, gate) = (&clocks, &inboxes, &gate);
    let (build, finish) = (&build, &finish);

    let results: Vec<Option<(ShardStats, R)>> = std::thread::scope(|scope| {
        let spawn = |me: usize| {
            let worker = move || -> Option<(ShardStats, R)> {
                let t0 = Instant::now();
                let (mut sim, state) = build(me as u32);
                sim.assert_shard(plan.n_shards, me as u32);
                let mut stats = ShardStats {
                    shard: me as u32,
                    blocked_on: vec![0; n],
                    ..ShardStats::default()
                };
                // Outbox flushes stage through this scratch vector so the
                // mailbox lock is held only for the append.
                let mut scratch: Vec<RemoteEvent> = Vec::with_capacity(remote_cap);
                let mut published: u64 = 0;
                for &end in phase_ends {
                    let bound_max = end.as_ps() + 1;
                    // Steps (1) and (2): the slice end the peers' clocks
                    // allow right now, and the peer holding the minimum.
                    let slice_end = |published: u64| {
                        let (min_peer, holder) = min_peer_clock(clocks, me);
                        let bound = slice_bound(min_peer, published, la_ps, bound_max);
                        (bound, holder)
                    };
                    while published < bound_max {
                        // (1) Snapshot peer clocks *before* draining: any
                        // message flushed before a peer published clock C is
                        // then guaranteed visible in the drain below.
                        let (mut bound, mut holder) = slice_end(published);
                        // (2) An empty slice: wait on the clocks alone. Peers
                        // flush before they publish, so nothing new is
                        // processable until one of them moves.
                        if bound == published {
                            let waiting = Instant::now();
                            let mut rounds = 0u32;
                            while bound == published {
                                if gate.is_poisoned() {
                                    return None;
                                }
                                stats.stalls += 1;
                                stats.blocked_on[holder] += 1;
                                if rounds < SPIN_ROUNDS {
                                    rounds += 1;
                                    std::hint::spin_loop();
                                } else {
                                    std::thread::yield_now();
                                }
                                (bound, holder) = slice_end(published);
                            }
                            stats.wait_s += waiting.elapsed().as_secs_f64();
                        }
                        // (3) Drain inbound mailboxes.
                        for (s, inbox) in inboxes[me].iter().enumerate() {
                            if s != me {
                                inbox.drain(|ev| sim.core_mut().inject_remote(ev));
                            }
                        }
                        // (4) Process everything strictly below the bound.
                        if sim.run_events_before(SimTime::from_ps(bound)) > 0 {
                            stats.slices += 1;
                            stats.max_slice =
                                stats.max_slice.max(SimTime::from_ps(bound - published));
                        }
                        // (5) Flush outboxes, then publish the new clock.
                        for (s, boxes) in inboxes.iter().enumerate() {
                            if s != me {
                                sim.core_mut().drain_outbox_into(s as u32, &mut scratch);
                                boxes[me].post(&mut scratch);
                            }
                        }
                        clocks[me].store(bound, Ordering::Release);
                        published = bound;
                    }
                    sim.advance_now_to(end);
                    stats.phase_events.push(sim.core().events_processed);
                    // Phase done: wait for every shard, let the coordinator
                    // run `between`, then resume together.
                    if !(gate.wait() && gate.wait()) {
                        return None;
                    }
                }
                stats.events_processed = sim.core().events_processed;
                (stats.remote_sent, stats.remote_received) = sim.core().shard_comm_counters();
                stats.wall_s = t0.elapsed().as_secs_f64();
                let r = finish(me as u32, sim, state);
                Some((stats, r))
            };
            scope.spawn(move || gate.guard(worker).flatten())
        };
        let workers: Vec<_> = (0..n).map(spawn).collect();
        gate.guard(|| {
            for pi in 0..phase_ends.len() {
                if !gate.wait() {
                    return;
                }
                between(pi);
                if !gate.wait() {
                    return;
                }
            }
        });
        workers
            .into_iter()
            .map(|w| w.join().expect("the gate catches a worker's panic"))
            .collect()
    });

    let first_panic = gate
        .first_panic
        .lock()
        .expect("only payloads move here")
        .take();
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.expect("no panic, so every shard reported"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::driver::{HostCtx, NicDriver};
    use crate::fault::{FaultEvent, FaultKind, FaultPlan};
    use crate::ids::{FlowId, PortId, PRIO_RDMA};
    use crate::packet::{Ecn, Packet, PacketKind};
    use crate::queues::EcnConfig;
    use crate::topology::TopologySpec;
    use acc_metrics::Histogram;
    use proptest::prelude::*;
    use rand::Rng;

    fn assert_send<T: Send>() {}

    /// One phase, nothing between.
    fn run_sharded<S, R: Send>(
        plan: &ShardPlan,
        end: SimTime,
        build: impl Fn(u32) -> (Simulator, S) + Sync,
        finish: impl Fn(u32, Simulator, S) -> R + Sync,
    ) -> Vec<(ShardStats, R)> {
        run_sharded_phased(plan, &[end], build, |_| {}, finish)
    }

    #[test]
    fn remote_events_cross_threads() {
        assert_send::<RemoteEvent>();
        assert_send::<ShardStats>();
    }

    fn leaf_spine() -> TopologySpec {
        TopologySpec::LeafSpine {
            n_leaf: 4,
            n_spine: 2,
            hosts_per_leaf: 4,
            host_bps: 25_000_000_000,
            fabric_bps: 100_000_000_000,
            host_delay: SimTime::from_ns(500),
            fabric_delay: SimTime::from_ns(500),
        }
    }

    #[test]
    fn plan_keeps_racks_whole_and_derives_lookahead() {
        let topo = leaf_spine().build();
        let plan = ShardPlan::build(&topo, 4);
        // Hosts share their ToR's shard.
        for &h in topo.hosts() {
            let tor = topo.port(h, PortId(0)).peer_node;
            assert_eq!(plan.owner(h), plan.owner(tor));
        }
        // Four leaf groups over four shards: everyone owns a rack.
        for s in 0..4 {
            assert!(plan.nodes_of(s) >= 4, "shard {s} owns too little");
        }
        // Only fabric links cross, so the lookahead is the fabric delay.
        assert_eq!(plan.lookahead, SimTime::from_ns(500));
        // One shard: nothing crosses.
        let p1 = ShardPlan::build(&topo, 1);
        assert_eq!(p1.lookahead, SimTime::MAX);
        assert!(p1.owner_of.iter().all(|&o| o == 0));
    }

    /// One packet as its receiver saw it: arrival (ps), flow, byte offset
    /// and whether it arrived CE-marked.
    type Delivery = (u64, u64, u64, bool);

    /// Sends `count` packets to `dst`, spaced by a per-host random jitter
    /// (exercises the per-node RNG streams), then goes quiet; keeps a
    /// [`Delivery`] for every packet it receives.
    struct JitterSender {
        dst: NodeId,
        count: u32,
        sent: u32,
        flow: FlowId,
        delivered: Vec<Delivery>,
    }

    impl NicDriver for JitterSender {
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut HostCtx<'_>) {
            let PacketKind::Data { offset, .. } = pkt.kind else {
                panic!("a jitter sender sends data only");
            };
            let at = ctx.now().as_ps();
            self.delivered
                .push((at, pkt.flow.0, offset, pkt.ecn == Ecn::Ce));
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
            if self.sent >= self.count {
                return;
            }
            self.sent += 1;
            let pkt = Packet::data(
                self.flow,
                ctx.host(),
                self.dst,
                PRIO_RDMA,
                (self.sent as u64 - 1) * 1000,
                1000,
                self.sent == self.count,
                Ecn::Ect,
            );
            ctx.send(pkt);
            let jitter = ctx.rng().gen_range(0..5_000u64);
            ctx.set_timer_after(SimTime::from_ns(1_000 + jitter), 0);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Give every host `shard` owns a [`JitterSender`] of `count` packets,
    /// started at t=0: four-to-one incasts, each from the hosts of one rack
    /// to one host of the rack half the fabric away.
    fn install_senders(sim: &mut Simulator, plan: &ShardPlan, shard: u32, count: u32) {
        let hosts = sim.core().topo.hosts().to_vec();
        let nh = hosts.len();
        for (i, &h) in hosts.iter().enumerate() {
            if plan.owner(h) != shard {
                continue;
            }
            let sender = JitterSender {
                dst: hosts[(i / 4 * 4 + nh / 2) % nh],
                count,
                sent: 0,
                flow: FlowId((h.0 as u64) << 32),
                delivered: Vec::new(),
            };
            sim.set_driver(h, Box::new(sender));
            sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        }
    }

    /// Horizon of [`run_scenario`].
    const SCENARIO_END: SimTime = SimTime::from_ms(2);

    /// What one run of [`run_scenario`] left, merged over its shards and
    /// put in a canonical order.
    struct Outcome {
        /// Every packet delivered, sorted.
        delivered: Vec<Delivery>,
        /// The fault log, one line per entry, sorted.
        faults: Vec<String>,
        /// The profiler's CE-mark depth, drop depth and pause length
        /// histograms.
        hists: [Histogram; 3],
        /// Per-queue telemetry of every switch queue, sorted.
        telem: Vec<String>,
        /// Global drop, PFC pause and executed-fault counters.
        counters: (u64, u64, u64),
        /// Per-shard execution counters.
        stats: Vec<ShardStats>,
    }

    /// Run the cross-rack traffic scenario on `n_shards` shards.
    fn run_scenario(n_shards: u32) -> Outcome {
        let topo = leaf_spine().build();
        let plan = ShardPlan::build(&topo, n_shards);
        let end = SCENARIO_END;
        let plan_ref = &plan;
        let topo_ref = &topo;
        let results = run_sharded(
            plan_ref,
            end,
            |shard| {
                let mut cfg = SimConfig::default();
                cfg.seed = 7;
                // A shallow buffer and a 1-byte Kmin, so the incasts PFC-pause,
                // drop and mark — a queued packet is marked by a coin flip
                // from the node's stream.
                cfg.buffer_bytes = 8 * 1024;
                cfg.port.ecn[PRIO_RDMA as usize] = Some(EcnConfig::new(1, 2000, 1.0));
                let mut sim = Simulator::new_sharded(topo_ref.clone(), cfg, plan_ref, shard);
                sim.enable_profiling();
                // A fault plan exercises replicated faults + owner-gated logs.
                let leaf0 = topo_ref.switches()[0];
                let fp = FaultPlan {
                    seed: 3,
                    events: vec![
                        FaultEvent {
                            at: SimTime::from_us(400),
                            kind: FaultKind::LinkDown {
                                node: leaf0,
                                port: PortId(4),
                            },
                        },
                        FaultEvent {
                            at: SimTime::from_us(900),
                            kind: FaultKind::LinkUp {
                                node: leaf0,
                                port: PortId(4),
                            },
                        },
                    ],
                };
                sim.install_fault_plan(&fp).unwrap();
                install_senders(&mut sim, plan_ref, shard, 60);
                (sim, ())
            },
            |shard, mut sim, ()| {
                let mut delivered = Vec::new();
                let hosts = sim.core().topo.hosts().to_vec();
                for h in hosts {
                    if plan_ref.owner(h) == shard {
                        sim.with_driver(h, |d, _| {
                            let d = d.as_any_mut().downcast_mut::<JitterSender>().unwrap();
                            delivered.append(&mut d.delivered);
                        });
                    }
                }
                let faults: Vec<String> = (sim.core_mut().drain_fault_log().iter())
                    .map(|e| {
                        let (at, node, port) = (e.at.as_ps(), e.node.0, e.port.0);
                        format!("{at} {} {node} {port} {}", e.kind, e.detail)
                    })
                    .collect();
                let prof = sim.take_profiler().unwrap();
                let hists = [
                    prof.ecn_mark_qlen.clone(),
                    prof.drop_qlen.clone(),
                    prof.pause_ns.clone(),
                ];
                let mut telem = Vec::new();
                let switches = sim.core().topo.switches().to_vec();
                for sw in switches {
                    if plan_ref.owner(sw) != shard {
                        continue;
                    }
                    let np = sim.core().topo.node(sw).ports.len();
                    for p in 0..np {
                        for prio in 0..sim.core().cfg.port.num_prios {
                            let t =
                                sim.core_mut()
                                    .synced_queue_telem(sw, PortId(p as u16), prio as u8);
                            telem.push(format!(
                                "{} {} {} {} {} {} {}",
                                sw.0, p, prio, t.tx_pkts, t.tx_bytes, t.tx_marked_pkts, t.drops
                            ));
                        }
                    }
                }
                let c = sim.core();
                let counters = (c.total_drops, c.total_pfc_pauses, c.faults_executed);
                (delivered, faults, hists, telem, counters)
            },
        );
        let mut out = Outcome {
            delivered: Vec::new(),
            faults: Vec::new(),
            hists: Default::default(),
            telem: Vec::new(),
            counters: (0, 0, 0),
            stats: Vec::new(),
        };
        for (st, (delivered, faults, hists, telem, (d, p, f))) in results {
            out.stats.push(st);
            out.delivered.extend(delivered);
            out.faults.extend(faults);
            for (merged, h) in out.hists.iter_mut().zip(&hists) {
                merged.merge_from(h);
            }
            out.telem.extend(telem);
            out.counters.0 += d;
            out.counters.1 += p;
            out.counters.2 += f;
        }
        out.delivered.sort_unstable();
        out.faults.sort();
        out.telem.sort();
        out
    }

    #[test]
    fn shard_counts_agree_bit_for_bit() {
        let one = run_scenario(1);
        let leaf0 = leaf_spine().build().switches()[0].0;
        let kinds: Vec<&str> = one
            .faults
            .iter()
            .map(|l| l.split(' ').nth(1).unwrap())
            .collect();
        assert_eq!(
            kinds,
            ["link_down", "link_up"],
            "the plan fired, each fault logged once"
        );
        assert!(one.faults[0].starts_with(&format!("400000000 link_down {leaf0} 4 peer=")));
        assert!(
            one.delivered.iter().any(|d| d.3),
            "a packet arrived CE-marked"
        );
        assert!(
            one.hists.iter().all(|h| !h.is_empty()),
            "marks, drops and pauses"
        );
        let events = |stats: &[ShardStats]| stats.iter().map(|s| s.events_processed).sum::<u64>();
        // What every shard runs for itself: its own control tick (the key is
        // shard-local) and its replica of the two-event fault plan.
        let dt = SimConfig::default().control_interval.unwrap();
        let per_shard = SCENARIO_END.as_ps() / dt.as_ps() + 2;
        // 3 deals the four racks unevenly; at 8 three shards own no node.
        for n in [2u32, 3, 4, 8] {
            let got = run_scenario(n);
            assert_eq!(
                one.counters, got.counters,
                "global counters differ at {n} shards"
            );
            assert_eq!(
                one.telem, got.telem,
                "queue telemetry differs at {n} shards"
            );
            assert_eq!(one.faults, got.faults, "fault log differs at {n} shards");
            let names = ["CE-mark depth", "drop depth", "pause length"];
            for ((a, b), name) in one.hists.iter().zip(&got.hists).zip(names) {
                assert!(a == b, "{name} histogram differs at {n} shards");
            }
            assert_eq!(
                one.delivered.len(),
                got.delivered.len(),
                "delivery count differs at {n} shards"
            );
            for (a, b) in one.delivered.iter().zip(&got.delivered) {
                assert_eq!(a, b, "delivery differs at {n} shards");
            }
            assert_eq!(
                events(&got.stats) - events(&one.stats),
                (n as u64 - 1) * per_shard,
                "{n} shards: events beyond the replicated ticks and faults"
            );
        }
    }

    /// The overlap gate, as a count: no slice is longer than one lookahead
    /// (the uncapped policy produces `2L` here), and the wait accounting adds
    /// up.
    #[test]
    fn slices_never_exceed_one_lookahead() {
        for n in [2u32, 4] {
            let lookahead = ShardPlan::build(&leaf_spine().build(), n).lookahead;
            for s in &run_scenario(n).stats {
                assert!(s.slices > 0, "shard {} of {n} ran nothing", s.shard);
                assert!(
                    s.max_slice <= lookahead,
                    "shard {} of {n}: slice of {} ps, lookahead {} ps",
                    s.shard,
                    s.max_slice.as_ps(),
                    lookahead.as_ps()
                );
                assert_eq!(s.blocked_on.len(), n as usize);
                assert_eq!(s.blocked_on.iter().sum::<u64>(), s.stalls);
                assert_eq!(s.blocked_on[s.shard as usize], 0);
                assert!(s.wait_s <= s.wall_s);
            }
        }
    }

    /// Panics on its first timer.
    struct Bomb;

    impl NicDriver for Bomb {
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut HostCtx<'_>) {}
        fn on_timer(&mut self, _token: u64, _ctx: &mut HostCtx<'_>) {
            panic!("boom in driver");
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A panic anywhere in a run must come back out of `run_sharded_phased`.
    /// Shard 0 has nothing to do but follow shard 1's clock, so without
    /// poisoning it waits for that clock (or at the barrier) forever and
    /// these cases hang instead of failing.
    #[test]
    fn a_panic_stops_every_shard_and_is_re_raised() {
        let topo = leaf_spine().build();
        let plan = ShardPlan::build(&topo, 2);
        let victim = *topo
            .hosts()
            .iter()
            .find(|&&h| plan.owner(h) == 1)
            .expect("shard 1 owns a rack");
        for site in ["build", "driver", "between"] {
            let run = || {
                run_sharded_phased(
                    &plan,
                    &[SimTime::from_us(500), SimTime::from_ms(1)],
                    |shard| {
                        if site == "build" && shard == 1 {
                            panic!("boom in build");
                        }
                        let cfg = SimConfig::default();
                        let mut sim = Simulator::new_sharded(topo.clone(), cfg, &plan, shard);
                        if site == "driver" && shard == 1 {
                            sim.set_driver(victim, Box::new(Bomb));
                            sim.with_driver(victim, |_, ctx| {
                                ctx.set_timer_at(SimTime::from_us(100), 0)
                            });
                        }
                        (sim, ())
                    },
                    |_| {
                        if site == "between" {
                            panic!("boom in between");
                        }
                    },
                    |_, _, ()| (),
                )
            };
            let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the panic is re-raised");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some(format!("boom in {site}").as_str()),
            );
        }
    }

    proptest! {
        /// The slice policy on arbitrary inputs: never retracts the published
        /// clock, never passes the conservative limit or the phase end, never
        /// spans more than one lookahead, and is non-empty whenever no peer
        /// is behind (equal clocks included).
        #[test]
        fn slice_bound_is_monotone_safe_and_capped(
            min_peer in 0u64..10_000,
            published in 0u64..10_000,
            la in 1u64..3_000,
            // The run loop only asks while `published < bound_max`.
            remaining in 1u64..10_000,
        ) {
            let bound_max = published + remaining;
            let b = slice_bound(min_peer, published, la, bound_max);
            prop_assert!(b >= published);
            prop_assert!(b <= (min_peer + la).max(published));
            prop_assert!(b <= bound_max);
            prop_assert!(b - published <= la);
            if min_peer >= published {
                prop_assert!(b > published);
            }
            // One shard: no peer, no cross-shard link.
            prop_assert_eq!(slice_bound(u64::MAX, published, u64::MAX, bound_max), bound_max);
        }

        /// N model shards stepped in an arbitrary order, then fairly: every
        /// step is safe, no clock is ever more than one lookahead behind
        /// another, and all of them reach `end + 1`.
        #[test]
        fn any_interleaving_of_model_shards_reaches_the_end(
            n in 2usize..6,
            la in 1u64..50,
            end in 0u64..2_000,
            schedule in prop::collection::vec(0usize..6, 0..400),
        ) {
            let bound_max = end + 1;
            let mut clocks = vec![0u64; n];
            let mut step = |s: usize| {
                let min_peer = (0..n).filter(|&p| p != s).map(|p| clocks[p]).min().unwrap();
                if clocks[s] < bound_max {
                    let b = slice_bound(min_peer, clocks[s], la, bound_max);
                    assert!(clocks[s] <= b && b <= min_peer + la);
                    clocks[s] = b;
                }
                let (lo, hi) = (clocks.iter().min().unwrap(), clocks.iter().max().unwrap());
                assert!(hi - lo <= la, "a laggard fell more than L behind: {clocks:?}");
            };
            for &s in &schedule {
                step(s % n);
            }
            // Each fair sweep lifts the minimum clock by a full lookahead.
            for _ in 0..end / la + 2 {
                (0..n).for_each(&mut step);
            }
            prop_assert!(clocks.iter().all(|&c| c == bound_max), "stuck at {:?}", clocks);
        }
    }

    #[test]
    fn sharded_run_reports_comm_stats() {
        let topo = leaf_spine().build();
        let plan = ShardPlan::build(&topo, 2);
        let plan_ref = &plan;
        let topo_ref = &topo;
        let results = run_sharded(
            plan_ref,
            SimTime::from_us(200),
            |shard| {
                let mut cfg = SimConfig::default();
                cfg.seed = 11;
                let mut sim = Simulator::new_sharded(topo_ref.clone(), cfg, plan_ref, shard);
                install_senders(&mut sim, plan_ref, shard, 10);
                (sim, ())
            },
            |_, sim, ()| sim.core().events_processed,
        );
        let sent: u64 = results.iter().map(|(s, _)| s.remote_sent).sum();
        let recv: u64 = results.iter().map(|(s, _)| s.remote_received).sum();
        assert!(sent > 0, "cross-rack traffic must cross shards");
        assert_eq!(sent, recv, "every sent remote event must be received");
        for (s, ev) in &results {
            assert!(*ev > 0, "shard {} processed nothing", s.shard);
        }
    }
}
