//! Property-based tests of the simulator's core invariants.

use netsim::buffer::SharedBuffer;
use netsim::event::{Event, EventQueue};
use netsim::ids::{FlowId, NodeId, PortId};
use netsim::packet::{Ecn, Packet};
use netsim::queues::{Dwrr, EcnConfig, EgressQueue, PortTelemetry, QItem, QueueArena};
use netsim::routing::RouteTable;
use netsim::time::{tx_time, SimTime};
use netsim::topology::{PortInfo, Topology, TopologyBuilder, TopologySpec};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

/// Counts this thread's heap allocations, so a test can assert that a call
/// made none while the other tests of this binary run on their own threads.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator also serves threads that are shutting down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a plain
// thread-local `Cell` with no destructor and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The reference the route table is checked against: one BFS per
/// destination host, one candidate list per (node, host rank).
fn all_pairs_candidates(
    topo: &Topology,
    is_up: impl Fn(NodeId, PortId) -> bool,
) -> Vec<Vec<Vec<PortId>>> {
    let n = topo.nodes.len();
    let hosts = topo.hosts();
    let mut next_hops = vec![vec![Vec::new(); hosts.len()]; n];
    for (rank, &dst) in hosts.iter().enumerate() {
        let mut dist = vec![u32::MAX; n];
        dist[dst.idx()] = 0;
        let mut bfs = VecDeque::from([dst]);
        while let Some(u) = bfs.pop_front() {
            for p in topo.node(u).ports.iter() {
                // Towards the destination the usable direction is peer -> u.
                if is_up(p.peer_node, p.peer_port) && dist[p.peer_node.idx()] == u32::MAX {
                    dist[p.peer_node.idx()] = dist[u.idx()] + 1;
                    bfs.push_back(p.peer_node);
                }
            }
        }
        for node in 0..n {
            if node == dst.idx() || dist[node] == u32::MAX {
                continue;
            }
            for (i, p) in topo.nodes[node].ports.iter().enumerate() {
                if dist[p.peer_node.idx()] == dist[node] - 1
                    && is_up(NodeId(node as u32), PortId(i as u16))
                {
                    next_hops[node][rank].push(PortId(i as u16));
                }
            }
        }
    }
    next_hops
}

/// `TopologyBuilder::link` on a finished topology, for the shapes
/// `TopologyBuilder::build` refuses.
fn add_link(topo: &mut Topology, a: NodeId, b: NodeId) {
    let pa = PortId(topo.nodes[a.idx()].ports.len() as u16);
    let pb = PortId(topo.nodes[b.idx()].ports.len() as u16);
    for (from, to, to_port) in [(a, b, pb), (b, a, pa)] {
        topo.nodes[from.idx()].ports.push(PortInfo {
            peer_node: to,
            peer_port: to_port,
            rate_bps: 25_000_000_000,
            delay: SimTime::from_ns(500),
        });
    }
}

/// A triangle of switches carrying what the presets never have: a
/// dual-homed host (a transit node when the switch link beside it fails), a
/// pair of hosts cabled to each other and to nothing else, and a host with
/// no port at all.
fn irregular_topology() -> Topology {
    let (bps, delay) = (25_000_000_000, SimTime::from_ns(500));
    let mut b = TopologyBuilder::new();
    let sw: Vec<NodeId> = (0..3).map(|i| b.add_switch(format!("s{i}"))).collect();
    for (i, &s) in sw.iter().enumerate() {
        b.link(s, sw[(i + 1) % 3], bps, delay);
        for h in 0..2 {
            let host = b.add_host(format!("h{i}{h}"));
            b.link(host, s, bps, delay);
        }
    }
    let dual = b.add_host("dual");
    b.link(dual, sw[0], bps, delay);
    let (p, q) = (b.add_host("p"), b.add_host("q"));
    b.link(p, q, bps, delay);
    let isolated = b.add_host("isolated");
    b.link(isolated, sw[2], bps, delay);
    let mut topo = b.build();
    add_link(&mut topo, dual, sw[1]);
    // The isolated host's cable was the last one plugged into s2, so
    // unplugging it renumbers nothing.
    topo.nodes[isolated.idx()].ports.clear();
    topo.nodes[sw[2].idx()].ports.pop();
    topo
}

fn small_topology() -> impl Strategy<Value = Topology> {
    let (host_bps, fabric_bps) = (25_000_000_000, 100_000_000_000);
    let (host_delay, fabric_delay) = (SimTime::from_ns(500), SimTime::from_ns(500));
    prop_oneof![
        (1usize..6).prop_map(move |n| TopologySpec::single_switch(n, host_bps, host_delay).build()),
        (1usize..5, 1usize..4, 1usize..4).prop_map(move |(n_leaf, n_spine, hosts_per_leaf)| {
            TopologySpec::LeafSpine {
                n_leaf,
                n_spine,
                hosts_per_leaf,
                host_bps,
                fabric_bps,
                host_delay,
                fabric_delay,
            }
            .build()
        }),
        (1usize..4, 1usize..3, 1usize..3, 1usize..3, 1usize..3).prop_map(
            move |(n_pods, tors_per_pod, aggs_per_pod, n_cores, hosts_per_tor)| {
                TopologySpec::ThreeTierClos {
                    n_pods,
                    tors_per_pod,
                    aggs_per_pod,
                    n_cores,
                    hosts_per_tor,
                    host_bps,
                    fabric_bps,
                    host_delay,
                    fabric_delay,
                }
                .build()
            }
        ),
        Just(()).prop_map(|_| irregular_topology()),
    ]
}

/// `is_up[node][port]` with the picked port directions down; `picks` index
/// the flattened port list modulo its length.
fn link_state(topo: &Topology, picks: &[usize]) -> Vec<Vec<bool>> {
    let mut up: Vec<Vec<bool>> = topo
        .nodes
        .iter()
        .map(|n| vec![true; n.ports.len()])
        .collect();
    let flat: Vec<(usize, usize)> = (0..up.len())
        .flat_map(|n| (0..up[n].len()).map(move |p| (n, p)))
        .collect();
    for &k in picks {
        let (n, p) = flat[k % flat.len()];
        up[n][p] = false;
    }
    up
}

fn assert_matches_reference(table: &RouteTable, topo: &Topology, up: &[Vec<bool>]) {
    let reference = all_pairs_candidates(topo, |n, p| up[n.idx()][p.idx()]);
    for (node, per_host) in reference.iter().enumerate() {
        for (want, &dst) in per_host.iter().zip(topo.hosts()) {
            assert_eq!(
                table.candidates(NodeId(node as u32), dst),
                &want[..],
                "node {node} -> host {dst}"
            );
        }
    }
}

/// Offsets from an anchor time that land a push in every tier of the wheel
/// (65.5-ns buckets, 4.2-µs horizon).
fn queue_offset_ps() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),                // exactly the anchor
        0u64..70_000,              // the anchor's bucket or its neighbour
        0u64..4_000_000,           // across the wheel
        4_000_000u64..60_000_000,  // beyond the horizon
        50_000_000u64..50_060_000, // beyond the horizon, many to one bucket
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wheel against a sorted `(time, key)` set, with the pushes the
    /// near tier has to get right: at exactly the time of the last pop and
    /// elsewhere in the bucket being drained (the late heap, merged with
    /// the sorted run), around the earliest pending event right after a
    /// `peek_time` rotated the wheel to it (the current bucket, or before
    /// it), and clustered beyond the horizon so that far events reach one
    /// bucket together — as migrations into a slot or straight into the
    /// bucket that becomes current. `keyed` cases use `push_keyed` with
    /// unique, non-monotone, full-range keys; the others `push`, whose key
    /// is the push count. Every pop is checked for `(time, seq)`, every
    /// step for `len()`/`peak_len()`, every peek for the head time.
    #[test]
    fn wheel_near_tier_matches_sorted_model(
        keyed in any::<bool>(),
        ops in prop::collection::vec(
            (0u8..8, any::<bool>(), queue_offset_ps(), any::<u64>()),
            1..600,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut model: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut last_pop = SimTime::ZERO;
        let mut pushes = 0u64;
        let mut peak = 0usize;
        for &(action, from_head, off, key) in &ops {
            match action {
                0..=4 => {
                    let head = model.first().map_or(last_pop, |&(t, _)| t);
                    let anchor = if from_head { head } else { last_pop };
                    let t = anchor + SimTime::from_ps(off);
                    let ev = Event::HostTimer { host: NodeId(0), token: pushes };
                    if keyed {
                        // Keys must be unique per timestamp.
                        if !model.insert((t, key)) {
                            continue;
                        }
                        q.push_keyed(t, key, ev);
                    } else {
                        model.insert((t, pushes));
                        q.push(t, ev);
                    }
                    pushes += 1;
                    peak = peak.max(model.len());
                }
                5..=6 => {
                    let want = model.pop_first();
                    prop_assert_eq!(q.pop().map(|s| (s.time, s.seq)), want);
                    if let Some((t, _)) = want {
                        last_pop = t;
                    }
                }
                _ => prop_assert_eq!(q.peek_time(), model.first().map(|&(t, _)| t)),
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peak_len(), peak);
        }
        while let Some(want) = model.pop_first() {
            prop_assert_eq!(q.pop().map(|s| (s.time, s.seq)), Some(want));
            prop_assert_eq!(q.len(), model.len());
        }
        prop_assert!(q.pop().is_none() && q.is_empty());
        prop_assert_eq!(q.peak_len(), peak);
    }
}

/// The same model, on the one thing the near tier's sort cannot take from
/// its 8-byte keys: the order of events that share a timestamp. The keys
/// leave such a run in the order the events reached the bucket, and that is
/// not `seq` order when an overflow migrant sits in the slot ahead of later
/// direct pushes with smaller keys, or when keyed pushes arrive descending.
/// (With plain `push` the migrant's smaller `seq` already sorts first; that
/// case runs too.)
#[test]
fn wheel_settles_equal_times_by_seq_not_arrival() {
    let tick = |token| Event::HostTimer {
        host: NodeId(0),
        token,
    };
    // Both beyond the 4.2-µs horizon of an empty queue; `tie` is 2 µs after
    // `near`, so popping `near` brings it into the wheel.
    let (near, tie) = (SimTime::from_us(48), SimTime::from_us(50));
    for keyed in [false, true] {
        let mut q = EventQueue::new();
        let mut model: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut pushes = 0u64;
        let mut push = |q: &mut EventQueue, model: &mut BTreeSet<_>, t, key| {
            if keyed {
                q.push_keyed(t, key, tick(pushes));
                model.insert((t, key));
            } else {
                q.push(t, tick(pushes));
                model.insert((t, pushes));
            }
            pushes += 1;
        };
        // The migrant: parked in the overflow heap under the largest key.
        push(&mut q, &mut model, tie, 9);
        push(&mut q, &mut model, near, 1);
        assert_eq!(q.pop().map(|s| (s.time, s.seq)), model.pop_first());
        assert_eq!(
            q.stats().overflow_migrations,
            2,
            "the migrant is in its slot"
        );
        // Direct pushes behind it, keys descending, and a neighbour in the
        // same bucket on either side of the tie.
        for key in [8, 6, 4, 2] {
            push(&mut q, &mut model, tie, key);
        }
        push(&mut q, &mut model, tie + SimTime::from_ps(1), 0);
        push(&mut q, &mut model, tie - SimTime::from_ps(1), 10);
        assert_eq!(q.stats().pushes_wheel, 6);
        while let Some(want) = model.pop_first() {
            assert_eq!(
                q.pop().map(|s| (s.time, s.seq)),
                Some(want),
                "keyed: {keyed}"
            );
        }
        assert!(q.pop().is_none());
    }
}

proptest! {
    /// The event queue pops events in nondecreasing time order, and events
    /// with identical times pop in insertion order.
    #[test]
    fn event_queue_is_stable_priority_queue(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(
                SimTime::from_ns(t),
                Event::HostTimer { host: NodeId(0), token: i as u64 },
            );
        }
        let mut last_time = SimTime::ZERO;
        let mut last_token_at_time: Option<u64> = None;
        while let Some(s) = q.pop() {
            prop_assert!(s.time >= last_time);
            if s.time != last_time {
                last_token_at_time = None;
            }
            if let Event::HostTimer { token, .. } = s.event {
                if let Some(prev) = last_token_at_time {
                    prop_assert!(token > prev, "FIFO violated among ties");
                }
                last_token_at_time = Some(token);
            }
            last_time = s.time;
        }
    }

    /// RED marking probability is monotone in queue length and in [0, 1].
    #[test]
    fn red_probability_monotone(
        kmin in 0u64..10_000_000,
        span in 0u64..10_000_000,
        pmax in 0.0f64..=1.0,
        q1 in 0u64..20_000_000,
        q2 in 0u64..20_000_000,
    ) {
        let cfg = EcnConfig::new(kmin, kmin + span, pmax);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = cfg.mark_probability(lo);
        let p_hi = cfg.mark_probability(hi);
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_lo <= p_hi + 1e-12);
    }

    /// Buffer accounting never goes negative or exceeds capacity when the
    /// caller respects `can_admit`, and Xoff shrinks as the buffer fills.
    #[test]
    fn buffer_accounting_conserves(ops in prop::collection::vec((any::<bool>(), 1u32..100_000), 1..300)) {
        let mut b = SharedBuffer::new(1_000_000, 0.125, 0.5);
        let mut charged: Vec<u32> = Vec::new();
        let mut prev_xoff_when_filling: Option<(u64, u64)> = None;
        for (is_charge, size) in ops {
            if is_charge {
                if b.can_admit(size) {
                    let before = (b.used, b.xoff_threshold());
                    b.charge(size);
                    charged.push(size);
                    // Xoff is nonincreasing in `used`.
                    if let Some((u0, x0)) = prev_xoff_when_filling {
                        if b.used > u0 {
                            prop_assert!(b.xoff_threshold() <= x0);
                        }
                    }
                    prev_xoff_when_filling = Some((before.0, before.1));
                }
            } else if let Some(sz) = charged.pop() {
                b.release(sz);
            }
            prop_assert!(b.used <= b.total);
            let outstanding: u64 = charged.iter().map(|&s| s as u64).sum();
            prop_assert_eq!(b.used, outstanding);
        }
    }

    /// Serialization time is monotone and (near-)additive in bytes.
    #[test]
    fn tx_time_monotone_additive(a in 1u64..1_000_000, b in 1u64..1_000_000, rate in 1_000_000u64..400_000_000_000) {
        let ta = tx_time(a, rate);
        let tb = tx_time(b, rate);
        let tab = tx_time(a + b, rate);
        prop_assert!(tab >= ta);
        prop_assert!(tab >= tb);
        // Additivity up to 1 ps rounding per term.
        let sum = ta + tb;
        let diff = tab.as_ps().abs_diff(sum.as_ps());
        prop_assert!(diff <= 2, "diff {diff} ps");
    }

    /// DWRR never picks an empty or paused class.
    #[test]
    fn dwrr_never_picks_invalid(
        weights in prop::collection::vec(0u32..10, 2..6),
        heads in prop::collection::vec(prop::option::of(64u32..9000), 2..6),
        paused in any::<u8>(),
        picks in 1usize..200,
    ) {
        prop_assume!(weights.len() == heads.len());
        prop_assume!(weights.iter().any(|&w| w > 0));
        let mut d = Dwrr::new(weights);
        for _ in 0..picks {
            if let Some(i) = d.pick(&heads, paused) {
                prop_assert!(heads[i].is_some(), "picked empty class");
                prop_assert_eq!(paused & (1 << (i as u8)), 0, "picked paused class");
            }
        }
    }

    /// DRR fairness: while any weighted class has an available, unpaused
    /// head, `pick` never returns `None` (the `max_scan` bound can only be
    /// reached when nothing is servable, which the fast path now answers
    /// directly), and with fixed heads every servable weighted class is
    /// eventually served — no starvation from deficit/grant bookkeeping.
    #[test]
    fn dwrr_servable_weighted_class_is_eventually_served(
        weights in prop::collection::vec(1u32..10, 2..6),
        heads in prop::collection::vec(prop::option::of(64u32..9000), 2..6),
        paused in any::<u8>(),
    ) {
        prop_assume!(weights.len() == heads.len());
        let n = weights.len();
        let servable: Vec<usize> = (0..n)
            .filter(|&i| heads[i].is_some() && paused & (1 << i) == 0)
            .collect();
        prop_assume!(!servable.is_empty());
        let mut d = Dwrr::new(weights);
        let mut seen = vec![false; n];
        // Generous budget: a class of weight w accrues w*1600 bytes of
        // deficit per round, so every servable class is served within a
        // handful of rounds even while small-packet classes burn many
        // picks per visit.
        for _ in 0..500_000 {
            let got = d.pick(&heads, paused);
            prop_assert!(got.is_some(), "None while a weighted class is servable");
            seen[got.unwrap()] = true;
            if servable.iter().all(|&i| seen[i]) {
                break;
            }
        }
        for &i in &servable {
            prop_assert!(seen[i], "servable weighted class {i} starved");
        }
    }

    /// Per DRR, a class's deficit resets when its queue drains: a pick with
    /// every queue empty zeroes all deficits (the no-servable fast path),
    /// and a single drained class loses its credit as soon as the round
    /// pointer visits it while empty.
    #[test]
    fn dwrr_deficit_resets_on_drain(
        weights in prop::collection::vec(1u32..10, 2..6),
        sizes in prop::collection::vec(64u32..9000, 2..6),
        picks in 1usize..50,
    ) {
        prop_assume!(weights.len() == sizes.len());
        let n = weights.len();
        let heads: Vec<Option<u32>> = sizes.iter().map(|&s| Some(s)).collect();
        let mut d = Dwrr::new(weights);
        for _ in 0..picks {
            let _ = d.pick(&heads, 0);
        }
        // Full drain: one pick with all queues empty resets every deficit.
        let empty: Vec<Option<u32>> = vec![None; n];
        prop_assert!(d.pick(&empty, 0).is_none());
        for i in 0..n {
            prop_assert_eq!(d.deficit(i), 0, "class {} kept deficit across drain", i);
        }
        // Partial drain: rebuild some credit, empty only class 0, and keep
        // serving the others — class 0's deficit must reset once the round
        // pointer passes it (bounded by the same generous pick budget).
        for _ in 0..picks {
            let _ = d.pick(&heads, 0);
        }
        let mut partial = heads.clone();
        partial[0] = None;
        let mut reset = d.deficit(0) == 0;
        for _ in 0..500_000 {
            if reset {
                break;
            }
            let _ = d.pick(&partial, 0);
            reset = d.deficit(0) == 0;
        }
        prop_assert!(reset, "drained class 0 kept stale deficit");
    }

    /// Many FIFOs on one slab — what a core's ports share — against one
    /// `VecDeque` per queue: pushes, pops and whole-queue flushes (the reboot
    /// path) interleave over 24 queues, every queue stays FIFO and keeps its
    /// own length and byte count, a flush returns exactly its queue's items
    /// and leaves every other queue intact, and the slab never holds more
    /// slots than the most items that were ever queued at once.
    #[test]
    fn shared_slab_keeps_every_queue_fifo(
        ops in prop::collection::vec((0u8..10, 0usize..24, 1u32..9000), 1..800),
    ) {
        const QUEUES: usize = 24;
        let now = SimTime::ZERO;
        let mut arena = QueueArena::new();
        let mut telem: Vec<PortTelemetry> = (0..QUEUES).map(|_| PortTelemetry::new()).collect();
        let mut queues: Vec<EgressQueue> = (0..QUEUES)
            .map(|i| EgressQueue::new(i % 8, u64::MAX, None))
            .collect();
        let mut model: Vec<VecDeque<(u64, u32)>> = vec![VecDeque::new(); QUEUES];
        let tagged = |item: &QItem| (item.pkt.flow.0, item.pkt.size, item.ingress);
        let (mut pushed, mut live, mut peak) = (0u64, 0usize, 0usize);
        for &(action, qi, payload) in &ops {
            let (q, t, m) = (&mut queues[qi], &mut telem[qi], &mut model[qi]);
            match action {
                0..=5 => {
                    let pkt = Packet::data(
                        FlowId(pushed), NodeId(0), NodeId(1), 1, 0, payload, false, Ecn::Ect,
                    );
                    m.push_back((pushed, pkt.size));
                    q.push(&mut arena, t, QItem { pkt, ingress: Some(PortId(qi as u16)) }, now);
                    pushed += 1;
                    live += 1;
                    peak = peak.max(live);
                }
                6..=8 => {
                    let got = q.pop(&mut arena, t, now);
                    let want = m.pop_front();
                    live -= want.is_some() as usize;
                    prop_assert_eq!(
                        got.as_ref().map(tagged),
                        want.map(|(id, size)| (id, size, Some(PortId(qi as u16))))
                    );
                }
                _ => {
                    let drops = t.queue(qi % 8).drops;
                    let mut got = Vec::new();
                    while let Some(item) = q.drop_head(&mut arena, t, now) {
                        got.push(tagged(&item));
                    }
                    let want: Vec<_> = m
                        .drain(..)
                        .map(|(id, size)| (id, size, Some(PortId(qi as u16))))
                        .collect();
                    live -= want.len();
                    prop_assert_eq!(t.queue(qi % 8).drops, drops + want.len() as u64);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(queues[qi].len(), model[qi].len());
            let bytes: u64 = model[qi].iter().map(|&(_, size)| size as u64).sum();
            prop_assert_eq!(queues[qi].bytes(), bytes);
            prop_assert!(arena.slot_count() <= peak, "{} slots for {peak} items", arena.slot_count());
        }
        // Whatever is left comes out of each queue in its own push order.
        for (qi, (q, m)) in queues.iter_mut().zip(&mut model).enumerate() {
            while let Some((id, size)) = m.pop_front() {
                let got = q.pop(&mut arena, &mut telem[qi], now);
                prop_assert_eq!(
                    got.as_ref().map(tagged),
                    Some((id, size, Some(PortId(qi as u16))))
                );
            }
            prop_assert!(q.is_empty() && q.head_size(&arena).is_none());
        }
    }

    /// Every (switch, host) pair in a random leaf-spine fabric has at least
    /// one route, and following next-hops always reaches the destination
    /// within a hop bound (no loops).
    #[test]
    fn routing_reaches_destination(
        n_leaf in 1usize..5,
        n_spine in 1usize..4,
        hosts_per_leaf in 1usize..5,
        flow in any::<u64>(),
    ) {
        let spec = TopologySpec::LeafSpine {
            n_leaf,
            n_spine,
            hosts_per_leaf,
            host_bps: 25_000_000_000,
            fabric_bps: 100_000_000_000,
            host_delay: SimTime::from_ns(500),
            fabric_delay: SimTime::from_ns(500),
        };
        let topo = spec.build();
        let rt = RouteTable::build(&topo);
        let hosts = topo.hosts().to_vec();
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst {
                    continue;
                }
                // Walk the route.
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    let port = rt.next_hop(cur, dst, FlowId(flow));
                    cur = topo.port(cur, port).peer_node;
                    hops += 1;
                    prop_assert!(hops <= 6, "routing loop {src} -> {dst}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The route table stores one column per attachment node; one BFS per
    /// host is what it must still answer like. Every (node, host) pair gets
    /// the same candidate ports in the same order under any set of downed
    /// port directions, from a fresh build and from a rebuild of the same
    /// table under another set — and that rebuild allocates nothing.
    #[test]
    fn route_table_matches_all_pairs_reference(
        topo in small_topology(),
        down_a in prop::collection::vec(any::<usize>(), 0..12),
        down_b in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        let up_a = link_state(&topo, &down_a);
        let mut table = RouteTable::build_filtered(&topo, |n, p| up_a[n.idx()][p.idx()]);
        assert_matches_reference(&table, &topo, &up_a);

        let up_b = link_state(&topo, &down_b);
        let before = ALLOCS.with(Cell::get);
        table.rebuild_filtered(&topo, |n, p| up_b[n.idx()][p.idx()]);
        let allocs = ALLOCS.with(Cell::get) - before;
        prop_assert_eq!(allocs, 0, "rebuild_filtered allocated");
        assert_matches_reference(&table, &topo, &up_b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary two-host transfers are fully delivered regardless of link
    /// speed, packet count and propagation delay (conservation of packets).
    #[test]
    fn fabric_conserves_packets(
        rate_gbps in 1u64..200,
        n_pkts in 1u32..300,
        delay_ns in 1u64..5_000,
    ) {
        use netsim::prelude::*;
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::any::Any;

        struct Sink { n: Rc<RefCell<u32>> }
        impl NicDriver for Sink {
            fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {
                *self.n.borrow_mut() += 1;
            }
            fn on_timer(&mut self, _t: u64, _c: &mut HostCtx<'_>) {}
            fn as_any_mut(&mut self) -> &mut dyn Any { self }
        }
        struct Blast { dst: NodeId, n: u32 }
        impl NicDriver for Blast {
            fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
                let src = ctx.host();
                for i in 0..self.n {
                    ctx.send(Packet::data(
                        FlowId(1), src, self.dst, netsim::ids::PRIO_RDMA,
                        i as u64 * 1000, 1000, i + 1 == self.n, Ecn::Ect,
                    ));
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any { self }
        }

        let topo = TopologySpec::single_switch(2, rate_gbps * 1_000_000_000, SimTime::from_ns(delay_ns)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
        let got = Rc::new(RefCell::new(0u32));
        sim.set_driver(hosts[1], Box::new(Sink { n: got.clone() }));
        sim.set_driver(hosts[0], Box::new(Blast { dst: hosts[1], n: n_pkts }));
        sim.with_driver(hosts[0], |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
        sim.run_until(SimTime::from_ms(100));
        prop_assert_eq!(*got.borrow() + sim.core().total_drops as u32, n_pkts);
        prop_assert_eq!(sim.core().total_drops, 0);
    }
}
