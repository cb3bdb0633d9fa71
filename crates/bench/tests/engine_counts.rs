//! The engine's counts, at quick and at full scale: the packet engine
//! (incast-heavy, websearch-load, fault-plan), the sharded engine on the
//! 1024-host `paper_xl_clos` at 1 and 2 shards, and the flow backend on
//! `paper_xl_flows`, every bound on them a named `assert!`.
//!
//! Each row runs through one warmup/steady window. The first fifth of its
//! horizon is warmup: one-time capacity growth (the packet slab, event-queue
//! slots, flow tables filling to their high-water marks) lands there. The
//! steady remainder is where the zero-allocation bounds hold, exactly.
//!
//! Allocations are counted process-wide by this file's own
//! `#[global_allocator]`, because the 2-shard row's workers allocate on
//! threads of their own; the sharded row reads the counter in the run's
//! phase callback, where every worker is parked on the barrier. So nothing
//! else may run in the process. The file is a test without libtest's
//! harness (`harness = false` in the crate manifest) and its `main` is the
//! whole test: libtest would run it on a thread of its own while the main
//! thread waits, and past 60 s that thread formats a "has been running for
//! over 60 seconds" warning inside whichever steady window is open. Nor
//! does it use `support`, whose allocator counts per thread.
//!
//! Every row runs the static SECN1 policy, so no count depends on a cached
//! RL model. Every column is a count, the same on any host; wall-clock time
//! and heap are `benchmark/`'s. The test runs every row at both scales
//! (about a minute in release on two cores), so a debug build skips it and
//! CI runs it in its own step:
//! `cargo test --release -p acc-bench --test engine_counts`.

#[path = "support/websearch_load.rs"]
mod websearch_load;

use acc_bench::common::{self, Harness, Policy, Scale, Scenario};
use netsim::flowsim::{FlowSim, FlowSimConfig};
use netsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use transport::CcKind;
use workloads::gen::{incast_wave, PoissonGen};
use workloads::{to_flow_specs, SizeDist, XlFlowsSpec};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the `System` allocator; the counter does
// not affect layout or aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Where warmup ends on a run to `horizon`.
fn warmup_end(horizon: SimTime) -> SimTime {
    SimTime::from_ps(horizon.as_ps() / 5)
}

/// One row's columns. `events_processed`, `warmup_events` and
/// `allocations_per_event` come from the window; the others are what the
/// row's engine reports at the end, left 0 on rows that have none.
#[derive(Debug, Default)]
struct Row {
    name: String,
    /// Events in the steady window.
    events_processed: u64,
    warmup_events: u64,
    /// Allocations in the steady window over its events.
    allocations_per_event: f64,
    peak_event_queue: u64,
    /// The packet slab's slots reserved at build and the most queued at
    /// once: `peak <= reserved` is what the packet path's zero-allocation
    /// bounds rest on.
    arena_slots_reserved: u64,
    arena_slots_peak: u64,
    ports_held: u64,
    shards: usize,
    /// Entries in the per-shard event counts.
    shard_events: usize,
    remote_events: u64,
    flows_total: u64,
    flows_completed: u64,
    events_per_flow: f64,
    /// Printed, not bounded: the flow backend's rebalancing work.
    #[allow(dead_code)]
    rate_updates_per_flow: f64,
    #[allow(dead_code)]
    rebalance_scans_per_flow: f64,
}

/// Step an engine through the window: `run_to(t)` advances it to `t` and
/// returns its events processed so far.
fn drive(horizon: SimTime, mut run_to: impl FnMut(SimTime) -> u64) -> Row {
    let warmup_events = run_to(warmup_end(horizon));
    let before = allocs();
    let total = run_to(horizon);
    let steady = allocs() - before;
    let events_processed = total - warmup_events;
    Row {
        events_processed,
        warmup_events,
        allocations_per_event: steady as f64 / events_processed.max(1) as f64,
        ..Row::default()
    }
}

/// Run a built packet scenario to `horizon` through the window.
fn packet_row(name: &str, mut sc: Scenario, horizon: SimTime) -> Row {
    let row = drive(horizon, |t| {
        sc.sim.run_until(t);
        sc.sim.core().events_processed
    });
    let core = sc.sim.core();
    let (reserved, peak) = core.arena_slots();
    Row {
        name: name.into(),
        peak_event_queue: core.event_queue_peak(),
        arena_slots_reserved: reserved as u64,
        arena_slots_peak: peak as u64,
        ..row
    }
}

/// Incast-heavy: repeated N-to-1 waves through one switch — the queue-depth
/// worst case (bursts of simultaneous arrivals, deep PFC/ECN interaction).
fn incast_heavy(h: &Harness) -> Row {
    let scale = h.scale;
    let fanin = scale.pick(64, 16);
    let spec = TopologySpec::single_switch(fanin + 1, 25_000_000_000, SimTime::from_ns(500));
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let bytes = scale.pick(256_000, 64_000);
    let wave_gap = SimTime::from_ms(1);
    let waves = scale.pick(8, 3);
    let mut arrivals = Vec::new();
    for w in 0..waves {
        arrivals.extend(incast_wave(
            &hosts[..fanin],
            hosts[fanin],
            2,
            bytes,
            CcKind::Dcqcn,
            wave_gap.mul(w as u64),
        ));
    }
    let sc = h.scenario(&spec, Policy::Secn1, 7, &arrivals);
    let horizon = wave_gap.mul(waves as u64) + scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    packet_row("incast-heavy", sc, horizon)
}

/// The seeded fault schedule over moderate load: reroutes, reboots and
/// loss windows exercise the slow paths the other scenarios never touch.
fn fault_plan(h: &Harness) -> Row {
    let scale = h.scale;
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let hosts: Vec<NodeId> = topo.hosts().to_vec();
    let horizon = scale.pick(SimTime::from_ms(30), SimTime::from_ms(10));
    let g = PoissonGen::new(SizeDist::web_search(), 0.5, CcKind::Dcqcn, 300);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);
    let mut sc = h.scenario(&spec, Policy::Secn1, 21, &arrivals);
    let plan = acc_bench::fault::fault_plan(&topo, horizon, 21);
    sc.sim
        .install_fault_plan(&plan)
        .expect("fault plan validates");
    let end = horizon + scale.pick(SimTime::from_ms(10), SimTime::from_ms(4));
    packet_row("fault-plan", sc, end)
}

/// WebSearch load on the 1024-host three-tier Clos, run through the
/// conservative-lookahead engine by the harness's one run path in two
/// phases split at the warmup boundary; events come from each shard's
/// `phase_events`.
fn xl_clos_sharded(h: &Harness, n_shards: u32) -> Row {
    let scale = h.scale;
    let spec = TopologySpec::paper_xl_clos();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let horizon = scale.pick(SimTime::from_ms(3), SimTime::from_us(600));
    let load = scale.pick(0.5, 0.3);
    let g = PoissonGen::new(SizeDist::web_search(), load, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);

    let mut edges = [0u64; 2];
    let out = h.experiment("engine-counts").with_shards(n_shards).run_to(
        &spec,
        Policy::Secn1,
        7,
        &arrivals,
        None,
        &[warmup_end(horizon), horizon],
        |phase| edges[phase] = allocs(),
    );
    let phase = |i: usize| -> u64 { out.shard_stats.iter().map(|s| s.phase_events[i]).sum() };
    let events_processed = phase(1) - phase(0);
    Row {
        name: format!("xl-clos-1024/{n_shards}shard"),
        events_processed,
        warmup_events: phase(0),
        allocations_per_event: (edges[1] - edges[0]) as f64 / events_processed.max(1) as f64,
        peak_event_queue: out.engine.peak_event_queue,
        arena_slots_reserved: out.engine.arena_slots_reserved,
        arena_slots_peak: out.engine.arena_slots_peak,
        ports_held: out.engine.ports_held,
        shards: n_shards as usize,
        shard_events: out.shard_stats.len(),
        remote_events: out.remote_events(),
        ..Row::default()
    }
}

/// `paper_xl_flows` (WebSearch + storage message mix, ≥100× the packet rows'
/// flow count) over the 1024-host Clos on the hybrid backend. The per-flow
/// columns are whole-run counts over the flows scheduled.
fn xl_flows(scale: Scale) -> Row {
    let topo = TopologySpec::paper_xl_clos().build();
    let hosts = topo.hosts().to_vec();
    let spec = if scale.quick {
        XlFlowsSpec::quick(7)
    } else {
        XlFlowsSpec::full(7)
    };
    let arrivals = spec.generate(&hosts, topo.host_rate_bps(hosts[0]));
    let mut sim = FlowSim::new(topo, FlowSimConfig::default());
    common::install_policy(&mut sim, Policy::Secn1, scale);
    sim.schedule_flows(&to_flow_specs(&arrivals));
    // Generous drain so the elephant tail completes inside the horizon.
    let horizon = spec.duration + scale.pick(SimTime::from_ms(300), SimTime::from_ms(100));
    let row = drive(horizon, |t| {
        sim.run_until(t);
        sim.stats().events_processed
    });
    let stats = sim.stats();
    let flows_total = arrivals.len() as u64;
    let per_flow = |n: u64| n as f64 / flows_total.max(1) as f64;
    Row {
        name: "xl-flows".into(),
        peak_event_queue: stats.peak_event_queue as u64,
        flows_total,
        flows_completed: stats.flows_completed,
        events_per_flow: per_flow(stats.events_processed),
        rate_updates_per_flow: per_flow(stats.rate_updates),
        rebalance_scans_per_flow: per_flow(stats.rebalance_scans),
        ..row
    }
}

/// `assert!` that `row.column <op> rhs` holds, naming the row, the column
/// and the bound when it does not.
macro_rules! bound {
    ($row:expr, $column:ident $op:tt $($rhs:tt)+) => {{
        let (got, bound) = ($row.$column, $($rhs)+);
        assert!(
            got $op bound,
            "{}: {} {} {}: got {:?} against {:?}",
            $row.name,
            stringify!($column),
            stringify!($op),
            stringify!($($rhs)+),
            got,
            bound,
        );
    }};
}

fn main() {
    // `cargo test <filter>` hands its filter to every test binary.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if !filters.is_empty() && !filters.iter().any(|f| "engine_counts".contains(f.as_str())) {
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "engine_counts: skipped in a debug build (it runs six engine rows at quick and \
             full scale, about a minute in release); run it with --release"
        );
        return;
    }
    for scale in [Scale::QUICK, Scale::FULL] {
        let h = Harness::new(scale);
        let at = scale.pick("full", "quick");
        let mut rows = vec![incast_heavy(&h)];
        let (sc, horizon) = websearch_load::websearch_load(&h);
        rows.push(packet_row("websearch-load", sc, horizon));
        rows.push(fault_plan(&h));
        rows.push(xl_clos_sharded(&h, 1));
        rows.push(xl_clos_sharded(&h, 2));
        rows.push(xl_flows(scale));
        for r in &mut rows {
            r.name = format!("{} ({at})", r.name);
            eprintln!("{r:?}");
        }
        let [incast, websearch, faults, xl1, xl2, flows] = &rows[..] else {
            unreachable!("six rows")
        };

        // Every engine row: the steady window ran.
        for r in [incast, websearch, faults, xl1, xl2] {
            bound!(r, events_processed > 0);
            bound!(r, warmup_events > 0);
            bound!(r, peak_event_queue > 0);
        }
        // Measured, not held: the incast's waves queue more packets than
        // its switch's slab reserves, so the slab grows in steady state.
        bound!(incast, allocations_per_event >= 0.0);
        // The rest run without the heap once warm, inside their slabs.
        for r in [websearch, faults, xl1, xl2] {
            bound!(r, allocations_per_event == 0.0);
            bound!(r, arena_slots_peak <= r.arena_slots_reserved);
        }
        // Sharded engine: one event count per shard, and every port of the
        // fabric has one block whatever the shard count (a shard that built
        // blocks for the nodes it does not own would read 6,144 on two).
        for r in [xl1, xl2] {
            bound!(r, shard_events == r.shards);
            bound!(r, ports_held == 3072);
        }
        // Sharding must not multiply the slab: one shard reserves 270,336
        // slots (132 switches x 2,048), and every switch has one owner. And
        // the shards did talk.
        bound!(xl2, arena_slots_reserved <= 540_672);
        bound!(xl2, remote_events > 0);
        // Flow backend: 100x the packet rows' flow count, all of it
        // finished, one arrival and one completion per flow plus the
        // control ticks, and at most one pending timer per flow plus the
        // tick.
        bound!(flows, events_processed > 0);
        bound!(flows, warmup_events > 0);
        bound!(flows, flows_total >= 36_000);
        bound!(flows, flows_completed == flows.flows_total);
        bound!(flows, allocations_per_event == 0.0);
        bound!(flows, events_per_flow <= 3.0);
        bound!(flows, peak_event_queue <= flows.flows_total + 2);
    }
}
