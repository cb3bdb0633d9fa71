//! `acc-bench perf` — the count gates.
//!
//! One command, one document (`acc-bench-gates/v1`), one table of bounds.
//! The rows are the packet engine (incast-heavy, websearch-load,
//! fault-plan), the sharded engine on the 1024-host `paper_xl_clos` at 1 and
//! 2 shards, the flow-level backend on `paper_xl_flows`, and its accuracy
//! against the packet engine on two seeded scenarios. The DDQN kernels have
//! no row: tests hold them (bit-identity with the scalar reference and
//! submit/join identity in `rl`, zero allocations per train step, select
//! and control tick in `rl` and `acc-core`).
//!
//! Every column is a count or a ratio of counts — allocations per event,
//! events per flow, peak queue depth, remote events, slab slots, FCT error
//! against the packet engine — so a row reads the same on any host, and
//! [`GATES`] holds every bound on them. No column is a wall-clock time or a
//! rate: those come from `benchmark/` (alternating pairs, host-speed
//! normalised), and this module reads no clock.
//!
//! The engine rows run the static SECN1 policy: a gate must not depend on a
//! cached RL model.

use crate::common::{self, with, Harness, Policy, Scale, Scenario};
use netsim::flowsim::{FlowSim, FlowSimConfig};
use netsim::ids::NodeId;
use netsim::prelude::*;
use serde_json::{json, Value};
use std::fmt;
use transport::{CcKind, FctCollector, FctStats};
use workloads::gen::{incast_wave, Arrival, PoissonGen};
use workloads::{to_flow_specs, SizeDist, XlFlowsSpec};

/// Schema tag of the gate document.
pub const SCHEMA: &str = "acc-bench-gates/v1";

// ---------------------------------------------------------------------------
// The warmup/steady window.
// ---------------------------------------------------------------------------

/// The warmup/steady allocation window every engine row is measured through.
///
/// The first fifth of a row's horizon is warmup: one-time capacity growth
/// (the packet slab, event-queue slots, flow tables and slabs filling
/// to their high-water marks) happens there and is reported apart. The
/// allocation columns cover the steady remainder, which the zero-allocation
/// gates hold to exactly 0. The probe is read at the window's three edges;
/// who advances the engine between them is the caller's business —
/// [`Window::drive`] for an engine this thread steps, [`Window::edge`] from
/// the sharded engine's phase callback, where every worker is parked on the
/// barrier and the process-wide counter is exact.
struct Window<'h> {
    h: &'h Harness,
    edges: Vec<Option<(u64, u64)>>,
}

impl<'h> Window<'h> {
    /// Where warmup ends on a run to `horizon`.
    fn warmup_end(horizon: SimTime) -> SimTime {
        SimTime::from_ps(horizon.as_ps() / 5)
    }

    fn open(h: &'h Harness) -> Self {
        // Pre-sized: a push that grew the vector would charge the harness's
        // own allocation to the steady window.
        let mut edges = Vec::with_capacity(3);
        edges.push(h.alloc_counts());
        Window { h, edges }
    }

    fn edge(&mut self) {
        self.edges.push(self.h.alloc_counts());
    }

    /// Step an engine through both phases. `run_to(t)` advances it to `t`
    /// and returns its events processed so far; the result is
    /// `(warmup events, steady events)` beside the closed window.
    fn drive(
        h: &'h Harness,
        horizon: SimTime,
        mut run_to: impl FnMut(SimTime) -> u64,
    ) -> (Self, u64, u64) {
        let mut w = Window::open(h);
        let warmup = run_to(Window::warmup_end(horizon));
        w.edge();
        let total = run_to(horizon);
        w.edge();
        (w, warmup, total - warmup)
    }

    /// The columns every engine row starts with.
    fn row(&self, name: &str, warmup_events: u64, events: u64, peak_event_queue: u64) -> Value {
        let delta = |from: usize| match (self.edges[from], self.edges[from + 1]) {
            (Some((a0, b0)), Some((a1, b1))) => Some((a1 - a0, b1 - b0)),
            _ => None,
        };
        let per_event = |n: u64| n as f64 / events.max(1) as f64;
        let steady = delta(1);
        json!({
            "name": name,
            "events_processed": events,
            "warmup_events": warmup_events,
            "warmup_allocations": delta(0).map(|(a, _)| a),
            "peak_event_queue": peak_event_queue,
            "allocations_per_event": steady.map(|(a, _)| per_event(a)),
            "alloc_bytes_per_event": steady.map(|(_, b)| per_event(b)),
        })
    }
}

// ---------------------------------------------------------------------------
// Packet and sharded rows.
// ---------------------------------------------------------------------------

/// Run a built packet scenario to `horizon` through the window. The
/// `arena_slots_*` columns (here and on the sharded rows) are the packet
/// slab's slots reserved at build and the most queued at once; `peak <=
/// reserved` is what the packet path's zero-allocation gates rest on.
fn packet_row(h: &Harness, name: &str, mut sc: Scenario, horizon: SimTime) -> Value {
    let (w, warmup, events) = Window::drive(h, horizon, |t| {
        sc.sim.run_until(t);
        sc.sim.core().events_processed
    });
    let (reserved, peak) = sc.sim.core().arena_slots();
    with(
        w.row(name, warmup, events, sc.sim.core().event_queue_peak()),
        json!({"arena_slots_reserved": reserved, "arena_slots_peak": peak}),
    )
}

/// Incast-heavy: repeated N-to-1 waves through one switch — the queue-depth
/// worst case (bursts of simultaneous arrivals, deep PFC/ECN interaction).
fn incast_heavy(h: &Harness) -> Value {
    let scale = h.scale;
    let fanin = scale.pick(64, 16);
    let spec = TopologySpec::single_switch(fanin + 1, 25_000_000_000, SimTime::from_ns(500));
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let receiver = hosts[fanin];
    let bytes = scale.pick(256_000, 64_000);
    let wave_gap = SimTime::from_ms(1);
    let waves = scale.pick(8, 3);
    let mut arrivals = Vec::new();
    for w in 0..waves {
        arrivals.extend(incast_wave(
            &hosts[..fanin],
            receiver,
            2,
            bytes,
            CcKind::Dcqcn,
            wave_gap.mul(w as u64),
        ));
    }
    let sc = h.scenario(&spec, Policy::Secn1, 7, &arrivals);
    let horizon = wave_gap.mul(waves as u64) + scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    packet_row(h, "incast-heavy", sc, horizon)
}

/// Build the websearch-load scenario (WebSearch at load 0.8 on the fig12
/// fabric) and its run horizon. Shared with the observability smoke tests,
/// which re-run it with profiling on and off to bound profiler overhead.
pub fn websearch_scenario(h: &Harness) -> (Scenario, SimTime) {
    let scale = h.scale;
    let spec = if scale.quick {
        TopologySpec::paper_cacc_sim()
    } else {
        TopologySpec::paper_large_sim()
    };
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let dur = scale.pick(SimTime::from_ms(10), SimTime::from_ms(3));
    let g = PoissonGen::new(SizeDist::web_search(), 0.8, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    let sc = h.scenario(&spec, Policy::Secn1, 9, &arrivals);
    let horizon = dur + scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    (sc, horizon)
}

/// The three packet-engine rows — the ones `--profile` covers. Public so the
/// observability smoke test can pin that.
pub fn packet_rows(h: &Harness) -> Vec<Value> {
    vec![incast_heavy(h), websearch_load(h), fault_plan_load(h)]
}

/// WebSearch at load 0.8 on the fig12 fabric: the bread-and-butter mix the
/// figure sweeps run all day.
fn websearch_load(h: &Harness) -> Value {
    let (sc, horizon) = websearch_scenario(h);
    packet_row(h, "websearch-load", sc, horizon)
}

/// The seeded fault schedule over moderate load: reroutes, reboots and
/// loss windows exercise the slow paths the other scenarios never touch.
fn fault_plan_load(h: &Harness) -> Value {
    let scale = h.scale;
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let hosts: Vec<NodeId> = topo.hosts().to_vec();
    let horizon = scale.pick(SimTime::from_ms(30), SimTime::from_ms(10));
    let g = PoissonGen::new(SizeDist::web_search(), 0.5, CcKind::Dcqcn, 300);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);
    let mut sc = h.scenario(&spec, Policy::Secn1, 21, &arrivals);
    let plan = crate::fault::fault_plan(&topo, horizon, 21);
    sc.sim
        .install_fault_plan(&plan)
        .expect("fault plan validates");
    let end = horizon + scale.pick(SimTime::from_ms(10), SimTime::from_ms(4));
    packet_row(h, "fault-plan", sc, end)
}

/// WebSearch load on the 1024-host three-tier Clos (`paper_xl_clos`), run
/// through the conservative-lookahead engine by the harness's one run path.
/// The run is split into two phases at the warmup boundary; steady-state
/// events come from each shard's `phase_events` deltas.
fn xl_clos_sharded(h: &Harness, n_shards: u32) -> Value {
    let scale = h.scale;
    let spec = TopologySpec::paper_xl_clos();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let horizon = scale.pick(SimTime::from_ms(3), SimTime::from_us(600));
    let load = scale.pick(0.5, 0.3);
    let g = PoissonGen::new(SizeDist::web_search(), load, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);

    let sharded = h.experiment("perf").with_shards(n_shards);
    let mut w = Window::open(h);
    let out = sharded.run_to(
        &spec,
        Policy::Secn1,
        7,
        &arrivals,
        None,
        &[Window::warmup_end(horizon), horizon],
        |_| w.edge(),
    );
    let phase = |i: usize| -> u64 { out.shard_stats.iter().map(|s| s.phase_events[i]).sum() };
    let row = w.row(
        &format!("xl-clos-1024/{n_shards}shard"),
        phase(0),
        phase(1) - phase(0),
        out.engine.peak_event_queue,
    );
    let shard_events: Vec<u64> = out.shard_stats.iter().map(|s| s.events_processed).collect();
    with(
        row,
        json!({
            "arena_slots_reserved": out.engine.arena_slots_reserved,
            "arena_slots_peak": out.engine.arena_slots_peak,
            "ports_held": out.engine.ports_held,
            "shards": n_shards,
            "remote_events": out.remote_events(),
            "shard_events": shard_events,
        }),
    )
}

// ---------------------------------------------------------------------------
// The flow-level backend: the xl-flows row and the accuracy rows.
// ---------------------------------------------------------------------------

/// Seed shared by the XL workload and the accuracy scenarios.
const SEED: u64 = 7;

/// Build a hybrid-fidelity [`FlowSim`] over `spec`'s fabric under SECN1,
/// installed through the same policy table as the packet side of the
/// accuracy rows.
fn flow_sim(spec: &TopologySpec, scale: Scale) -> FlowSim {
    let mut sim = FlowSim::new(spec.build(), FlowSimConfig::default());
    common::install_policy(&mut sim, Policy::Secn1, scale);
    sim
}

/// Overall FCT statistics of a finished flow-level run.
fn fct_of(sim: &FlowSim) -> FctStats {
    let fct = FctCollector::new_shared();
    fct.borrow_mut().register_flowsim(sim.completions());
    let stats = fct.borrow().stats(|_| true);
    stats
}

/// Run `sim` to `horizon` through the window. The per-flow columns are
/// whole-run counts over the flows scheduled.
fn flow_row(
    h: &Harness,
    name: &str,
    mut sim: FlowSim,
    horizon: SimTime,
    flows_total: usize,
) -> Value {
    let (w, warmup, events) = Window::drive(h, horizon, |t| {
        sim.run_until(t);
        sim.stats().events_processed
    });
    let stats = sim.stats();
    let per_flow = |n: u64| n as f64 / flows_total.max(1) as f64;
    let row = w.row(name, warmup, events, stats.peak_event_queue as u64);
    with(
        row,
        json!({
            "flows_total": flows_total,
            "flows_started": stats.flows_started,
            "flows_completed": stats.flows_completed,
            "fast_path_flows": stats.fast_path_flows,
            "events_per_flow": per_flow(stats.events_processed),
            "rate_updates_per_flow": per_flow(stats.rate_updates),
            "rebalance_scans_per_flow": per_flow(stats.rebalance_scans),
        }),
    )
}

/// `paper_xl_flows` (WebSearch + storage message mix, ≥100× the packet rows'
/// flow count) over the 1024-host Clos on the hybrid backend.
fn xl_flows(h: &Harness) -> Value {
    let scale = h.scale;
    let topo_spec = TopologySpec::paper_xl_clos();
    let topo = topo_spec.build();
    let hosts = topo.hosts().to_vec();
    let spec = if scale.quick {
        XlFlowsSpec::quick(SEED)
    } else {
        XlFlowsSpec::full(SEED)
    };
    let arrivals = spec.generate(&hosts, topo.host_rate_bps(hosts[0]));
    let mut sim = flow_sim(&topo_spec, scale);
    sim.schedule_flows(&to_flow_specs(&arrivals));
    // Generous drain so the elephant tail completes inside the horizon.
    let horizon = spec.duration + scale.pick(SimTime::from_ms(300), SimTime::from_ms(100));
    flow_row(h, "xl-flows", sim, horizon, arrivals.len())
}

/// One packet-vs-hybrid accuracy scenario: an arrival list plus the horizon
/// both backends run to (long enough that every flow completes, so the
/// percentiles compare identical flow populations).
struct AccuracyScenario {
    name: &'static str,
    spec: TopologySpec,
    arrivals: Vec<Arrival>,
    horizon: SimTime,
}

/// The two seeded validation scenarios the accuracy gates run.
fn accuracy_scenarios(scale: Scale) -> [AccuracyScenario; 2] {
    // WebSearch at 0.3 load through one switch: mostly-uncontended
    // heavy-tailed traffic, the fast-path regime.
    let websearch = {
        let spec = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500));
        let hosts = spec.build().hosts().to_vec();
        let dur = scale.pick(SimTime::from_ms(10), SimTime::from_ms(3));
        let g = PoissonGen::new(SizeDist::web_search(), 0.3, CcKind::Dcqcn, 11);
        AccuracyScenario {
            name: "websearch-0.3",
            arrivals: g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur),
            spec,
            horizon: dur + SimTime::from_ms(60),
        }
    };
    // 8-to-1 incast, three 64 KB partition-aggregate waves: every flow
    // contended at the receiver port, the saturated max-min regime.
    // Waves stay in the 64–100 KB range where packet DCQCN runs the
    // bottleneck at ~full utilisation; multi-MB incasts sit in the
    // post-burst convergence transient the flow model deliberately
    // collapses (a documented divergence, see the flowsim module docs)
    // and are out of the fidelity envelope this gate certifies.
    let incast = {
        let spec = TopologySpec::single_switch(9, 25_000_000_000, SimTime::from_ns(500));
        let hosts = spec.build().hosts().to_vec();
        let mut arrivals = Vec::new();
        for w in 0..3u64 {
            arrivals.extend(incast_wave(
                &hosts[..8],
                hosts[8],
                2,
                64_000,
                CcKind::Dcqcn,
                SimTime::from_ms(1).mul(w),
            ));
        }
        AccuracyScenario {
            name: "incast-8to1",
            spec,
            arrivals,
            horizon: SimTime::from_ms(10),
        }
    };
    [websearch, incast]
}

/// Relative error of `measured` against reference `truth`.
fn rel_err(measured: f64, truth: f64) -> f64 {
    ((measured - truth) / truth.max(1e-9)).abs()
}

/// The packet-vs-hybrid accuracy rows: one `accuracy/<scenario>` row per
/// validation scenario (FCT p50/p99 of both backends, their relative error,
/// and the packet engine's events per simulated second over the hybrid
/// backend's) and the `accuracy` row holding the worst of each. Public so
/// the differential accuracy test gates the rows the CLI writes.
pub fn accuracy_rows(h: &Harness) -> Vec<Value> {
    let scale = h.scale;
    let mut rows = Vec::new();
    let (mut max_p50, mut max_p99) = (0f64, 0f64);
    let mut min_avoidance = f64::INFINITY;
    for sc in accuracy_scenarios(scale) {
        let mut packet = h.scenario(&sc.spec, Policy::Secn1, SEED, &sc.arrivals);
        packet.sim.run_until(sc.horizon);
        let p = packet.fct.borrow().stats(|_| true);
        let p_events = packet.sim.core().events_processed;

        let mut hybrid = flow_sim(&sc.spec, scale);
        hybrid.schedule_flows(&to_flow_specs(&sc.arrivals));
        hybrid.run_until(sc.horizon);
        let h = fct_of(&hybrid);
        let h_events = hybrid.stats().events_processed;
        assert_eq!(
            p.count, h.count,
            "{}: both backends must complete every flow inside the horizon",
            sc.name
        );

        let e50 = rel_err(h.p50_us, p.p50_us);
        let e99 = rel_err(h.p99_us, p.p99_us);
        let p_rate = p_events as f64 / packet.sim.now().as_secs_f64().max(1e-12);
        let h_rate = h_events as f64 / hybrid.now().as_secs_f64().max(1e-12);
        let avoidance = p_rate / h_rate.max(1e-9);
        max_p50 = max_p50.max(e50);
        max_p99 = max_p99.max(e99);
        min_avoidance = min_avoidance.min(avoidance);
        rows.push(json!({
            "name": format!("accuracy/{}", sc.name),
            "flows": p.count,
            "packet": {"p50_us": p.p50_us, "p99_us": p.p99_us, "events": p_events},
            "hybrid": {"p50_us": h.p50_us, "p99_us": h.p99_us, "events": h_events},
            "p50_rel_err": e50,
            "p99_rel_err": e99,
            "cost_avoidance": avoidance,
        }));
    }
    rows.push(json!({
        "name": "accuracy",
        "max_p50_rel_err": max_p50,
        "max_p99_rel_err": max_p99,
        "cost_avoidance": min_avoidance,
    }));
    rows
}

// ---------------------------------------------------------------------------
// The gate table.
// ---------------------------------------------------------------------------

/// How a gate compares its column with its bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `==`
    Eq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

/// What a gate compares its column with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A constant.
    Num(f64),
    /// Another column of the same row, plus a constant.
    Col(&'static str, f64),
}

/// One bound on one column of one row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// The row's `name`.
    pub row: &'static str,
    /// The gated column. Booleans read as 0/1 and arrays as their length,
    /// so identities and per-shard lists gate through the same comparison
    /// as counts.
    pub column: &'static str,
    /// The comparison.
    pub op: Op,
    /// Its right-hand side.
    pub bound: Bound,
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            Op::Eq => "==",
            Op::Le => "<=",
            Op::Ge => ">=",
            Op::Gt => ">",
        };
        write!(f, "{}: {} {op} ", self.row, self.column)?;
        match self.bound {
            Bound::Num(n) => write!(f, "{n}"),
            Bound::Col(c, 0.0) => write!(f, "{c}"),
            Bound::Col(c, plus) => write!(f, "{c} + {plus}"),
        }
    }
}

const fn gate(row: &'static str, column: &'static str, op: Op, bound: Bound) -> Gate {
    Gate {
        row,
        column,
        op,
        bound,
    }
}

/// Every bound `acc-bench perf` enforces, on both scales. An allocation
/// column (`alloc*`) is `null` when no probe is registered, and only then:
/// its gate is skipped without a probe and fails on a `null` with one.
pub const GATES: &[Gate] = {
    use Bound::{Col, Num};
    use Op::{Eq, Ge, Gt, Le};
    &[
        // Packet engine: the steady window ran, and ran without the heap.
        gate("incast-heavy", "events_processed", Gt, Num(0.0)),
        gate("incast-heavy", "warmup_events", Gt, Num(0.0)),
        gate("incast-heavy", "peak_event_queue", Gt, Num(0.0)),
        gate("incast-heavy", "allocations_per_event", Ge, Num(0.0)),
        gate("websearch-load", "events_processed", Gt, Num(0.0)),
        gate("websearch-load", "warmup_events", Gt, Num(0.0)),
        gate("websearch-load", "peak_event_queue", Gt, Num(0.0)),
        gate("websearch-load", "allocations_per_event", Eq, Num(0.0)),
        gate(
            "websearch-load",
            "arena_slots_peak",
            Le,
            Col("arena_slots_reserved", 0.0),
        ),
        gate("fault-plan", "events_processed", Gt, Num(0.0)),
        gate("fault-plan", "warmup_events", Gt, Num(0.0)),
        gate("fault-plan", "peak_event_queue", Gt, Num(0.0)),
        gate("fault-plan", "allocations_per_event", Eq, Num(0.0)),
        gate(
            "fault-plan",
            "arena_slots_peak",
            Le,
            Col("arena_slots_reserved", 0.0),
        ),
        // Sharded engine: the same bar per shard, and the shards did talk.
        gate("xl-clos-1024/1shard", "events_processed", Gt, Num(0.0)),
        gate("xl-clos-1024/1shard", "warmup_events", Gt, Num(0.0)),
        gate("xl-clos-1024/1shard", "peak_event_queue", Gt, Num(0.0)),
        gate("xl-clos-1024/1shard", "allocations_per_event", Eq, Num(0.0)),
        gate(
            "xl-clos-1024/1shard",
            "arena_slots_peak",
            Le,
            Col("arena_slots_reserved", 0.0),
        ),
        gate(
            "xl-clos-1024/1shard",
            "shard_events",
            Eq,
            Col("shards", 0.0),
        ),
        // Every port of the fabric has one block, whatever the shard count:
        // a shard that built blocks for the nodes it does not own would
        // read 6,144 on two shards.
        gate("xl-clos-1024/1shard", "ports_held", Eq, Num(3072.0)),
        gate("xl-clos-1024/2shard", "events_processed", Gt, Num(0.0)),
        gate("xl-clos-1024/2shard", "warmup_events", Gt, Num(0.0)),
        gate("xl-clos-1024/2shard", "peak_event_queue", Gt, Num(0.0)),
        gate("xl-clos-1024/2shard", "allocations_per_event", Eq, Num(0.0)),
        gate(
            "xl-clos-1024/2shard",
            "arena_slots_peak",
            Le,
            Col("arena_slots_reserved", 0.0),
        ),
        // Sharding must not multiply the slab: the 1-shard row reserves
        // 270,336 slots (132 switches x 2,048), and every switch has one owner.
        gate(
            "xl-clos-1024/2shard",
            "arena_slots_reserved",
            Le,
            Num(540_672.0),
        ),
        gate(
            "xl-clos-1024/2shard",
            "shard_events",
            Eq,
            Col("shards", 0.0),
        ),
        gate("xl-clos-1024/2shard", "ports_held", Eq, Num(3072.0)),
        gate("xl-clos-1024/2shard", "remote_events", Gt, Num(0.0)),
        // Flow backend: 100x the packet rows' flow count, all of it finished,
        // one arrival and one completion per flow plus the control ticks, and at
        // most one pending timer per flow plus the tick.
        gate("xl-flows", "events_processed", Gt, Num(0.0)),
        gate("xl-flows", "warmup_events", Gt, Num(0.0)),
        gate("xl-flows", "flows_total", Ge, Num(36_000.0)),
        gate("xl-flows", "flows_completed", Eq, Col("flows_total", 0.0)),
        gate("xl-flows", "allocations_per_event", Eq, Num(0.0)),
        gate("xl-flows", "events_per_flow", Le, Num(3.0)),
        gate("xl-flows", "peak_event_queue", Le, Col("flows_total", 2.0)),
        // The fidelity contract against the packet engine.
        gate("accuracy/websearch-0.3", "flows", Gt, Num(0.0)),
        gate("accuracy/incast-8to1", "flows", Gt, Num(0.0)),
        gate("accuracy", "max_p50_rel_err", Le, Num(0.05)),
        gate("accuracy", "max_p99_rel_err", Le, Num(0.05)),
        gate("accuracy", "cost_avoidance", Ge, Num(20.0)),
    ]
};

/// A column as a number (see [`Gate::column`]).
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Bool(b) => Some(f64::from(u8::from(*b))),
        Value::Array(a) => Some(a.len() as f64),
        v => v.as_f64(),
    }
}

impl Gate {
    /// The column's value when the gate holds (`None`: an allocation column
    /// with no probe to fill it), else why it does not.
    fn eval<'d>(&self, doc: &'d Value, probe: bool) -> Result<Option<&'d Value>, String> {
        let row = doc["rows"]
            .as_array()
            .and_then(|rows| rows.iter().find(|r| r["name"].as_str() == Some(self.row)))
            .ok_or("row missing")?;
        let bound = match self.bound {
            Bound::Num(n) => n,
            Bound::Col(c, plus) => {
                number(&row[c]).ok_or_else(|| format!("column {c} missing"))? + plus
            }
        };
        let value = &row[self.column];
        let Some(got) = number(value) else {
            return if self.column.starts_with("alloc") && !probe {
                Ok(None)
            } else {
                Err("column missing".into())
            };
        };
        let holds = match self.op {
            Op::Eq => got == bound,
            Op::Le => got <= bound,
            Op::Ge => got >= bound,
            Op::Gt => got > bound,
        };
        if holds {
            Ok(Some(value))
        } else {
            Err(format!("got {got}"))
        }
    }
}

/// The gates on rows whose name starts with `prefix` that `doc` fails, each
/// as `"<row>: <column> <op> <bound>: <why>"`.
pub fn check_rows(doc: &Value, prefix: &str) -> Vec<String> {
    let probe = doc["alloc_probe"].as_bool().unwrap_or(false);
    GATES
        .iter()
        .filter(|g| g.row.starts_with(prefix))
        .filter_map(|g| g.eval(doc, probe).err().map(|why| format!("{g}: {why}")))
        .collect()
}

/// Everything wrong with a gate document: its schema tag, and every gate of
/// [`GATES`] it fails, by name. Empty means the document passes.
pub fn check(doc: &Value) -> Vec<String> {
    let mut failed = Vec::new();
    if doc["schema"].as_str() != Some(SCHEMA) {
        failed.push(format!("schema is not {SCHEMA}"));
    }
    if doc["alloc_probe"].as_bool().is_none() {
        failed.push("alloc_probe is not a bool".into());
    }
    failed.extend(check_rows(doc, ""));
    failed
}

/// Run every row and return the document; [`check`] says whether it
/// passes, [`show`] prints it. Each row finished is a `[perf]` line on
/// stderr.
pub fn run(h: &Harness) -> Value {
    let mut rows = Vec::new();
    let mut done = |row: Value| {
        eprintln!("[perf] {}", row["name"].as_str().unwrap_or("?"));
        rows.push(row);
    };
    packet_rows(h).into_iter().for_each(&mut done);
    [xl_clos_sharded(h, 1), xl_clos_sharded(h, 2), xl_flows(h)]
        .into_iter()
        .for_each(&mut done);
    // `--profile` covers the three packet rows: the accuracy rows build
    // packet scenarios too, on a harness with nothing armed.
    accuracy_rows(&Harness::new(h.scale))
        .into_iter()
        .for_each(&mut done);
    json!({
        "schema": SCHEMA,
        "scale": if h.scale.quick { "quick" } else { "full" },
        "alloc_probe": h.alloc_counts().is_some(),
        "host_cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "rows": rows,
    })
}

/// Print a gate document: its rows, every column of them, one table per
/// run of rows with the same columns; then every gate of [`GATES`] with its
/// verdict and the value it read (or why it failed).
pub fn show(doc: &Value) {
    let rows = common::rows(doc, "rows");
    for same in rows.chunk_by(|a, b| common::paths(a) == common::paths(b)) {
        println!();
        common::print_table(same, &common::paths(&same[0]));
    }
    let probe = doc["alloc_probe"].as_bool().unwrap_or(false);
    let gates: Vec<Value> = GATES
        .iter()
        .map(|g| {
            let (verdict, got) = match g.eval(doc, probe) {
                Ok(Some(got)) => ("ok", got.clone()),
                Ok(None) => ("skip: no allocation probe", Value::Null),
                Err(why) => ("FAIL", json!(why)),
            };
            json!({"gate": g.to_string(), "verdict": verdict, "got": got})
        })
        .collect();
    println!();
    common::print_table(&gates, &["gate", "verdict", "got"]);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn rel_err_is_symmetric_around_truth() {
        assert!(rel_err(105.0, 100.0) - 0.05 < 1e-12);
        assert!(rel_err(95.0, 100.0) - 0.05 < 1e-12);
        assert_eq!(rel_err(100.0, 100.0), 0.0);
    }

    /// An engine row that passes every gate on it.
    fn engine_row(name: &str, allocs: Value) -> Value {
        json!({
            "name": name, "events_processed": 10u64, "warmup_events": 3u64,
            "warmup_allocations": 100u64, "peak_event_queue": 5u64,
            "allocations_per_event": allocs.clone(), "alloc_bytes_per_event": allocs,
        })
    }

    /// A packet-engine row that passes every gate on it.
    fn packet_fixture(name: &str, allocs: Value) -> Value {
        with(
            engine_row(name, allocs),
            json!({"arena_slots_reserved": 270_336u64, "arena_slots_peak": 1_500u64}),
        )
    }

    /// A document that passes every gate, its allocation columns `allocs`.
    pub(crate) fn clean(probe: bool, allocs: Value) -> Value {
        let sharded = |name: &str, shards: u64| {
            with(
                packet_fixture(name, allocs.clone()),
                json!({
                    "shards": shards, "remote_events": 900 * (shards - 1),
                    "shard_events": vec![5u64; shards as usize], "ports_held": 3072u64,
                }),
            )
        };
        json!({
            "schema": SCHEMA,
            "scale": "quick",
            "alloc_probe": probe,
            "host_cores": 2u64,
            "rows": [
                packet_fixture("incast-heavy", allocs.clone()),
                packet_fixture("websearch-load", allocs.clone()),
                packet_fixture("fault-plan", allocs.clone()),
                sharded("xl-clos-1024/1shard", 1),
                sharded("xl-clos-1024/2shard", 2),
                with(engine_row("xl-flows", allocs.clone()), json!({
                    "peak_event_queue": 40_000u64, "flows_total": 49_000u64,
                    "flows_completed": 49_000u64, "events_per_flow": 2.05,
                })),
                {"name": "accuracy/websearch-0.3", "flows": 9u64},
                {"name": "accuracy/incast-8to1", "flows": 48u64},
                {
                    "name": "accuracy", "max_p50_rel_err": 0.009,
                    "max_p99_rel_err": 0.001, "cost_avoidance": 33.4,
                },
            ],
        })
    }

    /// Column `column` of row `name` of `doc`.
    pub(crate) fn cell<'a>(doc: &'a mut Value, name: &str, column: &str) -> &'a mut Value {
        let Value::Object(doc) = doc else {
            panic!("document is an object")
        };
        let Some(Value::Array(rows)) = doc.get_mut("rows") else {
            panic!("rows is an array")
        };
        let row = rows
            .iter_mut()
            .find(|r| r["name"].as_str() == Some(name))
            .unwrap_or_else(|| panic!("fixture lacks row {name}"));
        let Value::Object(row) = row else {
            panic!("row is an object")
        };
        row.get_mut(column)
            .unwrap_or_else(|| panic!("fixture lacks {name}.{column}"))
    }

    #[test]
    fn clean_document_passes() {
        for doc in [
            clean(true, json!(0.0)),
            // No probe: the allocation columns are null and their gates skip.
            clean(false, Value::Null),
        ] {
            assert_eq!(check(&doc), Vec::<String>::new());
        }
    }

    #[test]
    fn each_violated_gate_is_reported_by_name() {
        for g in GATES {
            let mut doc = clean(true, json!(0.0));
            let bound = match g.bound {
                Bound::Num(n) => n,
                Bound::Col(c, plus) => number(cell(&mut doc, g.row, c)).unwrap() + plus,
            };
            let target = cell(&mut doc, g.row, g.column);
            *target = match (&*target, g.op) {
                (Value::Bool(_), _) => Value::Bool(false),
                (Value::Array(a), _) => Value::Array(a[1..].to_vec()),
                (_, Op::Eq | Op::Le) => json!(bound + 1.0),
                (_, Op::Ge) => json!(bound - 1.0),
                (_, Op::Gt) => json!(bound),
            };
            let failed = check(&doc);
            assert!(
                failed.iter().any(|f| f.starts_with(&format!("{g}: got "))),
                "{g} violated, reported {failed:?}"
            );
        }
    }

    #[test]
    fn structural_failures_are_reported() {
        let says = |doc: &Value, what: &str| {
            let failed = check(doc);
            assert!(
                failed.iter().any(|f| f.contains(what)),
                "{what:?} not in {failed:?}"
            );
        };
        // Probe registered but a column null: the wiring regressed.
        says(
            &clean(true, Value::Null),
            "websearch-load: allocations_per_event == 0: column missing",
        );
        says(
            &clean(true, Value::Null),
            "xl-flows: allocations_per_event == 0: column missing",
        );
        // An event that touches the heap.
        says(
            &clean(true, json!(0.25)),
            "fault-plan: allocations_per_event == 0: got 0.25",
        );
        // Another schema, and a document with no rows at all.
        let mut doc = clean(true, json!(0.0));
        if let Value::Object(d) = &mut doc {
            d.insert("schema".into(), json!("acc-bench-perf/v4"));
        }
        says(&doc, "schema is not acc-bench-gates/v1");
        let empty = json!({"schema": SCHEMA});
        says(&empty, "alloc_probe is not a bool");
        assert_eq!(check(&empty).len(), 1 + GATES.len(), "every row is missing");
        says(&empty, "accuracy: cost_avoidance >= 20: row missing");
        // A sharded row without the columns the lookahead engine adds.
        let mut doc = clean(true, json!(0.0));
        *cell(&mut doc, "xl-clos-1024/2shard", "remote_events") = Value::Null;
        says(
            &doc,
            "xl-clos-1024/2shard: remote_events > 0: column missing",
        );
        *cell(&mut doc, "xl-clos-1024/2shard", "shards") = Value::Null;
        says(
            &doc,
            "xl-clos-1024/2shard: shard_events == shards: column shards missing",
        );
    }
}
