//! `acc-bench perf` — the engine's performance trajectory.
//!
//! Runs an in-process microbench of the future-event queue (timing wheel
//! vs the reference `BinaryHeap`) plus representative end-to-end scenarios
//! (incast-heavy, websearch-load, fault-plan, and the 1024-host
//! `paper_xl_clos` fabric on the sharded engine at 1 and 4 shards), and
//! writes the numbers to
//! `BENCH_netsim.json`: events/sec, wall-clock, peak event-queue depth and
//! an allocations-per-event estimate. CI runs `perf --quick` and archives
//! the file as an artifact (no threshold gating on shared runners); numbers
//! across commits form the perf trajectory ROADMAP asks for.
//!
//! All scenarios use the static SECN1 policy: perf must not depend on a
//! cached RL model, and the control-plane cost of a static policy is the
//! same per tick.

use crate::common::{scenario, Policy, Scale, Scenario};
use netsim::event::{Event, EventQueue, HeapEventQueue};
use netsim::ids::NodeId;
use netsim::prelude::*;
use serde_json::{json, Value};
use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;
use transport::CcKind;
use workloads::gen::{incast_wave, PoissonGen};
use workloads::SizeDist;

/// Schema tag written into `BENCH_netsim.json`; bump on breaking changes.
/// v2: scenario rows split into a warmup window (one-time growth: arenas,
/// event-queue slots, flow tables reaching high-water capacity) and a
/// steady-state measured window; `events_per_sec` and the allocation
/// columns describe the measured window only.
/// v3: every scenario row carries a `shards` column, the document carries
/// `host_cores`, and two sharded rows run the 1024-host `paper_xl_clos`
/// fabric through the conservative-lookahead engine at 1 and 4 shards
/// (extra columns: `host_cores`, `stalls`, `remote_events`; the allocation
/// columns there cover the steady window read at quiescent phase barriers).
/// v4: every scenario row carries a `fidelity` column (`"packet"` for the
/// engine rows here), sharded rows carry a `note` when the requested shard
/// count exceeds `host_cores` (the 1-vs-N ratio is then bounded by the
/// hardware, not the engine), and the `xl-flows` family
/// ([`crate::perf_flow`]) writes flow-level rows (`flows_total`,
/// `flows_per_sec`, `fast_path_flows`) plus a packet-vs-hybrid `accuracy`
/// block under this same schema tag. Sharded rows also carry `wait_share`,
/// `worst_neighbour`, `shard_wait_s` and `shard_slices` beside `stalls`
/// (wait rounds); additive, so the tag stays.
pub const SCHEMA: &str = "acc-bench-perf/v4";

/// Fraction of the horizon burned as warmup before measurement starts (the
/// denominator: warmup runs to `horizon / WARMUP_DENOM`). Shared with the
/// flow-level rows of [`crate::perf_flow`].
pub(crate) const WARMUP_DENOM: u64 = 5;

/// Probe returning process-wide `(allocation count, allocated bytes)`.
///
/// The counting `#[global_allocator]` lives in the binary crate (this
/// library forbids `unsafe`); `main` registers its counters here. When no
/// probe is installed (e.g. library tests), allocation columns are `null`.
static ALLOC_PROBE: OnceLock<fn() -> (u64, u64)> = OnceLock::new();

/// Register the global allocator's counters. First caller wins.
pub fn set_alloc_probe(probe: fn() -> (u64, u64)) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Read the registered probe, if any (shared with [`crate::perf_rl`]).
pub(crate) fn alloc_counts() -> Option<(u64, u64)> {
    ALLOC_PROBE.get().map(|f| f())
}

/// Probe returning the high-water mark of live heap bytes — the soak run's
/// peak-RSS proxy. Registered by the binary alongside [`set_alloc_probe`].
static PEAK_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Register the live-heap high-water-mark counter. First caller wins.
pub fn set_peak_probe(probe: fn() -> u64) {
    let _ = PEAK_PROBE.set(probe);
}

/// Read the peak-live-bytes probe, if any (shared with [`crate::soak`]).
pub(crate) fn peak_live_bytes() -> Option<u64> {
    PEAK_PROBE.get().map(|f| f())
}

// ---------------------------------------------------------------------------
// Queue microbench: the classic hold pattern on an incast-like time profile.
// ---------------------------------------------------------------------------

/// Working depth of the queue during the hold benchmark (an incast run on
/// the quick fabric keeps a few thousand events in flight).
const HOLD_DEPTH: usize = 4096;

/// Deterministic xorshift so both queues replay the identical op stream.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Incast-like inter-event offset: mostly sub-microsecond serialization and
/// propagation gaps (in-wheel), a sliver of control-tick-distance timers
/// (overflow tier), and exact ties from simultaneous arrivals.
fn incast_offset(rng: &mut XorShift) -> u64 {
    match rng.next() % 16 {
        0..=9 => rng.next() % 700_000,
        10..=13 => rng.next() % 4_000_000,
        14 => 50_000_000,
        _ => 0,
    }
}

/// Run `ops` pop-one/push-one hold operations against queue `Q`, returning
/// ops/sec. `Q` is abstracted by the two closures so wheel and heap run the
/// byte-identical op stream.
fn hold_throughput<Q>(
    mut q: Q,
    push: fn(&mut Q, SimTime, Event),
    pop: fn(&mut Q) -> Option<netsim::event::Scheduled>,
    ops: u64,
) -> f64 {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut t = SimTime::ZERO;
    for i in 0..HOLD_DEPTH {
        t = SimTime::from_ps(t.as_ps() + incast_offset(&mut rng) / 16);
        push(
            &mut q,
            t,
            Event::HostTimer {
                host: NodeId(0),
                token: i as u64,
            },
        );
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..ops {
        let s = pop(&mut q).expect("queue stays at depth");
        acc ^= s.seq;
        let nt = SimTime::from_ps(s.time.as_ps() + incast_offset(&mut rng));
        push(
            &mut q,
            nt,
            Event::HostTimer {
                host: NodeId(0),
                token: i,
            },
        );
    }
    let wall = start.elapsed().as_secs_f64();
    // Defeat dead-code elimination without perturbing timing.
    assert!(acc < u64::MAX);
    ops as f64 / wall.max(1e-9)
}

/// Pairs every wall-clock ratio is measured over.
pub const RATIO_ROUNDS: usize = 5;

/// A ratio of two throughputs from `RATIO_ROUNDS` back-to-back pairs.
#[derive(Clone, Copy, Debug)]
pub struct PairedRatio {
    /// Median throughput of the first side.
    pub a: f64,
    /// Median throughput of the second side.
    pub b: f64,
    /// Median over the pairs of `a_i / b_i`.
    pub ratio: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Measure `a` against `b` (each returns one throughput sample) as
/// [`RATIO_ROUNDS`] pairs, the side that goes first alternating, and take
/// the median of the per-pair ratios. A shared host runs the same code
/// several times slower for seconds at a stretch; the two halves of a pair
/// run within one such stretch, so its ratio holds where a best-of-N of each
/// side taken separately compares a fast stretch with a slow one.
pub fn paired_ratio(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> PairedRatio {
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

/// Wheel-vs-heap push/pop throughput on the incast hold workload
/// ([`paired_ratio`]). Returns the JSON block recorded under
/// `queue_microbench`. Shared with [`crate::perf_flow`] so its document
/// validates under the same schema.
pub(crate) fn queue_microbench(scale: Scale) -> Value {
    let ops: u64 = if scale.quick { 200_000 } else { 2_000_000 };
    let PairedRatio {
        a: wheel,
        b: heap,
        ratio: speedup,
    } = paired_ratio(
        || hold_throughput(EventQueue::new(), EventQueue::push, EventQueue::pop, ops),
        || {
            hold_throughput(
                HeapEventQueue::new(),
                HeapEventQueue::push,
                HeapEventQueue::pop,
                ops,
            )
        },
    );
    println!(
        "{:<18} {:>14.0} ops/s (wheel) {:>14.0} ops/s (heap)  speedup {speedup:.2}x",
        "queue_hold_incast", wheel, heap
    );
    json!({
        "workload": "incast_hold",
        "depth": HOLD_DEPTH,
        "ops": ops,
        "wheel_ops_per_sec": wheel,
        "heap_ops_per_sec": heap,
        "speedup": speedup,
    })
}

// ---------------------------------------------------------------------------
// End-to-end scenarios.
// ---------------------------------------------------------------------------

/// Run a built scenario to `horizon` under the wall clock and the
/// allocation probe, returning its JSON row.
///
/// The first `1/WARMUP_DENOM` of the horizon is a warmup window: one-time
/// capacity growth (per-port queue arenas, event-queue slot vectors, flow
/// tables filling to their reserves) happens there and is reported
/// separately. `events_per_sec` and the allocation columns cover only the
/// steady-state remainder, which the zero-alloc gates assert over.
fn measure(name: &str, mut sc: Scenario, horizon: SimTime) -> Value {
    let warmup_until = SimTime::from_ps(horizon.as_ps() / WARMUP_DENOM);
    let warm_before = alloc_counts();
    let warm_start = Instant::now();
    sc.sim.run_until(warmup_until);
    let warmup_wall = warm_start.elapsed().as_secs_f64();
    let warmup_events = sc.sim.core().events_processed;
    let warmup_allocs = match (warm_before, alloc_counts()) {
        (Some((a0, _)), Some((a1, _))) => Some(a1 - a0),
        _ => None,
    };

    let before = alloc_counts();
    let start = Instant::now();
    sc.sim.run_until(horizon);
    let wall = start.elapsed().as_secs_f64();
    let after = alloc_counts();
    let core = sc.sim.core();
    let events = core.events_processed - warmup_events;
    let eps = events as f64 / wall.max(1e-9);
    let (allocs_per_event, bytes_per_event) = match (before, after) {
        (Some((a0, b0)), Some((a1, b1))) if events > 0 => (
            Some((a1 - a0) as f64 / events as f64),
            Some((b1 - b0) as f64 / events as f64),
        ),
        _ => (None, None),
    };
    println!(
        "{:<18} {:>10} events {:>7.2}s wall {:>12.0} ev/s  peak q {:>7}  allocs/ev {}",
        name,
        events,
        wall,
        eps,
        core.event_queue_peak(),
        allocs_per_event
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "n/a".into()),
    );
    json!({
        "name": name,
        "fidelity": "packet",
        "shards": 1,
        "events_processed": events,
        "wall_s": wall,
        "events_per_sec": eps,
        "warmup_events": warmup_events,
        "warmup_wall_s": warmup_wall,
        "warmup_allocations": warmup_allocs,
        "peak_event_queue": core.event_queue_peak(),
        "sim_time_us": sc.sim.now().as_us_f64(),
        "allocations_per_event": allocs_per_event,
        "alloc_bytes_per_event": bytes_per_event,
    })
}

/// The sharded flagship: WebSearch load on the 1024-host three-tier Clos
/// (`paper_xl_clos`), run through the conservative-lookahead engine.
///
/// The run is split into two phases at the warmup boundary. Between phases
/// every shard worker parks on a barrier and the coordinator reads the
/// process-wide allocation counter — a quiescent point, so the steady
/// window's allocation columns are exact even though shards run
/// concurrently. Steady-state events come from each shard's
/// `phase_events` deltas. `events_per_sec` is the *aggregate* rate over
/// all shards; `host_cores` records how much hardware parallelism the
/// machine actually had, so trajectory tooling can interpret the
/// 1-vs-4-shard ratio honestly (4 shards on 2 cores cannot reach 4x).
fn xl_clos_sharded(scale: Scale, n_shards: u32) -> Value {
    let spec = TopologySpec::paper_xl_clos();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let horizon = scale.pick(SimTime::from_ms(3), SimTime::from_us(600));
    let load = scale.pick(0.5, 0.3);
    let g = PoissonGen::new(SizeDist::web_search(), load, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);
    let warmup_until = SimTime::from_ps(horizon.as_ps() / WARMUP_DENOM);

    // Pre-sized: the first push happens *after* the warmup counter read,
    // so letting it allocate would charge the harness's own vector to the
    // steady-state window.
    let mut marks: Vec<(f64, Option<(u64, u64)>)> = Vec::with_capacity(2);
    let t0 = Instant::now();
    let report = crate::shard_run::run_scenario_sharded_phased(
        &spec,
        Policy::Secn1,
        scale,
        7,
        &arrivals,
        None,
        n_shards,
        &[warmup_until, horizon],
        |_| marks.push((t0.elapsed().as_secs_f64(), alloc_counts())),
    );

    let warmup_events: u64 = report.shard_stats.iter().map(|s| s.phase_events[0]).sum();
    let steady_events: u64 = report
        .shard_stats
        .iter()
        .map(|s| s.phase_events[1] - s.phase_events[0])
        .sum();
    let (warmup_wall, warmup_allocs) = (marks[0].0, marks[0].1);
    let steady_wall = marks[1].0 - marks[0].0;
    let eps = steady_events as f64 / steady_wall.max(1e-9);
    let (allocs_per_event, bytes_per_event) = match (marks[0].1, marks[1].1) {
        (Some((a0, b0)), Some((a1, b1))) if steady_events > 0 => (
            Some((a1 - a0) as f64 / steady_events as f64),
            Some((b1 - b0) as f64 / steady_events as f64),
        ),
        _ => (None, None),
    };
    let name = format!("xl-clos-1024/{n_shards}shard");
    // Oversubscribed shard workers time-slice the same cores; say so in the
    // row instead of letting the trajectory read a bounded ratio as a
    // regression.
    let cores = host_cores();
    let note = (u64::from(n_shards) > cores).then(|| {
        let n = format!(
            "{n_shards} shards on {cores} hardware threads: workers time-slice, \
             events_per_sec is bounded by the host, not the engine"
        );
        eprintln!("[perf] note: {n}");
        n
    });
    let worst = report.worst_neighbour();
    println!(
        "{:<18} {:>10} events {:>7.2}s wall {:>12.0} ev/s  peak q {:>7}  allocs/ev {}  stalls {}  wait {:.0}%{}",
        name,
        steady_events,
        steady_wall,
        eps,
        report.peak_event_queue,
        allocs_per_event
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "n/a".into()),
        report.stalls(),
        100.0 * report.wait_share(),
        worst
            .map(|(p, share)| format!(" ({:.0}% on shard {p})", 100.0 * share))
            .unwrap_or_default(),
    );
    json!({
        "name": name,
        "fidelity": "packet",
        "shards": n_shards,
        "host_cores": cores,
        "note": note,
        "events_processed": steady_events,
        "wall_s": steady_wall,
        "events_per_sec": eps,
        "warmup_events": warmup_events,
        "warmup_wall_s": warmup_wall,
        "warmup_allocations": warmup_allocs.map(|(a, _)| a),
        "peak_event_queue": report.peak_event_queue,
        "sim_time_us": horizon.as_us_f64(),
        "allocations_per_event": allocs_per_event,
        "alloc_bytes_per_event": bytes_per_event,
        "stalls": report.stalls(),
        "wait_share": report.wait_share(),
        "worst_neighbour": worst.map(|(p, _)| p),
        "remote_events": report.remote_events(),
        "shard_events": report.shard_stats.iter().map(|s| s.events_processed).collect::<Vec<_>>(),
        "shard_wall_s": report.shard_stats.iter().map(|s| s.wall_s).collect::<Vec<_>>(),
        "shard_wait_s": report.shard_stats.iter().map(|s| s.wait_s).collect::<Vec<_>>(),
        "shard_slices": report.shard_stats.iter().map(|s| s.slices).collect::<Vec<_>>(),
    })
}

/// Hardware threads available to this process (shared with
/// [`crate::perf_flow`]).
pub(crate) fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Incast-heavy: repeated N-to-1 waves through one switch — the queue-depth
/// worst case (bursts of simultaneous arrivals, deep PFC/ECN interaction).
fn incast_heavy(scale: Scale) -> Value {
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
    let sc = scenario(&spec, Policy::Secn1, scale, 7, &arrivals);
    let horizon = wave_gap.mul(waves as u64) + scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    measure("incast-heavy", sc, horizon)
}

/// Build the websearch-load scenario (WebSearch at load 0.8 on the fig12
/// fabric) and its run horizon. Shared with the observability smoke tests,
/// which re-run it with profiling on and off to bound profiler overhead.
pub fn websearch_scenario(scale: Scale) -> (Scenario, SimTime) {
    let spec = if scale.quick {
        TopologySpec::paper_cacc_sim()
    } else {
        TopologySpec::paper_large_sim()
    };
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let dur = scale.pick(SimTime::from_ms(10), SimTime::from_ms(3));
    let g = PoissonGen::new(SizeDist::web_search(), 0.8, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    let sc = scenario(&spec, Policy::Secn1, scale, 9, &arrivals);
    let horizon = dur + scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    (sc, horizon)
}

/// WebSearch at load 0.8 on the fig12 fabric: the bread-and-butter mix the
/// figure sweeps run all day.
fn websearch_load(scale: Scale) -> Value {
    let (sc, horizon) = websearch_scenario(scale);
    measure("websearch-load", sc, horizon)
}

/// The seeded fault schedule over moderate load: reroutes, reboots and
/// loss windows exercise the slow paths the other scenarios never touch.
fn fault_plan_load(scale: Scale) -> Value {
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let hosts: Vec<NodeId> = topo.hosts().to_vec();
    let horizon = scale.pick(SimTime::from_ms(30), SimTime::from_ms(10));
    let g = PoissonGen::new(SizeDist::web_search(), 0.5, CcKind::Dcqcn, 300);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);
    let mut sc = scenario(&spec, Policy::Secn1, scale, 21, &arrivals);
    let plan = crate::fault::fault_plan(&topo, horizon, 21);
    sc.sim
        .install_fault_plan(&plan)
        .expect("fault plan validates");
    let end = horizon + scale.pick(SimTime::from_ms(10), SimTime::from_ms(4));
    measure("fault-plan", sc, end)
}

/// Run the microbench + scenarios and write `BENCH_netsim.json` to `out`.
/// Returns the JSON document (also used by the smoke test).
pub fn run(scale: Scale, out: &Path) -> io::Result<Value> {
    crate::common::banner("perf", "netsim event-loop performance");
    crate::common::set_profile_context("perf");
    let micro = queue_microbench(scale);
    let scenarios = vec![
        incast_heavy(scale),
        websearch_load(scale),
        fault_plan_load(scale),
        xl_clos_sharded(scale, 1),
        xl_clos_sharded(scale, 4),
    ];
    let doc = json!({
        "schema": SCHEMA,
        "scale": if scale.quick { "quick" } else { "full" },
        "alloc_probe": alloc_counts().is_some(),
        "host_cores": host_cores(),
        "queue_microbench": micro,
        "scenarios": scenarios,
    });
    let text = serde_json::to_string_pretty(&doc)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(out, text)?;
    println!("wrote {}", out.display());
    Ok(doc)
}

/// Validate a `BENCH_netsim.json` document against the v2 schema: every
/// field the trajectory tooling reads must be present and well-typed.
/// Returns the list of problems (empty = valid).
pub fn validate(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            errs.push(what.to_string());
        }
    };
    need(
        doc.get("schema").and_then(Value::as_str) == Some(SCHEMA),
        "schema tag missing or wrong",
    );
    need(
        matches!(
            doc.get("scale").and_then(Value::as_str),
            Some("quick") | Some("full")
        ),
        "scale must be quick|full",
    );
    let probe = doc.get("alloc_probe").and_then(Value::as_bool);
    need(probe.is_some(), "alloc_probe must be a bool");
    let probe = probe.unwrap_or(false);
    need(
        doc.get("host_cores")
            .and_then(Value::as_u64)
            .is_some_and(|v| v >= 1),
        "host_cores missing or zero",
    );
    let micro = doc.get("queue_microbench");
    for k in ["wheel_ops_per_sec", "heap_ops_per_sec", "speedup"] {
        need(
            micro
                .and_then(|m| m.get(k))
                .and_then(Value::as_f64)
                .is_some_and(|v| v.is_finite() && v > 0.0),
            &format!("queue_microbench.{k} missing or non-positive"),
        );
    }
    match doc.get("scenarios").and_then(Value::as_array) {
        Some(rows) if !rows.is_empty() => {
            for row in rows {
                let name = row
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("<unnamed>");
                need(
                    row.get("events_processed")
                        .and_then(Value::as_u64)
                        .is_some_and(|v| v > 0),
                    &format!("scenario {name}: events_processed missing or zero"),
                );
                for k in ["wall_s", "events_per_sec", "sim_time_us"] {
                    need(
                        row.get(k)
                            .and_then(Value::as_f64)
                            .is_some_and(|v| v.is_finite() && v > 0.0),
                        &format!("scenario {name}: {k} missing or non-positive"),
                    );
                }
                need(
                    row.get("peak_event_queue")
                        .and_then(Value::as_u64)
                        .is_some_and(|v| v > 0),
                    &format!("scenario {name}: peak_event_queue missing or zero"),
                );
                need(
                    row.get("warmup_events")
                        .and_then(Value::as_u64)
                        .is_some_and(|v| v > 0),
                    &format!("scenario {name}: warmup_events missing or zero"),
                );
                need(
                    row.get("warmup_wall_s")
                        .and_then(Value::as_f64)
                        .is_some_and(|v| v.is_finite() && v >= 0.0),
                    &format!("scenario {name}: warmup_wall_s missing or negative"),
                );
                let shards = row.get("shards").and_then(Value::as_u64);
                need(
                    shards.is_some_and(|v| v >= 1),
                    &format!("scenario {name}: shards missing or zero"),
                );
                need(
                    matches!(
                        row.get("fidelity").and_then(Value::as_str),
                        Some("packet") | Some("hybrid") | Some("flow")
                    ),
                    &format!("scenario {name}: fidelity must be packet|hybrid|flow"),
                );
                // Sharded rows (run through the lookahead engine) must carry
                // the columns the ratio/gate tooling reads.
                if row.get("stalls").is_some() || shards.is_some_and(|v| v > 1) {
                    for k in ["stalls", "remote_events"] {
                        need(
                            row.get(k).and_then(Value::as_u64).is_some(),
                            &format!("scenario {name}: {k} missing on sharded row"),
                        );
                    }
                    need(
                        row.get("host_cores")
                            .and_then(Value::as_u64)
                            .is_some_and(|v| v >= 1),
                        &format!("scenario {name}: host_cores missing on sharded row"),
                    );
                }
                // With the allocator probe registered the allocation columns
                // must be real measurements — a null here means the probe
                // wiring regressed.
                if probe {
                    for k in ["allocations_per_event", "alloc_bytes_per_event"] {
                        need(
                            row.get(k)
                                .and_then(Value::as_f64)
                                .is_some_and(|v| v.is_finite() && v >= 0.0),
                            &format!("scenario {name}: {k} must be finite with alloc_probe on"),
                        );
                    }
                }
            }
        }
        _ => errs.push("scenarios missing or empty".into()),
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_wheel_beats_heap() {
        let doc = queue_microbench(Scale::QUICK);
        let speedup = doc["speedup"].as_f64().unwrap();
        assert!(
            speedup >= 1.3,
            "wheel must be >=1.3x the reference heap on the incast hold \
             workload, measured {speedup:.2}x"
        );
    }

    fn doc_alloc(schema: &str, events_per_sec: f64, probe: bool, alloc: Value) -> Value {
        json!({
            "schema": schema,
            "scale": "quick",
            "alloc_probe": probe,
            "host_cores": 2u64,
            "queue_microbench": {
                "wheel_ops_per_sec": 2.0e7, "heap_ops_per_sec": 1.0e7, "speedup": 2.0,
            },
            "scenarios": [{
                "name": "incast-heavy", "fidelity": "packet", "shards": 1u64,
                "events_processed": 10u64, "wall_s": 0.1,
                "events_per_sec": events_per_sec, "peak_event_queue": 5u64,
                "warmup_events": 3u64, "warmup_wall_s": 0.02,
                "warmup_allocations": 100u64,
                "sim_time_us": 8000.0,
                "allocations_per_event": alloc.clone(), "alloc_bytes_per_event": alloc,
            }, {
                "name": "xl-clos-1024/4shard", "fidelity": "packet",
                "shards": 4u64, "host_cores": 2u64,
                "events_processed": 10u64, "wall_s": 0.1,
                "events_per_sec": events_per_sec, "peak_event_queue": 5u64,
                "warmup_events": 3u64, "warmup_wall_s": 0.02,
                "warmup_allocations": 100u64,
                "sim_time_us": 8000.0,
                "stalls": 4u64, "remote_events": 900u64,
                "allocations_per_event": alloc.clone(), "alloc_bytes_per_event": alloc,
            }],
        })
    }

    fn doc(schema: &str, events_per_sec: f64) -> Value {
        doc_alloc(schema, events_per_sec, false, Value::Null)
    }

    #[test]
    fn validate_catches_missing_fields() {
        let good = doc(SCHEMA, 100.0);
        assert!(validate(&good).is_empty(), "{:?}", validate(&good));
        assert!(!validate(&doc(SCHEMA, 0.0)).is_empty());
        assert!(!validate(&doc("something-else", 100.0)).is_empty());
        assert!(!validate(&json!({"schema": SCHEMA})).is_empty());
    }

    /// A fixture document whose single scenario row is built from `row`.
    fn doc_with_row(row: Value) -> Value {
        json!({
            "schema": SCHEMA,
            "scale": "quick",
            "alloc_probe": false,
            "host_cores": 2u64,
            "queue_microbench": {
                "wheel_ops_per_sec": 2.0e7, "heap_ops_per_sec": 1.0e7, "speedup": 2.0,
            },
            "scenarios": [row],
        })
    }

    #[test]
    fn validate_requires_fidelity_column() {
        // Rows without a fidelity tag predate v4 and must fail.
        let d = doc_with_row(json!({
            "name": "incast-heavy", "shards": 1u64,
            "events_processed": 10u64, "wall_s": 0.1,
            "events_per_sec": 100.0, "peak_event_queue": 5u64,
            "warmup_events": 3u64, "warmup_wall_s": 0.02,
            "sim_time_us": 8000.0,
            "allocations_per_event": Value::Null, "alloc_bytes_per_event": Value::Null,
        }));
        assert!(!validate(&d).is_empty());
        // Unknown fidelity names must fail too.
        let d = doc_with_row(json!({
            "name": "incast-heavy", "fidelity": "analog", "shards": 1u64,
            "events_processed": 10u64, "wall_s": 0.1,
            "events_per_sec": 100.0, "peak_event_queue": 5u64,
            "warmup_events": 3u64, "warmup_wall_s": 0.02,
            "sim_time_us": 8000.0,
            "allocations_per_event": Value::Null, "alloc_bytes_per_event": Value::Null,
        }));
        assert!(!validate(&d).is_empty());
    }

    #[test]
    fn validate_requires_sharded_columns() {
        // A multi-shard row without the lookahead columns must fail.
        let d = doc_with_row(json!({
            "name": "xl-clos-1024/4shard", "fidelity": "packet", "shards": 4u64,
            "events_processed": 10u64, "wall_s": 0.1,
            "events_per_sec": 100.0, "peak_event_queue": 5u64,
            "warmup_events": 3u64, "warmup_wall_s": 0.02,
            "sim_time_us": 8000.0,
            "allocations_per_event": Value::Null, "alloc_bytes_per_event": Value::Null,
        }));
        assert!(!validate(&d).is_empty());
        // Rows without a shards column predate v3 and must fail too.
        let d = doc_with_row(json!({
            "name": "incast-heavy",
            "events_processed": 10u64, "wall_s": 0.1,
            "events_per_sec": 100.0, "peak_event_queue": 5u64,
            "warmup_events": 3u64, "warmup_wall_s": 0.02,
            "sim_time_us": 8000.0,
            "allocations_per_event": Value::Null, "alloc_bytes_per_event": Value::Null,
        }));
        assert!(!validate(&d).is_empty());
    }

    #[test]
    fn validate_requires_alloc_numbers_when_probed() {
        // Probe registered but columns null: the wiring regressed.
        assert!(!validate(&doc_alloc(SCHEMA, 100.0, true, Value::Null)).is_empty());
        // Real measurements pass; garbage does not.
        assert!(validate(&doc_alloc(SCHEMA, 100.0, true, json!(0.25))).is_empty());
        assert!(!validate(&doc_alloc(SCHEMA, 100.0, true, json!(-1.0))).is_empty());
    }
}
