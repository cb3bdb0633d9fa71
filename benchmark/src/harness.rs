//! Trials, measurement and output checks.
//!
//! End-to-end numbers come from untraced trials only (median over the
//! trials that fit in the run length, at least three). Per-layer numbers
//! come from one extra traced trial plus the layer kit. Everything is
//! measured from outside the program: wall clock around adapter calls, the
//! benchmark's own counting allocator, and counts read through getters.
//!
//! The workloads are closed systems: a fixed arrival list is generated from
//! the seed before the first event, and the program sees only that list.
#![forbid(unsafe_code)]

use crate::alloc_count;
use crate::api::{self, KitOp, TrialCfg, TrialOut};
use crate::catalog::{Workload, END_TO_END, PER_LAYER};
use crate::refkernel;
use crate::stats::{fct_digest, median, per, tail_percentile, FlowRec, Tail};
use crate::trace::{span_seconds, Mark, Probe, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest untraced trials behind an end-to-end median.
pub const MIN_TRIALS: usize = 3;
/// Fewest set-ups behind `setup_s` (extra set-up-only passes top it up).
pub const MIN_SETUPS: usize = 5;
/// Timed repetitions behind each kit metric.
const KIT_REPS: usize = 5;
/// Flows up to this size are mice (the paper's headline class).
const MICE_BYTES: u64 = 100_000;
/// Host line rate of every fabric the benchmark uses.
const HOST_GBPS: f64 = 25.0;
const BASE_LATENCY_US: f64 = 3.0;

/// Scratch space inside the build directory (so inside the checkout),
/// removed when the benchmark ends, however it ends.
pub struct TempDir {
    root: PathBuf,
    next: usize,
}

impl TempDir {
    pub fn new() -> TempDir {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let root = exe
            .parent()
            .expect("an executable lives in a directory")
            .join(format!("acc-benchmark-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root).expect("the build directory is writable");
        TempDir { root, next: 0 }
    }

    /// A path under the scratch root that does not exist yet.
    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("d{}", self.next))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    /// How long the untraced trials measure for.
    pub seconds: f64,
}

pub fn host_cores() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Shards `xl-clos-sharded` runs on: two, or one on a single-core host.
pub fn shard_count() -> u32 {
    host_cores().min(2)
}

/// One measured trial. Durations are in reference-host seconds (see
/// [`crate::refkernel`]): wall-clock seconds divided by `speed`.
struct Trial {
    out: TrialOut,
    start: Mark,
    end: Mark,
    /// Host-speed factor over this trial: 1 on the quiet sizing host,
    /// above 1 while the host is slower.
    speed: f64,
    peak_heap_bytes: u64,
    spans: Vec<Span>,
}

impl Trial {
    fn setup_s(&self) -> f64 {
        self.out.setup_done.since(&self.start) / self.speed
    }
    fn run_s(&self) -> f64 {
        self.out.run_done.since(&self.out.setup_done) / self.speed
    }
    fn wall_s(&self) -> f64 {
        self.end.since(&self.start) / self.speed
    }
    fn span_s(&self, name: &str) -> f64 {
        span_seconds(&self.spans, name) / self.speed
    }
}

struct Runner<'a> {
    cfg: &'a RunCfg,
    tmp: &'a mut TempDir,
    origin: Instant,
    trials_run: usize,
    /// The reference-kernel time taken after the previous trial, which is
    /// also the "before" of the next one when the thread count matches.
    last_ref: Option<(u32, f64)>,
}

impl<'a> Runner<'a> {
    fn new(cfg: &'a RunCfg, tmp: &'a mut TempDir) -> Runner<'a> {
        Runner {
            cfg,
            tmp,
            origin: Instant::now(),
            trials_run: 0,
            last_ref: None,
        }
    }

    /// The reference kernel's time on `threads` threads, reusing the
    /// measurement that closed the previous trial.
    fn reference(&mut self, threads: u32) -> f64 {
        match self.last_ref.take() {
            Some((t, secs)) if t == threads => secs,
            _ => refkernel::measure(threads),
        }
    }

    fn trial(&mut self, traced: bool, setup_only: bool, shards: u32) -> Trial {
        let threads = api::threads(self.cfg.workload, shards);
        assert!(
            threads <= host_cores(),
            "never more threads than the host offers"
        );
        let dir = self.tmp.fresh();
        let cfg = TrialCfg {
            workload: self.cfg.workload,
            seed: self.cfg.seed,
            traced,
            setup_only,
            shards,
            record_dir: &dir,
        };
        let probe = Probe::new(traced, self.trials_run, self.origin);
        self.trials_run += 1;
        let ref_before = self.reference(threads);
        alloc_count::reset_peak();
        let start = Mark::now();
        let out = api::run_trial(&cfg, &probe);
        let end = Mark::now();
        let peak_heap_bytes = alloc_count::peak_bytes();
        let ref_after = refkernel::measure(threads);
        self.last_ref = Some((threads, ref_after));
        let _ = std::fs::remove_dir_all(&dir);
        Trial {
            out,
            start,
            end,
            speed: (ref_before + ref_after) / 2.0 / refkernel::NOMINAL_S,
            peak_heap_bytes,
            spans: probe.into_spans(),
        }
    }
}

/// Simulated results of one trial: exact for a fixed seed.
struct SimResults {
    offered: usize,
    completed: usize,
    fct_p50_us: f64,
    fct_p99: Tail,
    mice_fct_p99: Tail,
    /// Unfinished flows the fault plan accounts for.
    stranded: usize,
    /// Payload of completed flows over the simulated horizon.
    goodput_gbps: f64,
    /// Geometric mean over completed flows of FCT / ideal FCT.
    slowdown_geomean: f64,
    /// Payload bits of completed flows over the sum of their FCTs: the
    /// byte-weighted mean rate a flow got.
    flow_goodput_gbps: f64,
    last_finish_us: f64,
}

impl SimResults {
    /// The failed operations: flows offered but not complete at the horizon
    /// that no injected fault accounts for. On a fabric without a fault plan
    /// that is every unfinished flow.
    fn failed(&self) -> usize {
        self.offered - self.completed - self.stranded
    }
}

/// Unfinished flows that are the fault plan's doing, not the program's.
/// The modelled RoCE transport does not retransmit, so a flow that loses a
/// packet to a flap, the loss window or the reboot never completes: that is
/// the model's answer, and `flows_finished_frac` bounds how many there are.
/// Only a flow that started while the plan could still drop a packet can be
/// one, and each lost at least one of the packets the plan dropped.
fn stranded_by_faults(out: &TrialOut) -> usize {
    let Some(until) = out.lossy_until_ps else {
        return 0;
    };
    let exposed = out
        .flows
        .iter()
        .filter(|f| f.end_ps.is_none() && f.start_ps <= until)
        .count();
    let dropped = out.counts.get("fault.drops").copied().unwrap_or(0.0);
    exposed.min(dropped as usize)
}

fn fcts_us(flows: &[FlowRec], keep: impl Fn(&FlowRec) -> bool) -> Vec<f64> {
    let mut v: Vec<f64> = flows
        .iter()
        .filter(|f| keep(f))
        .filter_map(|f| Some((f.end_ps? - f.start_ps) as f64 / 1e6))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// FCT of `bytes` alone on a host link of every benchmark fabric: its
/// payload at line rate plus a few hops of propagation and serialization.
/// A yardstick for the slowdown, not a claim about the fabric.
fn ideal_fct_us(bytes: u64) -> f64 {
    bytes as f64 * 8.0 / (HOST_GBPS * 1e3) + BASE_LATENCY_US
}

fn sim_results(out: &TrialOut) -> SimResults {
    let done: Vec<(u64, f64)> = out
        .flows
        .iter()
        .filter_map(|f| Some((f.bytes, (f.end_ps? - f.start_ps) as f64 / 1e6)))
        .collect();
    let all = fcts_us(&out.flows, |_| true);
    let mice = fcts_us(&out.flows, |f| f.bytes <= MICE_BYTES);
    let bits: f64 = done.iter().map(|&(b, _)| b as f64 * 8.0).sum();
    let fct_sum_us: f64 = done.iter().map(|&(_, fct)| fct).sum();
    let log_slowdown: f64 = done
        .iter()
        .map(|&(b, fct)| (fct / ideal_fct_us(b)).ln())
        .sum();
    let n = done.len().max(1) as f64;
    let last_finish_ps = out.flows.iter().filter_map(|f| f.end_ps).max();
    SimResults {
        offered: out.offered,
        completed: done.len(),
        stranded: stranded_by_faults(out),
        fct_p50_us: tail_percentile(&all, 50.0).value,
        fct_p99: tail_percentile(&all, 99.0),
        mice_fct_p99: tail_percentile(&mice, 99.0),
        goodput_gbps: bits / (out.horizon_us * 1e3),
        slowdown_geomean: (log_slowdown / n).exp(),
        flow_goodput_gbps: bits / (fct_sum_us.max(1e-9) * 1e3),
        last_finish_us: last_finish_ps.unwrap_or(0) as f64 / 1e6,
    }
}

/// Checks every trial must pass on its own.
fn check_trial(t: &TrialOut, sim: &SimResults, failures: &mut Vec<String>) {
    if t.flows.len() > t.offered {
        failures.push(format!(
            "{} flows on record, only {} offered",
            t.flows.len(),
            t.offered
        ));
    }
    let total: u64 = t.flows.iter().map(|f| f.bytes).sum();
    if t.flows.len() == t.offered && total != t.offered_bytes {
        failures.push(format!(
            "flows on record carry {total} B, arrivals {} B",
            t.offered_bytes
        ));
    }
    if sim.completed == 0 {
        failures.push("no flow completed".into());
    }
    if let Some(rec) = t.recorded {
        if rec.iter().sum::<u64>() == 0 {
            failures.push("the recorder wrote no sample".into());
        }
    }
}

/// One summarised end-to-end metric.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Per-trial values, in trial order.
    pub values: Vec<f64>,
}

impl Summary {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }
}

pub struct Untraced {
    pub metrics: BTreeMap<&'static str, Summary>,
    pub digest: u64,
    /// Flows offered, and flows that failed, over all trials.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Samples recorded per trial, when the workload records.
    pub recorded: Option<[u64; 3]>,
    /// Host-speed factor of every trial, set-up-only passes included, in
    /// trial order: the first `wall_s.values.len()` belong to the full
    /// trials, all of them to `setup_s`. Raw seconds = value x factor.
    pub speed: Vec<f64>,
    /// Median seconds of the run phase, for the traced pass's rates.
    pub run_s: f64,
    /// Events and `(allocations, bytes)` of the first trial's run phase.
    pub events: f64,
    pub run_allocs: (u64, u64),
}

/// The untraced trials of one workload: as many as fit in `seconds`, at
/// least [`MIN_TRIALS`], then set-up-only passes up to [`MIN_SETUPS`].
pub fn run_untraced(cfg: &RunCfg, tmp: &mut TempDir) -> Untraced {
    let shards = shard_count();
    let mut r = Runner::new(cfg, tmp);
    let mut failures = Vec::new();
    let mut cols: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut setups, mut runs, mut speed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Digest and recorded sample counts of the first trial, which the
    // later ones must repeat, and its events and run-phase allocations.
    let mut first: Option<(u64, Option<[u64; 3]>)> = None;
    let (mut events, mut run_allocs) = (0.0, (0, 0));
    let began = Instant::now();
    while setups.len() < MIN_TRIALS || began.elapsed().as_secs_f64() < cfg.seconds {
        let t = r.trial(false, false, shards);
        let sim = sim_results(&t.out);
        check_trial(&t.out, &sim, &mut failures);
        let digest = fct_digest(&t.out.flows);
        match first {
            None => {
                first = Some((digest, t.out.recorded));
                events = t.out.counts["sim.events"];
                let (s, e) = (&t.out.setup_done, &t.out.run_done);
                run_allocs = (e.allocs - s.allocs, e.alloc_bytes - s.alloc_bytes);
            }
            Some((d, rec)) => {
                if d != digest {
                    failures.push(format!(
                        "trial {} digest {digest:016x} differs from the first, {d:016x}",
                        setups.len() + 1
                    ));
                }
                if rec != t.out.recorded {
                    failures.push("recorded sample counts differ between trials".into());
                }
            }
        }
        attempted += sim.offered as u64;
        failed += sim.failed() as u64;
        setups.push(t.setup_s());
        runs.push(t.run_s());
        speed.push(t.speed);
        let wall = t.wall_s();
        eprintln!(
            "[trial] {} seed {}: {:.3} s wall at host speed factor {:.2}, {}/{} flows ({} stranded by faults), last at {:.0} of {:.0} us",
            cfg.workload.name(),
            cfg.seed,
            wall * t.speed,
            t.speed,
            sim.completed,
            sim.offered,
            sim.stranded,
            sim.last_finish_us,
            t.out.horizon_us
        );
        let mut put = |name, v: f64| cols.entry(name).or_default().push(v);
        put("wall_s", wall);
        put("sim_us_per_wall_s", t.out.horizon_us / t.run_s());
        put("peak_heap_mb", t.peak_heap_bytes as f64 / 1e6);
        put("goodput_gbps", sim.goodput_gbps);
        put("flow_goodput_gbps", sim.flow_goodput_gbps);
        put(
            "flows_finished_frac",
            sim.completed as f64 / sim.offered as f64,
        );
    }
    while setups.len() < MIN_SETUPS {
        let t = r.trial(false, true, shards);
        setups.push(t.setup_s());
        speed.push(t.speed);
    }
    cols.insert("setup_s", setups);
    let metrics: BTreeMap<_, _> = cols
        .into_iter()
        .map(|(k, values)| (k, Summary { values }))
        .collect();
    for m in END_TO_END {
        match metrics.get(m.name) {
            None => failures.push(format!("{} was not measured", m.name)),
            Some(s) if !(s.median().is_finite() && s.median() > 0.0) => {
                failures.push(format!("{} = {}", m.name, s.median()))
            }
            Some(_) => {}
        }
    }
    let (digest, recorded) = first.expect("at least one trial ran");
    Untraced {
        metrics,
        digest,
        attempted,
        failed,
        failures,
        recorded,
        speed,
        run_s: median(&runs),
        events,
        run_allocs,
    }
}

pub struct Traced {
    /// Every per-layer metric of the catalogue (0 where a layer is idle).
    pub metrics: BTreeMap<&'static str, f64>,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

/// Median wall-clock seconds per operation of a kit op over [`KIT_REPS`]
/// timed batches, after one warm-up batch.
fn time_kit(op: &mut KitOp) -> f64 {
    (op.run)();
    let per_op: Vec<f64> = (0..KIT_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let ops = (op.run)();
            t0.elapsed().as_secs_f64() / ops.max(1) as f64
        })
        .collect();
    median(&per_op)
}

/// Relative error of `measured` against `reference`.
fn rel_err(measured: f64, reference: f64) -> f64 {
    ((measured - reference) / reference.max(1e-9)).abs()
}

const PHASE_SPANS: [&str; 9] = [
    "workloads.generate_s",
    "netsim.topology_build_s",
    "netsim.sim_new_s",
    "transport.install_s",
    "acc-core.install_s",
    "workloads.apply_s",
    "netsim.run_s",
    "transport.collect_s",
    "telemetry.flush_s",
];

/// The traced pass of one workload: the traced trial, read against the
/// untraced trials `u` of the same seed, the workload's reference runs and
/// the layer kit.
pub fn run_traced(cfg: &RunCfg, tmp: &mut TempDir, u: &Untraced) -> Traced {
    let shards = shard_count();
    let w = cfg.workload;
    let kit_dir = tmp.fresh();
    let mut r = Runner::new(cfg, tmp);
    let mut failures = Vec::new();
    let traced = r.trial(true, false, shards);
    let sim = sim_results(&traced.out);
    check_trial(&traced.out, &sim, &mut failures);
    let digest = fct_digest(&traced.out.flows);
    if digest != u.digest {
        failures.push(format!(
            "traced digest {digest:016x} differs from untraced {:016x}: \
             the shims or the mirrored install are not transparent",
            u.digest
        ));
    }
    if traced.out.recorded != u.recorded {
        failures.push("traced and untraced trials recorded different sample counts".into());
    }

    let wall_s = u.metrics["wall_s"].median();
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let counts = &traced.out.counts;
    for (name, v) in counts {
        m.insert(name, *v);
    }
    for name in PHASE_SPANS {
        m.insert(name, traced.span_s(name));
    }
    m.insert(
        "harness.trace_overhead_frac",
        traced.wall_s() / wall_s - 1.0,
    );
    m.insert("harness.host_speed_factor", traced.speed);

    // Boundary shims. Busy times are in reference-host seconds like the
    // spans they are subtracted from.
    let b = traced.out.busy;
    let busy_s = |ns: u64| ns as f64 / 1e9 / traced.speed;
    let (transport_s, control_s, sink_s) = (
        busy_s(b.transport_ns),
        busy_s(b.control_ns),
        busy_s(b.sink_ns),
    );
    let events = counts["sim.events"];
    m.insert("transport.busy_s", transport_s);
    m.insert("transport.calls", b.transport_calls as f64);
    m.insert(
        "transport.ns_per_call",
        per(transport_s * 1e9, b.transport_calls as f64),
    );
    m.insert("acc-core.tick_busy_s", control_s);
    m.insert("acc-core.ticks", b.control_ticks as f64);
    m.insert(
        "acc-core.us_per_tick",
        per(control_s * 1e6, b.control_ticks as f64),
    );
    m.insert("telemetry.sink_busy_s", sink_s);
    m.insert("telemetry.samples", b.sink_samples as f64);
    if !matches!(w, Workload::XlClosSharded | Workload::XlFlowsHybrid) {
        // One thread: what the shims did not see is the engine itself
        // (event queue, queues/buffer/PFC, routing, the sampler hook).
        let core_self = m["netsim.run_s"] - transport_s - control_s - sink_s;
        m.insert("netsim.core_self_s", core_self);
        m.insert("netsim.core_ns_per_event", per(core_self * 1e9, events));
    }

    // Run-phase rates come from the untraced trials: the events are the
    // same, and their clock is free of shim overhead.
    m.insert("sim.events_per_sec", per(events, u.run_s));
    m.insert("sim.events_per_flow", per(events, sim.offered as f64));
    m.insert("sim.allocs_per_event", per(u.run_allocs.0 as f64, events));
    m.insert(
        "sim.alloc_bytes_per_event",
        per(u.run_allocs.1 as f64, events),
    );

    // Simulated results: exact for the seed.
    m.insert("sim.flows_per_wall_s", sim.completed as f64 / wall_s);
    m.insert("sim.fct_slowdown_geomean", sim.slowdown_geomean);
    m.insert("sim.fct_p50_us", sim.fct_p50_us);
    m.insert("sim.fct_p99_us", sim.fct_p99.value);
    m.insert("sim.fct_tail_percentile", sim.fct_p99.percentile);
    m.insert("sim.mice_fct_p99_us", sim.mice_fct_p99.value);
    m.insert("sim.mice_fct_tail_percentile", sim.mice_fct_p99.percentile);
    m.insert("sim.flows_offered", sim.offered as f64);
    m.insert("sim.flows_unfinished", (sim.offered - sim.completed) as f64);
    m.insert("sim.last_finish_us", sim.last_finish_us);

    if w == Workload::XlClosSharded {
        // The same arrivals at one shard: the reference the sharded engine
        // must reproduce, and the base of its speed-up.
        let single = r.trial(false, false, 1);
        let d1 = fct_digest(&single.out.flows);
        if d1 != u.digest {
            failures.push(format!(
                "{shards}-shard digest {:016x} differs from 1-shard {d1:016x}",
                u.digest
            ));
        }
        m.insert("shard.speedup_vs_1", single.wall_s() / wall_s);
        m.insert(
            "shard.extra_events_vs_1",
            u.events - single.out.counts["sim.events"],
        );
    }
    if w == Workload::XlFlowsHybrid {
        let (packet, fluid) = api::fluid_cross_validation(cfg.seed);
        if packet.len() != fluid.len() || packet.iter().any(|f| f.end_ps.is_none()) {
            failures.push(format!(
                "cross-validation: packet engine finished {} flows, fluid {}",
                packet.iter().filter(|f| f.end_ps.is_some()).count(),
                fluid.len()
            ));
        }
        let (p, f) = (fcts_us(&packet, |_| true), fcts_us(&fluid, |_| true));
        for (name, pct) in [
            ("flowsim.fct_p50_rel_err", 50.0),
            ("flowsim.fct_p99_rel_err", 99.0),
        ] {
            let err = rel_err(
                tail_percentile(&f, pct).value,
                tail_percentile(&p, pct).value,
            );
            m.insert(name, err);
        }
    }

    // The kit is bracketed by the reference kernel like a trial.
    let kit_before = r.reference(1);
    let depth = counts["sim.peak_event_queue"] as usize;
    let timed: Vec<(KitOp, f64)> = api::kit(w, cfg.seed, depth, &kit_dir)
        .into_iter()
        .map(|mut op| {
            let secs_per_op = time_kit(&mut op);
            (op, secs_per_op)
        })
        .collect();
    let kit_speed = (kit_before + refkernel::measure(1)) / 2.0 / refkernel::NOMINAL_S;
    for (op, secs_per_op) in timed {
        let secs_per_op = secs_per_op / kit_speed;
        let value = match op.scale {
            Some(scale) => secs_per_op * scale,
            None => 1.0 / secs_per_op,
        };
        m.insert(op.metric, value);
    }
    let _ = std::fs::remove_dir_all(&kit_dir);

    for d in PER_LAYER {
        if !m[d.name].is_finite() {
            failures.push(format!("{} = {}", d.name, m[d.name]));
        }
    }
    Traced {
        metrics: m,
        digest,
        attempted: sim.offered as u64,
        failed: sim.failed() as u64,
        failures,
        spans: traced.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An unfinished flow is a failed operation unless the fault plan could
    /// have taken one of its packets: it started while the plan could still
    /// drop, and the plan dropped at least as many packets as it excuses.
    #[test]
    fn only_flows_the_fault_plan_could_hit_are_excused() {
        let flow = |id, start_ps, end_ps| FlowRec {
            id,
            bytes: 10_000,
            start_ps,
            end_ps,
        };
        let now = Mark::now();
        let trial = |lossy_until_ps, fault_drops| TrialOut {
            setup_done: now,
            run_done: now,
            offered: 5,
            offered_bytes: 50_000,
            flows: vec![
                flow(1, 0, Some(5_000_000)),
                flow(2, 10, None),
                flow(3, 20, None),
                flow(4, 90, None),
            ],
            horizon_us: 100.0,
            counts: BTreeMap::from([("fault.drops", fault_drops)]),
            busy: api::Busy::default(),
            recorded: None,
            lossy_until_ps,
        };
        let failed = |out: &TrialOut| sim_results(out).failed();
        // No fault plan: every unfinished flow fails, and so does the flow
        // the collector lost track of.
        assert_eq!(failed(&trial(None, 500.0)), 4);
        // Flows 2 and 3 started while the plan could drop; flow 4 did not.
        assert_eq!(failed(&trial(Some(50), 500.0)), 2);
        // One dropped packet strands at most one flow.
        assert_eq!(failed(&trial(Some(50), 1.0)), 3);
        assert_eq!(failed(&trial(Some(50), 0.0)), 4);
    }
}
