//! Sharded scenario execution: the bench-harness driver over
//! [`netsim::shard::run_sharded_phased`].
//!
//! A sharded run builds one restricted [`Simulator`] per shard on its own
//! worker thread — full topology, stacks/controllers/samplers on **owned**
//! nodes only (the simulator's installers silently skip foreign nodes) —
//! runs them under the conservative-lookahead protocol, then merges the
//! per-shard outputs deterministically:
//!
//! * **FCT records** via [`transport::merge_shard_fct`] — cross-shard flows
//!   contribute a sender half and a receiver half that are joined by flow
//!   id, so merged statistics are byte-identical for any shard count.
//! * **Telemetry** via [`telemetry::merge_shards`] — per-shard in-memory
//!   sinks are replayed in canonical order into the same JSONL layout the
//!   unsharded recorder writes, under a run directory claimed through the
//!   same harness (`Harness::claim_run`). Byte-identity of the merged
//!   `queues.jsonl` / `agents.jsonl` / `events.jsonl` across `--shards
//!   1/2/4/8` is the observable determinism contract (`manifest.json`
//!   carries wall-clock fields and is excluded from diffs).
//!
//! Every policy of [`common::install_policy`] runs here: on a sharded
//! simulator the ACC installers keep each switch's replay private, which
//! makes its behaviour a function of the switch alone. Closed-loop app hooks
//! and `--profile` are not supported (the profiler and its book assume one
//! simulator per run).

use crate::common::{self, EngineTotals, Harness, Policy};
use acc_core::guard::GuardStats;
use netsim::prelude::*;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use telemetry::{merge_shards, JsonlSink, RunRecorder, SharedRecorder, TelemetrySink, VecSink};
use transport::{merge_shard_fct, FctCollector, FlowRecord, SharedFct, StackConfig};
use workloads::gen::{self, Arrival};

/// Shard-local state threaded from the build hook to the finish hook (same
/// worker thread; holds `Rc`s, never crosses threads).
struct ShardLocal {
    fct: SharedFct,
    telem: Option<(SharedRecorder, Rc<RefCell<VecSink>>)>,
}

/// What each shard sends back to the coordinator (plain data, `Send`).
struct ShardOut {
    records: Vec<FlowRecord>,
    sink: Option<VecSink>,
    engine: EngineTotals,
    fault_drops: u64,
    invalid_final_configs: usize,
    guard: Option<GuardStats>,
}

/// The merged outcome of one sharded run.
pub struct ShardedReport {
    /// Merged FCT collector — statistics identical to any shard count.
    pub fct: FctCollector,
    /// Per-shard execution counters, in shard order.
    pub shard_stats: Vec<ShardStats>,
    /// Events processed, summed over shards. Replicated shard-local ticks
    /// (control, sampling, faults) are counted once per shard, so this
    /// exceeds the equivalent unsharded count — it measures engine work
    /// done, not unique simulated happenings.
    pub events_processed: u64,
    /// Wall-clock seconds for the whole sharded run (build to merge).
    pub wall_s: f64,
    /// The recorded run directory, when metrics were armed and claimed.
    pub metrics_dir: Option<PathBuf>,
    /// Packets lost to injected faults, summed over shards (each drop
    /// happens in the owning shard exactly once).
    pub fault_drops: u64,
    /// Tuned queues ending the run with an invalid ECN config, counted on
    /// owned switches per shard and summed (see
    /// `fault::invalid_final_configs`).
    pub invalid_final_configs: usize,
    /// Deepest future-event queue over all shards.
    pub peak_event_queue: u64,
    /// Packet-slab slots the shards reserved at build, and the most each
    /// held queued at once, both summed over shards.
    pub arena_slots_reserved: u64,
    pub arena_slots_peak: u64,
    /// Guard counters summed over every switch of every shard (each switch
    /// is guarded in the one shard that owns it); `None` for unguarded
    /// policies.
    pub guard: Option<GuardStats>,
}

impl ShardedReport {
    /// Cross-shard events sent (== received, asserted by the engine tests).
    pub fn remote_events(&self) -> u64 {
        self.shard_stats.iter().map(|s| s.remote_sent).sum()
    }
}

/// Run `spec` + `policy` + `arrivals` (+ optional fault plan) on `n_shards`
/// shards until `horizon`. See [`run_scenario_sharded_phased`] for the
/// phased variant the perf gates use.
pub fn run_scenario_sharded(
    h: &Harness,
    spec: &TopologySpec,
    policy: Policy,
    seed: u64,
    arrivals: &[Arrival],
    fault_plan: Option<&FaultPlan>,
    n_shards: u32,
    horizon: SimTime,
) -> ShardedReport {
    run_scenario_sharded_phased(
        h,
        spec,
        policy,
        seed,
        arrivals,
        fault_plan,
        n_shards,
        &[horizon],
        |_| {},
    )
}

/// [`run_scenario_sharded`] with barrier-separated phases: after every
/// shard reaches `phase_ends[i]`, the workers park and `between(i)` runs on
/// the calling thread — the perf harness reads the global allocation
/// counter there, while no shard is mid-flight.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_sharded_phased(
    h: &Harness,
    spec: &TopologySpec,
    policy: Policy,
    seed: u64,
    arrivals: &[Arrival],
    fault_plan: Option<&FaultPlan>,
    n_shards: u32,
    phase_ends: &[SimTime],
    between: impl FnMut(usize),
) -> ShardedReport {
    let topo = spec.build();
    let plan = ShardPlan::build(&topo, n_shards);
    let claimed = h.claim_run(policy.name(), seed);
    let interval = claimed.as_ref().map(|c| c.interval);
    let horizon = *phase_ends.last().expect("need at least one phase");

    let simcfg = common::sim_config(seed);
    let scale = h.scale;

    let started = std::time::Instant::now();
    let topo_ref = &topo;
    let plan_ref = &plan;
    let results = run_sharded_phased(
        plan_ref,
        phase_ends,
        |shard| {
            let mut sim = Simulator::new_sharded(topo_ref.clone(), simcfg.clone(), plan_ref, shard);
            let fct = FctCollector::new_shared();
            transport::install_stacks(&mut sim, StackConfig::default(), &fct);
            common::install_policy(&mut sim, policy, scale);
            fct.borrow_mut().reserve(arrivals.len());
            gen::apply_arrivals(&mut sim, arrivals);
            if let Some(fp) = fault_plan {
                // Replicated into every shard so routing and link state stay
                // globally consistent; logs are emitted by owners only.
                sim.install_fault_plan(fp)
                    .expect("fault plan rejected by simulator");
            }
            let telem = interval.map(|iv| {
                let vec = Rc::new(RefCell::new(VecSink::new()));
                let rec = RunRecorder::new()
                    .with_sink(Box::new(vec.clone()))
                    .into_shared();
                telemetry::install_queue_sampler(&mut sim, iv, rec.clone());
                acc_core::controller::attach_recorder(&mut sim, &rec);
                (rec, vec)
            });
            (sim, ShardLocal { fct, telem })
        },
        between,
        |_shard, mut sim, local| {
            let sink = local.telem.map(|(rec, vec)| {
                // Faults executed after the last sampling tick are still
                // owed to the event timeline.
                telemetry::drain_fault_log(sim.core_mut(), &mut rec.borrow_mut());
                // In-memory sinks cannot fail to flush; take the samples.
                std::mem::take(&mut *vec.borrow_mut())
            });
            ShardOut {
                records: local.fct.borrow().records().copied().collect(),
                sink,
                engine: EngineTotals::of(sim.core()),
                fault_drops: sim.core().fault_drops,
                invalid_final_configs: crate::fault::invalid_final_configs(&sim),
                guard: common::sum_guard_stats(&mut sim),
            }
        },
    );
    let wall_s = started.elapsed().as_secs_f64();

    let mut shard_stats = Vec::with_capacity(results.len());
    let mut records = Vec::with_capacity(results.len());
    let mut sinks = Vec::with_capacity(results.len());
    let mut engine = EngineTotals::default();
    let (mut fault_drops, mut invalid_final_configs) = (0u64, 0usize);
    let mut guard: Option<GuardStats> = None;
    for (stats, out) in results {
        shard_stats.push(stats);
        records.push(out.records);
        if let Some(s) = out.sink {
            sinks.push(s);
        }
        engine.merge(&out.engine);
        fault_drops += out.fault_drops;
        invalid_final_configs += out.invalid_final_configs;
        if let Some(g) = out.guard {
            *guard.get_or_insert_with(GuardStats::default) += g;
        }
    }
    let fct = merge_shard_fct(records);

    let metrics_dir = claimed.and_then(|c| {
        let mut jsonl = match JsonlSink::create_new(&c.dir) {
            Ok(s) => s,
            Err(e) => {
                h.note_metrics_failure(&c.dir, &e);
                return None;
            }
        };
        let samples = merge_shards(sinks, &mut jsonl);
        if let Err(e) = jsonl.flush() {
            h.note_metrics_failure(&c.dir, &e);
            return None;
        }
        h.save_manifest(
            &c,
            Some(n_shards),
            &topo,
            &simcfg,
            horizon,
            wall_s,
            engine,
            samples,
            &fct,
        )
        .then_some(c.dir)
    });

    ShardedReport {
        fct,
        shard_stats,
        events_processed: engine.events_processed,
        wall_s,
        metrics_dir,
        fault_drops,
        invalid_final_configs,
        peak_event_queue: engine.peak_event_queue,
        arena_slots_reserved: engine.arena_slots_reserved,
        arena_slots_peak: engine.arena_slots_peak,
        guard,
    }
}
