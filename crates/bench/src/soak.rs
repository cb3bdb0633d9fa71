//! `soak` — the fleet soak harness: one compressed "datacenter day".
//!
//! A seeded [`SoakPlan`] drives the Clos fabric through rotating workload
//! phases (diurnal WebSearch load, closed-loop storage and PS-training
//! clusters, incast bursts) while a continuous [`FaultPlan`] abuses it and
//! every switch runs a guarded ACC agent fine-tuning online. Riding on top
//! is the production model-lifecycle loop ([`FleetManager`]): the fleet
//! starts from the offline-pretrained bundle, and at phase boundaries the
//! harness checkpoints the online policy into a crash-safe
//! [`DeployBundle`](acc_core::DeployBundle), hot-swaps the candidate onto
//! the whole fleet under a probation window, and rolls back to
//! last-known-good (quarantining the candidate) if guards trip during
//! probation. The schedule deliberately plants a telemetry-freeze inside
//! one probation window so every soak run exercises at least one promotion
//! *and* one forced rollback.
//!
//! The run condenses into one [`SCHEMA`] document (`SOAK_SLO.json` by
//! default): FCT tails, per-phase IOPS / training iterations/s, train-step
//! throughput, guard and fleet ledgers, fault/buffer-loss accounting, the
//! allocator probe's counts over the day, and the headline
//! `invalid_final_configs` gate (must be zero). [`show`] prints it and
//! [`check`] holds its invariants, after a run and under `acc-bench report`
//! alike. With `--metrics-dir` armed the recorded JSONL is byte-identical
//! across same-seed reruns; wall-clock lives only in the document and the
//! manifest.
//!
//! Both the day schedule and the fault script can be replaced wholesale
//! from JSON (`acc-bench soak --soak-plan day.json --fault-plan
//! faults.json`); see [`run_soak_with`]. Bad plans are rejected before any
//! simulation work starts.

use crate::common::{self, Harness, Policy, Scale};
use crate::fault::invalid_final_configs;
use acc_core::guard::{install_guarded_acc, GuardConfig};
use acc_core::{
    trainer, ActionSpace, FleetConfig, FleetManager, PhaseKind, ProbationOutcome, SoakPlan,
    SwapOutcome,
};
use netsim::prelude::*;
use serde_json::{json, Value};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use transport::CcKind;
use workloads::gen::{apply_arrivals, incast_wave, PoissonGen};
use workloads::{
    SizeDist, StorageCluster, StorageConfig, StorageProfile, TrainingCluster, TrainingConfig,
};

/// The master seed: traffic, engine, fault plan and agents all derive from
/// it, so two runs with the same seed replay the identical day.
pub const SOAK_SEED: u64 = 42;

/// Schema tag of the soak document. Bump on incompatible changes.
pub const SCHEMA: &str = "acc-soak-slo/v2";

/// Map a soak-plan storage name to a concrete cluster configuration.
///
/// The plan speaks in deployment vocabulary (`mirrored`, `striped`); the
/// harness grounds those in Table-1 profiles (OLTP-like mirrored pairs,
/// backup-like striped streams). The six Table-1 names are accepted
/// directly; anything else is rejected before the simulation starts.
fn storage_config(name: &str, seed: u64) -> Result<StorageConfig, String> {
    let (profile, replication) = match name {
        "mirrored" => (StorageProfile::oltp(), 2),
        "striped" => (StorageProfile::backup(), 1),
        other => match StorageProfile::all().into_iter().find(|p| p.name == other) {
            Some(p) => (p, 2),
            None => return Err(format!("unknown storage profile {other:?} in soak plan")),
        },
    };
    Ok(StorageConfig {
        profile,
        io_depth: 8,
        replication,
        seed,
        ..Default::default()
    })
}

/// Map a soak-plan training preset to a cluster configuration scaled so
/// several iterations fit inside one phase (the soak compresses a day into
/// milliseconds; the full-size models of Fig. 10 would not complete a
/// single iteration per phase).
fn training_config(preset: &str, scale: Scale) -> Result<TrainingConfig, String> {
    let mut cfg = match preset {
        "alexnet" => TrainingConfig::alexnet(),
        "resnet50" => TrainingConfig::resnet50(),
        other => return Err(format!("unknown training preset {other:?} in soak plan")),
    };
    let div = scale.pick(6, 60);
    cfg.gradient_bytes /= div as u64;
    cfg.compute_time = SimTime::from_ps(cfg.compute_time.as_ps() / div as u64);
    Ok(cfg)
}

/// The continuous fault schedule for the day, every time a fraction of the
/// horizon. The telemetry freeze at 40.5–46% is load-bearing: it opens just
/// after the phase-3 boundary swap, so the candidate deployed there takes
/// guard trips during its probation window and is rolled back — the soak's
/// guaranteed rollback exercise. Phases 2 and 8 (the other probation
/// windows) are kept fault-free so their candidates promote.
pub fn soak_fault_plan(topo: &Topology, day: SimTime, seed: u64) -> FaultPlan {
    let f = |x: f64| SimTime::from_ps((day.as_ps() as f64 * x) as u64);
    let switches = topo.switches();
    let leaf0 = switches[0];
    let leaf1 = switches[1];
    let spine = *switches.last().expect("soak fabric has switches");
    FaultPlan::new(seed)
        // Dawn: a leaf port flaps while load is low.
        .link_flap(leaf0, PortId(6), f(0.03), f(0.06))
        // Morning: a spine port silently drops 2% during the backup phase.
        .loss_window(spine, PortId(0), 0.02, f(0.15), f(0.18))
        // A leaf port degrades to 10G under the training phase.
        .degrade_window(leaf1, PortId(6), 10_000_000_000, f(0.32), f(0.36))
        // Noon: leaf0's telemetry freezes inside the phase-3 candidate's
        // probation window — the forced-rollback fault.
        .telemetry_freeze(leaf0, f(0.405), f(0.46))
        // Afternoon: leaf1's telemetry blanks to zeros.
        .telemetry_blank(leaf1, f(0.55), f(0.58))
        // Evening: a spine reboots outright (queues flushed, ECN reset).
        .at(f(0.65), FaultKind::SwitchReboot { node: spine })
}

/// Sum of training minibatches run by every switch's agent, guarded or not.
fn total_train_steps(sim: &mut Simulator) -> u64 {
    let mut steps = 0;
    for sw in sim.core().topo.switches().to_vec() {
        if !sim.has_controller(sw) {
            continue;
        }
        steps += sim.with_controller(sw, |c, _| {
            trainer::acc_of(c).map_or(0, |a| a.stats.train_steps)
        });
    }
    steps
}

fn us(t: SimTime) -> f64 {
    t.as_ps() as f64 / 1e6
}

/// Ground every phase of `plan` in a concrete generator config, rejecting
/// unknown storage/training names before any simulation work happens.
pub fn resolve_generators(plan: &SoakPlan, scale: Scale, seed: u64) -> Result<(), String> {
    for p in &plan.phases {
        match &p.kind {
            PhaseKind::Storage { profile } => {
                storage_config(profile, seed)?;
            }
            PhaseKind::Training { preset } => {
                training_config(preset, scale)?;
            }
            PhaseKind::Websearch { .. } | PhaseKind::Incast { .. } => {}
        }
    }
    Ok(())
}

/// Run the full soak and return its document. `checkpoint_dir`, when set,
/// receives the crash-safe `ckpt_NNNN.json` bundles.
pub fn run_soak(h: &Harness, seed: u64, checkpoint_dir: Option<&Path>) -> Result<Value, String> {
    run_soak_with(h, seed, checkpoint_dir, None, None)
}

/// The fabric the soak runs on at `scale` — what a `--fault-plan`'s
/// endpoints are checked against.
pub fn topology_spec(scale: Scale) -> TopologySpec {
    scale.pick(
        TopologySpec::paper_large_sim(),
        TopologySpec::paper_testbed(),
    )
}

/// [`run_soak`] with user-supplied overrides: `plan_override` replaces the
/// canonical datacenter-day schedule and `fault_override` replaces the
/// built-in fault script (the CLI loads both from `--soak-plan` /
/// `--fault-plan` JSON). Overrides are validated the same way the defaults
/// are — structural checks here, a fault plan's endpoints against the
/// topology when the simulator installs it (the CLI runs the same check
/// against [`topology_spec`] first, so it can refuse before any work).
pub fn run_soak_with(
    h: &Harness,
    seed: u64,
    checkpoint_dir: Option<&Path>,
    plan_override: Option<SoakPlan>,
    fault_override: Option<FaultPlan>,
) -> Result<Value, String> {
    let scale = h.scale;
    let phase_dur = scale.pick(SimTime::from_ms(10), SimTime::from_ms(2));
    let plan = match plan_override {
        Some(p) => {
            eprintln!(
                "[soak] custom soak plan: {} phases, seed {}",
                p.phases.len(),
                p.seed
            );
            p
        }
        None => SoakPlan::datacenter_day(seed, phase_dur),
    };
    plan.validate()?;
    // The plan's embedded master seed wins (a no-op for the built-in day,
    // which is constructed from `seed` above).
    let seed = plan.seed;

    resolve_generators(&plan, scale, seed)?;
    if let Some(dir) = checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    }

    let spec = topology_spec(scale);
    let topo = spec.build();
    let day = plan.total();
    let space = ActionSpace::templates();

    // Guarded fleet, online fine-tuning from the offline pretrained model.
    let label = Policy::AccGuarded.name();
    let initial = common::pretrained(scale).clone();
    let cfg = common::sim_config(seed);
    let install = |sim: &mut Simulator| {
        let cfg = trainer::online_config(&common::acc_config(seed), 0.05, 2_000.0);
        let _ = install_guarded_acc(sim, &cfg, &space, &GuardConfig::default());
    };
    let model = Some(initial.digest);
    let mut sc = h.scenario_with_faults(&spec, cfg, label, model, &[], install, None);
    let hosts = sc.hosts.clone();
    let host_bps = 25_000_000_000u64;

    let mut fleet = FleetManager::new(
        FleetConfig {
            checkpoint_dir: checkpoint_dir.map(|d| d.to_path_buf()),
            probation_trip_budget: 0,
            quarantine_backoff: 1,
            provenance: "soak online checkpoint".into(),
        },
        initial,
    )
    .map_err(|e| format!("initial bundle rejected: {e}"))?;
    fleet.deploy(&mut sc.sim);

    let fault_plan = match fault_override {
        Some(p) => {
            eprintln!(
                "[soak] custom fault plan: {} events, seed {}",
                p.len(),
                p.seed
            );
            p
        }
        None => soak_fault_plan(&topo, day, seed),
    };
    let faults_scheduled = fault_plan.len();
    sc.sim
        .install_fault_plan(&fault_plan)
        .map_err(|e| format!("soak fault plan invalid: {e}"))?;

    let ckpt_switch = sc.sim.core().topo.switches()[0];
    let n_phases = plan.phases.len();
    let mut storage_runs: Vec<(usize, Rc<RefCell<StorageCluster>>)> = Vec::new();
    let mut training_runs: Vec<(usize, Rc<RefCell<TrainingCluster>>)> = Vec::new();

    let wall_start = std::time::Instant::now();
    let alloc_start = h.alloc_counts();
    let mut t = SimTime::ZERO;
    for (i, phase) in plan.phases.iter().enumerate() {
        let start = t;
        let end = t + phase.dur;
        match &phase.kind {
            PhaseKind::Websearch { load } => {
                let g = PoissonGen::new(
                    SizeDist::web_search(),
                    *load,
                    CcKind::Dcqcn,
                    seed.wrapping_add(1000 + i as u64),
                );
                let arrivals = g.generate(&hosts, host_bps, start, phase.dur);
                apply_arrivals(&mut sc.sim, &arrivals);
            }
            PhaseKind::Storage { profile } => {
                let cfg = storage_config(profile, seed.wrapping_add(2000 + i as u64))?;
                let cluster = Rc::new(RefCell::new(StorageCluster::new(&hosts, cfg)));
                cluster.borrow_mut().set_deadline(Some(end));
                transport::set_app_hook(&mut sc.sim, cluster.clone());
                let init = cluster.borrow_mut().initial_arrivals(start);
                apply_arrivals(&mut sc.sim, &init);
                storage_runs.push((i, cluster));
            }
            PhaseKind::Training { preset } => {
                let cfg = training_config(preset, scale)?;
                // The paper's 7-worker + 1-PS GPU pod.
                let cluster = Rc::new(RefCell::new(TrainingCluster::new(&hosts[..8], cfg)));
                cluster.borrow_mut().set_deadline(Some(end));
                transport::set_app_hook(&mut sc.sim, cluster.clone());
                let init = cluster.borrow().initial_arrivals(start);
                apply_arrivals(&mut sc.sim, &init);
                training_runs.push((i, cluster));
            }
            PhaseKind::Incast { fanin } => {
                // Repeated fan-in waves onto hosts[0] from far-leaf senders;
                // waves sized to keep the victim port busy through the phase.
                let fanin = (*fanin).min(hosts.len() - 1);
                let senders: Vec<NodeId> = hosts[hosts.len() - fanin..].to_vec();
                let wave_gap = SimTime::from_ps(phase.dur.as_ps() / 4);
                for w in 0..4u64 {
                    let at = start + SimTime::from_ps(wave_gap.as_ps() * w);
                    let arrivals = incast_wave(&senders, hosts[0], 2, 64 * 1024, CcKind::Dcqcn, at);
                    apply_arrivals(&mut sc.sim, &arrivals);
                }
            }
        }
        sc.sim.run_until(end);

        // Boundary protocol: settle the open probation first, then (on
        // every other boundary, except the day's end) checkpoint the online
        // policy and offer it to the fleet.
        match fleet.end_probation(&mut sc.sim) {
            ProbationOutcome::Idle => {}
            ProbationOutcome::Promoted { digest } => {
                eprintln!("[soak] boundary {i}: candidate {digest:#018x} promoted");
            }
            ProbationOutcome::RolledBack { digest, trips } => {
                eprintln!(
                    "[soak] boundary {i}: candidate {digest:#018x} ROLLED BACK \
                     ({trips} guard trips in probation)"
                );
            }
        }
        if i % 2 == 1 && i + 1 < n_phases {
            let candidate = fleet
                .checkpoint(&mut sc.sim, ckpt_switch)
                .map_err(|e| format!("checkpoint at boundary {i}: {e}"))?;
            match fleet.try_swap(&mut sc.sim, candidate) {
                SwapOutcome::Swapped { digest } => {
                    eprintln!("[soak] boundary {i}: hot-swapped candidate {digest:#018x}");
                }
                SwapOutcome::SkippedBackoff => {
                    eprintln!("[soak] boundary {i}: swap skipped (post-rollback backoff)");
                }
                SwapOutcome::SkippedQuarantined { digest } => {
                    eprintln!("[soak] boundary {i}: swap skipped ({digest:#018x} quarantined)");
                }
                SwapOutcome::Invalid { error } => {
                    eprintln!("[soak] boundary {i}: candidate rejected ({error})");
                }
            }
        }
        t = end;
    }
    let drain = scale.pick(SimTime::from_ms(10), SimTime::from_ms(3));
    sc.sim.run_until(day + drain);
    let wall = wall_start.elapsed().as_secs_f64();
    // The allocator's counts over the window `wall` covers; the peak is the
    // process's high-water mark, which the probe cannot reset.
    let alloc = match (alloc_start, h.alloc_counts(), h.peak_live_bytes()) {
        (Some((a0, b0)), Some((a1, b1)), Some(peak)) => json!({
            "peak_live_bytes": peak,
            "allocations": a1 - a0,
            "alloc_bytes": b1 - b0,
        }),
        _ => Value::Null,
    };

    // Condense the day into the document.
    let mut phases = Vec::with_capacity(n_phases);
    let mut t = SimTime::ZERO;
    for (i, phase) in plan.phases.iter().enumerate() {
        let (start, end) = (t, t + phase.dur);
        t = end;
        let (kind, metric): (&str, Option<(&str, f64)>) = match &phase.kind {
            PhaseKind::Websearch { .. } => ("websearch", None),
            PhaseKind::Incast { .. } => ("incast", None),
            PhaseKind::Storage { .. } => {
                let c = &storage_runs.iter().find(|(p, _)| *p == i).unwrap().1;
                ("storage", Some(("iops", c.borrow().iops(start, end))))
            }
            PhaseKind::Training { .. } => {
                let c = &training_runs.iter().find(|(p, _)| *p == i).unwrap().1;
                (
                    "training",
                    Some((
                        "iterations_per_sec",
                        c.borrow().iterations_per_sec(start, end),
                    )),
                )
            }
        };
        phases.push(json!({
            "name": phase.name,
            "kind": kind,
            "start_us": us(start),
            "end_us": us(end),
            "app_metric": metric.map(|(m, _)| m),
            "app_value": metric.map(|(_, v)| v),
        }));
    }

    let overall = sc.fct.borrow().stats(|_| true);
    let guard = common::sum_guard_stats(&mut sc.sim).unwrap_or_default();
    let train_steps = total_train_steps(&mut sc.sim);
    let invalid = invalid_final_configs(&sc.sim) as u64;
    let fs = fleet.stats;
    let core = sc.sim.core();
    let doc = json!({
        "schema": SCHEMA,
        "scale": if scale.quick { "quick" } else { "full" },
        "seed": seed,
        "sim_time_us": us(day + drain),
        "wall_time_s": wall,
        "phases": phases,
        "fct": {
            "count": overall.count as u64,
            "p50_us": overall.p50_us,
            "p99_us": overall.p99_us,
            "p999_us": overall.p999_us,
            "mean_us": overall.avg_us,
        },
        "rl": {
            "train_steps": train_steps,
            "steps_per_wall_sec": train_steps as f64 / wall.max(1e-9),
        },
        "guard": {
            "ticks": guard.ticks,
            "violations_detected": guard.violations_detected,
            "violations_applied": guard.violations_applied,
            "clamps": guard.clamps,
            "trips": guard.trips,
            "recoveries": guard.recoveries,
            "fallback_ticks": guard.fallback_ticks,
            "agent_anomalies": guard.agent_anomalies,
        },
        "fleet": {
            "checkpoints": fs.checkpoints,
            "swaps": fs.swaps,
            "promoted": fs.promoted,
            "rollbacks": fs.rollbacks,
            "quarantined_skips": fs.quarantined_skips,
            "backoff_skips": fs.backoff_skips,
            "invalid_bundles": fs.invalid_bundles,
        },
        "faults": {
            "events_executed": core.faults_executed,
            "fault_log_dropped": core.fault_log_dropped,
            "fault_drops": core.fault_drops,
        },
        "alloc": alloc,
        "invalid_final_configs": invalid,
    });
    eprintln!(
        "[soak] day={}ms faults={faults_scheduled} flows={}/{} trips={} swaps={} \
         promoted={} rollbacks={} invalid-configs={invalid}",
        us(day) / 1e3,
        sc.fct.borrow().summary().completed,
        sc.fct.borrow().summary().total,
        guard.trips,
        fs.swaps,
        fs.promoted,
        fs.rollbacks,
    );
    Ok(doc)
}

/// What a key [`show`] reads must hold.
#[derive(Clone, Copy, Debug)]
enum Is {
    Text,
    Count,
    Number,
}

impl Is {
    fn holds(self, v: &Value) -> bool {
        match self {
            Is::Text => v.as_str().is_some(),
            Is::Count => v.as_u64().is_some(),
            Is::Number => v.as_f64().is_some(),
        }
    }
}

/// The columns of a phase row, which [`show`] prints one row per phase.
/// `app_metric` and `app_value` are both absent or both present.
const PHASE: [(&str, Is); 4] = [
    ("name", Is::Text),
    ("kind", Is::Text),
    ("start_us", Is::Number),
    ("end_us", Is::Number),
];

/// The one-row tables [`show`] prints below the phases, as paths into the
/// document. The `alloc` block is `null` when no allocator probe was
/// registered.
const TABLES: [&[(&str, Is)]; 7] = [
    &[
        ("scale", Is::Text),
        ("seed", Is::Count),
        ("sim_time_us", Is::Number),
        ("wall_time_s", Is::Number),
        ("invalid_final_configs", Is::Count),
    ],
    &[
        ("fct.count", Is::Count),
        ("fct.p50_us", Is::Number),
        ("fct.p99_us", Is::Number),
        ("fct.p999_us", Is::Number),
        ("fct.mean_us", Is::Number),
    ],
    &[
        ("rl.train_steps", Is::Count),
        ("rl.steps_per_wall_sec", Is::Number),
    ],
    &[
        ("guard.ticks", Is::Count),
        ("guard.violations_detected", Is::Count),
        ("guard.violations_applied", Is::Count),
        ("guard.clamps", Is::Count),
        ("guard.trips", Is::Count),
        ("guard.recoveries", Is::Count),
        ("guard.fallback_ticks", Is::Count),
        ("guard.agent_anomalies", Is::Count),
    ],
    &[
        ("fleet.checkpoints", Is::Count),
        ("fleet.swaps", Is::Count),
        ("fleet.promoted", Is::Count),
        ("fleet.rollbacks", Is::Count),
        ("fleet.quarantined_skips", Is::Count),
        ("fleet.backoff_skips", Is::Count),
        ("fleet.invalid_bundles", Is::Count),
    ],
    &[
        ("faults.events_executed", Is::Count),
        ("faults.fault_log_dropped", Is::Count),
        ("faults.fault_drops", Is::Count),
    ],
    &[
        ("alloc.peak_live_bytes", Is::Count),
        ("alloc.allocations", Is::Count),
        ("alloc.alloc_bytes", Is::Count),
    ],
];

/// Print a soak document: one row per phase, then the day's totals.
pub fn show(doc: &Value) {
    common::print_table(
        common::rows(doc, "phases"),
        &[
            "name",
            "kind",
            "start_us",
            "end_us",
            "app_metric",
            "app_value",
        ],
    );
    for table in TABLES {
        let columns: Vec<&str> = table.iter().map(|(path, _)| *path).collect();
        println!();
        common::print_table(std::slice::from_ref(doc), &columns);
    }
}

/// Everything wrong with a soak document, by name; empty means it passes.
/// The invariants: the schema tag, at least one phase, each phase ending
/// after it starts and not before its predecessor ends with its app metric
/// paired, completed flows with monotone FCT percentiles, and no invalid ECN
/// config left in the fabric. A document read from disk may lack anything,
/// so every key [`show`] prints is named when it is missing or of the wrong
/// type.
pub fn check(doc: &Value) -> Vec<String> {
    let mut failed = Vec::new();
    if doc["schema"].as_str() != Some(SCHEMA) {
        failed.push(format!("schema is not {SCHEMA}"));
    }
    for &(path, is) in TABLES.iter().copied().flatten() {
        if path.starts_with("alloc.") && doc["alloc"].is_null() {
            continue;
        }
        if !common::at(doc, path).is_some_and(|v| is.holds(v)) {
            failed.push(format!("{path}: missing or not a {is:?}"));
        }
    }
    let phases = common::rows(doc, "phases");
    if phases.is_empty() {
        failed.push("no phases".into());
    }
    let mut prev_end = f64::NEG_INFINITY;
    for (i, p) in phases.iter().enumerate() {
        for (key, is) in PHASE {
            if !is.holds(&p[key]) {
                failed.push(format!("phases.{i}.{key}: missing or not a {is:?}"));
            }
        }
        let (start, end) = (common::num(&p["start_us"]), common::num(&p["end_us"]));
        let name = &p["name"];
        if end.partial_cmp(&start) != Some(std::cmp::Ordering::Greater) {
            failed.push(format!("phase {name}: end <= start"));
        }
        if start < prev_end {
            failed.push(format!("phase {name} overlaps its predecessor"));
        }
        prev_end = end;
        let paired = match (&p["app_metric"], &p["app_value"]) {
            (Value::Null, Value::Null) => true,
            (m, v) => m.as_str().is_some() && v.as_f64().is_some(),
        };
        if !paired {
            failed.push(format!("phase {name}: unpaired app metric"));
        }
    }
    let fct = |k: &str| common::num(&doc["fct"][k]);
    if doc["fct"]["count"].as_u64() == Some(0) {
        failed.push("no completed flows".into());
    }
    let (p50, p99, p999) = (fct("p50_us"), fct("p99_us"), fct("p999_us"));
    if !(p50 <= p99 && p99 <= p999) {
        failed.push(format!(
            "FCT percentiles not monotone: p50={p50} p99={p99} p999={p999}"
        ));
    }
    if let Some(n) = doc["invalid_final_configs"].as_u64().filter(|&n| n != 0) {
        failed.push(format!("{n} invalid ECN configs left in the fabric"));
    }
    failed
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A soak document that passes [`check`].
    pub(crate) fn document() -> Value {
        json!({
            "schema": SCHEMA,
            "scale": "quick",
            "seed": 7u64,
            "sim_time_us": 20_000.0,
            "wall_time_s": 3.5,
            "phases": [{
                "name": "dawn-websearch", "kind": "websearch",
                "start_us": 0.0, "end_us": 2_000.0,
                "app_metric": null, "app_value": null,
            }],
            "fct": {"count": 1000u64, "p50_us": 40.0, "p99_us": 300.0, "p999_us": 900.0, "mean_us": 80.0},
            "rl": {"train_steps": 5000u64, "steps_per_wall_sec": 1428.0},
            "guard": {
                "ticks": 0u64, "violations_detected": 0u64, "violations_applied": 0u64,
                "clamps": 0u64, "trips": 0u64, "recoveries": 0u64, "fallback_ticks": 0u64,
                "agent_anomalies": 0u64,
            },
            "fleet": {
                "checkpoints": 4u64, "swaps": 2u64, "promoted": 1u64, "rollbacks": 1u64,
                "quarantined_skips": 0u64, "backoff_skips": 0u64, "invalid_bundles": 0u64,
            },
            "faults": {"events_executed": 0u64, "fault_log_dropped": 0u64, "fault_drops": 0u64},
            "alloc": {"peak_live_bytes": 1u64 << 20, "allocations": 10u64, "alloc_bytes": 100u64},
            "invalid_final_configs": 0u64,
        })
    }

    /// The value at column path `path` of `doc`.
    pub(crate) fn at_mut<'a>(doc: &'a mut Value, path: &str) -> &'a mut Value {
        path.split('.').fold(doc, |v, key| match v {
            Value::Object(m) => m
                .get_mut(key)
                .unwrap_or_else(|| panic!("fixture lacks {path}")),
            Value::Array(a) => &mut a[key.parse::<usize>().expect("an index")],
            _ => panic!("fixture lacks {path}"),
        })
    }

    #[test]
    fn valid_document_round_trips() {
        let doc = document();
        assert_eq!(check(&doc), Vec::<String>::new());
        let text = serde_json::to_string(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(check(&back), Vec::<String>::new());
        assert_eq!(back, doc);
        // Without an allocator probe the block is null, and that passes.
        let mut unprobed = doc;
        *at_mut(&mut unprobed, "alloc") = Value::Null;
        assert_eq!(check(&unprobed), Vec::<String>::new());
    }

    #[test]
    fn each_broken_invariant_and_missing_key_is_named() {
        let says = |doc: &Value, what: &str| {
            let failed = check(doc);
            assert!(
                failed.iter().any(|f| f.contains(what)),
                "{what:?} not in {failed:?}"
            );
        };
        let broken = |path: &str, v: Value| {
            let mut doc = document();
            *at_mut(&mut doc, path) = v;
            doc
        };
        says(&broken("schema", json!("acc-soak-slo/v1")), "schema is not");
        says(&broken("phases", json!([])), "no phases");
        says(&broken("phases.0.end_us", json!(0.0)), "end <= start");
        says(&broken("phases.0.app_metric", json!("iops")), "unpaired");
        says(&broken("fct.count", json!(0u64)), "no completed flows");
        says(&broken("fct.p99_us", json!(10.0)), "not monotone");
        says(
            &broken("invalid_final_configs", json!(2u64)),
            "2 invalid ECN configs left in the fabric",
        );
        let mut overlapping = document();
        let second = json!({
            "name": "overlap", "kind": "incast", "start_us": 1_000.0, "end_us": 3_000.0,
            "app_metric": null, "app_value": null,
        });
        if let Value::Array(phases) = at_mut(&mut overlapping, "phases") {
            phases.push(second);
        }
        says(&overlapping, "overlaps its predecessor");

        // Every key `show` prints is named when it has the wrong type...
        for &(path, _) in TABLES.iter().copied().flatten() {
            says(&broken(path, json!([])), &format!("{path}: missing"));
        }
        for (key, _) in PHASE {
            let path = format!("phases.0.{key}");
            says(&broken(&path, json!([])), &format!("{path}: missing"));
        }
        // ...and when it is not there at all.
        let Value::Object(blocks) = document() else {
            unreachable!("the fixture is an object")
        };
        let without_guard: Value = Value::Object(
            blocks
                .iter()
                .filter(|(k, _)| k.as_str() != "guard")
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        );
        says(&without_guard, "guard.trips: missing");
    }
}
