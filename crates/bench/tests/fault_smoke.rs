//! Fault-injection smoke tests over the bench harness: the guarded policy
//! keeps the fabric sane under the seeded fault schedule (zero violations
//! live, all final configs valid, strictly fewer than raw ACC), a recorded
//! fault run is byte-identical across identical seeds — faults, guard trips
//! and all — and `Harness::run_to` records what a hand-built scenario with
//! the same fault plan records.
//!
//! CI runs this as the `fault-smoke` job alongside the CLI-level
//! `acc-bench fault --quick --metrics-dir` determinism check.

mod support;

use acc_bench::common::{Harness, Policy, Scale};
use acc_bench::fault::{fault_plan, run_arms, run_policy, FaultOutcome, FAULT_SEED};
use netsim::prelude::{SimTime, TopologySpec};
use std::path::{Path, PathBuf};
use support::{assert_recorded, assert_same_tree, fresh_dir, only_run_dir, run_dirs};
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

/// A quick-scale harness recording under `root` as experiment `id`.
fn recording(root: &Path, id: &str) -> Harness {
    Harness::new(Scale::QUICK)
        .with_metrics(root, SimTime::from_us(100))
        .experiment(id)
}

/// Run one fault arm with the flight recorder armed, returning the outcome
/// and the numbered run directory the scenario recorded into.
fn recorded_arm(policy: Policy, root: &Path) -> (FaultOutcome, PathBuf) {
    let outcome = run_policy(&recording(root, "fault-smoke"), policy, FAULT_SEED);
    (outcome, only_run_dir(root))
}

#[test]
fn guardrails_hold_under_fault_schedule() {
    let h = Harness::new(Scale::QUICK);
    let raw = run_policy(&h, Policy::AccMonitored, FAULT_SEED);
    let guarded = run_policy(&h, Policy::AccGuarded, FAULT_SEED);

    // The schedule actually bites: the unguarded agent leaves invalid
    // configs live in the fabric and the guard sees enough telemetry abuse
    // to trip into fallback at least once.
    assert!(
        raw.violations_applied() > 0,
        "monitor arm detected no live violations — the fault schedule lost its teeth"
    );
    let g = guarded.guard.expect("guarded arm has guard stats");
    assert!(g.trips > 0, "telemetry faults never tripped the fallback");
    assert!(
        g.recoveries > 0,
        "fallback never recovered after the faults cleared"
    );

    // The acceptance criteria from the issue: enforcement keeps every
    // config valid everywhere, strictly better than raw ACC.
    assert_eq!(
        guarded.violations_applied(),
        0,
        "guarded arm let violations reach the fabric"
    );
    assert!(guarded.violations_applied() < raw.violations_applied());
    assert!(
        guarded.final_configs_valid(),
        "{} tuned queues ended with invalid ECN configs",
        guarded.invalid_final_configs
    );

    // Both arms faced the identical plan.
    assert_eq!(raw.faults_injected, guarded.faults_injected);
    assert!(raw.fault_drops > 0, "injected faults dropped no packets");
}

#[test]
fn recorded_fault_runs_are_byte_identical() {
    let root = fresh_dir("fault-smoke-determinism");
    let (o1, d1) = recorded_arm(Policy::AccGuarded, &root.join("a"));
    let (o2, d2) = recorded_arm(Policy::AccGuarded, &root.join("b"));
    assert_eq!(o1.completed, o2.completed);
    assert_eq!(o1.fault_drops, o2.fault_drops);

    assert_recorded(&d1, &["queues.jsonl", "agents.jsonl", "events.jsonl"]);
    assert_same_tree(&d1, &d2, "identical seeded fault runs");

    // The event log carries the injected faults and the guard's reactions.
    let events = std::fs::read_to_string(d1.join("events.jsonl")).unwrap();
    for kind in ["link_down", "link_up", "telem_freeze", "switch_reboot"] {
        assert!(events.contains(kind), "events.jsonl missing fault '{kind}'");
    }
    assert!(events.contains("guard_trip"), "no guard trips recorded");
    assert!(events.contains("guard_recover"), "no recoveries recorded");

    let m = telemetry::RunManifest::load(&d1.join("manifest.json")).unwrap();
    assert_eq!(m.policy, "ACC-guarded");
    assert_eq!(m.seed, FAULT_SEED);
    assert!(m.event_samples > 0, "manifest counted no event samples");
}

/// `run_to` records what the build `engine_counts`' `fault-plan` row spells
/// out by hand records: `scenario` (stacks, policy, FCT reserve, arrivals,
/// recorder), then the fault plan. Sampling every 1.5 ms puts the first
/// sampling tick on the plan's first fault (15 % of 10 ms). A guard's events
/// are recorded as they happen, a fault when a sampling tick drains it, so
/// which of the two pops first decides where the fault lands among the
/// guard's events; events at equal times pop by their canonical key, fault
/// first, whichever was scheduled first.
#[test]
fn run_to_builds_in_the_order_of_a_hand_built_scenario() {
    let root = fresh_dir("fault-smoke-build-order");
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let horizon = SimTime::from_ms(10);
    let g = PoissonGen::new(SizeDist::web_search(), 0.5, CcKind::Dcqcn, 300);
    let arrivals = g.generate(topo.hosts(), 25_000_000_000, SimTime::ZERO, horizon);
    let plan = fault_plan(&topo, horizon, FAULT_SEED);
    let end = horizon + SimTime::from_ms(4);
    let armed = |sub: &str| {
        Harness::new(Scale::QUICK)
            .with_metrics(root.join(sub), SimTime::from_us(1500))
            .experiment("order")
    };
    armed("run_to").run_to(
        &spec,
        Policy::AccGuarded,
        FAULT_SEED,
        &arrivals,
        Some(&plan),
        &[end],
        |_| {},
    );
    let mut sc = armed("by-hand").scenario(&spec, Policy::AccGuarded, FAULT_SEED, &arrivals);
    sc.sim
        .install_fault_plan(&plan)
        .expect("fault plan validates");
    sc.sim.run_until(end);
    drop(sc);
    assert_recorded(&only_run_dir(&root.join("run_to")), &["events.jsonl"]);
    assert_same_tree(
        &root.join("run_to"),
        &root.join("by-hand"),
        "run_to and a hand-built scenario",
    );
}

/// The determinism contract of the worker pool: the same recorded matrix
/// executed with `--jobs 1` and `--jobs 4` produces byte-identical
/// queues/agents/events JSONL at identical paths and identical results —
/// and re-running into the used metrics dir refuses to overwrite anything.
#[test]
fn parallel_matrix_is_byte_identical_to_serial() {
    let root = fresh_dir("fault-smoke-parallel");
    let run_with = |jobs: usize, sub: &str| -> Vec<FaultOutcome> {
        let h = recording(&root.join(sub), "fault-par").with_jobs(jobs);
        let outcomes = run_arms(&h);
        assert!(!h.metrics_failed(), "clean runs flagged a failure");
        outcomes
    };
    let serial = run_with(1, "j1");
    let parallel = run_with(4, "j4");

    // Identical results, field for field (f64s must match exactly).
    assert_eq!(serial.len(), 3);
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "parallel outcomes diverge from serial"
    );

    // Identical run-directory names (cell-derived, not scheduling-derived)
    // and byte-identical recorded time-series.
    let d1 = run_dirs(&root.join("j1"));
    assert_eq!(d1.len(), 3, "three arms record three runs");
    assert_same_tree(&root.join("j1"), &root.join("j4"), "--jobs 1 and --jobs 4");

    // Re-running the same matrix into the already-used directory must
    // refuse to record (deterministic names would collide) and must leave
    // the first recording untouched.
    let before = std::fs::read(d1[0].join("queues.jsonl")).unwrap();
    let h = recording(&root.join("j1"), "fault-par");
    let rerun = run_arms(&h);
    assert_eq!(rerun.len(), 3, "unrecorded arms still simulate");
    assert!(
        h.metrics_failed(),
        "colliding run directories must be reported as a metrics failure"
    );
    let after = std::fs::read(d1[0].join("queues.jsonl")).unwrap();
    assert_eq!(before, after, "existing recording was modified on re-run");
    assert_eq!(run_dirs(&root.join("j1")).len(), 3, "no extra dirs appear");
}
