//! Fleet-soak smoke tests: the quick "datacenter day" exercises at least
//! one successful hot-swap and one forced rollback, ends with zero invalid
//! ECN configs, returns a document that passes `soak::check`, and records
//! byte-identical JSONL (checkpoints included) across same-seed reruns.
//!
//! CI runs this as the `soak-smoke` job alongside the CLI-level
//! `acc-bench soak --quick --metrics-dir` determinism check.

mod support;

use acc_bench::common::{Harness, Scale};
use acc_bench::soak::{check, run_soak, SOAK_SEED};
use netsim::prelude::SimTime;
use serde_json::Value;
use std::path::{Path, PathBuf};
use support::{assert_recorded, assert_same_tree, fresh_dir, only_run_dir};

/// Run one recorded quick soak, returning the document, the numbered run
/// directory, and the checkpoint directory.
fn recorded_soak(root: &Path) -> (Value, PathBuf, PathBuf) {
    let h = Harness::new(Scale::QUICK)
        .with_metrics(root, SimTime::from_us(100))
        .experiment("soak-smoke");
    let ckpt = root.join("soak_checkpoints");
    let report = run_soak(&h, SOAK_SEED, Some(&ckpt)).expect("quick soak completes");
    (report, only_run_dir(root), ckpt)
}

/// `doc[block][key]` as a count (0 when absent).
fn count(doc: &Value, block: &str, key: &str) -> u64 {
    doc[block][key].as_u64().unwrap_or(0)
}

#[test]
fn quick_soak_meets_the_slo_contract() {
    let doc = run_soak(&Harness::new(Scale::QUICK), SOAK_SEED, None).expect("quick soak completes");

    assert_eq!(check(&doc), Vec::<String>::new(), "SLO invariants hold");
    assert_eq!(doc["scale"].as_str(), Some("quick"));
    assert_eq!(doc["invalid_final_configs"].as_u64(), Some(0));
    assert!(doc["fct"]["p999_us"].as_f64().unwrap() > 0.0);
    // No allocator probe is registered here, so there is no alloc block.
    assert!(doc["alloc"].is_null());

    // The production loop actually cycled: at least one candidate promoted,
    // and the planted telemetry-freeze forced at least one rollback, after
    // which the fleet backed off at the next opportunity. `check` cannot
    // demand these: a custom `--soak-plan` day may offer no swap at all.
    let fleet = |key| count(&doc, "fleet", key);
    assert!(fleet("swaps") >= 2, "got {} swaps", fleet("swaps"));
    assert!(fleet("promoted") >= 1, "no candidate was ever promoted");
    assert!(
        fleet("rollbacks") >= 1,
        "the planted probation fault forced no rollback"
    );
    assert!(
        fleet("backoff_skips") >= 1,
        "no swap opportunity was skipped after the rollback"
    );
    assert_eq!(fleet("invalid_bundles"), 0);

    // Guards tripped (the fault schedule bit) and recovered (no switch is
    // stranded in fallback at the end of the day).
    let guard = |key| count(&doc, "guard", key);
    assert!(guard("trips") >= 1);
    assert_eq!(
        guard("trips"),
        guard("recoveries"),
        "every trip must recover by end of day"
    );
    assert_eq!(guard("violations_applied"), 0);

    // Every workload phase produced signal.
    let phases = doc["phases"].as_array().expect("phases");
    assert_eq!(phases.len(), 10);
    for p in phases {
        if let (Some(m), Some(v)) = (p["app_metric"].as_str(), p["app_value"].as_f64()) {
            assert!(v > 0.0, "phase {} reports {m}=0", p["name"]);
        }
    }
    assert!(
        count(&doc, "rl", "train_steps") > 0,
        "no online fine-tuning happened"
    );
    assert!(count(&doc, "faults", "events_executed") > 0);
    assert_eq!(count(&doc, "faults", "fault_log_dropped"), 0);
}

#[test]
fn recorded_soak_runs_are_byte_identical() {
    let root = fresh_dir("soak-smoke-determinism");
    let (r1, d1, c1) = recorded_soak(&root.join("a"));
    let (r2, d2, c2) = recorded_soak(&root.join("b"));

    // Simulated outcomes match exactly; only wall-clock fields may differ.
    assert_eq!(r1["fct"]["count"], r2["fct"]["count"]);
    assert_eq!(r1["fct"]["p999_us"], r2["fct"]["p999_us"]);
    assert_eq!(r1["fleet"], r2["fleet"]);
    assert_eq!(r1["guard"]["trips"], r2["guard"]["trips"]);
    assert_eq!(r1["rl"]["train_steps"], r2["rl"]["train_steps"]);

    assert_recorded(&d1, &["queues.jsonl", "agents.jsonl", "events.jsonl"]);
    assert_same_tree(&d1, &d2, "identical seeded soak runs");

    // Checkpoint bundles are part of the deterministic artifact set.
    let mut ckpts: Vec<String> = std::fs::read_dir(&c1)
        .expect("checkpoints written")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    ckpts.sort();
    assert_eq!(ckpts.len() as u64, count(&r1, "fleet", "checkpoints"));
    for name in &ckpts {
        assert!(
            !name.ends_with(".tmp"),
            "crash-safe save leaked a temp file: {name}"
        );
        let a = std::fs::read(c1.join(name)).unwrap();
        let b = std::fs::read(c2.join(name)).unwrap();
        assert_eq!(a, b, "checkpoint {name} differs between identical runs");
        // Every persisted checkpoint is a loadable, digest-valid bundle.
        acc_core::DeployBundle::load(c1.join(name)).expect("checkpoint loads and validates");
    }

    // The planted freeze spans a swap boundary: the recorded events show
    // both the fault and the guard's reaction.
    let events = std::fs::read_to_string(d1.join("events.jsonl")).unwrap();
    for kind in [
        "telem_freeze",
        "switch_reboot",
        "guard_trip",
        "guard_recover",
    ] {
        assert!(events.contains(kind), "events.jsonl missing '{kind}'");
    }

    // The run manifest carries the bounded-buffer loss counters.
    let m = telemetry::RunManifest::load(&d1.join("manifest.json")).unwrap();
    assert_eq!(m.policy, "ACC-guarded");
    assert_eq!(m.seed, SOAK_SEED);
    assert_eq!(m.fault_log_dropped, 0);
}

#[test]
fn unknown_plan_names_are_rejected_before_simulating() {
    // The mapper grounds plan vocabulary in concrete generators; a typo'd
    // profile or preset must fail fast, not silently run a default.
    let plan = acc_core::SoakPlan::datacenter_day(1, SimTime::from_ms(1));
    acc_bench::soak::resolve_generators(&plan, Scale::QUICK, 1)
        .expect("the canonical plan resolves");

    let mut bad = plan.clone();
    bad.phases[1].kind = acc_core::PhaseKind::Storage {
        profile: "raid0".into(),
    };
    let err = acc_bench::soak::resolve_generators(&bad, Scale::QUICK, 1).unwrap_err();
    assert!(err.contains("raid0"), "error names the offender: {err}");

    let mut bad = plan.clone();
    bad.phases[3].kind = acc_core::PhaseKind::Training {
        preset: "gpt5".into(),
    };
    let err = acc_bench::soak::resolve_generators(&bad, Scale::QUICK, 1).unwrap_err();
    assert!(err.contains("gpt5"), "error names the offender: {err}");
}
