//! Perf-harness smoke tests: `acc-bench perf` returns one gate document that
//! passes [`perf::check`] — the same check the CLI exits on — and holds
//! counts and identities only; and a recorded websearch-under-faults run is
//! byte-identical across repeats (the timing-wheel queue's determinism
//! contract at harness level; the pop-order identity is pinned by the
//! differential proptest in `netsim/tests/properties.rs`).
//!
//! The counting `#[global_allocator]` lives in `support` because the library
//! crate forbids `unsafe`; integration tests are separate crates, so it
//! mirrors what the `acc-bench` binary itself installs.

mod support;

use acc_bench::common::{Harness, Policy, Scale};
use acc_bench::perf;
use netsim::prelude::*;
use serde_json::Value;
use std::path::{Path, PathBuf};
use support::{assert_recorded, assert_same_tree, fresh_dir, only_run_dir};
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

/// Every object key in `v`, at any depth.
fn keys(v: &Value, out: &mut Vec<String>) {
    match v {
        Value::Object(m) => {
            for (k, v) in m.iter() {
                out.push(k.clone());
                keys(v, out);
            }
        }
        Value::Array(a) => a.iter().for_each(|v| keys(v, out)),
        _ => {}
    }
}

#[test]
fn perf_document_passes_every_gate_and_holds_counts_only() {
    let h = Harness::new(Scale::QUICK).with_alloc_probe(support::alloc_probe);
    let doc = perf::run(&h);

    // The in-memory document and its text round-trip must both pass, with
    // the probe on: no allocation gate was skipped.
    assert_eq!(perf::check(&doc), Vec::<String>::new());
    let text = serde_json::to_string_pretty(&doc).unwrap();
    let reloaded: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(perf::check(&reloaded), Vec::<String>::new());
    assert_eq!(reloaded["alloc_probe"].as_bool(), Some(true));

    let names: Vec<&str> = reloaded["rows"]
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r["name"].as_str().unwrap())
        .collect();
    assert_eq!(
        names,
        [
            "incast-heavy",
            "websearch-load",
            "fault-plan",
            "xl-clos-1024/1shard",
            "xl-clos-1024/2shard",
            "xl-flows",
            "accuracy/websearch-0.3",
            "accuracy/incast-8to1",
            "accuracy",
            "train-step",
            "update-round",
            "inference",
        ]
    );

    // Wall-clock numbers come from `benchmark/`, never from here.
    let mut all = Vec::new();
    keys(&reloaded, &mut all);
    let timed: Vec<&String> = all
        .iter()
        .filter(|k| k.contains("wall") || k.ends_with("_per_sec") || k.contains("speedup"))
        .collect();
    assert!(timed.is_empty(), "wall-clock columns: {timed:?}");
}

/// Record one websearch-under-faults run with a fresh online agent (no
/// model cache dependency) and return its run directory.
fn recorded_run(root: &Path) -> PathBuf {
    let h = Harness::new(Scale::QUICK)
        .with_metrics(root, SimTime::from_us(100))
        .experiment("perf-smoke");
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let hosts: Vec<NodeId> = topo.hosts().to_vec();
    let horizon = SimTime::from_ms(4);
    let g = PoissonGen::new(SizeDist::web_search(), 0.6, CcKind::Dcqcn, 77);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);
    let mut sc = h.scenario(&spec, Policy::AccFresh, 5, &arrivals);
    let plan = acc_bench::fault::fault_plan(&topo, horizon, 5);
    sc.sim
        .install_fault_plan(&plan)
        .expect("fault plan validates");
    sc.sim.run_until(horizon + SimTime::from_ms(2));
    drop(sc);
    assert!(!h.metrics_failed(), "clean run flagged a failure");
    let run = only_run_dir(root);
    assert_recorded(&run, &["queues.jsonl", "agents.jsonl", "events.jsonl"]);
    run
}

#[test]
fn recorded_runs_stay_byte_identical_through_the_wheel() {
    let root = fresh_dir("perf-smoke-determinism");
    let d1 = recorded_run(&root.join("a"));
    let d2 = recorded_run(&root.join("b"));
    assert_same_tree(&d1, &d2, "identical seeded runs");

    // The manifest carries the engine counters.
    let m = telemetry::RunManifest::load(&d1.join("manifest.json")).unwrap();
    assert!(m.events_processed > 0, "manifest counted no events");
    assert!(m.events_per_sec > 0.0, "manifest throughput missing");
    assert!(
        m.peak_event_queue > 0,
        "manifest peak_event_queue not populated"
    );
}
