//! End-to-end flight-recorder tests over the bench harness: recording is
//! deterministic (byte-identical JSONL across identical seeded runs, one
//! after the other or side by side), the manifest lands next to the
//! time-series, and the disabled path neither records nor perturbs a run.

mod support;

use acc_bench::common::{Harness, Policy, Scale};
use netsim::prelude::*;
use std::path::{Path, PathBuf};
use support::{assert_recorded, assert_same_tree, fresh_dir};
use transport::CcKind;
use workloads::gen;

/// A small deterministic scenario: 8-host single switch, `waves` incast
/// waves, under a fresh harness recording into `metrics` (if any).
fn run_waves(metrics: Option<&Path>, waves: u64) -> (transport::FctSummary, Option<PathBuf>) {
    let mut h = Harness::new(Scale::QUICK);
    if let Some(dir) = metrics {
        h = h.with_metrics(dir, SimTime::from_us(100));
    }
    let spec = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500));
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let mut arrivals = gen::incast_wave(
        &hosts[..4],
        hosts[7],
        2,
        200_000,
        CcKind::Dcqcn,
        SimTime::from_us(100),
    );
    for w in 1..waves {
        arrivals.extend(gen::incast_wave(
            &hosts[..6],
            hosts[7],
            2,
            100_000,
            CcKind::Dcqcn,
            SimTime::from_ms(w),
        ));
    }
    let mut sc = h.scenario(&spec, Policy::AccFresh, 5, &arrivals);
    let run_dir = sc.metrics_dir().map(Path::to_path_buf);
    assert_eq!(run_dir.is_some(), metrics.is_some());
    sc.sim.run_until(SimTime::from_ms(2 + waves));
    let summary = sc.fct.borrow().summary();
    drop(sc); // finalises the manifest
    assert!(!h.metrics_failed(), "clean run flagged a failure");
    (summary, run_dir)
}

fn run_once(metrics: Option<&Path>) -> (transport::FctSummary, Option<PathBuf>) {
    run_waves(metrics, 2)
}

#[test]
fn recorded_runs_are_byte_identical() {
    let root = fresh_dir("telemetry-test-determinism");
    let (s1, d1) = run_once(Some(&root.join("a")));
    let (s2, d2) = run_once(Some(&root.join("b")));
    let (d1, d2) = (d1.unwrap(), d2.unwrap());
    assert_ne!(d1, d2, "each run gets its own directory");

    assert_recorded(&d1, &["queues.jsonl", "agents.jsonl"]);
    assert_same_tree(&d1, &d2, "identical seeded runs");
    assert_eq!(s1.completed, s2.completed);

    // The manifest is parseable and consistent with the run.
    let m = telemetry::RunManifest::load(&d1.join("manifest.json")).unwrap();
    assert_eq!(m.policy, "ACC-fresh");
    assert_eq!(m.seed, 5);
    assert_eq!(m.hosts, 8);
    assert_eq!(m.switches, 1);
    assert_eq!(m.flows_total, s1.total);
    assert!(m.queue_samples > 0, "queue sampler produced no rows");
    assert!(m.agent_samples > 0, "agent recorder produced no rows");
    assert!(m.events_processed > 0);
}

/// Recording is a property of a harness, not of the process: two harnesses
/// recording different runs into two directories from two threads at once
/// write what the same two runs write one after the other.
#[test]
fn concurrent_harnesses_record_what_sequential_ones_do() {
    let root = fresh_dir("telemetry-test-concurrent");
    for waves in [2, 3] {
        run_waves(Some(&root.join(format!("seq{waves}"))), waves);
    }
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for waves in [2, 3] {
            let (root, barrier) = (&root, &barrier);
            s.spawn(move || {
                barrier.wait();
                run_waves(Some(&root.join(format!("par{waves}"))), waves);
            });
        }
    });
    for waves in [2, 3] {
        let seq = root.join(format!("seq{waves}"));
        assert_recorded(
            &support::only_run_dir(&seq),
            &["queues.jsonl", "agents.jsonl"],
        );
        assert_same_tree(
            &seq,
            &root.join(format!("par{waves}")),
            "sequential and concurrent harnesses",
        );
    }
    let queues = |sub: &str| {
        std::fs::read(support::only_run_dir(&root.join(sub)).join("queues.jsonl")).unwrap()
    };
    assert!(
        queues("seq2") != queues("seq3"),
        "the two runs must not be the same run"
    );
}

#[test]
fn disabled_path_records_nothing_and_matches_recorded_results() {
    let root = fresh_dir("telemetry-test-disabled");
    let (plain, no_dir) = run_once(None);
    assert!(no_dir.is_none());
    assert!(!root.exists(), "disabled run must not create metrics dirs");

    // Recording is observation only: the simulated outcome is unchanged.
    let (recorded, dir) = run_once(Some(&root));
    assert!(dir.unwrap().join("manifest.json").is_file());
    assert_eq!(plain.total, recorded.total);
    assert_eq!(plain.completed, recorded.completed);
    assert_eq!(plain.overall.avg_us, recorded.overall.avg_us);
    assert_eq!(plain.overall.max_us, recorded.overall.max_us);
}

/// A second invocation into the same `--metrics-dir` (a fresh harness, its
/// counter back at zero) must not clobber the runs an earlier one recorded:
/// counter-derived names probe forward past existing directories.
#[test]
fn rearming_used_metrics_dir_probes_past_existing_runs() {
    let root = fresh_dir("telemetry-test-rearm");
    let (_, d1) = run_once(Some(&root));
    let d1 = d1.unwrap();
    // Taint the first recording so truncation would be detectable even
    // though identical seeds reproduce identical bytes.
    let marker = b"MARKER: first recording must survive\n".to_vec();
    let mut q1 = std::fs::read(d1.join("queues.jsonl")).unwrap();
    q1.extend_from_slice(&marker);
    std::fs::write(d1.join("queues.jsonl"), &q1).unwrap();

    let (_, d2) = run_once(Some(&root));
    let d2 = d2.unwrap();
    assert_ne!(d1, d2, "second run must get a fresh directory");
    assert!(d2.join("manifest.json").is_file());
    let q1_after = std::fs::read(d1.join("queues.jsonl")).unwrap();
    assert_eq!(q1, q1_after, "earlier recording was truncated or rewritten");
}
