//! Perf-harness smoke tests: `acc-bench perf` writes one gate document that
//! passes [`perf::check`] — the same check the CLI exits on — and holds
//! counts and identities only; and a recorded websearch-under-faults run is
//! byte-identical across repeats (the timing-wheel queue's determinism
//! contract at harness level; the pop-order identity is pinned by the
//! differential proptest in `netsim/tests/properties.rs`) and between the
//! batched kernels ([`Policy::AccFresh`]) and the retained scalar reference
//! ([`Policy::AccFreshScalar`]).
//!
//! The counting `#[global_allocator]` lives here because the library crate
//! forbids `unsafe`; integration tests are separate crates, so this mirrors
//! what the `acc-bench` binary itself installs.

use acc_bench::common::{self, scenario, Policy, Scale};
use acc_bench::perf;
use netsim::prelude::*;
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

struct CountingAlloc;

// Per thread, because "allocations per train step" means allocations the
// train steps make: the harness's other threads (the neighbouring test
// starting or finishing, the main thread printing its result) allocate
// whenever they are scheduled, which on a loaded host is inside the probe
// window — a process-wide counter read 2 to 8 of those as 0.002 to 0.007
// allocations per step. Shard workers and trainer helpers are other threads
// too: what they allocate is counted by the binary's process-wide probe, in
// CI's `acc-bench perf --quick` step.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also serves threads that are shutting down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: delegates directly to the `System` allocator; the counters are
// plain thread-local `Cell`s with no destructor, never allocate, and do not
// affect layout or aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The recording registry is process-wide, so the tests serialise on this
/// lock.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new("target").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
    let _g = lock();
    perf::set_alloc_probe(|| (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get)));
    let dir = fresh_dir("perf-smoke-gates");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_gates.json");
    let doc = perf::run(Scale::QUICK, &out).expect("perf run writes the gate document");

    // The in-memory document and the file round-trip must both pass, with
    // the probe on: no allocation gate was skipped.
    assert_eq!(perf::check(&doc), Vec::<String>::new());
    let text = std::fs::read_to_string(&out).unwrap();
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

/// Record one websearch-under-faults run with a fresh online agent under
/// `policy` (no model cache dependency) and return its run directory.
fn recorded_run(root: &Path, policy: Policy) -> PathBuf {
    common::enable_metrics(root, SimTime::from_us(100));
    common::set_metrics_experiment("perf-smoke");
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let hosts: Vec<NodeId> = topo.hosts().to_vec();
    let horizon = SimTime::from_ms(4);
    let g = PoissonGen::new(SizeDist::web_search(), 0.6, CcKind::Dcqcn, 77);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);
    let mut sc = scenario(&spec, policy, Scale::QUICK, 5, &arrivals);
    let plan = acc_bench::fault::fault_plan(&topo, horizon, 5);
    sc.sim
        .install_fault_plan(&plan)
        .expect("fault plan validates");
    sc.sim.run_until(horizon + SimTime::from_ms(2));
    drop(sc);
    common::disable_metrics();
    let mut runs: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("metrics root exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.join("manifest.json").is_file())
        .collect();
    assert_eq!(runs.len(), 1, "one scenario records exactly one run dir");
    runs.pop().unwrap()
}

/// Every recorded decision, ε, TD-loss and queue sample of `a` and `b` —
/// and hence every byte — must match.
fn assert_same_bytes(a: &Path, b: &Path, what: &str) {
    for f in ["queues.jsonl", "agents.jsonl", "events.jsonl"] {
        let x = std::fs::read(a.join(f)).unwrap();
        let y = std::fs::read(b.join(f)).unwrap();
        assert!(!x.is_empty(), "{f} recorded nothing");
        assert_eq!(x, y, "{f} differs between {what}");
    }
    assert!(!common::metrics_failed(), "clean runs flagged a failure");
}

#[test]
fn recorded_runs_stay_byte_identical_through_the_wheel() {
    let _g = lock();
    let root = fresh_dir("perf-smoke-determinism");
    let d1 = recorded_run(&root.join("a"), Policy::AccFresh);
    let d2 = recorded_run(&root.join("b"), Policy::AccFresh);
    assert_same_bytes(&d1, &d2, "identical seeded runs");

    // The manifest carries the engine counters.
    let m = telemetry::RunManifest::load(&d1.join("manifest.json")).unwrap();
    assert!(m.events_processed > 0, "manifest counted no events");
    assert!(m.events_per_sec > 0.0, "manifest throughput missing");
    assert!(
        m.peak_event_queue > 0,
        "manifest peak_event_queue not populated"
    );
}

#[test]
fn batched_and_scalar_policies_record_byte_identical_runs() {
    let _g = lock();
    let root = fresh_dir("perf-smoke-identity");
    let batched = recorded_run(&root.join("batched"), Policy::AccFresh);
    let scalar = recorded_run(&root.join("scalar"), Policy::AccFreshScalar);
    // Same seeds, same traffic, same faults: the bytes differ only if the
    // batched kernels are not bit-identical to the scalar reference.
    assert_same_bytes(&batched, &scalar, "batched and scalar kernels");
}
