//! One packet engine, observed end to end through the bench harness's one
//! run path (`Harness::run_to`, the code `--shards N` runs):
//!
//! * an unsharded run is a one-shard run — the fault scenario under the
//!   ACC arms gives the same counters, flow records and JSONL either way;
//! * a static arm does not depend on the shard count — the fig12 scenario
//!   under SECN1 gives the same FCT statistics and queue JSONL unsharded
//!   and on 2 shards;
//! * an ACC arm, whose replay is private per switch on two or more shards,
//!   gives byte-identical merged telemetry JSONL and identical FCT
//!   statistics on 2 and 4 shards (the `diff -r` pattern of the run-matrix
//!   `--jobs` test, with `manifest.json` excluded because it carries
//!   wall-clock fields).
//!
//! CI runs this as part of the test suite alongside the CLI-level
//! `acc-bench fig12 --quick` diffs (unsharded against `--shards 1`, 2
//! against 4 shards).

mod support;

use acc_bench::common::{Harness, Policy, RunOutcome, Scale};
use netsim::prelude::*;
use std::path::{Path, PathBuf};
use support::{assert_same_tree, fresh_dir};
use transport::CcKind;
use workloads::gen::{Arrival, PoissonGen};
use workloads::SizeDist;

/// Run one recorded scenario on `shards` shards (unsharded for `None`),
/// returning the outcome and the numbered run directory it wrote.
#[allow(clippy::too_many_arguments)]
fn recorded(
    root: &Path,
    spec: &TopologySpec,
    policy: Policy,
    seed: u64,
    arrivals: &[Arrival],
    fault_plan: Option<&FaultPlan>,
    shards: Option<u32>,
    horizon: SimTime,
) -> (RunOutcome, PathBuf) {
    let mut h = Harness::new(Scale::QUICK)
        .with_metrics(root, SimTime::from_us(100))
        .experiment("shard-smoke");
    if let Some(n) = shards {
        h = h.with_shards(n);
    }
    let out = h.run_to(spec, policy, seed, arrivals, fault_plan, &[horizon], |_| {});
    let dir = out
        .metrics_dir
        .clone()
        .expect("an armed run records a run dir");
    (out, dir)
}

/// The bytes of `dir/file`.
fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{}: {e}", dir.join(file).display()))
}

/// FCT statistics that must match exactly across shard counts (merged
/// records are identical, so every derived f64 must be too).
fn assert_fct_identical(a: &RunOutcome, b: &RunOutcome) {
    let (sa, sb) = (a.fct.summary(), b.fct.summary());
    assert_eq!(sa.total, sb.total);
    assert_eq!(sa.completed, sb.completed);
    let (ta, tb) = (a.fct.stats(|_| true), b.fct.stats(|_| true));
    assert_eq!(ta.count, tb.count);
    assert_eq!(ta.avg_us, tb.avg_us);
    assert_eq!(ta.p99_us, tb.p99_us);
    assert_eq!(ta.p999_us, tb.p999_us);
}

/// The fig12 scenario: WebSearch on the 96-host quick fabric, a shorter
/// slice of the real `fig12 --quick` cell so the debug-build test stays
/// fast.
fn fig12_scenario() -> (TopologySpec, Vec<Arrival>, SimTime) {
    let spec = TopologySpec::paper_cacc_sim();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let dur = SimTime::from_ms(2);
    let g = PoissonGen::new(SizeDist::web_search(), 0.6, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    (spec, arrivals, dur + SimTime::from_ms(4))
}

/// The fig12 scenario under online-tuning ACC (per-switch replay, as on
/// two or more shards): telemetry, agent samples and FCT must not depend
/// on the shard count.
#[test]
fn fig12_scenario_identical_across_shard_counts() {
    let root = fresh_dir("shard-smoke-fig12");
    let (spec, arrivals, horizon) = fig12_scenario();
    let run = |n: u32| {
        let dir = root.join(format!("s{n}"));
        recorded(
            &dir,
            &spec,
            Policy::Acc,
            9,
            &arrivals,
            None,
            Some(n),
            horizon,
        )
    };
    let ((r2, d2), (r4, d4)) = (run(2), run(4));

    assert_fct_identical(&r2, &r4);
    assert_same_tree(&d2, &d4, "2 and 4 shards");
    assert_eq!(r4.shard_stats.len(), 4);
    assert!(
        r4.remote_events() > 0,
        "4-shard run exchanged no cross-shard events — the partition is trivial"
    );
    assert!(
        !read(&d2, "agents.jsonl").is_empty(),
        "ACC arm recorded no agent samples"
    );
    assert!(
        !read(&d2, "queues.jsonl").is_empty(),
        "no queue samples recorded"
    );
}

/// A static arm shares nothing between switches, so it is the same run at
/// every shard count: the fig12 scenario under SECN1, unsharded and on 2
/// shards.
#[test]
fn static_arm_does_not_depend_on_the_shard_count() {
    let root = fresh_dir("shard-smoke-secn1");
    let (spec, arrivals, horizon) = fig12_scenario();
    let run = |shards: Option<u32>| {
        let dir = root.join(format!("{shards:?}"));
        recorded(
            &dir,
            &spec,
            Policy::Secn1,
            9,
            &arrivals,
            None,
            shards,
            horizon,
        )
    };
    let ((ru, du), (r2, d2)) = (run(None), run(Some(2)));
    assert!(ru.shard_stats.is_empty());
    assert!(r2.remote_events() > 0, "the partition is trivial");
    assert_fct_identical(&ru, &r2);
    assert!(ru.fct.summary().completed > 0, "no flows completed");
    assert!(
        read(&du, "queues.jsonl") == read(&d2, "queues.jsonl"),
        "queues.jsonl differs unsharded and on 2 shards"
    );
}

/// The fault-plan scenario: the testbed fabric under the seeded fault
/// schedule (link flaps, telemetry faults, a reboot) with `policy` on every
/// switch, recorded into `root` on `shards` shards.
fn fault_run(root: &Path, policy: Policy, shards: Option<u32>) -> (RunOutcome, PathBuf) {
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let hosts: Vec<NodeId> = topo.hosts().to_vec();
    let dur = SimTime::from_ms(8);
    let g = PoissonGen::new(SizeDist::web_search(), 0.5, CcKind::Dcqcn, 300);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    let plan = acc_bench::fault::fault_plan(&topo, dur, acc_bench::fault::FAULT_SEED);
    let horizon = dur + SimTime::from_ms(3);
    recorded(
        &root.join(format!("{shards:?}")),
        &spec,
        policy,
        acc_bench::fault::FAULT_SEED,
        &arrivals,
        Some(&plan),
        shards,
        horizon,
    )
}

/// The fault scenario recorded at each of `shard_counts` and compared
/// against the first. Fault logs and guard events are owner-emitted and
/// merge into an identical event stream at any shard count; guard counters
/// sum over shards to the same totals.
fn fault_scenario_identical(policy: Policy, shard_counts: &[u32]) -> (RunOutcome, PathBuf) {
    let root = fresh_dir(&format!("shard-smoke-fault-{}", policy.name()));
    let (r1, d1) = fault_run(&root, policy, Some(shard_counts[0]));
    for &n in &shard_counts[1..] {
        let (rn, dn) = fault_run(&root, policy, Some(n));
        assert_eq!(rn.shard_stats.len(), n as usize);
        assert_fct_identical(&r1, &rn);
        assert_eq!(r1.fault_drops, rn.fault_drops);
        assert_eq!(r1.invalid_final_configs, rn.invalid_final_configs);
        assert_eq!(r1.guard, rn.guard, "guard counters at {n} shards");
        assert_same_tree(&d1, &dn, "shard counts");
    }
    (r1, d1)
}

/// Every flow record, in flow-id order.
fn sorted_records(out: &RunOutcome) -> Vec<String> {
    let mut recs: Vec<_> = out.fct.records().copied().collect();
    recs.sort_by_key(|r| r.flow.0);
    recs.iter().map(|r| format!("{r:?}")).collect()
}

/// An unsharded run is the one-shard run, ACC arms included: one shard
/// holds every switch, so the replay is shared either way. The streamed
/// timeline (unsharded) and the merged one (one shard) order same-instant
/// lines differently, so `events.jsonl` is compared as sorted lines.
#[test]
fn unsharded_run_is_the_one_shard_run() {
    for policy in [Policy::AccFresh, Policy::AccGuarded] {
        let root = fresh_dir(&format!("shard-smoke-one-{}", policy.name()));
        let (ru, du) = fault_run(&root, policy, None);
        let (r1, d1) = fault_run(&root, policy, Some(1));
        let name = policy.name();
        assert!(ru.shard_stats.is_empty() && r1.shard_stats.len() == 1);
        assert_eq!(ru.fault_drops, r1.fault_drops, "{name}");
        assert_eq!(ru.guard, r1.guard, "{name}");
        assert_eq!(ru.invalid_final_configs, r1.invalid_final_configs, "{name}");
        assert_eq!(sorted_records(&ru), sorted_records(&r1), "{name}");
        for file in ["queues.jsonl", "agents.jsonl"] {
            assert!(read(&du, file) == read(&d1, file), "{name}: {file} differs");
        }
        let lines = |dir: &Path| {
            let text = String::from_utf8(read(dir, "events.jsonl")).unwrap();
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines.sort();
            lines
        };
        let events = lines(&du);
        assert!(events.len() > 10, "{name}: the fault timeline is empty");
        assert_eq!(events, lines(&d1), "{name}: events.jsonl differs");
    }
}

/// A fresh online-tuning agent per switch under the fault plan.
#[test]
fn fault_scenario_identical_across_shard_counts() {
    let (r1, d1) = fault_scenario_identical(Policy::AccFresh, &[2, 4]);
    assert!(
        r1.guard.is_none(),
        "unguarded arm reports no guard counters"
    );

    // Every injected fault reached the merged event stream exactly once.
    let events = std::fs::read_to_string(d1.join("events.jsonl")).unwrap();
    for kind in ["link_down", "link_up", "telem_freeze", "switch_reboot"] {
        assert!(events.contains(kind), "events.jsonl missing fault '{kind}'");
    }
    assert!(
        r1.fault_drops > 0,
        "the fault schedule dropped no packets — it lost its teeth"
    );
}

/// The guarded arms under the fault plan: on two or more shards every
/// switch keeps its replay private, so guard verdicts — and the `guard_*`
/// events they put on the timeline — cannot depend on which switches share
/// a process.
#[test]
fn guarded_fault_scenario_identical_across_shard_counts() {
    for policy in [Policy::AccGuarded, Policy::AccMonitored] {
        let (r1, d1) = fault_scenario_identical(policy, &[2, 4]);
        let guard = r1.guard.expect("guarded arm sums its guard counters");
        // 220 control ticks on each of the six switches.
        assert_eq!(guard.ticks, 6 * 220, "{}", policy.name());
        assert!(guard.violations_detected > 0, "{}", policy.name());
        let events = std::fs::read_to_string(d1.join("events.jsonl")).unwrap();
        assert!(
            events.contains("guard_violation"),
            "{}: guard events missing from the merged timeline",
            policy.name()
        );
        if policy == Policy::AccGuarded {
            assert_eq!(guard.violations_applied, 0, "enforcing guard");
            assert_eq!(r1.invalid_final_configs, 0);
        }
    }
}

/// The fig13 heterogeneous-traffic scenario (per-segment loads drawn from
/// a seeded RNG, the shape `fig13 --shards N` now routes through the
/// sharded engine) must produce identical FCT statistics on 1 and 2
/// shards.
#[test]
fn fig13_scenario_identical_across_shard_counts() {
    let spec = TopologySpec::paper_cacc_sim();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    // Two 1 ms segments at different loads — a short slice of the real
    // fig13 --quick cell so the debug-build test stays fast.
    let seg = SimTime::from_ms(1);
    let mut arrivals = Vec::new();
    for (i, load) in [0.6, 0.9].into_iter().enumerate() {
        let g = PoissonGen::new(
            SizeDist::web_search(),
            load,
            CcKind::Dcqcn,
            100_000 + i as u64,
        );
        arrivals.extend(g.generate(&hosts, 25_000_000_000, seg.mul(i as u64), seg));
    }
    let horizon = seg.mul(2) + SimTime::from_ms(4);
    let run = |n| {
        Harness::new(Scale::QUICK).with_shards(n).run_to(
            &spec,
            Policy::Secn1,
            100,
            &arrivals,
            None,
            &[horizon],
            |_| {},
        )
    };
    let (r1, r2) = (run(1), run(2));
    assert_fct_identical(&r1, &r2);
    assert_eq!(r2.shard_stats.len(), 2);
    assert!(r1.fct.summary().completed > 0, "no flows completed");
}
