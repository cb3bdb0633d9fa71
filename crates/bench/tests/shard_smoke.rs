//! Sharded-execution smoke tests: the determinism contract of the
//! conservative-lookahead engine, observed end to end through the bench
//! harness's one run path (`Harness::run_to` on a harness with shards, the
//! code `--shards N` runs). A fig12-style WebSearch scenario and the
//! fault-plan scenario must produce byte-identical merged telemetry JSONL —
//! and identical FCT statistics — when run on 1 shard and on 4 shards (the
//! `diff -r` pattern of the run-matrix `--jobs` test, with `manifest.json`
//! excluded because it carries wall-clock fields).
//!
//! CI runs this as part of the test suite alongside the CLI-level
//! `acc-bench fig12 --quick --shards 1/4 --metrics-dir` diff.

mod support;

use acc_bench::common::{Harness, Policy, RunOutcome, Scale};
use netsim::prelude::*;
use std::path::{Path, PathBuf};
use support::{assert_same_tree, fresh_dir};
use transport::CcKind;
use workloads::gen::{Arrival, PoissonGen};
use workloads::SizeDist;

/// Run one recorded scenario on `n_shards` shards, returning the outcome
/// and the numbered run directory the merge wrote.
#[allow(clippy::too_many_arguments)]
fn recorded_sharded(
    root: &Path,
    spec: &TopologySpec,
    policy: Policy,
    seed: u64,
    arrivals: &[Arrival],
    fault_plan: Option<&FaultPlan>,
    n_shards: u32,
    horizon: SimTime,
) -> (RunOutcome, PathBuf) {
    let h = Harness::new(Scale::QUICK)
        .with_metrics(root, SimTime::from_us(100))
        .experiment("shard-smoke")
        .with_shards(n_shards);
    let out = h.run_to(spec, policy, seed, arrivals, fault_plan, &[horizon], |_| {});
    let dir = out
        .metrics_dir
        .clone()
        .expect("armed sharded run records a run dir");
    (out, dir)
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

/// The fig12 determinism scenario: WebSearch on the 96-host quick fabric
/// under online-tuning ACC (per-switch replay, as on every shard), a shorter
/// slice of the real `fig12 --quick` cell so the debug-build test stays
/// fast. Telemetry, agent samples and FCT must not depend on the shard
/// count.
#[test]
fn fig12_scenario_identical_across_shard_counts() {
    let root = fresh_dir("shard-smoke-fig12");
    let spec = TopologySpec::paper_cacc_sim();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let dur = SimTime::from_ms(2);
    let g = PoissonGen::new(SizeDist::web_search(), 0.6, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    let horizon = dur + SimTime::from_ms(4);

    let (r1, d1) = recorded_sharded(
        &root.join("s1"),
        &spec,
        Policy::Acc,
        9,
        &arrivals,
        None,
        1,
        horizon,
    );
    let (r4, d4) = recorded_sharded(
        &root.join("s4"),
        &spec,
        Policy::Acc,
        9,
        &arrivals,
        None,
        4,
        horizon,
    );

    assert_fct_identical(&r1, &r4);
    assert_same_tree(&d1, &d4, "1 and 4 shards");
    assert_eq!(r4.shard_stats.len(), 4);
    assert!(
        r4.remote_events() > 0,
        "4-shard run exchanged no cross-shard events — the partition is trivial"
    );
    let agents = std::fs::read(d1.join("agents.jsonl")).unwrap();
    assert!(!agents.is_empty(), "ACC arm recorded no agent samples");
    let queues = std::fs::read(d1.join("queues.jsonl")).unwrap();
    assert!(!queues.is_empty(), "no queue samples recorded");
}

/// The fault-plan determinism scenario: the testbed fabric under the
/// seeded fault schedule (link flaps, telemetry faults, a reboot) with
/// `policy` on every switch, recorded at each of `shard_counts` and compared
/// against the first. Fault logs and guard events are owner-emitted and
/// merge into an identical event stream at any shard count; guard counters
/// sum over shards to the same totals.
fn fault_scenario_identical(policy: Policy, shard_counts: &[u32]) -> (RunOutcome, PathBuf) {
    let root = fresh_dir(&format!("shard-smoke-fault-{}", policy.name()));
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let hosts: Vec<NodeId> = topo.hosts().to_vec();
    let dur = SimTime::from_ms(8);
    let g = PoissonGen::new(SizeDist::web_search(), 0.5, CcKind::Dcqcn, 300);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    let plan = acc_bench::fault::fault_plan(&topo, dur, acc_bench::fault::FAULT_SEED);
    let horizon = dur + SimTime::from_ms(3);
    let run = |n: u32| {
        recorded_sharded(
            &root.join(format!("s{n}")),
            &spec,
            policy,
            acc_bench::fault::FAULT_SEED,
            &arrivals,
            Some(&plan),
            n,
            horizon,
        )
    };
    let (r1, d1) = run(shard_counts[0]);
    for &n in &shard_counts[1..] {
        let (rn, dn) = run(n);
        assert_eq!(rn.shard_stats.len(), n as usize);
        assert_fct_identical(&r1, &rn);
        assert_eq!(r1.fault_drops, rn.fault_drops);
        assert_eq!(r1.invalid_final_configs, rn.invalid_final_configs);
        assert_eq!(r1.guard, rn.guard, "guard counters at {n} shards");
        assert_same_tree(&d1, &dn, "shard counts");
    }
    (r1, d1)
}

/// A fresh online-tuning agent per switch under the fault plan.
#[test]
fn fault_scenario_identical_across_shard_counts() {
    let (r1, d1) = fault_scenario_identical(Policy::AccFresh, &[1, 4]);
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

/// The guarded arms under the fault plan: on a shard every switch keeps its
/// replay private, so guard verdicts — and the `guard_*` events they put
/// on the timeline — cannot depend on which switches share a process.
#[test]
fn guarded_fault_scenario_identical_across_shard_counts() {
    for policy in [Policy::AccGuarded, Policy::AccMonitored] {
        let (r1, d1) = fault_scenario_identical(policy, &[1, 2, 4]);
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
