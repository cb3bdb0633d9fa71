//! `acc-bench perf` — the flow backend's accuracy envelope.
//!
//! One command, one document (`acc-bench-gates/v1`), five bounds ([`GATES`]).
//! The rows run two seeded scenarios on the packet engine and on the
//! hybrid-fidelity flow backend (`netsim::flowsim`) and compare their flow
//! completion times: one `accuracy/<scenario>` row per scenario and an
//! `accuracy` row holding the worst of each.
//!
//! The engine's counts — allocations per event in steady state, events per
//! flow, peak queue depth, slab slots, ports held, remote events — are held
//! at quick and full scale by the release test `engine_counts`, and the
//! DDQN kernels' by tests in `rl` and `acc-core`. No column here is a
//! wall-clock time or a rate: those come from `benchmark/` (alternating
//! pairs, host-speed normalised), and this module reads no clock.

use crate::common::{self, Harness, Policy, Scale};
use netsim::flowsim::{FlowSim, FlowSimConfig};
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::{CcKind, FctCollector};
use workloads::gen::{incast_wave, Arrival, PoissonGen};
use workloads::{to_flow_specs, SizeDist};

/// Schema tag of the gate document.
pub const SCHEMA: &str = "acc-bench-gates/v1";

/// Seed of both backends' runs.
const SEED: u64 = 7;

/// One packet-vs-hybrid accuracy scenario: an arrival list plus the horizon
/// both backends run to (long enough that every flow completes, so the
/// percentiles compare identical flow populations).
struct AccuracyScenario {
    name: &'static str,
    spec: TopologySpec,
    arrivals: Vec<Arrival>,
    horizon: SimTime,
}

/// The two seeded validation scenarios the accuracy gates run.
fn accuracy_scenarios(scale: Scale) -> [AccuracyScenario; 2] {
    // WebSearch at 0.3 load through one switch: mostly-uncontended
    // heavy-tailed traffic, the fast-path regime.
    let websearch = {
        let spec = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500));
        let hosts = spec.build().hosts().to_vec();
        let dur = scale.pick(SimTime::from_ms(10), SimTime::from_ms(3));
        let g = PoissonGen::new(SizeDist::web_search(), 0.3, CcKind::Dcqcn, 11);
        AccuracyScenario {
            name: "websearch-0.3",
            arrivals: g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur),
            spec,
            horizon: dur + SimTime::from_ms(60),
        }
    };
    // 8-to-1 incast, three 64 KB partition-aggregate waves: every flow
    // contended at the receiver port, the saturated max-min regime.
    // Waves stay in the 64–100 KB range where packet DCQCN runs the
    // bottleneck at ~full utilisation; multi-MB incasts sit in the
    // post-burst convergence transient the flow model deliberately
    // collapses (a documented divergence, see the flowsim module docs)
    // and are out of the fidelity envelope this gate certifies.
    let incast = {
        let spec = TopologySpec::single_switch(9, 25_000_000_000, SimTime::from_ns(500));
        let hosts = spec.build().hosts().to_vec();
        let mut arrivals = Vec::new();
        for w in 0..3u64 {
            arrivals.extend(incast_wave(
                &hosts[..8],
                hosts[8],
                2,
                64_000,
                CcKind::Dcqcn,
                SimTime::from_ms(1).mul(w),
            ));
        }
        AccuracyScenario {
            name: "incast-8to1",
            spec,
            arrivals,
            horizon: SimTime::from_ms(10),
        }
    };
    [websearch, incast]
}

/// Relative error of `measured` against reference `truth`.
fn rel_err(measured: f64, truth: f64) -> f64 {
    ((measured - truth) / truth.max(1e-9)).abs()
}

/// The packet-vs-hybrid accuracy rows: one `accuracy/<scenario>` row per
/// validation scenario (FCT p50/p99 of both backends, their relative error,
/// and the packet engine's events per simulated second over the hybrid
/// backend's) and the `accuracy` row holding the worst of each. Both
/// backends run SECN1, installed through the same policy table. Each row
/// finished is a `[perf]` line on stderr.
fn accuracy_rows(h: &Harness) -> Vec<Value> {
    let scale = h.scale;
    let mut rows = Vec::new();
    let (mut max_p50, mut max_p99) = (0f64, 0f64);
    let mut min_avoidance = f64::INFINITY;
    for sc in accuracy_scenarios(scale) {
        let mut packet = h.scenario(&sc.spec, Policy::Secn1, SEED, &sc.arrivals);
        packet.sim.run_until(sc.horizon);
        let p = packet.fct.borrow().stats(|_| true);
        let p_events = packet.sim.core().events_processed;

        let mut hybrid = FlowSim::new(sc.spec.build(), FlowSimConfig::default());
        common::install_policy(&mut hybrid, Policy::Secn1, scale);
        hybrid.schedule_flows(&to_flow_specs(&sc.arrivals));
        hybrid.run_until(sc.horizon);
        let fct = FctCollector::new_shared();
        fct.borrow_mut().register_flowsim(hybrid.completions());
        let h = fct.borrow().stats(|_| true);
        let h_events = hybrid.stats().events_processed;
        assert_eq!(
            p.count, h.count,
            "{}: both backends must complete every flow inside the horizon",
            sc.name
        );

        let e50 = rel_err(h.p50_us, p.p50_us);
        let e99 = rel_err(h.p99_us, p.p99_us);
        let p_rate = p_events as f64 / packet.sim.now().as_secs_f64().max(1e-12);
        let h_rate = h_events as f64 / hybrid.now().as_secs_f64().max(1e-12);
        let avoidance = p_rate / h_rate.max(1e-9);
        max_p50 = max_p50.max(e50);
        max_p99 = max_p99.max(e99);
        min_avoidance = min_avoidance.min(avoidance);
        let name = format!("accuracy/{}", sc.name);
        eprintln!("[perf] {name}");
        rows.push(json!({
            "name": name,
            "flows": p.count,
            "packet": {"p50_us": p.p50_us, "p99_us": p.p99_us, "events": p_events},
            "hybrid": {"p50_us": h.p50_us, "p99_us": h.p99_us, "events": h_events},
            "p50_rel_err": e50,
            "p99_rel_err": e99,
            "cost_avoidance": avoidance,
        }));
    }
    rows.push(json!({
        "name": "accuracy",
        "max_p50_rel_err": max_p50,
        "max_p99_rel_err": max_p99,
        "cost_avoidance": min_avoidance,
    }));
    rows
}

/// Every bound `acc-bench perf` enforces, on both scales: the row, the
/// column, the bound as it reads, and whether a value meets it.
pub const GATES: [(&str, &str, &str, fn(f64) -> bool); 5] = [
    ("accuracy/websearch-0.3", "flows", "> 0", |n| n > 0.0),
    ("accuracy/incast-8to1", "flows", "> 0", |n| n > 0.0),
    ("accuracy", "max_p50_rel_err", "<= 0.05", |e| e <= 0.05),
    ("accuracy", "max_p99_rel_err", "<= 0.05", |e| e <= 0.05),
    ("accuracy", "cost_avoidance", ">= 20", |x| x >= 20.0),
];

/// Each gate of [`GATES`] by name (`"<row>: <column> <bound>"`), with the
/// value it read when it holds, else why it does not.
fn verdicts(doc: &Value) -> Vec<(String, Result<f64, String>)> {
    let rows = common::rows(doc, "rows");
    GATES
        .iter()
        .map(|&(row, column, bound, holds)| {
            let found = rows.iter().find(|r| r["name"].as_str() == Some(row));
            let got = match found.map(|r| r[column].as_f64()) {
                None => Err("row missing".to_string()),
                Some(None) => Err("column missing".to_string()),
                Some(Some(v)) if holds(v) => Ok(v),
                Some(Some(v)) => Err(format!("got {v}")),
            };
            (format!("{row}: {column} {bound}"), got)
        })
        .collect()
}

/// Everything wrong with a gate document: its schema tag, and every gate of
/// [`GATES`] it fails, by name. Empty means the document passes.
pub fn check(doc: &Value) -> Vec<String> {
    let mut failed = Vec::new();
    if doc["schema"].as_str() != Some(SCHEMA) {
        failed.push(format!("schema is not {SCHEMA}"));
    }
    for (gate, got) in verdicts(doc) {
        if let Err(why) = got {
            failed.push(format!("{gate}: {why}"));
        }
    }
    failed
}

/// Run every row and return the document; [`check`] says whether it
/// passes, [`show`] prints it.
pub fn run(h: &Harness) -> Value {
    json!({
        "schema": SCHEMA,
        "scale": h.scale.pick("full", "quick"),
        "rows": accuracy_rows(h),
    })
}

/// Print a gate document: its rows, every column of them, one table per
/// run of rows with the same columns; then every gate of [`GATES`] with its
/// verdict and the value it read (or why it failed).
pub fn show(doc: &Value) {
    let rows = common::rows(doc, "rows");
    for same in rows.chunk_by(|a, b| common::paths(a) == common::paths(b)) {
        println!();
        common::print_table(same, &common::paths(&same[0]));
    }
    let gates: Vec<Value> = verdicts(doc)
        .into_iter()
        .map(|(gate, got)| {
            let (verdict, got) = match got {
                Ok(v) => ("ok", json!(v)),
                Err(why) => ("FAIL", json!(why)),
            };
            json!({"gate": gate, "verdict": verdict, "got": got})
        })
        .collect();
    println!();
    common::print_table(&gates, &["gate", "verdict", "got"]);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn rel_err_is_symmetric_around_truth() {
        assert!(rel_err(105.0, 100.0) - 0.05 < 1e-12);
        assert!(rel_err(95.0, 100.0) - 0.05 < 1e-12);
        assert_eq!(rel_err(100.0, 100.0), 0.0);
    }

    /// A document that passes every gate.
    pub(crate) fn clean() -> Value {
        json!({
            "schema": SCHEMA,
            "scale": "quick",
            "rows": [
                {"name": "accuracy/websearch-0.3", "flows": 9u64},
                {"name": "accuracy/incast-8to1", "flows": 48u64},
                {
                    "name": "accuracy", "max_p50_rel_err": 0.009,
                    "max_p99_rel_err": 0.001, "cost_avoidance": 33.4,
                },
            ],
        })
    }

    /// Column `column` of row `name` of `doc`.
    pub(crate) fn cell<'a>(doc: &'a mut Value, name: &str, column: &str) -> &'a mut Value {
        let Value::Object(doc) = doc else {
            panic!("document is an object")
        };
        let Some(Value::Array(rows)) = doc.get_mut("rows") else {
            panic!("rows is an array")
        };
        let row = rows
            .iter_mut()
            .find(|r| r["name"].as_str() == Some(name))
            .unwrap_or_else(|| panic!("fixture lacks row {name}"));
        let Value::Object(row) = row else {
            panic!("row is an object")
        };
        row.get_mut(column)
            .unwrap_or_else(|| panic!("fixture lacks {name}.{column}"))
    }

    #[test]
    fn clean_document_passes() {
        assert_eq!(check(&clean()), Vec::<String>::new());
    }

    #[test]
    fn each_violated_gate_is_reported_by_name() {
        for (row, column, bound, holds) in GATES {
            let bad = [-1.0, 1e9].into_iter().find(|&v| !holds(v)).unwrap();
            let mut doc = clean();
            *cell(&mut doc, row, column) = json!(bad);
            assert_eq!(
                check(&doc),
                [format!("{row}: {column} {bound}: got {bad}")],
                "{row}.{column} = {bad}"
            );
        }
    }

    #[test]
    fn structural_failures_are_reported() {
        let says = |doc: &Value, what: &str| {
            let failed = check(doc);
            assert!(
                failed.iter().any(|f| f.contains(what)),
                "{what:?} not in {failed:?}"
            );
        };
        // Another schema, and a document with no rows at all.
        let mut doc = clean();
        if let Value::Object(d) = &mut doc {
            d.insert("schema".into(), json!("acc-bench-perf/v4"));
        }
        says(&doc, "schema is not acc-bench-gates/v1");
        let empty = json!({"schema": SCHEMA});
        assert_eq!(check(&empty).len(), GATES.len(), "every row is missing");
        says(&empty, "accuracy: cost_avoidance >= 20: row missing");
        // A row without its column.
        let mut doc = clean();
        *cell(&mut doc, "accuracy", "max_p99_rel_err") = Value::Null;
        says(&doc, "accuracy: max_p99_rel_err <= 0.05: column missing");
    }
}
