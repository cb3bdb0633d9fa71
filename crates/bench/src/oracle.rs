//! Reward oracle — what the paper's reward (§3.3, eq. 2) pays each fixed
//! ECN configuration, next to the FCTs that configuration gives.
//!
//! Every entry of the 20-template action space is held static on the
//! fig12 WebSearch fabric at 60 % and 90 % load, on the fig7 end-to-end
//! switch at 60 % and on the fig17 dumbbell (6 senders × 4 long DCQCN
//! flows into one port: the one-bottleneck setup of Gomez et al., where
//! the best template is the known answer a learner should reach), beside
//! SECN1, SECN2, ACC and ACC-fresh. Every row is one [`common::score`]
//! call from t = 0: the mean reward per busy queue interval is what the
//! agent would be paid for holding that configuration. This is the
//! known-best static yardstick of Gomez et al. (arXiv:1909.08386). If the
//! shallow template 0 earns less than the deep ones, the reward ranks deep
//! queues first and the learner is right to follow it; if it earns more,
//! the learner is at fault.
//!
//! The `incast 6x4 converged` rows are the yardstick every learner fix is
//! read against: the dumbbell run for 2 s at either scale and scored over
//! its last 100 ms, template 0 beside ACC-fresh at agent seeds 13–15, with
//! each ACC row's decisions by template.

use crate::common::{self, Arm, Harness, MatrixCell, Policy};
use crate::{fig07_fct_load, fig12_websearch};
use acc_core::{controller, ActionSpace};
use netsim::prelude::*;
use serde_json::{json, Value};
use std::sync::Arc;

/// The agent seeds of the converged dumbbell's ACC-fresh rows.
const CONVERGED_SEEDS: [u64; 3] = [13, 14, 15];

/// The converged dumbbell's length, at either scale.
const CONVERGED: SimTime = SimTime::from_ms(2_000);

/// The span at the end of the converged dumbbell that is scored.
const CONVERGED_SCORED: SimTime = SimTime::from_ms(100);

/// One scenario of the oracle: its topology, arrivals and horizon, where
/// its scored window starts, the engine seed and the arms it runs.
struct OracleScenario {
    name: &'static str,
    traffic: (TopologySpec, Vec<workloads::gen::Arrival>, SimTime),
    from: SimTime,
    seed: u64,
    arms: Vec<Arm>,
}

/// Score one arm on one scenario and return its row; template rows carry
/// their config.
fn run_cell(h: &Harness, s: &OracleScenario, arm: &Arm) -> Value {
    let ecn = match *arm {
        Arm::Static(_, ecn) => Some(ecn),
        _ => None,
    };
    let head = json!({
        "scenario": s.name,
        "arm": arm.label(),
        "kmin_bytes": ecn.map(|e| e.kmin_bytes),
        "kmax_bytes": ecn.map(|e| e.kmax_bytes),
        "pmax": ecn.map(|e| e.pmax),
    });
    let (spec, arrivals, horizon) = &s.traffic;
    let cfg = common::sim_config(s.seed);
    common::with(
        head,
        common::score(h, (spec, arrivals, cfg), arm, s.from..*horizon),
    )
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let templates = ActionSpace::templates().actions().to_vec();
    let every_arm: Vec<Arm> = (templates.into_iter().enumerate())
        .map(|(i, ecn)| Arm::Static(format!("T{i}"), ecn))
        .chain([Policy::Secn1, Policy::Secn2, Policy::Acc, Policy::AccFresh].map(Arm::Policy))
        .collect();
    let fresh = |seed| {
        let install = move |sim: &mut Simulator| {
            let cfg = common::acc_config(seed);
            controller::install_acc(sim, &cfg, &ActionSpace::templates());
        };
        Arm::Acc(
            format!("{} s{seed}", Policy::AccFresh.name()),
            Arc::new(install),
        )
    };
    let converged: Vec<Arm> = std::iter::once(every_arm[0].clone())
        .chain(CONVERGED_SEEDS.map(fresh))
        .collect();
    let dumbbell = |horizon| {
        let (spec, arrivals) = common::sustained_incast_traffic(6, 4);
        (spec, arrivals, horizon)
    };
    let incast = dumbbell(SimTime::from_ms(h.scale.pick(200, 60)));
    // Every arm on each scenario, scored from t = 0 …
    let scenarios = [
        ("fig12 60%", fig12_websearch::scenario(h.scale, 0.6), 9),
        ("fig12 90%", fig12_websearch::scenario(h.scale, 0.9), 9),
        ("fig7 60%", fig07_fct_load::scenario(h.scale, 0.6), 7),
        ("incast 6x4", incast, 17),
    ]
    .map(|(name, traffic, seed)| OracleScenario {
        name,
        traffic,
        from: SimTime::ZERO,
        seed,
        arms: every_arm.clone(),
    });
    // … then the converged dumbbell, scored over its last 100 ms.
    let converged = OracleScenario {
        name: "incast 6x4 converged",
        traffic: dumbbell(CONVERGED),
        from: CONVERGED - CONVERGED_SCORED,
        seed: 17,
        arms: converged,
    };
    let mut cells = Vec::new();
    for s in scenarios.iter().chain([&converged]) {
        for arm in &s.arms {
            let label = format!("oracle {} {}", s.name, arm.label());
            cells.push(MatrixCell::new(label, move |h| run_cell(h, s, arm)));
        }
    }
    json!({ "rows": h.run_matrix(cells) })
}

/// Print one table per scenario — each arm's mean reward per busy queue
/// interval under the three weightings, the busy-interval count, goodput,
/// queue depth and FCTs — then name the arm the paper's reward ranks first
/// and the arm with the shortest mice tail (a row with no finished flow has
/// none), give every non-template row's `reward_w07` as a fraction of the
/// best template's, and tabulate the ACC rows' decisions by template: the
/// share of scored intervals each template was held, and the mean of the
/// agent's own reward while it was.
pub fn show(v: &Value) {
    let rows = common::rows(v, "rows");
    let mut names: Vec<&str> = rows.iter().filter_map(|r| r["scenario"].as_str()).collect();
    names.dedup();
    for name in names {
        println!("\n-- {name} --");
        let table: Vec<Value> = rows
            .iter()
            .filter(|r| r["scenario"].as_str() == Some(name))
            .cloned()
            .collect();
        common::print_table(
            &table,
            &[
                "scenario",
                "arm",
                "kmin_bytes",
                "kmax_bytes",
                "pmax",
                "reward_w07",
                "reward_w05",
                "reward_w03",
                "busy_intervals",
                "goodput_gbps",
                "avg_queue_kb",
                "overall.avg_us",
                "mice.avg_us",
                "mice.p99_us",
                "elephant.avg_us",
                "unfinished",
            ],
        );
        let named = |best: Option<(&Value, f64)>| {
            best.map_or("-".to_string(), |(r, x)| {
                format!("{} ({})", common::cell(&r["arm"]), common::cell(&json!(x)))
            })
        };
        let highest = |x, b| x > b;
        println!(
            "highest reward_w07: {}; lowest mice.p99_us: {}",
            named(best_of(&table, "reward_w07", highest)),
            named(best_of(&table, "mice.p99_us", |x, b| x < b))
        );
        // Template rows carry their config; the other rows do not.
        let (templates, others): (Vec<&Value>, Vec<&Value>) =
            table.iter().partition(|r| !r["kmin_bytes"].is_null());
        let best = best_of(templates, "reward_w07", highest).map_or(f64::NAN, |(_, x)| x);
        let ratios: Vec<String> = others
            .iter()
            .map(|r| {
                let x = common::num(&r["reward_w07"]) / best;
                format!("{} {}", common::cell(&r["arm"]), common::cell(&json!(x)))
            })
            .collect();
        println!("reward_w07 / best template's: {}", ratios.join("; "));
        let acc: Vec<&Value> = (table.iter())
            .filter(|r| !common::rows(r, "by_action").is_empty())
            .collect();
        let Some(first) = acc.first() else {
            continue;
        };
        println!("decisions by template");
        let by_template: Vec<Value> = (0..common::rows(first, "by_action").len())
            .map(|i| {
                let row = json!({ "template": i });
                acc.iter().fold(row, |row, r| {
                    common::with(row, json!({ common::cell(&r["arm"]): r["by_action"][i] }))
                })
            })
            .collect();
        let columns = acc.iter().flat_map(|r| {
            let arm = common::cell(&r["arm"]);
            [format!("{arm}.held_frac"), format!("{arm}.own_reward")]
        });
        let columns: Vec<String> = std::iter::once("template".into()).chain(columns).collect();
        common::print_table(&by_template, &columns);
    }
}

/// The row of `rows` whose number at `path` is `better` than every other
/// row's, with that number; rows without one are skipped.
fn best_of<'a>(
    rows: impl IntoIterator<Item = &'a Value>,
    path: &str,
    better: fn(f64, f64) -> bool,
) -> Option<(&'a Value, f64)> {
    let mut best: Option<(&Value, f64)> = None;
    for r in rows {
        let x = common::at(r, path).map_or(f64::NAN, common::num);
        if !x.is_nan() && best.is_none_or(|(_, b)| better(x, b)) {
            best = Some((r, x));
        }
    }
    best
}
