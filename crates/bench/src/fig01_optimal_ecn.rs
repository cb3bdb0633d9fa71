//! Fig. 1 — the optimal static ECN threshold depends on the workload.
//!
//! Two sustained incast shapes (PerfTest-style long-running flows) on a
//! single 25G switch: (a) 8 senders × 32 flows each and (b) 15 senders ×
//! 8 flows each. For every single-threshold setting `K = E(n)`, and for
//! ACC, [`common::score`] reads receiver goodput, the time-average queue
//! depth and the paper's reward over a steady measurement window; the K
//! that maximises goodput while keeping the queue low differs between the
//! two shapes — the paper finds ~500 KB for (a) and ~50 KB for (b).

use crate::common::{self, Arm, Harness, MatrixCell, Policy};
use acc_core::reward::e_n;
use netsim::prelude::*;
use netsim::queues::EcnConfig;
use serde_json::{json, Value};

/// Sustained incast under one fixed single-threshold setting (or ACC when
/// `k == 0`): long-running flows, scored over a post-warmup window.
fn run_case(h: &Harness, senders: usize, flows: usize, k: u64) -> Value {
    let scale = h.scale;
    let cfg = common::sim_config(SimConfig::default().seed);
    let arm = match k {
        0 => Arm::Policy(Policy::Acc),
        _ => Arm::Static(format!("K{}KB", k / 1024), EcnConfig::new(k, k, 1.0)),
    };
    let warmup = scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    let horizon = scale.pick(SimTime::from_ms(24), SimTime::from_ms(9));
    let (spec, arrivals) = common::sustained_incast_traffic(senders, flows);
    let score = common::score(h, (&spec, &arrivals, cfg), &arm, warmup..horizon);
    assert_eq!(score["lossless_drops"].as_u64(), Some(0), "PFC violated");
    score
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let cases = [
        ("8:1 x 32 flows", 8usize, 32usize),
        ("15:1 x 8 flows", 15, 8),
    ];
    // Every static K, then ACC (k = 0), per case.
    let ks: Vec<u64> = (0..10).map(e_n).chain([0]).collect();
    let mut cells = Vec::new();
    for (name, senders, flows) in cases {
        for &k in &ks {
            let job = move |h: &Harness| run_case(h, senders, flows, k);
            cells.push(MatrixCell::new(format!("fig1 {name} K={k}"), job));
        }
    }
    let scores = h.run_matrix(cells);
    let out: Vec<Value> = cases
        .iter()
        .zip(scores.chunks(ks.len()))
        .map(|(&(name, ..), scores)| {
            let (acc, statics) = scores.split_last().expect("ACC closes every case");
            // "Optimal" = the paper's throughput/delay tradeoff: highest
            // goodput with a queue-delay penalty (1 MB of standing queue at
            // 25G is ~320 us of delay; weigh it like lost goodput).
            let tradeoff = |s: &Value| {
                common::num(&s["goodput_gbps"]) - common::num(&s["avg_queue_kb"]) / 1024.0
            };
            let best = (0..statics.len())
                .reduce(|b, i| {
                    if tradeoff(&statics[i]) > tradeoff(&statics[b]) {
                        i
                    } else {
                        b
                    }
                })
                .expect("ten thresholds");
            let rows: Vec<Value> = ks
                .iter()
                .zip(statics)
                .map(|(&k, s)| common::with(json!({ "k_bytes": k }), s.clone()))
                .collect();
            json!({
                "case": name,
                "rows": rows,
                "acc": acc,
                "optimal_k_bytes": ks[best],
            })
        })
        .collect();
    json!({ "cases": out })
}

/// Print one table per incast shape — every static K, then the learned
/// ACC row — and the K the tradeoff score picked.
pub fn show(v: &Value) {
    for case in common::rows(v, "cases") {
        println!("\n-- {}, sustained --", common::cell(&case["case"]));
        let mut rows = common::rows(case, "rows").to_vec();
        let mut acc = case["acc"].clone();
        if let Value::Object(m) = &mut acc {
            m.insert("k_bytes".into(), json!("ACC (learned)"));
        }
        rows.push(acc);
        common::print_table(
            &rows,
            &["k_bytes", "goodput_gbps", "avg_queue_kb", "reward_w07"],
        );
        println!(
            "optimal static k_bytes = {}",
            common::cell(&case["optimal_k_bytes"])
        );
    }
}
