//! Fig. 1 — the optimal static ECN threshold depends on the workload.
//!
//! Two sustained incast shapes (PerfTest-style long-running flows) on a
//! single 25G switch: (a) 8 senders × 32 flows each and (b) 15 senders ×
//! 8 flows each. For every single-threshold setting `K = E(n)` we record
//! receiver goodput and the time-average queue depth during a steady
//! measurement window; the K that maximises goodput while keeping the queue
//! low differs between the two shapes — the paper finds ~500 KB for (a) and
//! ~50 KB for (b).

use crate::common::{self, Harness, Policy, QueueMark, QueueWindow, INCAST_PORT};
use acc_core::reward::e_n;
use acc_core::static_ecn::{install_static, StaticEcnPolicy};
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use netsim::queues::EcnConfig;
use serde_json::{json, Value};

/// Sustained incast under one fixed single-threshold setting (or ACC when
/// `k == 0`): long-running flows, measure over a post-warmup window.
fn run_case(h: &Harness, senders: usize, flows: usize, k: u64) -> QueueWindow {
    let scale = h.scale;
    let cfg = common::sim_config(SimConfig::default().seed);
    let label = match k {
        0 => Policy::Acc.name().to_string(),
        _ => format!("K{}KB", k / 1024),
    };
    let mut sc = h.sustained_incast(cfg, &label, senders, flows, |sim| match k {
        0 => common::install_policy(sim, Policy::Acc, scale),
        _ => install_static(sim, StaticEcnPolicy::Fixed(EcnConfig::new(k, k, 1.0))),
    });
    let sim = &mut sc.sim;

    let warmup = scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    let horizon = scale.pick(SimTime::from_ms(24), SimTime::from_ms(9));
    sim.run_until(warmup);
    let sw = sim.core().topo.switches()[0];
    let start = QueueMark::read(sim, sw, INCAST_PORT, PRIO_RDMA);
    sim.run_until(horizon);
    let window = start.window_to(&QueueMark::read(sim, sw, INCAST_PORT, PRIO_RDMA));
    assert_eq!(sim.core().lossless_drops, 0, "PFC violated");
    window
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let cases = [
        ("8:1 x 32 flows", 8usize, 32usize),
        ("15:1 x 8 flows", 15, 8),
    ];
    let mut out = Vec::new();
    for (name, senders, flows) in cases {
        let mut rows = Vec::new();
        let mut best: Option<(u64, f64)> = None;
        for n in 0..10 {
            let k = e_n(n);
            let o = run_case(h, senders, flows, k);
            // "Optimal" = the paper's throughput/delay tradeoff: highest
            // goodput with a queue-delay penalty (1 MB of standing queue at
            // 25G is ~320 us of delay; weigh it like lost goodput).
            let avg_queue_kb = o.avg_queue_bytes / 1024.0;
            let score = o.goodput_gbps - avg_queue_kb / 1024.0;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((k, score));
            }
            rows.push(json!({
                "k_bytes": k,
                "goodput_gbps": o.goodput_gbps,
                "avg_queue_kb": avg_queue_kb,
            }));
        }
        let acc = run_case(h, senders, flows, 0);
        let (bk, _) = best.unwrap();
        out.push(json!({
            "case": name,
            "rows": rows,
            "acc": {
                "goodput_gbps": acc.goodput_gbps,
                "avg_queue_kb": acc.avg_queue_bytes / 1024.0,
            },
            "optimal_k_bytes": bk,
        }));
    }
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
        common::print_table(&rows, &["k_bytes", "goodput_gbps", "avg_queue_kb"]);
        println!(
            "optimal static k_bytes = {}",
            common::cell(&case["optimal_k_bytes"])
        );
    }
}
