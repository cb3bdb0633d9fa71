//! Fig. 1 — the optimal static ECN threshold depends on the workload.
//!
//! Two sustained incast shapes (PerfTest-style long-running flows) on a
//! single 25G switch: (a) 8 senders × 32 flows each and (b) 15 senders ×
//! 8 flows each. For every single-threshold setting `K = E(n)` we record
//! receiver goodput and the time-average queue depth during a steady
//! measurement window; the K that maximises goodput while keeping the queue
//! low differs between the two shapes — the paper finds ~500 KB for (a) and
//! ~50 KB for (b).

use crate::common::{self, Harness, Policy};
use acc_core::reward::e_n;
use acc_core::static_ecn::{install_static, StaticEcnPolicy};
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use netsim::queues::EcnConfig;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen;

struct Outcome {
    goodput_gbps: f64,
    avg_queue_kb: f64,
}

/// Sustained incast under one fixed single-threshold setting (or ACC when
/// `k == 0`): long-running flows, measure over a post-warmup window.
fn run_case(h: &Harness, senders: usize, flows: usize, k: u64) -> Outcome {
    let scale = h.scale;
    let spec = TopologySpec::single_switch(16, 25_000_000_000, SimTime::from_ns(500));
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let receiver = hosts[15];
    // Long-running flows: big enough to outlast the horizon.
    let arr = gen::incast_wave(
        &hosts[..senders],
        receiver,
        flows,
        1_000_000_000,
        CcKind::Dcqcn,
        SimTime::ZERO,
    );
    let seed = SimConfig::default().seed;
    let mut sc = if k == 0 {
        h.scenario(&spec, Policy::Acc, seed, &arr)
    } else {
        let label = format!("K{}KB", k / 1024);
        h.scenario_installed(&spec, common::sim_config(seed), &label, &arr, |sim| {
            install_static(sim, StaticEcnPolicy::Fixed(EcnConfig::new(k, k, 1.0)))
        })
    };
    let sim = &mut sc.sim;

    let warmup = scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    let horizon = scale.pick(SimTime::from_ms(24), SimTime::from_ms(9));
    sim.run_until(warmup);
    let sw = sim.core().topo.switches()[0];
    let port = PortId(15);
    let (tx0, int0) = {
        let t = sim.core_mut().synced_queue_telem(sw, port, PRIO_RDMA);
        (t.tx_bytes, t.qlen_integral_byte_ps)
    };
    sim.run_until(horizon);
    let (tx1, int1) = {
        let t = sim.core_mut().synced_queue_telem(sw, port, PRIO_RDMA);
        (t.tx_bytes, t.qlen_integral_byte_ps)
    };
    assert_eq!(sim.core().lossless_drops, 0, "PFC violated");
    let window = horizon - warmup;
    Outcome {
        goodput_gbps: (tx1 - tx0) as f64 * 8.0 / window.as_secs_f64() / 1e9,
        avg_queue_kb: (int1 - int0) as f64 / window.as_ps() as f64 / 1024.0,
    }
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let scale = h.scale;
    common::banner("fig1", "optimal static ECN threshold per incast workload");
    let cases = [
        ("8:1 x 32 flows", 8usize, 32usize),
        ("15:1 x 8 flows", 15, 8),
    ];
    let mut out = Vec::new();
    for (name, senders, flows) in cases {
        println!("\n-- {name}, sustained --");
        println!(
            "{:<10} {:>16} {:>16}",
            "K", "goodput(Gbps)", "avg queue(KB)"
        );
        let mut rows = Vec::new();
        let mut best: Option<(u64, f64)> = None;
        for n in 0..10 {
            let k = e_n(n);
            let o = run_case(h, senders, flows, k);
            println!(
                "{:<10} {:>16.2} {:>16.1}",
                format!("{}KB", k / 1024),
                o.goodput_gbps,
                o.avg_queue_kb
            );
            // "Optimal" = the paper's throughput/delay tradeoff: highest
            // goodput with a queue-delay penalty (1 MB of standing queue at
            // 25G is ~320 us of delay; weigh it like lost goodput).
            let score = o.goodput_gbps - o.avg_queue_kb / 1024.0;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((k, score));
            }
            rows.push(json!({
                "k_bytes": k,
                "goodput_gbps": o.goodput_gbps,
                "avg_queue_kb": o.avg_queue_kb,
            }));
        }
        let acc = run_case(h, senders, flows, 0);
        println!(
            "{:<10} {:>16.2} {:>16.1}   (learned)",
            "ACC", acc.goodput_gbps, acc.avg_queue_kb
        );
        let (bk, _) = best.unwrap();
        println!("optimal static K = {}KB", bk / 1024);
        out.push(json!({
            "case": name,
            "rows": rows,
            "acc": { "goodput_gbps": acc.goodput_gbps, "avg_queue_kb": acc.avg_queue_kb },
            "optimal_k_bytes": bk,
        }));
    }
    let v = json!({ "cases": out });
    common::save_results_scaled("fig1", &v, scale);
    v
}
