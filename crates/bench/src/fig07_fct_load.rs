//! Fig. 7 + the §5.2 queue-statistics table — end-to-end performance.
//!
//! Senders keep sending random messages of {1 KB, 10 KB, 100 KB, 1 MB,
//! 10 MB} to one receiver at 20% and 60% offered load. We report FCT per
//! size class (normalised by ACC, as the paper does), and the sampled
//! average/std-dev of the receiver-port queue plus ToR throughput.

use crate::common::{self, Harness, MatrixCell, Policy};
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

struct Row {
    avg: [f64; 3], // per size class: small/mid/large avg fct
    p99: [f64; 3],
    queue_mean_kb: f64,
    queue_std_kb: f64,
    tor_gbps: f64,
}

fn run_one(h: &Harness, policy: Policy, load: f64) -> Row {
    let scale = h.scale;
    let spec = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500));
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let receiver = hosts[7];
    let dur = scale.pick(SimTime::from_ms(120), SimTime::from_ms(30));
    // Two senders to one receiver, as in the paper's end-to-end test. The
    // load is offered against the receiver's 25G access link.
    let g = PoissonGen::new(SizeDist::message_mix(), load, CcKind::Dcqcn, 31);
    let mut arrivals = g.generate(
        &[hosts[0], hosts[1], receiver],
        25_000_000_000,
        SimTime::ZERO,
        dur,
    );
    // Force all traffic towards the single receiver.
    for a in &mut arrivals {
        if a.src == receiver {
            a.src = hosts[a.at.as_ps() as usize % 2];
        }
        a.msg.dst = receiver;
    }
    let mut sc = h.scenario(&spec, policy, 7, &arrivals);
    let (sw, port) = common::access_port(&sc.sim, receiver);
    let samples = common::run_sampling_queue(
        &mut sc.sim,
        sw,
        port,
        PRIO_RDMA,
        SimTime::from_us(100),
        dur + SimTime::from_ms(20),
    );
    let f = sc.fct.borrow();
    let cls = |lo: u64, hi: u64| f.stats(|r| r.bytes >= lo && r.bytes <= hi);
    let small = cls(0, 10_000);
    let mid = cls(10_001, 1_000_000);
    let large = cls(1_000_001, u64::MAX);
    let tor_bytes = common::node_tx_bytes(&sc.sim, sw, PRIO_RDMA);
    Row {
        avg: [small.avg_us, mid.avg_us, large.avg_us],
        p99: [small.p99_us, mid.p99_us, large.p99_us],
        queue_mean_kb: samples.mean() / 1024.0,
        queue_std_kb: samples.std_dev() / 1024.0,
        tor_gbps: tor_bytes as f64 * 8.0 / sc.sim.now().as_secs_f64() / 1e9,
    }
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let loads = [0.2, 0.6];
    let policies = [Policy::Acc, Policy::Secn1, Policy::Secn2];
    let mut cells = Vec::new();
    for &load in &loads {
        for policy in policies {
            cells.push(MatrixCell::new(
                format!("fig7 load={:.0}% {}", load * 100.0, policy.name()),
                move |h| run_one(h, policy, load),
            ));
        }
    }
    let mut results = h.run_matrix(cells).into_iter();
    let mut out = Vec::new();
    for load in loads {
        let acc = results.next().expect("one result per cell");
        let s1 = results.next().expect("one result per cell");
        let s2 = results.next().expect("one result per cell");
        out.push(json!({
            "load": load,
            "rows": [
                {"policy": "ACC", "avg_us": acc.avg, "p99_us": acc.p99,
                 "queue_mean_kb": acc.queue_mean_kb, "queue_std_kb": acc.queue_std_kb,
                 "tor_gbps": acc.tor_gbps},
                {"policy": "SECN1", "avg_us": s1.avg, "p99_us": s1.p99,
                 "queue_mean_kb": s1.queue_mean_kb, "queue_std_kb": s1.queue_std_kb,
                 "tor_gbps": s1.tor_gbps},
                {"policy": "SECN2", "avg_us": s2.avg, "p99_us": s2.p99,
                 "queue_mean_kb": s2.queue_mean_kb, "queue_std_kb": s2.queue_std_kb,
                 "tor_gbps": s2.tor_gbps},
            ],
        }));
    }
    json!({ "loads": out })
}

/// Print one table per load — FCT per size class (index 0: <= 10 KB,
/// 1: <= 1 MB, 2: > 1 MB), receiver-queue statistics and ToR throughput —
/// and each static setting's small-flow tail normalised by ACC's, the
/// paper's presentation.
pub fn show(v: &Value) {
    for load in common::rows(v, "loads") {
        println!("\n-- load {} --", common::cell(&load["load"]));
        let rows = common::rows(load, "rows");
        common::print_table(
            rows,
            &[
                "policy",
                "avg_us.0",
                "avg_us.1",
                "avg_us.2",
                "p99_us.0",
                "p99_us.1",
                "p99_us.2",
                "queue_mean_kb",
                "queue_std_kb",
                "tor_gbps",
            ],
        );
        let acc = common::num_where(rows, "policy", "ACC", "p99_us.0").max(1e-9);
        let ratio = |p| {
            common::cell(&json!(
                common::num_where(rows, "policy", p, "p99_us.0") / acc
            ))
        };
        println!(
            "p99_us.0 / ACC's: SECN1 {}x, SECN2 {}x",
            ratio("SECN1"),
            ratio("SECN2")
        );
    }
}
