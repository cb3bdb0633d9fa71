//! Fig. 6 — heterogeneous traffic over time: the incast shape changes every
//! phase; a static setting matches at most one phase, ACC adapts across all
//! of them (the paper reports an order-of-magnitude queue reduction and
//! +26% throughput over the mismatched static settings).

use crate::common::{self, Harness, Policy};
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen;

/// One result row per phase under `policy`.
fn run_policy(h: &Harness, policy: Policy) -> Vec<Value> {
    let scale = h.scale;
    // Phases with very different incast shapes (senders, flows, bytes).
    let phases: [(usize, usize, u64); 3] = [(4, 2, 2_000_000), (14, 16, 60_000), (8, 6, 500_000)];
    let phase_len = scale.pick(SimTime::from_ms(30), SimTime::from_ms(10));
    let wave_gap = SimTime::from_ms(2);

    let spec = TopologySpec::single_switch(16, 25_000_000_000, SimTime::from_ns(500));
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let receiver = hosts[15];
    let mut arrivals = Vec::new();
    for (pi, &(senders, flows, bytes)) in phases.iter().enumerate() {
        let start = phase_len.mul(pi as u64);
        let waves = phase_len.as_ps() / wave_gap.as_ps();
        for w in 0..waves {
            arrivals.extend(gen::incast_wave(
                &hosts[..senders],
                receiver,
                flows,
                bytes,
                CcKind::Dcqcn,
                start + wave_gap.mul(w),
            ));
        }
    }
    let mut sc = h.scenario(&spec, policy, 5, &arrivals);
    let sw = sc.sim.core().topo.switches()[0];
    let port = PortId(15);

    let mut out = Vec::new();
    let mut prev_integral = 0u128;
    let mut prev_tx = 0u64;
    for pi in 0..phases.len() {
        let end = phase_len.mul(pi as u64 + 1);
        sc.sim.run_until(end);
        let t = sc.sim.core_mut().synced_queue_telem(sw, port, PRIO_RDMA);
        let integral = t.qlen_integral_byte_ps;
        let tx = t.tx_bytes;
        let avg_q = (integral - prev_integral) as f64 / phase_len.as_ps() as f64;
        let goodput = (tx - prev_tx) as f64 * 8.0 / phase_len.as_secs_f64() / 1e9;
        prev_integral = integral;
        prev_tx = tx;
        out.push(json!({
            "policy": policy.name(),
            "phase": pi + 1,
            "avg_queue_kb": avg_q / 1024.0,
            "goodput_gbps": goodput,
        }));
    }
    out
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let policies = [Policy::Secn1, Policy::Secn2, Policy::Acc];
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for p in policies {
        let phases = run_policy(h, p);
        let mean =
            |key| phases.iter().map(|r| common::num(&r[key])).sum::<f64>() / phases.len() as f64;
        summary.push(json!({
            "policy": p.name(),
            "mean_queue_kb": mean("avg_queue_kb"),
            "mean_goodput_gbps": mean("goodput_gbps"),
        }));
        rows.extend(phases);
    }
    json!({ "phases": rows, "summary": summary })
}

/// Print every policy's queue and goodput per phase, then their means.
pub fn show(v: &Value) {
    common::print_table(
        common::rows(v, "phases"),
        &["policy", "phase", "avg_queue_kb", "goodput_gbps"],
    );
    println!();
    common::print_table(
        common::rows(v, "summary"),
        &["policy", "mean_queue_kb", "mean_goodput_gbps"],
    );
}
