//! Fig. 8 — RDMA/TCP weighted fair sharing.
//!
//! The switch allocates 70% RDMA / 30% TCP with DWRR, but TCP's longer
//! feedback loop plus drop-tail greed let it overshoot its share under a
//! static ECN setting; ACC keeps the RDMA class at its allocation and also
//! cuts the RDMA message latency (the paper reports up to −65% average and
//! −25% p99 RTT).

use crate::common::{self, Harness, Policy};
use netsim::ids::{PRIO_RDMA, PRIO_TCP};
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::{self, CcKind, Message};

const PROBE_TAG: u64 = 0xDEAD_BEEF;

/// One result row: `n_senders` elephants per class under `policy`.
fn run_one(h: &Harness, n_senders: usize, label: &str, policy: Policy) -> Value {
    let scale = h.scale;
    let mut cfg = SimConfig::default();
    cfg.port = PortConfig::default().with_tcp_rdma_split(30, 70);
    cfg.control_interval = Some(SimTime::from_us(50));
    let spec = TopologySpec::single_switch(9, 100_000_000_000, SimTime::from_ns(500));
    let mut sc = h.scenario_installed(&spec, cfg, policy.name(), &[], |sim| {
        common::install_policy(sim, policy, scale)
    });
    let (sim, hosts, fct) = (&mut sc.sim, &sc.hosts, &sc.fct);

    let receiver = hosts[8];
    let elephant = scale.pick(400_000_000u64, 80_000_000);
    for &src in hosts.iter().take(n_senders) {
        transport::schedule_message(
            sim,
            src,
            SimTime::ZERO,
            Message::new(receiver, elephant, CcKind::Dcqcn),
        );
        transport::schedule_message(
            sim,
            src,
            SimTime::ZERO,
            Message::new(receiver, elephant, CcKind::Reno),
        );
    }
    // RDMA latency probes: 1KB messages every 200us from an otherwise idle
    // host (their FCT ≈ one network RTT under load).
    let horizon = scale.pick(SimTime::from_ms(30), SimTime::from_ms(10));
    let mut t = SimTime::from_ms(1);
    while t < horizon {
        transport::schedule_message(
            sim,
            hosts[7],
            t,
            Message::new(receiver, 1_000, CcKind::Dcqcn).with_tag(PROBE_TAG),
        );
        t += SimTime::from_us(200);
    }
    sim.run_until(horizon);

    let sw = sim.core().topo.switches()[0];
    let rx = PortId(8);
    let rdma = sim.core().queue_telem(sw, rx, PRIO_RDMA).tx_bytes;
    let tcp = sim.core().queue_telem(sw, rx, PRIO_TCP).tx_bytes;
    let total = (rdma + tcp) as f64;
    let probes = fct.borrow().stats(|r| r.tag == PROBE_TAG);
    json!({
        "incast": label,
        "policy": policy.name(),
        "rdma_share": rdma as f64 / total,
        "tcp_share": tcp as f64 / total,
        "probe_avg_us": probes.avg_us,
        "probe_p99_us": probes.p99_us,
    })
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let mut out = Vec::new();
    for (n, label) in [(2usize, "2:1"), (7usize, "7:1")] {
        for policy in [Policy::Secn1, Policy::Acc] {
            out.push(run_one(h, n, label, policy));
        }
    }
    json!({ "rows": out, "target_rdma_share": 0.7 })
}

/// Print the receiver link's class shares and the RDMA probe latency.
pub fn show(v: &Value) {
    println!(
        "target_rdma_share = {}",
        common::cell(&v["target_rdma_share"])
    );
    common::print_table(
        common::rows(v, "rows"),
        &[
            "incast",
            "policy",
            "rdma_share",
            "tcp_share",
            "probe_avg_us",
            "probe_p99_us",
        ],
    );
}
