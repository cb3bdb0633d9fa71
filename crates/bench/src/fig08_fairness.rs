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

struct Outcome {
    rdma_share: f64,
    tcp_share: f64,
    probe_avg_us: f64,
    probe_p99_us: f64,
}

fn run_one(h: &Harness, n_senders: usize, policy: Policy) -> Outcome {
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
    Outcome {
        rdma_share: rdma as f64 / total,
        tcp_share: tcp as f64 / total,
        probe_avg_us: probes.avg_us,
        probe_p99_us: probes.p99_us,
    }
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let scale = h.scale;
    common::banner(
        "fig8",
        "RDMA/TCP bandwidth shares (target 70/30) and RDMA latency",
    );
    println!(
        "{:<8} {:<8} {:>11} {:>11} {:>13} {:>13}",
        "incast", "policy", "RDMA share", "TCP share", "probe avg us", "probe p99 us"
    );
    let mut out = Vec::new();
    for (n, label) in [(2usize, "2:1"), (7usize, "7:1")] {
        for policy in [Policy::Secn1, Policy::Acc] {
            let o = run_one(h, n, policy);
            println!(
                "{:<8} {:<8} {:>10.1}% {:>10.1}% {:>13.1} {:>13.1}",
                label,
                policy.name(),
                o.rdma_share * 100.0,
                o.tcp_share * 100.0,
                o.probe_avg_us,
                o.probe_p99_us
            );
            out.push(json!({
                "incast": label,
                "policy": policy.name(),
                "rdma_share": o.rdma_share,
                "tcp_share": o.tcp_share,
                "probe_avg_us": o.probe_avg_us,
                "probe_p99_us": o.probe_p99_us,
            }));
        }
    }
    let v = json!({ "rows": out, "target_rdma_share": 0.7 });
    common::save_results_scaled("fig8", &v, scale);
    v
}
