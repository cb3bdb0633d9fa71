//! Fig. 15 — deep dive: how ACC reacts to a burst. We sample the hot egress
//! queue and the Kmin that ACC currently applies: when the queue grows, ACC
//! drops the threshold to mark harder; as the queue drains it raises the
//! threshold again to protect throughput.

use crate::common::{self, Harness, Policy};
use acc_core::controller::AccController;
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen;

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let scale = h.scale;
    common::banner("fig15", "runtime queue occupancy vs chosen ECN threshold");
    let spec = TopologySpec::single_switch(16, 25_000_000_000, SimTime::from_ns(500));
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let receiver = hosts[15];

    // Sustained background + a heavy burst in the middle.
    let mut arrivals = gen::incast_wave(
        &hosts[..4],
        receiver,
        2,
        2_000_000,
        CcKind::Dcqcn,
        SimTime::from_ms(1),
    );
    arrivals.extend(gen::incast_wave(
        &hosts[..12],
        receiver,
        8,
        500_000,
        CcKind::Dcqcn,
        SimTime::from_ms(6),
    ));
    arrivals.extend(gen::incast_wave(
        &hosts[..4],
        receiver,
        2,
        2_000_000,
        CcKind::Dcqcn,
        SimTime::from_ms(16),
    ));
    let mut sc = h.scenario(&spec, Policy::Acc, 15, &arrivals);
    let sw = sc.sim.core().topo.switches()[0];
    let port = PortId(15);

    let horizon = SimTime::from_ms(24);
    let step = SimTime::from_us(250);
    let mut series = Vec::new();
    println!(
        "{:>10} {:>12} {:>10} {:>10}",
        "t(us)", "queue(KB)", "Kmin(KB)", "Kmax(KB)"
    );
    while sc.sim.now() < horizon {
        let t = (sc.sim.now() + step).min(horizon);
        sc.sim.run_until(t);
        let q = sc.sim.core().queue(sw, port, PRIO_RDMA);
        let qlen = q.bytes();
        let ecn = q.ecn.unwrap();
        // Print a decimated view, record everything.
        if series.len() % 8 == 0 {
            println!(
                "{:>10.0} {:>12.1} {:>10} {:>10}",
                sc.sim.now().as_us_f64(),
                qlen as f64 / 1024.0,
                ecn.kmin_bytes / 1024,
                ecn.kmax_bytes / 1024
            );
        }
        series.push(json!({
            "t_us": sc.sim.now().as_us_f64(),
            "queue_bytes": qlen,
            "kmin_bytes": ecn.kmin_bytes,
            "kmax_bytes": ecn.kmax_bytes,
        }));
    }

    // The paper's qualitative claim: during the burst window the controller
    // applies a lower Kmin than its pre-burst choice.
    let kmin_at = |lo_us: f64, hi_us: f64| -> f64 {
        let vals: Vec<f64> = series
            .iter()
            .filter(|s| {
                let t = s["t_us"].as_f64().unwrap();
                t >= lo_us && t < hi_us
            })
            .map(|s| s["kmin_bytes"].as_f64().unwrap())
            .collect();
        netsim::util::mean(&vals)
    };
    let calm = kmin_at(2_000.0, 6_000.0);
    let burst = kmin_at(6_500.0, 12_000.0);
    println!(
        "\nmean Kmin before burst: {:.0} KB, during burst: {:.0} KB",
        calm / 1024.0,
        burst / 1024.0
    );

    sc.sim.with_controller(sw, |c, _| {
        let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
        println!(
            "controller ran {} inferences over {} ticks ({} idle skips)",
            acc.stats.inferences, acc.stats.ticks, acc.stats.skipped_idle
        );
    });

    let v = json!({
        "series": series,
        "mean_kmin_calm_bytes": calm,
        "mean_kmin_burst_bytes": burst,
    });
    common::save_results_scaled("fig15", &v, scale);
    v
}
