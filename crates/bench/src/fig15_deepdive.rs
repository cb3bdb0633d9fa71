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
    while sc.sim.now() < horizon {
        let t = (sc.sim.now() + step).min(horizon);
        sc.sim.run_until(t);
        let q = sc.sim.core().queue(sw, port, PRIO_RDMA);
        let qlen = q.bytes();
        let ecn = q.ecn.unwrap();
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

    // The controller's counters are not part of the result: they go to
    // stderr with the other progress lines.
    sc.sim.with_controller(sw, |c, _| {
        let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
        eprintln!(
            "[fig15] controller ran {} inferences over {} ticks ({} idle skips)",
            acc.stats.inferences, acc.stats.ticks, acc.stats.skipped_idle
        );
    });

    json!({
        "series": series,
        "mean_kmin_calm_bytes": calm,
        "mean_kmin_burst_bytes": burst,
    })
}

/// Print every 8th sample of the hot queue and the thresholds ACC applied,
/// then the mean Kmin before and during the burst.
pub fn show(v: &Value) {
    let decimated: Vec<Value> = common::rows(v, "series")
        .iter()
        .step_by(8)
        .cloned()
        .collect();
    common::print_table(
        &decimated,
        &["t_us", "queue_bytes", "kmin_bytes", "kmax_bytes"],
    );
    println!(
        "\nmean_kmin_calm_bytes = {}, mean_kmin_burst_bytes = {}",
        common::cell(&v["mean_kmin_calm_bytes"]),
        common::cell(&v["mean_kmin_burst_bytes"])
    );
}
