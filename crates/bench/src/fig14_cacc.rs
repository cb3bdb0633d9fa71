//! Fig. 14 — centralized vs distributed design on the 96-host fabric.
//!
//! Also includes H-ACC, the paper's §6 hybrid sketch (local inference +
//! centralized training), as an extension.
//!
//! C-ACC shares one agent for the whole fabric (per-layer actions, lagged
//! by a collection tick); D-ACC runs the normal per-switch controllers.
//! Both beat the static settings, but D-ACC beats C-ACC because only it can
//! give the congested switch a different configuration than its idle peers.

use crate::common::{self, buckets, Harness, Policy};
use acc_core::centralized::install_centralized;
use acc_core::hybrid::install_hybrid;
use acc_core::ActionSpace;
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

fn run_one(h: &Harness, which: &str) -> (f64, f64) {
    let scale = h.scale;
    let spec = TopologySpec::paper_cacc_sim();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let dur = scale.pick(SimTime::from_ms(40), SimTime::from_ms(10));
    let g = PoissonGen::new(SizeDist::web_search(), 0.7, CcKind::Dcqcn, 55);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);

    let install = |sim: &mut Simulator| match which {
        "C-ACC" => {
            let mut ddqn = rl::DdqnConfig::default();
            ddqn.min_replay = 64;
            install_centralized(
                sim,
                ddqn,
                acc_core::RewardConfig::default(),
                ActionSpace::templates(),
                3,
                true,
                5,
            );
        }
        "D-ACC" => common::install_policy(sim, Policy::Acc, scale),
        "H-ACC" => {
            // §6 hybrid: local inference, centralized training, model pushes
            // every 20 ticks (~1 ms at Δt = 50 us).
            let cfg = common::acc_config(19);
            install_hybrid(sim, &cfg, &ActionSpace::templates(), 20);
        }
        "SECN1" => common::install_policy(sim, Policy::Secn1, scale),
        "SECN2" => common::install_policy(sim, Policy::Secn2, scale),
        other => panic!("unknown {other}"),
    };
    let mut sc = h.scenario_installed(&spec, common::sim_config(77), which, &arrivals, install);
    sc.sim
        .run_until(dur + scale.pick(SimTime::from_ms(25), SimTime::from_ms(10)));
    let b = buckets(&sc.fct, SimTime::ZERO);
    (b.overall.avg_us, b.overall.p99_us)
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let mut rows = Vec::new();
    for which in ["SECN1", "SECN2", "C-ACC", "D-ACC", "H-ACC"] {
        let (avg, p99) = run_one(h, which);
        rows.push(json!({ "policy": which, "avg_us": avg, "p99_us": p99 }));
    }
    json!({ "rows": rows })
}

/// Print the average and p99 FCT per design.
pub fn show(v: &Value) {
    common::print_table(common::rows(v, "rows"), &["policy", "avg_us", "p99_us"]);
}
