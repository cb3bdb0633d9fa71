//! Fig. 2 — no single static setting wins everywhere: SECN0/1/2 swap
//! ranking between the DataMining (Scenario-1) and WebSearch (Scenario-2)
//! workloads on the small Clos. FCTs are normalised by SECN0, as in the
//! paper.

use crate::common::{self, buckets, Harness, Policy};
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

fn avg_fct(h: &Harness, policy: Policy, dist: &SizeDist, load: f64) -> f64 {
    let scale = h.scale;
    let spec = TopologySpec::paper_testbed();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let dur = scale.pick(SimTime::from_ms(60), SimTime::from_ms(15));
    let g = PoissonGen::new(dist.clone(), load, CcKind::Dcqcn, 21);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    let mut sc = h.scenario(&spec, policy, 3, &arrivals);
    sc.sim.run_until(dur + SimTime::from_ms(15));
    buckets(&sc.fct, SimTime::ZERO).overall.avg_us
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let scale = h.scale;
    common::banner(
        "fig2",
        "FCT under static DCQCN parameter sets (normalised by SECN0)",
    );
    let load = 0.6;
    let mut out = Vec::new();
    for (name, dist) in [
        ("Scenario-1 (DataMining)", SizeDist::data_mining()),
        ("Scenario-2 (WebSearch)", SizeDist::web_search()),
    ] {
        let s0 = avg_fct(h, Policy::Secn0, &dist, load);
        let s1 = avg_fct(h, Policy::Secn1, &dist, load);
        let s2 = avg_fct(h, Policy::Secn2, &dist, load);
        println!("\n-- {name}, load {:.0}% --", load * 100.0);
        println!("{:<8} {:>14} {:>12}", "setting", "avg FCT(us)", "norm.");
        for (n, v) in [("SECN0", s0), ("SECN1", s1), ("SECN2", s2)] {
            println!("{n:<8} {v:>14.1} {:>12.3}", v / s0);
        }
        let best = if s1 < s2 { "SECN1" } else { "SECN2" };
        println!("best non-baseline setting: {best}");
        out.push(json!({
            "scenario": name,
            "secn0_us": s0,
            "secn1_us": s1,
            "secn2_us": s2,
            "best": best,
        }));
    }
    let v = json!({ "load": load, "scenarios": out });
    common::save_results_scaled("fig2", &v, scale);
    v
}
