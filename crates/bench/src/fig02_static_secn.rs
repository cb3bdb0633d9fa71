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
    let load = 0.6;
    let mut out = Vec::new();
    for (name, dist) in [
        ("Scenario-1 (DataMining)", SizeDist::data_mining()),
        ("Scenario-2 (WebSearch)", SizeDist::web_search()),
    ] {
        let s0 = avg_fct(h, Policy::Secn0, &dist, load);
        let s1 = avg_fct(h, Policy::Secn1, &dist, load);
        let s2 = avg_fct(h, Policy::Secn2, &dist, load);
        let best = if s1 < s2 { "SECN1" } else { "SECN2" };
        out.push(json!({
            "scenario": name,
            "secn0_us": s0,
            "secn1_us": s1,
            "secn2_us": s2,
            "best": best,
        }));
    }
    json!({ "load": load, "scenarios": out })
}

/// Print each scenario's average FCT per setting, normalised by SECN0.
pub fn show(v: &Value) {
    for s in common::rows(v, "scenarios") {
        println!(
            "\n-- {}, load {} --",
            common::cell(&s["scenario"]),
            common::cell(&v["load"])
        );
        let s0 = common::num(&s["secn0_us"]);
        let rows: Vec<Value> = [
            ("SECN0", "secn0_us"),
            ("SECN1", "secn1_us"),
            ("SECN2", "secn2_us"),
        ]
        .iter()
        .map(|&(setting, key)| {
            let avg = common::num(&s[key]);
            json!({ "setting": setting, "avg_us": avg, "norm": avg / s0 })
        })
        .collect();
        common::print_table(&rows, &["setting", "avg_us", "norm"]);
        println!("best non-baseline setting: {}", common::cell(&s["best"]));
    }
}
