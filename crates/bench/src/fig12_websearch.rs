//! Fig. 12 — large-scale simulation, WebSearch workload: overall average
//! FCT, mice average and 99th-percentile FCT, and elephant average FCT as
//! the offered load sweeps 60..90%. The paper reports ACC up to 5.8% better
//! than SECN1 and 16.6% better than SECN2 overall at 90% load, with the
//! biggest wins on mice tails.

use crate::common::{self, FctBuckets, Harness, MatrixCell, Policy};
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

fn run_one(h: &Harness, policy: Policy, load: f64) -> FctBuckets {
    let scale = h.scale;
    // Quick mode uses the 96-host fabric, full the 288-host one.
    let spec = if scale.quick {
        TopologySpec::paper_cacc_sim()
    } else {
        TopologySpec::paper_large_sim()
    };
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let dur = scale.pick(SimTime::from_ms(25), SimTime::from_ms(8));
    let g = PoissonGen::new(SizeDist::web_search(), load, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    let horizon = dur + scale.pick(SimTime::from_ms(20), SimTime::from_ms(12));
    // Generous drain margin so elephants can finish. (With `--shards N` the
    // ACC arm keeps each switch's replay private; unsharded it is shared.)
    let out = h.run_to(&spec, policy, 9, &arrivals, None, horizon);
    common::buckets_of(&out.fct, SimTime::ZERO)
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let scale = h.scale;
    common::banner("fig12", "WebSearch at scale: FCT vs load");
    let loads = scale.pick(vec![0.6, 0.8, 0.9], vec![0.6, 0.9]);
    let policies = [Policy::Acc, Policy::Secn1, Policy::Secn2];
    // The load × policy matrix runs as independent cells on the worker pool;
    // printing happens afterwards from the deterministically ordered results.
    let mut cells = Vec::new();
    for &load in &loads {
        for policy in policies {
            cells.push(MatrixCell::new(
                format!("fig12 load={:.0}% {}", load * 100.0, policy.name()),
                move |h| run_one(h, policy, load),
            ));
        }
    }
    let mut results = h.run_matrix(cells).into_iter();
    println!(
        "{:<6} {:<8} {:>12} {:>12} {:>12} {:>13} {:>11}",
        "load", "policy", "overall avg", "mice avg", "mice p99", "elephant avg", "unfinished"
    );
    let mut rows = Vec::new();
    for &load in &loads {
        for policy in policies {
            let b = results.next().expect("one result per cell");
            println!(
                "{:<6.0}% {:<8} {:>11.1} {:>12.1} {:>12.1} {:>13.1} {:>11}",
                load * 100.0,
                policy.name(),
                b.overall.avg_us,
                b.mice.avg_us,
                b.mice.p99_us,
                b.elephant.avg_us,
                b.unfinished
            );
            rows.push(json!({
                "load": load,
                "policy": policy.name(),
                "overall": common::fct_json(&b.overall),
                "mice": common::fct_json(&b.mice),
                "elephant": common::fct_json(&b.elephant),
                "unfinished": b.unfinished,
            }));
        }
    }
    let v = json!({ "rows": rows });
    common::save_results_scaled("fig12", &v, scale);
    v
}
