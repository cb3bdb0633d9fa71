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
    // Generous drain margin so elephants can finish. (On two or more shards
    // the ACC arm keeps each switch's replay private; on one it is shared.)
    let out = h.run_to(&spec, policy, 9, &arrivals, None, &[horizon], |_| {});
    common::buckets_of(&out.fct, SimTime::ZERO)
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let loads = h.scale.pick(vec![0.6, 0.8, 0.9], vec![0.6, 0.9]);
    let policies = [Policy::Acc, Policy::Secn1, Policy::Secn2];
    // The load × policy matrix runs as independent cells on the worker pool;
    // the rows are built afterwards from the deterministically ordered
    // results.
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
    let mut rows = Vec::new();
    for &load in &loads {
        for policy in policies {
            let b = results.next().expect("one result per cell");
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
    json!({ "rows": rows })
}

/// Print average FCT overall, for mice (plus their p99) and for elephants
/// per load and policy.
pub fn show(v: &Value) {
    common::print_table(
        common::rows(v, "rows"),
        &[
            "load",
            "policy",
            "overall.avg_us",
            "mice.avg_us",
            "mice.p99_us",
            "elephant.avg_us",
            "unfinished",
        ],
    );
}
