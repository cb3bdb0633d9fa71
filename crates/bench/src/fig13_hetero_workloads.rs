//! Fig. 13 — temporally & spatially heterogeneous traffic: both workloads,
//! loads drawn from {60,70,80,90}%, random source/destination pairs,
//! averaged over several runs. The paper reports ACC beating SECN1 by up to
//! 8.7%/24.3% (mice avg/p99) and SECN2 by 28.6%/58.3%.

use crate::common::{self, FctBuckets, Harness, MatrixCell, Policy};
use netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen::{Arrival, PoissonGen};
use workloads::SizeDist;

fn heterogeneous_arrivals(
    hosts: &[NodeId],
    dist: &SizeDist,
    segments: usize,
    seg_len: SimTime,
    seed: u64,
) -> Vec<Arrival> {
    let loads = [0.6, 0.7, 0.8, 0.9];
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for i in 0..segments {
        let load = loads[rng.gen_range(0..loads.len())];
        let g = PoissonGen::new(dist.clone(), load, CcKind::Dcqcn, seed * 1000 + i as u64);
        out.extend(g.generate(hosts, 25_000_000_000, seg_len.mul(i as u64), seg_len));
    }
    out
}

fn run_one(h: &Harness, policy: Policy, dist: &SizeDist, seed: u64) -> FctBuckets {
    let scale = h.scale;
    let spec = TopologySpec::paper_cacc_sim(); // 96 hosts
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let segments = scale.pick(4, 2);
    let seg_len = scale.pick(SimTime::from_ms(6), SimTime::from_ms(4));
    let arrivals = heterogeneous_arrivals(&hosts, dist, segments, seg_len, seed);
    let total = seg_len.mul(segments as u64);
    let horizon = total + scale.pick(SimTime::from_ms(15), SimTime::from_ms(10));
    let out = h.run_to(&spec, policy, seed, &arrivals, None, &[horizon], |_| {});
    common::buckets_of(&out.fct, SimTime::ZERO)
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let runs = h.scale.pick(2u64, 1);
    let workloads = [
        ("WebSearch", SizeDist::web_search()),
        ("DataMining", SizeDist::data_mining()),
    ];
    let policies = [Policy::Acc, Policy::Secn1, Policy::Secn2];
    // One cell per (workload, policy, repeat): every repeat seeds its own
    // RNGs from the repeat index (100 + r), so the matrix is embarrassingly
    // parallel and byte-stable at any worker count.
    let mut cells = Vec::new();
    for (wname, dist) in &workloads {
        for policy in policies {
            for r in 0..runs {
                let dist = dist.clone();
                cells.push(MatrixCell::new(
                    format!("fig13 {wname} {} run{r}", policy.name()),
                    move |h| run_one(h, policy, &dist, 100 + r),
                ));
            }
        }
    }
    let mut results = h.run_matrix(cells).into_iter();
    let mut rows = Vec::new();
    for (wname, _) in &workloads {
        for policy in policies {
            let mut acc = [0.0f64; 4];
            for _ in 0..runs {
                let b = results.next().expect("one result per cell");
                acc[0] += b.overall.avg_us;
                acc[1] += b.mice.avg_us;
                acc[2] += b.mice.p99_us;
                acc[3] += b.elephant.avg_us;
            }
            for a in &mut acc {
                *a /= runs as f64;
            }
            rows.push(json!({
                "workload": wname,
                "policy": policy.name(),
                "overall_avg_us": acc[0],
                "mice_avg_us": acc[1],
                "mice_p99_us": acc[2],
                "elephant_avg_us": acc[3],
                "runs": runs,
            }));
        }
    }
    json!({ "rows": rows })
}

/// Print the run-averaged FCTs per workload and policy.
pub fn show(v: &Value) {
    common::print_table(
        common::rows(v, "rows"),
        &[
            "workload",
            "policy",
            "overall_avg_us",
            "mice_avg_us",
            "mice_p99_us",
            "elephant_avg_us",
            "runs",
        ],
    );
}
