//! Fig. 16 — stability over unseen traffic while training online.
//!
//! An ACC without offline pre-training ("aggressive version") faces a
//! pathological pattern: the workload flips between WebSearch (P1) and
//! DataMining (P2) mid-run. FCT is sampled per time window: a short
//! transient follows the first switch, then the model converges — and once
//! it has seen both patterns, further switches barely hurt. Overall ACC
//! still ends up well ahead of the static settings (paper: −31%/−56% avg
//! FCT vs SECN1/SECN2).

use crate::common::{self, Harness, Policy, Scale};
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen::{Arrival, PoissonGen};
use workloads::SizeDist;

fn pattern_arrivals(hosts: &[NodeId], scale: Scale) -> (Vec<Arrival>, SimTime, SimTime) {
    // Segments alternate WebSearch / DataMining, switching mid-run
    // (compressed version of the paper's 4.5s/8.5s/9.5s switches).
    let seg = scale.pick(SimTime::from_ms(10), SimTime::from_ms(4));
    let pattern = ["P1", "P1", "P2", "P2", "P1", "P2"];
    let mut arrivals = Vec::new();
    for (i, p) in pattern.iter().enumerate() {
        let dist = if *p == "P1" {
            SizeDist::web_search()
        } else {
            SizeDist::data_mining()
        };
        let g = PoissonGen::new(dist, 0.7, CcKind::Dcqcn, 200 + i as u64);
        arrivals.extend(g.generate(hosts, 25_000_000_000, seg.mul(i as u64), seg));
    }
    let total = seg.mul(pattern.len() as u64);
    (arrivals, seg, total)
}

fn run_one(h: &Harness, policy: Policy) -> (Vec<f64>, f64) {
    let spec = TopologySpec::paper_testbed();
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let (arrivals, seg, total) = pattern_arrivals(&hosts, h.scale);
    let mut sc = h.scenario(&spec, policy, 16, &arrivals);
    sc.sim.run_until(total + SimTime::from_ms(10));
    // Per-segment average FCT of flows that *started* in that segment.
    let f = sc.fct.borrow();
    let mut per_segment = Vec::new();
    let n_seg = total.as_ps() / seg.as_ps();
    for i in 0..n_seg {
        let lo = seg.mul(i);
        let hi = seg.mul(i + 1);
        let s = f.stats(|r| r.start >= lo && r.start < hi);
        per_segment.push(s.avg_us);
    }
    let overall = f.stats(|_| true).avg_us;
    (per_segment, overall)
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let mut rows = Vec::new();
    for policy in [Policy::AccFresh, Policy::Secn1, Policy::Secn2] {
        let (segs, all) = run_one(h, policy);
        rows.push(json!({
            "policy": policy.name(),
            "per_segment_avg_us": segs,
            "overall_avg_us": all,
        }));
    }
    json!({ "rows": rows })
}

/// Print each policy's average FCT per segment and overall, then ACC's
/// overall gap to each static setting in percent.
pub fn show(v: &Value) {
    println!("segments: P1 P1 | P2 P2 | P1 | P2  (P1 = WebSearch, P2 = DataMining)");
    let rows = common::rows(v, "rows");
    common::print_table(
        rows,
        &[
            "policy",
            "per_segment_avg_us.0",
            "per_segment_avg_us.1",
            "per_segment_avg_us.2",
            "per_segment_avg_us.3",
            "per_segment_avg_us.4",
            "per_segment_avg_us.5",
            "overall_avg_us",
        ],
    );
    let overall = |p| common::num_where(rows, "policy", p, "overall_avg_us");
    let gap = |p| common::cell(&json!((overall("ACC-fresh") / overall(p) - 1.0) * 100.0));
    println!(
        "\nACC-fresh vs SECN1: {}%, vs SECN2: {}% (negative = ACC better)",
        gap("SECN1"),
        gap("SECN2")
    );
}
