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
    let scale = h.scale;
    common::banner(
        "fig16",
        "online training across unseen workload switches (P1=WebSearch, P2=DataMining)",
    );
    println!("segments: P1 P1 | P2 P2 | P1 | P2  (switches at segment boundaries)\n");
    let mut rows = Vec::new();
    let mut overall = std::collections::HashMap::new();
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "policy", "seg1", "seg2", "seg3", "seg4", "seg5", "seg6", "overall avg"
    );
    for policy in [Policy::AccFresh, Policy::Secn1, Policy::Secn2] {
        let (segs, all) = run_one(h, policy);
        print!("{:<10}", policy.name());
        for s in &segs {
            print!(" {s:>9.1}");
        }
        println!(" {all:>11.1}");
        overall.insert(policy.name(), all);
        rows.push(json!({
            "policy": policy.name(),
            "per_segment_avg_us": segs,
            "overall_avg_us": all,
        }));
    }
    let acc = overall["ACC-fresh"];
    println!(
        "\nACC-fresh vs SECN1: {:+.1}%   vs SECN2: {:+.1}% (negative = ACC better)",
        (acc / overall["SECN1"] - 1.0) * 100.0,
        (acc / overall["SECN2"] - 1.0) * 100.0
    );
    let v = json!({ "rows": rows });
    common::save_results_scaled("fig16", &v, scale);
    v
}
