//! Fig. 10 — distributed training: training speed (iterations/s) for an
//! AlexNet-like (communication-bound) and a ResNet-50-like (more
//! compute-bound) job, plus PFC pause counts and RDMA round-trip latency
//! under the ResNet-50 run. The paper reports +7..12% training speed for
//! ACC over the static settings.

use crate::common::{self, Harness, Policy};
use netsim::prelude::*;
use serde_json::{json, Value};
use std::cell::RefCell;
use std::rc::Rc;
use transport::{CcKind, Message};
use workloads::gen::apply_arrivals;
use workloads::{TrainingCluster, TrainingConfig};

const PROBE_TAG: u64 = 0xBEEF;

/// One result row: the `model` job under `policy`.
fn run_one(h: &Harness, model: &str, cfg: TrainingConfig, policy: Policy) -> Value {
    let scale = h.scale;
    // 8 hosts spread over the testbed Clos: 7 workers + 1 PS, cross-rack.
    let seed = SimConfig::default().seed;
    let mut sc = h.scenario(&TopologySpec::paper_testbed(), policy, seed, &[]);
    let (sim, hosts, fct) = (&mut sc.sim, &sc.hosts, &sc.fct);

    // Pick 8 hosts across racks: every third host.
    let members: Vec<NodeId> = hosts.iter().copied().step_by(3).take(8).collect();
    let cluster = Rc::new(RefCell::new(TrainingCluster::new(&members, cfg)));
    transport::set_app_hook(sim, cluster.clone());
    let init = cluster.borrow().initial_arrivals(SimTime::ZERO);
    apply_arrivals(sim, &init);

    // RDMA latency probes from an idle host towards the PS's rack.
    let horizon = scale.pick(SimTime::from_ms(120), SimTime::from_ms(40));
    let probe_src = hosts[1]; // not a member (members are 0,3,6,...)
    let ps = cluster.borrow().ps();
    let mut t = SimTime::from_ms(1);
    while t < horizon {
        transport::schedule_message(
            sim,
            probe_src,
            t,
            Message::new(ps, 1_000, CcKind::Dcqcn).with_tag(PROBE_TAG),
        );
        t += SimTime::from_us(500);
    }
    sim.run_until(horizon);
    let c = cluster.borrow();
    let probes = fct.borrow().stats(|r| r.tag == PROBE_TAG);
    json!({
        "model": model,
        "policy": policy.name(),
        "iters_per_sec": c.iterations_per_sec(SimTime::ZERO, horizon),
        "pfc_pauses": sim.core().total_pfc_pauses,
        "probe_avg_us": probes.avg_us,
        "probe_p99_us": probes.p99_us,
    })
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    // Model sizes scaled 10x down (see workloads::training docs); the
    // AlexNet job is communication-bound, ResNet-50 closer to balanced.
    let jobs = [
        (
            "AlexNet",
            TrainingConfig {
                gradient_bytes: 2_400_000,
                compute_time: SimTime::from_us(300),
                cc: CcKind::Dcqcn,
            },
        ),
        (
            "ResNet-50",
            TrainingConfig {
                gradient_bytes: 1_000_000,
                compute_time: SimTime::from_us(800),
                cc: CcKind::Dcqcn,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (model, cfg) in jobs {
        for policy in [Policy::Secn1, Policy::Secn2, Policy::Acc] {
            rows.push(run_one(h, model, cfg.clone(), policy));
        }
    }
    json!({ "rows": rows })
}

/// Print every model × policy run, then ACC's training-speed gain over
/// each static setting per model, in percent.
pub fn show(v: &Value) {
    let rows = common::rows(v, "rows");
    common::print_table(
        rows,
        &[
            "model",
            "policy",
            "iters_per_sec",
            "pfc_pauses",
            "probe_avg_us",
            "probe_p99_us",
        ],
    );
    let mut models: Vec<&Value> = rows.iter().map(|r| &r["model"]).collect();
    models.dedup();
    for model in models {
        let runs: Vec<Value> = rows
            .iter()
            .filter(|r| r["model"] == *model)
            .cloned()
            .collect();
        let speed = |p| common::num_where(&runs, "policy", p, "iters_per_sec");
        let gain = |p| common::cell(&json!((speed("ACC") / speed(p) - 1.0) * 100.0));
        println!(
            "{}: ACC vs SECN1 {}%, vs SECN2 {}%",
            common::cell(model),
            gain("SECN1"),
            gain("SECN2")
        );
    }
}
