//! Reward oracle — what the paper's reward (§3.3, eq. 2) pays each fixed
//! ECN configuration, next to the FCTs that configuration gives.
//!
//! Every entry of the 20-template action space is held static on the
//! fig12 WebSearch fabric at 60 % and 90 % load, on the fig7 end-to-end
//! switch at 60 % and on the fig17 dumbbell (6 senders × 4 long DCQCN
//! flows into one port: the one-bottleneck setup of Gomez et al., where
//! the best template is the known answer a learner should reach), beside
//! SECN1, SECN2, ACC and ACC-fresh. Each run is
//! stepped at the 50 µs control interval, and at every step the RDMA queue
//! on every port of every switch goes through the agent's own
//! [`QueueObserver`] and is scored by the agent's own
//! [`RewardConfig::reward`]: the mean is what the agent would be paid for
//! holding that configuration. This is the known-best static yardstick of
//! Gomez et al. (arXiv:1909.08386). If the shallow template 0 earns less
//! than the deep ones, the reward ranks deep queues first and the learner
//! is right to follow it; if it earns more, the learner is at fault.
//!
//! An idle interval pays ω₂ whatever the action, so only busy intervals
//! (any bytes sent or any standing queue) are averaged. The same intervals
//! are also scored at ω₁ = 0.5 and 0.3, with no extra run.

use crate::common::{self, Harness, MatrixCell, Policy};
use crate::{fig07_fct_load, fig12_websearch};
use acc_core::reward::RewardConfig;
use acc_core::state::QueueObserver;
use acc_core::static_ecn::{install_static, StaticEcnPolicy};
use acc_core::ActionSpace;
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use serde_json::{json, Value};

/// The reward each interval is scored by: the paper's weights ω₁ = 0.7,
/// ω₂ = 0.3 ([`RewardConfig::default`]), then ω₁ = 0.5 and 0.3 with
/// ω₂ = 1 − ω₁ — the columns `reward_w07`, `reward_w05`, `reward_w03`.
fn weightings() -> [RewardConfig; 3] {
    let w = |w1: f64| RewardConfig {
        w_throughput: w1,
        w_delay: 1.0 - w1,
        ..RewardConfig::default()
    };
    [RewardConfig::default(), w(0.5), w(0.3)]
}

/// One arm of the oracle: template `i` of the action space held static,
/// or a named policy.
#[derive(Clone, Copy)]
enum Arm {
    Template(usize, EcnConfig),
    Policy(Policy),
}

impl Arm {
    /// The arm's row and run label.
    fn label(self) -> String {
        match self {
            Arm::Template(i, _) => format!("T{i}"),
            Arm::Policy(p) => p.name().to_string(),
        }
    }
}

/// Run one arm on one scenario, scoring every switch's RDMA queues per
/// interval, and return its row.
fn run_cell(
    h: &Harness,
    scenario: &str,
    (spec, arrivals, horizon): &(TopologySpec, Vec<workloads::gen::Arrival>, SimTime),
    seed: u64,
    arm: Arm,
) -> Value {
    let label = arm.label();
    let cfg = common::sim_config(seed);
    // Every interval is scored at the agent's control interval.
    let interval = cfg
        .control_interval
        .expect("sim_config sets a control interval");
    let (mut sc, ecn) = match arm {
        Arm::Template(_, ecn) => {
            let sc = h.scenario_installed(spec, cfg, &label, arrivals, |sim| {
                install_static(sim, StaticEcnPolicy::Fixed(ecn))
            });
            (sc, Some(ecn))
        }
        Arm::Policy(p) => (h.scenario(spec, p, seed, arrivals), None),
    };

    let core = sc.sim.core();
    let queues: Vec<(NodeId, PortId, u64)> = core
        .topo
        .switches()
        .iter()
        .flat_map(|&sw| {
            let ports = core.topo.node(sw).ports.len();
            (0..ports).map(move |p| (sw, PortId(p as u16)))
        })
        .map(|(sw, port)| (sw, port, core.topo.port(sw, port).rate_bps))
        .collect();
    let mut observers =
        vec![QueueObserver::new(1, Default::default(), SimTime::ZERO); queues.len()];
    let weightings = weightings();
    let mut sums = [0.0f64; 3];
    let mut busy = 0u64;
    common::run_stepped(&mut sc.sim, *horizon, interval, |sim| {
        let now = sim.now();
        for (&(sw, port, link_bps), observer) in queues.iter().zip(&mut observers) {
            let telem = sim.core_mut().synced_queue_telem(sw, port, PRIO_RDMA);
            let q = sim.core().queue(sw, port, PRIO_RDMA);
            let snap = QueueSnapshot {
                port,
                prio: PRIO_RDMA,
                qlen_bytes: q.bytes(),
                telem,
                ecn: q.ecn,
                link_bps,
            };
            let Some(iv) = observer.observe(&snap, now, 0.0) else {
                continue;
            };
            if iv.utilization > 0.0 || iv.avg_qlen_bytes > 0 {
                busy += 1;
                for (sum, r) in sums.iter_mut().zip(&weightings) {
                    *sum += r.reward(iv.utilization, iv.avg_qlen_bytes);
                }
            }
        }
    });

    let mean = sums.map(|sum| sum / busy as f64);
    let b = common::buckets_of(&sc.fct.borrow(), SimTime::ZERO);
    // The dumbbell's flows outlast its horizon: no FCT to report there.
    let fct = |s| (b.overall.count > 0).then(|| common::fct_json(s));
    json!({
        "scenario": scenario,
        "arm": label,
        "kmin_bytes": ecn.map(|e| e.kmin_bytes),
        "kmax_bytes": ecn.map(|e| e.kmax_bytes),
        "pmax": ecn.map(|e| e.pmax),
        "reward_w07": mean[0],
        "reward_w05": mean[1],
        "reward_w03": mean[2],
        "busy_intervals": busy,
        "overall": fct(&b.overall),
        "mice": fct(&b.mice),
        "elephant": fct(&b.elephant),
        "unfinished": b.unfinished,
    })
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let (spec, arrivals) = common::sustained_incast_traffic(6, 4);
    let dumbbell = (spec, arrivals, SimTime::from_ms(h.scale.pick(200, 60)));
    let scenarios = [
        ("fig12 60%", fig12_websearch::scenario(h.scale, 0.6), 9),
        ("fig12 90%", fig12_websearch::scenario(h.scale, 0.9), 9),
        ("fig7 60%", fig07_fct_load::scenario(h.scale, 0.6), 7),
        ("incast 6x4", dumbbell, 17),
    ];
    let templates = ActionSpace::templates();
    let arms: Vec<Arm> = templates
        .actions()
        .iter()
        .enumerate()
        .map(|(i, &ecn)| Arm::Template(i, ecn))
        .chain([Policy::Secn1, Policy::Secn2, Policy::Acc, Policy::AccFresh].map(Arm::Policy))
        .collect();
    let mut cells = Vec::new();
    for (name, scenario, seed) in &scenarios {
        for &arm in &arms {
            let label = format!("oracle {name} {}", arm.label());
            cells.push(MatrixCell::new(label, move |h| {
                run_cell(h, name, scenario, *seed, arm)
            }));
        }
    }
    json!({ "rows": h.run_matrix(cells) })
}

/// Print one table per scenario — each arm's mean reward per busy queue
/// interval under the three weightings, the busy-interval count and its
/// FCTs — then name the arm the paper's reward ranks first and the arm
/// with the shortest mice tail (a row with no finished flow has none), and
/// give ACC's and ACC-fresh's `reward_w07` as a fraction of the best
/// template's.
pub fn show(v: &Value) {
    let rows = common::rows(v, "rows");
    let mut names: Vec<&str> = rows.iter().filter_map(|r| r["scenario"].as_str()).collect();
    names.dedup();
    for name in names {
        println!("\n-- {name} --");
        let table: Vec<Value> = rows
            .iter()
            .filter(|r| r["scenario"].as_str() == Some(name))
            .cloned()
            .collect();
        common::print_table(
            &table,
            &[
                "scenario",
                "arm",
                "kmin_bytes",
                "kmax_bytes",
                "pmax",
                "reward_w07",
                "reward_w05",
                "reward_w03",
                "busy_intervals",
                "overall.avg_us",
                "mice.avg_us",
                "mice.p99_us",
                "elephant.avg_us",
                "unfinished",
            ],
        );
        let named = |best: Option<(&Value, f64)>| {
            best.map_or("-".to_string(), |(r, x)| {
                format!("{} ({})", common::cell(&r["arm"]), common::cell(&json!(x)))
            })
        };
        let highest = |x, b| x > b;
        println!(
            "highest reward_w07: {}; lowest mice.p99_us: {}",
            named(best_of(&table, "reward_w07", highest)),
            named(best_of(&table, "mice.p99_us", |x, b| x < b))
        );
        // Template rows carry their config; policy rows do not.
        let templates = table.iter().filter(|r| !r["kmin_bytes"].is_null());
        let best = best_of(templates, "reward_w07", highest).map_or(f64::NAN, |(_, x)| x);
        let ratio = |p: Policy| {
            let x = common::num_where(&table, "arm", p.name(), "reward_w07") / best;
            format!("{} {}", p.name(), common::cell(&json!(x)))
        };
        println!(
            "reward_w07 / best template's: {}; {}",
            ratio(Policy::Acc),
            ratio(Policy::AccFresh)
        );
    }
}

/// The row of `rows` whose number at `path` is `better` than every other
/// row's, with that number; rows without one are skipped.
fn best_of<'a>(
    rows: impl IntoIterator<Item = &'a Value>,
    path: &str,
    better: fn(f64, f64) -> bool,
) -> Option<(&'a Value, f64)> {
    let mut best: Option<(&Value, f64)> = None;
    for r in rows {
        let x = common::at(r, path).map_or(f64::NAN, common::num);
        if !x.is_nan() && best.is_none_or(|(_, b)| better(x, b)) {
            best = Some((r, x));
        }
    }
    best
}
