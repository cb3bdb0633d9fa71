//! Fig. 17 (+ Fig. 4 / Appendix .1) — the reward-design ablation.
//!
//! Two agents train on the same incast scenario over the ten-level
//! single-threshold action ladder; one uses the paper's step-mapped queue
//! penalty, the other the linear penalty. The step reward differentiates
//! small queue depths, so the converged policy concentrates on the low
//! thresholds (the expected action); the linear reward makes the actions
//! nearly indistinguishable and the policy stays scattered / high. Each
//! design is one [`common::score`] call over the last 25 % of its run,
//! whose `by_action` gives the share of that window each action was held
//! and the agent's own mean reward while it was.

use crate::common::{self, Arm, Harness, MatrixCell};
use acc_core::controller::{AccConfig, AccController};
use acc_core::reward::{QueuePenalty, RewardConfig};
use acc_core::ActionSpace;
use netsim::prelude::*;
use serde_json::{json, Value};
use std::sync::Arc;

/// Train one agent under `penalty` and score its converged window: the last
/// 25 % of the run.
fn run_one(h: &Harness, label: &str, penalty: QueuePenalty) -> Value {
    let scale = h.scale;
    let mut cfg = AccConfig::default();
    cfg.ddqn.min_replay = 64;
    cfg.ddqn.eps_decay_steps = scale.pick(2_000.0, 600.0);
    cfg.reward = RewardConfig {
        w_throughput: 0.7,
        w_delay: 0.3,
        penalty,
    };
    cfg.seed = 3;
    let install = move |sim: &mut Simulator| {
        let sw = sim.core().topo.switches()[0];
        let space = ActionSpace::single_threshold_ladder();
        sim.set_controller(sw, Box::new(AccController::new(cfg.clone(), space)));
    };

    // Sustained incast congestion: long-running flows so each control
    // interval's reward directly reflects the applied threshold (the queue
    // settles around K, utilisation around what DCQCN sustains at that K).
    let (spec, arrivals) = common::sustained_incast_traffic(6, 4);
    let total_ms = scale.pick(200u64, 60);
    let window = SimTime::from_ms(total_ms * 3 / 4)..SimTime::from_ms(total_ms);
    let cfg = common::sim_config(17);
    let arm = Arm::Acc(label.to_string(), Arc::new(install));
    common::score(h, (&spec, &arrivals, cfg), &arm, window)
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let designs = [
        ("step (paper)", "step", QueuePenalty::Step),
        (
            "linear",
            "linear",
            QueuePenalty::Linear {
                qmax_bytes: 10 * 1024 * 1024,
            },
        ),
    ];
    let cells = designs
        .iter()
        .map(|&(_, label, penalty)| {
            MatrixCell::new(format!("fig17 {label}"), move |h| {
                run_one(h, label, penalty)
            })
        })
        .collect();
    let out: Vec<Value> = designs
        .iter()
        .zip(h.run_matrix(cells))
        .map(|(&(name, ..), s)| {
            // Mass on the low half of the ladder (the "expected" actions
            // for an incast-congested queue).
            let low = common::rows(&s, "by_action")[..4].iter();
            let low_mass: f64 = low.map(|a| common::num(&a["held_frac"])).sum();
            let head = json!({ "penalty": name, "low_threshold_mass": low_mass });
            common::with(head, s)
        })
        .collect();
    json!({ "designs": out })
}

/// Print, per reward design, the share of the converged window each ladder
/// action was held and the mean reward the agent was paid while it was
/// (the reward landscape each design exposes to the learner), then one
/// summary row per design (`low_threshold_mass`: K <= 160 KB). An action's
/// `k_bytes` is its rung of the ladder, `e_n(action)`.
pub fn show(v: &Value) {
    let designs = common::rows(v, "designs");
    for d in designs {
        println!("\n-- D(L) = {} --", common::cell(&d["penalty"]));
        let rows: Vec<Value> = common::rows(d, "by_action")
            .iter()
            .enumerate()
            .map(|(n, a)| {
                let rung = json!({ "action": n, "k_bytes": acc_core::reward::e_n(n) });
                common::with(rung, a.clone())
            })
            .collect();
        common::print_table(&rows, &["action", "k_bytes", "held_frac", "own_reward"]);
    }
    println!();
    common::print_table(
        designs,
        &[
            "penalty",
            "low_threshold_mass",
            "avg_queue_kb",
            "goodput_gbps",
            "reward_w07",
        ],
    );
}
