//! Fig. 17 (+ Fig. 4 / Appendix .1) — the reward-design ablation.
//!
//! Two agents train on the same incast scenario over the ten-level
//! single-threshold action ladder; one uses the paper's step-mapped queue
//! penalty, the other the linear penalty. The step reward differentiates
//! small queue depths, so the converged policy concentrates on the low
//! thresholds (the expected action); the linear reward makes the actions
//! nearly indistinguishable and the policy stays scattered / high.

use crate::common::{self, Harness, QueueMark, INCAST_PORT};
use acc_core::controller::{AccConfig, AccController};
use acc_core::reward::{QueuePenalty, RewardConfig};
use acc_core::ActionSpace;
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use serde_json::{json, Value};

fn run_one(h: &Harness, penalty: QueuePenalty) -> (Vec<u64>, f64, f64, Vec<f64>) {
    let scale = h.scale;
    let label = match penalty {
        QueuePenalty::Step => "step",
        QueuePenalty::Linear { .. } => "linear",
    };

    let mut cfg = AccConfig::default();
    cfg.ddqn.min_replay = 64;
    cfg.ddqn.eps_decay_steps = scale.pick(2_000.0, 600.0);
    cfg.reward = RewardConfig {
        w_throughput: 0.7,
        w_delay: 0.3,
        penalty,
    };
    cfg.seed = 3;
    let space = ActionSpace::single_threshold_ladder();

    // Sustained incast congestion: long-running flows so each control
    // interval's reward directly reflects the applied threshold (the queue
    // settles around K, utilisation around what DCQCN sustains at that K).
    let mut sc = h.sustained_incast(common::sim_config(17), label, 6, 4, |sim| {
        let sw = sim.core().topo.switches()[0];
        sim.set_controller(sw, Box::new(AccController::new(cfg, space)));
    });
    let sim = &mut sc.sim;
    let sw = sim.core().topo.switches()[0];
    // Converged-behaviour window: the last 25% of the run.
    let total_ms = scale.pick(200u64, 60);
    let horizon = SimTime::from_ms(total_ms);
    sim.run_until(SimTime::from_ms(total_ms * 3 / 4));
    let start = QueueMark::read(sim, sw, INCAST_PORT, PRIO_RDMA);
    let mut histogram = vec![0u64; 10];
    common::run_stepped(sim, horizon, SimTime::from_us(250), |sim| {
        sim.with_controller(sw, |c, _| {
            let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
            if let Some(a) = acc.current_action(INCAST_PORT, PRIO_RDMA) {
                histogram[a] += 1;
            }
        });
    });
    // Mean observed reward per action over the replay memory (the reward
    // landscape each design exposes to the learner).
    let mean_rewards = sim.with_controller(sw, |c, _| {
        let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
        let seat = acc.agent();
        let mut seat = seat.borrow_mut();
        let agent = seat.get();
        let mut sum = [0.0f64; 10];
        let mut cnt = [0usize; 10];
        for t in agent.replay.iter() {
            sum[t.action] += t.reward as f64;
            cnt[t.action] += 1;
        }
        (0..10)
            .map(|a| {
                if cnt[a] > 0 {
                    sum[a] / cnt[a] as f64
                } else {
                    0.0
                }
            })
            .collect::<Vec<f64>>()
    });
    // Queue and goodput over the converged window only.
    let w = start.window_to(&QueueMark::read(sim, sw, INCAST_PORT, PRIO_RDMA));
    (
        histogram,
        w.avg_queue_bytes / 1024.0,
        w.goodput_gbps,
        mean_rewards,
    )
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let mut out = Vec::new();
    for (name, penalty) in [
        ("step (paper)", QueuePenalty::Step),
        (
            "linear",
            QueuePenalty::Linear {
                qmax_bytes: 10 * 1024 * 1024,
            },
        ),
    ] {
        let (hist, avg_q_kb, goodput, rewards) = run_one(h, penalty);
        let total: u64 = hist.iter().sum::<u64>().max(1);
        // Mass on the low half of the ladder (the "expected" actions for an
        // incast-congested queue).
        let low_mass: u64 = hist[..4].iter().sum();
        out.push(json!({
            "penalty": name,
            "action_histogram": hist,
            "mean_reward_per_action": rewards,
            "low_threshold_mass": low_mass as f64 / total as f64,
            "avg_queue_kb": avg_q_kb,
            "goodput_gbps": goodput,
        }));
    }
    json!({ "designs": out })
}

/// Print, per reward design, how often the converged policy chose each
/// ladder action and the mean reward the replay memory holds for it, then
/// one summary row per design (`low_threshold_mass`: K <= 160 KB). An
/// action's `k_bytes` is its rung of the ladder, `e_n(action)`.
pub fn show(v: &Value) {
    let designs = common::rows(v, "designs");
    for d in designs {
        println!("\n-- D(L) = {} --", common::cell(&d["penalty"]));
        let hist = common::rows(d, "action_histogram");
        let total = hist.iter().map(common::num).sum::<f64>().max(1.0);
        let rows: Vec<Value> = hist
            .iter()
            .enumerate()
            .map(|(n, chosen)| {
                json!({
                    "action": n,
                    "k_bytes": acc_core::reward::e_n(n),
                    "chosen_frac": common::num(chosen) / total,
                    "mean_reward": d["mean_reward_per_action"][n],
                })
            })
            .collect();
        common::print_table(&rows, &["action", "k_bytes", "chosen_frac", "mean_reward"]);
    }
    println!();
    common::print_table(
        designs,
        &[
            "penalty",
            "low_threshold_mass",
            "avg_queue_kb",
            "goodput_gbps",
        ],
    );
}
