//! Design-choice ablations called out by the paper's §3.3:
//!
//! * **history length k** — "we have trained the model with different
//!   historical periods of network states (k = 1, 3, 5)... k = 3 suffices";
//! * **control interval Δt** — "one order of magnitude more than RTT";
//!   shorter intervals fight the DCQCN control loop, longer ones react late;
//! * **reward weights ω₁/ω₂** — the utility/delay tradeoff knob operators
//!   set per application (0.7/0.3 recommended for storage).
//!
//! Each cell trains a fresh ACC online on the same sustained-incast scenario
//! for the same number of control ticks, so a longer Δt holds each decision
//! longer at an equal learning budget, and is one [`common::score`] call
//! over the last 25 % of its run.

use crate::common::{self, Arm, Harness, MatrixCell};
use acc_core::controller::{AccConfig, AccController};
use acc_core::reward::RewardConfig;
use acc_core::ActionSpace;
use netsim::prelude::*;
use serde_json::{json, Value};
use std::sync::Arc;

/// Train a fresh ACC with history `k`, control interval `dt` and reward
/// weight `w1` for `ticks` control intervals, and score the last quarter
/// of the run.
fn run_cell(h: &Harness, ticks: u64, k: usize, dt: SimTime, w1: f64) -> Value {
    let mut cfg = AccConfig::default();
    cfg.history_k = k;
    cfg.reward = RewardConfig {
        w_throughput: w1,
        w_delay: 1.0 - w1,
        ..Default::default()
    };
    cfg.ddqn.min_replay = 64;
    cfg.ddqn.eps_decay_steps = h.scale.pick(2_000.0, 600.0);
    cfg.seed = 29;
    let install = move |sim: &mut Simulator| {
        let sw = sim.core().topo.switches()[0];
        let acc = AccController::new(cfg.clone(), ActionSpace::templates());
        sim.set_controller(sw, Box::new(acc));
    };

    // Sustained 6x4 incast of long flows.
    let (spec, arrivals) = common::sustained_incast_traffic(6, 4);
    let simcfg = SimConfig::default().with_seed(23).with_control_interval(dt);
    let label = format!("k{k}_dt{}us_w{w1:.1}", dt.as_ps() / 1_000_000);
    let arm = Arm::Acc(label, Arc::new(install));
    let window = dt.mul(ticks * 3 / 4)..dt.mul(ticks);
    common::score(h, (&spec, &arrivals, simcfg), &arm, window)
}

/// Every cell: its sweep, then its history `k`, control interval Δt (µs)
/// and reward weight ω₁.
const CELLS: [(&str, usize, u64, f64); 10] = [
    ("history_k", 1, 50, 0.7),
    ("history_k", 3, 50, 0.7),
    ("history_k", 5, 50, 0.7),
    ("delta_t", 3, 10, 0.7),
    ("delta_t", 3, 50, 0.7),
    ("delta_t", 3, 200, 0.7),
    ("delta_t", 3, 1000, 0.7),
    ("reward_weights", 3, 50, 0.5),
    ("reward_weights", 3, 50, 0.7),
    ("reward_weights", 3, 50, 0.9),
];

/// Run the ablations.
pub fn run(h: &Harness) -> Value {
    // Every cell trains this many control ticks: 120 ms (full) or 40 ms
    // (quick) at the paper's 50 µs.
    let ticks = h.scale.pick(2_400, 800);
    let cells = CELLS
        .iter()
        .map(|&(sweep, k, dt_us, w1)| {
            let dt = SimTime::from_us(dt_us);
            let label = format!("ablations {sweep} k{k} dt{dt_us}us w{w1}");
            MatrixCell::new(label, move |h| run_cell(h, ticks, k, dt, w1))
        })
        .collect();
    let mut out = serde_json::Map::new();
    for (&(sweep, k, dt_us, w1), s) in CELLS.iter().zip(h.run_matrix(cells)) {
        // Each row is keyed by the knob its sweep varies.
        let knob = match sweep {
            "history_k" => json!({ "k": k }),
            "delta_t" => json!({ "dt_us": dt_us }),
            _ => json!({ "w1": w1 }),
        };
        let row = common::with(knob, s);
        match out.get_mut(sweep) {
            Some(Value::Array(rows)) => rows.push(row),
            _ => {
                out.insert(sweep.into(), Value::Array(vec![row]));
            }
        }
    }
    Value::Object(out)
}

/// Print the converged goodput / queue tradeoff of each sweep, with the
/// paper's reward (ω₁ = 0.7) each cell earns per busy interval.
pub fn show(v: &Value) {
    let sweeps = [
        ("history_k", "history length k (paper picks 3)", "k"),
        (
            "delta_t",
            "control interval delta_t (paper: ~10x RTT = 50 us here)",
            "dt_us",
        ),
        (
            "reward_weights",
            "reward weights w1 (throughput) / w2 = 1 - w1 (delay)",
            "w1",
        ),
    ];
    for (key, title, swept) in sweeps {
        println!("\n-- {title} --");
        common::print_table(
            common::rows(v, key),
            &[swept, "ticks", "goodput_gbps", "avg_queue_kb", "reward_w07"],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every Δt row makes the same number of decisions: its horizon is
    /// ticks × Δt, so a longer interval holds each decision longer at an
    /// equal learning budget.
    #[test]
    fn every_delta_t_row_trains_the_same_number_of_ticks() {
        let h = Harness::new(common::Scale::QUICK).experiment("ablations");
        let delta_t = CELLS.iter().filter(|c| c.0 == "delta_t");
        for &(_, k, dt, w1) in delta_t {
            let s = run_cell(&h, 40, k, SimTime::from_us(dt), w1);
            assert_eq!(s["ticks"].as_u64(), Some(40), "dt {dt} us");
        }
    }
}
