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
//! and reports the converged goodput / queue tradeoff.

use crate::common::{self, Harness};
use acc_core::controller::{AccConfig, AccController};
use acc_core::reward::RewardConfig;
use acc_core::ActionSpace;
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen;

struct Cell {
    goodput_gbps: f64,
    avg_queue_kb: f64,
    reward: f64,
}

fn run_cell(h: &Harness, k: usize, dt: SimTime, w1: f64) -> Cell {
    let scale = h.scale;
    let spec = TopologySpec::single_switch(16, 25_000_000_000, SimTime::from_ns(500));
    let simcfg = SimConfig::default().with_seed(23).with_control_interval(dt);
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let receiver = hosts[15];

    let mut cfg = AccConfig::default();
    cfg.history_k = k;
    cfg.reward = RewardConfig {
        w_throughput: w1,
        w_delay: 1.0 - w1,
        ..Default::default()
    };
    cfg.ddqn.min_replay = 64;
    cfg.ddqn.eps_decay_steps = scale.pick(2_000.0, 600.0);
    cfg.seed = 29;

    // Sustained 6x4 incast of long flows.
    let arr = gen::incast_wave(
        &hosts[..6],
        receiver,
        4,
        1_000_000_000,
        CcKind::Dcqcn,
        SimTime::ZERO,
    );
    let label = format!("k{k}_dt{}us_w{w1:.1}", dt.as_ps() / 1_000_000);
    let mut sc = h.scenario_installed(&spec, simcfg, &label, &arr, |sim| {
        let sw = sim.core().topo.switches()[0];
        let acc = AccController::new(cfg.clone(), ActionSpace::templates());
        sim.set_controller(sw, Box::new(acc));
    });
    let sim = &mut sc.sim;
    let sw = sim.core().topo.switches()[0];

    let total = scale.pick(SimTime::from_ms(120), SimTime::from_ms(40));
    let measure_from = SimTime::from_ps(total.as_ps() * 3 / 4);
    sim.run_until(measure_from);
    let (tx0, int0) = {
        let t = sim.core_mut().synced_queue_telem(sw, PortId(15), PRIO_RDMA);
        (t.tx_bytes, t.qlen_integral_byte_ps)
    };
    sim.run_until(total);
    let (tx1, int1) = {
        let t = sim.core_mut().synced_queue_telem(sw, PortId(15), PRIO_RDMA);
        (t.tx_bytes, t.qlen_integral_byte_ps)
    };
    let window = total - measure_from;
    let goodput = (tx1 - tx0) as f64 * 8.0 / window.as_secs_f64() / 1e9;
    let avg_q = (int1 - int0) as f64 / window.as_ps() as f64;
    let reward = cfg.reward.reward(goodput * 1e9 / 25e9, avg_q as u64);
    Cell {
        goodput_gbps: goodput,
        avg_queue_kb: avg_q / 1024.0,
        reward,
    }
}

/// Run the ablations.
pub fn run(h: &Harness) -> Value {
    let mut out = serde_json::Map::new();

    let mut rows = Vec::new();
    for k in [1usize, 3, 5] {
        let c = run_cell(h, k, SimTime::from_us(50), 0.7);
        rows.push(json!({"k": k, "goodput_gbps": c.goodput_gbps,
            "avg_queue_kb": c.avg_queue_kb, "reward": c.reward}));
    }
    out.insert("history_k".into(), Value::Array(rows));

    let mut rows = Vec::new();
    for dt_us in [10u64, 50, 200, 1000] {
        let c = run_cell(h, 3, SimTime::from_us(dt_us), 0.7);
        rows.push(json!({"dt_us": dt_us, "goodput_gbps": c.goodput_gbps,
            "avg_queue_kb": c.avg_queue_kb, "reward": c.reward}));
    }
    out.insert("delta_t".into(), Value::Array(rows));

    let mut rows = Vec::new();
    for w1 in [0.5f64, 0.7, 0.9] {
        let c = run_cell(h, 3, SimTime::from_us(50), w1);
        rows.push(json!({"w1": w1, "goodput_gbps": c.goodput_gbps,
            "avg_queue_kb": c.avg_queue_kb}));
    }
    out.insert("reward_weights".into(), Value::Array(rows));

    Value::Object(out)
}

/// Print the converged goodput / queue tradeoff of each sweep.
pub fn show(v: &Value) {
    let sweeps: [(&str, &str, &[&str]); 3] = [
        (
            "history_k",
            "history length k (paper picks 3)",
            &["k", "goodput_gbps", "avg_queue_kb", "reward"],
        ),
        (
            "delta_t",
            "control interval delta_t (paper: ~10x RTT = 50 us here)",
            &["dt_us", "goodput_gbps", "avg_queue_kb", "reward"],
        ),
        (
            "reward_weights",
            "reward weights w1 (throughput) / w2 = 1 - w1 (delay)",
            &["w1", "goodput_gbps", "avg_queue_kb"],
        ),
    ];
    for (key, title, columns) in sweeps {
        println!("\n-- {title} --");
        common::print_table(common::rows(v, key), columns);
    }
}
