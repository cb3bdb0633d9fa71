//! `acc-bench perf --scenario rl` — RL-kernel throughput trajectory.
//!
//! Measures the batched, allocation-free DDQN kernels against the retained
//! scalar reference on the two hot paths of a control tick:
//!
//! * **train-throughput** — steady-state `train_step` (minibatch forward,
//!   batched Double-DQN targets, batched backward, Adam) in steps/sec, plus
//!   allocations per step from the counting global allocator;
//! * **inference-tick** — one control tick's worth of per-queue decisions
//!   (64 queues per tick), batched `select_actions_batch` vs per-queue
//!   `select_action`, in decisions/sec.
//!
//! Both scenarios run the batched and scalar paths on identically-seeded
//! agents and record `bit_identical`: the exported models (training) and
//! the chosen action streams (inference) must match exactly — the numbers
//! are only comparable because the outputs are interchangeable.
//!
//! Results go to `BENCH_rl.json` under the `acc-bench-perf-rl/v1` schema;
//! CI runs the quick scale, validates the schema and archives the file.

use crate::common::Scale;
use crate::perf::{paired_ratio, PairedRatio, RATIO_ROUNDS};
use rl::{DdqnAgent, DdqnConfig, Transition};
use serde_json::{json, Value};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Schema tag written into `BENCH_rl.json`; bump on breaking changes.
pub const SCHEMA: &str = "acc-bench-perf-rl/v1";

/// ACC-shaped agent: 12 state features (k=3 history × 4 features), the
/// 20-template action space, default DDQN hyper-parameters.
const STATE_DIM: usize = 12;
const N_ACTIONS: usize = 20;

/// Queues decided per control tick in the inference scenario (a 64-port
/// switch tuning one traffic class).
const QUEUES_PER_TICK: usize = 64;

/// Deterministic warm agent with a populated replay memory and (after the
/// warm-up steps) a fully shaped training workspace.
fn warm_agent(seed: u64) -> DdqnAgent {
    let mut agent = DdqnAgent::new(STATE_DIM, N_ACTIONS, DdqnConfig::default(), seed);
    for i in 0..512u32 {
        let s: Vec<f32> = (0..STATE_DIM as u32)
            .map(|d| ((i * 13 + d * 7) % 23) as f32 * 0.05)
            .collect();
        agent.observe(Transition {
            state: s.clone(),
            action: (i as usize) % N_ACTIONS,
            reward: (i % 11) as f32 * 0.1 - 0.4,
            next_state: s,
            done: i % 29 == 0,
        });
    }
    agent
}

/// Time `steps` train steps through `step`, returning steps/sec and adding
/// the losses to `loss_acc`.
fn time_training(
    agent: &mut DdqnAgent,
    steps: usize,
    step: fn(&mut DdqnAgent) -> Option<f32>,
    loss_acc: &mut f64,
) -> f64 {
    let start = Instant::now();
    for _ in 0..steps {
        *loss_acc += step(agent).expect("replay stays warm") as f64;
    }
    steps as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Allocations the registered probe counts while `f` runs; 0 without one.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = crate::perf::alloc_counts();
    let out = f();
    let allocs = match (before, crate::perf::alloc_counts()) {
        (Some((a0, _)), Some((a1, _))) => a1 - a0,
        _ => 0,
    };
    (out, allocs)
}

/// Steady-state training throughput, batched vs scalar reference.
fn train_throughput(scale: Scale) -> Value {
    let steps = scale.pick(2000, 400);

    let mut batched = warm_agent(7);
    let mut scalar = warm_agent(7);
    // Warm-up outside the timed window: shapes the persistent workspace and
    // lazily builds the gradient buffers.
    for _ in 0..4 {
        batched.train_step();
        scalar.train_step_scalar();
    }
    let (mut bl, mut sl) = (0f64, 0f64);
    let (mut batched_allocs, mut scalar_allocs) = (0u64, 0u64);
    let PairedRatio {
        a: batched_sps,
        b: scalar_sps,
        ratio: speedup,
    } = paired_ratio(
        || {
            let (sps, allocs) = allocs_during(|| {
                time_training(&mut batched, steps, DdqnAgent::train_step, &mut bl)
            });
            batched_allocs += allocs;
            sps
        },
        || {
            let (sps, allocs) = allocs_during(|| {
                time_training(&mut scalar, steps, DdqnAgent::train_step_scalar, &mut sl)
            });
            scalar_allocs += allocs;
            sps
        },
    );

    // Both agents consumed identical RNG/replay streams: the contract says
    // the resulting models (and every loss along the way) are bit-equal.
    let bit_identical = bl == sl
        && serde_json::to_string(&batched.export_model()).unwrap()
            == serde_json::to_string(&scalar.export_model()).unwrap();
    let total_steps = (RATIO_ROUNDS * steps) as u64;
    let probed = crate::perf::alloc_counts().is_some();
    let per_step = |allocs: u64| probed.then(|| allocs as f64 / total_steps as f64);
    let allocs_per_step = per_step(batched_allocs);
    println!(
        "{:<18} {:>12.0} steps/s (batched) {:>12.0} steps/s (scalar)  speedup {:.2}x  allocs/step {}",
        "train-throughput",
        batched_sps,
        scalar_sps,
        speedup,
        allocs_per_step
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "n/a".into()),
    );
    json!({
        "name": "train-throughput",
        "steps": total_steps,
        "minibatch": 32,
        "batched_steps_per_sec": batched_sps,
        "scalar_steps_per_sec": scalar_sps,
        "speedup": speedup,
        "allocs_per_step": allocs_per_step,
        "scalar_allocs_per_step": per_step(scalar_allocs),
        "bit_identical": bit_identical,
    })
}

/// Per-tick decision throughput: 64 queue states per tick, batched single
/// forward pass vs a scalar `select_action` per queue.
fn inference_tick(scale: Scale) -> Value {
    let ticks = scale.pick(2000, 400);
    let mut batched = warm_agent(11);
    let mut scalar = warm_agent(11);
    let states: Vec<f32> = (0..QUEUES_PER_TICK * STATE_DIM)
        .map(|i| ((i * 31) % 101) as f32 * 0.01)
        .collect();

    // Correctness pass (untimed): identically-seeded agents walk the same
    // RNG/ε schedule tick by tick, so every decision must agree.
    let mut bit_identical = true;
    {
        let mut b = warm_agent(23);
        let mut s = warm_agent(23);
        let mut decisions: Vec<(usize, f64)> = Vec::new();
        for _ in 0..50 {
            b.select_actions_batch(&states, QUEUES_PER_TICK, &mut decisions);
            for (q, d) in decisions.iter().enumerate() {
                let a = s.select_action(&states[q * STATE_DIM..(q + 1) * STATE_DIM]);
                bit_identical &= a == d.0;
            }
        }
    }

    let mut decisions: Vec<(usize, f64)> = Vec::new();
    batched.select_actions_batch(&states, QUEUES_PER_TICK, &mut decisions); // shape once
    let sink = std::cell::Cell::new(0usize);
    let PairedRatio {
        a: batched_dps,
        b: scalar_dps,
        ratio: speedup,
    } = paired_ratio(
        || {
            let start = Instant::now();
            for _ in 0..ticks {
                batched.select_actions_batch(&states, QUEUES_PER_TICK, &mut decisions);
                sink.set(sink.get() ^ decisions[0].0);
            }
            (ticks * QUEUES_PER_TICK) as f64 / start.elapsed().as_secs_f64().max(1e-9)
        },
        || {
            let start = Instant::now();
            for _ in 0..ticks {
                for q in 0..QUEUES_PER_TICK {
                    let a = scalar.select_action(&states[q * STATE_DIM..(q + 1) * STATE_DIM]);
                    sink.set(sink.get() ^ a);
                }
            }
            (ticks * QUEUES_PER_TICK) as f64 / start.elapsed().as_secs_f64().max(1e-9)
        },
    );
    // Defeat dead-code elimination without perturbing timing.
    assert!(sink.get() < usize::MAX);
    println!(
        "{:<18} {:>12.0} dec/s   (batched) {:>12.0} dec/s   (scalar)  speedup {speedup:.2}x",
        "inference-tick", batched_dps, scalar_dps,
    );
    json!({
        "name": "inference-tick",
        "queues_per_tick": QUEUES_PER_TICK,
        "ticks": (RATIO_ROUNDS * ticks) as u64,
        "batched_decisions_per_sec": batched_dps,
        "scalar_decisions_per_sec": scalar_dps,
        "speedup": speedup,
        "bit_identical": bit_identical,
    })
}

/// Run the RL scenario family and write `BENCH_rl.json` to `out`. Returns
/// the JSON document (also used by the smoke test).
pub fn run(scale: Scale, out: &Path) -> io::Result<Value> {
    crate::common::banner("perf-rl", "batched RL kernel throughput");
    let scenarios = vec![train_throughput(scale), inference_tick(scale)];
    let doc = json!({
        "schema": SCHEMA,
        "scale": if scale.quick { "quick" } else { "full" },
        "alloc_probe": crate::perf::alloc_counts().is_some(),
        "agent": {
            "state_dim": STATE_DIM,
            "hidden": [40, 40],
            "n_actions": N_ACTIONS,
        },
        "scenarios": scenarios,
    });
    let text = serde_json::to_string_pretty(&doc)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(out, text)?;
    println!("wrote {}", out.display());
    Ok(doc)
}

/// Validate a `BENCH_rl.json` document against the v1 schema. Returns the
/// list of problems (empty = valid). Bit-identity is a schema-level
/// requirement: a speedup bought by diverging from the reference is not a
/// result.
pub fn validate(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            errs.push(what.to_string());
        }
    };
    need(
        doc.get("schema").and_then(Value::as_str) == Some(SCHEMA),
        "schema tag missing or wrong",
    );
    need(
        matches!(
            doc.get("scale").and_then(Value::as_str),
            Some("quick") | Some("full")
        ),
        "scale must be quick|full",
    );
    let rows = doc
        .get("scenarios")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    for expected in ["train-throughput", "inference-tick"] {
        let Some(row) = rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(expected))
        else {
            need(false, &format!("scenario {expected} missing"));
            continue;
        };
        let rate_keys: &[&str] = if expected == "train-throughput" {
            &["batched_steps_per_sec", "scalar_steps_per_sec", "speedup"]
        } else {
            &[
                "batched_decisions_per_sec",
                "scalar_decisions_per_sec",
                "speedup",
            ]
        };
        for k in rate_keys {
            need(
                row.get(k)
                    .and_then(Value::as_f64)
                    .is_some_and(|v| v.is_finite() && v > 0.0),
                &format!("scenario {expected}: {k} missing or non-positive"),
            );
        }
        need(
            row.get("bit_identical").and_then(Value::as_bool) == Some(true),
            &format!("scenario {expected}: batched path diverged from the scalar reference"),
        );
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(schema: &str, bit_identical: bool, speedup: f64) -> Value {
        json!({
            "schema": schema,
            "scale": "quick",
            "alloc_probe": false,
            "agent": {"state_dim": 12, "hidden": [40, 40], "n_actions": 20},
            "scenarios": [
                {
                    "name": "train-throughput",
                    "steps": 1200u64, "minibatch": 32,
                    "batched_steps_per_sec": 5000.0, "scalar_steps_per_sec": 2000.0,
                    "speedup": speedup, "allocs_per_step": Value::Null,
                    "scalar_allocs_per_step": Value::Null,
                    "bit_identical": bit_identical,
                },
                {
                    "name": "inference-tick",
                    "queues_per_tick": 64u64, "ticks": 1200u64,
                    "batched_decisions_per_sec": 4.0e6,
                    "scalar_decisions_per_sec": 2.0e6,
                    "speedup": 2.0, "bit_identical": true,
                },
            ],
        })
    }

    #[test]
    fn validate_catches_schema_and_divergence() {
        let good = doc(SCHEMA, true, 2.5);
        assert!(validate(&good).is_empty(), "{:?}", validate(&good));
        assert!(!validate(&doc("something-else", true, 2.5)).is_empty());
        assert!(!validate(&doc(SCHEMA, false, 2.5)).is_empty());
        assert!(!validate(&doc(SCHEMA, true, 0.0)).is_empty());
        assert!(!validate(&json!({"schema": SCHEMA})).is_empty());
    }

    #[test]
    fn quick_run_is_bit_identical_and_schema_valid() {
        let dir = std::path::Path::new("target/perf_rl_unit");
        std::fs::create_dir_all(dir).unwrap();
        let doc = run(Scale::QUICK, &dir.join("BENCH_rl.json")).unwrap();
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
    }
}
