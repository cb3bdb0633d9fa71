//! `acc-bench perf --scenario rl` — RL-kernel throughput trajectory.
//!
//! Measures the batched, allocation-free DDQN kernels against the retained
//! scalar reference on the two hot paths of a control tick, and the
//! asynchronous update path around them:
//!
//! * **train-throughput** — steady-state `train_step` (minibatch forward,
//!   batched Double-DQN targets, batched backward, Adam) in steps/sec, plus
//!   allocations per step from the counting global allocator and the
//!   step's machine-independent cost ([`rl::StepCost`]);
//! * **inference-tick** — one control tick's worth of per-queue decisions
//!   (64 queues per tick), batched `select_actions_batch` vs per-queue
//!   `select_action`, in decisions/sec;
//! * **async-update** — six agents updated through [`rl::Seat`]
//!   submit/join while the submitting thread does a tick's worth of other
//!   work, against the same rounds with the updates inline: rounds/sec of
//!   both, where the updates ran ([`rl::TrainerStats`]) and allocations per
//!   round.
//!
//! Every scenario runs both of its paths on identically-seeded agents and
//! records `bit_identical`: the exported models (training), the chosen
//! action streams (inference) and the whole agents (async) must match
//! exactly — the numbers are only comparable because the outputs are
//! interchangeable. What is *gated* (by [`validate`], the smoke test and
//! CI) are those identities and counts — allocations per step and per
//! round, operations and replay samples per step. Every ratio of two
//! wall-clock rates is a recorded column: on a shared two-core host the
//! train-step ratio alone read 1.86–1.99 against a gate of 2.
//!
//! Results go to `BENCH_rl.json` under the `acc-bench-perf-rl/v1` schema;
//! CI runs the quick scale, validates the schema and archives the file.

use crate::common::Scale;
use crate::perf::{paired_ratio, PairedRatio, RATIO_ROUNDS};
use rl::{DdqnAgent, DdqnConfig, Seat, TrainerStats, Transition};
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
    let cost = batched.step_cost();
    println!(
        "{:<18} {:>12.0} steps/s (batched) {:>12.0} steps/s (scalar)  speedup {:.2}x  allocs/step {}  \
         <= {:.2} MFLOP/step ({:.1} GFLOP/s), {} samples/step",
        "train-throughput",
        batched_sps,
        scalar_sps,
        speedup,
        fmt_opt(allocs_per_step),
        cost.flop_bound as f64 / 1e6,
        cost.flop_bound as f64 * batched_sps / 1e9,
        cost.replay_samples,
    );
    json!({
        "name": "train-throughput",
        "steps": total_steps,
        "minibatch": cost.replay_samples,
        "batched_steps_per_sec": batched_sps,
        "scalar_steps_per_sec": scalar_sps,
        "speedup": speedup,
        "allocs_per_step": allocs_per_step,
        "scalar_allocs_per_step": per_step(scalar_allocs),
        "flop_bound_per_step": cost.flop_bound,
        "replay_samples_per_step": cost.replay_samples,
        "params": cost.params,
        "bit_identical": bit_identical,
    })
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|a| format!("{a:.3}")).unwrap_or_else(|| "n/a".into())
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

/// Agents per round of the async scenario: the switches of the testbed Clos.
const SEATS: usize = 6;

/// 64-queue select batches the submitting thread runs between two rounds of
/// the async scenario (about 1 ms). They stand in for the packet events
/// between two control ticks, which cost about 1.6 times what six updates
/// cost.
const FOREGROUND_SELECTS: usize = 24;

/// The update path the controllers use: per round every agent is joined,
/// selects and is submitted again, then the submitting thread does its
/// other work — against the same rounds with `train_step` inline. Nothing
/// in a round allocates, so the allocation column is the path's own.
fn async_update(scale: Scale) -> Value {
    let rounds = scale.pick(2000, 200);
    let states: Vec<f32> = (0..QUEUES_PER_TICK * STATE_DIM)
        .map(|i| ((i * 31) % 101) as f32 * 0.01)
        .collect();
    let mut foreground_agent = warm_agent(3);
    let mut decisions: Vec<(usize, f64)> = Vec::new();
    let mut foreground = |sink: &mut usize| {
        for _ in 0..FOREGROUND_SELECTS {
            foreground_agent.select_actions_batch(&states, QUEUES_PER_TICK, &mut decisions);
            *sink ^= decisions[0].0;
        }
    };
    let mut sink = 0usize;
    let mut picked: Vec<(usize, f64)> = Vec::new();

    let mut inline: Vec<DdqnAgent> = (0..SEATS).map(|i| warm_agent(31 + i as u64)).collect();
    let start = Instant::now();
    for _ in 0..rounds {
        for agent in &mut inline {
            agent.select_actions_batch(&states[..8 * STATE_DIM], 8, &mut picked);
            agent.train_step();
        }
        foreground(&mut sink);
    }
    let inline_rps = rounds as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let mut seats: Vec<Seat> = (0..SEATS)
        .map(|i| Seat::new(warm_agent(31 + i as u64)))
        .collect();
    let mut stats = TrainerStats::default();
    let mut round_of = |seats: &mut [Seat], stats: &mut TrainerStats| {
        for seat in seats.iter_mut() {
            if let Some(done) = seat.join() {
                stats.record(&done);
            }
            seat.get()
                .select_actions_batch(&states[..8 * STATE_DIM], 8, &mut picked);
            stats.submitted += 1;
            seat.submit(DdqnAgent::train_step, 1, true, false);
        }
        foreground(&mut sink);
    };
    // Four rounds outside the windows: helper spawned, queue and slots sized.
    let warmup = 4;
    for _ in 0..warmup {
        round_of(&mut seats, &mut stats);
    }
    let start = Instant::now();
    let ((), allocs) = allocs_during(|| {
        for _ in warmup..rounds {
            round_of(&mut seats, &mut stats);
        }
    });
    let async_rps = (rounds - warmup) as f64 / start.elapsed().as_secs_f64().max(1e-9);
    for seat in &mut seats {
        if let Some(done) = seat.join() {
            stats.record(&done);
        }
    }
    assert!(sink < usize::MAX);

    // `Debug` shows every field of an agent: weights, moments, replay, RNG.
    let bit_identical = seats
        .iter_mut()
        .zip(&inline)
        .all(|(seat, agent)| format!("{:?}", seat.get()) == format!("{agent:?}"));
    let probed = crate::perf::alloc_counts().is_some();
    let allocs_per_round = probed.then(|| allocs as f64 / (rounds - warmup) as f64);
    println!(
        "{:<18} {:>12.0} rounds/s (async)  {:>12.0} rounds/s (inline)  ratio {:.2}x  allocs/round {}",
        "async-update",
        async_rps,
        inline_rps,
        async_rps / inline_rps,
        fmt_opt(allocs_per_round),
    );
    println!(
        "{:<18} {} submitted: {} on a helper, {} on the engine; {} blocked join(s), {:.2} ms \
         ({} helper thread(s))",
        "",
        stats.submitted,
        stats.ran_on_helper,
        stats.ran_on_engine,
        stats.blocked_joins,
        stats.blocked_ns as f64 / 1e6,
        rl::Trainer::global().helpers(),
    );
    json!({
        "name": "async-update",
        "seats": SEATS as u64,
        "rounds": rounds as u64,
        "async_rounds_per_sec": async_rps,
        "inline_rounds_per_sec": inline_rps,
        "speedup": async_rps / inline_rps,
        "helpers": rl::Trainer::global().helpers() as u64,
        "submitted": stats.submitted,
        "ran_on_helper": stats.ran_on_helper,
        "ran_on_engine": stats.ran_on_engine,
        "blocked_joins": stats.blocked_joins,
        "blocked_ns": stats.blocked_ns,
        "allocs_per_round": allocs_per_round,
        "bit_identical": bit_identical,
    })
}

/// Run the RL scenario family and write `BENCH_rl.json` to `out`. Returns
/// the JSON document (also used by the smoke test).
pub fn run(scale: Scale, out: &Path) -> io::Result<Value> {
    crate::common::banner("perf-rl", "batched RL kernel throughput");
    let scenarios = vec![
        train_throughput(scale),
        inference_tick(scale),
        async_update(scale),
    ];
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
/// result. So are the counts: a train step or an update round that touches
/// the heap, or a step whose work is not the 32-sample {12, 40, 40, 20}
/// minibatch the rates are quoted for. No wall-clock ratio is.
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
    for expected in ["train-throughput", "inference-tick", "async-update"] {
        let Some(row) = rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(expected))
        else {
            need(false, &format!("scenario {expected} missing"));
            continue;
        };
        let rate_keys: &[&str] = match expected {
            "train-throughput" => &["batched_steps_per_sec", "scalar_steps_per_sec", "speedup"],
            "inference-tick" => &[
                "batched_decisions_per_sec",
                "scalar_decisions_per_sec",
                "speedup",
            ],
            _ => &["async_rounds_per_sec", "inline_rounds_per_sec", "speedup"],
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
            &format!("scenario {expected}: diverged from its reference path"),
        );
        // Counts. An allocation column is null without a probe; when it is
        // a number it must be zero.
        let count = |k: &str| row.get(k).and_then(Value::as_f64);
        let alloc_key = match expected {
            "train-throughput" => Some("allocs_per_step"),
            "async-update" => Some("allocs_per_round"),
            _ => None,
        };
        if let Some(k) = alloc_key {
            need(
                count(k).is_none_or(|a| a == 0.0),
                &format!("scenario {expected}: {k} is not zero"),
            );
        }
        if expected == "train-throughput" {
            need(
                count("replay_samples_per_step") == Some(32.0),
                "scenario train-throughput: a step does not sample 32 transitions",
            );
            need(
                count("flop_bound_per_step").is_some_and(|f| f > 0.0 && f <= 1.0e6),
                "scenario train-throughput: a step is bounded by more than 1 MFLOP",
            );
        }
        if expected == "async-update" {
            need(
                count("submitted").is_some_and(|n| n > 0.0)
                    && count("submitted")
                        == count("ran_on_helper")
                            .zip(count("ran_on_engine"))
                            .map(|(h, e)| h + e),
                "scenario async-update: updates submitted != updates run",
            );
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(schema: &str, bit_identical: bool, speedup: f64) -> Value {
        doc_with_allocs(schema, bit_identical, speedup, Value::Null)
    }

    fn doc_with_allocs(schema: &str, bit_identical: bool, speedup: f64, allocs: Value) -> Value {
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
                    "speedup": speedup, "allocs_per_step": allocs.clone(),
                    "scalar_allocs_per_step": Value::Null,
                    "flop_bound_per_step": 963_320u64, "replay_samples_per_step": 32u64,
                    "params": 2980u64,
                    "bit_identical": bit_identical,
                },
                {
                    "name": "inference-tick",
                    "queues_per_tick": 64u64, "ticks": 1200u64,
                    "batched_decisions_per_sec": 4.0e6,
                    "scalar_decisions_per_sec": 2.0e6,
                    "speedup": 2.0, "bit_identical": true,
                },
                {
                    "name": "async-update",
                    "seats": 6u64, "rounds": 200u64,
                    "async_rounds_per_sec": 1200.0, "inline_rounds_per_sec": 800.0,
                    "speedup": 1.5, "helpers": 1u64,
                    "submitted": 1200u64, "ran_on_helper": 1000u64,
                    "ran_on_engine": 200u64, "blocked_joins": 3u64, "blocked_ns": 90000u64,
                    "allocs_per_round": allocs, "bit_identical": true,
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
        // A slow host is not a failure; a heap allocation per step is.
        assert!(validate(&doc(SCHEMA, true, 1.3)).is_empty());
        assert!(validate(&doc_with_allocs(SCHEMA, true, 2.5, json!(0.0))).is_empty());
        assert!(!validate(&doc_with_allocs(SCHEMA, true, 2.5, json!(0.25))).is_empty());
    }

    #[test]
    fn quick_run_is_bit_identical_and_schema_valid() {
        let dir = std::path::Path::new("target/perf_rl_unit");
        std::fs::create_dir_all(dir).unwrap();
        let doc = run(Scale::QUICK, &dir.join("BENCH_rl.json")).unwrap();
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
    }
}
