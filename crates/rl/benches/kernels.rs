//! Microbenchmarks of the batched RL kernels against the retained scalar
//! reference: full DDQN train steps (the workload of `acc-bench perf`'s
//! `train-step` row, which gates its counts and its identity with the
//! reference; the rates are read here) and raw minibatch forward passes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rl::{BatchActivations, DdqnAgent, DdqnConfig, Mlp, Transition};

/// Train steps per measured batch.
const STEPS: u64 = 50;

/// An ACC-shaped agent (12 features, {40,40} hidden, 20 actions) with a
/// warm replay memory and workspace, ready for steady-state training.
fn warm_agent(seed: u64) -> DdqnAgent {
    let mut agent = DdqnAgent::new(12, 20, DdqnConfig::default(), seed);
    for i in 0..512u32 {
        let s: Vec<f32> = (0..12)
            .map(|d| ((i * 13 + d * 7) % 23) as f32 * 0.05)
            .collect();
        agent.observe(Transition {
            state: s.clone(),
            action: (i % 20) as usize,
            reward: (i % 11) as f32 * 0.1 - 0.4,
            next_state: s,
            done: i % 29 == 0,
        });
    }
    for _ in 0..4 {
        agent.train_step();
    }
    agent
}

fn bench_train_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("rl_kernels");
    g.throughput(Throughput::Elements(STEPS));
    g.sample_size(20);
    g.bench_function("train_step_batched", |b| {
        b.iter_batched(
            || warm_agent(7),
            |mut agent| {
                let mut acc = 0.0f32;
                for _ in 0..STEPS {
                    acc += agent.train_step().expect("replay is warm");
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("train_step_scalar", |b| {
        b.iter_batched(
            || warm_agent(7),
            |mut agent| {
                let mut acc = 0.0f32;
                for _ in 0..STEPS {
                    acc += agent.train_step_scalar().expect("replay is warm");
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_forward(c: &mut Criterion) {
    const BATCH: usize = 32;
    let net = Mlp::new(&[12, 40, 40, 20], 3);
    let xs: Vec<f32> = (0..BATCH * 12)
        .map(|i| ((i * 31) % 101) as f32 * 0.01)
        .collect();
    let mut g = c.benchmark_group("rl_kernels");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.sample_size(30);
    g.bench_function("forward_batch_32", |b| {
        let mut ws = BatchActivations::new();
        net.forward_batch(&xs, BATCH, &mut ws); // shape once
        b.iter(|| {
            net.forward_batch(&xs, BATCH, &mut ws);
            ws.output()[0]
        })
    });
    g.bench_function("forward_scalar_32", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for s in 0..BATCH {
                acc += net.forward(&xs[s * 12..(s + 1) * 12])[0];
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_train_step, bench_forward);
criterion_main!(benches);
