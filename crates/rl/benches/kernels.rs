//! Microbenchmarks of the batched RL kernels against the retained scalar
//! reference: full DDQN train steps (the workload of `acc-bench perf`'s
//! `train-step` row, which gates its counts and its identity with the
//! reference; the rates are read here), and each kernel of a step on its
//! own — minibatch forward, backward and the Adam update — so its share of
//! a step can be read off; plus the inference-sized forward of one select.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rl::mlp::Gradients;
use rl::{Adam, BackwardScratch, BatchActivations, DdqnAgent, DdqnConfig, Mlp, Transition};

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

/// Minibatch size of the per-kernel rows (`DdqnConfig::default`).
const BATCH: usize = 32;

/// The ACC net (12 features, {40,40} hidden, 20 actions) and a minibatch of
/// inputs for it.
fn acc_net() -> (Mlp, Vec<f32>) {
    let net = Mlp::new(&[12, 40, 40, 20], 3);
    let xs: Vec<f32> = (0..BATCH * 12)
        .map(|i| ((i * 31) % 101) as f32 * 0.01)
        .collect();
    (net, xs)
}

fn bench_forward(c: &mut Criterion) {
    let (mut net, xs) = acc_net();
    let mut g = c.benchmark_group("rl_kernels");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.sample_size(30);
    g.bench_function("forward_batch_32", |b| {
        let mut ws = BatchActivations::new();
        net.forward_batch(&xs, BATCH, &mut ws); // shape once
        let w = net.weight(0, 0);
        b.iter(|| {
            // A weight write keeps the transpose in the row: a train step's
            // first pass, after Adam, pays for one too.
            net.set_weight(0, 0, w);
            net.forward_batch(&xs, BATCH, &mut ws);
            ws.output()[0]
        })
    });
    // Inference-sized: a spine's four RDMA queues, one selection. The eval
    // net trains every tick, so an in-run select transposes once per pass
    // too; batches below 8 take the row-blocked dots (`forward_cached_batch`).
    g.throughput(Throughput::Elements(4));
    g.sample_size(2000);
    g.bench_function("forward_batch_4", |b| {
        let mut ws = BatchActivations::new();
        net.forward_batch(&xs[..4 * 12], 4, &mut ws);
        let w = net.weight(0, 0);
        b.iter(|| {
            net.set_weight(0, 0, w);
            net.forward_batch(&xs[..4 * 12], 4, &mut ws);
            ws.output()[0]
        })
    });
    g.throughput(Throughput::Elements(BATCH as u64));
    g.sample_size(30);
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

/// The other two kernels of a train step, on the same shape: the batched
/// backward of one-hot DQN gradient rows (one nonzero action per sample,
/// as `train_step` builds them) and one Adam update of every parameter.
fn bench_backward_and_adam(c: &mut Criterion) {
    let (mut net, xs) = acc_net();
    let grad_out: Vec<f32> = (0..BATCH * 20)
        .map(|i| {
            let (s, a) = (i / 20, i % 20);
            if a == (s * 7) % 20 {
                (s as f32 - 16.0) * 0.05
            } else {
                0.0
            }
        })
        .collect();
    let mut ws = BatchActivations::new();
    let mut scratch = BackwardScratch::new();
    let mut grads = Gradients::zeros(&net);
    net.forward_cached_batch(&xs, BATCH, &mut ws);
    let mut g = c.benchmark_group("rl_kernels");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.sample_size(2000);
    g.bench_function("backward_batch_32", |b| {
        b.iter(|| {
            net.backward_batch(&ws, &grad_out, &mut scratch, &mut grads);
            grads.db[0][0]
        })
    });
    let mut opt = Adam::new(&net, 1e-3);
    g.bench_function("adam_step", |b| {
        b.iter(|| {
            opt.step(&mut net, &grads);
            net.weight(0, 0)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_train_step,
    bench_forward,
    bench_backward_and_adam
);
criterion_main!(benches);
