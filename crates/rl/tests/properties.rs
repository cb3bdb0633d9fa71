//! Property-based tests for the RL building blocks.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rl::mlp::Gradients;
use rl::{BackwardScratch, BatchActivations, DdqnAgent, DdqnConfig, Mlp, ReplayBuffer, Transition};

/// Deterministic pseudo-random kernel operands (xorshift64).
struct Operands(u64);

impl Operands {
    fn bits(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in [-1, 1], exactly 0.0 one time in five.
    fn value(&mut self) -> f32 {
        let z = self.bits();
        if z.is_multiple_of(5) {
            0.0
        } else {
            ((z % 2001) as f32 - 1000.0) * 1e-3
        }
    }
}

/// Run the batched forward and backward over `xs`/`grad_out` and assert
/// them bit-identical to the scalar forward per row and to the scalar
/// per-sample-backward-then-sum fold.
fn assert_batched_matches_scalar(net: &Mlp, xs: &[f32], grad_out: &[f32], batch: usize) {
    let (n_in, n_out) = (net.input_dim(), net.output_dim());
    let mut ws = BatchActivations::new();
    let mut scratch = BackwardScratch::new();
    let mut batched = Gradients::zeros(net);
    net.forward_cached_batch(xs, batch, &mut ws);
    net.backward_batch(&ws, grad_out, &mut scratch, &mut batched);

    let mut total = Gradients::zeros(net);
    for s in 0..batch {
        let x = &xs[s * n_in..(s + 1) * n_in];
        assert_eq!(net.forward(x).as_slice(), ws.output_row(s), "row {s}");
        let cache = net.forward_cached(x);
        total.add(&net.backward(&cache, &grad_out[s * n_out..(s + 1) * n_out]));
    }
    assert_eq!(total.dw, batched.dw);
    assert_eq!(total.db, batched.db);
}

/// The batched kernels at the exact shape the ACC agents train:
/// `[12, 40, 40, 20]` × 32, one-hot DQN gradient rows.
#[test]
fn batched_kernels_bit_identical_on_the_acc_shape() {
    let net = Mlp::new(&[12, 40, 40, 20], 13);
    let mut rng = Operands(0x9E37_79B9_7F4A_7C15);
    let xs: Vec<f32> = (0..32 * 12).map(|_| rng.value()).collect();
    let mut grad_out = vec![0.0f32; 32 * 20];
    for s in 0..32 {
        grad_out[s * 20 + (rng.bits() % 20) as usize] = rng.value();
    }
    assert_batched_matches_scalar(&net, &xs, &grad_out, 32);
}

/// The replay as it was stored before the flat ring, kept here as the
/// reference: a `Vec<Transition>` ring that clones in and out, with the
/// reward-priority sum-tree in the same heap layout and the same draws.
struct VecReplay {
    cap: usize,
    buf: Vec<Transition>,
    next: usize,
    /// `(tree, r_min, r_max)` when prioritised; leaf `i` of the tree is at
    /// `tree.len() / 2 + i`.
    prio: Option<(Vec<f64>, f64, f64)>,
}

impl VecReplay {
    fn new(cap: usize, prioritized: bool) -> Self {
        let leaves = cap.next_power_of_two().max(2);
        VecReplay {
            cap,
            buf: Vec::new(),
            next: 0,
            prio: prioritized.then(|| (vec![0.0; 2 * leaves], f64::INFINITY, f64::NEG_INFINITY)),
        }
    }

    fn push(&mut self, t: Transition) {
        let slot = self.next;
        if let Some((tree, r_min, r_max)) = &mut self.prio {
            let r = t.reward as f64;
            *r_min = r_min.min(r);
            *r_max = r_max.max(r);
            let span = (*r_max - *r_min).max(1e-9);
            let mut i = tree.len() / 2 + slot;
            tree[i] = ((r - *r_min) / span + 1e-3).max(1e-3);
            while i > 1 {
                i /= 2;
                tree[i] = tree[2 * i] + tree[2 * i + 1];
            }
        }
        if self.buf.len() < self.cap {
            self.buf.push(t);
        } else {
            self.buf[slot] = t;
        }
        self.next = (slot + 1) % self.cap;
    }

    fn draw(&self, rng: &mut SmallRng) -> usize {
        match &self.prio {
            None => rng.gen_range(0..self.buf.len()),
            Some((tree, _, _)) => {
                let leaves = tree.len() / 2;
                let mut target = rng.gen::<f64>() * tree[1];
                let mut i = 1;
                while i < leaves {
                    if target < tree[2 * i] {
                        i *= 2;
                    } else {
                        target -= tree[2 * i];
                        i = 2 * i + 1;
                    }
                }
                (i - leaves).min(self.buf.len() - 1)
            }
        }
    }

    fn exchange_into(&self, other: &mut VecReplay, rng: &mut SmallRng, n: usize) {
        if self.buf.is_empty() {
            return;
        }
        for _ in 0..n {
            other.push(self.buf[self.draw(rng)].clone());
        }
    }
}

/// Slot by slot, bit for bit: the ring holds what the model holds.
fn assert_same_rows(ring: &ReplayBuffer, model: &VecReplay) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(ring.len(), model.buf.len());
    for (i, want) in model.buf.iter().enumerate() {
        let got = ring.get(i);
        assert_eq!(bits(got.state), bits(&want.state), "slot {}", i);
        assert_eq!(bits(got.next_state), bits(&want.next_state), "slot {}", i);
        assert_eq!(
            (got.action, got.reward.to_bits(), got.done),
            (want.action, want.reward.to_bits(), want.done),
            "slot {}",
            i
        );
    }
}

proptest! {
    // The offline proptest stub defaults to 32 cases; this draw space is
    // wide, so sample it as densely as real proptest's default would.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential test of the batched kernels: for random layer shapes
    /// (several register tiles, tails of 1–7 lanes), batch sizes 1..=70
    /// (both sides of the transposed path's `batch >= 8`, every 4-row
    /// remainder), random weights (seed) and random inputs with exact
    /// zeros, all-zero rows and a ReLU-dead hidden unit, the batched
    /// forward must be bit-identical per row to the scalar forward, and the
    /// batched backward bit-identical to the scalar
    /// per-sample-backward-then-sum fold. This pins the determinism contract
    /// the agent's batched `train_step` relies on (the same reference-path
    /// pattern as the reference heap vs the timing wheel).
    #[test]
    fn batched_kernels_bit_identical_to_scalar(
        seed in any::<u64>(),
        batch in 1usize..=70,
        n_in in 1usize..=16,
        hidden in prop::collection::vec(1usize..=48, 1..3),
        n_out in 2usize..=24,
        xseed in any::<u32>(),
        dead_unit in any::<bool>(),
        one_hot in any::<bool>(),
    ) {
        let mut dims = vec![n_in];
        dims.extend_from_slice(&hidden);
        dims.push(n_out);
        let mut net = Mlp::new(&dims, seed);
        if dead_unit {
            // Hidden unit 0 gets no input and a zero bias: it outputs
            // exactly 0.0 for every sample, so its deltas are all masked.
            for c in 0..n_in {
                net.set_weight(0, c, 0.0);
            }
        }
        let mut rng = Operands(u64::from(xseed) | 1);
        let mut xs: Vec<f32> = (0..batch * n_in).map(|_| rng.value()).collect();
        // Every third row all zero: with zero biases every hidden layer of
        // that sample is ReLU-dead.
        for row in xs.chunks_exact_mut(n_in).step_by(3) {
            row.fill(0.0);
        }
        let mut grad_out: Vec<f32> = (0..batch * n_out).map(|_| rng.value()).collect();
        if one_hot {
            // The DQN's rows: one taken action per sample.
            for row in grad_out.chunks_exact_mut(n_out) {
                let keep = (rng.bits() % n_out as u64) as usize;
                for (a, g) in row.iter_mut().enumerate() {
                    if a != keep {
                        *g = 0.0;
                    }
                }
            }
        }
        assert_batched_matches_scalar(&net, &xs, &grad_out, batch);
    }
}

proptest! {
    /// Agent-level differential: interleaved decide/observe/train with the
    /// batched kernels tracks the scalar reference bit-for-bit for random
    /// seeds and replay flavours, including across a `load_model` halfway
    /// through. Each step the batched agent decides 1–8 rows at once —
    /// ε-greedy through `select_actions_batch`, or greedy through
    /// `best_actions_batch` every third step — and the scalar agent decides
    /// the same rows one by one; actions and recorded ε must match. The row
    /// count cycles with period 8 and the greedy steps with period 3, so
    /// every row count, the 8-row batches that read the transposed weights
    /// included, is decided both ways after the weights have changed.
    #[test]
    fn agent_batched_training_matches_scalar(
        seed in any::<u64>(),
        prioritized in any::<bool>(),
        steps in 80usize..160,
        reload in any::<bool>(),
        row_phase in 0usize..8,
        greedy_phase in 0usize..3,
    ) {
        let mut cfg = DdqnConfig::default();
        cfg.min_replay = 32;
        cfg.use_prioritized_replay = prioritized;
        cfg.target_sync_every = 20;
        let mut batched = DdqnAgent::new(2, 3, cfg.clone(), seed);
        let mut scalar = DdqnAgent::new(2, 3, cfg, seed);
        let model = Mlp::new(batched.export_model().dims(), seed ^ 0x5EED);
        let mut decisions = Vec::new();
        let mut greedy = Vec::new();
        for i in 0..steps {
            if reload && i == steps / 2 {
                batched.load_model(&model);
                scalar.load_model(&model);
            }
            let rows = 1 + (i + row_phase) % 8;
            let states: Vec<f32> = (0..rows)
                .flat_map(|r| [((i + r) % 4) as f32 * 0.5, ((i + 2 * r) % 6) as f32 * 0.3])
                .collect();
            let row = |r: usize| &states[r * 2..(r + 1) * 2];
            if i % 3 == greedy_phase {
                batched.best_actions_batch(&states, rows, &mut greedy);
                decisions.clear();
                decisions.extend(greedy.iter().map(|&a| (a, batched.epsilon())));
                for (r, &(a, eps)) in decisions.iter().enumerate() {
                    prop_assert_eq!(a, scalar.best_action(row(r)), "step {} row {}", i, r);
                    prop_assert_eq!(eps, scalar.epsilon());
                }
            } else {
                batched.select_actions_batch(&states, rows, &mut decisions);
                for (r, &(a, eps)) in decisions.iter().enumerate() {
                    prop_assert_eq!(a, scalar.select_action(row(r)), "step {} row {}", i, r);
                    prop_assert_eq!(eps, scalar.epsilon());
                }
            }
            for (r, &(a, _)) in decisions.iter().enumerate() {
                let t = Transition {
                    state: row(r).to_vec(),
                    action: a,
                    reward: ((i * 7 + r) % 13) as f32 * 0.1 - 0.5,
                    next_state: row((r + 1) % rows).to_vec(),
                    done: (i + r) % 23 == 0,
                };
                batched.observe(t.clone());
                scalar.observe(t);
            }
            prop_assert_eq!(batched.train_step(), scalar.train_step_scalar());
        }
        let probe = [0.7, -0.1];
        prop_assert_eq!(batched.q_values(&probe), scalar.q_values(&probe));
    }

    /// Forward passes are finite for any finite input.
    #[test]
    fn mlp_forward_is_finite(
        seed in any::<u64>(),
        xs in prop::collection::vec(-1e3f32..1e3, 6),
    ) {
        let net = Mlp::new(&[6, 16, 8, 4], seed);
        let y = net.forward(&xs);
        prop_assert_eq!(y.len(), 4);
        prop_assert!(y.iter().all(|v| v.is_finite()));
    }

    /// Serde round-trips preserve behaviour exactly.
    #[test]
    fn mlp_serde_roundtrip(seed in any::<u64>(), xs in prop::collection::vec(-10f32..10.0, 5)) {
        let net = Mlp::new(&[5, 9, 3], seed);
        let back: Mlp = serde_json::from_str(&serde_json::to_string(&net).unwrap()).unwrap();
        prop_assert_eq!(net.forward(&xs), back.forward(&xs));
    }

    /// Backprop agrees with central differences on random small networks and
    /// random inputs (a randomized gradient check).
    #[test]
    fn mlp_gradient_check_random(
        seed in 0u64..1_000,
        xs in prop::collection::vec(-1f32..1.0, 4),
        gidx in 0usize..3,
    ) {
        let mut net = Mlp::new(&[4, 7, 3], seed);
        let mut grad_out = vec![0.0f32; 3];
        grad_out[gidx] = 1.0;
        let cache = net.forward_cached(&xs);
        let analytic = net.backward(&cache, &grad_out);
        // Check a handful of layer-0 weights.
        let h = 1e-3f32;
        let mask = |c: &rl::mlp::Activations| -> Vec<bool> {
            // Activation sign pattern of the hidden layers.
            c.acts[1..c.acts.len() - 1]
                .iter()
                .flat_map(|layer| layer.iter().map(|v| *v > 0.0))
                .collect()
        };
        for k in [0usize, 5, 13, 27] {
            let orig = net.weight(0, k);
            net.set_weight(0, k, orig + h);
            let cp = net.forward_cached(&xs);
            net.set_weight(0, k, orig - h);
            let cm = net.forward_cached(&xs);
            net.set_weight(0, k, orig);
            if mask(&cp) != mask(&cm) {
                // The perturbation crossed a ReLU kink: central differences
                // are not a valid derivative estimate here.
                continue;
            }
            let lp = cp.output()[gidx] as f64;
            let lm = cm.output()[gidx] as f64;
            let numeric = ((lp - lm) / (2.0 * h as f64)) as f32;
            let got = analytic.dw[0][k];
            let denom = numeric.abs().max(got.abs()).max(1e-3);
            prop_assert!(
                (numeric - got).abs() < 5e-3 || (numeric - got).abs() / denom < 5e-2,
                "w[0][{k}]: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// The replay ring never exceeds capacity and keeps the newest entries.
    #[test]
    fn replay_ring_bounded(cap in 1usize..64, n in 0usize..300) {
        let mut b = ReplayBuffer::new(cap);
        for i in 0..n {
            b.push(Transition {
                state: vec![i as f32],
                action: 0,
                reward: i as f32,
                next_state: vec![],
                done: false,
            });
        }
        prop_assert!(b.len() <= cap);
        prop_assert_eq!(b.len(), n.min(cap));
        if n > cap {
            // Everything still stored must be among the newest `cap` pushes.
            for t in b.iter() {
                prop_assert!((t.reward as usize) >= n - cap);
            }
        }
    }

    /// Differential test of the flat ring against the `Vec<Transition>`
    /// model above: random pushes (wrapping the ring many times over),
    /// samples and exchanges in both directions with a uniform global
    /// memory, local sampling uniform or prioritised. Every sample draws the
    /// same indices from the same RNG stream, and after every operation
    /// both memories hold bit-identical rows slot by slot.
    #[test]
    fn replay_ring_matches_vec_model(
        cap in 1usize..48,
        prioritized in any::<bool>(),
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..5, 1usize..40, any::<u32>()), 1..60),
    ) {
        let mut ring = if prioritized {
            ReplayBuffer::prioritized(cap)
        } else {
            ReplayBuffer::new(cap)
        };
        let mut model = VecReplay::new(cap, prioritized);
        let mut global = ReplayBuffer::new(2 * cap);
        let mut global_model = VecReplay::new(2 * cap, false);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model_rng = SmallRng::seed_from_u64(seed);
        let mut idx = Vec::new();
        for (op, n, x) in ops {
            match op {
                // Push `n` transitions; rewards repeat, so priorities tie.
                0 | 1 => {
                    for k in 0..n as u32 {
                        let v = x.wrapping_add(k.wrapping_mul(0x9E37_79B9));
                        let t = Transition {
                            state: (0..3).map(|d| (v >> (8 * d)) as u8 as f32 * 0.01).collect(),
                            action: (v % 20) as usize,
                            reward: ((v >> 5) % 7) as f32 * 0.25 - 0.75,
                            next_state: (0..3).map(|d| (v >> (4 * d)) as u8 as f32 * -0.02).collect(),
                            done: v % 13 == 0,
                        };
                        ring.push(t.clone());
                        model.push(t);
                    }
                }
                2 if !model.buf.is_empty() => {
                    ring.sample_indices_into(&mut rng, n, &mut idx);
                    let want: Vec<usize> = (0..n).map(|_| model.draw(&mut model_rng)).collect();
                    prop_assert_eq!(&idx, &want);
                }
                3 => {
                    ring.exchange_into(&mut global, &mut rng, n);
                    model.exchange_into(&mut global_model, &mut model_rng, n);
                }
                4 => {
                    global.exchange_into(&mut ring, &mut rng, n);
                    global_model.exchange_into(&mut model, &mut model_rng, n);
                }
                _ => {}
            }
            assert_same_rows(&ring, &model);
            assert_same_rows(&global, &global_model);
        }
        prop_assert_eq!(rng.gen::<u64>(), model_rng.gen::<u64>(), "RNG streams diverged");
    }

    /// ε is monotone nonincreasing in steps and bounded by [eps_end, eps_start].
    #[test]
    fn epsilon_schedule_monotone(steps in prop::collection::vec(1u32..50, 1..20)) {
        let mut agent = DdqnAgent::new(2, 2, DdqnConfig::default(), 1);
        let mut prev = agent.epsilon();
        prop_assert!(prev <= 1.0 + 1e-9);
        for k in steps {
            for _ in 0..k {
                agent.select_action(&[0.0, 0.0]);
            }
            let e = agent.epsilon();
            prop_assert!(e <= prev + 1e-12);
            prop_assert!(e >= 0.02 - 1e-12);
            prev = e;
        }
    }
}
