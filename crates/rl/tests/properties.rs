//! Property-based tests for the replay memory. The kernels' and the
//! agent's differential tests live beside the scalar reference they compare
//! against, in `mlp`'s and `ddqn`'s unit tests.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rl::ReplayBuffer;

/// One owned row of the reference model.
#[derive(Clone)]
struct Row {
    state: Vec<f32>,
    action: usize,
    reward: f32,
    next_state: Vec<f32>,
    discount: f32,
}

/// The replay as it was stored before the flat ring, kept here as the
/// reference: a `Vec` ring of owned rows that clones in and out, with the
/// reward-priority sum-tree in the same heap layout and the same draws,
/// sized for the whole capacity up front.
struct VecReplay {
    cap: usize,
    buf: Vec<Row>,
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

    fn push(&mut self, t: Row) {
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
            (got.action, got.reward.to_bits(), got.discount.to_bits()),
            (want.action, want.reward.to_bits(), want.discount.to_bits()),
            "slot {}",
            i
        );
    }
}

proptest! {
    /// The replay ring never exceeds capacity and keeps the newest entries.
    #[test]
    fn replay_ring_bounded(cap in 1usize..64, n in 0usize..300) {
        let mut b = ReplayBuffer::new(cap);
        for i in 0..n {
            b.push_row(&[i as f32], 0, i as f32, &[], 0.5);
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

    /// Differential test of the flat ring against the `Vec` model above:
    /// random pushes (wrapping the ring many times over), samples and
    /// exchanges in both directions with a uniform global memory, local
    /// sampling uniform or prioritised (the ring's sum-tree growing as it
    /// fills, the model's sized up front). Rows carry random discounts in
    /// `[0, 1)`, and every 13th a discount of exactly 0. Every sample
    /// draws the same indices from the same RNG stream, and after every
    /// operation both memories hold bit-identical rows slot by slot.
    #[test]
    fn replay_ring_matches_vec_model(
        cap in 1usize..48,
        prioritized in any::<bool>(),
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..5, 1usize..40, any::<u32>()), 1..60),
        discounts in prop::collection::vec(0.0f32..1.0, 1..8),
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
                        let t = Row {
                            state: (0..3).map(|d| (v >> (8 * d)) as u8 as f32 * 0.01).collect(),
                            action: (v % 20) as usize,
                            reward: ((v >> 5) % 7) as f32 * 0.25 - 0.75,
                            next_state: (0..3).map(|d| (v >> (4 * d)) as u8 as f32 * -0.02).collect(),
                            discount: match v % 13 {
                                0 => 0.0,
                                _ => discounts[v as usize % discounts.len()],
                            },
                        };
                        ring.push_row(&t.state, t.action, t.reward, &t.next_state, t.discount);
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
}
