//! Experience replay memory.
//!
//! Each ACC agent keeps a bounded *local* replay memory; a larger *global*
//! memory is shared between agents (§3.4): local experience is periodically
//! sampled into the global memory, and global experience back into locals,
//! which lets agents at different switches explore different parts of the
//! network yet learn from each other.
//!
//! One ring serves both sampling schemes. [`ReplayBuffer::new`] samples
//! uniformly (offline training, the global memory);
//! [`ReplayBuffer::prioritized`] samples in proportion to a priority kept in
//! a sum-tree (O(log n) insert and sample). The priority follows §4.3's
//! wording — "the actions resulting large reward will be prioritised" —
//! as `p = (r - r_min) / (r_max - r_min) + ε` over the running reward range,
//! rather than the TD-error scheme of Schaul et al.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One experience tuple `(S, a, r, S')`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// State observed.
    pub state: Vec<f32>,
    /// Action taken (index into the action space).
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// State after the action.
    pub next_state: Vec<f32>,
    /// Whether the episode terminated (always `false` for the continuing
    /// ECN-tuning task; kept for generality).
    pub done: bool,
}

/// A bounded ring of transitions, sampled uniformly or by reward priority.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplayBuffer {
    cap: usize,
    buf: Vec<Transition>,
    next: usize,
    /// Present when sampling is reward-prioritised.
    prio: Option<Priorities>,
}

impl ReplayBuffer {
    /// A uniformly sampled buffer holding at most `cap` transitions.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        ReplayBuffer {
            cap,
            buf: Vec::with_capacity(cap.min(4096)),
            next: 0,
            prio: None,
        }
    }

    /// A buffer holding at most `cap` transitions, sampled in proportion to
    /// their reward priority (§4.3 online fine-tuning).
    pub fn prioritized(cap: usize) -> Self {
        assert!(cap > 0);
        ReplayBuffer {
            cap,
            buf: Vec::new(),
            next: 0,
            prio: Some(Priorities {
                tree: SumTree::new(cap),
                r_min: f64::INFINITY,
                r_max: f64::NEG_INFINITY,
            }),
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Insert, overwriting the oldest entry once full.
    pub fn push(&mut self, t: Transition) {
        // Below capacity `next` is the length, so it is the slot either way.
        let slot = self.next;
        if let Some(p) = &mut self.prio {
            p.insert(slot, t.reward);
        }
        if self.buf.len() < self.cap {
            self.buf.push(t);
        } else {
            self.buf[slot] = t;
        }
        self.next = (slot + 1) % self.cap;
    }

    /// One index drawn from the buffer's distribution: one `gen_range` when
    /// uniform, one `f64` when prioritised.
    fn draw(&self, rng: &mut SmallRng) -> usize {
        match &self.prio {
            None => rng.gen_range(0..self.buf.len()),
            Some(p) => {
                let target = rng.gen::<f64>() * p.tree.total();
                p.tree.find(target).min(self.buf.len() - 1)
            }
        }
    }

    /// Draw `n` indices (with replacement) into `out`, one draw each. `out`
    /// is cleared first; reusing one buffer across calls keeps steady-state
    /// training allocation-free.
    pub fn sample_indices_into(&self, rng: &mut SmallRng, n: usize, out: &mut Vec<usize>) {
        assert!(!self.buf.is_empty(), "sampling an empty replay buffer");
        out.clear();
        for _ in 0..n {
            out.push(self.draw(rng));
        }
    }

    /// The transition stored at `idx` (pairs with
    /// [`ReplayBuffer::sample_indices_into`]; storage order is unspecified).
    pub fn get(&self, idx: usize) -> &Transition {
        &self.buf[idx]
    }

    /// Copy `n` transitions, each drawn from this buffer's distribution,
    /// into `other` — either half of the local↔global exchange.
    pub fn exchange_into(&self, other: &mut ReplayBuffer, rng: &mut SmallRng, n: usize) {
        if self.buf.is_empty() {
            return;
        }
        for _ in 0..n {
            other.push(self.buf[self.draw(rng)].clone());
        }
    }

    /// Iterate over the stored transitions (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Transition> {
        self.buf.iter()
    }
}

/// Floor priority that keeps every stored transition sampleable.
const PRIORITY_EPSILON: f64 = 1e-3;

/// The reward-prioritised buffer's sum-tree and running reward range.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Priorities {
    tree: SumTree,
    r_min: f64,
    r_max: f64,
}

impl Priorities {
    /// Give `slot` the priority of a transition with reward `reward`.
    fn insert(&mut self, slot: usize, reward: f32) {
        let r = reward as f64;
        self.r_min = self.r_min.min(r);
        self.r_max = self.r_max.max(r);
        let span = (self.r_max - self.r_min).max(1e-9);
        let priority = (r - self.r_min) / span + PRIORITY_EPSILON;
        // `max` also maps a NaN priority (a NaN or infinite reward) to the
        // floor.
        self.tree.set(slot, priority.max(PRIORITY_EPSILON));
    }
}

/// A fixed-capacity sum-tree over `cap` leaves.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SumTree {
    /// Number of leaves (power of two >= requested capacity).
    leaves: usize,
    /// Heap-layout tree: `tree[1]` is the root; leaf `i` lives at
    /// `leaves + i`.
    tree: Vec<f64>,
}

impl SumTree {
    fn new(cap: usize) -> Self {
        let leaves = cap.next_power_of_two().max(2);
        SumTree {
            leaves,
            tree: vec![0.0; 2 * leaves],
        }
    }

    fn total(&self) -> f64 {
        self.tree[1]
    }

    fn set(&mut self, leaf: usize, value: f64) {
        debug_assert!(leaf < self.leaves);
        debug_assert!(value >= 0.0 && value.is_finite());
        let mut i = self.leaves + leaf;
        self.tree[i] = value;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i] + self.tree[2 * i + 1];
        }
    }

    /// Find the leaf where the prefix sum reaches `target` (0 <= target <
    /// total).
    fn find(&self, mut target: f64) -> usize {
        let mut i = 1;
        while i < self.leaves {
            let left = self.tree[2 * i];
            if target < left {
                i *= 2;
            } else {
                target -= left;
                i = 2 * i + 1;
            }
        }
        i - self.leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tr(r: f32) -> Transition {
        Transition {
            state: vec![r],
            action: 0,
            reward: r,
            next_state: vec![r + 1.0],
            done: false,
        }
    }

    /// `n` draws from `b`, as the transitions they pick.
    fn sample<'a>(b: &'a ReplayBuffer, rng: &mut SmallRng, n: usize) -> Vec<&'a Transition> {
        let mut idx = Vec::new();
        b.sample_indices_into(rng, n, &mut idx);
        idx.into_iter().map(|i| b.get(i)).collect()
    }

    #[test]
    fn push_until_full_then_ring() {
        for mut b in [ReplayBuffer::new(3), ReplayBuffer::prioritized(3)] {
            assert!(b.is_empty());
            for i in 0..5 {
                b.push(tr(i as f32));
            }
            assert_eq!(b.len(), 3);
            // Entries 0,1 were overwritten by 3,4.
            let rewards: Vec<f32> = b.iter().map(|t| t.reward).collect();
            assert_eq!(rewards, [3.0, 4.0, 2.0]);
        }
    }

    #[test]
    fn sampling_is_uniformish() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..10 {
            b.push(tr(i as f32));
        }
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for t in sample(&b, &mut rng, 10_000) {
            counts[t.reward as usize] += 1;
        }
        for c in counts {
            assert!(c > 700 && c < 1300, "count {c} far from uniform");
        }
    }

    #[test]
    fn sum_tree_prefix_search() {
        let mut t = SumTree::new(4);
        t.set(0, 1.0);
        t.set(1, 2.0);
        t.set(2, 3.0);
        t.set(3, 4.0);
        assert_eq!(t.total(), 10.0);
        assert_eq!(t.find(0.5), 0);
        assert_eq!(t.find(1.5), 1);
        assert_eq!(t.find(3.5), 2);
        assert_eq!(t.find(9.99), 3);
    }

    #[test]
    fn high_reward_transitions_dominate_prioritized_samples() {
        let mut p = ReplayBuffer::prioritized(64);
        // 63 zero-reward transitions, one with reward 1.
        for _ in 0..63 {
            p.push(tr(0.0));
        }
        p.push(tr(1.0));
        let mut rng = SmallRng::seed_from_u64(3);
        let hot = sample(&p, &mut rng, 10_000)
            .iter()
            .filter(|t| t.reward == 1.0)
            .count();
        // Priority ~ (1 + eps) vs 63 * eps: the hot transition should take
        // the overwhelming majority of samples.
        assert!(hot > 8_000, "hot sampled {hot}/10000");
    }

    #[test]
    fn prioritized_is_uniform_when_rewards_equal() {
        let mut p = ReplayBuffer::prioritized(8);
        for i in 0..8 {
            let mut t = tr(0.5);
            t.action = i;
            p.push(t);
        }
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0usize; 8];
        for t in sample(&p, &mut rng, 16_000) {
            counts[t.action] += 1;
        }
        for c in counts {
            assert!((1_300..2_700).contains(&c), "count {c} far from uniform");
        }
    }

    /// A NaN reward gets the floor priority and leaves the reward range
    /// alone, so it neither dominates sampling nor poisons the tree.
    #[test]
    fn nan_reward_gets_the_floor_priority() {
        let mut p = ReplayBuffer::prioritized(4);
        p.push(tr(0.0));
        p.push(tr(1.0));
        p.push(tr(f32::NAN));
        let prio = p.prio.as_ref().expect("a prioritized buffer");
        assert_eq!((prio.r_min, prio.r_max), (0.0, 1.0));
        assert_eq!(
            prio.tree.total(),
            PRIORITY_EPSILON + (1.0 + PRIORITY_EPSILON) + PRIORITY_EPSILON
        );
    }

    /// An exchange takes the same draws from the same RNG state as sampling
    /// the source one index at a time, and runs either way between the two
    /// kinds of buffer.
    #[test]
    fn exchange_draws_like_sampling() {
        for mut local in [ReplayBuffer::new(32), ReplayBuffer::prioritized(32)] {
            for i in 0..16 {
                local.push(tr(i as f32 * 0.25));
            }
            let mut r1 = SmallRng::seed_from_u64(9);
            let mut r2 = SmallRng::seed_from_u64(9);
            let mut global = ReplayBuffer::new(64);
            local.exchange_into(&mut global, &mut r1, 8);
            let sampled: Vec<Transition> =
                sample(&local, &mut r2, 8).into_iter().cloned().collect();
            assert_eq!(global.iter().cloned().collect::<Vec<_>>(), sampled);
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "RNG streams diverged");
            // And back.
            global.exchange_into(&mut local, &mut r1, 5);
            assert_eq!((local.len(), global.len()), (21, 8));
        }
    }

    #[test]
    fn exchange_from_empty_is_noop() {
        for empty in [ReplayBuffer::new(10), ReplayBuffer::prioritized(10)] {
            let mut dst = ReplayBuffer::prioritized(10);
            let mut rng = SmallRng::seed_from_u64(3);
            empty.exchange_into(&mut dst, &mut rng, 5);
            assert!(dst.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "empty replay")]
    fn sample_empty_panics() {
        let b = ReplayBuffer::prioritized(4);
        let mut rng = SmallRng::seed_from_u64(4);
        b.sample_indices_into(&mut rng, 1, &mut Vec::new());
    }
}
