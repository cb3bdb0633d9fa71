//! Experience replay memory.
//!
//! Each ACC agent keeps a bounded *local* replay memory; a larger *global*
//! memory is shared between agents (§3.4): local experience is periodically
//! sampled into the global memory, and global experience back into locals,
//! which lets agents at different switches explore different parts of the
//! network yet learn from each other.
//!
//! One ring serves both sampling schemes, and it stores each transition as
//! one row of flat `f32`s (`state ‖ next_state ‖ reward, action, discount`)
//! in blocks of 256 rows that never move, so a stored transition owns no
//! heap block of its own, nothing is cloned in or out, and growing the ring
//! copies nothing. [`ReplayBuffer::new`] samples
//! uniformly (offline training, the global memory);
//! [`ReplayBuffer::prioritized`] samples in proportion to a priority kept in
//! a sum-tree (O(log n) insert and sample). The priority follows §4.3's
//! wording — "the actions resulting large reward will be prioritised" —
//! as `p = (r - r_min) / (r_max - r_min) + ε` over the running reward range,
//! rather than the TD-error scheme of Schaul et al.

use rand::rngs::SmallRng;
use rand::Rng;

/// One owned experience tuple `(S, a, r, S')`, for [`crate::DdqnAgent::observe`].
#[derive(Clone, Debug, PartialEq)]
pub struct Transition {
    /// State observed.
    pub state: Vec<f32>,
    /// Action taken (index into the action space).
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// State after the action.
    pub next_state: Vec<f32>,
    /// Whether the episode terminated: stored with discount 0, and with
    /// the agent's γ otherwise.
    pub done: bool,
}

/// A stored transition, borrowed from its row of the ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransitionRef<'a> {
    /// State observed.
    pub state: &'a [f32],
    /// Action taken (index into the action space).
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// State after the action.
    pub next_state: &'a [f32],
    /// Factor of the TD target's bootstrap term; 0 leaves the reward alone.
    pub discount: f32,
}

/// Slots per block of the ring. Storage grows one block at a time, up to
/// the capacity, and a block never moves once allocated: growing the ring
/// never re-copies a row, and a ring that stops short of its capacity
/// carries at most one block of slack.
const BLOCK_ROWS: usize = 256;

/// Floats a row holds besides its two states: reward, action, discount.
const META: usize = 3;

/// A bounded ring of transitions, sampled uniformly or by reward priority.
///
/// Slot `i` is row `i % 256` of block `i / 256`, one flat `f32` array per
/// block: `state ‖ next_state ‖ reward, action, discount` per row, rows
/// back to back. A row never straddles two blocks, so a stored transition
/// reads back as two contiguous slices. The first push fixes both widths;
/// each block is allocated whole when the ring first reaches it (the last
/// one cut to the capacity).
#[derive(Clone, Debug)]
pub struct ReplayBuffer {
    cap: usize,
    /// Width of a row's `state` half.
    state_dim: usize,
    /// Width of both states, `state ‖ next_state`.
    row_len: usize,
    blocks: Vec<Box<[f32]>>,
    len: usize,
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
            state_dim: 0,
            row_len: 0,
            blocks: Vec::new(),
            len: 0,
            next: 0,
            prio: None,
        }
    }

    /// A buffer holding at most `cap` transitions, sampled in proportion to
    /// their reward priority (§4.3 online fine-tuning).
    pub fn prioritized(cap: usize) -> Self {
        ReplayBuffer {
            prio: Some(Priorities {
                tree: SumTree::default(),
                r_min: f64::INFINITY,
                r_max: f64::NEG_INFINITY,
            }),
            ..Self::new(cap)
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert one transition as a row, overwriting the oldest entry once
    /// full. The first push fixes the widths of `state` and `next_state`;
    /// every later one must match them.
    pub fn push_row(
        &mut self,
        state: &[f32],
        action: usize,
        reward: f32,
        next_state: &[f32],
        discount: f32,
    ) {
        if self.len == 0 {
            self.state_dim = state.len();
            self.row_len = state.len() + next_state.len();
        }
        assert!(
            state.len() == self.state_dim && next_state.len() == self.row_len - self.state_dim,
            "replay rows are {} + {} wide",
            self.state_dim,
            self.row_len - self.state_dim
        );
        // Stored as an `f32`, exact below 2^24.
        assert!(action < 1 << 24, "action index {action} fits in an f32");
        // Below capacity `next` is the length, so it is the slot either way.
        let slot = self.next;
        if let Some(p) = &mut self.prio {
            p.insert(slot, reward);
        }
        let (b, r) = (slot / BLOCK_ROWS, slot % BLOCK_ROWS);
        let stride = self.row_len + META;
        if b == self.blocks.len() {
            let rows = BLOCK_ROWS.min(self.cap - slot);
            self.blocks
                .push(vec![0.0; rows * stride].into_boxed_slice());
        }
        let row = &mut self.blocks[b][r * stride..(r + 1) * stride];
        let (s, rest) = row.split_at_mut(self.state_dim);
        let (s2, meta) = rest.split_at_mut(next_state.len());
        s.copy_from_slice(state);
        s2.copy_from_slice(next_state);
        meta.copy_from_slice(&[reward, action as f32, discount]);
        self.len = self.cap.min(self.len + 1);
        self.next = (slot + 1) % self.cap;
    }

    /// One index drawn from the buffer's distribution: one `gen_range` when
    /// uniform, one `f64` when prioritised.
    fn draw(&self, rng: &mut SmallRng) -> usize {
        match &self.prio {
            None => rng.gen_range(0..self.len()),
            Some(p) => {
                let target = rng.gen::<f64>() * p.tree.total();
                p.tree.find(target).min(self.len() - 1)
            }
        }
    }

    /// Draw `n` indices (with replacement) into `out`, one draw each. `out`
    /// is cleared first; reusing one buffer across calls keeps steady-state
    /// training allocation-free.
    pub fn sample_indices_into(&self, rng: &mut SmallRng, n: usize, out: &mut Vec<usize>) {
        assert!(!self.is_empty(), "sampling an empty replay buffer");
        out.clear();
        for _ in 0..n {
            out.push(self.draw(rng));
        }
    }

    /// The transition stored at `idx` (pairs with
    /// [`ReplayBuffer::sample_indices_into`]; storage order is unspecified).
    pub fn get(&self, idx: usize) -> TransitionRef<'_> {
        assert!(idx < self.len, "slot {idx} of {} stored", self.len);
        let (block, r) = (&self.blocks[idx / BLOCK_ROWS], idx % BLOCK_ROWS);
        let stride = self.row_len + META;
        let row = &block[r * stride..(r + 1) * stride];
        let (states, meta) = row.split_at(self.row_len);
        let (state, next_state) = states.split_at(self.state_dim);
        TransitionRef {
            state,
            action: meta[1] as usize,
            reward: meta[0],
            next_state,
            discount: meta[2],
        }
    }

    /// Copy `n` transitions, each drawn from this buffer's distribution,
    /// into `other` — either half of the local↔global exchange.
    pub fn exchange_into(&self, other: &mut ReplayBuffer, rng: &mut SmallRng, n: usize) {
        if self.is_empty() {
            return;
        }
        for _ in 0..n {
            let t = self.get(self.draw(rng));
            other.push_row(t.state, t.action, t.reward, t.next_state, t.discount);
        }
    }

    /// Iterate over the stored transitions (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = TransitionRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Floor priority that keeps every stored transition sampleable.
const PRIORITY_EPSILON: f64 = 1e-3;

/// The reward-prioritised buffer's sum-tree and running reward range.
#[derive(Clone, Debug)]
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

/// A sum-tree whose leaves double when a write first reaches past them.
/// The old tree becomes the new root's left subtree beside a zero right
/// half, so `total` keeps its bits and `find` (target < total) goes left,
/// then retraces its old path: every draw is a full-size tree's.
#[derive(Clone, Debug, Default)]
struct SumTree {
    /// Number of leaves: 0 before the first write, then a power of two.
    leaves: usize,
    /// Heap-layout tree: `tree[1]` is the root; leaf `i` lives at
    /// `leaves + i`.
    tree: Vec<f64>,
}

impl SumTree {
    fn total(&self) -> f64 {
        self.tree[1]
    }

    /// Double the leaves: level `d` of the old tree (nodes `2^d..2^(d+1)`)
    /// becomes the left half of level `d + 1`.
    fn grow(&mut self) {
        let old = self.leaves;
        self.leaves = (2 * old).max(2);
        let mut tree = vec![0.0; 2 * self.leaves];
        let mut width = 1;
        while width <= old {
            tree[2 * width..3 * width].copy_from_slice(&self.tree[width..2 * width]);
            width *= 2;
        }
        tree[1] = tree[2];
        self.tree = tree;
    }

    fn set(&mut self, leaf: usize, value: f64) {
        debug_assert!(value >= 0.0 && value.is_finite());
        while leaf >= self.leaves {
            self.grow();
        }
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

    /// Push a one-float row with reward `r`, action 0 and discount 0.5.
    fn push(b: &mut ReplayBuffer, r: f32) {
        b.push_row(&[r], 0, r, &[r + 1.0], 0.5);
    }

    /// Push a row 3 + 2 floats wide.
    fn push_wide(b: &mut ReplayBuffer) {
        b.push_row(&[0.0; 3], 0, 0.0, &[0.0; 2], 0.5);
    }

    /// `n` draws from `b`, as the transitions they pick.
    fn sample<'a>(b: &'a ReplayBuffer, rng: &mut SmallRng, n: usize) -> Vec<TransitionRef<'a>> {
        let mut idx = Vec::new();
        b.sample_indices_into(rng, n, &mut idx);
        idx.into_iter().map(|i| b.get(i)).collect()
    }

    #[test]
    fn push_until_full_then_ring() {
        for mut b in [ReplayBuffer::new(3), ReplayBuffer::prioritized(3)] {
            assert!(b.is_empty());
            for i in 0..5 {
                push(&mut b, i as f32);
            }
            assert_eq!(b.len(), 3);
            // Entries 0,1 were overwritten by 3,4.
            let rewards: Vec<f32> = b.iter().map(|t| t.reward).collect();
            assert_eq!(rewards, [3.0, 4.0, 2.0]);
        }
    }

    /// Nothing is reserved before the first push; storage then grows one
    /// block at a time, the last one cut to the capacity, and a block keeps
    /// its allocation as the ring wraps.
    #[test]
    fn ring_grows_in_blocks_up_to_capacity() {
        let cap = 2 * BLOCK_ROWS + 10;
        let mut b = ReplayBuffer::new(cap);
        assert_eq!(b.blocks.capacity(), 0);
        let mut first = None;
        for i in 0..3 * cap {
            push(&mut b, i as f32);
            let rows = b.blocks[0].as_ptr();
            assert_eq!(*first.get_or_insert(rows), rows, "block 0 moved");
        }
        let rows: Vec<usize> = b.blocks.iter().map(|k| k.len() / (2 + META)).collect();
        assert_eq!(rows, [BLOCK_ROWS, BLOCK_ROWS, 10]);
    }

    /// A stored transition reads back as the one pushed.
    #[test]
    fn rows_read_back_as_pushed() {
        let mut b = ReplayBuffer::prioritized(4);
        push_wide(&mut b);
        b.push_row(&[1.0, 2.0, 3.0], 7, -0.5, &[4.0, 5.0], 0.125);
        let want = TransitionRef {
            state: &[1.0, 2.0, 3.0],
            action: 7,
            reward: -0.5,
            next_state: &[4.0, 5.0],
            discount: 0.125,
        };
        assert_eq!(b.get(1), want);
    }

    #[test]
    #[should_panic(expected = "replay rows are 3 + 2 wide")]
    fn a_row_of_another_width_panics() {
        let mut b = ReplayBuffer::new(4);
        push_wide(&mut b);
        push(&mut b, 1.0);
    }

    #[test]
    fn sampling_is_uniformish() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..10 {
            push(&mut b, i as f32);
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
        let mut t = SumTree::default();
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
            push(&mut p, 0.0);
        }
        push(&mut p, 1.0);
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
            p.push_row(&[0.5], i, 0.5, &[1.5], 0.5);
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
        push(&mut p, 0.0);
        push(&mut p, 1.0);
        push(&mut p, f32::NAN);
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
                push(&mut local, i as f32 * 0.25);
            }
            let mut r1 = SmallRng::seed_from_u64(9);
            let mut r2 = SmallRng::seed_from_u64(9);
            let mut global = ReplayBuffer::new(64);
            local.exchange_into(&mut global, &mut r1, 8);
            let sampled = sample(&local, &mut r2, 8);
            assert_eq!(global.iter().collect::<Vec<_>>(), sampled);
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
