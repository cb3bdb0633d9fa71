//! One re-keyable completion timer per active flow: an indexed binary
//! min-heap ordered by `(time, seq)`.
//!
//! `pos[slot]` tracks where a flow slab slot's entry sits in the heap, so
//! a rate change *moves* the flow's one entry ([`FlowTimers::set`]) instead
//! of pushing a fresh one and leaving the old to pop as a no-op. Pending
//! timers are therefore bounded by the active-flow count, and every pop is a
//! real completion. `seq` is the engine's shared schedule counter; it is
//! unique per key, so pops are a total order and equal-time ties fire in
//! the order they were (re-)armed.

use crate::time::SimTime;

/// `pos` value of a slab slot with no pending timer.
const NONE: u32 = u32::MAX;

/// `(fire time, schedule seq, flow slab slot)`. `seq` is unique, so the
/// tuple order is the `(time, seq)` order.
pub(super) type Timer = (SimTime, u64, u32);

#[derive(Default)]
pub(super) struct FlowTimers {
    heap: Vec<Timer>,
    /// Heap index of each slab slot's entry, or [`NONE`].
    pos: Vec<u32>,
}

impl FlowTimers {
    /// Pre-size for `slots` slab slots (at most one timer each).
    pub(super) fn reserve(&mut self, slots: usize) {
        self.heap.reserve(slots.saturating_sub(self.heap.len()));
        self.pos.reserve(slots.saturating_sub(self.pos.len()));
    }

    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Key of the earliest timer.
    pub(super) fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(|&(at, seq, _)| (at, seq))
    }

    /// Arm `slot`'s timer for `(at, seq)`, moving its entry if it has one.
    pub(super) fn set(&mut self, slot: u32, at: SimTime, seq: u64) {
        if slot as usize >= self.pos.len() {
            self.pos.resize(slot as usize + 1, NONE);
        }
        let i = self.pos[slot as usize];
        if i == NONE {
            self.heap.push((at, seq, slot));
            self.sift_up(self.heap.len() - 1);
        } else {
            let i = i as usize;
            let earlier = (at, seq, slot) < self.heap[i];
            self.heap[i] = (at, seq, slot);
            if earlier {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Remove and return the earliest timer.
    pub(super) fn pop_min(&mut self) -> Option<Timer> {
        if self.heap.is_empty() {
            return None;
        }
        let min = self.heap.swap_remove(0);
        self.pos[min.2 as usize] = NONE;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some(min)
    }

    /// Move the entry at `i` toward the root until its parent is earlier,
    /// then record where it landed.
    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if p <= e {
                break;
            }
            self.heap[i] = p;
            self.pos[p.2 as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.pos[e.2 as usize] = i as u32;
    }

    /// Move the entry at `i` toward the leaves until both children are
    /// later, then record where it landed.
    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            let c = self.heap[child];
            if e <= c {
                break;
            }
            self.heap[i] = c;
            self.pos[c.2 as usize] = i as u32;
            i = child;
        }
        self.heap[i] = e;
        self.pos[e.2 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const SLOTS: usize = 24;

    /// The structure this one replaced: push a fresh entry per `set`, skip
    /// superseded ones at pop.
    #[derive(Default)]
    struct LazyModel {
        heap: BinaryHeap<Reverse<Timer>>,
        live: [Option<u64>; SLOTS],
    }

    impl LazyModel {
        fn set(&mut self, slot: u32, at: SimTime, seq: u64) {
            self.live[slot as usize] = Some(seq);
            self.heap.push(Reverse((at, seq, slot)));
        }

        fn pop_min(&mut self) -> Option<Timer> {
            while let Some(Reverse(t)) = self.heap.pop() {
                if self.live[t.2 as usize] == Some(t.1) {
                    self.live[t.2 as usize] = None;
                    return Some(t);
                }
            }
            None
        }
    }

    fn check_index(t: &FlowTimers) {
        for (i, e) in t.heap.iter().enumerate() {
            assert_eq!(t.pos[e.2 as usize], i as u32, "pos[heap[{i}].slot] == {i}");
        }
        let armed = t.pos.iter().filter(|&&p| p != NONE).count();
        assert_eq!(armed, t.heap.len(), "every armed slot is in the heap once");
    }

    proptest! {
        /// Any interleaving of `set` (insert or re-key) and `pop_min` pops
        /// the same `(time, seq, slot)` sequence as lazy deletion would,
        /// equal-time ties included, and the index stays exact throughout.
        #[test]
        fn matches_lazy_deletion_model(
            // op 0 pops; times are drawn from 16 values so ties are common.
            ops in prop::collection::vec((0u8..4, 0u32..SLOTS as u32, 0u64..16), 0..400),
        ) {
            let mut timers = FlowTimers::default();
            let mut model = LazyModel::default();
            for (seq, &(op, slot, t)) in ops.iter().enumerate() {
                if op == 0 {
                    prop_assert_eq!(timers.pop_min(), model.pop_min());
                } else {
                    let at = SimTime::from_ps(t);
                    timers.set(slot, at, seq as u64);
                    model.set(slot, at, seq as u64);
                }
                check_index(&timers);
                prop_assert_eq!(timers.peek().is_some(), timers.len() > 0);
            }
            loop {
                let (got, want) = (timers.pop_min(), model.pop_min());
                prop_assert_eq!(got, want);
                check_index(&timers);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
