//! Regression test for the allocation-free learner: once the persistent
//! `TrainWorkspace` has reached its steady-state shape and the replay rings
//! are full, storing a transition, the local↔global experience exchange in
//! both directions, a `train_step` (including target-network syncs) and a
//! batched per-tick selection must perform **zero** heap allocations.
//!
//! Lives in an integration test because the `rl` lib forbids unsafe code —
//! a counting `GlobalAlloc` needs it, and each integration test is its own
//! crate. The file holds exactly one `#[test]` so no concurrent test thread
//! can pollute the counter.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rl::{DdqnAgent, DdqnConfig, ReplayBuffer, Transition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_train_and_select_allocate_nothing() {
    for prioritized in [false, true] {
        steady_state(prioritized);
    }
}

/// One agent with a full ring and a full global memory: storing,
/// exchanging both ways, training and batched selection allocate nothing.
fn steady_state(prioritized: bool) {
    // ACC-shaped agent: 12 state features, {40,40} hidden, 20 actions; a
    // small ring so that it fills and wraps.
    let mut cfg = DdqnConfig::default();
    cfg.target_sync_every = 5; // ensure the measured window includes syncs
    cfg.replay_capacity = 512;
    cfg.use_prioritized_replay = prioritized;
    let mut agent = DdqnAgent::new(12, 20, cfg, 42);
    let mut global = ReplayBuffer::new(4 * 512);
    let state = |i: u32| -> Vec<f32> { (0..12).map(|d| ((i + d) % 9) as f32 * 0.1).collect() };
    for i in 0..600u32 {
        agent.observe(Transition {
            state: state(i),
            action: (i % 20) as usize,
            reward: (i % 7) as f32 * 0.2 - 0.5,
            next_state: state(i + 1),
            done: i % 31 == 0,
        });
    }
    let mut rng = SmallRng::seed_from_u64(7);
    while global.len() < 4 * 512 {
        agent.replay.exchange_into(&mut global, &mut rng, 64);
    }

    // Warm up: shapes the workspace, lazily builds the gradient buffers,
    // and crosses at least one target sync.
    for _ in 0..12 {
        assert!(agent.train_step().is_some());
    }
    let states: Vec<f32> = (0..8 * 12).map(|i| (i % 11) as f32 * 0.05).collect();
    let (s, s2) = (state(3), state(4));
    let mut decisions = Vec::new();
    agent.select_actions_batch(&states, 8, &mut decisions);

    // Steady state: 20 rounds of store, exchange up and down, train (4
    // target syncs) and a batched selection.
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..20 {
        agent.observe_row(&s, i % 20, 0.25, &s2, 0.5);
        agent.replay.exchange_into(&mut global, &mut rng, 64);
        global.exchange_into(&mut agent.replay, &mut rng, 64);
        let loss = agent.train_step();
        assert!(loss.is_some());
        agent.select_actions_batch(&states, 8, &mut decisions);
        assert_eq!(decisions.len(), 8);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state store/exchange/train/select (prioritized: {prioritized}) \
         performed {delta} heap allocations"
    );
}
