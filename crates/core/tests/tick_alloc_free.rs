//! The allocation-free control tick: once its replay ring is full, a
//! private-replay [`AccController`] on a single-switch incast runs its
//! control ticks — observe, store the transition, batched select, apply,
//! submit and join the update — with the packet engine around them, and
//! no heap allocation at all, the recorder being off.
//!
//! A counting `GlobalAlloc` needs `unsafe` and counts process-wide, so it
//! lives in an integration test of its own that holds exactly one
//! `#[test]`: no other test thread can touch the counter. The trainer's
//! helper threads, when the host has a spare core, are counted too.

use acc_core::{AccConfig, AccController, ActionSpace};
use netsim::prelude::*;
use netsim::topology::TopologyBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use transport::{CcKind, FctCollector, Message, StackConfig};

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

const LINK_BPS: u64 = 25_000_000_000;
const SENDERS: usize = 8;
const TICK: SimTime = SimTime::from_us(50);

#[test]
fn steady_state_ticks_allocate_nothing() {
    // One switch, eight senders and a receiver: an 8-to-1 incast whose
    // flows outlast the run, so no flow starts or ends in the window.
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw");
    for i in 0..=SENDERS {
        let h = b.add_host(format!("h{i}"));
        b.link(h, sw, LINK_BPS, SimTime::from_ns(500));
    }
    let cfg = SimConfig::default()
        .with_seed(7)
        .with_control_interval(TICK);
    let mut sim = Simulator::new(b.build(), cfg);
    let fct = FctCollector::new_shared();
    let stacks = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
    for &src in &stacks[..SENDERS] {
        let msg = Message::new(stacks[SENDERS], 1 << 30, CcKind::Dcqcn);
        transport::schedule_message(&mut sim, src, SimTime::ZERO, msg);
    }

    // Private replay, no recorder; every queue decides every tick, so the
    // 64-row ring is full within a few ticks.
    let mut acc = AccConfig::default();
    acc.ddqn.replay_capacity = 64;
    acc.ddqn.min_replay = 16;
    acc.ddqn.batch_size = 16;
    acc.idle_optimization = false;
    acc.seed = 13;
    let ctl = AccController::new(acc, ActionSpace::templates());
    sim.set_controller(sw, Box::new(ctl));

    let ticks = |sim: &mut Simulator| {
        sim.with_controller(sw, |c, _| {
            let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
            (acc.stats.ticks, acc.agent().borrow_mut().get().replay.len())
        })
    };
    // Warm-up: the ring fills, the workspaces take their shapes, the
    // trainer's helpers (if any) start.
    let warm = TICK.mul(100);
    sim.run_until(warm);
    let (before, replay_len) = ticks(&mut sim);
    assert_eq!(replay_len, 64, "the ring is full");

    let start = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(warm + TICK.mul(200));
    let allocs = ALLOCS.load(Ordering::Relaxed) - start;

    let (after, _) = ticks(&mut sim);
    assert_eq!(after - before, 200, "the window holds 200 control ticks");
    assert_eq!(fct.borrow().completed().count(), 0, "no flow ended");
    assert_eq!(
        allocs, 0,
        "200 steady-state ticks performed {allocs} heap allocations"
    );
}
