//! What the future-event list allocates: one pool of pending events and
//! the index vectors beside it, reserved to one capacity by
//! `EventQueue::sized_for`'s rule and grown only when the number of pending
//! events passes it — never because many of them share a bucket.
//!
//! An integration test because the `netsim` lib forbids unsafe code and a
//! counting `GlobalAlloc` needs it. The counters are per thread, so the
//! tests may run in parallel.

use netsim::event::{Event, EventQueue, Scheduled};
use netsim::ids::NodeId;
use netsim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those asked for (a reallocation counts its new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn log(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        log(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        log(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        log(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocations and bytes `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (a1 - a0, b1 - b0, out)
}

/// Bytes reserved per pending event: the event in the pool, its 4-byte
/// wheel link, its 8-byte sort key, and a 24-byte `(time, seq, index)` key
/// in each of the late and the overflow heap.
const EVENT_BYTES: usize = 64 + 4 + 8 + 2 * 24;

/// Picoseconds per wheel bucket.
const BUCKET_PS: u64 = 1 << 16;

fn timer(token: u64) -> Event {
    Event::HostTimer {
        host: NodeId(0),
        token,
    }
}

#[test]
fn sized_for_reserves_the_stated_rule_and_nothing_else() {
    assert_eq!(std::mem::size_of::<Scheduled>(), 64);
    // The 306-node WebSearch fabric and one shard of two of the 1024-host
    // Clos (578 nodes): 4 × max(512, n.next_power_of_two()) events.
    for (nodes, cap, bound) in [(306, 2048, 350_000), (578, 4096, 600_000)] {
        let (allocs, bytes, q) = counted(|| EventQueue::sized_for(nodes));
        assert_eq!(q.capacity(), cap, "{nodes} nodes");
        assert_eq!(allocs, 5, "pool, links, sort keys and two heaps");
        assert_eq!(bytes, cap * EVENT_BYTES, "{nodes} nodes");
        assert!(
            bytes <= bound,
            "{nodes} nodes reserve {bytes} B > {bound} B"
        );
    }
}

/// Every pending event stands in one bucket, at any depth up to the
/// capacity: the pattern that made a per-bucket vector regrow. A hold pops
/// the earliest event and pushes one a bucket later, so the next bucket
/// fills while the current one drains.
#[test]
fn a_one_bucket_hold_at_any_depth_allocates_nothing() {
    let cap = EventQueue::sized_for(306).capacity();
    for depth in [1, 64, 129, 513, cap / 2, cap] {
        let mut q = EventQueue::sized_for(306);
        let (allocs, _, ()) = counted(|| {
            let base = 100 * BUCKET_PS;
            for i in 0..depth as u64 {
                let t = SimTime::from_ps(base + i * 31 % BUCKET_PS);
                q.push_keyed(t, i.wrapping_mul(0x9E37_79B9_7F4A_7C15), timer(i));
            }
            for i in depth as u64..depth as u64 + 4 * depth as u64 + 1_000 {
                let s = q.pop().expect("the hold keeps the queue at depth");
                let t = SimTime::from_ps(s.time.as_ps() + BUCKET_PS);
                q.push_keyed(t, i.wrapping_mul(0x9E37_79B9_7F4A_7C15), timer(i));
            }
            while q.pop().is_some() {}
        });
        assert_eq!(allocs, 0, "depth {depth}");
        assert_eq!(q.peak_len(), depth);
        assert_eq!(q.capacity(), cap, "depth {depth}");
    }
}

/// One event past the capacity doubles the pool and everything that
/// indexes it, once; up to the new capacity nothing grows again.
#[test]
fn passing_the_capacity_grows_the_pool_once() {
    let mut q = EventQueue::sized_for(0);
    let cap = q.capacity();
    // Spread over 200 buckets: the wheel's 64 and the overflow heap.
    let at = |i: u64| SimTime::from_ps(BUCKET_PS + i * 0x9E37_79B9 % (200 * BUCKET_PS));
    let (allocs, _, ()) = counted(|| (0..cap as u64).for_each(|i| q.push(at(i), timer(i))));
    assert_eq!(allocs, 0, "filling to the capacity");
    let (allocs, bytes, ()) = counted(|| q.push(at(cap as u64), timer(cap as u64)));
    assert_eq!(q.capacity(), 2 * cap);
    assert_eq!(allocs, 5, "pool, links, sort keys and two heaps, once");
    assert_eq!(bytes, 2 * cap * EVENT_BYTES);
    let (allocs, _, ()) = counted(|| {
        (cap as u64 + 1..2 * cap as u64).for_each(|i| q.push(at(i), timer(i)));
        while q.pop().is_some() {}
    });
    assert_eq!(allocs, 0, "up to the new capacity and back");
    assert_eq!(q.peak_len(), 2 * cap);
}
