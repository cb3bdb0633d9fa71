//! Regression test for the histogram's hot-path contract: after
//! construction, `record()` / `record_n()` / `value_at_percentile()` /
//! `merge_from()` perform **zero** heap allocations — the simulator calls
//! these per dispatched event.
//!
//! Lives in an integration test because the `acc-metrics` lib forbids
//! unsafe code — a counting `GlobalAlloc` needs it, and each integration
//! test is its own crate. The file holds exactly one `#[test]` so no
//! concurrent test thread can pollute the counter.

use acc_metrics::Histogram;
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
fn recording_is_allocation_free() {
    // Construction is the one permitted allocation (the bucket array).
    let mut h = Histogram::new();
    let mut other = Histogram::new();
    for v in 0..64u64 {
        other.record(v * 977);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..100_000u64 {
        // Mix of magnitudes: exact range, mid octaves, extremes.
        h.record(i % 32);
        h.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h.record_n(i, 3);
    }
    let p99 = h.value_at_percentile(99.0);
    h.merge_from(&other);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "hot-path metrics performed {delta} heap allocations"
    );
    assert!(p99 > 0);
}
