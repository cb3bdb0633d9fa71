//! Counting global allocator: the benchmark's only `unsafe` code.
//!
//! Every other module starts with `#![forbid(unsafe_code)]`. The counters
//! are statistics only (they publish no other data), so `Relaxed` suffices.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// `System` plus four counters.
pub struct CountingAlloc;

fn on_alloc(bytes: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Cumulative `(allocations, allocated bytes)` since process start.
pub fn totals() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Start a new peak-tracking window at the current live size.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// Highest live heap size since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Relaxed)
}
