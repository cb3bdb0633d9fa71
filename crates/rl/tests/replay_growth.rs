//! How the replay ring grows: filling it allocates the rows it holds plus
//! at most one block of slack and the table of block handles, and never
//! re-copies a row — the only allocation ever resized is that table, a
//! pointer and a length per block. A prioritised ring adds its sum-tree,
//! which doubles with the rows held rather than being sized for the
//! capacity.
//!
//! An integration test because the `rl` lib forbids unsafe code and a
//! counting `GlobalAlloc` needs it; the file holds exactly one `#[test]` so
//! no concurrent test thread can pollute the counters.

use rl::ReplayBuffer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
/// The largest size any reallocation asked for.
static MAX_REALLOC: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        MAX_REALLOC.fetch_max(new_size as u64, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Slots per block of the ring (the `rl::replay` constant).
const BLOCK: usize = 256;

#[test]
fn filling_a_ring_allocates_its_rows_and_one_block_at_most() {
    // ACC-shaped rows (12 + 12 floats) in a ring of the default capacity.
    let cap: usize = 10_000;
    let (state, next) = ([0.25f32; 12], [0.5f32; 12]);
    // A row: its two states, reward, action and discount.
    let row_bytes = (state.len() + next.len() + 3) as u64 * 4;
    // The block table, grown by doubling: a handle per block at most twice
    // over, plus the smaller tables it outgrew.
    let handle = std::mem::size_of::<Box<[f32]>>() as u64;
    let table_bytes = 4 * handle * cap.div_ceil(BLOCK) as u64;
    for prioritized in [false, true] {
        for n in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3_000, cap, 2 * cap + 7] {
            let b0 = BYTES.load(Ordering::Relaxed);
            MAX_REALLOC.store(0, Ordering::Relaxed);
            let mut ring = if prioritized {
                ReplayBuffer::prioritized(cap)
            } else {
                ReplayBuffer::new(cap)
            };
            for i in 0..n {
                ring.push_row(&state, i % 20, i as f32, &next, 0.5);
            }
            let bytes = BYTES.load(Ordering::Relaxed) - b0;
            let held = n.min(cap) as u64;
            // The sum-tree holds two `f64`s per leaf, its leaves the next
            // power of two above the rows held; every smaller tree it
            // outgrew adds up to less than that once more.
            let leaves = held.next_power_of_two().max(2);
            let (tree_min, tree_max) = match prioritized {
                true => (16 * leaves, 32 * leaves),
                false => (0, 0),
            };
            let resized = MAX_REALLOC.load(Ordering::Relaxed);
            assert!(
                resized <= 2 * handle * cap.div_ceil(BLOCK) as u64,
                "{n} rows: a {resized}-byte reallocation is not the block table"
            );
            assert!(
                bytes <= (held + BLOCK as u64) * row_bytes + table_bytes + tree_max,
                "{n} rows (prioritized: {prioritized}) took {bytes} bytes"
            );
            assert!(
                bytes >= held * row_bytes + tree_min,
                "{n} rows: fewer bytes than rows"
            );
            assert_eq!(ring.len(), n.min(cap));
        }
    }
}
