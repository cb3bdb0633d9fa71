//! What a shard of the 1024-host Clos allocates for its ports and its
//! packet slab: a 64-byte header per held port, `num_prios` class rows of
//! 192 bytes each, and 48 bytes per reserved slab slot — every one of them
//! following from `ports_held()`, `num_prios` and `arena_slots().0`, with
//! nothing sized for classes a port does not have.
//!
//! An integration test because the `netsim` lib forbids unsafe code and a
//! counting `GlobalAlloc` needs it; the file holds exactly one `#[test]` so
//! no concurrent test thread can pollute the log.

use netsim::config::SimConfig;
use netsim::shard::ShardPlan;
use netsim::sim::Simulator;
use netsim::topology::TopologySpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

/// Whether allocations are being logged.
static LOGGING: AtomicBool = AtomicBool::new(false);
/// Bytes of every cache-line-aligned allocation while logging: the port
/// headers and class rows are the engine's only `align(64)` types.
static LINE_ALIGNED_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Sizes of the largest allocations while logging, biggest first.
static LARGEST: [AtomicUsize; 8] = [const { AtomicUsize::new(0) }; 8];

fn log(layout: Layout) {
    if !LOGGING.load(Ordering::Relaxed) {
        return;
    }
    if layout.align() == 64 {
        LINE_ALIGNED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
    }
    // Keep the eight largest sizes (the test thread is the only one
    // allocating while logging is on).
    let mut size = layout.size();
    for slot in &LARGEST {
        let held = slot.load(Ordering::Relaxed);
        if size > held {
            slot.store(size, Ordering::Relaxed);
            size = held;
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        log(layout);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        log(Layout::from_size_align_unchecked(new_size, layout.align()));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        log(layout);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes of one port header and of one class row.
const HEADER: usize = 64;
const CLASS_ROW: usize = 192;
/// Bytes of one packet slab slot: the packet, its ingress port, the link.
const SLAB_SLOT: usize = 48;

#[test]
fn a_clos_shard_allocates_what_its_ports_and_slab_need() {
    let topo = TopologySpec::paper_xl_clos().build();
    let plan = ShardPlan::build(&topo, 2);
    let cfg = SimConfig::default();
    let prios = cfg.port.num_prios;

    LOGGING.store(true, Ordering::Relaxed);
    let sim = Simulator::new_sharded(topo, cfg, &plan, 0);
    LOGGING.store(false, Ordering::Relaxed);

    let core = sim.core();
    let (held, slots) = (core.ports_held(), core.arena_slots().0);
    assert!(held > 0 && slots > 0);
    // The port headers and the class table, and nothing else aligned to a
    // line: a header per held port and a row per class it has.
    let tables = held * (HEADER + prios * CLASS_ROW);
    assert_eq!(
        LINE_ALIGNED_BYTES.load(Ordering::Relaxed),
        tables,
        "{held} ports of {prios} classes"
    );
    // The slab is reserved once, at 48 bytes a slot, and is the largest
    // allocation the shard makes; the class table and the headers are
    // allocations of their own.
    let largest: Vec<usize> = LARGEST.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    assert_eq!(largest[0], slots * SLAB_SLOT, "slab of {slots} slots");
    for table in [held * prios * CLASS_ROW, held * HEADER] {
        assert!(
            largest.contains(&table),
            "no {table}-byte table in {largest:?}"
        );
    }
}
