//! What the harness-level integration tests share: scratch directories,
//! the `diff -r -x manifest.json` comparison of recorded trees, and the
//! counting allocator whose counters stand in for the `acc-bench` binary's.
//!
//! Every test builds its own [`acc_bench::Harness`], so nothing here (or in
//! the tests) serialises on a lock.

// Each test crate uses its own subset.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// An empty path under `target/` (the directory itself is not created).
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new("target").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sorted run directories (those holding a manifest) under `root`.
pub fn run_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("metrics root exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.join("manifest.json").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// The one run directory recorded under `root`.
pub fn only_run_dir(root: &Path) -> PathBuf {
    let mut runs = run_dirs(root);
    assert_eq!(runs.len(), 1, "exactly one run dir under {root:?}");
    runs.pop().unwrap()
}

/// Every file of `files` exists in `run` and holds something.
pub fn assert_recorded(run: &Path, files: &[&str]) {
    for f in files {
        let len = std::fs::metadata(run.join(f)).map_or(0, |m| m.len());
        assert!(len > 0, "{f} recorded nothing in {run:?}");
    }
}

/// `diff -r -x manifest.json a b`: the same entry names on both sides at
/// every depth, every file byte-identical. `manifest.json` carries
/// wall-clock fields by design and only has to exist on both sides.
pub fn assert_same_tree(a: &Path, b: &Path, what: &str) {
    let names = |d: &Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap_or_else(|e| panic!("{d:?}: {e}"))
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        v.sort();
        v
    };
    let (na, nb) = (names(a), names(b));
    assert_eq!(na, nb, "{a:?} and {b:?} hold different entries ({what})");
    for name in &na {
        let (x, y) = (a.join(name), b.join(name));
        if x.is_dir() {
            assert_same_tree(&x, &y, what);
        } else if name != "manifest.json" {
            let (x, y) = (std::fs::read(&x).unwrap(), std::fs::read(&y).unwrap());
            assert!(x == y, "{name} differs between {what} ({a:?} vs {b:?})");
        }
    }
}

struct CountingAlloc;

// Per thread: a profiled run's allocation block means the run's own. Other
// threads — the neighbouring test, the main thread printing a result —
// allocate whenever they are scheduled, which on a loaded host is inside the
// probe window. Shard workers and trainer helpers are other threads too:
// the engine's steady-state allocations, theirs included, are counted
// process-wide by the `engine_counts` test, a harness-free test with its own
// allocator.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also serves threads that are shutting down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: delegates directly to the `System` allocator; the counters are
// plain thread-local `Cell`s with no destructor, never allocate, and do not
// affect layout or aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's `(allocations, bytes)` so far — the probe a test harness
/// registers, as the binary registers its process-wide one.
pub fn alloc_probe() -> (u64, u64) {
    (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}
