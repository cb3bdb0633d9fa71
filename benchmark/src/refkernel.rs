//! The host-speed reference: a fixed, benchmark-owned kernel timed right
//! before and right after every trial.
//!
//! A shared sandbox runs the same code up to 2.7x slower for tens of
//! seconds at a time (noisy neighbours), which no amount of repetition
//! inside one run averages out. The kernel below contains no program code,
//! so a change to the program cannot move it; it slows down with the host
//! when a trial does. Host-time metrics are therefore reported in
//! *reference-host seconds*: wall-clock seconds divided by the speed factor
//! `(kernel time before + after the trial) / 2 / NOMINAL_S`. On a quiet host
//! of the class the benchmark was sized on the factor is 1 and the numbers
//! are plain seconds. Every trial's factor is printed on standard error and
//! kept in the `run` result (`host_speed_factor`), so the raw wall time is
//! always `value x factor`.
//!
//! What it buys is measured, not assumed: `results/spread.json` holds, for
//! ten fresh processes per workload, the raw and the corrected `wall_s` of
//! the same trials side by side (README, "Host time is in reference-host
//! seconds").
#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::time::Instant;

/// Seconds the kernel takes on one quiet core of the sizing host.
pub const NOMINAL_S: f64 = 0.28;

const HELD: u32 = 1 << 15;
const STATE_WORDS: usize = 1 << 20;
const OPS: u32 = 2_400_000;

/// Operations between two synchronisation points of the multi-threaded
/// reference (a few hundred microseconds: the grain at which shards of the
/// conservative-lookahead engine wait for each other).
const LOCKSTEP_OPS: u32 = 2_000;

/// A discrete-event-loop lookalike — pop the earliest timer, touch a random
/// word of an 8 MB table, push a later timer — so that it meets the memory
/// system the way a simulation does. `sync` runs every [`LOCKSTEP_OPS`]
/// operations.
fn kernel(mut sync: impl FnMut()) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(HELD as usize + 1);
    let mut state = vec![0u64; STATE_WORDS];
    for id in 0..HELD {
        heap.push(Reverse((next() % 1_000_000, id)));
    }
    let mut acc = 0u64;
    for op in 0..OPS {
        let Reverse((t, id)) = heap.pop().expect("the hold keeps the heap full");
        let slot = next() as usize % STATE_WORDS;
        state[slot] = state[slot].wrapping_add(t);
        acc ^= state[id as usize * 31 % STATE_WORDS];
        heap.push(Reverse((t + next() % 700_000, id)));
        if op % LOCKSTEP_OPS == LOCKSTEP_OPS - 1 {
            sync();
        }
    }
    acc
}

/// Time the kernel on `threads` threads. With more than one, the threads
/// meet at a spinning barrier every [`LOCKSTEP_OPS`] operations: a sharded
/// trial stalls on all its cores whenever one of them is held up, and its
/// reference has to stall the same way. Returns the seconds until the last
/// thread finished.
pub fn measure(threads: u32) -> f64 {
    let t0 = Instant::now();
    if threads <= 1 {
        std::hint::black_box(kernel(|| {}));
    } else {
        // `arrived` counts barrier arrivals over the whole run; round `r`
        // is over once it reaches `r * threads`. SeqCst: the counter is the
        // only shared state and the cost is irrelevant here.
        let arrived = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mut round = 0;
                    std::hint::black_box(kernel(|| {
                        round += 1;
                        arrived.fetch_add(1, SeqCst);
                        while arrived.load(SeqCst) < round * threads {
                            std::thread::yield_now();
                        }
                    }))
                });
            }
        });
    }
    t0.elapsed().as_secs_f64()
}
