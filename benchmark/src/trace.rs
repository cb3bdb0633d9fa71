//! The in-memory span buffer and its Chrome-trace writer.
//!
//! Spans are recorded by the benchmark's own files, around calls into the
//! program's layers; nothing inside the program is instrumented. A span is
//! named after the per-layer metric it feeds (`netsim.run_s`, ...), so the
//! harness turns the buffer into metrics by summing durations per name.
#![forbid(unsafe_code)]

use crate::alloc_count;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span, times relative to the probe's creation.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Trial label, so one buffer can hold every trial of an invocation.
    pub trial: usize,
    /// 0 for the coordinating thread, `1 + shard` for shard workers.
    pub tid: u32,
    pub start_us: f64,
    pub dur_us: f64,
}

/// A named instant with the allocator counters read at it.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pub at: Instant,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Mark {
    pub fn now() -> Mark {
        let (allocs, alloc_bytes) = alloc_count::totals();
        Mark {
            at: Instant::now(),
            allocs,
            alloc_bytes,
        }
    }

    /// Seconds from `earlier` to `self`.
    pub fn since(&self, earlier: &Mark) -> f64 {
        self.at.duration_since(earlier.at).as_secs_f64()
    }
}

/// Span recorder shared by the harness and the adapter. Untraced trials get
/// a disabled probe: `span` then only calls its closure.
pub struct Probe {
    enabled: bool,
    trial: usize,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Probe {
    pub fn new(enabled: bool, trial: usize, origin: Instant) -> Probe {
        Probe {
            enabled,
            trial,
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f`, recording a span around it when enabled.
    pub fn span<R>(&self, name: &'static str, tid: u32, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.record(name, tid, t0, Instant::now());
        r
    }

    /// Record a span whose ends were taken elsewhere (no-op when disabled).
    pub fn record(&self, name: &'static str, tid: u32, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans
            .lock()
            .expect("a span is pushed without panicking")
            .push(Span {
                name,
                trial: self.trial,
                tid,
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a span is pushed without panicking")
    }
}

/// Total seconds of the spans called `name` on the coordinating thread plus,
/// for spans recorded per shard, the slowest shard (shards run side by
/// side, so the slowest one is what the trial waits for).
pub fn span_seconds(spans: &[Span], name: &str) -> f64 {
    let mut per_tid = std::collections::BTreeMap::<u32, f64>::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per_tid.entry(s.tid).or_default() += s.dur_us / 1e6;
    }
    let coordinator = per_tid.remove(&0).unwrap_or(0.0);
    coordinator + per_tid.values().copied().fold(0.0, f64::max)
}

/// Spans as Chrome trace events (`chrome://tracing`, Perfetto): one
/// complete ("X") event per span, `cat` = workload, `pid` = trial.
pub fn chrome_events(workload: &str, spans: &[Span]) -> Vec<serde_json::Value> {
    spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "cat": workload,
                "ph": "X",
                "pid": s.trial,
                "tid": s.tid,
                "ts": s.start_us,
                "dur": s.dur_us,
            })
        })
        .collect()
}
