//! Hot-path self-profiling for the simulator.
//!
//! A [`SimProfiler`] rides inside [`crate::sim::SimCore`] behind an
//! `Option<Box<_>>`: disabled (the default) the engine pays one pointer
//! check per event dispatch and nothing else, and because profiling is
//! **read-only wall-clock observation** — it never touches the simulation
//! RNG, the event queue order, or any packet state — recorded JSONL output
//! is byte-identical with profiling on or off.
//!
//! What it captures, enabled:
//!
//! * **Per-event-type dispatch timing** — exact dispatch *counts* per
//!   [`crate::event::Event`] kind, with wall-clock self-time histograms
//!   sampled 1-in-[`SAMPLE_EVERY`] (three `Instant::now()` calls per
//!   *sampled* event — before the queue, between queue and handler, after
//!   the handler — keep overhead within the ≤5% events/sec budget; total
//!   self time is estimated by scaling the sampled sum).
//! * **The event queue** — on the same sampled dispatches, the wall-clock
//!   time of finding and removing the event (`peek_time` + `pop`, wheel
//!   rotation and bucket sort included), reported as the queue's estimated
//!   share of engine time beside the per-kind self times; pushes are O(1)
//!   appends and stay inside the kind that made them. Plus a histogram of
//!   pending-event counts and the timing wheel's tier/rotation counters
//!   ([`crate::event::QueueStats`]).
//! * **Per-queue pathologies** — histograms of the egress queue depth at
//!   every ECN CE-mark and every drop, and of PFC pause durations, kept
//!   from the engine's probe point like every other simulated-time
//!   happening.
//! * **Spans & instants** — control ticks, controller phases, telemetry
//!   samples, fault executions and link-down windows, exportable as Chrome
//!   `trace_event` JSON (load the bench's `--profile out.json` artifact in
//!   `about://tracing` or Perfetto).
//!
//! All histograms are `acc_metrics` log-linear HDR histograms: fixed
//! footprint, allocation-free recording, mergeable across runs.

use crate::event::QueueStats;
use crate::fault::FaultKind;
use crate::ids::{NodeId, PortId};
use crate::sim::Happening;
use crate::time::SimTime;
use acc_metrics::Histogram;
use serde_json::{json, Value};
use std::time::Instant;

/// Dispatch timing is sampled 1-in-`SAMPLE_EVERY` (deterministic countdown,
/// not random — the profiler must not consume sim entropy). Counts stay
/// exact; self-time totals are estimated by scaling the sampled sum.
pub const SAMPLE_EVERY: u32 = 16;

/// Number of [`crate::event::Event`] kinds tracked.
pub const N_EVENT_KINDS: usize = 7;

/// Display names, indexed by [`event_kind`].
pub const EVENT_KIND_NAMES: [&str; N_EVENT_KINDS] = [
    "arrive",
    "tx_done",
    "pfc_update",
    "host_timer",
    "control_tick",
    "telemetry_sample",
    "fault",
];

/// Map an event to its kind index (see [`EVENT_KIND_NAMES`]).
#[inline]
pub fn event_kind(ev: &crate::event::Event) -> usize {
    use crate::event::Event::*;
    match ev {
        Arrive { .. } => 0,
        TxDone { .. } => 1,
        PfcUpdate { .. } => 2,
        HostTimer { .. } => 3,
        ControlTick => 4,
        TelemetrySample => 5,
        Fault(_) => 6,
    }
}

/// Exact count + sampled self-time for one event kind.
#[derive(Debug)]
pub struct KindStats {
    /// Events of this kind dispatched (exact).
    pub count: u64,
    /// Events whose dispatch was wall-clock timed (≈ count / SAMPLE_EVERY).
    pub timed: u64,
    /// Wall-clock self time of timed dispatches, nanoseconds.
    pub self_ns: Histogram,
}

impl KindStats {
    fn new() -> Self {
        KindStats {
            count: 0,
            timed: 0,
            self_ns: Histogram::new(),
        }
    }

    /// Estimated total self time (ns) across *all* dispatches of this kind:
    /// the sampled sum scaled by the sampling factor.
    pub fn est_total_self_ns(&self) -> f64 {
        self.self_ns.sum() as f64 * SAMPLE_EVERY as f64
    }
}

/// One completed wall-clock span, exportable as a Chrome `"X"` event.
#[derive(Debug)]
pub struct Span {
    /// Span name (e.g. `control_tick`, `acc_train`, `link_down`).
    pub name: &'static str,
    /// Chrome trace category.
    pub cat: &'static str,
    /// Start, µs since the profiler's origin instant.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Free-form annotation (becomes `args.info`).
    pub arg: String,
}

/// One instantaneous marker, exportable as a Chrome `"i"` event.
#[derive(Debug)]
pub struct InstantEvent {
    /// Marker name (e.g. the fault kind).
    pub name: &'static str,
    /// Chrome trace category.
    pub cat: &'static str,
    /// Timestamp, µs since the profiler's origin instant.
    pub ts_us: f64,
    /// Free-form annotation (becomes `args.info`).
    pub arg: String,
}

/// Hard cap on retained spans + instants: a runaway span source degrades to
/// a counted drop, never unbounded memory.
const SPAN_CAP: usize = 262_144;

/// The per-simulator profiler. See the module docs for the contract.
#[derive(Debug)]
pub struct SimProfiler {
    origin: Instant,
    countdown: u32,
    kinds: [KindStats; N_EVENT_KINDS],
    /// Wall-clock time of `peek_time` + `pop` at sampled dispatches,
    /// nanoseconds.
    pub queue_ns: Histogram,
    /// Pending-event count at sampled dispatches.
    pub queue_depth: Histogram,
    /// Egress queue depth (bytes) at each ECN CE mark.
    pub ecn_mark_qlen: Histogram,
    /// Egress queue depth (bytes) at each tail/buffer drop.
    pub drop_qlen: Histogram,
    /// Completed PFC pause durations, nanoseconds.
    pub pause_ns: Histogram,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    spans_dropped: u64,
    /// Open link-down windows: (endpoint key, wall start µs, annotation).
    open_windows: Vec<(u64, f64, String)>,
}

impl Default for SimProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SimProfiler {
    /// A fresh profiler whose span clock starts now.
    pub fn new() -> Self {
        SimProfiler {
            origin: Instant::now(),
            countdown: SAMPLE_EVERY,
            kinds: std::array::from_fn(|_| KindStats::new()),
            queue_ns: Histogram::new(),
            queue_depth: Histogram::new(),
            ecn_mark_qlen: Histogram::new(),
            drop_qlen: Histogram::new(),
            pause_ns: Histogram::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            spans_dropped: 0,
            open_windows: Vec::new(),
        }
    }

    /// The instant all span/instant timestamps are relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Call at the top of event dispatch. Returns a start instant on the
    /// sampled 1-in-[`SAMPLE_EVERY`] dispatches, `None` (no clock read) on
    /// the rest.
    #[inline]
    pub fn dispatch_begin(&mut self) -> Option<Instant> {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = SAMPLE_EVERY;
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Call before asking the event queue for the next event: a start
    /// instant if the next dispatch is a sampled one. Consumes nothing —
    /// the queue may turn out to hold nothing due.
    #[inline]
    pub(crate) fn queue_begin(&self) -> Option<Instant> {
        (self.countdown == 1).then(Instant::now)
    }

    /// [`SimProfiler::dispatch_begin`] for a dispatch whose event was
    /// looked up since `queue_t0` (what [`SimProfiler::queue_begin`]
    /// returned): on sampled dispatches the time in between is the queue's.
    #[inline]
    pub(crate) fn dispatch_begin_after_queue(
        &mut self,
        queue_t0: Option<Instant>,
    ) -> Option<Instant> {
        let t0 = self.dispatch_begin();
        if let (Some(q0), Some(t0)) = (queue_t0, t0) {
            self.queue_ns
                .record(t0.duration_since(q0).as_nanos() as u64);
        }
        t0
    }

    /// Call after dispatching an event of `kind`. `t0` is whatever
    /// [`SimProfiler::dispatch_begin`] returned; `pending` is the event
    /// queue length after the pop.
    #[inline]
    pub fn dispatch_end(&mut self, kind: usize, t0: Option<Instant>, pending: usize) {
        let k = &mut self.kinds[kind];
        k.count += 1;
        if let Some(t0) = t0 {
            k.timed += 1;
            k.self_ns.record(t0.elapsed().as_nanos() as u64);
            self.queue_depth.record(pending as u64);
        }
    }

    /// Per-kind stats, indexed by [`event_kind`].
    pub fn kind_stats(&self) -> &[KindStats; N_EVENT_KINDS] {
        &self.kinds
    }

    /// Record a completed wall-clock span started at `start`.
    pub fn span(&mut self, name: &'static str, cat: &'static str, start: Instant, arg: String) {
        if self.spans.len() + self.instants.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            return;
        }
        let start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            cat,
            start_us,
            dur_us,
            arg,
        });
    }

    /// Record an instantaneous marker (e.g. a fault executing).
    pub fn instant(&mut self, name: &'static str, cat: &'static str, arg: String) {
        if self.spans.len() + self.instants.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            return;
        }
        let ts_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.instants.push(InstantEvent {
            name,
            cat,
            ts_us,
            arg,
        });
    }

    /// Keep what the profiler needs from one probe: the queue depth at each
    /// CE mark and drop, the length of each PFC pause that ends, and for an
    /// executed fault an instant — plus, for a link flap, the link-down
    /// window it opens or closes. Out of line, so a probe site with no
    /// profiler installed is one branch and no profiler code.
    #[inline(never)]
    pub(crate) fn observe(&mut self, at: SimTime, what: Happening) {
        match what {
            Happening::CeMark { qlen } => self.ecn_mark_qlen.record(qlen),
            Happening::Drop { qlen } => self.drop_qlen.record(qlen),
            Happening::PauseEnd { dur_ps } => self.pause_ns.record(dur_ps / 1000),
            Happening::Fault(kind) => {
                let sim_us = at.as_us_f64();
                self.instant(kind.name(), "fault", format!("sim_us={sim_us:.1}"));
                // One window per administrative endpoint; the span covers
                // down → restore.
                let window = |node: NodeId, port: PortId| (node.0 as u64) << 32 | port.0 as u64;
                match kind {
                    FaultKind::LinkDown { node, port } => {
                        let arg = format!("sw{}:{} sim_us={sim_us:.1}", node.0, port.0);
                        self.open_window(window(node, port), arg);
                    }
                    FaultKind::LinkUp { node, port } => self.close_window(window(node, port)),
                    _ => {}
                }
            }
        }
    }

    /// Open a link-down window for endpoint `key` (closed by
    /// [`SimProfiler::close_window`]; still-open windows are flushed as
    /// spans by [`SimProfiler::finish`]).
    fn open_window(&mut self, key: u64, arg: String) {
        // A re-down of an already-down link replaces the annotation only.
        if let Some(w) = self.open_windows.iter_mut().find(|w| w.0 == key) {
            w.2 = arg;
            return;
        }
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.open_windows.push((key, start_us, arg));
    }

    /// Close the link-down window for `key`, emitting its span.
    fn close_window(&mut self, key: u64) {
        let Some(pos) = self.open_windows.iter().position(|w| w.0 == key) else {
            return;
        };
        let (_, start_us, arg) = self.open_windows.swap_remove(pos);
        let now_us = self.origin.elapsed().as_secs_f64() * 1e6;
        if self.spans.len() + self.instants.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            return;
        }
        self.spans.push(Span {
            name: "link_down",
            cat: "fault",
            start_us,
            dur_us: now_us - start_us,
            arg,
        });
    }

    /// Flush still-open windows (e.g. a link that stayed down to the end of
    /// the run) as spans ending now.
    pub fn finish(&mut self) {
        let keys: Vec<u64> = self.open_windows.iter().map(|w| w.0).collect();
        for key in keys {
            self.close_window(key);
        }
    }

    /// Spans dropped at the `SPAN_CAP` ceiling.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded instant markers.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// The per-run profile summary: per-kind dispatch counts and self-time
    /// percentiles, queue-shape histograms and the timing-wheel counters.
    /// Schema documented in EXPERIMENTS.md ("Observability & profiling").
    pub fn summary_json(&self, queue: QueueStats) -> Value {
        let queue_est_ns = self.queue_ns.sum() as f64 * SAMPLE_EVERY as f64;
        let kinds_est_ns: f64 = self.kinds.iter().map(KindStats::est_total_self_ns).sum();
        let engine_est_ns = queue_est_ns + kinds_est_ns;
        let kinds: Vec<Value> = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.count > 0)
            .map(|(i, k)| {
                json!({
                    "kind": EVENT_KIND_NAMES[i],
                    "count": k.count,
                    "timed": k.timed,
                    "sampling": SAMPLE_EVERY,
                    "est_total_self_ns": k.est_total_self_ns(),
                    "self_ns": hist_json(&k.self_ns),
                })
            })
            .collect();
        json!({
            "event_kinds": kinds,
            "queue_depth": hist_json(&self.queue_depth),
            "ecn_mark_qlen": hist_json(&self.ecn_mark_qlen),
            "drop_qlen": hist_json(&self.drop_qlen),
            "pause_ns": hist_json(&self.pause_ns),
            "event_queue": {
                "pushes_near": queue.pushes_near,
                "pushes_wheel": queue.pushes_wheel,
                "pushes_overflow": queue.pushes_overflow,
                "advances": queue.advances,
                "overflow_migrations": queue.overflow_migrations,
                "timed": self.queue_ns.count(),
                "sampling": SAMPLE_EVERY,
                "est_total_ns": queue_est_ns,
                "est_share": if engine_est_ns > 0.0 { queue_est_ns / engine_est_ns } else { 0.0 },
                "ns": hist_json(&self.queue_ns),
            },
            "spans": self.spans.len(),
            "instants": self.instants.len(),
            "spans_dropped": self.spans_dropped,
        })
    }

    /// Render spans/instants as Chrome `trace_event` objects. `offset_us`
    /// shifts this profiler's clock onto the caller's trace timeline
    /// (profilers from different runs have different origins); `pid`/`tid`
    /// label the track.
    pub fn trace_events(&self, offset_us: f64, pid: u64, tid: u64) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.spans.len() + self.instants.len());
        for s in &self.spans {
            out.push(json!({
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": s.start_us + offset_us,
                "dur": s.dur_us,
                "pid": pid,
                "tid": tid,
                "args": {"info": s.arg},
            }));
        }
        for i in &self.instants {
            out.push(json!({
                "name": i.name,
                "cat": i.cat,
                "ph": "i",
                "s": "t",
                "ts": i.ts_us + offset_us,
                "pid": pid,
                "tid": tid,
                "args": {"info": i.arg},
            }));
        }
        out
    }
}

/// Serialize a histogram's shape: count, mean and the tail percentiles the
/// report layer prints.
pub fn hist_json(h: &Histogram) -> Value {
    json!({
        "count": h.count(),
        "min": h.min(),
        "max": h.max(),
        "mean": h.mean(),
        "p50": h.value_at_percentile(50.0),
        "p90": h.value_at_percentile(90.0),
        "p99": h.value_at_percentile(99.0),
        "p999": h.value_at_percentile(99.9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_counts_exact_timing_sparse() {
        let mut p = SimProfiler::new();
        for _ in 0..160 {
            let t0 = p.dispatch_begin();
            p.dispatch_end(0, t0, 5);
        }
        let k = &p.kind_stats()[0];
        assert_eq!(k.count, 160);
        assert_eq!(k.timed, 160 / SAMPLE_EVERY as u64);
        assert_eq!(p.queue_depth.count(), k.timed);
        assert_eq!(p.queue_ns.count(), 0, "nobody timed the queue");
    }

    /// The engine's calling sequence: the queue is timed on exactly the
    /// dispatches whose handler is, and a look-up that finds nothing due
    /// consumes no sample.
    #[test]
    fn queue_is_timed_on_the_sampled_dispatches() {
        let mut p = SimProfiler::new();
        for i in 0..160 {
            if i % 5 == 0 {
                let _nothing_due = p.queue_begin();
            }
            let q0 = p.queue_begin();
            let t0 = p.dispatch_begin_after_queue(q0);
            assert_eq!(q0.is_some(), t0.is_some());
            p.dispatch_end(1, t0, 5);
        }
        assert_eq!(p.kind_stats()[1].timed, 160 / SAMPLE_EVERY as u64);
        assert_eq!(p.queue_ns.count(), 160 / SAMPLE_EVERY as u64);
        let q = &p.summary_json(QueueStats::default())["event_queue"];
        assert_eq!(q["timed"].as_u64(), Some(10));
        let share = q["est_share"].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&share), "share {share}");
    }

    #[test]
    fn windows_pair_and_flush() {
        let mut p = SimProfiler::new();
        p.open_window(7, "sw0:1".into());
        p.open_window(9, "sw2:0".into());
        p.close_window(7);
        assert_eq!(p.spans().len(), 1);
        p.finish(); // still-open window 9 flushes
        assert_eq!(p.spans().len(), 2);
        assert!(p.spans().iter().all(|s| s.name == "link_down"));
        p.close_window(42); // unknown key is a no-op
        assert_eq!(p.spans_dropped(), 0);
    }

    #[test]
    fn summary_and_trace_shapes() {
        let mut p = SimProfiler::new();
        for _ in 0..32 {
            let t0 = p.dispatch_begin();
            p.dispatch_end(4, t0, 2);
        }
        p.ecn_mark_qlen.record(4096);
        p.drop_qlen.record(90_000);
        p.pause_ns.record(12_000);
        let t0 = Instant::now();
        p.span("control_tick", "control", t0, "sim_us=50".into());
        p.instant("link_down", "fault", "sw1:2".into());
        let summary = p.summary_json(QueueStats::default());
        let kinds = summary["event_kinds"].as_array().unwrap();
        assert_eq!(kinds.len(), 1);
        assert_eq!(kinds[0]["kind"].as_str(), Some("control_tick"));
        assert_eq!(kinds[0]["count"].as_u64(), Some(32));
        assert_eq!(summary["ecn_mark_qlen"]["count"].as_u64(), Some(1));
        let evs = p.trace_events(100.0, 1, 3);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0]["ph"].as_str(), Some("X"));
        assert_eq!(evs[1]["ph"].as_str(), Some("i"));
        assert!(evs[0]["ts"].as_f64().unwrap() >= 100.0);
    }
}
