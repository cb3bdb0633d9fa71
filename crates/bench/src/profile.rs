//! Profile artifact assembly: the `--profile out.json` output of `acc-bench`.
//!
//! A [`ProfileBook`] collects the self-profiles of every scenario a CLI
//! invocation runs and writes them as one JSON document that is *both* a
//! Chrome `trace_event` file (open it in `about://tracing` or Perfetto —
//! loaders only look at the `traceEvents` key and ignore the rest) *and* a
//! machine-readable profile: the `profile.runs` array carries each run's
//! per-event-kind timing summary, allocation counters and SLO block, which
//! [`show`] prints and [`validate`] checks when `acc-bench report <file>`
//! renders it.
//!
//! Each run gets its own `tid` track on a common timeline; profilers from
//! different runs have different wall-clock origins, so their events are
//! re-based onto the book's origin before emission. Runs executed
//! concurrently by the matrix pool therefore appear as overlapping tracks,
//! exactly as they executed. DDQN updates that a trainer helper thread ran
//! beside a run's engine (`rl::trainer`) go on a track of their own under
//! the run's, one per helper, as `acc_update` spans: the engine track's
//! `acc_submit` / `acc_join` spans bracket them.

use crate::common;
use acc_core::controller::HelperSpan;
use netsim::event::QueueStats;
use netsim::profile::SimProfiler;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag of the artifact (`doc["schema"]`).
pub const SCHEMA: &str = "acc-profile/v1";

/// Accumulates per-run profiles and trace events for one CLI invocation.
pub struct ProfileBook {
    path: PathBuf,
    origin: Instant,
    runs: Vec<Value>,
    trace: Vec<Value>,
    next_tid: u64,
}

impl ProfileBook {
    /// An empty book that will be written to `path`. The wall-clock origin
    /// of the trace timeline is the moment of this call.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ProfileBook {
            path: path.into(),
            origin: Instant::now(),
            runs: Vec::new(),
            trace: Vec::new(),
            next_tid: 1,
        }
    }

    /// Where [`crate::Harness::write_profile`] will put the artifact.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of runs recorded so far.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Fold one finished scenario's profiler into the book.
    ///
    /// `info` carries run-shape facts (policy, seed, events processed, wall
    /// time), `slo` the FCT/guard service-level block, `alloc` the
    /// allocator-probe counters, `control` the control plane's counters
    /// (`Null` when no ACC controller ran) — all rendered verbatim into the
    /// run record, `control` with the per-phase span totals added.
    /// `helper_spans` are the updates that ran on trainer helper threads.
    pub fn add_run(
        &mut self,
        label: &str,
        prof: &SimProfiler,
        queue: QueueStats,
        info: Value,
        slo: Value,
        alloc: Value,
        mut control: Value,
        helper_spans: &[HelperSpan],
    ) {
        let tid = self.next_tid;
        self.next_tid += 1;
        let offset_us = prof
            .origin()
            .saturating_duration_since(self.origin)
            .as_secs_f64()
            * 1e6;
        let dur_us = prof.origin().elapsed().as_secs_f64() * 1e6;
        // Name the track, draw the whole run as one span, then lay the
        // profiler's own spans/instants on top of it.
        self.trace.push(json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": label},
        }));
        self.trace.push(json!({
            "name": "run",
            "cat": "run",
            "ph": "X",
            "ts": offset_us,
            "dur": dur_us,
            "pid": 1,
            "tid": tid,
            "args": {"info": label},
        }));
        self.trace.extend(prof.trace_events(offset_us, 1, tid));
        self.add_helper_tracks(label, helper_spans);
        if let Value::Object(block) = &mut control {
            block.insert("phases".into(), control_phases(prof));
        }
        self.runs.push(json!({
            "label": label,
            "tid": tid,
            "info": info,
            "summary": prof.summary_json(queue),
            "slo": slo,
            "alloc": alloc,
            "control": control,
        }));
    }

    /// One track per helper thread that ran updates for this run.
    fn add_helper_tracks(&mut self, label: &str, spans: &[HelperSpan]) {
        let mut tids: Vec<(usize, u64)> = Vec::new();
        for s in spans {
            let tid = match tids.iter().find(|t| t.0 == s.helper) {
                Some(t) => t.1,
                None => {
                    let tid = self.next_tid;
                    self.next_tid += 1;
                    tids.push((s.helper, tid));
                    self.trace.push(json!({
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": format!("{label} · trainer helper {}", s.helper)},
                    }));
                    tid
                }
            };
            self.trace.push(json!({
                "name": "acc_update",
                "cat": "control",
                "ph": "X",
                "ts": s.start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
                "dur": s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"info": format!("helper={}", s.helper)},
            }));
        }
    }

    /// The complete artifact as a JSON value.
    pub fn to_json(&self) -> Value {
        json!({
            "schema": SCHEMA,
            "displayTimeUnit": "ms",
            "traceEvents": self.trace.clone(),
            "profile": {"runs": self.runs.clone()},
        })
    }
}

/// Count and total duration of every `control` span name, in first-seen
/// order: the controller's tick phases and the guard's vet pass.
fn control_phases(prof: &SimProfiler) -> Value {
    let mut phases: Vec<(&'static str, u64, f64)> = Vec::new();
    for s in prof.spans().iter().filter(|s| s.cat == "control") {
        match phases.iter_mut().find(|p| p.0 == s.name) {
            Some(p) => {
                p.1 += 1;
                p.2 += s.dur_us;
            }
            None => phases.push((s.name, 1, s.dur_us)),
        }
    }
    Value::Array(
        phases
            .into_iter()
            .map(|(name, count, total_us)| json!({"name": name, "count": count, "total_us": total_us}))
            .collect(),
    )
}

fn is_num(v: Option<&Value>) -> bool {
    matches!(
        v,
        Some(Value::U64(_) | Value::I64(_) | Value::F64(_) | Value::U128(_))
    )
}

/// Structural check of a profile artifact. Returns a list of problems;
/// empty means the document is a well-formed `acc-profile/v1` file. Used by
/// the obs smoke tests and by `acc-bench report <file>`, whose exit status
/// is CI's schema check.
pub fn validate(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errs.push(format!("schema tag != {SCHEMA:?}"));
    }
    let Some(events) = doc.get("traceEvents").and_then(Value::as_array) else {
        errs.push("traceEvents missing or not an array".into());
        return errs;
    };
    if events.is_empty() {
        errs.push("traceEvents is empty".into());
    }
    for (i, ev) in events.iter().enumerate() {
        let Some(ph) = ev.get("ph").and_then(Value::as_str) else {
            errs.push(format!("traceEvents[{i}]: no ph"));
            continue;
        };
        if ev.get("name").and_then(Value::as_str).is_none() {
            errs.push(format!("traceEvents[{i}]: no name"));
        }
        if !is_num(ev.get("pid")) || !is_num(ev.get("tid")) {
            errs.push(format!("traceEvents[{i}]: pid/tid not numeric"));
        }
        match ph {
            "X" => {
                if !is_num(ev.get("ts")) || !is_num(ev.get("dur")) {
                    errs.push(format!("traceEvents[{i}]: X span without ts/dur"));
                }
            }
            "i" => {
                if !is_num(ev.get("ts")) {
                    errs.push(format!("traceEvents[{i}]: instant without ts"));
                }
            }
            "M" => {}
            other => errs.push(format!("traceEvents[{i}]: unknown ph {other:?}")),
        }
        if errs.len() > 20 {
            errs.push("... (truncated)".into());
            return errs;
        }
    }
    let Some(runs) = doc
        .get("profile")
        .and_then(|p| p.get("runs"))
        .and_then(Value::as_array)
    else {
        errs.push("profile.runs missing or not an array".into());
        return errs;
    };
    if runs.is_empty() {
        errs.push("profile.runs is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        if run.get("label").and_then(Value::as_str).is_none() {
            errs.push(format!("runs[{i}]: no label"));
        }
        let Some(summary) = run.get("summary") else {
            errs.push(format!("runs[{i}]: no summary"));
            continue;
        };
        match summary.get("event_kinds").and_then(Value::as_array) {
            None => errs.push(format!("runs[{i}]: summary.event_kinds missing")),
            Some(kinds) => {
                for (j, k) in kinds.iter().enumerate() {
                    if k.get("kind").and_then(Value::as_str).is_none()
                        || !is_num(k.get("count"))
                        || !is_num(k.get("est_total_self_ns"))
                    {
                        errs.push(format!("runs[{i}].event_kinds[{j}]: malformed"));
                    }
                }
            }
        }
        if summary
            .get("event_queue")
            .and_then(Value::as_object)
            .is_none()
        {
            errs.push(format!("runs[{i}]: summary.event_queue missing"));
        }
        match run.get("slo") {
            Some(slo) => {
                for key in [
                    "fct_count",
                    "fct_p99_us",
                    "guard_trips",
                    "invalid_configs_applied",
                ] {
                    if !is_num(slo.get(key)) {
                        errs.push(format!("runs[{i}].slo.{key}: missing or non-numeric"));
                    }
                }
            }
            None => errs.push(format!("runs[{i}]: no slo block")),
        }
        if run.get("alloc").and_then(Value::as_object).is_none() {
            errs.push(format!("runs[{i}]: no alloc block"));
        }
    }
    errs
}

/// The queue-shape histograms of a run's `summary`.
const HISTOGRAMS: [&str; 4] = ["queue_depth", "ecn_mark_qlen", "drop_qlen", "pause_ns"];

/// Print every run of an artifact, in stored units: what ran, every event
/// kind by estimated self time, the event queue, the histograms,
/// allocations, the SLO and guard blocks, the control plane and its phases,
/// and the span bookkeeping.
pub fn show(doc: &Value) {
    use common::print_section as section;
    let one = std::slice::from_ref;
    for run in common::rows(&doc["profile"], "runs") {
        let summary = &run["summary"];
        let mut kinds = common::rows(summary, "event_kinds").to_vec();
        let self_ns = |k: &Value| common::num(&k["est_total_self_ns"]);
        kinds.sort_by(|a, b| self_ns(b).total_cmp(&self_ns(a)));
        let histograms: Vec<Value> = HISTOGRAMS
            .iter()
            .map(|h| common::with(json!({ "histogram": h }), summary[*h].clone()))
            .collect();
        let label = run["label"].as_str().unwrap_or("?");
        section(label, one(&run["info"]), &common::paths(&run["info"]));
        section(
            "event kinds",
            &kinds,
            &[
                "kind",
                "count",
                "timed",
                "sampling",
                "est_total_self_ns",
                "self_ns.p50",
                "self_ns.p99",
            ],
        );
        section(
            "event queue (peek + pop)",
            one(&summary["event_queue"]),
            &[
                "est_total_ns",
                "est_share",
                "ns.p50",
                "ns.p99",
                "pushes_near",
                "pushes_wheel",
                "pushes_overflow",
                "overflow_migrations",
                "advances",
            ],
        );
        section(
            "histograms",
            &histograms,
            &["histogram", "count", "mean", "p50", "p99", "p999", "max"],
        );
        section("alloc", one(&run["alloc"]), &common::paths(&run["alloc"]));
        section(
            "slo",
            one(&run["slo"]),
            &[
                "fct_count",
                "fct_p50_us",
                "fct_p99_us",
                "fct_p999_us",
                "fct_max_us",
                "dropped_non_finite",
                "flows_total",
                "flows_completed",
                "flows_unfinished",
            ],
        );
        section(
            "guard",
            one(&run["slo"]),
            &[
                "guarded",
                "guard_ticks",
                "guard_trips",
                "guard_clamps",
                "guard_violations_detected",
                "invalid_configs_applied",
            ],
        );
        let control = &run["control"];
        section("control plane", one(control), &common::paths(control));
        section(
            "control phases",
            common::rows(control, "phases"),
            &["name", "count", "total_us"],
        );
        section(
            "trace",
            one(summary),
            &["spans", "instants", "spans_dropped"],
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn book_with_one_run() -> ProfileBook {
        let mut book = ProfileBook::new("/tmp/unused.json");
        let mut prof = SimProfiler::new();
        for _ in 0..64 {
            let t0 = prof.dispatch_begin();
            prof.dispatch_end(0, t0, 3);
        }
        prof.ecn_mark_qlen.record(4096);
        let t = Instant::now();
        prof.span("control_tick", "control", t, "sim_us=1.0".into());
        book.add_run(
            "demo_SECN1_seed7",
            &prof,
            QueueStats::default(),
            json!({"policy": "SECN1", "seed": 7}),
            json!({
                "fct_count": 10u64, "fct_p50_us": 100.0, "fct_p99_us": 200.0,
                "fct_p999_us": 250.0, "dropped_non_finite": 0u64,
                "guard_trips": 0u64, "invalid_configs_applied": 0u64,
            }),
            json!({"allocations_per_event": Value::Null, "alloc_bytes_per_event": Value::Null}),
            json!({"acc_switches": 1u64, "ticks": 1u64}),
            &[HelperSpan {
                start: t,
                end: Instant::now(),
                helper: 0,
            }],
        );
        book
    }

    #[test]
    fn artifact_round_trips_and_validates() {
        let book = book_with_one_run();
        let doc = book.to_json();
        let errs = validate(&doc);
        assert!(errs.is_empty(), "unexpected problems: {errs:?}");
        // And survives a serialize/parse cycle.
        let text = serde_json::to_string_pretty(&doc).expect("serializes");
        let parsed: Value = serde_json::from_str(&text).expect("parses");
        assert!(validate(&parsed).is_empty());
        // Trace carries the metadata, run span, and the control span.
        let events = parsed["traceEvents"].as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("M")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("control_tick")));
        // The helper's update sits on a track of its own, after the run's.
        let update = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("acc_update"))
            .expect("helper span emitted");
        assert_eq!(update["tid"].as_u64(), Some(2));
        let phases = parsed["profile"]["runs"][0]["control"]["phases"]
            .as_array()
            .unwrap();
        assert_eq!(phases[0]["name"].as_str(), Some("control_tick"));
        assert_eq!(phases[0]["count"].as_u64(), Some(1));
    }

    #[test]
    fn validate_flags_malformed_documents() {
        assert!(!validate(&json!({})).is_empty());
        let mut doc = book_with_one_run().to_json();
        if let Value::Object(m) = &mut doc {
            m.insert("schema".into(), Value::String("bogus".into()));
        }
        assert!(validate(&doc).iter().any(|e| e.contains("schema")));
    }

    #[test]
    fn tracks_get_distinct_tids() {
        let mut book = book_with_one_run();
        let prof = SimProfiler::new();
        book.add_run(
            "second",
            &prof,
            QueueStats::default(),
            json!({}),
            json!({
                "fct_count": 0u64, "fct_p99_us": 0.0,
                "guard_trips": 0u64, "invalid_configs_applied": 0u64,
            }),
            json!({"allocations_per_event": Value::Null}),
            Value::Null,
            &[],
        );
        let doc = book.to_json();
        let runs = doc["profile"]["runs"].as_array().unwrap();
        assert_eq!(runs.len(), 2);
        assert_ne!(runs[0]["tid"].as_u64(), runs[1]["tid"].as_u64());
    }
}
