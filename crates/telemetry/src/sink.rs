//! Pluggable destinations for telemetry records.

use crate::samples::{AgentSample, EventSample, QueueSample};
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// A destination for telemetry records. Sinks must be cheap on the hot
/// path; anything expensive belongs in `flush`.
pub trait TelemetrySink {
    /// Accept one queue sample.
    fn on_queue(&mut self, s: &QueueSample);
    /// Accept one agent sample.
    fn on_agent(&mut self, s: &AgentSample);
    /// Accept one discrete event (faults, guardrail trips, ...).
    fn on_event(&mut self, _s: &EventSample) {}
    /// Push any buffered output to its destination. A sink that hit an
    /// error on the hot path (where it cannot be surfaced) must report it
    /// here instead of swallowing it.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The in-memory sink: retains every record, in arrival order, for tests
/// and interactive inspection. It is also the per-shard staging buffer of a
/// sharded run — each shard records into its own `VecSink`, and after the
/// run the buffers are merged deterministically into one output stream (see
/// [`crate::merge::merge_shards`]); nothing is ever evicted, so the merged
/// output is independent of shard count.
#[derive(Debug, Default)]
pub struct VecSink {
    /// Every queue sample, in the order this shard recorded it.
    pub queues: Vec<QueueSample>,
    /// Every agent sample, in the order this shard recorded it.
    pub agents: Vec<AgentSample>,
    /// Every event sample, in the order this shard recorded it.
    pub events: Vec<EventSample>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl TelemetrySink for VecSink {
    fn on_queue(&mut self, s: &QueueSample) {
        self.queues.push(s.clone());
    }

    fn on_agent(&mut self, s: &AgentSample) {
        self.agents.push(s.clone());
    }

    fn on_event(&mut self, s: &EventSample) {
        self.events.push(s.clone());
    }
}

/// A sink shared with whoever needs its records back after the run (a
/// recorder owns its sink, boxed).
impl<S: TelemetrySink + ?Sized> TelemetrySink for Rc<RefCell<S>> {
    fn on_queue(&mut self, s: &QueueSample) {
        self.borrow_mut().on_queue(s);
    }

    fn on_agent(&mut self, s: &AgentSample) {
        self.borrow_mut().on_agent(s);
    }

    fn on_event(&mut self, s: &EventSample) {
        self.borrow_mut().on_event(s);
    }

    fn flush(&mut self) -> io::Result<()> {
        self.borrow_mut().flush()
    }
}

/// Streams records as JSON lines into `queues.jsonl`, `agents.jsonl` and
/// `events.jsonl` inside a run directory. Serialization is deterministic
/// (fixed field order, fixed number formatting), so identical runs produce
/// byte-identical files.
///
/// Write errors on the hot path (disk full, file deleted under us) are
/// remembered and surfaced by [`TelemetrySink::flush`] — they are never
/// silently dropped, so a harness that flushes at end-of-run can exit
/// non-zero instead of reporting a truncated run as complete.
#[derive(Debug)]
pub struct JsonlSink {
    queues: BufWriter<File>,
    agents: BufWriter<File>,
    events: BufWriter<File>,
    /// Reusable serialization buffer: one allocation amortized over the
    /// whole recording instead of a fresh `String` per line.
    line: String,
    /// First write error seen on the hot path, kept until surfaced.
    write_err: Option<(io::ErrorKind, String)>,
}

impl JsonlSink {
    /// Create (truncating) `queues.jsonl`, `agents.jsonl` and
    /// `events.jsonl` under `dir`, creating the directory first if needed.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(JsonlSink {
            queues: BufWriter::new(File::create(dir.join("queues.jsonl"))?),
            agents: BufWriter::new(File::create(dir.join("agents.jsonl"))?),
            events: BufWriter::new(File::create(dir.join("events.jsonl"))?),
            line: String::new(),
            write_err: None,
        })
    }

    /// Like [`JsonlSink::create`], but refuses to touch an existing
    /// recording: every JSONL file is opened with an exclusive create, so a
    /// run directory that already holds time-series fails with
    /// [`io::ErrorKind::AlreadyExists`] instead of being truncated. Harnesses
    /// that allocate run directories collision-free use this as the last
    /// line of defence against clobbering an earlier run.
    pub fn create_new(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let open = |name: &str| {
            File::create_new(dir.join(name))
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.join(name).display())))
        };
        Ok(JsonlSink {
            queues: BufWriter::new(open("queues.jsonl")?),
            agents: BufWriter::new(open("agents.jsonl")?),
            events: BufWriter::new(open("events.jsonl")?),
            line: String::new(),
            write_err: None,
        })
    }

    fn note(&mut self, r: io::Result<()>, which: &str) {
        if let Err(e) = r {
            if self.write_err.is_none() {
                self.write_err = Some((e.kind(), format!("writing {which}: {e}")));
            }
        }
    }
}

impl TelemetrySink for JsonlSink {
    fn on_queue(&mut self, s: &QueueSample) {
        self.line.clear();
        serde_json::to_string_into(s, &mut self.line).expect("queue sample serializes");
        self.line.push('\n');
        let r = self.queues.write_all(self.line.as_bytes());
        self.note(r, "queues.jsonl");
    }

    fn on_agent(&mut self, s: &AgentSample) {
        self.line.clear();
        serde_json::to_string_into(s, &mut self.line).expect("agent sample serializes");
        self.line.push('\n');
        let r = self.agents.write_all(self.line.as_bytes());
        self.note(r, "agents.jsonl");
    }

    fn on_event(&mut self, s: &EventSample) {
        self.line.clear();
        serde_json::to_string_into(s, &mut self.line).expect("event sample serializes");
        self.line.push('\n');
        let r = self.events.write_all(self.line.as_bytes());
        self.note(r, "events.jsonl");
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some((kind, msg)) = &self.write_err {
            return Err(io::Error::new(*kind, msg.clone()));
        }
        self.queues.flush()?;
        self.agents.flush()?;
        self.events.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_lines() {
        let dir = std::env::temp_dir().join(format!("acc-telem-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = JsonlSink::create(&dir).unwrap();
        sink.on_queue(&QueueSample::default());
        sink.on_agent(&AgentSample::default());
        sink.on_event(&EventSample::default());
        sink.flush().unwrap();
        let q = std::fs::read_to_string(dir.join("queues.jsonl")).unwrap();
        let a = std::fs::read_to_string(dir.join("agents.jsonl")).unwrap();
        let e = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert_eq!(q.lines().count(), 1);
        assert_eq!(a.lines().count(), 1);
        assert_eq!(e.lines().count(), 1);
        let back: QueueSample = serde_json::from_str(q.lines().next().unwrap()).unwrap();
        assert_eq!(back, QueueSample::default());
        let back: EventSample = serde_json::from_str(e.lines().next().unwrap()).unwrap();
        assert_eq!(back, EventSample::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_new_refuses_existing_recording() {
        let dir = std::env::temp_dir().join(format!("acc-telem-excl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = JsonlSink::create_new(&dir).expect("fresh dir claims fine");
        first.on_queue(&QueueSample::default());
        first.flush().unwrap();
        let err = JsonlSink::create_new(&dir).expect_err("existing JSONL must not be truncated");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        // The prior recording is untouched.
        let q = std::fs::read_to_string(dir.join("queues.jsonl")).unwrap();
        assert_eq!(q.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_errors_surface_at_flush_not_silently() {
        // Write through a sink whose backing file handles point at a
        // directory path that disappears; the BufWriter only notices at
        // flush time, and the error must come back out instead of Ok(()).
        let dir = std::env::temp_dir().join(format!("acc-telem-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = JsonlSink::create(&dir).unwrap();
        // Overflow the BufWriter against a removed directory entry is
        // platform-dependent; instead inject the captured-error path
        // directly: it must be sticky and surface on flush.
        sink.note(Err(io::Error::other("disk full")), "queues.jsonl");
        let err = sink.flush().expect_err("captured write error surfaces");
        assert!(err.to_string().contains("queues.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
