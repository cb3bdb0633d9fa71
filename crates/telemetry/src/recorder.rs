//! The [`RunRecorder`]: one per run, fanning records out to its sinks.

use crate::samples::{AgentSample, EventSample, QueueSample};
use crate::sink::TelemetrySink;
use std::cell::RefCell;
use std::io;
use std::rc::Rc;

/// Shared, interior-mutable handle to a [`RunRecorder`] — the sampler and
/// every controller of a run hold one.
pub type SharedRecorder = Rc<RefCell<RunRecorder>>;

/// Collects every telemetry record of one run and fans it out to the
/// attached sinks, counting totals for the run manifest.
#[derive(Default)]
pub struct RunRecorder {
    sinks: Vec<Box<dyn TelemetrySink>>,
    /// Queue samples recorded so far.
    pub queue_samples: u64,
    /// Agent samples recorded so far.
    pub agent_samples: u64,
    /// Event samples recorded so far.
    pub event_samples: u64,
}

impl RunRecorder {
    /// An empty recorder with no sinks (records are counted but discarded).
    pub fn new() -> Self {
        RunRecorder::default()
    }

    /// Attach a sink (builder style).
    pub fn with_sink(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Number of attached sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Record one queue sample.
    pub fn record_queue(&mut self, s: &QueueSample) {
        self.queue_samples += 1;
        for sink in &mut self.sinks {
            sink.on_queue(s);
        }
    }

    /// Record one agent sample.
    pub fn record_agent(&mut self, s: &AgentSample) {
        self.agent_samples += 1;
        for sink in &mut self.sinks {
            sink.on_agent(s);
        }
    }

    /// Record one discrete event (fault injected, guardrail tripped, ...).
    pub fn record_event(&mut self, s: &EventSample) {
        self.event_samples += 1;
        for sink in &mut self.sinks {
            sink.on_event(s);
        }
    }

    /// Flush every sink; the first error wins but all sinks are attempted.
    pub fn flush(&mut self) -> io::Result<()> {
        let mut first_err = None;
        for sink in &mut self.sinks {
            if let Err(e) = sink.flush() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Wrap this recorder in the shared handle the simulator hooks expect.
    pub fn into_shared(self) -> SharedRecorder {
        Rc::new(RefCell::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    /// Sink that panics on any record — proves the disabled path never
    /// reaches a sink.
    struct Untouchable;
    impl TelemetrySink for Untouchable {
        fn on_queue(&mut self, _s: &QueueSample) {
            panic!("sink must not be reached");
        }
        fn on_agent(&mut self, _s: &AgentSample) {
            panic!("sink must not be reached");
        }
    }

    #[test]
    fn fans_out_to_all_sinks_and_counts() {
        let mut r = RunRecorder::new()
            .with_sink(Box::new(MemorySink::new(8)))
            .with_sink(Box::new(MemorySink::new(8)));
        r.record_queue(&QueueSample::default());
        r.record_agent(&AgentSample::default());
        r.record_agent(&AgentSample::default());
        assert_eq!(r.queue_samples, 1);
        assert_eq!(r.agent_samples, 2);
        assert_eq!(r.sink_count(), 2);
        r.flush().unwrap();
    }

    #[test]
    fn idle_recorder_touches_no_sink() {
        let mut r = RunRecorder::new().with_sink(Box::new(Untouchable));
        // Nothing recorded: flushing and dropping must not reach the sink.
        r.flush().unwrap();
        assert_eq!(r.queue_samples + r.agent_samples, 0);
    }
}
