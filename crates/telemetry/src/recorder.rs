//! The [`RunRecorder`]: one per run, writing records into its sink.

use crate::samples::{AgentSample, EventSample, QueueSample};
use crate::sink::TelemetrySink;
use std::cell::RefCell;
use std::io;
use std::rc::Rc;

/// Shared, interior-mutable handle to a [`RunRecorder`] — the sampler and
/// every controller of a run hold one.
pub type SharedRecorder = Rc<RefCell<RunRecorder>>;

/// Collects every telemetry record of one run into its one sink, counting
/// totals for the run manifest.
#[derive(Default)]
pub struct RunRecorder {
    sink: Option<Box<dyn TelemetrySink>>,
    /// Queue samples recorded so far.
    pub queue_samples: u64,
    /// Agent samples recorded so far.
    pub agent_samples: u64,
    /// Event samples recorded so far.
    pub event_samples: u64,
}

impl RunRecorder {
    /// A recorder with no sink yet (records are counted but discarded).
    pub fn new() -> Self {
        RunRecorder::default()
    }

    /// Attach the sink (builder style). A recorder has one: attaching a
    /// second panics.
    pub fn with_sink(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        assert!(self.sink.is_none(), "a RunRecorder holds one sink");
        self.sink = Some(sink);
        self
    }

    /// Record one queue sample.
    pub fn record_queue(&mut self, s: &QueueSample) {
        self.queue_samples += 1;
        if let Some(sink) = self.sink.as_mut() {
            sink.on_queue(s);
        }
    }

    /// Record one agent sample.
    pub fn record_agent(&mut self, s: &AgentSample) {
        self.agent_samples += 1;
        if let Some(sink) = self.sink.as_mut() {
            sink.on_agent(s);
        }
    }

    /// Record one discrete event (fault injected, guardrail tripped, ...).
    pub fn record_event(&mut self, s: &EventSample) {
        self.event_samples += 1;
        if let Some(sink) = self.sink.as_mut() {
            sink.on_event(s);
        }
    }

    /// Flush the sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sink.as_mut().map_or(Ok(()), |sink| sink.flush())
    }

    /// Wrap this recorder in the shared handle the simulator hooks expect.
    pub fn into_shared(self) -> SharedRecorder {
        Rc::new(RefCell::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;

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
    fn records_into_its_sink_and_counts() {
        let sink = Rc::new(RefCell::new(VecSink::new()));
        let mut r = RunRecorder::new().with_sink(Box::new(sink.clone()));
        r.record_queue(&QueueSample::default());
        r.record_agent(&AgentSample::default());
        r.record_agent(&AgentSample::default());
        assert_eq!(r.queue_samples, 1);
        assert_eq!(r.agent_samples, 2);
        r.flush().unwrap();
        let got = sink.borrow();
        assert_eq!((got.queues.len(), got.agents.len()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "holds one sink")]
    fn a_second_sink_is_refused() {
        let _ = RunRecorder::new()
            .with_sink(Box::new(VecSink::new()))
            .with_sink(Box::new(VecSink::new()));
    }

    #[test]
    fn idle_recorder_touches_no_sink() {
        let mut r = RunRecorder::new().with_sink(Box::new(Untouchable));
        // Nothing recorded: flushing and dropping must not reach the sink.
        r.flush().unwrap();
        assert_eq!(r.queue_samples + r.agent_samples, 0);
    }
}
