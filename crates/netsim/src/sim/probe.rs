//! The engine's one probe point: every simulated-time happening the
//! [`SimProfiler`] keeps reaches it as one [`Happening`] through
//! [`SimCore::probe`] — a histogram sample, an instant or a link-down
//! window. With no profiler installed a probe is one branch. The
//! wall-clock hooks (event-loop sampling, spans) reach the profiler through
//! the same field.

use super::{SimCore, Simulator};
use crate::fault::FaultKind;
use crate::profile::SimProfiler;

/// What happened, with what the profiler keeps of it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Happening {
    /// A packet was CE-marked on enqueue, against `qlen` bytes of egress
    /// queue.
    CeMark { qlen: u64 },
    /// A packet was refused by a full queue or buffer holding `qlen` bytes.
    Drop { qlen: u64 },
    /// A paused class resumed (RESUME, link failure, reboot) after `dur_ps`.
    PauseEnd { dur_ps: u64 },
    /// A fault executed, reported once, by the owner of the node it names.
    Fault(FaultKind),
}

impl SimCore {
    /// The probe point. No owner gate is needed: the datapath only runs for
    /// nodes this core owns (events for foreign nodes divert to their owner,
    /// and this core holds no port of a foreign node), and `report_fault`
    /// gates replicated faults once, before probing.
    #[inline]
    pub(super) fn probe(&mut self, what: Happening) {
        if let Some(prof) = self.prof.as_deref_mut() {
            prof.observe(self.now, what);
        }
    }

    /// The live profiler, if profiling is enabled.
    pub(crate) fn profiler(&self) -> Option<&SimProfiler> {
        self.prof.as_deref()
    }

    pub(crate) fn profiler_mut(&mut self) -> Option<&mut SimProfiler> {
        self.prof.as_deref_mut()
    }
}

impl Simulator {
    /// Switch on self-profiling (see [`crate::profile`]). Idempotent; the
    /// profiler observes wall-clock time and counters only, so the simulated
    /// trajectory — and any recorded JSONL — is identical with or without it.
    pub fn enable_profiling(&mut self) {
        self.core.prof.get_or_insert_with(Default::default);
    }

    /// The live profiler, if profiling is enabled.
    pub fn profiler(&self) -> Option<&SimProfiler> {
        self.core.profiler()
    }

    /// Detach and return the profiler (flushing still-open fault windows),
    /// leaving profiling disabled: later probes are one branch again.
    /// Harnesses call this once at run end.
    pub fn take_profiler(&mut self) -> Option<Box<SimProfiler>> {
        let mut p = self.core.prof.take()?;
        p.finish();
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{blast_sim, RDMA_ECT};
    use crate::config::SimConfig;
    use crate::ids::{PortId, PRIO_RDMA};
    use crate::queues::EcnConfig;

    /// The profiler sees what the engine's own counters count: an N→1
    /// incast on one switch that marks, drops and PFC-pauses, profiled and
    /// run until it drains (so every pause has ended).
    #[test]
    fn profiler_and_counters_agree() {
        let mut cfg = SimConfig::default();
        cfg.control_interval = None; // nothing recurring: the run drains
        cfg.buffer_bytes = 512 * 1024;
        cfg.port.ecn[PRIO_RDMA as usize] = Some(EcnConfig::new(10_000, 40_000, 0.2));
        cfg.port.max_queue_bytes[PRIO_RDMA as usize] = 96 * 1024;
        let (mut sim, ..) = blast_sim(8, 400, RDMA_ECT, 25_000_000_000, cfg);
        sim.enable_profiling();
        while sim.step() {}

        let (core, prof) = (sim.core(), sim.profiler().unwrap());
        let sw = core.topo.switches()[0];
        let ports = 0..core.topo.node(sw).ports.len() as u16;
        let queues =
            ports.flat_map(|p| (0..3).map(move |prio| core.queue_telem(sw, PortId(p), prio)));
        let (marked, drops) = queues.fold((0, 0), |(m, d), t| (m + t.tx_marked_pkts, d + t.drops));
        assert!(marked > 0 && drops > 0 && core.total_pfc_pauses > 0);
        assert_eq!(prof.ecn_mark_qlen.count(), marked);
        assert_eq!(prof.drop_qlen.count(), drops);
        assert_eq!(prof.drop_qlen.count(), core.total_drops);
        // Every pause sent upstream was resumed: the run drained.
        assert_eq!(prof.pause_ns.count(), core.total_pfc_pauses);
    }

    /// Taking the profiler empties the core's field, so later probes are
    /// one branch again, and a second take finds nothing.
    #[test]
    fn taking_the_profiler_leaves_probes_one_branch() {
        let (mut sim, ..) = blast_sim(2, 1, RDMA_ECT, 25_000_000_000, SimConfig::default());
        sim.enable_profiling();
        assert!(sim.take_profiler().is_some());
        assert!(sim.core.prof.is_none());
        assert!(sim.take_profiler().is_none());
    }
}
