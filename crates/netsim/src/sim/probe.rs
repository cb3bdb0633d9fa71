//! The engine's one probe point: every simulated-time happening reaches the
//! observers as one [`Probe`] through [`SimCore::probe`], and each keeps
//! what it needs from it — the [`Tracer`] a record, the [`SimProfiler`] a
//! histogram sample, an instant or a link-down window. With no observer
//! installed a probe is one branch. The wall-clock hooks (event-loop
//! sampling, spans) reach the profiler through the same holder.

use super::{SimCore, Simulator};
use crate::fault::{FaultDetail, FaultKind};
use crate::ids::{FlowId, NodeId, PortId, Prio};
use crate::profile::SimProfiler;
use crate::time::SimTime;
use crate::trace::Tracer;

/// What happened (see [`Probe`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Happening {
    /// A packet was admitted to an egress queue.
    Enqueue,
    /// A packet was handed to the serializer.
    Dequeue,
    /// A packet was CE-marked on enqueue, against the depth probed.
    CeMark,
    /// A packet was refused by a full queue or buffer.
    Drop,
    /// An arriving packet was lost to a downed link or injected loss.
    FaultDrop,
    /// PFC PAUSE (or RESUME) sent upstream; the depth is the ingress counter.
    Pfc { pause: bool },
    /// A paused class resumed (RESUME, link failure, reboot) after `dur_ps`.
    PauseEnd { dur_ps: u64 },
    /// A fault executed, reported once, by the owner of the node it names.
    Fault(FaultKind, FaultDetail),
}

/// One happening in simulated time and where it took place: the queue
/// (egress port for packet events and pause ends, ingress port for PFC
/// frames, the port a fault names — 0 for a node-wide one), the flow (zero
/// when no packet is involved) and the queue's depth in bytes right after.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Probe {
    pub what: Happening,
    pub node: NodeId,
    pub port: PortId,
    pub prio: Prio,
    pub flow: FlowId,
    pub qlen_bytes: u64,
}

/// What observes a run; the core holds one `Option<Box<_>>` of it.
#[derive(Default)]
pub(super) struct Observers {
    tracer: Option<Tracer>,
    prof: Option<SimProfiler>,
}

impl Observers {
    /// Out of line, so a probe site with nothing installed is one branch
    /// and no observer code.
    #[inline(never)]
    fn observe(&mut self, at: SimTime, p: &Probe) {
        if let Some(t) = self.tracer.as_mut() {
            t.observe(at, p);
        }
        if let Some(prof) = self.prof.as_mut() {
            prof.observe(at, p);
        }
    }
}

impl SimCore {
    /// The probe point. No owner gate is needed: the datapath only runs for
    /// nodes this core owns (events for foreign nodes divert to their owner,
    /// and this core holds no port of a foreign node), and `report_fault`
    /// gates replicated faults once, before probing.
    #[inline]
    pub(super) fn probe(
        &mut self,
        what: Happening,
        node: NodeId,
        port: PortId,
        prio: Prio,
        flow: FlowId,
        qlen_bytes: u64,
    ) {
        debug_assert!(self.owns_node(node), "{what:?} for foreign {node:?}");
        if let Some(obs) = self.obs.as_deref_mut() {
            let p = Probe {
                what,
                node,
                port,
                prio,
                flow,
                qlen_bytes,
            };
            obs.observe(self.now, &p);
        }
    }

    /// The live profiler, if profiling is enabled.
    pub(crate) fn profiler(&self) -> Option<&SimProfiler> {
        self.obs.as_ref()?.prof.as_ref()
    }

    pub(crate) fn profiler_mut(&mut self) -> Option<&mut SimProfiler> {
        self.obs.as_mut()?.prof.as_mut()
    }
}

impl Simulator {
    /// Switch on self-profiling (see [`crate::profile`]). Idempotent; the
    /// profiler observes wall-clock time and counters only, so the simulated
    /// trajectory — and any recorded JSONL — is identical with or without it.
    pub fn enable_profiling(&mut self) {
        let obs = self.core.obs.get_or_insert_with(Default::default);
        obs.prof.get_or_insert_with(SimProfiler::new);
    }

    /// The live profiler, if profiling is enabled.
    pub fn profiler(&self) -> Option<&SimProfiler> {
        self.core.profiler()
    }

    /// Detach and return the profiler (flushing still-open fault windows),
    /// leaving profiling disabled. Harnesses call this once at run end.
    pub fn take_profiler(&mut self) -> Option<Box<SimProfiler>> {
        let obs = self.core.obs.as_mut()?;
        let mut p = obs.prof.take()?;
        if obs.tracer.is_none() {
            // Nothing left to observe: probes go back to one branch.
            self.core.obs = None;
        }
        p.finish();
        Some(Box::new(p))
    }

    /// Install a structured event tracer (see [`crate::trace`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.obs.get_or_insert_with(Default::default).tracer = Some(tracer);
    }

    /// Access the installed tracer, if any.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.core.obs.as_mut()?.tracer.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{blast_sim, RDMA_ECT};
    use crate::config::SimConfig;
    use crate::ids::{PortId, PRIO_RDMA};
    use crate::queues::EcnConfig;
    use crate::trace::{TraceFilter, TraceKind, Tracer};

    /// Every consumer of the probe sees the same happenings, and so do the
    /// engine's own counters: an N→1 incast on one switch that marks, drops
    /// and PFC-pauses, traced and profiled, run until it drains.
    #[test]
    fn tracer_profiler_and_counters_agree() {
        let mut cfg = SimConfig::default();
        cfg.control_interval = None; // nothing recurring: the run drains
        cfg.buffer_bytes = 512 * 1024;
        cfg.port.ecn[PRIO_RDMA as usize] = Some(EcnConfig::new(10_000, 40_000, 0.2));
        cfg.port.max_queue_bytes[PRIO_RDMA as usize] = 96 * 1024;
        let (mut sim, ..) = blast_sim(8, 400, RDMA_ECT, 25_000_000_000, cfg);
        sim.set_tracer(Tracer::new(TraceFilter::default(), 1 << 20));
        sim.enable_profiling();
        while sim.step() {}

        let tracer = sim.tracer_mut().unwrap();
        assert_eq!(tracer.evicted, 0);
        let traced = tracer.take();
        let count = |k| traced.iter().filter(|e| e.kind == k).count() as u64;
        let (core, prof) = (sim.core(), sim.profiler().unwrap());
        let sw = core.topo.switches()[0];
        let ports = 0..core.topo.node(sw).ports.len() as u16;
        let queues =
            ports.flat_map(|p| (0..3).map(move |prio| core.queue_telem(sw, PortId(p), prio)));
        let (marked, drops) = queues.fold((0, 0), |(m, d), t| (m + t.tx_marked_pkts, d + t.drops));
        assert!(marked > 0 && drops > 0 && core.total_pfc_pauses > 0);
        assert_eq!(count(TraceKind::CeMark), prof.ecn_mark_qlen.count());
        assert_eq!(count(TraceKind::CeMark), marked);
        assert_eq!(count(TraceKind::Drop), prof.drop_qlen.count());
        assert_eq!(count(TraceKind::Drop), drops);
        assert_eq!(count(TraceKind::Drop), core.total_drops);
        assert_eq!(count(TraceKind::PfcPause), core.total_pfc_pauses);
        assert_eq!(count(TraceKind::PfcResume), prof.pause_ns.count());
    }

    /// Taking the last observer empties the holder, so later probes are
    /// one branch again; a tracer still installed keeps it.
    #[test]
    fn taking_the_last_observer_empties_the_holder() {
        let (mut sim, ..) = blast_sim(2, 1, RDMA_ECT, 25_000_000_000, SimConfig::default());
        sim.enable_profiling();
        assert!(sim.take_profiler().is_some());
        assert!(sim.core.obs.is_none());
        sim.set_tracer(Tracer::new(TraceFilter::default(), 16));
        sim.enable_profiling();
        assert!(sim.take_profiler().is_some());
        assert!(sim.tracer_mut().is_some());
    }
}
