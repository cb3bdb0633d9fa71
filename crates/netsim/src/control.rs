//! The switch-side extension point: the control plane.
//!
//! Real ACC runs as a module on the switch CPU: every interval `delta_t` it
//! reads telemetry registers from the forwarding chip through the SDK and
//! writes back an ECN template. This module reproduces that contract: the
//! engine invokes a [`QueueController`] per switch on every control tick with
//! a [`SwitchView`] exposing exactly the counters the paper's collector
//! subscribes to (queue depth, tx bytes, ECN-marked tx, current ECN config)
//! plus the ability to rewrite the ECN configuration of any egress queue.
//!
//! The contract is the same on both engines: the packet [`Simulator`] and
//! the flow-level [`FlowSim`] each hold one `Box<dyn QueueController>` per
//! switch and tick it through a [`SwitchView`], so a controller is written
//! once and runs on either. [`ControllerHost`] is what an installer needs
//! from an engine to put controllers on its switches.
//!
//! [`Simulator`]: crate::sim::Simulator
//! [`FlowSim`]: crate::flowsim::FlowSim

use crate::flowsim::LinkModel;
use crate::ids::{NodeId, PortId, Prio};
use crate::queues::{EcnConfig, QueueTelemetry};
use crate::sim::SimCore;
use crate::time::SimTime;
use crate::topology::Topology;
use std::any::Any;

/// A point-in-time reading of one egress queue, with cumulative counters.
///
/// Consumers diff the cumulative fields between ticks; see
/// [`QueueTelemetry`] for field meanings.
#[derive(Clone, Copy, Debug)]
pub struct QueueSnapshot {
    /// Port the queue belongs to.
    pub port: PortId,
    /// Traffic class.
    pub prio: Prio,
    /// Instantaneous queue depth in bytes.
    pub qlen_bytes: u64,
    /// Cumulative counters (synced to `now`).
    pub telem: QueueTelemetry,
    /// Marking configuration currently applied.
    pub ecn: Option<EcnConfig>,
    /// Line rate of the port, bits/s.
    pub link_bps: u64,
}

/// Control-plane logic attached to one switch.
pub trait QueueController: 'static {
    /// Called every control interval with a view of this switch.
    fn on_tick(&mut self, view: &mut SwitchView<'_>);

    /// Downcasting support so harnesses can reach controller-specific state
    /// (e.g. to extract a trained ACC model after a run).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// What a policy installer needs from an engine: its switches, a slot per
/// switch for a [`QueueController`], and whether controllers installed here
/// can share state. Implemented by the packet simulator and the flow-level
/// one, so one installer serves both.
pub trait ControllerHost {
    /// The fabric; installers walk `topo().switches()` in order.
    fn topo(&self) -> &Topology;

    /// True when this host is one shard of a partitioned simulation. The
    /// fabric's switches are then spread over several hosts on several
    /// threads, so an installer must not couple them through a shared
    /// object (a global replay memory, say): each switch's behaviour has to
    /// be a function of that switch alone for every partition to produce
    /// the same run.
    fn is_sharded(&self) -> bool;

    /// Install the control-plane logic for `switch`. A host that does not
    /// run `switch` (another shard owns it, or the engine models no control
    /// plane) drops the controller.
    fn set_controller(&mut self, switch: NodeId, ctl: Box<dyn QueueController>);

    /// The controller installed on `switch`, if any.
    fn controller_mut(&mut self, switch: NodeId) -> Option<&mut dyn QueueController>;
}

/// The engine state behind a [`SwitchView`].
pub(crate) enum ViewBackend<'a> {
    /// The packet engine: every switch of the core.
    Packet(&'a mut SimCore),
    /// The flow engine: this switch's egress links, indexed by port, with
    /// telemetry already advanced to `now` by the control tick.
    Flow {
        now: SimTime,
        topo: &'a Topology,
        links: &'a mut [LinkModel],
    },
}

/// Telemetry-read / config-write window onto one switch during a tick.
///
/// The same view fronts both engines. On the flow backend each port has the
/// one analytic queue of its [`LinkModel`] — every `prio` addresses it — and
/// there is no PFC, no telemetry-fault injection and no profiler.
pub struct SwitchView<'a> {
    pub(crate) backend: ViewBackend<'a>,
    pub(crate) node: NodeId,
}

impl SwitchView<'_> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        match &self.backend {
            ViewBackend::Packet(core) => core.now,
            ViewBackend::Flow { now, .. } => *now,
        }
    }

    /// The switch this view belongs to.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn topo(&self) -> &Topology {
        match &self.backend {
            ViewBackend::Packet(core) => &core.topo,
            ViewBackend::Flow { topo, .. } => topo,
        }
    }

    /// Number of ports on this switch.
    pub fn num_ports(&self) -> usize {
        self.topo().node(self.node).ports.len()
    }

    /// Number of traffic classes per port.
    pub fn num_prios(&self) -> usize {
        match &self.backend {
            ViewBackend::Packet(core) => core.cfg.port.num_prios,
            ViewBackend::Flow { .. } => 1,
        }
    }

    /// Line rate of `port` in bits/s.
    pub fn port_rate_bps(&self, port: PortId) -> u64 {
        self.topo().port(self.node, port).rate_bps
    }

    /// True if `port` faces an end host (vs. another switch).
    pub fn port_is_host_facing(&self, port: PortId) -> bool {
        let topo = self.topo();
        topo.is_host(topo.port(self.node, port).peer_node)
    }

    /// Read one egress queue (syncing its time-average integral to `now`).
    ///
    /// This models the SDK register read a switch-CPU agent performs, so it
    /// is subject to injected telemetry faults
    /// ([`crate::fault::FaultKind::TelemetryFreeze`] /
    /// [`crate::fault::FaultKind::TelemetryBlank`]): while one is active the
    /// returned depth and counters are frozen or zeroed. The applied ECN
    /// config and the link rate stay truthful — the agent wrote the config
    /// itself and safe-mode logic must see what is really installed.
    pub fn snapshot(&mut self, port: PortId, prio: Prio) -> QueueSnapshot {
        let link_bps = self.port_rate_bps(port);
        let node = self.node;
        let (qlen_bytes, telem, ecn) = match &mut self.backend {
            ViewBackend::Packet(core) => {
                let faulted = core.faulted_reading(node, port, prio);
                let live = core.synced_queue_telem(node, port, prio);
                let q = core.queue(node, port, prio);
                let (qlen, telem) = faulted.unwrap_or((q.bytes(), live));
                (qlen, telem, q.ecn)
            }
            ViewBackend::Flow { links, .. } => {
                let l = &links[port.idx()];
                (l.qlen_bytes(), l.telem, l.ecn)
            }
        };
        QueueSnapshot {
            port,
            prio,
            qlen_bytes,
            telem,
            ecn,
            link_bps,
        }
    }

    /// Rewrite the ECN marking configuration of one egress queue — the
    /// "configurator maps the action into the ECN template" step of ACC.
    pub fn set_ecn(&mut self, port: PortId, prio: Prio, cfg: Option<EcnConfig>) {
        match &mut self.backend {
            ViewBackend::Packet(core) => core.queue_mut(self.node, port, prio).ecn = cfg,
            ViewBackend::Flow { links, .. } => links[port.idx()].set_ecn(cfg),
        }
    }

    /// True when the engine's self-profiler is on. Controllers that want
    /// per-phase spans check this once per tick, so the disabled path costs
    /// a single branch and no clock reads.
    #[inline]
    pub fn profiling_enabled(&self) -> bool {
        matches!(&self.backend, ViewBackend::Packet(core) if core.profiler().is_some())
    }

    /// Record a wall-clock span (category `control`) started at `start` —
    /// e.g. one phase of a controller tick. No-op when profiling is off;
    /// pair with [`SwitchView::profiling_enabled`] to skip the clock read.
    pub fn profile_span(&mut self, name: &'static str, start: std::time::Instant) {
        let sw = self.node.0;
        if let ViewBackend::Packet(core) = &mut self.backend {
            if let Some(p) = core.profiler_mut() {
                p.span(name, "control", start, format!("sw={sw}"));
            }
        }
    }
}
