//! The host-side extension point: NIC drivers.
//!
//! A [`NicDriver`] implements everything above the wire at an end host —
//! congestion control, reliability, message framing. The engine calls it when
//! packets addressed to the host arrive and when timers it set fire; the
//! driver reacts by handing packets to the NIC egress queues and setting more
//! timers through the [`HostCtx`] it is given.
//!
//! The `transport` crate provides DCQCN/DCTCP/TCP drivers; tests often use
//! tiny ad-hoc drivers.

use crate::ids::{NodeId, Prio};
use crate::packet::Packet;
use crate::sim::SimCore;
use crate::time::SimTime;
use rand::rngs::SmallRng;
use std::any::Any;

/// Host-side protocol logic plugged into the simulator.
pub trait NicDriver: 'static {
    /// A packet addressed to this host arrived.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut HostCtx<'_>);

    /// A timer previously set via [`HostCtx::set_timer_at`] fired.
    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>);

    /// The NIC finished serializing a packet — egress room may be available.
    ///
    /// Drivers that defer sends while the NIC backlog is full resume them
    /// here; this is the doorbell/completion signal real NICs arbitrate
    /// their send queues on. The default does nothing.
    fn on_tx_ready(&mut self, _ctx: &mut HostCtx<'_>) {}

    /// Downcasting support so harnesses can reach driver-specific state.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The capabilities a driver has while handling an event.
///
/// Borrows the simulator core; all operations are applied immediately and
/// deterministically.
pub struct HostCtx<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) host: NodeId,
}

impl HostCtx<'_> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The host this context belongs to.
    #[inline]
    pub fn host(&self) -> NodeId {
        self.host
    }

    /// Hand a packet to the NIC. It joins the egress queue of its traffic
    /// class and is serialized when the DWRR scheduler picks it (and the
    /// class is not PFC-paused).
    pub fn send(&mut self, pkt: Packet) {
        debug_assert_eq!(pkt.src, self.host, "packet src must be the sending host");
        self.core.host_enqueue(self.host, pkt);
    }

    /// Wake this driver at absolute time `at` with `token`.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        let host = self.host;
        self.core.schedule_host_timer(at, host, token);
    }

    /// Wake this driver `delay` from now with `token`.
    pub fn set_timer_after(&mut self, delay: SimTime, token: u64) {
        let at = self.core.now + delay;
        self.set_timer_at(at, token);
    }

    /// Bytes currently waiting in this host's egress queue for class `prio`
    /// (drivers use this to keep NIC backlog bounded while pacing).
    pub fn egress_backlog_bytes(&self, prio: Prio) -> u64 {
        self.core.host_backlog(self.host, prio)
    }

    /// The NIC's line rate in bits/s.
    pub fn line_rate_bps(&self) -> u64 {
        self.core.topo.host_rate_bps(self.host)
    }

    /// Maximum payload per data packet configured for this simulation.
    pub fn mtu_payload(&self) -> u32 {
        self.core.cfg.mtu_payload
    }

    /// The deterministic RNG this driver draws from: the host's own stream,
    /// so its draws are independent of thread placement.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.core.node_rng(self.host)
    }

    /// True when this shard owns `node` (always true on one shard). Transport
    /// stacks use this to tell a cross-shard flow (whose sender-side record
    /// lives in another shard's collector) from a genuinely unknown one.
    pub fn owns_node(&self, node: NodeId) -> bool {
        self.core.owns_node(node)
    }
}
