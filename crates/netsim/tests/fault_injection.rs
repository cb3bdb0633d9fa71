//! Link-failure injection: traffic steers around failed fabric links after
//! route recomputation, unroutable traffic is counted, and restoration
//! restarts the transmitters.

use netsim::ids::{FlowId, PRIO_RDMA};
use netsim::prelude::*;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

struct Sink {
    got: Rc<RefCell<u32>>,
}
impl NicDriver for Sink {
    fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {
        *self.got.borrow_mut() += 1;
    }
    fn on_timer(&mut self, _t: u64, _c: &mut HostCtx<'_>) {}
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends one packet per `flow` id in 0..n at every timer tick.
struct Pulser {
    dst: NodeId,
    n: u64,
    seq: u64,
}
impl NicDriver for Pulser {
    fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
    fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
        for f in 0..self.n {
            ctx.send(Packet::data(
                FlowId(f + 1),
                ctx.host(),
                self.dst,
                PRIO_RDMA,
                self.seq * 1000,
                1000,
                false,
                Ecn::Ect,
            ));
        }
        self.seq += 1;
        ctx.set_timer_after(SimTime::from_us(50), 0);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn cross_rack_setup() -> (Simulator, NodeId, NodeId, Rc<RefCell<u32>>) {
    // Testbed Clos: leaf0 has two spine uplinks (ports 6 and 7).
    let topo = TopologySpec::paper_testbed().build();
    let mut cfg = SimConfig::default();
    cfg.control_interval = None;
    let mut sim = Simulator::new(topo, cfg);
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    let src = hosts[0];
    let dst = hosts[hosts.len() - 1];
    let got = Rc::new(RefCell::new(0));
    sim.set_driver(dst, Box::new(Sink { got: got.clone() }));
    sim.set_driver(src, Box::new(Pulser { dst, n: 16, seq: 0 }));
    sim.with_driver(src, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    (sim, src, dst, got)
}

#[test]
fn traffic_steers_around_failed_uplink() {
    let (mut sim, _src, _dst, got) = cross_rack_setup();
    sim.run_until(SimTime::from_ms(2));
    let before = *got.borrow();
    assert!(before > 0);

    // Fail leaf0's first spine uplink: all 16 flows must re-hash onto the
    // surviving uplink and keep flowing, with nothing dropped.
    let leaf0 = sim.core().topo.switches()[0];
    sim.core_mut().set_link_state(leaf0, PortId(6), false);
    assert!(!sim.core().link_is_up(leaf0, PortId(6)));
    sim.run_until(SimTime::from_ms(6));
    let after = *got.borrow();
    assert!(
        after - before > 16 * 60,
        "traffic must keep flowing over the surviving uplink: {} -> {}",
        before,
        after
    );
    assert_eq!(sim.core().unroutable_drops, 0);
    // The failed uplink carries nothing new while down.
    let up6 = sim.core().queue_telem(leaf0, PortId(6), PRIO_RDMA).tx_pkts;
    sim.run_until(SimTime::from_ms(7));
    assert_eq!(
        sim.core().queue_telem(leaf0, PortId(6), PRIO_RDMA).tx_pkts,
        up6
    );
}

/// Blasts `n` packets at its first timer tick, then stays quiet.
struct Blaster {
    dst: NodeId,
    n: u32,
}
impl NicDriver for Blaster {
    fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
    fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
        for i in 0..self.n {
            ctx.send(Packet::data(
                FlowId(ctx.host().0 as u64 + 1),
                ctx.host(),
                self.dst,
                PRIO_RDMA,
                i as u64 * 1000,
                1000,
                i == self.n - 1,
                Ecn::Ect,
            ));
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn in_flight_packets_toward_downed_link_are_dropped_not_delivered_or_leaked() {
    // A 50 us propagation delay keeps ~60 packets "on the wire" at any
    // moment; failing the receiver link mid-stream must lose exactly the
    // in-flight ones — counted, not delivered, and with no buffer bytes
    // leaked at the switch.
    let topo = TopologySpec::single_switch(2, 10_000_000_000, SimTime::from_us(50)).build();
    let mut cfg = SimConfig::default();
    cfg.control_interval = None;
    let mut sim = Simulator::new(topo, cfg);
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    let got = Rc::new(RefCell::new(0));
    sim.set_driver(hosts[1], Box::new(Sink { got: got.clone() }));
    sim.set_driver(
        hosts[0],
        Box::new(Blaster {
            dst: hosts[1],
            n: 100,
        }),
    );
    sim.with_driver(hosts[0], |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    sim.run_until(SimTime::from_us(150));
    let delivered_at_cut = *got.borrow();
    assert!(delivered_at_cut > 0, "stream was flowing before the cut");
    let sw = sim.core().topo.switches()[0];
    sim.core_mut().set_link_state(sw, PortId(1), false);
    sim.run_until(SimTime::from_ms(2));
    let delivered = *got.borrow();
    assert_eq!(delivered, delivered_at_cut, "nothing crosses a downed link");
    let dropped = sim.core().fault_drops;
    assert!(dropped > 10, "the in-flight packets are lost: {dropped}");
    let queued = sim.core().queue(sw, PortId(1), PRIO_RDMA).len() as u64;
    assert_eq!(
        delivered as u64 + dropped + queued,
        100,
        "every packet is delivered, fault-dropped or still queued"
    );
    // No shared-buffer leak: with the transmitter idle, the switch's buffer
    // occupancy is exactly what sits in its queues.
    assert_eq!(
        sim.core().buffer_used(sw),
        sim.core().queue(sw, PortId(1), PRIO_RDMA).bytes()
            + sim.core().queue(sw, PortId(0), PRIO_RDMA).bytes()
    );
}

#[test]
fn link_flap_cannot_leave_a_port_permanently_paused() {
    // Overload a single receiver so the switch holds the senders in PFC
    // pause, then flap a paused sender's link. Pause state on both ends is
    // cleared on link-down and pauses landing on a downed port are ignored,
    // so after restoration everything that was not physically lost in
    // flight must still be delivered — a wedged (permanently paused) sender
    // would strand its backlog forever.
    let topo = TopologySpec::single_switch(9, 25_000_000_000, SimTime::from_ns(500)).build();
    let mut cfg = SimConfig::default();
    cfg.control_interval = None;
    cfg.buffer_bytes = 512 * 1024; // force PFC
    let mut sim = Simulator::new(topo, cfg);
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    let got = Rc::new(RefCell::new(0));
    sim.set_driver(hosts[8], Box::new(Sink { got: got.clone() }));
    for &h in &hosts[..8] {
        sim.set_driver(
            h,
            Box::new(Blaster {
                dst: hosts[8],
                n: 1000,
            }),
        );
        sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    }
    // Mid-overload the fabric is pausing senders almost continuously.
    sim.run_until(SimTime::from_ms(1));
    assert!(sim.core().total_pfc_pauses > 0, "PFC must be active");
    let sw = sim.core().topo.switches()[0];
    sim.core_mut().set_link_state(sw, PortId(0), false);
    sim.run_until(SimTime::from_ms(1) + SimTime::from_us(20));
    sim.core_mut().set_link_state(sw, PortId(0), true);
    sim.run_until(SimTime::from_ms(100));
    let delivered = *got.borrow() as u64;
    let lost = sim.core().fault_drops;
    assert_eq!(
        delivered + lost,
        8000,
        "everything not lost in flight is eventually delivered \
         (a permanently paused port would strand its backlog)"
    );
    assert!(
        sim.core().pfc_pause_time(hosts[0], PortId(0), PRIO_RDMA) < SimTime::from_ms(99),
        "the flapped sender must not sit paused for the rest of the run"
    );
}

#[test]
fn total_partition_counts_unroutable_and_recovers_on_restore() {
    let (mut sim, _src, _dst, got) = cross_rack_setup();
    sim.run_until(SimTime::from_ms(1));
    let leaf0 = sim.core().topo.switches()[0];
    // Fail both uplinks: rack 0 is cut off from rack 3.
    sim.core_mut().set_link_state(leaf0, PortId(6), false);
    sim.core_mut().set_link_state(leaf0, PortId(7), false);
    sim.run_until(SimTime::from_ms(3));
    assert!(
        sim.core().unroutable_drops > 0,
        "cross-rack packets must be counted as unroutable"
    );
    let during = *got.borrow();
    // Restore one uplink: delivery resumes.
    sim.core_mut().set_link_state(leaf0, PortId(6), true);
    sim.run_until(SimTime::from_ms(6));
    assert!(
        *got.borrow() > during + 16 * 40,
        "delivery must resume after restoration"
    );
}

/// A packet addressed to a switch has no route: the first switch counts it
/// as unroutable instead of panicking in the route lookup.
#[test]
fn packet_addressed_to_a_switch_is_an_unroutable_drop() {
    let topo = TopologySpec::paper_testbed().build();
    let mut cfg = SimConfig::default();
    cfg.control_interval = None;
    let mut sim = Simulator::new(topo, cfg);
    let src = sim.core().topo.hosts()[0];
    let spine = sim.core().topo.switches()[4];
    sim.set_driver(src, Box::new(Blaster { dst: spine, n: 3 }));
    sim.with_driver(src, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    sim.run_until(SimTime::from_ms(1));
    assert_eq!(sim.core().unroutable_drops, 3);
    assert_eq!(sim.core().total_drops, 3);
}
