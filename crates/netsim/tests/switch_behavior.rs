//! End-to-end behavioural tests of switch mechanisms: DWRR weight
//! enforcement, ECMP load balancing, PFC hysteresis and buffer release.

use netsim::ids::{FlowId, PRIO_RDMA, PRIO_TCP};
use netsim::prelude::*;
use std::any::Any;

/// Driver that keeps a class's NIC queue saturated with data to `dst`.
struct Saturator {
    dst: NodeId,
    prio: Prio,
    flow: u64,
    sent: u64,
}

impl NicDriver for Saturator {
    fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
    fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
        // Keep well ahead of the drain rate (25G drains ~12 pkts per 5 us).
        while ctx.egress_backlog_bytes(self.prio) < 64 * 1048 {
            let ecn = if self.prio == PRIO_RDMA {
                Ecn::Ect
            } else {
                Ecn::NotEct
            };
            let pkt = Packet::data(
                FlowId(self.flow),
                ctx.host(),
                self.dst,
                self.prio,
                self.sent * 1000,
                1000,
                false,
                ecn,
            );
            self.sent += 1;
            ctx.send(pkt);
        }
        ctx.set_timer_after(SimTime::from_us(5), 0);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counts received bytes per priority.
struct PrioSink;
impl NicDriver for PrioSink {
    fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
    fn on_timer(&mut self, _t: u64, _c: &mut HostCtx<'_>) {}
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn dwrr_enforces_configured_split_under_saturation() {
    // Two senders saturate both classes into one receiver; the egress port
    // must split bandwidth ~30/70 between TCP and RDMA.
    let mut cfg = SimConfig::default();
    cfg.port = PortConfig::default().with_tcp_rdma_split(30, 70);
    // Disable marking/PFC side effects that would throttle senders: big
    // thresholds, huge buffer.
    cfg.port.ecn[PRIO_RDMA as usize] = None;
    cfg.buffer_bytes = 1 << 30;
    cfg.port.max_queue_bytes[PRIO_TCP as usize] = 1 << 28;
    let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
    let mut sim = Simulator::new(topo, cfg);
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    sim.set_driver(hosts[2], Box::new(PrioSink));
    sim.set_driver(
        hosts[0],
        Box::new(Saturator {
            dst: hosts[2],
            prio: PRIO_TCP,
            flow: 1,
            sent: 0,
        }),
    );
    sim.set_driver(
        hosts[1],
        Box::new(Saturator {
            dst: hosts[2],
            prio: PRIO_RDMA,
            flow: 2,
            sent: 0,
        }),
    );
    for h in &hosts[..2] {
        sim.with_driver(*h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    }
    sim.run_until(SimTime::from_ms(20));
    let sw = sim.core().topo.switches()[0];
    let tcp = sim.core().queue_telem(sw, PortId(2), PRIO_TCP).tx_bytes as f64;
    let rdma = sim.core().queue_telem(sw, PortId(2), PRIO_RDMA).tx_bytes as f64;
    let rdma_share = rdma / (tcp + rdma);
    assert!(
        (rdma_share - 0.7).abs() < 0.03,
        "RDMA share {rdma_share:.3}, expected ~0.70"
    );
}

#[test]
fn ecmp_spreads_flows_over_spines() {
    // Many flows from one rack to another: the two leaf uplinks must both
    // carry a nontrivial share.
    let topo = TopologySpec::paper_testbed().build();
    let mut cfg = SimConfig::default();
    cfg.control_interval = None;
    let mut sim = Simulator::new(topo, cfg);
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    // Rack 0 = hosts 0..6 (6 per leaf), rack 3 = hosts 18..24.
    struct Burst {
        dst: NodeId,
        flow: u64,
    }
    impl NicDriver for Burst {
        fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
        fn on_timer(&mut self, t: u64, ctx: &mut HostCtx<'_>) {
            // 64 flows of 20 packets each from this host.
            let _ = t;
            for f in 0..64u64 {
                for i in 0..20u64 {
                    ctx.send(Packet::data(
                        FlowId(self.flow * 1000 + f),
                        ctx.host(),
                        self.dst,
                        PRIO_RDMA,
                        i * 1000,
                        1000,
                        i == 19,
                        Ecn::Ect,
                    ));
                }
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    for k in 0..6 {
        sim.set_driver(
            hosts[k],
            Box::new(Burst {
                dst: hosts[18 + k],
                flow: k as u64 + 1,
            }),
        );
        sim.set_driver(hosts[18 + k], Box::new(PrioSink));
        sim.with_driver(hosts[k], |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    }
    sim.run_until(SimTime::from_ms(20));
    // Leaf 0's two uplink ports are the last two ports (6 host + 2 spine).
    let leaf0 = sim.core().topo.switches()[0];
    let up0 = sim.core().queue_telem(leaf0, PortId(6), PRIO_RDMA).tx_bytes as f64;
    let up1 = sim.core().queue_telem(leaf0, PortId(7), PRIO_RDMA).tx_bytes as f64;
    let total = up0 + up1;
    assert!(total > 0.0);
    let frac = up0 / total;
    assert!(
        (0.25..=0.75).contains(&frac),
        "ECMP badly imbalanced: uplink0 carries {frac:.2} of bytes"
    );
}

#[test]
fn pfc_pause_resume_cycles_and_buffer_returns_to_zero() {
    // A burst overwhelms the switch; PFC pauses the sender, the burst
    // drains, PFC resumes, and the shared buffer is fully released.
    let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
    let mut cfg = SimConfig::default();
    cfg.buffer_bytes = 256 * 1024; // tiny buffer: PFC must engage
    let mut sim = Simulator::new(topo, cfg);
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    struct BigBurst {
        dst: NodeId,
    }
    impl NicDriver for BigBurst {
        fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
        fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
            for i in 0..2000u64 {
                ctx.send(Packet::data(
                    FlowId(1),
                    ctx.host(),
                    self.dst,
                    PRIO_RDMA,
                    i * 1000,
                    1000,
                    i == 1999,
                    Ecn::Ect,
                ));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.set_driver(hosts[2], Box::new(PrioSink));
    sim.set_driver(hosts[0], Box::new(BigBurst { dst: hosts[2] }));
    sim.set_driver(hosts[1], Box::new(BigBurst { dst: hosts[2] }));
    for h in &hosts[..2] {
        sim.with_driver(*h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    }
    sim.run_until(SimTime::from_ms(20));
    let sw = sim.core().topo.switches()[0];
    assert!(
        sim.core().total_pfc_pauses >= 2,
        "both ingresses must pause"
    );
    assert_eq!(sim.core().lossless_drops, 0);
    assert_eq!(
        sim.core().buffer_used(sw),
        0,
        "all buffered bytes must be released after the burst drains"
    );
    // All 4000 packets eventually left the switch.
    assert_eq!(
        sim.core().queue_telem(sw, PortId(2), PRIO_RDMA).tx_pkts,
        4000
    );
}

#[test]
fn strict_priority_control_class_preempts_data() {
    // With a saturated RDMA class, a control packet (prio 2, weight 0)
    // must still cross the switch almost immediately.
    let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
    let mut cfg = SimConfig::default();
    cfg.buffer_bytes = 1 << 30;
    cfg.port.ecn[PRIO_RDMA as usize] = None;
    let mut sim = Simulator::new(topo, cfg);
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    use std::cell::RefCell;
    use std::rc::Rc;
    struct TimedSink {
        got_ctrl: Rc<RefCell<Option<SimTime>>>,
    }
    impl NicDriver for TimedSink {
        fn on_packet(&mut self, p: &Packet, ctx: &mut HostCtx<'_>) {
            if p.prio == netsim::ids::PRIO_CTRL && self.got_ctrl.borrow().is_none() {
                *self.got_ctrl.borrow_mut() = Some(ctx.now());
            }
        }
        fn on_timer(&mut self, _t: u64, _c: &mut HostCtx<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let got = Rc::new(RefCell::new(None));
    sim.set_driver(
        hosts[2],
        Box::new(TimedSink {
            got_ctrl: got.clone(),
        }),
    );
    sim.set_driver(
        hosts[0],
        Box::new(Saturator {
            dst: hosts[2],
            prio: PRIO_RDMA,
            flow: 1,
            sent: 0,
        }),
    );
    sim.with_driver(hosts[0], |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    // Let a deep RDMA queue build, then inject one control packet.
    sim.run_until(SimTime::from_ms(2));
    struct OneCtrl {
        dst: NodeId,
    }
    impl NicDriver for OneCtrl {
        fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
        fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
            ctx.send(Packet::cnp(
                FlowId(9),
                ctx.host(),
                self.dst,
                netsim::ids::PRIO_CTRL,
            ));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.set_driver(hosts[1], Box::new(OneCtrl { dst: hosts[2] }));
    let t_send = sim.now();
    sim.with_driver(hosts[1], |_, ctx| {
        let now = ctx.now();
        ctx.set_timer_at(now, 0);
    });
    sim.run_until(t_send + SimTime::from_us(100));
    let arrival = got.borrow().expect("control packet must arrive");
    let latency = arrival - t_send;
    assert!(
        latency < SimTime::from_us(5),
        "strict-priority latency {latency} despite deep data queue"
    );
}

#[test]
fn counters_and_profiler_see_marks_pauses_and_queue_depths() {
    // Heavy incast with a tiny marking threshold and a small buffer: the
    // switch must CE-mark, PFC-pause and resume, at queue depths the buffer
    // can hold.
    let topo = TopologySpec::single_switch(5, 25_000_000_000, SimTime::from_ns(500)).build();
    let mut cfg = SimConfig::default();
    cfg.buffer_bytes = 512 * 1024;
    cfg.port.ecn[PRIO_RDMA as usize] = Some(EcnConfig::new(10_000, 10_000, 1.0));
    let mut sim = Simulator::new(topo, cfg);
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    let sw = sim.core().topo.switches()[0];
    sim.enable_profiling();

    struct Burst {
        dst: NodeId,
    }
    impl NicDriver for Burst {
        fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
        fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
            for i in 0..500u64 {
                ctx.send(Packet::data(
                    FlowId(ctx.host().0 as u64),
                    ctx.host(),
                    self.dst,
                    PRIO_RDMA,
                    i * 1000,
                    1000,
                    i == 499,
                    Ecn::Ect,
                ));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.set_driver(hosts[4], Box::new(PrioSink));
    for &h in &hosts[..4] {
        sim.set_driver(h, Box::new(Burst { dst: hosts[4] }));
        sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
    }
    sim.run_until(SimTime::from_ms(10));

    let core = sim.core();
    let to_sink = core.queue_telem(sw, PortId(4), PRIO_RDMA);
    assert!(to_sink.tx_pkts > 1000);
    assert!(to_sink.tx_marked_pkts > 0, "tiny threshold must mark");
    assert!(core.total_pfc_pauses > 0, "small buffer must pause");
    let prof = sim.profiler().unwrap();
    assert!(prof.pause_ns.count() > 0, "pauses must resume");
    // Marks and drops happen at queue depths the buffer can hold.
    let deepest = prof.ecn_mark_qlen.max().max(prof.drop_qlen.max());
    assert!(deepest > 0 && deepest <= 512 * 1024, "{deepest}");
}
