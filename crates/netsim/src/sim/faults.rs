//! Fault execution: everything a [`FaultKind`] does to the engine's state,
//! and the one function ([`SimCore::report_fault`]) through which an
//! executed fault becomes visible — in the fault log and through the probe.
//! Cold code: nothing here runs unless a fault plan (or a harness)
//! injects a fault, except [`SimCore::rx_fault_drop`], the per-arrival check
//! the event loop inlines.

use super::{Happening, PortState, SimCore, Simulator};
use crate::event::Event;
use crate::fault::{FaultDetail, FaultKind, FaultLogEntry, FaultPlan, FaultPlanError, TelemFault};
use crate::ids::{NodeId, PortId, Prio};
use crate::queues::QueueTelemetry;
use rand::rngs::SmallRng;
use rand::Rng;

/// Salt XORed into the fault-plan seed so a node's fault RNG stream never
/// aliases its engine stream even when both are seeded with the same number.
const FAULT_SEED_SALT: u64 = 0xFA17_0B5E_55ED_0001;

/// Defensive cap on buffered fault-log entries between drains.
const FAULT_LOG_CAP: usize = 1 << 16;

/// `node`'s own fault RNG stream for `seed` (the config seed until a plan is
/// installed, [`FaultPlan::seed`] afterwards).
pub(super) fn node_fault_stream(seed: u64, node: usize) -> SmallRng {
    super::sharding::node_stream(seed ^ FAULT_SEED_SALT, node)
}

impl SimCore {
    /// Finalize pause accounting and clear all PFC state on one port (link
    /// failure / reboot), returning the classes it had paused upstream.
    /// Clearing `pfc_sent` matters: after the peer's pause state is gone, a
    /// resume would never be sent, so leaving the bit set would wedge the
    /// handshake after restoration; the reboot path sends explicit resumes
    /// for the returned bits.
    fn clear_pfc_state(&mut self, node: NodeId, port: PortId) -> u8 {
        let now = self.now;
        let i = self.port_index(node, port);
        for prio in 0..self.classes.prios {
            let row = &mut self.classes.of_mut(i)[prio];
            if let Some(dur_ps) = self.ports[i].end_pause(row, prio, now) {
                self.probe(Happening::PauseEnd { dur_ps });
            }
        }
        std::mem::take(&mut self.ports[i].pfc_sent)
    }

    /// Administratively fail or restore the link attached to
    /// (`node`, `port`). Both directions go down (the peer port too); the
    /// route table is rebuilt to steer around the failure. Packets already
    /// queued behind a downed transmitter wait for restoration; packets
    /// already propagating toward a downed link are lost on arrival (see
    /// `fault_drops`); packets with no remaining route are dropped (see
    /// `unroutable_drops`). PFC pause state on both endpoints is cleared so
    /// a flap can never leave a port permanently paused.
    ///
    /// A shard executes every link fault, so its routes stay those of the
    /// whole fabric; it touches the transmitter and PFC state of the ends it
    /// owns only.
    pub fn set_link_state(&mut self, node: NodeId, port: PortId, up: bool) {
        let peer = *self.topo.port(node, port);
        let ends = [(node, port), (peer.peer_node, peer.peer_port)];
        for (n, p) in ends {
            if self.owns_node(n) {
                self.port_mut(n, p).link_up = up;
            } else {
                self.foreign_links.set(n, p, up);
            }
        }
        self.recount_impaired();
        if !up {
            for (n, p) in ends {
                if self.owns_node(n) {
                    self.clear_pfc_state(n, p);
                }
            }
        }
        let kind = if up {
            FaultKind::LinkUp { node, port }
        } else {
            FaultKind::LinkDown { node, port }
        };
        self.report_fault(
            kind,
            FaultDetail::Peer {
                node: peer.peer_node,
                port: peer.peer_port,
            },
        );
        // Rebuild routing honouring every port's current state, reusing the
        // existing table's storage (no fresh table allocation per flap).
        let (ports, base, foreign, shard) = (
            &self.ports,
            &self.port_base,
            &self.foreign_links,
            &self.shard,
        );
        self.routes.rebuild_filtered(&self.topo, |n, p| {
            if shard.owns(n) {
                ports[base[n.idx()] as usize + p.idx()].link_up
            } else {
                foreign.is_up(n, p)
            }
        });
        if up {
            // Restart the transmitters on both ends.
            for (n, p) in ends {
                if self.owns_node(n) {
                    self.try_send(n, p);
                }
            }
        }
    }

    /// Whether the link attached to (`node`, `port`) is up.
    pub fn link_is_up(&self, node: NodeId, port: PortId) -> bool {
        if self.owns_node(node) {
            self.port(node, port).link_up
        } else {
            self.foreign_links.is_up(node, port)
        }
    }

    /// Recount the ports that lose arrivals. Every write to `link_up` or
    /// `loss_frac` is followed by this (faults are rare; arrivals are not).
    fn recount_impaired(&mut self) {
        let lossy = |p: &&PortState| !p.link_up || p.loss_frac > 0.0;
        self.impaired_ports = self.ports.iter().filter(lossy).count();
    }

    /// The one place an executed fault becomes observable: one fault-log
    /// entry (and `faults_executed`) carrying `detail`, and one probe —
    /// from which the profiler keeps an instant and the link-down window a
    /// flap opens and closes.
    ///
    /// Faults replicate into every shard (link state and routing must stay
    /// globally consistent) but only the owner of the node a fault names
    /// reports it, so merged per-shard logs and profiles carry each fault
    /// exactly once, whatever the partition.
    fn report_fault(&mut self, kind: FaultKind, detail: FaultDetail) {
        let (node, port) = kind.target();
        if !self.owns_node(node) {
            return;
        }
        self.faults_executed += 1;
        if self.fault_log.len() >= FAULT_LOG_CAP {
            self.fault_log_dropped += 1;
        } else {
            self.fault_log.push(FaultLogEntry {
                at: self.now,
                kind: kind.name(),
                node,
                port: port.unwrap_or(PortId(u16::MAX)),
                detail,
            });
        }
        self.probe(Happening::Fault(kind));
    }

    /// Take every fault executed since the previous drain (telemetry
    /// samplers call this each interval; harnesses may drain at the end).
    pub fn drain_fault_log(&mut self) -> Vec<FaultLogEntry> {
        std::mem::take(&mut self.fault_log)
    }

    /// Should this arrival be lost to fault injection? Downed ingress links
    /// lose every packet still propagating toward them; ports with injected
    /// loss black-hole a seeded-random fraction. The fault RNG is only
    /// consulted for partial loss, so loss-free runs never touch it.
    #[inline]
    pub(crate) fn rx_fault_drop(&mut self, node: NodeId, port: PortId) -> bool {
        if self.impaired_ports == 0 {
            return false;
        }
        let ps = self.port(node, port);
        let lost = if !ps.link_up {
            true
        } else {
            let frac = ps.loss_frac;
            frac > 0.0 && (frac >= 1.0 || self.node_fault_rng(node).gen::<f64>() < frac)
        };
        if lost {
            self.total_drops += 1;
            self.fault_drops += 1;
        }
        lost
    }

    /// Execute one fault right now. Normally driven by scheduled
    /// [`Event::Fault`]s from an installed [`FaultPlan`]; harnesses may also
    /// call it directly.
    ///
    /// Every shard executes every fault, but of a node this core does not
    /// own only the link state is kept (routes are global); its rates, loss,
    /// reboots and telemetry faults change nothing here.
    pub fn apply_fault(&mut self, kind: FaultKind) {
        let (target, _) = kind.target();
        match kind {
            FaultKind::LinkDown { node, port } => self.set_link_state(node, port, false),
            FaultKind::LinkUp { node, port } => self.set_link_state(node, port, true),
            FaultKind::DegradeLink {
                node,
                port,
                rate_bps,
            } => {
                let rate = rate_bps.max(1);
                self.set_rate_override(node, port, Some(rate));
                self.report_fault(kind, FaultDetail::RateBps(rate));
            }
            FaultKind::RestoreLinkRate { node, port } => {
                self.set_rate_override(node, port, None);
                self.report_fault(kind, FaultDetail::None);
            }
            // The rest touch the node they name and nothing else: a foreign
            // one's owner executes and reports them.
            _ if !self.owns_node(target) => {}
            FaultKind::PacketLoss { node, port, frac } => {
                let frac = frac.clamp(0.0, 1.0);
                self.port_mut(node, port).loss_frac = frac;
                self.recount_impaired();
                self.report_fault(kind, FaultDetail::LossFrac(frac));
            }
            FaultKind::SwitchReboot { node } => {
                let flushed = self.reboot_switch(node);
                self.report_fault(kind, FaultDetail::Flushed(flushed));
            }
            FaultKind::TelemetryFreeze { node }
            | FaultKind::TelemetryBlank { node }
            | FaultKind::TelemetryRestore { node } => {
                let fault = match kind {
                    FaultKind::TelemetryFreeze { .. } => Some(self.freeze_telemetry(node)),
                    FaultKind::TelemetryBlank { .. } => Some(TelemFault::Blank),
                    _ => None,
                };
                self.recycle_telem_fault(node);
                self.nodes[node.idx()].telem_fault = fault;
                self.report_fault(kind, FaultDetail::None);
            }
        }
    }

    /// Snapshot every queue of `node` as a controller would read it now.
    fn freeze_telemetry(&mut self, node: NodeId) -> TelemFault {
        let now = self.now;
        // Reuse the pooled snapshot vector (recycled on restore) so a
        // freeze/restore cycle settles into zero allocations.
        let mut snap = std::mem::take(&mut self.telem_snap_pool);
        snap.clear();
        let range = self.ports_of(node);
        for row in self.classes.of_ports_mut(range) {
            row.queue.sync_clock(&mut row.telem, now);
            snap.push((row.queue.bytes(), row.telem));
        }
        TelemFault::Frozen(snap)
    }

    /// Degrade (`Some`) or restore (`None`) the serialization rate of the
    /// link attached to (`node`, `port`), both directions.
    fn set_rate_override(&mut self, node: NodeId, port: PortId, rate: Option<u64>) {
        let peer = *self.topo.port(node, port);
        for (node, port) in [(node, port), (peer.peer_node, peer.peer_port)] {
            if !self.owns_node(node) {
                continue;
            }
            let configured = self.topo.port(node, port).rate_bps;
            self.port_mut(node, port).rate_bps = rate.unwrap_or(configured);
        }
    }

    /// Reboot a switch: every queued packet is flushed (and counted as a
    /// fault drop), shared-buffer and ingress accounting is released per
    /// packet, every queue's ECN config reverts to the configured static
    /// default, the schedulers reset, and PFC state clears with resumes
    /// sent upstream so paused peers un-stick. The packet currently being
    /// serialized (if any) survives — its bytes are on the wire — and its
    /// accounting is released normally by its pending `TxDone`. Telemetry
    /// counters are *not* reset: they model the collector's view, which
    /// outlives the device (and samplers difference them as monotone).
    /// Returns the number of packets flushed.
    fn reboot_switch(&mut self, node: NodeId) -> u64 {
        let now = self.now;
        let num_ports = self.ports_of(node).len();
        let mut flushed: u64 = 0;
        // Reuse the core-owned scratch (the Vec::new() placeholder left
        // behind by `take` never allocates).
        let mut resumes = std::mem::take(&mut self.resume_scratch);
        resumes.clear();
        for pi in 0..num_ports {
            let port = PortId(pi as u16);
            let sent = self.clear_pfc_state(node, port);
            let i = self.port_index(node, port);
            for prio in 0..self.classes.prios {
                loop {
                    let row = &mut self.classes.of_mut(i)[prio];
                    let Some(item) = row.queue.drop_head(&mut self.arena, &mut row.telem, now)
                    else {
                        break;
                    };
                    flushed += 1;
                    if let Some(buf) = self.nodes[node.idx()].buffer.as_mut() {
                        buf.release(item.pkt.size);
                    }
                    if let Some(ingress) = item.ingress {
                        let ib = &mut self.class_mut(node, ingress, item.pkt.prio).ingress_bytes;
                        *ib = ib.saturating_sub(item.pkt.size as u64);
                    }
                }
                let row = &mut self.classes.of_mut(i)[prio];
                row.queue.ecn = self.cfg.port.ecn[prio];
                row.sched.reset();
                if sent & (1u8 << prio) != 0 {
                    resumes.push((port, prio as Prio));
                }
            }
            self.ports[i].dwrr_ptr = 0;
        }
        self.total_drops += flushed;
        self.fault_drops += flushed;
        for &(port, prio) in &resumes {
            if self.port(node, port).link_up {
                self.send_pfc(node, port, prio, false);
            }
        }
        self.resume_scratch = resumes;
        self.recycle_telem_fault(node);
        flushed
    }

    /// Clear a node's telemetry fault, recycling a frozen snapshot's storage
    /// into the shared pool so the next freeze reuses it.
    fn recycle_telem_fault(&mut self, node: NodeId) {
        if let Some(TelemFault::Frozen(mut v)) = self.nodes[node.idx()].telem_fault.take() {
            if v.capacity() > self.telem_snap_pool.capacity() {
                v.clear();
                self.telem_snap_pool = v;
            }
        }
    }

    /// The (qlen, telemetry) a controller *reads* for this queue right now,
    /// when distorted by an active telemetry fault; `None` means reads are
    /// healthy and the live queue state applies. Only control-plane
    /// snapshots route through this — the flight-recorder sampler keeps
    /// reading ground truth, which is exactly what makes the distortion
    /// observable in recorded runs.
    pub(crate) fn faulted_reading(
        &self,
        node: NodeId,
        port: PortId,
        prio: Prio,
    ) -> Option<(u64, QueueTelemetry)> {
        match self.nodes[node.idx()].telem_fault.as_ref()? {
            TelemFault::Blank => Some((0, QueueTelemetry::default())),
            TelemFault::Frozen(snap) => {
                let num_prios = self.cfg.port.num_prios;
                snap.get(port.idx() * num_prios + prio as usize).copied()
            }
        }
    }
}

impl Simulator {
    /// Validate `plan` — structurally ([`FaultPlan::validate`]) and against
    /// this simulator's topology ([`FaultPlan::check_topology`]) — and
    /// schedule every fault it contains into the event loop (faults dated in
    /// the past fire immediately). Nothing is scheduled and no RNG is
    /// touched when the plan is rejected. The per-node fault RNGs are
    /// reseeded from [`FaultPlan::seed`], so identical plans on identical
    /// simulations reproduce identical runs; a plan with no probabilistic
    /// faults leaves the packet trajectory of the fault-free portions
    /// untouched.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate()?;
        plan.check_topology(&self.core.topo)?;
        for (i, r) in self.core.shard.node_fault_rngs.iter_mut().enumerate() {
            *r = node_fault_stream(plan.seed, i);
        }
        // Every scheduled fault appends at most one log entry; reserving up
        // front keeps the steady-state loop free of fault-log growth. The
        // reboot and freeze scratch is sized from the topology here, not in
        // every core, so the *first* reboot or telemetry freeze after warmup
        // does not grow it and a fault-free core reserves none of it.
        let core = &mut self.core;
        core.fault_log.reserve(plan.events.len().min(FAULT_LOG_CAP));
        let max_ports = core.topo.nodes.iter().map(|n| n.ports.len()).max();
        let snap_cap = max_ports.unwrap_or(0) * core.classes.prios;
        core.resume_scratch.reserve(snap_cap);
        core.telem_snap_pool.reserve(snap_cap);
        let now = self.core.now;
        for ev in &plan.events {
            let at = ev.at.max(now);
            self.core.schedule(at, Event::Fault(ev.kind));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{blast_sim, two_host_sim, RDMA_ECT};
    use super::*;
    use crate::config::SimConfig;
    use crate::ids::PRIO_RDMA;
    use crate::shard::ShardPlan;
    use crate::time::SimTime;
    use crate::topology::TopologySpec;

    /// A flap logs one entry per state change, at the endpoint it names,
    /// whose detail names the far end.
    #[test]
    fn link_state_changes_are_logged() {
        let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let sw = sim.core().topo.switches()[0];
        let far = *sim.core().topo.port(sw, PortId(0));
        sim.core_mut().set_link_state(sw, PortId(0), false);
        sim.core_mut().set_link_state(sw, PortId(0), true);
        let log = sim.core_mut().drain_fault_log();
        let logged: Vec<_> = log
            .iter()
            .map(|e| (e.kind, e.node, e.port, e.detail))
            .collect();
        let peer = FaultDetail::Peer {
            node: far.peer_node,
            port: far.peer_port,
        };
        assert_eq!(
            logged,
            vec![
                ("link_down", sw, PortId(0), peer),
                ("link_up", sw, PortId(0), peer)
            ]
        );
    }

    #[test]
    fn loss_free_fault_plan_does_not_perturb() {
        // A plan whose faults never fire within the horizon and draw no
        // randomness must leave the run bit-identical to a plan-free run.
        let (mut s1, g1) = two_host_sim(25_000_000_000);
        let (mut s2, g2) = two_host_sim(25_000_000_000);
        let sw = s2.core().topo.switches()[0];
        let plan =
            FaultPlan::new(99).at(SimTime::from_ms(500), FaultKind::SwitchReboot { node: sw });
        s2.install_fault_plan(&plan).unwrap();
        s1.run_until(SimTime::from_ms(1));
        s2.run_until(SimTime::from_ms(1));
        assert_eq!(*g1.borrow(), *g2.borrow());
        assert_eq!(s1.core().total_drops, s2.core().total_drops);
    }

    #[test]
    fn blackhole_drops_everything_and_partial_loss_some() {
        // Loss on the switch's ingress from host 0, from t=0 and never
        // cleared: a loss-only plan.
        for frac in [1.0, 0.3] {
            let (mut sim, got) = two_host_sim(10_000_000_000);
            let (node, port) = (sim.core().topo.switches()[0], PortId(0));
            let loss = FaultKind::PacketLoss { node, port, frac };
            sim.install_fault_plan(&FaultPlan::new(7).at(SimTime::ZERO, loss))
                .unwrap();
            sim.run_until(SimTime::from_ms(10));
            let delivered = got.borrow().len();
            if frac == 1.0 {
                assert_eq!(delivered, 0, "blackhole delivers nothing");
            } else {
                assert!(
                    delivered > 0 && delivered < 100,
                    "partial loss: {delivered}"
                );
            }
            assert_eq!(sim.core().fault_drops as usize, 100 - delivered);
            assert_eq!(sim.core().total_drops, sim.core().fault_drops);
            // Configuring the loss is logged once, with its fraction; the
            // packets it loses are counted, not logged.
            let log = sim.core_mut().drain_fault_log();
            let logged: Vec<_> = log.iter().map(|e| (e.kind, e.detail)).collect();
            assert_eq!(logged, vec![("packet_loss", FaultDetail::LossFrac(frac))]);
        }
    }

    #[test]
    fn degraded_link_slows_delivery_and_restores() {
        // 10G link degraded to 1G for the whole run: 100 packets take ~10x
        // longer than at full rate.
        let (mut fast, got_fast) = two_host_sim(10_000_000_000);
        fast.run_until(SimTime::from_ms(10));
        let fast_last = got_fast.borrow().last().unwrap().0;

        let (mut slow, got_slow) = two_host_sim(10_000_000_000);
        let hosts: Vec<NodeId> = slow.core().topo.hosts().to_vec();
        let plan = FaultPlan::new(0).degrade_window(
            hosts[0],
            PortId(0),
            1_000_000_000,
            SimTime::ZERO,
            SimTime::from_ms(5),
        );
        slow.install_fault_plan(&plan).unwrap();
        slow.run_until(SimTime::from_ms(10));
        assert_eq!(got_slow.borrow().len(), 100, "all delivered eventually");
        let slow_last = got_slow.borrow().last().unwrap().0;
        assert!(
            slow_last > fast_last.mul(4),
            "degraded run must be much slower: {slow_last:?} vs {fast_last:?}"
        );
    }

    #[test]
    fn switch_reboot_flushes_queues_and_resets_ecn() {
        // Two 25G senders into one 25G sink builds a standing queue; a
        // reboot mid-run must empty it, release the buffer, and restore the
        // default ECN config over a controller-modified one.
        let (mut sim, _, got) = blast_sim(2, 400, RDMA_ECT, 25_000_000_000, SimConfig::default());
        let sw = sim.core().topo.switches()[0];
        // Let the queue build, then tamper with the config and reboot.
        sim.run_until(SimTime::from_us(60));
        assert!(sim.core().buffer_used(sw) > 0, "queue must have built");
        let default_ecn = sim.core().cfg.port.ecn[PRIO_RDMA as usize];
        sim.core_mut().queue_mut(sw, PortId(2), PRIO_RDMA).ecn =
            Some(crate::queues::EcnConfig::new(1, 2, 1.0));
        sim.core_mut()
            .apply_fault(FaultKind::SwitchReboot { node: sw });
        assert!(sim.core().fault_drops > 0, "flushed packets counted");
        let buffered = sim.core().buffer_used(sw);
        // At most the one in-flight packet can still be charged.
        assert!(buffered <= 2000, "buffer released on reboot: {buffered}");
        assert_eq!(
            sim.core().queue(sw, PortId(2), PRIO_RDMA).ecn,
            default_ecn,
            "ECN reverts to the static default"
        );
        // The run continues and the remaining traffic drains cleanly.
        sim.run_until(SimTime::from_ms(20));
        assert!(!got.borrow().is_empty());
    }

    #[test]
    fn telemetry_freeze_and_blank_distort_reads_not_ground_truth() {
        let (mut sim, _got) = two_host_sim(10_000_000_000);
        let sw = sim.core().topo.switches()[0];
        sim.run_until(SimTime::from_us(50));
        let live = sim.core().queue_telem(sw, PortId(1), PRIO_RDMA);
        assert!(live.enq_pkts > 0, "traffic flowed");
        assert!(
            sim.core()
                .faulted_reading(sw, PortId(1), PRIO_RDMA)
                .is_none(),
            "healthy reads are undistorted"
        );
        sim.core_mut()
            .apply_fault(FaultKind::TelemetryFreeze { node: sw });
        let (q0, t0) = sim
            .core()
            .faulted_reading(sw, PortId(1), PRIO_RDMA)
            .unwrap();
        sim.run_until(SimTime::from_ms(10));
        let (q1, t1) = sim
            .core()
            .faulted_reading(sw, PortId(1), PRIO_RDMA)
            .unwrap();
        assert_eq!((q0, t0), (q1, t1), "frozen reads never move");
        let truth = sim.core().queue_telem(sw, PortId(1), PRIO_RDMA);
        assert!(truth.enq_pkts > t1.enq_pkts, "ground truth kept advancing");
        sim.core_mut()
            .apply_fault(FaultKind::TelemetryBlank { node: sw });
        let (qb, tb) = sim
            .core()
            .faulted_reading(sw, PortId(1), PRIO_RDMA)
            .unwrap();
        assert_eq!(qb, 0);
        assert_eq!(tb, QueueTelemetry::default());
        sim.core_mut()
            .apply_fault(FaultKind::TelemetryRestore { node: sw });
        assert!(sim
            .core()
            .faulted_reading(sw, PortId(1), PRIO_RDMA)
            .is_none());
    }

    #[test]
    fn fault_log_records_and_drains() {
        let (mut sim, _got) = two_host_sim(10_000_000_000);
        let sw = sim.core().topo.switches()[0];
        let plan = FaultPlan::new(1)
            .link_flap(sw, PortId(0), SimTime::from_us(10), SimTime::from_us(20))
            .at(SimTime::from_us(30), FaultKind::SwitchReboot { node: sw });
        sim.install_fault_plan(&plan).unwrap();
        sim.run_until(SimTime::from_ms(1));
        let log = sim.core_mut().drain_fault_log();
        let kinds: Vec<&str> = log.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["link_down", "link_up", "switch_reboot"]);
        assert_eq!(log[0].at, SimTime::from_us(10));
        assert!(sim.core_mut().drain_fault_log().is_empty(), "drained");
    }

    type Record = (&'static str, NodeId, PortId, FaultDetail);

    /// What executing one fault left behind in `sim`: its fault-log entries
    /// (drained), and the cumulative profiler instants and
    /// `faults_executed`.
    fn reported(sim: &mut Simulator) -> (Vec<Record>, u64, u64) {
        let log = sim.core_mut().drain_fault_log();
        (
            log.iter()
                .map(|e| (e.kind, e.node, e.port, e.detail))
                .collect(),
            sim.profiler().unwrap().instants().len() as u64,
            sim.core().faults_executed,
        )
    }

    /// Every `FaultKind` reports exactly once through `report_fault`: one
    /// fault-log entry at the endpoint it names, carrying its detail (a
    /// link fault's names the far end), and one profiler instant — and on
    /// two shards, where every fault executes in both, the per-shard
    /// reports sum to the same.
    #[test]
    fn every_fault_kind_reports_exactly_once() {
        let topo = TopologySpec::paper_testbed().build(); // 4 leaves, 2 spines
        let shard_plan = ShardPlan::build(&topo, 2);
        let node = topo.switches()[1];
        // A fabric link whose far end lives in the other shard, so a gate
        // applied per endpoint instead of once would split the report — and
        // whose two port numbers (near, far) differ from each other and from
        // 0, so an entry or detail carrying the wrong one is seen.
        let port = (0..topo.node(node).ports.len() as u16)
            .map(PortId)
            .find(|&p| {
                let far = topo.port(node, p);
                shard_plan.owner(far.peer_node) != shard_plan.owner(node)
                    && ![PortId(0), p].contains(&far.peer_port)
            })
            .expect("the leaf has such an uplink into the other shard");
        let (t0, t1) = (SimTime::ZERO, SimTime::from_us(1));
        let plan = FaultPlan::new(1)
            .link_flap(node, port, t0, t1)
            .degrade_window(node, port, 1_000_000_000, t0, t1)
            .loss_window(node, port, 0.25, t0, t1)
            .at(t0, FaultKind::SwitchReboot { node })
            .telemetry_freeze(node, t0, t1)
            .telemetry_blank(node, t0, t1);
        // One entry at the (node, port) the fault names — `u16::MAX` for a
        // node-wide fault — with the detail it executed with.
        let link = *topo.port(node, port);
        let peer = FaultDetail::Peer {
            node: link.peer_node,
            port: link.peer_port,
        };
        let expected = |kind: &FaultKind| -> Vec<Record> {
            let (port, detail) = match *kind {
                FaultKind::LinkDown { .. } | FaultKind::LinkUp { .. } => (port, peer),
                FaultKind::DegradeLink { .. } => (port, FaultDetail::RateBps(1_000_000_000)),
                FaultKind::RestoreLinkRate { .. } => (port, FaultDetail::None),
                FaultKind::PacketLoss { frac, .. } => (port, FaultDetail::LossFrac(frac)),
                // Nothing was queued: the reboot flushes no packet.
                FaultKind::SwitchReboot { .. } => (PortId(u16::MAX), FaultDetail::Flushed(0)),
                _ => (PortId(u16::MAX), FaultDetail::None),
            };
            vec![(kind.name(), node, port, detail)]
        };
        let observed = |mut sim: Simulator| {
            sim.enable_profiling();
            sim
        };
        let cfg = SimConfig::default;
        let mut whole = observed(Simulator::new(topo.clone(), cfg()));
        let mut shards: Vec<Simulator> = (0..2)
            .map(|s| observed(Simulator::new_sharded(topo.clone(), cfg(), &shard_plan, s)))
            .collect();
        let mut names = std::collections::BTreeSet::new();
        for (i, ev) in plan.events.iter().enumerate() {
            let (kind, executed) = (&ev.kind, i as u64 + 1);
            names.insert(kind.name());
            whole.core_mut().apply_fault(*kind);
            let want = (expected(kind), executed, executed);
            assert_eq!(reported(&mut whole), want, "{kind:?}");

            let mut sum = (Vec::new(), 0, 0);
            for shard in shards.iter_mut() {
                shard.core_mut().apply_fault(*kind);
                let (log, instants, count) = reported(shard);
                sum.0.extend(log);
                sum.1 += instants;
                sum.2 += count;
            }
            assert_eq!(sum, want, "{kind:?} over two shards");
        }
        assert_eq!(names.len(), 9, "the plan covers every FaultKind");
    }

    /// A plan whose endpoints do not fit the topology is refused with the
    /// typed error naming the event, before anything is scheduled.
    #[test]
    fn install_checks_endpoints_against_the_topology() {
        let (mut sim, _got) = two_host_sim(10_000_000_000);
        let (sw, host) = (sim.core().topo.switches()[0], sim.core().topo.hosts()[0]);
        let (node, port) = (NodeId(5000), PortId(99));
        type Refusal = fn(usize, FaultKind) -> FaultPlanError;
        let cases: [(FaultKind, Refusal, String); 3] = [
            (
                FaultKind::LinkDown { node, port },
                |event, kind| FaultPlanError::UnknownNode { event, kind },
                "event 1 (link_down): node 5000 does not exist".into(),
            ),
            (
                FaultKind::LinkUp { node: host, port },
                |event, kind| FaultPlanError::UnknownPort { event, kind },
                format!("event 1 (link_up): node {} has no port 99", host.0),
            ),
            (
                FaultKind::SwitchReboot { node: host },
                |event, kind| FaultPlanError::SwitchOnlyFault { event, kind },
                format!(
                    "event 1 (switch_reboot): node {} is a host; this fault applies to switches only",
                    host.0
                ),
            ),
        ];
        let pending = sim.core().events.len();
        for (kind, refusal, says) in cases {
            let plan = FaultPlan::new(1)
                .at(SimTime::from_us(1), FaultKind::TelemetryBlank { node: sw })
                .at(SimTime::from_us(2), kind);
            let err = sim.install_fault_plan(&plan).unwrap_err();
            assert_eq!(err, refusal(1, kind));
            assert_eq!(err.to_string(), says);
            assert_eq!(sim.core().events.len(), pending, "{err}: nothing scheduled");
        }
        // Port faults may name hosts.
        let (t0, t1) = (SimTime::from_us(1), SimTime::from_us(2));
        let plan = FaultPlan::new(1).loss_window(host, PortId(0), 0.1, t0, t1);
        sim.install_fault_plan(&plan).unwrap();
        assert_eq!(sim.core().events.len(), pending + 2);
    }
}
