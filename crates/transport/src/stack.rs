//! The per-host protocol stack: multiplexes DCQCN / DCTCP / Reno flows over
//! one NIC, implements the receiver sides (CNP generation, cumulative ACKs),
//! measures FCTs and drives closed-loop applications.

use crate::app::{AppHook, CompletedMsg};
use crate::dcqcn::{DcqcnConfig, DcqcnState};
use crate::msg::{CcKind, Message};
use crate::stats::{FlowRecord, SharedFct};
use crate::window::{AckAction, WindowFlavor, WindowState, RTO};
use netsim::ids::{PRIO_CTRL, PRIO_RDMA};
use netsim::packet::HEADER_BYTES;
use netsim::prelude::*;
use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Timer-token kinds (low 3 bits of the token).
const TK_PACE: u64 = 0;
const TK_ALPHA: u64 = 1;
const TK_RATE: u64 = 2;
const TK_RTO: u64 = 3;
const TK_MSGSTART: u64 = 5;

#[inline]
fn tok(seq: u64, kind: u64) -> u64 {
    (seq << 3) | kind
}

/// NIC egress backlog (per class) above which senders defer, bytes: eight
/// wire MTUs.
fn backlog_limit(mtu_payload: u32) -> u64 {
    8 * (mtu_payload + HEADER_BYTES) as u64
}

/// Configuration shared by every flow on a stack. The Reno/DCTCP constants
/// live in [`crate::window`].
#[derive(Clone, Debug, Default)]
pub struct StackConfig {
    /// DCQCN parameters.
    pub dcqcn: DcqcnConfig,
}

/// Congestion-control state of one sending flow.
enum CcState {
    Dcqcn(DcqcnState),
    Window(WindowState),
}

struct SendFlow {
    flow: FlowId,
    dst: NodeId,
    bytes: u64,
    prio: Prio,
    ect: bool,
    snd_nxt: u64,
    snd_una: u64,
    /// Waiting in the stack's ready ring for NIC room.
    in_ready: bool,
    cc: CcState,
}

#[derive(Debug, Default)]
struct RecvFlow {
    expected: u64,
    last_cnp: Option<SimTime>,
    done: bool,
}

struct PendingMsg {
    at: SimTime,
    ord: u64,
    msg: Message,
}

impl PartialEq for PendingMsg {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.ord == o.ord
    }
}
impl Eq for PendingMsg {}
impl PartialOrd for PendingMsg {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for PendingMsg {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.at.cmp(&o.at).then(self.ord.cmp(&o.ord))
    }
}

/// Hasher for the flow tables: one multiply and one fold per `u64` key in
/// place of SipHash, which was 4–7 % of a packet run (both tables are probed
/// on every pace timer and every data packet). Flow ids are
/// `host << 32 | seq`, so the fold brings the host bits down to where the
/// table takes its bucket index from. Keys come from this program, never
/// from outside it, so there is no collision attack to resist; and
/// iteration order is never observed — nothing iterates either table
/// outside a one-entry test, and the default `RandomState` made the order
/// unobservable already — so results cannot depend on the hash.
#[derive(Default)]
struct FlowKeyHasher(u64);

impl Hasher for FlowKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type FlowMap<V> = HashMap<u64, V, BuildHasherDefault<FlowKeyHasher>>;

/// The [`NicDriver`] implementing all host-side protocol behaviour.
pub struct HostStack {
    host: NodeId,
    cfg: StackConfig,
    fct: SharedFct,
    app: Option<Rc<RefCell<dyn AppHook>>>,
    flows: FlowMap<SendFlow>,
    recv: FlowMap<RecvFlow>,
    pending: BinaryHeap<Reverse<PendingMsg>>,
    /// Flows whose pacer/window allows sending but that found the NIC
    /// backlog full; drained round-robin on TX completions (the way real
    /// NICs arbitrate their active send queues).
    ready: std::collections::VecDeque<u64>,
    next_seq: u64,
    next_ord: u64,
    /// RDMA packets that arrived out of sequence (must stay 0 when PFC works).
    pub rdma_sequence_errors: u64,
    /// CNPs received (sender side).
    pub cnp_rx: u64,
    /// CNPs generated (receiver side).
    pub cnp_tx: u64,
}

impl HostStack {
    /// Build a stack for `host` reporting FCTs into `fct`.
    pub fn new(host: NodeId, cfg: StackConfig, fct: SharedFct) -> Self {
        HostStack {
            host,
            cfg,
            fct,
            app: None,
            flows: FlowMap::default(),
            recv: FlowMap::default(),
            pending: BinaryHeap::new(),
            ready: std::collections::VecDeque::new(),
            next_seq: 1,
            next_ord: 0,
            rdma_sequence_errors: 0,
            cnp_rx: 0,
            cnp_tx: 0,
        }
    }

    /// Attach the closed-loop application hook.
    pub fn set_app_hook(&mut self, hook: Rc<RefCell<dyn AppHook>>) {
        self.app = Some(hook);
    }

    /// Reserve capacity for `n_send` locally originated messages and
    /// `n_recv` messages terminating here. Workload installers call this
    /// with per-host totals so the steady-state run never rehashes a flow
    /// map or grows the pending/ready queues.
    pub fn reserve(&mut self, n_send: usize, n_recv: usize) {
        self.flows.reserve(n_send);
        self.pending.reserve(n_send);
        self.ready.reserve(n_send);
        self.recv.reserve(n_recv);
    }

    /// Number of flows this stack is currently sending.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// The FCT collector this stack records into (sharded harnesses reach
    /// through any owned host's stack to extract the shard's records).
    pub fn fct(&self) -> SharedFct {
        self.fct.clone()
    }

    /// Queue `msg` to start at absolute time `at`.
    pub fn schedule_message(&mut self, ctx: &mut HostCtx<'_>, at: SimTime, msg: Message) {
        let at = at.max(ctx.now());
        let ord = self.next_ord;
        self.next_ord += 1;
        self.pending.push(Reverse(PendingMsg { at, ord, msg }));
        ctx.set_timer_at(at, TK_MSGSTART);
    }

    /// Start `msg` right now.
    pub fn start_message(&mut self, ctx: &mut HostCtx<'_>, msg: Message) {
        assert!(msg.bytes > 0, "empty message");
        assert!(msg.dst != self.host, "message to self");
        let seq = self.next_seq;
        self.next_seq += 1;
        let flow = FlowId(((self.host.0 as u64) << 32) | seq);
        let now = ctx.now();
        self.fct.borrow_mut().register(FlowRecord {
            flow,
            src: self.host,
            dst: msg.dst,
            bytes: msg.bytes,
            prio: msg.cc.prio(),
            tag: msg.tag,
            start: now,
            end: None,
        });
        let line = ctx.line_rate_bps() as f64;
        let cc = match msg.cc {
            CcKind::Dcqcn => CcState::Dcqcn(DcqcnState::new(line, now)),
            CcKind::Dctcp => CcState::Window(WindowState::new(
                WindowFlavor::Dctcp,
                ctx.mtu_payload(),
                now,
            )),
            CcKind::Reno => {
                CcState::Window(WindowState::new(WindowFlavor::Reno, ctx.mtu_payload(), now))
            }
        };
        self.flows.insert(
            seq,
            SendFlow {
                flow,
                dst: msg.dst,
                bytes: msg.bytes,
                prio: msg.cc.prio(),
                ect: msg.cc.ect(),
                snd_nxt: 0,
                snd_una: 0,
                in_ready: false,
                cc,
            },
        );
        match msg.cc {
            CcKind::Dcqcn => {
                self.dcqcn_pace(seq, ctx);
                ctx.set_timer_after(self.cfg.dcqcn.alpha_timer, tok(seq, TK_ALPHA));
                ctx.set_timer_after(self.cfg.dcqcn.rate_inc_timer, tok(seq, TK_RATE));
            }
            CcKind::Dctcp | CcKind::Reno => {
                // First DCTCP observation window ends at the initial cwnd.
                if let Some(SendFlow {
                    cc: CcState::Window(st),
                    ..
                }) = self.flows.get_mut(&seq)
                {
                    st.window_end = (st.cwnd as u64).min(msg.bytes);
                }
                self.window_send(seq, ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Sending machinery
    // ------------------------------------------------------------------

    fn dcqcn_pace(&mut self, seq: u64, ctx: &mut HostCtx<'_>) {
        let mtu = ctx.mtu_payload();
        let line = ctx.line_rate_bps() as f64;
        let backlog_limit = backlog_limit(mtu);
        let Some(f) = self.flows.get_mut(&seq) else {
            return;
        };
        let CcState::Dcqcn(_) = &f.cc else {
            return;
        };
        if f.snd_nxt >= f.bytes {
            return; // fully sent; waiting for the fin ACK
        }
        if ctx.egress_backlog_bytes(f.prio) >= backlog_limit {
            // NIC backlogged (aggregate of flows exceeds line rate or PFC
            // pause): park the flow in the ready ring; `on_tx_ready` resumes
            // it round-robin when the NIC drains, which is how real NICs
            // arbitrate active send queues (per-packet round-robin over
            // QPs). A timer here would phase-lock with the serialization
            // period and starve flows.
            if !f.in_ready {
                f.in_ready = true;
                self.ready.push_back(seq);
            }
            return;
        }
        let payload = mtu.min((f.bytes - f.snd_nxt) as u32);
        let last = f.snd_nxt + payload as u64 == f.bytes;
        let pkt = Packet::data(
            f.flow,
            self.host,
            f.dst,
            f.prio,
            f.snd_nxt,
            payload,
            last,
            Ecn::Ect,
        );
        f.snd_nxt += payload as u64;
        let wire = (payload + HEADER_BYTES) as u64;
        let CcState::Dcqcn(st) = &mut f.cc else {
            unreachable!("checked above");
        };
        st.on_bytes_sent(&self.cfg.dcqcn, wire, line);
        if f.snd_nxt < f.bytes {
            let delay = st.pace_delay(wire);
            ctx.set_timer_after(delay, tok(seq, TK_PACE));
        }
        ctx.send(pkt);
    }

    fn window_send(&mut self, seq: u64, ctx: &mut HostCtx<'_>) {
        let mtu = ctx.mtu_payload();
        let backlog_limit = backlog_limit(mtu);
        loop {
            let Some(f) = self.flows.get_mut(&seq) else {
                return;
            };
            let CcState::Window(st) = &mut f.cc else {
                return;
            };
            if f.snd_nxt >= f.bytes {
                return; // all data (re)sent; wait for ACKs
            }
            if st.usable(f.snd_una, f.snd_nxt) == 0 {
                return; // window full; ACKs will reopen it
            }
            if ctx.egress_backlog_bytes(f.prio) >= backlog_limit {
                if !f.in_ready {
                    f.in_ready = true;
                    self.ready.push_back(seq);
                }
                return;
            }
            let payload = mtu.min((f.bytes - f.snd_nxt) as u32);
            let last = f.snd_nxt + payload as u64 == f.bytes;
            let ecn = if f.ect { Ecn::Ect } else { Ecn::NotEct };
            let pkt = Packet::data(
                f.flow, self.host, f.dst, f.prio, f.snd_nxt, payload, last, ecn,
            );
            f.snd_nxt += payload as u64;
            if !st.rto_pending {
                st.rto_pending = true;
                ctx.set_timer_after(RTO, tok(seq, TK_RTO));
            }
            ctx.send(pkt);
        }
    }

    // ------------------------------------------------------------------
    // Timer dispatch
    // ------------------------------------------------------------------

    fn on_msgstart(&mut self, ctx: &mut HostCtx<'_>) {
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.at > ctx.now() {
                break;
            }
            let Reverse(p) = self.pending.pop().unwrap();
            self.start_message(ctx, p.msg);
        }
    }

    fn on_alpha_timer(&mut self, seq: u64, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let interval = self.cfg.dcqcn.alpha_timer;
        if let Some(SendFlow {
            cc: CcState::Dcqcn(st),
            ..
        }) = self.flows.get_mut(&seq)
        {
            st.on_alpha_timer(&self.cfg.dcqcn, now);
            ctx.set_timer_after(interval, tok(seq, TK_ALPHA));
        }
    }

    fn on_rate_timer(&mut self, seq: u64, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let line = ctx.line_rate_bps() as f64;
        let interval = self.cfg.dcqcn.rate_inc_timer;
        if let Some(SendFlow {
            cc: CcState::Dcqcn(st),
            ..
        }) = self.flows.get_mut(&seq)
        {
            st.on_rate_timer(&self.cfg.dcqcn, now, line);
            ctx.set_timer_after(interval, tok(seq, TK_RATE));
        }
    }

    fn on_rto(&mut self, seq: u64, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let mut resend = false;
        {
            let Some(f) = self.flows.get_mut(&seq) else {
                return;
            };
            let CcState::Window(st) = &mut f.cc else {
                return;
            };
            st.rto_pending = false;
            let quiet = now.saturating_sub(st.last_progress);
            if quiet >= RTO && f.snd_nxt > f.snd_una {
                st.on_rto();
                st.last_progress = now;
                f.snd_nxt = f.snd_una;
                resend = true;
                st.rto_pending = true;
                ctx.set_timer_after(RTO, tok(seq, TK_RTO));
            } else if f.snd_nxt > f.snd_una {
                st.rto_pending = true;
                ctx.set_timer_at(st.last_progress + RTO, tok(seq, TK_RTO));
            }
        }
        if resend {
            self.window_send(seq, ctx);
        }
    }

    /// Drain the ready ring into whatever NIC room is available, round
    /// robin across flows (re-parking flows that are still blocked).
    fn drain_ready(&mut self, ctx: &mut HostCtx<'_>) {
        let n = self.ready.len();
        for _ in 0..n {
            let Some(seq) = self.ready.pop_front() else {
                break;
            };
            let Some(f) = self.flows.get_mut(&seq) else {
                continue; // flow finished while parked
            };
            f.in_ready = false;
            match f.cc {
                CcState::Dcqcn(_) => self.dcqcn_pace(seq, ctx),
                CcState::Window(_) => self.window_send(seq, ctx),
            }
        }
    }

    // ------------------------------------------------------------------
    // Receive paths
    // ------------------------------------------------------------------

    fn on_data(
        &mut self,
        pkt: &Packet,
        offset: u64,
        payload: u32,
        last: bool,
        ctx: &mut HostCtx<'_>,
    ) {
        let now = ctx.now();
        let raw = pkt.flow.0;
        let cnp_interval = self.cfg.dcqcn.cnp_interval;
        let mut completed: Option<u64> = None; // total bytes, when finishing
        {
            let r = self.recv.entry(raw).or_default();
            if r.done {
                // Stray retransmission after completion: re-ACK so the
                // sender can clean up (TCP classes only; RDMA is lossless).
                if pkt.prio != PRIO_RDMA {
                    let ack = Packet::ack(
                        pkt.flow, self.host, pkt.src, pkt.prio, r.expected, false, true,
                    );
                    ctx.send(ack);
                }
                return;
            }
            if pkt.prio == PRIO_RDMA {
                // DCQCN notification point: at most one CNP per interval.
                if pkt.ecn == Ecn::Ce && r.last_cnp.is_none_or(|t| now - t >= cnp_interval) {
                    r.last_cnp = Some(now);
                    self.cnp_tx += 1;
                    let cnp = Packet::cnp(pkt.flow, self.host, pkt.src, PRIO_CTRL);
                    ctx.send(cnp);
                }
                if offset != r.expected {
                    self.rdma_sequence_errors += 1;
                    return;
                }
                r.expected += payload as u64;
                if last {
                    r.done = true;
                    completed = Some(r.expected);
                    let fin = Packet::ack(
                        pkt.flow, self.host, pkt.src, PRIO_CTRL, r.expected, false, true,
                    );
                    ctx.send(fin);
                }
            } else {
                let mut fin = false;
                if offset == r.expected {
                    r.expected += payload as u64;
                    if last {
                        fin = true;
                        r.done = true;
                        completed = Some(r.expected);
                    }
                }
                // Cumulative ACK (also serves as a duplicate ACK on gaps).
                let ack = Packet::ack(
                    pkt.flow,
                    self.host,
                    pkt.src,
                    pkt.prio,
                    r.expected,
                    pkt.ecn == Ecn::Ce,
                    fin,
                );
                ctx.send(ack);
            }
        }
        if let Some(total) = completed {
            self.finish_receive(pkt, total, ctx);
        }
    }

    /// Record completion and run the app hook.
    fn finish_receive(&mut self, pkt: &Packet, total_bytes: u64, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let (tag, start) = {
            let mut fct = self.fct.borrow_mut();
            if fct.get(pkt.flow).is_some() {
                fct.complete(pkt.flow, now);
                let rec = fct.get(pkt.flow).expect("completed unknown flow");
                (rec.tag, rec.start)
            } else {
                // Sharded run, cross-shard flow: the sender registered in
                // its own shard's collector. Record the receiver half here
                // (start/tag unknown on this side); the harness joins the
                // two halves by flow id ([`crate::stats::merge_shard_fct`]).
                // App hooks see a degenerate start==end for such flows, so
                // closed-loop apps are unsupported in sharded runs.
                debug_assert!(
                    !ctx.owns_node(pkt.src),
                    "flow {} completed but never registered",
                    pkt.flow
                );
                fct.register(FlowRecord {
                    flow: pkt.flow,
                    src: pkt.src,
                    dst: self.host,
                    bytes: total_bytes,
                    prio: pkt.prio,
                    tag: 0,
                    start: now,
                    end: Some(now),
                });
                (0, now)
            }
        };
        if let Some(app) = self.app.clone() {
            let done = CompletedMsg {
                flow: pkt.flow,
                src: pkt.src,
                dst: self.host,
                bytes: total_bytes,
                tag,
                start,
                end: now,
            };
            let follow_ups = app.borrow_mut().on_message_received(&done);
            for (delay, m) in follow_ups {
                if delay == SimTime::ZERO {
                    self.start_message(ctx, m);
                } else {
                    self.schedule_message(ctx, now + delay, m);
                }
            }
        }
    }

    fn on_ack(
        &mut self,
        pkt: &Packet,
        cum_ack: u64,
        ce_echo: bool,
        fin: bool,
        ctx: &mut HostCtx<'_>,
    ) {
        let seq = pkt.flow.0 & 0xffff_ffff;
        let now = ctx.now();
        let mut retransmit = false;
        let mut remove = false;
        {
            let Some(f) = self.flows.get_mut(&seq) else {
                return; // flow already finished
            };
            match &mut f.cc {
                CcState::Dcqcn(_) => {
                    if fin {
                        remove = true;
                    }
                }
                CcState::Window(st) => {
                    let action = st.on_ack(cum_ack, ce_echo, f.snd_una, f.snd_nxt, now);
                    if cum_ack > f.snd_una {
                        f.snd_una = cum_ack;
                    }
                    if fin || f.snd_una >= f.bytes {
                        remove = true;
                    } else if action == AckAction::Retransmit {
                        f.snd_nxt = f.snd_una;
                        retransmit = true;
                    }
                }
            }
        }
        if remove {
            self.flows.remove(&seq);
            return;
        }
        if retransmit {
            self.window_send(seq, ctx);
        } else {
            // Window may have opened.
            if matches!(
                self.flows.get(&seq).map(|f| &f.cc),
                Some(CcState::Window(_))
            ) {
                self.window_send(seq, ctx);
            }
        }
    }

    fn on_cnp(&mut self, pkt: &Packet, ctx: &mut HostCtx<'_>) {
        let seq = pkt.flow.0 & 0xffff_ffff;
        self.cnp_rx += 1;
        let now = ctx.now();
        if let Some(SendFlow {
            cc: CcState::Dcqcn(st),
            ..
        }) = self.flows.get_mut(&seq)
        {
            st.on_cnp(&self.cfg.dcqcn, now);
            let _ = ctx; // pacing timer picks up the new rate on next fire
        }
    }
}

impl NicDriver for HostStack {
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut HostCtx<'_>) {
        match pkt.kind {
            PacketKind::Data {
                offset,
                payload,
                last,
            } => self.on_data(pkt, offset, payload, last, ctx),
            PacketKind::Ack {
                cum_ack,
                ce_echo,
                fin,
            } => self.on_ack(pkt, cum_ack, ce_echo, fin, ctx),
            PacketKind::Cnp => self.on_cnp(pkt, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        let seq = token >> 3;
        match token & 0b111 {
            TK_PACE => self.dcqcn_pace(seq, ctx),
            TK_ALPHA => self.on_alpha_timer(seq, ctx),
            TK_RATE => self.on_rate_timer(seq, ctx),
            TK_RTO => self.on_rto(seq, ctx),
            TK_MSGSTART => self.on_msgstart(ctx),
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_tx_ready(&mut self, ctx: &mut HostCtx<'_>) {
        if !self.ready.is_empty() {
            self.drain_ready(ctx);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::FctCollector;

    fn sim_with_stacks(
        n_hosts: usize,
        host_bps: u64,
        cfg: SimConfig,
    ) -> (Simulator, Vec<NodeId>, SharedFct) {
        let topo = TopologySpec::single_switch(n_hosts, host_bps, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, cfg);
        let fct = FctCollector::new_shared();
        let hosts = crate::install_stacks(&mut sim, StackConfig::default(), &fct);
        (sim, hosts, fct)
    }

    #[test]
    fn dcqcn_single_flow_near_line_rate() {
        let (mut sim, hosts, fct) = sim_with_stacks(2, 25_000_000_000, SimConfig::default());
        let bytes = 10_000_000u64; // 10 MB
        crate::schedule_message(
            &mut sim,
            hosts[0],
            SimTime::ZERO,
            Message::new(hosts[1], bytes, CcKind::Dcqcn),
        );
        sim.run_until(SimTime::from_ms(20));
        let fct = fct.borrow();
        assert_eq!(fct.completed_count(), 1);
        let rec = fct.completed().next().unwrap();
        let fct_s = rec.fct().unwrap().as_secs_f64();
        // Goodput: payload only; wire adds ~4.8% headers. Expect >= 90% of line.
        let goodput = bytes as f64 * 8.0 / fct_s;
        assert!(
            goodput > 0.90 * 25e9,
            "goodput {:.2} Gbps too low",
            goodput / 1e9
        );
        assert_eq!(sim.core().total_drops, 0);
    }

    #[test]
    fn dcqcn_incast_completes_losslessly_with_small_queue() {
        // 4:1 incast, small ECN threshold keeps the queue short.
        let mut cfg = SimConfig::default();
        cfg.port.ecn[PRIO_RDMA as usize] = Some(EcnConfig::new(50 * 1024, 200 * 1024, 0.05));
        let (mut sim, hosts, fct) = sim_with_stacks(5, 25_000_000_000, cfg);
        for s in 0..4 {
            crate::schedule_message(
                &mut sim,
                hosts[s],
                SimTime::ZERO,
                Message::new(hosts[4], 2_000_000, CcKind::Dcqcn),
            );
        }
        sim.run_until(SimTime::from_ms(50));
        assert_eq!(fct.borrow().completed_count(), 4);
        assert_eq!(sim.core().total_drops, 0);
        // All four finished within 2.5x of each other (rough fairness).
        let fcts: Vec<f64> = fct
            .borrow()
            .completed()
            .map(|r| r.fct().unwrap().as_secs_f64())
            .collect();
        let min = fcts.iter().cloned().fold(f64::MAX, f64::min);
        let max = fcts.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 2.5, "unfair: min={min} max={max}");
    }

    #[test]
    fn dcqcn_cnps_reduce_rate_under_congestion() {
        let mut cfg = SimConfig::default();
        cfg.port.ecn[PRIO_RDMA as usize] = Some(EcnConfig::new(20 * 1024, 80 * 1024, 0.1));
        let (mut sim, hosts, _fct) = sim_with_stacks(3, 25_000_000_000, cfg);
        for s in 0..2 {
            crate::schedule_message(
                &mut sim,
                hosts[s],
                SimTime::ZERO,
                Message::new(hosts[2], 20_000_000, CcKind::Dcqcn),
            );
        }
        sim.run_until(SimTime::from_ms(2));
        // Mid-transfer, inspect the sender's DCQCN rate: must be well below
        // line rate because of CNPs.
        sim.with_driver(hosts[0], |d, _| {
            let stack = d.as_any_mut().downcast_mut::<HostStack>().unwrap();
            let f = stack.flows.values().next().expect("flow active");
            if let CcState::Dcqcn(st) = &f.cc {
                assert!(
                    st.rate_c < 20e9,
                    "rate should have been cut, rate_c={:.2}G",
                    st.rate_c / 1e9
                );
                assert!(st.alpha > 0.0);
            } else {
                panic!("expected dcqcn flow");
            }
        });
    }

    #[test]
    fn reno_flow_completes_over_droptail() {
        let mut cfg = SimConfig::default();
        cfg.port.max_queue_bytes[0] = 64 * 1024; // shallow TCP queue
        let (mut sim, hosts, fct) = sim_with_stacks(3, 10_000_000_000, cfg);
        for s in 0..2 {
            crate::schedule_message(
                &mut sim,
                hosts[s],
                SimTime::ZERO,
                Message::new(hosts[2], 5_000_000, CcKind::Reno),
            );
        }
        sim.run_until(SimTime::from_ms(200));
        assert_eq!(
            fct.borrow().completed_count(),
            2,
            "both flows finish despite drops (drops={})",
            sim.core().total_drops
        );
    }

    #[test]
    fn dctcp_keeps_queue_shorter_than_reno() {
        // Two senders, one receiver; compare time-average queue depth of the
        // TCP class under DCTCP (marking at 30KB) vs Reno (drop-tail only).
        fn run(cc: CcKind) -> f64 {
            let mut cfg = SimConfig::default();
            cfg.port.ecn[0] = Some(EcnConfig::new(30 * 1024, 30 * 1024, 1.0));
            cfg.port.max_queue_bytes[0] = 1024 * 1024;
            let (mut sim, hosts, _fct) = sim_with_stacks(3, 10_000_000_000, cfg);
            for s in 0..2 {
                crate::schedule_message(
                    &mut sim,
                    hosts[s],
                    SimTime::ZERO,
                    Message::new(hosts[2], 20_000_000, cc),
                );
            }
            let horizon = SimTime::from_ms(20);
            sim.run_until(horizon);
            let sw = sim.core().topo.switches()[0];
            let t = sim.core_mut().synced_queue_telem(sw, PortId(2), 0);
            t.qlen_integral_byte_ps as f64 / horizon.as_ps() as f64
        }
        let dctcp_q = run(CcKind::Dctcp);
        let reno_q = run(CcKind::Reno);
        assert!(
            dctcp_q < reno_q / 2.0,
            "DCTCP avg queue {dctcp_q:.0}B should be far below Reno {reno_q:.0}B"
        );
    }

    #[test]
    fn scheduled_messages_start_on_time() {
        let (mut sim, hosts, fct) = sim_with_stacks(2, 25_000_000_000, SimConfig::default());
        crate::schedule_message(
            &mut sim,
            hosts[0],
            SimTime::from_ms(3),
            Message::new(hosts[1], 1000, CcKind::Dcqcn),
        );
        sim.run_until(SimTime::from_ms(2));
        assert_eq!(fct.borrow().total_count(), 0, "not started yet");
        sim.run_until(SimTime::from_ms(10));
        let b = fct.borrow();
        assert_eq!(b.completed_count(), 1);
        assert_eq!(b.completed().next().unwrap().start, SimTime::from_ms(3));
    }

    #[test]
    fn many_small_messages_all_complete() {
        let (mut sim, hosts, fct) = sim_with_stacks(4, 25_000_000_000, SimConfig::default());
        let mut n = 0;
        for s in 0..3 {
            for k in 0..50 {
                crate::schedule_message(
                    &mut sim,
                    hosts[s],
                    SimTime::from_us(k * 20),
                    Message::new(hosts[3], 1_000 + k * 137, CcKind::Dcqcn),
                );
                n += 1;
            }
        }
        sim.run_until(SimTime::from_ms(100));
        assert_eq!(fct.borrow().completed_count(), n);
        assert_eq!(fct.borrow().unfinished().count(), 0);
    }

    #[test]
    fn app_hook_chains_messages() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Ping-pong: every received message under 5 hops triggers a reply.
        struct PingPong {
            hops: u64,
        }
        impl AppHook for PingPong {
            fn on_message_received(&mut self, m: &CompletedMsg) -> Vec<(SimTime, Message)> {
                if m.tag < self.hops {
                    vec![(
                        SimTime::from_us(m.tag), // growing think-time per hop
                        Message::new(m.src, m.bytes, CcKind::Dcqcn).with_tag(m.tag + 1),
                    )]
                } else {
                    vec![]
                }
            }
        }
        let (mut sim, hosts, fct) = sim_with_stacks(2, 25_000_000_000, SimConfig::default());
        crate::set_app_hook(&mut sim, Rc::new(RefCell::new(PingPong { hops: 5 })));
        crate::schedule_message(
            &mut sim,
            hosts[0],
            SimTime::ZERO,
            Message::new(hosts[1], 10_000, CcKind::Dcqcn).with_tag(0),
        );
        sim.run_until(SimTime::from_ms(10));
        // tags 0..=5 -> 6 messages total.
        assert_eq!(fct.borrow().completed_count(), 6);
    }

    #[test]
    fn duplicate_final_segment_is_reacked_for_tcp() {
        // After a TCP flow completes, a stray retransmission of the last
        // segment must be re-ACKed with fin so the sender can clean up.
        let (mut sim, hosts, fct) = sim_with_stacks(2, 25_000_000_000, SimConfig::default());
        crate::schedule_message(
            &mut sim,
            hosts[0],
            SimTime::ZERO,
            Message::new(hosts[1], 50_000, CcKind::Reno),
        );
        sim.run_until(SimTime::from_ms(20));
        assert_eq!(fct.borrow().completed_count(), 1);
        // Sender state must be gone (fin processed).
        sim.with_driver(hosts[0], |d, _| {
            let st = d.as_any_mut().downcast_mut::<HostStack>().unwrap();
            assert_eq!(st.active_flows(), 0);
        });
    }

    #[test]
    fn cnp_counters_track_marking() {
        let mut cfg = SimConfig::default();
        cfg.port.ecn[PRIO_RDMA as usize] = Some(EcnConfig::new(5_000, 5_000, 1.0));
        let (mut sim, hosts, _fct) = sim_with_stacks(3, 25_000_000_000, cfg);
        for s in 0..2 {
            crate::schedule_message(
                &mut sim,
                hosts[s],
                SimTime::ZERO,
                Message::new(hosts[2], 5_000_000, CcKind::Dcqcn),
            );
        }
        sim.run_until(SimTime::from_ms(10));
        let rx_cnps = sim.with_driver(hosts[2], |d, _| {
            d.as_any_mut().downcast_mut::<HostStack>().unwrap().cnp_tx
        });
        let tx_cnps: u64 = (0..2)
            .map(|s| {
                sim.with_driver(hosts[s], |d, _| {
                    d.as_any_mut().downcast_mut::<HostStack>().unwrap().cnp_rx
                })
            })
            .sum();
        assert!(rx_cnps > 0, "marked packets must generate CNPs");
        assert_eq!(rx_cnps, tx_cnps, "every CNP must arrive (ctrl class)");
    }

    #[test]
    fn message_to_self_rejected() {
        let (mut sim, hosts, _fct) = sim_with_stacks(2, 25_000_000_000, SimConfig::default());
        let h = hosts[0];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.with_driver(h, |d, ctx| {
                d.as_any_mut()
                    .downcast_mut::<HostStack>()
                    .unwrap()
                    .start_message(ctx, Message::new(h, 1000, CcKind::Dcqcn));
            });
        }));
        assert!(result.is_err(), "self-addressed message must panic");
    }

    #[test]
    fn fct_stats_slice_by_tag() {
        let (mut sim, hosts, fct) = sim_with_stacks(3, 25_000_000_000, SimConfig::default());
        for k in 0..10u64 {
            crate::schedule_message(
                &mut sim,
                hosts[0],
                SimTime::from_us(k * 50),
                Message::new(hosts[2], 10_000, CcKind::Dcqcn).with_tag(k % 2),
            );
        }
        sim.run_until(SimTime::from_ms(20));
        let f = fct.borrow();
        assert_eq!(f.stats(|r| r.tag == 0).count, 5);
        assert_eq!(f.stats(|r| r.tag == 1).count, 5);
    }

    #[test]
    fn mixed_transports_coexist() {
        let (mut sim, hosts, fct) = sim_with_stacks(3, 25_000_000_000, SimConfig::default());
        crate::schedule_message(
            &mut sim,
            hosts[0],
            SimTime::ZERO,
            Message::new(hosts[2], 3_000_000, CcKind::Dcqcn),
        );
        crate::schedule_message(
            &mut sim,
            hosts[1],
            SimTime::ZERO,
            Message::new(hosts[2], 3_000_000, CcKind::Reno),
        );
        sim.run_until(SimTime::from_ms(100));
        assert_eq!(fct.borrow().completed_count(), 2);
    }
}
