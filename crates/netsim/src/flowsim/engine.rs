//! The flow-level discrete-event engine: slab-allocated flow states,
//! per-link intrusive active lists, and one re-keyable completion timer
//! per active flow.
//!
//! Three event sources merge by `(time, seq)`, `seq` being one counter
//! bumped at every schedule, arm and re-key: a cursor over the arrivals
//! sorted at [`FlowSim::schedule_flows`], the armed control tick, and the
//! completion-timer heap (`timers.rs`). A flow costs two events — arrival
//! and completion — whatever its size and however often sharers move its
//! timer; what sharers cost is the rebalance, O(path + flows on it) per
//! arrival or departure. Steady state allocates nothing: everything is
//! reserved up front from the scheduled arrival count.

use super::bottleneck::LinkModel;
use super::timers::FlowTimers;
use crate::control::{ControllerHost, QueueController, SwitchView, ViewBackend};
use crate::ids::{FlowId, NodeId, PortId, Prio};
use crate::queues::EcnConfig;
use crate::routing::RouteTable;
use crate::time::{tx_time, SimTime};
use crate::topology::Topology;

/// Sentinel for "no entry" in the intrusive per-link flow lists.
pub const NIL: u32 = u32::MAX;

/// Maximum hops (directed links) a path may traverse. The 3-tier Clos
/// presets need 6 (host→ToR→agg→core→agg→ToR→host).
pub const MAX_HOPS: usize = 8;

/// One flow to simulate: the flow-level analogue of a scheduled
/// `workloads` arrival.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Application bytes to transfer.
    pub bytes: u64,
    /// Traffic class (recorded on the completion, not modeled).
    pub prio: Prio,
    /// Application-defined tag, carried through to [`FlowDone`].
    pub tag: u64,
    /// Arrival time.
    pub start: SimTime,
}

/// A completed flow, mirroring `transport::FlowRecord` so the bench layer
/// can register it into the same FCT collectors the packet engine feeds.
#[derive(Clone, Copy, Debug)]
pub struct FlowDone {
    /// Globally unique flow id (assignment order of [`FlowSim::schedule_flows`]).
    pub flow: FlowId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Application bytes transferred.
    pub bytes: u64,
    /// Traffic class.
    pub prio: Prio,
    /// Application tag from the spec.
    pub tag: u64,
    /// Flow start time.
    pub start: SimTime,
    /// Time the last data byte reached the receiver.
    pub end: SimTime,
}

/// Engine configuration; [`Default`] matches the packet engine's
/// [`crate::config::SimConfig`] defaults.
#[derive(Clone, Debug)]
pub struct FlowSimConfig {
    /// Maximum payload bytes per data packet; segmentation must match the
    /// packet engine's for the fast path to be exact.
    pub mtu_payload: u32,
    /// Control-plane tick interval (telemetry windows / controller
    /// cadence); `None` disables ticks entirely.
    pub control_interval: Option<SimTime>,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            mtu_payload: 1000,
            control_interval: Some(SimTime::from_us(50)),
        }
    }
}

/// A recipe for one [`QueueController`] per switch — the argument of
/// [`FlowSim::set_tuner`], kept for callers written against it. Nothing of
/// it runs after the install: the control tick sees only the controllers.
pub trait EcnTuner {
    /// The controller to put on one switch.
    fn controller(&self) -> Box<dyn QueueController>;
}

/// Counters describing one finished run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowSimStats {
    /// Events fired (arrivals + completions + control ticks).
    pub events_processed: u64,
    /// Events that fired as no-ops. Always 0 — a rate change moves the
    /// flow's one timer, leaving none to pop stale; kept for its readers.
    pub stale_events: u64,
    /// Flows priced entirely on the ideal-FCT fast path (never rescheduled).
    pub fast_path_flows: u64,
    /// Flows started.
    pub flows_started: u64,
    /// Flows that completed before the horizon.
    pub flows_completed: u64,
    /// Flows dropped because no route existed (failed links etc.).
    pub unrouted_flows: u64,
    /// High-water mark of concurrently active flows.
    pub peak_active_flows: u64,
    /// High-water mark of all pending entries: unfired arrivals + the
    /// armed control tick + live completion timers.
    pub peak_event_queue: usize,
    /// Rate changes rebalances granted; each re-keys the flow's timer unless
    /// the flow has drained and only its delivery tail is in flight.
    pub rate_updates: u64,
    /// Flows visited by rebalances (each recomputes one min-share).
    pub rebalance_scans: u64,
}

/// Per-flow simulation state in the slab.
#[derive(Clone, Debug)]
struct FlowState {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    prio: Prio,
    tag: u64,
    start: SimTime,
    /// Time `remaining_wire` was last advanced to.
    last_update: SimTime,
    /// Wire bytes (payload + headers) not yet drained from the source.
    remaining_wire: f64,
    /// Current granted rate, bps.
    rate_bps: f64,
    /// Fixed last-packet pipeline latency beyond the source drain:
    /// store-and-forward at every hop after the first plus propagation.
    tail: SimTime,
    /// Dedup stamp for rebalance scans.
    visit: u32,
    n_hops: u8,
    /// Still on the ideal-FCT fast path (never shared a link).
    uncontended: bool,
    /// Directed-link indices along the path.
    path: [u32; MAX_HOPS],
    /// Intrusive list next pointers (packed refs), one per hop.
    next: [u32; MAX_HOPS],
    /// Intrusive list prev pointers (packed refs), one per hop.
    prev: [u32; MAX_HOPS],
}

#[inline]
fn pack(flow_idx: u32, hop: usize) -> u32 {
    (flow_idx << 3) | hop as u32
}

#[inline]
fn unpack(r: u32) -> (usize, usize) {
    ((r >> 3) as usize, (r & 7) as usize)
}

/// Picoseconds to drain `wire_bytes` at `rate_bps` (f64 path for contended
/// flows; the fast path uses exact integer [`tx_time`] instead).
#[inline]
fn drain_time(wire_bytes: f64, rate_bps: f64) -> SimTime {
    if rate_bps <= 0.0 {
        return SimTime::MAX;
    }
    SimTime::from_ps((wire_bytes * 8.0 / rate_bps * 1e12).ceil() as u64)
}

/// The flow-level simulator.
///
/// Build with [`FlowSim::new`], load work with [`FlowSim::schedule_flows`],
/// optionally install [`QueueController`]s (the ordinary installers take any
/// [`ControllerHost`]), then [`FlowSim::run_until`]. Finished flows
/// accumulate in [`FlowSim::completions`].
pub struct FlowSim {
    topo: Topology,
    routes: RouteTable,
    cfg: FlowSimConfig,
    /// Directed links indexed `link_base[node] + port`.
    links: Vec<LinkModel>,
    link_base: Vec<u32>,
    flows: Vec<FlowState>,
    free: Vec<u32>,
    specs: Vec<FlowSpec>,
    /// `(start, seq, spec index)` sorted; fired up to `next_arrival`.
    arrivals: Vec<(SimTime, u64, usize)>,
    next_arrival: usize,
    /// The armed control tick, `(time, seq)`.
    next_tick: Option<(SimTime, u64)>,
    timers: FlowTimers,
    /// Shared schedule counter: equal-time events fire in schedule order.
    seq: u64,
    now: SimTime,
    completions: Vec<FlowDone>,
    /// Per-switch control plane, indexed by node; ticked in
    /// `topo.switches()` order. The first one installed arms the tick.
    controllers: Vec<Option<Box<dyn QueueController>>>,
    visit_gen: u32,
    /// Scratch: deduped flow indices touched by a rebalance.
    scratch: Vec<u32>,
    active_flows: u64,
    stats: FlowSimStats,
}

impl FlowSim {
    /// Build an engine over `topo` (ECMP routes are derived internally).
    pub fn new(topo: Topology, cfg: FlowSimConfig) -> FlowSim {
        let routes = RouteTable::build(&topo);
        let mut link_base = Vec::with_capacity(topo.nodes.len() + 1);
        let mut n_links = 0u32;
        for node in &topo.nodes {
            link_base.push(n_links);
            n_links += node.ports.len() as u32;
        }
        link_base.push(n_links);
        let mut links = Vec::with_capacity(n_links as usize);
        for (ni, node) in topo.nodes.iter().enumerate() {
            let from = NodeId(ni as u32);
            let marks = !topo.is_host(from);
            for (pi, port) in node.ports.iter().enumerate() {
                // Switch egress starts on the paper's DCQCN profile, as the
                // packet engine's RDMA class does.
                let ecn = marks.then_some(EcnConfig::dcqcn_paper());
                links.push(LinkModel::new(
                    port.rate_bps,
                    port.delay,
                    ecn,
                    from,
                    PortId(pi as u16),
                ));
            }
        }
        FlowSim {
            controllers: topo.nodes.iter().map(|_| None).collect(),
            topo,
            routes,
            cfg,
            links,
            link_base,
            flows: Vec::new(),
            free: Vec::new(),
            specs: Vec::new(),
            arrivals: Vec::new(),
            next_arrival: 0,
            next_tick: None,
            timers: FlowTimers::default(),
            seq: 0,
            now: SimTime::ZERO,
            completions: Vec::new(),
            visit_gen: 0,
            scratch: Vec::new(),
            active_flows: 0,
            stats: FlowSimStats::default(),
        }
    }

    /// Install `tuner`'s controller on every switch.
    pub fn set_tuner(&mut self, tuner: Box<dyn EcnTuner>) {
        for i in 0..self.topo.switches().len() {
            self.set_controller(self.topo.switches()[i], tuner.controller());
        }
    }

    /// Pre-size the slab, free list, scratch, arrival list, timer heap and
    /// completion log for `n` additional flows — the zero-alloc
    /// steady-state contract.
    pub fn reserve_flows(&mut self, n: usize) {
        let total = self.specs.len() + n;
        self.specs.reserve(n);
        self.arrivals.reserve(n);
        self.timers.reserve(total);
        self.flows.reserve(total.saturating_sub(self.flows.len()));
        self.free.reserve(total.saturating_sub(self.free.len()));
        self.completions
            .reserve(total.saturating_sub(self.completions.len()));
        self.scratch
            .reserve(1024usize.saturating_sub(self.scratch.capacity()));
    }

    /// Schedule a batch of flows. Flow ids are assigned in order; calls
    /// compose (ids keep counting).
    pub fn schedule_flows(&mut self, specs: &[FlowSpec]) {
        self.reserve_flows(specs.len());
        self.arrivals.drain(..self.next_arrival);
        self.next_arrival = 0;
        for s in specs {
            let seq = self.next_seq();
            self.arrivals.push((s.start, seq, self.specs.len()));
            self.specs.push(*s);
        }
        // `seq` is unique, so this is `(start, seq)` order.
        self.arrivals.sort_unstable();
        self.note_pending();
    }

    /// Fire every event at or before `horizon`, then set the clock to
    /// `horizon`. With a controller installed the control tick re-arms
    /// itself forever, so the horizon is what ends the run; without one the
    /// run also ends early once every scheduled flow has arrived and
    /// completed.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.next_tick.is_none() && self.controllers.iter().any(Option::is_some) {
            if let Some(dt) = self.cfg.control_interval {
                self.next_tick = Some((self.now + dt, self.next_seq()));
                self.note_pending();
            }
        }
        loop {
            let arrival = self.arrivals.get(self.next_arrival);
            let arrival_key = arrival.map(|&(t, seq, _)| (t, seq));
            let completion_key = self.timers.peek();
            let sources = [arrival_key, self.next_tick, completion_key];
            let first = sources.into_iter().flatten().min();
            let Some(key) = first.filter(|&(t, _)| t <= horizon) else {
                break;
            };
            self.now = key.0;
            self.stats.events_processed += 1;
            if arrival_key == first {
                let spec_idx = arrival.expect("arrival key without arrival").2;
                self.next_arrival += 1;
                self.start_flow(spec_idx);
            } else if completion_key == first {
                let (_, _, slot) = self.timers.pop_min().expect("peeked timer vanished");
                self.on_completion(slot as usize);
            } else {
                self.on_control_tick();
            }
        }
        self.now = horizon;
    }

    /// Completed flows so far, in completion order.
    pub fn completions(&self) -> &[FlowDone] {
        &self.completions
    }

    /// Run counters.
    pub fn stats(&self) -> FlowSimStats {
        self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology the engine runs over.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The directed-link table (telemetry may lag `now`; control ticks
    /// advance it).
    pub fn links(&self) -> &[LinkModel] {
        &self.links
    }

    /// Granted rates of the flows active on link `li`.
    #[cfg(test)]
    fn flow_rates_on_link(&self, li: usize) -> Vec<f64> {
        let mut out = Vec::new();
        let mut r = self.links[li].head;
        while r != NIL {
            let (fi, hop) = unpack(r);
            out.push(self.flows[fi].rate_bps);
            r = self.flows[fi].next[hop];
        }
        out
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn start_flow(&mut self, spec_idx: usize) {
        let spec = self.specs[spec_idx];
        let mut path = [0u32; MAX_HOPS];
        let mut delays = SimTime::ZERO;
        let mut n_hops = 0usize;
        let flow_id = FlowId(spec_idx as u64);
        let mut node = spec.src;
        while node != spec.dst {
            let Some(port) = self.routes.try_next_hop(node, spec.dst, flow_id) else {
                self.stats.unrouted_flows += 1;
                return;
            };
            let li = self.link_base[node.idx()] + port.0 as u32;
            assert!(n_hops < MAX_HOPS, "path longer than MAX_HOPS");
            path[n_hops] = li;
            n_hops += 1;
            let info = self.topo.port(node, port);
            delays += info.delay;
            node = info.peer_node;
        }

        // Wire-byte segmentation, identical to the transport stack's.
        let mtu = self.cfg.mtu_payload as u64;
        let full = spec.bytes / mtu;
        let rem = spec.bytes % mtu;
        let total_wire = full * (mtu + 48) + if rem > 0 { rem + 48 } else { 0 };
        let last_payload = if rem > 0 { rem } else { mtu.min(spec.bytes) };
        let last_wire = last_payload + 48;

        // Fixed pipeline tail: propagation on every hop, store-and-forward
        // of the last packet on every hop after the source's own drain.
        let mut tail = delays;
        let mut bottleneck = u64::MAX;
        for (hop, &li) in path.iter().enumerate().take(n_hops) {
            let cap = self.links[li as usize].capacity_bps;
            bottleneck = bottleneck.min(cap);
            if hop > 0 {
                tail += tx_time(last_wire, cap);
            }
        }

        let uncontended = path[..n_hops]
            .iter()
            .all(|&li| self.links[li as usize].n_active == 0);
        for &li in &path[..n_hops] {
            self.links[li as usize].advance(self.now);
        }

        // No field outlives a slot's occupant, so a reused slot is overwritten.
        let state = FlowState {
            flow: flow_id,
            src: spec.src,
            dst: spec.dst,
            bytes: spec.bytes,
            prio: spec.prio,
            tag: spec.tag,
            start: self.now,
            last_update: self.now,
            remaining_wire: total_wire as f64,
            rate_bps: 0.0,
            tail,
            visit: 0,
            n_hops: n_hops as u8,
            uncontended,
            path,
            next: [NIL; MAX_HOPS],
            prev: [NIL; MAX_HOPS],
        };
        let fi = match self.free.pop() {
            Some(fi) => {
                self.flows[fi as usize] = state;
                fi as usize
            }
            None => {
                self.flows.push(state);
                self.flows.len() - 1
            }
        };
        for (hop, &li) in path.iter().enumerate().take(n_hops) {
            self.list_push(li as usize, fi, hop);
        }
        self.stats.flows_started += 1;
        self.active_flows += 1;
        self.stats.peak_active_flows = self.stats.peak_active_flows.max(self.active_flows);

        if uncontended {
            // Ideal-FCT fast path: exact integer drain at the raw
            // bottleneck capacity; one completion event, never revisited
            // unless a sharer shows up.
            self.stats.fast_path_flows += 1;
            let rate = bottleneck as f64;
            let done = self.now + tx_time(total_wire, bottleneck) + tail;
            let f = &mut self.flows[fi];
            f.rate_bps = rate;
            for &li in &path[..n_hops] {
                self.links[li as usize].sum_rate_bps += rate;
            }
            self.push_completion(fi, done);
        } else {
            self.rebalance(path, n_hops);
        }
    }

    fn on_completion(&mut self, fi: usize) {
        let (path, n_hops, rate, done) = {
            let f = &self.flows[fi];
            (
                f.path,
                f.n_hops as usize,
                f.rate_bps,
                FlowDone {
                    flow: f.flow,
                    src: f.src,
                    dst: f.dst,
                    bytes: f.bytes,
                    prio: f.prio,
                    tag: f.tag,
                    start: f.start,
                    end: self.now,
                },
            )
        };
        for &li in &path[..n_hops] {
            self.links[li as usize].advance(self.now);
        }
        for (hop, &li) in path.iter().enumerate().take(n_hops) {
            self.list_remove(li as usize, fi, hop);
            let l = &mut self.links[li as usize];
            l.sum_rate_bps = (l.sum_rate_bps - rate).max(0.0);
        }
        self.free.push(fi as u32);
        self.active_flows -= 1;
        self.stats.flows_completed += 1;
        self.completions.push(done);
        self.rebalance(path, n_hops);
    }

    fn on_control_tick(&mut self) {
        let now = self.now;
        for l in &mut self.links {
            l.advance(now);
        }
        for &sw in self.topo.switches() {
            if let Some(c) = self.controllers[sw.idx()].as_mut() {
                let base = self.link_base[sw.idx()] as usize;
                let end = self.link_base[sw.idx() + 1] as usize;
                let mut view = SwitchView {
                    backend: ViewBackend::Flow {
                        now,
                        topo: &self.topo,
                        links: &mut self.links[base..end],
                    },
                    node: sw,
                };
                c.on_tick(&mut view);
            }
        }
        let seq = self.next_seq();
        self.next_tick = self.cfg.control_interval.map(|dt| (now + dt, seq));
    }

    // ------------------------------------------------------------------
    // Rate maintenance
    // ------------------------------------------------------------------

    /// Recompute min-share rates for every flow on the given links (the
    /// path of a flow that just arrived or departed) and reschedule the
    /// ones whose rate changed. Membership is fixed during the scan, so
    /// per-link offers don't shift underneath it and the result is
    /// independent of visit order.
    fn rebalance(&mut self, path: [u32; MAX_HOPS], n_hops: usize) {
        self.visit_gen = self.visit_gen.wrapping_add(1);
        let gen = self.visit_gen;
        self.scratch.clear();
        for &li in &path[..n_hops] {
            let mut r = self.links[li as usize].head;
            while r != NIL {
                let (fi, hop) = unpack(r);
                if self.flows[fi].visit != gen {
                    self.flows[fi].visit = gen;
                    self.scratch.push(fi as u32);
                }
                r = self.flows[fi].next[hop];
            }
        }
        self.stats.rebalance_scans += self.scratch.len() as u64;
        for i in 0..self.scratch.len() {
            let fi = self.scratch[i] as usize;
            let (fpath, fhops, old) = {
                let f = &self.flows[fi];
                (f.path, f.n_hops as usize, f.rate_bps)
            };
            let mut rate = f64::INFINITY;
            for &li in &fpath[..fhops] {
                rate = rate.min(self.links[li as usize].share());
            }
            if (rate - old).abs() > 1e-6 * (old.abs() + 1.0) {
                self.update_flow_rate(fi, rate);
            }
        }
    }

    /// Advance a flow's drained bytes to `now`, grant it a new rate, fix
    /// the per-link rate sums, and re-key its completion timer.
    fn update_flow_rate(&mut self, fi: usize, new_rate: f64) {
        let now = self.now;
        self.stats.rate_updates += 1;
        let (path, n_hops, old_rate) = {
            let f = &mut self.flows[fi];
            let dt = now.saturating_sub(f.last_update).as_secs_f64();
            f.remaining_wire = (f.remaining_wire - f.rate_bps / 8.0 * dt).max(0.0);
            f.last_update = now;
            // Fully drained: the source finished sending and only the
            // delivery tail is in flight. The pending completion timer is
            // already exact; rescheduling it from `now` would re-add the
            // tail once per rebalance that lands inside the tail window
            // (simultaneous incast completions cascade exactly that way).
            if f.remaining_wire == 0.0 {
                return;
            }
            let old = f.rate_bps;
            f.rate_bps = new_rate;
            f.uncontended = false;
            (f.path, f.n_hops as usize, old)
        };
        let delta = new_rate - old_rate;
        for &li in &path[..n_hops] {
            let l = &mut self.links[li as usize];
            l.advance(now);
            l.sum_rate_bps = (l.sum_rate_bps + delta).max(0.0);
        }
        let done = now + drain_time(self.flows[fi].remaining_wire, new_rate) + self.flows[fi].tail;
        self.push_completion(fi, done);
    }

    // ------------------------------------------------------------------
    // Timers + intrusive lists
    // ------------------------------------------------------------------

    /// Arm (or move) flow slot `fi`'s completion timer.
    fn push_completion(&mut self, fi: usize, at: SimTime) {
        let seq = self.next_seq();
        self.timers.set(fi as u32, at, seq);
        self.note_pending();
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Fold the current pending-entry count into the peak; called wherever
    /// an entry is added.
    fn note_pending(&mut self) {
        let pending = self.arrivals.len() - self.next_arrival
            + self.next_tick.is_some() as usize
            + self.timers.len();
        self.stats.peak_event_queue = self.stats.peak_event_queue.max(pending);
    }

    fn list_push(&mut self, li: usize, fi: usize, hop: usize) {
        let r = pack(fi as u32, hop);
        let old_head = self.links[li].head;
        self.flows[fi].next[hop] = old_head;
        self.flows[fi].prev[hop] = NIL;
        if old_head != NIL {
            let (hfi, hhop) = unpack(old_head);
            self.flows[hfi].prev[hhop] = r;
        }
        self.links[li].head = r;
        self.links[li].join();
    }

    fn list_remove(&mut self, li: usize, fi: usize, hop: usize) {
        let nx = self.flows[fi].next[hop];
        let pv = self.flows[fi].prev[hop];
        if pv == NIL {
            self.links[li].head = nx;
        } else {
            let (pfi, phop) = unpack(pv);
            self.flows[pfi].next[phop] = nx;
        }
        if nx != NIL {
            let (nfi, nhop) = unpack(nx);
            self.flows[nfi].prev[nhop] = pv;
        }
        self.flows[fi].next[hop] = NIL;
        self.flows[fi].prev[hop] = NIL;
        self.links[li].leave();
    }
}

impl ControllerHost for FlowSim {
    fn topo(&self) -> &Topology {
        &self.topo
    }

    fn is_sharded(&self) -> bool {
        false
    }

    /// The controller ticks every `control_interval` against the switch's
    /// egress [`LinkModel`]s, exactly as on the packet engine.
    fn set_controller(&mut self, switch: NodeId, ctl: Box<dyn QueueController>) {
        assert!(!self.topo.is_host(switch), "controllers attach to switches");
        self.controllers[switch.idx()] = Some(ctl);
    }

    fn controller_mut(&mut self, switch: NodeId) -> Option<&mut dyn QueueController> {
        self.controllers[switch.idx()].as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologySpec;

    fn single_switch(n: usize) -> Topology {
        TopologySpec::single_switch(n, 25_000_000_000, SimTime::from_ns(500)).build()
    }

    fn spec(src: u32, dst: u32, bytes: u64, start: SimTime) -> FlowSpec {
        FlowSpec {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            prio: 1,
            tag: 0,
            start,
        }
    }

    /// Closed-form ideal FCT on single_switch: drain all wire bytes at
    /// 25 Gbps, then store-and-forward the last packet once, plus two
    /// propagation delays.
    fn ideal_fct(bytes: u64) -> SimTime {
        let mtu = 1000u64;
        let full = bytes / mtu;
        let rem = bytes % mtu;
        let total_wire = full * 1048 + if rem > 0 { rem + 48 } else { 0 };
        let last_wire = if rem > 0 {
            rem + 48
        } else {
            mtu.min(bytes) + 48
        };
        tx_time(total_wire, 25_000_000_000)
            + tx_time(last_wire, 25_000_000_000)
            + SimTime::from_ns(1000)
    }

    #[test]
    fn lone_flow_matches_closed_form() {
        for bytes in [300u64, 1000, 64 * 1024, 1_000_000] {
            let topo = single_switch(4);
            let hosts = topo.hosts().to_vec();
            let mut sim = FlowSim::new(topo, FlowSimConfig::default());
            sim.schedule_flows(&[spec(hosts[0].0, hosts[1].0, bytes, SimTime::from_us(1))]);
            sim.run_until(SimTime::from_ms(100));
            let done = sim.completions();
            assert_eq!(done.len(), 1, "{bytes}B flow must finish");
            let fct = done[0].end - done[0].start;
            assert_eq!(fct, ideal_fct(bytes), "{bytes}B lone-flow FCT");
            assert_eq!(sim.stats().fast_path_flows, 1);
            assert_eq!(sim.stats().stale_events, 0);
        }
    }

    #[test]
    fn two_sharers_halve_throughput() {
        let topo = single_switch(4);
        let hosts = topo.hosts().to_vec();
        let mut sim = FlowSim::new(topo, FlowSimConfig::default());
        // Both flows target host 1: they share its switch-egress link.
        let bytes = 10_000_000u64;
        sim.schedule_flows(&[
            spec(hosts[0].0, hosts[1].0, bytes, SimTime::ZERO),
            spec(hosts[2].0, hosts[1].0, bytes, SimTime::ZERO),
        ]);
        sim.run_until(SimTime::from_secs(1));
        let done = sim.completions();
        assert_eq!(done.len(), 2);
        let lone = ideal_fct(bytes);
        for d in done {
            let fct = (d.end - d.start).as_us_f64();
            let ratio = fct / lone.as_us_f64();
            // Fair share halves the rate; drag and tail keep it near 2x.
            assert!(
                (1.9..=2.1).contains(&ratio),
                "shared FCT should be ~2x lone, got {ratio}"
            );
        }
    }

    #[test]
    fn late_sharer_promotes_fast_path_flow() {
        let topo = single_switch(4);
        let hosts = topo.hosts().to_vec();
        let mut sim = FlowSim::new(topo, FlowSimConfig::default());
        let bytes = 10_000_000u64;
        // Second flow arrives halfway through the first's lone drain.
        let half = SimTime::from_ps(ideal_fct(bytes).as_ps() / 2);
        sim.schedule_flows(&[
            spec(hosts[0].0, hosts[1].0, bytes, SimTime::ZERO),
            spec(hosts[2].0, hosts[1].0, bytes, half),
        ]);
        sim.run_until(SimTime::from_secs(1));
        let done = sim.completions();
        assert_eq!(done.len(), 2);
        // First flow: half at full rate, then shared; expect ~1.5x lone.
        let f0 = done
            .iter()
            .find(|d| d.src == hosts[0])
            .expect("first flow finished");
        let ratio = (f0.end - f0.start).as_us_f64() / ideal_fct(bytes).as_us_f64();
        assert!(
            (1.3..=1.7).contains(&ratio),
            "promoted flow ~1.5x lone, got {ratio}"
        );
        // The first flow's timer was re-keyed, not superseded: no tuner, so
        // the only events are two arrivals and two completions.
        let stats = sim.stats();
        assert_eq!(stats.stale_events, 0);
        assert_eq!(stats.events_processed, 2 + 2);
        assert!(stats.rate_updates >= 2, "both flows changed rate");
        assert_eq!(stats.flows_completed, 2);
    }

    #[test]
    fn conservation_all_flows_complete() {
        let topo = single_switch(8);
        let hosts = topo.hosts().to_vec();
        let mut sim = FlowSim::new(topo, FlowSimConfig::default());
        let mut specs = Vec::new();
        for i in 0..64u64 {
            let s = (i % 8) as usize;
            let d = ((i + 3) % 8) as usize;
            specs.push(spec(
                hosts[s].0,
                hosts[d].0,
                1_000 + i * 7_919,
                SimTime::from_us(i * 5),
            ));
        }
        sim.schedule_flows(&specs);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.completions().len(), 64);
        // Two events per flow (no tuner, so no ticks) and never more pending
        // entries than flows: each is an unfired arrival or one live timer.
        let stats = sim.stats();
        assert!(stats.events_processed <= 2 * 64);
        assert!(stats.peak_event_queue <= 64 + 1);
        // Every link list must be empty again.
        for li in 0..sim.links().len() {
            assert_eq!(sim.links()[li].n_active, 0);
            assert!(sim.flow_rates_on_link(li).is_empty());
        }
    }

    #[test]
    fn flow_addressed_to_a_switch_is_unrouted() {
        let topo = single_switch(4);
        let (hosts, sw) = (topo.hosts().to_vec(), topo.switches()[0]);
        let mut sim = FlowSim::new(topo, FlowSimConfig::default());
        sim.schedule_flows(&[
            spec(hosts[0].0, sw.0, 1_000, SimTime::ZERO),
            spec(hosts[0].0, hosts[1].0, 1_000, SimTime::ZERO),
        ]);
        sim.run_until(SimTime::from_ms(1));
        let stats = sim.stats();
        assert_eq!(stats.unrouted_flows, 1);
        assert_eq!((stats.flows_started, stats.flows_completed), (1, 1));
    }

    #[test]
    fn hybrid_telemetry_reaches_controller() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default, Clone, Copy)]
        struct Seen {
            ticks: u32,
            marks: bool,
            queue: bool,
        }
        struct Probe(Rc<RefCell<Seen>>);
        impl QueueController for Probe {
            fn on_tick(&mut self, view: &mut SwitchView<'_>) {
                let mut s = self.0.borrow_mut();
                s.ticks += 1;
                for p in 0..view.num_ports() {
                    let snap = view.snapshot(PortId(p as u16), 1);
                    assert!(snap.ecn.is_some(), "switch egress carries ECN");
                    s.marks |= snap.telem.tx_marked_bytes > 0;
                    s.queue |= snap.telem.qlen_integral_byte_ps > 0;
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        let topo = single_switch(8);
        let hosts = topo.hosts().to_vec();
        let mut sim = FlowSim::new(topo, FlowSimConfig::default());
        // 4-to-1 incast: the receiver's switch-egress link saturates and
        // the analytic queue model must produce queue depth and marks.
        let specs: Vec<FlowSpec> = (0..4)
            .map(|i| spec(hosts[i + 1].0, hosts[0].0, 5_000_000, SimTime::ZERO))
            .collect();
        sim.schedule_flows(&specs);
        let seen = Rc::new(RefCell::new(Seen::default()));
        let sw = sim.topo().switches()[0];
        sim.set_controller(sw, Box::new(Probe(seen.clone())));
        sim.run_until(SimTime::from_ms(50));
        assert_eq!(sim.completions().len(), 4);
        let s = *seen.borrow();
        assert!(s.ticks > 10, "control ticks must fire");
        assert!(s.queue, "saturated link must report queue depth");
        assert!(s.marks, "saturated link must report ECN marks");
    }
}
