//! The adapter: every call into the program is in this file.
//!
//! It reaches the layers only through their public APIs (`netsim`,
//! `transport`, `rl`, `acc-core`, `workloads`, `telemetry`) and hands plain
//! data back, so a later benchmark change that has to follow an API change
//! re-points this file and nothing else. `acc-bench` is deliberately not
//! used: its run paths are due to be collapsed.
//!
//! `--seed` reaches the arrival generators and nothing else; the engine,
//! agent and fault-plan seeds below are constants.
#![forbid(unsafe_code)]

use crate::catalog::Workload;
use crate::stats::{per, FlowRec};
use crate::trace::{Mark, Probe};
use acc_core::controller::{self, AccConfig};
use acc_core::guard::{install_guarded_acc, GuardConfig, GuardedController};
use acc_core::static_ecn::{install_static, StaticEcnController};
use acc_core::{AccController, ActionSpace, FluidStaticEcn, StaticEcnPolicy};
use netsim::buffer::SharedBuffer;
use netsim::event::{Event, EventQueue};
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use netsim::queues::{Dwrr, EgressQueue, PortTelemetry, QItem, QueueArena};
use netsim::routing::RouteTable;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rl::{DdqnAgent, ReplayBuffer, Transition};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;
use telemetry::{
    AgentSample, EventSample, JsonlSink, QueueSample, RunRecorder, SharedRecorder, TelemetrySink,
};
use transport::dcqcn::{DcqcnConfig, DcqcnState};
use transport::{CcKind, FctCollector, FlowRecord, HostStack, SharedFct, StackConfig};
use workloads::gen::{self, Arrival, PoissonGen};
use workloads::{to_flow_specs, SizeDist, XlFlowsSpec};

const SIM_SEED: u64 = 7;
const ACC_SEED: u64 = 13;
const FAULT_SEED: u64 = 21;
const CONTROL_INTERVAL: SimTime = SimTime::from_us(50);
const SAMPLE_INTERVAL: SimTime = SimTime::from_us(100);

// ---------------------------------------------------------------------------
// Workload sizes. Simulated durations are shortened from the paper-scale
// runs so that one trial takes a few seconds on two cores; the drain after
// the arrival window is long enough for every flow to finish.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    Secn1,
    AccFresh,
    AccGuarded,
}

struct PacketSpec {
    topo: TopologySpec,
    policy: Policy,
    load: f64,
    window: SimTime,
    drain: SimTime,
    /// An 8-to-1 x 2 x 64 KB incast wave every millisecond of the window.
    incast: bool,
    faults: bool,
    record: bool,
}

fn packet_spec(w: Workload) -> PacketSpec {
    match w {
        Workload::WebsearchPacket => PacketSpec {
            topo: TopologySpec::paper_large_sim(),
            policy: Policy::Secn1,
            load: 0.6,
            window: SimTime::from_us(3500),
            drain: SimTime::from_ms(40),
            incast: false,
            faults: false,
            record: false,
        },
        Workload::AccOnlineIncast => PacketSpec {
            topo: TopologySpec::paper_testbed(),
            policy: Policy::AccFresh,
            load: 0.4,
            window: SimTime::from_ms(36),
            drain: SimTime::from_ms(54),
            incast: true,
            faults: false,
            record: false,
        },
        Workload::FaultGuardedRecorded => PacketSpec {
            topo: TopologySpec::paper_testbed(),
            policy: Policy::AccGuarded,
            load: 0.5,
            window: SimTime::from_ms(30),
            drain: SimTime::from_ms(40),
            incast: false,
            faults: true,
            record: true,
        },
        _ => unreachable!("not an unsharded packet workload"),
    }
}

const SHARDED_LOAD: f64 = 0.5;
const SHARDED_WINDOW: SimTime = SimTime::from_us(600);
const SHARDED_DRAIN: SimTime = SimTime::from_ms(30);

const XL_FLOWS_WINDOW: SimTime = SimTime::from_ms(10);
const XL_FLOWS_DRAIN: SimTime = SimTime::from_ms(70);

fn xl_flows_spec(seed: u64, duration: SimTime) -> XlFlowsSpec {
    XlFlowsSpec {
        websearch_load: 0.6,
        storage_load: 0.2,
        duration,
        seed,
    }
}

/// WebSearch 0.6 + storage 0.2 over `hosts`, cut at `window`'s byte budget.
fn xl_flows_arrivals(hosts: &[NodeId], host_bps: u64, window: SimTime, seed: u64) -> Vec<Arrival> {
    let spec = xl_flows_spec(seed, window.mul(2));
    let load = spec.websearch_load + spec.storage_load;
    let fabric_bps = (host_bps * hosts.len() as u64) as f64;
    cut_at_budget(spec.generate(hosts, host_bps), load, fabric_bps, window)
}

/// The cross-validation scenario: small enough for the packet engine (96
/// hosts), the same traffic mix as `xl-flows-hybrid`.
const CROSSVAL_WINDOW: SimTime = SimTime::from_ms(5);
const CROSSVAL_DRAIN: SimTime = SimTime::from_ms(60);

/// Worker threads a trial of `w` uses.
pub fn threads(w: Workload, shards: u32) -> u32 {
    if w == Workload::XlClosSharded {
        shards
    } else {
        1
    }
}

// ---------------------------------------------------------------------------
// What a trial hands back.
// ---------------------------------------------------------------------------

/// Busy time and call counts seen by the boundary shims (traced trials).
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub transport_ns: u64,
    pub transport_calls: u64,
    /// Controller ticks, less the sink time nested inside them.
    pub control_ns: u64,
    pub control_ticks: u64,
    pub sink_ns: u64,
    pub sink_samples: u64,
}

pub struct TrialCfg<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Install the boundary shims and record spans.
    pub traced: bool,
    /// Stop after set-up (for the set-up time median).
    pub setup_only: bool,
    /// Shard count for `xl-clos-sharded`; ignored elsewhere.
    pub shards: u32,
    /// A directory that does not exist yet; recorded JSONL goes there.
    pub record_dir: &'a Path,
}

pub struct TrialOut {
    /// Everything before the first event is done.
    pub setup_done: Mark,
    /// The engine reached the horizon.
    pub run_done: Mark,
    pub offered: usize,
    pub offered_bytes: u64,
    /// Completed and unfinished flows the collector knows of.
    pub flows: Vec<FlowRec>,
    pub horizon_us: f64,
    /// Per-layer counts read through public getters, keyed by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    pub busy: Busy,
    /// Queue, agent and event samples recorded, when the recorder is on.
    pub recorded: Option<[u64; 3]>,
    /// The last instant at which the workload's fault plan can drop a
    /// packet; `None` where no plan is installed and the fabric is lossless.
    pub lossy_until_ps: Option<u64>,
}

pub fn run_trial(cfg: &TrialCfg, probe: &Probe) -> TrialOut {
    match cfg.workload {
        Workload::XlClosSharded => sharded_trial(cfg, probe),
        Workload::XlFlowsHybrid => flow_trial(cfg, probe),
        w => packet_trial(&packet_spec(w), cfg, probe),
    }
}

// ---------------------------------------------------------------------------
// Boundary shims: benchmark-side wrappers that delegate every call and
// accumulate calls and busy time. `as_any_mut` delegates too, so the
// program's downcasts (`schedule_message`, `attach_recorder`) still work.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ShimCells {
    transport_ns: Cell<u64>,
    transport_calls: Cell<u64>,
    control_ns: Cell<u64>,
    control_ticks: Cell<u64>,
    sink_ns: Cell<u64>,
    sink_samples: Cell<u64>,
}

impl ShimCells {
    fn busy(&self) -> Busy {
        Busy {
            transport_ns: self.transport_ns.get(),
            transport_calls: self.transport_calls.get(),
            control_ns: self.control_ns.get(),
            control_ticks: self.control_ticks.get(),
            sink_ns: self.sink_ns.get(),
            sink_samples: self.sink_samples.get(),
        }
    }
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

fn timed<R>(ns: &Cell<u64>, calls: &Cell<u64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    bump(ns, t0.elapsed().as_nanos() as u64);
    bump(calls, 1);
    r
}

struct DriverShim {
    inner: Box<dyn NicDriver>,
    cells: Rc<ShimCells>,
}

impl NicDriver for DriverShim {
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut HostCtx<'_>) {
        let c = &self.cells;
        timed(&c.transport_ns, &c.transport_calls, || {
            self.inner.on_packet(pkt, ctx)
        })
    }
    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        let c = &self.cells;
        timed(&c.transport_ns, &c.transport_calls, || {
            self.inner.on_timer(token, ctx)
        })
    }
    fn on_tx_ready(&mut self, ctx: &mut HostCtx<'_>) {
        let c = &self.cells;
        timed(&c.transport_ns, &c.transport_calls, || {
            self.inner.on_tx_ready(ctx)
        })
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

struct ControllerShim {
    inner: Box<dyn QueueController>,
    cells: Rc<ShimCells>,
}

impl QueueController for ControllerShim {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        // Agent samples reach the sink from inside the tick; that time is
        // the sink's, not the controller's.
        let sink_before = self.cells.sink_ns.get();
        let t0 = Instant::now();
        self.inner.on_tick(view);
        let whole = t0.elapsed().as_nanos() as u64;
        let nested = self.cells.sink_ns.get() - sink_before;
        bump(&self.cells.control_ns, whole.saturating_sub(nested));
        bump(&self.cells.control_ticks, 1);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

struct SinkShim {
    inner: JsonlSink,
    cells: Rc<ShimCells>,
}

impl TelemetrySink for SinkShim {
    fn on_queue(&mut self, s: &QueueSample) {
        let c = &self.cells;
        timed(&c.sink_ns, &c.sink_samples, || self.inner.on_queue(s))
    }
    fn on_agent(&mut self, s: &AgentSample) {
        let c = &self.cells;
        timed(&c.sink_ns, &c.sink_samples, || self.inner.on_agent(s))
    }
    fn on_event(&mut self, s: &EventSample) {
        let c = &self.cells;
        timed(&c.sink_ns, &c.sink_samples, || self.inner.on_event(s))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.flush();
        bump(&self.cells.sink_ns, t0.elapsed().as_nanos() as u64);
        r
    }
}

// ---------------------------------------------------------------------------
// Installers. Untraced trials use the program's own installers; traced
// trials mirror them through the public constructors so each driver and
// controller can be wrapped. The digest check (traced == untraced) proves
// the mirror and the shims change nothing.
// ---------------------------------------------------------------------------

fn sim_config() -> SimConfig {
    SimConfig::default()
        .with_seed(SIM_SEED)
        .with_control_interval(CONTROL_INTERVAL)
}

fn acc_config() -> AccConfig {
    let mut cfg = AccConfig::default();
    cfg.ddqn.min_replay = 64;
    cfg.ddqn.batch_size = 32;
    cfg.ddqn.eps_decay_steps = 3_000.0;
    cfg.seed = ACC_SEED;
    cfg
}

fn install_transport(sim: &mut Simulator, fct: &SharedFct, shim: Option<&Rc<ShimCells>>) {
    let Some(cells) = shim else {
        transport::install_stacks(sim, StackConfig::default(), fct);
        return;
    };
    for h in sim.core().topo.hosts().to_vec() {
        let inner = Box::new(HostStack::new(h, StackConfig::default(), fct.clone()));
        sim.set_driver(
            h,
            Box::new(DriverShim {
                inner,
                cells: cells.clone(),
            }),
        );
    }
}

fn install_policy(sim: &mut Simulator, policy: Policy, shim: Option<&Rc<ShimCells>>) {
    let space = ActionSpace::templates();
    let cfg = acc_config();
    let Some(cells) = shim else {
        match policy {
            Policy::Secn1 => install_static(sim, StaticEcnPolicy::Secn1),
            Policy::AccFresh => {
                controller::install_acc(sim, &cfg, &space);
            }
            Policy::AccGuarded => {
                install_guarded_acc(sim, &cfg, &space, &GuardConfig::default());
            }
        }
        return;
    };
    let global = Rc::new(RefCell::new(ReplayBuffer::new(
        cfg.ddqn.replay_capacity * 4,
    )));
    for (i, sw) in sim.core().topo.switches().to_vec().into_iter().enumerate() {
        let inner: Box<dyn QueueController> = match policy {
            Policy::Secn1 => Box::new(StaticEcnController::new(StaticEcnPolicy::Secn1)),
            Policy::AccFresh | Policy::AccGuarded => {
                let mut c = cfg.clone();
                c.seed = cfg.seed.wrapping_add(i as u64);
                let prios = c.target_prios.clone();
                let mut acc = AccController::new(c, space.clone());
                acc.set_global_replay(global.clone());
                if policy == Policy::AccGuarded {
                    Box::new(GuardedController::new(
                        Box::new(acc),
                        GuardConfig::default(),
                        prios,
                    ))
                } else {
                    Box::new(acc)
                }
            }
        };
        sim.set_controller(
            sw,
            Box::new(ControllerShim {
                inner,
                cells: cells.clone(),
            }),
        );
    }
}

fn arm_recorder(sim: &mut Simulator, dir: &Path, shim: Option<&Rc<ShimCells>>) -> SharedRecorder {
    let sink = JsonlSink::create_new(dir).expect("the recording directory is fresh and writable");
    let sink: Box<dyn TelemetrySink> = match shim {
        Some(cells) => Box::new(SinkShim {
            inner: sink,
            cells: cells.clone(),
        }),
        None => Box::new(sink),
    };
    let rec = RunRecorder::new().with_sink(sink).into_shared();
    telemetry::install_queue_sampler(sim, SAMPLE_INTERVAL, rec.clone());
    controller::attach_recorder(sim, &rec);
    rec
}

/// Faults executed after the last sampling tick are still owed to the
/// event timeline; then push everything to disk.
fn flush_recorder(sim: &mut Simulator, rec: &SharedRecorder) -> [u64; 3] {
    let mut r = rec.borrow_mut();
    for f in sim.core_mut().drain_fault_log() {
        r.record_event(&EventSample {
            t_ps: f.at.as_ps(),
            node: f.node.0,
            port: f.port.0,
            prio: u8::MAX,
            kind: f.kind.to_string(),
            detail: f.detail.to_string(),
        });
    }
    r.flush().expect("recorded JSONL reaches the disk");
    [r.queue_samples, r.agent_samples, r.event_samples]
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// The input size of a workload is stated in bytes, not in seconds: the
/// generator runs over twice the nominal window, and the time-ordered stream
/// is cut where its payload reaches what `load` offers in `window` on
/// average. WebSearch sizes are heavy-tailed, so a fixed window would offer
/// +-10 % more or fewer bytes from seed to seed, and host time with them.
fn cut_at_budget(
    mut stream: Vec<Arrival>,
    load: f64,
    fabric_bps: f64,
    window: SimTime,
) -> Vec<Arrival> {
    let budget = (load * fabric_bps / 8.0 * window.as_secs_f64()) as u64;
    let mut sum = 0u64;
    let keep = stream
        .iter()
        .take_while(|a| {
            sum += a.msg.bytes;
            sum <= budget
        })
        .count();
    stream.truncate(keep);
    stream
}

fn websearch_stream(
    load: f64,
    hosts: &[NodeId],
    host_bps: u64,
    window: SimTime,
    seed: u64,
) -> Vec<Arrival> {
    let g = PoissonGen::new(SizeDist::web_search(), load, CcKind::Dcqcn, seed);
    let stream = g.generate(hosts, host_bps, SimTime::ZERO, window.mul(2));
    cut_at_budget(stream, load, (host_bps * hosts.len() as u64) as f64, window)
}

fn packet_arrivals(spec: &PacketSpec, hosts: &[NodeId], host_bps: u64, seed: u64) -> Vec<Arrival> {
    let mut all = websearch_stream(spec.load, hosts, host_bps, spec.window, seed);
    if spec.incast {
        let n = hosts.len();
        let waves = spec.window.as_ps() / SimTime::from_ms(1).as_ps();
        for w in 0..waves as usize {
            // The receiver walks round the fabric; its eight successors send.
            let r = (w * 7 + 3) % n;
            let senders: Vec<NodeId> = (1..=8).map(|k| hosts[(r + k) % n]).collect();
            all.extend(gen::incast_wave(
                &senders,
                hosts[r],
                2,
                64_000,
                CcKind::Dcqcn,
                SimTime::from_ms(1).mul(w as u64),
            ));
        }
        // Stable, so the mix is deterministic on ties.
        all.sort_by_key(|a| a.at);
    }
    all
}

/// Two link flaps, a loss window, a degrade, a telemetry freeze and blank
/// and a spine reboot on the testbed fabric, times as fractions of the
/// arrival window.
fn fault_plan(topo: &Topology, window: SimTime) -> FaultPlan {
    let f = |x: f64| SimTime::from_ps((window.as_ps() as f64 * x) as u64);
    let sw = topo.switches();
    let (leaf0, leaf1, spine0) = (sw[0], sw[1], sw[4]);
    let last_spine = *sw.last().expect("the testbed has spines");
    FaultPlan::new(FAULT_SEED)
        .link_flap(leaf0, PortId(6), f(0.15), f(0.30))
        .link_flap(leaf0, PortId(6), f(0.35), f(0.45))
        .telemetry_freeze(leaf0, f(0.40), f(0.60))
        .loss_window(spine0, PortId(0), 0.02, f(0.50), f(0.70))
        .degrade_window(leaf1, PortId(6), 10_000_000_000, f(0.55), f(0.75))
        .telemetry_blank(leaf1, f(0.70), f(0.85))
        .at(f(0.80), FaultKind::SwitchReboot { node: last_spine })
}

/// The last instant at which `plan` can drop a packet: the end of its last
/// link-down or loss window, or its last reboot. A flow that starts later
/// cannot lose a packet to the plan.
fn lossy_until(plan: &FaultPlan) -> Option<SimTime> {
    let lossy = |k: &FaultKind| {
        matches!(
            k,
            FaultKind::LinkDown { .. }
                | FaultKind::LinkUp { .. }
                | FaultKind::PacketLoss { .. }
                | FaultKind::SwitchReboot { .. }
        )
    };
    plan.events
        .iter()
        .filter(|e| lossy(&e.kind))
        .map(|e| e.at)
        .max()
}

fn offered_bytes(arrivals: &[Arrival]) -> u64 {
    arrivals.iter().map(|a| a.msg.bytes).sum()
}

fn flow_rec(r: &FlowRecord) -> FlowRec {
    FlowRec {
        id: r.flow.0,
        bytes: r.bytes,
        start_ps: r.start.as_ps(),
        end_ps: r.end.map(|e| e.as_ps()),
    }
}

// ---------------------------------------------------------------------------
// Counts read through public getters.
// ---------------------------------------------------------------------------

/// Plain sums/maxima one simulator (or one shard) contributes.
#[derive(Clone, Copy, Default)]
struct RawCounts {
    events: u64,
    peak_event_queue: u64,
    pushes: u64,
    pushes_overflow: u64,
    overflow_migrations: u64,
    tx_pkts: u64,
    tx_marked_pkts: u64,
    drops: u64,
    pfc_pauses: u64,
    max_qlen_bytes: u64,
    faults_executed: u64,
    fault_drops: u64,
    guard_trips: u64,
    guard_clamps: u64,
    train_steps: u64,
}

impl RawCounts {
    fn read(sim: &mut Simulator) -> RawCounts {
        let core = sim.core();
        let q = core.event_queue_stats();
        let mut c = RawCounts {
            events: core.events_processed,
            peak_event_queue: core.event_queue_peak(),
            pushes: q.pushes_near + q.pushes_wheel + q.pushes_overflow,
            pushes_overflow: q.pushes_overflow,
            overflow_migrations: q.overflow_migrations,
            drops: core.total_drops,
            pfc_pauses: core.total_pfc_pauses,
            faults_executed: core.faults_executed,
            fault_drops: core.fault_drops,
            ..RawCounts::default()
        };
        let switches = core.topo.switches().to_vec();
        for &sw in switches.iter().filter(|&&sw| core.owns_node(sw)) {
            for p in 0..core.topo.node(sw).ports.len() {
                for prio in 0..core.cfg.port.num_prios {
                    let t = core.queue_telem(sw, PortId(p as u16), prio as Prio);
                    c.tx_pkts += t.tx_pkts;
                    c.tx_marked_pkts += t.tx_marked_pkts;
                    c.max_qlen_bytes = c.max_qlen_bytes.max(t.max_qlen_bytes);
                }
            }
        }
        for sw in switches {
            if !sim.has_controller(sw) {
                continue;
            }
            sim.with_controller(sw, |ctl, _| {
                let any = ctl.as_any_mut();
                let acc = if let Some(g) = any.downcast_mut::<GuardedController>() {
                    c.guard_trips += g.stats.trips;
                    c.guard_clamps += g.stats.clamps;
                    g.inner_mut().as_any_mut().downcast_mut::<AccController>()
                } else {
                    ctl.as_any_mut().downcast_mut::<AccController>()
                };
                if let Some(acc) = acc {
                    c.train_steps += acc.stats.train_steps;
                }
            });
        }
        c
    }

    fn merge(&mut self, o: &RawCounts) {
        self.events += o.events;
        self.peak_event_queue = self.peak_event_queue.max(o.peak_event_queue);
        self.pushes += o.pushes;
        self.pushes_overflow += o.pushes_overflow;
        self.overflow_migrations += o.overflow_migrations;
        self.tx_pkts += o.tx_pkts;
        self.tx_marked_pkts += o.tx_marked_pkts;
        self.drops += o.drops;
        self.pfc_pauses += o.pfc_pauses;
        self.max_qlen_bytes = self.max_qlen_bytes.max(o.max_qlen_bytes);
        // Faults replicate into every shard; count them once.
        self.faults_executed = self.faults_executed.max(o.faults_executed);
        self.fault_drops += o.fault_drops;
        self.guard_trips += o.guard_trips;
        self.guard_clamps += o.guard_clamps;
        self.train_steps += o.train_steps;
    }

    fn into_metrics(self) -> BTreeMap<&'static str, f64> {
        let ratio = |a: u64, b: u64| per(a as f64, b as f64);
        BTreeMap::from([
            ("sim.events", self.events as f64),
            ("sim.peak_event_queue", self.peak_event_queue as f64),
            (
                "event.wheel_push_frac",
                ratio(self.pushes - self.pushes_overflow, self.pushes),
            ),
            (
                "event.overflow_migrations_per_event",
                ratio(self.overflow_migrations, self.events),
            ),
            (
                "queues.ecn_marked_frac",
                ratio(self.tx_marked_pkts, self.tx_pkts),
            ),
            ("queues.drops", self.drops as f64),
            ("queues.pfc_pauses", self.pfc_pauses as f64),
            ("queues.max_qlen_kb", self.max_qlen_bytes as f64 / 1024.0),
            ("fault.executed", self.faults_executed as f64),
            ("fault.drops", self.fault_drops as f64),
            ("acc-core.guard_trips", self.guard_trips as f64),
            ("acc-core.guard_clamps", self.guard_clamps as f64),
            ("rl.train_steps", self.train_steps as f64),
        ])
    }
}

// ---------------------------------------------------------------------------
// The three kinds of trial.
// ---------------------------------------------------------------------------

fn packet_trial(spec: &PacketSpec, cfg: &TrialCfg, probe: &Probe) -> TrialOut {
    let topo = probe.span("netsim.topology_build_s", 0, || spec.topo.build());
    let hosts = topo.hosts().to_vec();
    let host_bps = topo.host_rate_bps(hosts[0]);
    let arrivals = probe.span("workloads.generate_s", 0, || {
        packet_arrivals(spec, &hosts, host_bps, cfg.seed)
    });
    let plan = spec.faults.then(|| fault_plan(&topo, spec.window));
    let mut sim = probe.span("netsim.sim_new_s", 0, || Simulator::new(topo, sim_config()));
    let fct = FctCollector::new_shared();
    let shim = cfg.traced.then(|| Rc::new(ShimCells::default()));
    probe.span("transport.install_s", 0, || {
        install_transport(&mut sim, &fct, shim.as_ref())
    });
    probe.span("acc-core.install_s", 0, || {
        install_policy(&mut sim, spec.policy, shim.as_ref())
    });
    probe.span("workloads.apply_s", 0, || {
        fct.borrow_mut().reserve(arrivals.len());
        gen::apply_arrivals(&mut sim, &arrivals);
    });
    if let Some(plan) = &plan {
        sim.install_fault_plan(plan)
            .expect("the benchmark's fault plan is valid");
    }
    let recorder = spec
        .record
        .then(|| arm_recorder(&mut sim, cfg.record_dir, shim.as_ref()));
    let setup_done = Mark::now();

    let horizon = spec.window + spec.drain;
    let mut out = TrialOut {
        setup_done,
        run_done: setup_done,
        offered: arrivals.len(),
        offered_bytes: offered_bytes(&arrivals),
        flows: Vec::new(),
        horizon_us: horizon.as_us_f64(),
        counts: BTreeMap::new(),
        busy: Busy::default(),
        recorded: None,
        lossy_until_ps: plan.as_ref().and_then(lossy_until).map(|t| t.as_ps()),
    };
    if cfg.setup_only {
        return out;
    }
    probe.span("netsim.run_s", 0, || sim.run_until(horizon));
    out.run_done = Mark::now();
    out.flows = probe.span("transport.collect_s", 0, || {
        fct.borrow().records().map(flow_rec).collect()
    });
    out.recorded =
        recorder.map(|rec| probe.span("telemetry.flush_s", 0, || flush_recorder(&mut sim, &rec)));
    out.counts = RawCounts::read(&mut sim).into_metrics();
    if out.recorded.is_some() {
        let bytes = dir_bytes(cfg.record_dir) as f64;
        out.counts.insert("telemetry.bytes_written", bytes);
    }
    out.busy = shim.map(|s| s.busy()).unwrap_or_default();
    out
}

/// What a shard worker sends back to the coordinating thread.
struct ShardOut {
    records: Vec<FlowRecord>,
    raw: RawCounts,
    busy: Busy,
    build_s: f64,
}

fn sharded_trial(cfg: &TrialCfg, probe: &Probe) -> TrialOut {
    let topo = probe.span("netsim.topology_build_s", 0, || {
        TopologySpec::paper_xl_clos().build()
    });
    let hosts = topo.hosts().to_vec();
    let host_bps = topo.host_rate_bps(hosts[0]);
    let arrivals = probe.span("workloads.generate_s", 0, || {
        websearch_stream(SHARDED_LOAD, &hosts, host_bps, SHARDED_WINDOW, cfg.seed)
    });
    let plan = ShardPlan::build(&topo, cfg.shards);
    let horizon = SHARDED_WINDOW + SHARDED_DRAIN;
    // Phase 0 ends at t = 0: every shard is built, no event has run. The
    // coordinator's mark there is the slowest shard's set-up.
    let phases = if cfg.setup_only {
        vec![SimTime::ZERO]
    } else {
        vec![SimTime::ZERO, horizon]
    };
    let mut setup_done = None;
    let results = run_sharded_phased(
        &plan,
        &phases,
        |shard| {
            let tid = shard + 1;
            let t0 = Instant::now();
            let mut sim = probe.span("netsim.sim_new_s", tid, || {
                Simulator::new_sharded(topo.clone(), sim_config(), &plan, shard)
            });
            let fct = FctCollector::new_shared();
            let shim = cfg.traced.then(|| Rc::new(ShimCells::default()));
            probe.span("transport.install_s", tid, || {
                install_transport(&mut sim, &fct, shim.as_ref())
            });
            probe.span("acc-core.install_s", tid, || {
                install_policy(&mut sim, Policy::Secn1, shim.as_ref())
            });
            probe.span("workloads.apply_s", tid, || {
                fct.borrow_mut().reserve(arrivals.len());
                gen::apply_arrivals(&mut sim, &arrivals);
            });
            (sim, (fct, shim, t0.elapsed().as_secs_f64()))
        },
        |phase| {
            if phase == 0 {
                setup_done = Some(Mark::now());
            }
        },
        |_shard, mut sim, (fct, shim, build_s)| ShardOut {
            records: fct.borrow().records().copied().collect(),
            raw: RawCounts::read(&mut sim),
            busy: shim.map(|s| s.busy()).unwrap_or_default(),
            build_s,
        },
    );
    let run_done = Mark::now();
    let setup_done = setup_done.expect("phase 0 always ends");
    probe.record("netsim.run_s", 0, setup_done.at, run_done.at);

    let mut raw = RawCounts::default();
    let mut busy = Busy::default();
    let (mut stalls, mut remote, mut max_events, mut build_s_max) = (0u64, 0u64, 0u64, 0f64);
    let mut records = Vec::with_capacity(results.len());
    for (stats, out) in results {
        raw.merge(&out.raw);
        stalls += stats.stalls;
        remote += stats.remote_sent;
        max_events = max_events.max(stats.events_processed);
        build_s_max = build_s_max.max(out.build_s);
        busy.transport_ns += out.busy.transport_ns;
        busy.transport_calls += out.busy.transport_calls;
        busy.control_ns += out.busy.control_ns;
        busy.control_ticks += out.busy.control_ticks;
        records.push(out.records);
    }
    let flows = probe.span("transport.collect_s", 0, || {
        transport::merge_shard_fct(records)
            .records()
            .map(flow_rec)
            .collect()
    });
    let events = raw.events.max(1) as f64;
    let mut counts = raw.into_metrics();
    counts.insert("shard.build_s_max", build_s_max);
    counts.insert("shard.stalls_per_event", stalls as f64 / events);
    counts.insert("shard.remote_per_event", remote as f64 / events);
    counts.insert(
        "shard.event_imbalance",
        max_events as f64 * cfg.shards as f64 / events,
    );
    TrialOut {
        setup_done,
        run_done,
        offered: arrivals.len(),
        offered_bytes: offered_bytes(&arrivals),
        flows: if cfg.setup_only { Vec::new() } else { flows },
        horizon_us: horizon.as_us_f64(),
        counts,
        busy,
        recorded: None,
        lossy_until_ps: None,
    }
}

fn hybrid_sim(topo: Topology, probe: &Probe) -> FlowSim {
    let mut sim = probe.span("netsim.sim_new_s", 0, || {
        FlowSim::new(topo, FlowSimConfig::default())
    });
    probe.span("acc-core.install_s", 0, || {
        sim.set_tuner(Box::new(FluidStaticEcn::new(StaticEcnPolicy::Secn1)))
    });
    sim
}

/// Completed flows of a flow-level run, through the same collector the
/// packet engine reports into.
fn flowsim_flows(sim: &FlowSim) -> Vec<FlowRec> {
    let mut fct = FctCollector::default();
    fct.register_flowsim(sim.completions());
    fct.records().map(flow_rec).collect()
}

fn flow_trial(cfg: &TrialCfg, probe: &Probe) -> TrialOut {
    let topo = probe.span("netsim.topology_build_s", 0, || {
        TopologySpec::paper_xl_clos().build()
    });
    let hosts = topo.hosts().to_vec();
    let host_bps = topo.host_rate_bps(hosts[0]);
    let (arrivals, specs) = probe.span("workloads.generate_s", 0, || {
        let arrivals = xl_flows_arrivals(&hosts, host_bps, XL_FLOWS_WINDOW, cfg.seed);
        let specs = to_flow_specs(&arrivals);
        (arrivals, specs)
    });
    let mut sim = hybrid_sim(topo, probe);
    probe.span("workloads.apply_s", 0, || sim.schedule_flows(&specs));
    let setup_done = Mark::now();

    let horizon = XL_FLOWS_WINDOW + XL_FLOWS_DRAIN;
    let mut out = TrialOut {
        setup_done,
        run_done: setup_done,
        offered: arrivals.len(),
        offered_bytes: offered_bytes(&arrivals),
        flows: Vec::new(),
        horizon_us: horizon.as_us_f64(),
        counts: BTreeMap::new(),
        busy: Busy::default(),
        recorded: None,
        lossy_until_ps: None,
    };
    if cfg.setup_only {
        return out;
    }
    probe.span("netsim.run_s", 0, || sim.run_until(horizon));
    out.run_done = Mark::now();
    out.flows = probe.span("transport.collect_s", 0, || flowsim_flows(&sim));
    let s = sim.stats();
    let (events, started) = (s.events_processed as f64, s.flows_started as f64);
    out.counts = BTreeMap::from([
        ("sim.events", events),
        ("sim.peak_event_queue", s.peak_event_queue as f64),
        ("flowsim.events_per_flow", per(events, started)),
        (
            "flowsim.stale_event_frac",
            per(s.stale_events as f64, events),
        ),
        (
            "flowsim.peak_queue_per_flow",
            per(s.peak_event_queue as f64, started),
        ),
        (
            "flowsim.fast_path_frac",
            per(s.fast_path_flows as f64, started),
        ),
        ("flowsim.peak_active_flows", s.peak_active_flows as f64),
    ]);
    out
}

/// The untimed accuracy pass of `xl-flows-hybrid`: one scenario through the
/// packet engine (the reference) and through the hybrid flow backend.
/// Returns `(packet flows, fluid flows)`.
pub fn fluid_cross_validation(seed: u64) -> (Vec<FlowRec>, Vec<FlowRec>) {
    let probe = Probe::new(false, 0, Instant::now());
    let topo = TopologySpec::paper_cacc_sim().build();
    let hosts = topo.hosts().to_vec();
    let host_bps = topo.host_rate_bps(hosts[0]);
    let arrivals = xl_flows_arrivals(&hosts, host_bps, CROSSVAL_WINDOW, seed);
    let horizon = CROSSVAL_WINDOW + CROSSVAL_DRAIN;

    let mut packet = Simulator::new(topo.clone(), sim_config());
    let fct = FctCollector::new_shared();
    install_transport(&mut packet, &fct, None);
    install_policy(&mut packet, Policy::Secn1, None);
    gen::apply_arrivals(&mut packet, &arrivals);
    packet.run_until(horizon);
    let reference = fct.borrow().records().map(flow_rec).collect();

    let mut fluid = hybrid_sim(topo, &probe);
    fluid.schedule_flows(&to_flow_specs(&arrivals));
    fluid.run_until(horizon);
    (reference, flowsim_flows(&fluid))
}

// ---------------------------------------------------------------------------
// The layer kit: short op streams against one layer's public API each.
// ---------------------------------------------------------------------------

/// One kit benchmark: `run` performs a batch and returns how many
/// operations it did; the harness times it.
pub struct KitOp {
    pub metric: &'static str,
    /// Multiplies seconds-per-op into the metric's unit; `None` reports
    /// operations per second instead.
    pub scale: Option<f64>,
    pub run: Box<dyn FnMut() -> u64>,
}

fn kit_topology(w: Workload) -> TopologySpec {
    match w {
        Workload::WebsearchPacket => TopologySpec::paper_large_sim(),
        Workload::AccOnlineIncast | Workload::FaultGuardedRecorded => TopologySpec::paper_testbed(),
        Workload::XlClosSharded | Workload::XlFlowsHybrid => TopologySpec::paper_xl_clos(),
    }
}

/// The nine kit benchmarks, shaped like `w`: its fabric, its generator and
/// `depth`, the peak event-queue depth its trial reached. `scratch` is a
/// fresh directory for the telemetry op.
pub fn kit(w: Workload, seed: u64, depth: usize, scratch: &Path) -> Vec<KitOp> {
    let topo = kit_topology(w).build();
    vec![
        kit_event_hold(depth.max(64)),
        kit_queue_path(),
        kit_next_hop(&topo),
        kit_route_rebuild(),
        kit_dcqcn(),
        kit_train_step(),
        kit_select_batch(topo.node(topo.switches()[0]).ports.len()),
        kit_record_queue(scratch.to_path_buf()),
        kit_generate(w, &topo, seed),
    ]
}

/// Inter-event offsets like a packet run's: mostly serialization and
/// propagation gaps inside the wheel, some control-tick-distance timers in
/// the overflow tier, some exact ties.
fn hold_offset_ps(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..16u32) {
        0..=9 => rng.gen_range(0..700_000),
        10..=13 => rng.gen_range(0..4_000_000),
        14 => 50_000_000,
        _ => 0,
    }
}

fn kit_event_hold(depth: usize) -> KitOp {
    const OPS: u64 = 200_000;
    let mut rng = SmallRng::seed_from_u64(1);
    let mut q = EventQueue::sized_for(depth);
    let mut t = 0u64;
    for i in 0..depth {
        t += hold_offset_ps(&mut rng) / 16;
        let ev = Event::HostTimer {
            host: NodeId(0),
            token: i as u64,
        };
        q.push(SimTime::from_ps(t), ev);
    }
    KitOp {
        metric: "event.hold_ns_per_op",
        scale: Some(1e9),
        run: Box::new(move || {
            let mut acc = 0u64;
            for i in 0..OPS {
                let s = q.pop().expect("the hold keeps the queue at depth");
                acc ^= s.seq;
                let at = SimTime::from_ps(s.time.as_ps() + hold_offset_ps(&mut rng));
                let ev = Event::HostTimer {
                    host: NodeId(0),
                    token: i,
                };
                q.push(at, ev);
            }
            std::hint::black_box(acc);
            OPS
        }),
    }
}

/// One switch egress port: admission against the shared buffer, RED/ECN
/// marking, enqueue, DWRR pick, dequeue, release.
fn kit_queue_path() -> KitOp {
    const PKTS: u64 = 200_000;
    const HELD: usize = 96;
    let cfg = SimConfig::default();
    let ecn = EcnConfig::dcqcn_paper();
    let mut rng = SmallRng::seed_from_u64(2);
    let mut arena = QueueArena::with_capacity(cfg.port.arena_slots);
    let mut telem = PortTelemetry::new();
    let mut queues: Vec<EgressQueue> = (0..cfg.port.num_prios)
        .map(|p| EgressQueue::new(p, cfg.port.max_queue_bytes[p], cfg.port.ecn[p]))
        .collect();
    let mut dwrr = Dwrr::new(cfg.port.weights.clone());
    let mut buffer = SharedBuffer::new(cfg.buffer_bytes, cfg.pfc_alpha, cfg.pfc_xon_frac);
    let mut heads = vec![None; cfg.port.num_prios];
    let mut now = 0u64;
    let pkt = |i: u64| {
        Packet::data(
            FlowId(i % 64),
            NodeId(0),
            NodeId(1),
            PRIO_RDMA,
            i * 1000,
            1000,
            false,
            Ecn::Ect,
        )
    };
    let mut enqueue = move |i: u64,
                            queues: &mut Vec<EgressQueue>,
                            arena: &mut QueueArena,
                            telem: &mut PortTelemetry,
                            buffer: &mut SharedBuffer,
                            now: u64| {
        let mut p = pkt(i);
        if !buffer.can_admit(p.size) {
            return;
        }
        buffer.charge(p.size);
        let q = &mut queues[PRIO_RDMA as usize];
        if rng.gen::<f64>() < ecn.mark_probability(q.marking_qlen()) {
            p.ecn = Ecn::Ce;
        }
        let item = QItem {
            pkt: p,
            ingress: Some(PortId(0)),
        };
        q.push(arena, telem, item, SimTime::from_ps(now));
    };
    for i in 0..HELD as u64 {
        enqueue(i, &mut queues, &mut arena, &mut telem, &mut buffer, now);
    }
    KitOp {
        metric: "queues.enq_deq_ns_per_pkt",
        scale: Some(1e9),
        run: Box::new(move || {
            for i in 0..PKTS {
                now += 336_000; // one 1048-byte packet at 25 Gbit/s
                enqueue(i, &mut queues, &mut arena, &mut telem, &mut buffer, now);
                for (h, q) in heads.iter_mut().zip(&queues) {
                    *h = q.head_size(&arena);
                }
                let class = dwrr.pick(&heads, 0).expect("a queue holds packets");
                let item = queues[class]
                    .pop(&mut arena, &mut telem, SimTime::from_ps(now))
                    .expect("the picked class has a head");
                buffer.release(item.pkt.size);
                std::hint::black_box(item.pkt.ecn);
            }
            PKTS
        }),
    }
}

fn kit_next_hop(topo: &Topology) -> KitOp {
    const LOOKUPS: usize = 1 << 16;
    let routes = RouteTable::build(topo);
    let mut rng = SmallRng::seed_from_u64(3);
    let (sw, hosts) = (topo.switches(), topo.hosts());
    let queries: Vec<(NodeId, NodeId, FlowId)> = (0..LOOKUPS)
        .map(|_| {
            (
                sw[rng.gen_range(0..sw.len())],
                hosts[rng.gen_range(0..hosts.len())],
                FlowId(rng.gen::<u64>()),
            )
        })
        .collect();
    KitOp {
        metric: "routing.next_hop_ns",
        scale: Some(1e9),
        run: Box::new(move || {
            let mut acc = 0u64;
            for _ in 0..8 {
                for &(node, dst, flow) in &queries {
                    acc += routes.next_hop(node, dst, flow).0 as u64;
                }
            }
            std::hint::black_box(acc);
            8 * LOOKUPS as u64
        }),
    }
}

/// What a link flap costs: recompute every route of the 1024-host Clos
/// with one fabric port down.
fn kit_route_rebuild() -> KitOp {
    let topo = TopologySpec::paper_xl_clos().build();
    let mut routes = RouteTable::build(&topo);
    let down = (topo.switches()[0], PortId(16));
    KitOp {
        metric: "routing.rebuild_us",
        scale: Some(1e6),
        run: Box::new(move || {
            routes.rebuild_filtered(&topo, |n, p| (n, p) != down);
            std::hint::black_box(&routes);
            1
        }),
    }
}

fn kit_dcqcn() -> KitOp {
    const ROUNDS: u64 = 100_000;
    let cfg = DcqcnConfig::default();
    let line = 25e9;
    let mut s = DcqcnState::new(line, SimTime::ZERO);
    let mut now = 0u64;
    KitOp {
        metric: "transport.dcqcn_update_ns",
        scale: Some(1e9),
        run: Box::new(move || {
            for i in 0..ROUNDS {
                now += 55_000_000;
                let t = SimTime::from_ps(now);
                if i % 8 == 0 {
                    s.on_cnp(&cfg, t);
                }
                s.on_alpha_timer(&cfg, t);
                s.on_rate_timer(&cfg, t, line);
                s.on_bytes_sent(&cfg, 64_000, line);
                std::hint::black_box(s.pace_delay(1048));
            }
            // Five state-machine calls a round.
            5 * ROUNDS
        }),
    }
}

fn kit_agent() -> DdqnAgent {
    let cfg = acc_config();
    let state_dim = cfg.history_k * acc_core::FEATURES_PER_OBS;
    let n_actions = ActionSpace::templates().len();
    let mut agent = DdqnAgent::new(state_dim, n_actions, cfg.ddqn, ACC_SEED);
    for i in 0..512usize {
        agent.observe(Transition {
            state: vec![(i % 7) as f32 * 0.1; state_dim],
            action: i % n_actions,
            reward: (i % 3) as f32,
            next_state: vec![(i % 5) as f32 * 0.1; state_dim],
            done: false,
        });
    }
    agent
}

fn kit_train_step() -> KitOp {
    const STEPS: u64 = 200;
    let mut agent = kit_agent();
    KitOp {
        metric: "rl.train_step_us",
        scale: Some(1e6),
        run: Box::new(move || {
            for _ in 0..STEPS {
                std::hint::black_box(agent.train_step());
            }
            STEPS
        }),
    }
}

/// One control tick's batched inference: one row per port of a switch.
fn kit_select_batch(batch: usize) -> KitOp {
    const TICKS: u64 = 2_000;
    let mut agent = kit_agent();
    let states: Vec<f32> = (0..batch * agent.state_dim())
        .map(|i| (i % 11) as f32 * 0.09)
        .collect();
    let mut out = Vec::with_capacity(batch);
    KitOp {
        metric: "rl.select_batch_us",
        scale: Some(1e6),
        run: Box::new(move || {
            for _ in 0..TICKS {
                agent.select_actions_batch(&states, batch, &mut out);
                std::hint::black_box(&out);
            }
            TICKS
        }),
    }
}

fn kit_record_queue(dir: PathBuf) -> KitOp {
    const SAMPLES: u64 = 50_000;
    let sink = JsonlSink::create(&dir).expect("the kit's scratch directory is writable");
    let mut rec = RunRecorder::new().with_sink(Box::new(sink));
    KitOp {
        metric: "telemetry.record_queue_ns",
        scale: Some(1e9),
        run: Box::new(move || {
            for i in 0..SAMPLES {
                rec.record_queue(&QueueSample {
                    t_ps: i * 100_000_000,
                    node: 300 + (i % 18) as u32,
                    port: (i % 30) as u16,
                    prio: PRIO_RDMA,
                    qlen_bytes: 1048 * (i % 200),
                    d_tx_bytes: 312_500,
                    d_tx_pkts: 298,
                    d_marked_pkts: i % 7,
                    d_marked_bytes: 1048 * (i % 7),
                    d_enq_pkts: 300,
                    buffer_used_bytes: 1_000_000 + i,
                    ..QueueSample::default()
                });
            }
            rec.flush().expect("kit samples reach the disk");
            SAMPLES
        }),
    }
}

fn kit_generate(w: Workload, topo: &Topology, seed: u64) -> KitOp {
    let hosts = topo.hosts().to_vec();
    let host_bps = topo.host_rate_bps(hosts[0]);
    let (load, window) = match w {
        Workload::XlClosSharded => (SHARDED_LOAD, SimTime::from_ms(4)),
        Workload::XlFlowsHybrid => (0.6, SimTime::from_ms(4)),
        w => (packet_spec(w).load, SimTime::from_ms(100)),
    };
    let g = PoissonGen::new(SizeDist::web_search(), load, CcKind::Dcqcn, seed);
    KitOp {
        metric: "workloads.generate_flows_per_s",
        scale: None,
        run: Box::new(move || g.generate(&hosts, host_bps, SimTime::ZERO, window).len() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fct_digest;

    /// A 4-host scenario with every shim in place: guarded ACC, faults off,
    /// recorder on.
    fn tiny(traced: bool, dir: &Path, seed: u64) -> TrialOut {
        let spec = PacketSpec {
            topo: TopologySpec::single_switch(4, 25_000_000_000, SimTime::from_ns(500)),
            policy: Policy::AccGuarded,
            load: 0.5,
            window: SimTime::from_ms(2),
            drain: SimTime::from_ms(20),
            incast: false,
            faults: false,
            record: true,
        };
        let cfg = TrialCfg {
            workload: Workload::FaultGuardedRecorded,
            seed,
            traced,
            setup_only: false,
            shards: 1,
            record_dir: dir,
        };
        let probe = Probe::new(traced, 0, Instant::now());
        packet_trial(&spec, &cfg, &probe)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("acc-benchmark-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(dir.join(name));
        dir.join(name)
    }

    #[test]
    fn shims_and_mirrored_install_are_transparent() {
        let (a, b) = (scratch("plain"), scratch("traced"));
        let plain = tiny(false, &a, 7);
        let traced = tiny(true, &b, 7);
        assert!(plain.offered > 10 && plain.flows.len() == plain.offered);
        assert!(plain.flows.iter().all(|f| f.end_ps.is_some()));
        assert_eq!(fct_digest(&plain.flows), fct_digest(&traced.flows));
        assert_eq!(plain.recorded, traced.recorded);
        assert_eq!(plain.counts, traced.counts);
        // The shims saw the run; the plain trial has none.
        assert!(traced.busy.transport_calls > 1000 && traced.busy.control_ticks > 100);
        assert_eq!(
            traced.busy.sink_samples,
            traced.recorded.unwrap().iter().sum()
        );
        assert_eq!(plain.busy.transport_calls, 0);
        for d in [a, b] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn seed_changes_the_arrivals_and_nothing_else() {
        let spec = packet_spec(Workload::AccOnlineIncast);
        let hosts: Vec<NodeId> = spec.topo.build().hosts().to_vec();
        let key = |v: &[Arrival]| -> Vec<(u64, u32, u32, u64)> {
            v.iter()
                .map(|a| (a.at.as_ps(), a.src.0, a.msg.dst.0, a.msg.bytes))
                .collect()
        };
        let a = packet_arrivals(&spec, &hosts, 25_000_000_000, 7);
        assert_eq!(
            key(&a),
            key(&packet_arrivals(&spec, &hosts, 25_000_000_000, 7))
        );
        assert_ne!(
            key(&a),
            key(&packet_arrivals(&spec, &hosts, 25_000_000_000, 8))
        );
        // Engine, agent and fault seeds do not depend on `--seed`.
        assert_eq!(sim_config().seed, SIM_SEED);
        assert_eq!(acc_config().seed, ACC_SEED);
        let topo = TopologySpec::paper_testbed().build();
        assert_eq!(fault_plan(&topo, SimTime::from_ms(30)).seed, FAULT_SEED);
    }
}
