//! The distributed ACC controller: one per switch (§3.2–§4).
//!
//! Every control tick (`Δt`, one order of magnitude above the RTT so the
//! DCQCN control loop has time to settle between actions, §3.3), for every
//! monitored egress queue the controller:
//!
//! 1. reads the telemetry registers (queue depth, tx bytes, marked tx
//!    bytes) and differences them against the previous tick;
//! 2. computes the reward of the *previous* action from the interval's link
//!    utilisation and time-average queue length;
//! 3. stores the transition `{S_t, a_t, r_t, S_{t+1}}` into the replay
//!    memory;
//! 4. selects the next action ε-greedily and writes the chosen
//!    `{Kmin, Kmax, Pmax}` template into the forwarding chip;
//! 5. (when online training is enabled) hands the agent to
//!    [`rl::trainer`] for its DDQN minibatch updates (Algorithm 1) and
//!    returns to the engine. The agent comes back at the first point
//!    anything reads it — the top of this switch's next tick, an
//!    experience exchange, an accessor — so the update overlaps the packet
//!    events in between, the way the switch CPU trains while the chip
//!    forwards. Which thread ran it changes no recorded byte (the argument
//!    is in the [`rl::trainer`] module docs).
//!
//! H-ACC ([`AccController::hybrid`], the §6 hybrid) is this same controller
//! with a link to a [`crate::hybrid::CentralTrainer`]: step 3 queues the
//! transition for the trainer instead of the local replay, step 5 is
//! replaced by reporting the tick's transitions to the trainer, and every
//! `sync_ticks` ticks the local agent loads the trainer's published model.
//!
//! The busy/idle optimisation of §4.2 suspends inference for queues that
//! stay below `Kmin` with an unchanged reward for three consecutive slots,
//! resuming the moment the queue crosses `Kmin` again.
//!
//! All queues of a switch share one DDQN (the hardware runs one model and
//! iterates over queues); the model itself can additionally be shared
//! *across* switches during offline pre-training (see [`crate::trainer`]),
//! and experience flows between switches through a global replay memory
//! (§3.4).

use crate::action::ActionSpace;
use crate::guard::{GuardConfig, GuardedController};
use crate::hybrid::{CentralLink, CentralTrainer, SharedTrainer};
use crate::reward::RewardConfig;
use crate::state::QueueObserver;
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use rl::trainer::Worker;
use rl::{DdqnAgent, DdqnConfig, ReplayBuffer, Seat, TrainerStats};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Configuration of an [`AccController`].
#[derive(Clone, Debug)]
pub struct AccConfig {
    /// DDQN hyper-parameters.
    pub ddqn: DdqnConfig,
    /// Reward weights/mapping.
    pub reward: RewardConfig,
    /// History length `k` (paper: 3).
    pub history_k: usize,
    /// Traffic classes whose queues ACC tunes (default: the RDMA class).
    pub target_prios: Vec<Prio>,
    /// Train online (store transitions and run minibatch updates).
    pub online_training: bool,
    /// Explore online (ε-greedy). With `false`, pure greedy inference.
    pub explore: bool,
    /// Minibatch updates per control tick when training online.
    pub trains_per_tick: usize,
    /// Enable the §4.2 busy/idle inference-skipping optimisation.
    pub idle_optimization: bool,
    /// Exchange experience with the global replay memory every this many
    /// ticks (paper: "several seconds"; scaled down for simulation).
    pub exchange_every_ticks: u64,
    /// Transitions copied per exchange, each direction.
    pub exchange_batch: usize,
    /// RNG seed for this controller's agent.
    pub seed: u64,
}

impl Default for AccConfig {
    fn default() -> Self {
        AccConfig {
            ddqn: DdqnConfig::default(),
            reward: RewardConfig::default(),
            history_k: 3,
            target_prios: vec![PRIO_RDMA],
            online_training: true,
            explore: true,
            trains_per_tick: 1,
            idle_optimization: true,
            exchange_every_ticks: 200,
            exchange_batch: 64,
            seed: 1,
        }
    }
}

/// A queue that reached its decision point this control tick. Collected
/// during the per-queue telemetry pass and consumed by the end-of-tick
/// batched selection pass; its state is the same row of
/// [`BatchSelect::states`].
struct PendingDecision {
    key: (u16, Prio),
    port: PortId,
    prio: Prio,
    reward: f64,
    /// Replay length *right after this queue's observe*: the record of
    /// queue `i` shows the replay before queue `i+1` observed, so the value
    /// is captured here, not at record time.
    replay_len: usize,
}

/// Per-queue bookkeeping.
struct QueueCtx {
    observer: QueueObserver,
    /// The state of the queue's last decision, the `S` of its next
    /// transition: one buffer, rewritten decision after decision.
    prev_state: Vec<f32>,
    /// The action of that decision; `None` when there is no transition to
    /// complete (before the first decision, across an idle gap).
    prev_action: Option<usize>,
    action_idx: usize,
    /// §4.2 busy/idle machinery.
    idle: bool,
    /// Reward of the most recent interval; `None` before the first.
    last_reward: Option<f64>,
    unchanged_slots: u32,
}

/// Counters for the §4.2 optimisation and general introspection.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccStats {
    /// Control ticks handled.
    pub ticks: u64,
    /// Inferences actually run.
    pub inferences: u64,
    /// Inferences skipped because the queue was idle.
    pub skipped_idle: u64,
    /// Training minibatches run. Counted when the update is submitted
    /// (whether it trains is known then), so the number is the same
    /// whether or not the update has finished.
    pub train_steps: u64,
}

/// One update that ran on a helper thread while the engine's profiler was
/// on: the Chrome trace draws these on a track of their own.
#[derive(Clone, Copy, Debug)]
pub struct HelperSpan {
    /// Wall-clock start of the update.
    pub start: Instant,
    /// Wall-clock end of the update.
    pub end: Instant,
    /// Which helper thread ran it.
    pub helper: usize,
}

/// Helper spans a controller keeps per profiled run, the same order of
/// magnitude as the profiler's own span cap.
const HELPER_SPAN_CAP: usize = 65_536;

/// Scratch for the once-per-tick action selection over every pending queue
/// of a switch: one batched forward pass instead of one per queue.
/// Persistent across ticks so the steady-state control loop does not grow
/// the heap.
#[derive(Default)]
struct BatchSelect {
    /// The tick's pending states, one row each, written there by the
    /// queues' observers.
    states: Vec<f32>,
    decisions: Vec<(usize, f64)>,
    greedy: Vec<usize>,
}

impl BatchSelect {
    /// Choose an action for each row of `states` (ε-greedy when `explore`,
    /// else greedy) into `decisions`, one `(action, ε)` per row, in order.
    fn select(&mut self, agent: &mut DdqnAgent, explore: bool) {
        let n = self.states.len() / agent.state_dim();
        if explore {
            agent.select_actions_batch(&self.states, n, &mut self.decisions);
        } else {
            agent.best_actions_batch(&self.states, n, &mut self.greedy);
            let eps = agent.epsilon();
            self.decisions.clear();
            self.decisions.extend(self.greedy.iter().map(|&a| (a, eps)));
        }
    }
}

/// The per-switch ACC module.
pub struct AccController {
    cfg: AccConfig,
    space: ActionSpace,
    /// The DDQN's seat: home between join and submit, away in an update
    /// otherwise. `Rc` so offline training can share one model across
    /// switches (a unique `Rc` is simply a private agent).
    agent: Rc<RefCell<Seat>>,
    /// Optional global replay memory shared across switches.
    global_replay: Option<Rc<RefCell<ReplayBuffer>>>,
    queues: HashMap<(u16, Prio), QueueCtx>,
    /// Introspection counters.
    pub stats: AccStats,
    /// Optional flight recorder: when attached, every decision emits an
    /// [`telemetry::AgentSample`]. Disabled is one `Option` check.
    recorder: Option<telemetry::SharedRecorder>,
    /// TD loss of the most recent training minibatch this controller has
    /// joined.
    last_td_loss: Option<f32>,
    /// The agent's anomaly count when this tick's update was submitted:
    /// every finished update plus this tick's selection.
    anomalies: u64,
    /// Where this controller's updates ran. Host timing, not simulation
    /// state: for profiles and perf output only.
    pub trainer: TrainerStats,
    helper_spans: Vec<HelperSpan>,
    /// Queues awaiting this tick's batched selection pass.
    pending: Vec<PendingDecision>,
    select: BatchSelect,
    /// H-ACC's central trainer; `None` for D-ACC.
    central: Option<CentralLink>,
}

impl AccController {
    /// Create a controller with its own private agent.
    pub fn new(cfg: AccConfig, space: ActionSpace) -> Self {
        let state_dim = cfg.history_k * crate::state::FEATURES_PER_OBS;
        let agent = DdqnAgent::new(state_dim, space.len(), cfg.ddqn.clone(), cfg.seed);
        Self::with_agent(cfg, space, Rc::new(RefCell::new(Seat::new(agent))))
    }

    /// Create a controller around an existing (possibly shared) agent.
    pub fn with_agent(cfg: AccConfig, space: ActionSpace, agent: Rc<RefCell<Seat>>) -> Self {
        {
            let mut seat = agent.borrow_mut();
            let a = seat.get();
            assert_eq!(
                a.state_dim(),
                cfg.history_k * crate::state::FEATURES_PER_OBS,
                "agent input must match k x 4 features"
            );
            assert_eq!(a.n_actions(), space.len(), "agent output vs action space");
        }
        AccController {
            cfg,
            space,
            agent,
            global_replay: None,
            queues: HashMap::new(),
            stats: AccStats::default(),
            recorder: None,
            last_td_loss: None,
            anomalies: 0,
            trainer: TrainerStats::default(),
            helper_spans: Vec::new(),
            pending: Vec::new(),
            select: BatchSelect::default(),
            central: None,
        }
    }

    /// Create a controller seeded from a pre-trained model (§4.3 offline →
    /// online hand-off), with a fresh fast-decaying exploration budget.
    pub fn from_model(cfg: AccConfig, space: ActionSpace, model: &rl::Mlp) -> Self {
        let ctl = Self::new(cfg, space);
        ctl.agent.borrow_mut().get().load_model(model);
        ctl
    }

    /// An H-ACC controller (§6): infers with a local agent that starts from
    /// `trainer`'s published model and never trains (`online_training` is
    /// switched off), ships every transition to `trainer` after the tick's
    /// select + apply, and loads the newest published model every
    /// `sync_ticks` ticks.
    pub fn hybrid(
        mut cfg: AccConfig,
        space: ActionSpace,
        trainer: SharedTrainer,
        sync_ticks: u64,
    ) -> Self {
        cfg.online_training = false;
        let model = trainer.borrow().model();
        let mut ctl = Self::from_model(cfg, space, &model);
        ctl.central = Some(CentralLink::new(trainer, sync_ticks));
        ctl
    }

    /// Models this controller loaded from its central trainer (0 unless it
    /// was built by [`AccController::hybrid`]).
    pub fn syncs(&self) -> u64 {
        self.central.as_ref().map_or(0, |c| c.syncs)
    }

    /// Attach the cross-switch global replay memory.
    pub fn set_global_replay(&mut self, g: Rc<RefCell<ReplayBuffer>>) {
        self.global_replay = Some(g);
    }

    /// Attach a flight recorder: every decision will emit an
    /// [`telemetry::AgentSample`].
    pub fn set_recorder(&mut self, rec: telemetry::SharedRecorder) {
        self.recorder = Some(rec);
    }

    /// Snapshot the current model (after any update in flight).
    pub fn export_model(&self) -> rl::Mlp {
        self.agent.borrow_mut().get().export_model()
    }

    /// Handle to the (possibly shared) agent's seat; [`Seat::get`] reaches
    /// the agent, waiting for an update in flight.
    pub fn agent(&self) -> Rc<RefCell<Seat>> {
        self.agent.clone()
    }

    /// The Q-values the agent's batched greedy selection reads for `state`
    /// (tests compare models through it).
    #[cfg(test)]
    pub(crate) fn greedy_q_values(&self, state: &[f32]) -> Vec<f32> {
        let mut seat = self.agent.borrow_mut();
        let agent = seat.get();
        agent.best_actions_batch(state, 1, &mut Vec::new());
        agent.batch_q_row(0).expect("a greedy row").to_vec()
    }

    /// Drain the helper-thread update spans kept while profiling.
    pub fn take_helper_spans(&mut self) -> Vec<HelperSpan> {
        std::mem::take(&mut self.helper_spans)
    }

    /// The currently applied action index for a queue, if any.
    pub fn current_action(&self, port: PortId, prio: Prio) -> Option<usize> {
        self.queues.get(&(port.0, prio)).map(|q| q.action_idx)
    }

    /// The reward of a queue's most recent interval, if it has had one.
    pub fn last_reward(&self, port: PortId, prio: Prio) -> Option<f64> {
        self.queues.get(&(port.0, prio)).and_then(|q| q.last_reward)
    }

    /// Training-anomaly signals (NaN Q-values/targets) raised by this
    /// controller's agent, as of the last *finished* update plus the
    /// current tick's action selection. [`crate::guard`] polls this right
    /// after the tick, one line after the update was submitted; asking the
    /// agent itself would wait for that update and undo the overlap. So a
    /// NaN TD target from tick `t`'s update shows here in tick `t+1`, a NaN
    /// Q-vector at selection in the same tick.
    pub fn agent_anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Phase A of a control tick: read telemetry, compute the reward, store
    /// the previous transition, and (unless the queue is idle) queue a
    /// [`PendingDecision`] for the batched selection pass.
    fn prepare_queue(&mut self, view: &mut SwitchView<'_>, port: PortId, prio: Prio) {
        let snap = view.snapshot(port, prio);
        let now = view.now();
        let key = (port.0, prio);
        let k = self.cfg.history_k;
        let space_len = self.space.len();

        let q = self.queues.entry(key).or_insert_with(|| {
            // First sight of this queue: encode whatever config it carries.
            let action_idx = snap
                .ecn
                .map(|e| self.space.nearest(&e))
                .unwrap_or(space_len / 2);
            QueueCtx {
                observer: QueueObserver::new(k, snap.telem, now),
                prev_state: Vec::new(),
                prev_action: None,
                action_idx,
                idle: false,
                last_reward: None,
                unchanged_slots: 0,
            }
        });

        let encoded = self.space.encode(q.action_idx);
        let Some(iv) = q.observer.observe(&snap, now, encoded) else {
            return;
        };
        let reward = self.cfg.reward.reward(iv.utilization, iv.avg_qlen_bytes);
        let last_reward = q.last_reward.replace(reward).unwrap_or(f64::NAN);

        // §4.2 busy/idle: skip inference for quiet queues. A queue becomes
        // idle after three slots below Kmin with an unchanged reward; it
        // wakes when the queue crosses Kmin *or* the reward moves again
        // (traffic resumed) — waking on Kmin alone would freeze a queue
        // forever under a high-threshold action.
        if self.cfg.idle_optimization {
            let kmin = snap.ecn.map(|e| e.kmin_bytes).unwrap_or(0);
            let changed = (reward - last_reward).abs() > 1e-6;
            if q.idle {
                if snap.qlen_bytes > kmin || changed {
                    q.idle = false;
                    q.unchanged_slots = 0;
                } else {
                    q.prev_action = None; // don't learn across the idle gap
                    self.stats.skipped_idle += 1;
                    return;
                }
            } else {
                let unchanged = !changed && last_reward.is_finite();
                if snap.qlen_bytes < kmin && unchanged {
                    q.unchanged_slots += 1;
                    if q.unchanged_slots >= 3 {
                        q.idle = true;
                    }
                } else {
                    q.unchanged_slots = 0;
                }
            }
        }

        // The state goes straight into the tick's selection batch, as the
        // row of the decision queued below.
        let states = &mut self.select.states;
        let row = states.len();
        q.observer.write_state(states);
        let state = &states[row..];

        // Learn from the previous action: locally, or (H-ACC) centrally.
        let mut seat = self.agent.borrow_mut();
        let agent = seat.get();
        if let Some(pa) = q.prev_action.take() {
            let (ps, r) = (q.prev_state.as_slice(), reward as f32);
            if let Some(central) = &mut self.central {
                central.queue(ps, pa, r, state);
            } else if self.cfg.online_training {
                agent.observe_row(ps, pa, r, state, false);
            }
        }
        let replay_len = agent.replay.len();
        drop(seat);

        // Defer the ε-greedy selection to the end-of-tick batched pass.
        self.pending.push(PendingDecision {
            key,
            port,
            prio,
            reward,
            replay_len,
        });
    }

    /// Phases B and C of a control tick: one [`BatchSelect`] pass selects an
    /// action for every pending queue, then records and applies them in
    /// the original queue order.
    fn decide_pending(&mut self, view: &mut SwitchView<'_>) {
        let n = self.pending.len();
        if n == 0 {
            return;
        }
        let mut seat = self.agent.borrow_mut();
        let agent = seat.get();
        self.select.select(agent, self.cfg.explore);
        let states = self.select.states.chunks_exact(agent.state_dim());
        // H-ACC's model comes from the central trainer: its steps, not the
        // local agent's (which never trains).
        let train_steps = match &self.central {
            Some(central) => central.train_steps(),
            None => agent.train_steps(),
        };
        self.stats.inferences += n as u64;

        let now = view.now();
        let node = view.node().0;
        let decided = self.pending.iter().zip(states).zip(&self.select.decisions);
        for (row, ((d, state), &(action, epsilon))) in decided.enumerate() {
            let ecn = self.space.get(action);
            if let Some(rec) = &self.recorder {
                // The net's view of a greedy decision, from the forward pass
                // the selection ran; an explored one has none.
                let q_row = agent.batch_q_row(row);
                let q_second = q_row.map(|q| {
                    let others = q[..action].iter().chain(&q[action + 1..]);
                    others.fold(f32::NEG_INFINITY, |m, &v| m.max(v)) as f64
                });
                let q_chosen = q_row.map(|q| q[action] as f64);
                rec.borrow_mut().record_agent(&telemetry::AgentSample {
                    t_ps: now.as_ps(),
                    node,
                    port: d.port.0,
                    prio: d.prio,
                    state: state.to_vec(),
                    action_idx: action,
                    kmin_bytes: ecn.kmin_bytes,
                    kmax_bytes: ecn.kmax_bytes,
                    pmax: ecn.pmax,
                    epsilon,
                    reward: d.reward,
                    td_loss: self.last_td_loss.map(|l| l as f64),
                    replay_len: d.replay_len,
                    train_steps,
                    greedy: q_row.is_some(),
                    q_chosen,
                    // The greedy action is the argmax.
                    q_best: q_chosen,
                    q_second,
                });
            }
            let q = self.queues.get_mut(&d.key).expect("pending queue exists");
            q.prev_state.clear();
            q.prev_state.extend_from_slice(state);
            q.prev_action = Some(action);
            q.action_idx = action;
            view.set_ecn(d.port, d.prio, Some(ecn));
        }
        self.pending.clear();
        self.select.states.clear();
    }

    /// Phase D: hand the agent to the trainer for this tick's updates.
    /// `overlap` offers the job to the helper threads; without it the job
    /// waits for the join that follows.
    fn submit(&mut self, overlap: bool, timed: bool) {
        let mut seat = self.agent.borrow_mut();
        let agent = seat.get();
        self.anomalies = agent.anomalies();
        let steps = self.cfg.trains_per_tick;
        if !self.cfg.online_training || steps == 0 || !agent.ready_to_train() {
            return;
        }
        self.stats.train_steps += steps as u64;
        self.trainer.submitted += 1;
        seat.submit(DdqnAgent::train_step, steps, overlap, timed);
    }

    /// Take the agent back and book what its update reports.
    fn join(&mut self, view: &mut SwitchView<'_>, profiling: bool) {
        let t0 = profiling.then(Instant::now);
        if let Some(done) = self.agent.borrow_mut().join() {
            self.trainer.record(&done);
            if let Some(loss) = done.loss {
                self.last_td_loss = Some(loss);
            }
            if let (Worker::Helper(helper), Some((start, end))) = (done.by, done.span) {
                if self.helper_spans.len() < HELPER_SPAN_CAP {
                    self.helper_spans.push(HelperSpan { start, end, helper });
                }
            }
        }
        if let Some(t0) = t0 {
            view.profile_span("acc_join", t0);
        }
    }

    fn exchange_due(&self) -> bool {
        self.global_replay.is_some()
            && self.cfg.exchange_every_ticks != 0
            && self
                .stats
                .ticks
                .is_multiple_of(self.cfg.exchange_every_ticks)
    }

    fn exchange(&mut self) {
        let Some(global) = &self.global_replay else {
            return;
        };
        let mut seat = self.agent.borrow_mut();
        let agent = seat.get();
        let mut g = global.borrow_mut();
        // Push local experience up, pull shared experience down. We reuse a
        // cheap deterministic RNG derived from the tick counter.
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(
            self.cfg.seed ^ self.stats.ticks,
        );
        let n = self.cfg.exchange_batch;
        agent.replay.exchange_into(&mut g, &mut rng, n);
        g.exchange_into(&mut agent.replay, &mut rng, n);
    }
}

impl QueueController for AccController {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        // Each phase — join, observe, select+apply, submit — gets a
        // wall-clock span when the engine's self-profiler is on, so a slow
        // tick (`acc_observe`, `acc_select_apply`, `acc_submit`) can be told
        // from a slow update (`acc_join`). One branch per tick when it is off.
        let profiling = view.profiling_enabled();
        self.stats.ticks += 1;
        // The previous tick's update ends here at the latest.
        self.join(view, profiling);
        let t0 = profiling.then(Instant::now);
        let n_ports = view.num_ports();
        for p in 0..n_ports {
            for i in 0..self.cfg.target_prios.len() {
                let prio = self.cfg.target_prios[i];
                self.prepare_queue(view, PortId(p as u16), prio);
            }
        }
        if let Some(t0) = t0 {
            view.profile_span("acc_observe", t0);
        }
        let t0 = profiling.then(Instant::now);
        self.decide_pending(view);
        if let Some(t0) = t0 {
            view.profile_span("acc_select_apply", t0);
        }
        if let Some(central) = &mut self.central {
            let t0 = profiling.then(Instant::now);
            central.after_select(self.stats.ticks, self.agent.borrow_mut().get());
            if let Some(t0) = t0 {
                view.profile_span("acc_central", t0);
            }
        }
        // Nothing reads a private agent before this switch's next tick,
        // except the experience exchange. An agent shared with other
        // switches is read by the next one of this same tick.
        let exchange = self.exchange_due();
        let overlap = !exchange && Rc::strong_count(&self.agent) == 1;
        let t0 = profiling.then(Instant::now);
        self.submit(overlap, profiling);
        if let Some(t0) = t0 {
            view.profile_span("acc_submit", t0);
        }
        if !overlap {
            self.join(view, profiling);
        }
        if exchange {
            let t0 = profiling.then(Instant::now);
            self.exchange();
            if let Some(t0) = t0 {
                view.profile_span("acc_exchange", t0);
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The one per-switch installer loop: switch `i` (in `topo.switches()`
/// order) gets `make(cfg_i)`, where `cfg_i` is `cfg` seeded `cfg.seed + i`
/// — the *global* index, so a shard that owns only some switches still
/// seeds each exactly as a whole-fabric run would.
fn install_per_switch<H: ControllerHost>(
    host: &mut H,
    cfg: &AccConfig,
    mut make: impl FnMut(AccConfig) -> Box<dyn QueueController>,
) {
    for (i, sw) in host.topo().switches().to_vec().into_iter().enumerate() {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(i as u64);
        host.set_controller(sw, make(c));
    }
}

/// D-ACC on every switch: each gets its own agent, starting from `model`
/// when given, wrapped in a [`GuardedController`] when `guard` is given.
///
/// Replay scope follows the host: on one shard (an unsharded simulator or
/// `--shards 1`, the same run) every switch exchanges experience with one
/// shared global replay memory, the paper's §3.4 multi-agent design (which
/// makes a switch's trajectory depend on its peers); on one of two or more
/// shards ([`ControllerHost::is_sharded`]) each switch keeps its replay
/// private, so its behaviour is a function of the switch alone and merged
/// telemetry is byte-identical at any such shard count.
///
/// Returns the global replay handle (unused on two or more shards).
pub(crate) fn install_dacc<H: ControllerHost>(
    host: &mut H,
    cfg: &AccConfig,
    space: &ActionSpace,
    model: Option<&rl::Mlp>,
    guard: Option<&GuardConfig>,
) -> Rc<RefCell<ReplayBuffer>> {
    let global = Rc::new(RefCell::new(ReplayBuffer::new(
        cfg.ddqn.replay_capacity * 4,
    )));
    let share_replay = !host.is_sharded();
    install_per_switch(host, cfg, |c| {
        let prios = c.target_prios.clone();
        let mut ctl = match model {
            Some(m) => AccController::from_model(c, space.clone(), m),
            None => AccController::new(c, space.clone()),
        };
        if share_replay {
            ctl.set_global_replay(global.clone());
        }
        match guard {
            Some(g) => Box::new(GuardedController::new(Box::new(ctl), g.clone(), prios)),
            None => Box::new(ctl),
        }
    });
    global
}

/// H-ACC on every switch ([`AccController::hybrid`]), all reporting to one
/// [`crate::hybrid::CentralTrainer`] that publishes a model every 50
/// training steps; each switch loads it every `sync_ticks` ticks. Returns
/// the shared trainer.
pub fn install_hybrid<H: ControllerHost>(
    sim: &mut H,
    cfg: &AccConfig,
    space: &ActionSpace,
    sync_ticks: u64,
) -> SharedTrainer {
    let trainer = Rc::new(RefCell::new(CentralTrainer::new(cfg, space, 50)));
    install_per_switch(sim, cfg, |c| {
        Box::new(AccController::hybrid(
            c,
            space.clone(),
            trainer.clone(),
            sync_ticks,
        ))
    });
    trainer
}

/// Install fresh ACC controllers on every switch (see
/// [`install_acc_with_model`] to start from a trained model,
/// [`crate::guard::install_guarded_acc`] to wrap them in guardrails).
/// Returns the shared global replay handle.
pub fn install_acc<H: ControllerHost>(
    sim: &mut H,
    cfg: &AccConfig,
    space: &ActionSpace,
) -> Rc<RefCell<ReplayBuffer>> {
    install_dacc(sim, cfg, space, None, None)
}

/// Install ACC controllers that all start from `model`.
pub fn install_acc_with_model<H: ControllerHost>(
    sim: &mut H,
    cfg: &AccConfig,
    space: &ActionSpace,
    model: &rl::Mlp,
) -> Rc<RefCell<ReplayBuffer>> {
    install_dacc(sim, cfg, space, Some(model), None)
}

/// Attach a flight recorder to every [`AccController`] or
/// [`GuardedController`] installed in `sim`. Switches without a controller,
/// or with a non-ACC controller (static baselines, C-ACC), are left
/// untouched.
pub fn attach_recorder<H: ControllerHost>(sim: &mut H, rec: &telemetry::SharedRecorder) {
    for sw in sim.topo().switches().to_vec() {
        let Some(c) = sim.controller_mut(sw) else {
            continue;
        };
        if let Some(acc) = c.as_any_mut().downcast_mut::<AccController>() {
            acc.set_recorder(rec.clone());
        } else if let Some(g) = c.as_any_mut().downcast_mut::<GuardedController>() {
            g.set_recorder(rec.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> AccConfig {
        let mut cfg = AccConfig::default();
        cfg.ddqn.min_replay = 8;
        cfg.ddqn.batch_size = 8;
        cfg
    }

    #[test]
    fn controller_ticks_and_applies_actions() {
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let sw = sim.core().topo.switches()[0];
        let space = ActionSpace::templates();
        sim.set_controller(sw, Box::new(AccController::new(small_cfg(), space.clone())));
        sim.run_until(SimTime::from_ms(5));
        // Every RDMA queue now carries a template config.
        for p in 0..2u16 {
            let e = sim.core().queue(sw, PortId(p), PRIO_RDMA).ecn.unwrap();
            assert!(space.actions().contains(&e));
        }
        sim.with_controller(sw, |c, _| {
            let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
            assert_eq!(acc.stats.ticks, 100);
            assert!(acc.stats.inferences > 0);
        });
    }

    #[test]
    fn idle_queues_skip_inference() {
        // No traffic at all: after the warm-up slots every queue goes idle.
        let topo = TopologySpec::single_switch(4, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let sw = sim.core().topo.switches()[0];
        sim.set_controller(
            sw,
            Box::new(AccController::new(small_cfg(), ActionSpace::templates())),
        );
        sim.run_until(SimTime::from_ms(10));
        sim.with_controller(sw, |c, _| {
            let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
            assert!(
                acc.stats.skipped_idle > acc.stats.inferences,
                "idle network should mostly skip: ran {} skipped {}",
                acc.stats.inferences,
                acc.stats.skipped_idle
            );
        });
    }

    #[test]
    fn disabled_idle_optimization_always_infers() {
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let sw = sim.core().topo.switches()[0];
        let mut cfg = small_cfg();
        cfg.idle_optimization = false;
        sim.set_controller(
            sw,
            Box::new(AccController::new(cfg, ActionSpace::templates())),
        );
        sim.run_until(SimTime::from_ms(5));
        sim.with_controller(sw, |c, _| {
            let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
            assert_eq!(acc.stats.skipped_idle, 0);
            // First tick per queue only initialises telemetry bookkeeping.
            assert_eq!(acc.stats.inferences, (acc.stats.ticks - 1) * 2);
        });
    }

    /// The agent samples one controller under `cfg` records on a
    /// single-switch incast: seven senders, four 200 KB waves to one host.
    fn recorded_incast(cfg: AccConfig) -> Vec<telemetry::AgentSample> {
        let topo = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default()
            .with_seed(3)
            .with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let fct = transport::FctCollector::new_shared();
        let hosts = transport::install_stacks(&mut sim, transport::StackConfig::default(), &fct);
        for wave in 0..4u64 {
            for &src in &hosts[1..] {
                let msg = transport::Message::new(hosts[0], 200_000, transport::CcKind::Dcqcn);
                transport::schedule_message(&mut sim, src, SimTime::from_us(500 * wave), msg);
            }
        }
        let sw = sim.core().topo.switches()[0];
        let space = ActionSpace::templates();
        sim.set_controller(sw, Box::new(AccController::new(cfg, space)));
        let sink = Rc::new(RefCell::new(telemetry::VecSink::new()));
        let rec = telemetry::RunRecorder::new()
            .with_sink(Box::new(sink.clone()))
            .into_shared();
        attach_recorder(&mut sim, &rec);
        sim.run_until(SimTime::from_ms(2));
        let agents = std::mem::take(&mut sink.borrow_mut().agents);
        agents
    }

    /// A greedy record carries the Q-values its action was chosen from, an
    /// explored one none, and a frozen agent only decides greedily.
    #[test]
    fn decision_records_carry_the_nets_view() {
        let rows = recorded_incast(small_cfg());
        let greedy = rows.iter().filter(|r| r.greedy).count();
        assert!(
            0 < greedy && greedy < rows.len(),
            "{greedy} of {} rows greedy",
            rows.len()
        );
        for r in &rows {
            let q = (r.q_chosen, r.q_best, r.q_second);
            if r.greedy {
                let (Some(chosen), Some(best), Some(second)) = q else {
                    panic!("greedy row without Q-values: {r:?}");
                };
                assert!(chosen == best && best >= second, "{r:?}");
            } else {
                assert_eq!(q, (None, None, None), "explored row");
            }
        }
        let frozen = recorded_incast(crate::trainer::frozen_config(&small_cfg()));
        assert!(!frozen.is_empty());
        assert!(frozen.iter().all(|r| r.greedy && r.q_best.is_some()));
    }

    #[test]
    fn model_round_trips_through_controllers() {
        let cfg = small_cfg();
        let space = ActionSpace::templates();
        let a = AccController::new(cfg.clone(), space.clone());
        let m = a.export_model();
        let b = AccController::from_model(cfg, space, &m);
        let s = vec![0.25f32; 12];
        assert_eq!(a.greedy_q_values(&s), b.greedy_q_values(&s));
    }

    #[test]
    fn install_acc_covers_all_switches() {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let space = ActionSpace::templates();
        let _g = install_acc(&mut sim, &small_cfg(), &space);
        sim.run_until(SimTime::from_ms(1));
        for sw in sim.core().topo.switches().to_vec() {
            sim.with_controller(sw, |c, _| {
                let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
                assert!(acc.stats.ticks > 0);
            });
        }
    }
}
