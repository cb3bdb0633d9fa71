//! H-ACC — the hybrid design sketched in the paper's §6 discussion.
//!
//! > "An optimal solution may be hybrid: the RL model inference and ECN
//! > update is decentralized for quickest response, while online
//! > training/RL model update is done by a centralized controller."
//!
//! Each switch runs a *local* model for inference (so actions remain as
//! fast as D-ACC), but experience is shipped to a central trainer that owns
//! the optimizer, and refreshed models are pushed back to the switches
//! every `sync_ticks` control intervals — modelling the milliseconds-scale
//! round trip to a controller that §3.2 measures. Compared to plain D-ACC,
//! every switch benefits from fabric-wide experience through one model;
//! compared to C-ACC, actions stay per-queue and per-switch.

use crate::action::ActionSpace;
use crate::controller::{install_per_switch, AccConfig, BatchSelect};
use crate::reward::RewardConfig;
use crate::state::QueueObserver;
use netsim::prelude::*;
use rl::{DdqnAgent, Transition};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The centralized trainer: owns the canonical model and the optimizer.
///
/// Switches never see the live training weights; the trainer *publishes* a
/// snapshot every `publish_every` training steps (a controller pushing model
/// files out), so all switches syncing within a window receive the same
/// version.
pub struct CentralTrainer {
    agent: DdqnAgent,
    /// Minibatches run per reported batch of transitions.
    trains_per_report: usize,
    /// Training steps taken (for introspection).
    pub train_steps: u64,
    published: rl::Mlp,
    publish_every: u64,
    last_publish: u64,
}

impl CentralTrainer {
    /// Build the trainer; snapshots are published every `publish_every`
    /// training steps.
    pub fn new(cfg: &AccConfig, space: &ActionSpace, publish_every: u64) -> Self {
        let state_dim = cfg.history_k * crate::state::FEATURES_PER_OBS;
        let agent = DdqnAgent::new(state_dim, space.len(), cfg.ddqn.clone(), cfg.seed);
        let published = agent.export_model();
        CentralTrainer {
            agent,
            trains_per_report: cfg.trains_per_tick.max(1),
            train_steps: 0,
            published,
            publish_every: publish_every.max(1),
            last_publish: 0,
        }
    }

    /// Ingest experience from a switch and train.
    pub fn report(&mut self, batch: Vec<Transition>) {
        for t in batch {
            self.agent.observe(t);
        }
        for _ in 0..self.trains_per_report {
            if self.agent.train_step().is_some() {
                self.train_steps += 1;
            }
        }
        if self.train_steps - self.last_publish >= self.publish_every {
            self.published = self.agent.export_model();
            self.last_publish = self.train_steps;
        }
    }

    /// The most recently *published* model snapshot.
    pub fn model(&self) -> rl::Mlp {
        self.published.clone()
    }
}

/// Shared handle to the trainer.
pub type SharedTrainer = Rc<RefCell<CentralTrainer>>;

struct QueueCtx {
    observer: QueueObserver,
    prev: Option<(Vec<f32>, usize)>,
    action_idx: usize,
}

/// The per-switch hybrid controller: local inference, centralized training.
pub struct HybridAcc {
    cfg: AccConfig,
    space: ActionSpace,
    /// Local inference model (synced from the trainer periodically).
    local: DdqnAgent,
    trainer: SharedTrainer,
    reward: RewardConfig,
    queues: HashMap<(u16, Prio), QueueCtx>,
    outbox: Vec<Transition>,
    ticks: u64,
    /// Pull a fresh model from the trainer every this many ticks.
    pub sync_ticks: u64,
    /// Model syncs performed.
    pub syncs: u64,
    /// The telemetry pass collects `(queue, state)` pairs, one batched
    /// forward selects all actions (see [`crate::controller`]), and the
    /// results are applied in queue order.
    pending: Vec<((u16, Prio), PortId, Prio, Vec<f32>)>,
    select: BatchSelect,
}

impl HybridAcc {
    /// Build the per-switch stub.
    pub fn new(
        cfg: AccConfig,
        space: ActionSpace,
        trainer: SharedTrainer,
        sync_ticks: u64,
    ) -> Self {
        let state_dim = cfg.history_k * crate::state::FEATURES_PER_OBS;
        let mut local = DdqnAgent::new(state_dim, space.len(), cfg.ddqn.clone(), cfg.seed);
        local.load_model(&trainer.borrow().model());
        let reward = cfg.reward;
        HybridAcc {
            cfg,
            space,
            local,
            trainer,
            reward,
            queues: HashMap::new(),
            outbox: Vec::new(),
            ticks: 0,
            sync_ticks: sync_ticks.max(1),
            syncs: 0,
            pending: Vec::new(),
            select: BatchSelect::default(),
        }
    }

    fn tick_queue(&mut self, view: &mut SwitchView<'_>, port: PortId, prio: Prio) {
        let snap = view.snapshot(port, prio);
        let now = view.now();
        let key = (port.0, prio);
        let k = self.cfg.history_k;
        let space_len = self.space.len();
        let q = self.queues.entry(key).or_insert_with(|| QueueCtx {
            observer: QueueObserver::new(k, snap.telem, now),
            prev: None,
            action_idx: space_len / 2,
        });
        let encoded = self.space.encode(q.action_idx);
        let Some(iv) = q.observer.observe(&snap, now, encoded) else {
            return;
        };
        let reward = self.reward.reward(iv.utilization, iv.avg_qlen_bytes);
        let state = q.observer.state();
        if let Some((ps, pa)) = q.prev.take() {
            self.outbox.push(Transition {
                state: ps,
                action: pa,
                reward: reward as f32,
                next_state: state.clone(),
                done: false,
            });
        }
        // Defer the selection to the end-of-tick batched pass.
        self.pending.push((key, port, prio, state));
    }

    /// One batched forward pass decides every pending queue, then the
    /// actions are applied in the original queue order.
    fn decide_pending(&mut self, view: &mut SwitchView<'_>) {
        if self.pending.is_empty() {
            return;
        }
        let decisions = self.select.select(
            &mut self.local,
            self.pending.iter().map(|(_, _, _, state)| state.as_slice()),
            self.cfg.explore,
        );
        for ((key, port, prio, state), &(action, _eps)) in self.pending.iter_mut().zip(decisions) {
            let q = self.queues.get_mut(key).expect("pending queue exists");
            q.prev = Some((std::mem::take(state), action));
            q.action_idx = action;
            view.set_ecn(*port, *prio, Some(self.space.get(action)));
        }
        self.pending.clear();
    }
}

impl QueueController for HybridAcc {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        self.ticks += 1;
        let prios = self.cfg.target_prios.clone();
        for p in 0..view.num_ports() {
            for &prio in &prios {
                self.tick_queue(view, PortId(p as u16), prio);
            }
        }
        self.decide_pending(view);
        // Ship experience up and (periodically) pull the fresh model down.
        if !self.outbox.is_empty() {
            let batch = std::mem::take(&mut self.outbox);
            self.trainer.borrow_mut().report(batch);
        }
        if self.ticks.is_multiple_of(self.sync_ticks) {
            let model = self.trainer.borrow().model();
            self.local.load_model(&model);
            self.syncs += 1;
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Install H-ACC on every switch; returns the shared trainer.
pub fn install_hybrid<H: ControllerHost>(
    sim: &mut H,
    cfg: &AccConfig,
    space: &ActionSpace,
    sync_ticks: u64,
) -> SharedTrainer {
    let trainer = Rc::new(RefCell::new(CentralTrainer::new(cfg, space, 50)));
    install_per_switch(sim, cfg, |c| {
        Box::new(HybridAcc::new(
            c,
            space.clone(),
            trainer.clone(),
            sync_ticks,
        ))
    });
    trainer
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
    fn hybrid_trains_centrally_and_syncs_models() {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let trainer = install_hybrid(&mut sim, &small_cfg(), &ActionSpace::templates(), 10);
        sim.run_until(SimTime::from_ms(3));
        // Even an idle network produces transitions (util 0 rewards), so the
        // trainer must have ingested experience and trained.
        assert!(trainer.borrow().train_steps > 0);
        for sw in sim.core().topo.switches().to_vec() {
            sim.with_controller(sw, |c, _| {
                let h = c.as_any_mut().downcast_mut::<HybridAcc>().unwrap();
                assert!(h.syncs >= 5, "models must sync periodically: {}", h.syncs);
            });
        }
    }

    #[test]
    fn synced_models_are_identical_across_switches() {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let _trainer = install_hybrid(&mut sim, &small_cfg(), &ActionSpace::templates(), 5);
        // Run long enough that every switch pulled the same published
        // snapshot at its latest sync.
        sim.run_until(SimTime::from_us(50 * 25));
        let probe = vec![0.3f32; 12];
        let mut outputs: Vec<Vec<f32>> = Vec::new();
        for sw in sim.core().topo.switches().to_vec() {
            sim.with_controller(sw, |c, _| {
                let h = c.as_any_mut().downcast_mut::<HybridAcc>().unwrap();
                outputs.push(h.local.q_values(&probe));
            });
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1], "post-sync models must match");
        }
    }

    #[test]
    fn applies_ecn_configs_like_dacc() {
        let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let space = ActionSpace::templates();
        let _t = install_hybrid(&mut sim, &small_cfg(), &space, 10);
        sim.run_until(SimTime::from_ms(1));
        let sw = sim.core().topo.switches()[0];
        let e = sim
            .core()
            .queue(sw, PortId(0), netsim::ids::PRIO_RDMA)
            .ecn
            .unwrap();
        assert!(space.actions().contains(&e));
    }
}
