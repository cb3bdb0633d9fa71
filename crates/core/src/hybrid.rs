//! H-ACC — the hybrid design sketched in the paper's §6 discussion.
//!
//! > "An optimal solution may be hybrid: the RL model inference and ECN
//! > update is decentralized for quickest response, while online
//! > training/RL model update is done by a centralized controller."
//!
//! Each switch runs a *local* model for inference (so actions remain as
//! fast as D-ACC), but its experience goes to a central trainer that owns
//! the optimizer, and refreshed models are pushed back to the switches
//! every `sync_ticks` control intervals — modelling the milliseconds-scale
//! round trip to a controller that §3.2 measures. Compared to plain D-ACC,
//! every switch benefits from fabric-wide experience through one model;
//! compared to C-ACC, actions stay per-queue and per-switch.
//!
//! The switch side is an ordinary [`AccController`] built by
//! [`AccController::hybrid`] (installed fabric-wide by [`install_hybrid`]):
//! it observes, rewards, skips idle queues, selects, applies and records
//! exactly as D-ACC does. This module holds what differs — the
//! [`CentralTrainer`] and the controller's link to it. Rows go straight
//! into the central replay; the tick's training follows its select + apply.
//!
//! [`AccController`]: crate::controller::AccController
//! [`AccController::hybrid`]: crate::controller::AccController::hybrid

use crate::action::ActionSpace;
pub use crate::controller::install_hybrid;
use crate::controller::AccConfig;
use rl::DdqnAgent;
use std::cell::RefCell;
use std::rc::Rc;

/// The centralized trainer: owns the canonical model and the optimizer.
///
/// Switches never see the live training weights; the trainer *publishes* a
/// snapshot every `publish_every` training steps (a controller pushing model
/// files out), so all switches syncing within a window receive the same
/// version.
pub struct CentralTrainer {
    agent: DdqnAgent,
    /// Minibatches run per switch tick that stored experience.
    trains_per_tick: usize,
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
            trains_per_tick: cfg.trains_per_tick.max(1),
            published,
            publish_every: publish_every.max(1),
            last_publish: 0,
        }
    }

    /// Train on the central replay, then publish if enough steps have
    /// passed since the last snapshot.
    pub fn train(&mut self) {
        for _ in 0..self.trains_per_tick {
            self.agent.train_step();
        }
        if self.agent.train_steps() - self.last_publish >= self.publish_every {
            self.published = self.agent.export_model();
            self.last_publish = self.agent.train_steps();
        }
    }

    /// Training steps taken so far.
    pub fn train_steps(&self) -> u64 {
        self.agent.train_steps()
    }

    /// The most recently *published* model snapshot.
    pub fn model(&self) -> rl::Mlp {
        self.published.clone()
    }
}

/// Shared handle to the trainer.
pub type SharedTrainer = Rc<RefCell<CentralTrainer>>;

/// An H-ACC controller's link to the central trainer.
pub(crate) struct CentralLink {
    trainer: SharedTrainer,
    /// Load the published model every this many ticks.
    sync_ticks: u64,
    /// Whether the current tick stored a row: only such a tick trains.
    stored: bool,
    /// Models loaded so far.
    pub(crate) syncs: u64,
}

impl CentralLink {
    pub(crate) fn new(trainer: SharedTrainer, sync_ticks: u64) -> Self {
        CentralLink {
            trainer,
            sync_ticks: sync_ticks.max(1),
            stored: false,
            syncs: 0,
        }
    }

    /// Store a finished transition in the trainer's replay.
    pub(crate) fn queue(&mut self, s: &[f32], a: usize, r: f32, s2: &[f32], discount: f32) {
        self.trainer
            .borrow_mut()
            .agent
            .observe_row(s, a, r, s2, discount);
        self.stored = true;
    }

    /// Training steps the trainer has taken: the learner the local model
    /// comes from.
    pub(crate) fn train_steps(&self) -> u64 {
        self.trainer.borrow().train_steps()
    }

    /// Rows in the trainer's replay: where the local model's experience
    /// goes.
    pub(crate) fn replay_len(&self) -> usize {
        self.trainer.borrow().agent.replay.len()
    }

    /// The end of tick `tick`'s select + apply: train on the rows the tick
    /// stored, then, every `sync_ticks` ticks, pull the published model
    /// down into `local`.
    pub(crate) fn after_select(&mut self, tick: u64, local: &mut DdqnAgent) {
        if std::mem::take(&mut self.stored) {
            self.trainer.borrow_mut().train();
        }
        if tick.is_multiple_of(self.sync_ticks) {
            local.load_model(&self.trainer.borrow().model());
            self.syncs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::AccController;
    use netsim::prelude::*;

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
        assert!(trainer.borrow().train_steps() > 0);
        for sw in sim.core().topo.switches().to_vec() {
            sim.with_controller(sw, |c, _| {
                let h = c.as_any_mut().downcast_mut::<AccController>().unwrap();
                assert!(
                    h.syncs() >= 5,
                    "models must sync periodically: {}",
                    h.syncs()
                );
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
                let h = c.as_any_mut().downcast_mut::<AccController>().unwrap();
                outputs.push(h.greedy_q_values(&probe));
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

    /// `paper_testbed` under incast waves: every host sends to the first
    /// one every 500 µs, so the leaf queues build and the agents train.
    fn testbed_with_incast() -> Simulator {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default()
            .with_seed(5)
            .with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let fct = transport::FctCollector::new_shared();
        let stack = transport::StackConfig::default();
        let hosts = transport::install_stacks(&mut sim, stack, &fct);
        for wave in 0..6u64 {
            let at = SimTime::from_us(500 * wave);
            for &src in &hosts[1..] {
                let msg = transport::Message::new(hosts[0], 200_000, transport::CcKind::Dcqcn);
                transport::schedule_message(&mut sim, src, at, msg);
            }
        }
        sim
    }

    /// The agent samples of a recorded H-ACC run.
    fn recorded_hybrid_samples() -> Vec<telemetry::AgentSample> {
        let mut sim = testbed_with_incast();
        let _trainer = install_hybrid(&mut sim, &small_cfg(), &ActionSpace::templates(), 10);
        let sink = Rc::new(RefCell::new(telemetry::VecSink::new()));
        let rec = telemetry::RunRecorder::new()
            .with_sink(Box::new(sink.clone()))
            .into_shared();
        crate::controller::attach_recorder(&mut sim, &rec);
        sim.run_until(SimTime::from_ms(3));
        let agents = std::mem::take(&mut sink.borrow_mut().agents);
        assert!(!agents.is_empty(), "H-ACC decisions are recorded");
        for w in agents.windows(2) {
            assert!(
                w[0].train_steps <= w[1].train_steps,
                "train_steps never fall"
            );
        }
        let last = agents.last().unwrap();
        assert!(last.train_steps > 0, "records carry the trainer's steps");
        agents
    }

    /// The agent samples of a recorded H-ACC run, one JSON line each.
    fn recorded_hybrid_run() -> Vec<String> {
        recorded_hybrid_samples()
            .iter()
            .map(|a| serde_json::to_string(a).unwrap())
            .collect()
    }

    /// An H-ACC decision records the replay its experience goes to — the
    /// central trainer's, which fills while the trainer trains — not the
    /// local agent's, which never stores a row.
    #[test]
    fn hybrid_records_the_trainers_replay_len() {
        let agents = recorded_hybrid_samples();
        let min_replay = small_cfg().ddqn.min_replay;
        for w in agents.windows(2) {
            assert!(
                w[0].replay_len <= w[1].replay_len,
                "the replay never shrinks"
            );
        }
        for a in &agents {
            if a.train_steps > 0 {
                assert!(
                    a.replay_len >= min_replay,
                    "{} steps on {} rows",
                    a.train_steps,
                    a.replay_len
                );
            }
        }
        let (first, last) = (&agents[0], agents.last().unwrap());
        assert!(last.replay_len > first.replay_len && last.train_steps > first.train_steps);
    }

    #[test]
    fn hybrid_decisions_are_recorded() {
        assert_eq!(recorded_hybrid_run(), recorded_hybrid_run());
    }

    #[test]
    fn guarded_hybrid_applies_only_valid_configs() {
        use crate::guard::{
            GuardConfig, GuardedController, KMAX_CEILING_BYTES, KMIN_FLOOR_BYTES, PMAX_FLOOR,
        };
        use netsim::ids::PRIO_RDMA;
        let mut sim = testbed_with_incast();
        let cfg = small_cfg();
        let space = ActionSpace::templates();
        let trainer = Rc::new(RefCell::new(CentralTrainer::new(&cfg, &space, 50)));
        let switches = sim.core().topo.switches().to_vec();
        for (i, &sw) in switches.iter().enumerate() {
            let mut c = cfg.clone();
            c.seed = cfg.seed + i as u64;
            let acc = AccController::hybrid(c, space.clone(), trainer.clone(), 10);
            let guarded =
                GuardedController::new(Box::new(acc), GuardConfig::default(), vec![PRIO_RDMA]);
            sim.set_controller(sw, Box::new(guarded));
        }
        for tick in 1..=60u64 {
            sim.run_until(SimTime::from_us(50 * tick));
            for &sw in &switches {
                for p in 0..sim.core().topo.node(sw).ports.len() {
                    let Some(e) = sim.core().queue(sw, PortId(p as u16), PRIO_RDMA).ecn else {
                        continue;
                    };
                    assert!(
                        KMIN_FLOOR_BYTES <= e.kmin_bytes
                            && e.kmin_bytes <= e.kmax_bytes
                            && e.kmax_bytes <= KMAX_CEILING_BYTES
                            && PMAX_FLOOR <= e.pmax
                            && e.pmax <= 1.0,
                        "tick {tick}: {e:?} on {sw:?} port {p}"
                    );
                }
            }
        }
        assert!(trainer.borrow().train_steps() > 0);
        for &sw in &switches {
            sim.with_controller(sw, |c, _| {
                let g = c.as_any_mut().downcast_mut::<GuardedController>().unwrap();
                assert_eq!(g.stats.ticks, 60);
                let h = g.inner_mut().as_any_mut().downcast_mut::<AccController>();
                assert!(h.unwrap().syncs() >= 5);
            });
        }
    }
}
