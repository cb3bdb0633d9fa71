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
//!
//! The switch side is an ordinary [`AccController`] built by
//! [`AccController::hybrid`] (installed fabric-wide by [`install_hybrid`]):
//! it observes, rewards, skips idle queues, selects, applies and records
//! exactly as D-ACC does. This module holds what differs — the
//! [`CentralTrainer`] and the controller's link to it.
//!
//! [`AccController`]: crate::controller::AccController
//! [`AccController::hybrid`]: crate::controller::AccController::hybrid

use crate::action::ActionSpace;
pub use crate::controller::install_hybrid;
use crate::controller::AccConfig;
use rl::{DdqnAgent, Transition};
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

/// An H-ACC controller's link to the central trainer, with the transitions
/// of the current tick waiting for its select + apply to end.
pub(crate) struct CentralLink {
    trainer: SharedTrainer,
    /// Load the published model every this many ticks.
    sync_ticks: u64,
    outbox: Vec<Transition>,
    /// Models loaded so far.
    pub(crate) syncs: u64,
}

impl CentralLink {
    pub(crate) fn new(trainer: SharedTrainer, sync_ticks: u64) -> Self {
        CentralLink {
            trainer,
            sync_ticks: sync_ticks.max(1),
            outbox: Vec::new(),
            syncs: 0,
        }
    }

    /// Queue a finished transition for the trainer.
    pub(crate) fn queue(&mut self, state: &[f32], action: usize, reward: f32, next_state: &[f32]) {
        self.outbox.push(Transition {
            state: state.to_vec(),
            action,
            reward,
            next_state: next_state.to_vec(),
            done: false,
        });
    }

    /// Training steps the trainer has taken: the learner the local model
    /// comes from.
    pub(crate) fn train_steps(&self) -> u64 {
        self.trainer.borrow().train_steps
    }

    /// The end of tick `tick`'s select + apply: ship the tick's experience
    /// up, then, every `sync_ticks` ticks, pull the published model down
    /// into `local`.
    pub(crate) fn after_select(&mut self, tick: u64, local: &mut DdqnAgent) {
        if !self.outbox.is_empty() {
            let batch = std::mem::take(&mut self.outbox);
            self.trainer.borrow_mut().report(batch);
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
        assert!(trainer.borrow().train_steps > 0);
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

    /// The agent samples of a recorded H-ACC run, one JSON line each.
    fn recorded_hybrid_run() -> Vec<String> {
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
            .iter()
            .map(|a| serde_json::to_string(a).unwrap())
            .collect()
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
        assert!(trainer.borrow().train_steps > 0);
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
