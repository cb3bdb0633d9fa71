//! C-ACC: the centralized-design strawman (§3.2, §5.4).
//!
//! A single DRL agent sees the whole fabric and assigns ECN configurations
//! to every switch. The paper shows why this cannot work unmodified — with
//! per-queue actions the joint action space is `(55·20)^|queues|` — and
//! evaluates a heavily simplified variant instead:
//!
//! * all switches of the same layer (leaf vs. spine) receive the same
//!   configuration, and uplink/downlink ports share settings, collapsing the
//!   action space to `|A|²` (one template per layer);
//! * state is an aggregate over switches (max queue depth and mean
//!   utilisation per layer);
//! * decisions lag by one control tick, modelling the time a central
//!   controller spends collecting state from every switch, running
//!   inference, and pushing configurations back out.
//!
//! Even so simplified, C-ACC loses to the distributed design because it
//! cannot give the congested switch a different setting than its idle peers
//! — which is exactly Fig. 14's finding.

use crate::action::ActionSpace;
use crate::reward::RewardConfig;
use crate::state::{QueueObs, QueueObserver, StateWindow};
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use rl::{DdqnAgent, DdqnConfig};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Which layer a switch belongs to for shared-configuration purposes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    /// Has at least one host-facing port (a ToR / leaf).
    Leaf,
    /// Fabric-only switch (spine).
    Spine,
}

/// Per-layer aggregate observation for one tick.
#[derive(Clone, Copy, Debug, Default)]
struct LayerAgg {
    max_qlen: u64,
    tx_bytes: u64,
    tx_marked: u64,
    capacity_bytes: f64,
    reports: u32,
}

/// The shared centralized brain: collects per-switch reports, computes a
/// joint action once per tick, and hands out (lagged) per-layer configs.
pub struct CentralBrain {
    agent: DdqnAgent,
    space: ActionSpace,
    reward: RewardConfig,
    window: StateWindow,
    /// Current tick accumulation.
    agg: HashMap<Layer, LayerAgg>,
    reports_this_tick: usize,
    /// The joint action currently *applied* (lags the decision by one tick).
    applied: (usize, usize),
    /// The decision pending application next tick.
    pending: Option<(usize, usize)>,
    prev: Option<(Vec<f32>, usize)>,
    /// Discount stored with each transition.
    gamma: f32,
    online_training: bool,
    /// Ticks processed.
    pub ticks: u64,
    /// Last computed reward (for traces).
    pub last_reward: f64,
    /// Persistent batch-of-one selection buffer (keeps the once-per-tick
    /// decision on the batched kernel path without reallocating).
    select_buf: Vec<(usize, f64)>,
}

impl CentralBrain {
    /// Joint actions are encoded as `leaf_idx * |A| + spine_idx`.
    fn joint_len(space: &ActionSpace) -> usize {
        space.len() * space.len()
    }

    /// Build the brain.
    pub fn new(
        ddqn: DdqnConfig,
        reward: RewardConfig,
        space: ActionSpace,
        history_k: usize,
        online_training: bool,
        seed: u64,
    ) -> Self {
        // State: per layer (2) the 4 normalised features, with history.
        let state_dim = history_k * 2 * crate::state::FEATURES_PER_OBS;
        let mid = space.len() / 2;
        CentralBrain {
            gamma: ddqn.gamma,
            agent: DdqnAgent::new(state_dim, Self::joint_len(&space), ddqn, seed),
            space: space.clone(),
            reward,
            window: StateWindow::new(history_k * 2), // 2 pseudo-obs per tick
            agg: HashMap::new(),
            reports_this_tick: 0,
            applied: (mid, mid),
            pending: None,
            prev: None,
            online_training,
            ticks: 0,
            last_reward: 0.0,
            select_buf: Vec::new(),
        }
    }

    /// The per-layer config a switch should apply right now.
    pub fn config_for(&self, layer: Layer) -> netsim::queues::EcnConfig {
        match layer {
            Layer::Leaf => self.space.get(self.applied.0),
            Layer::Spine => self.space.get(self.applied.1),
        }
    }

    fn report(&mut self, layer: Layer, obs: &QueueObs) {
        let a = self.agg.entry(layer).or_default();
        a.max_qlen = a.max_qlen.max(obs.qlen_bytes);
        a.tx_bytes += obs.tx_bytes;
        a.tx_marked += obs.tx_marked_bytes;
        a.capacity_bytes += obs.link_bps as f64 * obs.dt.as_secs_f64() / 8.0;
        a.reports += 1;
    }

    /// Called after the last switch of a tick reported: make the decision.
    fn finish_tick(&mut self, dt: SimTime) {
        self.ticks += 1;
        // Build the two pseudo-observations (leaf, spine).
        let mut reward_acc = 0.0;
        for &layer in &[Layer::Leaf, Layer::Spine] {
            let a = self.agg.remove(&layer).unwrap_or_default();
            let util = if a.capacity_bytes > 0.0 {
                (a.tx_bytes as f64 / a.capacity_bytes).min(1.0)
            } else {
                0.0
            };
            reward_acc += self.reward.reward(util, a.max_qlen);
            let enc = match layer {
                Layer::Leaf => self.space.encode(self.applied.0),
                Layer::Spine => self.space.encode(self.applied.1),
            };
            let obs = QueueObs {
                qlen_bytes: a.max_qlen,
                tx_bytes: a.tx_bytes,
                tx_marked_bytes: a.tx_marked,
                dt,
                // Aggregate rate normalisation happens via capacity above;
                // reuse util by faking a unit link.
                link_bps: if dt.as_ps() > 0 {
                    ((a.capacity_bytes * 8.0) / dt.as_secs_f64()) as u64
                } else {
                    0
                },
                ecn_encoded: enc,
            };
            self.window.push(&obs);
        }
        let reward = reward_acc / 2.0;
        self.last_reward = reward;
        let state = self.window.state();

        if let Some((ps, pa)) = self.prev.take() {
            if self.online_training {
                self.agent
                    .observe_row(&ps, pa, reward as f32, &state, self.gamma);
                self.agent.train_step();
            }
        }
        self.agent
            .select_actions_batch(&state, 1, &mut self.select_buf);
        let joint = self.select_buf[0].0;
        self.prev = Some((state, joint));
        // The decision computed now is only applied next tick (collection +
        // inference + dissemination latency of the centralized design).
        let n = self.space.len();
        if let Some(p) = self.pending.take() {
            self.applied = p;
        }
        self.pending = Some((joint / n, joint % n));
        self.reports_this_tick = 0;
    }
}

/// Per-switch stub controller that forwards telemetry to the shared
/// [`CentralBrain`] and applies whatever per-layer config the brain mandates.
pub struct CentralizedAcc {
    brain: Rc<RefCell<CentralBrain>>,
    layer: Option<Layer>,
    /// Per-port observers, all anchored at an all-zero reading at t = 0 so
    /// the first report covers everything since the start of the run.
    observers: HashMap<u16, QueueObserver>,
    /// Switch index within the tick round-robin (last one triggers the
    /// decision).
    is_last: bool,
}

impl CentralizedAcc {
    /// Build the stub for one switch; `is_last` must be set on exactly one
    /// switch (the builder [`install_centralized`] handles this).
    pub fn new(brain: Rc<RefCell<CentralBrain>>, is_last: bool) -> Self {
        CentralizedAcc {
            brain,
            layer: None,
            observers: HashMap::new(),
            is_last,
        }
    }
}

impl QueueController for CentralizedAcc {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        let layer = *self.layer.get_or_insert_with(|| {
            let host_facing =
                (0..view.num_ports()).any(|p| view.port_is_host_facing(PortId(p as u16)));
            if host_facing {
                Layer::Leaf
            } else {
                Layer::Spine
            }
        });
        let now = view.now();
        let mut dt = SimTime::ZERO;
        // Report every RDMA queue to the brain; apply the mandated config.
        let cfg = self.brain.borrow().config_for(layer);
        for p in 0..view.num_ports() {
            let port = PortId(p as u16);
            let snap = view.snapshot(port, PRIO_RDMA);
            let observer = self
                .observers
                .entry(port.0)
                .or_insert_with(|| QueueObserver::new(1, Default::default(), SimTime::ZERO));
            if let Some(iv) = observer.observe(&snap, now, 0.0) {
                dt = iv.obs.dt;
                self.brain.borrow_mut().report(layer, &iv.obs);
            }
            view.set_ecn(port, PRIO_RDMA, Some(cfg));
        }
        if self.is_last && dt > SimTime::ZERO {
            self.brain.borrow_mut().finish_tick(dt);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Install C-ACC on every switch; returns the shared brain handle.
pub fn install_centralized(
    sim: &mut Simulator,
    ddqn: DdqnConfig,
    reward: RewardConfig,
    space: ActionSpace,
    history_k: usize,
    online_training: bool,
    seed: u64,
) -> Rc<RefCell<CentralBrain>> {
    let switches: Vec<NodeId> = sim.core().topo.switches().to_vec();
    let brain = Rc::new(RefCell::new(CentralBrain::new(
        ddqn,
        reward,
        space,
        history_k,
        online_training,
        seed,
    )));
    let last = *switches.last().expect("no switches");
    for sw in switches {
        sim.set_controller(sw, Box::new(CentralizedAcc::new(brain.clone(), sw == last)));
    }
    brain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brain_joint_action_space_is_squared() {
        let space = ActionSpace::templates();
        assert_eq!(CentralBrain::joint_len(&space), 400);
    }

    #[test]
    fn centralized_assigns_layer_uniform_configs() {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let mut ddqn = DdqnConfig::default();
        ddqn.min_replay = 8;
        ddqn.batch_size = 8;
        let brain = install_centralized(
            &mut sim,
            ddqn,
            RewardConfig::default(),
            ActionSpace::templates(),
            3,
            true,
            1,
        );
        sim.run_until(SimTime::from_ms(5));
        assert!(brain.borrow().ticks > 0);
        // All leaves share one config; all spines share (possibly another).
        let leaves: Vec<NodeId> = sim.core().topo.switches()[..4].to_vec();
        let spines: Vec<NodeId> = sim.core().topo.switches()[4..].to_vec();
        let leaf_cfg = sim
            .core()
            .queue(leaves[0], PortId(0), PRIO_RDMA)
            .ecn
            .unwrap();
        for &l in &leaves {
            for p in 0..sim.core().topo.node(l).ports.len() {
                assert_eq!(
                    sim.core()
                        .queue(l, PortId(p as u16), PRIO_RDMA)
                        .ecn
                        .unwrap(),
                    leaf_cfg
                );
            }
        }
        let spine_cfg = sim
            .core()
            .queue(spines[0], PortId(0), PRIO_RDMA)
            .ecn
            .unwrap();
        for &s in &spines {
            for p in 0..sim.core().topo.node(s).ports.len() {
                assert_eq!(
                    sim.core()
                        .queue(s, PortId(p as u16), PRIO_RDMA)
                        .ecn
                        .unwrap(),
                    spine_cfg
                );
            }
        }
    }

    #[test]
    fn decision_lags_one_tick() {
        // The config applied at tick t is the decision from tick t-1 (or
        // earlier): directly test the pending/applied hand-off.
        let space = ActionSpace::templates();
        let mut ddqn = DdqnConfig::default();
        ddqn.min_replay = 1000000; // never train; only schedule mechanics
        let mut brain =
            CentralBrain::new(ddqn, RewardConfig::default(), space.clone(), 3, false, 1);
        let before = brain.applied;
        brain.finish_tick(SimTime::from_us(50));
        // First decision is still pending, applied unchanged.
        assert_eq!(brain.applied, before);
        brain.finish_tick(SimTime::from_us(50));
        // Now the first decision took effect (it may coincide by chance, so
        // just assert pending was consumed and re-armed).
        assert!(brain.pending.is_some());
    }
}
