//! Offline-training helpers (§4.3).
//!
//! ACC pre-trains one model offline on a spread of synthetic and recorded
//! traffic patterns, then installs that same model on every switch; online,
//! each switch fine-tunes its local copy with a small, fast-decaying
//! exploration budget. This module provides the glue:
//!
//! * [`install_shared_training`] — put an [`AccController`] on every switch
//!   of a training simulation, all sharing **one** agent (weights, optimizer
//!   and replay memory), so every switch's experience trains the same model;
//! * [`extract_model`] — pull the trained network out of a simulation;
//! * [`online_config`] — the recommended online fine-tuning configuration
//!   (load pre-trained weights, ε restarts small and decays fast).
//!
//! The traffic driving a training run is supplied by the caller (the
//! `workloads` crate has generators for incast sweeps, Poisson loads and the
//! realistic WebSearch/DataMining mixes the paper trains on).

use crate::action::ActionSpace;
use crate::controller::{AccConfig, AccController};
use netsim::prelude::*;
use rl::{DdqnAgent, Mlp, Seat};
use std::cell::RefCell;
use std::rc::Rc;

/// Install ACC on every switch with a single shared agent (offline-training
/// topology). Returns the shared agent handle.
///
/// Because all controllers route through one [`DdqnAgent`], each switch's
/// per-tick decisions run as a single batched forward pass over the shared
/// model, and the agent's persistent training workspace serves every
/// switch's minibatch updates — pre-training throughput scales with the
/// batched kernels, not with per-queue scalar inference. The next reader
/// of a shared agent is the next switch of the same tick, so each
/// controller joins its update right after submitting it: there is
/// nothing for a helper thread to overlap with.
pub fn install_shared_training(
    sim: &mut Simulator,
    cfg: &AccConfig,
    space: &ActionSpace,
) -> Rc<RefCell<Seat>> {
    let state_dim = cfg.history_k * crate::state::FEATURES_PER_OBS;
    let agent = Rc::new(RefCell::new(Seat::new(DdqnAgent::new(
        state_dim,
        space.len(),
        cfg.ddqn.clone(),
        cfg.seed,
    ))));
    for sw in sim.core().topo.switches().to_vec() {
        let ctl = AccController::with_agent(cfg.clone(), space.clone(), agent.clone());
        sim.set_controller(sw, Box::new(ctl));
    }
    agent
}

/// The [`AccController`] behind a switch controller, looking through a
/// [`crate::guard::GuardedController`] wrapper if present; `None` for any
/// other controller.
pub fn acc_of(c: &mut dyn QueueController) -> Option<&mut AccController> {
    // Two-step probe rather than if-let chains: the borrow of `c` must end
    // before the second downcast attempt.
    if c.as_any_mut().is::<AccController>() {
        return c.as_any_mut().downcast_mut::<AccController>();
    }
    c.as_any_mut()
        .downcast_mut::<crate::guard::GuardedController>()?
        .inner_mut()
        .as_any_mut()
        .downcast_mut::<AccController>()
}

fn acc_mut(c: &mut dyn QueueController) -> &mut AccController {
    acc_of(c).expect("switch runs neither an AccController nor a guarded one")
}

/// Extract the trained model from any switch of a simulation that runs
/// [`AccController`]s, bare or wrapped in a
/// [`crate::guard::GuardedController`].
pub fn extract_model(sim: &mut Simulator, switch: NodeId) -> Mlp {
    sim.with_controller(switch, |c, _| acc_mut(c).export_model())
}

/// The recommended online configuration after offline pre-training: keep
/// learning, but start exploration at `eps` (small) with a fast exponential
/// decay so production traffic is not destabilised (§4.3).
pub fn online_config(base: &AccConfig, eps: f64, decay_steps: f64) -> AccConfig {
    let mut cfg = base.clone();
    cfg.ddqn.eps_start = eps;
    cfg.ddqn.eps_end = (eps / 10.0).min(0.01);
    cfg.ddqn.eps_decay_steps = decay_steps;
    // §4.3: online, high-reward experience is replayed preferentially.
    cfg.ddqn.use_prioritized_replay = true;
    cfg.online_training = true;
    cfg.explore = true;
    cfg
}

/// A frozen, inference-only configuration (pure deployment, no learning).
pub fn frozen_config(base: &AccConfig) -> AccConfig {
    let mut cfg = base.clone();
    cfg.online_training = false;
    cfg.explore = false;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_acc() -> AccConfig {
        let mut cfg = AccConfig::default();
        cfg.ddqn.min_replay = 8;
        cfg.ddqn.batch_size = 8;
        cfg
    }

    #[test]
    fn shared_agent_is_truly_shared() {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let space = ActionSpace::templates();
        let agent = install_shared_training(&mut sim, &small_acc(), &space);
        sim.run_until(SimTime::from_ms(2));
        // All six switches selected actions through the same agent; the Rc
        // count reflects 6 controllers + our handle.
        assert_eq!(Rc::strong_count(&agent), 7);
    }

    #[test]
    fn extract_and_redeploy() {
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let space = ActionSpace::templates();
        let _agent = install_shared_training(&mut sim, &small_acc(), &space);
        sim.run_until(SimTime::from_ms(1));
        let sw = sim.core().topo.switches()[0];
        let model = extract_model(&mut sim, sw);
        assert_eq!(model.input_dim(), 12);
        assert_eq!(model.output_dim(), space.len());

        // Redeploy frozen: the controller must produce identical Q-values.
        let frozen = frozen_config(&small_acc());
        let ctl = AccController::from_model(frozen, space, &model);
        let s = vec![0.5f32; 12];
        let mut ws = rl::BatchActivations::new();
        model.forward_batch(&s, 1, &mut ws);
        assert_eq!(ctl.greedy_q_values(&s), ws.output());
    }

    #[test]
    fn online_config_shrinks_exploration() {
        let base = small_acc();
        let online = online_config(&base, 0.1, 200.0);
        assert!(online.ddqn.eps_start < base.ddqn.eps_start);
        assert!(online.explore && online.online_training);
        let frozen = frozen_config(&base);
        assert!(!frozen.explore && !frozen.online_training);
    }
}
