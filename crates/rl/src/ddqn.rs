//! The Double-DQN agent (van Hasselt et al. 2016), as used by ACC §3.4.
//!
//! The target decouples action *selection* (by the evaluation network) from
//! action *evaluation* (by the periodically-synced target network):
//!
//! ```text
//! y = r + γ · Q_target(S', argmax_a Q_eval(S', a))        (paper eq. 3)
//! ```
//!
//! Exploration is ε-greedy; ACC decays ε exponentially and quickly during
//! online operation to avoid destabilising the production network (§4.3).

use crate::mlp::{Adam, BackwardScratch, BatchActivations, Gradients, Mlp};
use crate::replay::{ReplayBuffer, Transition};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Hyper-parameters for [`DdqnAgent`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DdqnConfig {
    /// Hidden layer widths (the paper uses two hidden layers of 40).
    pub hidden: Vec<usize>,
    /// Discount factor γ. The default is 0.5: the ECN-tuning action's
    /// effect on queue/utilisation materialises within one or two control
    /// intervals (Δt is already 10x the RTT), and a long horizon only
    /// drowns the small per-interval reward differences in bootstrap noise.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size N.
    pub batch_size: usize,
    /// Sync the target network every this many training steps.
    pub target_sync_every: u64,
    /// Initial exploration probability.
    pub eps_start: f64,
    /// Final exploration probability.
    pub eps_end: f64,
    /// Exponential decay constant (in action-selection steps).
    pub eps_decay_steps: f64,
    /// Local replay memory capacity.
    pub replay_capacity: usize,
    /// Minimum stored transitions before training begins.
    pub min_replay: usize,
    /// Use the §4.3 reward-prioritised replay instead of uniform sampling.
    #[serde(default)]
    pub use_prioritized_replay: bool,
}

impl Default for DdqnConfig {
    fn default() -> Self {
        DdqnConfig {
            hidden: vec![40, 40],
            gamma: 0.5,
            lr: 1e-3,
            batch_size: 32,
            target_sync_every: 100,
            eps_start: 1.0,
            eps_end: 0.02,
            eps_decay_steps: 500.0,
            replay_capacity: 10_000,
            min_replay: 64,
            use_prioritized_replay: false,
        }
    }
}

/// Persistent scratch owned by the agent so a steady-state
/// [`DdqnAgent::train_step`] performs zero heap allocations: the sampled
/// index buffer, the flat packed state batches, the batched activations of
/// the network passes, the TD-target and grad-out buffers, the accumulated
/// minibatch gradients and the backward delta scratch. (The remaining leg
/// of the workspace — the Adam moment vectors — already persists inside
/// [`Adam`].)
///
/// `eval` serves only the eval net and `target` only the target net, so
/// each keeps its net's transposed weights while they are current (see
/// [`Mlp::forward_cached_batch`]): the eval net is transposed once per step
/// for its two passes, the target net once per sync.
#[derive(Clone, Debug, Default)]
struct TrainWorkspace {
    indices: Vec<usize>,
    states: Vec<f32>,
    next_states: Vec<f32>,
    targets: Vec<f32>,
    grad_out: Vec<f32>,
    eval: BatchActivations,
    target: BatchActivations,
    scratch: BackwardScratch,
    grads: Option<Gradients>,
}

/// A Double-DQN agent over a discrete action space.
#[derive(Clone, Debug)]
pub struct DdqnAgent {
    cfg: DdqnConfig,
    eval: Mlp,
    target: Mlp,
    opt: Adam,
    /// Local replay memory (public so multi-agent schemes can exchange
    /// experience with a global memory).
    pub replay: ReplayBuffer,
    rng: SmallRng,
    select_steps: u64,
    train_steps: u64,
    ws: TrainWorkspace,
    infer: BatchActivations,
    /// Per row of the last batched selection: whether it was greedy.
    batch_greedy: Vec<bool>,
    /// NaN Q-values / non-finite TD targets seen so far. A `Cell` so the
    /// `&self` inference paths can record anomalies too; `core::guard`
    /// polls this through [`DdqnAgent::anomalies`].
    anomalies: Cell<u64>,
}

impl DdqnAgent {
    /// New agent for `state_dim` inputs and `n_actions` outputs.
    pub fn new(state_dim: usize, n_actions: usize, cfg: DdqnConfig, seed: u64) -> Self {
        assert!(n_actions >= 2, "need at least two actions");
        let mut dims = Vec::with_capacity(cfg.hidden.len() + 2);
        dims.push(state_dim);
        dims.extend_from_slice(&cfg.hidden);
        dims.push(n_actions);
        let eval = Mlp::new(&dims, seed);
        let target = eval.clone();
        let opt = Adam::new(&eval, cfg.lr);
        let replay = if cfg.use_prioritized_replay {
            ReplayBuffer::prioritized(cfg.replay_capacity)
        } else {
            ReplayBuffer::new(cfg.replay_capacity)
        };
        DdqnAgent {
            cfg,
            eval,
            target,
            opt,
            replay,
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E3779B9).wrapping_add(1)),
            select_steps: 0,
            train_steps: 0,
            ws: TrainWorkspace::default(),
            infer: BatchActivations::new(),
            batch_greedy: Vec::new(),
            anomalies: Cell::new(0),
        }
    }

    /// Number of discrete actions.
    pub fn n_actions(&self) -> usize {
        self.eval.output_dim()
    }

    /// State dimensionality.
    pub fn state_dim(&self) -> usize {
        self.eval.input_dim()
    }

    /// Current exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.cfg.eps_end
            + (self.cfg.eps_start - self.cfg.eps_end)
                * (-(self.select_steps as f64) / self.cfg.eps_decay_steps).exp()
    }

    /// Batched ε-greedy selection over `batch` states packed row-major into
    /// `states` (`[batch × state_dim]` flat). Pushes one `(action,
    /// epsilon_after)` pair per row onto `out` (cleared first), where
    /// `epsilon_after` is the schedule value right after that row's decision.
    ///
    /// Determinism contract: consumes the RNG stream identically to one
    /// scalar ε-greedy decision per row in order, and greedy rows read a
    /// batched forward pass that is bit-identical to the scalar forward —
    /// so the chosen actions match the scalar reference in this module's
    /// tests exactly.
    pub fn select_actions_batch(
        &mut self,
        states: &[f32],
        batch: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        out.clear();
        self.batch_greedy.clear();
        if batch == 0 {
            return;
        }
        let n_actions = self.eval.output_dim();
        self.eval.forward_batch(states, batch, &mut self.infer);
        let mut anomalies = 0u64;
        for s in 0..batch {
            let eps = self.epsilon();
            self.select_steps += 1;
            let explore = self.rng.gen::<f64>() < eps;
            self.batch_greedy.push(!explore);
            let action = if explore {
                self.rng.gen_range(0..n_actions)
            } else {
                // Only greedy rows consult Q-values, so anomaly counts stay
                // aligned with the per-row scalar path.
                let (best, saw_nan) = argmax_checked(self.infer.output_row(s));
                if saw_nan {
                    anomalies += 1;
                }
                best
            };
            out.push((action, self.epsilon()));
        }
        if anomalies > 0 {
            self.anomalies.set(self.anomalies.get() + anomalies);
        }
    }

    /// Batched greedy inference (no exploration, no schedule side effects):
    /// one forward pass over the packed batch, one action per row pushed
    /// onto `out` (cleared first). Bit-identical to a scalar greedy
    /// decision per row.
    pub fn best_actions_batch(&mut self, states: &[f32], batch: usize, out: &mut Vec<usize>) {
        out.clear();
        self.batch_greedy.clear();
        self.batch_greedy.resize(batch, true);
        if batch == 0 {
            return;
        }
        self.eval.forward_batch(states, batch, &mut self.infer);
        let mut anomalies = 0u64;
        for s in 0..batch {
            let (best, saw_nan) = argmax_checked(self.infer.output_row(s));
            if saw_nan {
                anomalies += 1;
            }
            out.push(best);
        }
        if anomalies > 0 {
            self.anomalies.set(self.anomalies.get() + anomalies);
        }
    }

    /// The Q-values row `row` of the last batched selection
    /// ([`DdqnAgent::select_actions_batch`] or
    /// [`DdqnAgent::best_actions_batch`]) chose its action from, read from
    /// that selection's forward pass; `None` if the row's action was an
    /// ε-exploration draw. Valid until the next batched selection; `row`
    /// must be below that selection's batch size.
    pub fn batch_q_row(&self, row: usize) -> Option<&[f32]> {
        self.batch_greedy[row].then(|| self.infer.output_row(row))
    }

    /// Store one experience tuple.
    pub fn observe(&mut self, t: Transition) {
        self.observe_row(&t.state, t.action, t.reward, &t.next_state, t.done);
    }

    /// Store one experience tuple given as slices: the replay copies them
    /// into its row, so the caller keeps its buffers.
    pub fn observe_row(
        &mut self,
        state: &[f32],
        action: usize,
        reward: f32,
        next_state: &[f32],
        done: bool,
    ) {
        debug_assert_eq!(state.len(), self.state_dim());
        debug_assert!(action < self.n_actions());
        self.replay
            .push_row(state, action, reward, next_state, done);
    }

    /// True once the replay memory holds enough transitions for a train
    /// step to train. Training never changes the replay length, so a caller
    /// that is about to hand the agent to [`crate::trainer`] can count the
    /// steps that will train before they have run.
    pub fn ready_to_train(&self) -> bool {
        self.replay.len() >= self.cfg.min_replay.max(self.cfg.batch_size)
    }

    /// One minibatch training step (no-op until `min_replay` transitions are
    /// stored). Returns the minibatch loss if training happened.
    ///
    /// This is the batched kernel path: transitions are sampled by index and
    /// packed straight from their replay rows into flat batch buffers, the
    /// Double-DQN target runs as one batched eval-net pass for `a*` plus one
    /// batched target-net pass for `Q_next`, and a single batched backward
    /// accumulates the minibatch gradients in fixed sample order. Every
    /// buffer lives in the persistent `TrainWorkspace`, so a steady-state
    /// step allocates nothing. For finite states and weights, results —
    /// weights, RNG stream, returned loss — are bit-identical to the scalar
    /// per-sample reference step in this module's tests, pinned by
    /// differential tests there (see [`Mlp::backward_batch`] for what a NaN
    /// does; the anomaly count is the same on both paths either way).
    pub fn train_step(&mut self) -> Option<f32> {
        let n = self.cfg.batch_size;
        if !self.ready_to_train() {
            return None;
        }
        let state_dim = self.eval.input_dim();
        let n_actions = self.eval.output_dim();
        let gamma = self.cfg.gamma;

        // Sample by index and pack the borrowed transitions into the flat
        // batch buffers.
        self.replay
            .sample_indices_into(&mut self.rng, n, &mut self.ws.indices);
        self.ws.states.resize(n * state_dim, 0.0);
        self.ws.next_states.resize(n * state_dim, 0.0);
        for (k, &idx) in self.ws.indices.iter().enumerate() {
            let t = self.replay.get(idx);
            self.ws.states[k * state_dim..(k + 1) * state_dim].copy_from_slice(t.state);
            self.ws.next_states[k * state_dim..(k + 1) * state_dim].copy_from_slice(t.next_state);
        }

        // Batched Double-DQN target (eq. 3): a* from the eval net, Q_next
        // from the target net, then per-sample targets in index order.
        self.eval
            .forward_cached_batch(&self.ws.next_states, n, &mut self.ws.eval);
        self.target
            .forward_cached_batch(&self.ws.next_states, n, &mut self.ws.target);

        let mut anomalies = 0u64;
        self.ws.targets.resize(n, 0.0);
        for k in 0..n {
            let t = self.replay.get(self.ws.indices[k]);
            let y = if t.done {
                t.reward
            } else {
                let (a_star, saw_nan) = argmax_checked(self.ws.eval.output_row(k));
                if saw_nan {
                    anomalies += 1;
                }
                t.reward + gamma * self.ws.target.output_row(k)[a_star]
            };
            if !y.is_finite() {
                anomalies += 1;
            }
            self.ws.targets[k] = y;
        }

        // The update's pass over S reuses the eval net's transposed weights:
        // a* has been read out of the workspace, and the weights are the same.
        self.eval
            .forward_cached_batch(&self.ws.states, n, &mut self.ws.eval);

        // Per-sample TD errors → loss and the sparse grad-out rows.
        self.ws.grad_out.resize(n * n_actions, 0.0);
        self.ws.grad_out.fill(0.0);
        let mut loss = 0.0f32;
        for k in 0..n {
            let t = self.replay.get(self.ws.indices[k]);
            let q = self.ws.eval.output_row(k)[t.action];
            let err = q - self.ws.targets[k];
            loss += err * err;
            if !err.is_finite() {
                anomalies += 1;
            }
            // dLoss/dQ[a] = 2·err for the taken action, 0 elsewhere.
            self.ws.grad_out[k * n_actions + t.action] = 2.0 * err;
        }

        // One batched backward into the persistent gradient buffers.
        let grads = self
            .ws
            .grads
            .get_or_insert_with(|| Gradients::zeros(&self.eval));
        self.eval.backward_batch(
            &self.ws.eval,
            &self.ws.grad_out,
            &mut self.ws.scratch,
            grads,
        );
        grads.scale(1.0 / n as f32);
        self.opt.step(&mut self.eval, grads);
        self.after_update();
        if anomalies > 0 {
            self.anomalies.set(self.anomalies.get() + anomalies);
        }
        Some(loss / n as f32)
    }

    /// What a train step (and its scalar reference) does after the Adam
    /// update of the eval net: count the step and sync the target net on
    /// schedule.
    fn after_update(&mut self) {
        self.train_steps += 1;
        if self.train_steps.is_multiple_of(self.cfg.target_sync_every) {
            self.target.copy_from(&self.eval);
        }
    }

    /// Training/inference anomalies observed so far: NaN Q-value vectors fed
    /// to argmax and non-finite TD targets/errors. Monotonic; `core::guard`
    /// polls the delta each tick and surfaces it on the event timeline
    /// instead of letting a poisoned model silently pick action 0.
    pub fn anomalies(&self) -> u64 {
        self.anomalies.get()
    }

    /// Training steps taken so far.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Serialize the evaluation network (the deployable model).
    pub fn export_model(&self) -> Mlp {
        self.eval.clone()
    }

    /// Load a pre-trained model into both networks (offline → online
    /// hand-off, §4.3).
    pub fn load_model(&mut self, model: &Mlp) {
        self.eval.copy_from(model);
        self.target.copy_from(model);
    }
}

/// An agent crosses threads inside a [`crate::trainer`] job, so it must stay
/// `Send`: an `Rc` slipped into it fails here, not in a helper thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DdqnAgent>();
};

/// NaN-safe argmax over Q-values using `f32::total_cmp` ordering, except
/// that NaN never wins (a poisoned Q-value must not steer the policy).
/// Returns the winning index plus whether any entry was NaN, so callers can
/// raise a training-anomaly signal instead of silently picking index 0.
fn argmax_checked(xs: &[f32]) -> (usize, bool) {
    let mut best = 0;
    let mut saw_nan = xs.first().is_some_and(|v| v.is_nan());
    for (i, v) in xs.iter().enumerate().skip(1) {
        if v.is_nan() {
            saw_nan = true;
            continue;
        }
        if xs[best].is_nan() || v.total_cmp(&xs[best]).is_gt() {
            best = i;
        }
    }
    (best, saw_nan)
}

/// The scalar per-sample reference the batched selection and train step
/// are tested against: one forward pass per state, one forward and
/// backward per sampled transition, on the agent's own RNG, replay and
/// optimiser. Test builds only: simulations always run the batched path.
#[cfg(test)]
mod scalar {
    use super::{argmax_checked, DdqnAgent};
    use crate::mlp::Gradients;
    use rand::Rng;

    impl DdqnAgent {
        /// ε-greedy action selection; advances the decay schedule.
        pub(crate) fn select_action(&mut self, state: &[f32]) -> usize {
            let eps = self.epsilon();
            self.select_steps += 1;
            if self.rng.gen::<f64>() < eps {
                self.rng.gen_range(0..self.n_actions())
            } else {
                self.best_action(state)
            }
        }

        /// Pure greedy inference (no exploration, no schedule side effects).
        pub(crate) fn best_action(&self, state: &[f32]) -> usize {
            let (best, saw_nan) = argmax_checked(&self.eval.forward(state));
            if saw_nan {
                self.anomalies.set(self.anomalies.get() + 1);
            }
            best
        }

        /// Q-values of the evaluation network.
        pub(crate) fn q_values(&self, state: &[f32]) -> Vec<f32> {
            self.eval.forward(state)
        }

        /// The scalar reference implementation of [`DdqnAgent::train_step`]:
        /// per-sample forward/backward passes with freshly allocated
        /// activations and gradients over the same sampled indices. It
        /// consumes the RNG stream identically and produces bit-identical
        /// weights and loss — the ground truth the batched kernels are
        /// differentially tested against (the same role the reference heap
        /// plays for `netsim`'s timing wheel).
        pub(crate) fn train_step_scalar(&mut self) -> Option<f32> {
            if !self.ready_to_train() {
                return None;
            }
            let mut batch = Vec::new();
            self.replay
                .sample_indices_into(&mut self.rng, self.cfg.batch_size, &mut batch);
            let n = batch.len();
            let mut total = Gradients::zeros(&self.eval);
            let mut loss = 0.0f32;
            let mut anomalies = 0u64;
            for idx in batch {
                let t = self.replay.get(idx);
                // Double-DQN target.
                let y = if t.done {
                    t.reward
                } else {
                    let (a_star, saw_nan) = argmax_checked(&self.eval.forward(t.next_state));
                    if saw_nan {
                        anomalies += 1;
                    }
                    t.reward + self.cfg.gamma * self.target.forward(t.next_state)[a_star]
                };
                if !y.is_finite() {
                    anomalies += 1;
                }
                let cache = self.eval.forward_cached(t.state);
                let q = cache.output()[t.action];
                let err = q - y;
                loss += err * err;
                if !err.is_finite() {
                    anomalies += 1;
                }
                // dLoss/dQ[a] = 2·err for the taken action, 0 elsewhere.
                let mut grad_out = vec![0.0f32; self.eval.output_dim()];
                grad_out[t.action] = 2.0 * err;
                let g = self.eval.backward(&cache, &grad_out);
                total.add(&g);
            }
            total.scale(1.0 / n as f32);
            self.opt.step(&mut self.eval, &total);
            self.after_update();
            if anomalies > 0 {
                self.anomalies.set(self.anomalies.get() + anomalies);
            }
            Some(loss / n as f32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epsilon_decays_exponentially() {
        let mut a = DdqnAgent::new(2, 2, DdqnConfig::default(), 1);
        let e0 = a.epsilon();
        for _ in 0..500 {
            a.select_action(&[0.0, 0.0]);
        }
        let e1 = a.epsilon();
        for _ in 0..5000 {
            a.select_action(&[0.0, 0.0]);
        }
        let e2 = a.epsilon();
        assert!(e0 > 0.99);
        assert!(e1 < 0.5 && e1 > a.cfg.eps_end);
        assert!((e2 - a.cfg.eps_end).abs() < 1e-3);
    }

    /// The default agent on the shape every switch runs — 12 features, 20
    /// templates — trains nothing until its replay is warm, then samples 32
    /// transitions a step into a net of 2,980 parameters.
    #[test]
    fn no_training_until_min_replay() {
        let mut a = DdqnAgent::new(12, 20, DdqnConfig::default(), 1);
        assert_eq!(a.eval.param_count(), 2980);
        assert_eq!(a.eval.flops_per_inference(), 5760);
        assert!(a.train_step().is_none());
        for i in 0..100 {
            a.observe(Transition {
                state: vec![0.0; 12],
                action: i % 20,
                reward: 0.0,
                next_state: vec![0.0; 12],
                done: false,
            });
        }
        assert!(a.train_step().is_some());
        assert_eq!(a.ws.indices.len(), 32);
        assert_eq!(a.ws.states.len(), 32 * 12);
    }

    /// A contextual bandit: state is one-hot of 3 contexts, the correct
    /// action equals the context. After training the greedy policy must be
    /// (nearly) optimal — this exercises selection, replay, targets and
    /// optimisation end to end.
    #[test]
    fn learns_contextual_bandit() {
        let mut cfg = DdqnConfig::default();
        cfg.gamma = 0.0; // bandit: no bootstrapping
        cfg.lr = 5e-3;
        cfg.eps_decay_steps = 300.0;
        let mut agent = DdqnAgent::new(3, 3, cfg, 7);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..3000 {
            let ctx = rng.gen_range(0..3usize);
            let mut s = vec![0.0f32; 3];
            s[ctx] = 1.0;
            let a = agent.select_action(&s);
            let r = if a == ctx { 1.0 } else { -1.0 };
            agent.observe(Transition {
                state: s.clone(),
                action: a,
                reward: r,
                next_state: s,
                done: true,
            });
            agent.train_step();
        }
        for ctx in 0..3 {
            let mut s = vec![0.0f32; 3];
            s[ctx] = 1.0;
            assert_eq!(
                agent.best_action(&s),
                ctx,
                "greedy policy wrong for context {ctx}: q={:?}",
                agent.q_values(&s)
            );
        }
    }

    /// A 2-state chain MDP where the *delayed* consequence matters:
    /// in state 0, action 1 moves to state 1 (reward 0); in state 1, action 0
    /// pays +1 and returns to 0. Any other action pays -0.1 and self-loops.
    /// With γ>0 the agent must learn both steps.
    #[test]
    fn learns_two_step_chain() {
        let mut cfg = DdqnConfig::default();
        cfg.gamma = 0.9;
        cfg.lr = 5e-3;
        cfg.eps_decay_steps = 500.0;
        cfg.target_sync_every = 50;
        let mut agent = DdqnAgent::new(2, 2, cfg, 3);
        let mut state = 0usize;
        for _ in 0..6000 {
            let s = one_hot(state, 2);
            let a = agent.select_action(&s);
            let (r, next) = match (state, a) {
                (0, 1) => (0.0, 1),
                (1, 0) => (1.0, 0),
                _ => (-0.1, state),
            };
            agent.observe(Transition {
                state: s,
                action: a,
                reward: r,
                next_state: one_hot(next, 2),
                done: false,
            });
            agent.train_step();
            state = next;
        }
        assert_eq!(agent.best_action(&one_hot(0, 2)), 1);
        assert_eq!(agent.best_action(&one_hot(1, 2)), 0);
    }

    #[test]
    fn learns_bandit_with_prioritized_replay() {
        // Same contextual bandit, but replaying high-reward experience
        // preferentially (§4.3 online mode) — learning must still converge.
        let mut cfg = DdqnConfig::default();
        cfg.gamma = 0.0;
        cfg.lr = 5e-3;
        cfg.eps_decay_steps = 300.0;
        cfg.use_prioritized_replay = true;
        let mut agent = DdqnAgent::new(3, 3, cfg, 7);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..3000 {
            let ctx = rng.gen_range(0..3usize);
            let mut s = vec![0.0f32; 3];
            s[ctx] = 1.0;
            let a = agent.select_action(&s);
            let r = if a == ctx { 1.0 } else { -1.0 };
            agent.observe(Transition {
                state: s.clone(),
                action: a,
                reward: r,
                next_state: s,
                done: true,
            });
            agent.train_step();
        }
        let mut correct = 0;
        for ctx in 0..3 {
            let mut s = vec![0.0f32; 3];
            s[ctx] = 1.0;
            if agent.best_action(&s) == ctx {
                correct += 1;
            }
        }
        assert!(correct >= 2, "prioritized agent got {correct}/3 contexts");
    }

    #[test]
    fn model_export_load_round_trip() {
        let a = DdqnAgent::new(4, 5, DdqnConfig::default(), 1);
        let mut b = DdqnAgent::new(4, 5, DdqnConfig::default(), 99);
        let s = [0.1, 0.2, 0.3, 0.4];
        assert_ne!(a.q_values(&s), b.q_values(&s));
        let m = a.export_model();
        b.load_model(&m);
        assert_eq!(a.q_values(&s), b.q_values(&s));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut agent = DdqnAgent::new(2, 2, DdqnConfig::default(), 5);
            let mut out = Vec::new();
            for i in 0..200 {
                let s = vec![(i % 3) as f32, (i % 5) as f32];
                let a = agent.select_action(&s);
                agent.observe(Transition {
                    state: s.clone(),
                    action: a,
                    reward: a as f32,
                    next_state: s,
                    done: false,
                });
                agent.train_step();
                out.push(a);
            }
            out
        };
        assert_eq!(run(), run());
    }

    /// The batched `train_step` must stay bit-identical to the retained
    /// scalar reference over a long interleaved run — same actions, same
    /// losses, same weights, same RNG stream (the reference-heap pattern).
    #[test]
    fn batched_train_step_bit_identical_to_scalar() {
        for prioritized in [false, true] {
            let mut cfg = DdqnConfig::default();
            cfg.use_prioritized_replay = prioritized;
            cfg.target_sync_every = 25; // exercise syncs mid-run
            let mut batched = DdqnAgent::new(3, 4, cfg.clone(), 5);
            let mut scalar = DdqnAgent::new(3, 4, cfg, 5);
            for i in 0..300u32 {
                let s = vec![(i % 3) as f32, (i % 5) as f32 * 0.2, (i % 7) as f32];
                let ab = batched.select_action(&s);
                let asc = scalar.select_action(&s);
                assert_eq!(ab, asc, "action diverged at step {i}");
                let t = Transition {
                    state: s.clone(),
                    action: ab,
                    reward: (i % 11) as f32 * 0.1 - 0.3,
                    next_state: s,
                    done: i % 17 == 0,
                };
                batched.observe(t.clone());
                scalar.observe(t);
                let lb = batched.train_step();
                let ls = scalar.train_step_scalar();
                assert_eq!(lb, ls, "loss diverged at step {i} (prio={prioritized})");
            }
            let probe = [0.5, -0.25, 1.5];
            assert_eq!(batched.q_values(&probe), scalar.q_values(&probe));
            assert_eq!(
                batched.export_model().forward(&probe),
                scalar.export_model().forward(&probe)
            );
        }
    }

    /// Batched selection must reproduce the scalar per-row decisions, the
    /// per-decision epsilon record, and the RNG stream.
    #[test]
    fn batched_selection_matches_scalar_path() {
        let mut a = DdqnAgent::new(2, 3, DdqnConfig::default(), 9);
        let mut b = DdqnAgent::new(2, 3, DdqnConfig::default(), 9);
        let mut out = Vec::new();
        for round in 0..40 {
            let batch = 1 + round % 5;
            let states: Vec<f32> = (0..batch * 2)
                .map(|i| ((round * 13 + i * 7) % 19) as f32 * 0.1)
                .collect();
            a.select_actions_batch(&states, batch, &mut out);
            assert_eq!(out.len(), batch);
            for (s, &(action, eps)) in out.iter().enumerate() {
                let scalar_action = b.select_action(&states[s * 2..(s + 1) * 2]);
                assert_eq!(action, scalar_action, "round {round} row {s}");
                assert_eq!(eps, b.epsilon(), "recorded epsilon drifted");
            }
        }
        // Greedy batch agrees with best_action per row.
        let states = [0.3, 0.6, 0.9, 0.1];
        let mut greedy = Vec::new();
        a.best_actions_batch(&states, 2, &mut greedy);
        assert_eq!(greedy[0], b.best_action(&states[0..2]));
        assert_eq!(greedy[1], b.best_action(&states[2..4]));
    }

    /// `batch_q_row` hands out the forward pass a greedy row chose from,
    /// and nothing for an explored row.
    #[test]
    fn batch_q_rows_are_the_greedy_rows_forward() {
        let mut a = DdqnAgent::new(2, 3, DdqnConfig::default(), 9);
        let mut out = Vec::new();
        let (mut greedy, mut explored) = (0, 0);
        for round in 0..200 {
            let batch = 1 + round % 5;
            let states: Vec<f32> = (0..batch * 2)
                .map(|i| ((round * 13 + i * 7) % 19) as f32 * 0.1)
                .collect();
            a.select_actions_batch(&states, batch, &mut out);
            for (s, &(action, _)) in out.iter().enumerate() {
                match a.batch_q_row(s) {
                    Some(q) => {
                        greedy += 1;
                        assert_eq!(q, a.q_values(&states[s * 2..(s + 1) * 2]));
                        assert_eq!(action, argmax_checked(q).0);
                    }
                    None => explored += 1,
                }
            }
        }
        assert!(
            greedy > 0 && explored > 0,
            "{greedy} greedy, {explored} explored"
        );
        let states = [0.3, 0.6, 0.9, 0.1];
        a.best_actions_batch(&states, 2, &mut Vec::new());
        assert_eq!(a.batch_q_row(1), Some(a.q_values(&states[2..4]).as_slice()));
        assert!(a.batch_q_row(0).is_some());
    }

    #[test]
    fn argmax_is_nan_safe_and_signals_anomaly() {
        // NaN never wins, regardless of position.
        assert_eq!(argmax_checked(&[f32::NAN, 1.0, 0.5]), (1, true));
        assert_eq!(argmax_checked(&[1.0, f32::NAN, 2.0]), (2, true));
        assert_eq!(argmax_checked(&[1.0, 2.0, f32::NAN]), (1, true));
        // All-NaN degenerates to index 0, but the signal fires.
        assert_eq!(argmax_checked(&[f32::NAN, f32::NAN]), (0, true));
        // Clean vectors: plain argmax, first max wins ties, no signal.
        assert_eq!(argmax_checked(&[0.5, 2.0, 2.0]), (1, false));
        assert_eq!(argmax_checked(&[-1.0, -3.0]), (0, false));
        // total_cmp handles infinities.
        assert_eq!(
            argmax_checked(&[f32::NEG_INFINITY, f32::INFINITY]),
            (1, false)
        );
    }

    #[test]
    fn nan_q_values_raise_the_anomaly_counter() {
        let mut a = DdqnAgent::new(2, 2, DdqnConfig::default(), 1);
        assert_eq!(a.anomalies(), 0);
        // Poison the eval net so every forward emits NaN.
        let mut m = a.export_model();
        m.set_weight(0, 0, f32::NAN);
        a.load_model(&m);
        let best = a.best_action(&[1.0, 1.0]);
        assert!(best < 2);
        assert!(a.anomalies() > 0, "NaN Q-values went unsignalled");

        // A NaN reward poisons the TD target: training must signal too, on
        // both the batched and the scalar reference path.
        for use_scalar in [false, true] {
            let mut a = DdqnAgent::new(2, 2, DdqnConfig::default(), 1);
            for i in 0..100 {
                a.observe(Transition {
                    state: vec![0.0, 1.0],
                    action: i % 2,
                    reward: f32::NAN,
                    next_state: vec![1.0, 0.0],
                    done: false,
                });
            }
            let loss = if use_scalar {
                a.train_step_scalar()
            } else {
                a.train_step()
            };
            assert!(loss.is_some());
            assert!(a.anomalies() > 0, "scalar={use_scalar} missed NaN targets");
        }
    }

    /// Bit-identity with the scalar path holds for finite states and
    /// weights only (the batched backward skips `0 × NaN`, the scalar one
    /// adds it), but the anomaly signal must not depend on the path: a
    /// transition with a NaN feature raises the counter by the same amount
    /// in both, on the step that first samples it.
    #[test]
    fn nan_feature_raises_anomalies_equally_on_both_paths() {
        let mut batched = DdqnAgent::new(3, 4, DdqnConfig::default(), 21);
        let mut scalar = DdqnAgent::new(3, 4, DdqnConfig::default(), 21);
        for i in 0..200u32 {
            let mut state = vec![(i % 3) as f32, (i % 5) as f32 * 0.2, (i % 7) as f32];
            if i == 150 {
                state[1] = f32::NAN;
            }
            let t = Transition {
                state: state.clone(),
                action: (i % 4) as usize,
                reward: (i % 11) as f32 * 0.1 - 0.3,
                next_state: state,
                done: false,
            };
            batched.observe(t.clone());
            scalar.observe(t);
        }
        let mut steps = 0;
        while batched.anomalies() == 0 {
            steps += 1;
            assert!(steps <= 1000, "the NaN transition was never sampled");
            assert!(batched.train_step().is_some());
            assert!(scalar.train_step_scalar().is_some());
            assert_eq!(batched.anomalies(), scalar.anomalies(), "step {steps}");
        }
        assert!(
            steps > 1,
            "sampled on the first step: nothing ran clean first"
        );
    }

    proptest! {
        /// Agent-level differential: interleaved decide/observe/train with the
        /// batched kernels tracks the scalar reference bit-for-bit for random
        /// seeds and replay flavours, on a small net and on the shape every
        /// switch trains — `[12, 40, 40, 20]` under `DdqnConfig::default()`, 32
        /// samples a step — including across a `load_model` halfway through.
        /// Each step the batched agent decides 1 to `max_rows` rows at once —
        /// ε-greedy through `select_actions_batch`, or greedy through
        /// `best_actions_batch` every third step — and the scalar agent decides
        /// the same rows one by one; actions and recorded ε must match.
        /// `max_rows` runs from 8 to 64, so batches of 8 rows and more read the
        /// transposed weights through the register tiles, with every 4-row
        /// remainder. The row count cycles with period `max_rows` and the
        /// greedy steps with period 3, so at `max_rows` 8 every row count is
        /// decided both ways after the weights have changed.
        #[test]
        fn agent_batched_training_matches_scalar(
            seed in any::<u64>(),
            prioritized in any::<bool>(),
            acc_shape in any::<bool>(),
            steps in 80usize..160,
            reload in any::<bool>(),
            max_rows in 8usize..=64,
            row_phase in 0usize..64,
            greedy_phase in 0usize..3,
        ) {
            let mut cfg = DdqnConfig::default();
            cfg.use_prioritized_replay = prioritized;
            let (dim, n_actions) = if acc_shape {
                (12, 20)
            } else {
                cfg.min_replay = 32;
                cfg.target_sync_every = 20;
                (2, 3)
            };
            let mut batched = DdqnAgent::new(dim, n_actions, cfg.clone(), seed);
            let mut scalar = DdqnAgent::new(dim, n_actions, cfg, seed);
            let model = Mlp::new(batched.export_model().dims(), seed ^ 0x5EED);
            let mut decisions = Vec::new();
            let mut greedy = Vec::new();
            for i in 0..steps {
                if reload && i == steps / 2 {
                    batched.load_model(&model);
                    scalar.load_model(&model);
                }
                let rows = 1 + (i + row_phase) % max_rows;
                let states: Vec<f32> = (0..rows)
                    .flat_map(|r| {
                        (0..dim).map(move |d| {
                            ((i + (d + 1) * r) % (4 + 2 * d)) as f32 * (0.5 - 0.2 * d as f32)
                        })
                    })
                    .collect();
                let row = |r: usize| &states[r * dim..(r + 1) * dim];
                if i % 3 == greedy_phase {
                    batched.best_actions_batch(&states, rows, &mut greedy);
                    decisions.clear();
                    decisions.extend(greedy.iter().map(|&a| (a, batched.epsilon())));
                    for (r, &(a, eps)) in decisions.iter().enumerate() {
                        prop_assert_eq!(a, scalar.best_action(row(r)), "step {} row {}", i, r);
                        prop_assert_eq!(eps, scalar.epsilon());
                    }
                } else {
                    batched.select_actions_batch(&states, rows, &mut decisions);
                    for (r, &(a, eps)) in decisions.iter().enumerate() {
                        prop_assert_eq!(a, scalar.select_action(row(r)), "step {} row {}", i, r);
                        prop_assert_eq!(eps, scalar.epsilon());
                    }
                }
                for (r, &(a, _)) in decisions.iter().enumerate() {
                    let t = Transition {
                        state: row(r).to_vec(),
                        action: a,
                        reward: ((i * 7 + r) % 13) as f32 * 0.1 - 0.5,
                        next_state: row((r + 1) % rows).to_vec(),
                        done: (i + r) % 23 == 0,
                    };
                    batched.observe(t.clone());
                    scalar.observe(t);
                }
                prop_assert_eq!(batched.train_step(), scalar.train_step_scalar());
            }
            let probe: Vec<f32> = (0..dim).map(|d| if d % 2 == 0 { 0.7 } else { -0.1 }).collect();
            prop_assert_eq!(batched.q_values(&probe), scalar.q_values(&probe));
        }

        /// ε is monotone nonincreasing in steps and bounded by [eps_end, eps_start].
        #[test]
        fn epsilon_schedule_monotone(steps in prop::collection::vec(1u32..50, 1..20)) {
            let mut agent = DdqnAgent::new(2, 2, DdqnConfig::default(), 1);
            let mut prev = agent.epsilon();
            prop_assert!(prev <= 1.0 + 1e-9);
            for k in steps {
                for _ in 0..k {
                    agent.select_action(&[0.0, 0.0]);
                }
                let e = agent.epsilon();
                prop_assert!(e <= prev + 1e-12);
                prop_assert!(e >= 0.02 - 1e-12);
                prev = e;
            }
        }
    }

    fn one_hot(i: usize, n: usize) -> Vec<f32> {
        let mut v = vec![0.0; n];
        v[i] = 1.0;
        v
    }
}
