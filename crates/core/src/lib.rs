//! # acc-core — Automatic ECN tuning (the ACC system, SIGCOMM 2021)
//!
//! This crate is the paper's primary contribution: a per-switch Deep-RL
//! controller that retunes the RED/ECN marking configuration
//! `{Kmin, Kmax, Pmax}` of every egress queue, every monitoring interval
//! `Δt`, from locally observable telemetry only.
//!
//! The pieces map directly onto the paper:
//!
//! * [`state`] — the agent's state: per queue, the last `k = 3` monitoring
//!   intervals of four normalised features `(qlen, txRate, txRate(m),
//!   ECN(c))`, i.e. 12 inputs (§3.3 "Markov property").
//! * [`action`] — the discretised action space: `Kmin = 20·2ⁿ KB` for
//!   `n ∈ 0..9` (eq. 1), coarse `Kmax ∈ {1,2,5,10} MB`, `Pmax ∈ {1%, j·5%}`,
//!   plus the curated ~20-entry *template* space that the deployed system's
//!   small NN output layer actually selects from (§3.3, §6).
//! * [`reward`] — `r = ω₁·T(R) + ω₂·D(L)` with the step-mapped queue-length
//!   penalty of Fig. 4 (and the linear variant of Appendix .1 for the
//!   ablation).
//! * [`controller`] — [`controller::AccController`], a
//!   [`netsim::QueueController`] housing a Double-DQN agent (shared across
//!   the switch's queues), per-queue state windows, online training, the
//!   busy/idle inference-skipping optimisation of §4.2, and the global
//!   replay-memory exchange of §3.4.
//! * [`centralized`] — the C-ACC strawman of §5.4: one agent for the whole
//!   fabric with per-layer actions and a collection-latency handicap.
//! * [`hybrid`] — the §6 "optimal solution may be hybrid" sketch (H-ACC):
//!   the central trainer that [`controller::AccController::hybrid`]
//!   controllers ship their transitions to and load published models
//!   from; inference, rewards, the idle rule and decision records are
//!   D-ACC's own.
//! * [`static_ecn`] — the SECN0/1/2 and vendor-default baselines.
//! * [`trainer`] — offline-training helpers: share one model across all
//!   switches during pre-training, export it, and redeploy it frozen or with
//!   a small online exploration budget (§4.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod centralized;
pub mod controller;
pub mod deploy;
pub mod guard;
pub mod hybrid;
pub mod reward;
pub mod soak;
pub mod state;
pub mod static_ecn;
pub mod trainer;

pub use action::ActionSpace;
pub use centralized::{CentralBrain, CentralizedAcc};
pub use controller::{AccConfig, AccController};
pub use deploy::{
    DeployBundle, DeployError, FleetConfig, FleetManager, FleetStats, ProbationOutcome, SwapOutcome,
};
pub use guard::{
    GuardConfig, GuardDecision, GuardObs, GuardStats, GuardViolation, GuardedController, QueueGuard,
};
pub use hybrid::CentralTrainer;
pub use reward::{e_n, ladder_index, QueuePenalty, RewardConfig};
pub use soak::{PhaseKind, SoakPhase, SoakPlan};
pub use state::{QueueObs, QueueObserver, StateWindow, FEATURES_PER_OBS};
pub use static_ecn::{FluidStaticEcn, StaticEcnPolicy};

// Send/Sync audit for the parallel run-matrix executor in `acc-bench`:
// controllers themselves are installed and driven on one thread, but the
// configs, action spaces and models a matrix cell captures (including the
// process-wide pretrained `Mlp` cache) must cross worker threads.
#[cfg(test)]
mod send_audit {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn matrix_cell_inputs_cross_threads() {
        assert_send_sync::<AccConfig>();
        assert_send_sync::<ActionSpace>();
        assert_send_sync::<GuardConfig>();
        assert_send_sync::<GuardStats>();
        assert_send_sync::<StaticEcnPolicy>();
        assert_send_sync::<RewardConfig>();
        assert_send_sync::<rl::Mlp>();
    }
}
