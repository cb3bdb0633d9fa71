//! # rl — dependency-free deep reinforcement learning
//!
//! The ACC paper's agent is a small Double-DQN over a four-layer MLP
//! (§3.4, Algorithm 1; resource budget in §6: layer sizes around
//! `{20, 40, 40, 20}`, ~30 KB of parameters). Rather than binding to a
//! tensor framework, this crate implements exactly the pieces needed, from
//! scratch and deterministically:
//!
//! * [`mlp`] — a fully-connected network with ReLU hidden layers, manual
//!   backpropagation and an Adam optimizer, plus register-tiled batched
//!   minibatch kernels (`forward_batch` / `forward_cached_batch` /
//!   `backward_batch`) over flat `[batch × dim]` workspaces that allocate
//!   nothing at steady state. They are the only path: the scalar per-sample
//!   reference they are bit-identical to (for finite states and weights)
//!   lives in the crate's unit tests;
//! * [`replay`] — the bounded experience-replay memory, [`ReplayBuffer`],
//!   one ring of flat `f32` rows (`state ‖ next_state ‖ reward, action,
//!   discount`): local per agent plus a shared *global* memory that agents
//!   exchange experience through (the asynchronous multi-agent scheme of
//!   §3.4), sampled uniformly or, with
//!   [`ReplayBuffer::prioritized`], by reward priority as during §4.3
//!   online fine-tuning;
//! * [`ddqn`] — the Double-DQN agent: ε-greedy action selection with fast
//!   exponential ε decay, minibatch sampling from its replay, the decoupled
//!   action-selection / action-evaluation target of eq. (3) at each row's
//!   own discount, and periodic target-network synchronisation;
//! * [`trainer`] — the asynchronous half of "asynchronous multi-agent DQN":
//!   an agent's update is submitted as a job and joined where its result
//!   is next read, so it runs on an idle core while the caller carries on,
//!   with results that cannot depend on the schedule.
//!
//! Everything is `f32`, seedable, and serializable with `serde` so trained
//! models can be saved offline and loaded onto "switches" (§4.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ddqn;
pub mod mlp;
pub mod replay;
pub mod trainer;

pub use ddqn::{DdqnAgent, DdqnConfig};
pub use mlp::{Adam, BackwardScratch, BatchActivations, Mlp};
pub use replay::{ReplayBuffer, Transition, TransitionRef};
pub use trainer::{Seat, Trainer, TrainerStats};
