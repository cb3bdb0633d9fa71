//! # telemetry — the flight recorder
//!
//! Opt-in observability for simulation runs: while an experiment runs, a
//! [`RunRecorder`] streams two time-series through pluggable sinks, and a
//! [`RunManifest`] summarises the run after the fact.
//!
//! * **Queue time-series** ([`QueueSample`]) — periodic per-queue samples of
//!   depth, transmitted/marked/dropped traffic, PFC pause activity and
//!   shared-buffer occupancy, produced by [`install_queue_sampler`] which
//!   schedules a sampling event inside the simulator's event loop at a
//!   configurable cadence.
//! * **Agent time-series** ([`AgentSample`]) — one record per ACC decision:
//!   state features, the chosen `{Kmin, Kmax, Pmax}` action, ε, reward, TD
//!   loss and replay/training progress (emitted by
//!   `acc_core::controller::AccController` when a recorder is attached).
//!
//! * **Event timeline** ([`EventSample`]) — discrete events: injected
//!   faults executing (drained from the simulator's fault log by the
//!   sampler) and safe-mode guardrail violations/trips/recoveries (emitted
//!   by `acc_core::guard::GuardedController`).
//!
//! A recorder writes into one sink ([`TelemetrySink`]): the in-memory
//! [`VecSink`], or the JSONL directory writer ([`JsonlSink`]: `queues.jsonl`,
//! `agents.jsonl`, `events.jsonl`). Everything is strictly opt-in: without
//! a recorder the simulator schedules no sampling events and the controller
//! pays a single `Option` check per decision. Recording is read-only — it
//! never perturbs the packet trajectory — and serialization is
//! deterministic, so two identical seeded runs produce byte-identical JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod merge;
pub mod recorder;
pub mod sampler;
pub mod samples;
pub mod sink;

pub use manifest::RunManifest;
pub use merge::merge_shards;
pub use recorder::{RunRecorder, SharedRecorder};
pub use sampler::{drain_fault_log, install_queue_sampler};
pub use samples::{AgentSample, EventSample, QueueSample};
pub use sink::{JsonlSink, TelemetrySink, VecSink};
