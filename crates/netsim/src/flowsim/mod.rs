//! # flowsim — analytic flow-level backend behind the packet simulator's interface
//!
//! The packet engine prices every uncontended flow at full per-packet cost,
//! which caps websearch/storage matrices at ~10³ flows. This module models the
//! same fabric at *flow* granularity, minim-style: each active flow holds an
//! analytic rate equal to its **min-share** across the directed links on its
//! path (`capacity / n_active`, a conservative max-min approximation that is
//! exact whenever a flow has a single bottleneck), and progress is advanced
//! lazily — only when a flow arrives, departs, or a control tick fires. The
//! engine keeps its own three event sources — a cursor over the sorted
//! arrivals, the armed control tick, and one re-keyable completion timer per
//! active flow in an indexed min-heap (`timers.rs`) — so a rate change moves a
//! flow's timer instead of queueing a second one, and it shares nothing with
//! the packet engine's event queue.
//!
//! Three properties tie it back to the ACC reproduction:
//!
//! * **Ideal-FCT fast path** — a flow whose path is idle at arrival is
//!   priced in O(1): source-drain time at line rate plus per-hop
//!   store-and-forward of the last packet plus propagation, matching the
//!   packet engine's uncontended timing (DCQCN starts at line rate and an
//!   unshared queue never reaches `Kmin`, so no marks, no rate cuts).
//! * **Analytic ECN feedback** — each
//!   contended switch-egress link carries an equilibrium queue model
//!   ([`bottleneck::qstar_bytes`]) from which ECN mark probability and queue depth
//!   are derived and fed to the control plane through the same
//!   [`crate::queues::QueueTelemetry`] counters the packet engine exposes:
//!   [`FlowSim`] ticks one [`crate::control::QueueController`] per switch
//!   through a [`crate::control::SwitchView`] over that switch's egress
//!   [`LinkModel`]s, so DDQN / guarded ACC / static ECN run unmodified.
//! * **Determinism** — no randomness at all: rates, queues and marks are
//!   pure functions of flow membership, and event order is `(time, seq)`
//!   with `seq` the order events were scheduled in. Identical inputs give
//!   identical runs.
//!
//! Known divergences from the packet engine (documented in EXPERIMENTS.md):
//! convergence transients of DCQCN/DCTCP are collapsed to instantaneous
//! fair-share, PFC is not modeled (the analytic queue cannot overflow), and
//! ACK-path bandwidth (64-byte ACK/CNP frames) is ignored.

pub mod bottleneck;
pub mod engine;
mod timers;

pub use bottleneck::{eff_capacity_bps, qstar_bytes, share_bps, LinkInputs, LinkModel};
pub use engine::{EcnTuner, FlowDone, FlowSim, FlowSimConfig, FlowSimStats, FlowSpec};
