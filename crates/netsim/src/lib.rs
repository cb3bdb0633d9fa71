//! # netsim — a deterministic packet-level datacenter-network simulator
//!
//! This crate is the substrate on which the ACC reproduction runs. It models,
//! at packet granularity, the parts of a high-speed datacenter fabric that an
//! ECN-tuning scheme interacts with:
//!
//! * **Links** — full-duplex point-to-point links with a serialization rate
//!   and a propagation delay.
//! * **Switches** — shared-buffer output-queued switches with per-port,
//!   per-traffic-class egress queues, RED/ECN marking with configurable
//!   `{Kmin, Kmax, Pmax}`, deficit-weighted-round-robin scheduling, and
//!   Priority Flow Control (PFC) with a dynamic Xoff threshold
//!   (`Xoff = alpha * free_buffer`, the scheme used by commodity chips and the
//!   ACC paper's testbed).
//! * **Hosts** — NIC models with per-priority egress queues that honour PFC;
//!   the transport behaviour (DCQCN, DCTCP, TCP) is plugged in through the
//!   [`NicDriver`] trait implemented by the `transport` crate.
//! * **Control plane** — every `delta_t` the engine invokes a
//!   [`QueueController`] on each switch with a telemetry view (queue depth,
//!   tx bytes, ECN-marked tx bytes, current config) and lets it rewrite the
//!   ECN configuration. ACC's per-switch DDQN agent, the static SECN
//!   baselines and the centralized C-ACC variant all implement this trait.
//!
//! Each simulator (one shard of a [`shard::ShardPlan`]; an unsharded one is
//! the single shard of a one-shard plan) is single-threaded and fully
//! deterministic: every random draw comes from a per-node
//! `rand::rngs::SmallRng` stream seeded from `(seed, node)`, and
//! simultaneous events are ordered by canonical keys derived from their
//! content, not by insertion order. Identical seeds produce identical runs
//! (the [`shard`] module docs give the contract across shard counts).
//!
//! ## Quick example
//!
//! ```
//! use netsim::prelude::*;
//!
//! // Two hosts connected by one switch, 25 Gbps links, 1 us of propagation.
//! let spec = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_us(1));
//! let topo = spec.build();
//! assert_eq!(topo.host_count(), 2);
//! ```
//!
//! See the `transport`, `acc-core` and `workloads` crates for the layers that
//! sit on top, and the repository examples for end-to-end scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod control;
pub mod driver;
pub mod event;
pub mod fault;
pub mod flowsim;
pub mod ids;
pub mod packet;
pub mod profile;
pub mod queues;
pub mod routing;
pub mod shard;
pub mod sim;
pub mod time;
pub mod topology;
pub mod util;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::buffer::SharedBuffer;
    pub use crate::config::{PortConfig, SimConfig};
    pub use crate::control::{ControllerHost, QueueController, QueueSnapshot, SwitchView};
    pub use crate::driver::{HostCtx, NicDriver};
    pub use crate::fault::{FaultEvent, FaultKind, FaultLogEntry, FaultPlan, FaultPlanError};
    pub use crate::flowsim::{FlowSim, FlowSimConfig, FlowSpec};
    pub use crate::ids::{FlowId, NodeId, PortId, Prio};
    pub use crate::packet::{Ecn, Packet, PacketKind};
    pub use crate::queues::EcnConfig;
    pub use crate::shard::{run_sharded_phased, RemoteEvent, ShardPlan, ShardStats};
    pub use crate::sim::Simulator;
    pub use crate::time::{tx_time, SimTime};
    pub use crate::topology::{NodeKind, Topology, TopologySpec};
}

pub use prelude::*;

// Send/Sync audit for the parallel run-matrix executor in `acc-bench`: a
// `Simulator` itself is single-threaded (trait objects and `Rc` graphs live
// and die on the thread that built it), but everything a matrix cell
// captures to *build* one on a worker thread must cross threads. Keeping
// these as compile-time assertions means a refactor that sneaks an `Rc`
// into a spec/config type fails here, not in a distant bench build.
#[cfg(test)]
mod send_audit {
    use super::prelude::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn matrix_cell_inputs_cross_threads() {
        assert_send_sync::<TopologySpec>();
        assert_send_sync::<Topology>();
        assert_send_sync::<SimConfig>();
        assert_send_sync::<SimTime>();
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<EcnConfig>();
        assert_send_sync::<NodeId>();
        assert_send_sync::<PortId>();
    }
}
