//! # transport — host transports for the `netsim` fabric
//!
//! Implements the three transport behaviours the ACC paper's environment
//! contains, as [`netsim::NicDriver`]s:
//!
//! * **DCQCN** ([`dcqcn`]) — the RoCEv2 congestion control that RDMA NICs run
//!   in hardware (Zhu et al., SIGCOMM'15): ECN-marked packets trigger CNPs
//!   from the notification point (receiver); the reaction point (sender)
//!   multiplicatively cuts its rate and recovers through fast-recovery /
//!   additive / hyper increase. Runs on the lossless PFC-protected class.
//! * **DCTCP** ([`window`]) — window-based, ECN-fraction-proportional backoff.
//! * **TCP Reno** ([`window`]) — ECN-unaware AIMD with drop-tail loss and
//!   go-back-N recovery; used for the RDMA/TCP coexistence experiments.
//!
//! A [`HostStack`] multiplexes any number of concurrent flows of any mix of
//! these transports over one NIC, measures flow completion times into a
//! shared [`FctCollector`], and lets closed-loop applications (the storage
//! and training models in the `workloads` crate) chain messages through the
//! [`AppHook`] trait.
//!
//! ```
//! use netsim::prelude::*;
//! use transport::{CcKind, FctCollector, Message, StackConfig};
//!
//! let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
//! let mut sim = Simulator::new(topo, SimConfig::default());
//! let fct = FctCollector::new_shared();
//! let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
//!
//! // One 1 MB RDMA message from host 0 to host 1, starting at t = 0.
//! transport::schedule_message(
//!     &mut sim, hosts[0], SimTime::ZERO,
//!     Message::new(hosts[1], 1_000_000, CcKind::Dcqcn),
//! );
//! sim.run_until(SimTime::from_ms(10));
//! assert_eq!(fct.borrow().completed().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod dcqcn;
pub mod msg;
pub mod stack;
pub mod stats;
pub mod window;

pub use app::{AppHook, CompletedMsg};
pub use dcqcn::DcqcnConfig;
pub use msg::{wire_bytes, CcKind, Message};
pub use stack::{HostStack, StackConfig};
pub use stats::{merge_shard_fct, FctCollector, FctStats, FctSummary, FlowRecord, SharedFct};

use netsim::prelude::*;

/// Install a [`HostStack`] with `cfg` on every host of `sim`, all reporting
/// into `fct`. Returns the host ids in topology order — every host, though
/// a shard of a sharded run builds stacks for the hosts it owns only.
pub fn install_stacks(sim: &mut Simulator, cfg: StackConfig, fct: &SharedFct) -> Vec<NodeId> {
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    for &h in &hosts {
        if sim.core().owns_node(h) {
            sim.set_driver(h, Box::new(HostStack::new(h, cfg.clone(), fct.clone())));
        }
    }
    hosts
}

/// Reserve flow-map/queue capacity on `host`'s stack for `n_send` messages
/// it will originate and `n_recv` it will terminate (see
/// [`HostStack::reserve`]). Call before scheduling a pre-counted workload so
/// the measured run performs no flow-table growth.
pub fn reserve_stack(sim: &mut Simulator, host: NodeId, n_send: usize, n_recv: usize) {
    sim.with_driver(host, |d, _ctx| {
        d.as_any_mut()
            .downcast_mut::<HostStack>()
            .expect("driver is not a HostStack")
            .reserve(n_send, n_recv);
    });
}

/// Schedule `msg` to start from `host` at absolute time `at`.
pub fn schedule_message(sim: &mut Simulator, host: NodeId, at: SimTime, msg: Message) {
    sim.with_driver(host, |d, ctx| {
        d.as_any_mut()
            .downcast_mut::<HostStack>()
            .expect("driver is not a HostStack")
            .schedule_message(ctx, at, msg);
    });
}

/// Attach a shared application hook to every host stack (see [`AppHook`]).
pub fn set_app_hook(sim: &mut Simulator, hook: std::rc::Rc<std::cell::RefCell<dyn AppHook>>) {
    let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
    for &h in &hosts {
        sim.with_driver(h, |d, _ctx| {
            d.as_any_mut()
                .downcast_mut::<HostStack>()
                .expect("driver is not a HostStack")
                .set_app_hook(hook.clone());
        });
    }
}

// Send/Sync audit for the parallel run-matrix executor: matrix cells build
// their stacks in-thread, but the configs and result summaries they capture
// and return must cross worker threads.
#[cfg(test)]
mod send_audit {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn matrix_cell_inputs_and_results_cross_threads() {
        assert_send_sync::<StackConfig>();
        assert_send_sync::<DcqcnConfig>();
        assert_send_sync::<CcKind>();
        assert_send_sync::<Message>();
        assert_send_sync::<FlowRecord>();
        assert_send_sync::<FctStats>();
        assert_send_sync::<FctSummary>();
    }
}
