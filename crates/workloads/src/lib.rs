//! # workloads — traffic and application models for the ACC evaluation
//!
//! Everything the paper throws at the network, as reusable generators:
//!
//! * [`dists`] — heavy-tailed flow-size distributions approximating the
//!   Web Search (DCTCP) and Data Mining (VL2) workloads of Fig. 11;
//! * [`gen`] — open-loop generators: Poisson arrivals at a target load
//!   (random source/destination pairs) and N-to-1 incast waves, plus the
//!   heterogeneous pattern switching used in Fig. 6/16;
//! * [`storage`] — a closed-loop distributed-storage cluster (FIO-style
//!   profiles of Table 1: OLTP, OLAP, VDI, Exchange, Video, Backup) with
//!   read/write ratios, block-size ranges, IO-depth concurrency and write
//!   replication, measured in IOPS (§5.3.1);
//! * [`training`] — a parameter-server distributed-training cluster
//!   (gradient push / model pull per iteration) measured in iterations/s
//!   (§5.3.2);
//! * [`xl`] — 100–1000×-scale scenarios for the flow-level backend
//!   (`paper_xl_flows`) and the `Arrival` → `FlowSpec` bridge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apptag;
pub mod dists;
pub mod gen;
pub mod storage;
pub mod training;
pub mod xl;

pub use dists::SizeDist;
pub use gen::{apply_arrivals, incast_wave, Arrival, PoissonGen};
pub use storage::{StorageCluster, StorageConfig, StorageProfile};
pub use training::{TrainingCluster, TrainingConfig};
pub use xl::{to_flow_specs, XlFlowsSpec};

// Send/Sync audit for the parallel run-matrix executor: workload specs and
// generated arrival lists are captured by matrix cells and must cross
// worker threads.
#[cfg(test)]
mod send_audit {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn matrix_cell_inputs_cross_threads() {
        assert_send_sync::<SizeDist>();
        assert_send_sync::<Arrival>();
        assert_send_sync::<PoissonGen>();
        assert_send_sync::<StorageConfig>();
        assert_send_sync::<StorageProfile>();
        assert_send_sync::<TrainingConfig>();
    }
}
