//! # acc-bench — the paper-reproduction harness
//!
//! One module per table/figure of the ACC paper's evaluation. Each module
//! exposes `run(&Harness) -> serde_json::Value`: it prints the same rows/series
//! the paper reports and returns the data (also written to `results/`).
//!
//! ```sh
//! cargo run -p acc-bench --release -- list
//! cargo run -p acc-bench --release -- fig7          # one experiment
//! cargo run -p acc-bench --release -- all --quick   # everything, scaled down
//! ```
//!
//! `--quick` shrinks durations/topologies so the whole suite completes in a
//! few minutes; the default scale matches the experiment index in
//! `DESIGN.md` and is what `EXPERIMENTS.md` records.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod common;
pub mod fault;
pub mod fig01_optimal_ecn;
pub mod fig02_static_secn;
pub mod fig06_heterogeneous;
pub mod fig07_fct_load;
pub mod fig08_fairness;
pub mod fig09_storage;
pub mod fig10_training;
pub mod fig11_cdf;
pub mod fig12_websearch;
pub mod fig13_hetero_workloads;
pub mod fig14_cacc;
pub mod fig15_deepdive;
pub mod fig16_unseen;
pub mod fig17_reward;
pub mod perf;
pub mod profile;
pub mod report;
pub mod resources;
pub mod shard_run;
pub mod soak;

pub use common::{Harness, Scale};

/// The experiment ids that honour `--shards N`: they run through
/// [`Harness::run_to`], which takes them to [`shard_run`] at every shard
/// count. The CLI rejects the flag for any other id instead of running it
/// unsharded without a word.
pub const SHARDED: [&str; 3] = ["fig12", "fig13", "fault"];

/// The experiment ids that build no simulator, so have nothing to record
/// or profile. The CLI rejects `--profile` for them instead of writing an
/// artifact with no runs, which [`profile::validate`] rejects.
pub const NO_SIMULATOR: [&str; 2] = ["fig11", "resources"];

/// One experiment: (id, description, runner).
pub type Experiment = (
    &'static str,
    &'static str,
    fn(&Harness) -> serde_json::Value,
);

/// All experiments in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        (
            "fig1",
            "Optimal static ECN differs per incast workload",
            fig01_optimal_ecn::run,
        ),
        (
            "fig2",
            "Static SECN0/1/2 swap ranking across workloads",
            fig02_static_secn::run,
        ),
        (
            "fig6",
            "Heterogeneous traffic timeline: ACC adapts, static does not",
            fig06_heterogeneous::run,
        ),
        (
            "fig7",
            "End-to-end FCT at 20%/60% load + queue statistics",
            fig07_fct_load::run,
        ),
        (
            "fig8",
            "RDMA/TCP weighted fair sharing (DWRR 70/30)",
            fig08_fairness::run,
        ),
        (
            "fig9",
            "Distributed storage IOPS across Table-1 profiles",
            fig09_storage::run,
        ),
        (
            "fig10",
            "Distributed training speed, PFC pauses and latency",
            fig10_training::run,
        ),
        ("fig11", "Workload flow-size CDFs", fig11_cdf::run),
        (
            "fig12",
            "Large-scale WebSearch FCT vs load (overall/mice/elephants)",
            fig12_websearch::run,
        ),
        (
            "fig13",
            "Temporally & spatially heterogeneous traffic",
            fig13_hetero_workloads::run,
        ),
        (
            "fig14",
            "Centralized (C-ACC) vs distributed (D-ACC) design",
            fig14_cacc::run,
        ),
        (
            "fig15",
            "Deep dive: runtime queue occupancy vs chosen threshold",
            fig15_deepdive::run,
        ),
        (
            "fig16",
            "Stability across unseen traffic patterns while training",
            fig16_unseen::run,
        ),
        (
            "fig17",
            "Reward-design ablation: step vs linear queue penalty",
            fig17_reward::run,
        ),
        (
            "resources",
            "Resource-consumption estimate (§6)",
            resources::run,
        ),
        (
            "ablations",
            "Design-choice sweeps: history k, delta_t, reward weights",
            ablations::run,
        ),
        (
            "fault",
            "Fault injection: raw ACC vs guarded ACC vs SECN1 under link flaps + telemetry faults",
            fault::run,
        ),
    ]
}
