//! # acc-bench — the paper-reproduction harness
//!
//! One module per table/figure of the ACC paper's evaluation. Each module
//! exposes `run(&Harness) -> serde_json::Value`, which returns the rows and
//! series the paper reports, and `show(&Value)`, which prints them as
//! tables. The CLI saves what `run` returns to `results/` and then calls
//! `show`; `acc-bench report results/<id>.json` calls the same `show` on a
//! saved file, so a printed table and a rendered one cannot disagree. The
//! artifact `--profile` writes and the committed
//! `results/quick-digests.json` carry a schema tag and go the same way
//! through [`DOCUMENTS`], with a `check` that `report` re-runs.
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
pub mod digests;
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
pub mod oracle;
pub mod profile;
pub mod report;
pub mod resources;

pub use common::{Harness, Scale};

/// The experiment ids that honour `--shards N`: each of their runs goes
/// through [`Harness::run_to`], which runs it through the shard runner at
/// every shard count once the flag is given (`--shards 1` equals the run
/// without the flag). The others build a
/// [`common::Scenario`] and reach into its simulator (queue probes,
/// application hooks, controller state), which only a whole simulator
/// offers. The CLI rejects the flag for any other id instead of running it
/// unsharded without a word.
pub const SHARDED: [&str; 3] = ["fig12", "fig13", "fault"];

/// The experiment ids that build no simulator, so have nothing to record
/// or profile. The CLI rejects `--metrics-dir` and `--profile` for them
/// instead of recording nothing or writing an artifact with no runs, which
/// [`profile::validate`] rejects.
pub const NO_SIMULATOR: [&str; 2] = ["fig11", "resources"];

/// One experiment of the registry.
pub struct Experiment {
    /// The CLI id, which is also the stem of its results file.
    pub id: &'static str,
    /// What it reproduces; printed in the banner above its tables.
    pub description: &'static str,
    /// Run it and return its result: what `results/[quick/]<id>.json` holds.
    /// A run prints no table and saves nothing; `main` does both.
    pub run: fn(&Harness) -> serde_json::Value,
    /// Print its tables from a result, fresh or loaded from a results file
    /// by `acc-bench report`, through [`common::print_table`].
    pub show: fn(&serde_json::Value),
}

/// `registry! { "id", module, "description"; ... }`: one [`Experiment`] per
/// line, running and showing through `module::run` and `module::show`.
macro_rules! registry {
    ($($id:literal, $module:ident, $description:literal;)*) => {
        [$(Experiment { id: $id, description: $description,
                        run: $module::run, show: $module::show },)*]
    };
}

/// All experiments in paper order.
pub const EXPERIMENTS: [Experiment; 18] = registry! {
    "fig1", fig01_optimal_ecn, "Optimal static ECN differs per incast workload";
    "fig2", fig02_static_secn, "Static SECN0/1/2 swap ranking across workloads";
    "fig6", fig06_heterogeneous, "Heterogeneous traffic timeline: ACC adapts, static does not";
    "fig7", fig07_fct_load, "End-to-end FCT at 20%/60% load + queue statistics";
    "fig8", fig08_fairness, "RDMA/TCP weighted fair sharing (DWRR 70/30)";
    "fig9", fig09_storage, "Distributed storage IOPS across Table-1 profiles";
    "fig10", fig10_training, "Distributed training speed, PFC pauses and latency";
    "fig11", fig11_cdf, "Workload flow-size CDFs";
    "fig12", fig12_websearch, "Large-scale WebSearch FCT vs load (overall/mice/elephants)";
    "fig13", fig13_hetero_workloads, "Temporally & spatially heterogeneous traffic";
    "fig14", fig14_cacc, "Centralized (C-ACC) vs distributed (D-ACC) design";
    "fig15", fig15_deepdive, "Deep dive: runtime queue occupancy vs chosen threshold";
    "fig16", fig16_unseen, "Stability across unseen traffic patterns while training";
    "fig17", fig17_reward, "Reward-design ablation: step vs linear queue penalty";
    "resources", resources, "Resource-consumption estimate (§6)";
    "ablations", ablations, "Design-choice sweeps: history k, delta_t, reward weights";
    "oracle", oracle, "Reward oracle: the agent's reward for every template held static";
    "fault", fault,
        "Fault injection: raw ACC vs guarded ACC vs SECN1 under link flaps + telemetry faults";
};

/// The registry entry whose id is `id`.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// A document that names its kind in a `schema` tag: written by `--profile`
/// or the quick-digest test, and shown and checked by the same two
/// functions after the run and under `acc-bench report <file>`.
pub struct Document {
    /// The `schema` tag.
    pub schema: &'static str,
    /// The command (or test) that writes it; the banner above its tables.
    pub id: &'static str,
    /// What it holds; printed in the banner.
    pub description: &'static str,
    /// Everything wrong with it, by name; empty means it passes.
    pub check: fn(&serde_json::Value) -> Vec<String>,
    /// Print its tables through [`common::print_table`].
    pub show: fn(&serde_json::Value),
}

/// Every tagged document `acc-bench` writes or reads.
pub const DOCUMENTS: [Document; 2] = [
    Document {
        schema: profile::SCHEMA,
        id: "profile",
        description: "self-profile of every run",
        check: profile::validate,
        show: profile::show,
    },
    Document {
        schema: digests::SCHEMA,
        id: "quick-digests",
        description: "the quick-scale record: one digest per experiment result",
        check: digests::check,
        show: digests::show,
    },
];

/// The document whose tag is `schema`.
pub fn document(schema: &str) -> Option<&'static Document> {
    DOCUMENTS.iter().find(|d| d.schema == schema)
}
