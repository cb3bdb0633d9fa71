//! The quick-scale record, by digest. `results/quick-digests.json` holds
//! one digest per experiment's `--quick` result and per sharded
//! experiment's `--quick --shards 2` result ([`digests::runs`]). This test
//! reruns every one in process — at one matrix worker and at two, and the
//! sharded rows on two shards — and fails naming each digest that moved.
//!
//! It runs every experiment twice and the sharded ones a third time, about
//! 6 minutes in release on two cores, so a debug build (the workspace
//! `cargo test` run) skips it and CI runs it in its own step:
//! `cargo test --release -p acc-bench --test quick_digests`.
//! Every run writes the digests it computed at one worker to
//! `target/quick-digests.json` (under this crate): a change that moves a
//! digest on purpose commits that file as `results/quick-digests.json`.

use acc_bench::common::{write_document, Harness, Scale};
use acc_bench::digests::{self, Run};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// The committed document.
fn committed() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/quick-digests.json");
    let text = std::fs::read_to_string(&path).expect("results/quick-digests.json is committed");
    serde_json::from_str(&text).expect("the digest document parses")
}

/// `run`'s result at quick scale on `jobs` matrix workers.
fn result(run: &Run, jobs: usize) -> Value {
    let mut h = Harness::new(Scale::QUICK).with_jobs(jobs);
    if let Some(n) = run.shards {
        h = h.with_shards(n);
    }
    (run.experiment.run)(&h.experiment(run.experiment.id))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "reruns every experiment twice (~6 min in release); run it with --release"
)]
fn quick_results_match_the_committed_digests() {
    let doc = committed();
    assert_eq!(digests::check(&doc), Vec::<String>::new());
    let want = |label: &str| -> String {
        let rows = doc["digests"].as_array().expect("digest rows");
        let row = rows.iter().find(|r| r["run"].as_str() == Some(label));
        row.and_then(|r| r["digest"].as_str())
            .unwrap_or("")
            .to_string()
    };

    let mut fresh = Vec::new();
    let mut moved = Vec::new();
    for jobs in [1, 2] {
        for run in digests::runs() {
            // Two shards already put two threads on each run.
            if run.shards.is_some() && jobs > 1 {
                continue;
            }
            let got = digests::digest(&result(&run, jobs));
            let want = want(&run.label);
            if got != want {
                moved.push(format!("{} at --jobs {jobs}: {want} -> {got}", run.label));
            }
            if jobs == 1 {
                fresh.push((run.label, got));
            }
        }
    }
    let out = Path::new("target/quick-digests.json");
    write_document(out, &digests::document(&fresh)).expect("fresh digests written");
    assert!(
        moved.is_empty(),
        "{} digest(s) moved:\n{}\nthe digests at one worker are in {} (cwd {})",
        moved.len(),
        moved.join("\n"),
        out.display(),
        std::env::current_dir().unwrap().display(),
    );
}
