//! `results/quick-digests.json` — the quick-scale record, by digest.
//!
//! One row per run: every experiment of [`EXPERIMENTS`] at `--quick`, then
//! every [`SHARDED`] one at `--quick --shards 2`, each with the FNV-1a
//! digest of the result `Value` its `run` returns (compact JSON, any key
//! naming wall-clock time removed first). `tests/quick_digests.rs` reruns
//! every row at one and at two workers and fails naming each digest that
//! moved; a change that moves one on purpose commits the document that test
//! writes, and regenerates the matching full-scale result or says why not.

use crate::common;
use crate::{Experiment, EXPERIMENTS, SHARDED};
use acc_core::deploy::fnv1a;
use serde_json::{json, Value};

/// Schema tag of the digest document.
pub const SCHEMA: &str = "acc-quick-digests/v1";

/// One row of the document: its label, the experiment and the shard count.
pub struct Run {
    /// `<id>`, or `<id> --shards 2`.
    pub label: String,
    /// The experiment it runs.
    pub experiment: &'static Experiment,
    /// `Some(2)` for the sharded rows.
    pub shards: Option<u32>,
}

/// Every row of the document, in its order.
pub fn runs() -> Vec<Run> {
    let unsharded = EXPERIMENTS.iter().map(|e| Run {
        label: e.id.to_string(),
        experiment: e,
        shards: None,
    });
    let sharded = SHARDED.iter().map(|id| Run {
        label: format!("{id} --shards 2"),
        experiment: crate::experiment(id).expect("SHARDED names registry ids"),
        shards: Some(2),
    });
    unsharded.chain(sharded).collect()
}

/// `v` without the object keys that name a wall-clock quantity (`wall_s`,
/// `wall_time_s`, `steps_per_wall_sec`), at any depth.
fn strip_wall_clock(v: &Value) -> Value {
    match v {
        Value::Object(m) => Value::Object(
            m.iter()
                .filter(|(k, _)| !k.contains("wall"))
                .map(|(k, v)| (k.clone(), strip_wall_clock(v)))
                .collect(),
        ),
        Value::Array(a) => Value::Array(a.iter().map(strip_wall_clock).collect()),
        v => v.clone(),
    }
}

/// The digest of one result, as 16 hex digits.
pub fn digest(result: &Value) -> String {
    let text = serde_json::to_string(&strip_wall_clock(result)).expect("a result serializes");
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// The document of `(label, digest)` rows.
pub fn document(rows: &[(String, String)]) -> Value {
    let rows: Vec<Value> = rows
        .iter()
        .map(|(run, digest)| json!({"run": run, "digest": digest}))
        .collect();
    json!({"schema": SCHEMA, "digests": rows})
}

/// Everything wrong with a digest document: its tag, a row list that is
/// not [`runs`] in order, a digest that is not 16 hex digits.
pub fn check(doc: &Value) -> Vec<String> {
    let mut failed = Vec::new();
    if doc["schema"].as_str() != Some(SCHEMA) {
        failed.push(format!("schema is not {SCHEMA}"));
    }
    let rows = common::rows(doc, "digests");
    let got: Vec<&str> = rows.iter().filter_map(|r| r["run"].as_str()).collect();
    let want: Vec<String> = runs().into_iter().map(|r| r.label).collect();
    if got != want {
        failed.push(format!("runs are {got:?}, not {want:?}"));
    }
    for r in rows {
        let d = r["digest"].as_str().unwrap_or("");
        if d.len() != 16 || !d.bytes().all(|b| b.is_ascii_hexdigit()) {
            failed.push(format!(
                "{}: digest {} is not 16 hex digits",
                r["run"], r["digest"]
            ));
        }
    }
    failed
}

/// Print the document's one table: run and digest.
pub fn show(doc: &Value) {
    println!();
    common::print_table(common::rows(doc, "digests"), &["run", "digest"]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_document_of_every_run_passes_and_a_broken_one_says_why() {
        let rows: Vec<(String, String)> = runs()
            .into_iter()
            .map(|r| (r.label, format!("{:016x}", 7)))
            .collect();
        assert_eq!(check(&document(&rows)), Vec::<String>::new());
        assert_eq!(rows.len(), EXPERIMENTS.len() + SHARDED.len());
        assert_eq!(rows.last().unwrap().0, "fault --shards 2");

        let mut short = rows.clone();
        short.pop();
        assert!(check(&document(&short))[0].starts_with("runs are"));
        let mut bad = rows;
        bad[0].1 = "xyz".into();
        assert_eq!(
            check(&document(&bad)),
            ["\"fig1\": digest \"xyz\" is not 16 hex digits"]
        );
    }

    #[test]
    fn digests_ignore_wall_clock_keys_only() {
        let a = json!({"rows": [{"p99_us": 3.5, "wall_time_s": 1.0}]});
        let b = json!({"rows": [{"p99_us": 3.5, "wall_time_s": 2.0}]});
        let c = json!({"rows": [{"p99_us": 3.6, "wall_time_s": 1.0}]});
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }
}
