//! Fig. 11 — the flow-size distributions driving the large-scale
//! simulations. Prints the CDF series (and summary moments) for the
//! WebSearch-style and DataMining-style workloads.

use crate::common::{self, Harness};
use serde_json::{json, Value};
use workloads::SizeDist;

/// Run the experiment.
pub fn run(_: &Harness) -> Value {
    let out: Vec<Value> = [SizeDist::web_search(), SizeDist::data_mining()]
        .iter()
        .map(|dist| {
            json!({
                "name": dist.name(),
                "points": dist.points(),
                "mean_bytes": dist.mean_bytes(),
                "mice_fraction": dist.cdf(100_000),
            })
        })
        .collect();
    json!({ "distributions": out })
}

/// Print each distribution's CDF points, then the mean size and the mice
/// (<= 100 KB) fraction of both.
pub fn show(v: &Value) {
    let dists = common::rows(v, "distributions");
    for d in dists {
        println!(
            "\n-- {} (0: size in bytes, 1: CDF) --",
            common::cell(&d["name"])
        );
        common::print_table(common::rows(d, "points"), &["0", "1"]);
    }
    println!();
    common::print_table(dists, &["name", "mean_bytes", "mice_fraction"]);
}
