//! Fig. 11 — the flow-size distributions driving the large-scale
//! simulations. Prints the CDF series (and summary moments) for the
//! WebSearch-style and DataMining-style workloads.

use crate::common::{self, Harness};
use serde_json::{json, Value};
use workloads::SizeDist;

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    common::banner("fig11", "traffic flow-size distributions");
    let mut out = Vec::new();
    for dist in [SizeDist::web_search(), SizeDist::data_mining()] {
        println!("\n-- {} --", dist.name());
        println!("{:>14} {:>8}", "size(B)", "CDF");
        for &(s, c) in dist.points() {
            println!("{s:>14} {c:>8.3}");
        }
        println!(
            "mean {:.0} B; P(mice <=100KB) = {:.2}",
            dist.mean_bytes(),
            dist.cdf(100_000)
        );
        out.push(json!({
            "name": dist.name(),
            "points": dist.points(),
            "mean_bytes": dist.mean_bytes(),
            "mice_fraction": dist.cdf(100_000),
        }));
    }
    let v = json!({ "distributions": out });
    common::save_results_scaled("fig11", &v, h.scale);
    v
}
