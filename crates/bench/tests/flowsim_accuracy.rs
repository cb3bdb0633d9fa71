//! Differential accuracy gate for the flow-level backend: the hybrid
//! fidelity must reproduce the packet engine's FCT p50/p99 within 5%
//! relative error on the two seeded validation scenarios (WebSearch at 0.3
//! load and an 8-to-1 incast), while avoiding ≥ 20× the packet engine's
//! events per simulated second. These are the `accuracy` rows and gates of
//! `acc-bench perf`; the test runs them alone so a fidelity regression
//! fails `cargo test` in seconds.

use acc_bench::{perf, Harness, Scale};
use serde_json::json;

#[test]
fn hybrid_tracks_packet_fct_within_5_percent() {
    let rows = perf::accuracy_rows(&Harness::new(Scale::QUICK));
    assert_eq!(rows.len(), 3, "websearch-0.3, incast-8to1 and their worst");
    let doc = json!({ "rows": rows });
    assert_eq!(perf::check_rows(&doc, "accuracy"), Vec::<String>::new());
}
