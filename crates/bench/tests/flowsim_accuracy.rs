//! Differential accuracy gate for the flow-level backend: the hybrid
//! fidelity must reproduce the packet engine's FCT p50/p99 within 5%
//! relative error on the two seeded validation scenarios (WebSearch at 0.3
//! load and an 8-to-1 incast), while avoiding ≥ 20× the packet engine's
//! events per simulated second. This is the quick-scale document of
//! `acc-bench perf`, checked by the same `perf::check` the CLI exits on, so
//! a fidelity regression fails `cargo test` in seconds.

use acc_bench::{perf, Harness, Scale};

#[test]
fn hybrid_tracks_packet_fct_within_5_percent() {
    let doc = perf::run(&Harness::new(Scale::QUICK));
    let rows = doc["rows"].as_array().expect("rows");
    assert_eq!(rows.len(), 3, "websearch-0.3, incast-8to1 and their worst");
    assert_eq!(perf::check(&doc), Vec::<String>::new());
}
