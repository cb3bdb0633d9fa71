//! §6 — resource-consumption estimate: model memory, FLOPs per inference,
//! per-switch compute load and telemetry bandwidth for a 48-port switch with
//! a 500 µs sampling interval, as the paper tallies them.

use crate::common::{self, Harness};
use acc_core::ActionSpace;
use rl::Mlp;
use serde_json::{json, Value};

/// Run the estimate.
pub fn run(_: &Harness) -> Value {
    // The paper's network: ~4 layers around {20,40,40,20}. Ours: 12 inputs,
    // two hidden layers of 40, |templates| = 20 outputs.
    let space = ActionSpace::templates();
    let model = Mlp::new(&[12, 40, 40, space.len()], 1);
    let params = model.param_count();
    let model_bytes = params * 4;
    let flops = model.flops_per_inference();

    let ports = 48u64;
    let queues_per_port = 1u64; // one RDMA queue per port
    let interval_s = 500e-6;
    let inferences_per_s = (ports * queues_per_port) as f64 / interval_s;
    let flops_per_s = inferences_per_s * flops as f64;

    // Telemetry: 4 features x 4 bytes per queue per interval.
    let telemetry_bps = (ports * queues_per_port * 16) as f64 / interval_s * 8.0;

    // Centralized-design overhead, for contrast (§3.2): 1K switches x 48
    // ports x 2 queues, 4 features + UDP overhead every 100 us.
    let central_bytes = 1000u64 * 48 * 2 * (16 + 46);
    let central_bps = central_bytes as f64 / 100e-6 * 8.0;

    json!({
        "model_params": params,
        "model_bytes": model_bytes,
        "flops_per_inference": flops,
        "inference_gflops": flops_per_s / 1e9,
        "telemetry_mbps": telemetry_bps / 1e6,
        "centralized_collection_gbps": central_bps / 1e9,
    })
}

/// Print each estimate next to the figure the paper gives for it (≈30 KB
/// of model, ≈1 GFLOP/s of inference at 48 ports / 500 µs, ≈2 MB/s of
/// telemetry, 476 Gbit/s of centralized collection; `-` where it gives
/// none).
pub fn show(v: &Value) {
    let paper = json!({
        "model_bytes": 30 * 1024,
        "inference_gflops": 1.0,
        "telemetry_mbps": 16.0,
        "centralized_collection_gbps": 476.0,
    });
    let rows: Vec<Value> = [
        "model_params",
        "model_bytes",
        "flops_per_inference",
        "inference_gflops",
        "telemetry_mbps",
        "centralized_collection_gbps",
    ]
    .iter()
    .map(|&k| json!({ "estimate": k, "ours": v[k], "paper": paper[k] }))
    .collect();
    common::print_table(&rows, &["estimate", "ours", "paper"]);
}
