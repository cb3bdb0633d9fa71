//! §6 — resource-consumption estimate: model memory, FLOPs per inference,
//! per-switch compute load and telemetry bandwidth for a 48-port switch with
//! a 500 µs sampling interval, as the paper tallies them.

use crate::common::{self, Harness};
use acc_core::ActionSpace;
use rl::Mlp;
use serde_json::{json, Value};

/// Run the estimate.
pub fn run(h: &Harness) -> Value {
    common::banner("resources", "per-switch cost of running ACC (§6)");
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

    println!("model parameters:        {params}");
    println!(
        "model memory:            {:.1} KB (paper: ~30 KB)",
        model_bytes as f64 / 1024.0
    );
    println!("FLOPs per inference:     {flops}");
    println!(
        "inference load (48p/500us): {:.2} GFLOP/s (paper: ~1 GFLOP/s)",
        flops_per_s / 1e9
    );
    println!(
        "telemetry bandwidth:     {:.2} Mbit/s over PCIe (paper: ~2 MB/s)",
        telemetry_bps / 1e6
    );

    // Centralized-design overhead, for contrast (§3.2): 1K switches x 48
    // ports x 2 queues, 4 features + UDP overhead every 100 us.
    let central_bytes = 1000u64 * 48 * 2 * (16 + 46);
    let central_bps = central_bytes as f64 / 100e-6 * 8.0;
    println!(
        "centralized collection:  {:.0} Gbit/s fabric overhead (paper: 476 Gbps)",
        central_bps / 1e9
    );

    let v = json!({
        "model_params": params,
        "model_bytes": model_bytes,
        "flops_per_inference": flops,
        "inference_gflops": flops_per_s / 1e9,
        "telemetry_mbps": telemetry_bps / 1e6,
        "centralized_collection_gbps": central_bps / 1e9,
    });
    common::save_results_scaled("resources", &v, h.scale);
    v
}
