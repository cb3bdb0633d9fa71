//! The websearch-load scenario: WebSearch at load 0.8 on the fig12 fabric
//! under SECN1, the mix the figure sweeps run all day. `engine_counts`
//! counts its steady-state allocations and `obs_smoke` the profiler's clock
//! reads per event on it. Test crates include it by `#[path]`, so it brings
//! no allocator with it: `engine_counts` installs its own process-wide one.

use acc_bench::common::{Harness, Policy, Scenario};
use netsim::prelude::*;
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

/// Build the scenario on `h` and return it with its run horizon.
pub fn websearch_load(h: &Harness) -> (Scenario, SimTime) {
    let scale = h.scale;
    let spec = if scale.quick {
        TopologySpec::paper_cacc_sim()
    } else {
        TopologySpec::paper_large_sim()
    };
    let hosts: Vec<NodeId> = spec.build().hosts().to_vec();
    let dur = scale.pick(SimTime::from_ms(10), SimTime::from_ms(3));
    let g = PoissonGen::new(SizeDist::web_search(), 0.8, CcKind::Dcqcn, 41);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
    let sc = h.scenario(&spec, Policy::Secn1, 9, &arrivals);
    let horizon = dur + scale.pick(SimTime::from_ms(8), SimTime::from_ms(3));
    (sc, horizon)
}
