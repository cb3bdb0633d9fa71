//! Golden FCTs for the flow-level backend: a 64-bit digest over
//! `FlowSim::completions()` in order (`flow`, `start`, `end`) for three
//! scenarios, captured on the engine as of PR 11 (epoch-invalidated timers on
//! the packet timing wheel). Any change to the engine's event order — which
//! source fires first at equal times, which flow a rebalance re-keys first —
//! moves an FCT or reorders a completion and fails here. Changes that are
//! *meant* to move FCTs re-capture the constants and say so.

use acc_core::{FluidStaticEcn, StaticEcnPolicy};
use netsim::flowsim::{FlowDone, FlowSim, FlowSimConfig, FlowSpec};
use netsim::prelude::*;
use workloads::{to_flow_specs, XlFlowsSpec};

const INCAST_TIES: u64 = 0x97e9_9d4d_b1d3_2685;
const CACC_HYBRID: u64 = 0x3e78_92e2_4449_1320;

/// FNV-1a over each completion's `(flow, start, end)`, in completion order.
fn digest(done: &[FlowDone]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in done {
        for word in [d.flow.0, d.start.as_ps(), d.end.as_ps()] {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn sim(spec: &TopologySpec) -> FlowSim {
    let mut sim = FlowSim::new(spec.build(), FlowSimConfig::default());
    // Arms the control tick.
    sim.set_tuner(Box::new(FluidStaticEcn::new(StaticEcnPolicy::Secn1)));
    sim
}

/// 96-host `paper_cacc_sim`, WebSearch 0.6 + storage 0.2 for 5 ms, seed 7.
fn cacc_specs() -> (TopologySpec, Vec<FlowSpec>) {
    let spec = TopologySpec::paper_cacc_sim();
    let topo = spec.build();
    let hosts = topo.hosts();
    let arrivals = XlFlowsSpec {
        websearch_load: 0.6,
        storage_load: 0.2,
        duration: SimTime::from_ms(5),
        seed: 7,
    }
    .generate(hosts, topo.host_rate_bps(hosts[0]));
    (spec, to_flow_specs(&arrivals))
}

const CACC_HORIZON: SimTime = SimTime::from_ms(60);

fn run_cacc() -> u64 {
    let (spec, specs) = cacc_specs();
    let mut sim = sim(&spec);
    sim.schedule_flows(&specs);
    sim.run_until(CACC_HORIZON);
    assert_eq!(sim.completions().len(), specs.len(), "every flow finishes");
    digest(sim.completions())
}

/// 16-to-1 synchronized incast of identical 64 KB flows: every arrival, every
/// rate change and every completion ties with fifteen others.
#[test]
fn incast_ties() {
    let spec = TopologySpec::single_switch(17, 25_000_000_000, SimTime::from_ns(500));
    let hosts = spec.build().hosts().to_vec();
    let specs: Vec<FlowSpec> = hosts[1..]
        .iter()
        .map(|&src| FlowSpec {
            src,
            dst: hosts[0],
            bytes: 64 * 1024,
            prio: 1,
            tag: 0,
            start: SimTime::from_us(1),
        })
        .collect();
    let mut sim = sim(&spec);
    sim.schedule_flows(&specs);
    sim.run_until(SimTime::from_ms(10));
    assert_eq!(sim.completions().len(), 16);
    let got = digest(sim.completions());
    assert_eq!(got, INCAST_TIES, "{got:#018x}");
}

#[test]
fn cacc_hybrid() {
    let got = run_cacc();
    assert_eq!(got, CACC_HYBRID, "{got:#018x}");
}

/// The hybrid scenario fed in two halves: the second `schedule_flows` lands
/// after a `run_until` that stopped mid-run, with flows active and the
/// control tick armed. Same flows, same ids — same digest as the one-shot run.
#[test]
fn cacc_hybrid_split() {
    let (spec, specs) = cacc_specs();
    let mid = SimTime::from_us(2500);
    let cut = specs.partition_point(|s| s.start < mid);
    assert!(cut > 0 && cut < specs.len());
    let mut sim = sim(&spec);
    sim.schedule_flows(&specs[..cut]);
    sim.run_until(mid);
    assert!(
        sim.completions().len() < cut,
        "flows still active at the cut"
    );
    sim.schedule_flows(&specs[cut..]);
    sim.run_until(CACC_HORIZON);
    assert_eq!(sim.completions().len(), specs.len());
    let got = digest(sim.completions());
    assert_eq!(got, CACC_HYBRID, "{got:#018x}");
}
