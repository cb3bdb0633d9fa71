//! `acc-bench perf --scenario xl-flows` — the flow-level backend's
//! performance + fidelity datapoint (`BENCH_flows.json`, schema
//! [`crate::perf::SCHEMA`] v4).
//!
//! Three parts:
//!
//! 1. **The XL row** — the `paper_xl_flows` workload (WebSearch + storage
//!    message mix over the 1024-host Clos, ≥100× the packet perf suite's
//!    websearch flow count) run through [`netsim::flowsim::FlowSim`] at the
//!    requested fidelity. Same warmup/steady split and allocation columns
//!    as the packet rows, plus `flows_total` / `flows_per_sec` /
//!    `fast_path_flows`.
//! 2. **The accuracy block** — two small scenarios (WebSearch at 0.3 load
//!    and an 8-to-1 incast, both seeded) run through *both* the packet
//!    engine and the flow backend under the same SECN1 policy; the block
//!    records per-scenario FCT p50/p99 relative error and the
//!    events-per-simulated-second cost avoidance. CI gates ≤ 5% error and
//!    ≥ 20× avoidance.
//! 3. **The trend line** — one `acc-trends/v1` JSON line appended to
//!    `artifacts/TRENDS.jsonl` when that directory exists (CI archives the
//!    file), so events/sec, flows/sec and FCT p99 form a trajectory across
//!    runs.

use crate::common::{self, Policy, Scale};
use crate::perf::{alloc_counts, host_cores, queue_microbench, SCHEMA, WARMUP_DENOM};
use netsim::flowsim::{Fidelity, FlowSim, FlowSimConfig};
use netsim::prelude::*;
use serde_json::{json, Value};
use std::io;
use std::path::Path;
use std::time::Instant;
use transport::{CcKind, FctCollector, FctStats};
use workloads::gen::{incast_wave, Arrival, PoissonGen};
use workloads::{to_flow_specs, SizeDist, XlFlowsSpec};

/// Seed shared by the XL workload and the accuracy scenarios.
const SEED: u64 = 7;

/// Build a [`FlowSim`] over `spec`'s fabric at `fidelity` under SECN1,
/// installed through the same policy table as the packet side of the
/// accuracy block. (Flow fidelity runs no control plane and drops the
/// install; SECN1 *is* the DCQCN-paper config the flow backend defaults to,
/// so the two fidelities start from the same thresholds.)
fn flow_sim(spec: &TopologySpec, fidelity: Fidelity, scale: Scale) -> FlowSim {
    let cfg = FlowSimConfig {
        fidelity,
        ..Default::default()
    };
    let mut sim = FlowSim::new(spec.build(), cfg);
    common::install_policy(&mut sim, Policy::Secn1, scale);
    sim
}

/// Run `sim` to `horizon` under the wall clock and the allocation probe,
/// returning the v4 scenario row. Mirrors `perf::measure` (same
/// warmup/steady split, same column names) with the flow-level extras.
fn measure_flow(name: &str, mut sim: FlowSim, horizon: SimTime, flows_total: usize) -> Value {
    let fidelity = sim.fidelity();
    let warmup_until = SimTime::from_ps(horizon.as_ps() / WARMUP_DENOM);
    let warm_before = alloc_counts();
    let warm_start = Instant::now();
    sim.run_until(warmup_until);
    let warmup_wall = warm_start.elapsed().as_secs_f64();
    let warmup_events = sim.stats().events_processed;
    let warmup_allocs = match (warm_before, alloc_counts()) {
        (Some((a0, _)), Some((a1, _))) => Some(a1 - a0),
        _ => None,
    };

    let before = alloc_counts();
    let start = Instant::now();
    sim.run_until(horizon);
    let wall = start.elapsed().as_secs_f64();
    let after = alloc_counts();
    let stats = sim.stats();
    let events = stats.events_processed - warmup_events;
    let eps = events as f64 / wall.max(1e-9);
    let flows_per_sec = stats.flows_completed as f64 / (warmup_wall + wall).max(1e-9);
    let (allocs_per_event, bytes_per_event) = match (before, after) {
        (Some((a0, b0)), Some((a1, b1))) if events > 0 => (
            Some((a1 - a0) as f64 / events as f64),
            Some((b1 - b0) as f64 / events as f64),
        ),
        _ => (None, None),
    };
    // Whole-run counts per scheduled flow: machine-independent, so CI
    // gates on these and not on a rate.
    let per_flow = |n: u64| n as f64 / flows_total.max(1) as f64;
    let fct = fct_of(&sim);
    println!(
        "{:<18} {:>10} events {:>7.2}s wall {:>12.0} ev/s  {:>9.0} flows/s  allocs/ev {}",
        name,
        events,
        wall,
        eps,
        flows_per_sec,
        allocs_per_event
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "n/a".into()),
    );
    json!({
        "name": name,
        "fidelity": fidelity.name(),
        "shards": 1,
        "events_processed": events,
        "wall_s": wall,
        "events_per_sec": eps,
        "warmup_events": warmup_events,
        "warmup_wall_s": warmup_wall,
        "warmup_allocations": warmup_allocs,
        "peak_event_queue": stats.peak_event_queue,
        "sim_time_us": sim.now().as_us_f64(),
        "allocations_per_event": allocs_per_event,
        "alloc_bytes_per_event": bytes_per_event,
        "flows_total": flows_total,
        "flows_started": stats.flows_started,
        "flows_completed": stats.flows_completed,
        "flows_per_sec": flows_per_sec,
        "fast_path_flows": stats.fast_path_flows,
        "events_per_flow": per_flow(stats.events_processed),
        "rate_updates_per_flow": per_flow(stats.rate_updates),
        "rebalance_scans_per_flow": per_flow(stats.rebalance_scans),
        "fct_p50_us": fct.p50_us,
        "fct_p99_us": fct.p99_us,
    })
}

/// Overall FCT statistics of a finished flow-level run.
fn fct_of(sim: &FlowSim) -> FctStats {
    let fct = FctCollector::new_shared();
    fct.borrow_mut().register_flowsim(sim.completions());
    let stats = fct.borrow().stats(|_| true);
    stats
}

/// The XL row: `paper_xl_flows` over the 1024-host Clos.
fn xl_row(scale: Scale, fidelity: Fidelity) -> Value {
    let topo_spec = TopologySpec::paper_xl_clos();
    let topo = topo_spec.build();
    let hosts = topo.hosts().to_vec();
    let host_bps = topo.host_rate_bps(hosts[0]);
    let spec = if scale.quick {
        XlFlowsSpec::quick(SEED)
    } else {
        XlFlowsSpec::full(SEED)
    };
    let arrivals = spec.generate(&hosts, host_bps);
    let flows_total = arrivals.len();
    let flow_specs = to_flow_specs(&arrivals);
    let mut sim = flow_sim(&topo_spec, fidelity, scale);
    sim.schedule_flows(&flow_specs);
    // Generous drain so the elephant tail completes inside the horizon.
    let horizon = spec.duration + scale.pick(SimTime::from_ms(300), SimTime::from_ms(100));
    measure_flow(
        &format!("xl-flows/{}", fidelity.name()),
        sim,
        horizon,
        flows_total,
    )
}

/// One packet-vs-flow accuracy scenario: an arrival list plus the horizon
/// both backends run to (long enough that every flow completes, so the
/// percentiles compare identical flow populations).
struct AccuracyScenario {
    name: &'static str,
    spec: TopologySpec,
    arrivals: Vec<Arrival>,
    horizon: SimTime,
}

/// The two seeded validation scenarios the accuracy gate runs.
fn accuracy_scenarios(scale: Scale) -> Vec<AccuracyScenario> {
    let mut out = Vec::new();
    {
        // WebSearch at 0.3 load through one switch: mostly-uncontended
        // heavy-tailed traffic, the fast-path regime.
        let spec = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500));
        let hosts = spec.build().hosts().to_vec();
        let dur = scale.pick(SimTime::from_ms(10), SimTime::from_ms(3));
        let g = PoissonGen::new(SizeDist::web_search(), 0.3, CcKind::Dcqcn, 11);
        let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, dur);
        out.push(AccuracyScenario {
            name: "websearch-0.3",
            spec,
            arrivals,
            horizon: dur + SimTime::from_ms(60),
        });
    }
    {
        // 8-to-1 incast, three 64 KB partition-aggregate waves: every flow
        // contended at the receiver port, the saturated max-min regime.
        // Waves stay in the 64–100 KB range where packet DCQCN runs the
        // bottleneck at ~full utilisation; multi-MB incasts sit in the
        // post-burst convergence transient the flow model deliberately
        // collapses (a documented divergence, see the flowsim module docs)
        // and are out of the fidelity envelope this gate certifies.
        let spec = TopologySpec::single_switch(9, 25_000_000_000, SimTime::from_ns(500));
        let hosts = spec.build().hosts().to_vec();
        let mut arrivals = Vec::new();
        for w in 0..3u64 {
            arrivals.extend(incast_wave(
                &hosts[..8],
                hosts[8],
                2,
                64_000,
                CcKind::Dcqcn,
                SimTime::from_ms(1).mul(w),
            ));
        }
        out.push(AccuracyScenario {
            name: "incast-8to1",
            spec,
            arrivals,
            horizon: SimTime::from_ms(10),
        });
    }
    out
}

/// Run `sc` through the packet engine under SECN1, returning overall FCT
/// stats plus (events, simulated seconds) for the cost-avoidance ratio.
fn packet_side(sc: &AccuracyScenario, scale: Scale) -> (FctStats, u64, f64) {
    let mut run = common::scenario(&sc.spec, Policy::Secn1, scale, SEED, &sc.arrivals);
    run.sim.run_until(sc.horizon);
    let events = run.sim.core().events_processed;
    let stats = run.fct.borrow().stats(|_| true);
    (stats, events, run.sim.now().as_secs_f64())
}

/// Run `sc` through the flow backend at `fidelity`, same return shape.
fn flow_side(sc: &AccuracyScenario, fidelity: Fidelity, scale: Scale) -> (FctStats, u64, f64) {
    let mut sim = flow_sim(&sc.spec, fidelity, scale);
    sim.schedule_flows(&to_flow_specs(&sc.arrivals));
    sim.run_until(sc.horizon);
    let stats = fct_of(&sim);
    (stats, sim.stats().events_processed, sim.now().as_secs_f64())
}

/// Relative error of `measured` against reference `truth`.
fn rel_err(measured: f64, truth: f64) -> f64 {
    ((measured - truth) / truth.max(1e-9)).abs()
}

/// The packet-vs-flow accuracy block: per-scenario FCT p50/p99 relative
/// error and events-per-simulated-second cost avoidance, plus the maxima
/// CI gates on. Public so the differential accuracy test runs the exact
/// pipeline CI reads.
pub fn accuracy_report(scale: Scale, fidelity: Fidelity) -> Value {
    let mut rows = Vec::new();
    let (mut max_p50, mut max_p99) = (0f64, 0f64);
    let mut min_avoidance = f64::INFINITY;
    for sc in accuracy_scenarios(scale) {
        let (p, p_events, p_sim_s) = packet_side(&sc, scale);
        let (h, h_events, h_sim_s) = flow_side(&sc, fidelity, scale);
        assert_eq!(
            p.count, h.count,
            "{}: both backends must complete every flow inside the horizon",
            sc.name
        );
        let e50 = rel_err(h.p50_us, p.p50_us);
        let e99 = rel_err(h.p99_us, p.p99_us);
        let p_rate = p_events as f64 / p_sim_s.max(1e-12);
        let h_rate = h_events as f64 / h_sim_s.max(1e-12);
        let avoidance = p_rate / h_rate.max(1e-9);
        max_p50 = max_p50.max(e50);
        max_p99 = max_p99.max(e99);
        min_avoidance = min_avoidance.min(avoidance);
        println!(
            "{:<14} p50 {:>8.1} vs {:>8.1} us ({:>5.1}% err)  p99 {:>8.1} vs {:>8.1} us \
             ({:>5.1}% err)  cost avoided {:>6.1}x",
            sc.name,
            h.p50_us,
            p.p50_us,
            e50 * 100.0,
            h.p99_us,
            p.p99_us,
            e99 * 100.0,
            avoidance,
        );
        rows.push(json!({
            "name": sc.name,
            "flows": p.count,
            "packet": {
                "p50_us": p.p50_us, "p99_us": p.p99_us,
                "events": p_events, "events_per_sim_sec": p_rate,
            },
            "flow_backend": {
                "fidelity": fidelity.name(),
                "p50_us": h.p50_us, "p99_us": h.p99_us,
                "events": h_events, "events_per_sim_sec": h_rate,
            },
            "p50_rel_err": e50,
            "p99_rel_err": e99,
            "cost_avoidance": avoidance,
        }));
    }
    json!({
        "scenarios": rows,
        "max_p50_rel_err": max_p50,
        "max_p99_rel_err": max_p99,
        "cost_avoidance": min_avoidance,
    })
}

/// Run the xl-flows perf family at `fidelity` and write the v4 document to
/// `out`. Returns the document (shared with the smoke test).
pub fn run(scale: Scale, fidelity: Fidelity, out: &Path) -> io::Result<Value> {
    common::banner(
        "perf",
        &format!("flow-level backend ({} fidelity)", fidelity.name()),
    );
    let micro = queue_microbench(scale);
    let scenarios = vec![xl_row(scale, fidelity)];
    let accuracy = accuracy_report(scale, fidelity);
    let doc = json!({
        "schema": SCHEMA,
        "scale": if scale.quick { "quick" } else { "full" },
        "fidelity": fidelity.name(),
        "alloc_probe": alloc_counts().is_some(),
        "host_cores": host_cores(),
        "queue_microbench": micro,
        "scenarios": scenarios,
        "accuracy": accuracy,
    });
    let text = serde_json::to_string_pretty(&doc)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(out, text)?;
    println!("wrote {}", out.display());
    match crate::trends::append_trend(Path::new(crate::trends::TRENDS_PATH), &doc) {
        Ok(true) => println!("appended trend line to {}", crate::trends::TRENDS_PATH),
        Ok(false) => {}
        Err(e) => eprintln!("could not append {}: {e}", crate::trends::TRENDS_PATH),
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_is_symmetric_around_truth() {
        assert!(rel_err(105.0, 100.0) - 0.05 < 1e-12);
        assert!(rel_err(95.0, 100.0) - 0.05 < 1e-12);
        assert_eq!(rel_err(100.0, 100.0), 0.0);
    }

    /// A scaled-down XL run (same generator, tiny window) must complete
    /// every scheduled flow and produce a schema-valid row.
    #[test]
    fn mini_xl_row_is_schema_valid() {
        let topo_spec = TopologySpec::paper_xl_clos();
        let topo = topo_spec.build();
        let hosts = topo.hosts().to_vec();
        let host_bps = topo.host_rate_bps(hosts[0]);
        let spec = XlFlowsSpec {
            websearch_load: 0.3,
            storage_load: 0.1,
            duration: SimTime::from_us(200),
            seed: SEED,
        };
        let arrivals = spec.generate(&hosts, host_bps);
        assert!(!arrivals.is_empty());
        let mut sim = flow_sim(&topo_spec, Fidelity::Hybrid, Scale::QUICK);
        sim.schedule_flows(&to_flow_specs(&arrivals));
        let row = measure_flow("xl-flows/hybrid", sim, SimTime::from_ms(60), arrivals.len());
        assert_eq!(row["fidelity"].as_str(), Some("hybrid"));
        assert!(row["events_processed"].as_u64().unwrap() > 0);
        assert!(row["flows_per_sec"].as_f64().unwrap() > 0.0);
        assert_eq!(
            row["flows_completed"].as_u64().unwrap(),
            arrivals.len() as u64,
            "every mini-XL flow completes inside the horizon"
        );
    }
}
