//! `fault` — fault injection + safe-mode guardrails under stress.
//!
//! Runs the testbed Clos under WebSearch traffic while a seeded
//! [`FaultPlan`] abuses the fabric: the busiest leaf's spine uplink flaps
//! twice, that leaf's telemetry registers freeze (the agent keeps reading a
//! stale snapshot), a spine port silently drops 2% of packets, a second
//! leaf's uplink degrades to 10 Gbps and then its telemetry blanks to
//! zeros, and finally a spine reboots (queues flushed, ECN reset to the
//! static default).
//!
//! Three policies face the identical schedule:
//!
//! * **ACC-monitored** — a fresh ACC agent with guardrails in monitor-only
//!   mode: every config the agent leaves live is vetted and violations are
//!   *counted*, but nothing is clamped. This is "raw ACC" with a violation
//!   meter attached (the wrapper never touches the trajectory).
//! * **ACC-guarded** — the same agent with enforcement on: configs are
//!   clamped/vetted and unhealthy telemetry trips a static-SECN fallback
//!   with hysteresis. By construction it must finish with zero violations
//!   live in the fabric.
//! * **SECN1** — the static baseline, immune to agent pathologies.
//!
//! With `--metrics-dir` armed, every injected fault and every guardrail
//! violation/trip/recovery lands in `events.jsonl`; identical seeds and
//! identical plans produce byte-identical JSONL (checked by the
//! `fault_smoke` integration test and the CI fault-smoke job).

use crate::common::{self, Harness, MatrixCell, Policy};
use acc_core::guard::GuardStats;
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use serde_json::{json, Value};
use transport::CcKind;
use workloads::gen::PoissonGen;
use workloads::SizeDist;

/// The seed shared by the traffic, the engine and the fault plan.
pub const FAULT_SEED: u64 = 21;

/// The seeded fault schedule, with every time expressed as a fraction of
/// `horizon` so quick and full scale exercise the same shape.
pub fn fault_plan(topo: &Topology, horizon: SimTime, seed: u64) -> FaultPlan {
    let f = |x: f64| SimTime::from_ps((horizon.as_ps() as f64 * x) as u64);
    let switches = topo.switches();
    let leaf0 = switches[0];
    let leaf1 = switches[1];
    let spine0 = switches[4];
    let last_spine = *switches.last().expect("testbed has spines");
    FaultPlan::new(seed)
        // leaf0's first spine uplink flaps twice (in-flight drops, PFC
        // state cleared, routes recomputed each way).
        .link_flap(leaf0, PortId(6), f(0.15), f(0.30))
        .link_flap(leaf0, PortId(6), f(0.35), f(0.45))
        // ... and while it recovers, leaf0's telemetry registers freeze:
        // agents keep reading the same stale snapshot.
        .telemetry_freeze(leaf0, f(0.40), f(0.60))
        // A spine port silently blackholes 2% of arrivals.
        .loss_window(spine0, PortId(0), 0.02, f(0.50), f(0.70))
        // leaf1's uplink drops to 10G, then its telemetry blanks to zeros.
        .degrade_window(leaf1, PortId(6), 10_000_000_000, f(0.55), f(0.75))
        .telemetry_blank(leaf1, f(0.70), f(0.85))
        // Finally a spine reboots outright.
        .at(f(0.80), FaultKind::SwitchReboot { node: last_spine })
}

/// What one policy arm of the experiment produced.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// Policy display name.
    pub policy: &'static str,
    /// Guard counters summed over all switches (None for static arms).
    pub guard: Option<GuardStats>,
    /// ECN configs on tuned queues that are invalid at end of run.
    pub invalid_final_configs: usize,
    /// Packets lost to injected faults (downed links, loss, reboot flush).
    pub fault_drops: u64,
    /// Fault events the plan scheduled.
    pub faults_injected: usize,
    /// Average FCT over the whole run, microseconds.
    pub avg_fct_us: f64,
    /// Flows completed / started.
    pub completed: usize,
    /// Total flows offered.
    pub total: usize,
}

impl FaultOutcome {
    /// Config violations that were live in the fabric (0 for static arms).
    pub fn violations_applied(&self) -> u64 {
        self.guard.map(|g| g.violations_applied).unwrap_or(0)
    }

    /// True when every tuned queue ends the run with a sane ECN config.
    pub fn final_configs_valid(&self) -> bool {
        self.invalid_final_configs == 0
    }
}

/// Count tuned queues whose final ECN config violates the basic safety
/// invariants (`0 < Kmin <= Kmax`, `0 < Pmax <= 1`, finite). Shared with
/// the soak harness, whose SLO report gates on this being zero. In a
/// sharded simulator only owned switches are counted (each shard carries
/// the full topology; summing gated counts visits every switch once).
pub(crate) fn invalid_final_configs(sim: &Simulator) -> usize {
    let mut bad = 0;
    for &sw in sim.core().topo.switches() {
        if !sim.core().owns_node(sw) {
            continue;
        }
        let n_ports = sim.core().topo.node(sw).ports.len();
        for p in 0..n_ports {
            match sim.core().queue(sw, PortId(p as u16), PRIO_RDMA).ecn {
                Some(e) => {
                    let ok = e.kmin_bytes > 0
                        && e.kmin_bytes <= e.kmax_bytes
                        && e.pmax.is_finite()
                        && e.pmax > 0.0
                        && e.pmax <= 1.0;
                    if !ok {
                        bad += 1;
                    }
                }
                None => bad += 1,
            }
        }
    }
    bad
}

/// Run one policy arm under the seeded fault schedule. Public so the
/// `fault_smoke` integration test can drive individual arms with the flight
/// recorder armed.
pub fn run_policy(h: &Harness, policy: Policy, seed: u64) -> FaultOutcome {
    let scale = h.scale;
    let spec = TopologySpec::paper_testbed();
    let topo = spec.build();
    let hosts: Vec<NodeId> = topo.hosts().to_vec();
    let horizon = scale.pick(SimTime::from_ms(60), SimTime::from_ms(20));
    let g = PoissonGen::new(SizeDist::web_search(), 0.5, CcKind::Dcqcn, 300);
    let arrivals = g.generate(&hosts, 25_000_000_000, SimTime::ZERO, horizon);
    let plan = fault_plan(&topo, horizon, seed);
    let out = h.run_to(
        &spec,
        policy,
        seed,
        &arrivals,
        Some(&plan),
        horizon + scale.pick(SimTime::from_ms(10), SimTime::from_ms(5)),
    );
    let summary = out.fct.summary();
    FaultOutcome {
        policy: policy.name(),
        guard: out.guard,
        invalid_final_configs: out.invalid_final_configs,
        fault_drops: out.fault_drops,
        faults_injected: plan.len(),
        avg_fct_us: out.fct.stats(|_| true).avg_us,
        completed: summary.completed,
        total: summary.total,
    }
}

/// The three policy arms in report order.
pub const ARMS: [Policy; 3] = [Policy::AccMonitored, Policy::AccGuarded, Policy::Secn1];

/// Run all three arms of the fault experiment as matrix cells (each arm is
/// an independent simulation over the identical seeded plan), returning the
/// outcomes in [`ARMS`] order. Public so the `fault_smoke` integration test
/// can compare serial and parallel executions of the same matrix.
pub fn run_arms(h: &Harness) -> Vec<FaultOutcome> {
    let cells = ARMS
        .iter()
        .map(|&policy| {
            MatrixCell::new(format!("fault {}", policy.name()), move |h| {
                run_policy(h, policy, FAULT_SEED)
            })
        })
        .collect();
    h.run_matrix(cells)
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    common::banner(
        "fault",
        "link flaps + telemetry faults + reboot: raw ACC vs guarded ACC vs SECN1",
    );
    println!(
        "schedule: leaf0 uplink flaps @15-30%/35-45%, leaf0 telemetry frozen @40-60%,\n\
         spine loss 2% @50-70%, leaf1 uplink 10G @55-75%, leaf1 telemetry blank @70-85%,\n\
         spine reboot @80% of horizon\n"
    );
    let outcomes = run_arms(h);
    println!(
        "{:<14} {:>9} {:>9} {:>7} {:>6} {:>6} {:>10} {:>7} {:>10} {:>11}",
        "policy",
        "detected",
        "applied",
        "clamps",
        "trips",
        "recov",
        "bad-final",
        "drops",
        "avg-fct",
        "flows"
    );
    let mut rows = Vec::new();
    for o in &outcomes {
        let g = o.guard.unwrap_or_default();
        println!(
            "{:<14} {:>9} {:>9} {:>7} {:>6} {:>6} {:>10} {:>7} {:>9.1} {:>6}/{}",
            o.policy,
            g.violations_detected,
            g.violations_applied,
            g.clamps,
            g.trips,
            g.recoveries,
            o.invalid_final_configs,
            o.fault_drops,
            o.avg_fct_us,
            o.completed,
            o.total,
        );
        rows.push(json!({
            "policy": o.policy,
            "violations_detected": g.violations_detected,
            "violations_applied": g.violations_applied,
            "clamps": g.clamps,
            "trips": g.trips,
            "recoveries": g.recoveries,
            "fallback_ticks": g.fallback_ticks,
            "invalid_final_configs": o.invalid_final_configs,
            "fault_drops": o.fault_drops,
            "faults_injected": o.faults_injected,
            "avg_fct_us": o.avg_fct_us,
            "flows_completed": o.completed,
            "flows_total": o.total,
        }));
    }

    let raw = &outcomes[0];
    let guarded = &outcomes[1];
    println!(
        "\nguarded ACC: {} violations live in fabric (raw ACC ran with {}), \
         final configs {}",
        guarded.violations_applied(),
        raw.violations_applied(),
        if guarded.final_configs_valid() {
            "all valid"
        } else {
            "INVALID"
        },
    );
    if guarded.violations_applied() >= raw.violations_applied() {
        println!("WARNING: guardrails did not reduce live violations — investigate");
    }

    let v = json!({ "seed": FAULT_SEED, "rows": rows });
    common::save_results_scaled("fault", &v, h.scale);
    v
}
