//! Names: the five workloads and every metric, with unit, direction and (for
//! end-to-end metrics) the regression bound. `BENCHMARK.json` at the root of
//! the repository lists exactly these; a test keeps the two in step.
#![forbid(unsafe_code)]

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WebsearchPacket,
    AccOnlineIncast,
    FaultGuardedRecorded,
    XlClosSharded,
    XlFlowsHybrid,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WebsearchPacket,
        Workload::AccOnlineIncast,
        Workload::FaultGuardedRecorded,
        Workload::XlClosSharded,
        Workload::XlFlowsHybrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WebsearchPacket => "websearch-packet",
            Workload::AccOnlineIncast => "acc-online-incast",
            Workload::FaultGuardedRecorded => "fault-guarded-recorded",
            Workload::XlClosSharded => "xl-clos-sharded",
            Workload::XlFlowsHybrid => "xl-flows-hybrid",
        }
    }

    /// Why the workload is in the benchmark (one line, copied into
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WebsearchPacket => {
                "288-host WebSearch under static ECN: event queue, switch datapath, ECMP and \
                 transport do all the work; control plane, shards, flowsim and telemetry none"
            }
            Workload::AccOnlineIncast => {
                "24-host WebSearch plus 8-to-1 incast waves under fresh online ACC: the DDQN \
                 control loop is a large share of the run; few ports, deep queues, ECN/PFC pressure"
            }
            Workload::FaultGuardedRecorded => {
                "guarded ACC under a fault plan with the JSONL recorder on: guard, fault slow \
                 paths and the telemetry write path exist only here"
            }
            Workload::XlClosSharded => {
                "1024-host Clos on the sharded engine: per-shard set-up, mailboxes, the barrier \
                 and memory matter only here"
            }
            Workload::XlFlowsHybrid => {
                "flow-level hybrid backend on the 1024-host Clos: bypasses the packet datapath \
                 and transport; all cost is rebalance and timer churn"
            }
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; zero
    /// for per-layer metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the simulator sees: how long a run takes and how much
/// memory (host time, in reference-host seconds — see `refkernel`), and what
/// the modelled fabric delivered (simulated time; exact for a fixed seed).
/// Every workload reports every one, and none is ever 0.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("sim_us_per_wall_s", "us/s", Higher, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.15),
    e2e("goodput_gbps", "Gbit/s", Higher, 0.18),
    e2e("flow_goodput_gbps", "Gbit/s", Higher, 0.25),
    e2e("flows_finished_frac", "ratio", Higher, 0.06),
];

/// Single-layer metrics, prefix = module. No bound: they explain a change in
/// an end-to-end metric, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    // Harness spans around public calls (traced trial).
    layer("workloads.generate_s", "s", Lower),
    layer("netsim.topology_build_s", "s", Lower),
    layer("netsim.sim_new_s", "s", Lower),
    layer("transport.install_s", "s", Lower),
    layer("acc-core.install_s", "s", Lower),
    layer("workloads.apply_s", "s", Lower),
    layer("netsim.run_s", "s", Lower),
    layer("transport.collect_s", "s", Lower),
    layer("telemetry.flush_s", "s", Lower),
    layer("harness.trace_overhead_frac", "ratio", Lower),
    layer("harness.host_speed_factor", "ratio", Lower),
    // Boundary shims (traced trial).
    layer("transport.busy_s", "s", Lower),
    layer("transport.calls", "count", Lower),
    layer("transport.ns_per_call", "ns", Lower),
    layer("acc-core.tick_busy_s", "s", Lower),
    layer("acc-core.ticks", "count", Lower),
    layer("acc-core.us_per_tick", "us", Lower),
    layer("telemetry.sink_busy_s", "s", Lower),
    layer("telemetry.samples", "count", Lower),
    layer("telemetry.bytes_written", "count", Lower),
    layer("netsim.core_self_s", "s", Lower),
    layer("netsim.core_ns_per_event", "ns", Lower),
    // Counts read through public getters after the run.
    layer("sim.events", "count", Lower),
    layer("sim.events_per_sec", "1/s", Higher),
    layer("sim.events_per_flow", "count", Lower),
    layer("sim.peak_event_queue", "count", Lower),
    layer("sim.allocs_per_event", "count", Lower),
    layer("sim.alloc_bytes_per_event", "count", Lower),
    layer("event.wheel_push_frac", "ratio", Higher),
    layer("event.overflow_migrations_per_event", "count", Lower),
    layer("queues.ecn_marked_frac", "ratio", Lower),
    layer("queues.drops", "count", Lower),
    layer("queues.pfc_pauses", "count", Lower),
    layer("queues.max_qlen_kb", "KB", Lower),
    layer("fault.executed", "count", Lower),
    layer("fault.drops", "count", Lower),
    layer("acc-core.guard_trips", "count", Lower),
    layer("acc-core.guard_clamps", "count", Lower),
    layer("rl.train_steps", "count", Lower),
    // netsim::shard (xl-clos-sharded).
    layer("shard.build_s_max", "s", Lower),
    layer("shard.stalls_per_event", "count", Lower),
    layer("shard.remote_per_event", "count", Lower),
    layer("shard.event_imbalance", "ratio", Lower),
    layer("shard.speedup_vs_1", "ratio", Higher),
    layer("shard.extra_events_vs_1", "count", Lower),
    // netsim::flowsim (xl-flows-hybrid).
    layer("flowsim.events_per_flow", "count", Lower),
    layer("flowsim.stale_event_frac", "ratio", Lower),
    layer("flowsim.peak_queue_per_flow", "count", Lower),
    layer("flowsim.fast_path_frac", "ratio", Higher),
    layer("flowsim.peak_active_flows", "count", Lower),
    layer("flowsim.fct_p50_rel_err", "ratio", Lower),
    layer("flowsim.fct_p99_rel_err", "ratio", Lower),
    // Simulated results that repeat exactly for a fixed seed but move too
    // much from seed to seed to carry a bound (README, "What is bounded").
    layer("sim.flows_per_wall_s", "1/s", Higher),
    layer("sim.fct_slowdown_geomean", "ratio", Lower),
    layer("sim.fct_p50_us", "us", Lower),
    layer("sim.fct_p99_us", "us", Lower),
    layer("sim.fct_tail_percentile", "%", Higher),
    layer("sim.mice_fct_p99_us", "us", Lower),
    layer("sim.mice_fct_tail_percentile", "%", Higher),
    layer("sim.flows_offered", "count", Higher),
    layer("sim.flows_unfinished", "count", Lower),
    layer("sim.last_finish_us", "us", Lower),
    // Layer kit: op streams shaped like the workload, median of 5.
    layer("event.hold_ns_per_op", "ns", Lower),
    layer("queues.enq_deq_ns_per_pkt", "ns", Lower),
    layer("routing.next_hop_ns", "ns", Lower),
    layer("routing.rebuild_us", "us", Lower),
    layer("transport.dcqcn_update_ns", "ns", Lower),
    layer("rl.train_step_us", "us", Lower),
    layer("rl.select_batch_us", "us", Lower),
    layer("telemetry.record_queue_ns", "ns", Lower),
    layer("workloads.generate_flows_per_s", "1/s", Higher),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{} bound", d.name);
        }
        // Set-up time is mandatory, in seconds, lower is better, and has
        // the largest bound.
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// The root `BENCHMARK.json` is `acc-benchmark manifest`, verbatim.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let on_disk: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let expected =
            crate::report::benchmark_json(crate::COMMAND, crate::PATHS, crate::RUN_SECONDS);
        assert_eq!(on_disk, expected);
        assert!((1..=60).contains(&crate::RUN_SECONDS));
        assert!(crate::COMMAND.len() <= 32);
    }
}
