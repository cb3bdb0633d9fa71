//! XL-scale workload generation for the flow-level backend: the
//! `paper_xl_flows` scenario (websearch + storage-message mix over the
//! 1024-host Clos) at 100–1000× the flow counts the packet engine can
//! afford, plus the `Arrival` → [`FlowSpec`] bridge that lets any existing
//! generator drive `netsim::flowsim::FlowSim`.

use crate::dists::SizeDist;
use crate::gen::{Arrival, PoissonGen};
use netsim::flowsim::FlowSpec;
use netsim::prelude::*;
use transport::CcKind;

/// Convert scheduled packet-engine arrivals into flow-level specs, keeping
/// arrival order (and therefore flow-id assignment) identical.
pub fn to_flow_specs(arrivals: &[Arrival]) -> Vec<FlowSpec> {
    arrivals
        .iter()
        .map(|a| FlowSpec {
            src: a.src,
            dst: a.msg.dst,
            bytes: a.msg.bytes,
            prio: a.msg.cc.prio(),
            tag: a.msg.tag,
            start: a.at,
        })
        .collect()
}

/// Parameters of the `paper_xl_flows` scenario.
#[derive(Clone, Copy, Debug)]
pub struct XlFlowsSpec {
    /// Websearch (DCTCP-paper distribution) offered load as a fraction of
    /// host line rate.
    pub websearch_load: f64,
    /// Storage message-mix offered load overlaid on the same hosts.
    pub storage_load: f64,
    /// Arrival-generation window; flows arriving inside it may finish
    /// after it (run the sim with a longer horizon).
    pub duration: SimTime,
    /// RNG seed for both generators (storage uses `seed + 1`).
    pub seed: u64,
}

impl XlFlowsSpec {
    /// The full-size scenario: ~0.5M flows over 100 ms on 1024 hosts.
    pub fn full(seed: u64) -> XlFlowsSpec {
        XlFlowsSpec {
            websearch_load: 0.6,
            storage_load: 0.2,
            duration: SimTime::from_ms(100),
            seed,
        }
    }

    /// CI-sized variant (~50k flows over 25 ms) — still ≥ 100× the packet
    /// engine's `websearch-load` count row.
    pub fn quick(seed: u64) -> XlFlowsSpec {
        XlFlowsSpec {
            websearch_load: 0.6,
            storage_load: 0.2,
            duration: SimTime::from_ms(25),
            seed,
        }
    }

    /// Generate the arrival list over `hosts` at `host_bps`: a websearch
    /// Poisson process plus a storage message-mix overlay, merged in time
    /// order (stable on ties, so the mix is deterministic).
    pub fn generate(&self, hosts: &[NodeId], host_bps: u64) -> Vec<Arrival> {
        let ws = PoissonGen::new(
            SizeDist::web_search(),
            self.websearch_load,
            CcKind::Dcqcn,
            self.seed,
        )
        .generate(hosts, host_bps, SimTime::ZERO, self.duration);
        let st = PoissonGen::new(
            SizeDist::message_mix(),
            self.storage_load,
            CcKind::Dcqcn,
            self.seed + 1,
        )
        .generate(hosts, host_bps, SimTime::ZERO, self.duration);
        let mut all = ws;
        all.extend(st);
        all.sort_by_key(|a| a.at);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_is_xl() {
        let topo = TopologySpec::paper_xl_clos().build();
        let spec = XlFlowsSpec::quick(7);
        let arrivals = spec.generate(topo.hosts(), topo.host_rate_bps(topo.hosts()[0]));
        // ≥ 100× the packet engine's `websearch-load` count row (~360 flows).
        assert!(
            arrivals.len() >= 36_000,
            "xl-flows quick must be ≥100× the packet websearch row, got {}",
            arrivals.len()
        );
        // Deterministic: same seed, same list.
        let again = spec.generate(topo.hosts(), topo.host_rate_bps(topo.hosts()[0]));
        assert_eq!(arrivals.len(), again.len());
        assert!(arrivals
            .iter()
            .zip(&again)
            .all(|(a, b)| a.at == b.at && a.src == b.src && a.msg.bytes == b.msg.bytes));
    }

    #[test]
    fn flow_spec_bridge_preserves_order_and_fields() {
        let topo = TopologySpec::single_switch(4, 25_000_000_000, SimTime::from_ns(500)).build();
        let gen = PoissonGen::new(SizeDist::web_search(), 0.3, CcKind::Dcqcn, 3);
        let arrivals = gen.generate(
            topo.hosts(),
            25_000_000_000,
            SimTime::ZERO,
            SimTime::from_ms(5),
        );
        let specs = to_flow_specs(&arrivals);
        assert_eq!(specs.len(), arrivals.len());
        for (a, s) in arrivals.iter().zip(&specs) {
            assert_eq!(s.src, a.src);
            assert_eq!(s.dst, a.msg.dst);
            assert_eq!(s.bytes, a.msg.bytes);
            assert_eq!(s.start, a.at);
            assert_eq!(s.prio, a.msg.cc.prio());
        }
    }
}
