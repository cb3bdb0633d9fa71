//! Static-ECN baselines (the paper's comparison points, §2.2 and §5.1).
//!
//! * **SECN0** — the DCTCP-paper style single threshold,
//!   `Kmin = Kmax = 18 KB`.
//! * **SECN1** — the DCQCN-paper setting, `Kmin = 5 KB, Kmax = 200 KB`.
//! * **SECN2** — the cloud-provider (HPCC) setting, proportional to link
//!   bandwidth: `Kmin = 100 KB · BW/25G, Kmax = 400 KB · BW/25G`.
//! * **Vendor** — the device-vendor default used in the storage
//!   macro-benchmark (§5.3): `Kmin = 30 KB, Kmax = 270 KB, Pmax = 10%`.
//!
//! SECN2 scales with the port speed, so it is applied through a
//! [`QueueController`] that configures each port once according to its link
//! rate, then does nothing — exactly how a statically-configured network
//! behaves.

use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use netsim::queues::EcnConfig;
use serde::{Deserialize, Serialize};
use std::any::Any;

/// A named static ECN policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum StaticEcnPolicy {
    /// DCTCP-paper single threshold (18 KB).
    Secn0,
    /// DCQCN-paper setting (5 KB / 200 KB / 1%).
    Secn1,
    /// Cloud-provider setting, bandwidth-proportional (100/400 KB at 25G).
    Secn2,
    /// Device-vendor default (30 KB / 270 KB / 10%).
    Vendor,
    /// Any fixed configuration.
    Fixed(EcnConfig),
}

impl StaticEcnPolicy {
    /// The configuration this policy applies to a port of `link_bps`.
    pub fn config_for(self, link_bps: u64) -> EcnConfig {
        match self {
            StaticEcnPolicy::Secn0 => EcnConfig::dctcp_paper(),
            StaticEcnPolicy::Secn1 => EcnConfig::dcqcn_paper(),
            StaticEcnPolicy::Secn2 => EcnConfig::cloud_provider(link_bps),
            StaticEcnPolicy::Vendor => EcnConfig::vendor_default(),
            StaticEcnPolicy::Fixed(cfg) => cfg,
        }
    }

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            StaticEcnPolicy::Secn0 => "SECN0",
            StaticEcnPolicy::Secn1 => "SECN1",
            StaticEcnPolicy::Secn2 => "SECN2",
            StaticEcnPolicy::Vendor => "Vendor",
            StaticEcnPolicy::Fixed(_) => "Fixed",
        }
    }
}

/// Controller that applies a [`StaticEcnPolicy`] to the given traffic
/// classes on its first tick and never changes it again.
pub struct StaticEcnController {
    policy: StaticEcnPolicy,
    prios: Vec<Prio>,
    applied: bool,
}

impl StaticEcnController {
    /// Apply `policy` to the RDMA class.
    pub fn new(policy: StaticEcnPolicy) -> Self {
        Self::for_prios(policy, vec![PRIO_RDMA])
    }

    /// Apply `policy` to specific traffic classes.
    pub fn for_prios(policy: StaticEcnPolicy, prios: Vec<Prio>) -> Self {
        StaticEcnController {
            policy,
            prios,
            applied: false,
        }
    }
}

impl QueueController for StaticEcnController {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        if self.applied {
            return;
        }
        self.applied = true;
        for p in 0..view.num_ports() {
            let port = PortId(p as u16);
            let cfg = self.policy.config_for(view.port_rate_bps(port));
            for &prio in &self.prios {
                view.set_ecn(port, prio, Some(cfg));
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Install `policy` on every switch of `sim` (RDMA class).
pub fn install_static<H: ControllerHost>(sim: &mut H, policy: StaticEcnPolicy) {
    for sw in sim.topo().switches().to_vec() {
        sim.set_controller(sw, Box::new(StaticEcnController::new(policy)));
    }
}

/// [`install_static`] in the shape [`FlowSim::set_tuner`] takes: one
/// [`StaticEcnController`] per switch. Kept for callers written against it.
pub struct FluidStaticEcn(StaticEcnPolicy);

impl FluidStaticEcn {
    /// A tuner that installs `policy` on every switch.
    pub fn new(policy: StaticEcnPolicy) -> Self {
        FluidStaticEcn(policy)
    }
}

impl netsim::flowsim::EcnTuner for FluidStaticEcn {
    fn controller(&self) -> Box<dyn QueueController> {
        Box::new(StaticEcnController::new(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_produce_paper_values() {
        assert_eq!(
            StaticEcnPolicy::Secn0.config_for(25_000_000_000).kmin_bytes,
            18 * 1024
        );
        let s1 = StaticEcnPolicy::Secn1.config_for(25_000_000_000);
        assert_eq!(s1.kmin_bytes, 5 * 1024);
        assert_eq!(s1.kmax_bytes, 200 * 1024);
        let s2_25 = StaticEcnPolicy::Secn2.config_for(25_000_000_000);
        let s2_100 = StaticEcnPolicy::Secn2.config_for(100_000_000_000);
        assert_eq!(s2_25.kmin_bytes, 100 * 1024);
        assert_eq!(s2_100.kmin_bytes, 400 * 1024);
        let v = StaticEcnPolicy::Vendor.config_for(25_000_000_000);
        assert_eq!((v.kmin_bytes, v.kmax_bytes), (30 * 1024, 270 * 1024));
    }

    #[test]
    fn controller_applies_bandwidth_scaled_configs() {
        // Leaf-spine: host ports are 25G, fabric ports 100G — SECN2 must
        // differ between them.
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        install_static(&mut sim, StaticEcnPolicy::Secn2);
        sim.run_until(SimTime::from_ms(1));
        let leaf = sim.core().topo.switches()[0];
        // Port 0 of a leaf is host-facing (25G), the last ports face spines
        // (100G).
        let host_q = sim.core().queue(leaf, PortId(0), PRIO_RDMA).ecn.unwrap();
        let nports = sim.core().topo.node(leaf).ports.len();
        let spine_q = sim
            .core()
            .queue(leaf, PortId((nports - 1) as u16), PRIO_RDMA)
            .ecn
            .unwrap();
        assert_eq!(host_q.kmin_bytes, 100 * 1024);
        assert_eq!(spine_q.kmin_bytes, 400 * 1024);
    }

    #[test]
    fn names() {
        assert_eq!(StaticEcnPolicy::Secn1.name(), "SECN1");
        assert_eq!(
            StaticEcnPolicy::Fixed(EcnConfig::new(1, 2, 0.5)).name(),
            "Fixed"
        );
    }
}
