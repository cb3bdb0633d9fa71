//! The ordinary controllers and installers on the flow-level backend: the
//! same `QueueController`s the packet engine ticks, driven by
//! `netsim::flowsim::FlowSim`'s control tick against the analytic queue
//! model.

use acc_core::controller::{attach_recorder, install_acc};
use acc_core::guard::{install_guarded_acc, GuardConfig, GuardedController};
use acc_core::static_ecn::install_static;
use acc_core::trainer::frozen_config;
use acc_core::{AccConfig, AccController, ActionSpace, StaticEcnPolicy};
use netsim::flowsim::{FlowSim, FlowSimConfig, FlowSpec};
use netsim::prelude::*;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::{RunRecorder, VecSink};

const LINK_BPS: u64 = 25_000_000_000;

/// `n_senders`-to-1 incast of 20 MB flows through one switch: the
/// receiver's switch-egress link saturates, so the analytic queue model
/// produces depth and marks for the controller to read.
fn incast_sim(n_senders: usize) -> FlowSim {
    let topo = TopologySpec::single_switch(8, LINK_BPS, SimTime::from_ns(500)).build();
    let hosts = topo.hosts().to_vec();
    let mut sim = FlowSim::new(topo, FlowSimConfig::default());
    let specs: Vec<FlowSpec> = (0..n_senders)
        .map(|i| FlowSpec {
            src: hosts[i + 1],
            dst: hosts[0],
            bytes: 20_000_000,
            prio: 1,
            tag: 0,
            start: SimTime::ZERO,
        })
        .collect();
    sim.schedule_flows(&specs);
    sim
}

fn marked_bytes(sim: &FlowSim) -> u64 {
    sim.links().iter().map(|l| l.telem.tx_marked_bytes).sum()
}

#[test]
fn static_installer_rewrites_switch_links() {
    let mut sim = incast_sim(4);
    install_static(&mut sim, StaticEcnPolicy::Vendor);
    sim.run_until(SimTime::from_ms(60));
    assert_eq!(sim.completions().len(), 4);
    let vendor = StaticEcnPolicy::Vendor.config_for(LINK_BPS);
    for l in sim.links() {
        // Host-egress links carry no ECN model and stay that way.
        let want = (!sim.topo().is_host(l.from_node)).then_some(vendor);
        assert_eq!(l.ecn, want, "link out of {:?}", l.from_node);
    }
}

#[test]
fn frozen_acc_observes_acts_and_records() {
    let mut sim = incast_sim(6);
    let cfg = frozen_config(&AccConfig::default());
    let space = ActionSpace::templates();
    install_acc(&mut sim, &cfg, &space);
    let rec = RunRecorder::new()
        .with_sink(Box::new(VecSink::new()))
        .into_shared();
    attach_recorder(&mut sim, &rec);
    sim.run_until(SimTime::from_ms(100));

    assert_eq!(sim.completions().len(), 6, "flows finish under ACC");
    assert!(marked_bytes(&sim) > 0, "analytic ECN feedback is live");
    assert!(
        rec.borrow().agent_samples > 0,
        "decisions reach the recorder"
    );
    let sw = sim.topo().switches()[0];
    let acc = sim.controller_mut(sw).expect("installed");
    let acc = acc.as_any_mut().downcast_mut::<AccController>().unwrap();
    assert_eq!(acc.stats.ticks, 2000, "one tick per 50 us");
    assert!(acc.stats.inferences > 0);
    assert_eq!(acc.stats.train_steps, 0, "frozen: inference only");
    // Every switch-egress link now carries a template the agent chose.
    for l in sim.links().iter().filter(|l| l.from_node == sw) {
        assert!(space.actions().contains(&l.ecn.unwrap()));
    }
}

#[test]
fn guarded_acc_vets_the_analytic_queues() {
    let mut sim = incast_sim(6);
    install_guarded_acc(
        &mut sim,
        &AccConfig::default(),
        &ActionSpace::templates(),
        &GuardConfig::default(),
    );
    sim.run_until(SimTime::from_ms(100));
    assert_eq!(sim.completions().len(), 6);
    let sw = sim.topo().switches()[0];
    let g = sim.controller_mut(sw).expect("installed");
    let g = g.as_any_mut().downcast_mut::<GuardedController>().unwrap();
    assert_eq!(g.stats.ticks, 2000);
    assert_eq!(g.stats.violations_applied, 0, "enforcing guard");
}

/// Records when it was ticked.
struct TickLog(Rc<RefCell<Vec<SimTime>>>);

impl QueueController for TickLog {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        self.0.borrow_mut().push(view.now());
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn late_install_arms_the_tick_one_interval_from_now() {
    let mut sim = incast_sim(2);
    let t0 = SimTime::from_us(130);
    sim.run_until(t0);
    assert_eq!(sim.stats().events_processed, 2, "no controller, no ticks");
    let ticks = Rc::new(RefCell::new(Vec::new()));
    let sw = sim.topo().switches()[0];
    sim.set_controller(sw, Box::new(TickLog(ticks.clone())));
    sim.run_until(SimTime::from_us(300));
    let dt = SimTime::from_us(50);
    assert_eq!(
        *ticks.borrow(),
        vec![t0 + dt, t0 + dt.mul(2), t0 + dt.mul(3)]
    );
}
