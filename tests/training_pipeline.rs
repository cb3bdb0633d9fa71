//! Integration tests for the offline-train → export → redeploy pipeline and
//! the multi-agent experience exchange (§3.4, §4.3).

use acc::core::{controller, trainer, ActionSpace};
use acc::netsim::prelude::*;
use acc::transport::{self, CcKind, FctCollector, StackConfig};
use acc::workloads::gen;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn acc_cfg() -> controller::AccConfig {
    let mut cfg = controller::AccConfig::default();
    cfg.ddqn.min_replay = 32;
    cfg.ddqn.batch_size = 16;
    cfg
}

fn drive_random_incast(sim: &mut Simulator, hosts: &[NodeId], ms: u64, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for seg in 0..(ms / 2) {
        let arr = gen::random_incast(
            hosts,
            8,
            8,
            CcKind::Dcqcn,
            SimTime::from_ms(seg * 2),
            &mut rng,
        );
        gen::apply_arrivals(sim, &arr);
    }
    sim.run_until(SimTime::from_ms(ms));
}

#[test]
fn offline_training_produces_redeployable_model() {
    // Phase 1: shared-agent training on the testbed Clos.
    let topo = TopologySpec::paper_testbed().build();
    let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
    let mut sim = Simulator::new(topo, simcfg);
    let fct = FctCollector::new_shared();
    let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
    let space = ActionSpace::templates();
    let agent = trainer::install_shared_training(&mut sim, &acc_cfg(), &space);
    drive_random_incast(&mut sim, &hosts, 10, 1);
    assert!(
        agent.borrow_mut().get().train_steps() > 0,
        "training must have happened"
    );

    // Phase 2: export + redeploy frozen on a fresh simulation.
    let sw0 = sim.core().topo.switches()[0];
    let model = trainer::extract_model(&mut sim, sw0);
    let json = serde_json::to_string(&model).unwrap();
    let reloaded: rl::Mlp = serde_json::from_str(&json).unwrap();

    let topo2 = TopologySpec::paper_testbed().build();
    let simcfg2 = SimConfig::default().with_control_interval(SimTime::from_us(50));
    let mut sim2 = Simulator::new(topo2, simcfg2);
    let fct2 = FctCollector::new_shared();
    let hosts2 = transport::install_stacks(&mut sim2, StackConfig::default(), &fct2);
    let frozen = trainer::frozen_config(&acc_cfg());
    controller::install_acc_with_model(&mut sim2, &frozen, &space, &reloaded);
    drive_random_incast(&mut sim2, &hosts2, 6, 2);
    // Frozen controllers must not have trained.
    for sw in sim2.core().topo.switches().to_vec() {
        sim2.with_controller(sw, |c, _| {
            let acc = c
                .as_any_mut()
                .downcast_mut::<controller::AccController>()
                .unwrap();
            assert_eq!(acc.stats.train_steps, 0);
            assert!(acc.stats.inferences > 0);
        });
    }
    assert!(fct2.borrow().completed_count() > 0);
}

#[test]
fn global_replay_exchanges_experience_between_switches() {
    let topo = TopologySpec::paper_testbed().build();
    let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
    let mut sim = Simulator::new(topo, simcfg);
    let fct = FctCollector::new_shared();
    let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
    let mut cfg = acc_cfg();
    cfg.exchange_every_ticks = 20;
    cfg.exchange_batch = 16;
    let space = ActionSpace::templates();
    let global = controller::install_acc(&mut sim, &cfg, &space);
    drive_random_incast(&mut sim, &hosts, 8, 3);
    assert!(
        !global.borrow().is_empty(),
        "switch experience must reach the global memory"
    );
}

#[test]
fn online_fine_tuning_keeps_learning_after_pretrain() {
    let space = ActionSpace::templates();
    let base = acc_cfg();
    let model = {
        let ctl = controller::AccController::new(base.clone(), space.clone());
        ctl.export_model()
    };
    let topo = TopologySpec::single_switch(6, 25_000_000_000, SimTime::from_ns(500)).build();
    let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
    let mut sim = Simulator::new(topo, simcfg);
    let fct = FctCollector::new_shared();
    let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
    let online = trainer::online_config(&base, 0.1, 200.0);
    controller::install_acc_with_model(&mut sim, &online, &space, &model);
    drive_random_incast(&mut sim, &hosts, 10, 4);
    let sw = sim.core().topo.switches()[0];
    sim.with_controller(sw, |c, _| {
        let acc = c
            .as_any_mut()
            .downcast_mut::<controller::AccController>()
            .unwrap();
        assert!(acc.stats.train_steps > 0, "online training must continue");
    });
}
