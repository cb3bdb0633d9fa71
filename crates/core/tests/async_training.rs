//! The DDQN update runs beside the engine (`rl::trainer`); these tests pin
//! that nothing a run produces depends on where or when it ran. Everything
//! here is a count or a byte comparison — no wall clock.

use acc_core::controller::install_acc;
use acc_core::deploy::fnv1a;
use acc_core::{AccConfig, AccController, ActionSpace, FEATURES_PER_OBS};
use netsim::ids::PRIO_RDMA;
use netsim::prelude::*;
use netsim::topology::TopologyBuilder;
use rl::trainer::Trainer;
use rl::{DdqnAgent, ReplayBuffer, Seat, TrainerStats, Transition};
use std::cell::RefCell;
use std::rc::Rc;
use transport::{CcKind, FctCollector, Message, StackConfig};

const LINK_BPS: u64 = 25_000_000_000;
/// 240 control ticks: the experience exchange of tick 200 is inside.
const HORIZON: SimTime = SimTime::from_ms(12);

/// How the controllers of a run get their agents.
#[derive(Clone, Copy, Debug)]
enum Arm {
    /// The public installer: private agents on the process-wide trainer.
    Installed,
    /// Private agents on a private trainer with this many helpers.
    Helpers(usize),
    /// As `Helpers(2)`, but the test keeps a handle to every seat, so each
    /// controller sees a shared agent and joins right after it submits:
    /// observe, select, train, exchange within the tick — the order the
    /// inline loop had before updates were overlapped.
    Held,
}

/// Three switches in a row, two hosts each; every host of the outer two
/// sends across the middle one, so the inter-switch queues build.
fn chain() -> Topology {
    let mut b = TopologyBuilder::new();
    let delay = SimTime::from_ns(500);
    let sws: Vec<NodeId> = (0..3).map(|i| b.add_switch(format!("sw{i}"))).collect();
    for (i, &sw) in sws.iter().enumerate() {
        for h in 0..2 {
            let host = b.add_host(format!("h{i}{h}"));
            b.link(host, sw, LINK_BPS, delay);
        }
    }
    b.link(sws[0], sws[1], LINK_BPS, delay);
    b.link(sws[1], sws[2], LINK_BPS, delay);
    b.build()
}

fn acc_cfg(prioritized: bool) -> AccConfig {
    let mut cfg = AccConfig::default();
    cfg.ddqn.use_prioritized_replay = prioritized;
    cfg.ddqn.min_replay = 8;
    cfg.ddqn.batch_size = 8;
    cfg.idle_optimization = false;
    cfg.seed = 13;
    cfg
}

/// Everything a run leaves behind that the update order could have moved.
#[derive(Debug, PartialEq)]
struct Outcome {
    models: Vec<String>,
    actions: Vec<Vec<Option<usize>>>,
    /// `(ticks, inferences, train_steps)` per switch.
    counts: Vec<(u64, u64, u64)>,
    global_replay: String,
}

fn run(arm: Arm, prioritized: bool) -> (Outcome, TrainerStats) {
    let topo = chain();
    let simcfg = SimConfig::default()
        .with_seed(7)
        .with_control_interval(SimTime::from_us(50));
    let mut sim = Simulator::new(topo, simcfg);
    let fct = FctCollector::new_shared();
    let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
    // A wave every 500 µs: the four outer hosts send to the two far ones.
    for wave in 0..20u64 {
        let at = SimTime::from_us(500 * wave);
        for (src, dst) in [(0, 4), (1, 5), (4, 0), (5, 1), (0, 2), (5, 3)] {
            let msg = Message::new(hosts[dst], 300_000 + 10_000 * wave, CcKind::Dcqcn);
            transport::schedule_message(&mut sim, hosts[src], at, msg);
        }
    }

    let cfg = acc_cfg(prioritized);
    let space = ActionSpace::templates();
    let switches = sim.core().topo.switches().to_vec();
    let mut held = Vec::new();
    let global = match arm {
        Arm::Installed => install_acc(&mut sim, &cfg, &space),
        Arm::Helpers(_) | Arm::Held => {
            let trainer = Trainer::with_helpers(match arm {
                Arm::Helpers(n) => n,
                _ => 2,
            });
            let global = Rc::new(RefCell::new(ReplayBuffer::new(
                cfg.ddqn.replay_capacity * 4,
            )));
            for (i, &sw) in switches.iter().enumerate() {
                // What `install_acc` builds, on a trainer of our choosing.
                let mut c = cfg.clone();
                c.seed = cfg.seed + i as u64;
                let state_dim = c.history_k * FEATURES_PER_OBS;
                let agent = DdqnAgent::new(state_dim, space.len(), c.ddqn.clone(), c.seed);
                let seat = Rc::new(RefCell::new(Seat::at(agent, trainer.clone())));
                if matches!(arm, Arm::Held) {
                    held.push(seat.clone());
                }
                let mut ctl = AccController::with_agent(c, space.clone(), seat);
                ctl.set_global_replay(global.clone());
                sim.set_controller(sw, Box::new(ctl));
            }
            global
        }
    };
    sim.run_until(HORIZON);

    // Test (e): the counters are read first, with the last tick's update
    // still out (tick 240 is no exchange tick, so nothing has joined it).
    let mut counts = Vec::new();
    for &sw in &switches {
        counts.push(sim.with_controller(sw, |c, _| {
            let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
            if !matches!(arm, Arm::Held) {
                assert!(acc.agent().borrow().is_away(), "{arm:?}: update in flight");
            }
            (acc.stats.ticks, acc.stats.inferences, acc.stats.train_steps)
        }));
    }
    let mut models = Vec::new();
    let mut actions = Vec::new();
    let mut trainer_stats = TrainerStats::default();
    for &sw in &switches {
        sim.with_controller(sw, |c, _| {
            let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
            models.push(serde_json::to_string(&acc.export_model()).unwrap());
            let ports = 3 + usize::from(sw == switches[1]);
            actions.push(
                (0..ports)
                    .map(|p| acc.current_action(PortId(p as u16), PRIO_RDMA))
                    .collect(),
            );
            trainer_stats += acc.trainer;
        });
    }
    // Every row the controllers store is discounted by γ. The rows are
    // printed as the owned `Transition` they stand for (`done` is a zero
    // discount), the form the digests below were taken in.
    let global = global.borrow();
    assert!(global.iter().all(|t| t.discount == cfg.ddqn.gamma));
    let rows: Vec<Transition> = global
        .iter()
        .map(|t| Transition {
            state: t.state.to_vec(),
            action: t.action,
            reward: t.reward,
            next_state: t.next_state.to_vec(),
            done: t.discount == 0.0,
        })
        .collect();
    let global_replay = format!("{rows:?}");
    let outcome = Outcome {
        models,
        actions,
        counts,
        global_replay,
    };
    (outcome, trainer_stats)
}

/// Digest of the three exported models and the global replay.
fn digest(out: &Outcome) -> u64 {
    let mut text = out.models.concat();
    text.push_str(&out.global_replay);
    fnv1a(text.as_bytes())
}

/// Digest of the three exported models and the global replay of this very
/// scenario in the inline order (first taken at the commit before updates
/// were overlapped, through its inline `on_tick`; re-taken once when every
/// simulator became one shard, which keys every event and draws from
/// per-node RNG streams, so the packets the agents observe moved).
const INLINE_DIGEST: u64 = 15_727_067_310_519_188_275;

/// Tests (b) and (e): across the exchange tick, with 0, 1 and 2 helpers,
/// through the installer, and in the inline order, three switches sharing
/// a global replay end with the same models, actions, counters and replay
/// contents.
#[test]
fn overlapped_updates_change_nothing_a_run_produces() {
    let (inline, inline_stats) = run(Arm::Held, false);
    assert!(inline.counts.iter().all(|&(ticks, _, _)| ticks == 240));
    assert!(inline.counts.iter().all(|&(_, _, trained)| trained > 200));
    assert_eq!(
        inline_stats.ran_on_helper, 0,
        "a seat someone else holds is never offered to the helpers"
    );
    assert_eq!(inline_stats.ran_on_engine, inline_stats.submitted);
    assert!(inline.global_replay.len() > 1000, "the exchange ran");

    assert_eq!(
        digest(&inline),
        INLINE_DIGEST,
        "differs from the inline loop"
    );

    for arm in [
        Arm::Helpers(0),
        Arm::Helpers(1),
        Arm::Helpers(2),
        Arm::Installed,
    ] {
        let (out, stats) = run(arm, false);
        assert_eq!(out, inline, "{arm:?}");
        let trained: u64 = out.counts.iter().map(|c| c.2).sum();
        assert_eq!(stats.submitted, trained, "{arm:?}");
        // A controller books an update when it joins it. The last tick's
        // three came home through `export_model`; their reports wait in
        // the seats for a tick that never comes.
        assert_eq!(
            stats.ran_on_helper + stats.ran_on_engine,
            stats.submitted - 3,
            "{arm:?}"
        );
        if matches!(arm, Arm::Helpers(0)) {
            assert_eq!((stats.ran_on_helper, stats.blocked_joins), (0, 0));
        }
    }
}

/// Digest of the same scenario with reward-prioritised local replay (the
/// ACC arm's online configuration), first taken before the prioritised
/// memory became a constructor of `ReplayBuffer` and re-taken with
/// [`INLINE_DIGEST`].
const PRIORITIZED_DIGEST: u64 = 14_398_196_615_085_388_100;

/// The prioritised local memory's side of the exchange: its pushes into the
/// sum-tree and its priority-proportional draws into the uniform global
/// memory, across the exchange tick, in the inline order and through the
/// installer.
#[test]
fn prioritized_local_replay_exchanges_as_pinned() {
    let (inline, _) = run(Arm::Held, true);
    assert!(inline.global_replay.len() > 1000, "the exchange ran");
    assert_eq!(digest(&inline), PRIORITIZED_DIGEST);
    assert_ne!(
        digest(&inline),
        INLINE_DIGEST,
        "prioritised replay was not on"
    );
    assert_eq!(run(Arm::Installed, true).0, inline);
}

/// Test (d) at this level: a simulator dropped right after its last tick,
/// updates still out, takes them along without waiting for anything.
#[test]
fn dropping_a_simulator_with_updates_in_flight() {
    for arm in [Arm::Helpers(1), Arm::Installed] {
        let topo = chain();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let cfg = acc_cfg(false);
        let space = ActionSpace::templates();
        match arm {
            Arm::Installed => {
                install_acc(&mut sim, &cfg, &space);
            }
            _ => {
                let trainer = Trainer::with_helpers(1);
                for sw in sim.core().topo.switches().to_vec() {
                    let agent = DdqnAgent::new(12, space.len(), cfg.ddqn.clone(), cfg.seed);
                    let seat = Rc::new(RefCell::new(Seat::at(agent, trainer.clone())));
                    let ctl = AccController::with_agent(cfg.clone(), space.clone(), seat);
                    sim.set_controller(sw, Box::new(ctl));
                }
            }
        }
        sim.run_until(SimTime::from_ms(2));
        let sw = sim.core().topo.switches()[0];
        let trained = sim.with_controller(sw, |c, _| {
            let acc = c.as_any_mut().downcast_mut::<AccController>().unwrap();
            assert!(acc.agent().borrow().is_away());
            acc.stats.train_steps
        });
        assert!(trained > 0);
        drop(sim);
    }
}
