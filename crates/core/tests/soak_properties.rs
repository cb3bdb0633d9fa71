//! Property tests backing the fleet soak harness: a telemetry freeze always
//! hands control back to ACC within the configured hysteresis once
//! telemetry resumes, and a probation rollback restores the pre-swap policy
//! bit-exactly on every switch.

use acc_core::guard::{
    install_guarded_acc, GuardConfig, GuardObs, GuardedController, QueueGuard, FALLBACK,
    HOLD_TICKS, RECOVERY_TICKS, STALE_TICKS,
};
use acc_core::{
    trainer, ActionSpace, DeployBundle, FleetConfig, FleetManager, ProbationOutcome, RewardConfig,
    SwapOutcome,
};
use netsim::prelude::*;
use netsim::queues::QueueTelemetry;
use proptest::prelude::*;
use rl::Mlp;

const LINK_BPS: u64 = 25_000_000_000;

fn healthy_obs(i: u64, qlen: u64) -> GuardObs {
    let tx = (i + 1) * 70_000;
    GuardObs {
        qlen_bytes: qlen + i,
        telem: QueueTelemetry {
            tx_bytes: tx,
            tx_pkts: tx / 1000,
            enq_pkts: tx / 1000,
            qlen_integral_byte_ps: tx as u128 * 3,
            ..Default::default()
        },
        reward: 0.3,
        link_bps: LINK_BPS,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The soak's central liveness property: however long the telemetry
    /// freeze, the guard trips to the static fallback during it and returns
    /// control to ACC within `HOLD_TICKS + RECOVERY_TICKS` intervals of
    /// telemetry resuming — fallback is a detour, never a terminal state.
    #[test]
    fn freeze_trip_returns_to_acc_within_hysteresis(
        freeze_len in 4u32..48,
        qlen in 1u64..1_000_000,
    ) {
        let mut g = QueueGuard::new();
        let proposal = FALLBACK.config_for(LINK_BPS);
        let mut tick = 0u64;
        for _ in 0..4 {
            let d = g.vet(Some(proposal), &healthy_obs(tick, qlen));
            prop_assert!(!d.tripped, "healthy warm-up never trips");
            tick += 1;
        }

        // Registers freeze: the guard keeps reading this exact snapshot.
        let frozen = healthy_obs(tick, qlen);
        let mut trips = 0u32;
        for i in 0..freeze_len {
            let d = g.vet(Some(proposal), &frozen);
            if d.tripped {
                trips += 1;
                prop_assert!(i < STALE_TICKS + 1,
                    "trip within stale_ticks+1 of freeze start, got {i}");
            }
            if d.in_fallback {
                prop_assert_eq!(d.applied, FALLBACK.config_for(LINK_BPS),
                    "fallback runs the static profile");
            }
        }
        prop_assert_eq!(trips, 1, "exactly one trip per freeze");
        prop_assert!(g.in_fallback(), "still in fallback while frozen");

        // Telemetry resumes advancing; control must come back to the agent.
        tick += 1;
        let mut recovered_after = None;
        for i in 0..HOLD_TICKS + RECOVERY_TICKS + 2 {
            let d = g.vet(Some(proposal), &healthy_obs(tick, qlen));
            tick += 1;
            if d.recovered {
                recovered_after = Some(i + 1);
                break;
            }
        }
        let at = recovered_after.expect("control must return to ACC after resume");
        prop_assert!(at <= HOLD_TICKS + RECOVERY_TICKS + 1,
            "recovery within hysteresis after resume, took {at} ticks");
        prop_assert!(!g.in_fallback());
        // Back under agent control: the vetted proposal is what gets applied.
        let d = g.vet(Some(proposal), &healthy_obs(tick, qlen));
        prop_assert_eq!(d.applied, proposal);
    }

    /// Rollback restores the pre-swap policy bit-exactly: whatever candidate
    /// was swapped in and whichever switch's guard tripped during probation,
    /// every switch ends up running a model byte-identical to
    /// last-known-good, and the quarantine/backoff ledger refuses the bad
    /// candidate afterwards.
    #[test]
    fn rollback_restores_pre_swap_policy_bit_exactly(
        cand_seed in 0u64..1_000,
        trip_switch in 0usize..6,
    ) {
        let topo = TopologySpec::paper_testbed().build();
        let mut sim = Simulator::new(topo, SimConfig::default().with_seed(9));
        let space = ActionSpace::templates();
        let cfg = trainer::online_config(&acc_core::AccConfig::default(), 0.05, 1_000.0);
        install_guarded_acc(&mut sim, &cfg, &space, &GuardConfig::default());

        let initial = DeployBundle::new(
            "prop initial",
            Mlp::new(&[12, 40, 40, space.len()], 7),
            space.clone(),
            RewardConfig::default(),
            3,
        );
        let golden = serde_json::to_string(&initial.model).unwrap();
        let mut fleet = FleetManager::new(
            FleetConfig {
                probation_trip_budget: 0,
                quarantine_backoff: 1,
                ..Default::default()
            },
            initial,
        )
        .unwrap();
        fleet.deploy(&mut sim);

        let candidate = DeployBundle::new(
            "prop candidate",
            Mlp::new(&[12, 40, 40, space.len()], 10_000 + cand_seed),
            space.clone(),
            RewardConfig::default(),
            3,
        );
        let cand_model = serde_json::to_string(&candidate.model).unwrap();
        let cand_digest = candidate.digest;
        let outcome = fleet.try_swap(&mut sim, candidate.clone());
        prop_assert_eq!(outcome, SwapOutcome::Swapped { digest: cand_digest });
        let switches: Vec<NodeId> = sim.core().topo.switches().to_vec();
        for &sw in &switches {
            let m = serde_json::to_string(&trainer::extract_model(&mut sim, sw)).unwrap();
            prop_assert_eq!(&m, &cand_model, "swap is live on every switch");
        }

        // One guard trips during probation (the soak gets this from a
        // telemetry-freeze fault; here the counter is bumped directly).
        let victim = switches[trip_switch % switches.len()];
        sim.with_controller(victim, |c, _| {
            c.as_any_mut()
                .downcast_mut::<GuardedController>()
                .expect("guarded fleet")
                .stats
                .trips += 1;
        });

        let ended = fleet.end_probation(&mut sim);
        prop_assert_eq!(ended, ProbationOutcome::RolledBack { digest: cand_digest, trips: 1 });
        for &sw in &switches {
            let m = serde_json::to_string(&trainer::extract_model(&mut sim, sw)).unwrap();
            prop_assert_eq!(&m, &golden, "rollback restores pre-swap policy bit-exactly");
        }
        prop_assert_eq!(serde_json::to_string(&fleet.last_good().model).unwrap(), golden);

        // The bad bundle is not retried: first backoff, then quarantine.
        prop_assert_eq!(fleet.try_swap(&mut sim, candidate.clone()), SwapOutcome::SkippedBackoff);
        prop_assert_eq!(
            fleet.try_swap(&mut sim, candidate),
            SwapOutcome::SkippedQuarantined { digest: cand_digest }
        );
        prop_assert_eq!(fleet.stats.rollbacks, 1);
        prop_assert_eq!(fleet.stats.backoff_skips, 1);
        prop_assert_eq!(fleet.stats.quarantined_skips, 1);
    }
}
