//! Property-based tests of the safe-mode guardrails: whatever the agent
//! proposes and whatever the telemetry stream does, every applied config is
//! valid, changes are rate-limited, and a frozen stream trips the fallback
//! within its deadline.

use acc_core::guard::{
    GuardObs, GuardViolation, QueueGuard, FALLBACK, HOLD_TICKS, KMAX_CEILING_BYTES,
    KMIN_FLOOR_BYTES, MAX_PMAX_STEP, MAX_STEP_FACTOR, PMAX_FLOOR, RECOVERY_TICKS, STALE_TICKS,
};
use netsim::queues::{EcnConfig, QueueTelemetry};
use proptest::prelude::*;

const LINK_BPS: u64 = 25_000_000_000;

/// An arbitrary — possibly absurd — proposed config.
fn any_proposal() -> impl Strategy<Value = EcnConfig> {
    (
        any::<u64>(),
        any::<u64>(),
        prop_oneof![
            -10.0f64..10.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
    )
        .prop_map(|(kmin_bytes, kmax_bytes, pmax)| EcnConfig {
            kmin_bytes,
            kmax_bytes,
            pmax,
        })
}

/// An arbitrary observation, healthy or hostile.
fn any_obs() -> impl Strategy<Value = GuardObs> {
    (
        any::<u64>(),
        any::<u64>(),
        prop_oneof![
            -2.0f64..2.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            1.0e4f64..1.0e9,
        ],
    )
        .prop_map(|(qlen, tx, reward)| GuardObs {
            qlen_bytes: qlen % (1 << 24),
            telem: QueueTelemetry {
                tx_bytes: tx,
                tx_pkts: tx / 1000,
                enq_pkts: tx / 1000,
                qlen_integral_byte_ps: tx as u128 * 3,
                ..Default::default()
            },
            reward,
            link_bps: LINK_BPS,
        })
}

fn assert_invariants(applied: &EcnConfig) {
    assert!(applied.kmin_bytes > 0, "Kmin must be positive: {applied:?}");
    assert!(
        applied.kmin_bytes >= KMIN_FLOOR_BYTES,
        "Kmin above floor: {applied:?}"
    );
    assert!(
        applied.kmin_bytes <= applied.kmax_bytes,
        "ordering: {applied:?}"
    );
    assert!(
        applied.kmax_bytes <= KMAX_CEILING_BYTES,
        "Kmax under ceiling: {applied:?}"
    );
    assert!(
        applied.pmax >= PMAX_FLOOR && applied.pmax <= 1.0,
        "Pmax in [floor, 1]: {applied:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever sequence of proposals and observations the guard sees,
    /// every applied config satisfies the safety invariants.
    #[test]
    fn applied_configs_always_valid(
        steps in prop::collection::vec((any_proposal(), any_obs()), 1..40),
        skip_proposal in any::<u64>(),
    ) {
        let mut g = QueueGuard::new();
        for (i, (proposal, obs)) in steps.iter().enumerate() {
            // Sometimes the agent leaves nothing configured at all.
            let p = if (skip_proposal >> (i % 64)) & 1 == 1 {
                None
            } else {
                Some(*proposal)
            };
            let d = g.vet(p, obs);
            assert_invariants(&d.applied);
        }
    }

    /// Between consecutive agent-controlled ticks, thresholds move at most
    /// `MAX_STEP_FACTOR`x and Pmax at most `MAX_PMAX_STEP`.
    #[test]
    fn rate_of_change_is_bounded(
        proposals in prop::collection::vec(any_proposal(), 2..30),
    ) {
        let mut g = QueueGuard::new();
        let mut prev: Option<EcnConfig> = None;
        for (i, p) in proposals.iter().enumerate() {
            // Healthy, advancing observations: the guard stays Active.
            let tx = (i as u64 + 1) * 100_000;
            let obs = GuardObs {
                qlen_bytes: 1000 + i as u64,
                telem: QueueTelemetry {
                    tx_bytes: tx,
                    tx_pkts: tx / 1000,
                    enq_pkts: tx / 1000,
                    qlen_integral_byte_ps: tx as u128 * 3,
                    ..Default::default()
                },
                reward: 0.5,
                link_bps: LINK_BPS,
            };
            let d = g.vet(Some(*p), &obs);
            prop_assert!(!d.tripped, "healthy stream never trips");
            assert_invariants(&d.applied);
            if let Some(last) = prev {
                let f = MAX_STEP_FACTOR;
                let lo = (last.kmin_bytes as f64 / f).floor();
                let hi = (last.kmin_bytes as f64 * f).ceil();
                let kmin = d.applied.kmin_bytes as f64;
                // The absolute floor/ceiling may override the band edges.
                let lo = lo.min(KMIN_FLOOR_BYTES as f64);
                let hi = hi.max(KMIN_FLOOR_BYTES as f64);
                prop_assert!(kmin >= lo && kmin <= hi,
                    "Kmin step bounded: {} -> {}", last.kmin_bytes, d.applied.kmin_bytes);
                prop_assert!(
                    (d.applied.pmax - last.pmax).abs() <= MAX_PMAX_STEP + 1e-12,
                    "Pmax step bounded: {} -> {}", last.pmax, d.applied.pmax);
            }
            prev = Some(d.applied);
        }
    }

    /// A frozen (bit-identical, non-empty) observation stream engages the
    /// fallback within `STALE_TICKS + 1` intervals, and the fallback config
    /// is the static profile for the link.
    #[test]
    fn frozen_stream_trips_within_deadline(
        qlen in 1u64..10_000_000,
        tx in 1u64..u64::MAX / 8,
        proposal in any_proposal(),
    ) {
        let mut g = QueueGuard::new();
        let frozen = GuardObs {
            qlen_bytes: qlen,
            telem: QueueTelemetry {
                tx_bytes: tx,
                tx_pkts: tx / 1000,
                enq_pkts: tx / 1000 + 1,
                qlen_integral_byte_ps: tx as u128 * 3,
                ..Default::default()
            },
            reward: 0.5,
            link_bps: LINK_BPS,
        };
        let mut tripped_at = None;
        for i in 0..STALE_TICKS + 2 {
            let d = g.vet(Some(proposal), &frozen);
            assert_invariants(&d.applied);
            if d.tripped {
                tripped_at = Some(i);
                prop_assert!(d.violations.contains(&GuardViolation::StaleTelemetry));
                prop_assert_eq!(d.applied, FALLBACK.config_for(LINK_BPS));
                break;
            }
        }
        let at = tripped_at.expect("frozen stream must trip");
        prop_assert!(at <= STALE_TICKS + 1,
            "fallback within stale_ticks+1 intervals, got {}", at);
    }

    /// Non-finite or unbounded rewards trip on the very tick they appear,
    /// and recovery takes at least the hysteresis window.
    #[test]
    fn reward_anomaly_trips_immediately(
        bad in prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            1.0e4f64..1.0e12,
        ],
        proposal in any_proposal(),
    ) {
        let mut g = QueueGuard::new();
        // One healthy tick first.
        let healthy = |i: u64| GuardObs {
            qlen_bytes: 100 + i,
            telem: QueueTelemetry {
                tx_bytes: (i + 1) * 50_000,
                tx_pkts: (i + 1) * 50,
                enq_pkts: (i + 1) * 50,
                qlen_integral_byte_ps: ((i + 1) * 50_000) as u128,
                ..Default::default()
            },
            reward: 0.5,
            link_bps: LINK_BPS,
        };
        g.vet(Some(proposal), &healthy(0));
        prop_assert!(!g.in_fallback());
        let mut bad_obs = healthy(1);
        bad_obs.reward = bad;
        let d = g.vet(Some(proposal), &bad_obs);
        prop_assert!(d.tripped, "anomalous reward trips on its own tick");
        prop_assert!(d.violations.contains(&GuardViolation::RewardAnomaly));
        // Recovery needs hold_ticks in fallback AND recovery_ticks healthy.
        let mut recovered_at = None;
        for i in 0..HOLD_TICKS + RECOVERY_TICKS + 4 {
            let d = g.vet(Some(proposal), &healthy(2 + i as u64));
            assert_invariants(&d.applied);
            if d.recovered {
                recovered_at = Some(i + 1);
                break;
            }
        }
        let at = recovered_at.expect("healthy stream must recover");
        prop_assert!(at >= HOLD_TICKS.max(RECOVERY_TICKS),
            "hysteresis respected, recovered after {} ticks", at);
    }
}
