//! Property-based tests of ACC's state/action/reward design.

use acc_core::reward::{e_n, ladder_index, QueuePenalty, RewardConfig, LADDER_LEVELS};
use acc_core::state::{QueueObs, StateWindow};
use acc_core::ActionSpace;
use netsim::prelude::*;
use proptest::prelude::*;

proptest! {
    /// `ladder_index` is the inverse of `e_n` on rung boundaries, monotone
    /// everywhere, and bounded.
    #[test]
    fn ladder_index_properties(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(ladder_index(lo) <= ladder_index(hi));
        prop_assert!(ladder_index(hi) <= LADDER_LEVELS);
        for n in 0..LADDER_LEVELS {
            prop_assert_eq!(ladder_index(e_n(n)), n);
        }
    }

    /// Both queue penalties are in [0, 1] and nonincreasing in queue length.
    #[test]
    fn penalties_bounded_monotone(q1 in any::<u64>(), q2 in any::<u64>(), qmax in 1u64..100_000_000) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        for p in [QueuePenalty::Step, QueuePenalty::Linear { qmax_bytes: qmax }] {
            let d_lo = p.d(lo);
            let d_hi = p.d(hi);
            prop_assert!((0.0..=1.0).contains(&d_lo));
            prop_assert!((0.0..=1.0).contains(&d_hi));
            prop_assert!(d_hi <= d_lo + 1e-12);
        }
    }

    /// Reward is bounded by the weights and monotone in utilisation.
    #[test]
    fn reward_bounded(u1 in -1.0f64..3.0, u2 in -1.0f64..3.0, q in any::<u64>()) {
        let cfg = RewardConfig::default();
        let r1 = cfg.reward(u1, q);
        let r2 = cfg.reward(u2, q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r1));
        if u1 <= u2 {
            prop_assert!(r1 <= r2 + 1e-12);
        }
    }

    /// Every action space yields valid ECN configs, `nearest` round-trips,
    /// and `encode` maps into [0, 1].
    #[test]
    fn action_spaces_valid(idx_seed in any::<u64>()) {
        for space in [
            ActionSpace::templates(),
            ActionSpace::single_threshold_ladder(),
        ] {
            let idx = (idx_seed % space.len() as u64) as usize;
            let a = space.get(idx);
            prop_assert!(a.kmin_bytes <= a.kmax_bytes);
            prop_assert!(a.pmax > 0.0 && a.pmax <= 1.0);
            prop_assert_eq!(space.nearest(&a), idx);
            let e = space.encode(idx);
            prop_assert!((0.0..=1.0).contains(&e));
        }
    }

    /// State features are always in [0, 1] regardless of raw telemetry.
    #[test]
    fn state_features_normalised(
        qlen in any::<u64>(),
        tx in any::<u64>(),
        txm in any::<u64>(),
        dt_us in 0u64..1_000_000,
        link in prop::option::of(1u64..400_000_000_000),
        enc in 0.0f32..=1.0,
    ) {
        let obs = QueueObs {
            qlen_bytes: qlen,
            tx_bytes: tx,
            tx_marked_bytes: txm,
            dt: SimTime::from_us(dt_us),
            link_bps: link.unwrap_or(0),
            ecn_encoded: enc,
        };
        for f in obs.features() {
            prop_assert!((0.0..=1.0).contains(&f), "feature {f} out of range");
            prop_assert!(f.is_finite());
        }
    }

    /// The state window always produces exactly k*4 features in [0, 1].
    #[test]
    fn state_window_dimensions(k in 1usize..6, pushes in 0usize..20) {
        let mut w = StateWindow::new(k);
        let obs = QueueObs {
            qlen_bytes: 1000,
            tx_bytes: 1000,
            tx_marked_bytes: 10,
            dt: SimTime::from_us(50),
            link_bps: 25_000_000_000,
            ecn_encoded: 0.3,
        };
        for _ in 0..pushes {
            w.push(&obs);
        }
        let s = w.state();
        prop_assert_eq!(s.len(), k * 4);
        prop_assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
