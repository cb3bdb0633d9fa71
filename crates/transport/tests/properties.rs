//! Property-based tests for the transports: CC state machines never produce
//! invalid rates/windows under arbitrary event sequences, and end-to-end
//! delivery holds for arbitrary message sets.

use netsim::prelude::*;
use proptest::prelude::*;
use transport::dcqcn::{DcqcnConfig, DcqcnState};
use transport::window::{WindowFlavor, WindowState, MAX_CWND_BYTES};
use transport::{CcKind, FctCollector, Message, StackConfig};

#[derive(Debug, Clone)]
enum DcqcnEvent {
    Cnp,
    AlphaTimer,
    RateTimer,
    Bytes(u32),
}

fn arb_dcqcn_event() -> impl Strategy<Value = DcqcnEvent> {
    prop_oneof![
        Just(DcqcnEvent::Cnp),
        Just(DcqcnEvent::AlphaTimer),
        Just(DcqcnEvent::RateTimer),
        (1u32..2_000_000).prop_map(DcqcnEvent::Bytes),
    ]
}

proptest! {
    /// Under any event sequence, DCQCN's rate stays within
    /// [min_rate, line_rate] and alpha within [0, 1].
    #[test]
    fn dcqcn_invariants(events in prop::collection::vec(arb_dcqcn_event(), 0..300)) {
        let cfg = DcqcnConfig::default();
        let line = 25e9;
        let mut s = DcqcnState::new(line, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for ev in events {
            now += SimTime::from_us(37);
            match ev {
                DcqcnEvent::Cnp => s.on_cnp(&cfg, now),
                DcqcnEvent::AlphaTimer => s.on_alpha_timer(&cfg, now),
                DcqcnEvent::RateTimer => s.on_rate_timer(&cfg, now, line),
                DcqcnEvent::Bytes(b) => s.on_bytes_sent(&cfg, b as u64, line),
            }
            prop_assert!(s.rate_c >= cfg.min_rate_bps - 1.0);
            prop_assert!(s.rate_c <= line + 1.0);
            prop_assert!(s.rate_t <= line + 1.0);
            prop_assert!((0.0..=1.0).contains(&s.alpha));
            prop_assert!(s.pace_delay(1048) > SimTime::ZERO);
        }
    }

    /// Under any cumulative-ACK sequence, the window stays >= 1 MSS and
    /// finite, and dupack bookkeeping never underflows.
    #[test]
    fn window_invariants(
        acks in prop::collection::vec((any::<u64>(), any::<bool>()), 0..300),
        flavor_dctcp in any::<bool>(),
    ) {
        let flavor = if flavor_dctcp { WindowFlavor::Dctcp } else { WindowFlavor::Reno };
        let mut s = WindowState::new(flavor, 1000, SimTime::ZERO);
        let mut una = 0u64;
        let mut nxt = 0u64;
        let mut now = SimTime::ZERO;
        for (raw_ack, ce) in acks {
            now += SimTime::from_us(13);
            // Keep the ack within a plausible window of the send state.
            let ack = una + (raw_ack % 100_000);
            nxt = nxt.max(ack).max(una + (raw_ack % 50_000));
            s.on_ack(ack, ce, una, nxt, now);
            una = una.max(ack);
            prop_assert!(s.cwnd >= s.mss - 1.0);
            prop_assert!(s.cwnd <= MAX_CWND_BYTES + 1.0);
            prop_assert!(s.cwnd.is_finite());
            prop_assert!((0.0..=1.0).contains(&s.alpha));
        }
        s.on_rto();
        prop_assert_eq!(s.cwnd, s.mss);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any batch of RDMA messages between random host pairs is delivered
    /// exactly once, losslessly.
    #[test]
    fn all_messages_complete(
        msgs in prop::collection::vec((0usize..6, 0usize..6, 1u64..300_000, 0u64..2_000), 1..25),
    ) {
        let topo = TopologySpec::single_switch(6, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let fct = FctCollector::new_shared();
        let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
        let mut expected = 0;
        for (s, d, bytes, at_us) in msgs {
            if s == d {
                continue;
            }
            transport::schedule_message(
                &mut sim,
                hosts[s],
                SimTime::from_us(at_us),
                Message::new(hosts[d], bytes, CcKind::Dcqcn),
            );
            expected += 1;
        }
        sim.run_until(SimTime::from_ms(60));
        prop_assert_eq!(fct.borrow().completed_count(), expected);
        prop_assert_eq!(fct.borrow().unfinished().count(), 0);
        prop_assert_eq!(sim.core().lossless_drops, 0);
    }

    /// TCP Reno delivers in full even through a loss-inducing shallow
    /// drop-tail queue (go-back-N correctness under arbitrary drops).
    #[test]
    fn reno_survives_drops(
        queue_kb in 16u64..128,
        n_senders in 2usize..5,
        bytes in 100_000u64..1_000_000,
    ) {
        let topo = TopologySpec::single_switch(6, 10_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.port.max_queue_bytes[0] = queue_kb * 1024;
        let mut sim = Simulator::new(topo, cfg);
        let fct = FctCollector::new_shared();
        let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
        for s in 0..n_senders {
            transport::schedule_message(
                &mut sim,
                hosts[s],
                SimTime::ZERO,
                Message::new(hosts[5], bytes, CcKind::Reno),
            );
        }
        sim.run_until(SimTime::from_ms(400));
        prop_assert_eq!(fct.borrow().completed_count(), n_senders,
            "drops={} unfinished={}", sim.core().total_drops, fct.borrow().unfinished().count());
    }
}
