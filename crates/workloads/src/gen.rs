//! Open-loop traffic generators: Poisson load and incast waves.

use crate::dists::SizeDist;
use netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transport::{CcKind, Message};

/// One pre-computed flow arrival.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Sending host.
    pub src: NodeId,
    /// Start time.
    pub at: SimTime,
    /// The message.
    pub msg: Message,
}

/// Schedule a list of arrivals onto the simulation's host stacks.
///
/// The whole arrival list is known up front, so each host's stack is first
/// told exactly how many messages it will originate and terminate
/// ([`transport::reserve_stack`]); with that, running the scheduled workload
/// performs no flow-table growth — part of the zero-allocation steady-state
/// contract `acc-bench`'s `engine_counts` test asserts.
///
/// In a sharded simulator only owned hosts carry stacks, so reservation and
/// scheduling skip foreign hosts. Filtering whole hosts preserves each
/// owned host's arrival order, which keeps per-host flow-id assignment (and
/// therefore the merged record streams) identical across shard counts.
pub fn apply_arrivals(sim: &mut Simulator, arrivals: &[Arrival]) {
    let mut counts: std::collections::HashMap<NodeId, (usize, usize)> = Default::default();
    for a in arrivals {
        counts.entry(a.src).or_default().0 += 1;
        counts.entry(a.msg.dst).or_default().1 += 1;
    }
    for (&host, &(n_send, n_recv)) in &counts {
        if !sim.core().owns_node(host) {
            continue;
        }
        transport::reserve_stack(sim, host, n_send, n_recv);
    }
    for a in arrivals {
        if !sim.core().owns_node(a.src) {
            continue;
        }
        transport::schedule_message(sim, a.src, a.at, a.msg);
    }
}

/// Poisson open-loop load generator over a set of hosts.
///
/// Flows arrive as a fleet-wide Poisson process whose rate is chosen so that
/// the *average offered load per host NIC* equals `load` (e.g. 0.6 = 60% of
/// every 25 Gbps access link, the convention of the paper's Fig. 12/13).
/// Sources and destinations are drawn uniformly (src ≠ dst); sizes come from
/// the configured [`SizeDist`].
#[derive(Clone, Debug)]
pub struct PoissonGen {
    /// Flow-size distribution.
    pub dist: SizeDist,
    /// Offered load as a fraction of per-host line rate.
    pub load: f64,
    /// Transport for the generated flows.
    pub cc: CcKind,
    /// RNG seed.
    pub seed: u64,
}

impl PoissonGen {
    /// New generator.
    pub fn new(dist: SizeDist, load: f64, cc: CcKind, seed: u64) -> Self {
        assert!(load > 0.0 && load <= 1.5, "load out of range: {load}");
        PoissonGen {
            dist,
            load,
            cc,
            seed,
        }
    }

    /// Generate arrivals over `[start, start+duration)` among `hosts` whose
    /// NICs run at `host_bps`.
    pub fn generate(
        &self,
        hosts: &[NodeId],
        host_bps: u64,
        start: SimTime,
        duration: SimTime,
    ) -> Vec<Arrival> {
        assert!(hosts.len() >= 2, "need at least two hosts");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mean = self.dist.mean_bytes();
        // Aggregate flow arrival rate (flows/sec) so that the bytes injected
        // per host per second average load * host_bps / 8.
        let lambda = self.load * host_bps as f64 / 8.0 / mean * hosts.len() as f64;
        let mut out = Vec::new();
        let mut t = start.as_secs_f64();
        let end = (start + duration).as_secs_f64();
        loop {
            // Exponential inter-arrival.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += -u.ln() / lambda;
            if t >= end {
                break;
            }
            let src = hosts[rng.gen_range(0..hosts.len())];
            let dst = loop {
                let d = hosts[rng.gen_range(0..hosts.len())];
                if d != src {
                    break d;
                }
            };
            let bytes = self.dist.sample(&mut rng);
            out.push(Arrival {
                src,
                at: SimTime::from_secs_f64(t),
                msg: Message::new(dst, bytes, self.cc),
            });
        }
        out
    }
}

/// An N-to-1 incast wave: every sender starts `flows_per_sender` flows of
/// `bytes` to `receiver` at `start` (the PerfTest-style micro-benchmark of
/// §5.2 and Fig. 1).
pub fn incast_wave(
    senders: &[NodeId],
    receiver: NodeId,
    flows_per_sender: usize,
    bytes: u64,
    cc: CcKind,
    start: SimTime,
) -> Vec<Arrival> {
    assert!(
        !senders.contains(&receiver),
        "receiver cannot send to itself"
    );
    let mut out = Vec::with_capacity(senders.len() * flows_per_sender);
    for &s in senders {
        for _ in 0..flows_per_sender {
            out.push(Arrival {
                src: s,
                at: start,
                msg: Message::new(receiver, bytes, cc),
            });
        }
    }
    out
}

/// A random incast scenario in the style of the offline-training traffic
/// (§4.3): `p ∈ [2, max_senders]` random senders, `q ∈ [1, max_flows]` flows
/// each, message sizes log-uniform in `[10 KB, 10 MB]`.
pub fn random_incast(
    hosts: &[NodeId],
    max_senders: usize,
    max_flows: usize,
    cc: CcKind,
    start: SimTime,
    rng: &mut SmallRng,
) -> Vec<Arrival> {
    assert!(hosts.len() >= 3);
    let recv_idx = rng.gen_range(0..hosts.len());
    let receiver = hosts[recv_idx];
    let n_senders = rng.gen_range(2..=max_senders.min(hosts.len() - 1));
    let mut senders: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != receiver).collect();
    // Deterministic partial shuffle.
    for i in 0..n_senders {
        let j = rng.gen_range(i..senders.len());
        senders.swap(i, j);
    }
    senders.truncate(n_senders);
    let flows = rng.gen_range(1..=max_flows);
    let bytes = {
        let lo = (10_000f64).ln();
        let hi = (10_000_000f64).ln();
        (lo + rng.gen::<f64>() * (hi - lo)).exp() as u64
    };
    incast_wave(&senders, receiver, flows, bytes, cc, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn poisson_load_injects_expected_bytes() {
        let hs = hosts(8);
        let gen = PoissonGen::new(SizeDist::web_search(), 0.5, CcKind::Dcqcn, 7);
        let dur = SimTime::from_ms(200);
        let arr = gen.generate(&hs, 25_000_000_000, SimTime::ZERO, dur);
        let total: u64 = arr.iter().map(|a| a.msg.bytes).sum();
        // Expected bytes = load * rate/8 * hosts * secs.
        let expect = 0.5 * 25e9 / 8.0 * 8.0 * 0.2;
        let ratio = total as f64 / expect;
        assert!(
            (0.8..1.25).contains(&ratio),
            "offered/expected = {ratio} (total {total})"
        );
        // Arrivals sorted in time and src != dst.
        for w in arr.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for a in &arr {
            assert_ne!(a.src, a.msg.dst);
        }
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        let hs = hosts(4);
        let g = PoissonGen::new(SizeDist::data_mining(), 0.3, CcKind::Dcqcn, 42);
        let a = g.generate(&hs, 25_000_000_000, SimTime::ZERO, SimTime::from_ms(50));
        let b = g.generate(&hs, 25_000_000_000, SimTime::ZERO, SimTime::from_ms(50));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.msg.bytes, y.msg.bytes);
        }
    }

    #[test]
    fn incast_wave_shape() {
        let hs = hosts(9);
        let arr = incast_wave(
            &hs[..8],
            hs[8],
            32,
            64_000,
            CcKind::Dcqcn,
            SimTime::from_us(5),
        );
        assert_eq!(arr.len(), 8 * 32);
        assert!(arr.iter().all(|a| a.msg.dst == hs[8]));
        assert!(arr.iter().all(|a| a.at == SimTime::from_us(5)));
    }

    #[test]
    #[should_panic(expected = "receiver cannot")]
    fn incast_self_rejected() {
        let hs = hosts(4);
        incast_wave(&hs, hs[0], 1, 1000, CcKind::Dcqcn, SimTime::ZERO);
    }

    #[test]
    fn random_incast_within_bounds() {
        let hs = hosts(24);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let arr = random_incast(&hs, 16, 8, CcKind::Dcqcn, SimTime::ZERO, &mut rng);
            assert!(!arr.is_empty());
            let recv = arr[0].msg.dst;
            let senders: std::collections::HashSet<_> = arr.iter().map(|a| a.src).collect();
            assert!(senders.len() >= 2 && senders.len() <= 16);
            assert!(!senders.contains(&recv));
            assert!(arr
                .iter()
                .all(|a| (10_000..=10_000_000).contains(&a.msg.bytes)));
        }
    }
}
