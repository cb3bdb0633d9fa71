//! Per-link analytic bottleneck model: min-share rates, equilibrium queue,
//! and lazily-advanced telemetry counters.
//!
//! The share rule is deliberately simple so its invariants are provable: a
//! link offers each of its `n` active flows `eff_capacity / n`. A flow's
//! rate is the minimum offer along its path, therefore per link the sum of
//! granted rates is at most `n * (capacity / n) = capacity` — capacity is
//! never oversubscribed and shares are never negative (the property the
//! proptest at the bottom pins down). When every flow on a link bottlenecks
//! there, this equals max-min fairness; when some flows are throttled
//! elsewhere the link under-uses its capacity rather than redistributing the
//! slack, which is the conservative direction for queue modeling.
//!
//! # What is cached
//!
//! A link's offer, its effective capacity, its equilibrium queue and that
//! queue's mark probability are pure in [`LinkInputs`] — `(capacity_bps,
//! ecn, n_active)` — and a rebalance reads the offer once per flow scan per
//! hop, millions of times between changes of those inputs. So [`LinkModel`]
//! stores the four values and recomputes them, through the pure functions
//! below, at the three places an input changes: `LinkModel::join` (the
//! engine's `list_push`), `LinkModel::leave` (`list_remove`) and
//! `LinkModel::set_ecn` (`SwitchView::set_ecn` on the flow backend). The
//! inputs are private to this module and read through `Deref`, so no other
//! writer can exist; `share()` re-derives its value under `debug_assert`.

use crate::ids::{NodeId, PortId};
use crate::queues::{EcnConfig, QueueTelemetry};
use crate::time::SimTime;

/// Wire bytes of a full-MTU data packet (payload + header), used to convert
/// modeled byte throughput into packet counts for telemetry.
const FULL_PKT_WIRE: f64 = 1048.0;

/// Fraction of capacity shed per unit mark probability on a saturated link:
/// `eff_capacity = capacity * (1 - DRAG * p_mark)`. This gives a tuner a
/// smooth throughput-vs-latency gradient (aggressive ECN costs bandwidth,
/// as in the ACC paper's tradeoff) while staying negligible (< 0.2%) for
/// the paper's DCQCN setting of `Pmax = 1%`.
pub const MARK_DRAG: f64 = 0.2;

/// Saturation shape parameter for [`qstar_bytes`]: the equilibrium queue
/// climbs from `Kmin` toward `Kmax` as `n / (n + QSTAR_HALF)`.
const QSTAR_HALF: f64 = 8.0;

/// Equilibrium queue depth (bytes) of a saturated link shared by `n` flows
/// under RED/ECN config `ecn`.
///
/// DCQCN/DCTCP hold a marked queue near the marking band: with few sharers
/// the operating point sits just above `Kmin`; as `n` grows, synchronized
/// rate-cuts get rarer relative to offered load and the queue climbs toward
/// `Kmax`. We model that with a saturating ramp
/// `Kmin + (Kmax - Kmin) * n / (n + 8)`, clamped to `[Kmin, Kmax]`.
/// Returns 0 for `n < 2`: a lone flow paces at its own rate and never
/// builds standing queue (below `Kmin`, it is never marked — the same
/// reason the ideal-FCT fast path is exact).
pub fn qstar_bytes(ecn: &EcnConfig, n_active: u32) -> u64 {
    if n_active < 2 {
        return 0;
    }
    let n = n_active as f64;
    let span = ecn.kmax_bytes.saturating_sub(ecn.kmin_bytes) as f64;
    let q = ecn.kmin_bytes as f64 + span * n / (n + QSTAR_HALF);
    (q as u64).clamp(ecn.kmin_bytes, ecn.kmax_bytes)
}

/// Effective capacity of a link shared by `n_active` flows: raw capacity,
/// reduced by [`MARK_DRAG`] times the equilibrium mark probability when the
/// link carries an ECN config and enough sharers to congest (`n >= 2`).
/// Pure in `(capacity, ecn, n_active)` so rate updates stay local.
pub fn eff_capacity_bps(capacity_bps: u64, ecn: Option<&EcnConfig>, n_active: u32) -> f64 {
    let cap = capacity_bps as f64;
    match ecn {
        Some(cfg) if n_active >= 2 => {
            let p = cfg.mark_probability(qstar_bytes(cfg, n_active));
            cap * (1.0 - MARK_DRAG * p)
        }
        _ => cap,
    }
}

/// The rate (bps) a link offers each of its `n_active` flows. Zero flows
/// offer the full effective capacity (the value an arriving flow would see).
pub fn share_bps(capacity_bps: u64, ecn: Option<&EcnConfig>, n_active: u32) -> f64 {
    let n = n_active.max(1) as f64;
    eff_capacity_bps(capacity_bps, ecn, n_active) / n
}

/// What a link's offer is a pure function of. [`LinkModel`] dereferences to
/// it, so these read as the link's own fields; only `LinkModel::join`,
/// `LinkModel::leave` and `LinkModel::set_ecn` write them.
#[derive(Debug, Clone)]
pub struct LinkInputs {
    /// Raw serialization capacity, bits per second.
    pub capacity_bps: u64,
    /// RED/ECN marking config; `None` on host-egress links (hosts pace,
    /// they don't mark).
    pub ecn: Option<EcnConfig>,
    /// Number of flows currently active on the link.
    pub n_active: u32,
}

/// The values cached per link, each equal to its pure function of the
/// link's [`LinkInputs`].
#[derive(Debug, Clone, Copy)]
struct Offer {
    /// [`share_bps`].
    share_bps: f64,
    /// [`eff_capacity_bps`].
    eff_bps: f64,
    /// [`qstar_bytes`]; 0 without an ECN config.
    qstar_bytes: u64,
    /// The ECN config's mark probability at `qstar_bytes`; 0 without one.
    p_star: f64,
}

impl Offer {
    fn of(inputs: &LinkInputs) -> Offer {
        let (cap, ecn, n) = (inputs.capacity_bps, inputs.ecn.as_ref(), inputs.n_active);
        let qstar = ecn.map_or(0, |cfg| qstar_bytes(cfg, n));
        Offer {
            share_bps: share_bps(cap, ecn, n),
            eff_bps: eff_capacity_bps(cap, ecn, n),
            qstar_bytes: qstar,
            p_star: ecn.map_or(0.0, |cfg| cfg.mark_probability(qstar)),
        }
    }
}

/// One directed link's analytic state: capacity, ECN config, the intrusive
/// active-flow list head, and lazily-advanced telemetry.
///
/// Telemetry counters mirror the packet engine's
/// [`QueueTelemetry`] semantics — monotone totals a
/// controller differences between ticks — but are integrated analytically:
/// on every transition touching the link, the elapsed interval is priced at
/// the current aggregate rate and modeled queue depth.
#[derive(Debug, Clone)]
pub struct LinkModel {
    inputs: LinkInputs,
    /// Always `Offer::of(&inputs)`.
    offer: Offer,
    /// Propagation delay of the link.
    pub delay: SimTime,
    /// Node the link leaves from.
    pub from_node: NodeId,
    /// Egress port on `from_node`.
    pub from_port: PortId,
    /// Head of the intrusive active-flow list (packed flow/hop ref), or
    /// [`super::engine::NIL`].
    pub(crate) head: u32,
    /// Sum of the rates currently granted to flows on this link, bps.
    /// Maintained incrementally; drives throughput telemetry.
    pub sum_rate_bps: f64,
    /// Monotone telemetry counters, advanced lazily up to `last_advance`.
    pub telem: QueueTelemetry,
    /// Time the telemetry integrals were last advanced to.
    pub(crate) last_advance: SimTime,
    /// Fractional-byte residue carried between telemetry advances.
    tx_bytes_frac: f64,
    /// Fractional-packet residue.
    tx_pkts_frac: f64,
    /// Fractional marked-byte residue.
    tx_marked_bytes_frac: f64,
    /// Fractional marked-packet residue.
    tx_marked_pkts_frac: f64,
}

impl std::ops::Deref for LinkModel {
    type Target = LinkInputs;

    fn deref(&self) -> &LinkInputs {
        &self.inputs
    }
}

impl LinkModel {
    /// A fresh link model with idle telemetry.
    pub fn new(
        capacity_bps: u64,
        delay: SimTime,
        ecn: Option<EcnConfig>,
        from_node: NodeId,
        from_port: PortId,
    ) -> Self {
        let inputs = LinkInputs {
            capacity_bps,
            ecn,
            n_active: 0,
        };
        LinkModel {
            offer: Offer::of(&inputs),
            inputs,
            delay,
            from_node,
            from_port,
            head: u32::MAX,
            sum_rate_bps: 0.0,
            telem: QueueTelemetry::default(),
            last_advance: SimTime::ZERO,
            tx_bytes_frac: 0.0,
            tx_pkts_frac: 0.0,
            tx_marked_bytes_frac: 0.0,
            tx_marked_pkts_frac: 0.0,
        }
    }

    /// One more flow is active on the link.
    pub(crate) fn join(&mut self) {
        self.inputs.n_active += 1;
        self.offer = Offer::of(&self.inputs);
    }

    /// One active flow left the link.
    pub(crate) fn leave(&mut self) {
        self.inputs.n_active -= 1;
        self.offer = Offer::of(&self.inputs);
    }

    /// Replace the marking config.
    pub(crate) fn set_ecn(&mut self, ecn: Option<EcnConfig>) {
        self.inputs.ecn = ecn;
        self.offer = Offer::of(&self.inputs);
    }

    /// The rate this link offers each current flow, bps.
    #[inline]
    pub fn share(&self) -> f64 {
        debug_assert_eq!(
            self.offer.share_bps.to_bits(),
            share_bps(self.capacity_bps, self.ecn.as_ref(), self.n_active).to_bits(),
            "cached share is stale"
        );
        self.offer.share_bps
    }

    /// Granted rates within 5% of effective capacity. Flows all
    /// bottlenecked elsewhere leave the queue empty.
    fn saturated(&self) -> bool {
        self.sum_rate_bps >= 0.95 * self.offer.eff_bps
    }

    /// Modeled instantaneous queue depth in bytes: the equilibrium queue —
    /// itself zero unless the link marks and is shared (`n >= 2`) — when
    /// the link is saturated, else zero.
    pub fn qlen_bytes(&self) -> u64 {
        if self.saturated() {
            self.offer.qstar_bytes
        } else {
            0
        }
    }

    /// Current equilibrium mark probability (0 when the queue model is
    /// empty or the link has no ECN config).
    pub fn mark_probability(&self) -> f64 {
        if self.saturated() {
            self.offer.p_star
        } else {
            self.ecn.map_or(0.0, |cfg| cfg.mark_probability(0))
        }
    }

    /// Advance the telemetry integrals from `last_advance` to `now`,
    /// pricing the interval at the current aggregate rate and modeled
    /// queue. Idempotent at equal timestamps; call before any membership
    /// or rate change on the link.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.last_advance);
        if dt == SimTime::ZERO {
            return;
        }
        self.last_advance = now;
        if self.sum_rate_bps <= 0.0 {
            return;
        }
        let dt_s = dt.as_secs_f64();
        let bytes = self.sum_rate_bps / 8.0 * dt_s + self.tx_bytes_frac;
        let whole = bytes.floor();
        self.tx_bytes_frac = bytes - whole;
        self.telem.tx_bytes += whole as u64;

        let pkts = self.sum_rate_bps / 8.0 * dt_s / FULL_PKT_WIRE + self.tx_pkts_frac;
        let whole_p = pkts.floor();
        self.tx_pkts_frac = pkts - whole_p;
        self.telem.tx_pkts += whole_p as u64;
        self.telem.enq_pkts += whole_p as u64;

        let q = self.qlen_bytes();
        self.telem.qlen_integral_byte_ps += (q as u128) * (dt.as_ps() as u128);
        self.telem.max_qlen_bytes = self.telem.max_qlen_bytes.max(q);

        let p = self.mark_probability();
        if p > 0.0 {
            let mb = self.sum_rate_bps / 8.0 * dt_s * p + self.tx_marked_bytes_frac;
            let mw = mb.floor();
            self.tx_marked_bytes_frac = mb - mw;
            self.telem.tx_marked_bytes += mw as u64;
            let mp = self.sum_rate_bps / 8.0 * dt_s / FULL_PKT_WIRE * p + self.tx_marked_pkts_frac;
            let mpw = mp.floor();
            self.tx_marked_pkts_frac = mp - mpw;
            self.telem.tx_marked_pkts += mpw as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dcqcn() -> EcnConfig {
        EcnConfig::dcqcn_paper()
    }

    #[test]
    fn qstar_shape() {
        let cfg = dcqcn();
        assert_eq!(qstar_bytes(&cfg, 0), 0);
        assert_eq!(qstar_bytes(&cfg, 1), 0);
        let q2 = qstar_bytes(&cfg, 2);
        let q8 = qstar_bytes(&cfg, 8);
        let q1000 = qstar_bytes(&cfg, 1000);
        assert!(q2 >= cfg.kmin_bytes && q2 <= cfg.kmax_bytes);
        assert!(q8 > q2, "queue grows with sharers");
        assert!(q1000 <= cfg.kmax_bytes, "clamped at Kmax");
    }

    #[test]
    fn shares_bounded_by_capacity() {
        let cfg = dcqcn();
        for n in 0..64u32 {
            let s = share_bps(25_000_000_000, Some(&cfg), n);
            assert!(s >= 0.0);
            assert!(s * n.max(1) as f64 <= 25_000_000_000.0 + 1.0);
        }
    }

    #[test]
    fn telemetry_integrates_rate() {
        let mut l = LinkModel::new(
            25_000_000_000,
            SimTime::from_ns(500),
            Some(dcqcn()),
            NodeId(0),
            PortId(0),
        );
        l.join();
        l.join();
        l.sum_rate_bps = 25_000_000_000.0;
        l.advance(SimTime::from_us(100));
        // 25 Gbps for 100 us = 312_500 bytes.
        assert!((l.telem.tx_bytes as i64 - 312_500).abs() <= 1);
        assert!(l.telem.tx_pkts > 0);
        assert!(l.telem.qlen_integral_byte_ps > 0, "saturated link queues");
        // Idempotent at the same timestamp.
        let snap = l.telem.tx_bytes;
        l.advance(SimTime::from_us(100));
        assert_eq!(l.telem.tx_bytes, snap);
    }

    #[test]
    fn lone_flow_never_marks() {
        let mut l = LinkModel::new(
            25_000_000_000,
            SimTime::from_ns(500),
            Some(dcqcn()),
            NodeId(0),
            PortId(0),
        );
        l.join();
        l.sum_rate_bps = 25_000_000_000.0;
        l.advance(SimTime::from_ms(1));
        assert_eq!(l.telem.tx_marked_bytes, 0);
        assert_eq!(l.qlen_bytes(), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// After any sequence of joins, leaves and ECN rewrites the
            /// cached offer equals the pure functions of the link's inputs
            /// bit for bit, and so do the queue depth and mark probability
            /// read through it, saturated or not.
            #[test]
            fn cached_offer_equals_pure_functions(
                cap in 1_000_000u64..400_000_000_000,
                marks_at_start in any::<bool>(),
                // (op, kmin, span, pmax, granted fraction of capacity)
                ops in prop::collection::vec(
                    (0u8..4, 0u64..100_000, 0u64..500_000, 0.0f64..=1.0, 0.0f64..1.2),
                    1..64,
                ),
            ) {
                let start = marks_at_start.then(EcnConfig::dcqcn_paper);
                let mut l = LinkModel::new(cap, SimTime::from_ns(500), start, NodeId(0), PortId(0));
                for (op, kmin, span, pmax, granted) in ops {
                    match op {
                        0 | 1 => l.join(),
                        2 if l.n_active > 0 => l.leave(),
                        2 => l.set_ecn(None),
                        _ => l.set_ecn(Some(EcnConfig::new(kmin, kmin + span, pmax))),
                    }
                    l.sum_rate_bps = granted * cap as f64;

                    let (ecn, n) = (l.ecn, l.n_active);
                    let eff = eff_capacity_bps(cap, ecn.as_ref(), n);
                    let qlen = match &ecn {
                        Some(cfg) if n >= 2 && l.sum_rate_bps >= 0.95 * eff => qstar_bytes(cfg, n),
                        _ => 0,
                    };
                    let p_mark = ecn.map_or(0.0, |cfg| cfg.mark_probability(qlen));
                    prop_assert_eq!(l.share().to_bits(), share_bps(cap, ecn.as_ref(), n).to_bits());
                    prop_assert_eq!(l.offer.eff_bps.to_bits(), eff.to_bits());
                    prop_assert_eq!(l.qlen_bytes(), qlen);
                    prop_assert_eq!(l.mark_probability().to_bits(), p_mark.to_bits());
                }
            }

            /// Shares are non-negative and per link the sum of granted
            /// min-share rates never exceeds raw capacity: each of the
            /// `n` flows is granted at most this link's offer
            /// `eff_cap / n <= cap / n`.
            #[test]
            fn min_share_within_capacity(
                caps in prop::collection::vec(1_000_000u64..400_000_000_000, 1..8),
                // Flows as index sets into the link vector (paths).
                paths in prop::collection::vec(
                    prop::collection::vec(0usize..8, 1..6), 0..32),
                kmin in 1_000u64..100_000,
                span in 0u64..500_000,
                pmax in 0.0f64..=1.0,
            ) {
                let ecn = EcnConfig::new(kmin, kmin + span, pmax);
                // Count active flows per link.
                let mut n_active = vec![0u32; caps.len()];
                let paths: Vec<Vec<usize>> = paths
                    .into_iter()
                    .map(|p| p.into_iter().map(|i| i % caps.len()).collect())
                    .collect();
                for p in &paths {
                    let mut seen = [false; 8];
                    for &l in p {
                        if !seen[l] {
                            seen[l] = true;
                            n_active[l] += 1;
                        }
                    }
                }
                // Grant each flow its min share; accumulate per link.
                let mut granted = vec![0.0f64; caps.len()];
                for p in &paths {
                    let rate = p
                        .iter()
                        .map(|&l| share_bps(caps[l], Some(&ecn), n_active[l]))
                        .fold(f64::INFINITY, f64::min);
                    prop_assert!(rate >= 0.0, "share must be non-negative");
                    prop_assert!(rate.is_finite());
                    let mut seen = [false; 8];
                    for &l in p {
                        if !seen[l] {
                            seen[l] = true;
                            granted[l] += rate;
                        }
                    }
                }
                for (l, &g) in granted.iter().enumerate() {
                    // Tolerance for f64 summation only: the bound itself
                    // is exact.
                    prop_assert!(
                        g <= caps[l] as f64 * (1.0 + 1e-9),
                        "link {l}: granted {g} > capacity {}",
                        caps[l]
                    );
                }
            }
        }
    }
}
