//! Safe-mode guardrails: keep a learned ECN tuner from wedging the fabric.
//!
//! The paper deploys ACC on production switch CPUs (§4.3); follow-up work
//! (GraphCC, PET) calls out robustness-under-deployment as the weak point of
//! learned ECN tuning. A DDQN emitting one absurd `{Kmin, Kmax, Pmax}` — or
//! reading a frozen telemetry register and confidently acting on stale state
//! — must never be able to blackhole a queue. This module is the deployment
//! harness that makes that guarantee:
//!
//! * [`QueueGuard`] — a pure, per-queue state machine that *vets* every
//!   proposed config against ordering, bounds and rate-of-change limits,
//!   watches the observation stream for frozen/blank telemetry and reward
//!   anomalies, and falls back to the static SECN1 profile ([`FALLBACK`])
//!   when the agent looks unhealthy, with hysteresis before control is
//!   handed back. Pure in/out, so its invariants are
//!   property-tested directly.
//! * [`GuardedController`] — a [`QueueController`] wrapper that runs an
//!   inner controller (normally [`AccController`]) and then applies a
//!   [`QueueGuard`] verdict to each tuned queue, emitting every violation,
//!   trip and recovery through the flight recorder. In *monitor* mode
//!   (`enforce = false`) it only counts — byte-identical behaviour to the
//!   raw agent, which is what makes "guarded vs raw" comparable in the
//!   `fault` experiment.
//!
//! The invariant the guard maintains — checked by `debug_assert!` here and
//! by proptests in `crates/core/tests/guard_properties.rs` — is that every
//! applied config satisfies `0 < Kmin <= Kmax <= ceiling` and
//! `pmax_floor <= Pmax <= 1`, and consecutive agent-applied configs move by
//! at most the step limits. The floors, ceilings, step limits and
//! hysteresis are this module's constants; the one setting is
//! [`GuardConfig::enforce`].

use crate::controller::AccController;
use crate::static_ecn::StaticEcnPolicy;
use netsim::prelude::*;
use netsim::queues::{EcnConfig, QueueTelemetry};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Smallest acceptable `Kmin`, bytes (0 would disable marking entirely).
pub const KMIN_FLOOR_BYTES: u64 = 1024;
/// Largest acceptable `Kmax`, bytes (beyond this marking never engages
/// before the buffer does).
pub const KMAX_CEILING_BYTES: u64 = 16 * 1024 * 1024;
/// Smallest acceptable `Pmax` (0 would disable probabilistic marking).
pub const PMAX_FLOOR: f64 = 0.001;
/// Largest multiplicative move of `Kmin`/`Kmax` between consecutive
/// agent-applied configs (the template ladder doubles per rung, so 8.0
/// allows three rungs per interval; ε-greedy leaps across the whole ladder
/// get clamped).
pub const MAX_STEP_FACTOR: f64 = 8.0;
/// Largest absolute move of `Pmax` between consecutive agent configs.
pub const MAX_PMAX_STEP: f64 = 0.2;
/// Consecutive identical non-empty observations before telemetry is
/// declared stale (a busy queue cannot produce two bit-identical readings:
/// its time-integral advances whenever bytes are queued).
pub const STALE_TICKS: u32 = 3;
/// Rewards with `|r|` above this (or non-finite) are anomalies.
pub const REWARD_BOUND: f64 = 1e3;
/// Static profile applied while the agent is distrusted. SECN1 (5 KB /
/// 200 KB / 1 %) lies inside the floors and ceilings above.
pub const FALLBACK: StaticEcnPolicy = StaticEcnPolicy::Secn1;
/// Minimum ticks spent in fallback once tripped (hysteresis floor).
pub const HOLD_TICKS: u32 = 8;
/// Consecutive healthy ticks required (in addition to [`HOLD_TICKS`])
/// before control returns to the agent.
pub const RECOVERY_TICKS: u32 = 4;

/// How a [`GuardedController`] treats what it finds. The thresholds are the
/// module's constants.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GuardConfig {
    /// `true`: clamp/override what the agent applied. `false`: *monitor
    /// only* — count violations but leave the fabric untouched.
    pub enforce: bool,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { enforce: true }
    }
}

/// One reason the guard intervened (or would have, in monitor mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardViolation {
    /// `Kmin > Kmax` in the proposed config.
    BadOrdering,
    /// A threshold or probability outside the floors/ceilings.
    OutOfBounds,
    /// A NaN/infinite probability or EWMA weight.
    NonFinite,
    /// The config moved further than the per-interval change limits allow.
    RateOfChange,
    /// The observation stream froze: identical non-empty readings for
    /// [`STALE_TICKS`] consecutive intervals.
    StaleTelemetry,
    /// A monotone counter moved backwards (blanked/reset register reads).
    TelemetryRegression,
    /// Non-finite or absurdly large reward.
    RewardAnomaly,
    /// The agent's numeric kernels signalled trouble (NaN Q-values or
    /// non-finite TD targets during training/inference). Agent-level, not
    /// per-queue: reported by [`AccController::agent_anomalies`] rather
    /// than by [`QueueGuard::vet`]. The agent's update runs beside the
    /// engine and is not waited for here, so a NaN Q-vector at action
    /// selection is reported in the tick it happened, a non-finite TD
    /// target in the update of tick `t` one interval later, in tick `t+1`.
    TrainingAnomaly,
}

impl GuardViolation {
    /// Stable machine-readable name (used in telemetry events).
    pub fn name(self) -> &'static str {
        match self {
            GuardViolation::BadOrdering => "bad_ordering",
            GuardViolation::OutOfBounds => "out_of_bounds",
            GuardViolation::NonFinite => "non_finite",
            GuardViolation::RateOfChange => "rate_of_change",
            GuardViolation::StaleTelemetry => "stale_telemetry",
            GuardViolation::TelemetryRegression => "telemetry_regression",
            GuardViolation::RewardAnomaly => "reward_anomaly",
            GuardViolation::TrainingAnomaly => "training_anomaly",
        }
    }

    /// True for violations *of the proposed config* (as opposed to health
    /// violations of the observation stream). Config violations are what a
    /// fabric without a guard would have running live.
    pub fn is_config(self) -> bool {
        matches!(
            self,
            GuardViolation::BadOrdering
                | GuardViolation::OutOfBounds
                | GuardViolation::NonFinite
                | GuardViolation::RateOfChange
        )
    }
}

/// What the guard observes about one queue on one control tick.
#[derive(Clone, Copy, Debug)]
pub struct GuardObs {
    /// Queue depth as read by the agent (possibly distorted by faults).
    pub qlen_bytes: u64,
    /// Cumulative counters as read by the agent.
    pub telem: QueueTelemetry,
    /// Reward the agent computed for the previous interval.
    pub reward: f64,
    /// Line rate of the port, bits/s (sizes the fallback profile).
    pub link_bps: u64,
}

/// The guard's verdict for one queue on one tick.
#[derive(Clone, Debug)]
pub struct GuardDecision {
    /// The config that should be live in the fabric after this tick.
    pub applied: EcnConfig,
    /// Everything wrong with the proposal and/or the observation stream.
    pub violations: Vec<GuardViolation>,
    /// The guard entered fallback on this tick.
    pub tripped: bool,
    /// The guard handed control back to the agent on this tick.
    pub recovered: bool,
    /// The guard is (still) in fallback after this tick.
    pub in_fallback: bool,
}

#[derive(Clone, Copy, Debug, Default)]
enum Mode {
    #[default]
    Active,
    Fallback {
        held: u32,
        healthy: u32,
    },
}

/// Per-queue safe-mode state machine. Pure: feed it the proposed config and
/// the observation each tick, get back what to apply. See the module docs
/// for the maintained invariants.
#[derive(Default)]
pub struct QueueGuard {
    mode: Mode,
    /// Previous (qlen, counters) reading, for freeze detection.
    last_obs: Option<(u64, QueueTelemetry)>,
    /// Consecutive identical non-empty readings seen so far.
    stale_count: u32,
    /// Field-wise high-water marks of the monotone counters. Kept across
    /// blanked intervals so a sustained blank stays unhealthy instead of
    /// looking "recovered" after one comparison against zeroed state.
    high_water: QueueTelemetry,
    /// Config applied by the *agent* on the previous agent-controlled tick
    /// (None right after a trip/startup, which exempts the next application
    /// from rate-of-change limits — fallback must engage in one step).
    last_applied: Option<EcnConfig>,
}

impl QueueGuard {
    /// A fresh guard in agent-controlled mode.
    pub fn new() -> Self {
        QueueGuard::default()
    }

    /// True while the static fallback profile is in force.
    pub fn in_fallback(&self) -> bool {
        matches!(self.mode, Mode::Fallback { .. })
    }

    /// Clamp a config to the guard's absolute bounds (no rate limits).
    fn clamp_bounds(mut c: EcnConfig, violations: &mut Vec<GuardViolation>) -> EcnConfig {
        if !c.pmax.is_finite() {
            violations.push(GuardViolation::NonFinite);
            c.pmax = FALLBACK
                .config_for(25_000_000_000)
                .pmax
                .clamp(PMAX_FLOOR, 1.0);
        }
        if c.pmax < PMAX_FLOOR || c.pmax > 1.0 {
            violations.push(GuardViolation::OutOfBounds);
            c.pmax = c.pmax.clamp(PMAX_FLOOR, 1.0);
        }
        if c.kmin_bytes < KMIN_FLOOR_BYTES || c.kmin_bytes > KMAX_CEILING_BYTES {
            violations.push(GuardViolation::OutOfBounds);
            c.kmin_bytes = c.kmin_bytes.clamp(KMIN_FLOOR_BYTES, KMAX_CEILING_BYTES);
        }
        if c.kmax_bytes > KMAX_CEILING_BYTES {
            violations.push(GuardViolation::OutOfBounds);
            c.kmax_bytes = KMAX_CEILING_BYTES;
        }
        if c.kmin_bytes > c.kmax_bytes {
            violations.push(GuardViolation::BadOrdering);
            c.kmax_bytes = c.kmin_bytes;
        }
        c
    }

    /// Apply the per-interval rate-of-change limits relative to `last`.
    fn clamp_rate(
        mut c: EcnConfig,
        last: &EcnConfig,
        violations: &mut Vec<GuardViolation>,
    ) -> EcnConfig {
        let clamp_k = |v: u64, prev: u64, hit: &mut bool| -> u64 {
            let lo = ((prev as f64) / MAX_STEP_FACTOR).floor() as u64;
            let hi = ((prev as f64) * MAX_STEP_FACTOR).ceil() as u64;
            if v < lo {
                *hit = true;
                lo
            } else if v > hi {
                *hit = true;
                hi
            } else {
                v
            }
        };
        let mut hit = false;
        c.kmin_bytes = clamp_k(c.kmin_bytes, last.kmin_bytes, &mut hit);
        c.kmax_bytes = clamp_k(c.kmax_bytes, last.kmax_bytes, &mut hit);
        if (c.pmax - last.pmax).abs() > MAX_PMAX_STEP {
            hit = true;
            c.pmax = if c.pmax > last.pmax {
                last.pmax + MAX_PMAX_STEP
            } else {
                last.pmax - MAX_PMAX_STEP
            };
        }
        if hit {
            violations.push(GuardViolation::RateOfChange);
        }
        c
    }

    /// Health-check the observation stream, updating freeze/high-water
    /// state. Returns violations (empty = healthy tick).
    fn check_health(&mut self, obs: &GuardObs) -> Vec<GuardViolation> {
        let mut v = Vec::new();
        let t = &obs.telem;
        let hw = &self.high_water;
        // Monotone counters must never move backwards.
        if t.tx_bytes < hw.tx_bytes
            || t.tx_pkts < hw.tx_pkts
            || t.enq_pkts < hw.enq_pkts
            || t.drops < hw.drops
            || t.qlen_integral_byte_ps < hw.qlen_integral_byte_ps
        {
            v.push(GuardViolation::TelemetryRegression);
        }
        // A non-empty queue cannot read bit-identically twice: its
        // time-integral advances whenever bytes sit in it.
        if let Some((last_q, last_t)) = &self.last_obs {
            if *last_q == obs.qlen_bytes && *last_t == obs.telem && obs.qlen_bytes > 0 {
                self.stale_count += 1;
            } else {
                self.stale_count = 0;
            }
        }
        if self.stale_count >= STALE_TICKS {
            v.push(GuardViolation::StaleTelemetry);
        }
        if !obs.reward.is_finite() || obs.reward.abs() > REWARD_BOUND {
            v.push(GuardViolation::RewardAnomaly);
        }
        self.high_water = QueueTelemetry {
            tx_bytes: hw.tx_bytes.max(t.tx_bytes),
            tx_pkts: hw.tx_pkts.max(t.tx_pkts),
            tx_marked_pkts: hw.tx_marked_pkts.max(t.tx_marked_pkts),
            tx_marked_bytes: hw.tx_marked_bytes.max(t.tx_marked_bytes),
            drops: hw.drops.max(t.drops),
            enq_pkts: hw.enq_pkts.max(t.enq_pkts),
            qlen_integral_byte_ps: hw.qlen_integral_byte_ps.max(t.qlen_integral_byte_ps),
            max_qlen_bytes: hw.max_qlen_bytes.max(t.max_qlen_bytes),
        };
        self.last_obs = Some((obs.qlen_bytes, obs.telem));
        v
    }

    /// Vet one tick: `proposal` is the config the agent left applied
    /// (`None` = nothing configured), `obs` is what the agent read. Returns
    /// the config that must be live afterwards plus everything that was
    /// wrong. The returned `applied` always satisfies the guard invariants.
    pub fn vet(&mut self, proposal: Option<EcnConfig>, obs: &GuardObs) -> GuardDecision {
        let mut violations = self.check_health(obs);
        let healthy = violations.is_empty();

        let fallback = FALLBACK.config_for(obs.link_bps);

        // Sanitize the agent's proposal.
        let raw = proposal.unwrap_or(fallback);
        let mut c = Self::clamp_bounds(raw, &mut violations);
        if let (Mode::Active, Some(last)) = (&self.mode, &self.last_applied) {
            c = Self::clamp_rate(c, last, &mut violations);
            // Rate clamping cannot break ordering by construction (both
            // thresholds move within multiplicative bands), but keep the
            // invariant airtight:
            if c.kmin_bytes > c.kmax_bytes {
                c.kmax_bytes = c.kmin_bytes;
            }
        }

        let mut tripped = false;
        let mut recovered = false;
        let applied;
        match self.mode {
            Mode::Active => {
                if healthy {
                    applied = c;
                    self.last_applied = Some(c);
                } else {
                    tripped = true;
                    self.mode = Mode::Fallback {
                        held: 0,
                        healthy: 0,
                    };
                    applied = fallback;
                    // Next agent application is exempt from rate limits.
                    self.last_applied = None;
                }
            }
            Mode::Fallback {
                mut held,
                healthy: mut ok,
            } => {
                held = held.saturating_add(1);
                ok = if healthy { ok.saturating_add(1) } else { 0 };
                if held >= HOLD_TICKS && ok >= RECOVERY_TICKS {
                    recovered = true;
                    self.mode = Mode::Active;
                    applied = c;
                    self.last_applied = Some(c);
                } else {
                    self.mode = Mode::Fallback { held, healthy: ok };
                    applied = fallback;
                }
            }
        }

        debug_assert!(applied.kmin_bytes > 0, "guard invariant: Kmin > 0");
        debug_assert!(
            applied.kmin_bytes <= applied.kmax_bytes,
            "guard invariant: Kmin <= Kmax"
        );
        debug_assert!(
            applied.kmax_bytes <= KMAX_CEILING_BYTES,
            "guard invariant: Kmax <= ceiling"
        );
        debug_assert!(
            applied.pmax >= PMAX_FLOOR && applied.pmax <= 1.0,
            "guard invariant: pmax in [floor, 1]"
        );

        GuardDecision {
            applied,
            violations,
            tripped,
            recovered,
            in_fallback: self.in_fallback(),
        }
    }
}

/// Counters over every queue of one [`GuardedController`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Control ticks handled.
    pub ticks: u64,
    /// Violations of any kind detected (config + health).
    pub violations_detected: u64,
    /// Config violations left *live in the fabric* after the tick. Zero by
    /// construction when enforcing; in monitor mode this counts what an
    /// unguarded deployment actually runs with — the comparison number of
    /// the `fault` experiment.
    pub violations_applied: u64,
    /// Times the guard overwrote the agent's applied config.
    pub clamps: u64,
    /// Trips into fallback.
    pub trips: u64,
    /// Recoveries back to the agent.
    pub recoveries: u64,
    /// Ticks spent with the fallback profile in force (per queue).
    pub fallback_ticks: u64,
    /// Training anomalies (NaN Q-values / non-finite TD targets) the inner
    /// agent signalled. Agent-level: also counted in `violations_detected`.
    pub agent_anomalies: u64,
}

impl std::ops::AddAssign for GuardStats {
    /// Fold another controller's (or another shard's) counters in.
    fn add_assign(&mut self, o: GuardStats) {
        self.ticks += o.ticks;
        self.violations_detected += o.violations_detected;
        self.violations_applied += o.violations_applied;
        self.clamps += o.clamps;
        self.trips += o.trips;
        self.recoveries += o.recoveries;
        self.fallback_ticks += o.fallback_ticks;
        self.agent_anomalies += o.agent_anomalies;
    }
}

/// A [`QueueController`] that wraps an inner controller with per-queue
/// [`QueueGuard`]s. Runs the inner controller first, then vets what it left
/// applied on every targeted queue. See [`GuardConfig::enforce`] for
/// enforce-vs-monitor semantics.
pub struct GuardedController {
    inner: Box<dyn QueueController>,
    enforce: bool,
    target_prios: Vec<Prio>,
    guards: HashMap<(u16, Prio), QueueGuard>,
    /// Aggregated counters across all guarded queues.
    pub stats: GuardStats,
    recorder: Option<telemetry::SharedRecorder>,
    /// Inner agent's anomaly count at the last tick (for delta polling).
    agent_anomalies_seen: u64,
}

impl GuardedController {
    /// Guard `inner`, vetting the given traffic classes on every port.
    pub fn new(inner: Box<dyn QueueController>, cfg: GuardConfig, target_prios: Vec<Prio>) -> Self {
        GuardedController {
            inner,
            enforce: cfg.enforce,
            target_prios,
            guards: HashMap::new(),
            stats: GuardStats::default(),
            recorder: None,
            agent_anomalies_seen: 0,
        }
    }

    /// Attach a flight recorder: trips, recoveries and violations emit
    /// [`telemetry::EventSample`]s, and the recorder is forwarded to an
    /// inner [`AccController`] so agent samples keep flowing too.
    pub fn set_recorder(&mut self, rec: telemetry::SharedRecorder) {
        if let Some(acc) = self.inner.as_any_mut().downcast_mut::<AccController>() {
            acc.set_recorder(rec.clone());
        }
        self.recorder = Some(rec);
    }

    /// The wrapped controller, for harness-side downcasting.
    pub fn inner_mut(&mut self) -> &mut dyn QueueController {
        self.inner.as_mut()
    }

    fn emit(&self, view: &SwitchView<'_>, port: PortId, prio: Prio, kind: &str, detail: &str) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record_event(&telemetry::EventSample {
                t_ps: view.now().as_ps(),
                node: view.node().0,
                port: port.0,
                prio,
                kind: kind.to_string(),
                detail: detail.to_string(),
            });
        }
    }
}

impl QueueController for GuardedController {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        self.inner.on_tick(view);
        // The vet pass (everything after the inner tick) gets its own span
        // when self-profiling is on.
        let vet_t0 = view.profiling_enabled().then(std::time::Instant::now);
        self.stats.ticks += 1;
        let n_ports = view.num_ports();
        // Poll the inner agent's numeric-anomaly counter: NaN Q-values or
        // non-finite TD targets surface here as an agent-level violation
        // (emitted against port 0 / the first guarded class, since the
        // signal is not attributable to a single queue). The count is as
        // of the agent's last finished update — this tick's is still
        // running — plus this tick's selection.
        let agent_anoms = self
            .inner
            .as_any_mut()
            .downcast_mut::<AccController>()
            .map(|a| a.agent_anomalies());
        if let Some(total) = agent_anoms {
            let delta = total.saturating_sub(self.agent_anomalies_seen);
            self.agent_anomalies_seen = total;
            if delta > 0 {
                self.stats.agent_anomalies += delta;
                self.stats.violations_detected += delta;
                if let Some(&prio) = self.target_prios.first() {
                    self.emit(
                        view,
                        PortId(0),
                        prio,
                        "guard_violation",
                        GuardViolation::TrainingAnomaly.name(),
                    );
                }
            }
        }
        for p in 0..n_ports {
            let port = PortId(p as u16);
            for i in 0..self.target_prios.len() {
                let prio = self.target_prios[i];
                let snap = view.snapshot(port, prio);
                let reward = self
                    .inner
                    .as_any_mut()
                    .downcast_mut::<AccController>()
                    .and_then(|a| a.last_reward(port, prio))
                    .unwrap_or(0.0);
                let obs = GuardObs {
                    qlen_bytes: snap.qlen_bytes,
                    telem: snap.telem,
                    reward,
                    link_bps: snap.link_bps,
                };
                let guard = self.guards.entry((port.0, prio)).or_default();
                let d = guard.vet(snap.ecn, &obs);
                self.stats.violations_detected += d.violations.len() as u64;
                let config_violations =
                    d.violations.iter().filter(|v| v.is_config()).count() as u64;
                if self.enforce {
                    if snap.ecn != Some(d.applied) {
                        view.set_ecn(port, prio, Some(d.applied));
                        self.stats.clamps += 1;
                    }
                } else {
                    // Monitor mode: the agent's config stays live.
                    self.stats.violations_applied += config_violations;
                }
                if d.in_fallback {
                    self.stats.fallback_ticks += 1;
                }
                for v in &d.violations {
                    self.emit(view, port, prio, "guard_violation", v.name());
                }
                if d.tripped {
                    self.stats.trips += 1;
                    self.emit(view, port, prio, "guard_trip", FALLBACK.name());
                }
                if d.recovered {
                    self.stats.recoveries += 1;
                    self.emit(view, port, prio, "guard_recover", "");
                }
            }
        }
        if let Some(t0) = vet_t0 {
            view.profile_span("guard_vet", t0);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Install guarded ACC controllers on every switch: same layout as
/// [`crate::controller::install_acc`], with each [`AccController`] wrapped
/// in a [`GuardedController`] using `guard_cfg`. Returns the shared global
/// replay handle.
pub fn install_guarded_acc<H: ControllerHost>(
    sim: &mut H,
    cfg: &crate::controller::AccConfig,
    space: &crate::action::ActionSpace,
    guard_cfg: &GuardConfig,
) -> Rc<RefCell<rl::ReplayBuffer>> {
    crate::controller::install_dacc(sim, cfg, space, None, Some(guard_cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(qlen: u64, tx_bytes: u64, reward: f64) -> GuardObs {
        GuardObs {
            qlen_bytes: qlen,
            telem: QueueTelemetry {
                tx_bytes,
                tx_pkts: tx_bytes / 1000,
                qlen_integral_byte_ps: tx_bytes as u128 * 7,
                enq_pkts: tx_bytes / 1000,
                ..Default::default()
            },
            reward,
            link_bps: 25_000_000_000,
        }
    }

    #[test]
    fn valid_config_passes_untouched() {
        let mut g = QueueGuard::new();
        let c = EcnConfig::new(20 * 1024, 1024 * 1024, 0.05);
        let d = g.vet(Some(c), &obs(5000, 1_000_000, 0.5));
        assert_eq!(d.applied, c);
        assert!(d.violations.is_empty());
        assert!(!d.tripped && !d.in_fallback);
    }

    #[test]
    fn bad_ordering_and_bounds_are_clamped() {
        let mut g = QueueGuard::new();
        let c = EcnConfig {
            kmin_bytes: 0,
            kmax_bytes: 100 * 1024 * 1024,
            pmax: 7.5,
        };
        let d = g.vet(Some(c), &obs(0, 0, 0.0));
        assert!(d.applied.kmin_bytes >= 1024);
        assert!(d.applied.kmax_bytes <= 16 * 1024 * 1024);
        assert!(d.applied.pmax <= 1.0);
        assert!(d.violations.contains(&GuardViolation::OutOfBounds));
    }

    #[test]
    fn rate_of_change_is_limited_between_active_ticks() {
        let mut g = QueueGuard::new();
        let small = EcnConfig::new(20 * 1024, 200 * 1024, 0.01);
        let d1 = g.vet(Some(small), &obs(1000, 10_000, 0.1));
        assert_eq!(d1.applied, small);
        // 512x leap: clamped to 8x.
        let huge = EcnConfig::new(10 * 1024 * 1024, 10 * 1024 * 1024, 1.0);
        let d2 = g.vet(Some(huge), &obs(2000, 20_000, 0.1));
        assert!(d2.violations.contains(&GuardViolation::RateOfChange));
        assert_eq!(d2.applied.kmin_bytes, 8 * 20 * 1024);
        assert!((d2.applied.pmax - 0.21).abs() < 1e-9);
        assert!(d2.applied.kmin_bytes <= d2.applied.kmax_bytes);
    }

    #[test]
    fn frozen_telemetry_trips_then_recovers_with_hysteresis() {
        let (stale, hold, rec) = (STALE_TICKS, HOLD_TICKS, RECOVERY_TICKS);
        let mut g = QueueGuard::new();
        let c = EcnConfig::new(20 * 1024, 200 * 1024, 0.01);
        let frozen = obs(4096, 1_000_000, 0.4);
        let mut tripped_at = None;
        for i in 0..stale + 2 {
            let d = g.vet(Some(c), &frozen);
            if d.tripped {
                tripped_at = Some(i);
                break;
            }
        }
        let tripped_at = tripped_at.expect("frozen stream must trip");
        assert!(
            tripped_at <= stale + 1,
            "fallback engages within stale_ticks+1 intervals"
        );
        assert!(g.in_fallback());
        // Healthy traffic resumes: recovery after the hysteresis window.
        let mut ticks_to_recover = 0;
        for i in 1..=(hold + rec + 2) {
            let d = g.vet(
                Some(c),
                &obs(4096 + i as u64, 1_000_000 + i as u64 * 1000, 0.4),
            );
            if d.recovered {
                ticks_to_recover = i;
                break;
            }
            assert!(d.in_fallback, "stays in fallback until hysteresis clears");
        }
        assert!(ticks_to_recover >= hold.max(rec));
        assert!(!g.in_fallback());
    }

    #[test]
    fn reward_anomaly_trips_immediately_and_fallback_is_valid() {
        let mut g = QueueGuard::new();
        let c = EcnConfig::new(20 * 1024, 200 * 1024, 0.01);
        let d = g.vet(Some(c), &obs(1000, 10_000, f64::NAN));
        assert!(d.tripped);
        assert!(d.violations.contains(&GuardViolation::RewardAnomaly));
        let fb = StaticEcnPolicy::Secn1.config_for(25_000_000_000);
        assert_eq!(d.applied, fb);
    }

    #[test]
    fn counter_regression_is_unhealthy_even_when_sustained() {
        let mut g = QueueGuard::new();
        let c = EcnConfig::new(20 * 1024, 200 * 1024, 0.01);
        g.vet(Some(c), &obs(1000, 1_000_000, 0.2));
        // Blanked registers: counters at zero, below the high-water mark.
        for _ in 0..5 {
            let d = g.vet(Some(c), &obs(0, 0, 0.0));
            assert!(d.violations.contains(&GuardViolation::TelemetryRegression));
        }
        assert!(g.in_fallback(), "sustained blank keeps the guard tripped");
    }

    #[test]
    fn guarded_controller_enforces_on_a_live_switch() {
        use crate::action::ActionSpace;
        use netsim::ids::PRIO_RDMA;

        // An adversarial inner controller that applies an absurd config
        // every tick; the guard must keep the fabric valid anyway.
        struct Rogue;
        impl QueueController for Rogue {
            fn on_tick(&mut self, view: &mut SwitchView<'_>) {
                for p in 0..view.num_ports() {
                    view.set_ecn(
                        PortId(p as u16),
                        PRIO_RDMA,
                        Some(EcnConfig {
                            kmin_bytes: 0,
                            kmax_bytes: u64::MAX,
                            pmax: f64::INFINITY,
                        }),
                    );
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let sw = sim.core().topo.switches()[0];
        sim.set_controller(
            sw,
            Box::new(GuardedController::new(
                Box::new(Rogue),
                GuardConfig::default(),
                vec![PRIO_RDMA],
            )),
        );
        sim.run_until(SimTime::from_ms(2));
        for p in 0..2u16 {
            let e = sim.core().queue(sw, PortId(p), PRIO_RDMA).ecn.unwrap();
            assert!(e.kmin_bytes >= KMIN_FLOOR_BYTES);
            assert!(e.kmin_bytes <= e.kmax_bytes);
            assert!(e.kmax_bytes <= KMAX_CEILING_BYTES);
            assert!(e.pmax >= PMAX_FLOOR && e.pmax <= 1.0);
        }
        sim.with_controller(sw, |c, _| {
            let gc = c.as_any_mut().downcast_mut::<GuardedController>().unwrap();
            assert!(gc.stats.violations_detected > 0);
            assert!(gc.stats.clamps > 0);
            assert_eq!(
                gc.stats.violations_applied, 0,
                "enforced fabric stays clean"
            );
        });
        let _ = ActionSpace::templates(); // keep the import honest
    }

    /// One guarded ACC switch, ticked one interval at a time; after each
    /// tick `probe` sees the guard's anomaly count and the inner controller.
    fn tick_guarded_acc(
        acc: AccController,
        ticks: u64,
        mut probe: impl FnMut(u64, u64, &mut AccController),
    ) {
        use netsim::ids::PRIO_RDMA;
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let sw = sim.core().topo.switches()[0];
        let guarded =
            GuardedController::new(Box::new(acc), GuardConfig::default(), vec![PRIO_RDMA]);
        sim.set_controller(sw, Box::new(guarded));
        for tick in 1..=ticks {
            sim.run_until(SimTime::from_us(50 * tick));
            sim.with_controller(sw, |c, _| {
                let g = c.as_any_mut().downcast_mut::<GuardedController>().unwrap();
                let seen = g.stats.agent_anomalies;
                let acc = g
                    .inner
                    .as_any_mut()
                    .downcast_mut::<AccController>()
                    .unwrap();
                probe(tick, seen, acc);
            });
        }
    }

    fn small_acc_cfg() -> crate::controller::AccConfig {
        let mut cfg = crate::controller::AccConfig::default();
        cfg.ddqn.min_replay = 8;
        cfg.ddqn.batch_size = 8;
        cfg.idle_optimization = false;
        cfg
    }

    /// The update of tick `t` is still running when the guard vets tick
    /// `t`, so its non-finite TD targets are a `training_anomaly` of tick
    /// `t + 1`.
    #[test]
    fn nan_td_target_is_reported_one_tick_after_its_update() {
        let mut cfg = small_acc_cfg();
        cfg.reward.w_throughput = f64::NAN; // every stored reward is NaN
        let acc = AccController::new(cfg, crate::action::ActionSpace::templates());
        let mut first_update = None;
        tick_guarded_acc(acc, 12, |tick, seen, acc| match first_update {
            None if acc.stats.train_steps > 0 => {
                first_update = Some(tick);
                assert_eq!(seen, 0, "tick {tick}: its update is not waited for");
                // The anomaly is real and already there for who asks the agent.
                assert!(acc.agent().borrow_mut().get().anomalies() > 0);
            }
            None => assert_eq!(seen, 0),
            Some(t) if tick == t + 1 => assert!(seen > 0, "tick {tick}: reported"),
            Some(_) => {}
        });
        assert!(first_update.is_some_and(|t| t < 12), "training started");
    }

    /// A NaN Q-vector at action selection needs no update to finish: it is
    /// reported by the vet of the same tick.
    #[test]
    fn nan_q_values_are_reported_in_the_tick_they_are_selected_from() {
        let mut cfg = small_acc_cfg();
        cfg.explore = false; // every decision reads the Q-values
        cfg.online_training = false;
        let space = crate::action::ActionSpace::templates();
        let mut model = AccController::new(cfg.clone(), space.clone()).export_model();
        model.set_weight(0, 0, f32::NAN);
        let acc = AccController::from_model(cfg, space, &model);
        let mut first_selection = None;
        tick_guarded_acc(acc, 4, |tick, seen, acc| {
            if first_selection.is_none() && acc.stats.inferences > 0 {
                first_selection = Some(tick);
                assert!(seen > 0, "tick {tick}: same-tick report");
            }
        });
        assert!(first_selection.is_some());
    }

    #[test]
    fn install_guarded_acc_wraps_every_switch() {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let mut cfg = crate::controller::AccConfig::default();
        cfg.ddqn.min_replay = 8;
        cfg.ddqn.batch_size = 8;
        let space = crate::action::ActionSpace::templates();
        let _g = install_guarded_acc(&mut sim, &cfg, &space, &GuardConfig::default());
        sim.run_until(SimTime::from_ms(1));
        for sw in sim.core().topo.switches().to_vec() {
            sim.with_controller(sw, |c, _| {
                let gc = c.as_any_mut().downcast_mut::<GuardedController>().unwrap();
                assert!(gc.stats.ticks > 0);
                assert!(gc
                    .inner_mut()
                    .as_any_mut()
                    .downcast_mut::<AccController>()
                    .is_some());
            });
        }
    }
}
