//! The agent's state: normalised per-queue telemetry with history (§3.3).
//!
//! Each monitoring interval produces one observation
//! `QS_t = (qlen, txRate, txRate(m), ECN(c))`, normalised into `[0, 1]`:
//!
//! * queue length is discretised onto the exponential ladder `E(n)` and
//!   encoded as `n/10` (the same discretisation the action space and reward
//!   use — §3.3 says states and actions are both discretised);
//! * the tx rate and the ECN-marked tx rate are normalised by the link
//!   bandwidth, which is what makes the model portable across 25G and 100G
//!   ports ("normalization helps the agent generalize");
//! * the current ECN configuration is encoded as its (normalised) index in
//!   the action space.
//!
//! The state fed to the DQN is the concatenation of the last `k` (default 3)
//! observations — `4 × 3 = 12` features.

use crate::reward::{ladder_index, LADDER_LEVELS};
use netsim::prelude::*;
use netsim::queues::QueueTelemetry;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Features per observation (qlen, txRate, txRate(m), ECN(c)).
pub const FEATURES_PER_OBS: usize = 4;

/// Raw (un-normalised) measurements for one queue over one interval.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QueueObs {
    /// Instantaneous queue depth at the end of the interval, bytes.
    pub qlen_bytes: u64,
    /// Bytes transmitted during the interval.
    pub tx_bytes: u64,
    /// CE-marked bytes transmitted during the interval.
    pub tx_marked_bytes: u64,
    /// Interval length.
    pub dt: SimTime,
    /// Link rate, bits/s.
    pub link_bps: u64,
    /// Index of the currently-applied action, already normalised to `[0, 1]`.
    pub ecn_encoded: f32,
}

impl QueueObs {
    /// Normalise into the four state features.
    pub fn features(&self) -> [f32; FEATURES_PER_OBS] {
        let qlen = ladder_index(self.qlen_bytes) as f32 / LADDER_LEVELS as f32;
        let secs = self.dt.as_secs_f64();
        let (tx, txm) = if secs > 0.0 && self.link_bps > 0 {
            let cap = self.link_bps as f64 * secs / 8.0; // bytes the link could carry
            (
                (self.tx_bytes as f64 / cap).min(1.0) as f32,
                (self.tx_marked_bytes as f64 / cap).min(1.0) as f32,
            )
        } else {
            (0.0, 0.0)
        };
        [qlen, tx, txm, self.ecn_encoded]
    }
}

/// Sliding window of the last `k` observations for one queue.
#[derive(Clone, Debug, Default)]
pub struct StateWindow {
    hist: VecDeque<[f32; FEATURES_PER_OBS]>,
    k: usize,
}

impl StateWindow {
    /// A window of `k` observations (paper: k = 3).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        StateWindow {
            hist: VecDeque::with_capacity(k),
            k,
        }
    }

    /// Record one interval's observation.
    pub fn push(&mut self, obs: &QueueObs) {
        if self.hist.len() == self.k {
            self.hist.pop_front();
        }
        self.hist.push_back(obs.features());
    }

    /// The flattened `k × 4` state vector, oldest first, zero-padded on the
    /// left until `k` observations have been seen.
    pub fn state(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.dim());
        self.write_state(&mut v);
        v
    }

    /// Append [`StateWindow::state`] to `out`, a buffer the caller reuses.
    pub fn write_state(&self, out: &mut Vec<f32>) {
        for _ in 0..(self.k - self.hist.len()) {
            out.extend_from_slice(&[0.0; FEATURES_PER_OBS]);
        }
        for f in &self.hist {
            out.extend_from_slice(f);
        }
    }

    /// Dimensionality of [`StateWindow::state`].
    pub fn dim(&self) -> usize {
        self.k * FEATURES_PER_OBS
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.hist.len()
    }

    /// True before any observation was pushed.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }
}

/// One control interval on one queue, as [`QueueObserver::observe`] saw it.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// The raw measurements (already pushed into the observer's window).
    pub obs: QueueObs,
    /// Time-average queue depth over the interval, bytes — the reward's `L`.
    pub avg_qlen_bytes: u64,
    /// Fraction of the link's capacity transmitted — the reward's `R`.
    pub utilization: f64,
}

/// The observe step every ACC variant runs per queue per tick: difference
/// the cumulative telemetry registers against the previous reading, turn
/// the interval into a [`QueueObs`] and slide it into the [`StateWindow`].
#[derive(Clone, Debug)]
pub struct QueueObserver {
    window: StateWindow,
    prev: QueueTelemetry,
    last_tick: SimTime,
}

impl QueueObserver {
    /// Observe from `baseline`, a reading of the registers taken at `at`,
    /// keeping `k` intervals of history.
    pub fn new(k: usize, baseline: QueueTelemetry, at: SimTime) -> Self {
        QueueObserver {
            window: StateWindow::new(k),
            prev: baseline,
            last_tick: at,
        }
    }

    /// Fold in the reading `snap` taken at `now`; `ecn_encoded` is the
    /// applied action's index normalised to `[0, 1]`. `None`, with nothing
    /// recorded, when no time has passed since the previous reading.
    pub fn observe(
        &mut self,
        snap: &QueueSnapshot,
        now: SimTime,
        ecn_encoded: f32,
    ) -> Option<Interval> {
        let dt = now.saturating_sub(self.last_tick);
        if dt == SimTime::ZERO {
            return None;
        }
        // Saturating deltas: a faulted/rebooted switch can hand the agent
        // counters *below* the previous reading (see netsim's telemetry
        // faults); treat a regression as "no progress", not as wraparound.
        let tx_bytes = snap.telem.tx_bytes.saturating_sub(self.prev.tx_bytes);
        let tx_marked_bytes = snap
            .telem
            .tx_marked_bytes
            .saturating_sub(self.prev.tx_marked_bytes);
        let qlen_integral = snap
            .telem
            .qlen_integral_byte_ps
            .saturating_sub(self.prev.qlen_integral_byte_ps);
        let avg_qlen_bytes = (qlen_integral / dt.as_ps() as u128) as u64;
        let utilization = if snap.link_bps > 0 {
            (tx_bytes as f64 * 8.0) / (snap.link_bps as f64 * dt.as_secs_f64())
        } else {
            0.0
        };
        let obs = QueueObs {
            qlen_bytes: snap.qlen_bytes,
            tx_bytes,
            tx_marked_bytes,
            dt,
            link_bps: snap.link_bps,
            ecn_encoded,
        };
        self.window.push(&obs);
        self.prev = snap.telem;
        self.last_tick = now;
        Some(Interval {
            obs,
            avg_qlen_bytes,
            utilization,
        })
    }

    /// The agent's state after the latest observation (see
    /// [`StateWindow::state`]).
    pub fn state(&self) -> Vec<f32> {
        self.window.state()
    }

    /// Append [`QueueObserver::state`] to `out`, a buffer the caller
    /// reuses, so a control tick builds no state vector of its own.
    pub fn write_state(&self, out: &mut Vec<f32>) {
        self.window.write_state(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(qlen: u64, tx: u64, txm: u64) -> QueueObs {
        QueueObs {
            qlen_bytes: qlen,
            tx_bytes: tx,
            tx_marked_bytes: txm,
            dt: SimTime::from_us(50),
            link_bps: 25_000_000_000,
            ecn_encoded: 0.5,
        }
    }

    #[test]
    fn features_normalised() {
        // 25G for 50us carries 156250 bytes.
        let cap = 156_250u64;
        let f = obs(0, cap, cap / 2).features();
        assert_eq!(f[0], 0.0);
        assert!((f[1] - 1.0).abs() < 1e-6);
        assert!((f[2] - 0.5).abs() < 1e-6);
        assert_eq!(f[3], 0.5);
    }

    #[test]
    fn rates_clamped_to_one() {
        let f = obs(0, u64::MAX / 16, u64::MAX / 16).features();
        assert_eq!(f[1], 1.0);
        assert_eq!(f[2], 1.0);
    }

    #[test]
    fn qlen_uses_ladder() {
        assert_eq!(obs(0, 0, 0).features()[0], 0.0);
        // 30KB -> rung 1 -> 0.1
        assert!((obs(30 * 1024, 0, 0).features()[0] - 0.1).abs() < 1e-6);
        // beyond 10MB -> 1.0
        assert_eq!(obs(100 << 20, 0, 0).features()[0], 1.0);
    }

    #[test]
    fn zero_interval_gives_zero_rates() {
        let mut o = obs(10, 100, 100);
        o.dt = SimTime::ZERO;
        let f = o.features();
        assert_eq!(f[1], 0.0);
        assert_eq!(f[2], 0.0);
    }

    #[test]
    fn window_pads_then_slides() {
        let mut w = StateWindow::new(3);
        assert_eq!(w.dim(), 12);
        assert_eq!(w.state(), vec![0.0; 12]);
        w.push(&obs(30 * 1024, 0, 0));
        let s = w.state();
        assert_eq!(&s[..8], &[0.0; 8][..], "left-padded");
        assert!((s[8] - 0.1).abs() < 1e-6);
        for _ in 0..5 {
            w.push(&obs(0, 0, 0));
        }
        assert_eq!(w.len(), 3);
        // The 30KB observation has slid out.
        assert_eq!(w.state()[0], 0.0);
    }

    #[test]
    fn observer_differences_and_saturates() {
        let snap = |tx: u64, txm: u64, integral: u128| QueueSnapshot {
            port: PortId(0),
            prio: 3,
            qlen_bytes: 30 * 1024,
            telem: QueueTelemetry {
                tx_bytes: tx,
                tx_marked_bytes: txm,
                qlen_integral_byte_ps: integral,
                ..Default::default()
            },
            ecn: None,
            link_bps: 25_000_000_000,
        };
        let dt = SimTime::from_us(50);
        let mut o = QueueObserver::new(3, snap(1000, 10, 0).telem, dt);
        assert!(o.observe(&snap(2000, 20, 0), dt, 0.5).is_none(), "dt = 0");
        let full = 156_250; // 25G for 50us
        let iv = o
            .observe(
                &snap(1000 + full, 110, 2000 * dt.as_ps() as u128),
                dt.mul(2),
                0.5,
            )
            .unwrap();
        assert_eq!(iv.obs.tx_bytes, full);
        assert_eq!(iv.obs.tx_marked_bytes, 100);
        assert_eq!(iv.avg_qlen_bytes, 2000);
        assert!((iv.utilization - 1.0).abs() < 1e-9);
        assert!((o.state()[8] - 0.1).abs() < 1e-6, "obs reached the window");
        let mut out = vec![9.0];
        o.write_state(&mut out);
        assert_eq!(out[1..], o.state(), "appended after what was there");
        // Counters below the previous reading (reboot, blanked telemetry)
        // read as no progress.
        let iv = o.observe(&snap(0, 0, 0), dt.mul(3), 0.5).unwrap();
        assert_eq!((iv.obs.tx_bytes, iv.obs.tx_marked_bytes), (0, 0));
        assert_eq!(iv.avg_qlen_bytes, 0);
    }

    #[test]
    fn paper_state_dimensionality() {
        // 4 features x k=3 history = 12 (§3.3).
        let w = StateWindow::new(3);
        assert_eq!(w.dim(), 12);
    }
}
