//! Window-based transports: TCP Reno and DCTCP.
//!
//! Both share one state machine: a byte-based congestion window, go-back-N
//! retransmission (cumulative ACKs, fast retransmit on three duplicate ACKs,
//! a retransmission timeout), and slow start / congestion avoidance. DCTCP
//! (Alizadeh et al., SIGCOMM'10) adds per-window ECN accounting: the receiver
//! echoes CE per ACK, the sender maintains the marked fraction estimate
//! `alpha ← (1-g)·alpha + g·F` and cuts `cwnd` by `alpha/2` once per window
//! in which marks were seen. Reno is ECN-unaware (its packets are Not-ECT and
//! are tail-dropped by the switch instead).

use serde::{Deserialize, Serialize};

/// Which flavour of the window machinery a flow runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum WindowFlavor {
    /// ECN-unaware AIMD.
    Reno,
    /// ECN-fraction-proportional backoff.
    Dctcp,
}

/// Initial congestion window, in segments.
pub const INIT_CWND_SEGMENTS: u32 = 10;
/// DCTCP EWMA gain.
pub const DCTCP_G: f64 = 1.0 / 16.0;
/// Fixed retransmission timeout (datacenter-tuned).
pub const RTO: netsim::SimTime = netsim::SimTime::from_us(500);
/// Duplicate-ACK threshold for fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;
/// Maximum congestion window in bytes (flow control stand-in).
pub const MAX_CWND_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

/// What the state machine asks the stack to do after processing an ACK.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AckAction {
    /// Keep sending within the (possibly updated) window.
    Continue,
    /// Go-back-N: rewind `snd_nxt` to `snd_una` and resend.
    Retransmit,
}

/// Per-flow sender state for Reno/DCTCP.
#[derive(Clone, Debug)]
pub struct WindowState {
    /// Reno or DCTCP.
    pub flavor: WindowFlavor,
    /// Congestion window, bytes.
    pub cwnd: f64,
    /// Slow-start threshold, bytes.
    pub ssthresh: f64,
    /// Maximum segment size, bytes.
    pub mss: f64,
    /// Consecutive duplicate ACKs seen.
    pub dupacks: u32,
    /// DCTCP marked-fraction estimate.
    pub alpha: f64,
    /// Byte offset ending the current DCTCP observation window.
    pub window_end: u64,
    /// Bytes acked in the current observation window.
    pub acked_in_window: u64,
    /// CE-echoed bytes acked in the current observation window.
    pub marked_in_window: u64,
    /// An RTO timer is outstanding.
    pub rto_pending: bool,
    /// Time of the last forward progress (for the RTO check).
    pub last_progress: netsim::SimTime,
}

impl WindowState {
    /// Fresh state for a flow with segment size `mss`.
    pub fn new(flavor: WindowFlavor, mss: u32, now: netsim::SimTime) -> Self {
        WindowState {
            flavor,
            cwnd: INIT_CWND_SEGMENTS as f64 * mss as f64,
            ssthresh: MAX_CWND_BYTES,
            mss: mss as f64,
            dupacks: 0,
            alpha: 0.0,
            window_end: 0,
            acked_in_window: 0,
            marked_in_window: 0,
            rto_pending: false,
            last_progress: now,
        }
    }

    /// Process a cumulative ACK.
    ///
    /// `snd_una` / `snd_nxt` are the flow's pre-ACK send pointers; the caller
    /// updates `snd_una` to `max(snd_una, cum_ack)` afterwards.
    pub fn on_ack(
        &mut self,
        cum_ack: u64,
        ce_echo: bool,
        snd_una: u64,
        snd_nxt: u64,
        now: netsim::SimTime,
    ) -> AckAction {
        if cum_ack > snd_una {
            let newly = cum_ack - snd_una;
            self.dupacks = 0;
            self.last_progress = now;

            // DCTCP per-window ECN accounting.
            if self.flavor == WindowFlavor::Dctcp {
                self.acked_in_window += newly;
                if ce_echo {
                    self.marked_in_window += newly;
                }
                if cum_ack >= self.window_end {
                    let f = if self.acked_in_window > 0 {
                        self.marked_in_window as f64 / self.acked_in_window as f64
                    } else {
                        0.0
                    };
                    self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
                    if self.marked_in_window > 0 {
                        self.cwnd *= 1.0 - self.alpha / 2.0;
                        self.cwnd = self.cwnd.max(self.mss);
                        self.ssthresh = self.cwnd;
                    }
                    self.acked_in_window = 0;
                    self.marked_in_window = 0;
                    self.window_end = snd_nxt;
                }
            }

            // Growth: slow start below ssthresh, else congestion avoidance.
            if self.cwnd < self.ssthresh {
                self.cwnd += newly as f64;
            } else {
                self.cwnd += self.mss * newly as f64 / self.cwnd;
            }
            self.cwnd = self.cwnd.min(MAX_CWND_BYTES);
            AckAction::Continue
        } else {
            // Duplicate ACK (only meaningful if data is outstanding).
            if snd_nxt > snd_una {
                self.dupacks += 1;
                if self.dupacks >= DUPACK_THRESHOLD {
                    self.dupacks = 0;
                    self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss);
                    self.cwnd = self.ssthresh;
                    self.last_progress = now;
                    return AckAction::Retransmit;
                }
            }
            AckAction::Continue
        }
    }

    /// Retransmission timeout fired (and the quiet period really elapsed).
    pub fn on_rto(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss);
        self.cwnd = self.mss;
        self.dupacks = 0;
    }

    /// Usable window: how many more bytes may be in flight.
    pub fn usable(&self, snd_una: u64, snd_nxt: u64) -> u64 {
        let inflight = snd_nxt - snd_una;
        (self.cwnd as u64).saturating_sub(inflight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;

    fn mkstate(flavor: WindowFlavor) -> WindowState {
        WindowState::new(flavor, 1000, SimTime::ZERO)
    }

    #[test]
    fn initial_window() {
        let s = mkstate(WindowFlavor::Reno);
        assert_eq!(s.cwnd, 10_000.0);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = mkstate(WindowFlavor::Reno);
        // Ack a full window: cwnd should double.
        let w = s.cwnd as u64;
        s.on_ack(w, false, 0, w, SimTime::from_us(10));
        assert_eq!(s.cwnd, 20_000.0);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut s = mkstate(WindowFlavor::Reno);
        s.ssthresh = 10_000.0; // at threshold -> CA
        let w = s.cwnd as u64;
        s.on_ack(w, false, 0, w, SimTime::from_us(10));
        // cwnd += mss * acked/cwnd = 1000 * 10000/10000 = 1000 (one MSS/RTT).
        assert_eq!(s.cwnd, 11_000.0);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = mkstate(WindowFlavor::Reno);
        s.cwnd = 40_000.0;
        let mut act = AckAction::Continue;
        for _ in 0..3 {
            act = s.on_ack(5_000, false, 5_000, 30_000, SimTime::from_us(10));
        }
        assert_eq!(act, AckAction::Retransmit);
        assert_eq!(s.cwnd, 20_000.0);
    }

    #[test]
    fn dupacks_without_outstanding_data_ignored() {
        let mut s = mkstate(WindowFlavor::Reno);
        for _ in 0..10 {
            let act = s.on_ack(5_000, false, 5_000, 5_000, SimTime::ZERO);
            assert_eq!(act, AckAction::Continue);
        }
        assert_eq!(s.dupacks, 0);
    }

    #[test]
    fn rto_collapses_window() {
        let mut s = mkstate(WindowFlavor::Reno);
        s.cwnd = 50_000.0;
        s.on_rto();
        assert_eq!(s.cwnd, 1000.0);
        assert_eq!(s.ssthresh, 25_000.0);
    }

    #[test]
    fn dctcp_alpha_tracks_mark_fraction() {
        let mut s = mkstate(WindowFlavor::Dctcp);
        s.ssthresh = 1.0; // force CA so growth is small
                          // Simulate many windows fully marked: alpha -> 1.
        let mut una = 0u64;
        for _ in 0..200 {
            let nxt = una + 10_000;
            s.window_end = s.window_end.max(una);
            s.on_ack(nxt, true, una, nxt, SimTime::from_us(1));
            una = nxt;
        }
        assert!(s.alpha > 0.9, "alpha={}", s.alpha);
    }

    #[test]
    fn dctcp_unmarked_windows_decay_alpha() {
        let mut s = mkstate(WindowFlavor::Dctcp);
        s.alpha = 1.0;
        let mut una = 0u64;
        for _ in 0..100 {
            let nxt = una + 10_000;
            s.on_ack(nxt, false, una, nxt, SimTime::from_us(1));
            una = nxt;
        }
        assert!(s.alpha < 0.01, "alpha={}", s.alpha);
    }

    #[test]
    fn dctcp_gentle_cut_with_small_alpha() {
        let mut s = mkstate(WindowFlavor::Dctcp);
        s.cwnd = 100_000.0;
        s.ssthresh = 1.0;
        s.alpha = 0.0;
        // One lightly-marked window: cut should be much gentler than half.
        s.window_end = 10_000;
        s.on_ack(10_000, true, 0, 10_000, SimTime::from_us(1));
        assert!(s.cwnd > 90_000.0, "cwnd={}", s.cwnd);
    }

    #[test]
    fn usable_window() {
        let mut s = mkstate(WindowFlavor::Reno);
        s.cwnd = 10_000.0;
        assert_eq!(s.usable(0, 4_000), 6_000);
        assert_eq!(s.usable(0, 10_000), 0);
        assert_eq!(s.usable(0, 15_000), 0);
    }
}
