//! Simulated time.
//!
//! Time is kept in integer **picoseconds** so that serialization times of
//! small packets on 100 Gbps links (a 64-byte frame serializes in 5.12 ns)
//! are represented exactly. A `u64` of picoseconds covers ~213 days of
//! simulated time, far beyond any experiment in this repository.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A point in (or span of) simulated time, in picoseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize, Debug,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }
    /// Construct from fractional seconds (rounds to the nearest picosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite time");
        SimTime((s * 1e12).round() as u64)
    }

    /// This time as picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This time as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// This time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// This time as fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// This time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// `self - other`, clamped at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Multiply a time span by an integer factor.
    #[inline]
    pub fn mul(self, k: u64) -> SimTime {
        SimTime(self.0 * k)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{:.3}ns", self.as_ns_f64())
        }
    }
}

/// Time needed to serialize `bytes` onto a link running at `rate_bps`.
///
/// Exact in picoseconds up to rounding of the final division. Every packet
/// the engine serialises fits the `u64` arm (up to 2.3 MB); the `u128` arm
/// exists for the flow backend's whole-message sizes, and keeps the 128-bit
/// division routine off the per-packet path.
///
/// ```
/// use netsim::time::{tx_time, SimTime};
/// // 1500 bytes at 100 Gbps = 120 ns.
/// assert_eq!(tx_time(1500, 100_000_000_000), SimTime::from_ns(120));
/// ```
#[inline]
pub fn tx_time(bytes: u64, rate_bps: u64) -> SimTime {
    debug_assert!(rate_bps > 0, "link rate must be positive");
    match bytes.checked_mul(PS_PER_BYTE_BPS) {
        Some(bit_ps) => SimTime(bit_ps / rate_bps),
        None => SimTime(tx_time_wide(bytes, rate_bps)),
    }
}

/// Picoseconds a byte takes at 1 bit/s: 8 bits × 10^12 ps/s.
const PS_PER_BYTE_BPS: u64 = 8_000_000_000_000;

/// [`tx_time`] in 128-bit arithmetic, for byte counts whose bit-picosecond
/// product overflows a `u64`.
fn tx_time_wide(bytes: u64, rate_bps: u64) -> u64 {
    (bytes as u128 * PS_PER_BYTE_BPS as u128 / rate_bps as u128) as u64
}

/// Convert a byte count and a time span into an achieved rate in bits/s.
///
/// Returns 0 for an empty interval.
#[inline]
pub fn rate_bps(bytes: u64, span: SimTime) -> f64 {
    if span.0 == 0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / span.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_ms(1_500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!(a + b, SimTime::from_us(14));
        assert_eq!(a - b, SimTime::from_us(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.mul(3), SimTime::from_us(30));
    }

    #[test]
    fn tx_time_exact_values() {
        // 64B @ 100G = 5.12 ns = 5120 ps.
        assert_eq!(tx_time(64, 100_000_000_000), SimTime::from_ps(5_120));
        // 1048B @ 25G = 335.36 ns.
        assert_eq!(tx_time(1048, 25_000_000_000), SimTime::from_ps(335_360));
        assert_eq!(tx_time(0, 25_000_000_000), SimTime::ZERO);
    }

    /// The `u64` arm and the `u128` arm are the same function, on both sides
    /// of the overflow boundary (`u64::MAX / 8e12` = 2 305 843 bytes).
    #[test]
    fn tx_time_narrow_arm_equals_wide_formula() {
        let boundary = u64::MAX / PS_PER_BYTE_BPS;
        let sizes = [
            1,
            64,
            1048,
            9048,
            1 << 21,
            boundary,
            boundary + 1,
            1 << 22,
            u64::MAX / 8,
        ];
        let rates = [
            1_000_000_000,
            10_000_000_000,
            25_000_000_000,
            40_000_000_000,
            100_000_000_000,
            400_000_000_000,
            24_999_999_977, // a prime: the division never comes out even
        ];
        assert!(boundary.checked_mul(PS_PER_BYTE_BPS).is_some());
        assert!((boundary + 1).checked_mul(PS_PER_BYTE_BPS).is_none());
        for bytes in sizes {
            for rate in rates {
                let wide = tx_time_wide(bytes, rate);
                assert_eq!(
                    tx_time(bytes, rate),
                    SimTime(wide),
                    "{bytes} B at {rate} bps"
                );
            }
        }
    }

    #[test]
    fn rate_round_trip() {
        let t = tx_time(125_000, 10_000_000_000); // 1 Mb at 10G = 100 us
        assert_eq!(t, SimTime::from_us(100));
        let r = rate_bps(125_000, t);
        assert!((r - 10_000_000_000.0).abs() / 1e10 < 1e-9);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", SimTime::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimTime::from_ms(5)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5)), "5.000000s");
    }
}
