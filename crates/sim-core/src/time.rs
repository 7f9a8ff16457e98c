//! Integer-microsecond simulated time.
//!
//! All simulation timestamps are [`SimTime`] (microseconds since the start
//! of the run) and all intervals are [`SimDuration`]. Using integers rather
//! than `f64` keeps event ordering exact: two events scheduled from the same
//! arithmetic always compare identically on every platform, which is what
//! makes whole-cluster runs reproducible byte-for-byte.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds per second, as used throughout the crate.
pub const MICROS_PER_SEC: u64 = 1_000_000;
/// Microseconds per millisecond.
pub const MICROS_PER_MS: u64 = 1_000;

/// An instant in simulated time, in microseconds since run start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Builds a time from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * MICROS_PER_MS)
    }

    /// Builds a time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// This instant expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// This instant expressed in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant. Saturates at zero rather than
    /// panicking so that racy-looking metric code stays total.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (never wraps past `SimTime::MAX`).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration; useful as a sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds a duration from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MS)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let us = s * MICROS_PER_SEC as f64;
        if us >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(us.round() as u64)
        }
    }

    /// This duration in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// This duration in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in whole milliseconds (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MS
    }

    /// Multiplies by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// True when the duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(3), SimTime::from_millis(3_000));
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
    }

    #[test]
    fn add_and_since() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(
            t.since(SimTime::from_secs(1)),
            SimDuration::from_millis(500)
        );
        // Saturating: earlier.since(later) is zero, not a panic.
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn sub_is_since() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!(a - b, SimDuration::from_secs(6));
        assert_eq!(b - a, SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn rounding_to_nearest_microsecond() {
        // 1.4 us rounds down, 1.6 us rounds up.
        assert_eq!(SimDuration::from_secs_f64(1.4e-6).as_micros(), 1);
        assert_eq!(SimDuration::from_secs_f64(1.6e-6).as_micros(), 2);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_micros(1)), "0.000001s");
    }

    #[test]
    fn max_helper() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(SimDuration::MAX.saturating_mul(3), SimDuration::MAX);
    }
}
