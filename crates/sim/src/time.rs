//! Virtual time types.
//!
//! The simulation counts time in integer **picoseconds**. Picosecond
//! resolution keeps per-TLP PCIe latencies (tens of nanoseconds) exact while
//! a `u64` still spans more than 200 days of virtual time — far beyond any
//! experiment in the paper.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time (non-negative).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration {
    picos: u64,
}

crate::snapshot_state!(SimDuration { picos });

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { picos: 0 };

    /// Creates a duration from picoseconds.
    pub const fn from_picos(picos: u64) -> Self {
        SimDuration { picos }
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration { picos: nanos * 1_000 }
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { picos: micros * 1_000_000 }
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration { picos: millis * 1_000_000_000 }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration { picos: secs * 1_000_000_000_000 }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration { picos: (secs * 1e12).round() as u64 }
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.picos
    }

    /// Duration in nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.picos / 1_000
    }

    /// Duration in microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.picos / 1_000_000
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.picos as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration { picos: self.picos.saturating_sub(rhs.picos) }
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.picos == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration { picos: self.picos + rhs.picos }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.picos += rhs.picos;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration { picos: self.picos - rhs.picos }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.picos -= rhs.picos;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration { picos: self.picos * rhs }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration { picos: self.picos / rhs }
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3}us", s * 1e6)
        } else {
            write!(f, "{}ns", self.as_nanos())
        }
    }
}

/// An absolute point on the virtual timeline.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime {
    picos: u64,
}

crate::snapshot_state!(SimTime { picos });

impl SimTime {
    /// The origin of the virtual timeline.
    pub const ZERO: SimTime = SimTime { picos: 0 };

    /// Creates a time point from picoseconds since the origin.
    pub const fn from_picos(picos: u64) -> Self {
        SimTime { picos }
    }

    /// Picoseconds since the origin.
    pub const fn as_picos(self) -> u64 {
        self.picos
    }

    /// Seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.picos as f64 / 1e12
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.picos <= self.picos,
            "duration_since: earlier ({}) is after self ({})",
            earlier.picos,
            self.picos
        );
        SimDuration::from_picos(self.picos - earlier.picos)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime { picos: self.picos + rhs.as_picos() }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.picos += rhs.as_picos();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration::from_picos(self.picos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_nanos(1).as_picos(), 1_000);
        assert_eq!(SimDuration::from_micros(1).as_picos(), 1_000_000);
        assert_eq!(SimDuration::from_millis(1).as_picos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs(1).as_picos(), 1_000_000_000_000);
    }

    #[test]
    fn float_round_trip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn negative_seconds_saturate_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_micros(3);
        let b = SimDuration::from_micros(2);
        assert_eq!((a + b).as_micros(), 5);
        assert_eq!((a - b).as_micros(), 1);
        assert_eq!((a * 4).as_micros(), 12);
        assert_eq!((a / 3).as_micros(), 1);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn time_ordering_and_elapsed() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(5);
        assert!(t1 > t0);
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(5));
        assert_eq!(t1 - t0, SimDuration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_reversed() {
        let t1 = SimTime::ZERO + SimDuration::from_nanos(1);
        let _ = SimTime::ZERO.duration_since(t1);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_nanos(2).to_string(), "2ns");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration =
            (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }
}
