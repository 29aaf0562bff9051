//! Virtual time for the simulation.
//!
//! All performance numbers in this reproduction are *simulated*: every page
//! movement, RPC, coherence message, SSD access, and per-element CPU cost
//! advances a virtual clock measured in nanoseconds. Real (wall-clock) time
//! plays no role in any reported result, which keeps every experiment
//! deterministic and machine-independent.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier`. Saturates at zero if `earlier` is later,
    /// which only happens on misuse; saturating keeps the simulator total.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `self / other` as a dimensionless ratio (speedup factor).
    /// Returns `f64::INFINITY` when `other` is zero.
    #[inline]
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            f64::INFINITY
        } else {
            self.0 as f64 / other.0 as f64
        }
    }

    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    /// Human-readable rendering with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        SimDuration(self.0).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = SimDuration::from_nanos(500);
        let b = SimDuration::from_nanos(200);
        assert_eq!((a + b).as_nanos(), 700);
        assert_eq!((a - b).as_nanos(), 300);
        assert_eq!((b - a).as_nanos(), 0, "subtraction saturates");
        assert_eq!((a * 4).as_nanos(), 2000);
        assert_eq!((a / 2).as_nanos(), 250);
    }

    #[test]
    fn time_advances_and_measures() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_micros(2);
        assert_eq!(t.as_nanos(), 2_000);
        assert_eq!(t.since(SimTime::ZERO).as_nanos(), 2_000);
        assert_eq!(SimTime::ZERO.since(t).as_nanos(), 0, "since saturates");
    }

    #[test]
    fn ratio_handles_zero() {
        let a = SimDuration::from_nanos(100);
        assert_eq!(a.ratio(SimDuration::from_nanos(50)), 2.0);
        assert!(a.ratio(SimDuration::ZERO).is_infinite());
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.50us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let parts = [
            SimDuration::from_nanos(1),
            SimDuration::from_nanos(2),
            SimDuration::from_nanos(3),
        ];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total.as_nanos(), 6);
    }
}
