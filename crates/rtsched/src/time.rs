//! Nanosecond-granularity time arithmetic.
//!
//! All of `rtsched` (and the crates built on top of it) measures time in
//! integer nanoseconds. Tableau's planner operates on a fixed hyperperiod of
//! roughly 102 ms (see [`crate::hyperperiod`]), so every quantity of interest
//! fits comfortably in a `u64`, and integer arithmetic keeps the
//! generate-then-verify pipeline exact (no floating-point drift in
//! schedulability analysis).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration or instant, in integer nanoseconds.
///
/// `Nanos` is used both for points in (table-relative or simulation) time and
/// for durations; scheduling-table offsets are always relative to the start
/// of the table, so a separate instant type would add noise without catching
/// real bugs at this scale.
///
/// Arithmetic is checked in debug builds (overflow panics) and wrapping-free
/// by construction in release: the largest values handled are simulation
/// times of a few thousand seconds (~1e13 ns), far from `u64::MAX`.
///
/// # Examples
///
/// ```
/// use rtsched::time::Nanos;
///
/// let period = Nanos::from_millis(10);
/// let cost = Nanos::from_micros(2_500);
/// assert_eq!(period - cost, Nanos::from_micros(7_500));
/// assert_eq!(cost * 4, period);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// One microsecond.
    pub const MICRO: Nanos = Nanos(1_000);

    /// One millisecond.
    pub const MILLI: Nanos = Nanos(1_000_000);

    /// One second.
    pub const SECOND: Nanos = Nanos(1_000_000_000);

    /// The largest representable time: "never" as a deadline or bound.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Nanos {
        Nanos(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in (truncated) microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; returns zero instead of underflowing.
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub const fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Checked addition.
    pub const fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Multiplies by an exact rational `num / den`, rounding down.
    ///
    /// Intermediate math is performed in `u128`, so the result is exact for
    /// any operands that arise in a hyperperiod-bounded schedule.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn mul_ratio_floor(self, num: u64, den: u64) -> Nanos {
        assert!(den != 0, "mul_ratio_floor: zero denominator");
        Nanos(((self.0 as u128 * num as u128) / den as u128) as u64)
    }

    /// Divides by `rhs`, rounding the quotient up.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_ceil(self, rhs: Nanos) -> u64 {
        assert!(rhs.0 != 0, "div_ceil: zero divisor");
        self.0.div_ceil(rhs.0)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    type Output = u64;
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Nanos> for Nanos {
    type Output = Nanos;
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::MICRO);
        assert_eq!(Nanos::from_millis(1), Nanos::MILLI);
        assert_eq!(Nanos::from_secs(1), Nanos::SECOND);
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_nanos(5), Nanos(5));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Nanos::from_millis(7);
        let b = Nanos::from_micros(300);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 3) / 3, a);
        assert_eq!(a % Nanos::from_millis(2), Nanos::from_millis(1));
        assert_eq!(a / Nanos::from_millis(2), 3);
    }

    #[test]
    fn saturating_and_checked() {
        let a = Nanos::from_millis(1);
        let b = Nanos::from_millis(2);
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
        assert_eq!(b.saturating_sub(a), Nanos::MILLI);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(Nanos::MILLI));
        assert!(a.checked_add(b).is_some());
    }

    #[test]
    fn ratio_floor_is_exact_when_divisible() {
        let t = Nanos::from_millis(100);
        assert_eq!(t.mul_ratio_floor(1, 4), Nanos::from_millis(25));
        assert_eq!(t.mul_ratio_floor(3, 4), Nanos::from_millis(75));
        // Floor behaviour.
        assert_eq!(Nanos(10).mul_ratio_floor(1, 3), Nanos(3));
    }

    #[test]
    fn div_ceil_rounds_up() {
        assert_eq!(Nanos(10).div_ceil(Nanos(3)), 4);
        assert_eq!(Nanos(9).div_ceil(Nanos(3)), 3);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Nanos::from_millis(5).to_string(), "5ms");
        assert_eq!(Nanos::from_micros(5).to_string(), "5us");
        assert_eq!(Nanos(5).to_string(), "5ns");
        assert_eq!(Nanos::from_secs(2).to_string(), "2s");
        assert_eq!(Nanos::ZERO.to_string(), "0");
    }

    #[test]
    fn min_max() {
        let a = Nanos(3);
        let b = Nanos(5);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
