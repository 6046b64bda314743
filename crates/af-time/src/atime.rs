//! The 32-bit wrapping device time value.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A device time value: a 32-bit counter of sample ticks that wraps on
/// overflow.
///
/// Ordering follows §2.1 of the paper: all possible values are divided into
/// equally sized past and future regions relative to a reference value.  Given
/// times `a` and `b`, `b` is *after* `a` when the two's-complement difference
/// `b - a`, interpreted as a signed 32-bit integer, is positive.
///
/// Consequently `ATime` deliberately does **not** implement [`Ord`]: there is
/// no total order on a circle.  Use [`ATime::is_after`], [`ATime::is_before`]
/// or [`ATime::delta`] instead, and never compare times known to be more than
/// 2³¹ samples apart (about 12 hours at 48 kHz, 3 days at 8 kHz).
///
/// # Examples
///
/// ```
/// use af_time::ATime;
///
/// let a = ATime::new(u32::MAX - 10);
/// let b = a + 20u32; // wraps through zero
/// assert!(b.is_after(a));
/// assert_eq!(b.delta(a), 20);
/// assert_eq!(b - a, 20);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ATime(u32);

impl ATime {
    /// The zero of device time; every device counter starts here.
    pub const ZERO: ATime = ATime(0);

    /// Creates a time from its raw 32-bit representation.
    pub const fn new(ticks: u32) -> Self {
        ATime(ticks)
    }

    /// Returns the raw 32-bit counter value.
    pub const fn ticks(self) -> u32 {
        self.0
    }

    /// Returns the signed number of ticks from `earlier` to `self`.
    ///
    /// Positive when `self` is after `earlier`.  This is the paper's
    /// `(int)(b - a)` idiom: the result is correct as long as the true
    /// separation of the two times is less than 2³¹ samples.
    pub const fn delta(self, earlier: ATime) -> i32 {
        self.0.wrapping_sub(earlier.0) as i32
    }

    /// Returns `true` when `self` is strictly later than `other`.
    pub const fn is_after(self, other: ATime) -> bool {
        self.delta(other) > 0
    }

    /// Returns `true` when `self` is strictly earlier than `other`.
    pub const fn is_before(self, other: ATime) -> bool {
        self.delta(other) < 0
    }

    /// Returns `self` advanced by `samples` ticks (which may be negative),
    /// wrapping on overflow.
    pub const fn offset(self, samples: i32) -> ATime {
        ATime(self.0.wrapping_add(samples as u32))
    }

    /// Returns the later of two times under circular ordering.
    pub fn max_circular(self, other: ATime) -> ATime {
        if self.is_after(other) {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times under circular ordering.
    pub fn min_circular(self, other: ATime) -> ATime {
        if self.is_before(other) {
            self
        } else {
            other
        }
    }

    /// Clamps `self` into the circular interval `[lo, hi]`.
    ///
    /// The interval must itself span less than 2³¹ ticks (`hi` not before
    /// `lo`); otherwise the result is unspecified but memory-safe.
    pub fn clamp_circular(self, lo: ATime, hi: ATime) -> ATime {
        debug_assert!(!hi.is_before(lo), "inverted clamp interval");
        if self.is_before(lo) {
            lo
        } else if self.is_after(hi) {
            hi
        } else {
            self
        }
    }
}

impl Add<i32> for ATime {
    type Output = ATime;

    fn add(self, rhs: i32) -> ATime {
        self.offset(rhs)
    }
}

impl Add<u32> for ATime {
    type Output = ATime;

    fn add(self, rhs: u32) -> ATime {
        ATime(self.0.wrapping_add(rhs))
    }
}

impl AddAssign<u32> for ATime {
    fn add_assign(&mut self, rhs: u32) {
        self.0 = self.0.wrapping_add(rhs);
    }
}

impl AddAssign<i32> for ATime {
    fn add_assign(&mut self, rhs: i32) {
        *self = self.offset(rhs);
    }
}

impl Sub<u32> for ATime {
    type Output = ATime;

    fn sub(self, rhs: u32) -> ATime {
        ATime(self.0.wrapping_sub(rhs))
    }
}

impl SubAssign<u32> for ATime {
    fn sub_assign(&mut self, rhs: u32) {
        self.0 = self.0.wrapping_sub(rhs);
    }
}

/// `b - a` yields the signed tick distance, per the paper's comparison idiom.
impl Sub<ATime> for ATime {
    type Output = i32;

    fn sub(self, rhs: ATime) -> i32 {
        self.delta(rhs)
    }
}

impl fmt::Debug for ATime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ATime({})", self.0)
    }
}

impl fmt::Display for ATime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for ATime {
    fn from(ticks: u32) -> Self {
        ATime(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_comparison_idiom() {
        // Mirrors the example in §2.1 for a device at 8000 samples/second.
        let a = ATime::new(1_000_000);
        let b = a + 8000u32;
        assert!(b.is_after(a));
        assert!(a.is_before(b));
        assert_eq!(b - a, 8000); // b is one second later than a.
    }

    #[test]
    fn ordering_across_wrap() {
        let a = ATime::new(u32::MAX - 100);
        let b = ATime::new(50); // 151 ticks after `a`, across the wrap.
        assert!(b.is_after(a));
        assert!(a.is_before(b));
        assert_eq!(b - a, 151);
        assert_eq!(a - b, -151);
    }

    #[test]
    fn equal_times_are_neither_before_nor_after() {
        let t = ATime::new(42);
        assert!(!t.is_after(t));
        assert!(!t.is_before(t));
        assert_eq!(t - t, 0);
    }

    #[test]
    fn offset_negative_wraps() {
        let t = ATime::new(5);
        assert_eq!(t.offset(-10), ATime::new(u32::MAX - 4));
        assert_eq!(t.offset(-10) + 10u32, t);
    }

    #[test]
    fn far_separation_flips_order() {
        // The documented hazard: once two times are 2^31 apart, the distant
        // past becomes the distant future.
        let a = ATime::new(0);
        let just_under = a + (i32::MAX as u32);
        assert!(just_under.is_after(a));
        let exactly = a + (1u32 << 31);
        // 2^31 maps to i32::MIN which is negative: reads as "before".
        assert!(exactly.is_before(a));
    }

    #[test]
    fn min_max_clamp() {
        let a = ATime::new(100);
        let b = ATime::new(300);
        assert_eq!(a.max_circular(b), b);
        assert_eq!(a.min_circular(b), a);
        assert_eq!(ATime::new(50).clamp_circular(a, b), a);
        assert_eq!(ATime::new(400).clamp_circular(a, b), b);
        assert_eq!(ATime::new(200).clamp_circular(a, b), ATime::new(200));
    }
}
