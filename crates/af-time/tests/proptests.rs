//! Property-based tests for the device-time laws of §2.1.

use af_time::{ATime, Correspondence};
use proptest::prelude::*;

proptest! {
    /// Advancing by `d` then comparing recovers `d` (for |d| < 2³¹).
    #[test]
    fn delta_inverts_offset(base in any::<u32>(), d in any::<i32>()) {
        let a = ATime::new(base);
        let b = a.offset(d);
        prop_assert_eq!(b.delta(a), d);
        prop_assert_eq!(a.delta(b), d.wrapping_neg());
    }

    /// `is_after` / `is_before` are mutually exclusive and match the sign of
    /// the two's-complement delta.
    #[test]
    fn ordering_trichotomy(base in any::<u32>(), d in any::<i32>()) {
        let a = ATime::new(base);
        let b = a.offset(d);
        match d {
            0 => {
                prop_assert!(!b.is_after(a));
                prop_assert!(!b.is_before(a));
            }
            d if d > 0 => {
                prop_assert!(b.is_after(a));
                prop_assert!(!b.is_before(a));
            }
            _ => {
                prop_assert!(b.is_before(a));
                prop_assert!(!b.is_after(a));
            }
        }
    }

    /// Ordering of nearby times is translation-invariant: shifting both times
    /// by the same amount preserves before/after.
    #[test]
    fn ordering_translation_invariant(
        base in any::<u32>(),
        d in -1_000_000i32..1_000_000,
        shift in any::<i32>(),
    ) {
        let a = ATime::new(base);
        let b = a.offset(d);
        prop_assert_eq!(b.is_after(a), b.offset(shift).is_after(a.offset(shift)));
    }

    /// Offsets compose additively modulo 2³².
    #[test]
    fn offset_composes(base in any::<u32>(), d1 in any::<i32>(), d2 in any::<i32>()) {
        let a = ATime::new(base);
        prop_assert_eq!(a.offset(d1).offset(d2), a.offset(d1.wrapping_add(d2)));
    }

    /// A correspondence with equal rates is a pure translation.
    #[test]
    fn equal_rate_correspondence_is_translation(
        ta in any::<u32>(),
        tb in any::<u32>(),
        t in -10_000_000i32..10_000_000,
        rate in 1u32..200_000,
    ) {
        let c = Correspondence::new(ATime::new(ta), f64::from(rate), ATime::new(tb), f64::from(rate));
        let mapped = c.a_to_b(ATime::new(ta).offset(t));
        prop_assert_eq!(mapped, ATime::new(tb).offset(t));
    }

    /// a_to_b then b_to_a returns within rounding distance of the input.
    ///
    /// Valid only while the elapsed interval maps within ±2³¹ ticks on
    /// *both* clocks (the documented domain of `Correspondence`), so rates
    /// are kept within a bounded ratio of each other.
    #[test]
    fn correspondence_round_trip(
        ta in any::<u32>(),
        tb in any::<u32>(),
        t in -1_000_000i32..1_000_000,
        ra in 1_000u32..200_000,
        rb in 1_000u32..200_000,
    ) {
        let c = Correspondence::new(ATime::new(ta), f64::from(ra), ATime::new(tb), f64::from(rb));
        let t_a = ATime::new(ta).offset(t);
        let back = c.b_to_a(c.a_to_b(t_a));
        // Each direction rounds to the nearest tick; the error bound is one
        // tick of A per tick of rounding on B, i.e. ceil(ra/rb) + 1.
        let bound = (ra as i64 + rb as i64 - 1) / rb as i64 + 1;
        prop_assert!(i64::from(back.delta(t_a)).abs() <= bound,
            "round trip error {} exceeds bound {}", back.delta(t_a), bound);
    }
}
