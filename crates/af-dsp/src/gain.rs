//! Decibel gain application.
//!
//! Gain control for a specific gain on companded data "requires only a 256
//! byte table" (§6.2.1).  The paper precomputes tables for -30 dB … +30 dB
//! (`AF_gain_table_u` / `AF_gain_table_a`, 61 tables) and supplies
//! `AFMakeGainTableU`/`A` for gains outside that range; both are reproduced
//! here, plus linear-domain gain for LIN16/LIN32 data.  [`apply_gain_bytes`]
//! is the entry point for raw buffer bytes in a device's native encoding.

use crate::{g711, Encoding};
use std::sync::OnceLock;

/// Inclusive bounds of the precomputed gain-table set, in dB.
pub const PRECOMPUTED_GAIN_RANGE: (i32, i32) = (-30, 30);

/// Converts a decibel value to a linear amplitude factor.
///
/// # Examples
///
/// ```
/// assert!((af_dsp::gain::db_to_linear(0.0) - 1.0).abs() < 1e-12);
/// assert!((af_dsp::gain::db_to_linear(-6.0) - 0.5012).abs() < 1e-3);
/// ```
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// A 256-entry table applying a fixed gain to one companded format.
#[derive(Clone)]
pub struct GainTable {
    table: [u8; 256],
    db: i32,
}

impl GainTable {
    /// `AFMakeGainTableU`: builds a µ-law gain table for `db` decibels.
    pub fn new_ulaw(db: i32) -> GainTable {
        Self::build(db, g711::ulaw_to_linear, g711::linear_to_ulaw)
    }

    /// `AFMakeGainTableA`: builds an A-law gain table for `db` decibels.
    pub fn new_alaw(db: i32) -> GainTable {
        Self::build(db, g711::alaw_to_linear, g711::linear_to_alaw)
    }

    fn build(db: i32, decode: fn(u8) -> i16, encode: fn(i16) -> u8) -> GainTable {
        let factor = db_to_linear(f64::from(db));
        let table = std::array::from_fn(|i| {
            let v = f64::from(decode(i as u8)) * factor;
            encode(v.clamp(-32_768.0, 32_767.0) as i16)
        });
        GainTable { table, db }
    }

    /// The gain this table applies, in dB.
    pub fn db(&self) -> i32 {
        self.db
    }

    /// Applies the gain to one sample.
    #[inline]
    pub fn apply(&self, sample: u8) -> u8 {
        self.table[sample as usize]
    }

    /// Applies the gain to a buffer in place.
    pub fn apply_in_place(&self, samples: &mut [u8]) {
        for s in samples {
            *s = self.table[*s as usize];
        }
    }
}

/// The precomputed µ-law gain tables (`AF_gain_table_u`), -30 … +30 dB.
///
/// Returns `None` for gains outside the precomputed range; callers then build
/// their own with [`GainTable::new_ulaw`].
pub fn gain_table_u(db: i32) -> Option<&'static GainTable> {
    static T: OnceLock<Vec<GainTable>> = OnceLock::new();
    let set = T.get_or_init(|| (-30..=30).map(GainTable::new_ulaw).collect());
    usize::try_from(db - PRECOMPUTED_GAIN_RANGE.0)
        .ok()
        .and_then(|i| set.get(i))
}

/// The precomputed A-law gain tables (`AF_gain_table_a`), -30 … +30 dB.
pub fn gain_table_a(db: i32) -> Option<&'static GainTable> {
    static T: OnceLock<Vec<GainTable>> = OnceLock::new();
    let set = T.get_or_init(|| (-30..=30).map(GainTable::new_alaw).collect());
    usize::try_from(db - PRECOMPUTED_GAIN_RANGE.0)
        .ok()
        .and_then(|i| set.get(i))
}

/// Precomputes the Q16 fixed-point multiplier for `db` decibels.
///
/// The linear kernels apply gain as `(sample * factor) >> 16`; computing the
/// factor once per buffer (instead of per sample) is what makes the batched
/// gain path a tight integer loop.
#[inline]
pub fn q16_factor(db: f64) -> i64 {
    (db_to_linear(db) * 65_536.0).round() as i64
}

/// Applies one precomputed Q16 gain step to a 16-bit sample, saturating.
#[inline]
pub fn q16_gain_i16(sample: i16, factor: i64) -> i16 {
    ((i64::from(sample) * factor) >> 16).clamp(-32_768, 32_767) as i16
}

/// Applies one precomputed Q16 gain step to a 32-bit sample, saturating.
#[inline]
pub fn q16_gain_i32(sample: i32, factor: i64) -> i32 {
    ((i64::from(sample) * factor) >> 16).clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
}

/// Applies `db` decibels of gain to `data` in place.
///
/// Companded formats go through 256-entry gain tables (precomputed for the
/// -30…+30 dB range, built on the fly outside it); linear formats apply a
/// Q16 fixed-point multiplier, computed once per buffer, in one loop over
/// the little-endian sample bytes.  A gain of 0 dB is free.
pub fn apply_gain_bytes(encoding: Encoding, data: &mut [u8], db: i32) {
    if db == 0 || data.is_empty() {
        return;
    }
    match encoding {
        Encoding::Mu255 => match gain_table_u(db) {
            Some(t) => t.apply_in_place(data),
            None => GainTable::new_ulaw(db).apply_in_place(data),
        },
        Encoding::Alaw => match gain_table_a(db) {
            Some(t) => t.apply_in_place(data),
            None => GainTable::new_alaw(db).apply_in_place(data),
        },
        Encoding::Lin16 => {
            let factor = q16_factor(f64::from(db));
            for pair in data.chunks_exact_mut(2) {
                let v = i16::from_le_bytes([pair[0], pair[1]]);
                pair.copy_from_slice(&q16_gain_i16(v, factor).to_le_bytes());
            }
        }
        Encoding::Lin32 => {
            let factor = q16_factor(f64::from(db));
            for quad in data.chunks_exact_mut(4) {
                let v = i32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]);
                quad.copy_from_slice(&q16_gain_i32(v, factor).to_le_bytes());
            }
        }
        // Compressed data cannot be gain-adjusted in place; the conversion
        // pipeline applies gain in the linear domain instead.
        _ => {}
    }
}

/// Byte-swaps multi-byte samples in place (big ↔ little endian).
///
/// Single-byte encodings are unaffected.  This is the server's
/// byte-swapping support of §7.3.1, applied to sample data when the
/// client's declared data order differs from the buffer order.
pub fn swap_sample_bytes(encoding: Encoding, data: &mut [u8]) {
    match encoding {
        Encoding::Lin16 => {
            for pair in data.chunks_exact_mut(2) {
                pair.swap(0, 1);
            }
        }
        Encoding::Lin32 => {
            for quad in data.chunks_exact_mut(4) {
                quad.swap(0, 3);
                quad.swap(1, 2);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_db_is_near_identity() {
        let t = GainTable::new_ulaw(0);
        for s in 0..=255u8 {
            // 0 dB re-encodes the decoded value: identity up to the dual
            // zero representation (0x7F and 0xFF both decode to 0).
            let expected = if s == 0x7F { 0xFF } else { s };
            assert_eq!(t.apply(s), expected, "s={s:#x}");
        }
        let ta = GainTable::new_alaw(0);
        for s in 0..=255u8 {
            assert_eq!(ta.apply(s), s);
        }
    }

    #[test]
    fn positive_gain_amplifies() {
        let t = GainTable::new_ulaw(6);
        let quiet = g711::linear_to_ulaw(1000);
        let louder = g711::ulaw_to_linear(t.apply(quiet));
        assert!((1900..=2100).contains(&louder), "got {louder}");
    }

    #[test]
    fn negative_gain_attenuates() {
        let t = GainTable::new_ulaw(-20);
        let loud = g711::linear_to_ulaw(10_000);
        let softer = g711::ulaw_to_linear(t.apply(loud));
        assert!((900..=1100).contains(&softer), "got {softer}");
    }

    #[test]
    fn large_gain_saturates_not_wraps() {
        let t = GainTable::new_ulaw(30);
        let loud = g711::linear_to_ulaw(20_000);
        let out = g711::ulaw_to_linear(t.apply(loud));
        assert!(out > 30_000);
    }

    #[test]
    fn precomputed_set_covers_range() {
        assert!(gain_table_u(-30).is_some());
        assert!(gain_table_u(0).is_some());
        assert!(gain_table_u(30).is_some());
        assert!(gain_table_u(31).is_none());
        assert!(gain_table_u(-31).is_none());
        assert_eq!(gain_table_a(12).unwrap().db(), 12);
    }

    #[test]
    fn zero_db_untouched() {
        let mut data = vec![1u8, 2, 3];
        apply_gain_bytes(Encoding::Mu255, &mut data, 0);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn ulaw_gain_in_and_out_of_precomputed_range() {
        let quiet = g711::linear_to_ulaw(1000);
        for db in [6, 40] {
            let mut data = vec![quiet];
            apply_gain_bytes(Encoding::Mu255, &mut data, db);
            let v = g711::ulaw_to_linear(data[0]);
            assert!(v > 1500, "db={db} v={v}");
        }
    }

    #[test]
    fn lin16_gain_bytes() {
        let gained = |v: i16, db| {
            let mut data = v.to_le_bytes().to_vec();
            apply_gain_bytes(Encoding::Lin16, &mut data, db);
            i16::from_le_bytes([data[0], data[1]])
        };
        assert!((495..=510).contains(&gained(1000, -6)));
        assert!((1980..=2010).contains(&gained(1000, 6)));
        assert!((-2010..=-1980).contains(&gained(-1000, 6)));
        assert_eq!(gained(32_000, 6), 32_767); // Saturated.
    }

    #[test]
    fn lin32_gain_bytes() {
        let gained = |v: i32, db| {
            let mut data = v.to_le_bytes().to_vec();
            apply_gain_bytes(Encoding::Lin32, &mut data, db);
            i32::from_le_bytes(data.try_into().unwrap())
        };
        assert!((9_900_000..=10_100_000).contains(&gained(1_000_000, 20)));
        assert_eq!(gained(i32::MAX / 2 + 1, 7), i32::MAX); // Saturated.
    }

    #[test]
    fn swap_lin16() {
        let mut data = vec![0x01, 0x02, 0x03, 0x04];
        swap_sample_bytes(Encoding::Lin16, &mut data);
        assert_eq!(data, vec![0x02, 0x01, 0x04, 0x03]);
    }

    #[test]
    fn swap_lin32() {
        let mut data = vec![0x01, 0x02, 0x03, 0x04];
        swap_sample_bytes(Encoding::Lin32, &mut data);
        assert_eq!(data, vec![0x04, 0x03, 0x02, 0x01]);
        // Involution.
        swap_sample_bytes(Encoding::Lin32, &mut data);
        assert_eq!(data, vec![0x01, 0x02, 0x03, 0x04]);
    }

    #[test]
    fn batched_gain_matches_scalar_reference() {
        for encoding in [
            Encoding::Mu255,
            Encoding::Alaw,
            Encoding::Lin16,
            Encoding::Lin32,
        ] {
            for db in [-30, -6, 3, 18, 30] {
                let mut batched: Vec<u8> = (0u16..256).flat_map(|i| [(i * 7) as u8]).collect();
                let mut scalar = batched.clone();
                apply_gain_bytes(encoding, &mut batched, db);
                crate::reference::apply_gain_bytes_scalar(encoding, &mut scalar, db);
                assert_eq!(batched, scalar, "encoding={encoding:?} db={db}");
            }
        }
    }

    #[test]
    fn swap_companded_noop() {
        let mut data = vec![0x01, 0x02];
        swap_sample_bytes(Encoding::Mu255, &mut data);
        assert_eq!(data, vec![0x01, 0x02]);
    }
}
