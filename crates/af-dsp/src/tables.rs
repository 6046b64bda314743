//! Precomputed lookup tables (the `libAFUtil` tables of §6.2.1).
//!
//! The paper observes that companding conversions are "possible but time
//! consuming to do algorithmically" and uses table lookup everywhere hot:
//! 256-entry expansion tables, 16,384-byte compression tables indexed by
//! 13-bit linear + sign, 256-entry power tables, and a 64 KiB mixing table
//! per companded format.  All tables are built once on first use.

use crate::gain::{self, GainTable};
use crate::{g711, Encoding};
use std::borrow::Cow;
use std::sync::OnceLock;

/// `AF_exp_u`: µ-law byte → 16-bit linear.
pub fn exp_u() -> &'static [i16; 256] {
    static T: OnceLock<[i16; 256]> = OnceLock::new();
    T.get_or_init(|| std::array::from_fn(|i| g711::ulaw_to_linear(i as u8)))
}

/// `AF_exp_a`: A-law byte → 16-bit linear.
pub fn exp_a() -> &'static [i16; 256] {
    static T: OnceLock<[i16; 256]> = OnceLock::new();
    T.get_or_init(|| std::array::from_fn(|i| g711::alaw_to_linear(i as u8)))
}

/// Index into a 16 K compression table for a 16-bit linear sample.
///
/// The table is indexed by the top 14 bits (sign + 13-bit magnitude), the
/// layout the paper's 16,384-byte `AF_comp_*` tables use.
#[inline]
pub fn comp_index(pcm: i16) -> usize {
    ((pcm as u16) >> 2) as usize
}

/// `AF_comp_u`: 14-bit index (see [`comp_index`]) → µ-law byte.
pub fn comp_u() -> &'static [u8; 16_384] {
    static T: OnceLock<Box<[u8; 16_384]>> = OnceLock::new();
    T.get_or_init(|| {
        let mut t = vec![0u8; 16_384].into_boxed_slice();
        for i in 0..16_384usize {
            let pcm = ((i as u16) << 2) as i16;
            t[i] = g711::linear_to_ulaw(pcm);
        }
        t.try_into().expect("length is 16384")
    })
}

/// `AF_comp_a`: 14-bit index (see [`comp_index`]) → A-law byte.
pub fn comp_a() -> &'static [u8; 16_384] {
    static T: OnceLock<Box<[u8; 16_384]>> = OnceLock::new();
    T.get_or_init(|| {
        let mut t = vec![0u8; 16_384].into_boxed_slice();
        for i in 0..16_384usize {
            let pcm = ((i as u16) << 2) as i16;
            t[i] = g711::linear_to_alaw(pcm);
        }
        t.try_into().expect("length is 16384")
    })
}

/// Table-driven µ-law encode of one sample.
#[inline]
pub fn ulaw_encode_fast(pcm: i16) -> u8 {
    comp_u()[comp_index(pcm)]
}

/// Table-driven A-law encode of one sample.
#[inline]
pub fn alaw_encode_fast(pcm: i16) -> u8 {
    comp_a()[comp_index(pcm)]
}

/// `AF_cvt_u2a`: µ-law → A-law transcoding table.
pub fn cvt_u2a() -> &'static [u8; 256] {
    static T: OnceLock<[u8; 256]> = OnceLock::new();
    T.get_or_init(|| std::array::from_fn(|i| g711::ulaw_to_alaw(i as u8)))
}

/// `AF_cvt_a2u`: A-law → µ-law transcoding table.
pub fn cvt_a2u() -> &'static [u8; 256] {
    static T: OnceLock<[u8; 256]> = OnceLock::new();
    T.get_or_init(|| std::array::from_fn(|i| g711::alaw_to_ulaw(i as u8)))
}

/// `AF_cvt_u2f`: µ-law → floating point in [-1, 1].
pub fn cvt_u2f() -> &'static [f32; 256] {
    static T: OnceLock<[f32; 256]> = OnceLock::new();
    T.get_or_init(|| std::array::from_fn(|i| f32::from(g711::ulaw_to_linear(i as u8)) / 32_768.0))
}

/// `AF_cvt_a2f`: A-law → floating point in [-1, 1].
pub fn cvt_a2f() -> &'static [f32; 256] {
    static T: OnceLock<[f32; 256]> = OnceLock::new();
    T.get_or_init(|| std::array::from_fn(|i| f32::from(g711::alaw_to_linear(i as u8)) / 32_768.0))
}

/// `AF_power_uf`: µ-law byte → square of the linear value.
pub fn power_u() -> &'static [i64; 256] {
    static T: OnceLock<[i64; 256]> = OnceLock::new();
    T.get_or_init(|| {
        std::array::from_fn(|i| {
            let v = i64::from(g711::ulaw_to_linear(i as u8));
            v * v
        })
    })
}

/// `AF_power_af`: A-law byte → square of the linear value.
pub fn power_a() -> &'static [i64; 256] {
    static T: OnceLock<[i64; 256]> = OnceLock::new();
    T.get_or_init(|| {
        std::array::from_fn(|i| {
            let v = i64::from(g711::alaw_to_linear(i as u8));
            v * v
        })
    })
}

/// `AF_mix_u`: mixes two µ-law samples by table lookup.
///
/// The 64 KiB table is indexed by `(a << 8) | b` and holds the µ-law encoding
/// of the saturated sum of the decoded operands.
pub struct MixTable {
    table: Box<[u8; 65_536]>,
}

impl MixTable {
    fn build(decode: fn(u8) -> i16, encode: fn(i16) -> u8) -> MixTable {
        let mut t = vec![0u8; 65_536].into_boxed_slice();
        // Decode each operand once; the inner loop is pure arithmetic.
        let dec: Vec<i32> = (0..=255u8).map(|b| i32::from(decode(b))).collect();
        for (a, &da) in dec.iter().enumerate() {
            for (b, &db) in dec.iter().enumerate() {
                let sum = (da + db).clamp(-32_768, 32_767) as i16;
                t[(a << 8) | b] = encode(sum);
            }
        }
        MixTable {
            table: t.try_into().expect("length is 65536"),
        }
    }

    /// Mixes two samples.
    #[inline]
    pub fn mix(&self, a: u8, b: u8) -> u8 {
        self.table[((a as usize) << 8) | b as usize]
    }
}

/// The shared µ-law mixing table (`AF_mix_u`).
pub fn mix_u() -> &'static MixTable {
    static T: OnceLock<MixTable> = OnceLock::new();
    T.get_or_init(|| MixTable::build(g711::ulaw_to_linear, g711::linear_to_ulaw))
}

/// The shared A-law mixing table (`AF_mix_a`).
pub fn mix_a() -> &'static MixTable {
    static T: OnceLock<MixTable> = OnceLock::new();
    T.get_or_init(|| MixTable::build(g711::alaw_to_linear, g711::linear_to_alaw))
}

/// An audio context's **play map**: its conversion module and its play gain
/// composed into one lookup table, so a play on a companded device is one
/// pass over the samples — look the client's sample up, mix it (or store
/// it) into the device buffer.
///
/// Built from the tables that define the two steps today (`comp_*` or
/// `cvt_*`, then [`GainTable`]), so each entry is what
/// [`crate::reference::encode_from_lin16_scalar`] followed by
/// [`crate::reference::apply_gain_bytes_scalar`] gives.  0 dB means *no gain
/// step* — not `GainTable::new_ulaw(0)`, which folds the µ-law negative zero
/// `0x7F` into `0xFF`.
///
/// On a µ-law device the map also carries its `LinearPlanes`: the same
/// composition in the 256 bytes a kernel table with a wide byte permute
/// ([`crate::kernels::Kernels::play_mix`]) mixes from without touching the
/// tables at all.
pub struct PlayMap {
    table: MapTable,
    mix: &'static MixTable,
    planes: Option<Box<LinearPlanes>>,
}

enum MapTable {
    /// LIN16 client: 16,384 entries indexed by [`comp_index`]; at 0 dB the
    /// static `comp_*` table itself.
    Lin16(Cow<'static, [u8]>),
    /// Companded client: a gain, a transcode, or both.
    Companded(Box<[u8; 256]>),
}

/// The linear values of a µ-law-like code space in the form `vpermi2b`
/// indexes: a plane of low bytes and a plane of high bytes for the 128
/// codes with bit 7 clear (the non-positive half); a code with bit 7 set
/// is the negation of its twin, which [`LinearPlanes::of`] checks.
#[repr(C, align(64))]
pub(crate) struct LinearPlanes {
    lo: [u8; 128],
    hi: [u8; 128],
}

impl LinearPlanes {
    /// The planes of `value`, or `None` unless `value(c | 0x80)` is
    /// `-value(c)` for every code.
    fn of(value: impl Fn(u8) -> i16) -> Option<LinearPlanes> {
        let twins = (0..128).all(|c| value(c | 0x80).checked_neg() == Some(value(c)));
        let plane = |byte: usize| std::array::from_fn(|c| value(c as u8).to_le_bytes()[byte]);
        twins.then(|| LinearPlanes {
            lo: plane(0),
            hi: plane(1),
        })
    }

    /// `AF_exp_u` in planes: what a µ-law device byte decodes to.
    pub(crate) fn exp_u() -> &'static LinearPlanes {
        static T: OnceLock<LinearPlanes> = OnceLock::new();
        T.get_or_init(|| LinearPlanes::of(g711::ulaw_to_linear).expect("G.711 is sign-magnitude"))
    }
}

impl PlayMap {
    /// The map playing `client` samples at `gain_db` on a `device` buffer,
    /// or `None` where a table cannot express the pipeline (a linear
    /// device, a LIN32 or ADPCM client) or there is nothing to compose (the
    /// device's own encoding at 0 dB).  Allocates; for set-up, not the play
    /// path.
    pub fn new(client: Encoding, device: Encoding, gain_db: i32) -> Option<PlayMap> {
        if client == device && gain_db == 0 {
            return None;
        }
        type Precomputed = fn(i32) -> Option<&'static GainTable>;
        let (comp, mix, precomputed, build): (_, _, Precomputed, fn(i32) -> GainTable) =
            match device {
                Encoding::Mu255 => (comp_u(), mix_u(), gain::gain_table_u, GainTable::new_ulaw),
                Encoding::Alaw => (comp_a(), mix_a(), gain::gain_table_a, GainTable::new_alaw),
                _ => return None,
            };
        let gain = (gain_db != 0).then(|| {
            precomputed(gain_db).map_or_else(|| Cow::Owned(build(gain_db)), Cow::Borrowed)
        });
        let gained = |b: u8| gain.as_ref().map_or(b, |t| t.apply(b));
        let table = match client {
            Encoding::Lin16 if gain.is_none() => MapTable::Lin16(Cow::Borrowed(&comp[..])),
            Encoding::Lin16 => MapTable::Lin16(comp.iter().map(|&b| gained(b)).collect()),
            _ if client == device => {
                MapTable::Companded(Box::new(std::array::from_fn(|i| gained(i as u8))))
            }
            Encoding::Mu255 => MapTable::Companded(Box::new(cvt_u2a().map(gained))),
            Encoding::Alaw => MapTable::Companded(Box::new(cvt_a2u().map(gained))),
            _ => return None,
        };
        // The linear value each sample mixes as, by the byte that selects
        // it: a LIN16 sample's µ-law code before the gain step (absent at
        // 0 dB, so `0x7F` stays itself), a companded client's own byte.
        let linear = |b: u8| match &table {
            MapTable::Lin16(_) => g711::ulaw_to_linear(gained(b)),
            MapTable::Companded(t) => g711::ulaw_to_linear(t[b as usize]),
        };
        let planes = (device == Encoding::Mu255).then(|| LinearPlanes::of(linear));
        let planes = planes.flatten().map(Box::new);
        Some(PlayMap { table, mix, planes })
    }

    /// Bytes per client sample (each maps to one device byte).
    pub fn sample_bytes(&self) -> usize {
        match self.table {
            MapTable::Lin16(_) => 2,
            MapTable::Companded(_) => 1,
        }
    }

    /// Runs `put(device byte, mapped sample)` over `dst` and the client
    /// samples in `src`, in step.
    #[inline(always)]
    fn merge(&self, dst: &mut [u8], src: &[u8], put: impl Fn(&mut u8, u8)) {
        assert_eq!(
            src.len(),
            dst.len() * self.sample_bytes(),
            "play map length mismatch"
        );
        match &self.table {
            MapTable::Lin16(t) => {
                let t: &[u8; 16_384] = t[..].try_into().expect("built with 16,384 entries");
                for (d, s) in dst.iter_mut().zip(src.chunks_exact(2)) {
                    put(d, t[comp_index(i16::from_le_bytes([s[0], s[1]]))]);
                }
            }
            MapTable::Companded(t) => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    put(d, t[s as usize]);
                }
            }
        }
    }

    /// Mixes the client samples in `src` into the device bytes `dst`, by
    /// the active kernel table's `play_mix`.
    ///
    /// # Panics
    ///
    /// Panics unless `src` holds exactly one sample per byte of `dst`.
    pub fn mix_into(&self, dst: &mut [u8], src: &[u8]) {
        (crate::kernels::active().play_mix)(self, dst, src);
    }

    /// [`PlayMap::mix_into`] by the tables alone: a map lookup, then a mix
    /// lookup, per sample.  The definition of `play_mix`, the entry of
    /// every kernel table without an interior of its own, and the tail of
    /// the one that has.
    pub(crate) fn mix_by_table(&self, dst: &mut [u8], src: &[u8]) {
        self.merge(dst, src, |d, s| *d = self.mix.mix(*d, s));
    }

    /// The planes of a µ-law device's map; `None` on an A-law device.
    pub(crate) fn ulaw_planes(&self) -> Option<&LinearPlanes> {
        self.planes.as_deref()
    }

    /// Writes the client samples in `src` over the device bytes `dst`.
    ///
    /// # Panics
    ///
    /// Panics unless `src` holds exactly one sample per byte of `dst`.
    pub fn copy_into(&self, dst: &mut [u8], src: &[u8]) {
        self.merge(dst, src, |d, s| *d = s);
    }
}

/// `AF_sine_int`: 1024-entry 16-bit integer sine wave (peak 32 767).
pub fn sine_int() -> &'static [i16; 1024] {
    static T: OnceLock<[i16; 1024]> = OnceLock::new();
    T.get_or_init(|| {
        std::array::from_fn(|i| {
            let phase = (i as f64) / 1024.0 * std::f64::consts::TAU;
            (phase.sin() * 32_767.0).round() as i16
        })
    })
}

/// `AF_sine_float`: 1024-entry floating point sine wave (peak 1.0).
pub fn sine_float() -> &'static [f32; 1024] {
    static T: OnceLock<[f32; 1024]> = OnceLock::new();
    T.get_or_init(|| {
        std::array::from_fn(|i| {
            let phase = (i as f64) / 1024.0 * std::f64::consts::TAU;
            phase.sin() as f32
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g711::{linear_to_alaw, linear_to_ulaw};

    #[test]
    fn expansion_tables_match_algorithm() {
        for i in 0..=255u8 {
            assert_eq!(exp_u()[i as usize], g711::ulaw_to_linear(i));
            assert_eq!(exp_a()[i as usize], g711::alaw_to_linear(i));
        }
    }

    #[test]
    fn compression_tables_match_algorithm_at_table_resolution() {
        // The 16K table quantizes input to 4-sample cells; exact agreement
        // holds for inputs that are multiples of 4.
        for pcm in (-32_768i32..=32_764).step_by(4) {
            let pcm = pcm as i16;
            assert_eq!(ulaw_encode_fast(pcm), linear_to_ulaw(pcm), "pcm={pcm}");
            assert_eq!(alaw_encode_fast(pcm), linear_to_alaw(pcm), "pcm={pcm}");
        }
    }

    #[test]
    fn compression_table_error_within_one_step() {
        // For arbitrary input the table answer decodes within one
        // quantization step of the exact answer.
        for pcm in (-32_768i32..=32_767).step_by(13) {
            let pcm = pcm as i16;
            let exact = i32::from(g711::ulaw_to_linear(linear_to_ulaw(pcm)));
            let table = i32::from(g711::ulaw_to_linear(ulaw_encode_fast(pcm)));
            assert!((exact - table).abs() <= 1024, "pcm={pcm}");
        }
    }

    #[test]
    fn mix_table_is_commutative_and_saturates() {
        let m = mix_u();
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                assert_eq!(m.mix(a, b), m.mix(b, a));
            }
        }
        // Mixing full-scale positive with itself saturates, not wraps.
        let loud = linear_to_ulaw(30_000);
        let mixed = g711::ulaw_to_linear(m.mix(loud, loud));
        assert!(mixed > 30_000);
    }

    #[test]
    fn mixing_with_silence_is_identity() {
        let m = mix_u();
        for a in 0..=255u8 {
            let out = g711::ulaw_to_linear(m.mix(a, g711::ULAW_SILENCE));
            assert_eq!(out, g711::ulaw_to_linear(a));
        }
        let ma = mix_a();
        for a in 0..=255u8 {
            // A-law "silence" is ±8, not exactly zero, so allow the ±8 offset
            // to move the result by at most one quantization step.
            let base = i32::from(g711::alaw_to_linear(a));
            let out = i32::from(g711::alaw_to_linear(ma.mix(a, g711::ALAW_SILENCE)));
            assert!((out - base).abs() <= 1024 / 2 + 8, "a={a:#x}");
        }
    }

    /// Every client sample there is, as the bytes a request carries.
    fn every_sample(client: Encoding) -> Vec<u8> {
        match client {
            // All 65,536 — `i16::MIN`, and the low two bits the 16 K index
            // drops — strided under Miri, with the edges kept.
            Encoding::Lin16 => (i16::MIN..=i16::MAX)
                .filter(|s| !cfg!(miri) || s % 251 == 0 || s.unsigned_abs() > 32_760)
                .flat_map(i16::to_le_bytes)
                .collect(),
            // All 256 codes, the two µ-law zeros among them.
            _ => (0..=255).collect(),
        }
    }

    #[test]
    fn play_map_is_the_reference_conversion_then_the_reference_gain_on_every_input() {
        use crate::reference;
        let companded = [Encoding::Mu255, Encoding::Alaw];
        let gains: Vec<i32> = if cfg!(miri) {
            vec![-40, -6, 0, 3, 40]
        } else {
            (-30..=30).chain([-40, 40]).collect()
        };
        for device in companded {
            for client in [Encoding::Mu255, Encoding::Alaw, Encoding::Lin16] {
                let src = every_sample(client);
                let pcm = reference::decode_to_lin16_scalar(client, &src);
                let converted = if client == device {
                    src.clone()
                } else {
                    reference::encode_from_lin16_scalar(device, &pcm)
                };
                for &db in &gains {
                    let Some(map) = PlayMap::new(client, device, db) else {
                        // Nothing to compose: the device's own bytes at 0 dB.
                        assert_eq!((client, db), (device, 0));
                        continue;
                    };
                    let mut want = converted.clone();
                    reference::apply_gain_bytes_scalar(device, &mut want, db);
                    let mut got = vec![0xEE; want.len()];
                    map.copy_into(&mut got, &src);
                    assert_eq!(got, want, "{client} on {device} at {db} dB");

                    // Mixed into every device byte a sample can meet (one
                    // per sample, all 256 in turn), it is the mix table's
                    // answer for the mapped byte.
                    let ring: Vec<u8> = (0..want.len()).map(|i| (i * 7 + 3) as u8).collect();
                    let mut mixed = ring.clone();
                    map.mix_into(&mut mixed, &src);
                    reference::mix_bytes_scalar(device, &mut want, &ring);
                    assert_eq!(mixed, want, "{client} mixed on {device} at {db} dB");
                }
            }
        }
    }

    #[test]
    fn play_map_zero_db_is_no_gain_step_and_linear_devices_have_none() {
        // `GainTable::new_ulaw(0)` folds 0x7F into 0xFF; the map must not.
        let map = PlayMap::new(Encoding::Alaw, Encoding::Mu255, 0).unwrap();
        let src: Vec<u8> = (0..=255).collect();
        let mut got = vec![0; 256];
        map.copy_into(&mut got, &src);
        assert_eq!(got[..], cvt_a2u()[..]);
        // At 0 dB a LIN16 context borrows the static table.
        let map = PlayMap::new(Encoding::Lin16, Encoding::Mu255, 0).unwrap();
        assert!(matches!(&map.table, MapTable::Lin16(Cow::Borrowed(_))));
        assert_eq!(map.sample_bytes(), 2);
        for (client, device) in [
            (Encoding::Lin16, Encoding::Lin16),
            (Encoding::Mu255, Encoding::Lin16),
            (Encoding::Lin32, Encoding::Mu255),
            (Encoding::Adpcm32, Encoding::Alaw),
            (Encoding::Mu255, Encoding::Mu255),
        ] {
            assert!(
                PlayMap::new(client, device, 0).is_none(),
                "{client} on {device}"
            );
        }
        assert!(PlayMap::new(Encoding::Lin32, Encoding::Mu255, -6).is_none());
    }

    #[test]
    fn every_ulaw_device_map_has_planes_and_they_are_its_table_decoded() {
        // A gain table is sign-symmetric at any gain, so the check in
        // `LinearPlanes::of` never leaves a µ-law map to the table loop.
        for client in [Encoding::Lin16, Encoding::Mu255, Encoding::Alaw] {
            for db in -100..=100 {
                if let Some(map) = PlayMap::new(client, Encoding::Mu255, db) {
                    let planes = map.ulaw_planes().expect("sign-symmetric");
                    // Entry `c` is what the code `c` plays as: through the
                    // map's own table, stored over silence.
                    let code = |c: u8| match client {
                        Encoding::Lin16 => g711::ulaw_to_linear(c).to_le_bytes().to_vec(),
                        _ => vec![c],
                    };
                    for c in 0..128u8 {
                        let mut byte = [0];
                        map.copy_into(&mut byte, &code(c));
                        let v = i16::from_le_bytes([planes.lo[c as usize], planes.hi[c as usize]]);
                        assert_eq!(
                            v,
                            g711::ulaw_to_linear(byte[0]),
                            "{client} {db} dB {c:#04x}"
                        );
                    }
                }
                assert!(PlayMap::new(client, Encoding::Alaw, db)
                    .is_none_or(|m| m.ulaw_planes().is_none()));
            }
        }
        assert!(LinearPlanes::of(i16::from).is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn play_map_refuses_a_partial_sample() {
        let map = PlayMap::new(Encoding::Lin16, Encoding::Mu255, -6).unwrap();
        map.copy_into(&mut [0; 2], &[0; 3]);
    }

    #[test]
    fn sine_tables_shape() {
        let s = sine_int();
        assert_eq!(s[0], 0);
        assert_eq!(s[256], 32_767);
        assert_eq!(s[512], 0);
        assert_eq!(s[768], -32_767);
        let f = sine_float();
        assert!((f[256] - 1.0).abs() < 1e-6);
        // Symmetry: sin(x) == -sin(x + π).
        for i in 0..512 {
            assert_eq!(s[i], -s[i + 512], "i={i}");
        }
    }

    #[test]
    fn power_tables_are_squares() {
        for i in 0..=255u8 {
            let v = i64::from(g711::ulaw_to_linear(i));
            assert_eq!(power_u()[i as usize], v * v);
        }
        assert_eq!(power_a()[0xD5], 64); // ±8 squared.
    }

    #[test]
    fn float_tables_in_range() {
        for i in 0..=255usize {
            assert!(cvt_u2f()[i].abs() <= 1.0);
            assert!(cvt_a2f()[i].abs() <= 1.0);
        }
    }

    #[test]
    fn transcoding_tables_match_algorithm() {
        for i in 0..=255u8 {
            assert_eq!(cvt_u2a()[i as usize], g711::ulaw_to_alaw(i));
            assert_eq!(cvt_a2u()[i as usize], g711::alaw_to_ulaw(i));
        }
    }
}
