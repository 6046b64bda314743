//! x86_64 `core::arch` kernels: AVX2 when detected, AVX-512 when F, BW and
//! VBMI all are, and AVX-512 FP16 when the host has FP16 as well.
//!
//! Entry points are `#[target_feature]` functions reached only through the
//! tables handed out after `is_x86_feature_detected!` named every feature
//! they enable.  Below AVX2 a host runs the scalar table: LLVM vectorizes
//! its saturating mix for baseline SSE2, and the hand-written SSE2 mix
//! measured slower than that (EXPERIMENTS.md, "Kernel tables whose entries
//! earn their place").  The AVX2 table's mix is that same loop compiled
//! with AVX2 enabled.
//!
//! AVX2 companded decode is *algorithmic*, not a table gather: G.711's
//! `((m << 3) + 0x84) << e - 0x84` maps onto 16-bit lanes with the variable
//! shift done as a multiply by an in-register `2^e` gather, and the
//! conditional negate as `(x ^ mask) - mask`, which is lane-isolated in
//! real SIMD.  Every vector body hands its tail to the scalar loop of the
//! same entry point.
//!
//! An arithmetic encode *does* run where a byte permute spans the tables
//! it needs: the AVX-512 table's `play_mix` is `PlayMap::mix_by_table` on a
//! µ-law device with no table in cache — `vpermi2b` (VBMI) looks 128 bytes
//! up per instruction, so 64 samples go through encode, gain, decode,
//! saturating add and encode again as the integer functions the tables
//! are built from (DESIGN.md §8.3).  VBMI also leaves out the first
//! AVX-512 parts, whose 512-bit licence slows the scalar code around a
//! kernel.  The FP16 table's loop is the same but for its µ-law segment
//! step, a truncating half-precision conversion.  A-law devices and
//! `copy_into` keep the table loop.
//!
//! The same VBMI lookup over the µ-law planes is the AVX-512 table's
//! `decode_ulaw`, 64 codes per iteration.
//!
//! Both resamplers are the portable one's driver (`resample::drive`)
//! around a vector interior fed a run of positions as bit patterns
//! `b0 + k·n` (DESIGN.md §8.2).  The AVX2 interior, four lanes wide,
//! performs each IEEE operation of the reference loop on the same operands
//! in the same order; `fma` is deliberately not enabled: a fused
//! `a*(1-frac) + b*frac` rounds once where the reference rounds twice.
//! The AVX-512 one, eight lanes wide and needing only F, computes in exact
//! integers and falls back to the reference's arithmetic inside a window
//! around each half-integer, where its error bound cannot decide.

// All intrinsics in this module operate on unaligned loads/stores within
// caller-checked bounds; AVX2 and AVX-512 functions are reached only after
// runtime feature detection.
#![expect(unsafe_code)]

use core::arch::x86_64::*;

use super::{scalar, Kernels, ResampleState};
use crate::resample::{self, Run, BLOCK};
use crate::tables::{LinearPlanes, PlayMap};

const AVX2: Kernels = Kernels {
    name: "simd-avx2",
    decode_ulaw: decode_ulaw_avx2_entry,
    decode_alaw: decode_alaw_avx2_entry,
    mix_lin16_le: mix_lin16_le_avx2_entry,
    resample_block: resample_block_avx2_entry,
    ..scalar::KERNELS
};

const AVX512: Kernels = Kernels {
    name: "simd-avx512",
    decode_ulaw: decode_ulaw_avx512_entry,
    resample_block: resample_block_avx512_entry,
    play_mix: play_mix_avx512_entry,
    ..AVX2
};

const AVX512FP16: Kernels = Kernels {
    name: "simd-avx512fp16",
    play_mix: play_mix_avx512fp16_entry,
    ..AVX512
};

// Each table is the one before it with entries replaced.  Private: the
// `_entry` functions are sound only on a host with their features, so
// the tables leave this module through `available` alone.
static TABLES: [Kernels; 3] = [AVX2, AVX512, AVX512FP16];

/// Every table this host can execute, best last: AVX2 when detected,
/// AVX-512 when the host has AVX2 and all of F, BW and VBMI, AVX-512 FP16
/// when it has FP16 as well.
pub(super) fn available() -> &'static [Kernels] {
    use std::arch::is_x86_feature_detected as detected;
    let avx2 = detected!("avx2");
    let avx512 = avx2 && detected!("avx512f") && detected!("avx512bw") && detected!("avx512vbmi");
    let fp16 = avx512 && detected!("avx512fp16");
    &TABLES[..usize::from(avx2) + usize::from(avx512) + usize::from(fp16)]
}

// ---- AVX2 mixing ------------------------------------------------------

fn mix_lin16_le_avx2_entry(dst: &mut [u8], src: &[u8]) {
    // SAFETY: reachable only through the AVX2 table, which `available`
    // hands out only after `is_x86_feature_detected!("avx2")` returned true.
    unsafe { mix_lin16_le_avx2(dst, src) }
}

/// The scalar byte loop, compiled with AVX2 enabled: LLVM vectorizes it to
/// 32-byte `vpaddsw`, level with a hand-unrolled intrinsic loop from 4 KB
/// up (EXPERIMENTS.md, "Linear kernels over bytes").
///
/// # Safety
///
/// A caller without AVX2 enabled must guarantee the CPU supports it.
#[target_feature(enable = "avx2")]
fn mix_lin16_le_avx2(dst: &mut [u8], src: &[u8]) {
    scalar::mix_lin16_le(dst, src);
}

// ---- AVX2 decode (16 lanes per iteration) -----------------------------

/// `2^e` per 16-bit lane, for `e` in `0..=7`: a `vpshufb` gather from an
/// in-register byte table.  The index's high byte is forced to `0xFF`
/// (top bit set → `vpshufb` writes zero), so the result is exactly
/// `1 << e` in each lane.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn pow2_epi16(e: __m256i) -> __m256i {
    let lut = _mm256_broadcastsi128_si256(_mm_setr_epi8(
        1, 2, 4, 8, 16, 32, 64, -128, 0, 0, 0, 0, 0, 0, 0, 0,
    ));
    _mm256_shuffle_epi8(lut, _mm256_or_si256(e, _mm256_set1_epi16(0xFF00u16 as i16)))
}

fn decode_ulaw_avx2_entry(data: &[u8], out: &mut [i16]) {
    // SAFETY: reachable only through the AVX2 table, handed out only when detected.
    unsafe { decode_ulaw_avx2(data, out) }
}

fn decode_alaw_avx2_entry(data: &[u8], out: &mut [i16]) {
    // SAFETY: reachable only through the AVX2 table, handed out only when detected.
    unsafe { decode_alaw_avx2(data, out) }
}

/// # Safety
///
/// The caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn decode_ulaw_avx2(data: &[u8], out: &mut [i16]) {
    assert_eq!(data.len(), out.len(), "decode buffer length mismatch");
    let n = data.len();
    let mut i = 0;
    // In-body safety: each iteration reads 16 bytes and writes 16 i16,
    // bounded by `i + 16 <= n`.
    let inv = _mm256_set1_epi16(0x00FF);
    let bias = _mm256_set1_epi16(0x84);
    let m07 = _mm256_set1_epi16(0x07);
    let m0f = _mm256_set1_epi16(0x0F);
    let sbit = _mm256_set1_epi16(0x80);
    while i + 16 <= n {
        let raw = _mm_loadu_si128(data.as_ptr().add(i).cast());
        let u = _mm256_xor_si256(_mm256_cvtepu8_epi16(raw), inv);
        let e = _mm256_and_si256(_mm256_srli_epi16(u, 4), m07);
        let m = _mm256_and_si256(u, m0f);
        // ((m << 3) + 0x84) << e, as a multiply by the in-register 2^e
        // gather: the max product is 252 << 7 = 32256, so the low 16 bits
        // are exact.
        let base = _mm256_add_epi16(_mm256_slli_epi16(m, 3), bias);
        let mag = _mm256_sub_epi16(_mm256_mullo_epi16(base, pow2_epi16(e)), bias);
        let neg = _mm256_cmpeq_epi16(_mm256_and_si256(u, sbit), sbit);
        let res = _mm256_sub_epi16(_mm256_xor_si256(mag, neg), neg);
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), res);
        i += 16;
    }
    scalar::decode_ulaw(&data[i..], &mut out[i..]);
}

/// # Safety
///
/// The caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn decode_alaw_avx2(data: &[u8], out: &mut [i16]) {
    assert_eq!(data.len(), out.len(), "decode buffer length mismatch");
    let n = data.len();
    let mut i = 0;
    // In-body safety: bounds as in `decode_ulaw_avx2`.
    let zero = _mm256_setzero_si256();
    let toggle = _mm256_set1_epi16(0x55);
    let m07 = _mm256_set1_epi16(0x07);
    let m0f = _mm256_set1_epi16(0x0F);
    let sbit = _mm256_set1_epi16(0x80);
    let one = _mm256_set1_epi16(1);
    let seg0add = _mm256_set1_epi16(8);
    let segnadd = _mm256_set1_epi16(0x108);
    while i + 16 <= n {
        let raw = _mm_loadu_si128(data.as_ptr().add(i).cast());
        let a = _mm256_xor_si256(_mm256_cvtepu8_epi16(raw), toggle);
        let m4 = _mm256_slli_epi16(_mm256_and_si256(a, m0f), 4);
        let seg = _mm256_and_si256(_mm256_srli_epi16(a, 4), m07);
        let segz = _mm256_cmpeq_epi16(seg, zero);
        let addend = _mm256_or_si256(
            _mm256_and_si256(segz, seg0add),
            _mm256_andnot_si256(segz, segnadd),
        );
        // (m4 + addend) << e via the 2^e multiply; max 504 << 6 = 32256.
        let e = _mm256_andnot_si256(segz, _mm256_sub_epi16(seg, one));
        let mag = _mm256_mullo_epi16(_mm256_add_epi16(m4, addend), pow2_epi16(e));
        let neg = _mm256_cmpeq_epi16(_mm256_and_si256(a, sbit), zero);
        let res = _mm256_sub_epi16(_mm256_xor_si256(mag, neg), neg);
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), res);
        i += 16;
    }
    scalar::decode_alaw(&data[i..], &mut out[i..]);
}

// ---- Resampler interiors (a run of up to 32 outputs) -------------------

fn resample_block_avx2_entry(st: &mut ResampleState, input: &[i16], out: &mut Vec<i16>) {
    // SAFETY: reachable only through the AVX2 table, handed out only when detected.
    unsafe { resample_block_avx2(st, input, out) }
}

/// # Safety
///
/// The caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn resample_block_avx2(st: &mut ResampleState, input: &[i16], out: &mut Vec<i16>) {
    resample::drive(st, input, out, BLOCK, |run, offset, input, out| {
        // SAFETY: AVX2 is this function's own precondition.
        unsafe { resample_interior_avx2(run, offset, input, out) }
    });
}

/// A bound on the tap indices a gather may use on `input`: `i` below it
/// has `i + 1 < input.len()`, and is non-negative as the `i32` a gather
/// sign-extends.
fn tap_limit(input: &[i16]) -> u32 {
    input.len().saturating_sub(1).min(i32::MAX as usize) as u32
}

/// `v.round()` (half away from zero) per lane, as `i32`, for `|v| < 2³⁰`.
///
/// With `t = trunc(v)`, `d = v - t` is exact (the bits of `v` below the
/// binary point) and has `v`'s sign, and `v + d = t + 2d` is exact too (a
/// multiple of `2 ulp(v)` below `2|v|`).  Truncating that steps `t` one
/// away from zero exactly where `|d| ≥ 0.5` — no comparison, no tie case.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn round_away_avx2(v: __m256d) -> __m128i {
    let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
    _mm256_cvttpd_epi32(_mm256_add_pd(v, _mm256_sub_pd(v, t)))
}

/// The AVX2 interior of [`resample::drive`]: four positions per vector
/// from the run's bit patterns, first to fraction and tap index (lanes
/// past the run read tap 0; checked for the whole run), then one
/// `vpgatherdd` lane per output — `input[i]` in the low half, `input[i +
/// 1]` in the high — interpolated, rounded, and narrowed with
/// `packs_epi32`, which is the reference's clamp to the `i16` range.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn resample_interior_avx2(run: Run, offset: usize, input: &[i16], out: &mut Vec<i16>) {
    const QUADS: usize = BLOCK / 4;
    let one = _mm256_set1_pd(1.0);
    let offset = _mm_set1_epi32(offset as i32);
    let n = run.n as i64;
    let kn = _mm256_setr_epi64x(0, n, 2 * n, 3 * n);
    let count = _mm_set1_epi32(run.count as i32);
    let mut frac = [_mm256_setzero_pd(); QUADS];
    let mut idx = [_mm_setzero_si128(); QUADS];
    let mut top = _mm_setzero_si128();
    for q in 0..QUADS {
        let b = run.b0.wrapping_add(4 * q as u64 * run.n) as i64;
        let pos = _mm256_castsi256_pd(_mm256_add_epi64(_mm256_set1_epi64x(b), kn));
        let base = _mm256_floor_pd(pos);
        frac[q] = _mm256_sub_pd(pos, base);
        let lane = _mm_add_epi32(_mm_set1_epi32(4 * q as i32), _mm_setr_epi32(0, 1, 2, 3));
        let live = _mm_cmpgt_epi32(count, lane);
        idx[q] = _mm_and_si128(_mm_sub_epi32(_mm256_cvttpd_epi32(base), offset), live);
        top = _mm_max_epu32(top, idx[q]);
    }
    // One bounds check for the run, on the largest index as unsigned (a
    // negative one is larger than any length).
    let [t0, t1, t2, t3]: [u32; 4] = core::mem::transmute(top);
    assert!(
        t0.max(t1).max(t2).max(t3) < tap_limit(input),
        "resample tap out of range"
    );
    let quad = |q: usize| {
        // In-body safety: every lane of `idx[q]` is below `tap_limit`.
        let taps = _mm_i32gather_epi32::<2>(input.as_ptr().cast(), idx[q]);
        let a = _mm256_cvtepi32_pd(_mm_srai_epi32(_mm_slli_epi32(taps, 16), 16));
        let b = _mm256_cvtepi32_pd(_mm_srai_epi32(taps, 16));
        round_away_avx2(_mm256_add_pd(
            _mm256_mul_pd(a, _mm256_sub_pd(one, frac[q])),
            _mm256_mul_pd(b, frac[q]),
        ))
    };
    out.reserve(BLOCK);
    let dst = out.spare_capacity_mut().as_mut_ptr();
    for q in (0..QUADS).step_by(2) {
        let packed = _mm_packs_epi32(quad(q), quad(q + 1));
        // In-body safety: the reserve above left `BLOCK` samples of spare
        // capacity, and `4 * q + 8 ≤ BLOCK` bounds the store.
        _mm_storeu_si128(dst.add(4 * q).cast(), packed);
    }
    // In-body safety: the stores initialised the first `run.count ≤ BLOCK`
    // samples past the length.
    out.set_len(out.len() + run.count.min(BLOCK));
}

fn resample_block_avx512_entry(st: &mut ResampleState, input: &[i16], out: &mut Vec<i16>) {
    // SAFETY: reachable only through the AVX-512 tables, which `available`
    // hands out only after detecting F (and BW and VBMI).
    unsafe { resample_block_avx512(st, input, out) }
}

/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F.
#[target_feature(enable = "avx512f")]
unsafe fn resample_block_avx512(st: &mut ResampleState, input: &[i16], out: &mut Vec<i16>) {
    // Whole in-binade stretches: a run's last vector may be partial, and
    // longer runs have fewer of them.
    resample::drive(st, input, out, usize::MAX, |run, offset, input, out| {
        // SAFETY: AVX-512 F is this function's own precondition.
        unsafe { resample_interior_avx512(run, offset, input, out) }
    });
}

/// Half the width, in units of 2⁻³¹, of the window around each
/// half-integer inside which [`resample_interior_avx512`] recomputes an
/// output by the reference's arithmetic.
const TIE_WINDOW: i64 = 1 << 17;

/// The AVX-512 interior of [`resample::drive`], in exact integers: eight
/// outputs per vector in 64-bit lanes, with no floating-point operation.
///
/// *Lemma.*  Let the run's positions lie in `[2^E, 2^(E+1))`, `0 ≤ E ≤
/// 21`, and `s = 52 − E`.  Position `k` is `M_k · 2^−s` for its mantissa
/// with the implicit one, `M_k = M_0 + k·n`: its tap index is `M_k >> s`
/// and its fraction `f` the low `s ≥ 31` bits, of which `f31 = (M_k >> (s −
/// 31)) mod 2³¹` is the top 31 — `f31 · 2⁻³¹ ≤ f < (f31 + 1) · 2⁻³¹`.  For
/// taps `a`, `b`, `X = a·2³¹ + (b − a)·f31` is exact in an `i64` (`|b − a|
/// < 2¹⁶`, `f31 < 2³¹`: `vpmuldq`), and `X · 2⁻³¹` lies within `|b − a| ·
/// 2⁻³¹ < 2⁻¹⁵` of the real `V = a·(1 − f) + b·f`.  The reference computes
/// `1 − f` exactly (`f` is a multiple of `2^(E−52) ≥ 2⁻⁵²`) and rounds each
/// product and the sum once, to within `2⁻⁵³` of values below `2¹⁵`: its
/// sum lies within `3·2⁻³⁸` of `V`.  So where `X · 2⁻³¹` is at least
/// [`TIE_WINDOW`]` · 2⁻³¹ = 2⁻¹⁴` from every half-integer, `V` and the
/// reference's sum lie strictly inside the same interval between two
/// half-integers, and `f64::round` of the sum is `⌊X · 2⁻³¹ + ½⌋ = (X +
/// 2³⁰) >> 31`, already in the `i16` range (`V` lies between `a` and `b`).
/// A lane inside the window, every exact tie among them, takes
/// [`resample::one`], the reference's arithmetic; so does every position
/// of a run outside `[1, 2²²)`.
///
/// Taps: the one bounds check covers the run's first and last index
/// (positions only grow).  A vector whose indices span at most eight taps
/// loads `a` and `b` as two unaligned runs of eight: in order when the
/// indices are consecutive (by the progression, exactly when a whole
/// vector's last is its first plus seven), through a permute otherwise.
/// A wider vector gathers the pair `input[i] | input[i + 1] << 16`.  The
/// run's last vector may have lanes past the run; their outputs land in
/// spare capacity that `set_len` leaves out.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn resample_interior_avx512(run: Run, offset: usize, input: &[i16], out: &mut Vec<i16>) {
    let Run { b0, n, count } = run;
    let exponent = (b0 >> 52) as i64 - 1023;
    if !(0..=21).contains(&exponent) {
        for k in 0..count as u64 {
            out.push(resample::one(f64::from_bits(b0 + k * n), offset, input));
        }
        return;
    }
    let s = 52 - exponent as u64;
    let m0 = (b0 & resample::MANTISSA) | 1 << 52;
    let m_last = m0 + (count as u64 - 1) * n;
    // Wrapping: a (never produced) negative index is larger than any limit.
    let index = |m: u64| ((m >> s) as usize).wrapping_sub(offset);
    let limit = tap_limit(input) as usize;
    assert!(
        index(m0).max(index(m_last)) < limit,
        "resample tap out of range"
    );
    out.reserve(count + 7);
    let dst = out.spare_capacity_mut().as_mut_ptr().cast::<i16>();
    let taps = input.as_ptr();
    let n = n as i64;
    let mut m = _mm512_add_epi64(
        _mm512_set1_epi64(m0 as i64),
        _mm512_setr_epi64(0, n, 2 * n, 3 * n, 4 * n, 5 * n, 6 * n, 7 * n),
    );
    let (n, eight_n) = (n as u64, _mm512_set1_epi64(8 * n));
    let to_index = _mm512_set1_epi64(s as i64);
    let to_frac = _mm512_set1_epi64(s as i64 - 31);
    let low31 = _mm512_set1_epi64((1 << 31) - 1);
    // `2³⁰` rounds to nearest; `TIE_WINDOW` more moves the window's lanes
    // to the bottom of each `2³¹` and leaves every other lane's rounding.
    let bias = _mm512_set1_epi64((1 << 30) + TIE_WINDOW);
    let window = _mm512_set1_epi64(2 * TIE_WINDOW);
    // Outputs `j .. j + live` (`live ≤ 8`) from the mantissas `m`, lane
    // `k` at `mj + k·n`; lanes past `live` are past the run.
    let vector = |j: usize, mj: u64, m: __m512i, live: usize| {
        let whole = live == 8;
        let f31 = _mm512_and_si512(_mm512_srlv_epi64(m, to_frac), low31);
        let i0 = index(mj);
        let span = index(if whole { mj + 7 * n } else { m_last }) - i0;
        // In-body safety: both loads end at or before `input[limit]` (for
        // eight consecutive taps of the run, `i0 + 7` is one of its indices).
        let eight = |i: usize| _mm512_cvtepi16_epi64(_mm_loadu_si128(taps.add(i).cast()));
        let (a, b) = if whole && span == 7 {
            (eight(i0), eight(i0 + 1))
        } else if span < 8 && i0 + 8 <= limit {
            // Lanes past the run pick any of the eight.
            let first = _mm512_set1_epi64((i0 + offset) as i64);
            let lane = _mm512_sub_epi64(_mm512_srlv_epi64(m, to_index), first);
            let pick = |v| _mm512_permutexvar_epi64(lane, v);
            (pick(eight(i0)), pick(eight(i0 + 1)))
        } else {
            // Lanes past the run repeat its last position.
            let m = _mm512_min_epu64(m, _mm512_set1_epi64(m_last as i64));
            let idx = _mm512_srlv_epi64(m, to_index);
            let idx = _mm512_sub_epi64(idx, _mm512_set1_epi64(offset as i64));
            // In-body safety: every lane is an index of the run.
            let pair = _mm512_cvtepi32_epi64(_mm512_i64gather_epi32::<2>(idx, taps.cast()));
            let a = _mm512_srai_epi64::<48>(_mm512_slli_epi64::<48>(pair));
            (a, _mm512_srai_epi64::<16>(pair))
        };
        // `X + bias`: `a·2³¹` has no low bits for the bias to carry into.
        let x = _mm512_add_epi64(
            _mm512_or_si512(_mm512_slli_epi64::<31>(a), bias),
            _mm512_mul_epi32(_mm512_sub_epi64(b, a), f31),
        );
        let rounded = _mm512_srai_epi64::<31>(x);
        // In-body safety: the reserve above left `count + 7` samples of
        // spare capacity, and `j < count`.
        _mm_storeu_si128(dst.add(j).cast(), _mm512_cvtsepi64_epi16(rounded));
        let near = _mm512_cmplt_epu64_mask(_mm512_and_si512(x, low31), window);
        let mut near = near & (u8::MAX >> (8 - live));
        while near != 0 {
            let k = j + near.trailing_zeros() as usize;
            let p = f64::from_bits(b0 + k as u64 * n);
            // In-body safety: `k < count`, inside the reserve.
            dst.add(k).write(resample::one(p, offset, input));
            near &= near - 1;
        }
    };
    let (mut j, mut mj) = (0, m0);
    while j + 8 <= count {
        vector(j, mj, m, 8);
        (j, mj, m) = (j + 8, mj + 8 * n, _mm512_add_epi64(m, eight_n));
    }
    if j < count {
        vector(j, mj, m, count - j);
    }
    // In-body safety: the stores initialised the first `count` samples
    // past the length.
    out.set_len(out.len() + count);
}

// ---- AVX-512 µ-law decode (64 codes per iteration) --------------------

fn decode_ulaw_avx512_entry(data: &[u8], out: &mut [i16]) {
    // SAFETY: only in the AVX-512 tables, handed out when F, BW and VBMI are detected.
    unsafe { decode_ulaw_avx512(data, out) }
}

/// The play map's ring-byte decode as a table entry: [`linear_avx512`]
/// over the µ-law planes, 64 codes per iteration, the tail to the scalar
/// loop.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F, BW and VBMI.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn decode_ulaw_avx512(data: &[u8], out: &mut [i16]) {
    assert_eq!(data.len(), out.len(), "decode buffer length mismatch");
    // In-body safety: the planes are 64-byte aligned and 256 bytes long.
    let planes: [__m512i; 4] = core::ptr::read((&raw const *LinearPlanes::exp_u()).cast());
    let mut i = 0;
    // In-body safety: each iteration reads 64 bytes and writes 64 i16,
    // bounded by `i + 64 <= len`.
    while i + 64 <= data.len() {
        let (a, b) = linear_avx512(&planes, _mm512_loadu_si512(data.as_ptr().add(i).cast()));
        _mm512_storeu_si512(out.as_mut_ptr().add(i).cast(), a);
        _mm512_storeu_si512(out.as_mut_ptr().add(i + 32).cast(), b);
        i += 64;
    }
    scalar::decode_ulaw(&data[i..], &mut out[i..]);
}

// ---- AVX-512 play maps (64 samples per iteration) ---------------------

/// Two vectors of 32 linear samples: samples 0..32 and 32..64 of a block.
type Words = (__m512i, __m512i);

/// The µ-law exponent of a biased magnitude `0x84..=0x7FFF`, by its high
/// byte: `[0] = 0`, `[v] = ⌊log₂ v⌋ + 1` — `g711::linear_to_ulaw`'s
/// `⌊log₂(mag >> 7)⌋`.
#[repr(C, align(64))]
struct Exponents([u8; 128]);

static ULAW_EXPONENT: Exponents = {
    let mut t = [0u8; 128];
    let mut v = 1;
    while v < 128 {
        t[v] = (v as u32).ilog2() as u8 + 1;
        v += 1;
    }
    Exponents(t)
};

fn play_mix_avx512_entry(map: &PlayMap, dst: &mut [u8], src: &[u8]) {
    // SAFETY: only in the AVX-512 tables, handed out when F, BW and VBMI are detected.
    let done = unsafe { play_mix_ulaw_avx512(map, dst, src) };
    map.mix_by_table(&mut dst[done..], &src[done * map.sample_bytes()..]);
}

fn play_mix_avx512fp16_entry(map: &PlayMap, dst: &mut [u8], src: &[u8]) {
    // SAFETY: only in the FP16 table, handed out when FP16 is detected too.
    let done = unsafe { play_mix_ulaw_avx512fp16(map, dst, src) };
    map.mix_by_table(&mut dst[done..], &src[done * map.sample_bytes()..]);
}

/// `linear_to_ulaw`'s biased magnitude `min(|x|, 32635) + 0x84` per lane.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F and BW.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn ulaw_biased(x: __m512i) -> __m512i {
    // `vpabsw` leaves `i16::MIN` as 0x8000, which the unsigned clip takes.
    let clipped = _mm512_min_epu16(_mm512_abs_epi16(x), _mm512_set1_epi16(32_635));
    _mm512_add_epi16(clipped, _mm512_set1_epi16(0x84))
}

/// `g711::linear_to_ulaw` short of its sign and its final `!`, per 16-bit
/// lane: `exponent << 4 | mantissa`, the exponent looked up by `vpermi2b`.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F, BW and VBMI.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
unsafe fn ulaw_segment_avx512(x: __m512i) -> __m512i {
    // In-body safety: the table is 64-byte aligned and 128 bytes long.
    let [t0, t1]: [__m512i; 2] = core::ptr::read((&raw const ULAW_EXPONENT).cast());
    let mag = ulaw_biased(x);
    // Each word's high byte is `mag >> 8` and fetches the exponent; the
    // `&` drops what the low byte fetched (and tells the compiler the
    // shift count is in range).
    let e = _mm512_permutex2var_epi8(t0, mag, t1);
    let e = _mm512_and_si512(e, _mm512_set1_epi16(0x0700));
    let m = _mm512_srlv_epi16(_mm512_srli_epi16::<3>(mag), _mm512_srli_epi16::<8>(e));
    // `a | (b & c)`.
    _mm512_ternarylogic_epi32::<0xF8>(_mm512_srli_epi16::<4>(e), m, _mm512_set1_epi16(0x0F))
}

/// [`ulaw_segment_avx512`] by a conversion to half precision.
///
/// *Lemma.*  Let `v` in `0x84..=0x7FFF` be the biased magnitude, `E =
/// ⌊log₂ v⌋ ≥ 7`.  In binary16 rounded toward zero, `v` keeps its leading
/// one and the 10 bits after it (all its bits, below 2048), and a truncation
/// never carries: the sign is 0, the biased exponent `E + 15`, and
/// mantissa bits 9..6 the four bits under the leading one, `(v >> (E − 4))
/// & 0xF`.  µ-law's exponent is `e = ⌊log₂(v >> 7)⌋ = E − 7` and its
/// mantissa `m = (v >> (e + 3)) & 0xF`, the same four bits: `h >> 6` is
/// `(e + 22) << 4 | m`, and `0x160 = 22 << 4`.  Rounding to nearest would
/// carry into bits 9..6, or the exponent, for some `v ≥ 2048`.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F, BW and FP16.
#[target_feature(enable = "avx512f,avx512bw,avx512fp16")]
#[inline]
unsafe fn ulaw_segment_avx512fp16(x: __m512i) -> __m512i {
    const TOWARD_ZERO: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
    let h = _mm512_castph_si512(_mm512_cvt_roundepu16_ph::<TOWARD_ZERO>(ulaw_biased(x)));
    _mm512_sub_epi16(_mm512_srli_epi16::<6>(h), _mm512_set1_epi16(0x160))
}

/// The linear words of 64 codes, `planes[c & 0x7F]` (a permute ignores bit
/// 7 of its index) negated in the lanes of `positive`.  The two planes are
/// interleaved by `vpunpck{l,h}bw`, so within each 128-bit lane the low
/// eight codes land in `.0` and the high eight in `.1` — the arrangement
/// `vpackuswb` makes codes in and undoes.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F, BW and VBMI.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
unsafe fn planes_avx512(p: &[__m512i; 4], codes: __m512i, positive: [__mmask32; 2]) -> Words {
    let lo = _mm512_permutex2var_epi8(p[0], codes, p[1]);
    let hi = _mm512_permutex2var_epi8(p[2], codes, p[3]);
    let (a, b) = (_mm512_unpacklo_epi8(lo, hi), _mm512_unpackhi_epi8(lo, hi));
    let zero = _mm512_setzero_si512();
    let a = _mm512_mask_sub_epi16(a, positive[0], zero, a);
    (a, _mm512_mask_sub_epi16(b, positive[1], zero, b))
}

/// 64 consecutive companded bytes as the linear words `planes` gives them,
/// positive where bit 7 is set.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F, BW and VBMI.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
unsafe fn linear_avx512(p: &[__m512i; 4], bytes: __m512i) -> Words {
    // Quadwords 0 4 1 5 2 6 3 7: the order `vpackuswb` leaves the bytes of
    // two word vectors in, so the unpacks come out in sample order.
    let packed = _mm512_permutexvar_epi64(_mm512_setr_epi64(0, 4, 1, 5, 2, 6, 3, 7), bytes);
    let positive = _mm512_movepi8_mask(bytes);
    planes_avx512(p, packed, [positive as u32, (positive >> 32) as u32])
}

/// `PlayMap::mix_by_table` on a µ-law device, 64 samples at a time, from
/// the integer functions the tables are built from (DESIGN.md §8.3):
/// `comp_u[comp_index(x)]` is `linear_to_ulaw(x & !3)`, the map's gain and
/// the ring byte's decode are `planes[c]`, `mix_u` is a saturating add
/// and `linear_to_ulaw` again, whose segment step is `segment`.  Returns
/// how many samples it mixed — the whole blocks of 64, none on an A-law
/// device; the caller's table loop takes the rest.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F, BW and VBMI.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
unsafe fn play_mix_ulaw(
    map: &PlayMap,
    dst: &mut [u8],
    src: &[u8],
    segment: impl Fn(__m512i) -> __m512i,
) -> usize {
    let width = map.sample_bytes();
    assert_eq!(src.len(), dst.len() * width, "play map length mismatch");
    let lin16 = width == 2;
    let Some(client) = map.ulaw_planes() else {
        return 0;
    };
    // In-body safety: both are 64-byte aligned and 256 bytes long.
    let client: [__m512i; 4] = core::ptr::read((&raw const *client).cast());
    let ring: [__m512i; 4] = core::ptr::read((&raw const *LinearPlanes::exp_u()).cast());
    let zero = _mm512_setzero_si512();
    let mut i = 0;
    // In-body safety: each iteration reads 64 bytes of `dst` at `i` and 64
    // or 128 of `src` at `i` or `2 * i`, within both by the loop bound and
    // the length check, and writes the same 64 of `dst`.
    while i + 64 <= dst.len() {
        let (a, b) = if lin16 {
            let xa = _mm512_loadu_si512(src.as_ptr().add(2 * i).cast());
            let xb = _mm512_loadu_si512(src.as_ptr().add(2 * i + 64).cast());
            let index = _mm512_set1_epi16(!3);
            let sa = segment(_mm512_and_si512(xa, index));
            let sb = segment(_mm512_and_si512(xb, index));
            let codes = _mm512_xor_si512(_mm512_packus_epi16(sa, sb), _mm512_set1_epi8(-1));
            let pa = _mm512_cmpge_epi16_mask(xa, zero);
            let pb = _mm512_cmpge_epi16_mask(xb, zero);
            planes_avx512(&client, codes, [pa, pb])
        } else {
            linear_avx512(&client, _mm512_loadu_si512(src.as_ptr().add(i).cast()))
        };
        let (ra, rb) = linear_avx512(&ring, _mm512_loadu_si512(dst.as_ptr().add(i).cast()));
        let (a, b) = (_mm512_adds_epi16(a, ra), _mm512_adds_epi16(b, rb));
        let segments = _mm512_packus_epi16(segment(a), segment(b));
        // `!(segment | sign)`: `vpacksswb` keeps each sum's sign in bit 7.
        let signs = _mm512_packs_epi16(a, b);
        let mixed = _mm512_ternarylogic_epi32::<0x07>(segments, signs, _mm512_set1_epi8(-128));
        // The packs left quadwords 0 4 1 5 2 6 3 7: back to sample order.
        let mixed = _mm512_permutexvar_epi64(_mm512_setr_epi64(0, 2, 4, 6, 1, 3, 5, 7), mixed);
        _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), mixed);
        i += 64;
    }
    i
}

/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F, BW and VBMI.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn play_mix_ulaw_avx512(map: &PlayMap, dst: &mut [u8], src: &[u8]) -> usize {
    // SAFETY: the segment step needs no feature this function lacks.
    play_mix_ulaw(map, dst, src, |x| unsafe { ulaw_segment_avx512(x) })
}

/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512 F, BW, VBMI and FP16.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512fp16")]
unsafe fn play_mix_ulaw_avx512fp16(map: &PlayMap, dst: &mut [u8], src: &[u8]) -> usize {
    // SAFETY: the segment step needs no feature this function lacks.
    play_mix_ulaw(map, dst, src, |x| unsafe { ulaw_segment_avx512fp16(x) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{g711, kernels};

    /// Per entry, whether two tables call the same function.
    fn same_entries(a: &Kernels, b: &Kernels) -> [(&'static str, bool); 5] {
        use std::ptr::fn_addr_eq as eq;
        [
            ("decode_ulaw", eq(a.decode_ulaw, b.decode_ulaw)),
            ("decode_alaw", eq(a.decode_alaw, b.decode_alaw)),
            ("mix_lin16_le", eq(a.mix_lin16_le, b.mix_lin16_le)),
            ("resample_block", eq(a.resample_block, b.resample_block)),
            ("play_mix", eq(a.play_mix, b.play_mix)),
        ]
    }

    /// A table that replaces nothing, or an entry that is scalar's in every
    /// table, is dispatch with one target.  Over `TABLES`, so every x86
    /// host checks every table, whatever it detects.
    #[test]
    fn every_table_and_every_entry_dispatches_somewhere_new() {
        let scalar = &scalar::KERNELS;
        let mut below = scalar;
        for k in &TABLES {
            let replaces = same_entries(below, k).iter().any(|&(_, same)| !same);
            assert!(replaces, "{} replaces nothing of {}", k.name, below.name);
            below = k;
        }
        for (i, (entry, _)) in same_entries(scalar, scalar).into_iter().enumerate() {
            let everywhere = TABLES.iter().all(|k| same_entries(scalar, k)[i].1);
            assert!(!everywhere, "{entry} is scalar's in every table");
        }
    }

    /// Both segment steps against the truncated-binary16 model
    /// (`kernels::tests`, where the model is checked against
    /// `g711::linear_to_ulaw` on every host) for every 16-bit lane value,
    /// each where its features are detected.
    #[test]
    fn segment_steps_are_the_half_precision_model() {
        use std::arch::is_x86_feature_detected as detected;
        let model = |x: u16| {
            let v = (x as i16).unsigned_abs().min(32_635) + 0x84;
            (kernels::tests::binary16_toward_zero(v) >> 6) - 0x160
        };
        let (f, bw) = (detected!("avx512f"), detected!("avx512bw"));
        let (vbmi, fp16) = (detected!("avx512vbmi"), detected!("avx512fp16"));
        // SAFETY: callers must guarantee the CPU supports the step's features.
        type Segment = unsafe fn(__m512i) -> __m512i;
        let steps: [(&str, bool, Segment); 2] = [
            ("vbmi", f && bw && vbmi, ulaw_segment_avx512),
            ("fp16", f && bw && fp16, ulaw_segment_avx512fp16),
        ];
        for (name, _, segment) in steps.into_iter().filter(|s| s.1) {
            for first in (0..=u16::MAX).step_by(32) {
                let lanes: [u16; 32] = std::array::from_fn(|i| first + i as u16);
                let mut got = [0u16; 32];
                // SAFETY: the step's features were detected above; the load
                // and the store cover exactly 32 lanes.
                unsafe {
                    let x = _mm512_loadu_si512(lanes.as_ptr().cast());
                    _mm512_storeu_si512(got.as_mut_ptr().cast(), segment(x));
                }
                assert_eq!(got, lanes.map(model), "{name}: lanes from {first:#06x}");
            }
        }
    }

    // The tests below run every table the host can execute: scalar
    // always, the SIMD ones when detected.

    #[test]
    fn vtable_decodes_every_code_exactly() {
        let data: Vec<u8> = (0..=255u8).rev().collect();
        let mut out = vec![0i16; 256];
        for k in kernels::available() {
            (k.decode_ulaw)(&data, &mut out);
            for (b, &v) in data.iter().zip(&out) {
                assert_eq!(v, g711::ulaw_to_linear(*b), "{} ulaw {b:#04x}", k.name);
            }
            (k.decode_alaw)(&data, &mut out);
            for (b, &v) in data.iter().zip(&out) {
                assert_eq!(v, g711::alaw_to_linear(*b), "{} alaw {b:#04x}", k.name);
            }
        }
    }

    #[test]
    fn simd_mix_saturates_like_scalar() {
        let a: Vec<i16> = (0..500).map(|i| (i * 131 % 65_536) as u16 as i16).collect();
        let b: Vec<i16> = (0..500).map(|i| (i * 7_919 % 65_536) as u16 as i16).collect();
        let src: Vec<u8> = b.iter().flat_map(|v| v.to_le_bytes()).collect();
        for k in kernels::available() {
            let mut dst: Vec<u8> = a.iter().flat_map(|v| v.to_le_bytes()).collect();
            (k.mix_lin16_le)(&mut dst, &src);
            for (i, c) in dst.chunks_exact(2).enumerate() {
                assert_eq!(
                    i16::from_le_bytes([c[0], c[1]]),
                    a[i].saturating_add(b[i]),
                    "{} lane {i}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn round_away_is_f64_round_on_every_tie_and_near_tie() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // The cases of `resample`'s `round_exact` test: every integer the
        // interpolation can reach, nudged to each side of the boundary.
        let nudges = [
            0.0,
            0.25,
            0.499_999_999_999_999_94,
            0.5,
            0.500_000_000_000_000_1,
            0.75,
        ];
        for k in -32_768i32..=32_768 {
            for pair in nudges.chunks_exact(2) {
                let k = f64::from(k);
                let v = [k + pair[0], k - pair[0], k + pair[1], k - pair[1]];
                let mut got = [0i32; 4];
                // SAFETY: AVX2 was detected above; the load and the store
                // cover exactly the two four-lane arrays.
                unsafe {
                    let r = round_away_avx2(_mm256_loadu_pd(v.as_ptr()));
                    _mm_storeu_si128(got.as_mut_ptr().cast(), r);
                }
                assert_eq!(got.map(f64::from), v.map(f64::round), "v = {v:?}");
            }
        }
    }
}
