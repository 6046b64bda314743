//! aarch64 NEON kernels.
//!
//! NEON is baseline on aarch64, so no runtime detection is needed.  The
//! decode kernels use the per-lane variable shift (`vshlq_u16`) that x86
//! has to emulate with conditional doubling; mixing maps onto the native
//! saturating adds; tails go to the scalar loop of the same entry point.
//! This module cannot run in the x86 CI leg, so it keeps to the simplest
//! intrinsic forms and the differential property tests pin it against the
//! frozen reference on aarch64 hosts.

// All intrinsics operate on unaligned loads/stores within caller-checked
// bounds; NEON is statically available on aarch64.
#![allow(unsafe_code)]

use core::arch::aarch64::*;

use super::{scalar, Kernels};
use crate::{resample, tables};

/// The NEON table; encode is the scalar table loop, the resampler the
/// portable one.
pub(super) static KERNELS: Kernels = Kernels {
    name: "simd-neon",
    decode_ulaw,
    decode_alaw,
    encode_ulaw: scalar::encode_ulaw,
    encode_alaw: scalar::encode_alaw,
    mix_lin16_le,
    mix_lin32_le,
    resample_block: resample::resample_block_portable,
    play_mix: tables::PlayMap::mix_by_table,
};

fn mix_lin16_le(dst: &mut [u8], src: &[u8]) {
    if !cfg!(target_endian = "little") {
        return scalar::mix_lin16_le(dst, src);
    }
    let n = dst.len().min(src.len()) & !1;
    let mut i = 0;
    // SAFETY: NEON is baseline on aarch64; every 16-byte load/store stays
    // within `n`, and on this little-endian target the byte buffers are
    // native i16 lane order.
    unsafe {
        while i + 16 <= n {
            let a = vreinterpretq_s16_u8(vld1q_u8(dst.as_ptr().add(i)));
            let b = vreinterpretq_s16_u8(vld1q_u8(src.as_ptr().add(i)));
            vst1q_u8(dst.as_mut_ptr().add(i), vreinterpretq_u8_s16(vqaddq_s16(a, b)));
            i += 16;
        }
    }
    scalar::mix_lin16_le(&mut dst[i..n], &src[i..n]);
}

fn mix_lin32_le(dst: &mut [u8], src: &[u8]) {
    if !cfg!(target_endian = "little") {
        return scalar::mix_lin32_le(dst, src);
    }
    let n = dst.len().min(src.len()) & !3;
    let mut i = 0;
    // SAFETY: as in `mix_lin16_le`, with i32 lanes.
    unsafe {
        while i + 16 <= n {
            let a = vreinterpretq_s32_u8(vld1q_u8(dst.as_ptr().add(i)));
            let b = vreinterpretq_s32_u8(vld1q_u8(src.as_ptr().add(i)));
            vst1q_u8(dst.as_mut_ptr().add(i), vreinterpretq_u8_s32(vqaddq_s32(a, b)));
            i += 16;
        }
    }
    scalar::mix_lin32_le(&mut dst[i..n], &src[i..n]);
}

fn decode_ulaw(data: &[u8], out: &mut [i16]) {
    assert_eq!(data.len(), out.len(), "decode buffer length mismatch");
    let n = data.len();
    let mut i = 0;
    // SAFETY: NEON baseline; each iteration reads 8 bytes and writes 8 i16
    // within `n`.
    unsafe {
        let inv = vdupq_n_u16(0x00FF);
        let bias = vdupq_n_u16(0x84);
        let m07 = vdupq_n_u16(0x07);
        let m0f = vdupq_n_u16(0x0F);
        let sbit = vdupq_n_u16(0x80);
        while i + 8 <= n {
            // µ-law stores the complement; widen and flip.
            let u = veorq_u16(vmovl_u8(vld1_u8(data.as_ptr().add(i))), inv);
            let e = vandq_u16(vshrq_n_u16(u, 4), m07);
            let m = vandq_u16(u, m0f);
            // magnitude = ((m << 3) + 0x84) << e - 0x84: per-lane variable
            // shift, then conditional negate via (x ^ mask) - mask.
            let base = vaddq_u16(vshlq_n_u16(m, 3), bias);
            let mag = vsubq_u16(vshlq_u16(base, vreinterpretq_s16_u16(e)), bias);
            let neg = vceqq_u16(vandq_u16(u, sbit), sbit);
            let res = vsubq_s16(
                veorq_s16(vreinterpretq_s16_u16(mag), vreinterpretq_s16_u16(neg)),
                vreinterpretq_s16_u16(neg),
            );
            vst1q_s16(out.as_mut_ptr().add(i), res);
            i += 8;
        }
    }
    let t = tables::exp_u();
    for j in i..n {
        out[j] = t[data[j] as usize];
    }
}

fn decode_alaw(data: &[u8], out: &mut [i16]) {
    assert_eq!(data.len(), out.len(), "decode buffer length mismatch");
    let n = data.len();
    let mut i = 0;
    // SAFETY: bounds as in `decode_ulaw`.
    unsafe {
        let toggle = vdupq_n_u16(0x55);
        let m07 = vdupq_n_u16(0x07);
        let m0f = vdupq_n_u16(0x0F);
        let sbit = vdupq_n_u16(0x80);
        let zero = vdupq_n_u16(0);
        let one = vdupq_n_u16(1);
        let seg0add = vdupq_n_u16(8);
        let segnadd = vdupq_n_u16(0x108);
        while i + 8 <= n {
            let a = veorq_u16(vmovl_u8(vld1_u8(data.as_ptr().add(i))), toggle);
            let m4 = vshlq_n_u16(vandq_u16(a, m0f), 4);
            let seg = vandq_u16(vshrq_n_u16(a, 4), m07);
            let segz = vceqq_u16(seg, zero);
            // seg 0: +8; seg >= 1: +0x108 then << (seg - 1).
            let addend = vbslq_u16(segz, seg0add, segnadd);
            let e = vbslq_u16(segz, zero, vsubq_u16(seg, one));
            let mag = vshlq_u16(vaddq_u16(m4, addend), vreinterpretq_s16_u16(e));
            // A-law sign bit set means non-negative; clear means negate.
            let neg = vceqq_u16(vandq_u16(a, sbit), zero);
            let res = vsubq_s16(
                veorq_s16(vreinterpretq_s16_u16(mag), vreinterpretq_s16_u16(neg)),
                vreinterpretq_s16_u16(neg),
            );
            vst1q_s16(out.as_mut_ptr().add(i), res);
            i += 8;
        }
    }
    let t = tables::exp_a();
    for j in i..n {
        out[j] = t[data[j] as usize];
    }
}
