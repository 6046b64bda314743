//! SIMD-within-a-register kernels over `u64` lanes.
//!
//! Portable vectorization: four 16-bit (or two 32-bit) samples travel in
//! one general-purpose register.  Lanes are moved with
//! `from_le_bytes`/`to_le_bytes` on byte slices, so the kernels work at any
//! alignment and on any endianness, with no `unsafe`.
//!
//! Lane math for the saturating add (DESIGN.md §8): per-lane wrapping sum
//! without cross-lane carries is the low 15 bits summed plus the sign bits
//! XORed back in; signed overflow shows up as lanes where both operands
//! disagree in sign with the wrapped result, and the per-lane mask expands
//! with a single multiply (`(ovf >> 15) * 0xFFFF` — set bits land 16 apart,
//! so the products cannot overlap).
//!
//! Conversion does not SWAR the G.711 *math* — a table gather is one load
//! per sample where the algorithmic form costs ~9 ALU ops — it batches the
//! *stores*: eight table hits pack into two `u64` writes, and the fused
//! `Converter` path writes them straight into the output byte buffer.

use super::Kernels;
use crate::{sample, tables};

/// The SWAR vtable.
pub static KERNELS: Kernels = Kernels {
    name: "swar",
    decode_ulaw,
    decode_alaw,
    encode_ulaw,
    encode_alaw,
    mix_lin16_le,
    mix_lin32_le,
};

const H16: u64 = 0x8000_8000_8000_8000;
const L16: u64 = 0x7FFF_7FFF_7FFF_7FFF;
const ONE16: u64 = 0x0001_0001_0001_0001;
const H32: u64 = 0x8000_0000_8000_0000;
const L32: u64 = 0x7FFF_FFFF_7FFF_FFFF;
const ONE32: u64 = 0x0000_0001_0000_0001;

/// Saturating add of four packed `i16` lanes.
#[inline]
pub fn sat_add_i16x4(a: u64, b: u64) -> u64 {
    // Wrapping per-lane sum: low 15 bits carry internally, sign bits are
    // XORed back so carries never cross a lane boundary.
    let sum = (a & L16) + (b & L16);
    let r = sum ^ ((a ^ b) & H16);
    // Signed overflow: operands agree in sign, result disagrees.
    let ovf = (a ^ r) & (b ^ r) & H16;
    if ovf == 0 {
        return r;
    }
    // Expand overflow bits to whole-lane masks (set bits are 16 apart, so
    // the partial products cannot overlap) and substitute the saturated
    // value: 0x7FFF plus the operand sign (negative lanes get 0x8000).
    let ovm = (ovf >> 15) * 0xFFFF;
    let sat = L16 + ((a >> 15) & ONE16);
    (r & !ovm) | (sat & ovm)
}

/// Saturating add of two packed `i32` lanes.
#[inline]
pub fn sat_add_i32x2(a: u64, b: u64) -> u64 {
    let sum = (a & L32) + (b & L32);
    let r = sum ^ ((a ^ b) & H32);
    let ovf = (a ^ r) & (b ^ r) & H32;
    if ovf == 0 {
        return r;
    }
    let ovm = (ovf >> 31) * 0xFFFF_FFFF;
    let sat = L32 + ((a >> 31) & ONE32);
    (r & !ovm) | (sat & ovm)
}

pub(super) fn mix_lin16_le(dst: &mut [u8], src: &[u8]) {
    let n = dst.len().min(src.len()) & !1;
    let mut i = 0;
    while i + 8 <= n {
        let a = u64::from_le_bytes(dst[i..i + 8].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(src[i..i + 8].try_into().expect("8 bytes"));
        dst[i..i + 8].copy_from_slice(&sat_add_i16x4(a, b).to_le_bytes());
        i += 8;
    }
    while i + 2 <= n {
        let a = i16::from_le_bytes([dst[i], dst[i + 1]]);
        let b = i16::from_le_bytes([src[i], src[i + 1]]);
        dst[i..i + 2].copy_from_slice(&a.saturating_add(b).to_le_bytes());
        i += 2;
    }
}

pub(super) fn mix_lin32_le(dst: &mut [u8], src: &[u8]) {
    let n = dst.len().min(src.len()) & !3;
    let mut i = 0;
    while i + 8 <= n {
        let a = u64::from_le_bytes(dst[i..i + 8].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(src[i..i + 8].try_into().expect("8 bytes"));
        dst[i..i + 8].copy_from_slice(&sat_add_i32x2(a, b).to_le_bytes());
        i += 8;
    }
    while i + 4 <= n {
        let a = i32::from_le_bytes([dst[i], dst[i + 1], dst[i + 2], dst[i + 3]]);
        let b = i32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]);
        dst[i..i + 4].copy_from_slice(&a.saturating_add(b).to_le_bytes());
        i += 4;
    }
}

fn decode_ulaw(data: &[u8], out: &mut [i16]) {
    decode_tab(tables::exp_u(), data, out);
}

fn decode_alaw(data: &[u8], out: &mut [i16]) {
    decode_tab(tables::exp_a(), data, out);
}

/// Table decode with packed stores: eight lookups merge into two `u64`
/// writes through the little-endian byte view of the output.
pub(super) fn decode_tab(t: &[i16; 256], data: &[u8], out: &mut [i16]) {
    assert_eq!(data.len(), out.len(), "decode buffer length mismatch");
    let n = data.len();
    if let Some(ob) = sample::lin16_bytes_mut(out) {
        // Zipped exact chunks: no index arithmetic or bounds checks inside
        // the loop, so the gathers and the two packed stores are all that
        // remains per 8 samples.
        let whole = n & !7;
        let (dc, dr) = data.split_at(whole);
        let (oc, or_) = ob.split_at_mut(2 * whole);
        for (d, o) in dc.chunks_exact(8).zip(oc.chunks_exact_mut(16)) {
            let w0 = (t[d[0] as usize] as u16 as u64)
                | (t[d[1] as usize] as u16 as u64) << 16
                | (t[d[2] as usize] as u16 as u64) << 32
                | (t[d[3] as usize] as u16 as u64) << 48;
            let w1 = (t[d[4] as usize] as u16 as u64)
                | (t[d[5] as usize] as u16 as u64) << 16
                | (t[d[6] as usize] as u16 as u64) << 32
                | (t[d[7] as usize] as u16 as u64) << 48;
            o[..8].copy_from_slice(&w0.to_le_bytes());
            o[8..].copy_from_slice(&w1.to_le_bytes());
        }
        for (&b, o) in dr.iter().zip(or_.chunks_exact_mut(2)) {
            o.copy_from_slice(&t[b as usize].to_le_bytes());
        }
    } else {
        // Big-endian target: lane packing assumes LE sample order.
        for (o, &b) in out.iter_mut().zip(data) {
            *o = t[b as usize];
        }
    }
}

fn encode_ulaw(pcm: &[i16], out: &mut [u8]) {
    encode_tab(tables::comp_u(), pcm, out);
}

fn encode_alaw(pcm: &[i16], out: &mut [u8]) {
    encode_tab(tables::comp_a(), pcm, out);
}

/// Table encode with packed stores: eight compressed bytes per `u64` write.
pub(super) fn encode_tab(t: &[u8; 16_384], pcm: &[i16], out: &mut [u8]) {
    assert_eq!(pcm.len(), out.len(), "encode buffer length mismatch");
    let n = pcm.len();
    let whole = n & !7;
    let (pc, pr) = pcm.split_at(whole);
    let (oc, or_) = out.split_at_mut(whole);
    for (p, o) in pc.chunks_exact(8).zip(oc.chunks_exact_mut(8)) {
        let w = (t[tables::comp_index(p[0])] as u64)
            | (t[tables::comp_index(p[1])] as u64) << 8
            | (t[tables::comp_index(p[2])] as u64) << 16
            | (t[tables::comp_index(p[3])] as u64) << 24
            | (t[tables::comp_index(p[4])] as u64) << 32
            | (t[tables::comp_index(p[5])] as u64) << 40
            | (t[tables::comp_index(p[6])] as u64) << 48
            | (t[tables::comp_index(p[7])] as u64) << 56;
        o.copy_from_slice(&w.to_le_bytes());
    }
    for (&s, o) in pr.iter().zip(or_.iter_mut()) {
        *o = t[tables::comp_index(s)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes16(vals: [i16; 4]) -> u64 {
        let mut b = [0u8; 8];
        for (c, v) in b.chunks_exact_mut(2).zip(vals) {
            c.copy_from_slice(&v.to_le_bytes());
        }
        u64::from_le_bytes(b)
    }

    fn unlanes16(w: u64) -> [i16; 4] {
        let b = w.to_le_bytes();
        std::array::from_fn(|i| i16::from_le_bytes([b[2 * i], b[2 * i + 1]]))
    }

    #[test]
    fn sat_add_lanes_match_scalar() {
        let cases = [
            [0i16, 1, -1, i16::MAX],
            [i16::MAX, i16::MIN, 30_000, -30_000],
            [12_345, -12_345, 7, -7],
            [i16::MIN, i16::MIN, i16::MAX, 1],
        ];
        for a in cases {
            for b in cases {
                let got = unlanes16(sat_add_i16x4(lanes16(a), lanes16(b)));
                let want: [i16; 4] = std::array::from_fn(|i| a[i].saturating_add(b[i]));
                assert_eq!(got, want, "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn sat_add_i32_lanes_match_scalar() {
        for a in [0i32, 1, -1, i32::MAX, i32::MIN, 2_000_000_000] {
            for b in [0i32, -1, i32::MAX, i32::MIN, -2_000_000_000, 77] {
                let mut w = [0u8; 8];
                w[..4].copy_from_slice(&a.to_le_bytes());
                w[4..].copy_from_slice(&b.to_le_bytes());
                let r = sat_add_i32x2(u64::from_le_bytes(w), u64::from_le_bytes(w));
                let rb = r.to_le_bytes();
                assert_eq!(
                    i32::from_le_bytes([rb[0], rb[1], rb[2], rb[3]]),
                    a.saturating_add(a)
                );
                assert_eq!(
                    i32::from_le_bytes([rb[4], rb[5], rb[6], rb[7]]),
                    b.saturating_add(b)
                );
            }
        }
    }

    #[test]
    fn negative_zero_ulaw_decodes_in_every_lane() {
        // 0x7F is µ-law negative zero: sign set, magnitude 0.  A naive
        // per-lane negate (!m + 1) would carry into the next lane here.
        let data = [0x7Fu8; 9];
        let mut out = [1i16; 9];
        (KERNELS.decode_ulaw)(&data, &mut out);
        assert_eq!(out, [0i16; 9]);
    }
}
