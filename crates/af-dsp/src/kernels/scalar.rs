//! The batched scalar table: table lookups per sample, one saturating loop
//! over little-endian bytes, the resampler's portable blocked loop, the
//! play map's table loop.  It is the semantic definition the SIMD tables
//! are pinned against, what they call for their tails, and what runs
//! under Miri or on a host with no SIMD table.

use super::Kernels;
use crate::{resample, tables};

/// The scalar vtable.
pub static KERNELS: Kernels = Kernels {
    name: "scalar",
    decode_ulaw,
    decode_alaw,
    mix_lin16_le,
    resample_block: resample::resample_block_portable,
    play_mix: tables::PlayMap::mix_by_table,
};

pub(super) fn decode_ulaw(data: &[u8], out: &mut [i16]) {
    decode_tab(tables::exp_u(), data, out);
}

pub(super) fn decode_alaw(data: &[u8], out: &mut [i16]) {
    decode_tab(tables::exp_a(), data, out);
}

fn decode_tab(t: &[i16; 256], data: &[u8], out: &mut [i16]) {
    assert_eq!(data.len(), out.len(), "decode buffer length mismatch");
    for (o, &b) in out.iter_mut().zip(data) {
        *o = t[b as usize];
    }
}

// Always inlined, so the AVX2 table's entry compiles this same loop with
// its feature enabled.
#[inline(always)]
pub(super) fn mix_lin16_le(dst: &mut [u8], src: &[u8]) {
    let n = dst.len().min(src.len()) & !1;
    let (dst, src) = (&mut dst[..n], &src[..n]);
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let a = i16::from_le_bytes([d[0], d[1]]);
        let b = i16::from_le_bytes([s[0], s[1]]);
        d.copy_from_slice(&a.saturating_add(b).to_le_bytes());
    }
}
