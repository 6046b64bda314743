// Fixture: must NOT trigger `unsafe-blocks` — the SIMD-module shape the
// real `af_dsp::kernels::x86` file uses: a module-wide
// `unsafe_code` re-enable earned by multiple unsafe sites, a SAFETY
// contract for callers on the `#[target_feature]` declaration, and an
// audit on the call site.

#![allow(unsafe_code)]

#[target_feature(enable = "avx2")]
// SAFETY: callers must guarantee the CPU supports AVX2; the kernel vtable
// only selects this entry after runtime feature detection.
pub unsafe fn decode_block(data: &[u8], out: &mut [i16]) {
    for (b, o) in data.iter().zip(out) {
        // SAFETY: every u16 bit pattern is a valid i16.
        *o = unsafe { core::mem::transmute::<u16, i16>(u16::from(*b) << 8) };
    }
}
