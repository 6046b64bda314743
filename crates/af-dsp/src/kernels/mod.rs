//! Runtime-dispatched batch kernels.
//!
//! Companded→linear decode, the LIN16 saturating mix, the resampler's
//! block and the play map's mix sit behind one function-pointer vtable
//! selected once at startup.  There are two kinds of table:
//!
//! * [`scalar`] — batched table-lookup loops, the resampler's portable
//!   interior ([`crate::resample`]) and the play map's table loop
//!   ([`crate::tables::PlayMap`]); always available, the semantic
//!   definition of every entry point, and what the SIMD tables call for
//!   their tails.
//! * SIMD — x86_64 `core::arch` kernels ([`x86`]): AVX2 when detected,
//!   AVX-512 when F, BW and VBMI all are, AVX-512 FP16 when FP16 is too,
//!   each table the one below it with entries replaced — AVX-512 its
//!   µ-law decode, resampler interior and play map, FP16 the play map
//!   again.
//!
//! Every table's resampler is one driver, `resample::drive`, around that
//! table's interior: the driver walks the position chain as runs of bit
//! patterns `b0 + k·n` (DESIGN.md §8.2), the interior turns a run into
//! samples.
//!
//! Every table is pinned bit-exact against `crate::reference` by the
//! differential property tests, so selection is purely a throughput choice
//! and nothing the user sets: [`active`] is the best SIMD table the host
//! can execute, and the scalar table under Miri (the interpreter stays on
//! portable code) or on a host with no SIMD table.

pub mod cycles;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod x86;

use std::sync::OnceLock;

// The frozen `reference` module names the state by this path.
pub(crate) use crate::resample::ResampleState;
use crate::tables::PlayMap;

/// The kernel vtable: one set of function pointers per implementation.
///
/// Contracts shared by every implementation:
///
/// * `decode_*` require `out.len() == input.len()` (one sample per
///   companded byte) and fill `out` completely.
/// * `mix_lin16_le` mixes little-endian sample bytes of `src` into `dst`,
///   saturating, over the whole samples both slices hold; the caller
///   truncates to a sample boundary.  Alignment is irrelevant.
/// * `resample_block` appends one mono LIN16 block's output to the vector
///   and advances the state, both exactly as
///   `reference::resample_block_scalar` does — output, `pos` by bits, `prev`.
/// * `play_mix` mixes the client samples of `src` through the play map
///   into the companded device bytes of `dst`, byte for byte what
///   `reference::encode_from_lin16_scalar`, `apply_gain_bytes_scalar` and
///   `mix_bytes_scalar` give in turn; it panics unless `src` holds exactly
///   [`PlayMap::sample_bytes`] bytes for each byte of `dst`.
#[derive(Clone, Copy)]
pub struct Kernels {
    /// Table name for reports: `"scalar"`, `"simd-avx2"`, `"simd-avx512"`,
    /// `"simd-avx512fp16"`.
    pub name: &'static str,
    /// µ-law bytes → 16-bit linear.
    pub decode_ulaw: fn(&[u8], &mut [i16]),
    /// A-law bytes → 16-bit linear.
    pub decode_alaw: fn(&[u8], &mut [i16]),
    /// Saturating mix of LIN16 little-endian bytes.
    pub mix_lin16_le: fn(&mut [u8], &[u8]),
    /// Streaming linear-interpolation resampler, one block.
    pub resample_block: fn(&mut ResampleState, &[i16], &mut Vec<i16>),
    /// A play map's samples mixed into companded device bytes.
    pub play_mix: fn(&PlayMap, &mut [u8], &[u8]),
}

/// The SIMD tables this host can execute, best last; empty where the
/// target has none.
fn simd_tables() -> &'static [Kernels] {
    #[cfg(target_arch = "x86_64")]
    {
        x86::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[]
    }
}

/// Every table this host can execute — scalar, then each SIMD table, best
/// last — for differential tests and bench rows.
pub fn available() -> Vec<&'static Kernels> {
    std::iter::once(&scalar::KERNELS)
        .chain(simd_tables())
        .collect()
}

/// The vtable every production call site uses: selected on first use,
/// afterwards an atomic load plus a pointer chase.
#[inline]
pub fn active() -> &'static Kernels {
    static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        if cfg!(miri) {
            return &scalar::KERNELS;
        }
        simd_tables().last().unwrap_or(&scalar::KERNELS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_the_best_table_the_host_can_execute() {
        let tables = available();
        assert_eq!(tables[0].name, "scalar");
        let best = tables[if cfg!(miri) { 0 } else { tables.len() - 1 }];
        assert_eq!(active().name, best.name);
    }

    #[test]
    fn available_tables_are_distinct() {
        let names: Vec<_> = available().iter().map(|k| k.name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} listed twice");
        }
    }

    /// An integer model of `v` converted to IEEE binary16 rounding toward
    /// zero, for `v ≥ 1`: sign 0, biased exponent `⌊log₂ v⌋ + 15`, and the
    /// 10 bits under the leading one, truncated.
    pub(super) fn binary16_toward_zero(v: u16) -> u16 {
        let e = v.ilog2();
        let mantissa = (u32::from(v) << 10 >> e) as u16 & 0x3FF;
        ((e as u16 + 15) << 10) | mantissa
    }

    /// The lemma on `x86::ulaw_segment_avx512fp16`, on every host: for each
    /// biased magnitude `v`, `(h >> 6) − 0x160` of the truncated binary16
    /// `h` is `g711::linear_to_ulaw`'s `exponent << 4 | mantissa`.
    #[test]
    fn ulaw_segment_is_a_half_precision_conversion() {
        for v in 0x84..=0x7FFFu16 {
            let code = crate::g711::linear_to_ulaw((v - 0x84) as i16);
            let h = binary16_toward_zero(v);
            assert_eq!((h >> 6) - 0x160, u16::from(!code & 0x7F), "v = {v:#06x}");
        }
    }

    #[test]
    fn timestamps_are_monotonic_enough() {
        let a = cycles::timestamp();
        let b = cycles::timestamp();
        assert!(b >= a || b.wrapping_sub(a) > u64::MAX / 2);
    }
}
