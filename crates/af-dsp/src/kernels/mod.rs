//! Runtime-dispatched batch kernels (SWAR round 2).
//!
//! PR 2 batched the per-sample loops; this module vectorizes the two
//! dominant kernel families — companded↔linear conversion and saturating
//! mix — behind one function-pointer vtable selected once at startup (the
//! resampler has a single implementation, [`crate::resample`]):
//!
//! * [`scalar`] — the batched loops the seed grew into; always available
//!   and the semantic definition of every entry point.
//! * [`swar`] — SIMD-within-a-register over `u64` lanes (four 16-bit or two
//!   32-bit samples per word); portable to every target, alignment-free
//!   because it moves lanes with `from_le_bytes`/`to_le_bytes`.
//! * `simd` — `core::arch` kernels behind runtime feature detection:
//!   SSE2 baseline and AVX2 when detected on x86_64 ([`x86`]), NEON on
//!   aarch64 ([`neon`]); other targets fall back to SWAR.
//!
//! Every path is pinned bit-exact against `crate::reference` by the
//! differential property tests, so selection is purely a throughput choice.
//!
//! The default is [`composed`], a per-entry-point best-of table assembled
//! once at startup (BENCH_report.json `kernels_v2`): the SIMD table where
//! the target has one, and otherwise SWAR decode beside the scalar encode
//! and mix (SWAR's lane-masked mix loses ~6× to the autovectorized scalar
//! loop).
//!
//! Selection order: the `AF_DSP_FORCE=scalar|swar|simd|composed`
//! environment variable (read once) pins a whole table, else the composed
//! table.  [`set_force`] overrides selection at runtime for benches.

pub mod cycles;
pub mod scalar;
pub mod swar;

#[cfg(target_arch = "x86_64")]
pub mod x86;

#[cfg(target_arch = "aarch64")]
pub mod neon;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// The frozen `reference` module names the state by this path.
pub(crate) use crate::resample::ResampleState;

/// The kernel vtable: one set of function pointers per implementation path.
///
/// Contracts shared by every implementation:
///
/// * `decode_*`/`encode_*` require `out.len() == input.len()` (one sample
///   per companded byte) and fill `out` completely.
/// * `mix_*_le` mix little-endian sample bytes of `src` into `dst`,
///   saturating, over the whole samples both slices hold; the caller
///   truncates to a sample boundary.  Alignment is irrelevant.
#[derive(Clone, Copy)]
pub struct Kernels {
    /// Path name for reports: `"scalar"`, `"swar"`, `"simd-sse2"`, ….
    pub name: &'static str,
    /// µ-law bytes → 16-bit linear.
    pub decode_ulaw: fn(&[u8], &mut [i16]),
    /// A-law bytes → 16-bit linear.
    pub decode_alaw: fn(&[u8], &mut [i16]),
    /// 16-bit linear → µ-law bytes.
    pub encode_ulaw: fn(&[i16], &mut [u8]),
    /// 16-bit linear → A-law bytes.
    pub encode_alaw: fn(&[i16], &mut [u8]),
    /// Saturating mix of LIN16 little-endian bytes.
    pub mix_lin16_le: fn(&mut [u8], &[u8]),
    /// Saturating mix of LIN32 little-endian bytes.
    pub mix_lin32_le: fn(&mut [u8], &[u8]),
}

/// A selectable implementation path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Batched scalar loops (the PR 2 state of the art).
    Scalar,
    /// Portable `u64`-lane SWAR.
    Swar,
    /// `core::arch` SIMD; resolves to the best table the host supports and
    /// falls back to SWAR where there is none.
    Simd,
    /// Per-entry-point best-of table (the startup default); see [`composed`].
    Composed,
}

impl KernelPath {
    /// Parses the `AF_DSP_FORCE` spelling.
    pub fn parse(s: &str) -> Option<KernelPath> {
        match s {
            "scalar" => Some(KernelPath::Scalar),
            "swar" => Some(KernelPath::Swar),
            "simd" => Some(KernelPath::Simd),
            "composed" => Some(KernelPath::Composed),
            _ => None,
        }
    }
}

/// The best `core::arch` table this host supports, if any.
fn simd_kernels() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        Some(x86::kernels())
    }
    #[cfg(target_arch = "aarch64")]
    {
        Some(neon::kernels())
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

/// The per-entry-point best-of table: each function pointer comes from the
/// path that measured fastest for that kernel (BENCH_report.json
/// `kernels_v2`, re-checked by the bench gate in `bench::kernels`):
///
/// * where the target has a `core::arch` table, all of it — AVX2 decode
///   runs ~2× scalar and AVX2 mix ~1.6×, and SWAR wins no entry point;
/// * hosts with none keep SWAR convert (still ~2× scalar) but take the
///   scalar encode and mix, which SWAR loses.
pub fn composed() -> &'static Kernels {
    static COMPOSED: OnceLock<Kernels> = OnceLock::new();
    COMPOSED.get_or_init(|| match simd_kernels() {
        Some(simd) => Kernels {
            name: "composed",
            ..*simd
        },
        None => Kernels {
            name: "composed",
            decode_ulaw: swar::KERNELS.decode_ulaw,
            decode_alaw: swar::KERNELS.decode_alaw,
            ..scalar::KERNELS
        },
    })
}

/// Resolves a path to its vtable (`Simd` falls back to SWAR when the host
/// has no `core::arch` table).
pub fn for_path(path: KernelPath) -> &'static Kernels {
    match path {
        KernelPath::Scalar => &scalar::KERNELS,
        KernelPath::Swar => &swar::KERNELS,
        KernelPath::Simd => simd_kernels().unwrap_or(&swar::KERNELS),
        KernelPath::Composed => composed(),
    }
}

/// Every distinct implementation available on this host, for differential
/// tests and per-path bench rows.  The SIMD entry is omitted when it would
/// merely alias SWAR.  The composed table is always last, so differential
/// tests pin the shipping default against the same references.
pub fn available() -> Vec<(KernelPath, &'static Kernels)> {
    let mut v = vec![
        (KernelPath::Scalar, &scalar::KERNELS),
        (KernelPath::Swar, &swar::KERNELS),
    ];
    if let Some(simd) = simd_kernels() {
        v.push((KernelPath::Simd, simd));
    }
    v.push((KernelPath::Composed, composed()));
    v
}

/// Runtime override for benches/tests: `set_force(Some(path))` pins every
/// subsequent [`active`] call to that path; `None` restores startup
/// selection.  Not intended for production code, which selects once.
pub fn set_force(path: Option<KernelPath>) {
    let v = match path {
        None => 0,
        Some(KernelPath::Scalar) => 1,
        Some(KernelPath::Swar) => 2,
        Some(KernelPath::Simd) => 3,
        Some(KernelPath::Composed) => 4,
    };
    FORCE.store(v, Ordering::Relaxed);
}

static FORCE: AtomicU8 = AtomicU8::new(0);

/// The vtable every production call site uses.
///
/// Selection happens once (honoring `AF_DSP_FORCE`); afterwards this is an
/// atomic load plus a pointer chase.
#[inline]
pub fn active() -> &'static Kernels {
    match FORCE.load(Ordering::Relaxed) {
        1 => &scalar::KERNELS,
        2 => &swar::KERNELS,
        3 => for_path(KernelPath::Simd),
        4 => composed(),
        _ => DEFAULT.get_or_init(|| {
            match std::env::var("AF_DSP_FORCE").ok().as_deref().and_then(KernelPath::parse) {
                Some(p) => for_path(p),
                None => composed(),
            }
        }),
    }
}

static DEFAULT: OnceLock<&'static Kernels> = OnceLock::new();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_overrides_selection() {
        set_force(Some(KernelPath::Scalar));
        assert_eq!(active().name, "scalar");
        set_force(Some(KernelPath::Swar));
        assert_eq!(active().name, "swar");
        set_force(Some(KernelPath::Composed));
        assert_eq!(active().name, "composed");
        set_force(None);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert_eq!(KernelPath::parse("swar"), Some(KernelPath::Swar));
        assert_eq!(KernelPath::parse("composed"), Some(KernelPath::Composed));
        assert_eq!(KernelPath::parse("avx512"), None);
    }

    #[test]
    fn composed_picks_per_kernel_winners() {
        let c = composed();
        assert_eq!(c.name, "composed");
        match simd_kernels() {
            // Where a SIMD table exists the composition is that table.
            Some(simd) => {
                assert!(std::ptr::fn_addr_eq(c.decode_ulaw, simd.decode_ulaw));
                assert!(std::ptr::fn_addr_eq(c.encode_ulaw, simd.encode_ulaw));
                assert!(std::ptr::fn_addr_eq(c.mix_lin16_le, simd.mix_lin16_le));
                assert!(std::ptr::fn_addr_eq(c.mix_lin32_le, simd.mix_lin32_le));
            }
            None => {
                assert!(std::ptr::fn_addr_eq(c.decode_ulaw, swar::KERNELS.decode_ulaw));
                // SWAR's lane-masked mix loses to the autovectorized scalar
                // loop, so the fallback composition must not take it.
                assert!(std::ptr::fn_addr_eq(c.mix_lin16_le, scalar::KERNELS.mix_lin16_le));
            }
        }
    }

    #[test]
    fn available_paths_are_distinct() {
        let paths = available();
        assert!(paths.len() >= 2);
        for w in paths.windows(2) {
            assert_ne!(w[0].1.name, w[1].1.name);
        }
    }

    #[test]
    fn timestamps_are_monotonic_enough() {
        let a = cycles::timestamp();
        let b = cycles::timestamp();
        assert!(b >= a || b.wrapping_sub(a) > u64::MAX / 2);
    }
}
