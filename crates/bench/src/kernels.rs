//! Sample-pipeline micro-kernels: the seed's scalar paths against the
//! batched zero-copy paths, measured side by side.
//!
//! Three kernels cover the per-byte work on the server's play/record hot
//! path, each at the request sizes of the §10 sweep (1 KB – 64 KB):
//!
//! * **mix** — the merge path of `DeviceBuffers::merge_into_play`.  The
//!   seed allocated a staging buffer, copied the ring region out, mixed
//!   per sample, and copied the result back; the batched path mixes in
//!   place over a typed `&[i16]` view of the ring storage.
//! * **gain** — `apply_gain_bytes` on LIN16.  The seed decoded each sample
//!   and crossed into the DSP crate once *per sample* (recomputing the
//!   dB→linear factor every call); the batched path computes one Q16
//!   multiplier per buffer and sweeps a sample slice.
//! * **convert** — one µ-law→LIN16 block through an AC's converter.  The
//!   seed allocated the linear staging vector and the output vector per
//!   block; `Converter::convert_into` reuses both across blocks.
//!
//! The "before" sides call [`af_dsp::reference`], a frozen copy of the
//! seed kernels kept precisely so this comparison stays honest as the
//! batched paths evolve.  Property tests in `af-dsp` pin both sides
//! bit-exact, so the speedups below are pure implementation, not changed
//! semantics.

use af_dsp::convert::Converter;
use af_dsp::resample::{resample_block, ResampleState};
use af_dsp::{mix, reference, Encoding};

/// The shape `resample_block` and its frozen reference share.
type ResampleFn = fn(&mut ResampleState, &[i16], &mut Vec<i16>);

/// Block sizes for the kernel sweep: 1 KB to 64 KB, matching the request
/// sizes of Figures 11–13.
pub const KERNEL_SIZES: [usize; 4] = [1024, 4096, 16_384, 65_536];

/// One kernel measured at one block size.
#[derive(Clone, Debug)]
pub struct KernelMeasurement {
    /// Kernel name: `mix`, `gain`, or `convert`.
    pub kernel: &'static str,
    /// Block size in bytes.
    pub bytes: usize,
    /// Seed scalar path throughput, MB/s.
    pub before_mb_s: f64,
    /// Batched path throughput, MB/s.
    pub after_mb_s: f64,
}

impl KernelMeasurement {
    /// after / before.
    pub fn speedup(&self) -> f64 {
        self.after_mb_s / self.before_mb_s
    }
}

/// Times `f` over blocks of `bytes` and converts to MB/s.
fn throughput<F: FnMut()>(bytes: usize, iters: u32, mut f: F) -> f64 {
    for _ in 0..(iters / 8).max(1) {
        f(); // Warm up.
    }
    let s = crate::time_per_iter(iters, f);
    bytes as f64 / s / 1e6
}

/// Iterations for a block size: enough bytes to smooth timer noise,
/// scaled down in smoke mode.
fn iters_for(bytes: usize, smoke: bool) -> u32 {
    let budget: usize = if smoke { 4 << 20 } else { 256 << 20 };
    ((budget / bytes).max(8)) as u32
}

/// A deterministic LIN16 test block: full-scale-ish audio, no flat spots.
fn lin16_block(bytes: usize) -> Vec<u8> {
    (0..bytes / 2)
        .flat_map(|i| ((((i as i32).wrapping_mul(2654435761u32 as i32)) >> 16) as i16).to_le_bytes())
        .collect()
}

/// The merge-path mix kernel (LIN16).
fn measure_mix(bytes: usize, smoke: bool) -> KernelMeasurement {
    let iters = iters_for(bytes, smoke);
    let src = lin16_block(bytes);
    // The seed: stage out of the ring, mix per sample, copy back.
    let mut ring = lin16_block(bytes);
    let before = throughput(bytes, iters, || {
        let mut existing = vec![0u8; bytes];
        existing.copy_from_slice(&ring);
        reference::mix_bytes_scalar(Encoding::Lin16, &mut existing, &src);
        ring.copy_from_slice(&existing);
        std::hint::black_box(&ring);
    });
    // Batched: one in-place pass over the ring storage.
    let mut ring = lin16_block(bytes);
    let after = throughput(bytes, iters, || {
        mix::mix_bytes(Encoding::Lin16, &mut ring, &src);
        std::hint::black_box(&ring);
    });
    KernelMeasurement {
        kernel: "mix",
        bytes,
        before_mb_s: before,
        after_mb_s: after,
    }
}

/// The LIN16 gain kernel at −6 dB.
fn measure_gain(bytes: usize, smoke: bool) -> KernelMeasurement {
    let iters = iters_for(bytes, smoke);
    let mut buf = lin16_block(bytes);
    let before = throughput(bytes, iters, || {
        reference::apply_gain_bytes_scalar(Encoding::Lin16, &mut buf, -6);
        std::hint::black_box(&buf);
    });
    let mut buf = lin16_block(bytes);
    let after = throughput(bytes, iters, || {
        af_server::gain::apply_gain_bytes(Encoding::Lin16, &mut buf, -6);
        std::hint::black_box(&buf);
    });
    KernelMeasurement {
        kernel: "gain",
        bytes,
        before_mb_s: before,
        after_mb_s: after,
    }
}

/// The µ-law→LIN16 conversion kernel.
fn measure_convert(bytes: usize, smoke: bool) -> KernelMeasurement {
    let iters = iters_for(bytes, smoke);
    let src: Vec<u8> = (0..bytes).map(|i| (i % 255) as u8).collect();
    // The seed: fresh staging and output vectors per block.
    let before = throughput(bytes, iters, || {
        let pcm = reference::decode_to_lin16_scalar(Encoding::Mu255, &src);
        let out = reference::encode_from_lin16_scalar(Encoding::Lin16, &pcm);
        std::hint::black_box(out);
    });
    // Batched: converter-owned scratch, caller-owned output, zero allocs
    // in the steady state.
    let mut conv = Converter::new(Encoding::Mu255, Encoding::Lin16).unwrap();
    let mut out = Vec::new();
    let after = throughput(bytes, iters, || {
        conv.convert_into(&src, &mut out).unwrap();
        std::hint::black_box(&out);
    });
    KernelMeasurement {
        kernel: "convert",
        bytes,
        before_mb_s: before,
        after_mb_s: after,
    }
}

/// Runs the full kernel sweep.  `smoke` trades precision for speed (CI).
pub fn run_kernels(smoke: bool) -> Vec<KernelMeasurement> {
    let mut results = Vec::new();
    for &bytes in &KERNEL_SIZES {
        results.push(measure_mix(bytes, smoke));
        results.push(measure_gain(bytes, smoke));
        results.push(measure_convert(bytes, smoke));
    }
    results
}

// --- Round 2: per-path kernel rows (scalar vs SWAR vs SIMD) --------------

/// One vtable entry point measured on one implementation path.
#[derive(Clone, Debug)]
pub struct KernelV2Measurement {
    /// Entry point: `convert_decode`, `convert_encode`, `mix`, `resample`.
    pub kernel: &'static str,
    /// Implementation path name: `scalar`, `swar`, `simd-sse2`, …; for
    /// `resample`, which has one implementation, `kernel` or `reference`.
    pub path: &'static str,
    /// Block size in bytes (companded bytes for converts, LIN16 bytes for
    /// mix and resample input).
    pub bytes: usize,
    /// Throughput over the block, MB/s.
    pub mb_s: f64,
    /// Consumed cycles per byte (timestamp-counter units per byte on
    /// x86_64; ns per byte elsewhere) — the metric the bench gate compares
    /// on, because it stays meaningful on a loaded 1-core CI host where
    /// wall-clock MB/s aliases scheduler noise.
    pub cycles_per_byte: f64,
}

/// Times `f` over blocks of `bytes`, reporting both wall-clock MB/s and
/// consumed cycles per byte over the same timed region.
fn throughput_cycles<F: FnMut()>(bytes: usize, iters: u32, mut f: F) -> (f64, f64) {
    for _ in 0..(iters / 8).max(1) {
        f(); // Warm up.
    }
    let c0 = af_dsp::kernels::cycles::timestamp();
    let s = crate::time_per_iter(iters, f);
    let cycles = af_dsp::kernels::cycles::timestamp().wrapping_sub(c0);
    let total_bytes = bytes as f64 * f64::from(iters);
    (bytes as f64 / s / 1e6, cycles as f64 / total_bytes)
}

/// Measures every vtable entry point on every path available on this
/// host, at the top two sweep sizes, and the resampler against its frozen
/// reference loop.  The paths are driven through their function pointers
/// directly (not the global `AF_DSP_FORCE` override), so rows stay
/// comparable even when the process default is SIMD.
pub fn run_kernels_v2(smoke: bool) -> Vec<KernelV2Measurement> {
    let mut results = Vec::new();
    for &bytes in &[KERNEL_SIZES[1], KERNEL_SIZES[3]] {
        let iters = iters_for(bytes, smoke);
        for (_, k) in af_dsp::kernels::available() {
            let ulaw: Vec<u8> = (0..bytes).map(|i| (i % 255) as u8).collect();
            let mut pcm = vec![0i16; bytes];
            let (mb_s, cpb) = throughput_cycles(bytes, iters, || {
                (k.decode_ulaw)(&ulaw, &mut pcm);
                std::hint::black_box(&pcm);
            });
            results.push(KernelV2Measurement {
                kernel: "convert_decode",
                path: k.name,
                bytes,
                mb_s,
                cycles_per_byte: cpb,
            });

            let mut out = vec![0u8; bytes];
            let (mb_s, cpb) = throughput_cycles(bytes, iters, || {
                (k.encode_ulaw)(&pcm, &mut out);
                std::hint::black_box(&out);
            });
            results.push(KernelV2Measurement {
                kernel: "convert_encode",
                path: k.name,
                bytes,
                mb_s,
                cycles_per_byte: cpb,
            });

            let src = lin16_block(bytes);
            let mut ring = lin16_block(bytes);
            let (mb_s, cpb) = throughput_cycles(bytes, iters, || {
                (k.mix_lin16_le)(&mut ring, &src);
                std::hint::black_box(&ring);
            });
            results.push(KernelV2Measurement {
                kernel: "mix",
                path: k.name,
                bytes,
                mb_s,
                cycles_per_byte: cpb,
            });
        }

        let input: Vec<i16> = lin16_block(bytes)
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect();
        let paths: [(&'static str, ResampleFn); 2] = [
            ("reference", reference::resample_block_scalar),
            ("kernel", resample_block),
        ];
        for (path, f) in paths {
            let mut st = ResampleState {
                step: 8000.0 / 11_025.0,
                pos: 0.0,
                prev: None,
            };
            let mut resampled = Vec::new();
            let (mb_s, cpb) = throughput_cycles(bytes, iters, || {
                resampled.clear();
                f(&mut st, &input, &mut resampled);
                std::hint::black_box(&resampled);
            });
            results.push(KernelV2Measurement {
                kernel: "resample",
                path,
                bytes,
                mb_s,
                cycles_per_byte: cpb,
            });
        }
    }
    results
}

/// Dispatch-gate tolerance: how much slower than scalar (in cycles/byte)
/// the composed table may measure before it counts as a regression.  Wide
/// enough to absorb timer noise on a loaded CI host, narrow enough to catch
/// the class of bug it exists for — a composition that picks a losing path
/// (the SWAR mix trails scalar ~6×).
pub const DISPATCH_GATE_TOLERANCE: f64 = 1.25;

/// The resampler's share of the gate: the kernel must cost at most this
/// fraction of the reference loop's cycles/byte at every size.  It measures
/// ~0.27; the old loop, with its two libm calls per output, ~0.85.
pub const RESAMPLE_GATE_RATIO: f64 = 0.5;

/// The dispatch invariant behind `af_dsp::kernels::composed`: the shipping
/// default must never be slower than the scalar baseline on any entry
/// point at any size — and the resampler, which has no table to pick from,
/// must hold [`RESAMPLE_GATE_RATIO`] against its reference.  Returns one
/// message per violated (kernel, size) pair, empty when both hold.
pub fn dispatch_regressions(rows: &[KernelV2Measurement], tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let gates = [
        ("scalar", "composed", tolerance),
        ("reference", "kernel", RESAMPLE_GATE_RATIO),
    ];
    for (base_path, subject_path, limit) in gates {
        for base in rows.iter().filter(|r| r.path == base_path) {
            let Some(subject) = rows.iter().find(|r| {
                r.path == subject_path && r.kernel == base.kernel && r.bytes == base.bytes
            }) else {
                violations.push(format!(
                    "no {subject_path} row for {}/{} — dispatch gate cannot run",
                    base.kernel, base.bytes
                ));
                continue;
            };
            if subject.cycles_per_byte > base.cycles_per_byte * limit {
                violations.push(format!(
                    "{}/{}: {subject_path} {:.3} cycles/byte vs {base_path} {:.3} ({:.2}x, limit {:.2}x)",
                    base.kernel,
                    base.bytes,
                    subject.cycles_per_byte,
                    base.cycles_per_byte,
                    subject.cycles_per_byte / base.cycles_per_byte,
                    limit
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_run_and_report_positive_throughput() {
        for m in run_kernels(true) {
            assert!(m.before_mb_s > 0.0, "{}/{}", m.kernel, m.bytes);
            assert!(m.after_mb_s > 0.0, "{}/{}", m.kernel, m.bytes);
        }
    }

    #[test]
    fn kernels_v2_cover_every_path_with_positive_metrics() {
        let rows = run_kernels_v2(true);
        let paths = af_dsp::kernels::available().len();
        // (3 vtable entry points x available paths + resample kernel and
        // reference) x 2 sizes.
        assert_eq!(rows.len(), (3 * paths + 2) * 2);
        for m in &rows {
            assert!(m.mb_s > 0.0, "{}/{}/{}", m.kernel, m.path, m.bytes);
            assert!(
                m.cycles_per_byte > 0.0,
                "{}/{}/{}",
                m.kernel,
                m.path,
                m.bytes
            );
        }
    }

    // Debug builds leave the `core::arch` intrinsics uninlined, which makes
    // any SIMD-vs-scalar timing meaningless; the live gate only holds for
    // optimized code (the report binary always runs it in release).
    #[cfg(not(debug_assertions))]
    #[test]
    fn composed_path_is_never_slower_than_scalar() {
        let rows = run_kernels_v2(true);
        let violations = dispatch_regressions(&rows, DISPATCH_GATE_TOLERANCE);
        assert!(violations.is_empty(), "{}", violations.join("; "));
    }

    #[test]
    fn dispatch_gate_flags_a_losing_composition() {
        let row = |path, cpb: f64| KernelV2Measurement {
            kernel: "mix",
            path,
            bytes: 4096,
            mb_s: 1.0,
            cycles_per_byte: cpb,
        };
        // Composed 6x slower than scalar (the SWAR-mix shape): must trigger.
        let bad = vec![row("scalar", 0.1), row("composed", 0.6)];
        assert_eq!(dispatch_regressions(&bad, DISPATCH_GATE_TOLERANCE).len(), 1);
        // Composed at parity: must pass.
        let good = vec![row("scalar", 0.1), row("composed", 0.1)];
        assert!(dispatch_regressions(&good, DISPATCH_GATE_TOLERANCE).is_empty());
        // Missing composed row: the gate reports rather than silently passing.
        let missing = vec![row("scalar", 0.1)];
        assert_eq!(dispatch_regressions(&missing, DISPATCH_GATE_TOLERANCE).len(), 1);
    }

    #[test]
    fn resample_gate_wants_half_the_reference_cost() {
        let row = |path, cpb: f64| KernelV2Measurement {
            kernel: "resample",
            path,
            bytes: 4096,
            mb_s: 1.0,
            cycles_per_byte: cpb,
        };
        let gate = |rows: &[KernelV2Measurement]| dispatch_regressions(rows, 1.0).len();
        // The old loop's shape (0.85x of the reference): must trigger.
        assert_eq!(gate(&[row("reference", 14.0), row("kernel", 12.0)]), 1);
        assert_eq!(gate(&[row("reference", 14.0), row("kernel", 4.0)]), 0);
        // Missing kernel row: reported, not silently passed.
        assert_eq!(gate(&[row("reference", 14.0)]), 1);
    }
}
