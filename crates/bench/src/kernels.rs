//! Sample-pipeline micro-kernels, cycle-accounted: one row per (kernel,
//! implementation, block size).
//!
//! * **convert_decode / convert_encode / mix / resample / play_mix** — the
//!   `af_dsp::kernels` vtable entry points, once per table the host can
//!   execute (`scalar`, `simd-sse2`, `simd-avx2`, `simd-avx512`,
//!   `simd-neon`), driven through the function pointers directly so the
//!   rows do not depend on which table `active()` picked; `resample` once
//!   more on its frozen reference loop (`reference`).  `play_mix` is a
//!   LIN16 client at −6 dB on a µ-law device, in the 8 KB requests a play
//!   arrives in, into ring bytes uniform over all 256 values and restored
//!   before each pass (inside the timed region, for every table alike): a
//!   ring left to saturate would keep the 64 K mix table to two hot rows.
//! * **gain** — `af_server::gain::apply_gain_bytes` on LIN16 at −6 dB
//!   (`kernel`): one Q16 multiplier per buffer swept over a sample slice.
//!
//! Property tests in `af-dsp` pin every implementation bit-exact against
//! [`af_dsp::reference`], so differences between rows are pure
//! implementation, not changed semantics.  [`dispatch_regressions`] turns
//! the rows into the three same-run gates `report` and the release-only
//! test below enforce.

use af_dsp::resample::ResampleState;
use af_dsp::tables::PlayMap;
use af_dsp::{reference, Encoding};

/// Block sizes for the kernel rows: the 4 KB and 64 KB request sizes of
/// Figures 11–13.
const KERNEL_SIZES: [usize; 2] = [4096, 65_536];

/// Iterations for a block size: enough bytes to smooth timer noise,
/// scaled down in smoke mode.
fn iters_for(bytes: usize, smoke: bool) -> u32 {
    let budget: usize = if smoke { 4 << 20 } else { 256 << 20 };
    ((budget / bytes).max(8)) as u32
}

/// The LIN16 bytes of one `PlaySamples` request as the clients chunk them.
const PLAY_REQUEST_BYTES: usize = 8192;

/// A deterministic LIN16 test block: full-scale-ish audio, no flat spots.
fn lin16_block(bytes: usize) -> Vec<u8> {
    (0..bytes / 2)
        .flat_map(|i| ((((i as i32).wrapping_mul(2654435761u32 as i32)) >> 16) as i16).to_le_bytes())
        .collect()
}

/// One kernel measured on one implementation at one block size.
#[derive(Clone, Debug)]
pub struct KernelV2Measurement {
    /// Kernel: `convert_decode`, `convert_encode`, `mix`, `play_mix`,
    /// `resample`, `gain`.
    pub kernel: &'static str,
    /// Vtable name (`scalar`, `simd-sse2`, …) for the five vtable entry
    /// points; `reference` for the resampler's frozen loop; `kernel` for
    /// `gain`, which has one implementation.
    pub path: &'static str,
    /// Block size in bytes (companded bytes for converts, LIN16 bytes for
    /// mix, play_mix, gain and resample input).
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

/// Measures every vtable entry point on every table this host can
/// execute, the resampler's frozen reference loop, and the LIN16 gain
/// sweep, at both sizes.
pub fn run_kernels_v2(smoke: bool) -> Vec<KernelV2Measurement> {
    let mut results = Vec::new();
    let tables = af_dsp::kernels::available();
    let play_map = PlayMap::new(Encoding::Lin16, Encoding::Mu255, -6).expect("a LIN16 play map");
    for bytes in KERNEL_SIZES {
        let iters = iters_for(bytes, smoke);
        let mut push = |kernel, path, (mb_s, cycles_per_byte)| {
            results.push(KernelV2Measurement {
                kernel,
                path,
                bytes,
                mb_s,
                cycles_per_byte,
            })
        };
        for k in &tables {
            let ulaw: Vec<u8> = (0..bytes).map(|i| (i % 255) as u8).collect();
            let mut pcm = vec![0i16; bytes];
            let m = throughput_cycles(bytes, iters, || {
                (k.decode_ulaw)(&ulaw, &mut pcm);
                std::hint::black_box(&pcm);
            });
            push("convert_decode", k.name, m);

            let mut out = vec![0u8; bytes];
            let m = throughput_cycles(bytes, iters, || {
                (k.encode_ulaw)(&pcm, &mut out);
                std::hint::black_box(&out);
            });
            push("convert_encode", k.name, m);

            let src = lin16_block(bytes);
            let mut ring = lin16_block(bytes);
            let m = throughput_cycles(bytes, iters, || {
                (k.mix_lin16_le)(&mut ring, &src);
                std::hint::black_box(&ring);
            });
            push("mix", k.name, m);

            // The high byte of each sample of the block is uniform noise.
            let fresh: Vec<u8> = src.iter().skip(1).step_by(2).copied().collect();
            let mut ring = fresh.clone();
            let m = throughput_cycles(bytes, iters, || {
                ring.copy_from_slice(&fresh);
                let requests = src.chunks(PLAY_REQUEST_BYTES);
                for (dst, src) in ring.chunks_mut(PLAY_REQUEST_BYTES / 2).zip(requests) {
                    (k.play_mix)(&play_map, dst, src);
                }
                std::hint::black_box(&ring);
            });
            push("play_mix", k.name, m);
        }

        let input: Vec<i16> = lin16_block(bytes)
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect();
        let paths = tables
            .iter()
            .map(|k| (k.name, k.resample_block))
            .chain([("reference", reference::resample_block_scalar as _)]);
        for (path, f) in paths {
            let mut st = ResampleState {
                step: 8000.0 / 11_025.0,
                pos: 0.0,
                prev: None,
            };
            let mut resampled = Vec::new();
            let m = throughput_cycles(bytes, iters, || {
                resampled.clear();
                f(&mut st, &input, &mut resampled);
                std::hint::black_box(&resampled);
            });
            push("resample", path, m);
        }

        let mut buf = lin16_block(bytes);
        let m = throughput_cycles(bytes, iters, || {
            af_server::gain::apply_gain_bytes(Encoding::Lin16, &mut buf, -6);
            std::hint::black_box(&buf);
        });
        push("gain", "kernel", m);
    }
    results
}

/// Dispatch-gate tolerance: how much slower than scalar (in cycles/byte)
/// the shipping table may measure before it counts as a regression.  Wide
/// enough to absorb timer noise on a loaded CI host, narrow enough to catch
/// the class of bug it exists for — a table entry that loses to the loop it
/// replaced (a lane-masked `u64` mix once trailed scalar ~6×).
pub const DISPATCH_GATE_TOLERANCE: f64 = 1.25;

/// The resampler's own gate: the portable loop (the scalar table's entry)
/// must cost at most this fraction of the reference loop's cycles/byte at
/// every size.  It measures ~0.27; the old loop, with its two libm calls
/// per output, ~0.85.
pub const RESAMPLE_GATE_RATIO: f64 = 0.5;

/// The play map's own gate, where the host lists `simd-avx512`: its
/// register interior must cost at most this fraction of the table loop's
/// cycles/byte at every size, or it has not earned its code.  It measures
/// ~0.5.
pub const PLAY_MIX_GATE_RATIO: f64 = 0.75;

/// The dispatch invariant: the table that ships (`af_dsp::kernels::active`)
/// must never be slower than the scalar baseline on any entry point at any
/// size — vacuous by construction where the shipping table *is* scalar —
/// the scalar table's resampler must hold [`RESAMPLE_GATE_RATIO`] against
/// its reference, and `simd-avx512`'s `play_mix`, where the rows have one,
/// [`PLAY_MIX_GATE_RATIO`] against scalar's.  Returns one message per
/// violated (kernel, size) pair, each starting `kernel/bytes:`, empty when
/// all hold.
pub fn dispatch_regressions(rows: &[KernelV2Measurement], tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    // (kernel or every kernel, base path, subject path, limit)
    let mut gates = vec![
        (None, "scalar", af_dsp::kernels::active().name, tolerance),
        (None, "reference", "scalar", RESAMPLE_GATE_RATIO),
    ];
    if rows.iter().any(|r| r.path == "simd-avx512") {
        gates.push((Some("play_mix"), "scalar", "simd-avx512", PLAY_MIX_GATE_RATIO));
    }
    for (kernel, base_path, subject_path, limit) in gates {
        let bases = rows
            .iter()
            .filter(|r| r.path == base_path && kernel.is_none_or(|k| k == r.kernel));
        for base in bases {
            let Some(subject) = rows.iter().find(|r| {
                r.path == subject_path && r.kernel == base.kernel && r.bytes == base.bytes
            }) else {
                violations.push(format!(
                    "{}/{}: no {subject_path} row — dispatch gate cannot run",
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
    fn kernels_v2_cover_every_path_with_positive_metrics() {
        let rows = run_kernels_v2(true);
        let tables = af_dsp::kernels::available().len();
        // (5 vtable entry points x available tables + resample reference
        // + gain) x 2 sizes.
        assert_eq!(rows.len(), (5 * tables + 2) * 2);
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
    // optimized code (the report binary always runs it in release).  One
    // smoke run beside parallel test threads is noisy, so — the rule CI's
    // gate step applies — only a (kernel, size) pair that violates in each
    // of three fresh runs fails.
    #[cfg(not(debug_assertions))]
    #[test]
    fn shipping_table_is_never_slower_than_scalar() {
        fn pair(v: &str) -> Option<&str> {
            v.split(':').next()
        }
        let run = || dispatch_regressions(&run_kernels_v2(true), DISPATCH_GATE_TOLERANCE);
        let mut stuck = run();
        for _ in 1..3 {
            if stuck.is_empty() {
                break;
            }
            let again = run();
            stuck.retain(|v| again.iter().any(|a| pair(a) == pair(v)));
        }
        assert!(stuck.is_empty(), "{}", stuck.join("; "));
    }

    #[test]
    fn dispatch_gate_flags_a_losing_composition() {
        let shipping = af_dsp::kernels::active().name;
        if shipping == "scalar" {
            return; // No SIMD table here: the subject is the base itself.
        }
        let row = |path, cpb: f64| KernelV2Measurement {
            kernel: "mix",
            path,
            bytes: 4096,
            mb_s: 1.0,
            cycles_per_byte: cpb,
        };
        // Shipping table 6x slower than scalar: must trigger.
        let bad = vec![row("scalar", 0.1), row(shipping, 0.6)];
        assert_eq!(dispatch_regressions(&bad, DISPATCH_GATE_TOLERANCE).len(), 1);
        // At parity: must pass.
        let good = vec![row("scalar", 0.1), row(shipping, 0.1)];
        assert!(dispatch_regressions(&good, DISPATCH_GATE_TOLERANCE).is_empty());
        // Missing shipping row: the gate reports rather than silently passing.
        let missing = vec![row("scalar", 0.1)];
        assert_eq!(dispatch_regressions(&missing, DISPATCH_GATE_TOLERANCE).len(), 1);
    }

    #[test]
    fn play_mix_gate_wants_three_quarters_of_the_table_loop() {
        let row = |kernel, path, cpb: f64| KernelV2Measurement {
            kernel,
            path,
            bytes: 4096,
            mb_s: 1.0,
            cycles_per_byte: cpb,
        };
        // The shipping table's rows ride along at parity (the same rows
        // where it is `simd-avx512` itself), so only this rule can fire.
        let shipping = af_dsp::kernels::active().name;
        let gate = |avx512: f64| {
            let mut rows = vec![
                row("play_mix", "scalar", 1.0),
                row("play_mix", "simd-avx512", avx512),
                row("mix", "scalar", 1.0),
                row("mix", "simd-avx512", 1.0),
            ];
            if shipping != "simd-avx512" {
                rows.extend([row("play_mix", shipping, 1.0), row("mix", shipping, 1.0)]);
            }
            dispatch_regressions(&rows, DISPATCH_GATE_TOLERANCE).len()
        };
        // Faster than the table loop, but not by enough: must trigger.
        assert_eq!(gate(0.9), 1);
        assert_eq!(gate(0.6), 0);
        // No `simd-avx512` rows (another host): the rule does not apply.
        if shipping != "simd-avx512" {
            let rows = [row("play_mix", "scalar", 1.0), row("play_mix", shipping, 1.0)];
            assert!(dispatch_regressions(&rows, DISPATCH_GATE_TOLERANCE).is_empty());
        }
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
        // The shipping table's row rides along at parity with scalar, so
        // only the resampler's own rule can fire.
        let shipping = af_dsp::kernels::active().name;
        let gate = |reference: f64, scalar: f64| {
            let rows = [
                row("reference", reference),
                row("scalar", scalar),
                row(shipping, scalar),
            ];
            dispatch_regressions(&rows, 1.0).len()
        };
        // The old loop's shape (0.85x of the reference): must trigger.
        assert_eq!(gate(14.0, 12.0), 1);
        assert_eq!(gate(14.0, 4.0), 0);
        // Missing scalar row: reported, not silently passed.
        assert_eq!(
            dispatch_regressions(&[row("reference", 14.0)], 1.0).len(),
            1
        );
    }
}
