//! Sample-pipeline micro-kernels, cycle-accounted: one row per (kernel,
//! implementation, block size).
//!
//! * **convert_decode / mix / resample / play_mix** — the `af_dsp::kernels`
//!   vtable entries, once per distinct function among the tables the host
//!   can execute, labelled with the first table that has it (`scalar`,
//!   `simd-avx2`, `simd-avx512`, `simd-avx512fp16`) and driven through the
//!   function pointers directly, so the rows do not depend on which table
//!   `active()` picked;
//!   `resample` once more on its frozen reference loop (`reference`).
//!   `play_mix` is a LIN16 client at −6 dB on a µ-law device, in the 8 KB
//!   requests a play arrives in, into ring bytes uniform over all 256
//!   values and restored before each pass (inside the timed region, for
//!   every implementation alike): a ring left to saturate would keep the
//!   64 K mix table to two hot rows.
//! * **convert_encode** — the 16 K table loop behind
//!   `af_dsp::convert::encode_from_lin16_into` (`scalar`), LIN16 to µ-law.
//! * **gain** — `af_dsp::gain::apply_gain_bytes` on LIN16 at −6 dB
//!   (`kernel`): one Q16 multiplier per buffer swept over a sample slice.
//!
//! Property tests in `af-dsp` pin every implementation bit-exact against
//! [`af_dsp::reference`], so differences between rows are pure
//! implementation, not changed semantics.  [`dispatch_regressions`] turns
//! the rows into the same-run gates `report` and the release-only test
//! below enforce.

use af_dsp::adpcm::AdpcmState;
use af_dsp::kernels::Kernels;
use af_dsp::resample::ResampleState;
use af_dsp::tables::PlayMap;
use af_dsp::{convert, reference, Encoding};

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
    /// The first table with the timed function (`scalar`, `simd-avx2`, …)
    /// for vtable entries and `scalar` for the encode loop; `reference`
    /// for the resampler's frozen loop; `kernel` for `gain`, which has one
    /// implementation.
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

/// A vtable entry, as the address of the function a table holds there.
type Entry = fn(&Kernels) -> usize;

/// The vtable entry each per-implementation row kernel times.
const ENTRIES: [(&str, Entry); 4] = [
    ("convert_decode", |k| k.decode_ulaw as usize),
    ("mix", |k| k.mix_lin16_le as usize),
    ("play_mix", |k| k.play_mix as usize),
    ("resample", |k| k.resample_block as usize),
];

/// Each function the tables this host can execute hold in an entry, as
/// the first table that has it.
fn introducing(entry: Entry) -> Vec<&'static Kernels> {
    let tables = af_dsp::kernels::available();
    (0..tables.len())
        .filter(|&i| tables[..i].iter().all(|t| entry(t) != entry(tables[i])))
        .map(|i| tables[i])
        .collect()
}

/// The row label of the function `af_dsp::kernels::active()` calls for a
/// vtable row `kernel`; `None` for the rows outside the vtable.
fn shipping_path(kernel: &str) -> Option<&'static str> {
    let &(_, entry) = ENTRIES.iter().find(|(k, _)| *k == kernel)?;
    let shipped = entry(af_dsp::kernels::active());
    introducing(entry)
        .into_iter()
        .find(|k| entry(k) == shipped)
        .map(|k| k.name)
}

/// Measures each implementation of every vtable entry this host can
/// execute, the encode loop, the resampler's frozen reference loop, and
/// the LIN16 gain sweep, at both sizes.
pub fn run_kernels_v2(smoke: bool) -> Vec<KernelV2Measurement> {
    let mut results = Vec::new();
    let [decoders, mixers, players, resamplers] = ENTRIES.map(|(_, entry)| introducing(entry));
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
        let ulaw: Vec<u8> = (0..bytes).map(|i| (i % 255) as u8).collect();
        let mut pcm = vec![0i16; bytes];
        for k in &decoders {
            let m = throughput_cycles(bytes, iters, || {
                (k.decode_ulaw)(&ulaw, &mut pcm);
                std::hint::black_box(&pcm);
            });
            push("convert_decode", k.name, m);
        }

        let mut out = Vec::with_capacity(bytes);
        let m = throughput_cycles(bytes, iters, || {
            let mut st = AdpcmState::new();
            convert::encode_from_lin16_into(Encoding::Mu255, &pcm, &mut st, &mut out)
                .expect("LIN16 encodes to µ-law");
            std::hint::black_box(&out);
        });
        push("convert_encode", "scalar", m);

        let src = lin16_block(bytes);
        for k in &mixers {
            let mut ring = lin16_block(bytes);
            let m = throughput_cycles(bytes, iters, || {
                (k.mix_lin16_le)(&mut ring, &src);
                std::hint::black_box(&ring);
            });
            push("mix", k.name, m);
        }

        // The high byte of each sample of the block is uniform noise.
        let fresh: Vec<u8> = src.iter().skip(1).step_by(2).copied().collect();
        let mut ring = fresh.clone();
        for k in &players {
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
        let paths = resamplers
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
            af_dsp::gain::apply_gain_bytes(Encoding::Lin16, &mut buf, -6);
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

/// The FP16 table's gate, where the host lists `simd-avx512fp16`: its play
/// map, whose µ-law segment step is a half-precision conversion, must cost
/// at most this fraction of `simd-avx512`'s — the same loop with the
/// exponent permute — at every size.  It measures ~0.7.
pub const PLAY_MIX_FP16_GATE_RATIO: f64 = 0.8;

/// A same-run ratio: (kernel, base path, subject path, limit).
type Gate = (&'static str, &'static str, &'static str, f64);

/// The gates [`dispatch_regressions`] checks on `rows`.
fn gates(rows: &[KernelV2Measurement], tolerance: f64) -> Vec<Gate> {
    let mut gates: Vec<Gate> = ENTRIES
        .iter()
        .filter_map(|&(kernel, _)| {
            let shipped = shipping_path(kernel)?;
            (shipped != "scalar").then_some((kernel, "scalar", shipped, tolerance))
        })
        .collect();
    gates.push(("resample", "reference", "scalar", RESAMPLE_GATE_RATIO));
    let lists = |path| rows.iter().any(|r| r.path == path);
    if lists("simd-avx512") {
        gates.push(("play_mix", "scalar", "simd-avx512", PLAY_MIX_GATE_RATIO));
    }
    if lists("simd-avx512fp16") {
        let ratio = PLAY_MIX_FP16_GATE_RATIO;
        gates.push(("play_mix", "simd-avx512", "simd-avx512fp16", ratio));
    }
    gates
}

/// The dispatch invariant: what ships (`af_dsp::kernels::active`) must
/// never be slower than the scalar baseline on any entry point at any size
/// — checked where it calls a function of its own, the row
/// `shipping_path` names — the scalar table's resampler must hold
/// [`RESAMPLE_GATE_RATIO`] against its reference, `simd-avx512`'s
/// `play_mix`, where the rows have one, [`PLAY_MIX_GATE_RATIO`] against
/// scalar's, and `simd-avx512fp16`'s, where the rows have one,
/// [`PLAY_MIX_FP16_GATE_RATIO`] against `simd-avx512`'s.  Returns one
/// message per violated (kernel, size) pair, each starting
/// `kernel/bytes:`, empty when all hold.
pub fn dispatch_regressions(rows: &[KernelV2Measurement], tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for (kernel, base_path, subject_path, limit) in gates(rows, tolerance) {
        let bases = rows
            .iter()
            .filter(|r| r.path == base_path && r.kernel == kernel);
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

    /// A 4 KB row of `kernel` on `path` at `cpb` cycles/byte.
    fn measured(kernel: &'static str, path: &'static str, cpb: f64) -> KernelV2Measurement {
        KernelV2Measurement {
            kernel,
            path,
            bytes: 4096,
            mb_s: 1.0,
            cycles_per_byte: cpb,
        }
    }

    #[test]
    fn kernels_v2_cover_every_path_with_positive_metrics() {
        let rows = run_kernels_v2(true);
        // (each implementation of the four vtable entries + encode +
        // resample reference + gain) x 2 sizes.
        let implementations: usize = ENTRIES
            .iter()
            .map(|&(_, entry)| introducing(entry).len())
            .sum();
        assert_eq!(rows.len(), (implementations + 3) * 2);
        for m in &rows {
            let what = format!("{}/{}/{}", m.kernel, m.path, m.bytes);
            assert!(m.mb_s > 0.0 && m.cycles_per_byte > 0.0, "{what}");
        }
        for (kernel, _) in ENTRIES {
            let shipped = shipping_path(kernel);
            let ships = |r: &KernelV2Measurement| r.kernel == kernel && Some(r.path) == shipped;
            assert!(rows.iter().any(ships), "no {kernel} row for what ships");
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
        // The subject is the row of the function that ships — on an
        // AVX-512 host the `simd-avx2` loop the AVX-512 table inherited.
        let Some(shipping) = shipping_path("mix").filter(|&p| p != "scalar") else {
            return; // No SIMD mix here: the subject is the base itself.
        };
        let row = |path, cpb| measured("mix", path, cpb);
        // Shipping function 6x slower than scalar: must trigger.
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
        let row = |path, cpb| measured("play_mix", path, cpb);
        // Whichever AVX-512 table ships, the shipping gate passes at both
        // values, and the FP16 row holds its own rule, so only this rule
        // can fire.
        let gate = |avx512: f64| {
            let rows = [
                row("scalar", 1.0),
                row("simd-avx512", avx512),
                row("simd-avx512fp16", avx512 / 2.0),
            ];
            dispatch_regressions(&rows, DISPATCH_GATE_TOLERANCE).len()
        };
        // Faster than the table loop, but not by enough: must trigger.
        assert_eq!(gate(0.9), 1);
        assert_eq!(gate(0.6), 0);
        // No `simd-avx512` rows (another host): the rule does not apply.
        if shipping_path("play_mix") == Some("scalar") {
            let rows = [row("scalar", 1.0)];
            assert!(dispatch_regressions(&rows, DISPATCH_GATE_TOLERANCE).is_empty());
        }
    }

    #[test]
    fn fp16_play_mix_gate_wants_four_fifths_of_the_avx512_loop() {
        let row = |path, cpb| measured("play_mix", path, cpb);
        // Both AVX-512 rows beat the table loop by far, so the shipping
        // gate and the `simd-avx512` rule pass and only this rule can fire.
        let gate = |fp16: f64| {
            let rows = [
                row("scalar", 1.0),
                row("simd-avx512", 0.5),
                row("simd-avx512fp16", fp16),
            ];
            dispatch_regressions(&rows, DISPATCH_GATE_TOLERANCE)
        };
        // Faster than the permute, but not by enough: must trigger.
        let slow = gate(0.45);
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("simd-avx512fp16"), "{}", slow[0]);
        assert!(gate(0.35).is_empty());
    }

    #[test]
    fn fp16_play_mix_gate_applies_only_where_the_rows_list_the_table() {
        let row = |path| measured("play_mix", path, 1.0);
        let fp16_rule = |rows: &[KernelV2Measurement]| {
            gates(rows, DISPATCH_GATE_TOLERANCE)
                .iter()
                .filter(|g| (g.1, g.2) == ("simd-avx512", "simd-avx512fp16"))
                .count()
        };
        // A host with VBMI but no FP16 lists `simd-avx512` alone.
        assert_eq!(fp16_rule(&[row("scalar"), row("simd-avx512")]), 0);
        let rows = [row("scalar"), row("simd-avx512"), row("simd-avx512fp16")];
        assert_eq!(fp16_rule(&rows), 1);
    }

    #[test]
    fn resample_gate_wants_half_the_reference_cost() {
        let row = |path, cpb| measured("resample", path, cpb);
        // The shipping row rides along at parity with scalar, so only the
        // resampler's own rule can fire.
        let shipping = shipping_path("resample").expect("a vtable entry");
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
