//! Differential property tests for the kernel vtables, resampler and play
//! map included.
//!
//! Every table this host can execute — scalar and, when detected, AVX2,
//! AVX-512 and AVX-512 FP16 — must be bit-exact against the frozen reference
//! (`af_dsp::reference` and the per-sample G.711 algorithms) on randomized
//! lengths, byte alignments, encodings, gains and chunkings, and so must
//! the encode and LIN32 mix loops outside the tables.  Table selection must
//! never be observable in output, only in throughput.  For each table's
//! `resample_block` that means the output *and* the carried state equal
//! the reference loop's bit for bit — the portable loop too, on a host
//! whose active table has an interior of its own: it is what Miri and
//! every host without AVX2 run.  `play_mix` is
//! checked on the whole cross product of client sample and device byte:
//! the table form meets each pair by construction, an adder has to be
//! shown to.

use af_dsp::adpcm::AdpcmState;
use af_dsp::resample::{ResampleState, Resampler};
use af_dsp::tables::PlayMap;
use af_dsp::{convert, g711, gain, kernels, mix, reference, Encoding};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Decode: every path equals the per-sample G.711 algorithm at every
    /// length — odd lengths exercise each path's scalar remainder loop.
    #[test]
    fn decode_paths_bit_exact(data in prop::collection::vec(any::<u8>(), 0..200)) {
        for k in kernels::available() {
            let mut out = vec![0i16; data.len()];
            (k.decode_ulaw)(&data, &mut out);
            for (b, v) in data.iter().zip(&out) {
                prop_assert_eq!(*v, g711::ulaw_to_linear(*b), "{} ulaw {:#04x}", k.name, b);
            }
            let mut out = vec![0i16; data.len()];
            (k.decode_alaw)(&data, &mut out);
            for (b, v) in data.iter().zip(&out) {
                prop_assert_eq!(*v, g711::alaw_to_linear(*b), "{} alaw {:#04x}", k.name, b);
            }
        }
    }

    /// Encode: the 16 K table loop equals the seed scalar encoder (which
    /// pins the compression-table quantization, not the raw algorithm).
    #[test]
    fn encode_paths_bit_exact(pcm in prop::collection::vec(any::<i16>(), 0..200)) {
        for enc in [Encoding::Mu255, Encoding::Alaw] {
            let want = reference::encode_from_lin16_scalar(enc, &pcm);
            let mut got = Vec::new();
            convert::encode_from_lin16_into(enc, &pcm, &mut AdpcmState::new(), &mut got).unwrap();
            prop_assert_eq!(&got, &want, "{}", enc);
        }
    }

    /// Mix: every path equals the seed scalar mixer on little-endian byte
    /// buffers at arbitrary misalignments (`off`/`off+1` slide the two
    /// buffers off the allocator's natural alignment independently) and
    /// mismatched lengths, leaving trailing partial-sample bytes untouched.
    #[test]
    fn mix_paths_bit_exact(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        src_bytes in prop::collection::vec(any::<u8>(), 0..300),
        off in 0usize..8,
        wide in any::<bool>(),
    ) {
        let (unit, enc) = if wide { (4, Encoding::Lin32) } else { (2, Encoding::Lin16) };
        let n = bytes.len().min(src_bytes.len()) / unit * unit;
        let mut dst_store = vec![0u8; off];
        dst_store.extend(&bytes);
        let mut src_store = vec![0u8; off + 1];
        src_store.extend(&src_bytes);

        let mut want = bytes.clone();
        reference::mix_bytes_scalar(enc, &mut want[..n], &src_bytes[..n]);

        if wide {
            let mut d = dst_store.clone();
            mix::mix_bytes(enc, &mut d[off..], &src_store[off + 1..]);
            prop_assert_eq!(&d[off..], &want[..], "{}", enc);
        } else {
            for k in kernels::available() {
                let mut d = dst_store.clone();
                (k.mix_lin16_le)(&mut d[off..], &src_store[off + 1..]);
                prop_assert_eq!(&d[off..], &want[..], "{} {}", k.name, enc);
            }
        }
    }

    /// Stereo view: mixing an interleaved L/R buffer equals mixing each
    /// channel separately through the same path.
    #[test]
    fn mix_stereo_interleaved_consistent(
        flat in prop::collection::vec(any::<i16>(), 0..256),
    ) {
        // Each frame is (dst L, dst R, src L, src R).
        let frames: Vec<&[i16]> = flat.chunks_exact(4).collect();
        let pack = |samples: Vec<i16>| -> Vec<u8> {
            samples.into_iter().flat_map(i16::to_le_bytes).collect()
        };
        let inter_dst = pack(frames.iter().flat_map(|f| [f[0], f[1]]).collect());
        let inter_src = pack(frames.iter().flat_map(|f| [f[2], f[3]]).collect());
        for k in kernels::available() {
            let mut mixed = inter_dst.clone();
            (k.mix_lin16_le)(&mut mixed, &inter_src);
            for ch in 0..2usize {
                let mut chan_dst = pack(frames.iter().map(|f| f[ch]).collect());
                let chan_src = pack(frames.iter().map(|f| f[2 + ch]).collect());
                (k.mix_lin16_le)(&mut chan_dst, &chan_src);
                for (i, c) in chan_dst.chunks_exact(2).enumerate() {
                    let j = 4 * i + 2 * ch;
                    prop_assert_eq!(
                        [mixed[j], mixed[j + 1]],
                        [c[0], c[1]],
                        "{} channel {} frame {}", k.name, ch, i
                    );
                }
            }
        }
    }

    /// Decode → Q16 gain (−30…+30 dB) → encode composes identically on
    /// every path: the linear staging a gained conversion goes through is
    /// path-invariant.
    #[test]
    fn gained_conversion_paths_bit_exact(
        data in prop::collection::vec(any::<u8>(), 0..160),
        db in -30i32..=30,
        to_alaw in any::<bool>(),
    ) {
        let factor = gain::q16_factor(f64::from(db));
        let enc = if to_alaw { Encoding::Alaw } else { Encoding::Mu255 };
        let mut want = reference::decode_to_lin16_scalar(Encoding::Mu255, &data);
        for s in &mut want {
            *s = gain::q16_gain_i16(*s, factor);
        }
        let want = reference::encode_from_lin16_scalar(enc, &want);
        for k in kernels::available() {
            let mut pcm = vec![0i16; data.len()];
            (k.decode_ulaw)(&data, &mut pcm);
            let mut lin: Vec<u8> = pcm.iter().flat_map(|s| s.to_le_bytes()).collect();
            gain::apply_gain_bytes(Encoding::Lin16, &mut lin, db);
            let mut got = Vec::new();
            convert::Converter::new(Encoding::Lin16, enc)
                .unwrap()
                .convert_into(&lin, &mut got)
                .unwrap();
            prop_assert_eq!(&got, &want, "{} {} dB -> {}", k.name, db, enc);
        }
    }
}

/// Feeds `chunks` through every table's `resample_block` and through the
/// reference from the same state: the output stream, the carried `pos` (by
/// bits) and the carried `prev` must agree after every chunk.
fn assert_resample_matches_from<'a>(
    start: &ResampleState,
    chunks: impl IntoIterator<Item = &'a [i16]>,
) {
    let chunks: Vec<&[i16]> = chunks.into_iter().collect();
    let step = start.step;
    for k in kernels::available() {
        let mut st = start.clone();
        let mut ref_st = start.clone();
        let mut got = Vec::new();
        let mut want = Vec::new();
        for (n, c) in chunks.iter().enumerate() {
            // Both append; only what this chunk added needs comparing.
            let done = want.len();
            (k.resample_block)(&mut st, c, &mut got);
            reference::resample_block_scalar(&mut ref_st, c, &mut want);
            assert_eq!(
                got[done..],
                want[done..],
                "{}: step {step}, chunk {n} of {} samples",
                k.name,
                c.len()
            );
            assert_eq!(
                st.pos.to_bits(),
                ref_st.pos.to_bits(),
                "{}: step {step}, chunk {n}: carried pos",
                k.name
            );
            assert_eq!(
                st.prev, ref_st.prev,
                "{}: step {step}, chunk {n}: carried prev",
                k.name
            );
        }
    }
}

/// [`assert_resample_matches_from`] a fresh stream.
fn assert_resample_matches<'a>(step: f64, chunks: impl IntoIterator<Item = &'a [i16]>) {
    let fresh = ResampleState {
        step,
        pos: 0.0,
        prev: None,
    };
    assert_resample_matches_from(&fresh, chunks);
}

/// Miri interprets the kernel ~100× slower than it runs; the same cases
/// then cover a few kernel blocks instead of thousands.
const LONG_BLOCK: usize = if cfg!(miri) { 150 } else { 16 * 1024 };
const RESAMPLE_CASES: u32 = if cfg!(miri) { 6 } else { 192 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(RESAMPLE_CASES))]

    /// Random rate pairs over short chunks: heads, tails and partial
    /// kernel blocks dominate.
    #[test]
    fn resample_matches_reference_on_random_ratios(
        from in 4000u32..48_000,
        to in 4000u32..48_000,
        chunks in prop::collection::vec(prop::collection::vec(any::<i16>(), 0..120), 1..5),
    ) {
        let step = f64::from(from) / f64::from(to);
        assert_resample_matches(step, chunks.iter().map(Vec::as_slice));
    }

    /// The `apass` controller's authority: ratios `1/(1 ± p·10⁻⁶)`,
    /// p ≤ 2000, where `pos` stays within a hair of an integer for
    /// thousands of outputs and the exact floor earns its name.
    #[test]
    fn resample_matches_reference_on_drift_ratios(
        ppm in 0u32..=2000,
        fast in any::<bool>(),
        lens in prop::collection::vec(0usize..LONG_BLOCK / 4, 1..6),
        data in prop::collection::vec(any::<i16>(), LONG_BLOCK..=LONG_BLOCK),
    ) {
        let drift = f64::from(ppm) * 1e-6;
        let step = 1.0 / if fast { 1.0 + drift } else { 1.0 - drift };
        let mut rest = &data[..];
        let chunks = lens.iter().map(|&n| {
            let (c, r) = rest.split_at(n.min(rest.len()));
            rest = r;
            c
        });
        assert_resample_matches(step, chunks.collect::<Vec<_>>());
    }
}

/// The rate pairs the device shapes produce, over blocks of up to 16 K
/// samples cut at lengths that are not multiples of the kernel's block,
/// on random data and on alternating full-scale taps.
#[test]
fn resample_matches_reference_on_device_rates_and_long_blocks() {
    let mut x = 0x9E37_79B9u32;
    let noise: Vec<i16> = (0..LONG_BLOCK)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 16) as i16
        })
        .collect();
    // Full-scale taps of alternating sign: every interpolated value
    // crosses the whole range, and ties land on both sides of zero.
    let extremes: Vec<i16> = (0..LONG_BLOCK)
        .map(|i| if i % 2 == 0 { i16::MIN } else { i16::MAX })
        .collect();
    let rates = [8000.0, 44_100.0, 48_000.0];
    for from in rates {
        for to in rates {
            for data in [&noise, &extremes] {
                // One whole block, then the same data in ragged pieces.
                assert_resample_matches(from / to, [&data[..]]);
                for piece in [1, 31, 33, 97, 1000] {
                    assert_resample_matches(from / to, data.chunks(piece.min(LONG_BLOCK - 1)));
                }
            }
        }
    }
}

/// Ties and near-ties through each table's rounding.  At `step = 0.5`
/// every other output is the mean of two neighbours: odd sums put it on
/// `k ± 0.5` exactly, on both sides of zero and, for the full-scale
/// alternating taps, at `-0.5` itself.  Hand-built positions then put the
/// *fraction* a hair to either side of one half — over taps `(0, 1)` that
/// is `v = 0.49999999999999994`, which `trunc(v + 0.5)` rounds the wrong
/// way.
#[test]
fn resample_rounds_ties_and_near_ties_like_the_reference() {
    let n = if cfg!(miri) { 80 } else { 2000 };
    // Neighbours with odd sums of either sign, small and large.
    let odd: Vec<i16> = (0..n)
        .map(|i| {
            let k = (i * 37 % 4001 - 2000) as i16;
            if i % 2 == 0 {
                2 * k
            } else {
                2 * k + 1
            }
        })
        .collect();
    let extremes: Vec<i16> = (0..n)
        .map(|i| if i % 2 == 0 { i16::MIN } else { i16::MAX })
        .collect();
    let unit: Vec<i16> = (0..n).map(|i| [0, 1, 0, -1][i as usize % 4]).collect();
    for data in [&odd, &extremes, &unit] {
        assert_resample_matches(0.5, [&data[..]]);
        assert_resample_matches(0.5, data.chunks(67));
        for pos in [
            0.499_999_999_999_999_94,
            0.5f64.next_down(),
            0.5,
            0.5f64.next_up(),
            1.5f64.next_down(),
            1.5f64.next_up(),
            2.5f64.next_down(),
            40.5f64.next_down(),
            40.5f64.next_up(),
        ] {
            for (step, prev) in [(1.0, None), (1.0, Some(-3)), (2.0, Some(32_767))] {
                let start = ResampleState { step, pos, prev };
                assert_resample_matches_from(&start, [&data[..]]);
                assert_resample_matches_from(&start, data.chunks(301));
            }
        }
    }
}

/// The exact-integer interior's tie window (`x86.rs`,
/// `resample_interior_avx512`): positions whose fraction puts the exact
/// interpolated value on a half-integer `h` or within `2⁻⁴⁰ … 2⁻¹⁴` of
/// it, over full-scale taps in either order and over `(0, 1)`, in the
/// binades `[2^E, 2^(E+1))` for `E` = 0, 12 and 21 (the interior's range
/// ends there) and 22 (past it, one output at a time).  Each start takes
/// three shapes: step ⅛ into the block's last tap pair (a gathered
/// vector), step ⅛ with taps to spare (two loads and a permute), and step
/// 1 (two loads in order).  A binade's grid rounds a nudge finer than it;
/// the reference judges every output either way.
#[test]
fn resample_matches_reference_inside_and_around_the_tie_window() {
    let binades: &[u32] = if cfg!(miri) {
        &[0, 12]
    } else {
        &[0, 12, 21, 22]
    };
    let mut data = vec![0i16; (1 << binades[binades.len() - 1]) + 24];
    let full = [-32_767.5, -1000.5, -0.5, 0.5, 12_345.5, 32_766.5];
    let taps: [(i16, i16, &[f64]); 4] = [
        (i16::MIN, i16::MAX, &full),
        (i16::MAX, i16::MIN, &full),
        (0, 1, &[0.5]),
        (1, 0, &[0.5]),
    ];
    let nudges = [-40, -30, -17, -15, -14].map(|k| 2f64.powi(k));
    for &e in binades {
        let base = 1usize << e;
        for (a, b, halves) in taps {
            data[base] = a;
            data[base + 1] = b;
            let span = f64::from(b) - f64::from(a);
            for &h in halves {
                for nudge in nudges.into_iter().flat_map(|d| [d, -d]).chain([0.0]) {
                    // `f = (h + nudge − a) / (b − a)`, the nudge kept apart
                    // so that it survives next to `h − a`.
                    let frac = (h - f64::from(a)) / span + nudge / span;
                    let pos = base as f64 + frac;
                    for (step, len) in [(0.125, base + 2), (0.125, base + 24), (1.0, base + 24)] {
                        let start = ResampleState {
                            step,
                            pos,
                            prev: None,
                        };
                        assert_resample_matches_from(&start, [&data[..len]]);
                    }
                }
            }
        }
        data[base] = 0;
        data[base + 1] = 0;
    }
}

/// Tap bounds.  Lengths are swept so that whole kernel blocks run and, for
/// some length, a block's last output interpolates from `input[len - 2]`
/// and `input[len - 1]` — the last tap a block may touch — and for the
/// next shorter one that output falls to the partial block instead; with
/// and without a carried sample, which shifts every index by one.
#[test]
fn resample_blocks_touch_the_last_sample_and_nothing_past_it() {
    let data: Vec<i16> = (0..1100)
        .map(|i| (i * 7919 % 65_536 - 32_768) as i16)
        .collect();
    let steps: &[f64] = if cfg!(miri) {
        &[1.999, 31.9]
    } else {
        &[1.0, 1.999, 3.7, 31.9]
    };
    for &step in steps {
        // One block of 32 outputs spans 31 steps of input; up to three.
        let one = (31.0 * step) as usize;
        let sweep = if cfg!(miri) { 3 } else { 40 };
        for blocks in 1..=3usize {
            if blocks * one + sweep >= data.len() {
                continue;
            }
            for len in blocks * one..blocks * one + sweep {
                assert_resample_matches(step, [&data[..len]]);
                // The first chunk leaves a carried `prev` and a fractional `pos`.
                assert_resample_matches(step, [&data[..5], &data[5..5 + len]]);
            }
        }
    }
}

/// `len` samples of deterministic noise.
fn noise(len: usize) -> Vec<i16> {
    let mut x = 0x6C07_8965u32;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 16) as i16
        })
        .collect()
}

/// The positions' progression (`resample.rs`, `progression`) holds within
/// a binade only off a tie: where `step` sits exactly half an ulp of `pos`
/// off the grid, `pos + step` rounds to even and the spacing alternates.
/// `1 ± 2⁻ᵏ` and `1 + 3·2⁻ᵏ` are such ties in the binade `[2^(53−k),
/// 2^(54−k))`, where the ulp is `2^(1−k)`; each stream runs through that
/// binade (up to 64 K samples), once whole and once behind a carried
/// sample.
#[test]
fn resample_matches_reference_where_the_step_is_a_tie() {
    let ks = if cfg!(miri) { 50..=51 } else { 38..=51 };
    for k in ks {
        let tiny = 2f64.powi(-k);
        let data = noise((2usize << (53 - k)).min(64 * 1024));
        for step in [1.0 + tiny, 1.0 - tiny, 1.0 + 3.0 * tiny] {
            assert_resample_matches(step, [&data[..]]);
            assert_resample_matches(step, [&data[..3], &data[3..]]);
        }
    }
}

/// Streams that start one ulp below each power of two they reach, so
/// the first run ends after one position and the chain crosses into the
/// next binade at once; with and without a carried sample.
#[test]
fn resample_matches_reference_from_one_ulp_below_every_binade() {
    let data = noise(if cfg!(miri) { 40 } else { 5000 });
    let top = (data.len() as f64).log2() as i32;
    for e in -8..=top {
        let pos = 2f64.powi(e).next_down();
        for step in [1.0, 8000.0 / 11_025.0, 1.0 + 2f64.powi(-45), 3.7] {
            for prev in [None, Some(-5)] {
                let start = ResampleState { step, pos, prev };
                assert_resample_matches_from(&start, [&data[..]]);
            }
        }
    }
}

/// Positions off the binade grid: zero and subnormals, where the chain
/// takes the add itself.
#[test]
fn resample_matches_reference_from_zero_and_subnormal_positions() {
    let data = noise(if cfg!(miri) { 40 } else { 3000 });
    let normal = f64::MIN_POSITIVE;
    for pos in [0.0, f64::from_bits(1), normal.next_down(), normal] {
        for step in [0.5, 1.0, 8000.0 / 11_025.0] {
            for prev in [None, Some(9)] {
                let start = ResampleState { step, pos, prev };
                assert_resample_matches_from(&start, [&data[..]]);
            }
        }
    }
}

/// Steps below, near and above two, with and without a carried sample:
/// runs that advance by half a sample, by nearly two, and past three, so
/// that tap indices repeat and skip.
#[test]
fn resample_matches_reference_on_short_and_long_steps() {
    let data = noise(if cfg!(miri) { 120 } else { 10_000 });
    for step in [0.5, 1.999, 3.7] {
        assert_resample_matches(step, [&data[..]]);
        assert_resample_matches(step, data.chunks(777));
        let carried = ResampleState {
            step,
            pos: 0.25,
            prev: Some(1234),
        };
        assert_resample_matches_from(&carried, [&data[..]]);
    }
}

/// States the blocked loop's exact floor does not cover — a negative
/// position, a step that goes backwards — get the reference's behaviour
/// from every table, state included.
#[test]
fn resample_state_outside_the_kernel_range_takes_the_reference() {
    let data: Vec<i16> = (0..100).map(|i| (i * 331 % 2000 - 1000) as i16).collect();
    for (step, pos) in [(0.75, -0.5), (0.75, -40.25), (1.0, -0.0)] {
        let start = ResampleState {
            step,
            pos,
            prev: Some(7),
        };
        assert_resample_matches_from(&start, [&data[..]]);
    }
    // A negative or NaN step never passes `last_index`: the reference
    // loops forever from a position inside the block, so these start past
    // its end, where every table must also emit nothing and rebase `pos`
    // the same way.
    for step in [-1.0, f64::NAN] {
        let start = ResampleState {
            step,
            pos: 1000.0,
            prev: Some(7),
        };
        assert_resample_matches_from(&start, [&data[..]]);
    }
}

/// `Resampler::process_into` reserves what a block needs once: a reused
/// output vector keeps the capacity the first 8 K block gave it.
#[test]
fn resampler_reusing_its_output_does_not_regrow_it() {
    let n = if cfg!(miri) { 256 } else { 8192 };
    let input: Vec<i16> = (0..n).map(|i| (i * 31 % 2000) as i16).collect();
    let mut r = Resampler::new(8000.0, 8000.0 * (1.0 + 57e-6));
    let mut out = Vec::new();
    r.process_into(&input, &mut out);
    let capacity = out.capacity();
    for _ in 0..20 {
        out.clear();
        r.process_into(&input, &mut out);
        assert_eq!(out.capacity(), capacity);
    }
}

/// Decode tails and alignment: every table's `decode_ulaw` at every length
/// 0..=130 — none, part and all of a 64-code vector body, then a tail —
/// from every start offset in a 64-byte aligned block, the codes rotated
/// per case so that each of the 256 reaches the vector body and the tail.
#[test]
fn decode_ulaw_covers_every_code_length_and_offset() {
    #[repr(C, align(64))]
    struct Aligned([u8; 64 + 130]);
    let mut block = Aligned([0; 64 + 130]);
    let mut out = [0i16; 130];
    let lengths = (0..=130).filter(|n| !cfg!(miri) || n % 43 < 2);
    for len in lengths {
        for offset in 0..64 {
            let first = (len * 3 + offset * 5) as u8;
            for (i, c) in block.0[offset..offset + len].iter_mut().enumerate() {
                *c = first.wrapping_add(i as u8);
            }
            let codes = &block.0[offset..offset + len];
            for k in kernels::available() {
                (k.decode_ulaw)(codes, &mut out[..len]);
                for (i, (&c, &v)) in codes.iter().zip(&out).enumerate() {
                    assert_eq!(
                        v,
                        g711::ulaw_to_linear(c),
                        "{}: code {c:#04x} at {i} of {len} from offset {offset}",
                        k.name
                    );
                }
            }
        }
    }
}

/// What CI's log shows a green run tested, and which features a table it
/// did not test lacked: run with `-- --nocapture`.
#[test]
fn tables_on_this_host() {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as detected;
        // What the SIMD tables need, in the order they add it.
        let features = [
            ("avx2", detected!("avx2")),
            ("avx512f", detected!("avx512f")),
            ("avx512bw", detected!("avx512bw")),
            ("avx512vbmi", detected!("avx512vbmi")),
            ("avx512fp16", detected!("avx512fp16")),
        ];
        for (feature, on) in features {
            let seen = if on { "detected" } else { "not detected" };
            println!("{feature}: {seen}");
        }
    }
    let names: Vec<_> = kernels::available().iter().map(|k| k.name).collect();
    println!(
        "kernel tables on this host: {}; active: {}",
        names.join(", "),
        kernels::active().name
    );
    assert_eq!(names[0], "scalar");
    assert!(names.contains(&kernels::active().name));
}

/// The bytes a play stages without a map: converted to the device's
/// encoding, then gained — the frozen reference for both steps.
fn staged_play(client: Encoding, device: Encoding, src: &[u8], db: i32) -> Vec<u8> {
    let mut staged = if client == device {
        src.to_vec()
    } else {
        let pcm = reference::decode_to_lin16_scalar(client, src);
        reference::encode_from_lin16_scalar(device, &pcm)
    };
    reference::apply_gain_bytes_scalar(device, &mut staged, db);
    staged
}

/// Every table's `play_mix` of `src` into a copy of `ring` against the
/// reference mix of the staged bytes.
fn assert_play_mix_matches(
    map: &PlayMap,
    device: Encoding,
    staged: &[u8],
    ring: &[u8],
    src: &[u8],
    what: &str,
) {
    let mut want = ring.to_vec();
    reference::mix_bytes_scalar(device, &mut want, staged);
    for k in kernels::available() {
        let mut got = ring.to_vec();
        (k.play_mix)(map, &mut got, src);
        if got != want {
            let i = got.iter().zip(&want).position(|(g, w)| g != w).unwrap();
            panic!(
                "{}: {what}: sample {i} into ring byte {:#04x} gives {:#04x}, reference {:#04x}",
                k.name, ring[i], got[i], want[i]
            );
        }
    }
}

const PLAY_GAINS: [i32; 5] = [-40, -6, 0, 3, 40];

/// Every client sample × every device byte, at each gain, on both
/// companded devices: all 65,536 LIN16 samples and all 256 codes of either
/// companded client against all 256 ring bytes.  An unoptimized build
/// (40× slower here) shows the LIN16 samples every eighth ring byte and the
/// four edge ones — CI runs this file with `--release` as well — and Miri
/// strides samples and ring bytes both, the rails and the zeros kept.
#[test]
fn play_mix_is_the_reference_on_every_sample_against_every_ring_byte() {
    let lin16: Vec<u8> = (i16::MIN..=i16::MAX)
        .filter(|s| !cfg!(miri) || s % 1021 == 0 || s.unsigned_abs() > 32_765)
        .flat_map(i16::to_le_bytes)
        .collect();
    let codes: Vec<u8> = (0..=255).collect();
    for device in [Encoding::Mu255, Encoding::Alaw] {
        for client in [Encoding::Lin16, Encoding::Mu255, Encoding::Alaw] {
            let src = if client == Encoding::Lin16 {
                &lin16
            } else {
                &codes
            };
            for db in PLAY_GAINS {
                let Some(map) = PlayMap::new(client, device, db) else {
                    assert_eq!((client, db), (device, 0), "only an identity has no map");
                    continue;
                };
                let staged = staged_play(client, device, src, db);
                let stride = match (cfg!(miri), cfg!(debug_assertions), client) {
                    (true, ..) => 51,
                    (false, true, Encoding::Lin16) => 8,
                    _ => 1,
                };
                let ring_bytes =
                    (0..=255u8).filter(|r| r % stride == 0 || [0x7F, 0x80, 0xFF].contains(r));
                for r in ring_bytes {
                    let ring = vec![r; staged.len()];
                    let what = format!("{client} on {device} at {db} dB");
                    assert_play_mix_matches(&map, device, &staged, &ring, src, &what);
                }
            }
        }
    }
}

/// Tails and alignment: every length 0..=200 with both buffers slid 0..=3
/// bytes off the allocator's alignment; bytes either side of `dst` stay.
#[test]
fn play_mix_handles_every_length_and_alignment() {
    let mut x = 0x2545_F491u32;
    let mut noise = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect()
    };
    let lengths = (0..=200).filter(|n| !cfg!(miri) || n % 67 < 2);
    for len in lengths {
        for client in [Encoding::Lin16, Encoding::Alaw] {
            let width = client.bytes_for_samples(1);
            let map = PlayMap::new(client, Encoding::Mu255, -6).unwrap();
            for (dst_off, src_off) in (0..4).flat_map(|d| (0..4).map(move |s| (d, s))) {
                let src_store = noise(src_off + len * width);
                let src = &src_store[src_off..];
                // Three guard bytes after the ring as well as `dst_off` before.
                let ring_store = noise(dst_off + len + 3);
                let staged = staged_play(client, Encoding::Mu255, src, -6);
                let mut want = ring_store.clone();
                reference::mix_bytes_scalar(
                    Encoding::Mu255,
                    &mut want[dst_off..dst_off + len],
                    &staged,
                );
                for k in kernels::available() {
                    let mut got = ring_store.clone();
                    (k.play_mix)(&map, &mut got[dst_off..dst_off + len], src);
                    assert_eq!(
                        got, want,
                        "{}: {client}, {len} samples, dst+{dst_off}, src+{src_off}",
                        k.name
                    );
                }
            }
        }
    }
}

/// The cases an arithmetic form can get wrong and a table cannot, by name:
/// `i16::MIN` (whose magnitude is not an `i16`), both µ-law zeros on either
/// side, the low two bits the 16 K index drops from a negative sample, and
/// saturation at both rails — each in a block long enough for an interior.
#[test]
fn play_mix_edges_by_name() {
    let unity = PlayMap::new(Encoding::Lin16, Encoding::Mu255, 0).unwrap();
    let loud = PlayMap::new(Encoding::Lin16, Encoding::Mu255, 40).unwrap();
    let ulaw_soft = PlayMap::new(Encoding::Mu255, Encoding::Mu255, -6).unwrap();
    let lin16 = |s: i16| s.to_le_bytes().repeat(64);
    // (map, client bytes, ring byte, mixed byte)
    let cases: [(&PlayMap, Vec<u8>, u8, u8); 10] = [
        // -32768 clips to -32635, code 0x00; into silence it stays.
        (&unity, lin16(i16::MIN), 0xFF, 0x00),
        // ... and into the loudest negative byte the sum saturates.
        (&unity, lin16(i16::MIN), 0x00, 0x00),
        (&unity, lin16(i16::MAX), 0x80, 0x80),
        // Opposite rails cancel: 32124 - 32124.
        (&unity, lin16(i16::MAX), 0x00, 0xFF),
        // Zero into negative zero is positive zero.
        (&unity, lin16(0), 0x7F, 0xFF),
        // -1 indexes the 16 K table as -4, whose code 0x7E is -8.
        (&unity, lin16(-1), 0xFF, 0x7E),
        (&unity, lin16(3), 0xFF, 0xFF),
        // +40 dB takes 400 to the positive rail.
        (&loud, lin16(400), 0xFF, 0x80),
        (&loud, lin16(-400), 0xFF, 0x00),
        // Either zero as a client code is silence under a gain.
        (&ulaw_soft, [0x7F, 0xFF].repeat(32), 0x7F, 0xFF),
    ];
    for (n, (map, src, ring_byte, mixed)) in cases.into_iter().enumerate() {
        for k in kernels::available() {
            let mut ring = vec![ring_byte; 64];
            (k.play_mix)(map, &mut ring, &src);
            assert_eq!(ring, vec![mixed; 64], "{}: case {n}", k.name);
        }
    }
}
