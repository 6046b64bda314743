//! Property-based tests of the DSP substrate's invariants.

use af_dsp::convert::{decode_to_lin16_into, encode_from_lin16_into, Converter};
use af_dsp::{adpcm, g711, gain, mix, reference, Encoding};
use proptest::prelude::*;

/// The four native (stateless) encodings the batched kernels cover.
const NATIVE: [Encoding; 4] = [
    Encoding::Mu255,
    Encoding::Alaw,
    Encoding::Lin16,
    Encoding::Lin32,
];

fn sample_unit(encoding: Encoding) -> usize {
    match encoding {
        Encoding::Mu255 | Encoding::Alaw => 1,
        Encoding::Lin16 => 2,
        Encoding::Lin32 => 4,
        other => panic!("not a native encoding: {other}"),
    }
}

/// `data` copied `off` bytes into a fresh allocation, so `[off..]` sits at
/// that misalignment from the allocator's natural alignment.
fn slid(data: &[u8], off: usize) -> Vec<u8> {
    let mut store = vec![0u8; off];
    store.extend_from_slice(data);
    store
}

/// `pcm` encoded as `encoding` and decoded back.
fn round_trip(encoding: Encoding, pcm: &[i16]) -> Vec<i16> {
    let mut st = adpcm::AdpcmState::new();
    let (mut bytes, mut back) = (Vec::new(), Vec::new());
    encode_from_lin16_into(encoding, pcm, &mut st, &mut bytes).unwrap();
    decode_to_lin16_into(encoding, &bytes, &mut st, &mut back).unwrap();
    back
}

/// Miri interprets ~100× slower than the code runs; a handful of cases
/// still walks every production entry point over the scalar table.
const CASES: u32 = if cfg!(miri) { 8 } else { 256 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// G.711 encoders are total and decode within the quantization bound.
    #[test]
    fn ulaw_error_bounded(pcm in any::<i16>()) {
        let back = g711::ulaw_to_linear(g711::linear_to_ulaw(pcm));
        prop_assert!((i32::from(back) - i32::from(pcm)).abs() <= 650);
    }

    #[test]
    fn alaw_error_bounded(pcm in any::<i16>()) {
        let back = g711::alaw_to_linear(g711::linear_to_alaw(pcm));
        prop_assert!((i32::from(back) - i32::from(pcm)).abs() <= 1200);
    }

    /// Encoding preserves sign (companding is odd symmetric around zero).
    #[test]
    fn companding_preserves_sign(pcm in any::<i16>()) {
        let u = g711::ulaw_to_linear(g711::linear_to_ulaw(pcm));
        if pcm > 64 {
            prop_assert!(u >= 0);
        } else if pcm < -64 {
            prop_assert!(u <= 0);
        }
    }

    /// Companding is monotone: a louder sample never decodes quieter.
    #[test]
    fn ulaw_monotone(a in any::<i16>(), b in any::<i16>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let dlo = g711::ulaw_to_linear(g711::linear_to_ulaw(lo));
        let dhi = g711::ulaw_to_linear(g711::linear_to_ulaw(hi));
        prop_assert!(dlo <= dhi, "decode({lo})={dlo} > decode({hi})={dhi}");
    }

    /// Linear round trips are exact.
    #[test]
    fn lin16_round_trip(pcm in prop::collection::vec(any::<i16>(), 0..256)) {
        prop_assert_eq!(round_trip(Encoding::Lin16, &pcm), pcm);
    }

    #[test]
    fn lin32_round_trip(pcm in prop::collection::vec(any::<i16>(), 0..256)) {
        prop_assert_eq!(round_trip(Encoding::Lin32, &pcm), pcm);
    }

    /// Mixing is commutative and bounded (never wraps).
    #[test]
    fn lin16_mix_commutative_and_saturating(
        a in prop::collection::vec(any::<i16>(), 32),
        b in prop::collection::vec(any::<i16>(), 32),
    ) {
        let bytes = |v: &[i16]| -> Vec<u8> { v.iter().flat_map(|s| s.to_le_bytes()).collect() };
        let mut ab = bytes(&a);
        mix::mix_bytes(Encoding::Lin16, &mut ab, &bytes(&b));
        let mut ba = bytes(&b);
        mix::mix_bytes(Encoding::Lin16, &mut ba, &bytes(&a));
        prop_assert_eq!(&ab, &ba);
        for (i, m) in ab.chunks_exact(2).enumerate() {
            let exact = i32::from(a[i]) + i32::from(b[i]);
            let m = i16::from_le_bytes([m[0], m[1]]);
            prop_assert_eq!(i32::from(m), exact.clamp(-32_768, 32_767));
        }
    }

    /// The µ-law mix table agrees with mixing in the linear domain within
    /// quantization error.
    #[test]
    fn ulaw_mix_close_to_linear(a in any::<u8>(), b in any::<u8>()) {
        let mut d = vec![a];
        mix::mix_ulaw(&mut d, &[b]);
        let got = i32::from(g711::ulaw_to_linear(d[0]));
        let exact = (i32::from(g711::ulaw_to_linear(a))
            + i32::from(g711::ulaw_to_linear(b)))
        .clamp(-32_768, 32_767);
        prop_assert!((got - exact).abs() <= 1024, "a={a:#x} b={b:#x} got={got} exact={exact}");
    }

    /// ADPCM decode of arbitrary bytes never panics and yields the asked
    /// count; encode/decode state stays in range.
    #[test]
    fn adpcm_total(data in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut st = adpcm::AdpcmState::new();
        let out = adpcm::decode(&mut st, &data, data.len() * 2);
        prop_assert_eq!(out.len(), data.len() * 2);
        prop_assert!(st.step_index <= 88);
    }

    /// ADPCM round trip tracks slowly varying signals within a loose bound.
    #[test]
    fn adpcm_tracks_dc(level in -20_000i16..20_000) {
        let pcm = vec![level; 300];
        let mut enc = adpcm::AdpcmState::new();
        let encoded = adpcm::encode(&mut enc, &pcm);
        let mut dec = adpcm::AdpcmState::new();
        let decoded = adpcm::decode(&mut dec, &encoded, 300);
        let err = i32::from(decoded[299]) - i32::from(level);
        prop_assert!(err.abs() < 500, "settled to {} for {level}", decoded[299]);
    }

    /// Tone generation stays within the requested peak.
    #[test]
    fn tone_respects_peak(freq in 20.0f64..3900.0, peak in 0.01f32..1.0) {
        let mut buf = vec![0.0f32; 512];
        af_dsp::tone::single_tone(freq, 8000.0, peak, 0.0, &mut buf);
        for &s in &buf {
            prop_assert!(s.abs() <= peak * 1.0001);
        }
    }

    /// Power in dBm is monotone in amplitude scale.
    #[test]
    fn power_monotone(scale in 1i32..16) {
        let base: Vec<i16> = (0..800)
            .map(|i| ((std::f64::consts::TAU * 440.0 * i as f64 / 8000.0).sin() * 1000.0) as i16)
            .collect();
        let scaled: Vec<i16> = base.iter().map(|&s| s.saturating_mul(scale as i16)).collect();
        let p1 = af_dsp::power::power_dbm_lin16(&base);
        let p2 = af_dsp::power::power_dbm_lin16(&scaled);
        prop_assert!(p2 >= p1 - 0.01, "scale {scale}: {p1} -> {p2}");
    }

    /// The batched mixer is bit-exact with the seed scalar mixer on whole
    /// samples of every native encoding, and leaves trailing partial-sample
    /// bytes untouched (the seed panicked on them).
    #[test]
    fn batched_mix_matches_scalar_reference(
        enc_idx in 0usize..4,
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        src_extra in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let encoding = NATIVE[enc_idx];
        let unit = sample_unit(encoding);
        let whole = bytes.len() / unit * unit;

        let mut src = bytes.clone();
        src.reverse();
        src.extend(src_extra); // Odd/mismatched source length.

        let mut batched = bytes.clone();
        mix::mix_bytes(encoding, &mut batched, &src);

        let mut scalar = bytes[..whole].to_vec();
        reference::mix_bytes_scalar(encoding, &mut scalar, &src[..whole]);

        prop_assert_eq!(&batched[..whole], &scalar[..], "encoding {}", encoding);
        prop_assert_eq!(&batched[whole..], &bytes[whole..], "tail must survive");
    }

    /// The batched gain path (precomputed tables / one Q16 multiplier) is
    /// bit-exact with the seed's per-sample float path across the full
    /// −30…+30 dB range for all four native encodings, at any byte
    /// alignment (`off` slides the buffer off its allocation).
    #[test]
    fn batched_gain_matches_scalar_reference(
        enc_idx in 0usize..4,
        db in -30i32..=30,
        samples in prop::collection::vec(any::<u8>(), 0..300),
        off in 0usize..8,
    ) {
        let encoding = NATIVE[enc_idx];
        let unit = sample_unit(encoding);
        let whole = samples.len() / unit * unit;
        let data = &samples[..whole];

        let mut batched = slid(data, off);
        gain::apply_gain_bytes(encoding, &mut batched[off..], db);

        let mut scalar = data.to_vec();
        reference::apply_gain_bytes_scalar(encoding, &mut scalar, db);

        prop_assert_eq!(&batched[off..], &scalar[..], "encoding {} at {} dB", encoding, db);
    }

    /// The reusable converter is bit-exact with the seed's allocating
    /// decode-then-encode pipeline for every native encoding pair at any
    /// input alignment (`off` slides each block off its allocation), and
    /// its scratch reuse across calls never leaks one block into the next.
    #[test]
    fn converter_matches_scalar_reference(
        from_idx in 0usize..4,
        to_idx in 0usize..4,
        blocks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..4),
        off in 0usize..8,
    ) {
        let from = NATIVE[from_idx];
        let to = NATIVE[to_idx];
        prop_assume!(from != to); // Identity copies, reference re-quantizes.
        let unit = sample_unit(from);
        let mut conv = Converter::new(from, to).unwrap();
        let mut out = Vec::new();
        for block in &blocks {
            let data = &block[..block.len() / unit * unit];
            conv.convert_into(&slid(data, off)[off..], &mut out).unwrap();
            let pcm = reference::decode_to_lin16_scalar(from, data);
            let expect = reference::encode_from_lin16_scalar(to, &pcm);
            prop_assert_eq!(&out, &expect, "{} -> {}", from, to);
        }
    }

    /// The resampler produces the expected output count within one sample.
    #[test]
    fn resampler_count(from in 4000u32..48_000, to in 4000u32..48_000, n in 100usize..4000) {
        let input: Vec<i16> = (0..n).map(|i| (i as i16).wrapping_mul(31)).collect();
        let mut r = af_dsp::resample::Resampler::new(f64::from(from), f64::from(to));
        let out = r.process(&input);
        // The first-ever block spans n-1 input intervals (there is no
        // carried sample), so it yields ~(n-1)·ratio + 1 outputs.
        let ratio = f64::from(to) / f64::from(from);
        let expected = (n - 1) as f64 * ratio + 1.0;
        prop_assert!(
            (out.len() as f64 - expected).abs() <= 2.0,
            "expected ~{expected}, got {}", out.len()
        );
    }
}
