//! Sample-rate conversion.
//!
//! The paper's conversion-module design envisioned handling "sample rate
//! conversion as well, but the design for resampling is not complete"
//! (§2.2).  We complete it with a linear-interpolation resampler — adequate
//! for the telephone-quality material the paper's applications move between
//! 8 kHz devices, and usable by `apass`-style clients to absorb clock drift.
//!
//! [`resample_block`] calls the active kernel table's entry
//! (`kernels::Kernels::resample_block`).  Every table's entry is one
//! driver, `drive` — guard, head, the position chain, tail, rebase —
//! around an interior that turns a run of positions into output: the
//! portable loop of this file for the scalar table (and so under Miri and
//! on every host without AVX2), `core::arch` code in `kernels::x86` for
//! AVX2 and AVX-512.  Each is bit-exact with the frozen seed loop
//! `reference::resample_block_scalar` by construction rather than by
//! tolerance (DESIGN.md §8.2): every position is the reference's
//! sequential `pos += step`, computed as an integer progression of bit
//! patterns where `progression` proves the two equal and by the add
//! itself elsewhere.  The portable and AVX2 interiors perform every other
//! floating-point operation of the reference on the same operands in the
//! same order, and replace only the two library calls — `floor` and
//! `round`, software routines on baseline x86-64 — by exact arithmetic;
//! the AVX-512 one computes in exact integers, proves its result equal
//! outside a window around each half-integer, and takes `one` inside.

use crate::{kernels, reference};

/// Streaming resampler state, advanced by [`resample_block`].
#[derive(Clone, Debug)]
pub struct ResampleState {
    /// Input samples consumed per output sample.
    pub step: f64,
    /// Position of the next output sample, relative to `prev`.
    pub pos: f64,
    /// Last input sample of the previous block; `None` until data arrives.
    pub prev: Option<i16>,
}

/// A streaming linear-interpolation resampler for mono 16-bit audio.
///
/// Maintains fractional position across blocks so a continuous stream can be
/// resampled incrementally without seams.
#[derive(Clone, Debug)]
pub struct Resampler {
    state: ResampleState,
}

/// The smallest step a [`Resampler`] takes: 2⁻²², the ulp of `[2³⁰, 2³¹)`,
/// so `pos += step` advances every position up to 2³⁰, the last one a
/// block of under 2³⁰ samples reaches.  A smaller step can stall `pos`
/// below it (`pos + step` rounds back to `pos`), and the block never ends.
const MIN_STEP: f64 = 1.0 / (1u32 << 22) as f64;

/// Input samples per output sample for a rate pair.
fn step_for(from_rate: f64, to_rate: f64) -> f64 {
    assert!(
        from_rate.is_finite() && to_rate.is_finite() && from_rate > 0.0 && to_rate > 0.0,
        "rates must be positive and finite"
    );
    let step = from_rate / to_rate;
    assert!(step >= MIN_STEP, "rate ratio {step:e} below 2^-22");
    step
}

impl Resampler {
    /// Creates a resampler from `from_rate` Hz to `to_rate` Hz.
    ///
    /// # Panics
    ///
    /// Panics unless both rates are positive and finite and `from_rate /
    /// to_rate` is at least 2⁻²² (smaller steps can stall the position).
    pub fn new(from_rate: f64, to_rate: f64) -> Resampler {
        Resampler {
            state: ResampleState {
                step: step_for(from_rate, to_rate),
                pos: 0.0,
                prev: None,
            },
        }
    }

    /// Retunes a running stream: later output is produced at the new ratio,
    /// while the fractional position and the carried boundary sample stay,
    /// so a block boundary where the ratio changes has no seam.
    ///
    /// # Panics
    ///
    /// Panics unless both rates are positive and finite and `from_rate /
    /// to_rate` is at least 2⁻²² (smaller steps can stall the position).
    pub fn set_rates(&mut self, from_rate: f64, to_rate: f64) {
        self.state.step = step_for(from_rate, to_rate);
    }

    /// The conversion ratio (output samples per input sample).
    pub fn ratio(&self) -> f64 {
        1.0 / self.state.step
    }

    /// Resamples one block, returning the output samples.
    pub fn process(&mut self, input: &[i16]) -> Vec<i16> {
        let mut out = Vec::new();
        self.process_into(input, &mut out);
        out
    }

    /// Resamples one block, appending the output samples to `out`.
    pub fn process_into(&mut self, input: &[i16], out: &mut Vec<i16>) {
        resample_block(&mut self.state, input, out);
    }
}

/// The longest [`Run`] the portable and AVX2 interiors take: eight AVX2
/// vectors of positions, and 64 bytes of output.
pub(crate) const BLOCK: usize = 32;

/// 1.5 × 2⁵²: in `[2⁵², 2⁵³)` doubles are the integers, so adding it rounds
/// `x` to the nearest integer in the one IEEE rounding of the addition.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// The integer nearest `x` (ties to even) as a double and as an `i32`.
/// Exact for `|x| < 2³¹`: the sum's low mantissa bits are that integer in
/// two's complement, and subtracting the constant back is exact.
#[inline(always)]
fn nearest(x: f64) -> (f64, i32) {
    let y = x + ROUND_MAGIC;
    (y - ROUND_MAGIC, y.to_bits() as u32 as i32)
}

/// `x.floor()` for `0 ≤ x < 2³¹`, with its integer value.
#[inline(always)]
fn floor_exact(x: f64) -> (f64, i32) {
    let (r, ri) = nearest(x);
    let over = r > x;
    (r - if over { 1.0 } else { 0.0 }, ri - i32::from(over))
}

/// `v.round().clamp(-32768, 32767) as i16` for `|v| < 2³¹`.
///
/// `f64::round` rounds half away from zero and [`nearest`] half to even, so
/// the two differ only on exact ties, which `d` detects without error:
/// `v - r` is exact because `r` is within 0.5 of `v`.  On a tie the even
/// neighbour was chosen; step to the one farther from zero if that is the
/// other.  (`trunc(v + copysign(0.5, v))` is *not* equivalent:
/// 0.49999999999999994 + 0.5 rounds to 1.0.)
#[inline(always)]
fn round_exact(v: f64) -> i16 {
    let (r, ri) = nearest(v);
    let d = v - r;
    let away = i32::from((d == 0.5) & (v > 0.0)) - i32::from((d == -0.5) & (v < 0.0));
    (ri + away).clamp(-32_768, 32_767) as i16
}

/// One output: the reference's `a*(1-frac) + b*frac`, rounded.
#[inline(always)]
fn lerp(a: i16, b: i16, frac: f64) -> i16 {
    round_exact(f64::from(a) * (1.0 - frac) + f64::from(b) * frac)
}

/// Resamples one mono LIN16 block: appends this block's output to `out` and
/// advances `st`, both exactly as `reference::resample_block_scalar` does,
/// through the active kernel table's entry.
pub fn resample_block(st: &mut ResampleState, input: &[i16], out: &mut Vec<i16>) {
    (kernels::active().resample_block)(st, input, out);
}

/// The scalar table's entry: [`drive`] around [`interior`].
pub(crate) fn resample_block_portable(st: &mut ResampleState, input: &[i16], out: &mut Vec<i16>) {
    drive(st, input, out, BLOCK, interior);
}

/// `count` consecutive outputs whose positions have the bit patterns
/// `b0 + k·n`, `0 ≤ k < count`, all in one binade (see [`progression`]).
#[derive(Clone, Copy)]
pub(crate) struct Run {
    pub(crate) b0: u64,
    pub(crate) n: u64,
    pub(crate) count: usize,
}

/// The portable interior: a run in three passes over fixed arrays — exact
/// floor and fraction, tap gather, interpolate and round — all independent,
/// branch-free work a compiler can run two to four lanes wide on baseline
/// SSE2 or NEON.  The passes stop at `run.count`: a run cut short by a
/// binade's end costs its own outputs, not a whole block's.
#[inline(always)]
fn interior(run: Run, offset: usize, input: &[i16], out: &mut Vec<i16>) {
    let count = run.count.min(BLOCK);
    let mut frac = [0.0f64; BLOCK];
    let mut idx = [0i32; BLOCK];
    let mut taps = [0u32; BLOCK];
    let mut res = [0i16; BLOCK];
    let mut b = run.b0;
    for k in 0..count {
        let p = f64::from_bits(b);
        let (base, bi) = floor_exact(p);
        frac[k] = p - base;
        idx[k] = bi - offset as i32;
        b += run.n;
    }
    for k in 0..count {
        let i = idx[k] as usize;
        let (a, b) = (input[i], input[i + 1]);
        // Both taps in one word: adjacent loads the compiler merges.
        taps[k] = u32::from(a as u16) | u32::from(b as u16) << 16;
    }
    for k in 0..count {
        res[k] = lerp(taps[k] as i16, (taps[k] >> 16) as i16, frac[k]);
    }
    // A whole run's constant length copies inline; a slice calls `memcpy`.
    if count == BLOCK {
        out.extend_from_slice(&res);
    } else {
        out.extend_from_slice(&res[..count]);
    }
}

/// The output at virtual position `p`, whose taps both come from `input`.
#[inline(always)]
pub(crate) fn one(p: f64, offset: usize, input: &[i16]) -> i16 {
    let (base, bi) = floor_exact(p);
    let i = bi as usize - offset;
    lerp(input[i], input[i + 1], p - base)
}

/// Exponent and mantissa fields of an `f64`.
const EXPONENT: u64 = 0x7FF0_0000_0000_0000;
pub(crate) const MANTISSA: u64 = (1 << 52) - 1;

/// The bit pattern of `2^(E+1)` for `x` in `[2^E, 2^(E+1))`: one past the
/// last double of `x`'s binade.
#[inline(always)]
fn binade_end(x: f64) -> u64 {
    (x.to_bits() | MANTISSA) + 1
}

/// `Some(n)` when the position chain from `pos` (with `next = pos + step`)
/// is the progression of bit patterns `bits(pos) + k·n` for every position
/// up to the last one of `pos`'s binade; `None` where `next` must come
/// from the add itself.
///
/// *Lemma.*  Let `pos` be normal, in `[2^E, 2^(E+1))` with ulp `u`; every
/// double there is a multiple of `u`.  Write `step = m·u + r`, `0 ≤ r < u`,
/// and let `d` be the multiple of `u` nearest `step`: `m·u` if `r < u/2`,
/// `(m+1)·u` if `r > u/2`.  For any `x` of the binade with `x + d` still in
/// it, `x + step` lies within `u/2` of `x + d` and strictly inside that
/// grid, so it rounds to `x + d` — the same `d` for every `x`.  Positive
/// doubles of one binade are ordered and spaced like their bit patterns,
/// so `bits(x + d) = bits(x) + d/u`, and `n = bits(next) − bits(pos)` is
/// `d/u` when `next` is inside the binade.  The three exits:
///
/// * *crossing* — `next` at or past `2^(E+1)`: the grid there is `2u`;
/// * *tie* — `r = u/2`, where ties-to-even picks `m·u` or `(m+1)·u` by the
///   parity of `x`.  The test `|step − (next − pos)| = u/2` is exact:
///   `next − pos` is (Sterbenz, both in the binade), and so is `step` less
///   it (Sterbenz again, `|step − d| ≤ u/2 ≤ d/2`; `d = 0` is `n = 0`);
/// * *non-normal* — `pos` zero or subnormal, where the grid is not `u`.
///
/// `n = 0` (a step under half an ulp stalls `pos`) is refused too: the
/// reference never ends there, and neither does the scalar path.
#[inline(always)]
fn progression(pos: f64, next: f64, step: f64) -> Option<u64> {
    let (b0, b1) = (pos.to_bits(), next.to_bits());
    // `pos` is normal and ≥ 0: `u = 2^E · 2⁻⁵²` is exact even below 2⁻⁹⁷⁰.
    let u = f64::from_bits(b0 & EXPONENT) * f64::EPSILON;
    let tie = (step - (next - pos)).abs() * 2.0 == u;
    (pos.is_normal() && b0 < b1 && b1 < binade_end(pos) && !tie).then_some(b1 - b0)
}

/// Everything of a kernel table's `resample_block` but the runs of at most
/// `max_run` outputs, which `interior(run, offset, input, out)` turns into
/// output: it appends `run.count` samples to `out`, output `k`
/// interpolating `input[i]` and `input[i + 1]` for `i = floor(p) - offset`
/// at the position `p = f64::from_bits(run.b0 + k·run.n)`.  The driver
/// calls it only with `0 ≤ i` and `i + 1 < input.len()` for every `k <
/// run.count`, and with positions below 2³⁰.  It reserves one [`BLOCK`] more than the block's
/// outputs, so an interior that stores whole runs of `BLOCK` into spare
/// capacity never reallocates.
///
/// The chain's positions are the reference's `pos += step`, as runs within
/// a binade ([`progression`]) and by the add itself at crossings, ties and
/// non-normal positions.  Outputs interpolated from the carried sample (the
/// head) and those at a crossing or a tie take the interior's arithmetic
/// one at a time.
#[inline(always)]
pub(crate) fn drive(
    st: &mut ResampleState,
    input: &[i16],
    out: &mut Vec<i16>,
    max_run: usize,
    interior: impl Fn(Run, usize, &[i16], &mut Vec<i16>),
) {
    let Some(&last) = input.last() else {
        return;
    };
    // The exact floor wants 0 ≤ pos < 2³¹ (so a tap index fits its `i32`)
    // and a chain that only grows.  `Resampler` never leaves that range
    // short of a 2³⁰-sample block; anything else a caller builds gets the
    // reference's behaviour from the reference itself.
    if !(st.pos >= 0.0 && st.step > 0.0 && input.len() < 1 << 30) {
        return reference::resample_block_scalar(st, input, out);
    }
    let step = st.step;
    let mut pos = st.pos;
    // Virtual stream for this block: [prev?, input...].
    let offset = usize::from(st.prev.is_some());
    let last_index = (input.len() - 1 + offset) as f64;
    // The reference's estimate, and one run of slack.
    out.reserve((input.len() as f64 / step) as usize + 2 + BLOCK);

    // Head: base index 0 is the carried sample, and `frac == pos`.
    if let Some(prev) = st.prev {
        while pos < 1.0 && pos < last_index {
            out.push(lerp(prev, input[0], pos));
            pos += step;
        }
    }

    // Interior: both taps come from `input`.
    let end = last_index.to_bits();
    while pos < last_index {
        let next = pos + step;
        let Some(n) = progression(pos, next, step) else {
            out.push(one(pos, offset, input));
            pos = next;
            continue;
        };
        // The stretch up to the binade's end or the block's, whichever is
        // first (positions are non-negative, so bit patterns order like
        // values), in runs of at most `max_run`.
        let top = binade_end(pos);
        let stop = top.min(end);
        let mut b = pos.to_bits();
        let mut left = (stop - b).div_ceil(n) as usize;
        while left > 0 {
            let count = left.min(max_run);
            interior(Run { b0: b, n, count }, offset, input, out);
            b += count as u64 * n;
            left -= count;
        }
        // Inside the binade the progression holds; past it, one real add.
        pos = if b < top {
            f64::from_bits(b)
        } else {
            f64::from_bits(b - n) + step
        };
    }
    // Tail: positions that land exactly on the last virtual sample.
    while pos <= last_index {
        out.push(last);
        pos += step;
    }
    // Rebase so the next block's `prev` is `last`.
    st.pos = pos - last_index;
    st.prev = Some(last);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, freq: f64, rate: f64) -> Vec<i16> {
        (0..n)
            .map(|i| ((std::f64::consts::TAU * freq * i as f64 / rate).sin() * 10_000.0) as i16)
            .collect()
    }

    #[test]
    fn identity_ratio_preserves_samples() {
        let mut r = Resampler::new(8000.0, 8000.0);
        let input = sine(800, 440.0, 8000.0);
        let out = r.process(&input);
        // Same rate: every output sample equals an input sample.
        assert!((out.len() as i64 - input.len() as i64).abs() <= 1);
        for (a, b) in input.iter().zip(&out) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn upsample_doubles_count() {
        let mut r = Resampler::new(8000.0, 16_000.0);
        let out = r.process(&sine(800, 440.0, 8000.0));
        assert!((out.len() as i64 - 1600).abs() <= 2, "len={}", out.len());
    }

    #[test]
    fn downsample_halves_count() {
        let mut r = Resampler::new(16_000.0, 8000.0);
        let out = r.process(&sine(1600, 440.0, 16_000.0));
        assert!((out.len() as i64 - 800).abs() <= 2, "len={}", out.len());
    }

    #[test]
    fn streaming_matches_batch() {
        let input = sine(4000, 300.0, 8000.0);
        let mut batch = Resampler::new(8000.0, 11_025.0);
        let whole = batch.process(&input);

        let mut stream = Resampler::new(8000.0, 11_025.0);
        let mut pieces = Vec::new();
        for chunk in input.chunks(123) {
            pieces.extend(stream.process(chunk));
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn retuning_every_chunk_keeps_phase_and_boundary_sample() {
        // What `apass -resample` does between blocks.  At a constant ratio
        // the retune must be invisible; rebuilding the resampler instead
        // restarts `pos` and drops `prev`, a seam per chunk.
        let input = sine(4000, 300.0, 8000.0);
        let whole = Resampler::new(8000.0, 8000.8).process(&input);

        let mut stream = Resampler::new(8000.0, 8000.8);
        let mut pieces = Vec::new();
        for chunk in input.chunks(160) {
            stream.process_into(chunk, &mut pieces);
            stream.set_rates(8000.0, 8000.8);
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn set_rates_changes_the_ratio_from_the_next_output_on() {
        let mut r = Resampler::new(8000.0, 8000.0);
        let first = r.process(&sine(800, 440.0, 8000.0));
        r.set_rates(8000.0, 16_000.0);
        assert_eq!(r.ratio(), 2.0);
        let second = r.process(&sine(800, 440.0, 8000.0));
        assert!((first.len() as i64 - 800).abs() <= 1, "len={}", first.len());
        assert!(
            (second.len() as i64 - 1600).abs() <= 2,
            "len={}",
            second.len()
        );
    }

    #[test]
    #[should_panic(expected = "rates must be positive and finite")]
    fn an_infinite_rate_is_refused() {
        // 8000 / inf is a step of 0: `pos` never moves.
        Resampler::new(8000.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "below 2^-22")]
    fn a_step_too_small_to_advance_the_position_is_refused() {
        // 1e-18 is under half an ulp of any position past 2⁻¹¹.
        Resampler::new(1.0, 1e18);
    }

    #[test]
    #[should_panic(expected = "below 2^-22")]
    fn retuning_to_a_stalling_step_is_refused() {
        Resampler::new(8000.0, 8000.0).set_rates(1.0, 1e9);
    }

    #[test]
    fn the_smallest_step_advances_the_last_position_a_block_reaches() {
        // Every ulp below 2³⁰ is smaller still; half the bound stalls there.
        let top = f64::from(1u32 << 30);
        assert!(top + MIN_STEP > top);
        assert_eq!(top + MIN_STEP / 2.0, top);
        let slowest = Resampler::new(1.0, f64::from(1u32 << 22));
        assert_eq!(slowest.ratio(), 1.0 / MIN_STEP);
    }

    #[test]
    fn round_exact_is_f64_round_on_every_tie_and_near_tie() {
        // Every integer the interpolation can reach, nudged to each side of
        // the rounding boundary.  Where the integer is large the tiny
        // nudges collapse onto the tie itself, which is the case that
        // matters most.
        let nudges = [
            0.0,
            0.25,
            0.499_999_999_999_999_94,
            0.5,
            0.500_000_000_000_000_1,
            0.75,
        ];
        for k in -32_768i32..=32_768 {
            for nudge in nudges {
                for v in [f64::from(k) + nudge, f64::from(k) - nudge] {
                    let want = v.round().clamp(-32_768.0, 32_767.0) as i16;
                    assert_eq!(round_exact(v), want, "v = {v:e}");
                }
            }
        }
        assert_eq!(round_exact(-0.0), 0);
    }

    #[test]
    fn floor_exact_is_f64_floor_around_every_kind_of_position() {
        let mut xs = vec![0.0, 0.499_999_999_999_999_94, 0.5, 1.0 - f64::EPSILON / 2.0];
        for k in [1.0f64, 2.0, 3.0, 4095.0, 8191.0, 65_536.0, 1_073_741_823.0] {
            xs.extend([
                k.next_down(),
                k,
                k.next_up(),
                k + 0.5,
                k + 0.5f64.next_down(),
            ]);
        }
        for x in xs {
            let (f, i) = floor_exact(x);
            assert_eq!(f, x.floor(), "x = {x:e}");
            assert_eq!(f64::from(i), x.floor(), "x = {x:e}");
        }
    }

    #[test]
    fn preserves_tone_frequency() {
        // A 440 Hz tone resampled 8 kHz → 16 kHz still crosses zero 440
        // times per second.
        let mut r = Resampler::new(8000.0, 16_000.0);
        let out = r.process(&sine(8000, 440.0, 8000.0));
        let crossings = out.windows(2).filter(|w| w[0] < 0 && w[1] >= 0).count();
        assert!((438..=442).contains(&crossings), "got {crossings}");
    }

    #[test]
    fn small_drift_correction_ratio() {
        // The apass use case: 100 ppm clock difference.
        let mut r = Resampler::new(8000.0, 8000.8);
        let out = r.process(&sine(80_000, 440.0, 8000.0));
        let expected = 80_000.0 * 8000.8 / 8000.0;
        assert!(
            (out.len() as f64 - expected).abs() <= 2.0,
            "len={}",
            out.len()
        );
    }
}
