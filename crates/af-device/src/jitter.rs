//! Adaptive jitter buffer for the LineServer record path.
//!
//! Over a clean LAN the Als backend can fetch recorded samples
//! request/reply and hand them straight to the mixer.  Over a lossy,
//! jittery WAN the replies arrive late, early, out of order, or not at
//! all; this buffer sits between the link and the mixer and turns that
//! mess back into a continuous sample stream by *playing out behind
//! real time*:
//!
//! * Recorded samples are inserted at their device-time position as they
//!   arrive (in any order, including FEC-recovered ones).
//! * Reads for device time `t` are served from recorded time
//!   `t − depth`, where `depth` is the current playout delay in ticks —
//!   the whole recorded timeline is shifted by `depth`, trading latency
//!   for completeness.
//! * `depth` adapts: the mean transit plus a jitter margin, which an
//!   RFC 3550-style EWMA of inter-arrival jitter and a 95th-percentile
//!   window pick, make the target, clamped to
//!   [[`JITTER_MIN_DEPTH`], [`JITTER_MAX_DEPTH`]] and slewed at most
//!   [`DEPTH_SLEW_TICKS`] per read so the playout point never jumps far.
//! * Samples that still aren't there when their playout time comes are
//!   *concealed*: the last good audio is repeated with a linear fade for
//!   up to [`JITTER_FADE_TICKS`] ticks, then µ-law silence.
//!
//! The buffer never reads a clock — callers pass device times and
//! transit observations in — so it stays deterministic under test.

// Runs inside the server's real-time pump, so it keeps the server's ban on
// panics (af-server's crate root).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::stats::{Link, LinkCounters};
use af_time::ATime;
use std::collections::VecDeque;

/// Playout depth floor, in device ticks (32 ms at 8 kHz).
pub const JITTER_MIN_DEPTH: u32 = 256;

/// Playout depth ceiling, in device ticks (512 ms at 8 kHz).
pub const JITTER_MAX_DEPTH: u32 = 4096;

/// Ticks of repeat-with-fade concealment before the buffer gives up and
/// emits pure silence (100 ms at 8 kHz).
pub const JITTER_FADE_TICKS: u32 = 800;

const _: () = assert!(JITTER_MIN_DEPTH < JITTER_MAX_DEPTH);

/// Ring capacity in samples; must exceed [`JITTER_MAX_DEPTH`] so the
/// deepest playout delay still fits with room for early arrivals.
const RING: usize = 8192;

/// Maximum change of the playout depth per read call, in ticks (8 ms at
/// 8 kHz) — bounds the audible discontinuity when the target moves.
pub const DEPTH_SLEW_TICKS: u32 = 64;

/// How many of the most recent good samples are kept for concealment.
const TAIL_SAMPLES: usize = 160;

/// Inter-arrival delay window size for the percentile estimate.
const DELAY_WINDOW: usize = 64;

/// The adaptive playout buffer described in the module docs.
pub struct JitterBuffer {
    /// Sample ring indexed by recorded tick modulo [`RING`].
    ring: Vec<u8>,
    /// Recorded time each slot was written for; a slot is valid for
    /// recorded time `t` iff `tag[slot] == t`.  This makes stale data from
    /// a previous ring lap self-invalidating without a consume pass.
    tag: Vec<ATime>,
    /// One slot is written before any read establishes tags; `false`
    /// until the first insert so an all-zero tag ring can't alias
    /// recorded tick 0.
    any_inserted: bool,
    /// Current playout delay in ticks.
    depth: u32,
    /// RFC 3550 jitter EWMA, in ticks.
    jitter_ewma: f64,
    /// EWMA of the transit observations, in ticks.
    transit_mean: f64,
    /// Previous packet's transit observation.
    last_transit: Option<i64>,
    /// Recent |inter-arrival delay delta| values for the percentile.
    delays: VecDeque<u32>,
    /// End (exclusive) of the most recent insert, for reorder detection.
    insert_frontier: Option<ATime>,
    /// Highest recorded time served so far (exclusive), for late drops.
    served_until: Option<ATime>,
    /// Last good served samples, for concealment.
    tail: Vec<u8>,
    /// Next position in `tail` to replay while concealing.
    tail_pos: usize,
    /// Consecutive concealed ticks (resets on any good sample).
    conceal_run: u32,
    /// Silence byte for the link's encoding (µ-law by default).
    silence: u8,
}

impl Default for JitterBuffer {
    fn default() -> Self {
        JitterBuffer::new()
    }
}

impl JitterBuffer {
    /// Creates an empty buffer at the minimum playout depth.
    pub fn new() -> JitterBuffer {
        JitterBuffer {
            ring: vec![0; RING],
            tag: vec![ATime::ZERO; RING],
            any_inserted: false,
            depth: JITTER_MIN_DEPTH,
            jitter_ewma: 0.0,
            transit_mean: 0.0,
            last_transit: None,
            delays: VecDeque::with_capacity(DELAY_WINDOW),
            insert_frontier: None,
            served_until: None,
            tail: Vec::with_capacity(TAIL_SAMPLES),
            tail_pos: 0,
            conceal_run: 0,
            silence: af_dsp::g711::ULAW_SILENCE,
        }
    }

    /// Current playout depth in ticks.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Feeds one transit observation into the depth estimate: the ticks
    /// from a packet's last recorded sample to its insertion, which the
    /// depth must cover for the samples after it to arrive in time.
    /// Callers compute it from their own clock so this type never does.
    pub fn observe_transit(&mut self, transit: i64) {
        match self.last_transit {
            Some(prev) => {
                let d = (transit - prev).unsigned_abs().min(u64::from(u32::MAX)) as u32;
                // RFC 3550 §6.4.1: J += (|D| − J) / 16.
                self.jitter_ewma += (f64::from(d) - self.jitter_ewma) / 16.0;
                self.transit_mean += (transit as f64 - self.transit_mean) / 16.0;
                if self.delays.len() == DELAY_WINDOW {
                    self.delays.pop_front();
                }
                self.delays.push_back(d);
            }
            None => self.transit_mean = transit as f64,
        }
        self.last_transit = Some(transit);
    }

    /// The depth the buffer is currently steering toward.
    pub fn target_depth(&self) -> u32 {
        let p95 = p95(&self.delays);
        // The mean transit plus a margin of four jitter EWMAs (the classic
        // RTP playout rule) or twice the p95 spike level, whichever is
        // more conservative.
        let margin = ((self.jitter_ewma * 4.0) as u32).max(p95.saturating_mul(2));
        let base = self.transit_mean.max(0.0) as u32;
        base.saturating_add(margin)
            .clamp(JITTER_MIN_DEPTH, JITTER_MAX_DEPTH)
    }

    /// Inserts recorded samples starting at device time `time`,
    /// reporting reorders and late arrivals into `stats`.
    pub fn insert(&mut self, time: ATime, data: &[u8], stats: &LinkCounters) {
        if data.is_empty() {
            return;
        }
        if let Some(frontier) = self.insert_frontier {
            if time.is_before(frontier) {
                stats.add(Link::Reorders, 1);
            }
        }
        let end = time.offset(data.len().min(RING) as i32);
        self.insert_frontier = Some(match self.insert_frontier {
            Some(f) => f.max_circular(end),
            None => end,
        });
        let mut late = 0u64;
        for (i, &b) in data.iter().take(RING).enumerate() {
            let rt = time.offset(i as i32);
            if let Some(served) = self.served_until {
                if rt.is_before(served) {
                    late += 1;
                    continue; // Playout already passed this tick.
                }
            }
            let slot = Self::slot(rt);
            self.ring[slot] = b;
            self.tag[slot] = rt;
        }
        self.any_inserted = true;
        if late > 0 {
            stats.add(Link::LateDrops, late);
        }
    }

    /// Serves `out.len()` playout samples for device time `time`,
    /// reading recorded time `time − depth` onward and concealing
    /// whatever is missing.  Updates the depth gauges in `stats`.
    pub fn read(&mut self, time: ATime, out: &mut [u8], stats: &LinkCounters) {
        // Slew the playout depth toward its adaptive target.
        let target = self.target_depth();
        let step = target
            .abs_diff(self.depth)
            .min(DEPTH_SLEW_TICKS);
        if target > self.depth {
            self.depth += step;
        } else {
            self.depth -= step;
        }
        stats.set(Link::Depth, u64::from(self.depth));
        stats.set(Link::TargetDepth, u64::from(target));

        let depth = self.depth as i32;
        let mut concealed = 0u64;
        for (i, o) in out.iter_mut().enumerate() {
            let rt = time.offset(i as i32).offset(-depth);
            let slot = Self::slot(rt);
            if self.any_inserted && self.tag[slot] == rt {
                let b = self.ring[slot];
                *o = b;
                self.conceal_run = 0;
                if self.tail.len() < TAIL_SAMPLES {
                    self.tail.push(b);
                } else {
                    self.tail[self.tail_pos] = b;
                }
                self.tail_pos = (self.tail_pos + 1) % TAIL_SAMPLES;
            } else {
                *o = self.conceal_sample();
                concealed += 1;
            }
        }
        if concealed > 0 {
            stats.add(Link::Conceals, concealed);
        }
        let end = time.offset(out.len() as i32).offset(-depth);
        self.served_until = Some(match self.served_until {
            Some(s) => s.max_circular(end),
            None => end,
        });
    }

    /// One concealment sample: replay the tail with a linear fade for up
    /// to [`JITTER_FADE_TICKS`], then silence.
    fn conceal_sample(&mut self) -> u8 {
        let run = self.conceal_run;
        self.conceal_run = self.conceal_run.saturating_add(1);
        if self.tail.is_empty() || run >= JITTER_FADE_TICKS {
            return self.silence;
        }
        let b = self.tail[self.tail_pos % self.tail.len()];
        self.tail_pos = (self.tail_pos + 1) % self.tail.len();
        let lin = i64::from(af_dsp::g711::ulaw_to_linear(b));
        let gain = i64::from(JITTER_FADE_TICKS - run); // Linear fade-out.
        let faded = (lin * gain / i64::from(JITTER_FADE_TICKS)) as i16;
        af_dsp::g711::linear_to_ulaw(faded)
    }

    #[inline]
    #[expect(clippy::disallowed_methods, reason = "indexes a ring by raw time")]
    fn slot(t: ATime) -> usize {
        (u64::from(t.ticks()) % RING as u64) as usize
    }
}

/// The delay a sort of `delays` would put at index `len · 95 / 100` (0 for
/// none), selected in place over a copy on the stack: `target_depth` runs
/// on every read, and allocates nothing.
fn p95(delays: &VecDeque<u32>) -> u32 {
    let len = delays.len().min(DELAY_WINDOW);
    if len == 0 {
        return 0;
    }
    let mut window = [0u32; DELAY_WINDOW];
    for (w, &d) in window.iter_mut().zip(delays) {
        *w = d;
    }
    *window[..len].select_nth_unstable(len * 95 / 100).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_plays_back_exactly() {
        let mut jb = JitterBuffer::new();
        let st = LinkCounters::default();
        let t0 = ATime::new(10_000);
        // Fill well past one depth's worth.
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        jb.insert(t0, &data, &st);
        // Read at t0 + depth: playout maps back to exactly t0.
        let depth = jb.depth();
        let mut out = vec![0u8; 1024];
        jb.read(t0.offset(depth as i32), &mut out, &st);
        assert_eq!(&out[..], &data[..1024]);
        assert_eq!(st.get(Link::Conceals), 0);
    }

    #[test]
    fn gap_is_concealed_then_silence() {
        let mut jb = JitterBuffer::new();
        let st = LinkCounters::default();
        let t0 = ATime::new(500);
        // 200 good loud samples, then nothing.
        let loud = vec![af_dsp::g711::linear_to_ulaw(8000); 200];
        jb.insert(t0, &loud, &st);
        let depth = jb.depth();
        let span = 200 + JITTER_FADE_TICKS as usize + 400;
        let mut out = vec![0u8; span];
        jb.read(t0.offset(depth as i32), &mut out, &st);
        // Good part passes through.
        assert_eq!(&out[..200], &loud[..]);
        // Concealment starts loud-ish (repeat with fade), ends silent.
        assert_ne!(out[200], af_dsp::g711::ULAW_SILENCE);
        assert_eq!(out[span - 1], af_dsp::g711::ULAW_SILENCE);
        assert_eq!(st.get(Link::Conceals), (span - 200) as u64);
    }

    #[test]
    fn out_of_order_insert_is_reordered_not_lost() {
        let mut jb = JitterBuffer::new();
        let st = LinkCounters::default();
        let t0 = ATime::new(40_000);
        jb.insert(t0.offset(100), &[2u8; 100], &st); // Second chunk first.
        jb.insert(t0, &[1u8; 100], &st); // First chunk late.
        assert_eq!(st.get(Link::Reorders), 1);
        let depth = jb.depth();
        let mut out = vec![0u8; 200];
        jb.read(t0.offset(depth as i32), &mut out, &st);
        assert_eq!(&out[..100], &[1u8; 100][..]);
        assert_eq!(&out[100..], &[2u8; 100][..]);
    }

    #[test]
    fn arrival_after_playout_counts_late_drop() {
        let mut jb = JitterBuffer::new();
        let st = LinkCounters::default();
        let t0 = ATime::new(9_000);
        let depth = jb.depth();
        let mut out = vec![0u8; 64];
        jb.read(t0.offset(depth as i32), &mut out, &st); // Serves t0..t0+64.
        jb.insert(t0, &[5u8; 32], &st); // Entirely in the served past.
        assert_eq!(st.get(Link::LateDrops), 32);
    }

    #[test]
    fn depth_adapts_to_jitter_and_slews_gradually() {
        let mut jb = JitterBuffer::new();
        let st = LinkCounters::default();
        assert_eq!(jb.target_depth(), JITTER_MIN_DEPTH);
        // Alternating transit times 2 000 ticks apart: heavy jitter.
        for i in 0..DELAY_WINDOW as i64 {
            jb.observe_transit(if i % 2 == 0 { 0 } else { 2_000 });
        }
        let target = jb.target_depth();
        assert!(target > JITTER_MIN_DEPTH);
        assert!(target <= JITTER_MAX_DEPTH);
        // One read only moves depth by the slew bound.
        let before = jb.depth();
        let mut out = vec![0u8; 16];
        jb.read(ATime::new(100_000), &mut out, &st);
        assert!(jb.depth() <= before + DEPTH_SLEW_TICKS);
    }

    #[test]
    fn p95_is_the_sorted_windows_entry_at_every_length() {
        let mut x = 0x2545_F491u32;
        assert_eq!(p95(&VecDeque::new()), 0);
        for len in 1..=DELAY_WINDOW {
            for _ in 0..20 {
                // Small values too, so windows hold repeats.
                let delays: VecDeque<u32> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        x % if len % 2 == 0 { 8 } else { 100_000 }
                    })
                    .collect();
                let mut sorted: Vec<u32> = delays.iter().copied().collect();
                sorted.sort_unstable();
                assert_eq!(p95(&delays), sorted[len * 95 / 100], "{delays:?}");
            }
        }
    }

    #[test]
    fn steady_arrivals_keep_minimum_depth() {
        let mut jb = JitterBuffer::new();
        for i in 0..DELAY_WINDOW as i64 {
            jb.observe_transit(100 + i % 2); // ~zero jitter.
        }
        assert_eq!(jb.target_depth(), JITTER_MIN_DEPTH);
    }

    #[test]
    fn ring_wrap_does_not_alias_old_laps() {
        let mut jb = JitterBuffer::new();
        let st = LinkCounters::default();
        let t0 = ATime::new(1_000);
        jb.insert(t0, &[9u8; 64], &st);
        // Same ring slots, one lap later, never inserted.
        let lap = t0.offset(RING as i32);
        let depth = jb.depth();
        let mut out = vec![0u8; 64];
        jb.read(lap.offset(depth as i32), &mut out, &st);
        assert_eq!(st.get(Link::Conceals), 64, "stale lap must not replay");
    }

    #[test]
    fn wrapping_device_time_is_handled() {
        let mut jb = JitterBuffer::new();
        let st = LinkCounters::default();
        // Insert across the 2^32 tick wrap.
        let t0 = ATime::new(u32::MAX - 50);
        jb.insert(t0, &[3u8; 200], &st);
        let depth = jb.depth();
        let mut out = vec![0u8; 200];
        jb.read(t0.offset(depth as i32), &mut out, &st);
        assert_eq!(&out[..], &[3u8; 200][..]);
    }
}
