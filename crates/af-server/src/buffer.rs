//! The server's per-device buffering engine (§7.2).
//!
//! Each device has a play buffer and a record buffer of about four seconds,
//! pictured in the paper's Figure 4 as windows on the device time line.  A
//! periodic update task keeps the small hardware rings consistent with these
//! buffers; client requests that fall inside the buffered windows are
//! handled without touching the hardware, and requests in the shaded
//! "update regions" write through (play) or force a record update (record).
//!
//! The `timeLastValid` optimization of §7.4.1 is implemented: silence is
//! back-filled only where a client actually wrote data, and the play update
//! copies nothing when no client has scheduled anything — a quiescent
//! server approaches zero work per update.

use crate::backend::HwBackend;
use crate::broadcast::BroadcastBus;
use af_device::HwRing;
use af_dsp::tables::PlayMap;
use af_dsp::{mix, silence, Encoding};
use af_time::ATime;

/// Outcome of writing one play request into the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlayOutcome {
    /// Frames silently discarded because they fell in the past.
    pub dropped_past: u32,
    /// Frames written into the buffer (and possibly through to hardware).
    pub written: u32,
    /// Frames that did not fit because they fell beyond the buffer horizon;
    /// the dispatcher suspends the client until time advances (§2.2).
    pub beyond_horizon: u32,
}

/// The per-device server buffers and update state.
pub struct DeviceBuffers {
    backend: Box<dyn HwBackend>,
    encoding: Encoding,
    frame_bytes: usize,
    /// Server buffer size in frames (power of two, ≈ 4 seconds).
    frames: u32,
    play: HwRing,
    rec: HwRing,
    /// Play data at or after this time has not yet been copied to hardware.
    time_next_update: ATime,
    /// Record data before this time is consistent in the server buffer.
    time_rec_last_updated: ATime,
    /// One past the last valid play sample any client has written.
    time_last_valid: ATime,
    /// Number of ACs that have recorded (record update runs only if > 0).
    rec_ref_count: u32,
    /// Frames the update task keeps ahead of now in the hardware.
    hw_lead: u32,
    /// Reusable staging buffer for write-through copies, so the steady-state
    /// play path performs no per-request allocation.
    scratch: Vec<u8>,
    /// The broadcast bus this device's post-mix speaker bus feeds, if any.
    /// The play update taps into it the exact post-gain bytes handed to
    /// the hardware, plus the silence spans between them, in device-time
    /// order.
    bus: Option<BroadcastBus>,
}

impl DeviceBuffers {
    /// Creates buffers of `frames` frames (≈ 4 s) over a hardware backend.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not a power of two or is not strictly larger
    /// than the backend's lead.
    pub fn new(
        mut backend: Box<dyn HwBackend>,
        encoding: Encoding,
        channels: u8,
        frames: u32,
    ) -> DeviceBuffers {
        let frame_bytes = encoding.bytes_for_samples(1) * channels as usize;
        let fill = silence::silence_byte(encoding).unwrap_or(0);
        let hw_lead = backend.lead_frames();
        assert!(
            frames.is_power_of_two(),
            "server buffer must be a power of two"
        );
        assert!(
            frames > hw_lead,
            "server buffer must exceed the hardware lead"
        );
        let now = backend.now();
        DeviceBuffers {
            play: HwRing::new(frames, frame_bytes, fill),
            rec: HwRing::new(frames, frame_bytes, fill),
            backend,
            encoding,
            frame_bytes,
            frames,
            time_next_update: now,
            time_rec_last_updated: now,
            time_last_valid: now,
            rec_ref_count: 0,
            hw_lead,
            scratch: Vec::new(),
            bus: None,
        }
    }

    /// Feeds the speaker bus to `bus` (broadcast fan-out).  The bus sees
    /// the continuous post-mix bus from the next update on: post-gain data
    /// exactly as the hardware receives it, silence everywhere else.
    /// Write-through pushes inside the hardware lead are deliberately not
    /// re-emitted — the bus's view lags the hardware by at most `hw_lead`
    /// frames (see DESIGN.md §13.2).
    pub fn set_bus(&mut self, bus: BroadcastBus) {
        self.bus = Some(bus);
    }

    /// The broadcast bus this device feeds, if any.
    pub fn bus_mut(&mut self) -> Option<&mut BroadcastBus> {
        self.bus.as_mut()
    }

    /// Buffer capacity in frames.
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Bytes per frame.
    pub fn frame_bytes(&self) -> usize {
        self.frame_bytes
    }

    /// Native encoding of the buffers.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The current device time.
    pub fn now(&mut self) -> ATime {
        self.backend.now()
    }

    /// The device time through which recorded data is consistent.
    pub fn recorded_until(&self) -> ATime {
        self.time_rec_last_updated
    }

    /// One past the last valid play sample (`timeLastValid`).
    pub fn time_last_valid(&self) -> ATime {
        self.time_last_valid
    }

    /// Registers an AC that has started recording (`recRefCount`).
    pub fn add_recorder(&mut self) {
        if self.rec_ref_count == 0 {
            // Start a fresh consistency window: data before this moment was
            // never captured (the documented cost of the optimization).
            self.time_rec_last_updated = self.backend.now();
        }
        self.rec_ref_count += 1;
    }

    /// Unregisters a recording AC.
    pub fn remove_recorder(&mut self) {
        self.rec_ref_count = self.rec_ref_count.saturating_sub(1);
    }

    /// The periodic update task (§7.2, Figure 5).
    ///
    /// Moves play data from the server buffer to the hardware (applying the
    /// device output gain), back-fills the consumed region with silence,
    /// and brings the record buffer up to date.  Returns the current device
    /// time.
    pub fn update(&mut self, output_gain_db: i32, output_enabled: bool) -> ATime {
        let now = self.backend.service();
        self.update_play(now, output_gain_db, output_enabled);
        self.update_record(now);
        now
    }

    fn update_play(&mut self, now: ATime, output_gain_db: i32, output_enabled: bool) {
        let target = now + self.hw_lead;
        if !target.is_after(self.time_next_update) {
            return;
        }
        // If the update fell behind by more than the buffer, skip the
        // unrecoverable region (and clear its stale data).
        if target - self.time_next_update > self.frames as i32 {
            let skip = (target - self.time_next_update) as u32 - self.frames;
            self.play
                .fill_at(self.time_next_update, skip.min(self.frames), self.fill());
            self.time_next_update += skip;
            if let Some(bus) = self.bus.as_mut() {
                bus.tap_silence(skip);
            }
        }
        // "The play update code only runs when timeLastValid is in the
        // future relative to the current device time" — copy only the valid
        // region; everything beyond it is already silence in the hardware
        // ring (the hardware back-fills itself).
        let valid_end = if self.time_last_valid.is_after(target) {
            target
        } else {
            self.time_last_valid
        };
        let mut tapped = 0u32;
        if valid_end.is_after(self.time_next_update) {
            let nframes = (valid_end - self.time_next_update) as u32;
            if output_enabled {
                // Apply the output gain in place in the ring and hand each
                // contiguous chunk straight to the hardware: no staging copy.
                // Mutating the ring is safe because this exact region is
                // back-filled with silence immediately below, so the gained
                // samples are never read again.  The broadcast bus sees the
                // same post-gain bytes the hardware does — the encode-once
                // guarantee.
                let encoding = self.encoding;
                let frame_bytes = self.frame_bytes;
                let mut at = self.time_next_update;
                let DeviceBuffers {
                    play, backend, bus, ..
                } = self;
                play.with_frames_mut(at, nframes, |chunk| {
                    af_dsp::gain::apply_gain_bytes(encoding, chunk, output_gain_db);
                    backend.write_play(at, chunk);
                    if let Some(bus) = bus.as_mut() {
                        bus.tap(chunk);
                    }
                    at += (chunk.len() / frame_bytes) as u32;
                });
            } else if let Some(bus) = self.bus.as_mut() {
                // Output muted: the hardware plays silence, so the bus
                // carries silence.
                bus.tap_silence(nframes);
            }
            // Back-fill the consumed server region with silence so the
            // slots can be reused one buffer-length later.
            self.play
                .fill_at(self.time_next_update, nframes, self.fill());
            tapped = nframes;
        }
        if let Some(bus) = self.bus.as_mut() {
            // Beyond timeLastValid nothing was written: the hardware
            // back-fills silence, and so does the bus.
            let span = (target - self.time_next_update) as u32;
            if span > tapped {
                bus.tap_silence(span - tapped);
            }
        }
        self.time_next_update = target;
    }

    fn update_record(&mut self, now: ATime) {
        if self.rec_ref_count == 0 {
            // "The record update only needs to run if there is a client
            // that wants record data."  Keep the window anchored at now so
            // enabling recording later starts fresh.
            self.time_rec_last_updated = now;
            return;
        }
        let mut start = self.time_rec_last_updated;
        let span = now - start;
        if span <= 0 {
            return;
        }
        let mut span = span as u32;
        if span > self.frames {
            start += span - self.frames;
            span = self.frames;
        }
        // The hardware ring only retains its own length of history.
        let lead = self.hw_lead.min(span);
        let hw_start = now - lead;
        if hw_start.is_after(start) {
            // The over-old region is unrecoverable: fill with silence.
            self.rec
                .fill_at(start, (hw_start - start) as u32, self.fill());
            start = hw_start;
            span = lead;
        }
        // Capture straight from the hardware into the ring's own storage —
        // the intermediate copy buffer is gone.
        let frame_bytes = self.frame_bytes;
        let mut at = start;
        let DeviceBuffers { rec, backend, .. } = self;
        rec.with_frames_mut(at, span, |chunk| {
            backend.read_rec(at, chunk);
            at += (chunk.len() / frame_bytes) as u32;
        });
        self.time_rec_last_updated = now;
    }

    fn fill(&self) -> u8 {
        silence::silence_byte(self.encoding).unwrap_or(0)
    }

    /// The one merge loop behind every play: plans the writable window for
    /// `total` frames at `start_time` (past frames dropped, frames beyond
    /// the four-second horizon left for the dispatcher to suspend), then
    /// hands `put` each contiguous run of ring frames with the index of the
    /// request frame it starts at and whether to mix or to store — "samples
    /// before timeLastValid are mixed and samples after timeLastValid are
    /// copied" (§7.4.1), and a preempting play only stores.  What lands
    /// inside the hardware's lead is written through.
    fn merge_play(
        &mut self,
        start_time: ATime,
        total: u32,
        preempt: bool,
        output_gain_db: i32,
        output_enabled: bool,
        mut put: impl FnMut(&mut [u8], usize, bool),
    ) -> PlayOutcome {
        // One clock reading plans the window and bounds the write-through,
        // so the two agree.
        let mut now = self.backend.now();
        // The ring has a slot for a frame one buffer ahead only once the
        // update has moved the frame before it out.  When it is running
        // behind `now` and this play reaches that far, it runs first: the
        // play side of the record update (§7.2).
        if self.time_next_update.is_before(now)
            && (start_time + total).is_after(self.time_next_update + self.frames)
        {
            now = self.update(output_gain_db, output_enabled);
        }
        // Clip the part that falls in the past.
        let dropped = (now - start_time).clamp(0, total as i32) as u32;
        let start = start_time + dropped;
        // The horizon: four seconds (one buffer) into the future.
        let room = (now + self.frames) - start; // >= 0 since start >= now.
        let writable = (total - dropped).min(room.max(0) as u32);
        let outcome = PlayOutcome {
            dropped_past: dropped,
            written: writable,
            beyond_horizon: total - dropped - writable,
        };
        if writable == 0 {
            return outcome;
        }
        let end = start + writable;
        let mix_frames = if preempt {
            0
        } else {
            (self.time_last_valid - start).clamp(0, writable as i32) as u32
        };
        let frame_bytes = self.frame_bytes;
        let mut frame = dropped as usize;
        for (at, nframes, mix) in [
            (start, mix_frames, true),
            (start + mix_frames, writable - mix_frames, false),
        ] {
            self.play.with_frames_mut(at, nframes, |chunk| {
                put(chunk, frame, mix);
                frame += chunk.len() / frame_bytes;
            });
        }
        if end.is_after(self.time_last_valid) {
            self.time_last_valid = end;
        }

        // Write-through: the hardware consumes up to one lead ahead of now
        // before the next update runs, so anything scheduled inside that
        // window (which also covers everything before timeNextUpdate) must
        // be pushed straight to the hardware (§7.2: "the server writes the
        // data through the server buffer into the audio hardware").
        let wt_end = now + self.hw_lead;
        if wt_end.is_after(start) {
            let wt_frames = ((wt_end - start) as u32).min(writable);
            // The copy is deliberate: the update task will read and gain this
            // same region later, so gaining it in the ring here would apply
            // the output gain twice.  The staging buffer is reused across
            // requests, so the steady state allocates nothing.
            let mut through = std::mem::take(&mut self.scratch);
            through.clear();
            self.play.append_to(start, wt_frames, &mut through);
            if output_enabled {
                af_dsp::gain::apply_gain_bytes(self.encoding, &mut through, output_gain_db);
                self.backend.write_play(start, &through);
            }
            self.scratch = through;
        }
        outcome
    }

    /// Writes one play request (already converted to the native encoding,
    /// with the client's AC gain applied) into the play buffer.
    ///
    /// `data` must be whole frames.  Past data is discarded, in-window data
    /// is mixed (or copied when `preempt`), and data beyond the four-second
    /// horizon is reported in [`PlayOutcome::beyond_horizon`] for the
    /// dispatcher to retry after blocking the client.
    pub fn write_play(
        &mut self,
        start_time: ATime,
        data: &[u8],
        preempt: bool,
        output_gain_db: i32,
        output_enabled: bool,
    ) -> PlayOutcome {
        debug_assert_eq!(data.len() % self.frame_bytes, 0, "partial frame");
        let total = (data.len() / self.frame_bytes) as u32;
        let (encoding, frame_bytes) = (self.encoding, self.frame_bytes);
        self.merge_play(
            start_time,
            total,
            preempt,
            output_gain_db,
            output_enabled,
            |chunk, frame, mix| {
                let src = &data[frame * frame_bytes..][..chunk.len()];
                if mix {
                    mix::mix_bytes(encoding, chunk, src);
                } else {
                    chunk.copy_from_slice(src);
                }
            },
        )
    }

    /// Writes one play request as the client sent it — `data` in the audio
    /// context's encoding, whole frames — through the context's play map:
    /// each sample is converted, gained and mixed (or stored) by lookup as
    /// it enters the ring, which is written once.  Otherwise exactly
    /// [`DeviceBuffers::write_play`] of the converted, gained bytes.
    pub fn write_play_mapped(
        &mut self,
        start_time: ATime,
        data: &[u8],
        map: &PlayMap,
        preempt: bool,
        output_gain_db: i32,
        output_enabled: bool,
    ) -> PlayOutcome {
        let sample_bytes = map.sample_bytes();
        let src_frame_bytes = self.frame_bytes * sample_bytes;
        debug_assert_eq!(data.len() % src_frame_bytes, 0, "partial frame");
        let total = (data.len() / src_frame_bytes) as u32;
        self.merge_play(
            start_time,
            total,
            preempt,
            output_gain_db,
            output_enabled,
            |chunk, frame, mix| {
                let src = &data[frame * src_frame_bytes..][..chunk.len() * sample_bytes];
                if mix {
                    map.mix_into(chunk, src);
                } else {
                    map.copy_into(chunk, src);
                }
            },
        )
    }

    /// Writes a mono play request into one channel of a multi-channel
    /// buffer — the mono-on-stereo devices of §7.4.1: "a mono play request
    /// is simply written (or mixed) into the appropriate channel in the
    /// stereo buffers."
    ///
    /// `mono` holds one sample per frame in the native encoding; `channel`
    /// selects the interleaved lane.  The other lanes are left untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn write_play_channel(
        &mut self,
        start_time: ATime,
        mono: &[u8],
        channel: u8,
        channels: u8,
        preempt: bool,
        output_gain_db: i32,
        output_enabled: bool,
    ) -> PlayOutcome {
        let sample_bytes = self.frame_bytes / channels.max(1) as usize;
        debug_assert_eq!(mono.len() % sample_bytes, 0, "partial sample");
        let total = (mono.len() / sample_bytes) as u32;
        // Splice the lane directly in the ring: the other lanes are never
        // copied anywhere.  The runs `merge_play` hands out are whole frames.
        let (encoding, frame_bytes) = (self.encoding, self.frame_bytes);
        let lane_off = channel as usize * sample_bytes;
        self.merge_play(
            start_time,
            total,
            preempt,
            output_gain_db,
            output_enabled,
            |chunk, frame, mix| {
                let src = mono[frame * sample_bytes..].chunks_exact(sample_bytes);
                for (slot, src) in chunk.chunks_exact_mut(frame_bytes).zip(src) {
                    let dst = &mut slot[lane_off..lane_off + sample_bytes];
                    if mix {
                        mix::mix_bytes(encoding, dst, src);
                    } else {
                        dst.copy_from_slice(src);
                    }
                }
            },
        )
    }

    /// Appends one channel of recorded frames to `out`: "a record request
    /// simply reads from the appropriate channel" (§7.4.1).
    pub fn read_rec_channel_into(
        &mut self,
        start_time: ATime,
        nframes: u32,
        channel: u8,
        channels: u8,
        out: &mut Vec<u8>,
    ) {
        let sample_bytes = self.frame_bytes / channels.max(1) as usize;
        let lane_off = channel as usize * sample_bytes;
        let mut frames = std::mem::take(&mut self.scratch);
        frames.clear();
        self.read_rec_into(start_time, nframes, &mut frames);
        for frame in frames.chunks_exact(self.frame_bytes) {
            out.extend_from_slice(&frame[lane_off..lane_off + sample_bytes]);
        }
        self.scratch = frames;
    }

    /// Number of frames that could be written at `start_time` right now
    /// without blocking (used to decide how much of a suspended play request
    /// can resume).
    pub fn play_room(&mut self, start_time: ATime) -> u32 {
        let now = self.backend.now();
        let horizon = now + self.frames;
        let from = if start_time.is_before(now) {
            now
        } else {
            start_time
        };
        (horizon - from).max(0) as u32
    }

    /// Reads `nframes` recorded frames starting at `start_time` into a new
    /// buffer: [`DeviceBuffers::read_rec_into`] for a caller with nowhere
    /// to put them yet.
    pub fn read_rec(&mut self, start_time: ATime, nframes: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(nframes as usize * self.frame_bytes);
        self.read_rec_into(start_time, nframes, &mut out);
        out
    }

    /// Appends `nframes` recorded frames starting at `start_time` to `out`,
    /// handling the input model's regions (§2.3): silence for the distant
    /// past, buffered data for the recent past.  Each byte is written once:
    /// ring data is copied straight to its place, silence goes only where
    /// the request reaches outside the buffered window.
    ///
    /// The caller must ensure the request does not extend beyond
    /// [`DeviceBuffers::recorded_until`]; run [`DeviceBuffers::update`] (a
    /// "record update") first if it does.
    pub fn read_rec_into(&mut self, start_time: ATime, nframes: u32, out: &mut Vec<u8>) {
        let end = out.len() + nframes as usize * self.frame_bytes;
        let consistent_end = self.time_rec_last_updated;
        let oldest = consistent_end - self.frames;

        // Clip to [oldest, consistent_end); outside is silence.
        let req_end = start_time + nframes;
        let copy_start = if start_time.is_before(oldest) {
            oldest
        } else {
            start_time
        };
        let copy_end = if req_end.is_after(consistent_end) {
            consistent_end
        } else {
            req_end
        };
        if copy_end.is_after(copy_start) {
            let before = (copy_start - start_time).max(0) as usize * self.frame_bytes;
            out.resize(out.len() + before, self.fill());
            self.rec
                .append_to(copy_start, (copy_end - copy_start) as u32, out);
        }
        out.resize(end, self.fill());
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests index by raw time")]
mod tests {
    use super::*;
    use crate::backend::LocalBackend;
    use crate::broadcast::BroadcastConfig;
    use af_device::hardware::{HwConfig, VirtualAudioHw};
    use af_device::io::{CaptureBuffer, CaptureSink, SilenceSource, ToneSource};
    use af_device::{Clock, VirtualClock};
    use std::sync::Arc;

    const ULAW_SIL: u8 = 0xFF;

    fn codec_buffers() -> (DeviceBuffers, Arc<VirtualClock>, CaptureBuffer) {
        let clock = Arc::new(VirtualClock::new(8000));
        let (sink, capture) = CaptureSink::new(1 << 22);
        let hw = VirtualAudioHw::new(
            HwConfig::codec(),
            clock.clone(),
            Box::new(sink),
            Box::new(SilenceSource::new(ULAW_SIL)),
        );
        let bufs = DeviceBuffers::new(
            Box::new(LocalBackend::new(hw)),
            Encoding::Mu255,
            1,
            32_768, // ≈ 4.1 s at 8 kHz.
        );
        (bufs, clock, capture)
    }

    /// Advances virtual time and runs updates the way the dispatcher would.
    fn run(bufs: &mut DeviceBuffers, clock: &VirtualClock, samples: u32) {
        let step = 800; // 100 ms at 8 kHz, the paper's MSUPDATE.
        let mut left = samples;
        while left > 0 {
            let n = left.min(step);
            clock.advance(n);
            bufs.update(0, true);
            left -= n;
        }
    }

    #[test]
    fn scheduled_play_reaches_speaker_on_time() {
        let (mut bufs, clock, capture) = codec_buffers();
        let out = bufs.write_play(ATime::new(1000), &[0x21; 500], false, 0, true);
        assert_eq!(out.written, 500);
        assert_eq!(out.dropped_past, 0);
        run(&mut bufs, &clock, 2400);
        let cap = capture.lock().unwrap();
        assert!(cap[..1000].iter().all(|&b| b == ULAW_SIL));
        assert_eq!(&cap[1000..1500], &[0x21; 500][..]);
        assert!(cap[1500..].iter().all(|&b| b == ULAW_SIL));
    }

    #[test]
    fn past_data_discarded_silently() {
        let (mut bufs, clock, _capture) = codec_buffers();
        run(&mut bufs, &clock, 1600);
        // Entirely in the past.
        let out = bufs.write_play(ATime::new(100), &[0x21; 200], false, 0, true);
        assert_eq!(out.dropped_past, 200);
        assert_eq!(out.written, 0);
        // Straddling now=1600: past part dropped, rest plays.
        let out = bufs.write_play(ATime::new(1500), &[0x22; 300], false, 0, true);
        assert_eq!(out.dropped_past, 100);
        assert_eq!(out.written, 200);
    }

    #[test]
    fn beyond_horizon_reported_for_blocking() {
        let (mut bufs, clock, _capture) = codec_buffers();
        let _ = clock;
        // Request ending past now + frames (32768).
        let out = bufs.write_play(ATime::new(32_700), &[0x21; 200], false, 0, true);
        assert_eq!(out.written, 68);
        assert_eq!(out.beyond_horizon, 132);
        // Entirely beyond.
        let out = bufs.write_play(ATime::new(40_000), &[0x21; 10], false, 0, true);
        assert_eq!(out.written, 0);
        assert_eq!(out.beyond_horizon, 10);
    }

    #[test]
    fn play_reaching_slots_the_late_update_still_owns_runs_it_first() {
        let (mut bufs, clock, capture) = codec_buffers();
        bufs.write_play(ATime::new(100), &[0x35; 50], false, 0, true);
        // Time has moved on but the update has not run: ticks 0..800 are
        // still in the ring, in the slots of ticks 32,768..33,568.
        clock.advance(800);
        let out = bufs.write_play(ATime::new(32_700), &[0x21; 200], false, 0, true);
        assert_eq!((out.written, out.beyond_horizon), (200, 0));
        run(&mut bufs, &clock, 33_600);
        let cap = capture.lock().unwrap();
        assert_eq!(&cap[100..150], &[0x35; 50][..]);
        assert_eq!(&cap[32_700..32_900], &[0x21; 200][..]);
    }

    #[test]
    fn two_clients_mix_additively() {
        let (mut bufs, clock, capture) = codec_buffers();
        let a = af_dsp::g711::linear_to_ulaw(4000);
        let b = af_dsp::g711::linear_to_ulaw(2000);
        bufs.write_play(ATime::new(800), &[a; 100], false, 0, true);
        bufs.write_play(ATime::new(800), &[b; 100], false, 0, true);
        run(&mut bufs, &clock, 1600);
        let cap = capture.lock().unwrap();
        let got = af_dsp::g711::ulaw_to_linear(cap[850]);
        assert!((i32::from(got) - 6000).abs() < 400, "mixed to {got}");
    }

    #[test]
    fn preempt_overwrites_mixed_data() {
        let (mut bufs, clock, capture) = codec_buffers();
        let a = af_dsp::g711::linear_to_ulaw(4000);
        let p = af_dsp::g711::linear_to_ulaw(-1000);
        bufs.write_play(ATime::new(800), &[a; 100], false, 0, true);
        bufs.write_play(ATime::new(800), &[p; 100], true, 0, true);
        run(&mut bufs, &clock, 1600);
        let got = af_dsp::g711::ulaw_to_linear(capture.lock().unwrap()[850]);
        assert!((i32::from(got) + 1000).abs() < 100, "preempted to {got}");
    }

    #[test]
    fn silence_where_nothing_written_between_requests() {
        let (mut bufs, clock, capture) = codec_buffers();
        bufs.write_play(ATime::new(100), &[0x21; 50], false, 0, true);
        // Client skips a silent interval by advancing its time (§2.2).
        bufs.write_play(ATime::new(400), &[0x22; 50], false, 0, true);
        run(&mut bufs, &clock, 800);
        let cap = capture.lock().unwrap();
        assert_eq!(&cap[100..150], &[0x21; 50][..]);
        assert!(cap[150..400].iter().all(|&b| b == ULAW_SIL));
        assert_eq!(&cap[400..450], &[0x22; 50][..]);
    }

    #[test]
    fn write_through_for_imminent_data() {
        let (mut bufs, clock, capture) = codec_buffers();
        // Prime the update so timeNextUpdate is ahead of now.
        clock.advance(100);
        bufs.update(0, true);
        // Write data for the immediate future (inside the update region).
        let now = bufs.now();
        bufs.write_play(now + 10u32, &[0x23; 20], false, 0, true);
        run(&mut bufs, &clock, 1600);
        let cap = capture.lock().unwrap();
        let start = (now.ticks() + 10) as usize;
        assert_eq!(&cap[start..start + 20], &[0x23; 20][..]);
    }

    #[test]
    fn output_gain_applied_at_update() {
        let (mut bufs, clock, capture) = codec_buffers();
        let loud = af_dsp::g711::linear_to_ulaw(8000);
        // Schedule past the write-through window so the gain is applied by
        // the -20 dB update copies, then run updates at that volume.
        bufs.write_play(ATime::new(2000), &[loud; 100], false, -20, true);
        for _ in 0..4 {
            clock.advance(800);
            bufs.update(-20, true);
        }
        let got = af_dsp::g711::ulaw_to_linear(capture.lock().unwrap()[2050]);
        assert!((700..=900).contains(&i32::from(got)), "gained to {got}");
    }

    #[test]
    fn disabled_output_plays_silence() {
        let (mut bufs, clock, capture) = codec_buffers();
        bufs.write_play(ATime::new(100), &[0x21; 100], false, 0, false);
        clock.advance(800);
        bufs.update(0, false);
        clock.advance(800);
        bufs.update(0, false);
        assert!(capture.lock().unwrap().iter().all(|&b| b == ULAW_SIL));
    }

    #[test]
    fn record_requires_a_recorder() {
        let clock = Arc::new(VirtualClock::new(8000));
        let hw = VirtualAudioHw::new(
            HwConfig::codec(),
            clock.clone(),
            Box::new(af_device::io::NullSink),
            Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
        );
        let mut bufs =
            DeviceBuffers::new(Box::new(LocalBackend::new(hw)), Encoding::Mu255, 1, 32_768);
        // Without a recorder, updates do not capture.
        run(&mut bufs, &clock, 1600);
        assert_eq!(bufs.recorded_until(), clock.now());

        bufs.add_recorder();
        run(&mut bufs, &clock, 1600);
        let data = bufs.read_rec(ATime::new(1700), 800);
        assert!(
            data.iter().any(|&b| b != ULAW_SIL),
            "recorder heard nothing"
        );
        // The pre-recorder era reads as silence (the documented cost of the
        // recRefCount optimization).
        let old = bufs.read_rec(ATime::new(100), 400);
        assert!(old.iter().all(|&b| b == ULAW_SIL));
    }

    #[test]
    fn record_distant_past_is_silence() {
        let (mut bufs, clock, _c) = codec_buffers();
        bufs.add_recorder();
        run(&mut bufs, &clock, 40_000); // Past one full buffer.
        let now = bufs.now();
        // Older than four seconds: silence.
        let data = bufs.read_rec(now - 39_000u32, 100);
        assert!(data.iter().all(|&b| b == ULAW_SIL));
    }

    #[test]
    fn record_round_trips_played_audio_via_wire() {
        // Wire the speaker to the microphone and check a full loop.
        let clock = Arc::new(VirtualClock::new(8000));
        let wire = af_device::Wire::new(1 << 20, ULAW_SIL);
        let hw = VirtualAudioHw::new(
            HwConfig::codec(),
            clock.clone(),
            Box::new(wire.sink()),
            Box::new(wire.source()),
        );
        let mut bufs =
            DeviceBuffers::new(Box::new(LocalBackend::new(hw)), Encoding::Mu255, 1, 32_768);
        bufs.add_recorder();
        bufs.write_play(ATime::new(500), &[0x42; 300], false, 0, true);
        run(&mut bufs, &clock, 2400);
        let heard = bufs.read_rec(ATime::new(500), 300);
        assert_eq!(heard, vec![0x42; 300]);
    }

    #[test]
    fn no_stale_replay_after_full_wrap() {
        let (mut bufs, clock, capture) = codec_buffers();
        bufs.write_play(ATime::new(1000), &[0x55; 100], false, 0, true);
        // Run far past one full server buffer (32768 + slack).
        run(&mut bufs, &clock, 70_000);
        let cap = capture.lock().unwrap();
        assert_eq!(&cap[1000..1100], &[0x55; 100][..]);
        // The same ring slots, one buffer later, must be silence.
        let later = 1000 + 32_768;
        assert!(
            cap[later..later + 100].iter().all(|&b| b == ULAW_SIL),
            "stale data replayed after wrap"
        );
    }

    /// A bus sealing every frame, with room for a whole test run.
    fn frame_bus() -> BroadcastBus {
        let cfg = BroadcastConfig {
            chunk_frames: 1,
            ring_chunks: 8192,
            ..BroadcastConfig::default()
        };
        BroadcastBus::new(cfg, 1, ULAW_SIL)
    }

    /// Everything the device's bus has sealed, as one stream.
    fn bus_stream(bufs: &mut DeviceBuffers) -> Vec<u8> {
        let mut chunks = std::collections::VecDeque::new();
        let bus = bufs.bus_mut().unwrap();
        bus.fetch_batch(0, usize::MAX, &mut chunks);
        chunks.iter().flat_map(|c| c.payload().to_vec()).collect()
    }

    #[test]
    fn bus_mirrors_speaker_bus_bit_exactly() {
        let (mut bufs, clock, capture) = codec_buffers();
        bufs.set_bus(frame_bus());
        bufs.write_play(ATime::new(1000), &[0x21; 500], false, 0, true);
        bufs.write_play(ATime::new(1800), &[0x42; 200], false, 0, true);
        run(&mut bufs, &clock, 3200);
        let tap = bus_stream(&mut bufs);
        let cap = capture.lock().unwrap();
        assert!(tap.len() >= 3200, "tap covered {} frames", tap.len());
        // The bus's contiguous stream starts at device time 0 and matches
        // the hardware capture byte for byte: data where data played,
        // silence everywhere else.  The bus runs up to `hw_lead` frames
        // ahead of the hardware (it sees bytes when the update writes
        // them), so compare the overlap.
        let n = tap.len().min(cap.len());
        assert!(n >= 3200);
        assert_eq!(&tap[..n], &cap[..n]);
        assert_eq!(&tap[1000..1500], &[0x21; 500][..]);
        assert_eq!(&tap[1800..2000], &[0x42; 200][..]);
    }

    #[test]
    fn bus_hears_silence_when_output_disabled() {
        let (mut bufs, clock, _capture) = codec_buffers();
        bufs.set_bus(frame_bus());
        bufs.write_play(ATime::new(100), &[0x21; 100], false, 0, false);
        clock.advance(800);
        bufs.update(0, false);
        clock.advance(800);
        bufs.update(0, false);
        let tap = bus_stream(&mut bufs);
        assert!(tap.len() >= 1600);
        assert!(tap.iter().all(|&b| b == ULAW_SIL));
    }

    #[test]
    fn play_room_tracks_horizon() {
        let (mut bufs, clock, _c) = codec_buffers();
        assert_eq!(bufs.play_room(ATime::ZERO), 32_768);
        clock.advance(1000);
        // Starting in the past: room measured from now.
        assert_eq!(bufs.play_room(ATime::ZERO), 32_768);
        assert_eq!(bufs.play_room(ATime::new(2000)), 32_768 - 1000);
    }
}
