//! The virtual audio device: rings + clock + endpoints.
//!
//! On LoFi, interrupt routines ran once per sample: write the play sample
//! from the ring to the CODEC, backfill the ring with silence, read the
//! CODEC into the record ring, increment the time counter (§7.4.1).  A
//! software simulation cannot take an interrupt per sample, so
//! [`VirtualAudioHw::service`] performs the same work in batches: each call
//! catches the rings up to the current clock reading.  The server's periodic
//! update task calls it, exactly as its update task kept the DSP buffers
//! consistent.

use crate::clock::SharedClock;
use crate::io::{SampleSink, SampleSource};
use crate::ring::HwRing;
use af_dsp::{silence, Encoding};
use af_time::ATime;

/// Static description of a virtual device's format.
#[derive(Clone, Copy, Debug)]
pub struct HwConfig {
    /// Native sample encoding of the rings.
    pub encoding: Encoding,
    /// Nominal sample rate in Hz.
    pub rate: u32,
    /// Interleaved channels per frame.
    pub channels: u8,
    /// Ring capacity in frames; must be a power of two.
    pub ring_frames: u32,
}

impl HwConfig {
    /// The LoFi CODEC configuration: 8 kHz µ-law mono, 1024-sample rings.
    pub fn codec() -> HwConfig {
        HwConfig {
            encoding: Encoding::Mu255,
            rate: 8000,
            channels: 1,
            ring_frames: 1024,
        }
    }

    /// The LoFi HiFi configuration: 44.1 kHz 16-bit stereo, 4096-sample
    /// rings.
    pub fn hifi() -> HwConfig {
        HwConfig {
            encoding: Encoding::Lin16,
            rate: 44_100,
            channels: 2,
            ring_frames: 4096,
        }
    }

    /// Bytes per frame (one sample across all channels).
    pub fn frame_bytes(&self) -> usize {
        self.encoding.bytes_for_samples(1) * self.channels as usize
    }

    /// The byte representing silence in the native encoding.
    pub fn silence_byte(&self) -> u8 {
        silence::silence_byte(self.encoding).unwrap_or(0)
    }
}

/// A simulated audio device: hardware rings serviced against a clock.
pub struct VirtualAudioHw {
    cfg: HwConfig,
    clock: SharedClock,
    play_ring: HwRing,
    rec_ring: HwRing,
    played_until: ATime,
    recorded_until: ATime,
    sink: Box<dyn SampleSink>,
    source: Box<dyn SampleSource>,
    /// One ring's worth of bytes: where `service` stages what passes
    /// between a ring and an endpoint, so servicing allocates nothing.
    staging: Vec<u8>,
    /// Frames skipped because `service` ran later than one ring length.
    pub xrun_frames: u64,
}

impl VirtualAudioHw {
    /// Creates a device over `clock` with the given endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `clock`'s nominal rate is not `cfg.rate`: the clock is
    /// the device's oscillator.
    pub fn new(
        cfg: HwConfig,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
    ) -> VirtualAudioHw {
        assert_eq!(
            clock.nominal_rate(),
            cfg.rate,
            "the device's clock must tick at its rate"
        );
        let fill = cfg.silence_byte();
        let now = clock.now();
        VirtualAudioHw {
            play_ring: HwRing::new(cfg.ring_frames, cfg.frame_bytes(), fill),
            rec_ring: HwRing::new(cfg.ring_frames, cfg.frame_bytes(), fill),
            cfg,
            clock,
            played_until: now,
            recorded_until: now,
            sink,
            source,
            staging: vec![0u8; cfg.ring_frames as usize * cfg.frame_bytes()],
            xrun_frames: 0,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// The current device time (the hardware time counter).
    pub fn now(&self) -> ATime {
        self.clock.now()
    }

    /// The device clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Catches the hardware up to the current clock reading.
    ///
    /// Consumes play-ring frames into the sink (backfilling silence, as the
    /// firmware does), fills record-ring frames from the source, and returns
    /// the device time the hardware is now consistent through.
    pub fn service(&mut self) -> ATime {
        let now = self.clock.now();
        self.service_play(now);
        self.service_record(now);
        now
    }

    fn service_play(&mut self, now: ATime) {
        let mut span = now - self.played_until;
        if span <= 0 {
            return;
        }
        if span as u32 > self.cfg.ring_frames {
            // Ran too late: the ring was lapped.  Skip ahead; the skipped
            // interval is unrecoverable, as on real hardware.
            let skipped = span as u32 - self.cfg.ring_frames;
            self.xrun_frames += u64::from(skipped);
            self.played_until += skipped;
            span = self.cfg.ring_frames as i32;
        }
        let buf = &mut self.staging[..span as usize * self.cfg.frame_bytes()];
        self.play_ring.read_at(self.played_until, buf);
        self.sink.consume(self.played_until, buf);
        // Backfill with silence so stale data never replays.
        self.play_ring
            .fill_at(self.played_until, span as u32, self.cfg.silence_byte());
        self.played_until = now;
    }

    fn service_record(&mut self, now: ATime) {
        let mut span = now - self.recorded_until;
        if span <= 0 {
            return;
        }
        if span as u32 > self.cfg.ring_frames {
            let skipped = span as u32 - self.cfg.ring_frames;
            self.xrun_frames += u64::from(skipped);
            self.recorded_until += skipped;
            span = self.cfg.ring_frames as i32;
        }
        let buf = &mut self.staging[..span as usize * self.cfg.frame_bytes()];
        self.source.fill(self.recorded_until, buf);
        self.rec_ring.write_at(self.recorded_until, buf);
        self.recorded_until = now;
    }

    /// Device time through which recorded data is available.
    pub fn recorded_until(&self) -> ATime {
        self.recorded_until
    }

    /// Device time through which play data has been consumed; writes at or
    /// before this time are lost.
    pub fn played_until(&self) -> ATime {
        self.played_until
    }

    /// Writes play data into the hardware ring at `time` (whole frames).
    ///
    /// The caller (the server's update task or write-through path) is
    /// responsible for writing only within the ring's future window; writes
    /// wholly in the consumed past are dropped here as a safety net.
    pub fn write_play(&mut self, time: ATime, data: &[u8]) {
        let fb = self.cfg.frame_bytes();
        debug_assert_eq!(data.len() % fb, 0);
        let nframes = (data.len() / fb) as i32;
        let behind = self.played_until - time;
        if behind >= nframes {
            return; // Entirely consumed already.
        }
        if behind > 0 {
            // Clip the already-consumed prefix.
            let skip = behind as usize * fb;
            self.play_ring.write_at(self.played_until, &data[skip..]);
        } else {
            self.play_ring.write_at(time, data);
        }
    }

    /// Reads recorded data from the hardware ring at `time` (whole frames).
    pub fn read_rec(&self, time: ATime, out: &mut [u8]) {
        debug_assert_eq!(out.len() % self.cfg.frame_bytes(), 0);
        self.rec_ring.read_at(time, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::io::{CaptureSink, SilenceSource, ToneSource};
    use std::sync::Arc;

    fn virtual_codec() -> (VirtualAudioHw, Arc<VirtualClock>, crate::io::CaptureBuffer) {
        let clock = Arc::new(VirtualClock::new(8000));
        let (sink, capture) = CaptureSink::new(1 << 20);
        let hw = VirtualAudioHw::new(
            HwConfig::codec(),
            clock.clone(),
            Box::new(sink),
            Box::new(SilenceSource::new(0xFF)),
        );
        (hw, clock, capture)
    }

    #[test]
    #[should_panic(expected = "the device's clock must tick at its rate")]
    fn a_hifi_device_refuses_an_8_khz_clock() {
        VirtualAudioHw::new(
            HwConfig::hifi(),
            Arc::new(VirtualClock::new(8000)),
            Box::new(crate::io::NullSink),
            Box::new(SilenceSource::new(0)),
        );
    }

    #[test]
    fn unwritten_playback_is_silence() {
        let (mut hw, clock, capture) = virtual_codec();
        clock.advance(100);
        hw.service();
        assert_eq!(*capture.lock().unwrap(), vec![0xFF; 100]);
    }

    #[test]
    fn written_playback_reaches_sink_at_right_time() {
        let (mut hw, clock, capture) = virtual_codec();
        // Schedule 10 marked frames at t=50.
        hw.write_play(ATime::new(50), &[0x11; 10]);
        clock.advance(200);
        hw.service();
        let cap = capture.lock().unwrap();
        assert_eq!(cap.len(), 200);
        assert_eq!(&cap[..50], &vec![0xFF; 50][..]);
        assert_eq!(&cap[50..60], &[0x11; 10][..]);
        assert_eq!(&cap[60..], &vec![0xFF; 140][..]);
    }

    #[test]
    fn silence_backfill_prevents_replay() {
        let (mut hw, clock, capture) = virtual_codec();
        hw.write_play(ATime::new(0), &[0x22; 64]);
        clock.advance(64);
        hw.service();
        // One full ring later the same ring slots come around again.
        clock.advance(1024);
        hw.service();
        let cap = capture.lock().unwrap();
        assert_eq!(&cap[..64], &[0x22; 64][..]);
        assert!(cap[64..].iter().all(|&b| b == 0xFF), "stale data replayed");
    }

    #[test]
    fn record_captures_source() {
        let clock = Arc::new(VirtualClock::new(8000));
        let mut hw = VirtualAudioHw::new(
            HwConfig::codec(),
            clock.clone(),
            Box::new(crate::io::NullSink),
            Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
        );
        clock.advance(512);
        hw.service();
        let mut buf = vec![0u8; 512];
        hw.read_rec(ATime::ZERO, &mut buf);
        assert!(buf.iter().any(|&b| b != 0xFF));
        // The recorded tone should measure a sane power.
        let dbm = af_dsp::power::power_dbm_ulaw(&buf);
        assert!(dbm > -20.0, "tone power {dbm}");
    }

    #[test]
    fn late_service_counts_xruns() {
        let (mut hw, clock, capture) = virtual_codec();
        clock.advance(1024 + 500); // Beyond one ring length.
        hw.service();
        // Both the play and the record side skipped 500 frames.
        assert_eq!(hw.xrun_frames, 1000);
        // Only one ring worth of frames was emitted.
        assert_eq!(capture.lock().unwrap().len(), 1024);
        assert_eq!(hw.played_until(), clock.now());
    }

    #[test]
    fn write_play_clips_consumed_prefix() {
        let (mut hw, clock, capture) = virtual_codec();
        clock.advance(100);
        hw.service();
        // Write 20 frames starting in the consumed past at t=90.
        hw.write_play(ATime::new(90), &[0x33; 20]);
        clock.advance(20);
        hw.service();
        let cap = capture.lock().unwrap();
        // Frames 100..110 carry the surviving tail of the write.
        assert_eq!(&cap[100..110], &[0x33; 10][..]);
    }

    #[test]
    fn service_is_idempotent_when_time_is_still() {
        let (mut hw, clock, capture) = virtual_codec();
        clock.advance(10);
        hw.service();
        hw.service();
        hw.service();
        assert_eq!(capture.lock().unwrap().len(), 10);
    }

    #[test]
    fn hifi_frame_bytes() {
        assert_eq!(HwConfig::hifi().frame_bytes(), 4);
        assert_eq!(HwConfig::codec().frame_bytes(), 1);
        assert_eq!(HwConfig::hifi().silence_byte(), 0);
    }
}
