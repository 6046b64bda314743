//! Time-indexed circular sample buffers.
//!
//! The DSP firmware kept circular play and record buffers in shared memory,
//! addressed by the low bits of the device time counter (§7.4.1: 1024
//! samples per CODEC buffer, 4096 per HiFi channel).  [`HwRing`] is that
//! structure: a byte buffer holding `frames` frames of `frame_bytes` each,
//! where frame *f* of device time *t* lives at `(t mod frames) *
//! frame_bytes`.
//!
//! The ring does no validity tracking — like real hardware memory, reading
//! a region that was never written returns whatever is there (initially
//! silence).  Consistency windows are the *server's* job (§7.2).

use af_time::ATime;

/// A circular buffer of sample frames indexed by device time.
#[derive(Clone, Debug)]
pub struct HwRing {
    data: Vec<u8>,
    frames: u32,
    frame_bytes: usize,
}

impl HwRing {
    /// Creates a ring of `frames` frames, filled with `fill` (the encoding's
    /// silence byte).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero, not a power of two (the DSP's circular
    /// addressing modes require powers of two), or `frame_bytes` is zero.
    pub fn new(frames: u32, frame_bytes: usize, fill: u8) -> HwRing {
        assert!(frames > 0, "ring must hold at least one frame");
        assert!(
            frames.is_power_of_two(),
            "circular addressing requires a power-of-two size"
        );
        assert!(frame_bytes > 0, "frames must be at least one byte");
        HwRing {
            data: vec![fill; frames as usize * frame_bytes],
            frames,
            frame_bytes,
        }
    }

    /// Capacity in frames.
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Bytes per frame.
    pub fn frame_bytes(&self) -> usize {
        self.frame_bytes
    }

    #[expect(clippy::disallowed_methods, reason = "indexes a ring by raw time")]
    fn offset(&self, time: ATime) -> usize {
        (time.ticks() & (self.frames - 1)) as usize * self.frame_bytes
    }

    /// Writes whole frames starting at device time `time`.
    ///
    /// Writing more than the ring holds is allowed; earlier bytes are simply
    /// overwritten by later ones, as on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of frames.
    pub fn write_at(&mut self, time: ATime, data: &[u8]) {
        assert_eq!(data.len() % self.frame_bytes, 0, "partial frame write");
        let mut off = self.offset(time);
        let mut src = data;
        while !src.is_empty() {
            let run = (self.data.len() - off).min(src.len());
            self.data[off..off + run].copy_from_slice(&src[..run]);
            src = &src[run..];
            off = 0;
        }
    }

    /// Reads whole frames starting at device time `time` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a whole number of frames.
    pub fn read_at(&self, time: ATime, out: &mut [u8]) {
        assert_eq!(out.len() % self.frame_bytes, 0, "partial frame read");
        let mut off = self.offset(time);
        let mut dst = &mut out[..];
        while !dst.is_empty() {
            let run = (self.data.len() - off).min(dst.len());
            dst[..run].copy_from_slice(&self.data[off..off + run]);
            dst = &mut dst[run..];
            off = 0;
        }
    }

    /// Appends `nframes` frames starting at device time `time` to `out`:
    /// [`HwRing::read_at`] for a caller that has not made room yet, so the
    /// bytes are written once.
    pub fn append_to(&self, time: ATime, nframes: u32, out: &mut Vec<u8>) {
        let mut off = self.offset(time);
        let mut remaining = nframes as usize * self.frame_bytes;
        while remaining > 0 {
            let run = (self.data.len() - off).min(remaining);
            out.extend_from_slice(&self.data[off..off + run]);
            remaining -= run;
            off = 0;
        }
    }

    /// Fills `nframes` frames starting at `time` with the byte `fill`.
    pub fn fill_at(&mut self, time: ATime, nframes: u32, fill: u8) {
        let nframes = nframes.min(self.frames);
        let mut off = self.offset(time);
        let mut remaining = nframes as usize * self.frame_bytes;
        while remaining > 0 {
            let run = (self.data.len() - off).min(remaining);
            self.data[off..off + run].fill(fill);
            remaining -= run;
            off = 0;
        }
    }

    /// Processes `nframes` frames starting at `time` in place.
    ///
    /// The callback receives each contiguous chunk (the span may wrap once).
    pub fn with_frames_mut<F: FnMut(&mut [u8])>(&mut self, time: ATime, nframes: u32, mut f: F) {
        let nframes = nframes.min(self.frames);
        let mut off = self.offset(time);
        let mut remaining = nframes as usize * self.frame_bytes;
        while remaining > 0 {
            let run = (self.data.len() - off).min(remaining);
            f(&mut self.data[off..off + run]);
            remaining -= run;
            off = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_identity() {
        let mut r = HwRing::new(16, 1, 0xFF);
        let data = [1u8, 2, 3, 4, 5];
        r.write_at(ATime::new(3), &data);
        let mut out = [0u8; 5];
        r.read_at(ATime::new(3), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn wrap_around_boundary() {
        let mut r = HwRing::new(8, 2, 0);
        let data: Vec<u8> = (0..12).collect(); // 6 frames from frame 6: wraps.
        r.write_at(ATime::new(6), &data);
        let mut out = vec![0u8; 12];
        r.read_at(ATime::new(6), &mut out);
        assert_eq!(out, data);
        // The append form reads the same bytes, after what is there.
        let mut appended = vec![0xEE];
        r.append_to(ATime::new(6), 6, &mut appended);
        assert_eq!(appended[0], 0xEE);
        assert_eq!(appended[1..], data);
        // Frame 6 sits at offset 12, frame 8 wrapped to offset 0.
        let mut head = vec![0u8; 2];
        r.read_at(ATime::new(8), &mut head);
        assert_eq!(head, vec![4, 5]);
    }

    #[test]
    fn time_wrap_at_u32_max() {
        let mut r = HwRing::new(1024, 1, 0xFF);
        let t = ATime::new(u32::MAX - 2);
        r.write_at(t, &[7u8; 6]);
        let mut out = [0u8; 6];
        r.read_at(t, &mut out);
        assert_eq!(out, [7u8; 6]);
    }

    #[test]
    fn initial_fill_is_silence() {
        let r = HwRing::new(4, 1, 0xFF);
        let mut out = [0u8; 4];
        r.read_at(ATime::ZERO, &mut out);
        assert_eq!(out, [0xFF; 4]);
    }

    #[test]
    fn fill_at_wraps() {
        let mut r = HwRing::new(8, 1, 0);
        r.write_at(ATime::ZERO, &[9u8; 8]);
        r.fill_at(ATime::new(6), 4, 0xAA);
        let mut out = [0u8; 8];
        r.read_at(ATime::ZERO, &mut out);
        assert_eq!(out, [0xAA, 0xAA, 9, 9, 9, 9, 0xAA, 0xAA]);
    }

    #[test]
    fn oversized_write_keeps_tail() {
        let mut r = HwRing::new(4, 1, 0);
        let data: Vec<u8> = (1..=6).collect();
        r.write_at(ATime::ZERO, &data);
        // Frames 4,5 overwrote frames 0,1.
        let mut out = [0u8; 4];
        r.read_at(ATime::new(4), &mut out);
        assert_eq!(out, [5, 6, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let _ = HwRing::new(12, 1, 0);
    }

    #[test]
    #[should_panic(expected = "partial frame")]
    fn partial_frame_rejected() {
        let mut r = HwRing::new(8, 4, 0);
        r.write_at(ATime::ZERO, &[1, 2, 3]);
    }

    #[test]
    fn with_frames_mut_visits_all() {
        let mut r = HwRing::new(8, 1, 0);
        let mut seen = 0;
        r.with_frames_mut(ATime::new(5), 6, |chunk| {
            for b in chunk.iter_mut() {
                *b = 1;
            }
            seen += chunk.len();
        });
        assert_eq!(seen, 6);
        let mut out = [0u8; 8];
        r.read_at(ATime::ZERO, &mut out);
        assert_eq!(out.iter().map(|&b| b as usize).sum::<usize>(), 6);
    }
}
