//! Sample sources and sinks — where device audio comes from and goes to.
//!
//! Real hardware converts between samples and sound; the simulation
//! converts between samples and pluggable endpoints.  Sinks receive what
//! the device "plays" (a loudspeaker stand-in), sources supply what it
//! "records" (a microphone stand-in).  [`Wire`] connects a sink to a source
//! so that audio played on one device is recorded by another — the shape of
//! the LoFi pass-through path and of every loopback experiment in §10.

use af_time::ATime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Consumes samples the device plays.
pub trait SampleSink: Send {
    /// Receives `data` played starting at device time `time`.
    fn consume(&mut self, time: ATime, data: &[u8]);
}

/// Supplies samples the device records.
pub trait SampleSource: Send {
    /// Fills `out` with input starting at device time `time`.
    fn fill(&mut self, time: ATime, out: &mut [u8]);
}

/// A sink that discards everything (an unplugged speaker).
#[derive(Debug, Default)]
pub struct NullSink;

impl SampleSink for NullSink {
    fn consume(&mut self, _time: ATime, _data: &[u8]) {}
}

/// A source that produces constant silence (an unplugged microphone).
#[derive(Debug)]
pub struct SilenceSource {
    silence: u8,
}

impl SilenceSource {
    /// Creates a source emitting the given silence byte.
    pub fn new(silence: u8) -> SilenceSource {
        SilenceSource { silence }
    }
}

impl SampleSource for SilenceSource {
    fn fill(&mut self, _time: ATime, out: &mut [u8]) {
        out.fill(self.silence);
    }
}

/// Shared capture storage written by a [`CaptureSink`].
pub type CaptureBuffer = Arc<Mutex<Vec<u8>>>;

/// A sink that appends everything played to a shared buffer, up to a cap.
///
/// Tests and examples read the buffer to assert on what "came out of the
/// loudspeaker".
pub struct CaptureSink {
    buffer: CaptureBuffer,
    max_bytes: usize,
    first_time: Option<ATime>,
}

impl CaptureSink {
    /// Creates a capture sink and returns it with its shared buffer.
    pub fn new(max_bytes: usize) -> (CaptureSink, CaptureBuffer) {
        let buffer: CaptureBuffer = Arc::default();
        (
            CaptureSink {
                buffer: Arc::clone(&buffer),
                max_bytes,
                first_time: None,
            },
            buffer,
        )
    }

    /// Device time of the first captured byte, if any.
    pub fn first_time(&self) -> Option<ATime> {
        self.first_time
    }
}

impl SampleSink for CaptureSink {
    fn consume(&mut self, time: ATime, data: &[u8]) {
        if self.first_time.is_none() && !data.is_empty() {
            self.first_time = Some(time);
        }
        let mut buf = self.buffer.lock().unwrap_or_else(PoisonError::into_inner);
        let room = self.max_bytes.saturating_sub(buf.len());
        buf.extend_from_slice(&data[..data.len().min(room)]);
    }
}

/// A source that synthesizes a sine tone in µ-law or 16-bit linear.
pub struct ToneSource {
    osc: af_dsp::tone::Oscillator,
    ulaw: bool,
}

impl ToneSource {
    /// A µ-law tone source (one byte per sample).
    pub fn ulaw(freq: f64, sample_rate: f64, peak: f32) -> ToneSource {
        ToneSource {
            osc: af_dsp::tone::Oscillator::new(freq, sample_rate, peak),
            ulaw: true,
        }
    }

    /// A 16-bit linear little-endian tone source (two bytes per sample).
    pub fn lin16(freq: f64, sample_rate: f64, peak: f32) -> ToneSource {
        ToneSource {
            osc: af_dsp::tone::Oscillator::new(freq, sample_rate, peak),
            ulaw: false,
        }
    }
}

impl SampleSource for ToneSource {
    fn fill(&mut self, _time: ATime, out: &mut [u8]) {
        if self.ulaw {
            for b in out.iter_mut() {
                let v = self.osc.next_sample().clamp(-32_768.0, 32_767.0) as i16;
                *b = af_dsp::g711::linear_to_ulaw(v);
            }
        } else {
            for pair in out.chunks_exact_mut(2) {
                let v = self.osc.next_sample().clamp(-32_768.0, 32_767.0) as i16;
                pair.copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// A byte FIFO connecting one device's output to another device's input.
///
/// The playing side's sink end pushes; the recording side's source end pops,
/// padding with the silence byte when the queue runs dry (as a real analog
/// link is silent when nobody talks).  Clone the wire to hand one end to
/// each device.
#[derive(Clone)]
pub struct Wire {
    inner: Arc<Mutex<WireInner>>,
}

struct WireInner {
    queue: VecDeque<u8>,
    silence: u8,
    max_bytes: usize,
    /// Total bytes ever dropped because the queue was full.
    overruns: u64,
    /// Total bytes padded because the queue was empty.
    underruns: u64,
}

impl Wire {
    /// Creates a wire buffering at most `max_bytes`, padding with `silence`.
    pub fn new(max_bytes: usize, silence: u8) -> Wire {
        Wire {
            inner: Arc::new(Mutex::new(WireInner {
                queue: VecDeque::new(),
                silence,
                max_bytes,
                overruns: 0,
                underruns: 0,
            })),
        }
    }

    /// A sink that feeds this wire.
    pub fn sink(&self) -> WireSink {
        WireSink { wire: self.clone() }
    }

    /// A source that drains this wire.
    pub fn source(&self) -> WireSource {
        WireSource { wire: self.clone() }
    }

    /// Queued bytes.
    pub fn queued(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// `(overrun_bytes, underrun_bytes)` counters.
    pub fn stats(&self) -> (u64, u64) {
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (g.overruns, g.underruns)
    }

    /// Pushes bytes directly (for tests and phone-line injection).
    pub fn push(&self, data: &[u8]) {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let room = g.max_bytes.saturating_sub(g.queue.len());
        let take = data.len().min(room);
        g.queue.extend(&data[..take]);
        g.overruns += (data.len() - take) as u64;
    }

    /// Pops bytes directly, padding with silence.
    pub fn pop(&self, out: &mut [u8]) {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        for b in out.iter_mut() {
            match g.queue.pop_front() {
                Some(v) => *b = v,
                None => {
                    *b = g.silence;
                    g.underruns += 1;
                }
            }
        }
    }
}

/// The feeding end of a [`Wire`].
pub struct WireSink {
    wire: Wire,
}

impl SampleSink for WireSink {
    fn consume(&mut self, _time: ATime, data: &[u8]) {
        self.wire.push(data);
    }
}

/// The draining end of a [`Wire`].
pub struct WireSource {
    wire: Wire,
}

impl SampleSource for WireSource {
    fn fill(&mut self, _time: ATime, out: &mut [u8]) {
        self.wire.pop(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_sink_records_and_caps() {
        let (mut sink, buf) = CaptureSink::new(8);
        sink.consume(ATime::new(5), &[1, 2, 3, 4, 5, 6]);
        sink.consume(ATime::new(11), &[7, 8, 9, 10]);
        assert_eq!(*buf.lock().unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(sink.first_time(), Some(ATime::new(5)));
    }

    #[test]
    fn silence_source_fills() {
        let mut s = SilenceSource::new(0xFF);
        let mut out = [0u8; 4];
        s.fill(ATime::ZERO, &mut out);
        assert_eq!(out, [0xFF; 4]);
    }

    #[test]
    fn tone_source_ulaw_nonsilent() {
        let mut s = ToneSource::ulaw(440.0, 8000.0, 10_000.0);
        let mut out = [0u8; 256];
        s.fill(ATime::ZERO, &mut out);
        assert!(out.iter().any(|&b| b != af_dsp::g711::ULAW_SILENCE));
    }

    #[test]
    fn wire_passes_bytes_in_order() {
        let w = Wire::new(64, 0xFF);
        let mut sink = w.sink();
        let mut source = w.source();
        sink.consume(ATime::ZERO, &[1, 2, 3]);
        let mut out = [0u8; 5];
        source.fill(ATime::ZERO, &mut out);
        // Underruns padded with silence.
        assert_eq!(out, [1, 2, 3, 0xFF, 0xFF]);
        assert_eq!(w.stats(), (0, 2));
    }

    #[test]
    fn wire_overrun_drops_and_counts() {
        let w = Wire::new(4, 0);
        w.push(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(w.queued(), 4);
        assert_eq!(w.stats().0, 2);
        let mut out = [0u8; 4];
        w.pop(&mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }
}
