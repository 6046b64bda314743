//! A simulated analog telephone line.
//!
//! LoFi's telephone interface had a line jack, hookswitch relay, ring
//! detection, loop-current detection, and Touch-Tone decoding circuitry
//! (§5.5).  This module simulates the line itself plus that circuitry:
//!
//! * the **server side** controls the hookswitch and reads line state,
//! * the **device side** exposes a [`SampleSink`]/[`SampleSource`] pair the
//!   codec device plugs into when its phone connector is selected,
//! * the **office side** is the test-harness/remote-party view: place a
//!   ringing call, lift the extension phone (loop current), send caller
//!   audio, and hear what the workstation plays.
//!
//! DTMF decoders run on both directions of line audio, so digits dialed by
//! the local client (synthesized tones, §5.5) and digits sent by the remote
//! caller both produce signals — which the server turns into protocol
//! events.

use crate::io::{SampleSink, SampleSource, Wire};
use af_dsp::goertzel::{DtmfDetector, DtmfEvent};
use af_dsp::tables;
use af_time::ATime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Telephone line sample rate: 8 kHz, µ-law.
pub const PHONE_RATE: u32 = 8000;

/// An asynchronous state change on the line, later mapped to a protocol
/// event by the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhoneSignal {
    /// Ring voltage appeared (`true`) or stopped (`false`).
    Ring(bool),
    /// A DTMF key transition was decoded from line audio.
    Dtmf {
        /// The digit character.
        digit: char,
        /// `true` on key-down.
        down: bool,
    },
    /// Loop current started (`true`) or stopped (`false`).
    Loop(bool),
    /// The local hookswitch changed: `true` when off-hook.
    Hook(bool),
}

struct LineState {
    off_hook: bool,
    extension_off_hook: bool,
    ringing: bool,
    signals: VecDeque<PhoneSignal>,
    outgoing_dtmf: DtmfDetector,
    incoming_dtmf: DtmfDetector,
}

impl LineState {
    fn push_dtmf(signals: &mut VecDeque<PhoneSignal>, events: Vec<DtmfEvent>) {
        for e in events {
            let signal = match e {
                DtmfEvent::KeyDown(d) => PhoneSignal::Dtmf {
                    digit: d,
                    down: true,
                },
                DtmfEvent::KeyUp(d) => PhoneSignal::Dtmf {
                    digit: d,
                    down: false,
                },
            };
            signals.push_back(signal);
        }
    }
}

/// A shared simulated telephone line.
///
/// Clone handles freely; all state is shared.
#[derive(Clone)]
pub struct PhoneLine {
    state: Arc<Mutex<LineState>>,
    /// Caller → workstation audio.
    incoming: Wire,
    /// Workstation → caller audio.
    outgoing: Wire,
}

impl Default for PhoneLine {
    fn default() -> Self {
        PhoneLine::new()
    }
}

impl PhoneLine {
    /// Creates an idle line (on-hook, no call).
    pub fn new() -> PhoneLine {
        PhoneLine {
            state: Arc::new(Mutex::new(LineState {
                off_hook: false,
                extension_off_hook: false,
                ringing: false,
                signals: VecDeque::new(),
                outgoing_dtmf: DtmfDetector::new(f64::from(PHONE_RATE)),
                incoming_dtmf: DtmfDetector::new(f64::from(PHONE_RATE)),
            })),
            // One second of line buffering each way.
            incoming: Wire::new(PHONE_RATE as usize, af_dsp::g711::ULAW_SILENCE),
            outgoing: Wire::new(PHONE_RATE as usize, af_dsp::g711::ULAW_SILENCE),
        }
    }

    // ---- Server-side control (maps to protocol requests). ----

    /// Sets the hookswitch (`HookSwitch` request).  Going off-hook answers a
    /// ringing call.
    pub fn set_hook(&self, off_hook: bool) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.off_hook == off_hook {
            return;
        }
        s.off_hook = off_hook;
        s.signals.push_back(PhoneSignal::Hook(off_hook));
        if off_hook && s.ringing {
            s.ringing = false;
            s.signals.push_back(PhoneSignal::Ring(false));
        }
    }

    /// Flashes the hookswitch (`FlashHook` request): a momentary on-hook.
    pub fn flash_hook(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.off_hook {
            s.signals.push_back(PhoneSignal::Hook(false));
            s.signals.push_back(PhoneSignal::Hook(true));
        }
    }

    /// Line state for `QueryPhone`: `(off_hook, loop_current, ringing)`.
    pub fn query(&self) -> (bool, bool, bool) {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (s.off_hook, s.extension_off_hook, s.ringing)
    }

    /// Drains pending signals (the DDA's `ProcessInputEvents`).
    pub fn poll_signals(&self) -> Vec<PhoneSignal> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .signals
            .drain(..)
            .collect()
    }

    // ---- Device-side endpoints. ----

    /// The sink the codec plugs its phone output connector into.
    pub fn line_sink(&self) -> PhoneLineSink {
        PhoneLineSink { line: self.clone() }
    }

    /// The source the codec plugs its phone input connector into.
    pub fn line_source(&self) -> PhoneLineSource {
        PhoneLineSource { line: self.clone() }
    }

    // ---- Office / remote-party side (test harness & examples). ----

    /// Starts or stops ring voltage (an incoming call).  Ringing while
    /// off-hook is ignored, as a real CO would not ring a busy line.
    pub fn office_ring(&self, ringing: bool) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.off_hook && ringing {
            return;
        }
        if s.ringing != ringing {
            s.ringing = ringing;
            s.signals.push_back(PhoneSignal::Ring(ringing));
        }
    }

    /// Lifts or replaces the extension phone sharing the line (loop
    /// current).
    pub fn extension_hook(&self, off_hook: bool) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.extension_off_hook != off_hook {
            s.extension_off_hook = off_hook;
            s.signals.push_back(PhoneSignal::Loop(off_hook));
        }
    }

    /// Injects caller audio (µ-law bytes) toward the workstation, running
    /// the incoming DTMF decoder over it.
    pub fn office_send(&self, ulaw: &[u8]) {
        self.incoming.push(ulaw);
        let pcm: Vec<i16> = ulaw.iter().map(|&b| tables::exp_u()[b as usize]).collect();
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let events = s.incoming_dtmf.feed(&pcm);
        LineState::push_dtmf(&mut s.signals, events);
    }

    /// Reads up to `n` bytes of audio the workstation played to the line.
    pub fn office_recv(&self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.outgoing.pop(&mut out);
        out
    }

    /// Bytes of workstation audio waiting on the line.
    pub fn office_pending(&self) -> usize {
        self.outgoing.queued()
    }
}

/// The workstation→line endpoint: what the codec "plays into the phone".
pub struct PhoneLineSink {
    line: PhoneLine,
}

impl SampleSink for PhoneLineSink {
    fn consume(&mut self, _time: ATime, data: &[u8]) {
        let mut s = self
            .line
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !s.off_hook {
            // On-hook: the relay is open; nothing reaches the line.
            return;
        }
        let pcm: Vec<i16> = data.iter().map(|&b| tables::exp_u()[b as usize]).collect();
        let events = s.outgoing_dtmf.feed(&pcm);
        LineState::push_dtmf(&mut s.signals, events);
        drop(s);
        self.line.outgoing.push(data);
    }
}

/// The line→workstation endpoint: what the codec "records from the phone".
pub struct PhoneLineSource {
    line: PhoneLine,
}

impl SampleSource for PhoneLineSource {
    fn fill(&mut self, _time: ATime, out: &mut [u8]) {
        let off_hook = self
            .line
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .off_hook;
        if off_hook {
            self.line.incoming.pop(out);
        } else {
            out.fill(af_dsp::g711::ULAW_SILENCE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_dsp::telephony::dtmf_for_digit;
    use af_dsp::tone::tone_pair;

    fn dtmf_ulaw(digit: char, ms: u32) -> Vec<u8> {
        let def = dtmf_for_digit(digit).unwrap();
        tone_pair(def.spec, 8000.0, (8 * ms) as usize, 16)
    }

    #[test]
    fn ring_answer_sequence() {
        let line = PhoneLine::new();
        line.office_ring(true);
        assert_eq!(line.poll_signals(), vec![PhoneSignal::Ring(true)]);
        assert_eq!(line.query(), (false, false, true));

        line.set_hook(true); // Answer.
        assert_eq!(
            line.poll_signals(),
            vec![PhoneSignal::Hook(true), PhoneSignal::Ring(false)]
        );
        assert_eq!(line.query(), (true, false, false));

        line.set_hook(false); // Hang up.
        assert_eq!(line.poll_signals(), vec![PhoneSignal::Hook(false)]);
    }

    #[test]
    fn ringing_ignored_while_off_hook() {
        let line = PhoneLine::new();
        line.set_hook(true);
        line.poll_signals();
        line.office_ring(true);
        assert!(line.poll_signals().is_empty());
        assert!(!line.query().2);
    }

    #[test]
    fn loop_current_tracks_extension() {
        let line = PhoneLine::new();
        line.extension_hook(true);
        line.extension_hook(true); // No duplicate signal.
        assert_eq!(line.poll_signals(), vec![PhoneSignal::Loop(true)]);
        line.extension_hook(false);
        assert_eq!(line.poll_signals(), vec![PhoneSignal::Loop(false)]);
    }

    #[test]
    fn audio_flows_only_off_hook() {
        let line = PhoneLine::new();
        let mut sink = line.line_sink();
        let mut source = line.line_source();

        // On-hook: nothing passes either way.
        sink.consume(ATime::ZERO, &[0x11; 16]);
        assert_eq!(line.office_pending(), 0);
        line.office_send(&[0x22; 16]);
        let mut buf = [0u8; 16];
        source.fill(ATime::ZERO, &mut buf);
        assert_eq!(buf, [af_dsp::g711::ULAW_SILENCE; 16]);

        // Off-hook: both directions pass.
        line.set_hook(true);
        sink.consume(ATime::ZERO, &[0x11; 16]);
        assert_eq!(line.office_recv(16), vec![0x11; 16]);
        line.office_send(&[0x33; 8]);
        let mut buf2 = [0u8; 8];
        source.fill(ATime::ZERO, &mut buf2);
        // The earlier on-hook office_send bytes were queued on the wire;
        // the line buffers while we were on-hook (voice mail would hear
        // them), so the first 8 are the 0x22 bytes.
        assert_eq!(buf2, [0x22; 8]);
    }

    #[test]
    fn outgoing_dtmf_detected() {
        // A client dialing "42" by playing tones to the line produces
        // decoded digit signals.
        let line = PhoneLine::new();
        line.set_hook(true);
        line.poll_signals();
        let mut sink = line.line_sink();
        for d in ['4', '2'] {
            sink.consume(ATime::ZERO, &dtmf_ulaw(d, 60));
            sink.consume(ATime::ZERO, &vec![af_dsp::g711::ULAW_SILENCE; 480]);
        }
        let digits: Vec<char> = line
            .poll_signals()
            .into_iter()
            .filter_map(|s| match s {
                PhoneSignal::Dtmf { digit, down: true } => Some(digit),
                _ => None,
            })
            .collect();
        assert_eq!(digits, vec!['4', '2']);
    }

    #[test]
    fn incoming_dtmf_detected() {
        // A remote caller pressing '7' is decoded even before we answer
        // (the detector watches the line, like LoFi's hardware decoder).
        let line = PhoneLine::new();
        line.office_send(&dtmf_ulaw('7', 60));
        line.office_send(&vec![af_dsp::g711::ULAW_SILENCE; 480]);
        let signals = line.poll_signals();
        assert!(signals.contains(&PhoneSignal::Dtmf {
            digit: '7',
            down: true
        }));
    }

    #[test]
    fn flash_hook_pulses() {
        let line = PhoneLine::new();
        line.flash_hook(); // On-hook: no effect.
        assert!(line.poll_signals().is_empty());
        line.set_hook(true);
        line.poll_signals();
        line.flash_hook();
        assert_eq!(
            line.poll_signals(),
            vec![PhoneSignal::Hook(false), PhoneSignal::Hook(true)]
        );
    }
}
