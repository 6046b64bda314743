//! Simulated audio hardware for the AudioFile server.
//!
//! The paper's servers drove real devices: the LoFi TURBOchannel module
//! (whose DSP56001 firmware kept small circular play/record buffers and a
//! per-device sample counter in shared memory, §7.4.1), base-board CODECs
//! behind kernel drivers (§7.4.2), and the detached LineServer Ethernet
//! peripheral (§7.4.3).  None of that hardware exists here, so this crate
//! provides faithful software stand-ins that expose the *same abstraction
//! the firmware exported*: circular hardware buffers indexed by a sample
//! clock.
//!
//! * [`clock`] — the sample clock: real-time ([`SystemClock`]) or manually
//!   advanced ([`VirtualClock`]), both with configurable ppm rate error so
//!   clock-drift behaviour (which `apass` must handle, §8.3) is reproducible.
//! * [`ring`] — time-indexed circular sample buffers (the DSP's 1024-sample
//!   CODEC and 4096-sample HiFi rings).
//! * [`hardware`] — [`VirtualAudioHw`]: the "firmware interrupt routine" as
//!   a catch-up task, moving samples between rings and pluggable
//!   sources/sinks.
//! * [`io`] — sample sources and sinks: silence, tones, captures, and
//!   cross-device wires for loopback and teleconferencing experiments.
//! * [`file_io`] — file-backed endpoints: capture the speaker to a file,
//!   feed the microphone from one.
//! * [`phone`] — a simulated analog telephone line with ring cadence, loop
//!   current, hookswitch, and an in-line DTMF decoder.
//! * [`lineserver`] — the LineServer's UDP wire protocol and a firmware
//!   task speaking it over a real socket.
//! * [`fec`] — forward error correction for the LineServer's UDP audio
//!   path: GF(256) parity groups (shard 0 is plain XOR) with CRC framing.
//! * [`jitter`] — the adaptive jitter buffer the Als backend plays
//!   recorded audio through when the link crosses a lossy WAN.
//! * [`stats`] — the typed counter families every stats reader walks: the
//!   server's, the reactor's, the broadcast bus's and each link's.

pub mod clock;
pub mod fec;
pub mod file_io;
pub mod hardware;
pub mod io;
pub mod jitter;
pub mod lineserver;
pub mod phone;
pub mod ring;
pub mod stats;

pub use clock::{Clock, SharedClock, SystemClock, VirtualClock};
pub use fec::{FecConfig, FecDecoder, FecEncoder, FecFrame};
pub use file_io::{FileSink, FileSource};
pub use jitter::JitterBuffer;
pub use hardware::VirtualAudioHw;
pub use io::{CaptureSink, NullSink, SampleSink, SampleSource, SilenceSource, ToneSource, Wire};
pub use phone::{PhoneLine, PhoneSignal};
pub use ring::HwRing;
