//! Signal-processing substrate for the AudioFile system.
//!
//! This crate is the Rust counterpart of the paper's client utility library
//! tables and procedures (§6.2) plus the sample-format machinery the server's
//! conversion modules need (§2.2, §5.4):
//!
//! * [`encoding`] — the audio sample encodings of Table 2 and the
//!   `AF_sample_sizes` metadata table,
//! * [`g711`] — CCITT G.711 µ-law and A-law companding (`AF_comp_u`,
//!   `AF_exp_u`, …) with both algorithmic and table-driven forms,
//! * [`tables`] — precomputed conversion, mixing, power and gain tables,
//! * [`gain`] — decibel gain application for companded and linear data,
//! * [`mix`] — saturating sample mixing (the server's default play path),
//! * [`tone`] — direct digital synthesis (`AFSingleTone`, `AFTonePair`),
//! * [`telephony`] — Table 7 tone pairs (DTMF and call-progress),
//! * [`goertzel`] — Goertzel filters and a streaming DTMF detector (the
//!   receive side of the LoFi telephone interface),
//! * [`power`] — signal power relative to the digital milliwatt,
//! * [`fft`] — radix-2 FFT and window functions (the core of `afft`),
//! * [`adpcm`] — IMA ADPCM coding (the `SAMPLE_ADPCM32` type),
//! * [`convert`] — conversion between any two supported encodings,
//! * [`kernels`] — the runtime-dispatched scalar/SIMD batch kernels
//!   behind [`convert`] and [`mix`]; every linear kernel is one loop over
//!   little-endian sample bytes,
//! * [`resample`] — the streaming linear-interpolation resampler (§2.2's
//!   unfinished sample-rate conversion; what `apass -resample` runs),
//! * [`silence`] — per-encoding silence fill,
//! * [`sample`] — the one byte→sample view, a companded → LIN16
//!   conversion's output,
//! * [`reference`](mod@reference) — the frozen scalar seed kernels (test/bench baseline).

pub mod adpcm;
pub mod convert;
pub mod encoding;
pub mod fft;
pub mod g711;
pub mod gain;
pub mod goertzel;
pub mod kernels;
pub mod mix;
pub mod power;
pub mod reference;
pub mod resample;
pub mod sample;
pub mod silence;
pub mod tables;
pub mod telephony;
pub mod tone;
pub mod window;

pub use encoding::{Encoding, SampleTypeInfo};
