//! Audio device time for the AudioFile system.
//!
//! Every AudioFile device exposes a *device time*: a 32-bit unsigned counter
//! that increments once per sample period and wraps on overflow (§2.1 of the
//! paper).  There is no absolute reference — the counter starts at 0 when the
//! server initializes a device — so two times may only be compared when they
//! are known to be less than half the counter range (2³¹ samples) apart.
//!
//! This crate provides:
//!
//! * [`ATime`] — the wrapping time value with the paper's two's-complement
//!   ordering rules and sample arithmetic,
//! * [`Correspondence`] — the clock-pair conversion formula of §2.1
//!   (`t_b = T_b + R_b * ((t_a - T_a) / R_a)`).

mod atime;
mod correspondence;

pub use atime::ATime;
pub use correspondence::Correspondence;

/// Duration measured in device sample ticks.
///
/// Durations are signed so that offsets like "0.5 seconds in the past" are
/// representable directly.
pub type SampleDelta = i32;

/// Number of samples corresponding to `seconds` at `rate` Hz, rounded to the
/// nearest tick.
///
/// # Examples
///
/// ```
/// assert_eq!(af_time::seconds_to_samples(4.0, 8000), 32_000);
/// assert_eq!(af_time::seconds_to_samples(-0.5, 8000), -4_000);
/// ```
pub fn seconds_to_samples(seconds: f64, rate: u32) -> SampleDelta {
    (seconds * f64::from(rate)).round() as SampleDelta
}

/// Seconds corresponding to `samples` ticks at `rate` Hz.
///
/// # Examples
///
/// ```
/// assert!((af_time::samples_to_seconds(32_000, 8000) - 4.0).abs() < 1e-12);
/// ```
pub fn samples_to_seconds(samples: SampleDelta, rate: u32) -> f64 {
    f64::from(samples) / f64::from(rate)
}
