//! Sample clocks.
//!
//! "The underlying implementation of the audio device clock is the
//! oscillator that controls the hardware sample rate" (§2.1).  Our
//! substitute oscillators come in two forms: a monotonic real-time clock
//! scaled by the sample rate, and a virtual clock advanced explicitly by
//! tests and deterministic benchmarks.  Both support a configurable rate
//! error in parts per million, because real crystals "have tolerances of
//! perhaps 100 parts per million" (§8.3) and that drift is behaviour the
//! system must handle.

use af_time::ATime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A device sample clock: a 32-bit counter incrementing once per sample
/// period.
pub trait Clock: Send + Sync {
    /// The current device time.
    fn now(&self) -> ATime;

    /// The nominal sample rate in Hz.
    fn nominal_rate(&self) -> u32;

    /// The true rate in Hz, including any configured error.
    fn true_rate(&self) -> f64 {
        f64::from(self.nominal_rate())
    }
}

/// A shareable clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// A real-time clock: device time follows the process monotonic clock.
///
/// This stands in for a free-running hardware oscillator when the server is
/// used interactively or benchmarked against wall-clock time.
#[derive(Debug)]
pub struct SystemClock {
    rate: u32,
    true_rate: f64,
    epoch: Instant,
}

impl SystemClock {
    /// Creates a clock at exactly `rate` Hz.
    pub fn new(rate: u32) -> SystemClock {
        Self::with_drift(rate, 0.0)
    }

    /// Creates a clock whose true rate deviates by `ppm` parts per million.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn with_drift(rate: u32, ppm: f64) -> SystemClock {
        assert!(rate > 0, "sample rate must be positive");
        SystemClock {
            rate,
            true_rate: f64::from(rate) * (1.0 + ppm * 1e-6),
            epoch: epoch(),
        }
    }
}

/// The host clock's reading that a [`SystemClock`] counts from.
#[expect(clippy::disallowed_methods, reason = "device time off the host clock")]
fn epoch() -> Instant {
    Instant::now()
}

impl Clock for SystemClock {
    #[expect(clippy::disallowed_methods, reason = "device time off the host clock")]
    fn now(&self) -> ATime {
        let secs = self.epoch.elapsed().as_secs_f64();
        ATime::new((secs * self.true_rate) as u64 as u32)
    }

    fn nominal_rate(&self) -> u32 {
        self.rate
    }

    fn true_rate(&self) -> f64 {
        self.true_rate
    }
}

/// A manually advanced clock for deterministic tests.
///
/// Time advances only when [`VirtualClock::advance`] is called.  A drift in
/// ppm scales advances, so two virtual clocks stepped by the same nominal
/// amount accumulate a controlled skew — exactly the scenario `apass`
/// resynchronizes against.
#[derive(Debug)]
pub struct VirtualClock {
    rate: u32,
    true_rate: f64,
    /// Accumulated true ticks, in fixed point with 32 fractional bits so
    /// fractional drift accumulates exactly.
    ticks_fp: AtomicU64,
    /// Drift multiplier in the same fixed point.
    scale_fp: u64,
}

impl VirtualClock {
    /// Creates a clock at exactly `rate` Hz, starting at time 0.
    pub fn new(rate: u32) -> VirtualClock {
        Self::with_drift(rate, 0.0)
    }

    /// Creates a clock whose advances are scaled by `1 + ppm·10⁻⁶`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero or the drift is not finite.
    pub fn with_drift(rate: u32, ppm: f64) -> VirtualClock {
        assert!(rate > 0, "sample rate must be positive");
        assert!(ppm.is_finite(), "drift must be finite");
        let scale = 1.0 + ppm * 1e-6;
        VirtualClock {
            rate,
            true_rate: f64::from(rate) * scale,
            ticks_fp: AtomicU64::new(0),
            scale_fp: (scale * 4_294_967_296.0) as u64,
        }
    }

    /// Advances the clock by `nominal_samples` nominal sample periods.
    ///
    /// With drift configured, the counter actually advances by the scaled
    /// amount (rounded down to whole ticks, with the fraction carried).
    pub fn advance(&self, nominal_samples: u32) {
        let delta = u64::from(nominal_samples).wrapping_mul(self.scale_fp);
        self.ticks_fp.fetch_add(delta, Ordering::SeqCst);
    }

    /// Advances by a duration at the nominal rate.
    pub fn advance_seconds(&self, seconds: f64) {
        self.advance((seconds * f64::from(self.rate)).round() as u32);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> ATime {
        ATime::new((self.ticks_fp.load(Ordering::SeqCst) >> 32) as u32)
    }

    fn nominal_rate(&self) -> u32 {
        self.rate
    }

    fn true_rate(&self) -> f64 {
        self.true_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_exactly() {
        let c = VirtualClock::new(8000);
        assert_eq!(c.now(), ATime::ZERO);
        c.advance(100);
        assert_eq!(c.now(), ATime::new(100));
        c.advance_seconds(1.0);
        assert_eq!(c.now(), ATime::new(8100));
    }

    #[test]
    fn virtual_clock_wraps() {
        let c = VirtualClock::new(8000);
        for _ in 0..17 {
            c.advance(0xFFFF_FFFF);
            c.advance(1); // Whole 2^32 per pair of calls.
        }
        assert_eq!(c.now(), ATime::ZERO);
        c.advance(5);
        assert_eq!(c.now(), ATime::new(5));
    }

    #[test]
    fn drift_accumulates() {
        // +100 ppm: after 1 million nominal samples, 100 extra ticks.
        let fast = VirtualClock::with_drift(8000, 100.0);
        let exact = VirtualClock::new(8000);
        for _ in 0..100 {
            fast.advance(10_000);
            exact.advance(10_000);
        }
        let skew = fast.now() - exact.now();
        assert!((99..=101).contains(&skew), "skew={skew}");
    }

    #[test]
    fn negative_drift() {
        let slow = VirtualClock::with_drift(8000, -100.0);
        slow.advance(1_000_000);
        let t = slow.now();
        assert!((0..=2).contains(&(t - ATime::new(999_899))), "t={t}");
    }

    #[test]
    fn system_clock_monotone_and_ratelike() {
        let c = SystemClock::new(1_000_000); // 1 MHz for test speed.
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let b = c.now();
        let d = b - a;
        assert!(d > 10_000, "advanced only {d} ticks");
        assert!(d < 1_000_000, "advanced too fast: {d}");
    }

    #[test]
    fn rates_reported() {
        let c = SystemClock::with_drift(8000, 125.0);
        assert_eq!(c.nominal_rate(), 8000);
        assert!((c.true_rate() - 8001.0).abs() < 1e-9);
    }
}
