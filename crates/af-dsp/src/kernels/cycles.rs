//! Consumed-cycle timestamps for CPU-work accounting.
//!
//! Wall-clock MB/s on a loaded 1-core CI host measures the scheduler, so
//! the kernel benches and the broadcast encoder account the CPU work they
//! actually consume: cycles spent over bytes touched.  That ratio is
//! host-speed dependent but core-count independent, which is what the
//! regression gate needs.
//!
//! On x86_64 this reads the invariant TSC (`rdtsc`, ~10 ns, no serialization
//! — per-job attribution does not need it).  Elsewhere it falls back to
//! monotonic nanoseconds, which keeps the cycles-per-byte metric meaningful
//! (just in different units, reported alongside `cpu_cores` either way).

/// Reads the consumed-cycles timestamp.
///
/// Only differences between two readings on the same core are meaningful;
/// the absolute value is arbitrary.
#[cfg(target_arch = "x86_64")]
#[inline]
// The one-line rdtsc read, which has no preconditions on x86_64 user
// mode.
#[expect(unsafe_code)]
pub fn timestamp() -> u64 {
    // SAFETY: RDTSC is unprivileged on every OS this crate targets; it
    // reads a counter and touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Reads the consumed-cycles timestamp (monotonic-nanosecond fallback).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn timestamp() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // af-analyze: allow(wallclock): the portable cycle counter only times work; nothing is decided by it
    let epoch = *EPOCH.get_or_init(Instant::now);
    // af-analyze: allow(wallclock): the same fallback counter's reading
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
