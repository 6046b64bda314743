//! The machine's speed of the moment, and times expressed at a reference
//! speed.
//!
//! This VM runs at one of two speeds a factor of about 1.4 apart, for
//! seconds to tens of minutes at a time: a neighbour shares the host's
//! core.  `steal` stays near zero and every thread is charged its full
//! time — the CPU is there, each instruction just takes longer — so
//! nothing the OS reports shows it, and identical code measured twice
//! differs by 40 %.  What does show it is a fixed piece of work timed over
//! and over: the kernel below slows by the same factor as the workloads do
//! (their median op latency over the kernel's time is constant to within
//! 3–5 % across the two speeds; see README).
//!
//! So the timed window runs the kernel every [`EVERY`], and each op's wall
//! time is multiplied by [`REFERENCE_NS`] over what the kernel currently
//! takes.  On an undisturbed machine of this kind the factor is 1.

use std::time::{Duration, Instant};

/// What the kernel takes on this VM when nothing shares the core.
pub const REFERENCE_NS: f64 = 20_000.0;
/// How often the window re-times the kernel.
pub const EVERY: Duration = Duration::from_millis(20);
/// The current speed is the median of this many latest timings, so that
/// one timing hit by an interrupt does not rescale 20 ms of ops.
const RECENT: usize = 5;

pub struct Pace {
    table: Vec<u32>,
    recent: [u32; RECENT],
    timings: usize,
    /// Reference time per unit of wall time, now.
    pub scale: f64,
}

impl Pace {
    /// Times the kernel [`RECENT`] times, so `scale` is valid from the start.
    pub fn new() -> Pace {
        let mut pace = Pace {
            table: (0..2048).collect(),
            recent: [0; RECENT],
            timings: 0,
            scale: 1.0,
        };
        let mut at = Instant::now();
        for _ in 0..RECENT {
            at = pace.retime(at);
        }
        pace
    }

    /// The fixed work: integer arithmetic over an 8 KB table, bound by
    /// throughput like most of the program, and a run of trivial system
    /// calls, as the workloads spend most of their time entering and
    /// leaving the kernel.
    fn kernel(&mut self) {
        let mut acc = 0u32;
        for round in 0..24u32 {
            for (i, v) in self.table.iter_mut().enumerate() {
                *v = v.wrapping_mul(31).wrapping_add(i as u32 ^ round);
                acc ^= *v >> 3;
            }
        }
        std::hint::black_box(acc);
        for _ in 0..64 {
            std::hint::black_box(std::os::unix::process::parent_id());
        }
    }

    /// Runs the kernel once, from `started`; updates `scale`; returns when
    /// it ended.
    pub fn retime(&mut self, started: Instant) -> Instant {
        self.kernel();
        let ended = Instant::now();
        let took = u32::try_from((ended - started).as_nanos()).unwrap_or(u32::MAX);
        self.recent[self.timings % RECENT] = took;
        self.timings += 1;
        self.scale = scale_of(self.recent, self.timings.min(RECENT));
        ended
    }
}

/// The scale the median of the first `n` of `recent` timings gives.
fn scale_of(mut recent: [u32; RECENT], n: usize) -> f64 {
    let seen = &mut recent[..n.clamp(1, RECENT)];
    seen.sort_unstable();
    REFERENCE_NS / f64::from(seen[seen.len() / 2].max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_median_of_recent_timings() {
        // One timing hit by an interrupt does not move the scale.
        assert_eq!(scale_of([20_000, 20_000, 90_000, 20_000, 20_000], 5), 1.0);
        // A machine 1.4 times slower scales times down by 1.4.
        assert_eq!(scale_of([28_000; RECENT], 5), 20.0 / 28.0);
        // Before five timings exist only those made count.
        assert_eq!(scale_of([40_000, 10_000, 0, 0, 0], 1), 0.5);
        assert_eq!(scale_of([40_000, 10_000, 0, 0, 0], 2), 0.5);
    }

    #[test]
    fn a_new_pace_has_timed_the_kernel() {
        let pace = Pace::new();
        assert_eq!(pace.timings, RECENT);
        assert!(pace.recent.iter().all(|&ns| ns > 0));
        assert!(pace.scale.is_finite() && pace.scale > 0.0);
    }
}
