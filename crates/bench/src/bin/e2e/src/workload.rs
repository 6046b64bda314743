//! The four workloads and the inputs a seed produces for them.  The
//! program under test receives only these generated inputs, never the seed.

/// Frames of LIN16 one `play_mix_lin16` op plays: 32 KB, which the client
/// library sends as four pipelined 8 KB chunks.
pub const PLAY_FRAMES: usize = 16_384;
/// Bytes one record op asks for (one 8 KB chunk, so one round trip).
pub const RECORD_BYTES: usize = 8_192;
/// How far in the past a record op starts, in ticks: the request ends 608
/// ticks before "now", inside the buffered window, so it never blocks.
pub const RECORD_PAST_TICKS: i32 = 8_800;
/// Play ops land this far ahead of the last reply's device time: inside
/// the 1,024-frame hardware lead, so the head of each block writes through.
pub const PLAY_LEAD_TICKS: i32 = 800;
/// Frames of each of the two blocks the output check plays.
pub const CHECK_FRAMES: usize = 2_048;
/// Largest clock drift a seed can ask the relay to correct, in ppm.
pub const MAX_DRIFT_PPM: f64 = 100.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CtlPing,
    PlayMixLin16,
    Record8k,
    RelayResample,
}

impl Workload {
    /// Fixed order in which a round runs them.
    pub const ALL: [Workload; 4] = [
        Workload::CtlPing,
        Workload::PlayMixLin16,
        Workload::Record8k,
        Workload::RelayResample,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CtlPing => "ctl_ping",
            Workload::PlayMixLin16 => "play_mix_lin16",
            Workload::Record8k => "record_8k",
            Workload::RelayResample => "relay_resample",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Traffic crosses no real link either way.
    pub fn transport(self) -> &'static str {
        match self {
            Workload::RelayResample => "tcp-loopback",
            _ => "unix-socket",
        }
    }

    pub fn records(self) -> bool {
        matches!(self, Workload::Record8k | Workload::RelayResample)
    }
}

/// splitmix64: the generator behind every seeded input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Everything a seed decides.
pub struct Inputs {
    /// Mixed into [`mic_byte`], so each seed records different audio.
    pub mic_key: u32,
    /// `PLAY_FRAMES` of LIN16 little-endian noise at about −12 dBFS peak.
    pub play_lin16: Vec<u8>,
    /// The two blocks the output check plays, LIN16 little-endian.
    pub check_a: Vec<u8>,
    pub check_b: Vec<u8>,
    /// Drift the relay's resampler corrects, in ±[`MAX_DRIFT_PPM`].
    pub drift_ppm: f64,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mic_key = rng.next_u64() as u32;
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let drift_ppm = (unit * 2.0 - 1.0) * MAX_DRIFT_PPM;
        let mut lin16 = |frames: usize| {
            let mut out = Vec::with_capacity(frames * 2);
            for _ in 0..frames {
                let s = (rng.next_u64() % 16_384) as i16 - 8_192;
                out.extend_from_slice(&s.to_le_bytes());
            }
            out
        };
        Inputs {
            mic_key,
            play_lin16: lin16(PLAY_FRAMES),
            check_a: lin16(CHECK_FRAMES),
            check_b: lin16(CHECK_FRAMES),
            drift_ppm,
        }
    }
}

/// The µ-law byte the benchmark's microphone emits at device tick `tick`:
/// a pure function of the tick, so every byte of every record reply can be
/// checked without storing what was sent.
pub fn mic_byte(mic_key: u32, tick: u32) -> u8 {
    ((tick ^ mic_key).wrapping_mul(0x9E37_79B1) >> 24) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let (a, b, c) = (
            Inputs::from_seed(7),
            Inputs::from_seed(7),
            Inputs::from_seed(8),
        );
        assert_eq!(a.play_lin16, b.play_lin16);
        assert_eq!(a.check_a, b.check_a);
        assert_eq!(a.check_b, b.check_b);
        assert_eq!(a.mic_key, b.mic_key);
        assert_eq!(a.drift_ppm.to_bits(), b.drift_ppm.to_bits());
        assert_ne!(a.play_lin16, c.play_lin16);
        assert_ne!(a.drift_ppm.to_bits(), c.drift_ppm.to_bits());
        assert_eq!(a.play_lin16.len(), PLAY_FRAMES * 2);
        assert_ne!(a.check_a, a.check_b);
    }

    #[test]
    fn drift_stays_within_a_crystal_tolerance() {
        for seed in 0..200 {
            let ppm = Inputs::from_seed(seed).drift_ppm;
            assert!(ppm.abs() <= MAX_DRIFT_PPM, "seed {seed}: {ppm}");
        }
    }

    #[test]
    fn mic_is_a_function_of_the_tick_and_wraps() {
        assert_eq!(mic_byte(5, u32::MAX), mic_byte(5, u32::MAX));
        let distinct: std::collections::BTreeSet<u8> = (0..4096).map(|t| mic_byte(5, t)).collect();
        assert!(distinct.len() > 200, "mic output is not varied");
        assert!((0..64).any(|t| mic_byte(5, t) != mic_byte(6, t)));
    }

    #[test]
    fn names_fit_the_metric_name_grammar_and_round_trip() {
        for w in Workload::ALL {
            assert!(crate::metrics::is_valid_name(w.name()), "{}", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
