//! The AudioFile client utility library — the Rust `libAFUtil` (§6.2).
//!
//! The conversion, mixing, gain, power, and sine tables live in [`af_dsp`]
//! (re-exported here under their paper names); this crate adds the
//! procedures that need a client connection or the filesystem:
//!
//! * [`dial`] — `AFDialPhone`: client-side Touch-Tone dialing by playing
//!   precisely timed tone pairs (§5.5: the server's `DialPhone` request is
//!   unused because FCC timing was easier to meet from the client).
//! * [`erase`] — overwriting buffered future audio with preemptive
//!   silence, `aplay`'s stop-on-a-dime interrupt behaviour (§8.1.2).
//! * [`files`] — raw and Sun/NeXT `.au` sound-file I/O for `aplay` and
//!   `arecord`.
//! * [`aod`] — "Assert or Die" (§6.2.2), as a macro.

pub mod dial;
pub mod erase;
pub mod files;

/// The paper's utility tables, re-exported under their `libAFUtil` names.
pub mod tables {
    pub use af_dsp::encoding::SAMPLE_SIZES as AF_SAMPLE_SIZES;
    pub use af_dsp::gain::{gain_table_a as af_gain_table_a, gain_table_u as af_gain_table_u};
    pub use af_dsp::tables::{
        comp_a as af_comp_a, comp_u as af_comp_u, cvt_a2f as af_cvt_a2f, cvt_a2u as af_cvt_a2u,
        cvt_u2a as af_cvt_u2a, cvt_u2f as af_cvt_u2f, exp_a as af_exp_a, exp_u as af_exp_u,
        mix_a as af_mix_a, mix_u as af_mix_u, power_a as af_power_af, power_u as af_power_uf,
        sine_float as af_sine_float, sine_int as af_sine_int,
    };
}

/// "Assert or Die" (`AoD`): checks a condition and exits with a formatted
/// message if it does not hold (§6.2.2).
///
/// Library code should prefer `Result`; this exists for the small
/// command-line clients, which mirror the paper's usage.
///
/// # Examples
///
/// ```
/// af_util::aod!(1 + 1 == 2, "arithmetic is broken");
/// ```
#[macro_export]
macro_rules! aod {
    ($cond:expr, $($arg:tt)*) => {
        if !$cond {
            eprintln!($($arg)*);
            std::process::exit(1);
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_reexports_resolve() {
        assert_eq!(crate::tables::af_exp_u()[0xFF], 0);
        assert_eq!(crate::tables::AF_SAMPLE_SIZES[2].name, "LIN16");
        assert!(crate::tables::af_gain_table_u(0).is_some());
    }

    #[test]
    fn aod_passes_on_true() {
        crate::aod!(true, "never printed");
    }
}
