//! `apass` — copy audio from one server to another (§8.3).
//!
//! Records from a device on the input server and, after a controlled
//! delay, plays on a device on the output server.  Not a teleconferencing
//! application, but it solves teleconferencing's fundamental problems:
//! multiple servers, end-to-end delay budgeting, and multiple clock
//! domains.
//!
//! ```text
//! apass [-ia server] [-oa server] [-id dev] [-od dev]
//!       [-delay s] [-aj s] [-buffering s] [-gain dB] [-log] [-n blocks]
//! ```
//!
//! The overall delay is packetization + transport + anti-jitter (§8.3).
//! If the two sample clocks drift apart by more than the `-aj` tolerance,
//! the connection is resynchronized — the simplest imaginable algorithm,
//! as the paper says — "probably resulting in an audible blip".
//!
//! With `-resample`, the refinement §8.3.3 sketches is used instead:
//! "apass could use digital signal processing to interpolate the digital
//! audio at the receive sample rate."  The measured slip drives a
//! continuously adjusted resampling ratio, trading blips for a tiny pitch
//! shift.  Both contexts then carry 16-bit linear samples, whatever the
//! devices' native types: the servers' conversion modules (§5.4) do the
//! companding, once on each side, and the interpolator sees what it needs.
//! It is a mono interpolator, so a multi-channel device is refused.

use af_client::{AcAttributes, AcMask, AudioConn};
use af_clients::cli::Args;
use af_dsp::resample::Resampler;
use af_dsp::Encoding;

/// Number of recent delay observations averaged into "slip" (§8.3.2).
const SLIPHIST: usize = 4;

fn main() {
    let args = Args::from_env(&["-log", "-resample"]).unwrap_or_else(|e| {
        eprintln!("apass: {e}");
        std::process::exit(1);
    });

    let from_name = args.get_str("-ia").unwrap_or_default();
    let to_name = args.get_str("-oa").unwrap_or_default();
    let mut faud = AudioConn::open(&from_name).unwrap_or_else(die);
    let mut taud = AudioConn::open(&to_name).unwrap_or_else(die);

    let fdevice = match args.get_str("-id") {
        Some(d) => d.parse().expect("bad -id"),
        None => faud.find_default_device().expect("no input device"),
    };
    let tdevice = match args.get_str("-od") {
        Some(d) => d.parse().expect("bad -od"),
        None => taud.find_default_device().expect("no output device"),
    };

    let delay: f64 = args.num_or::<f64>("-delay", 0.3).clamp(0.0, 3.0);
    let aj: f64 = args.num_or::<f64>("-aj", 0.1).clamp(0.0, 1.0);
    let buffering: f64 = args.num_or::<f64>("-buffering", 0.2).clamp(0.1, 0.5);
    let gain: i32 = args.num_or("-gain", 0);
    let log = args.has_flag("-log");
    let resample = args.has_flag("-resample");
    // Simulation convenience (not in the paper): stop after N blocks.
    let max_blocks: u64 = args.num_or("-n", u64::MAX);

    // Set up audio contexts; find sample size and rate.
    let mut attrs = AcAttributes::default();
    let mut mask = AcMask::default();
    if resample {
        mask = mask | AcMask::ENCODING;
        attrs.encoding = Encoding::Lin16;
    }
    let fac = faud.create_ac(fdevice, mask, &attrs).unwrap_or_else(die);
    if gain != 0 {
        mask = mask | AcMask::PLAY_GAIN;
        attrs.play_gain_db = gain as i16;
    }
    let tac = taud.create_ac(tdevice, mask, &attrs).unwrap_or_else(die);
    if resample && (fac.attrs.channels != 1 || tac.attrs.channels != 1) {
        eprintln!("apass: -resample interpolates mono audio; pick single-channel devices");
        std::process::exit(1);
    }

    let fsrate = fac.sample_rate();
    let samples_bufsize = (buffering * f64::from(fsrate)) as u32;
    // "Nominal delay except packetization" (§8.3.2): at steady state the
    // blocking record returns one block of real time after the data's start
    // time, so the observed slip `tt - tactt` equals the requested delay
    // minus one block.  That value anchors the anti-jitter band and the
    // resynchronization target.
    let delay_in_samples = ((delay - buffering).max(0.0) * f64::from(fsrate)) as i32;
    let aj_samples = (aj * f64::from(fsrate)) as i32;
    let delay_lower_limit = delay_in_samples - aj_samples;
    let delay_upper_limit = delay_in_samples + aj_samples;
    let bufbytes = fac.frames_to_bytes(samples_bufsize);

    // Arm the recorder, then establish starting times for the two servers.
    let mut ft = faud.get_time(fdevice).unwrap_or_else(die);
    faud.record_samples(&fac, ft, 0, false).unwrap_or_else(die);
    // The first block plays a full `delay` in the future (packetization
    // included); thereafter the record pacing keeps the offset steady.
    let mut tt = taud.get_time(tdevice).unwrap_or_else(die) + (delay * f64::from(fsrate)) as i32;

    let mut sliphist = [delay_in_samples; SLIPHIST];
    let mut nextslip = 0usize;
    let mut resyncs = 0u64;
    // -resample state: current ratio correction in ppm of the receive rate.
    let mut ratio_ppm: f64 = 0.0;
    let mut resampler = Resampler::new(f64::from(fsrate), f64::from(fsrate));
    // Linear staging for the resampled path, reused across blocks.
    let (mut pcm, mut resampled) = (Vec::new(), Vec::new());

    for _ in 0..max_blocks {
        // Record from the source server (pacing flow control comes from
        // the blocking record).
        let (_factt, mut data) = faud
            .record_samples(&fac, ft, bufbytes, true)
            .unwrap_or_else(die);
        if resample {
            // Interpolate at the adjusted rate, LIN16 in and out.  The
            // ratio is steered below from the measured slip.
            pcm.clear();
            pcm.extend(
                data.chunks_exact(2)
                    .map(|c| i16::from_le_bytes([c[0], c[1]])),
            );
            resampled.clear();
            resampler.process_into(&pcm, &mut resampled);
            data.clear();
            data.extend(resampled.iter().flat_map(|s| s.to_le_bytes()));
        }
        // Play on the sink server.
        let tactt = taud.play_samples(&tac, tt, &data).unwrap_or_else(die);

        // `tt - tactt` estimates the current buffering at the receiver;
        // average the last few into "slip".
        sliphist[nextslip] = tt - tactt;
        nextslip = (nextslip + 1) % SLIPHIST;
        let slip: i32 =
            (sliphist.iter().map(|&s| i64::from(s)).sum::<i64>() / SLIPHIST as i64) as i32;

        if resample {
            // Steer the resampling ratio toward zero slip error: a simple
            // proportional controller with a ±2000 ppm authority, enough
            // for real crystal tolerances with margin.
            let err = f64::from(slip - delay_in_samples);
            ratio_ppm = (ratio_ppm - 0.05 * err).clamp(-2000.0, 2000.0);
            // Retune in place: the fractional phase and the boundary
            // sample carry over, so the new ratio starts without a seam.
            let to_rate = f64::from(fsrate) * (1.0 + ratio_ppm * 1e-6);
            resampler.set_rates(f64::from(fsrate), to_rate);
            tt += tac.bytes_to_frames(data.len());
            ft += samples_bufsize;
            // Hard resync only as a last resort (controller saturated).
            if slip < delay_lower_limit - aj_samples || slip >= delay_upper_limit + aj_samples {
                tt = tactt + delay_in_samples;
                resyncs += 1;
                if log {
                    eprintln!("apass: hard resync despite resampling (slip {slip})");
                }
            }
            continue;
        }

        // If the delay drifted outside the allowable region, resynchronize.
        if slip < delay_lower_limit || slip >= delay_upper_limit {
            tt = tactt + delay_in_samples;
            resyncs += 1;
            if log {
                eprintln!("apass: resynchronized (slip {slip} samples)");
            }
        }

        ft += samples_bufsize;
        tt += samples_bufsize;
    }
    if log {
        eprintln!("apass: done ({resyncs} resynchronizations)");
    }
}

fn die<T>(e: af_client::AfError) -> T {
    eprintln!("apass: {e}");
    std::process::exit(1);
}
