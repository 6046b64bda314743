//! Clock-domain experiments: the `apass` problem (§8.3).
//!
//! Two servers on independent sample clocks with a realistic crystal
//! error ("crystal oscillators have tolerances of perhaps 100 parts per
//! million") relay audio.  If the transmit clock is faster, buffering at
//! the receiver grows; the slip tracker must detect the drift and
//! resynchronize.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::{CaptureSink, ToneSource, VirtualClock};
use audiofile::server::{RunningServer, ServerBuilder, ServerHandle};
use std::sync::Arc;

fn server_with(
    clock: Arc<VirtualClock>,
    source: Box<dyn audiofile::device::SampleSource>,
) -> (RunningServer, audiofile::device::io::CaptureBuffer) {
    let (sink, speaker) = CaptureSink::new(1 << 24);
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(clock, Box::new(sink), source);
    (builder.spawn().unwrap(), speaker)
}

/// The apass inner loop (§8.3.2), run for `blocks` blocks; returns the
/// number of resynchronizations.
#[allow(clippy::too_many_arguments)]
fn apass_loop(
    faud: &mut AudioConn,
    taud: &mut AudioConn,
    blocks: usize,
    delay_s: f64,
    aj_s: f64,
    buffering_s: f64,
    mut pump: impl FnMut(),
) -> usize {
    let fac = faud
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let tac = taud
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let rate = 8000f64;
    let bufsize = (buffering_s * rate) as u32;
    let nominal_slip = ((delay_s - buffering_s) * rate) as i32;
    let aj = (aj_s * rate) as i32;

    let mut ft = faud.get_time(0).unwrap();
    faud.record_samples(&fac, ft, 0, false).unwrap();
    let mut tt = taud.get_time(0).unwrap() + (delay_s * rate) as i32;

    let mut sliphist = [nominal_slip; 4];
    let mut next = 0;
    let mut resyncs = 0;
    for _ in 0..blocks {
        pump(); // Advance both virtual clocks one block.
        let (_, data) = faud
            .record_samples(&fac, ft, bufsize as usize, true)
            .unwrap();
        let tactt = taud.play_samples(&tac, tt, &data).unwrap();
        sliphist[next] = tt - tactt;
        next = (next + 1) % 4;
        let slip = (sliphist.iter().map(|&s| i64::from(s)).sum::<i64>() / 4) as i32;
        if slip < nominal_slip - aj || slip >= nominal_slip + aj {
            tt = tactt + nominal_slip;
            resyncs += 1;
            // Restart the average from the resynchronized position.
            sliphist = [nominal_slip; 4];
        }
        ft += bufsize;
        tt += bufsize;
    }
    resyncs
}

#[test]
fn matched_clocks_never_resynchronize() {
    let c_in = Arc::new(VirtualClock::new(8000));
    let c_out = Arc::new(VirtualClock::new(8000));
    let (s_in, _) = server_with(
        c_in.clone(),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 8000.0)),
    );
    let (s_out, _) = server_with(
        c_out.clone(),
        Box::new(audiofile::device::SilenceSource::new(0xFF)),
    );
    let hi: ServerHandle = s_in.handle();
    let ho: ServerHandle = s_out.handle();
    let mut faud = AudioConn::open(&s_in.tcp_addr().unwrap().to_string()).unwrap();
    let mut taud = AudioConn::open(&s_out.tcp_addr().unwrap().to_string()).unwrap();

    let resyncs = apass_loop(&mut faud, &mut taud, 50, 0.3, 0.1, 0.2, || {
        for _ in 0..2 {
            c_in.advance(800);
            c_out.advance(800);
            hi.run_update();
            ho.run_update();
        }
    });
    assert_eq!(resyncs, 0, "matched clocks should stay in the band");
}

#[test]
fn drifting_clocks_force_resynchronization() {
    // The relay loop is paced by the transmit clock (each blocking record
    // completes after one block of *its* time), so a receive clock running
    // 2% slow consumes fewer samples per loop than arrive: "the excess
    // samples will accumulate in buffers in between... manifest[ing]
    // itself as gradually increasing end-to-end delay" (§8.3).  The 2% is
    // exaggerated so the ±50 ms band is crossed within a short test; at
    // the paper's 100 ppm the same crossing takes minutes.
    let c_in = Arc::new(VirtualClock::new(8000));
    let c_out = Arc::new(VirtualClock::with_drift(8000, -20_000.0));
    let (s_in, _) = server_with(
        c_in.clone(),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 8000.0)),
    );
    let (s_out, speaker) = server_with(
        c_out.clone(),
        Box::new(audiofile::device::SilenceSource::new(0xFF)),
    );
    let hi = s_in.handle();
    let ho = s_out.handle();
    let mut faud = AudioConn::open(&s_in.tcp_addr().unwrap().to_string()).unwrap();
    let mut taud = AudioConn::open(&s_out.tcp_addr().unwrap().to_string()).unwrap();

    let resyncs = apass_loop(&mut faud, &mut taud, 120, 0.3, 0.05, 0.2, || {
        for _ in 0..2 {
            c_in.advance(800);
            c_out.advance(800);
            hi.run_update();
            ho.run_update();
        }
    });
    assert!(
        resyncs >= 1,
        "2% clock skew must cross a ±50 ms band within 24 s of audio"
    );
    // Audio still flowed: the receiver's speaker heard the relayed tone.
    let cap = speaker.lock().unwrap();
    let nonsilent = cap.iter().filter(|&&b| b != 0xFF).count();
    assert!(
        nonsilent > 50_000,
        "only {nonsilent} non-silent bytes relayed"
    );
}

#[test]
fn correspondence_tracks_two_server_clocks() {
    // The §2.1 conversion formula applied across two live servers.
    let c_a = Arc::new(VirtualClock::new(8000));
    let c_b = Arc::new(VirtualClock::new(8000));
    let (s_a, _) = server_with(
        c_a.clone(),
        Box::new(audiofile::device::SilenceSource::new(0xFF)),
    );
    let (s_b, _) = server_with(
        c_b.clone(),
        Box::new(audiofile::device::SilenceSource::new(0xFF)),
    );
    let mut conn_a = AudioConn::open(&s_a.tcp_addr().unwrap().to_string()).unwrap();
    let mut conn_b = AudioConn::open(&s_b.tcp_addr().unwrap().to_string()).unwrap();

    let ta = conn_a.get_time(0).unwrap();
    let tb = conn_b.get_time(0).unwrap();
    let corr = audiofile::time::Correspondence::new(ta, 8000.0, tb, 8000.0);

    // Both clocks advance together; the mapping stays exact.
    c_a.advance(12_000);
    c_b.advance(12_000);
    let ta2 = conn_a.get_time(0).unwrap();
    let tb2 = conn_b.get_time(0).unwrap();
    assert_eq!(corr.a_to_b(ta2), tb2);
}
