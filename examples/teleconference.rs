//! A two-server audio relay with a delay budget — the `apass` experiment
//! (§8.3) as a library program.
//!
//! Run with `cargo run --example teleconference`.
//!
//! One server's microphone carries "speech" (a tone source); a relay loop
//! records blocks from it and schedules them on a second server with a
//! strict end-to-end delay of packetization + transport + anti-jitter.
//! The receive clock is deliberately 2% slow, so it consumes fewer samples
//! than the (transmit-paced) relay delivers and the receiver's buffering
//! grows until the slip tracker resynchronizes — the clock-domain problem
//! the paper calls out as fundamental to teleconferencing.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::{CaptureSink, SystemClock, ToneSource};
use audiofile::dsp::power::power_dbm_ulaw;
use audiofile::server::ServerBuilder;
use std::sync::Arc;

fn main() {
    // Transmit server: microphone carries a 440 Hz "voice".
    let tx_clock = Arc::new(SystemClock::new(8000));
    let mut tx_builder = ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(std::time::Duration::from_millis(50));
    tx_builder.add_codec(
        tx_clock,
        Box::new(audiofile::device::NullSink),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 9000.0)),
    );
    let tx = tx_builder.spawn().expect("tx server");

    // Receive server: speaker captured so we can measure what arrived;
    // its crystal runs 2% slow (exaggerated so the drift shows within
    // seconds; the paper's 100 ppm would take minutes).
    let rx_clock = Arc::new(SystemClock::with_drift(8000, -20_000.0));
    let (sink, speaker) = CaptureSink::new(1 << 24);
    let mut rx_builder = ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(std::time::Duration::from_millis(50));
    rx_builder.add_codec(
        rx_clock,
        Box::new(sink),
        Box::new(audiofile::device::SilenceSource::new(0xFF)),
    );
    let rx = rx_builder.spawn().expect("rx server");

    let mut faud = AudioConn::open(&tx.tcp_addr().unwrap().to_string()).expect("tx connect");
    let mut taud = AudioConn::open(&rx.tcp_addr().unwrap().to_string()).expect("rx connect");
    let fac = faud
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .expect("tx ac");
    let tac = taud
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .expect("rx ac");

    // Delay budget (§8.3): 0.2 s packetization + 0.1 s anti-jitter.
    let rate = 8000u32;
    let bufsize = rate / 5; // 0.2 s blocks.
    let delay = 0.3f64;
    let nominal_slip = ((delay - 0.2) * f64::from(rate)) as i32;
    let aj = (0.05 * f64::from(rate)) as i32;

    let mut ft = faud.get_time(0).expect("tx time");
    faud.record_samples(&fac, ft, 0, false).expect("arm");
    let mut tt = taud.get_time(0).expect("rx time") + (delay * f64::from(rate)) as i32;

    let mut sliphist = [nominal_slip; 4];
    let mut next = 0;
    let mut resyncs = 0u32;
    println!("relaying 8 seconds of audio with a 300 ms delay budget…");
    for block in 0..40 {
        let (_, data) = faud
            .record_samples(&fac, ft, bufsize as usize, true)
            .expect("record");
        let tactt = taud.play_samples(&tac, tt, &data).expect("play");

        sliphist[next] = tt - tactt;
        next = (next + 1) % 4;
        let slip = (sliphist.iter().map(|&s| i64::from(s)).sum::<i64>() / 4) as i32;
        if slip < nominal_slip - aj || slip >= nominal_slip + aj {
            println!("  block {block:2}: slip {slip:5} samples — resynchronizing (audible blip)");
            tt = tactt + nominal_slip;
            sliphist = [nominal_slip; 4];
            next = 0;
            resyncs += 1;
        } else if block % 5 == 0 {
            println!("  block {block:2}: slip {slip:5} samples (band ±{aj})");
        }
        ft += bufsize;
        tt += bufsize;
    }

    std::thread::sleep(std::time::Duration::from_millis(400));
    let heard = speaker.lock().unwrap();
    let voiced: Vec<u8> = heard.iter().copied().filter(|&b| b != 0xFF).collect();
    println!(
        "receiver heard {:.1} s of speech at {:.1} dBm; {resyncs} resynchronization(s)",
        voiced.len() as f64 / f64::from(rate),
        power_dbm_ulaw(&voiced)
    );
    assert!(
        resyncs >= 1,
        "a 2% clock skew should force a resync within 8 s"
    );
    drop(heard);
    tx.shutdown();
    rx.shutdown();
    println!("done");
}
