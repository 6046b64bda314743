//! The trivial answering machine of §8.6, as a program instead of a shell
//! script.
//!
//! Run with `cargo run --example answering_machine`.
//!
//! The original composed core clients in a strict sequence: wait for the
//! phone to ring, answer it, play the outgoing message, record the
//! incoming message until the caller stops talking, hang up.  Here the
//! same sequence drives a simulated telephone line, with a scripted
//! "caller" on the office side of the line.

use audiofile::client::{AcAttributes, AcMask, AudioConn, EventDetail, EventMask};
use audiofile::device::SystemClock;
use audiofile::dsp::g711::ULAW_SILENCE;
use audiofile::dsp::power::{power_dbm_ulaw, SilenceDetector};
use audiofile::dsp::telephony::dtmf_for_digit;
use audiofile::dsp::tone::{tone_pair, TonePairSpec};
use audiofile::server::ServerBuilder;
use std::sync::Arc;

const PHONE_DEV: u8 = 0;

fn main() {
    // The LoFi-shaped server: phone codec + local codec + HiFi, each
    // rate on its own oscillator.
    let clock = Arc::new(SystemClock::new(8000));
    let hifi_clock = Arc::new(SystemClock::new(44_100));
    let (builder, line) = ServerBuilder::lofi(clock, hifi_clock);
    let server = builder
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(std::time::Duration::from_millis(50))
        .spawn()
        .expect("start server");

    // A scripted caller: ring, then (once answered) speak a few "words"
    // of tone and press a DTMF key, then fall silent.
    let caller_line = line.clone();
    let caller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(200));
        println!("[caller] dialing in: ring!");
        caller_line.office_ring(true);
        // Wait until answered.
        while !caller_line.query().0 {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        // Listen to the greeting for a moment.
        std::thread::sleep(std::time::Duration::from_millis(700));
        let _greeting = caller_line.office_recv(4000);
        println!("[caller] heard the greeting, leaving a message");
        let word = tone_pair(
            TonePairSpec {
                f1: 300.0,
                db1: -10.0,
                f2: 450.0,
                db2: -12.0,
            },
            8000.0,
            2400,
            64,
        );
        for _ in 0..3 {
            caller_line.office_send(&word);
            caller_line.office_send(&vec![ULAW_SILENCE; 800]);
            std::thread::sleep(std::time::Duration::from_millis(400));
        }
        caller_line.office_send(&tone_pair(
            dtmf_for_digit('5').unwrap().spec,
            8000.0,
            480,
            16,
        ));
        println!("[caller] pressed '5', hanging up");
    });

    // The answering machine proper.
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).expect("connect");
    conn.select_events(PHONE_DEV, EventMask::ALL)
        .expect("select events");
    let ac = conn
        .create_ac(PHONE_DEV, AcMask::default(), &AcAttributes::default())
        .expect("create ac");

    // Wait for the phone to ring (the `aevents -ringcount` step).
    println!("[machine] waiting for a call…");
    let ev = conn
        .if_event(|e| matches!(e.detail, EventDetail::Ring { ringing: true }))
        .expect("ring event");
    println!("[machine] ring at device time {}", ev.device_time);

    // Answer the phone (`ahs off`).
    conn.hook_switch(PHONE_DEV, true).expect("answer");

    // Play the outgoing message (`aplay -f outgoing_message.snd`).
    let greeting = tone_pair(
        TonePairSpec {
            f1: 523.0,
            db1: -10.0,
            f2: 659.0,
            db2: -10.0,
        },
        8000.0,
        4000,
        64,
    );
    let t = conn.get_time(PHONE_DEV).expect("time");
    conn.record_samples(&ac, t, 0, false).expect("arm recorder");
    let after_greeting = t + 800u32 + greeting.len() as u32;
    conn.play_samples(&ac, t + 800u32, &greeting)
        .expect("greeting");
    println!("[machine] greeting playing; recording after the beep");

    // Record up to 10 seconds, or until the caller stops talking
    // (`arecord -silentlevel -35 -silenttime 1.5`).
    let mut detector = SilenceDetector::new(-35.0, 1.5, 8000.0);
    let mut message = Vec::new();
    let mut cursor = after_greeting;
    for _ in 0..(10 * 8000 / 1000) {
        let (_, block) = conn
            .record_samples(&ac, cursor, 1000, true)
            .expect("record block");
        cursor += block.len() as u32;
        let dbm = power_dbm_ulaw(&block);
        message.extend_from_slice(&block);
        if detector.feed(dbm, block.len()) {
            println!("[machine] caller went silent");
            break;
        }
    }

    // Hang up (`ahs on`).
    conn.hook_switch(PHONE_DEV, false).expect("hang up");
    conn.sync().expect("sync");

    let secs = message.len() as f64 / 8000.0;
    println!(
        "[machine] saved a {secs:.1} s message at {:.1} dBm average",
        power_dbm_ulaw(&message)
    );

    // Check the DTMF key the caller pressed arrived as an event.
    if let Ok(Some(ev)) =
        conn.check_if_event(|e| matches!(e.detail, EventDetail::Dtmf { down: true, .. }))
    {
        if let EventDetail::Dtmf { digit, .. } = ev.detail {
            println!("[machine] caller pressed '{}'", digit as char);
        }
    }

    caller.join().unwrap();
    server.shutdown();
    println!("done");
}
