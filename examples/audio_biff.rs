//! `abiff` as a library program: audio notification of new mail (§9.6).
//!
//! Run with `cargo run --example audio_biff`.
//!
//! The paper's `abiff` used a speech synthesizer to announce arriving
//! mail; this one plays a rising chime.  A temporary file stands in for
//! the mailbox, and a writer thread "delivers mail" into it while the
//! watcher loop plays the notification through the server.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::{CaptureSink, SystemClock};
use audiofile::dsp::tone::{tone_pair, TonePairSpec};
use audiofile::server::ServerBuilder;
use std::io::Write;
use std::sync::Arc;

fn main() {
    let clock = Arc::new(SystemClock::new(8000));
    let (sink, speaker) = CaptureSink::new(1 << 22);
    let mut builder = ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(std::time::Duration::from_millis(50));
    builder.add_codec(
        clock,
        Box::new(sink),
        Box::new(audiofile::device::SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().expect("server");

    // The "mailbox".
    let mailbox = std::env::temp_dir().join(format!("audio-biff-demo-{}", std::process::id()));
    std::fs::write(&mailbox, b"").expect("create mailbox");

    // A mail delivery agent drops two messages, a second apart.
    let mbox = mailbox.clone();
    let postman = std::thread::spawn(move || {
        for i in 1..=2 {
            std::thread::sleep(std::time::Duration::from_millis(900));
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&mbox)
                .expect("open mailbox");
            writeln!(f, "From demo{i}@example.org: hello").unwrap();
            println!("[postman] delivered message {i}");
        }
    });

    // The biff loop: poll the mailbox, chime on growth.
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).expect("connect");
    let device = conn.find_default_device().expect("device");
    let ac = conn
        .create_ac(device, AcMask::default(), &AcAttributes::default())
        .expect("ac");
    let mut chime = tone_pair(
        TonePairSpec {
            f1: 660.0,
            db1: -10.0,
            f2: 880.0,
            db2: -10.0,
        },
        8000.0,
        1200,
        64,
    );
    chime.extend(tone_pair(
        TonePairSpec {
            f1: 880.0,
            db1: -8.0,
            f2: 1320.0,
            db2: -8.0,
        },
        8000.0,
        1600,
        64,
    ));

    let mut last_len = 0u64;
    let mut notified = 0;
    while notified < 2 {
        std::thread::sleep(std::time::Duration::from_millis(100));
        let len = std::fs::metadata(&mailbox).map(|m| m.len()).unwrap_or(0);
        if len > last_len {
            let t = conn.get_time(device).expect("time");
            conn.play_samples(&ac, t + 400u32, &chime).expect("chime");
            notified += 1;
            println!("[biff] new mail! ({len} bytes in the mailbox)");
        }
        last_len = len;
    }

    // Let the second chime finish, then verify it reached the speaker.
    std::thread::sleep(std::time::Duration::from_millis(600));
    let played = speaker
        .lock()
        .unwrap()
        .iter()
        .filter(|&&b| b != 0xFF)
        .count();
    println!("speaker carried {played} chime bytes");
    assert!(played >= chime.len(), "chimes did not play");

    postman.join().unwrap();
    let _ = std::fs::remove_file(&mailbox);
    server.shutdown();
    println!("done");
}
