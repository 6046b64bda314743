//! End-to-end integration: real client, real server, real sockets.
//!
//! These tests run the full stack — client library → TCP/Unix transport →
//! dispatcher → buffering engine → simulated hardware — with virtual
//! clocks so timing assertions are exact.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::hardware::HwConfig;
use audiofile::device::{CaptureSink, SilenceSource, ToneSource, VirtualClock, Wire};
use audiofile::dsp::{g711, reference, Encoding};
use audiofile::server::{RunningServer, ServerBuilder, ServerHandle};
use audiofile::time::ATime;
use std::sync::Arc;

const SIL: u8 = 0xFF;

struct Fixture {
    server: RunningServer,
    clock: Arc<VirtualClock>,
    speaker: audiofile::device::io::CaptureBuffer,
}

impl Fixture {
    /// One codec whose speaker is captured and whose mic is silent.
    fn new() -> Fixture {
        let clock = Arc::new(VirtualClock::new(8000));
        let (sink, speaker) = CaptureSink::new(1 << 22);
        let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
        builder.add_codec(
            clock.clone(),
            Box::new(sink),
            Box::new(SilenceSource::new(SIL)),
        );
        let server = builder.spawn().unwrap();
        Fixture {
            server,
            clock,
            speaker,
        }
    }

    fn connect(&self) -> AudioConn {
        AudioConn::open(&self.server.tcp_addr().unwrap().to_string()).unwrap()
    }

    /// Advances virtual time in update-sized steps, running the server's
    /// update task after each step (as the periodic task would).
    fn run(&self, handle: &ServerHandle, samples: u32) {
        let mut left = samples;
        while left > 0 {
            let n = left.min(800);
            self.clock.advance(n);
            handle.run_update();
            left -= n;
        }
    }
}

#[test]
fn connect_and_inspect_devices() {
    let fx = Fixture::new();
    let conn = fx.connect();
    assert_eq!(conn.devices().len(), 1);
    let d = &conn.devices()[0];
    assert_eq!(d.play_sample_freq, 8000);
    assert_eq!(d.play_nchannels, 1);
    assert!(!d.is_telephone());
    assert_eq!(conn.find_default_device(), Some(0));
    assert!(conn.vendor().contains("audiofile"));
}

#[test]
fn get_time_tracks_virtual_clock() {
    let fx = Fixture::new();
    let mut conn = fx.connect();
    let t0 = conn.get_time(0).unwrap();
    fx.clock.advance(12_345);
    let t1 = conn.get_time(0).unwrap();
    assert_eq!(t1 - t0, 12_345);
}

#[test]
fn played_audio_reaches_the_speaker_at_the_scheduled_time() {
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    let t = conn.get_time(0).unwrap();
    let start = t + 1000u32;
    let data = vec![0x21u8; 500];
    conn.play_samples(&ac, start, &data).unwrap();

    fx.run(&handle, 2400);
    let cap = fx.speaker.lock().unwrap();
    let s = start.ticks() as usize;
    assert!(cap.len() >= s + 500);
    assert!(cap[..s].iter().all(|&b| b == SIL), "leading not silent");
    assert_eq!(&cap[s..s + 500], &data[..]);
}

#[test]
fn two_clients_mix_and_preempt() {
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut c1 = fx.connect();
    let mut c2 = fx.connect();
    let ac1 = c1
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let preempt_attrs = AcAttributes {
        preempt: true,
        ..AcAttributes::default()
    };
    let ac2 = c2.create_ac(0, AcMask::PREEMPTION, &preempt_attrs).unwrap();

    let a = g711::linear_to_ulaw(4000);
    let b = g711::linear_to_ulaw(2000);
    let p = g711::linear_to_ulaw(-1500);

    // Client 1 and client 2 (region 2000..2100) mix; the preemptive write
    // at 2050..2100 replaces the mix.
    c1.play_samples(&ac1, ATime::new(2000), &[a; 100]).unwrap();
    // Use a non-preempting AC for the mixing write.
    let ac2_mix = c2
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    c2.play_samples(&ac2_mix, ATime::new(2000), &[b; 100])
        .unwrap();
    c2.play_samples(&ac2, ATime::new(2050), &[p; 50]).unwrap();
    c2.sync().unwrap();

    fx.run(&handle, 4000);
    let cap = fx.speaker.lock().unwrap();
    let mixed = g711::ulaw_to_linear(cap[2010]);
    assert!(
        (i32::from(mixed) - 6000).abs() < 500,
        "expected ~6000 mixed, got {mixed}"
    );
    let preempted = g711::ulaw_to_linear(cap[2060]);
    assert!(
        (i32::from(preempted) + 1500).abs() < 150,
        "expected ~-1500 preempted, got {preempted}"
    );
}

#[test]
fn record_from_tone_source() {
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock.clone(),
        Box::new(audiofile::device::NullSink),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
    );
    let server = builder.spawn().unwrap();
    let handle = server.handle();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    // Prime the recorder (first record marks the context recording).
    let t0 = conn.get_time(0).unwrap();
    let (_, first) = conn.record_samples(&ac, t0, 0, false).unwrap();
    assert!(first.is_empty());

    // Advance a second of virtual time, then record the past second.
    for _ in 0..10 {
        clock.advance(800);
        handle.run_update();
    }
    let (now, data) = conn.record_samples(&ac, t0 + 800u32, 4000, true).unwrap();
    assert_eq!(data.len(), 4000);
    assert!(now.is_after(t0));
    let dbm = audiofile::dsp::power::power_dbm_ulaw(&data);
    assert!(dbm > -15.0, "recorded tone at {dbm} dBm");
    server.shutdown();
}

#[test]
fn nonblocking_record_returns_partial() {
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    let t0 = conn.get_time(0).unwrap();
    let (_, _) = conn.record_samples(&ac, t0, 0, false).unwrap();
    fx.run(&handle, 800);
    // Ask for 2000 frames but only ~800 have elapsed.
    let (_, data) = conn.record_samples(&ac, t0, 2000, false).unwrap();
    assert!(data.len() >= 700 && data.len() <= 900, "got {}", data.len());
}

#[test]
fn blocking_record_waits_for_time_to_advance() {
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t0 = conn.get_time(0).unwrap();
    let (_, _) = conn.record_samples(&ac, t0, 0, false).unwrap();

    // Drive the clock from another thread while the record blocks.
    let clock = fx.clock.clone();
    let driver = std::thread::spawn(move || {
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            clock.advance(800);
            handle.run_update();
        }
    });
    let (_, data) = conn.record_samples(&ac, t0, 2000, true).unwrap();
    assert_eq!(data.len(), 2000);
    driver.join().unwrap();
}

/// A suspended blocking record finishes on its own retry: the retry runs
/// the record update (§7.2) as a new request would, so the reply does not
/// wait for the periodic task — here an hour away.
#[test]
fn blocked_record_finishes_without_the_periodic_update() {
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(std::time::Duration::from_secs(3600));
    builder.add_codec(
        clock.clone(),
        Box::new(audiofile::device::NullSink),
        Box::new(SilenceSource::new(SIL)),
    );
    let server = builder.spawn().unwrap();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t0 = conn.get_time(0).unwrap();
    let (_, _) = conn.record_samples(&ac, t0, 0, false).unwrap();

    let (done, replies) = std::sync::mpsc::sync_channel(1);
    let recorder = std::thread::spawn(move || {
        let (_, data) = conn.record_samples(&ac, t0 + 800u32, 800, true).unwrap();
        done.send(data.len()).unwrap();
    });
    // Let the request arrive and suspend before its frames exist.
    std::thread::sleep(std::time::Duration::from_millis(300));
    clock.advance(4000);
    let got = replies.recv_timeout(std::time::Duration::from_secs(3));
    assert_eq!(got, Ok(800));
    recorder.join().unwrap();
}

#[test]
fn play_flow_control_blocks_beyond_four_seconds() {
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t0 = conn.get_time(0).unwrap();

    // Fill the entire 4-second buffer; this completes immediately.
    let body = vec![0x30u8; 32_768];
    conn.play_samples(&ac, t0, &body).unwrap();

    // The next second of audio must block until the clock advances.
    let clock = fx.clock.clone();
    let driver = std::thread::spawn(move || {
        for _ in 0..12 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            clock.advance(800);
            handle.run_update();
        }
    });
    let start = std::time::Instant::now();
    conn.play_samples(&ac, t0 + 32_768u32, &vec![0x31u8; 8000])
        .unwrap();
    assert!(
        start.elapsed() > std::time::Duration::from_millis(50),
        "play did not block for flow control"
    );
    driver.join().unwrap();
}

#[test]
fn silence_skipping_needs_no_data() {
    // A client advances its play time across a silent interval (§2.2).
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    conn.play_samples(&ac, ATime::new(1000), &[0x21; 100])
        .unwrap();
    conn.play_samples(&ac, ATime::new(3000), &[0x22; 100])
        .unwrap();
    fx.run(&handle, 4000);
    let cap = fx.speaker.lock().unwrap();
    assert_eq!(&cap[1000..1100], &[0x21; 100][..]);
    assert!(cap[1100..3000].iter().all(|&b| b == SIL));
    assert_eq!(&cap[3000..3100], &[0x22; 100][..]);
}

#[test]
fn unix_socket_transport_works() {
    let clock = Arc::new(VirtualClock::new(8000));
    let path = std::env::temp_dir().join(format!("af-e2e-{}.sock", std::process::id()));
    let (sink, _speaker) = CaptureSink::new(1 << 16);
    let mut builder = ServerBuilder::new().listen_unix(path.clone());
    builder.add_codec(
        clock.clone(),
        Box::new(sink),
        Box::new(SilenceSource::new(SIL)),
    );
    let server = builder.spawn().unwrap();
    let mut conn = AudioConn::open(path.to_str().unwrap()).unwrap();
    let t0 = conn.get_time(0).unwrap();
    clock.advance(500);
    assert_eq!(conn.get_time(0).unwrap() - t0, 500);
    server.shutdown();
}

#[test]
fn big_endian_client_interoperates() {
    // A "big-endian machine" client: every wire field byte-swapped by the
    // library, byte-swapped back by the server (§7.3.1).
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let addr = fx.server.tcp_addr().unwrap().to_string();
    let mut conn = AudioConn::open_with_order(&addr, audiofile::proto::ByteOrder::Big).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t = conn.get_time(0).unwrap();
    conn.play_samples(&ac, t + 500u32, &[0x42u8; 64]).unwrap();
    fx.run(&handle, 1600);
    let cap = fx.speaker.lock().unwrap();
    let s = (t.ticks() + 500) as usize;
    assert_eq!(&cap[s..s + 64], &[0x42u8; 64][..]);
}

#[test]
fn wire_loopback_record_of_played_audio() {
    // Speaker wired to microphone: play a marker and record it back.
    let clock = Arc::new(VirtualClock::new(8000));
    let wire = Wire::new(1 << 20, SIL);
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock.clone(),
        Box::new(wire.sink()),
        Box::new(wire.source()),
    );
    let server = builder.spawn().unwrap();
    let handle = server.handle();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    let t0 = conn.get_time(0).unwrap();
    conn.record_samples(&ac, t0, 0, false).unwrap(); // Arm the recorder.
    conn.play_samples(&ac, t0 + 1000u32, &[0x5A; 200]).unwrap();
    for _ in 0..3 {
        clock.advance(800);
        handle.run_update();
    }
    let (_, heard) = conn.record_samples(&ac, t0 + 1000u32, 200, true).unwrap();
    assert_eq!(heard, vec![0x5A; 200]);
    server.shutdown();
}

#[test]
fn interrupt_erases_buffered_audio() {
    // aplay's control-C behaviour (§8.1.2): after queueing seconds of
    // audio, preemptive silence over [now, end) stops playback on a dime.
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    let t0 = conn.get_time(0).unwrap();
    let body = vec![0x2Au8; 16_000]; // Two seconds queued ahead.
    let end = t0 + 800u32 + 16_000u32;
    conn.play_samples(&ac, t0 + 800u32, &body).unwrap();

    // Let half a second play, then "interrupt".
    fx.run(&handle, 4000);
    let nact = conn.get_time(0).unwrap();
    audiofile::util::erase::erase_future(&mut conn, &ac, nact, end).unwrap();

    fx.run(&handle, 16_000);
    let cap = fx.speaker.lock().unwrap();
    // Audio played up to about the erase point...
    let played_marker = cap[..nact.ticks() as usize]
        .iter()
        .filter(|&&b| b == 0x2A)
        .count();
    assert!(played_marker > 2000, "nothing played before the interrupt");
    // ...and (allowing one update interval of already-committed samples)
    // silence after it.
    let slack = 1100; // One hardware lead of write-through latency.
    let after = &cap[(nact.ticks() as usize + slack)..];
    let leaked = after.iter().filter(|&&b| b == 0x2A).count();
    assert_eq!(leaked, 0, "buffered audio survived the erase");
}

#[test]
fn synchronous_mode_surfaces_errors_immediately() {
    // AFSynchronize: "particularly [useful] when debugging" (§6.1.3).
    let fx = Fixture::new();
    let mut conn = fx.connect();
    conn.set_synchronous(true);
    // An async request with a bad device: the error arrives on the very
    // next call, not at some later round trip.
    conn.set_output_gain(99, 0).unwrap();
    let errs = conn.take_async_errors();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].code, audiofile::proto::ErrorCode::BadDevice);
}

#[test]
fn error_handler_intercepts_async_errors() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let fx = Fixture::new();
    let mut conn = fx.connect();
    static HITS: AtomicU32 = AtomicU32::new(0);
    conn.set_error_handler(Some(Box::new(|e| {
        assert_eq!(e.code, audiofile::proto::ErrorCode::BadDevice);
        HITS.fetch_add(1, Ordering::SeqCst);
    })));
    conn.set_output_gain(99, 0).unwrap();
    conn.sync().unwrap();
    assert_eq!(HITS.load(Ordering::SeqCst), 1);
    // Handled errors are not queued.
    assert!(conn.take_async_errors().is_empty());
}

#[test]
fn free_ac_releases_record_reference() {
    // After the last recording AC is freed, the record update stops
    // running and recorded_until resumes tracking "now" with no capture.
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t0 = conn.get_time(0).unwrap();
    conn.record_samples(&ac, t0, 0, false).unwrap(); // Arm.
    fx.run(&handle, 800);
    conn.free_ac(ac).unwrap();
    conn.sync().unwrap();

    // A new AC can be created and the server still behaves.
    let ac2 = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    fx.run(&handle, 800);
    let t = conn.get_time(0).unwrap();
    let (_, data) = conn.record_samples(&ac2, t - 700u32, 400, true).unwrap();
    assert_eq!(data.len(), 400);
}

#[test]
fn per_request_preempt_flag_overrides_mixing_context() {
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let a = audiofile::dsp::g711::linear_to_ulaw(5000);
    let p = audiofile::dsp::g711::linear_to_ulaw(-2000);
    conn.play_samples(&ac, ATime::new(2000), &[a; 100])
        .unwrap();
    conn.play_samples_with_flags(
        &ac,
        ATime::new(2000),
        &[p; 100],
        audiofile::client::play_flags::PREEMPT,
    )
    .unwrap();
    fx.run(&handle, 4000);
    let got = audiofile::dsp::g711::ulaw_to_linear(fx.speaker.lock().unwrap()[2050]);
    assert!(
        (i32::from(got) + 2000).abs() < 200,
        "expected preempted -2000, got {got}"
    );
}

#[test]
fn devices_keep_separate_notions_of_time() {
    // "When a server supports multiple audio devices, it traffics in
    // device time for each device separately" (§2.1).
    let fast = Arc::new(VirtualClock::new(8000));
    let slow = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        fast.clone(),
        Box::new(audiofile::device::NullSink),
        Box::new(SilenceSource::new(SIL)),
    );
    builder.add_codec(
        slow.clone(),
        Box::new(audiofile::device::NullSink),
        Box::new(SilenceSource::new(SIL)),
    );
    let server = builder.spawn().unwrap();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();

    let a0 = conn.get_time(0).unwrap();
    let b0 = conn.get_time(1).unwrap();
    fast.advance(5000);
    slow.advance(1000);
    assert_eq!(conn.get_time(0).unwrap() - a0, 5000);
    assert_eq!(conn.get_time(1).unwrap() - b0, 1000);
    server.shutdown();
}

#[test]
fn oversized_frame_drops_connection_only() {
    use std::io::{Read, Write};
    let fx = Fixture::new();
    let addr = fx.server.tcp_addr().unwrap();
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&audiofile::proto::ConnSetup::new().encode())
            .unwrap();
        let mut len_buf = [0u8; 4];
        raw.read_exact(&mut len_buf).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
        raw.read_exact(&mut body).unwrap();
        // Claim the maximum length (0xFFFF words) without sending payload;
        // the server must not allocate-and-hang forever on other clients.
        raw.write_all(&[0xFF, 0xFF, 7, 0]).unwrap();
        // Leave the payload unsent and drop.
    }
    let mut conn = fx.connect();
    assert!(conn.get_time(0).is_ok(), "server hurt by oversized frame");
}

// ---- Sample arithmetic, end to end, against `af_dsp::reference`. ----

/// What the loudspeaker must emit, computed with the frozen reference
/// kernels: silence, each play merged in by the `timeLastValid` rule
/// (§7.4.1 — mixed up to it, copied beyond it; a preempting play is copied
/// throughout), then the device output gain over whatever the hardware
/// consumed while that gain was set.
struct SpeakerModel {
    bytes: Vec<u8>,
    last_valid: usize,
}

impl SpeakerModel {
    fn new(frames: usize) -> SpeakerModel {
        SpeakerModel {
            bytes: vec![SIL; frames],
            last_valid: 0,
        }
    }

    fn play(&mut self, at: usize, data: &[u8], preempt: bool) {
        let end = at + data.len();
        let mix_end = if preempt {
            at
        } else {
            self.last_valid.clamp(at, end)
        };
        reference::mix_bytes_scalar(
            Encoding::Mu255,
            &mut self.bytes[at..mix_end],
            &data[..mix_end - at],
        );
        self.bytes[mix_end..end].copy_from_slice(&data[mix_end - at..]);
        self.last_valid = self.last_valid.max(end);
    }

    fn output_gain(&mut self, consumed: std::ops::Range<usize>, db: i32) {
        reference::apply_gain_bytes_scalar(Encoding::Mu255, &mut self.bytes[consumed], db);
    }

    /// The only output connector was disabled while the hardware consumed
    /// this range: nothing reached it, and it back-fills silence.
    fn muted(&mut self, consumed: std::ops::Range<usize>) {
        self.bytes[consumed].fill(SIL);
    }
}

/// Asserts the captured speaker output is exactly `want`, naming the first
/// frame that is not (a byte dump of seconds of audio helps nobody).
fn assert_speaker_emitted(fx: &Fixture, want: &[u8]) {
    let cap = fx.speaker.lock().unwrap();
    assert_eq!(cap.len(), want.len(), "frames captured");
    if let Some(at) = (0..cap.len()).find(|&i| cap[i] != want[i]) {
        panic!(
            "speaker diverged from the reference at frame {at}: {:#04x}, expected {:#04x}",
            cap[at], want[at]
        );
    }
}

#[test]
fn mixed_preempted_converted_and_gained_plays_match_the_reference_kernels() {
    // Every play below starts at least one hardware lead ahead of "now", so
    // none is written through: the update task alone moves (and gains) it.
    const LEAD: usize = 1024;
    assert_eq!(HwConfig::codec().ring_frames as usize, LEAD);

    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut c1 = fx.connect();
    let mut c2 = fx.connect();
    assert_eq!(c1.get_time(0).unwrap(), ATime::new(0));
    let mut model = SpeakerModel::new(4000);

    let mixing = AcAttributes::default();
    let ac1 = c1.create_ac(0, AcMask::default(), &mixing).unwrap();
    let ac2 = c2.create_ac(0, AcMask::default(), &mixing).unwrap();
    let preempting = AcAttributes {
        preempt: true,
        ..AcAttributes::default()
    };
    let ac2p = c2.create_ac(0, AcMask::PREEMPTION, &preempting).unwrap();
    let quieter = AcAttributes {
        play_gain_db: -3,
        ..AcAttributes::default()
    };
    let ac2q = c2.create_ac(0, AcMask::PLAY_GAIN, &quieter).unwrap();
    let lin16 = AcAttributes {
        encoding: Encoding::Lin16,
        ..AcAttributes::default()
    };
    let ac1l = c1.create_ac(0, AcMask::ENCODING, &lin16).unwrap();

    // Two clients overlap on 1400..1600; a preempting write replaces
    // 1500..1600 of the mix.
    let a = [g711::linear_to_ulaw(4000); 400];
    let b = [g711::linear_to_ulaw(2000); 400];
    let p = [g711::linear_to_ulaw(-1500); 100];
    c1.play_samples(&ac1, ATime::new(1200), &a).unwrap();
    model.play(1200, &a, false);
    c2.play_samples(&ac2, ATime::new(1400), &b).unwrap();
    model.play(1400, &b, false);
    c2.play_samples(&ac2p, ATime::new(1500), &p).unwrap();
    model.play(1500, &p, true);

    // A LIN16 client on the µ-law device: its ramp goes through the AC's
    // conversion module, and a play under a −3 dB context mixes into it.
    let ramp: Vec<i16> = (0..300).map(|i| i * 40).collect();
    let ramp_bytes: Vec<u8> = ramp.iter().flat_map(|s| s.to_le_bytes()).collect();
    c1.play_samples(&ac1l, ATime::new(2000), &ramp_bytes)
        .unwrap();
    model.play(
        2000,
        &reference::encode_from_lin16_scalar(Encoding::Mu255, &ramp),
        false,
    );
    let mut quiet = b[..100].to_vec();
    c2.play_samples(&ac2q, ATime::new(2100), &quiet).unwrap();
    reference::apply_gain_bytes_scalar(Encoding::Mu255, &mut quiet, -3);
    model.play(2100, &quiet, false);

    // The output gain changes twice while one play streams out: the
    // hardware runs a lead ahead of the clock, so what it consumes between
    // two clock readings is that interval shifted by the lead.
    fx.run(&handle, 1600);
    c1.set_output_gain(0, -6).unwrap();
    c1.sync().unwrap();
    c1.play_samples(&ac1, ATime::new(3000), &[a[0]; 800])
        .unwrap();
    model.play(3000, &[a[0]; 800], false);
    fx.run(&handle, 800);
    c1.set_output_gain(0, 0).unwrap();
    c1.sync().unwrap();
    model.output_gain(1600 + LEAD..2400 + LEAD, -6);
    fx.run(&handle, 1600);

    assert_speaker_emitted(&fx, &model.bytes);
}

#[test]
fn disabled_output_mutes_the_speaker_until_it_is_enabled_again() {
    const LEAD: usize = 1024;
    assert_eq!(HwConfig::codec().ring_frames as usize, LEAD);

    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    assert_eq!(conn.get_time(0).unwrap(), ATime::new(0));
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let mut model = SpeakerModel::new(3200);

    // The codec has one output connector; clearing its bit mutes.
    conn.disable_output(0, 1).unwrap();
    conn.sync().unwrap();
    // One play the update task moves, partly while muted, and one that
    // starts inside the hardware's lead and is written through.
    let tone = [g711::linear_to_ulaw(4000); 1600];
    conn.play_samples(&ac, ATime::new(1200), &tone).unwrap();
    model.play(1200, &tone, false);
    fx.run(&handle, 800);
    let blip = [g711::linear_to_ulaw(-3000); 100];
    conn.play_samples(&ac, ATime::new(900), &blip).unwrap();
    model.play(900, &blip, false);
    model.muted(0..800 + LEAD);

    conn.enable_output(0, 1).unwrap();
    conn.sync().unwrap();
    conn.play_samples(&ac, ATime::new(1000), &blip).unwrap();
    model.play(1000, &blip, false);
    fx.run(&handle, 2400);
    assert_speaker_emitted(&fx, &model.bytes);
    assert!(model.bytes[800 + LEAD..2800] == tone[800 + LEAD - 1200..]);

    // A connector the device does not have is still refused.
    conn.disable_output(0, 2).unwrap();
    conn.sync().unwrap();
    let errs = conn.take_async_errors();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].code, audiofile::proto::ErrorCode::BadValue);
}

#[test]
fn record_gain_and_conversion_match_the_reference_kernels() {
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock.clone(),
        Box::new(audiofile::device::NullSink),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
    );
    let server = builder.spawn().unwrap();
    let handle = server.handle();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let louder = AcAttributes {
        record_gain_db: 3,
        ..AcAttributes::default()
    };
    let ac_louder = conn.create_ac(0, AcMask::RECORD_GAIN, &louder).unwrap();
    let lin16 = AcAttributes {
        encoding: Encoding::Lin16,
        ..AcAttributes::default()
    };
    let ac_lin16 = conn.create_ac(0, AcMask::ENCODING, &lin16).unwrap();

    let t0 = conn.get_time(0).unwrap();
    conn.record_samples(&ac, t0, 0, false).unwrap(); // Arm the recorder.
    for _ in 0..3 {
        clock.advance(800);
        handle.run_update();
    }
    // The same 800 recorded frames, read back under different settings.
    let from = t0 + 800u32;
    let (_, tone) = conn.record_samples(&ac, from, 800, false).unwrap();
    assert!(audiofile::dsp::power::power_dbm_ulaw(&tone) > -15.0);
    let gained = |db: i32| {
        let mut want = tone.clone();
        reference::apply_gain_bytes_scalar(Encoding::Mu255, &mut want, db);
        want
    };

    // Device input gain, then the AC's record gain on top of it.
    conn.set_input_gain(0, 6).unwrap();
    let (_, data) = conn.record_samples(&ac, from, 800, false).unwrap();
    assert_eq!(data, gained(6), "input gain");
    let (_, data) = conn.record_samples(&ac_louder, from, 800, false).unwrap();
    assert_eq!(data, gained(9), "input gain plus AC record gain");
    conn.set_input_gain(0, 0).unwrap();

    // A LIN16 client hears the tone through the AC's conversion module.
    let (_, data) = conn.record_samples(&ac_lin16, from, 1600, false).unwrap();
    let want: Vec<u8> = reference::decode_to_lin16_scalar(Encoding::Mu255, &tone)
        .iter()
        .flat_map(|s| s.to_le_bytes())
        .collect();
    assert_eq!(data, want, "µ-law to LIN16 conversion");
    server.shutdown();
}

#[test]
fn play_gain_changes_take_effect_on_the_next_play() {
    // `ChangeACAttributes` between plays: −6 dB, +3 dB, back to 0 dB (no
    // gain step at all — the µ-law negative zero survives), then +40 dB,
    // outside the precomputed tables.  A LIN16 context (a 16 K play map)
    // and a µ-law one (a 256-entry map, none at 0 dB) mix into each other.
    let fx = Fixture::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    assert_eq!(conn.get_time(0).unwrap(), ATime::new(0));
    let mut model = SpeakerModel::new(12_800);
    let lin16 = AcAttributes {
        encoding: Encoding::Lin16,
        ..AcAttributes::default()
    };
    let mut ac_lin16 = conn.create_ac(0, AcMask::ENCODING, &lin16).unwrap();
    let mut ac_ulaw = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    let ramp: Vec<i16> = (0..600)
        .map(|i| (i * 97 % 30_000 - 15_000) as i16)
        .collect();
    let ramp_bytes: Vec<u8> = ramp.iter().flat_map(|s| s.to_le_bytes()).collect();
    let codes: Vec<u8> = (0..600).map(|i| (i * 5 % 256) as u8).collect();
    assert!(codes.contains(&0x7F));
    for (step, db) in [-6i16, 3, 0, 40].into_iter().enumerate() {
        let gain = AcAttributes {
            play_gain_db: db,
            ..AcAttributes::default()
        };
        conn.change_ac_attributes(&mut ac_lin16, AcMask::PLAY_GAIN, &gain)
            .unwrap();
        conn.change_ac_attributes(&mut ac_ulaw, AcMask::PLAY_GAIN, &gain)
            .unwrap();
        // Ahead of the hardware's lead; the second play overlaps the first.
        let at = 1_600 + step * 2_400;
        let mut want = reference::encode_from_lin16_scalar(Encoding::Mu255, &ramp);
        reference::apply_gain_bytes_scalar(Encoding::Mu255, &mut want, i32::from(db));
        conn.play_samples(&ac_lin16, ATime::new(at as u32), &ramp_bytes)
            .unwrap();
        model.play(at, &want, false);
        let mut want = codes.clone();
        reference::apply_gain_bytes_scalar(Encoding::Mu255, &mut want, i32::from(db));
        conn.play_samples(&ac_ulaw, ATime::new(at as u32 + 300), &codes)
            .unwrap();
        model.play(at + 300, &want, false);
        fx.run(&handle, 2_400);
    }
    assert!(conn.take_async_errors().is_empty());
    fx.run(&handle, 12_800 - 4 * 2_400);
    assert_speaker_emitted(&fx, &model.bytes);
}

#[test]
fn play_suspended_past_the_horizon_lands_every_frame_exactly_once() {
    // 40,000 frames from device time 2000 do not fit the four-second
    // buffer: the tail is suspended and written as time advances (§2.2),
    // over as many wake-ups as it takes.  What reaches the speaker must be
    // the request's samples, each at its own device time, none twice —
    // whether the context's bytes are the device's own, or go through a
    // play map and wait as mapped frames.
    let ramp: Vec<i16> = (0..40_000)
        .map(|i| (i * 7 % 50_000 - 25_000) as i16)
        .collect();
    let codes: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    let gained = |mut frames: Vec<u8>, db: i32| {
        reference::apply_gain_bytes_scalar(Encoding::Mu255, &mut frames, db);
        frames
    };
    let cases = [
        (Encoding::Mu255, 0, codes.clone(), codes.clone()),
        (
            Encoding::Lin16,
            -6,
            ramp.iter().flat_map(|s| s.to_le_bytes()).collect(),
            gained(
                reference::encode_from_lin16_scalar(Encoding::Mu255, &ramp),
                -6,
            ),
        ),
        (
            Encoding::Alaw,
            3,
            codes.clone(),
            gained(
                reference::encode_from_lin16_scalar(
                    Encoding::Mu255,
                    &reference::decode_to_lin16_scalar(Encoding::Alaw, &codes),
                ),
                3,
            ),
        ),
    ];
    for (encoding, play_gain_db, data, frames) in cases {
        let fx = Fixture::new();
        let handle = fx.server.handle();
        let mut conn = fx.connect();
        let attrs = AcAttributes {
            encoding,
            play_gain_db,
            ..AcAttributes::default()
        };
        let ac = conn
            .create_ac(0, AcMask::ENCODING | AcMask::PLAY_GAIN, &attrs)
            .unwrap();
        assert_eq!(conn.get_time(0).unwrap(), ATime::new(0));

        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let driver = {
            let (clock, handle, done) = (fx.clock.clone(), handle.clone(), done.clone());
            std::thread::spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    clock.advance(800);
                    handle.run_update();
                }
            })
        };
        conn.play_samples(&ac, ATime::new(2000), &data).unwrap();
        done.store(true, std::sync::atomic::Ordering::Release);
        driver.join().unwrap();
        let now = conn.get_time(0).unwrap().ticks();
        assert!(
            now > 42_000 - 32_768,
            "{encoding} play returned before its tail fit the buffer: device time {now}"
        );
        fx.run(&handle, 44_000 - now);

        let mut want = vec![SIL; 44_000];
        want[2000..42_000].copy_from_slice(&frames);
        assert_speaker_emitted(&fx, &want);
    }
}

#[test]
fn requests_queued_behind_a_suspended_play_replay_in_order_bit_exact() {
    // One client, the wire driven by hand so that nothing waits for a
    // reply: a play that reaches past the horizon, then — while it is
    // suspended — two more that overlap it.  The server must hold those
    // (it owns copies; the bytes they arrived in are long reused), replay
    // them in arrival order once the first is through, and the speaker
    // must emit what the reference kernels compute for that order.  The
    // suspended play is big-endian LIN16 under a −6 dB context, so it is
    // the converted frames — the dispatcher's scratch — that wait.
    use audiofile::device::Clock;
    use audiofile::proto::request::play_flags;
    use audiofile::proto::{ByteOrder, ConnSetup, Request};
    use std::io::{Read, Write};

    let fx = Fixture::new();
    let handle = fx.server.handle();
    let order = ByteOrder::Little;
    let mut sock = std::net::TcpStream::connect(fx.server.tcp_addr().unwrap()).unwrap();
    sock.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    sock.write_all(&ConnSetup::new().encode()).unwrap();
    let mut len = [0u8; 4];
    sock.read_exact(&mut len).unwrap();
    let mut setup_reply = vec![0u8; u32::from_le_bytes(len) as usize];
    sock.read_exact(&mut setup_reply).unwrap();

    let mut model = SpeakerModel::new(40_000);
    let mut wire = Vec::new();
    let contexts = [
        (
            1,
            AcMask::ENCODING | AcMask::PLAY_GAIN,
            AcAttributes {
                encoding: Encoding::Lin16,
                play_gain_db: -6,
                ..AcAttributes::default()
            },
        ),
        (2, AcMask::default(), AcAttributes::default()),
    ];
    for (id, mask, attrs) in contexts {
        let create = Request::CreateAc {
            id,
            device: 0,
            mask,
            attrs,
        };
        wire.extend_from_slice(&create.encode(order));
    }
    // 8,000 frames from 30,000: the horizon (device time 0 + 32,768) cuts
    // it after 2,768.
    let ramp: Vec<i16> = (0..8000)
        .map(|i| (i * 13 % 20_000 - 10_000) as i16)
        .collect();
    let ramp_be: Vec<u8> = ramp.iter().flat_map(|s| s.to_be_bytes()).collect();
    let mut long = reference::encode_from_lin16_scalar(Encoding::Mu255, &ramp);
    reference::apply_gain_bytes_scalar(Encoding::Mu255, &mut long, -6);
    let mixed = [g711::linear_to_ulaw(3000); 400];
    let preempting = [g711::linear_to_ulaw(-700); 100];
    for (ac, start, flags, data) in [
        (1, 30_000, play_flags::BIG_ENDIAN_DATA, &ramp_be[..]),
        (2, 31_000, 0, &mixed[..]),
        (2, 31_100, play_flags::PREEMPT, &preempting[..]),
    ] {
        let play = Request::PlaySamples {
            ac,
            start_time: ATime::new(start),
            flags,
            data: data.to_vec(),
        };
        play.encode_into(order, &mut wire);
    }
    model.play(30_000, &long, false);
    model.play(31_000, &mixed, false);
    model.play(31_100, &preempting, true);
    sock.write_all(&wire).unwrap();

    // Time advances until the three replies (12 bytes each) have come.
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let driver = {
        let (clock, handle, done) = (fx.clock.clone(), handle.clone(), done.clone());
        std::thread::spawn(move || {
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(2));
                clock.advance(800);
                handle.run_update();
            }
        })
    };
    let mut replies = [0u8; 36];
    sock.read_exact(&mut replies).unwrap();
    done.store(true, std::sync::atomic::Ordering::Release);
    driver.join().unwrap();
    for (i, reply) in replies.chunks_exact(12).enumerate() {
        // A reply (kind 1) to request 3, 4, 5: the plays, in order.
        assert_eq!(reply[0], 1);
        assert_eq!(u16::from_le_bytes([reply[2], reply[3]]), 3 + i as u16);
    }
    let now = u32::from_le_bytes(replies[8..12].try_into().unwrap());
    assert!(
        (38_000 - 32_768..30_000).contains(&now),
        "first play answered at device time {now}"
    );
    fx.run(&handle, 40_000 - fx.clock.now().ticks());

    assert_speaker_emitted(&fx, &model.bytes);
}
