//! The high-fidelity path: 44.1 kHz 16-bit stereo devices, sample-type
//! conversion modules, and endianness of multi-byte sample data.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::{CaptureSink, SilenceSource, VirtualClock};
use audiofile::dsp::Encoding;
use audiofile::server::{RunningServer, ServerBuilder, ServerHandle};
use std::sync::Arc;

struct Hifi {
    server: RunningServer,
    clock: Arc<VirtualClock>,
    speaker: audiofile::device::io::CaptureBuffer,
}

impl Hifi {
    fn new() -> Hifi {
        let clock = Arc::new(VirtualClock::new(44_100));
        let (sink, speaker) = CaptureSink::new(1 << 24);
        let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
        builder.add_hifi(
            clock.clone(),
            Box::new(sink),
            Box::new(SilenceSource::new(0)),
        );
        let server = builder.spawn().unwrap();
        Hifi {
            server,
            clock,
            speaker,
        }
    }

    fn connect(&self) -> AudioConn {
        AudioConn::open(&self.server.tcp_addr().unwrap().to_string()).unwrap()
    }

    fn run(&self, handle: &ServerHandle, frames: u32) {
        let mut left = frames;
        while left > 0 {
            let n = left.min(2000);
            self.clock.advance(n);
            handle.run_update();
            left -= n;
        }
    }
}

/// Builds interleaved stereo LIN16 LE bytes: left = `l`, right = `r`.
fn stereo_frames(l: i16, r: i16, frames: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(frames * 4);
    for _ in 0..frames {
        out.extend_from_slice(&l.to_le_bytes());
        out.extend_from_slice(&r.to_le_bytes());
    }
    out
}

#[test]
fn hifi_device_attributes() {
    let fx = Hifi::new();
    let conn = fx.connect();
    let d = &conn.devices()[0];
    assert_eq!(d.play_sample_freq, 44_100);
    assert_eq!(d.play_buf_type, Encoding::Lin16);
    assert_eq!(d.play_nchannels, 2);
    assert_eq!(d.kind, audiofile::proto::DeviceKind::Hifi);
}

#[test]
fn stereo_playback_preserves_channel_identity() {
    let fx = Hifi::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    assert_eq!(ac.attrs.encoding, Encoding::Lin16);
    assert_eq!(ac.attrs.channels, 2);
    assert_eq!(ac.frame_bytes(), 4);

    let data = stereo_frames(1000, -2000, 500);
    conn.play_samples(&ac, audiofile::time::ATime::new(4410), &data)
        .unwrap();
    fx.run(&handle, 44_100 / 4);

    let cap = fx.speaker.lock().unwrap();
    // Frame 4410 sits at byte 4410*4.
    let off = 4410 * 4;
    let l = i16::from_le_bytes([cap[off], cap[off + 1]]);
    let r = i16::from_le_bytes([cap[off + 2], cap[off + 3]]);
    assert_eq!(l, 1000);
    assert_eq!(r, -2000);
}

#[test]
fn stereo_mixing_is_per_channel() {
    let fx = Hifi::new();
    let handle = fx.server.handle();
    let mut c1 = fx.connect();
    let mut c2 = fx.connect();
    let ac1 = c1
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let ac2 = c2
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    c1.play_samples(
        &ac1,
        audiofile::time::ATime::new(8000),
        &stereo_frames(100, 0, 200),
    )
    .unwrap();
    c2.play_samples(
        &ac2,
        audiofile::time::ATime::new(8000),
        &stereo_frames(0, 70, 200),
    )
    .unwrap();
    c1.sync().unwrap();
    c2.sync().unwrap();
    fx.run(&handle, 16_000);

    let cap = fx.speaker.lock().unwrap();
    let off = 8050 * 4;
    let l = i16::from_le_bytes([cap[off], cap[off + 1]]);
    let r = i16::from_le_bytes([cap[off + 2], cap[off + 3]]);
    assert_eq!((l, r), (100, 70));
}

#[test]
fn big_endian_sample_data_converted() {
    // The AC declares big-endian data; the server swaps it (§7.3.1).
    let fx = Hifi::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let attrs = AcAttributes {
        big_endian_data: true,
        ..AcAttributes::default()
    };
    let ac = conn.create_ac(0, AcMask::ENDIAN, &attrs).unwrap();

    // 0x1234 left, 0x0042 right, big-endian on the wire.
    let mut data = Vec::new();
    for _ in 0..100 {
        data.extend_from_slice(&0x1234i16.to_be_bytes());
        data.extend_from_slice(&0x0042i16.to_be_bytes());
    }
    conn.play_samples(&ac, audiofile::time::ATime::new(4410), &data)
        .unwrap();
    fx.run(&handle, 11_025);
    let cap = fx.speaker.lock().unwrap();
    let off = 4410 * 4;
    assert_eq!(i16::from_le_bytes([cap[off], cap[off + 1]]), 0x1234);
    assert_eq!(i16::from_le_bytes([cap[off + 2], cap[off + 3]]), 0x0042);
}

#[test]
fn conversion_module_ulaw_client_on_lin16_device() {
    // A telephone-quality client on a HiFi device: the per-AC conversion
    // module translates µ-law to the device's native LIN16 (§2.2).  The
    // data plays at the device rate (no resampling in the server), which
    // is fine for this test's amplitude check.
    let fx = Hifi::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    let attrs = AcAttributes {
        encoding: Encoding::Mu255,
        channels: 2,
        ..AcAttributes::default()
    };
    let ac = conn
        .create_ac(0, AcMask::ENCODING | AcMask::CHANNELS, &attrs)
        .unwrap();
    assert_eq!(ac.frame_bytes(), 2); // Two µ-law bytes per stereo frame.

    let loud = audiofile::dsp::g711::linear_to_ulaw(8000);
    let quiet = audiofile::dsp::g711::linear_to_ulaw(-400);
    let mut data = Vec::new();
    for _ in 0..300 {
        data.push(loud); // Left.
        data.push(quiet); // Right.
    }
    conn.play_samples(&ac, audiofile::time::ATime::new(4410), &data)
        .unwrap();
    fx.run(&handle, 11_025);

    let cap = fx.speaker.lock().unwrap();
    let off = 4500 * 4;
    let l = i16::from_le_bytes([cap[off], cap[off + 1]]);
    let r = i16::from_le_bytes([cap[off + 2], cap[off + 3]]);
    assert!((i32::from(l) - 8000).abs() < 300, "left {l}");
    assert!((i32::from(r) + 400).abs() < 40, "right {r}");
}

#[test]
fn adpcm_client_on_codec_device() {
    // An ADPCM32 client: compressed data expands through the conversion
    // module into the µ-law codec buffer.
    let clock = Arc::new(VirtualClock::new(8000));
    let (sink, speaker) = CaptureSink::new(1 << 22);
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock.clone(),
        Box::new(sink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();
    let handle = server.handle();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let attrs = AcAttributes {
        encoding: Encoding::Adpcm32,
        ..AcAttributes::default()
    };
    let ac = conn.create_ac(0, AcMask::ENCODING, &attrs).unwrap();

    // Encode a 440 Hz tone as ADPCM client-side.
    let pcm: Vec<i16> = (0..4000)
        .map(|i| ((std::f64::consts::TAU * 440.0 * i as f64 / 8000.0).sin() * 12_000.0) as i16)
        .collect();
    let mut st = audiofile::dsp::adpcm::AdpcmState::new();
    let compressed = audiofile::dsp::adpcm::encode(&mut st, &pcm);
    assert_eq!(compressed.len(), 2000); // 4 bits per sample.

    conn.play_samples(&ac, audiofile::time::ATime::new(800), &compressed)
        .unwrap();
    for _ in 0..8 {
        clock.advance(800);
        handle.run_update();
    }
    let cap = speaker.lock().unwrap();
    let heard = &cap[1000..4000];
    let dbm = audiofile::dsp::power::power_dbm_ulaw(heard);
    assert!(dbm > -12.0, "ADPCM tone arrived at {dbm} dBm");
    server.shutdown();
}

#[test]
fn mono_views_of_stereo_device() {
    // §7.4.1's left/right devices: mono plays land in one lane of the
    // stereo buffers, mono records read one lane back.
    let clock = Arc::new(VirtualClock::new(44_100));
    let (sink, speaker) = CaptureSink::new(1 << 24);
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    let (stereo, left, right) = builder.add_hifi_with_mono(
        clock.clone(),
        Box::new(sink),
        Box::new(SilenceSource::new(0)),
    );
    let server = builder.spawn().unwrap();
    let handle = server.handle();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();

    // Three devices advertised: stereo plus two one-channel views.
    assert_eq!(conn.devices().len(), 3);
    assert_eq!(conn.devices()[left].play_nchannels, 1);
    assert_eq!(
        conn.devices()[right].kind,
        audiofile::proto::DeviceKind::HifiRight
    );
    assert_eq!(conn.devices()[left].play_buf_type, Encoding::Lin16);

    // Device time is shared with the parent.
    let t_stereo = conn.get_time(stereo as u8).unwrap();
    let t_left = conn.get_time(left as u8).unwrap();
    assert!((t_left - t_stereo).abs() < 10);

    let ac_l = conn
        .create_ac(left as u8, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let ac_r = conn
        .create_ac(right as u8, AcMask::default(), &AcAttributes::default())
        .unwrap();
    assert_eq!(ac_l.attrs.channels, 1);
    assert_eq!(ac_l.frame_bytes(), 2);

    // Left client plays 5000s, right client plays -7000s, same interval.
    let left_data: Vec<u8> = std::iter::repeat_n(5000i16.to_le_bytes(), 300)
        .flatten()
        .collect();
    let right_data: Vec<u8> = std::iter::repeat_n((-7000i16).to_le_bytes(), 300)
        .flatten()
        .collect();
    conn.play_samples(&ac_l, audiofile::time::ATime::new(8000), &left_data)
        .unwrap();
    conn.play_samples(&ac_r, audiofile::time::ATime::new(8000), &right_data)
        .unwrap();
    conn.sync().unwrap();
    for _ in 0..8 {
        clock.advance(2000);
        handle.run_update();
    }

    let cap = speaker.lock().unwrap();
    let off = 8100 * 4;
    let l = i16::from_le_bytes([cap[off], cap[off + 1]]);
    let r = i16::from_le_bytes([cap[off + 2], cap[off + 3]]);
    assert_eq!((l, r), (5000, -7000), "lanes crossed or lost");
    drop(cap);

    // Mono mixing within a lane: play the left lane again, amplitudes add.
    let more: Vec<u8> = std::iter::repeat_n(1000i16.to_le_bytes(), 300)
        .flatten()
        .collect();
    conn.play_samples(&ac_l, audiofile::time::ATime::new(30_000), &left_data)
        .unwrap();
    conn.play_samples(&ac_l, audiofile::time::ATime::new(30_000), &more)
        .unwrap();
    conn.sync().unwrap();
    for _ in 0..16 {
        clock.advance(2000);
        handle.run_update();
    }
    let cap = speaker.lock().unwrap();
    let off = 30_100 * 4;
    let l = i16::from_le_bytes([cap[off], cap[off + 1]]);
    let r = i16::from_le_bytes([cap[off + 2], cap[off + 3]]);
    assert_eq!(l, 6000, "left lane did not mix");
    assert_eq!(r, 0, "right lane disturbed by left-lane mixing");
    server.shutdown();
}

#[test]
fn mono_view_record_reads_one_lane() {
    // The microphone produces a tone on both channels; a left-view record
    // returns mono data with the tone.
    let clock = Arc::new(VirtualClock::new(44_100));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    let (_stereo, left, _right) = builder.add_hifi_with_mono(
        clock.clone(),
        Box::new(audiofile::device::NullSink),
        Box::new(audiofile::device::ToneSource::lin16(
            440.0, 44_100.0, 9000.0,
        )),
    );
    let server = builder.spawn().unwrap();
    let handle = server.handle();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac = conn
        .create_ac(left as u8, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t0 = conn.get_time(left as u8).unwrap();
    conn.record_samples(&ac, t0, 0, false).unwrap();
    for _ in 0..10 {
        clock.advance(2000);
        handle.run_update();
    }
    // 2000 mono frames = 4000 bytes of LIN16.
    let (_, data) = conn.record_samples(&ac, t0 + 2000u32, 4000, true).unwrap();
    assert_eq!(data.len(), 4000);
    let pcm: Vec<i16> = data
        .chunks_exact(2)
        .map(|c| i16::from_le_bytes([c[0], c[1]]))
        .collect();
    let dbm = audiofile::dsp::power::power_dbm_lin16(&pcm);
    assert!(dbm > -20.0, "mono record heard {dbm} dBm");
    server.shutdown();
}

#[test]
fn lofi_shape_exports_five_devices() {
    // "The Alofi server presents five audio devices to clients" (§7.4.1).
    let clock = Arc::new(VirtualClock::new(8000));
    let hifi_clock = Arc::new(VirtualClock::new(44_100));
    let (builder, _line) = ServerBuilder::lofi(clock, hifi_clock);
    let server = builder
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .spawn()
        .unwrap();
    let conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    assert_eq!(conn.devices().len(), 5);
    use audiofile::proto::DeviceKind as K;
    let kinds: Vec<K> = conn.devices().iter().map(|d| d.kind).collect();
    assert_eq!(
        kinds,
        vec![K::Codec, K::Codec, K::Hifi, K::HifiLeft, K::HifiRight]
    );
    server.shutdown();
}

#[test]
fn device_advertises_supported_sample_types() {
    // §5.4's prioritized-list intent: the device description carries the
    // encodings its conversion modules accept.
    let fx = Hifi::new();
    let mut conn = fx.connect();
    let d = conn.devices()[0];
    assert!(d.supports(Encoding::Lin16));
    assert!(d.supports(Encoding::Mu255));
    assert!(d.supports(Encoding::Adpcm32));
    assert!(!d.supports(Encoding::Celp1016));

    // The client library fails fast on an unsupported encoding.
    let attrs = AcAttributes {
        encoding: Encoding::Celp1015,
        ..AcAttributes::default()
    };
    match conn.create_ac(0, AcMask::ENCODING, &attrs) {
        Err(audiofile::client::AfError::InvalidArgument(msg)) => {
            assert!(msg.contains("CELP1015"), "{msg}");
        }
        other => panic!("expected InvalidArgument, got {other:?}"),
    }
}

#[test]
fn record_returns_big_endian_when_asked() {
    // The AC's endian attribute governs record data too (§7.3.1).
    let clock = Arc::new(VirtualClock::new(44_100));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_hifi(
        clock.clone(),
        Box::new(audiofile::device::NullSink),
        Box::new(audiofile::device::ToneSource::lin16(
            440.0, 44_100.0, 9000.0,
        )),
    );
    let server = builder.spawn().unwrap();
    let handle = server.handle();

    let mut le = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let mut be = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac_le = le
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let attrs = AcAttributes {
        big_endian_data: true,
        ..AcAttributes::default()
    };
    let ac_be = be.create_ac(0, AcMask::ENDIAN, &attrs).unwrap();

    let t0 = le.get_time(0).unwrap();
    le.record_samples(&ac_le, t0, 0, false).unwrap();
    be.record_samples(&ac_be, t0, 0, false).unwrap();
    for _ in 0..5 {
        clock.advance(2000);
        handle.run_update();
    }
    // Same interval through both contexts: byte-swapped twins.
    let (_, le_data) = le.record_samples(&ac_le, t0 + 1000u32, 400, true).unwrap();
    let (_, be_data) = be.record_samples(&ac_be, t0 + 1000u32, 400, true).unwrap();
    assert_eq!(le_data.len(), be_data.len());
    let mut swapped = be_data.clone();
    for pair in swapped.chunks_exact_mut(2) {
        pair.swap(0, 1);
    }
    assert_eq!(le_data, swapped, "endian conversion mismatch on record");
    // And the data is actually a tone, not zeros.
    let pcm: Vec<i16> = le_data
        .chunks_exact(2)
        .map(|c| i16::from_le_bytes([c[0], c[1]]))
        .collect();
    assert!(audiofile::dsp::power::power_dbm_lin16(&pcm) > -20.0);
    server.shutdown();
}

#[test]
fn stereo_and_mono_view_plays_mix_per_lane_as_the_reference_kernel_computes() {
    // A left-view play, a right-view play and a stereo play overlap: each
    // lane of the captured speaker output must be the reference mix of
    // what was played into it, over the whole capture.
    use audiofile::dsp::reference;
    use audiofile::time::ATime;

    let clock = Arc::new(VirtualClock::new(44_100));
    let (sink, speaker) = CaptureSink::new(1 << 24);
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    let (stereo, left, right) = builder.add_hifi_with_mono(
        clock.clone(),
        Box::new(sink),
        Box::new(SilenceSource::new(0)),
    );
    let server = builder.spawn().unwrap();
    let handle = server.handle();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let mut ac_on = |device: usize| {
        conn.create_ac(device as u8, AcMask::default(), &AcAttributes::default())
            .unwrap()
    };
    let (ac_l, ac_r, ac_s) = (ac_on(left), ac_on(right), ac_on(stereo));

    const FRAMES: usize = 22_050;
    let mut want = vec![0u8; FRAMES * 4];
    let mut mix_into = |at: usize, frames: &[u8]| {
        let bytes = at * 4..at * 4 + frames.len();
        reference::mix_bytes_scalar(Encoding::Lin16, &mut want[bytes], frames);
    };
    let mono = |v: i16, n: usize| -> Vec<u8> { v.to_le_bytes().repeat(n) };

    conn.play_samples(&ac_l, ATime::new(4410), &mono(30_000, 500))
        .unwrap();
    mix_into(4410, &stereo_frames(30_000, 0, 500));
    conn.play_samples(&ac_r, ATime::new(4410), &mono(-2000, 500))
        .unwrap();
    mix_into(4410, &stereo_frames(0, -2000, 500));
    // Loud enough that the left lane saturates where all three overlap.
    conn.play_samples(&ac_s, ATime::new(4600), &stereo_frames(5000, 500, 250))
        .unwrap();
    mix_into(4600, &stereo_frames(5000, 500, 250));

    // A mono view tells its owner's time.
    let before = conn.get_time(left as u8).unwrap();
    for _ in 0..10 {
        clock.advance(2205);
        handle.run_update();
    }
    assert_eq!(conn.get_time(left as u8).unwrap() - before, FRAMES as i32);
    assert_eq!(
        conn.get_time(left as u8).unwrap(),
        conn.get_time(stereo as u8).unwrap()
    );

    let cap = speaker.lock().unwrap();
    assert_eq!(cap.len(), want.len());
    if let Some(at) = (0..cap.len()).find(|&i| cap[i] != want[i]) {
        panic!(
            "speaker diverged from the reference at byte {at} (frame {})",
            at / 4
        );
    }
    let saturated = 4700 * 4;
    assert_eq!(
        i16::from_le_bytes([cap[saturated], cap[saturated + 1]]),
        i16::MAX,
        "left lane saturates"
    );
    drop(cap);
    server.shutdown();
}
