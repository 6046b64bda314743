//! Failure injection: malformed requests, bad references, abrupt
//! disconnects.  A production server must shrug all of this off.

#![expect(clippy::disallowed_methods, reason = "tests index by raw time")]

use audiofile::client::{AcAttributes, AcMask, AfError, AudioConn};
use audiofile::device::{SilenceSource, VirtualClock};
use audiofile::proto::{ByteOrder, ConnSetup, ErrorCode, Opcode, Request};
use audiofile::server::stats::{Bus, Server, Shard};
use audiofile::server::{RunningServer, ServerBuilder};
use audiofile::time::ATime;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A server with one silent codec, listening on an ephemeral TCP port.
fn server() -> RunningServer {
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock,
        Box::new(audiofile::device::NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    builder.spawn().unwrap()
}

fn connect(s: &RunningServer) -> AudioConn {
    AudioConn::open(&s.tcp_addr().unwrap().to_string()).unwrap()
}

fn expect_server_error<T: std::fmt::Debug>(result: Result<T, AfError>, code: ErrorCode) {
    match result {
        Err(AfError::Server(e)) => assert_eq!(e.code, code, "wrong error code"),
        other => panic!("expected {code:?}, got {other:?}"),
    }
}

#[test]
fn bad_device_references() {
    let s = server();
    let mut conn = connect(&s);
    expect_server_error(conn.get_time(99), ErrorCode::BadDevice);
    expect_server_error(conn.query_input_gain(99), ErrorCode::BadDevice);
    expect_server_error(conn.query_phone(99), ErrorCode::BadDevice);
}

#[test]
fn phone_requests_on_non_phone_device_are_bad_match() {
    let s = server();
    let mut conn = connect(&s);
    expect_server_error(conn.query_phone(0), ErrorCode::BadMatch);
}

#[test]
fn unimplemented_requests_are_reported_as_such() {
    // DialPhone is "obsolete, do not use"; KillClient "not yet implemented".
    let s = server();
    let mut conn = connect(&s);
    conn.set_synchronous(true);
    // Drive them through the raw request path via sync + async errors.
    conn.set_synchronous(false);

    let mut raw = TcpStream::connect(s.tcp_addr().unwrap()).unwrap();
    raw.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut skip = [0u8; 4];
    raw.read_exact(&mut skip).unwrap();
    let len = u32::from_le_bytes(skip) as usize;
    let mut body = vec![0u8; len];
    raw.read_exact(&mut body).unwrap();

    for req in [
        Request::DialPhone {
            device: 0,
            number: "5551212".into(),
        },
        Request::KillClient { resource: 7 },
    ] {
        raw.write_all(&req.encode(ByteOrder::native())).unwrap();
        let mut header = [0u8; 8];
        raw.read_exact(&mut header).unwrap();
        assert_eq!(header[0], 0, "expected an error message");
        assert_eq!(
            ErrorCode::from_wire(header[1]),
            Some(ErrorCode::BadImplementation)
        );
        let mut payload = [0u8; 8];
        raw.read_exact(&mut payload).unwrap();
    }
}

#[test]
fn unknown_opcode_gets_bad_request_error() {
    let s = server();
    let mut raw = TcpStream::connect(s.tcp_addr().unwrap()).unwrap();
    raw.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut skip = [0u8; 4];
    raw.read_exact(&mut skip).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(skip) as usize];
    raw.read_exact(&mut body).unwrap();

    // Length 1 word (header only), opcode 200.
    raw.write_all(&[1, 0, 200, 0]).unwrap();
    let mut header = [0u8; 8];
    raw.read_exact(&mut header).unwrap();
    assert_eq!(header[0], 0);
    assert_eq!(ErrorCode::from_wire(header[1]), Some(ErrorCode::BadRequest));
}

#[test]
fn truncated_payload_gets_bad_length() {
    let s = server();
    let mut raw = TcpStream::connect(s.tcp_addr().unwrap()).unwrap();
    raw.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut skip = [0u8; 4];
    raw.read_exact(&mut skip).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(skip) as usize];
    raw.read_exact(&mut body).unwrap();

    // GetTime claims only the header (no device byte payload).
    raw.write_all(&[1, 0, Opcode::GetTime.to_wire(), 0])
        .unwrap();
    let mut header = [0u8; 8];
    raw.read_exact(&mut header).unwrap();
    assert_eq!(header[0], 0);
    assert_eq!(ErrorCode::from_wire(header[1]), Some(ErrorCode::BadLength));
}

#[test]
fn bad_ac_references() {
    let s = server();
    let mut conn = connect(&s);
    // Play and record against a context that was never created.
    let fake = audiofile::client::Ac {
        id: 4242,
        device: 0,
        attrs: AcAttributes::default(),
        desc: *conn.device(0).unwrap(),
    };
    expect_server_error(
        conn.play_samples(&fake, ATime::ZERO, &[0u8; 8]),
        ErrorCode::BadAc,
    );
    expect_server_error(
        conn.record_samples(&fake, ATime::ZERO, 8, false),
        ErrorCode::BadAc,
    );
}

#[test]
fn duplicate_ac_id_rejected() {
    let s = server();
    let mut conn = connect(&s);
    let _a = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    // Re-send CreateAc with the same id via a second connection is fine
    // (ids are per-client); duplicating on the SAME connection errors.
    // The client library never does this, so speak protocol directly.
    conn.sync().unwrap();
    assert!(conn.take_async_errors().is_empty());
}

#[test]
fn out_of_range_gain_rejected() {
    let s = server();
    let mut conn = connect(&s);
    conn.set_output_gain(0, 99).unwrap();
    conn.sync().unwrap();
    let errs = conn.take_async_errors();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].code, ErrorCode::BadValue);
    // The gain is unchanged.
    assert_eq!(conn.query_output_gain(0).unwrap().2, 0);
}

#[test]
fn invalid_io_mask_rejected() {
    let s = server();
    let mut conn = connect(&s);
    conn.enable_input(0, 0xFFFF_0000).unwrap();
    conn.sync().unwrap();
    let errs = conn.take_async_errors();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].code, ErrorCode::BadValue);
}

#[test]
fn abrupt_disconnect_leaves_server_healthy() {
    let s = server();
    {
        let mut doomed = connect(&s);
        let ac = doomed
            .create_ac(0, AcMask::default(), &AcAttributes::default())
            .unwrap();
        // Queue a pile of play data, then vanish without reading replies.
        let _ = doomed.play_samples(&ac, ATime::new(1000), &vec![0u8; 16_000]);
        // Drop: socket closes mid-conversation.
    }
    // The server keeps serving new clients.
    let mut conn = connect(&s);
    assert!(conn.get_time(0).is_ok());
    assert!(conn.sync().is_ok());
}

#[test]
fn garbage_setup_is_ignored_by_server() {
    let s = server();
    {
        let mut raw = TcpStream::connect(s.tcp_addr().unwrap()).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // The server drops it; reading yields EOF eventually or nothing.
    }
    let mut conn = connect(&s);
    assert!(conn.get_time(0).is_ok());
}

/// Descriptors the server's reactor has registered.
fn fd_count(s: &RunningServer) -> u64 {
    s.stats().reactor.get(Shard::FdCount)
}

/// Sends `setup` on a fresh connection, reads the `Failed` reply if one is
/// `expected`, and checks the server then closes the connection itself:
/// end-of-file within the read timeout, and the descriptor given up.
fn assert_refused_and_closed(s: &RunningServer, setup: &[u8], expected: Option<&str>) {
    // An admitted client first: once it has an answer the listener is
    // registered, so the gauge holds still until the refused one connects.
    let mut admitted = connect(s);
    admitted.get_time(0).unwrap();
    let fds_before = fd_count(s);

    let mut raw = TcpStream::connect(s.tcp_addr().unwrap()).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    raw.write_all(setup).unwrap();
    if let Some(expected) = expected {
        let mut len_buf = [0u8; 4];
        raw.read_exact(&mut len_buf).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
        raw.read_exact(&mut body).unwrap();
        match audiofile::proto::SetupReply::decode(ByteOrder::native(), &body).unwrap() {
            audiofile::proto::SetupReply::Failed { reason } => {
                assert!(reason.contains(expected), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }
    let mut rest = [0u8; 16];
    match raw.read(&mut rest) {
        Ok(0) => {}
        other => panic!("expected end-of-file after the refusal, got {other:?}"),
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while fd_count(s) != fds_before && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        fd_count(s),
        fds_before,
        "refused connection still registered"
    );
    admitted.get_time(0).unwrap();
}

#[test]
fn version_mismatch_refused() {
    // A refusal that leaves through the connection's deque, behind a full
    // socket, is checked by the reactor's unit test
    // `hang_up_behind_queued_replies_delivers_every_byte_then_end_of_file`.
    let s = server();
    let wrong_version = ConnSetup {
        major: 99,
        ..ConnSetup::new()
    };
    assert_refused_and_closed(&s, &wrong_version.encode().unwrap(), Some("version"));
    // A setup that frames but does not decode (its authorization name is
    // not UTF-8) gets no reply, only the close.
    let mut undecodable = ConnSetup {
        auth_name: "name".into(),
        ..ConnSetup::new()
    }
    .encode()
    .unwrap();
    undecodable[ConnSetup::HEADER_SIZE..][..4].copy_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
    assert_refused_and_closed(&s, &undecodable, None);
}

#[test]
fn refusals_and_protocol_errors_are_not_evictions() {
    // The reactor counts a kick only when the dispatcher evicts a slow
    // client or the bus drops a stalled listener; a refused setup and a
    // framing violation close their connections without one.
    let s = server();
    let wrong_version = ConnSetup {
        major: 99,
        ..ConnSetup::new()
    };
    assert_refused_and_closed(&s, &wrong_version.encode().unwrap(), Some("version"));

    let mut raw = TcpStream::connect(s.tcp_addr().unwrap()).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    raw.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut body).unwrap();
    // A zero-length frame header: the reactor reports it and closes.
    raw.write_all(&[0, 0, Opcode::GetTime.to_wire(), 0])
        .unwrap();
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();

    let stats = s.stats();
    assert_eq!(stats.server.get(Server::ProtocolErrors), 1);
    let kicks = stats.reactor.get(Shard::Evictions);
    let bus = stats
        .broadcast
        .as_ref()
        .map_or(0, |b| b.get(Bus::Evictions));
    assert_eq!(kicks, stats.server.get(Server::EvictedSlow) + bus);
    assert_eq!(kicks, 0);
}

#[test]
fn unconvertible_encoding_in_ac_rejected() {
    let s = server();
    let mut conn = connect(&s);
    let attrs = AcAttributes {
        encoding: audiofile::dsp::Encoding::Celp1016,
        ..AcAttributes::default()
    };
    // The client library rejects it before it ever reaches the wire
    // (the device's supported-types attribute, §5.4)…
    match conn.create_ac(0, AcMask::ENCODING, &attrs) {
        Err(AfError::InvalidArgument(_)) => {}
        other => panic!("expected client-side rejection, got {other:?}"),
    }

    // …and a client that bypasses the check gets BadMatch from the server.
    let mut raw = TcpStream::connect(s.tcp_addr().unwrap()).unwrap();
    raw.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut body).unwrap();
    let req = Request::CreateAc {
        id: 1,
        device: 0,
        mask: audiofile::proto::AcMask::ENCODING,
        attrs,
    };
    raw.write_all(&req.encode(ByteOrder::native())).unwrap();
    let mut header = [0u8; 8];
    raw.read_exact(&mut header).unwrap();
    assert_eq!(header[0], 0, "expected an error message");
    assert_eq!(ErrorCode::from_wire(header[1]), Some(ErrorCode::BadMatch));
}

#[test]
fn channel_mismatch_rejected() {
    let s = server();
    let mut conn = connect(&s);
    let attrs = AcAttributes {
        channels: 2, // The codec is mono.
        ..AcAttributes::default()
    };
    conn.create_ac(0, AcMask::CHANNELS, &attrs).unwrap();
    conn.sync().unwrap();
    let errs = conn.take_async_errors();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].code, ErrorCode::BadMatch);
}

#[test]
fn query_extension_and_list_extensions() {
    // "Not yet implemented" as protocol features, but the requests respond.
    let s = server();
    let mut raw = TcpStream::connect(s.tcp_addr().unwrap()).unwrap();
    raw.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut body).unwrap();

    raw.write_all(
        &Request::QueryExtension {
            name: "AF-FUTURE".into(),
        }
        .encode(ByteOrder::native()),
    )
    .unwrap();
    let mut header = [0u8; 8];
    raw.read_exact(&mut header).unwrap();
    assert_eq!(header[0], 1, "expected a reply");
    let extra = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize * 4;
    let mut payload = vec![0u8; extra];
    raw.read_exact(&mut payload).unwrap();
    assert_eq!(payload[0], 0, "no extensions exist");
}

#[test]
fn refused_change_ac_attributes_leaves_the_context_as_it_was() {
    // Each request below must be refused whole: `BadMatch`, and the next
    // play and record under the context bit-identical to those of a twin
    // context that never saw the request.
    use audiofile::device::{CaptureSink, Clock, ToneSource};
    use audiofile::dsp::Encoding;
    let clock = Arc::new(VirtualClock::new(8000));
    let (sink, speaker) = CaptureSink::new(1 << 20);
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock.clone(),
        Box::new(sink),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
    );
    let s = builder.spawn().unwrap();
    let handle = s.handle();
    let mut conn = connect(&s);
    let run = |ticks: u32| {
        for _ in 0..ticks / 800 {
            clock.advance(800);
            handle.run_update();
        }
    };

    let attrs = AcAttributes {
        encoding: Encoding::Lin16,
        play_gain_db: -6,
        record_gain_db: 3,
        ..AcAttributes::default()
    };
    let mask = AcMask::ENCODING | AcMask::PLAY_GAIN | AcMask::RECORD_GAIN;
    let victim = conn.create_ac(0, mask, &attrs).unwrap();
    let twin = conn.create_ac(0, mask, &attrs).unwrap();
    let tone: Vec<u8> = (0..400i32)
        .flat_map(|i| ((i * 331 % 24_000 - 12_000) as i16).to_le_bytes())
        .collect();
    // The first record under a context starts the microphone's history.
    let t0 = conn.get_time(0).unwrap();
    conn.record_samples(&victim, t0, 0, false).unwrap();
    conn.record_samples(&twin, t0, 0, false).unwrap();

    let refused = [
        // A new encoding beside a channel count the mono codec lacks.
        (
            AcMask::ENCODING | AcMask::CHANNELS,
            AcAttributes {
                encoding: Encoding::Mu255,
                channels: 2,
                ..attrs
            },
        ),
        // An encoding no conversion module handles.
        (
            AcMask::ENCODING | AcMask::PLAY_GAIN,
            AcAttributes {
                encoding: Encoding::Celp1016,
                play_gain_db: 12,
                ..attrs
            },
        ),
        (
            AcMask::CHANNELS | AcMask::PLAY_GAIN | AcMask::PREEMPTION,
            AcAttributes {
                channels: 2,
                play_gain_db: 12,
                preempt: true,
                ..attrs
            },
        ),
    ];
    for (round, (mask, bad)) in refused.into_iter().enumerate() {
        // The client library takes the change for granted; keep ours.
        conn.change_ac_attributes(&mut victim.clone(), mask, &bad)
            .unwrap();
        conn.sync().unwrap();
        let errs = conn.take_async_errors();
        assert_eq!(errs.len(), 1, "round {round}: {errs:?}");
        assert_eq!(errs[0].code, ErrorCode::BadMatch, "round {round}");

        // Both contexts mix the same block into the same background, 1,600
        // ticks apart, ahead of the hardware's lead.
        let t0 = conn.get_time(0).unwrap();
        let background = conn
            .create_ac(0, AcMask::default(), &AcAttributes::default())
            .unwrap();
        for (ac, at) in [(&victim, 2_000u32), (&twin, 3_600)] {
            conn.play_samples(&background, t0 + at, &[0x35; 400])
                .unwrap();
            conn.play_samples(ac, t0 + at, &tone).unwrap();
        }
        conn.free_ac(background).unwrap();
        run(6_400);
        {
            let cap = speaker.lock().unwrap();
            let at = t0.ticks() as usize;
            let (got, want) = (&cap[at + 2_000..][..400], &cap[at + 3_600..][..400]);
            assert!(want.iter().any(|&b| b != 0xFF && b != 0x35));
            assert!(got == want, "round {round}: play after a refused change");
        }
        // And both hear the same 400 frames of the microphone.
        let from = clock.now() - 1_200u32;
        let (_, want) = conn.record_samples(&twin, from, 800, false).unwrap();
        let (_, got) = conn.record_samples(&victim, from, 800, false).unwrap();
        assert_eq!(want.len(), 800);
        assert!(want.chunks_exact(2).any(|s| s != [0, 0]));
        assert!(got == want, "round {round}: record after a refused change");
    }
}

/// A request too long for its frame is the caller's mistake: libAF
/// refuses it before queuing a byte, and the connection goes on.
#[test]
fn an_oversized_request_is_refused_before_it_is_queued() {
    use audiofile::proto::atoms::ATOM_STRING;
    use audiofile::proto::request::PropertyMode;
    let s = server();
    let mut conn = connect(&s);
    let property = conn.intern_atom("OVERSIZED", false).unwrap();
    let value = vec![0x5a; 300_000];
    match conn.change_property(0, PropertyMode::Replace, property, ATOM_STRING, &value) {
        Err(AfError::InvalidArgument(_)) => {}
        other => panic!("expected InvalidArgument, got {other:?}"),
    }
    conn.get_time(0).unwrap();
    // Nothing of it reached the server.
    let (type_, data) = conn.get_property(0, false, property, ATOM_STRING).unwrap();
    assert_eq!((type_, data.len()), (audiofile::proto::Atom::NONE, 0));
}

/// A setup reply counts the devices in one byte: a server with a 256th
/// device could not say what it serves, so it does not start.
#[test]
fn a_server_with_more_devices_than_its_setup_can_count_is_refused() {
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    for _ in 0..256 {
        builder.add_codec(
            clock.clone(),
            Box::new(audiofile::device::NullSink),
            Box::new(SilenceSource::new(0xFF)),
        );
    }
    match builder.spawn() {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Ok(server) => {
            let devices = connect(&server).devices().len();
            panic!("a server with 256 devices started, and told a client of {devices}");
        }
    }
}
