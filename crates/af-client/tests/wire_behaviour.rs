//! Protocol-level tests of the client library against a mock server.
//!
//! A scripted TCP peer stands in for the server so the *exact wire
//! behaviour* of `libAF` can be asserted: the chunking of §5.7, reply
//! suppression on all but the final play chunk, sequence-number tracking,
//! and event/error demultiplexing out of the reply stream (§6.1).

use af_client::{Ac, AcAttributes, AcMask, AudioConn, EventMask};
use af_proto::message::MessageHeader;
use af_proto::request::play_flags;
use af_proto::{
    ByteOrder, ConnSetup, DeviceDesc, DeviceKind, Event, EventDetail, Opcode, Reply, Request,
    SetupReply, WireError, CHUNK_BYTES,
};
use af_time::ATime;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// A captured client request.
#[derive(Debug)]
struct Seen {
    opcode: Opcode,
    request: Request,
}

/// The mock server: accepts one connection, answers setup, then runs a
/// script of `(n_requests_to_absorb, bytes_to_send)` steps.
struct MockServer {
    stream: TcpStream,
    order: ByteOrder,
    seq: u16,
}

fn test_device() -> DeviceDesc {
    DeviceDesc {
        index: 0,
        kind: DeviceKind::Codec,
        play_sample_freq: 8000,
        rec_sample_freq: 8000,
        play_buf_type: af_dsp::Encoding::Mu255,
        rec_buf_type: af_dsp::Encoding::Mu255,
        play_nchannels: 1,
        rec_nchannels: 1,
        play_nsamples_buf: 32_768,
        rec_nsamples_buf: 32_768,
        number_of_inputs: 1,
        number_of_outputs: 1,
        inputs_from_phone: 0,
        outputs_to_phone: 0,
        supported_types: DeviceDesc::all_convertible_types(),
    }
}

impl MockServer {
    /// Binds, and returns `(addr_string, acceptor)` — call `accept` after
    /// the client connects.
    fn listen() -> (String, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (addr, listener)
    }

    /// Accepts the connection and performs the setup exchange.
    fn accept(listener: &TcpListener) -> MockServer {
        let (mut stream, _) = listener.accept().unwrap();
        // A client that sends fewer bytes than a test expects fails the
        // test instead of hanging it.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut header = [0u8; ConnSetup::HEADER_SIZE];
        stream.read_exact(&mut header).unwrap();
        let tail = ConnSetup::tail_len(&header).unwrap();
        let mut rest = vec![0u8; tail];
        stream.read_exact(&mut rest).unwrap();
        let mut whole = header.to_vec();
        whole.extend(rest);
        let setup = ConnSetup::decode(&whole).unwrap();
        let order = setup.byte_order;
        let reply = SetupReply::Success {
            major: af_proto::PROTOCOL_MAJOR,
            minor: af_proto::PROTOCOL_MINOR,
            vendor: "mock".into(),
            devices: vec![test_device()],
        };
        stream.write_all(&reply.encode(order).unwrap()).unwrap();
        MockServer {
            stream,
            order,
            seq: 0,
        }
    }

    /// Reads one framed request, tracking the sequence number.
    fn read_request(&mut self) -> Seen {
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header).unwrap();
        let (opcode, payload_len) = Request::parse_header(self.order, &header).unwrap();
        let mut payload = vec![0u8; payload_len];
        self.stream.read_exact(&mut payload).unwrap();
        self.seq = self.seq.wrapping_add(1);
        Seen {
            opcode,
            request: Request::decode(self.order, opcode, &payload).unwrap(),
        }
    }

    /// Reads `len` raw bytes, counting the request frames in them.
    fn capture(&mut self, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        self.stream.read_exact(&mut bytes).unwrap();
        let mut rest = &bytes[..];
        while let Some(header) = rest.first_chunk::<4>() {
            let (_, payload_len) = Request::parse_header(self.order, header).unwrap();
            rest = &rest[4 + payload_len..];
            self.seq = self.seq.wrapping_add(1);
        }
        bytes
    }

    /// Sends a reply for the most recently read request.
    fn reply(&mut self, reply: &Reply) {
        self.stream
            .write_all(&reply.encode(self.order, self.seq))
            .unwrap();
    }

    /// Sends an event.
    fn event(&mut self, ev: &Event) {
        self.stream
            .write_all(&ev.encode(self.order, self.seq))
            .unwrap();
    }

    /// Sends an error for the most recently read request.
    fn error(&mut self, code: af_proto::ErrorCode) {
        let err = WireError {
            code,
            sequence: self.seq,
            bad_value: 0,
            opcode: 0,
        };
        self.stream
            .write_all(&af_proto::message::encode_error(self.order, &err))
            .unwrap();
    }
}

fn connect_pair() -> (AudioConn, MockServer) {
    let (addr, listener) = MockServer::listen();
    let client = std::thread::spawn(move || AudioConn::open(&addr).unwrap());
    let server = MockServer::accept(&listener);
    (client.join().unwrap(), server)
}

#[test]
fn large_play_chunks_at_8k_with_suppressed_replies() {
    let (mut conn, mut server) = connect_pair();
    let driver = std::thread::spawn(move || {
        let mut seen = Vec::new();
        // CreateAc is asynchronous: absorbed, no reply.
        seen.push(server.read_request());
        // 20_000 bytes of µ-law → 8192 + 8192 + 3616.
        for _ in 0..3 {
            seen.push(server.read_request());
        }
        server.reply(&Reply::Time {
            time: ATime::new(77),
        });
        seen
    });

    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t = conn
        .play_samples(&ac, ATime::new(1000), &vec![0x21u8; 20_000])
        .unwrap();
    assert_eq!(t, ATime::new(77));

    let seen = driver.join().unwrap();
    assert_eq!(seen[0].opcode, Opcode::CreateAc);
    let chunks: Vec<(ATime, usize, u8)> = seen[1..]
        .iter()
        .map(|s| match &s.request {
            Request::PlaySamples {
                start_time,
                data,
                flags,
                ..
            } => (*start_time, data.len(), *flags),
            other => panic!("expected PlaySamples, got {other:?}"),
        })
        .collect();
    // §5.7: "long play and record requests are 'chunked' into 8K byte
    // pieces"; §10.1.3: replies suppressed on all but the final chunk.
    assert_eq!(
        chunks,
        vec![
            (ATime::new(1000), 8192, play_flags::SUPPRESS_REPLY),
            (ATime::new(1000 + 8192), 8192, play_flags::SUPPRESS_REPLY),
            (ATime::new(1000 + 16_384), 3616, 0),
        ]
    );
}

/// The frames a play must put on the wire: the owned `PlaySamples`
/// encoding of each frame-aligned 8 KB chunk, the reply suppressed on all
/// but the last.
fn owned_play_frames(order: ByteOrder, ac: &Ac, start: u32, data: &[u8]) -> Vec<u8> {
    let chunk_bytes = CHUNK_BYTES / ac.frame_bytes() * ac.frame_bytes();
    let chunks = data.len().div_ceil(chunk_bytes);
    let mut frames = Vec::new();
    for (i, chunk) in data.chunks(chunk_bytes).enumerate() {
        let flags = if i + 1 < chunks {
            play_flags::SUPPRESS_REPLY
        } else {
            0
        };
        let frame_time = start + (i * chunk_bytes / ac.frame_bytes()) as u32;
        let request = Request::PlaySamples {
            ac: ac.id,
            start_time: ATime::new(frame_time),
            flags,
            data: chunk.to_vec(),
        };
        request.encode_into(order, &mut frames);
    }
    frames
}

/// Plays `(stereo LIN16?, bytes)` cases, each after a buffered
/// `select_events`, and asserts that the server receives exactly the bytes
/// of the owned request encodings: the contexts, then per case the
/// `SelectEvents` and the play's chunk frames.
fn assert_plays_send_the_owned_encodings(cases: &[(bool, usize)]) {
    let (mut conn, mut server) = connect_pair();
    let order = server.order;

    let stereo_attrs = AcAttributes {
        encoding: af_dsp::Encoding::Lin16,
        channels: 2,
        ..AcAttributes::default()
    };
    let contexts = [
        (AcMask::default(), AcAttributes::default()),
        (AcMask::ENCODING | AcMask::CHANNELS, stereo_attrs),
    ];
    let mut want = vec![Vec::new()];
    let mut acs = Vec::new();
    for (mask, attrs) in contexts {
        let ac = conn.create_ac(0, mask, &attrs).unwrap();
        let create = Request::CreateAc {
            id: ac.id,
            device: 0,
            mask,
            attrs,
        };
        create.encode_into(order, &mut want[0]);
        acs.push(ac);
    }
    let select = Request::SelectEvents {
        device: 0,
        mask: EventMask::ALL,
    };
    let plays: Vec<(&Ac, Vec<u8>)> = cases
        .iter()
        .enumerate()
        .map(|(n, &(stereo, len))| {
            let data = (0..len).map(|i| (i * 131 + i / 251 + n) as u8).collect();
            (&acs[usize::from(stereo)], data)
        })
        .collect();
    for (i, (ac, data)) in plays.iter().enumerate() {
        if i > 0 {
            want.push(Vec::new());
        }
        select.encode_into(order, &mut want[i]);
        want[i].extend(owned_play_frames(order, ac, 1000, data));
    }

    let lens: Vec<usize> = want.iter().map(Vec::len).collect();
    let peer = std::thread::spawn(move || {
        let captured: Vec<Vec<u8>> = lens
            .into_iter()
            .map(|len| {
                let bytes = server.capture(len);
                server.reply(&Reply::Time {
                    time: ATime::new(len as u32),
                });
                bytes
            })
            .collect();
        (captured, server)
    });
    for ((ac, data), want) in plays.iter().zip(&want) {
        conn.select_events(0, EventMask::ALL).unwrap();
        let t = conn.play_samples(ac, ATime::new(1000), data).unwrap();
        assert_eq!(t, ATime::new(want.len() as u32));
    }
    let (captured, _server) = peer.join().unwrap();
    for (i, (got, want)) in captured.iter().zip(&want).enumerate() {
        let first_diff = got.iter().zip(want).position(|(g, w)| g != w);
        assert!(
            got == want,
            "case {:?}: {} bytes captured, {} expected, first difference at {first_diff:?}",
            cases[i],
            got.len(),
            want.len()
        );
    }
}

#[test]
fn plays_send_exactly_the_owned_request_encodings() {
    // One byte, a padded chunk, exactly one chunk, the e2e's 32 KB, a
    // stereo LIN16 play, and 9 MB: 1,152 chunks, more than one write
    // carries and more than Linux's `IOV_MAX` of 1,024 slices.
    let cases = [
        (false, 1),
        (false, 8191),
        (false, CHUNK_BYTES),
        (false, 32 * 1024),
        (true, 3 * CHUNK_BYTES + 4 * 7),
        (false, 9 << 20),
    ];
    assert_plays_send_the_owned_encodings(&cases);
}

#[test]
fn record_chunks_and_reassembles() {
    let (mut conn, mut server) = connect_pair();
    let driver = std::thread::spawn(move || {
        let _create = server.read_request();
        // Arming zero-byte record.
        let _arm = server.read_request();
        server.reply(&Reply::Record {
            time: ATime::new(1),
            data: vec![],
        });
        // Two chunks: 8192 then 1808.
        for expected in [8192usize, 1808] {
            let seen = server.read_request();
            match seen.request {
                Request::RecordSamples { nbytes, .. } => {
                    assert_eq!(nbytes as usize, expected)
                }
                other => panic!("expected RecordSamples, got {other:?}"),
            }
            server.reply(&Reply::Record {
                time: ATime::new(expected as u32),
                data: vec![0x42; expected],
            });
        }
    });

    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    conn.record_samples(&ac, ATime::ZERO, 0, false).unwrap();
    let (t, data) = conn
        .record_samples(&ac, ATime::new(100), 10_000, true)
        .unwrap();
    assert_eq!(data.len(), 10_000);
    assert!(data.iter().all(|&b| b == 0x42));
    assert_eq!(t, ATime::new(1808));
    driver.join().unwrap();
}

#[test]
fn events_and_stale_errors_demuxed_around_a_reply() {
    let (mut conn, mut server) = connect_pair();
    let driver = std::thread::spawn(move || {
        let seen = server.read_request();
        assert_eq!(seen.opcode, Opcode::GetTime);
        // Interleave: an event, an error for an OLD sequence, the reply.
        server.event(&Event {
            device: 0,
            device_time: ATime::new(5),
            host_time_ms: 9,
            detail: EventDetail::Hook { off_hook: true },
        });
        let old = WireError {
            code: af_proto::ErrorCode::BadValue,
            sequence: 9999, // Not the pending request.
            bad_value: 3,
            opcode: 17,
        };
        server
            .stream
            .write_all(&af_proto::message::encode_error(server.order, &old))
            .unwrap();
        server.reply(&Reply::Time {
            time: ATime::new(123),
        });
        // Keep the connection open until the client has inspected its
        // queues (a closed socket would fail `pending`).
        server
    });

    let t = conn.get_time(0).unwrap();
    assert_eq!(t, ATime::new(123));
    let _server = driver.join().unwrap();

    // The event was queued, the stale error recorded asynchronously.
    assert_eq!(conn.pending().unwrap(), 1);
    let ev = conn.next_event().unwrap();
    assert_eq!(ev.detail, EventDetail::Hook { off_hook: true });
    let errs = conn.take_async_errors();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].code, af_proto::ErrorCode::BadValue);
}

#[test]
fn if_event_reads_past_a_queued_event_that_does_not_match() {
    // With a non-matching event already queued, `AFIfEvent` must still
    // read the socket for the one it waits for, and leave the other queued.
    let (mut conn, mut server) = connect_pair();
    let event = |detail| Event {
        device: 0,
        device_time: ATime::new(5),
        host_time_ms: 9,
        detail,
    };
    let ring = EventDetail::Ring { ringing: true };
    server.event(&event(EventDetail::Hook { off_hook: true }));
    while conn.pending().unwrap() == 0 {
        std::thread::yield_now();
    }
    server.event(&event(ring));
    // On a thread of its own, so a wait that never reads fails the test
    // rather than hanging it.
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    let waiter = std::thread::spawn(move || {
        let got = conn.if_event(|e| e.detail == ring).map(|e| e.detail);
        tx.send((got, conn.pending())).unwrap();
    });
    let (got, left) = rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("if_event never returned");
    waiter.join().unwrap();
    assert_eq!(got.unwrap(), ring);
    assert_eq!(left.unwrap(), 1, "the hook event stays queued");
    drop(server);
}

#[test]
fn matching_error_fails_the_round_trip() {
    let (mut conn, mut server) = connect_pair();
    let driver = std::thread::spawn(move || {
        let _ = server.read_request();
        server.error(af_proto::ErrorCode::BadDevice);
    });
    match conn.get_time(0) {
        Err(af_client::AfError::Server(e)) => {
            assert_eq!(e.code, af_proto::ErrorCode::BadDevice)
        }
        other => panic!("expected server error, got {other:?}"),
    }
    driver.join().unwrap();
}

#[test]
fn sequence_numbers_track_every_request() {
    // Async requests still advance the sequence; the reply to a later
    // round trip carries the total count.
    let (mut conn, mut server) = connect_pair();
    let driver = std::thread::spawn(move || {
        for _ in 0..5 {
            let _ = server.read_request(); // 4 × NoOperation + SyncConnection.
        }
        assert_eq!(server.seq, 5);
        server.reply(&Reply::Sync);
    });
    for _ in 0..4 {
        conn.no_op().unwrap();
    }
    conn.sync().unwrap();
    driver.join().unwrap();
}

#[test]
fn server_disconnect_mid_reply_is_clean_error() {
    let (mut conn, server) = connect_pair();
    let driver = std::thread::spawn(move || {
        let mut server = server;
        let _ = server.read_request();
        // Send half a message header, then hang up.
        let partial = MessageHeader {
            kind: af_proto::message::MessageKind::Reply,
            detail: 1,
            sequence: 1,
            extra_words: 1,
        }
        .encode(server.order);
        server.stream.write_all(&partial[..4]).unwrap();
        drop(server);
    });
    match conn.get_time(0) {
        Err(af_client::AfError::ConnectionClosed) | Err(af_client::AfError::Io(_)) => {}
        other => panic!("expected disconnect error, got {other:?}"),
    }
    driver.join().unwrap();
}
