//! Chaos soak: full client ↔ server ↔ LineServer sessions under injected
//! faults.  Every scenario uses a fixed seed, runs in bounded time, and
//! asserts the system *recovers* — no hangs, no panics, no unbounded
//! queues, and healthy clients keep getting audio service.

use af_chaos::{ChaosStream, FaultProxy, HopPlan, Router, StreamFaultPlan};
use audiofile::client::{AcAttributes, AcMask, AudioConn, ConnectOptions};
use audiofile::device::lineserver::{LineServerFirmware, LineServerLink};
use audiofile::device::{NullSink, SilenceSource, SystemClock, VirtualClock};
use audiofile::proto::{ByteOrder, ConnSetup, Request};
use audiofile::server::stats::{Server, Shard};
use audiofile::server::{RunningServer, ServerBuilder, OUTBOUND_QUEUE_CAPACITY};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn codec_server() -> RunningServer {
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock,
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    builder.spawn().unwrap()
}

/// Opens a raw TCP connection to `addr` and completes the setup handshake.
fn raw_handshake(addr: SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut body).unwrap();
    raw
}

#[test]
fn slow_client_is_evicted_not_fatal() {
    let server = codec_server();
    let stats = server.stats();

    // A well-behaved client, connected before the abuse starts.
    let mut healthy = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    assert!(healthy.get_time(0).is_ok());

    // The slow client: floods reply-bearing requests and never reads a
    // byte back.  Replies pile up — first in the kernel socket buffers,
    // then in the server's per-client outbound queue, which is bounded at
    // OUTBOUND_QUEUE_CAPACITY.  When it overflows, the dispatcher must
    // evict this client rather than buffer without limit or stall.
    const {
        assert!(
            OUTBOUND_QUEUE_CAPACITY <= 1024,
            "outbound queue must stay small enough that a slow client \
             cannot hold significant server memory"
        );
    }
    let mut slow = raw_handshake(server.tcp_addr().unwrap());
    slow.set_nodelay(true).unwrap();
    let get_time = Request::GetTime { device: 0 }.encode(ByteOrder::native());
    let batch: Vec<u8> = get_time
        .iter()
        .copied()
        .cycle()
        .take(get_time.len() * 1024)
        .collect();

    let start = Instant::now();
    let mut evicted = false;
    // 2048 batches ≈ 2M requests ≫ any sane socket buffering; in practice
    // eviction lands far earlier.
    for _ in 0..2048 {
        if slow.write_all(&batch).is_err() {
            // Kicked: the server shut the socket down under us.
            evicted = true;
            break;
        }
        if stats.server.get(Server::EvictedSlow) > 0 {
            evicted = true;
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(25),
            "server failed to evict a slow client in bounded time"
        );
    }
    assert!(evicted, "slow client was never evicted");

    // Give the eviction a moment to fully settle, then verify the healthy
    // client and new connections still get service.
    server.handle().barrier();
    assert!(stats.server.get(Server::EvictedSlow) >= 1);
    assert!(healthy.get_time(0).is_ok());
    let mut fresh = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    assert!(fresh.get_time(0).is_ok());
}

#[test]
fn lossy_lineserver_degrades_to_silence_not_stall() {
    // LineServer firmware on a real-time clock; the server reaches it
    // through a router that drops 40% of datagrams each way, duplicates
    // and jitters them.
    let clock = Arc::new(SystemClock::new(8000));
    let (fw, addr) = LineServerFirmware::boot(
        clock,
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    )
    .unwrap();
    let stop = fw.stop_handle();
    let fw_thread = std::thread::spawn(move || fw.run());

    let hop = HopPlan::new()
        .drop(0.4)
        .duplicate(0.2)
        .jitter(Duration::from_millis(5));
    let router = Router::spawn(addr, vec![hop], 0xDE5A).unwrap();
    let link = LineServerLink::connect(router.addr()).unwrap();

    let mut builder = ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(Duration::from_millis(50));
    builder.add_lineserver_link(link);
    let server = builder.spawn().unwrap();

    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    // Time must keep flowing even when individual exchanges are lost:
    // successful replies re-anchor it, lost ones free-run it locally.
    let t0 = conn.get_time(0).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let t1 = conn.get_time(0).unwrap();
    let advanced = t1 - t0;
    assert!(
        (500..=16_000).contains(&advanced),
        "device time advanced {advanced} ticks in 250 ms under loss"
    );

    // Play and record keep completing: lost play exchanges become silent
    // gaps, lost record exchanges come back as silence fill — never a
    // stall, never an error surfaced to the client.
    let start = Instant::now();
    for _ in 0..5 {
        let t = conn.get_time(0).unwrap();
        conn.play_samples(&ac, t + 1200u32, &[0x44u8; 400]).unwrap();
        conn.record_samples(&ac, t, 0, false).unwrap(); // Arm.
        let (_, data) = conn.record_samples(&ac, t + 200u32, 400, true).unwrap();
        assert_eq!(data.len(), 400, "record must return the full buffer");
    }
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "audio calls must complete in bounded time under loss"
    );
    let hop = router.hop_stats()[0];
    assert!(
        hop.dropped_loss > 0 && hop.duplicated > 0,
        "the router must actually have injected faults: {hop:?}"
    );

    server.shutdown();
    stop.store(true, Ordering::Relaxed);
    fw_thread.join().unwrap();
}

#[test]
fn corrupting_stream_disconnects_only_that_client() {
    let server = codec_server();
    let stats = server.stats();

    let mut healthy = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();

    // A deterministically fatal framing error: a zero-length frame header.
    // The server must treat it as a protocol error and drop that client.
    let mut garbage = raw_handshake(server.tcp_addr().unwrap());
    garbage.write_all(&[0, 0, 0, 0]).unwrap();
    let mut buf = [0u8; 64];
    // The server closes the connection; reads drain to EOF.
    loop {
        match garbage.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // A connection whose writes are randomly corrupted, dribbled out in
    // 7-byte chunks, and cut after 8 KB.  Whatever reaches the server,
    // the damage must stay contained to this one connection.  A timeout
    // on the underlying socket keeps the probe itself bounded: corrupted
    // length fields can leave the server legitimately waiting for bytes
    // that never come.
    let raw = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut chaotic = ChaosStream::new(
        raw,
        StreamFaultPlan::new(0xC0DE)
            .corruption(0.3)
            .partial_writes(7)
            .cut_after(8192),
    );
    let get_time = Request::GetTime { device: 0 }.encode(ByteOrder::native());
    let _ = chaotic.write_all(&ConnSetup::new().encode().unwrap());
    for _ in 0..64 {
        // Errors (resets, timeouts, the cut) are expected; hangs are not.
        if chaotic.write_all(&get_time).is_err() {
            break;
        }
        let _ = chaotic.read(&mut buf);
    }
    drop(chaotic);

    // Meanwhile a client over a merely *awkward* stream — partial reads
    // and writes, no corruption — must work: framing reassembles chunks.
    let plan = StreamFaultPlan::new(0x5EED)
        .partial_reads(3)
        .partial_writes(5);
    let proxy = FaultProxy::spawn(server.tcp_addr().unwrap(), plan).unwrap();
    let mut dribble = AudioConn::open(&proxy.addr().to_string())
        .expect("partial I/O alone must not break a client");
    assert!(dribble.get_time(0).is_ok());

    server.handle().barrier();
    assert!(
        stats.server.get(Server::ProtocolErrors) >= 1,
        "zero-length frame must be counted as a protocol error"
    );
    // The blast radius was one connection: the healthy client never
    // noticed, and new clients are served.
    assert!(healthy.get_time(0).is_ok());
    assert!(healthy.sync().is_ok());
    let mut fresh = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    assert!(fresh.get_time(0).is_ok());
}

#[test]
fn one_byte_at_a_time_handshake_and_frames_survive() {
    // Partial-frame torture: the setup header, setup tail, and every
    // request frame header arrive one byte per write, with a pause that
    // makes each byte a separate readiness event on the reactor.  Framing
    // must reassemble them all; nothing may be misparsed or dropped.
    let server = codec_server();
    let mut raw = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    raw.set_nodelay(true).unwrap();

    let dribble = |bytes: &[u8], raw: &mut TcpStream| {
        for b in bytes {
            raw.write_all(std::slice::from_ref(b)).unwrap();
            raw.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    dribble(&ConnSetup::new().encode().unwrap(), &mut raw);
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut body).unwrap();

    for _ in 0..3 {
        let get_time = Request::GetTime { device: 0 }.encode(ByteOrder::native());
        dribble(&get_time, &mut raw);
        // A Time reply is exactly 12 bytes: 8-byte message header plus
        // the 4-byte tick count.
        let mut reply = [0u8; 12];
        raw.read_exact(&mut reply).unwrap();
    }

    // The abuse left the server fully functional for everyone else.
    let mut fresh = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    assert!(fresh.get_time(0).is_ok());
    server.shutdown();
}

#[test]
fn chunk_limited_server_streams_keep_a_pipelined_burst_in_order() {
    // Faults below the server's socket: the proxy reads ≤ 3 and writes
    // ≤ 5 bytes per call on both legs, so requests reach the server split
    // anywhere and its replies drain a few bytes at a time.  A hundred
    // pipelined requests, small and 4 KB replies interleaved, must come
    // back whole, once each, in request order, through the direct reply
    // write — the path every connection takes — and the deque behind it.
    use audiofile::proto::message::{MessageHeader, MessageKind};
    use audiofile::proto::request::record_flags;
    use audiofile::proto::{AcAttributes, AcMask, Reply};
    use audiofile::time::ATime;

    let order = ByteOrder::native();
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();
    let plan = StreamFaultPlan::new(0x5EED)
        .partial_reads(3)
        .partial_writes(5);
    let proxy = FaultProxy::spawn(server.tcp_addr().unwrap(), plan).unwrap();
    let mut raw = raw_handshake(proxy.addr());
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    let read_reply = |raw: &mut TcpStream, seq: u16| -> Reply {
        let mut head = [0u8; MessageHeader::SIZE];
        raw.read_exact(&mut head).unwrap();
        let header = MessageHeader::decode(order, &head).unwrap();
        assert_eq!(header.kind, MessageKind::Reply, "request {seq}");
        assert_eq!(header.sequence, seq, "replies out of request order");
        let mut payload = vec![0u8; header.payload_len()];
        raw.read_exact(&mut payload).unwrap();
        Reply::decode(order, &header, &payload).unwrap()
    };

    // Requests 1–2: an audio context, and the record that primes it.
    let mut wire = Request::CreateAc {
        id: 1,
        device: 0,
        mask: AcMask::default(),
        attrs: AcAttributes::default(),
    }
    .encode(order);
    wire.extend(
        Request::RecordSamples {
            ac: 1,
            start_time: ATime::new(0),
            nbytes: 0,
            flags: 0,
        }
        .encode(order),
    );
    raw.write_all(&wire).unwrap();
    let Reply::Record { time: t0, .. } = read_reply(&mut raw, 2) else {
        panic!("expected a Record reply");
    };
    for _ in 0..10 {
        clock.advance(800);
        server.handle().run_update();
    }

    // Requests 3–102 in one write: GetTime and 4000-byte records of the
    // second just recorded, alternating.
    let mut wire = Vec::new();
    for i in 0..100 {
        let req = if i % 2 == 0 {
            Request::GetTime { device: 0 }
        } else {
            Request::RecordSamples {
                ac: 1,
                start_time: t0 + 800u32,
                nbytes: 4000,
                flags: record_flags::BLOCK,
            }
        };
        wire.extend(req.encode(order));
    }
    raw.write_all(&wire).unwrap();
    for i in 0..100u16 {
        match read_reply(&mut raw, 3 + i) {
            Reply::Time { .. } => assert_eq!(i % 2, 0),
            Reply::Record { data, .. } => {
                assert_eq!(i % 2, 1);
                assert_eq!(data.len(), 4000);
                assert!(data.iter().all(|&b| b == 0xFF), "recorded silence, intact");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let direct = server.stats().reactor.get(Shard::DirectWrites);
    assert!(direct > 0, "no reply took the direct write");
    server.shutdown();
}

#[test]
fn flapping_connection_reconnects() {
    // Phase 1: a server dies under a connected client.
    let server = codec_server();
    let addr = server.tcp_addr().unwrap();
    let mut conn = AudioConn::open(&addr.to_string()).unwrap();
    assert!(conn.get_time(0).is_ok());
    server.shutdown();
    let err = match conn.get_time(0) {
        Ok(_) => panic!("call must fail once the server is gone"),
        Err(e) => e,
    };
    assert!(err.is_transient(), "a dead server is a retryable condition");

    // Phase 2: the client retries with backoff while the server is still
    // coming back, and connects once it is up.  Reserve a port, start the
    // reconnect attempt against it, then bring the server up mid-retry.
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = reserved.local_addr().unwrap();
    drop(reserved);

    let opts = ConnectOptions {
        timeout: Duration::from_millis(500),
        retries: 10,
        backoff: Duration::from_millis(50),
    };
    let client = std::thread::spawn(move || {
        let start = Instant::now();
        let conn = AudioConn::open_with_options(&addr.to_string(), ByteOrder::native(), &opts);
        (conn, start.elapsed())
    });

    std::thread::sleep(Duration::from_millis(300));
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp(addr);
    builder.add_codec(
        clock,
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let revived = builder.spawn().unwrap();

    let (conn, elapsed) = client.join().unwrap();
    let mut conn = conn.expect("client must reconnect once the server returns");
    assert!(conn.get_time(0).is_ok());
    assert!(
        elapsed < Duration::from_secs(15),
        "reconnect took {elapsed:?}; backoff must stay bounded"
    );
    revived.shutdown();
}

/// 32 concurrent connections streaming into 4 devices on a real clock,
/// every stream chunk-limited and jittered by a fault proxy, plus one
/// client that floods reply-bearing requests and never reads.  Past the
/// point one client can be served the server must degrade by evicting it —
/// not by deadlocking behind its full queue: every stream runs to
/// completion in bounded time and device times keep advancing.  (The
/// flooder connects directly: behind the proxy its replies would pile up
/// in the proxy's socket buffers, tens of megabytes, and not in the
/// server, and loopback TCP stalls before the server's eviction fires.)
#[test]
fn soak_many_clients_four_devices_evicts_the_flooder_without_deadlock() {
    let clock = Arc::new(SystemClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    for _ in 0..4 {
        builder.add_codec(
            clock.clone(),
            Box::new(NullSink),
            Box::new(SilenceSource::new(0xFF)),
        );
    }
    let server = builder.spawn().unwrap();
    let plan = StreamFaultPlan::new(0x5047)
        .partial_reads(9)
        .partial_writes(9)
        .latency(0.002, Duration::from_micros(200));
    let proxy = FaultProxy::spawn(server.tcp_addr().unwrap(), plan).unwrap();
    let addr = proxy.addr().to_string();
    let stats = server.stats();

    let mut flooder = raw_handshake(server.tcp_addr().unwrap());
    let slow = std::thread::spawn(move || {
        let get_time = Request::GetTime { device: 0 }.encode(ByteOrder::native());
        let batch = get_time.repeat(1024);
        for _ in 0..4096 {
            if flooder.write_all(&batch).is_err() {
                return; // Kicked.
            }
        }
    });

    let streams: Vec<_> = (0..32)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let device = (i % 4) as u8;
                let mut conn = AudioConn::open(&addr).unwrap();
                let ac = conn
                    .create_ac(device, AcMask::default(), &AcAttributes::default())
                    .unwrap();
                let noise = vec![0x21u8; 4000];
                let mut last = conn.get_time(device).unwrap();
                for round in 0..30 {
                    let now = conn.get_time(device).unwrap();
                    assert!(
                        !last.is_after(now),
                        "device {device} time went backwards: {last:?} -> {now:?}"
                    );
                    last = now;
                    // Anchor half a second ahead so the stream never blocks.
                    conn.play_samples(&ac, now + 4000u32, &noise).unwrap();
                    if round % 10 == 0 {
                        conn.record_samples(&ac, now, 0, false).unwrap();
                    }
                }
                conn.sync().unwrap();
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    for stream in streams {
        assert!(Instant::now() < deadline, "soak exceeded bounded time");
        stream.join().expect("streaming client panicked");
    }
    slow.join().expect("flooding client thread panicked");

    let evict_deadline = Instant::now() + Duration::from_secs(10);
    while stats.server.get(Server::EvictedSlow) == 0 && Instant::now() < evict_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        stats.server.get(Server::EvictedSlow) >= 1,
        "flooding client must be evicted"
    );

    // Device times still advance after the abuse.
    let mut conn = AudioConn::open(&addr).unwrap();
    for device in 0..4u8 {
        let t1 = conn.get_time(device).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        let t2 = conn.get_time(device).unwrap();
        assert!(
            t2.is_after(t1),
            "device {device} time stalled: {t1:?} -> {t2:?}"
        );
    }
    server.shutdown();
}

// ---- §7.3.1: one thread, its requests and its task queue. ----

/// A real-time codec server: its clients share the one reactor thread,
/// which also runs the update against a real clock.
fn realtime_server(
    update_interval: Duration,
    sink: Box<dyn audiofile::device::SampleSink>,
) -> RunningServer {
    let mut builder = ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(update_interval);
    builder.add_codec(
        Arc::new(SystemClock::new(8000)),
        sink,
        Box::new(SilenceSource::new(0xFF)),
    );
    builder.spawn().unwrap()
}

/// Keeps the reactor busy with requests: pipelined `GetTime` bursts
/// over a raw connection until `stop`, so the reactor frames and handles
/// request after request, returning to its poll loop only when the frame
/// budget runs out.
fn saturate_with_get_time(
    server: &RunningServer,
    stop: Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    const BURST: usize = 256;
    let mut raw = raw_handshake(server.tcp_addr().unwrap());
    raw.set_nodelay(true).unwrap();
    let burst: Vec<u8> = Request::GetTime { device: 0 }
        .encode(ByteOrder::native())
        .repeat(BURST);
    std::thread::spawn(move || {
        let mut replies = vec![0u8; BURST * 12];
        let mut round_trips = 0u64;
        while !stop.load(Ordering::Relaxed) {
            raw.write_all(&burst).unwrap();
            raw.read_exact(&mut replies).unwrap();
            round_trips += BURST as u64;
        }
        round_trips
    })
}

#[test]
fn property_appends_from_two_clients_read_back_in_one_serial_order() {
    // Two clients append 8-byte records to one device property and read
    // it back, as fast as they can.  Every request must be atomic: each
    // read is a whole number of whole records, each client's records
    // appear in the order it sent them, and what a client read before is
    // a prefix of what it reads next.
    use audiofile::proto::atoms::ATOM_STRING;
    use audiofile::proto::request::PropertyMode;

    const RECORDS: u32 = 300;
    let server = realtime_server(Duration::from_millis(100), Box::new(NullSink));
    let addr = server.tcp_addr().unwrap().to_string();
    let mut conns: Vec<AudioConn> = (0..2).map(|_| AudioConn::open(&addr).unwrap()).collect();
    let property = conns[0].intern_atom("APPEND_LEDGER", false).unwrap();

    let check = |data: &[u8]| {
        assert_eq!(data.len() % 8, 0, "torn record: {} bytes", data.len());
        let mut next = [0u32; 2];
        for record in data.chunks_exact(8) {
            let tag = record[0];
            assert!(
                tag < 2 && record[..4] == [tag; 4],
                "mixed record {record:?}"
            );
            let n = u32::from_le_bytes(record[4..].try_into().unwrap());
            assert_eq!(n, next[tag as usize], "client {tag}'s records reordered");
            next[tag as usize] += 1;
        }
    };
    let gate = Arc::new(std::sync::Barrier::new(2));
    let clients: Vec<_> = conns
        .drain(..)
        .enumerate()
        .map(|(tag, mut conn)| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let mut seen = Vec::new();
                for n in 0..RECORDS {
                    let mut record = [tag as u8; 8];
                    record[4..].copy_from_slice(&n.to_le_bytes());
                    conn.change_property(0, PropertyMode::Append, property, ATOM_STRING, &record)
                        .unwrap();
                    let (_, data) = conn.get_property(0, false, property, ATOM_STRING).unwrap();
                    check(&data);
                    assert!(data.starts_with(&seen), "history rewritten");
                    seen = data;
                }
                conn
            })
        })
        .collect();
    let mut conns: Vec<AudioConn> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let (_, all) = conns[0]
        .get_property(0, false, property, ATOM_STRING)
        .unwrap();
    check(&all);
    assert_eq!(all.len(), 2 * RECORDS as usize * 8, "appends lost");
    server.shutdown();
}

#[test]
fn timed_work_keeps_its_schedule_while_a_client_saturates_the_lock() {
    use std::sync::atomic::{AtomicBool, AtomicU64};

    // The speaker is serviced once per update (GetTime never touches the
    // hardware), so its sink counts runs of the update task.
    struct UpdateCounter(Arc<AtomicU64>);
    impl audiofile::device::SampleSink for UpdateCounter {
        fn consume(&mut self, _time: audiofile::time::ATime, _data: &[u8]) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    const UPDATE: Duration = Duration::from_millis(100);
    let updates = Arc::new(AtomicU64::new(0));
    let server = realtime_server(UPDATE, Box::new(UpdateCounter(Arc::clone(&updates))));
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = saturate_with_get_time(&server, Arc::clone(&stop));

    // Two seconds of saturation: the update has to get its turn between
    // readiness batches that are never empty, twenty times.
    std::thread::sleep(UPDATE); // Let the hammer reach full flow.
    let before = updates.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_secs(2));
    let ran = updates.load(Ordering::Relaxed) - before;
    assert!(
        (18..=22).contains(&ran),
        "{ran} updates in 2 s at a 100 ms period"
    );

    // A record whose last frame is 150 ms away suspends its client and
    // resumes at the first update at or after that: on time, give or take
    // one update period.
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let now = conn.get_time(0).unwrap();
    conn.record_samples(&ac, now, 0, false).unwrap(); // Arms the recorder.
    let started = Instant::now();
    let (_, data) = conn.record_samples(&ac, now, 1200, true).unwrap();
    let waited = started.elapsed();
    assert_eq!(data.len(), 1200);
    assert!(
        waited >= Duration::from_millis(130) && waited <= Duration::from_millis(150) + 2 * UPDATE,
        "blocked record resumed after {waited:?}"
    );

    stop.store(true, Ordering::Relaxed);
    let round_trips = hammer.join().unwrap();
    assert!(round_trips > 10_000, "the hammer barely ran: {round_trips}");
    server.shutdown();
}

#[test]
fn play_suspended_past_the_horizon_resumes_on_its_own_deadline() {
    // With a 5 s update period the reactor's poll timeout is the next
    // update when a play lands 100 ms beyond the buffer horizon.  The
    // handler schedules the play's wake-up; the next poll must wait for it,
    // not for the update, or the client waits out the whole update period.
    let server = realtime_server(Duration::from_secs(5), Box::new(NullSink));
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let now = conn.get_time(0).unwrap();
    let started = Instant::now();
    conn.play_samples(&ac, now + 32_768u32, &[0x31u8; 800])
        .unwrap();
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(80) && waited <= Duration::from_secs(1),
        "suspended play resumed after {waited:?}"
    );
    server.shutdown();
}
