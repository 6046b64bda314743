//! End-to-end tests of the broadcast fan-out plane (DESIGN.md §13).
//!
//! A real server with a virtual-clock codec device streams its speaker bus
//! to HTTP listeners while an `AudioConn` producer plays a deterministic
//! pattern.  The hardware capture sink is the ground truth: every listener
//! — including one that stalls, falls off the ring, and skips ahead — must
//! receive chunk payloads byte-identical to what the loudspeaker played.

use af_client::{AcAttributes, AcMask, AudioConn};
use af_device::{CaptureSink, SilenceSource, VirtualClock};
use af_server::broadcast::BroadcastConfig;
use af_server::stats::{Bus, Server, Snapshot};
use af_server::{RunningServer, ServerBuilder, ServerHandle};
use af_time::ATime;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic, non-repeating play data: byte at stream position `i`.
fn pattern(i: u64) -> u8 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// A server over one virtual-clock codec device with broadcast enabled,
/// plus a producer connection that plays contiguous pattern audio.
struct Harness {
    server: RunningServer,
    handle: ServerHandle,
    clock: Arc<VirtualClock>,
    capture: af_device::io::CaptureBuffer,
    conn: AudioConn,
    ac: af_client::Ac,
    /// Next device time to play at (stays a fixed lead ahead of "now").
    head: u32,
}

impl Harness {
    fn start(cfg: BroadcastConfig) -> Harness {
        let clock = Arc::new(VirtualClock::new(8000));
        let (sink, capture) = CaptureSink::new(1 << 25);
        let mut b = ServerBuilder::new();
        b.add_codec(
            clock.clone(),
            Box::new(sink),
            Box::new(SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
        );
        let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let server = b
            .listen_tcp(any)
            .access_control(false)
            .broadcast_with_config(0, any, cfg)
            .spawn()
            .unwrap();
        let handle = server.handle();
        let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
        let ac = conn
            .create_ac(0, AcMask::default(), &AcAttributes::default())
            .unwrap();
        Harness {
            server,
            handle,
            clock,
            capture,
            conn,
            ac,
            // The tap's edge runs `hw_lead` (1024 frames) ahead of the
            // clock, and §13.2 write-through inside the lead reaches the
            // hardware without being re-emitted to the tap.  Playing two
            // leads ahead keeps every sample ahead of the tap's edge, so
            // tap and capture agree bit for bit.
            head: 2048,
        }
    }

    /// Plays `bytes` of pattern audio at the write head, advances the
    /// clock under it, and runs the update task (which feeds the tap).
    ///
    /// The clock advances in steps smaller than the 1024-frame hardware
    /// ring — a single large jump would wrap the ring and the capture sink
    /// (the ground truth) would miss most of what "played".
    fn publish_round(&mut self, bytes: usize) {
        let data: Vec<u8> = (0..bytes)
            .map(|i| pattern(u64::from(self.head) + i as u64))
            .collect();
        self.conn
            .play_samples(&self.ac, ATime::new(self.head), &data)
            .unwrap();
        let mut left = bytes as u32;
        while left > 0 {
            let step = left.min(800);
            self.clock.advance(step);
            self.handle.run_update();
            left -= step;
        }
        self.head = self.head.wrapping_add(bytes as u32);
    }

    fn snapshot(&self) -> Snapshot<Bus, 15> {
        let bus = self.server.stats().broadcast.clone();
        bus.expect("a broadcasting server").snapshot()
    }

    /// Waits until `n` listeners are past their request line and streaming.
    fn wait_listeners(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.snapshot()[Bus::Listeners] < n {
            assert!(Instant::now() < deadline, "listeners never reached {n}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn capture_bytes(&self) -> Vec<u8> {
        self.capture.lock().unwrap().clone()
    }
}

/// One HTTP listener socket, drained nonblockingly from the test thread.
struct Listener {
    sock: TcpStream,
    /// Raw wire bytes (header + chunked frames) when `store` is set.
    bytes: Vec<u8>,
    /// FNV-1a over the wire bytes, for cheap cross-listener comparison.
    hash: u64,
    len: usize,
    store: bool,
    closed: bool,
}

impl Listener {
    fn connect(addr: SocketAddr, store: bool) -> Listener {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        sock.set_nonblocking(true).unwrap();
        Listener {
            sock,
            bytes: Vec::new(),
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
            store,
            closed: false,
        }
    }

    /// Reads until `WouldBlock`, EOF, or `max` bytes.  Returns bytes read.
    fn drain_limited(&mut self, max: usize) -> usize {
        let mut total = 0;
        let mut buf = [0u8; 16384];
        while total < max && !self.closed {
            let want = buf.len().min(max - total);
            match self.sock.read(&mut buf[..want]) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    for &b in &buf[..n] {
                        self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                    }
                    self.len += n;
                    if self.store {
                        self.bytes.extend_from_slice(&buf[..n]);
                    }
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        total
    }

    fn drain(&mut self) -> usize {
        self.drain_limited(usize::MAX)
    }
}

/// Index just past the HTTP/ICY response head.
fn header_end(wire: &[u8]) -> usize {
    wire.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .expect("response head not terminated")
}

/// Splits a chunked-encoding body of uniform `chunk`-byte frames into
/// payload slices, asserting the framing is intact.  The body must end on
/// a frame boundary.
fn payloads(body: &[u8], chunk: usize) -> Vec<&[u8]> {
    let hex = format!("{chunk:x}");
    let wire = hex.len() + 2 + chunk + 2;
    assert_eq!(body.len() % wire, 0, "stream ends mid-frame");
    body.chunks(wire)
        .map(|f| {
            assert_eq!(&f[..hex.len()], hex.as_bytes(), "bad chunk-size line");
            assert_eq!(&f[hex.len()..hex.len() + 2], b"\r\n");
            assert_eq!(&f[wire - 2..], b"\r\n");
            &f[hex.len() + 2..wire - 2]
        })
        .collect()
}

/// Drains `l` until it has `expected` bytes or the deadline passes.
fn drain_to(l: &mut Listener, expected: usize, deadline: Instant) {
    while l.len < expected && !l.closed {
        if l.drain() == 0 {
            assert!(Instant::now() < deadline, "listener stuck at {} bytes", l.len);
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

const CHUNK: usize = 512;

#[test]
fn every_listener_matches_the_speaker_bus_capture_bit_for_bit() {
    let cfg = BroadcastConfig {
        chunk_frames: CHUNK as u32,
        ring_chunks: 256,
        preroll_chunks: 2,
        stall_strikes: 1_000_000, // The lagger must skip ahead, not die.
    };
    let mut h = Harness::start(cfg);
    let baddr = h.server.broadcast_addr().unwrap();
    let mut normal: Vec<Listener> = (0..3).map(|i| Listener::connect(baddr, i == 0)).collect();
    let mut lagger = Listener::connect(baddr, true);
    h.wait_listeners(4);

    // Phase A: flood while the lagger reads nothing.  Loopback kernel
    // buffers absorb megabytes, so don't assume a fixed volume stalls it:
    // measure its backlog (`bytes_fanned_out` minus what the draining
    // listeners received) and keep publishing until its frozen cursor is
    // provably lapped by the ring.
    let wire = format!("{CHUNK:x}").len() + 2 + CHUNK + 2;
    let hdr = header_end_len();
    let mut lapped = false;
    for r in 0..3000 {
        h.publish_round(8000);
        for l in &mut normal {
            l.drain();
        }
        if r % 16 == 0 {
            let snap = h.snapshot();
            // Server-side payload bytes that went to the lagger, at most
            // (what the normals received client-side lags what was fanned
            // to them, so this over-estimates the lagger's progress).
            let to_normals: usize = normal.iter().map(|l| l.len.saturating_sub(hdr)).sum();
            let lagger_chunks =
                (snap[Bus::BytesFannedOut] as usize).saturating_sub(to_normals) / wire;
            if (snap[Bus::ChunksSealed] as usize).saturating_sub(lagger_chunks) > 256 + 96 {
                lapped = true;
                break;
            }
        }
    }
    assert!(lapped, "the ring never provably lapped the stalled cursor");
    // Phase B: the lagger wakes up and drains while publishing continues.
    // Emptying its socket lets the reactor refill, exhaust the stale batch,
    // and fetch — which discovers the cursor is off the ring and skips to
    // the live edge.  The post-skip chunks land while the clock still
    // advances, so the capture covers them.
    for _ in 0..100 {
        h.publish_round(8000);
        for l in &mut normal {
            l.drain();
        }
        lagger.drain();
    }

    let snap = h.snapshot();
    let sealed = snap[Bus::ChunksSealed] as usize;
    assert!(sealed > 256 + 96, "only {sealed} chunks sealed");
    // Encode-once: payload bytes were framed exactly once, not per listener.
    assert_eq!(snap[Bus::EncodedBytes], (sealed * CHUNK) as u64);
    assert!(snap[Bus::BytesFannedOut] > snap[Bus::EncodedBytes] * 3);
    assert!(snap[Bus::SkipAheads] >= 1, "lagger never skipped ahead");
    assert_eq!(snap[Bus::Evictions], 0);
    assert_eq!(snap[Bus::ListenersTotal], 4);

    // Let everyone finish.  Nothing publishes past this point, so `sealed`
    // is final.
    let deadline = Instant::now() + Duration::from_secs(10);
    for l in &mut normal {
        drain_to(l, hdr + sealed * wire, deadline);
    }
    loop {
        if lagger.drain() == 0 {
            std::thread::sleep(Duration::from_millis(10));
            if lagger.drain() == 0 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "lagger never went quiet");
    }

    let cap = h.capture_bytes();
    // The tap runs up to `hw_lead` frames ahead of the loudspeaker
    // (§13.2), so the last few sealed chunks outrun the capture.
    let verifiable = cap.len() / CHUNK;
    assert!(verifiable >= sealed - 8, "capture too short: {verifiable} of {sealed}");

    // Normal listeners: the whole stream, in order, byte-identical.  The
    // first is checked against the capture chunk by chunk; the others keep
    // only a rolling hash and must match it exactly.
    {
        let l = &normal[0];
        let he = header_end(&l.bytes);
        let pays = payloads(&l.bytes[he..], CHUNK);
        assert_eq!(pays.len(), sealed, "listener 0 chunk count");
        for (k, p) in pays.iter().enumerate().take(verifiable) {
            assert_eq!(*p, &cap[k * CHUNK..(k + 1) * CHUNK], "listener 0 chunk {k}");
        }
    }
    for (i, l) in normal.iter().enumerate().skip(1) {
        assert_eq!(l.len, normal[0].len, "listener {i} length diverged");
        assert_eq!(l.hash, normal[0].hash, "listener {i} bytes diverged");
    }

    // The lagger: a strict subsequence — sequential, one forward jump at
    // the skip-ahead, then sequential again — every chunk byte-identical
    // to the capture at its chunk-aligned position.
    let he = header_end(&lagger.bytes);
    let pays = payloads(&lagger.bytes[he..], CHUNK);
    assert!(pays.len() >= 100, "lagger received only {} chunks", pays.len());
    assert!(pays.len() < sealed, "lagger missed nothing — it never lagged");
    let mut at = 0usize; // Next expected chunk index in the capture.
    let mut jumps = 0;
    let mut verified = 0;
    for (i, p) in pays.iter().enumerate() {
        if at >= verifiable {
            assert!(i >= pays.len() - 8, "unverifiable mid-stream chunk {i}");
            break;
        }
        if *p == &cap[at * CHUNK..(at + 1) * CHUNK] {
            at += 1;
        } else {
            let next = (at + 1..verifiable)
                .find(|&k| *p == &cap[k * CHUNK..(k + 1) * CHUNK])
                .unwrap_or_else(|| panic!("lagger chunk {i} matches nowhere after {at}"));
            jumps += 1;
            at = next + 1;
        }
        verified += 1;
    }
    assert_eq!(jumps, 1, "expected exactly one skip-ahead jump");
    assert!(verified >= 100);

    // The control plane never noticed any of this.
    assert_eq!(h.server.stats().server.get(Server::ProtocolErrors), 0);
    h.conn.get_time(0).unwrap();
}

#[test]
fn stalled_listener_is_evicted() {
    // Big chunks overwhelm kernel socket buffering quickly; a tiny strike
    // budget converts the resulting no-progress publishes into an eviction.
    let cfg = BroadcastConfig {
        chunk_frames: 16_384,
        ring_chunks: 8,
        preroll_chunks: 1,
        stall_strikes: 32,
    };
    let mut h = Harness::start(cfg);
    let baddr = h.server.broadcast_addr().unwrap();
    let mut live = Listener::connect(baddr, false);
    let mut stalled = Listener::connect(baddr, false);
    h.wait_listeners(2);

    let mut evicted = false;
    for _ in 0..1200 {
        h.publish_round(16_384);
        live.drain();
        if h.snapshot()[Bus::Evictions] >= 1 {
            evicted = true;
            break;
        }
    }
    assert!(evicted, "stalled listener survived the whole flood");
    let snap = h.snapshot();
    assert_eq!(snap[Bus::Evictions], 1);
    assert_eq!(snap[Bus::Listeners], 1, "the live listener must survive");
    assert_eq!(h.server.stats().server.get(Server::ProtocolErrors), 0);

    // The live listener kept receiving the full stream.
    let sealed = snap[Bus::ChunksSealed] as usize;
    let wire = format!("{:x}", 16_384).len() + 2 + 16_384 + 2;
    drain_to(
        &mut live,
        header_end_len() + sealed * wire,
        Instant::now() + Duration::from_secs(10),
    );
    assert!(!live.closed, "live listener was dropped");

    // The eviction eventually surfaces to the stalled client as EOF.
    stalled.sock.set_nonblocking(false).unwrap();
    stalled
        .sock
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 16_384];
    loop {
        match stalled.sock.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => panic!("stalled listener read: {e}"),
        }
    }

    // Dispatcher clients are untouched.
    h.conn.get_time(0).unwrap();
}

/// Length of the HTTP streaming response head (it is a static constant).
fn header_end_len() -> usize {
    af_server::broadcast::HTTP_STREAM_HEADER.len()
}

#[test]
fn chaos_soak_64_listeners_with_a_quarter_slow_or_stalled() {
    let cfg = BroadcastConfig {
        chunk_frames: CHUNK as u32,
        ring_chunks: 256,
        preroll_chunks: 2,
        stall_strikes: 256,
    };
    let mut h = Harness::start(cfg);
    let baddr = h.server.broadcast_addr().unwrap();
    // 48 healthy listeners (only the first stores bytes; the rest keep a
    // rolling hash), 8 slow ones that trickle-read, 8 fully stalled.
    let mut normal: Vec<Listener> = (0..48).map(|i| Listener::connect(baddr, i == 0)).collect();
    let mut slow: Vec<Listener> = (0..8).map(|_| Listener::connect(baddr, false)).collect();
    let _stalled: Vec<Listener> = (0..8).map(|_| Listener::connect(baddr, false)).collect();
    h.wait_listeners(64);

    // Stalled listeners only start striking once the kernel's generous
    // loopback buffering (megabytes) is exhausted, so the flood is long.
    let mut rounds = 0;
    for r in 0..2500 {
        rounds = r + 1;
        h.publish_round(8000);
        for l in &mut normal {
            l.drain();
        }
        // Slow listeners make just enough progress to dodge the strike
        // budget; they fall off the ring and skip ahead instead.
        for l in &mut slow {
            l.drain_limited(2048);
        }
        if r % 8 == 0 {
            // The stalled listeners must be evicted AND the slow ones must
            // have fallen off the ring and skipped ahead before stopping.
            let snap = h.snapshot();
            if snap[Bus::Evictions] >= 8 && snap[Bus::SkipAheads] >= 1 {
                break;
            }
        }
    }

    let snap = h.snapshot();
    assert!(snap[Bus::Evictions] >= 1, "no eviction after {rounds} rounds");
    assert!(snap[Bus::Evictions] <= 8, "a slow or healthy listener was evicted");
    assert!(snap[Bus::SkipAheads] >= 1, "slow listeners never skipped ahead");
    assert_eq!(snap[Bus::Listeners], 64 - snap[Bus::Evictions]);
    assert_eq!(h.server.stats().server.get(Server::ProtocolErrors), 0);

    // Every healthy listener saw the identical full stream.
    let sealed = snap[Bus::ChunksSealed] as usize;
    let wire = format!("{CHUNK:x}").len() + 2 + CHUNK + 2;
    let expected = header_end_len() + sealed * wire;
    let deadline = Instant::now() + Duration::from_secs(15);
    for l in &mut normal {
        drain_to(l, expected, deadline);
        assert!(!l.closed, "healthy listener evicted");
        assert_eq!(l.len, expected);
    }
    let reference = normal[0].hash;
    for (i, l) in normal.iter().enumerate() {
        assert_eq!(l.hash, reference, "listener {i} diverged");
    }
    // And the stream is the speaker bus, bit for bit.
    let cap = h.capture_bytes();
    let verifiable = cap.len() / CHUNK;
    let he = header_end(&normal[0].bytes);
    let pays = payloads(&normal[0].bytes[he..], CHUNK);
    assert_eq!(pays.len(), sealed);
    for (k, p) in pays.iter().enumerate().take(verifiable) {
        assert_eq!(*p, &cap[k * CHUNK..(k + 1) * CHUNK], "chunk {k}");
    }
    assert!(verifiable >= sealed - 8);

    h.conn.get_time(0).unwrap();
}
