//! The reactor thread's heap budget, counted: once warm, nothing the one
//! thread does per request or per update allocates.  Each test is one
//! path it runs: plays, records and the update between them, resumed
//! suspended clients, a LineServer device over its FEC'd link, a
//! broadcast listener, the plays no play map covers, and the ends of a
//! connection that breaks the protocol or stops reading.
//!
//! A counting `#[global_allocator]` tallies every allocation made on a
//! thread named `af-reactor-*` — the reactor thread, which runs every
//! request's handler and every task itself.  Clients, firmware and relays
//! run on the tests' own threads, and are not counted.  A file of its
//! own, so a process of its own: the allocator is process-wide, and the
//! tests take turns.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::fec::FEC_GROUP_WINDOW;
use audiofile::device::lineserver::LineServerFirmware;
use audiofile::device::{Clock, NullSink, SilenceSource, SystemClock, ToneSource, VirtualClock};
use audiofile::device::{FecConfig, FecDecoder, FecEncoder, FecFrame};
use audiofile::dsp::Encoding;
use audiofile::proto::{ByteOrder, ConnSetup, Request};
use audiofile::server::stats::Server;
use audiofile::server::{BroadcastConfig, RunningServer, ServerBuilder};
use audiofile::time::ATime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static REACTOR_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// 0: not looked yet; 1: an `af-reactor-*` thread; 2: any other.
    static WATCHED: Cell<u8> = const { Cell::new(0) };
}

fn on_reactor_thread() -> bool {
    WATCHED
        .try_with(|watched| {
            if watched.get() == 0 {
                // Looking the name up may allocate: not while looking.
                watched.set(2);
                let named = std::thread::current()
                    .name()
                    .is_some_and(|name| name.starts_with("af-reactor-"));
                watched.set(if named { 1 } else { 2 });
            }
            watched.get() == 1
        })
        .unwrap_or(false)
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter and
// the thread-local flag (a `const`-initialized `Cell`, so no lazy
// allocation and no destructor) touch no allocator state.
#[expect(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_reactor_thread() {
            REACTOR_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_reactor_thread() {
            REACTOR_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test at a time: the count is process-wide, and every server's
/// thread is `af-reactor-0`.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap allocations on the reactor threads while `ops` runs, from the
/// end of what the reactor was doing before to the end of what `ops`
/// gave it to do.
fn counted(server: &RunningServer, ops: impl FnOnce()) -> u64 {
    server.handle().barrier();
    REACTOR_ALLOCS.store(0, Ordering::Relaxed);
    ops();
    server.handle().barrier();
    REACTOR_ALLOCS.load(Ordering::Relaxed)
}

/// A fresh Unix socket path for a test's server.
fn socket_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("af-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.sock"));
    let _ = std::fs::remove_file(&path);
    path
}

/// A server on a Unix socket with one 8 kHz µ-law codec on `clock`.
fn codec_server(name: &str, clock: &Arc<VirtualClock>) -> (RunningServer, PathBuf) {
    let path = socket_path(name);
    let mut builder = ServerBuilder::new().listen_unix(path.clone());
    builder.add_codec(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    (builder.spawn().unwrap(), path)
}

fn open(path: &std::path::Path) -> AudioConn {
    AudioConn::open(&format!("unix:{}", path.display())).unwrap()
}

const WARM_UP: usize = 50;
const OPS: usize = 1_000;
/// Device time that passes between two ops (10 ms at 8 kHz): each op is
/// followed by an update that services the hardware for it.
const TICKS_PER_OP: u32 = 80;
/// A blocking record of 20 ms at 8 kHz µ-law, and how many of them run
/// back to back once warm.
const RECORD_BYTES: usize = 160;
const BLOCKING_RECORDS: usize = 100;

#[test]
fn steady_plays_and_records_allocate_nothing_on_the_reactor_threads() {
    let _serial = serial();
    let clock = Arc::new(VirtualClock::new(8000));
    let (server, path) = codec_server("steady", &clock);
    let mut conn = open(&path);

    // The benchmark's two data workloads: 32 KB of LIN16 mixed at -6 dB
    // into the µ-law codec, and 8 KB µ-law records.
    let mixing = AcAttributes {
        encoding: Encoding::Lin16,
        play_gain_db: -6,
        ..AcAttributes::default()
    };
    let play_ac = conn
        .create_ac(0, AcMask::ENCODING | AcMask::PLAY_GAIN, &mixing)
        .unwrap();
    let rec_ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let lin16: Vec<u8> = (0..32_768u32).map(|i| (i * 31) as u8).collect();
    conn.record_samples(&rec_ac, ATime::ZERO, 0, false).unwrap(); // Arms the recorder.
    clock.advance(20_000);
    server.handle().run_update();

    // The clock moves on between ops, and the update runs for it, as the
    // periodic task does on a real clock.
    let tick = || {
        clock.advance(TICKS_PER_OP);
        server.handle().run_update();
    };
    // Allocations on the reactor threads across `ops` plays, then `ops`
    // records, each followed by an update.
    let mut run = |ops: usize| {
        REACTOR_ALLOCS.store(0, Ordering::Relaxed);
        for _ in 0..ops {
            // A second ahead: mixed into the buffer, not dropped as past.
            let at = clock.now() + 8_000u32;
            conn.play_samples(&play_ac, at, &lin16).unwrap();
            tick();
        }
        let plays = REACTOR_ALLOCS.load(Ordering::Relaxed);
        for _ in 0..ops {
            // Recorded a second ago: in the buffer, no record update owed.
            let at = clock.now() - 16_192u32;
            let (_, data) = conn.record_samples(&rec_ac, at, 8192, false).unwrap();
            assert_eq!(data.len(), 8192);
            tick();
        }
        // The replies have been read, so the handlers have run; the
        // barrier waits out whatever a handler does after its write.
        server.handle().barrier();
        (plays, REACTOR_ALLOCS.load(Ordering::Relaxed) - plays)
    };
    assert_ne!(
        run(WARM_UP),
        (0, 0),
        "the allocator never saw a reactor thread"
    );
    assert_eq!(
        run(OPS),
        (0, 0),
        "heap allocations on af-reactor-* threads across {OPS} plays, then {OPS} records, \
         each with an update"
    );

    drop(conn);
    server.shutdown();

    // Back-to-back blocking records on a real clock: each waits for the
    // next 20 ms, so the client suspends every time and a `WakeBlocked`
    // task or the update resumes it.  (On a virtual clock that nobody
    // advances, wake deadlines estimated from the wall clock pile up.)
    let clock = Arc::new(SystemClock::new(8000));
    let mut builder = ServerBuilder::new().listen_unix(path.clone());
    builder.add_codec(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();
    let mut conn = AudioConn::open(&format!("unix:{}", path.display())).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let mut at = clock.now();
    let mut records = |n: usize| {
        REACTOR_ALLOCS.store(0, Ordering::Relaxed);
        for _ in 0..n {
            let (_, data) = conn.record_samples(&ac, at, RECORD_BYTES, true).unwrap();
            assert_eq!(data.len(), RECORD_BYTES);
            at += RECORD_BYTES as u32;
        }
        server.handle().barrier();
        REACTOR_ALLOCS.load(Ordering::Relaxed)
    };
    records(WARM_UP / 5);
    assert_eq!(
        records(BLOCKING_RECORDS),
        0,
        "heap allocations on af-reactor-* threads across {BLOCKING_RECORDS} blocking records"
    );

    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A UDP relay in front of LineServer firmware that counts the datagrams
/// carrying the FEC magic each way: the play traffic toward the firmware
/// and the record replies back.
struct FecRelay {
    addr: SocketAddr,
    /// FEC frames toward the firmware, then back.
    fec: Arc<[AtomicU64; 2]>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl FecRelay {
    fn spawn(firmware: SocketAddr) -> FecRelay {
        let outer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let inner = UdpSocket::bind("127.0.0.1:0").unwrap();
        inner.connect(firmware).unwrap();
        outer.set_nonblocking(true).unwrap();
        inner.set_nonblocking(true).unwrap();
        let addr = outer.local_addr().unwrap();
        let fec: Arc<[AtomicU64; 2]> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (counts, stopped) = (Arc::clone(&fec), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let magic = 0xFEC5u16.to_le_bytes();
            let mut buf = vec![0u8; 65_536];
            let mut link = None;
            while !stopped.load(Ordering::Relaxed) {
                let mut idle = true;
                if let Ok((n, from)) = outer.recv_from(&mut buf) {
                    link = Some(from);
                    let fec = u64::from(buf[..n].starts_with(&magic));
                    counts[0].fetch_add(fec, Ordering::Relaxed);
                    let _ = inner.send(&buf[..n]);
                    idle = false;
                }
                if let (Ok(n), Some(link)) = (inner.recv(&mut buf), link) {
                    let fec = u64::from(buf[..n].starts_with(&magic));
                    counts[1].fetch_add(fec, Ordering::Relaxed);
                    let _ = outer.send_to(&buf[..n], link);
                    idle = false;
                }
                if idle {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        });
        FecRelay {
            addr,
            fec,
            stop,
            thread,
        }
    }

    fn fec(&self) -> [u64; 2] {
        [0, 1].map(|i| self.fec[i].load(Ordering::Relaxed))
    }
}

#[test]
fn a_lineserver_device_with_fec_allocates_nothing_on_the_reactor_thread() {
    let _serial = serial();
    // The firmware and the relay run on threads of their own, uncounted;
    // the link, the FEC codec and the jitter buffer run in the update.
    let (fw, fw_addr) = LineServerFirmware::boot(
        Arc::new(SystemClock::new(8000)),
        Box::new(NullSink),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
    )
    .unwrap();
    let stop = fw.stop_handle();
    let firmware = std::thread::spawn(move || fw.run());
    let relay = FecRelay::spawn(fw_addr);
    let path = socket_path("lineserver");
    let mut builder = ServerBuilder::new().listen_unix(path.clone());
    builder.add_lineserver(relay.addr).unwrap();
    let server = builder.spawn().unwrap();
    let mut conn = open(&path);
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let tone = [0x44u8; 160];
    // Each update follows a play 100 ms ahead and a record of 20 ms from
    // 100 ms ago, with time for the firmware to answer in between.
    let mut updates = |n: usize| {
        for _ in 0..n {
            let now = conn.get_time(0).unwrap();
            conn.play_samples(&ac, now + 800u32, &tone).unwrap();
            let (_, data) = conn.record_samples(&ac, now - 800u32, 160, false).unwrap();
            assert_eq!(data.len(), 160);
            std::thread::sleep(Duration::from_millis(5));
            server.handle().run_update();
        }
    };
    // Warm: FEC negotiated and the decoder's window of groups filled.
    updates(200);
    let before = relay.fec();
    let allocs = counted(&server, || updates(100));
    let after = relay.fec();
    assert!(
        after[0] > before[0] && after[1] > before[1],
        "plays and records must cross the link FEC-framed: {before:?} -> {after:?}"
    );
    assert_eq!(
        allocs, 0,
        "heap allocations on af-reactor-* threads across 100 updates of a LineServer device"
    );

    drop(conn);
    server.shutdown();
    relay.stop.store(true, Ordering::Relaxed);
    relay.thread.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    firmware.join().unwrap();
}

#[test]
fn fec_recovery_allocates_nothing_on_a_reactor_thread() {
    let _serial = serial();
    const RECOVERED: usize = 50;
    let cfg = FecConfig::new(4, 2);
    let groups = FEC_GROUP_WINDOW + RECOVERED;
    // 20 to 180 bytes, each payload led by its number: shorter shards are
    // summed into a longer group's parity, and a recovered payload says
    // which one it is.
    let payloads: Vec<Vec<u8>> = (0..groups * cfg.k)
        .map(|n| {
            let mut p: Vec<u8> = (0..20 + n * 53 % 161).map(|i| (n * 7 + i) as u8).collect();
            p[..4].copy_from_slice(&(n as u32).to_le_bytes());
            p
        })
        .collect();
    let mut encoder = FecEncoder::new(cfg);
    let mut frames = Vec::new();
    for p in &payloads {
        encoder.push(p, |f| frames.push(f.to_vec()));
    }
    let per_group = cfg.k + cfg.m;
    assert_eq!(frames.len(), groups * per_group);
    // The decoder runs where the link's does: on a thread the allocator
    // counts.
    let thread = std::thread::Builder::new().name("af-reactor-fec".into());
    let (allocs, seen, recovered) = thread
        .spawn(move || {
            let mut decoder = FecDecoder::new();
            let mut seen = vec![0u32; payloads.len()];
            let mut feed = |decoder: &mut FecDecoder, group: usize, dropped: Option<usize>| {
                let frames = &frames[group * per_group..][..per_group];
                for (i, frame) in frames.iter().enumerate() {
                    if Some(i) == dropped {
                        continue;
                    }
                    decoder.push(FecFrame::decode(frame).unwrap(), |p| {
                        let n = u32::from_le_bytes(p[..4].try_into().unwrap()) as usize;
                        assert!(p == payloads[n].as_slice(), "payload {n} differs");
                        seen[n] += 1;
                    });
                }
            };
            // Warm: the window's groups arrive whole, so every shard
            // buffer the decoder keeps has been filled once.
            for group in 0..FEC_GROUP_WINDOW {
                feed(&mut decoder, group, None);
            }
            let before = REACTOR_ALLOCS.load(Ordering::Relaxed);
            for group in FEC_GROUP_WINDOW..groups {
                feed(&mut decoder, group, Some(group % cfg.k));
            }
            let allocs = REACTOR_ALLOCS.load(Ordering::Relaxed) - before;
            (allocs, seen, decoder.stats().recovered)
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(seen.iter().all(|&n| n == 1), "a payload lost or repeated");
    assert_eq!(recovered, RECOVERED as u64);
    assert_eq!(
        allocs, 0,
        "heap allocations recovering one data shard in each of {RECOVERED} FEC groups"
    );
}

#[test]
fn a_broadcast_listener_allocates_nothing_on_the_reactor_thread() {
    let _serial = serial();
    let clock = Arc::new(VirtualClock::new(8000));
    let path = socket_path("broadcast");
    // A chunk per update, and a ring the warm-up goes round.
    let cfg = BroadcastConfig {
        chunk_frames: 80,
        ring_chunks: 8,
        ..BroadcastConfig::default()
    };
    let mut builder = ServerBuilder::new()
        .listen_unix(path.clone())
        .broadcast_with_config(0, "127.0.0.1:0".parse().unwrap(), cfg);
    builder.add_codec(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();
    let mut listener = TcpStream::connect(server.broadcast_addr().unwrap()).unwrap();
    listener
        .write_all(b"GET /speaker HTTP/1.1\r\n\r\n")
        .unwrap();
    let heard = Arc::new(AtomicU64::new(0));
    let reader = {
        let heard = Arc::clone(&heard);
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n @ 1..) = listener.read(&mut buf) {
                heard.fetch_add(n as u64, Ordering::Relaxed);
            }
        })
    };
    let mut conn = open(&path);
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let tone = [0x21u8; 80];
    let mut ticks = |n: usize| {
        for _ in 0..n {
            let at = clock.now() + 800u32;
            conn.play_samples(&ac, at, &tone).unwrap();
            clock.advance(80);
            server.handle().run_update();
        }
    };
    ticks(50);
    let before = heard.load(Ordering::Relaxed);
    let allocs = counted(&server, || ticks(100));
    let deadline = Instant::now() + Duration::from_secs(5);
    while heard.load(Ordering::Relaxed) < before + 100 * 80 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        heard.load(Ordering::Relaxed) >= before + 100 * 80,
        "the listener must hear the 100 chunks"
    );
    assert_eq!(
        allocs, 0,
        "heap allocations on af-reactor-* threads across 100 broadcast chunks"
    );

    drop(conn);
    server.shutdown();
    reader.join().unwrap();
}

#[test]
fn plays_no_play_map_covers_allocate_nothing_on_the_reactor_thread() {
    let _serial = serial();
    // A linear device: every play goes through the AC pipeline into the
    // dispatcher's scratch and `advance_play`.
    let clock = Arc::new(VirtualClock::new(44_100));
    let path = socket_path("hifi");
    let mut builder = ServerBuilder::new().listen_unix(path.clone());
    builder.add_hifi(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0)),
    );
    let server = builder.spawn().unwrap();
    let mut conn = open(&path);
    let stereo = |encoding, play_gain_db| AcAttributes {
        encoding,
        play_gain_db,
        channels: 2,
        ..AcAttributes::default()
    };
    let mask = AcMask::ENCODING | AcMask::PLAY_GAIN | AcMask::CHANNELS;
    let lin16 = conn
        .create_ac(0, mask, &stereo(Encoding::Lin16, -6))
        .unwrap();
    let ulaw = conn
        .create_ac(0, mask, &stereo(Encoding::Mu255, 0))
        .unwrap();
    let lin16_frames: Vec<u8> = (0..4096u32).map(|i| (i * 31) as u8).collect();
    let ulaw_frames = [0x21u8; 2048];
    let mut plays = |n: usize| {
        for _ in 0..n {
            let at = clock.now() + 44_100u32;
            conn.play_samples(&lin16, at, &lin16_frames).unwrap();
            conn.play_samples(&ulaw, at, &ulaw_frames).unwrap();
            clock.advance(441);
            server.handle().run_update();
        }
    };
    plays(WARM_UP);
    assert_eq!(
        counted(&server, || plays(OPS)),
        0,
        "heap allocations on af-reactor-* threads across {OPS} LIN16 plays at -6 dB \
         and {OPS} µ-law plays on a LIN16 device"
    );

    drop(conn);
    server.shutdown();
}

/// A raw connection to the server at `path`, its setup answered.
fn handshake(path: &std::path::Path) -> UnixStream {
    let mut raw = UnixStream::connect(path).unwrap();
    raw.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    raw.read_exact(&mut vec![0u8; u32::from_le_bytes(len) as usize])
        .unwrap();
    raw
}

#[test]
fn a_protocol_error_and_an_eviction_allocate_nothing_on_the_reactor_thread() {
    let _serial = serial();
    let clock = Arc::new(VirtualClock::new(8000));
    let (server, path) = codec_server("ends", &clock);
    let stats = server.stats();
    // Each connection is set up before the count starts: accepting a
    // connection is once per connection, and may allocate.
    let protocol_error = || {
        let mut raw = handshake(&path);
        let errors = stats.server.get(Server::ProtocolErrors);
        let allocs = counted(&server, || {
            raw.write_all(&[0, 0, 33, 0]).unwrap(); // A zero-length frame.
            let _ = raw.read_to_end(&mut Vec::new());
        });
        assert_eq!(stats.server.get(Server::ProtocolErrors), errors + 1);
        allocs
    };
    protocol_error();
    assert_eq!(
        protocol_error(),
        0,
        "heap allocations on af-reactor-* threads across a protocol error"
    );
    // A client that sends requests and never reads a reply, until its
    // deque of waiting replies is full and it is evicted.
    let get_times = Request::GetTime { device: 0 }
        .encode(ByteOrder::native())
        .repeat(1024);
    let eviction = || {
        let mut raw = handshake(&path);
        let evicted = stats.server.get(Server::EvictedSlow);
        let allocs = counted(&server, || {
            while raw.write_all(&get_times).is_ok()
                && stats.server.get(Server::EvictedSlow) == evicted
            {}
        });
        assert_eq!(stats.server.get(Server::EvictedSlow), evicted + 1);
        allocs
    };
    eviction();
    assert_eq!(
        eviction(),
        0,
        "heap allocations on af-reactor-* threads across a slow reader's eviction"
    );

    server.shutdown();
}
