//! `fanout` — encode-once broadcast scaling curve (DESIGN.md §13).
//!
//! Stands up an in-process codec server over a virtual clock with the
//! broadcast plane on the one reactor thread, plays a deterministic
//! pattern through a producer `AudioConn`, and drains N concurrent HTTP
//! chunk-stream listeners from one readiness loop (the server's own
//! `Poller`, like the `load` harness).  The virtual clock makes the
//! publish cadence deterministic: every level seals the same chunks, so
//! the only variable is the listener count.
//!
//! The headline number is **encode cycles per payload byte**: the bus
//! seals each chunk once regardless of audience, so the curve must stay
//! flat — within [`FLATNESS_TOLERANCE`] — from 1 listener to the top
//! level, while `bytes_fanned_out` grows N-fold.  A level is *sustained*
//! when no listener was evicted or errored and every listener drained the
//! complete stream (header plus every sealed chunk's wire bytes).
//!
//! ```text
//! cargo run --release -p bench --bin fanout [-- --smoke] [-- --out PATH]
//! ```
//!
//! Results merge into `BENCH_report.json` under `"fanout_scaling"`,
//! preserving every other key.  Exit is nonzero if the top level is not
//! sustained or the encode curve is not flat — the zero-copy claim is the
//! whole point.

use af_client::{AcAttributes, AcMask, AudioConn};
use af_device::{NullSink, SilenceSource, VirtualClock};
use af_server::broadcast::BroadcastConfig;
use af_server::stats::{Bus, Server};
use af_server::ServerBuilder;
use af_sys::{Interest, PollEvent, Poller};
use af_time::ATime;
use bench::json::{obj, Json};
use bench::Args;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Max allowed ratio between the slowest and fastest per-level encode
/// cycles/byte.  The seal cost is one gain/copy/framing pass per chunk —
/// independent of the audience by construction — so the curve is flat up
/// to timer noise.
const FLATNESS_TOLERANCE: f64 = 1.15;

/// Absolute noise floor for the flatness gate, in cycles per chunk.  On a
/// shared single-core host the cheapest observed seal still wobbles by
/// ~100–150 cycles between runs (scheduler, steal time, TLB/cache state),
/// so a pure ratio on a ~300-cycle region trips on environment noise.
/// Any *real* per-listener encode work costs at least one payload copy
/// per listener (≳250 cycles each, ≳100k cycles/chunk at 512 listeners) —
/// 300× above this floor — so the epsilon cannot mask the regression the
/// gate exists to catch.
const FLATNESS_EPSILON_CYCLES: f64 = 400.0;

/// Payload bytes played (and sealed) per publish round.
const ROUND_BYTES: usize = 8000;

/// Frames per broadcast chunk for the scaling runs: one chunk per round.
/// Bigger than the production 800-frame default so the timed seal region
/// (~one 8 KB render) sits well above timestamp-counter noise — at 800
/// frames the render is ~40 cycles and the flatness comparison would be
/// measuring rdtsc jitter, not encode cost.
const CHUNK_FRAMES: u32 = ROUND_BYTES as u32;

/// The hardware ring is 1024 frames; advancing the virtual clock further
/// in one step would wrap it, so rounds step the clock in sub-ring moves.
const CLOCK_STEP: u32 = 800;

/// Deterministic, non-repeating play data: byte at stream position `i`.
fn pattern(i: u64) -> u8 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

struct LevelResult {
    listeners: usize,
    chunks: u64,
    /// Mean seal cost — includes cache/scheduler interference from the
    /// concurrently-writing listener plane, reported for context.
    encode_cycles_per_byte: f64,
    /// Cheapest observed seal — the interference-free encode cost the
    /// flatness gate compares.
    encode_min_cycles_per_byte: f64,
    fanout_mb_s: f64,
    bytes_fanned_out: u64,
    skip_aheads: u64,
    evictions: u64,
    protocol_errors: u64,
    sustained: bool,
}

/// One listener socket plus its receive accounting.
struct Listener {
    sock: TcpStream,
    received: u64,
    dead: bool,
}

/// The socket-drain closure threaded through the pacing helpers below.
type DrainFn<'a> =
    dyn FnMut(&mut Vec<Listener>, &mut Poller, &mut Vec<PollEvent>, i32) -> u64 + 'a;

fn run_level(n: usize, rounds: usize, warmup: usize) -> LevelResult {
    let clock = Arc::new(VirtualClock::new(8000));
    let mut b = ServerBuilder::new();
    b.add_codec(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
    );
    let any: SocketAddr = "127.0.0.1:0".parse().expect("addr");
    let server = b
        .listen_tcp(any)
        .access_control(false)
        .broadcast_with_config(
            0,
            any,
            BroadcastConfig {
                chunk_frames: CHUNK_FRAMES,
                ..BroadcastConfig::default()
            },
        )
        .spawn()
        .expect("spawn server");
    let handle = server.handle();
    let stats = server.stats();
    let baddr = server.broadcast_addr().expect("broadcast addr");

    let mut conn = AudioConn::open(&server.tcp_addr().expect("tcp").to_string()).expect("producer");
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .expect("create ac");
    // Stay two hardware-ring leads ahead of the clock so every played
    // sample lands ahead of the tap's edge (§13.2 write-through).
    let mut head: u32 = 2048;

    // Connect every listener before sealing anything, so all cursors start
    // at sequence 0 and the full stream is deliverable to each.
    let mut poller = Poller::new().expect("client poller");
    let mut listeners: Vec<Listener> = Vec::with_capacity(n);
    for i in 0..n {
        let mut sock = TcpStream::connect(baddr)
            .unwrap_or_else(|e| panic!("fanout: listener {i}/{n} connect: {e}"));
        sock.write_all(b"GET / HTTP/1.1\r\nHost: bench\r\n\r\n")
            .expect("request line");
        sock.set_nonblocking(true).expect("nonblocking");
        poller
            .register(sock.as_raw_fd(), i as u64, Interest::Read)
            .expect("register");
        listeners.push(Listener {
            sock,
            received: 0,
            dead: false,
        });
    }
    let bus = stats.broadcast.as_ref().expect("a broadcasting server");
    let deadline = Instant::now() + Duration::from_secs(10);
    while bus.get(Bus::Listeners) < n as u64 {
        assert!(Instant::now() < deadline, "listeners never reached {n}");
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut drain = |listeners: &mut Vec<Listener>,
                     poller: &mut Poller,
                     events: &mut Vec<PollEvent>,
                     wait_ms: i32|
     -> u64 {
        events.clear();
        poller.wait(events, wait_ms).expect("poller wait");
        let mut got = 0u64;
        for ev in events.iter() {
            let l = &mut listeners[ev.token as usize];
            if l.dead || !ev.readable {
                continue;
            }
            loop {
                match l.sock.read(&mut scratch) {
                    Ok(0) => {
                        l.dead = true;
                        let _ = poller.deregister(l.sock.as_raw_fd());
                        break;
                    }
                    Ok(r) => {
                        l.received += r as u64;
                        got += r as u64;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        l.dead = true;
                        let _ = poller.deregister(l.sock.as_raw_fd());
                        break;
                    }
                }
            }
        }
        got
    };
    // Drains until every live listener has gone `quiet` without progress.
    let quiesce = |listeners: &mut Vec<Listener>,
                   poller: &mut Poller,
                   events: &mut Vec<PollEvent>,
                   drain: &mut DrainFn| {
        let mut last_progress = Instant::now();
        while last_progress.elapsed() < Duration::from_millis(300) {
            if drain(listeners, poller, events, 10) > 0 {
                last_progress = Instant::now();
            }
        }
    };

    // One publish round: play pattern at the head, step the clock under it
    // (sub-ring steps), run the update task (which feeds the tap).
    let mut publish_round = |head: &mut u32| {
        let data: Vec<u8> = (0..ROUND_BYTES)
            .map(|i| pattern(u64::from(*head) + i as u64))
            .collect();
        conn.play_samples(&ac, ATime::new(*head), &data).expect("play");
        let mut left = ROUND_BYTES as u32;
        while left > 0 {
            let step = left.min(CLOCK_STEP);
            clock.advance(step);
            handle.run_update();
            left -= step;
        }
        *head = head.wrapping_add(ROUND_BYTES as u32);
    };

    // Every sealed chunk's wire bytes: payload + hex size line + 2 CRLFs.
    let payload = CHUNK_FRAMES as u64;
    let wire = payload + format!("{payload:x}").len() as u64 + 4;
    // Drains until every live listener caught up to `expected` bytes.
    // Pacing each round to full delivery mirrors the production cadence
    // (one chunk per 100 ms, fan-out done in microseconds): the seal runs
    // against a quiet machine, so `encode_cycles` measures encode work
    // rather than memory-bandwidth contention with the write plane.
    let drain_to = |listeners: &mut Vec<Listener>,
                    poller: &mut Poller,
                    events: &mut Vec<PollEvent>,
                    drain: &mut DrainFn,
                    expected: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while listeners.iter().any(|l| !l.dead && l.received < expected) {
            if Instant::now() >= deadline {
                return; // Counted as unsustained below.
            }
            drain(listeners, poller, events, 5);
        }
    };

    // Warmup: prime the chunk-ring freelist and flush the HTTP headers,
    // then zero the per-listener counters against a known-quiet bus.
    for _ in 0..warmup {
        publish_round(&mut head);
        drain(&mut listeners, &mut poller, &mut events, 0);
    }
    quiesce(&mut listeners, &mut poller, &mut events, &mut drain);
    for l in listeners.iter_mut() {
        l.received = 0;
    }
    let before = bus.snapshot();

    let t0 = Instant::now();
    for r in 0..rounds {
        publish_round(&mut head);
        drain_to(
            &mut listeners,
            &mut poller,
            &mut events,
            &mut drain,
            (r as u64 + 1) * wire,
        );
    }
    quiesce(&mut listeners, &mut poller, &mut events, &mut drain);
    let elapsed = t0.elapsed().as_secs_f64();
    let after = bus.snapshot();

    let chunks = after[Bus::ChunksSealed] - before[Bus::ChunksSealed];
    let encoded = after[Bus::EncodedBytes] - before[Bus::EncodedBytes];
    let cycles = after[Bus::EncodeCycles] - before[Bus::EncodeCycles];
    let fanned = after[Bus::BytesFannedOut] - before[Bus::BytesFannedOut];
    let expected = chunks * wire;
    let complete = listeners
        .iter()
        .filter(|l| !l.dead && l.received == expected)
        .count();
    let protocol_errors = stats.server.get(Server::ProtocolErrors);
    let sustained = after[Bus::Evictions] == 0
        && protocol_errors == 0
        && complete == n
        && after[Bus::Listeners] == n as u64;
    if complete != n {
        let min = listeners.iter().map(|l| l.received).min().unwrap_or(0);
        eprintln!(
            "  incomplete drain: {complete}/{n} listeners at {expected} bytes (min {min})"
        );
    }

    drop(listeners);
    server.shutdown();

    LevelResult {
        listeners: n,
        chunks,
        encode_cycles_per_byte: cycles as f64 / encoded.max(1) as f64,
        encode_min_cycles_per_byte: after[Bus::EncodeCyclesMin] as f64 / payload.max(1) as f64,
        fanout_mb_s: fanned as f64 / elapsed / 1e6,
        bytes_fanned_out: fanned,
        skip_aheads: after[Bus::SkipAheads] - before[Bus::SkipAheads],
        evictions: after[Bus::Evictions],
        protocol_errors,
        sustained,
    }
}

fn render_row(r: &LevelResult) -> Json {
    obj([
        ("listeners", r.listeners.into()),
        ("chunks", r.chunks.into()),
        ("encode_cycles_per_byte", r.encode_cycles_per_byte.into()),
        (
            "encode_min_cycles_per_byte",
            r.encode_min_cycles_per_byte.into(),
        ),
        ("fanout_mb_s", r.fanout_mb_s.into()),
        ("bytes_fanned_out", r.bytes_fanned_out.into()),
        ("skip_aheads", r.skip_aheads.into()),
        ("evictions", r.evictions.into()),
        ("protocol_errors", r.protocol_errors.into()),
        ("sustained", r.sustained.into()),
    ])
}

fn main() {
    let args = Args::parse();
    match af_sys::raise_nofile_limit() {
        Ok(limit) => eprintln!("fanout: open-file limit {limit}"),
        Err(e) => eprintln!("fanout: cannot raise open-file limit: {e}"),
    }

    let levels: &[usize] = if args.smoke {
        &[1, 64, 512]
    } else {
        &[1, 64, 512, 1024]
    };
    let (rounds, warmup) = if args.smoke { (100, 8) } else { (300, 20) };

    let mut rows = Vec::new();
    for &n in levels {
        eprintln!("fanout: {n} listeners × {rounds} rounds ...");
        let r = run_level(n, rounds, warmup);
        eprintln!(
            "  {} chunks, encode {:.3} cycles/byte (min {:.3}), fan-out {:.1} MB/s \
             ({} bytes), evictions {}, errors {} → {}",
            r.chunks,
            r.encode_cycles_per_byte,
            r.encode_min_cycles_per_byte,
            r.fanout_mb_s,
            r.bytes_fanned_out,
            r.evictions,
            r.protocol_errors,
            if r.sustained { "sustained" } else { "NOT SUSTAINED" },
        );
        rows.push(r);
    }

    // Flatness gates on the minimum seal cost: the mean charges the
    // encoder for whatever the scheduler and the write plane did to the
    // caches, which is interference, not encode work.
    let cpbs: Vec<f64> = rows.iter().map(|r| r.encode_min_cycles_per_byte).collect();
    let lo = cpbs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = cpbs.iter().cloned().fold(0.0f64, f64::max);
    let flatness = hi / lo.max(1e-12);
    let delta_cycles = (hi - lo) * CHUNK_FRAMES as f64;
    let top_ok = rows.last().is_some_and(|r| r.sustained);
    let flat_ok = flatness <= FLATNESS_TOLERANCE || delta_cycles <= FLATNESS_EPSILON_CYCLES;
    eprintln!(
        "fanout: encode flatness {}→{} listeners: {flatness:.3}x, spread {delta_cycles:.0} \
         cycles/chunk (tolerance {FLATNESS_TOLERANCE}x or {FLATNESS_EPSILON_CYCLES} cycles)",
        levels[0],
        levels[levels.len() - 1],
    );

    let section = obj([
        ("mode", args.mode().into()),
        ("encode_flatness", flatness.into()),
        ("encode_spread_cycles_per_chunk", delta_cycles.into()),
        ("flatness_tolerance", FLATNESS_TOLERANCE.into()),
        ("flatness_epsilon_cycles", FLATNESS_EPSILON_CYCLES.into()),
        ("rows", Json::Arr(rows.iter().map(render_row).collect())),
    ]);
    bench::json::write_section(&args.out, "fanout_scaling", section).expect("write report");
    eprintln!("fanout: wrote {}", args.out);
    if !top_ok {
        eprintln!("fanout: FAIL — top listener level not sustained");
        std::process::exit(1);
    }
    if !flat_ok {
        eprintln!("fanout: FAIL — encode cycles/byte not flat across listener counts");
        std::process::exit(1);
    }
}
