//! `load` — connections-vs-throughput/latency curve for the reactor.
//!
//! Stands up an in-process codec server and drives N concurrent TCP
//! clients from a single-threaded readiness loop (the same
//! `af_sys::Poller` the server's reactor uses, so the
//! harness itself scales with the server it measures).
//! 70% of connections are idle — they cost the server an fd and a poller
//! registration but no traffic — and 30% are paced `GetTime` pingers,
//! one request in flight each, a fresh ping every [`PING_INTERVAL`].
//! That fixes an offered load per level (`active × 1/interval` rps), and
//! a level is *sustained* when the server achieves ≥ 70% of it with no
//! protocol errors, evictions, or lost connections.
//!
//! ```text
//! cargo run --release -p bench --bin load [-- --smoke] [-- --out PATH]
//! ```
//!
//! Results merge into `BENCH_report.json` under `"reactor_scaling"`,
//! preserving every other key.  Exit is nonzero if the final (largest)
//! level is not sustained — the scaling claim is the whole point.

use af_proto::{ByteOrder, ConnSetup, Request};
use af_server::stats::{Server, Shard};
use af_server::{RunningServer, ServerBuilder};
use af_sys::{Interest, PollEvent, Poller};
use bench::json::{obj, Json};
use bench::{percentile, Args};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pacing for active connections: one `GetTime` per interval, so each
/// active connection offers 5 requests/second.
const PING_INTERVAL: Duration = Duration::from_millis(200);

/// Fraction of connections that ping; the rest hold fds silently.
const ACTIVE_FRACTION: f64 = 0.3;

/// A `Time` reply is exactly 12 bytes: 8-byte header + 4-byte ticks.
const REPLY_SIZE: usize = 12;

struct Conn {
    stream: TcpStream,
    /// Send timestamps of in-flight pings (at most one), FIFO.
    pending: VecDeque<Instant>,
    /// Bytes of the current reply received so far (mod REPLY_SIZE).
    reply_have: usize,
    /// Partially-written request, if the socket pushed back.
    wbuf: Vec<u8>,
    woff: usize,
    last_send: Instant,
    active: bool,
    dead: bool,
}

struct LevelResult {
    connections: usize,
    active: usize,
    duration_s: f64,
    target_rps: f64,
    achieved_rps: f64,
    replies: u64,
    p50_us: f64,
    p99_us: f64,
    protocol_errors: u64,
    evictions: u64,
    disconnects: u64,
    sustained: bool,
    readiness_events: u64,
    wakeups: u64,
    partial_reads: u64,
    /// Transport cost per request, from the reactor's counters (`None` if the
    /// level completed no request: the ratios have no denominator).
    syscalls: Option<SyscallsPerRequest>,
}

/// The four ratios `crates/af-server/tests/transport_budget.rs` gates,
/// observed under load (ungated here: they move with coalescing).
struct SyscallsPerRequest {
    /// `read` calls on connection sockets ÷ request frames.
    reads_per_frame: f64,
    /// Replies written whole by their producer ÷ replies.
    direct_write_share: f64,
    /// Self-pipe wakeups ÷ replies.
    wakeups_per_reply: f64,
}

fn codec_server() -> RunningServer {
    let clock = Arc::new(af_device::SystemClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().expect("addr"));
    builder.add_codec(
        clock,
        Box::new(af_device::NullSink),
        Box::new(af_device::SilenceSource::new(0xFF)),
    );
    builder.spawn().expect("spawn server")
}

/// Connects and completes the setup handshake, blocking; the stream is
/// switched to nonblocking before it joins the readiness loop.
fn handshake(addr: std::net::SocketAddr) -> std::io::Result<TcpStream> {
    let mut raw = TcpStream::connect(addr)?;
    raw.set_nodelay(true)?;
    raw.write_all(&ConnSetup::new().encode().map_err(std::io::Error::other)?)?;
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf)?;
    let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut body)?;
    raw.set_nonblocking(true)?;
    Ok(raw)
}

fn run_level(n: usize, duration: Duration) -> LevelResult {
    let server = codec_server();
    let stats = server.stats();
    let addr = server.tcp_addr().expect("tcp addr");

    let mut conns: Vec<Conn> = Vec::with_capacity(n);
    let mut poller = Poller::new().expect("client poller");
    let active_every = (1.0 / ACTIVE_FRACTION) as usize;
    for i in 0..n {
        let stream = handshake(addr).unwrap_or_else(|e| {
            panic!("load: handshake {i}/{n} failed: {e}");
        });
        poller
            .register(stream.as_raw_fd(), i as u64, Interest::Read)
            .expect("register");
        conns.push(Conn {
            stream,
            pending: VecDeque::new(),
            reply_have: 0,
            wbuf: Vec::new(),
            woff: 0,
            // Staggered start so pings spread across the interval.
            last_send: Instant::now()
                - Duration::from_micros(i as u64 % PING_INTERVAL.as_micros() as u64),
            active: i % active_every == 0,
            dead: false,
        });
    }
    let active = conns.iter().filter(|c| c.active).count();

    let ping = Request::GetTime { device: 0 }.encode(ByteOrder::native());
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut replies: u64 = 0;
    let mut disconnects: u64 = 0;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = [0u8; 4096];

    let start = Instant::now();
    // Main loop, then a drain tail so in-flight pings get counted.
    let mut draining_until: Option<Instant> = None;
    loop {
        let now = Instant::now();
        match draining_until {
            None if now.duration_since(start) >= duration => {
                draining_until = Some(now + Duration::from_millis(500));
            }
            Some(t) if now >= t => break,
            _ => {}
        }
        let sending = draining_until.is_none();

        events.clear();
        poller.wait(&mut events, 5).expect("poller wait");
        for ev in &events {
            let conn = &mut conns[ev.token as usize];
            if conn.dead || !ev.readable {
                continue;
            }
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.dead = true;
                        disconnects += 1;
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                        break;
                    }
                    Ok(got) => {
                        let mut total = conn.reply_have + got;
                        while total >= REPLY_SIZE {
                            total -= REPLY_SIZE;
                            replies += 1;
                            if let Some(sent) = conn.pending.pop_front() {
                                latencies_us
                                    .push(sent.elapsed().as_secs_f64() * 1e6);
                            }
                        }
                        conn.reply_have = total;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                        disconnects += 1;
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                        break;
                    }
                }
            }
        }

        let now = Instant::now();
        for conn in conns.iter_mut() {
            if conn.dead || !conn.active {
                continue;
            }
            // Finish any partial write before composing a new ping.
            if conn.woff < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.woff..]) {
                    Ok(w) => conn.woff += w,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        conn.dead = true;
                        disconnects += 1;
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                    }
                }
                continue;
            }
            if sending
                && conn.pending.is_empty()
                && now.duration_since(conn.last_send) >= PING_INTERVAL
            {
                conn.wbuf.clear();
                conn.wbuf.extend_from_slice(&ping);
                conn.woff = 0;
                conn.last_send = now;
                conn.pending.push_back(now);
                match conn.stream.write(&conn.wbuf) {
                    Ok(w) => conn.woff = w,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        conn.dead = true;
                        disconnects += 1;
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                    }
                }
            }
        }
    }

    let measured = duration.as_secs_f64();
    let target_rps = active as f64 / PING_INTERVAL.as_secs_f64();
    let achieved_rps = replies as f64 / measured;
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let protocol_errors = stats.server.get(Server::ProtocolErrors);
    let evictions = stats.server.get(Server::EvictedSlow);
    let reactor = stats.reactor.snapshot();
    let (frames, replies_out) = (reactor[Shard::Frames], reactor[Shard::Replies]);
    let syscalls = (frames > 0 && replies_out > 0).then(|| SyscallsPerRequest {
        reads_per_frame: reactor[Shard::ReadCalls] as f64 / frames as f64,
        direct_write_share: reactor[Shard::DirectWrites] as f64 / replies_out as f64,
        wakeups_per_reply: reactor[Shard::Wakeups] as f64 / replies_out as f64,
    });
    let sustained = protocol_errors == 0
        && evictions == 0
        && disconnects == 0
        && achieved_rps >= 0.7 * target_rps;

    drop(conns);
    server.shutdown();

    LevelResult {
        connections: n,
        active,
        duration_s: measured,
        target_rps,
        achieved_rps,
        replies,
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        protocol_errors,
        evictions,
        disconnects,
        sustained,
        readiness_events: reactor[Shard::ReadinessEvents],
        wakeups: reactor[Shard::Wakeups],
        partial_reads: reactor[Shard::PartialReads],
        syscalls,
    }
}

fn render_row(r: &LevelResult) -> Json {
    let syscalls = r.syscalls.as_ref().map(|s| {
        obj([
            ("reads_per_frame", s.reads_per_frame.into()),
            ("direct_write_share", s.direct_write_share.into()),
            ("wakeups_per_reply", s.wakeups_per_reply.into()),
        ])
    });
    obj([
        ("transport", "reactor".into()),
        ("connections", r.connections.into()),
        ("active", r.active.into()),
        ("duration_s", r.duration_s.into()),
        ("target_rps", r.target_rps.into()),
        ("achieved_rps", r.achieved_rps.into()),
        ("replies", r.replies.into()),
        ("p50_us", r.p50_us.into()),
        ("p99_us", r.p99_us.into()),
        ("protocol_errors", r.protocol_errors.into()),
        ("evictions", r.evictions.into()),
        ("disconnects", r.disconnects.into()),
        ("sustained", r.sustained.into()),
        ("readiness_events", r.readiness_events.into()),
        ("wakeups", r.wakeups.into()),
        ("partial_reads", r.partial_reads.into()),
        ("syscalls_per_request", syscalls.into()),
    ])
}

fn main() {
    let args = Args::parse();
    match af_sys::raise_nofile_limit() {
        Ok(limit) => eprintln!("load: open-file limit {limit}"),
        Err(e) => eprintln!("load: cannot raise open-file limit: {e}"),
    }

    let levels: &[usize] = if args.smoke {
        &[100, 250, 500, 1000]
    } else {
        &[500, 1000, 2000, 3500, 5000]
    };
    let duration = if args.smoke {
        Duration::from_secs(2)
    } else {
        Duration::from_secs(5)
    };

    let mut rows = Vec::new();
    for &n in levels {
        eprintln!("load: {n} connections, {duration:?} ...");
        let r = run_level(n, duration);
        eprintln!(
            "  {:.0}/{:.0} rps ({} replies), p50 {:.0} µs, p99 {:.0} µs, \
             errors {}, evictions {}, disconnects {}, syscalls/request {} → {}",
            r.achieved_rps,
            r.target_rps,
            r.replies,
            r.p50_us,
            r.p99_us,
            r.protocol_errors,
            r.evictions,
            r.disconnects,
            match &r.syscalls {
                Some(s) => format!(
                    "{:.2} reads/frame {:.3} direct {:.4} wakeups/reply",
                    s.reads_per_frame, s.direct_write_share, s.wakeups_per_reply
                ),
                None => "n/a".to_owned(),
            },
            if r.sustained { "sustained" } else { "NOT SUSTAINED" },
        );
        rows.push(r);
    }

    let sustained_fraction =
        rows.iter().filter(|r| r.sustained).count() as f64 / rows.len() as f64;
    // The scaling claim rides on the largest level.
    let final_level_ok = rows.last().is_some_and(|r| r.sustained);

    let section = obj([
        ("mode", args.mode().into()),
        ("sustained_fraction", sustained_fraction.into()),
        ("rows", Json::Arr(rows.iter().map(render_row).collect())),
    ]);
    bench::json::write_section(&args.out, "reactor_scaling", section).expect("write report");
    eprintln!("load: wrote {}", args.out);
    if !final_level_ok {
        eprintln!("load: FAIL — largest level not sustained");
        std::process::exit(1);
    }
}
