//! `chaos_soak` — sustained playback through a lossy multi-hop WAN.
//!
//! Stands up LineServer firmware behind a two-hop [`af_chaos::Router`]
//! with Gilbert–Elliott burst loss at 20% and 40% end-to-end, drives a
//! TCP client playing a marker stream and recording a tone through the
//! adaptive jitter buffer, and measures what the WAN hardening delivers:
//! the speaker-side gap distribution, client-visible request latency,
//! per-link health counters, and per-hop router drops.  The run fails
//! (non-zero exit) if any protocol error surfaces — loss must degrade
//! audio, never the protocol.
//!
//! ```text
//! cargo run --release -p bench --bin chaos_soak [-- --smoke] [-- --out PATH]
//! ```
//!
//! Results merge into `BENCH_report.json` under the `"chaos_soak"` key,
//! preserving every other key in the file.

use af_chaos::{GilbertElliott, HopPlan, HopStats, Router};
use af_client::{AcAttributes, AcMask, AudioConn};
use af_device::io::{CaptureSink, ToneSource};
use af_device::lineserver::LineServerFirmware;
use af_device::stats::{Link, Server, Snapshot};
use af_device::SystemClock;
use bench::json::{obj, Json};
use bench::{percentile, Args};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One loss level's measurements.
struct LevelResult {
    loss: f64,
    duration_s: f64,
    played: usize,
    heard: usize,
    gap_fraction: f64,
    gap_runs: Vec<usize>,
    rtt_us: Vec<f64>,
    record_dbm: f64,
    protocol_errors: u64,
    link: Snapshot<Link, 10>,
    hops: Vec<HopStats>,
}

/// Two hops whose independent losses compound to ≈ `end_to_end`.
fn hops_for(end_to_end: f64) -> Vec<HopPlan> {
    let per_hop = 1.0 - (1.0 - end_to_end).sqrt();
    vec![
        HopPlan::new()
            .ge(GilbertElliott::bursty(per_hop, 2.5))
            .base_delay(Duration::from_millis(2))
            .jitter(Duration::from_millis(4)),
        HopPlan::new()
            .ge(GilbertElliott::bursty(per_hop, 1.5))
            .jitter(Duration::from_millis(2)),
    ]
}

const MARKER: u8 = 0x44;
const CHUNK: usize = 800; // 100 ms of 8 kHz µ-law per play chunk.

fn run_level(loss: f64, duration: Duration, seed: u64) -> LevelResult {
    let clock = Arc::new(SystemClock::new(8000));
    let (sink, speaker) = CaptureSink::new(1 << 22);
    let (fw, fw_addr) = LineServerFirmware::boot(
        clock,
        Box::new(sink),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
    )
    .expect("boot firmware");
    let stop = fw.stop_handle();
    let fw_thread = std::thread::spawn(move || fw.run());

    let mut router = Router::spawn(fw_addr, hops_for(loss), seed).expect("spawn router");

    let mut builder = af_server::ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().expect("addr"))
        .update_interval(Duration::from_millis(50));
    builder.add_lineserver(router.addr()).expect("add lineserver");
    let server = builder.spawn().expect("spawn server");
    let stats = server.stats();

    let mut conn =
        AudioConn::open(&server.tcp_addr().expect("tcp").to_string()).expect("connect");
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .expect("create ac");

    // Arm the record path, then stream marker chunks scheduled back to
    // back while sampling client-visible round-trip latency.
    let t0 = conn.get_time(0).expect("get_time");
    conn.record_samples(&ac, t0, 0, false).expect("arm record");
    let chunks = (duration.as_millis() as usize / 100).max(5);
    let lead = 1600u32; // 200 ms scheduling lead.
    let mut rtt_us = Vec::with_capacity(chunks);
    let start = Instant::now();
    for i in 0..chunks {
        let at = t0 + (lead + (i * CHUNK) as u32);
        conn.play_samples(&ac, at, &[MARKER; CHUNK]).expect("play");
        let before = Instant::now();
        let _ = conn.get_time(0).expect("get_time");
        rtt_us.push(before.elapsed().as_secs_f64() * 1e6);
        // Stay roughly real-time: one chunk per 100 ms of wall clock.
        let target = Duration::from_millis(100 * (i as u64 + 1));
        if let Some(nap) = target.checked_sub(start.elapsed()) {
            std::thread::sleep(nap);
        }
    }
    // Let the tail of the stream drain through the lead and the link.
    std::thread::sleep(Duration::from_millis(400));

    // Pull a recent window of the recorded tone back through the jitter
    // buffer (older samples have scrolled out of the record ring on long
    // runs).
    let t_now = conn.get_time(0).expect("get_time");
    let (_, recorded) = conn
        .record_samples(&ac, t_now.offset(-4000), 2400, true)
        .expect("record");
    let record_dbm = {
        let dbm = af_dsp::power::power_dbm_ulaw(&recorded);
        if dbm.is_finite() {
            dbm
        } else {
            -99.0 // All-silence window; keep the JSON finite.
        }
    };

    // Gap analysis over the speaker capture, inside the marker window.
    let (played, heard, gap_runs) = {
        let cap = speaker.lock().unwrap();
        let first = cap.iter().position(|&b| b == MARKER);
        let last = cap.iter().rposition(|&b| b == MARKER);
        let mut runs = Vec::new();
        let mut heard = 0usize;
        if let (Some(a), Some(b)) = (first, last) {
            let mut run = 0usize;
            for &byte in &cap[a..=b] {
                if byte == MARKER {
                    heard += 1;
                    if run > 0 {
                        runs.push(run);
                        run = 0;
                    }
                } else {
                    run += 1;
                }
            }
            if run > 0 {
                runs.push(run);
            }
        }
        (chunks * CHUNK, heard, runs)
    };
    let gap_fraction = 1.0 - heard as f64 / played.max(1) as f64;

    let protocol_errors = stats.server.get(Server::ProtocolErrors);
    let link = stats.links.first().map(|l| l.snapshot()).unwrap_or_default();
    let hops = router.hop_stats();

    server.shutdown();
    router.stop();
    stop.store(true, Ordering::Relaxed);
    let _ = fw_thread.join();

    rtt_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    LevelResult {
        loss,
        duration_s: duration.as_secs_f64(),
        played,
        heard,
        gap_fraction,
        gap_runs,
        rtt_us,
        record_dbm,
        protocol_errors,
        link,
        hops,
    }
}

fn render_level(r: &LevelResult) -> Json {
    let mut runs = r.gap_runs.clone();
    runs.sort_unstable();
    let hops = r.hops.iter().map(|h| {
        obj([
            ("forwarded", h.forwarded.into()),
            ("dropped_loss", h.dropped_loss.into()),
            ("dropped_queue", h.dropped_queue.into()),
            ("duplicated", h.duplicated.into()),
            ("corrupted", h.corrupted.into()),
        ])
    });
    let rtt = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];
    let rtt = rtt.map(|(name, p)| (name, percentile(&r.rtt_us, p)));
    obj([
        ("loss", r.loss.into()),
        ("duration_s", r.duration_s.into()),
        ("played_bytes", r.played.into()),
        ("marker_heard", r.heard.into()),
        ("gap_fraction", r.gap_fraction.into()),
        (
            "gap_runs",
            obj([
                ("count", runs.len().into()),
                ("p50", percentile(&runs, 0.50).into()),
                ("p95", percentile(&runs, 0.95).into()),
                ("max", runs.last().copied().unwrap_or(0).into()),
            ]),
        ),
        ("get_time_rtt_us", rtt.into_iter().collect()),
        ("record_power_dbm", r.record_dbm.into()),
        ("protocol_errors", r.protocol_errors.into()),
        ("link", r.link.iter().collect()),
        ("router_hops", Json::Arr(hops.collect())),
    ])
}

fn main() {
    let args = Args::parse();
    let per_level = if args.smoke {
        Duration::from_secs(3)
    } else {
        Duration::from_secs(10)
    };

    let mut levels = Vec::new();
    let mut failed = false;
    for (i, loss) in [0.20, 0.40].into_iter().enumerate() {
        eprintln!("chaos_soak: {:.0}% end-to-end loss, {per_level:?} ...", loss * 100.0);
        let r = run_level(loss, per_level, 0xC0A5_0A1C + i as u64);
        eprintln!(
            "  heard {}/{} marker bytes (gap {:.1}%), fec recovered {}, conceals {}, \
             protocol errors {}",
            r.heard,
            r.played,
            r.gap_fraction * 100.0,
            r.link[Link::FecRecovered],
            r.link[Link::Conceals],
            r.protocol_errors
        );
        if r.protocol_errors != 0 {
            eprintln!("  FAIL: protocol errors under loss");
            failed = true;
        }
        // Playback must be sustained, not merely attempted: the majority
        // of the stream survives 20% loss, and even 40% keeps audio
        // flowing (FEC + concealment, never a stall or a protocol error).
        let bound = if loss < 0.3 { 0.5 } else { 0.8 };
        if r.gap_fraction > bound {
            eprintln!(
                "  FAIL: gap fraction {:.2} exceeds {bound} at {:.0}% loss",
                r.gap_fraction,
                loss * 100.0
            );
            failed = true;
        }
        levels.push(r);
    }

    let levels: Vec<Json> = levels.iter().map(render_level).collect();
    let section = obj([("mode", args.mode().into()), ("levels", levels.into())]);
    bench::json::write_section(&args.out, "chaos_soak", section).expect("write report");
    eprintln!("chaos_soak: wrote {}", args.out);
    if failed {
        std::process::exit(1);
    }
}
