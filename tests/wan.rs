//! LineServers across a simulated lossy multi-hop WAN (§7.4.3, hardened).
//!
//! The paper ran its LineServer on a quiet Ethernet segment; these tests
//! run it behind an [`af_chaos::Router`] — two hops of Gilbert–Elliott
//! burst loss, delay jitter, bit corruption and NAT-style address
//! rewriting — and require the server to keep playing and recording: FEC
//! recovers lost record replies, a corrupted frame is one more erasure,
//! the adaptive jitter buffer conceals what parity cannot bring back, and
//! the protocol layer sees zero errors throughout.

use af_chaos::{GilbertElliott, HopPlan, Router};
use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::lineserver::LineServerFirmware;
use audiofile::device::stats::{Link, Server};
use audiofile::device::{CaptureSink, SystemClock, ToneSource};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Two hops with bursty loss averaging ~`avg_loss` each, mild jitter.
fn lossy_hops(avg_loss: f64) -> Vec<HopPlan> {
    vec![
        HopPlan::new()
            .ge(GilbertElliott::bursty(avg_loss, 2.0))
            .base_delay(Duration::from_millis(2))
            .jitter(Duration::from_millis(3)),
        HopPlan::new()
            .ge(GilbertElliott::bursty(avg_loss / 2.0, 1.5))
            .jitter(Duration::from_millis(2)),
    ]
}

/// Two LineServers, each behind its own two-hop router of `hops`: the
/// far speaker hears most of a played marker burst, a recording comes
/// back through the jitter buffer, parity brings lost record replies back
/// and the protocol sees no error.
fn playback_and_recording_survive(hops: fn() -> Vec<HopPlan>) {
    let mut firmwares = Vec::new();
    let mut routers = Vec::new();
    let mut speakers = Vec::new();
    for i in 0..2 {
        let clock = Arc::new(SystemClock::new(8000));
        let (sink, speaker) = CaptureSink::new(1 << 22);
        let (fw, addr) = LineServerFirmware::boot(
            clock,
            Box::new(sink),
            Box::new(ToneSource::ulaw(350.0 + 90.0 * i as f64, 8000.0, 10_000.0)),
        )
        .unwrap();
        let stop = fw.stop_handle();
        let thread = std::thread::spawn(move || fw.run());
        firmwares.push((stop, thread));
        speakers.push(speaker);
        routers.push(Router::spawn(addr, hops(), 0xBAD_1A7E5 + i as u64).unwrap());
    }

    let mut builder = audiofile::server::ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(Duration::from_millis(50));
    for router in &routers {
        builder.add_lineserver(router.addr()).unwrap();
    }
    let server = builder.spawn().unwrap();
    let stats = server.stats();

    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    assert_eq!(conn.devices().len(), 2);

    // Play a marker burst on device 0; the one-way FEC-framed play path
    // must land most of it on the far speaker despite the faults.
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t = conn.get_time(0).unwrap();
    conn.play_samples(&ac, t + 1600u32, &[0x44u8; 1600]).unwrap();

    // Record the tone from device 1 through the jitter buffer meanwhile.
    let ac1 = conn
        .create_ac(1, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t1 = conn.get_time(1).unwrap();
    conn.record_samples(&ac1, t1, 0, false).unwrap(); // Arm.
    std::thread::sleep(Duration::from_millis(900));
    let (_, data) = conn.record_samples(&ac1, t1 + 1600u32, 2400, true).unwrap();
    assert_eq!(data.len(), 2400);
    let dbm = audiofile::dsp::power::power_dbm_ulaw(&data);
    assert!(dbm > -30.0, "recorded tone through faults at {dbm} dBm");

    {
        let cap = speakers[0].lock().unwrap();
        let marked = cap.iter().filter(|&&b| b == 0x44).count();
        assert!(
            marked >= 800,
            "speaker heard {marked}/1600 marker bytes through faults"
        );
    }

    // Zero protocol errors: faults must degrade audio, never the protocol.
    assert_eq!(stats.server.get(Server::ProtocolErrors), 0);

    // The links saw real WAN weather and the defenses engaged: parity
    // brought lost record replies back.
    let links: Vec<_> = stats.links.iter().map(|l| l.snapshot()).collect();
    assert_eq!(links.len(), 2);
    let recovered: u64 = links.iter().map(|l| l[Link::FecRecovered]).sum();
    assert!(recovered > 0, "expected FEC recoveries, got {links:?}");

    // The routers really dropped traffic on both paths.
    for router in &routers {
        let dropped: u64 = router.hop_stats().iter().map(|h| h.dropped_loss).sum();
        assert!(dropped > 0, "router injected no loss");
    }

    server.shutdown();
    for router in &mut routers {
        router.stop();
    }
    for (stop, thread) in firmwares {
        stop.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }
}

#[test]
fn playback_survives_multi_hop_burst_loss() {
    playback_and_recording_survive(|| lossy_hops(0.12));
}

#[test]
fn playback_survives_a_corrupting_hop() {
    // A flipped bit turns an FEC frame into an erasure, never into a
    // plain packet that reprograms either end.
    playback_and_recording_survive(|| {
        let mut hops = lossy_hops(0.12);
        hops[0].corrupt = 0.02;
        hops
    });
}

#[test]
fn link_health_counters_are_exported() {
    // A clean (lossless) router still exercises the full WAN stack; the
    // per-link counters must be registered and the gauges live.
    let clock = Arc::new(SystemClock::new(8000));
    let (sink, _speaker) = CaptureSink::new(1 << 20);
    let (fw, addr) = LineServerFirmware::boot(
        clock,
        Box::new(sink),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
    )
    .unwrap();
    let stop = fw.stop_handle();
    let thread = std::thread::spawn(move || fw.run());
    let mut router = Router::spawn(addr, vec![HopPlan::new()], 7).unwrap();

    let mut builder = audiofile::server::ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(Duration::from_millis(50));
    builder.add_lineserver(router.addr()).unwrap();
    let server = builder.spawn().unwrap();
    let stats = server.stats();

    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let t = conn.get_time(0).unwrap();
    conn.record_samples(&ac, t, 0, false).unwrap(); // Arm the record path.
    std::thread::sleep(Duration::from_millis(400));
    let (_, data) = conn.record_samples(&ac, t + 400u32, 800, true).unwrap();
    assert_eq!(data.len(), 800);

    let links: Vec<_> = stats.links.iter().map(|l| l.snapshot()).collect();
    assert_eq!(links.len(), 1, "one link");
    assert!(
        links[0][Link::TargetDepth] > 0,
        "jitter buffer target not live: {links:?}"
    );
    assert_eq!(stats.server.get(Server::ProtocolErrors), 0);

    server.shutdown();
    router.stop();
    stop.store(true, Ordering::Relaxed);
    thread.join().unwrap();
}
