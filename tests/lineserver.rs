//! The detached LineServer device behind a real UDP link (§7.4.3).
//!
//! An `Als`-shaped server drives LineServer firmware over the six-packet
//! private protocol; clients talk ordinary AudioFile to the server and
//! never see the difference — network transparency twice over.

use af_chaos::{HopPlan, Router};
use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::lineserver::{
    LineServerFirmware, LineServerLink, LsFunction, LsPacket, LS_REG_OUTPUT_GAIN,
};
use audiofile::device::{CaptureSink, NullSink, SilenceSource, SystemClock, ToneSource};
use audiofile::server::stats::Link;
use audiofile::time::ATime;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn als_server_plays_and_records_through_udp() {
    // LineServer firmware with a captured speaker and a tone microphone,
    // on a real-time clock (the Als path estimates time from replies).
    let clock = Arc::new(SystemClock::new(8000));
    let (sink, speaker) = CaptureSink::new(1 << 22);
    let (fw, addr) = LineServerFirmware::boot(
        clock,
        Box::new(sink),
        Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
    )
    .unwrap();
    let stop = fw.stop_handle();
    let fw_thread = std::thread::spawn(move || fw.run());

    let mut builder = audiofile::server::ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(std::time::Duration::from_millis(50));
    builder.add_lineserver(addr).unwrap();
    let server = builder.spawn().unwrap();

    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    assert_eq!(conn.devices().len(), 1);
    assert_eq!(
        conn.devices()[0].kind,
        audiofile::proto::DeviceKind::LineServer
    );

    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();

    // Time flows (from UDP reply estimates).
    let t0 = conn.get_time(0).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(120));
    let t1 = conn.get_time(0).unwrap();
    let advanced = t1 - t0;
    assert!(
        (400..=8000).contains(&advanced),
        "time advanced {advanced} ticks in 120 ms"
    );

    // Play a marker a bit ahead; wait for real time to pass it.
    let t = conn.get_time(0).unwrap();
    conn.play_samples(&ac, t + 1200u32, &[0x44u8; 800]).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));
    {
        let cap = speaker.lock().unwrap();
        let marked = cap.iter().filter(|&&b| b == 0x44).count();
        assert!(
            (700..=900).contains(&marked),
            "speaker heard {marked} marker bytes"
        );
    }

    // Record the microphone tone.
    let t = conn.get_time(0).unwrap();
    conn.record_samples(&ac, t, 0, false).unwrap(); // Arm.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let (_, data) = conn.record_samples(&ac, t + 400u32, 1200, true).unwrap();
    assert_eq!(data.len(), 1200);
    let dbm = audiofile::dsp::power::power_dbm_ulaw(&data);
    assert!(dbm > -20.0, "recorded tone at {dbm} dBm");

    server.shutdown();
    stop.store(true, Ordering::Relaxed);
    fw_thread.join().unwrap();
}

/// Sends a register request and drains until its reply arrives: the
/// test's own bounded wait, since the link never waits.  Every 25 ms
/// without a reply, a write is re-sent by the link and a read is sent
/// again as a new request.
fn register_exchange(link: &mut LineServerLink, function: LsFunction, aux: u16) -> LsPacket {
    let req = LsPacket {
        seq: 0,
        time: ATime::ZERO,
        function,
        param: LS_REG_OUTPUT_GAIN,
        aux,
        data: vec![],
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut seq = link.send(req.clone()).unwrap();
    loop {
        let sent = Instant::now();
        while sent.elapsed() < Duration::from_millis(25) {
            let mut reply = None;
            link.drain(|p| {
                let write_ack = function == LsFunction::WriteReg && p.aux == aux;
                if p.function == function && (p.seq == seq || write_ack) {
                    reply = Some(p.clone());
                }
            });
            if let Some(reply) = reply {
                return reply;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(Instant::now() < deadline, "no reply to {req:?}");
        if function == LsFunction::WriteReg {
            link.resend_writes().unwrap();
        } else {
            seq = link.send(req.clone()).unwrap();
        }
    }
}

#[test]
fn lineserver_register_requests_retried() {
    // Register reads/writes go through with retries even while audio flows.
    let clock = Arc::new(SystemClock::new(8000));
    let (fw, addr) = LineServerFirmware::boot(
        clock,
        Box::new(audiofile::device::NullSink),
        Box::new(audiofile::device::SilenceSource::new(0xFF)),
    )
    .unwrap();
    let stop = fw.stop_handle();
    let fw_thread = std::thread::spawn(move || fw.run());

    let mut link = LineServerLink::connect(addr).unwrap();
    let reply = register_exchange(&mut link, LsFunction::WriteReg, 17);
    assert_eq!(reply.function, LsFunction::WriteReg);
    let reply = register_exchange(&mut link, LsFunction::ReadReg, 0);
    assert_eq!(reply.aux, 17);

    stop.store(true, Ordering::Relaxed);
    fw_thread.join().unwrap();
}

/// A UDP relay in front of `upstream` that forwards both ways until `dead`
/// is raised, then swallows every datagram — firmware that stops
/// answering while its port stays open — until `done`.
fn relay(upstream: SocketAddr, dead: Arc<AtomicBool>, done: Arc<AtomicBool>) -> SocketAddr {
    let front = UdpSocket::bind("127.0.0.1:0").unwrap();
    let back = UdpSocket::bind("127.0.0.1:0").unwrap();
    back.connect(upstream).unwrap();
    for socket in [&front, &back] {
        socket
            .set_read_timeout(Some(Duration::from_millis(2)))
            .unwrap();
    }
    let addr = front.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut buf = [0u8; 65_536];
        let mut peer = None;
        while !done.load(Ordering::Relaxed) {
            if let Ok((n, from)) = front.recv_from(&mut buf) {
                peer = Some(from);
                if !dead.load(Ordering::Relaxed) {
                    let _ = back.send(&buf[..n]);
                }
            }
            if let (Ok(n), Some(to)) = (back.recv(&mut buf), peer) {
                if !dead.load(Ordering::Relaxed) {
                    let _ = front.send_to(&buf[..n], to);
                }
            }
        }
    });
    addr
}

/// The worst local-codec round trip the update's LineServer traffic may
/// cause: what a loaded host adds to one pass, well short of a network
/// round trip to either LineServer below.
const ROUND_TRIP_BOUND: Duration = Duration::from_millis(30);

/// A server with a local codec (returned) and a LineServer device reached
/// through `link_addr`, updating every `update`.
fn codec_beside_lineserver(
    clock: Arc<SystemClock>,
    link_addr: SocketAddr,
    update: Duration,
) -> (audiofile::server::RunningServer, u8) {
    let mut builder = audiofile::server::ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(update);
    let codec = builder.add_codec(
        clock,
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    ) as u8;
    builder.add_lineserver(link_addr).unwrap();
    (builder.spawn().unwrap(), codec)
}

/// The slowest local-codec `GetTime` round trip over `span`.
fn slowest_round_trip(conn: &mut AudioConn, codec: u8, span: Duration) -> Duration {
    let started = Instant::now();
    let mut slowest = Duration::ZERO;
    while started.elapsed() < span {
        let round_trip = Instant::now();
        conn.get_time(codec).unwrap();
        slowest = slowest.max(round_trip.elapsed());
    }
    slowest
}

#[test]
fn a_dead_lineserver_never_stalls_the_one_thread() {
    // The update task runs on the reactor thread, beside every client's
    // requests.  When the LineServer stops answering, nothing waits for
    // it: a `GetTime` on the server's local codec stays quick while the
    // silent updates add up to a down verdict, and after it.
    const UPDATE: Duration = Duration::from_millis(50);
    let clock = Arc::new(SystemClock::new(8000));
    let (fw, fw_addr) = LineServerFirmware::boot(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    )
    .unwrap();
    let fw_stop = fw.stop_handle();
    let fw_thread = std::thread::spawn(move || fw.run());
    let dead = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let relayed = relay(fw_addr, Arc::clone(&dead), Arc::clone(&done));
    let (server, codec) = codec_beside_lineserver(clock, relayed, UPDATE);
    let link = Arc::clone(&server.stats().links[0]);
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();

    // The link answers: a few updates' worth of round trips.
    slowest_round_trip(&mut conn, codec, 4 * UPDATE);
    assert_eq!(link.get(Link::LinkDowns), 0, "the link failed while alive");

    // The firmware goes silent until the link is declared down.
    dead.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut worst = Duration::ZERO;
    while link.get(Link::LinkDowns) == 0 {
        assert!(
            Instant::now() < deadline,
            "the link was never declared down"
        );
        worst = worst.max(slowest_round_trip(&mut conn, codec, UPDATE));
    }
    assert!(
        worst < ROUND_TRIP_BOUND,
        "a round trip took {worst:?} while the LineServer was silent"
    );

    // The outage goes on: round trips stay quick, and it counts once.
    let slowest = slowest_round_trip(&mut conn, codec, 4 * UPDATE);
    assert!(
        slowest < ROUND_TRIP_BOUND,
        "a round trip took {slowest:?} with the link down"
    );
    assert_eq!(link.get(Link::LinkDowns), 1, "one outage counted twice");

    server.shutdown();
    done.store(true, Ordering::Relaxed);
    fw_stop.store(true, Ordering::Relaxed);
    fw_thread.join().unwrap();
}

#[test]
fn a_distant_lineserver_never_stalls_the_one_thread() {
    // A healthy LineServer 20 ms away each way: every update's traffic
    // crosses a 40 ms round trip, and none of it may hold up a `GetTime`
    // on the server's local codec.
    const UPDATE: Duration = Duration::from_millis(50);
    let clock = Arc::new(SystemClock::new(8000));
    let (fw, fw_addr) = LineServerFirmware::boot(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    )
    .unwrap();
    let fw_stop = fw.stop_handle();
    let fw_thread = std::thread::spawn(move || fw.run());
    let hop = HopPlan::new().base_delay(Duration::from_millis(20));
    let mut router = Router::spawn(fw_addr, vec![hop], 0x20_20).unwrap();
    let (server, codec) = codec_beside_lineserver(clock, router.addr(), UPDATE);
    let link = Arc::clone(&server.stats().links[0]);
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();

    let slowest = slowest_round_trip(&mut conn, codec, 20 * UPDATE);
    assert!(
        slowest < ROUND_TRIP_BOUND,
        "a round trip took {slowest:?} beside a live LineServer"
    );
    // The link was alive throughout, and its device time flows from
    // reply time stamps.
    assert_eq!(link.get(Link::LinkDowns), 0, "the link failed while alive");
    let t0 = conn.get_time(1).unwrap();
    std::thread::sleep(2 * UPDATE);
    let advanced = conn.get_time(1).unwrap() - t0;
    assert!(
        (400..=2400).contains(&advanced),
        "LineServer time advanced {advanced} ticks in 100 ms"
    );

    server.shutdown();
    router.stop();
    fw_stop.store(true, Ordering::Relaxed);
    fw_thread.join().unwrap();
}
