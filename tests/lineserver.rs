//! The detached LineServer device behind a real UDP link (§7.4.3).
//!
//! An `Als`-shaped server drives LineServer firmware over the six-packet
//! private protocol; clients talk ordinary AudioFile to the server and
//! never see the difference — network transparency twice over.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::lineserver::{LineServerFirmware, LineServerLink, LsFunction, LsPacket};
use audiofile::device::{CaptureSink, NullSink, SilenceSource, SystemClock, ToneSource};
use audiofile::server::backend::{ALS_REPLY_TIMEOUT, ALS_RETRIES, DOWN_BACKOFF_OPS};
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
    let reply = link
        .transact(
            LsPacket {
                seq: 0,
                time: ATime::ZERO,
                function: LsFunction::WriteReg,
                param: audiofile::device::lineserver::LS_REG_OUTPUT_GAIN,
                aux: 17,
                data: vec![],
            },
            3,
        )
        .unwrap();
    assert_eq!(reply.function, LsFunction::WriteReg);
    let reply = link
        .transact(
            LsPacket {
                seq: 0,
                time: ATime::ZERO,
                function: LsFunction::ReadReg,
                param: audiofile::device::lineserver::LS_REG_OUTPUT_GAIN,
                aux: 0,
                data: vec![],
            },
            3,
        )
        .unwrap();
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

#[test]
fn a_dead_lineserver_stalls_the_one_thread_for_a_bounded_time() {
    // The update task runs on the reactor thread, beside every client's
    // requests.  When the LineServer stops answering, the update's clock
    // exchange waits out every attempt before the link is declared down,
    // and a `GetTime` on the server's local codec waits with it — for one
    // exchange at most, after which the down-backoff skips the link.
    const UPDATE: Duration = Duration::from_millis(50);
    let stall = ALS_REPLY_TIMEOUT * (ALS_RETRIES + 1);
    // What else a round trip may meet on a loaded host: the rest of the
    // pass and a scheduling delay, well short of another exchange.
    let bound = stall + ALS_REPLY_TIMEOUT;

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

    let mut builder = audiofile::server::ServerBuilder::new()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .update_interval(UPDATE);
    let codec = builder.add_codec(
        clock,
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    ) as u8;
    builder.add_lineserver_link(LineServerLink::connect(relayed).unwrap());
    let server = builder.spawn().unwrap();
    let link = Arc::clone(&server.stats().links[0]);
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
    let mut round_trip = || {
        let started = Instant::now();
        conn.get_time(codec).unwrap();
        started.elapsed()
    };
    let slowest_for = |round_trip: &mut dyn FnMut() -> Duration, span: Duration| {
        let started = Instant::now();
        let mut slowest = Duration::ZERO;
        while started.elapsed() < span {
            slowest = slowest.max(round_trip());
        }
        slowest
    };
    // The link answers: a few updates' worth of round trips.
    slowest_for(&mut round_trip, 4 * UPDATE);
    assert_eq!(link.get(Link::LinkDowns), 0, "the link failed while alive");

    // The firmware goes silent: round trips meet one dead exchange.
    dead.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut worst = Duration::ZERO;
    while link.get(Link::LinkDowns) == 0 {
        assert!(
            Instant::now() < deadline,
            "the link was never declared down"
        );
        worst = worst.max(round_trip());
    }
    assert!(
        worst >= ALS_REPLY_TIMEOUT,
        "no round trip waited on the dead link ({worst:?}): the stall went unmeasured"
    );
    assert!(
        worst <= bound,
        "a round trip took {worst:?}; one dead exchange is {stall:?}"
    );

    // Down-backoff: the next updates skip the link, and round trips are
    // back to normal — measured well inside the backoff, before the probe
    // that ends it.
    let backoff = UPDATE * (DOWN_BACKOFF_OPS - 2);
    let slowest = slowest_for(&mut round_trip, backoff);
    assert!(
        slowest < ALS_REPLY_TIMEOUT,
        "a round trip took {slowest:?} while the link was backed off"
    );
    assert_eq!(link.get(Link::LinkDowns), 1, "the backoff ended early");

    server.shutdown();
    done.store(true, Ordering::Relaxed);
    fw_stop.store(true, Ordering::Relaxed);
    fw_thread.join().unwrap();
}
