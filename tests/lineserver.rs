//! The detached LineServer device behind a real UDP link (§7.4.3).
//!
//! An `Als`-shaped server drives LineServer firmware over the six-packet
//! private protocol; clients talk ordinary AudioFile to the server and
//! never see the difference — network transparency twice over.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::lineserver::{LineServerFirmware, LineServerLink, LsFunction, LsPacket};
use audiofile::device::{CaptureSink, SystemClock, ToneSource};
use audiofile::time::ATime;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
