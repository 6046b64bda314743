//! Telephony integration: the LoFi-shaped server with its simulated line.
//!
//! Exercises the flows §5.5 and §8.6 describe: incoming ring events,
//! answering, voice mail (greeting out, message in), DTMF both ways, and
//! the pass-through connection.

use audiofile::client::{AcAttributes, AcMask, AudioConn, EventDetail, EventKind, EventMask};
use audiofile::device::{PhoneLine, VirtualClock};
use audiofile::dsp::g711::ULAW_SILENCE;
use audiofile::dsp::telephony::dtmf_for_digit;
use audiofile::dsp::tone::tone_pair;
use audiofile::server::{RunningServer, ServerBuilder, ServerHandle};
use std::sync::Arc;

/// Phone device index in the LoFi shape.
const PHONE_DEV: u8 = 0;

struct Lofi {
    server: RunningServer,
    clock: Arc<VirtualClock>,
    line: PhoneLine,
}

impl Lofi {
    fn new() -> Lofi {
        let clock = Arc::new(VirtualClock::new(8000));
        let hifi_clock = Arc::new(VirtualClock::new(44_100));
        let (builder, line) = ServerBuilder::lofi(clock.clone(), hifi_clock);
        let server = builder
            .listen_tcp("127.0.0.1:0".parse().unwrap())
            .spawn()
            .unwrap();
        Lofi {
            server,
            clock,
            line,
        }
    }

    fn connect(&self) -> AudioConn {
        AudioConn::open(&self.server.tcp_addr().unwrap().to_string()).unwrap()
    }

    fn run(&self, handle: &ServerHandle, samples: u32) {
        let mut left = samples;
        while left > 0 {
            let n = left.min(800);
            self.clock.advance(n);
            handle.run_update();
            left -= n;
        }
    }
}

fn dtmf_ulaw(digit: char, ms: u32) -> Vec<u8> {
    let def = dtmf_for_digit(digit).unwrap();
    tone_pair(def.spec, 8000.0, (8 * ms) as usize, 16)
}

#[test]
fn lofi_exports_five_devices_with_phone_first() {
    // "The Alofi server presents five audio devices to clients" (§7.4.1):
    // two CODECs and three HiFi views.
    let fx = Lofi::new();
    let conn = fx.connect();
    assert_eq!(conn.devices().len(), 5);
    assert!(conn.devices()[0].is_telephone());
    assert!(!conn.devices()[1].is_telephone());
    assert_eq!(conn.devices()[2].play_nchannels, 2);
    assert_eq!(conn.devices()[3].play_nchannels, 1);
    assert_eq!(conn.devices()[4].play_nchannels, 1);
    // The default device skips the telephone (§8.1.1).
    assert_eq!(conn.find_default_device(), Some(1));
}

#[test]
fn ring_event_reaches_selected_client() {
    let fx = Lofi::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    conn.select_events(PHONE_DEV, EventMask::ALL).unwrap();
    conn.sync().unwrap();

    fx.line.office_ring(true);
    handle.run_update(); // Polls phone signals.
    let ev = conn.next_event().unwrap();
    assert_eq!(ev.device, PHONE_DEV);
    assert_eq!(ev.detail, EventDetail::Ring { ringing: true });

    // A client that did not select ring events hears nothing.
    let mut other = fx.connect();
    other
        .select_events(PHONE_DEV, EventMask::NONE.with(EventKind::PhoneDtmf))
        .unwrap();
    other.sync().unwrap();
    fx.line.office_ring(false);
    fx.line.office_ring(true);
    handle.run_update();
    assert_eq!(other.pending().unwrap(), 0);
}

#[test]
fn query_phone_and_hookswitch() {
    let fx = Lofi::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    assert_eq!(conn.query_phone(PHONE_DEV).unwrap(), (false, false, false));

    fx.line.office_ring(true);
    assert_eq!(conn.query_phone(PHONE_DEV).unwrap(), (false, false, true));

    conn.hook_switch(PHONE_DEV, true).unwrap();
    conn.sync().unwrap();
    // Answering stops the ringing.
    assert_eq!(conn.query_phone(PHONE_DEV).unwrap(), (true, false, false));

    // Extension phone lifted: loop current flows.
    fx.line.extension_hook(true);
    assert_eq!(conn.query_phone(PHONE_DEV).unwrap(), (true, true, false));
    let _ = handle;
}

#[test]
fn answering_machine_flow() {
    // The §8.6 script as API calls: ring → answer → greeting → message.
    let fx = Lofi::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    conn.select_events(PHONE_DEV, EventMask::ALL).unwrap();
    let ac = conn
        .create_ac(PHONE_DEV, AcMask::default(), &AcAttributes::default())
        .unwrap();
    // Flush the selection before the call arrives: like X, events that
    // fire before SelectEvents reaches the server are not delivered.
    conn.sync().unwrap();

    // Ring, then answer.
    fx.line.office_ring(true);
    handle.run_update();
    let ev = conn.next_event().unwrap();
    assert_eq!(ev.detail, EventDetail::Ring { ringing: true });
    conn.hook_switch(PHONE_DEV, true).unwrap();
    conn.sync().unwrap();

    // Play the outgoing greeting to the line.
    let greeting = vec![0x27u8; 1600]; // 200 ms of marker audio.
    let t = conn.get_time(PHONE_DEV).unwrap();
    conn.record_samples(&ac, t, 0, false).unwrap(); // Arm for the message.
    conn.play_samples(&ac, t + 400u32, &greeting).unwrap();
    fx.run(&handle, 2400);
    let heard_by_caller = fx.line.office_recv(2400);
    assert_eq!(&heard_by_caller[400..2000], &greeting[..]);

    // The caller speaks; we record the message.
    let message = dtmf_ulaw('8', 60); // Any distinctive audio; DTMF doubles as a check.
    fx.line.office_send(&message);
    fx.line.office_send(&vec![ULAW_SILENCE; 800]);
    let msg_start = conn.get_time(PHONE_DEV).unwrap();
    fx.run(&handle, 1600);
    let (_, recorded) = conn
        .record_samples(&ac, msg_start, message.len(), true)
        .unwrap();
    let dbm = audiofile::dsp::power::power_dbm_ulaw(&recorded);
    assert!(dbm > -20.0, "message power {dbm}");

    // The DTMF decoder on the line also reported the caller's key.
    handle.run_update();
    let ev = conn
        .if_event(|e| matches!(e.detail, EventDetail::Dtmf { .. }))
        .unwrap();
    assert_eq!(
        ev.detail,
        EventDetail::Dtmf {
            digit: b'8',
            down: true
        }
    );

    // Hang up.
    conn.hook_switch(PHONE_DEV, false).unwrap();
    conn.sync().unwrap();
    assert!(!conn.query_phone(PHONE_DEV).unwrap().0);
}

#[test]
fn client_dialing_produces_dtmf_events() {
    // aphone's approach: synthesize DTMF into the play path (§5.5); the
    // line's decoder reports the digits back as events.
    let fx = Lofi::new();
    let handle = fx.server.handle();
    let mut conn = fx.connect();
    conn.select_events(PHONE_DEV, EventMask::NONE.with(EventKind::PhoneDtmf))
        .unwrap();
    let ac = conn
        .create_ac(PHONE_DEV, AcMask::default(), &AcAttributes::default())
        .unwrap();
    conn.hook_switch(PHONE_DEV, true).unwrap();

    let mut dial = Vec::new();
    for d in ['4', '2'] {
        dial.extend(dtmf_ulaw(d, 60));
        dial.extend(vec![ULAW_SILENCE; 480]);
    }
    let t = conn.get_time(PHONE_DEV).unwrap();
    conn.play_samples(&ac, t + 400u32, &dial).unwrap();
    fx.run(&handle, dial.len() as u32 + 1600);

    let mut digits = Vec::new();
    while let Some(ev) = conn
        .check_if_event(|e| matches!(e.detail, EventDetail::Dtmf { down: true, .. }))
        .unwrap()
    {
        if let EventDetail::Dtmf { digit, .. } = ev.detail {
            digits.push(digit as char);
        }
    }
    assert_eq!(digits, vec!['4', '2']);
}

#[test]
fn pass_through_routes_phone_to_local_codec() {
    // §7.4.1: pass-through connects the telephone to the local audio
    // device.  Caller audio must come out of the local speaker.
    let clock = Arc::new(VirtualClock::new(8000));
    let line = PhoneLine::new();
    let (capture_sink, speaker) = audiofile::device::CaptureSink::new(1 << 22);
    let mut builder = ServerBuilder::new();
    let d0 = builder.add_phone_codec(clock.clone(), line.clone());
    let d1 = builder.add_codec(
        clock.clone(),
        Box::new(capture_sink),
        Box::new(audiofile::device::SilenceSource::new(ULAW_SILENCE)),
    );
    builder.pair_passthrough(d0, d1);
    let server = builder
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .spawn()
        .unwrap();
    let handle = server.handle();
    let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();

    conn.hook_switch(0, true).unwrap();
    conn.enable_pass_through(0).unwrap();
    conn.sync().unwrap();

    // The caller talks; their audio is on the line.
    line.office_send(&vec![0x35u8; 4000]);
    for _ in 0..20 {
        clock.advance(800);
        handle.run_update();
    }
    let heard = speaker.lock().unwrap();
    let marked = heard.iter().filter(|&&b| b == 0x35).count();
    assert!(
        marked > 2000,
        "local speaker heard {marked} caller bytes of 4000"
    );
    drop(heard);

    // Disable: caller audio stops reaching the speaker.
    conn.disable_pass_through(0).unwrap();
    conn.sync().unwrap();
    let before = speaker.lock().unwrap().len();
    line.office_send(&vec![0x36u8; 1600]);
    for _ in 0..5 {
        clock.advance(800);
        handle.run_update();
    }
    let heard = speaker.lock().unwrap();
    let marked = heard[before..].iter().filter(|&&b| b == 0x36).count();
    assert_eq!(marked, 0, "pass-through still routing after disable");
    server.shutdown();
}
