//! Atoms, properties, and inter-client communication (§5.9).
//!
//! "Clients can use such facilities to coordinate use of resources (like
//! the telephone) and to cooperate among themselves" — the
//! `LAST_NUMBER_DIALED` convention is tested exactly as the paper
//! describes it.

use audiofile::client::{AfError, AudioConn, EventDetail, EventKind, EventMask};
use audiofile::device::{SilenceSource, VirtualClock};
use audiofile::proto::atoms::{ATOM_CARDINAL, ATOM_LAST_NUMBER_DIALED, ATOM_STRING};
use audiofile::proto::request::PropertyMode;
use audiofile::proto::{Atom, ErrorCode};
use audiofile::server::{RunningServer, ServerBuilder};
use std::sync::Arc;

fn server() -> RunningServer {
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        clock,
        Box::new(audiofile::device::NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    builder.spawn().unwrap()
}

fn connect(s: &RunningServer) -> AudioConn {
    AudioConn::open(&s.tcp_addr().unwrap().to_string()).unwrap()
}

#[test]
fn builtin_atoms_preinterned() {
    let s = server();
    let mut conn = connect(&s);
    // Table 2's atoms resolve without creating anything new.
    assert_eq!(conn.intern_atom("STRING", true).unwrap(), ATOM_STRING);
    assert_eq!(
        conn.intern_atom("LAST_NUMBER_DIALED", true).unwrap(),
        ATOM_LAST_NUMBER_DIALED
    );
    assert_eq!(conn.get_atom_name(Atom(1)).unwrap(), "ATOM");
    assert_eq!(conn.get_atom_name(Atom(12)).unwrap(), "SAMPLE_MU255");
}

#[test]
fn interning_is_idempotent_and_shared_across_clients() {
    let s = server();
    let mut c1 = connect(&s);
    let mut c2 = connect(&s);
    let a1 = c1.intern_atom("MY_SHARED_NAME", false).unwrap();
    let a2 = c2.intern_atom("MY_SHARED_NAME", false).unwrap();
    assert_eq!(a1, a2);
    assert_eq!(c2.get_atom_name(a1).unwrap(), "MY_SHARED_NAME");
    // only_if_exists on a missing name returns the null atom.
    assert!(c1.intern_atom("NEVER_MADE", true).unwrap().is_none());
}

#[test]
fn unknown_atom_name_is_server_error() {
    let s = server();
    let mut conn = connect(&s);
    match conn.get_atom_name(Atom(9999)) {
        Err(AfError::Server(e)) => {
            assert_eq!(e.code, audiofile::proto::ErrorCode::BadAtom)
        }
        other => panic!("expected BadAtom, got {other:?}"),
    }
}

#[test]
fn last_number_dialed_convention() {
    // "Any client dialing the telephone should update the value of this
    // property... a directory of recently used numbers could acquire all
    // numbers dialed by all telephone applications."
    let s = server();
    let mut dialer = connect(&s);
    let mut directory = connect(&s);

    directory
        .select_events(0, EventMask::NONE.with(EventKind::PropertyChange))
        .unwrap();
    directory.sync().unwrap();

    dialer
        .change_property(
            0,
            PropertyMode::Replace,
            ATOM_LAST_NUMBER_DIALED,
            ATOM_STRING,
            b"16175551212",
        )
        .unwrap();
    dialer.sync().unwrap();

    // The directory client is notified and reads the value.
    let ev = directory.next_event().unwrap();
    assert_eq!(
        ev.detail,
        EventDetail::Property {
            atom: ATOM_LAST_NUMBER_DIALED,
            exists: true
        }
    );
    let (type_, data) = directory
        .get_property(0, false, ATOM_LAST_NUMBER_DIALED, ATOM_STRING)
        .unwrap();
    assert_eq!(type_, ATOM_STRING);
    assert_eq!(data, b"16175551212");
}

#[test]
fn property_modes_append_prepend_replace() {
    let s = server();
    let mut conn = connect(&s);
    let prop = conn.intern_atom("SCRATCH", false).unwrap();

    conn.change_property(0, PropertyMode::Replace, prop, ATOM_STRING, b"mid")
        .unwrap();
    conn.change_property(0, PropertyMode::Append, prop, ATOM_STRING, b"-end")
        .unwrap();
    conn.change_property(0, PropertyMode::Prepend, prop, ATOM_STRING, b"start-")
        .unwrap();
    let (_, data) = conn.get_property(0, false, prop, ATOM_STRING).unwrap();
    assert_eq!(data, b"start-mid-end");

    // Append with a mismatched type is a BadMatch (checked via sync).
    conn.change_property(0, PropertyMode::Append, prop, ATOM_CARDINAL, &[1])
        .unwrap();
    conn.sync().unwrap();
    let errs = conn.take_async_errors();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].code, audiofile::proto::ErrorCode::BadMatch);
}

#[test]
fn get_property_with_delete_removes_and_notifies() {
    let s = server();
    let mut writer = connect(&s);
    let mut watcher = connect(&s);
    watcher
        .select_events(0, EventMask::NONE.with(EventKind::PropertyChange))
        .unwrap();
    watcher.sync().unwrap();

    let prop = writer.intern_atom("ONE_SHOT", false).unwrap();
    writer
        .change_property(0, PropertyMode::Replace, prop, ATOM_STRING, b"x")
        .unwrap();
    writer.sync().unwrap();

    let (type_, data) = writer.get_property(0, true, prop, Atom::NONE).unwrap();
    assert_eq!(type_, ATOM_STRING);
    assert_eq!(data, b"x");

    // Second read: gone.
    let (type_, data) = writer.get_property(0, false, prop, Atom::NONE).unwrap();
    assert!(type_.is_none());
    assert!(data.is_empty());

    // Watcher saw the change then the deletion.
    let ev1 = watcher.next_event().unwrap();
    assert_eq!(
        ev1.detail,
        EventDetail::Property {
            atom: prop,
            exists: true
        }
    );
    let ev2 = watcher.next_event().unwrap();
    assert_eq!(
        ev2.detail,
        EventDetail::Property {
            atom: prop,
            exists: false
        }
    );
}

#[test]
fn type_filter_mismatch_returns_actual_type_no_data() {
    let s = server();
    let mut conn = connect(&s);
    let prop = conn.intern_atom("TYPED", false).unwrap();
    conn.change_property(0, PropertyMode::Replace, prop, ATOM_STRING, b"abc")
        .unwrap();
    conn.sync().unwrap();
    let (type_, data) = conn.get_property(0, false, prop, ATOM_CARDINAL).unwrap();
    assert_eq!(type_, ATOM_STRING); // The actual type is reported.
    assert!(data.is_empty()); // But no data crosses.
}

#[test]
fn list_properties_sorted() {
    let s = server();
    let mut conn = connect(&s);
    assert!(conn.list_properties(0).unwrap().is_empty());
    let a = conn.intern_atom("P_A", false).unwrap();
    let b = conn.intern_atom("P_B", false).unwrap();
    conn.change_property(0, PropertyMode::Replace, b, ATOM_STRING, b"1")
        .unwrap();
    conn.change_property(0, PropertyMode::Replace, a, ATOM_STRING, b"2")
        .unwrap();
    conn.sync().unwrap();
    assert_eq!(conn.list_properties(0).unwrap(), vec![a, b]);
}

#[test]
fn delete_property_of_missing_is_silent() {
    let s = server();
    let mut conn = connect(&s);
    let prop = conn.intern_atom("NOT_SET", false).unwrap();
    conn.delete_property(0, prop).unwrap();
    conn.sync().unwrap();
    assert!(conn.take_async_errors().is_empty());
}

#[test]
fn access_control_requests_round_trip() {
    let s = server();
    let mut conn = connect(&s);
    let (enabled, hosts) = conn.list_hosts().unwrap();
    assert!(enabled);
    assert!(hosts.is_empty());

    conn.add_host(&[10, 0, 0, 7]).unwrap();
    conn.add_host(&[10, 0, 0, 8]).unwrap();
    conn.remove_host(&[10, 0, 0, 7]).unwrap();
    conn.set_access_control(false).unwrap();
    let (enabled, hosts) = conn.list_hosts().unwrap();
    assert!(!enabled);
    assert_eq!(hosts, vec![vec![10, 0, 0, 8]]);

    // A malformed address length is rejected.
    conn.add_host(&[1, 2, 3]).unwrap();
    conn.sync().unwrap();
    let errs = conn.take_async_errors();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].code, audiofile::proto::ErrorCode::BadValue);
}

#[test]
fn counted_fields_too_long_for_their_counts_are_refused_before_sending() {
    let s = server();
    let mut conn = connect(&s);
    let address = [10u8; 260];
    for refused in [conn.add_host(&address), conn.remove_host(&address)] {
        assert!(
            matches!(refused, Err(AfError::InvalidArgument(_))),
            "{refused:?}"
        );
    }
    let name = "A".repeat(70_000);
    let atom = conn.intern_atom(&name, false);
    assert!(matches!(atom, Err(AfError::InvalidArgument(_))), "{atom:?}");
    // Nothing was sent: no host was added, and the connection still works.
    let (_, hosts) = conn.list_hosts().unwrap();
    assert!(hosts.is_empty(), "{hosts:?}");
    conn.get_time(0).unwrap();
    conn.sync().unwrap();
    assert!(conn.take_async_errors().is_empty());
}

#[test]
fn a_property_list_too_long_for_its_reply_count_is_an_error_not_a_crash() {
    let s = server();
    let mut conn = connect(&s);
    // One property past what the `Properties` reply's u16 count can say.
    for i in 0..=u32::from(u16::MAX) {
        let atom = conn.intern_atom(&format!("P{i}"), false).unwrap();
        conn.change_property(0, PropertyMode::Replace, atom, ATOM_STRING, b"")
            .unwrap();
    }
    let refused = conn.list_properties(0).map(|atoms| atoms.len());
    assert!(
        matches!(&refused, Err(AfError::Server(e)) if e.code == ErrorCode::BadLength),
        "{refused:?}"
    );
    // The server is still up: this connection and a new one are answered.
    conn.get_time(0).unwrap();
    connect(&s).get_time(0).unwrap();
}

#[test]
fn deselecting_events_stops_delivery() {
    let s = server();
    let mut writer = connect(&s);
    let mut watcher = connect(&s);
    watcher
        .select_events(0, EventMask::NONE.with(EventKind::PropertyChange))
        .unwrap();
    watcher.sync().unwrap();
    let prop = writer.intern_atom("TOGGLE", false).unwrap();
    writer
        .change_property(0, PropertyMode::Replace, prop, ATOM_STRING, b"1")
        .unwrap();
    writer.sync().unwrap();
    // next_event blocks until the event's bytes arrive.
    let _ = watcher.next_event().unwrap();

    // Deselect: further changes are not delivered.
    watcher.select_events(0, EventMask::NONE).unwrap();
    watcher.sync().unwrap();
    writer
        .change_property(0, PropertyMode::Replace, prop, ATOM_STRING, b"2")
        .unwrap();
    writer.sync().unwrap();
    // The watcher's own sync orders any in-flight event ahead of the
    // reply, so after it an empty queue means the event was never sent.
    watcher.sync().unwrap();
    assert_eq!(watcher.pending().unwrap(), 0);
}

#[test]
fn events_carry_host_time() {
    // §5.2: "all device events contain both the audio device time of the
    // device and the clock time of the host of the server."
    let s = server();
    let mut watcher = connect(&s);
    let mut writer = connect(&s);
    watcher
        .select_events(0, EventMask::NONE.with(EventKind::PropertyChange))
        .unwrap();
    watcher.sync().unwrap();
    let prop = writer.intern_atom("TIMED", false).unwrap();
    writer
        .change_property(0, PropertyMode::Replace, prop, ATOM_STRING, b"x")
        .unwrap();
    writer.sync().unwrap();
    let ev = watcher.next_event().unwrap();
    // Host time is Unix milliseconds: sanity-band it (2020-01-01 ..).
    assert!(ev.host_time_ms > 1_577_836_800_000, "{}", ev.host_time_ms);
}
