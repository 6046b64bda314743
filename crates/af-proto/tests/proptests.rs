//! Property-based tests of the wire protocol: events and setup messages
//! round-trip in both byte orders for arbitrary field values, and the
//! decoders never panic on arbitrary bytes.  (Requests and replies
//! round-trip, and survive lying counts, in the table-generated unit
//! tests of `codec.rs`.)

use af_proto::message::MessageHeader;
use af_proto::{Atom, ByteOrder, Event, EventDetail, Opcode, PlayView, RecordView, Reply, Request};
use af_time::ATime;
use proptest::prelude::*;

fn order_strategy() -> impl Strategy<Value = ByteOrder> {
    prop_oneof![Just(ByteOrder::Little), Just(ByteOrder::Big)]
}

fn small_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_]{0,40}"
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let detail = prop_oneof![
        any::<bool>().prop_map(|r| EventDetail::Ring { ringing: r }),
        (any::<u8>(), any::<bool>()).prop_map(|(digit, down)| EventDetail::Dtmf { digit, down }),
        any::<bool>().prop_map(|c| EventDetail::Loop { current: c }),
        any::<bool>().prop_map(|h| EventDetail::Hook { off_hook: h }),
        (any::<u32>(), any::<bool>()).prop_map(|(a, e)| EventDetail::Property {
            atom: Atom(a),
            exists: e
        }),
    ];
    (any::<u8>(), any::<u32>(), any::<u64>(), detail).prop_map(
        |(device, t, host_time_ms, detail)| Event {
            device,
            device_time: ATime::new(t),
            host_time_ms,
            detail,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn events_round_trip(ev in event_strategy(), order in order_strategy(), seq in any::<u16>()) {
        let bytes = ev.encode(order, seq);
        prop_assert_eq!(bytes.len(), af_proto::event::EVENT_WIRE_SIZE);
        let header = MessageHeader::decode(order, &bytes[..8]).unwrap();
        let back = Event::decode(order, &header, &bytes[8..]).unwrap();
        prop_assert_eq!(back, ev);
    }

    /// Arbitrary payload bytes never panic the request decoder.
    #[test]
    fn decoder_never_panics(
        opcode_byte in 1u8..=37,
        payload in prop::collection::vec(any::<u8>(), 0..256),
        order in order_strategy(),
    ) {
        let opcode = Opcode::from_wire(opcode_byte).unwrap();
        let _ = Request::decode(order, opcode, &payload);
    }

    /// Arbitrary bytes never panic the reply/event decoders.
    #[test]
    fn message_decoders_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 8..128),
        order in order_strategy(),
    ) {
        if let Ok(header) = MessageHeader::decode(order, &bytes[..8]) {
            let _ = Reply::decode(order, &header, &bytes[8..]);
            let _ = Event::decode(order, &header, &bytes[8..]);
        }
    }

    /// Setup messages round-trip and arbitrary bytes never panic setup
    /// decoding.
    #[test]
    fn setup_round_trip(
        order in order_strategy(),
        name in small_string(),
        data in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let setup = af_proto::ConnSetup {
            byte_order: order,
            major: af_proto::PROTOCOL_MAJOR,
            minor: af_proto::PROTOCOL_MINOR,
            auth_name: name,
            auth_data: data,
        };
        let bytes = setup.encode().unwrap();
        prop_assert_eq!(af_proto::ConnSetup::decode(&bytes).unwrap(), setup);
    }

    #[test]
    fn setup_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = af_proto::ConnSetup::decode(&bytes);
        if bytes.len() >= 12 {
            let _ = af_proto::ConnSetup::tail_len(&bytes[..12]);
        }
    }
}

// ---- Borrowed views against the owned decoders. ----

const VIEW_CASES: u32 = if cfg!(miri) { 16 } else { 1024 };

/// A data-carrying payload as a peer might get it wrong: two leading
/// words, then a length word — the data's true length, or some other —
/// then the data and trailing bytes, cut short anywhere.  (`lead` is the
/// two words of a `Record` reply; a `PlaySamples` has a third before the
/// length.)
fn data_payload(lead_words: usize) -> impl Strategy<Value = (ByteOrder, Vec<u8>)> {
    (
        order_strategy(),
        prop::collection::vec(any::<u8>(), lead_words * 4),
        prop::collection::vec(any::<u8>(), 0..48),
        prop_oneof![
            Just(None),
            (0u32..64).prop_map(Some),
            any::<u32>().prop_map(Some)
        ],
        prop::collection::vec(any::<u8>(), 0..8),
        prop_oneof![Just(usize::MAX), 0usize..80],
    )
        .prop_map(|(order, lead, data, claimed, trailing, cut)| {
            let mut payload = lead;
            let nbytes = claimed.unwrap_or(data.len() as u32);
            payload.extend_from_slice(&order.u32_bytes(nbytes));
            payload.extend_from_slice(&data);
            payload.extend_from_slice(&trailing);
            payload.truncate(cut);
            (order, payload)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(VIEW_CASES))]

    /// The borrowed play view is `Request::decode`, minus the copy: the
    /// same fields, the same bytes, the same error, on any payload.
    #[test]
    fn play_view_agrees_with_request_decode(case in data_payload(3)) {
        let (order, payload) = case;
        let owned = Request::decode(order, Opcode::PlaySamples, &payload);
        match (PlayView::parse(order, &payload), owned) {
            (Ok(view), Ok(Request::PlaySamples { ac, start_time, flags, data })) => {
                prop_assert_eq!((view.ac, view.start_time, view.flags), (ac, start_time, flags));
                prop_assert_eq!(view.data, &data[..]);
            }
            (Err(view), Err(owned)) => prop_assert_eq!(view, owned),
            (view, owned) => prop_assert!(false, "view {view:?}, owned {owned:?}"),
        }
    }

    /// The borrowed record view is `Reply::decode`'s `Record` arm, minus
    /// the copy; any other reply tag it refuses.
    #[test]
    fn record_view_agrees_with_reply_decode(
        case in data_payload(1),
        tag in prop_oneof![Just(2u8), any::<u8>()],
        sequence in any::<u16>(),
    ) {
        let (order, payload) = case;
        let header = MessageHeader {
            kind: af_proto::message::MessageKind::Reply,
            detail: tag,
            sequence,
            extra_words: (payload.len() / 4) as u32,
        };
        let owned = Reply::decode(order, &header, &payload);
        match (RecordView::parse(order, &header, &payload), owned) {
            (Ok(view), Ok(Reply::Record { time, data })) => {
                prop_assert_eq!(view.time, time);
                prop_assert_eq!(view.data, &data[..]);
            }
            (Err(view), Err(owned)) if tag == 2 => prop_assert_eq!(view, owned),
            (Err(_), _) if tag != 2 => {}
            (view, owned) => prop_assert!(false, "view {view:?}, owned {owned:?}"),
        }
    }
}
