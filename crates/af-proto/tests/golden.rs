//! The codec's oracle: `golden.txt` holds sample messages of every kind,
//! each encoded in both byte orders, with the `Debug` text of its decode
//! and of the decode of every proper prefix of its payload.  Every entry
//! must decode to the recorded text, cut anywhere, and re-encode to the
//! recorded bytes.  The file is data, written once from an earlier
//! codec; nothing here writes it.
//!
//! An entry is a message line, `<kind> <order> <hex>`, then `= <text>`
//! for the whole payload and `<k> <text>` for its first `k` bytes, `k`
//! from 0 up.  The payload is what follows the 4-byte request header,
//! the 8-byte message header, the setup reply's 4-byte length, or (for
//! `setup`) the whole message.

use af_proto::message::MessageHeader;
use af_proto::{ByteOrder, ConnSetup, Event, Opcode, Reply, Request, SetupReply};
use std::collections::BTreeSet;

const GOLDEN: &str = include_str!("golden.txt");

struct Entry {
    kind: String,
    order: ByteOrder,
    bytes: Vec<u8>,
    whole: String,
    prefixes: Vec<String>,
}

fn parse_hex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2), "odd hex length");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn entries() -> Vec<Entry> {
    let mut out: Vec<Entry> = Vec::new();
    for line in GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        if let Some(text) = line.strip_prefix("= ") {
            out.last_mut().expect("entry").whole = text.to_owned();
        } else if line.starts_with(|c: char| c.is_ascii_digit()) {
            let (k, text) = line.split_once(' ').expect("prefix line");
            let entry = out.last_mut().expect("entry");
            assert_eq!(k.parse::<usize>().unwrap(), entry.prefixes.len(), "{line}");
            entry.prefixes.push(text.to_owned());
        } else {
            let mut words = line.split(' ');
            let kind = words.next().unwrap().to_owned();
            let order = match words.next() {
                Some("little") => ByteOrder::Little,
                Some("big") => ByteOrder::Big,
                other => panic!("bad order {other:?} in {line}"),
            };
            let bytes = parse_hex(words.next().expect("hex"));
            out.push(Entry {
                kind,
                order,
                bytes,
                whole: String::new(),
                prefixes: Vec::new(),
            });
        }
    }
    out
}

/// Checks one entry: `decode` maps a payload prefix to its `Debug` text
/// and `encode` re-encodes the whole payload's decode.
fn check(
    entry: &Entry,
    payload: &[u8],
    decode: impl Fn(&[u8]) -> String,
    encode: impl Fn(&[u8]) -> Vec<u8>,
) {
    let what = format!("{} {:?} {:02x?}", entry.kind, entry.order, entry.bytes);
    assert_eq!(decode(payload), entry.whole, "{what}");
    assert_eq!(entry.prefixes.len(), payload.len(), "{what}: prefix count");
    for (k, want) in entry.prefixes.iter().enumerate() {
        assert_eq!(&decode(&payload[..k]), want, "{what}: prefix {k}");
    }
    assert_eq!(encode(payload), entry.bytes, "{what}: re-encoded");
}

#[test]
fn every_golden_message_decodes_and_re_encodes_as_recorded() {
    let (mut opcodes, mut tags, mut kinds) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for e in entries() {
        let order = e.order;
        kinds.insert((e.kind.clone(), format!("{order:?}")));
        match e.kind.as_str() {
            "request" => {
                let header: [u8; 4] = e.bytes[..4].try_into().unwrap();
                let (opcode, len) = Request::parse_header(order, &header).unwrap();
                assert_eq!(len, e.bytes.len() - 4);
                opcodes.insert((opcode.to_wire(), format!("{order:?}")));
                check(
                    &e,
                    &e.bytes[4..],
                    |p| format!("{:?}", Request::decode(order, opcode, p)),
                    |p| Request::decode(order, opcode, p).unwrap().encode(order),
                );
            }
            "reply" | "event" => {
                let header = MessageHeader::decode(order, &e.bytes[..8]).unwrap();
                assert_eq!(header.payload_len(), e.bytes.len() - 8);
                if e.kind == "reply" {
                    tags.insert((header.detail, format!("{order:?}")));
                    check(
                        &e,
                        &e.bytes[8..],
                        |p| format!("{:?}", Reply::decode(order, &header, p)),
                        |p| {
                            let reply = Reply::decode(order, &header, p).unwrap();
                            reply.encode(order, header.sequence)
                        },
                    );
                } else {
                    check(
                        &e,
                        &e.bytes[8..],
                        |p| format!("{:?}", Event::decode(order, &header, p)),
                        |p| {
                            let event = Event::decode(order, &header, p).unwrap();
                            event.encode(order, header.sequence)
                        },
                    );
                }
            }
            "setup" => check(
                &e,
                &e.bytes,
                |p| format!("{:?}", ConnSetup::decode(p)),
                |p| ConnSetup::decode(p).unwrap().encode(),
            ),
            "setup-reply" => check(
                &e,
                &e.bytes[4..],
                |p| format!("{:?}", SetupReply::decode(order, p)),
                |p| SetupReply::decode(order, p).unwrap().encode(order),
            ),
            other => panic!("unknown entry kind {other}"),
        }
    }
    // Every request and every reply kind, each in both orders.
    assert_eq!(opcodes.len(), 2 * Opcode::ALL.len());
    assert_eq!(tags.len(), 2 * 12);
    assert_eq!(kinds.len(), 2 * 5);
}
