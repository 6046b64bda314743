//! Reply encoding and decoding.
//!
//! Replies share the common [`crate::message::MessageHeader`]; the header's
//! `detail` byte carries a reply-kind tag so the stream is self-describing
//! (the client library still matches replies to requests by sequence
//! number).

use crate::atoms::Atom;
use crate::error::ProtoError;
use crate::message::{MessageHeader, MessageKind};
use crate::wire::{pad4, ByteOrder, WireReader, WireWriter};
use af_time::ATime;

/// A decoded reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Current device time (`GetTime`, and `PlaySamples` unless suppressed).
    Time {
        /// The device time when the request was processed.
        time: ATime,
    },
    /// Recorded data (`RecordSamples`).
    Record {
        /// The device time when the reply was generated.
        time: ATime,
        /// The recorded bytes; may be shorter than requested for
        /// non-blocking records.
        data: Vec<u8>,
    },
    /// Telephone line state (`QueryPhone`).
    Phone {
        /// Whether the interface is off-hook.
        off_hook: bool,
        /// Whether loop current is flowing (extension phone off-hook).
        loop_current: bool,
        /// Whether ring voltage is currently present.
        ringing: bool,
    },
    /// Gain range and setting (`QueryInputGain` / `QueryOutputGain`).
    Gain {
        /// Minimum settable gain in dB.
        min_db: i32,
        /// Maximum settable gain in dB.
        max_db: i32,
        /// Current gain in dB.
        current_db: i32,
    },
    /// The access list (`ListHosts`).
    Hosts {
        /// Whether access control is currently enforced.
        enabled: bool,
        /// Raw address bytes of each permitted host.
        hosts: Vec<Vec<u8>>,
    },
    /// An interned atom (`InternAtom`); [`Atom::NONE`] when
    /// `only_if_exists` found nothing.
    InternedAtom {
        /// The atom.
        atom: Atom,
    },
    /// An atom's name (`GetAtomName`).
    AtomName {
        /// The interned string.
        name: String,
    },
    /// A property value (`GetProperty`).
    Property {
        /// The property's type atom ([`Atom::NONE`] if absent).
        type_: Atom,
        /// The value bytes.
        data: Vec<u8>,
    },
    /// The property list (`ListProperties`).
    Properties {
        /// Name atoms of every property on the device.
        atoms: Vec<Atom>,
    },
    /// Round-trip completion (`SyncConnection`).
    Sync,
    /// Extension presence (`QueryExtension`; always absent today).
    Extension {
        /// Whether the extension exists.
        present: bool,
    },
    /// Extension list (`ListExtensions`; always empty today).
    Extensions {
        /// Extension names.
        names: Vec<String>,
    },
}

/// A `Record` reply's fields, its sample bytes still where they were
/// received: the borrowed form of [`Reply::Record`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// The device time when the reply was generated.
    pub time: ATime,
    /// The recorded bytes.
    pub data: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Parses, without copying it, a reply payload that `header` must mark
    /// as a `Record`.
    pub fn parse(
        order: ByteOrder,
        header: &MessageHeader,
        payload: &'a [u8],
    ) -> Result<RecordView<'a>, ProtoError> {
        if header.detail != tag::RECORD {
            return Err(ProtoError::BadEnum {
                field: "reply kind",
                value: u32::from(header.detail),
            });
        }
        let mut r = WireReader::new(order, payload);
        let time = ATime::new(r.u32()?);
        let len = r.u32()? as usize;
        if len > r.remaining() {
            return Err(ProtoError::BadLength(len));
        }
        Ok(RecordView {
            time,
            data: r.bytes(len)?,
        })
    }
}

/// Reply-kind tags carried in the message header's detail byte.
mod tag {
    pub const TIME: u8 = 1;
    pub const RECORD: u8 = 2;
    pub const PHONE: u8 = 3;
    pub const GAIN: u8 = 4;
    pub const HOSTS: u8 = 5;
    pub const INTERNED_ATOM: u8 = 6;
    pub const ATOM_NAME: u8 = 7;
    pub const PROPERTY: u8 = 8;
    pub const PROPERTIES: u8 = 9;
    pub const SYNC: u8 = 10;
    pub const EXTENSION: u8 = 11;
    pub const EXTENSIONS: u8 = 12;
}

impl Reply {
    fn tag(&self) -> u8 {
        match self {
            Reply::Time { .. } => tag::TIME,
            Reply::Record { .. } => tag::RECORD,
            Reply::Phone { .. } => tag::PHONE,
            Reply::Gain { .. } => tag::GAIN,
            Reply::Hosts { .. } => tag::HOSTS,
            Reply::InternedAtom { .. } => tag::INTERNED_ATOM,
            Reply::AtomName { .. } => tag::ATOM_NAME,
            Reply::Property { .. } => tag::PROPERTY,
            Reply::Properties { .. } => tag::PROPERTIES,
            Reply::Sync => tag::SYNC,
            Reply::Extension { .. } => tag::EXTENSION,
            Reply::Extensions { .. } => tag::EXTENSIONS,
        }
    }

    /// Encodes the reply as a complete framed message.
    pub fn encode(&self, order: ByteOrder, sequence: u16) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(order, sequence, &mut out);
        out
    }

    /// Encodes the reply as a complete framed message appended to `out`
    /// (cleared first).
    ///
    /// Header and payload are written into the same buffer — an 8-byte
    /// placeholder is patched once the body length is known — so a reply
    /// costs one buffer and one `write` on the transport, and `out` can come
    /// from a reuse pool.
    pub fn encode_into(&self, order: ByteOrder, sequence: u16, out: &mut Vec<u8>) {
        if let Reply::Record { time, data } = self {
            Self::open_record(out);
            out.extend_from_slice(data);
            return Self::close_record(order, sequence, *time, out);
        }
        out.clear();
        let mut body = WireWriter::over(order, std::mem::take(out));
        body.pad(MessageHeader::SIZE); // Header placeholder, patched below.
        match self {
            Reply::Time { time } => {
                body.u32(time.ticks());
            }
            Reply::Record { .. } => {} // Framed above, around its bytes.
            Reply::Phone {
                off_hook,
                loop_current,
                ringing,
            } => {
                body.u8(u8::from(*off_hook))
                    .u8(u8::from(*loop_current))
                    .u8(u8::from(*ringing))
                    .pad(1);
            }
            Reply::Gain {
                min_db,
                max_db,
                current_db,
            } => {
                body.i32(*min_db).i32(*max_db).i32(*current_db);
            }
            Reply::Hosts { enabled, hosts } => {
                body.u8(u8::from(*enabled)).pad(1).u16(hosts.len() as u16);
                for h in hosts {
                    body.u8(h.len() as u8);
                    body.bytes(h);
                }
                body.pad_to_word();
            }
            Reply::InternedAtom { atom } => {
                body.u32(atom.0);
            }
            Reply::AtomName { name } => {
                body.string(name);
            }
            Reply::Property { type_, data } => {
                body.u32(type_.0);
                body.u32(data.len() as u32);
                body.bytes(data);
            }
            Reply::Properties { atoms } => {
                body.u16(atoms.len() as u16).pad(2);
                for a in atoms {
                    body.u32(a.0);
                }
            }
            Reply::Sync => {}
            Reply::Extension { present } => {
                body.u8(u8::from(*present)).pad(3);
            }
            Reply::Extensions { names } => {
                body.u16(names.len() as u16).pad(2);
                for n in names {
                    body.string(n);
                }
            }
        }
        *out = body.finish();
        seal(order, sequence, self.tag(), out);
    }

    /// Where a `Record` reply's sample bytes start: after the message
    /// header, the time and the length.
    pub const RECORD_DATA_AT: usize = MessageHeader::SIZE + 8;

    /// Starts a framed `Record` reply in `out` (cleared first), leaving
    /// [`Reply::RECORD_DATA_AT`] bytes for what comes before the samples.
    /// The caller appends the sample bytes — reads, gains, converts them
    /// there — and then calls [`Reply::close_record`], so a record's bytes
    /// are written once, where the transport's `write` takes them.
    pub fn open_record(out: &mut Vec<u8>) {
        out.clear();
        out.resize(Self::RECORD_DATA_AT, 0);
    }

    /// Completes a reply begun with [`Reply::open_record`]: everything
    /// past [`Reply::RECORD_DATA_AT`] is the recorded data.
    pub fn close_record(order: ByteOrder, sequence: u16, time: ATime, out: &mut Vec<u8>) {
        let len = (out.len() - Self::RECORD_DATA_AT) as u32;
        out[MessageHeader::SIZE..][..4].copy_from_slice(&order.u32_bytes(time.ticks()));
        out[MessageHeader::SIZE + 4..][..4].copy_from_slice(&order.u32_bytes(len));
        seal(order, sequence, tag::RECORD, out);
    }

    /// Decodes a reply payload given its parsed header.
    pub fn decode(
        order: ByteOrder,
        header: &MessageHeader,
        payload: &[u8],
    ) -> Result<Reply, ProtoError> {
        let mut r = WireReader::new(order, payload);
        let reply = match header.detail {
            tag::TIME => Reply::Time {
                time: ATime::new(r.u32()?),
            },
            tag::RECORD => {
                let view = RecordView::parse(order, header, payload)?;
                Reply::Record {
                    time: view.time,
                    data: view.data.to_vec(),
                }
            }
            tag::PHONE => Reply::Phone {
                off_hook: r.u8()? != 0,
                loop_current: r.u8()? != 0,
                ringing: r.u8()? != 0,
            },
            tag::GAIN => Reply::Gain {
                min_db: r.i32()?,
                max_db: r.i32()?,
                current_db: r.i32()?,
            },
            tag::HOSTS => {
                let enabled = r.u8()? != 0;
                r.skip(1)?;
                let n = r.u16()? as usize;
                let mut hosts = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    let len = r.u8()? as usize;
                    hosts.push(r.bytes(len)?.to_vec());
                }
                Reply::Hosts { enabled, hosts }
            }
            tag::INTERNED_ATOM => Reply::InternedAtom {
                atom: Atom(r.u32()?),
            },
            tag::ATOM_NAME => Reply::AtomName { name: r.string()? },
            tag::PROPERTY => {
                let type_ = Atom(r.u32()?);
                let len = r.u32()? as usize;
                if len > r.remaining() {
                    return Err(ProtoError::BadLength(len));
                }
                Reply::Property {
                    type_,
                    data: r.bytes(len)?.to_vec(),
                }
            }
            tag::PROPERTIES => {
                let n = r.u16()? as usize;
                r.skip(2)?;
                let mut atoms = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    atoms.push(Atom(r.u32()?));
                }
                Reply::Properties { atoms }
            }
            tag::SYNC => Reply::Sync,
            tag::EXTENSION => Reply::Extension {
                present: r.u8()? != 0,
            },
            tag::EXTENSIONS => {
                let n = r.u16()? as usize;
                r.skip(2)?;
                let mut names = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    names.push(r.string()?);
                }
                Reply::Extensions { names }
            }
            other => {
                return Err(ProtoError::BadEnum {
                    field: "reply tag",
                    value: u32::from(other),
                })
            }
        };
        Ok(reply)
    }
}

/// Pads the message in `out` to a word and writes its header over the
/// placeholder at the front.
fn seal(order: ByteOrder, sequence: u16, tag: u8, out: &mut Vec<u8>) {
    out.resize(pad4(out.len()), 0);
    let header = MessageHeader {
        kind: MessageKind::Reply,
        detail: tag,
        sequence,
        extra_words: ((out.len() - MessageHeader::SIZE) / 4) as u32,
    };
    // (Spelled as a path so that af-analyze's textual call graph binds it
    // to the header's `encode`, not to `Reply::encode` next door.)
    out[..MessageHeader::SIZE].copy_from_slice(&MessageHeader::encode(&header, order));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Reply> {
        vec![
            Reply::Time {
                time: ATime::new(999),
            },
            Reply::Record {
                time: ATime::new(1234),
                data: vec![9, 8, 7],
            },
            Reply::Phone {
                off_hook: true,
                loop_current: false,
                ringing: true,
            },
            Reply::Gain {
                min_db: -30,
                max_db: 30,
                current_db: -6,
            },
            Reply::Hosts {
                enabled: true,
                hosts: vec![vec![127, 0, 0, 1], vec![10, 0, 0, 7]],
            },
            Reply::InternedAtom { atom: Atom(21) },
            Reply::AtomName {
                name: "STRING".into(),
            },
            Reply::Property {
                type_: Atom(4),
                data: b"16175551212".to_vec(),
            },
            Reply::Properties {
                atoms: vec![Atom(20), Atom(21), Atom(22)],
            },
            Reply::Sync,
            Reply::Extension { present: false },
            Reply::Extensions {
                names: vec!["A".into(), "LONGER-NAME".into()],
            },
        ]
    }

    #[test]
    fn replies_round_trip_both_orders() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            for reply in samples() {
                let bytes = reply.encode(order, 5);
                assert_eq!(bytes.len() % 4, 0);
                let header = MessageHeader::decode(order, &bytes[..8]).unwrap();
                assert_eq!(header.kind, MessageKind::Reply);
                assert_eq!(header.sequence, 5);
                assert_eq!(header.payload_len(), bytes.len() - 8);
                let back = Reply::decode(order, &header, &bytes[8..]).unwrap();
                assert_eq!(back, reply, "round trip failed for {reply:?}");
            }
        }
    }

    #[test]
    fn record_reply_length_validated() {
        let reply = Reply::Record {
            time: ATime::ZERO,
            data: vec![0; 8],
        };
        let mut bytes = reply.encode(ByteOrder::Little, 0);
        bytes[12] = 0xFF; // Corrupt data length.
        let header = MessageHeader::decode(ByteOrder::Little, &bytes[..8]).unwrap();
        assert!(Reply::decode(ByteOrder::Little, &header, &bytes[8..]).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let header = MessageHeader {
            kind: MessageKind::Reply,
            detail: 200,
            sequence: 0,
            extra_words: 0,
        };
        assert!(Reply::decode(ByteOrder::Little, &header, &[]).is_err());
    }
}
