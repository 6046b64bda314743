//! Reply encoding and decoding.
//!
//! Replies share the common [`crate::message::MessageHeader`]; the header's
//! `detail` byte carries a reply-kind tag so the stream is self-describing
//! (the client library still matches replies to requests by sequence
//! number).

use crate::atoms::Atom;
use crate::codec::{messages, Bytes, List};
use crate::error::ProtoError;
use crate::message::{MessageHeader, MessageKind};
use crate::wire::{pad4, ByteOrder, WireReader, WireWriter};
use af_time::ATime;

macro_rules! define_reply {
    ($($row:tt),* $(,)?) => {
        messages! {
            /// A decoded reply, generated from the reply table in
            /// `spec.rs`; its tag, the header's detail byte, is `wire()`.
            #[derive(Clone, Debug, PartialEq, Eq)]
            Reply, bad_tag;
            $($row),*
        }
    };
}

crate::spec::with_reply_table!(define_reply);

fn bad_tag(tag: u8) -> ProtoError {
    ProtoError::BadEnum {
        field: "reply tag",
        value: u32::from(tag),
    }
}

/// The `Record` row's tag, for the in-place writers and the view (a unit
/// test holds it to the table).
const RECORD_TAG: u8 = 2;

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
        if header.detail != RECORD_TAG {
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

impl Reply {
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
        out.clear();
        let mut body = WireWriter::over(order, std::mem::take(out));
        body.pad(MessageHeader::SIZE); // Header placeholder, patched below.
        self.walk(&mut body);
        *out = body.finish();
        seal(order, sequence, self.wire(), out);
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
        seal(order, sequence, RECORD_TAG, out);
    }

    /// Decodes a reply payload given its parsed header.
    pub fn decode(
        order: ByteOrder,
        header: &MessageHeader,
        payload: &[u8],
    ) -> Result<Reply, ProtoError> {
        Reply::read(header.detail, WireReader::new(order, payload))
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

    #[test]
    fn record_tag_is_the_record_rows() {
        let record = Reply::Record {
            time: ATime::ZERO,
            data: vec![],
        };
        assert_eq!(record.wire(), RECORD_TAG);
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
