//! Server-to-client message framing.
//!
//! Everything a server sends shares one 8-byte header so the client library
//! can demultiplex the reply/event stream (§6.1): errors, replies, and
//! events.  Events additionally have a fixed total size of 32 bytes, as in X
//! (§5.2).

use crate::error::{ErrorCode, ProtoError, WireError};
use crate::wire::{ByteOrder, WireReader, WireWriter};

/// Discriminates the three server-to-client message classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageKind {
    /// A request failed.
    Error = 0,
    /// A reply to a round-trip request.
    Reply = 1,
    /// An asynchronous event.
    Event = 2,
}

impl MessageKind {
    /// Decodes the wire byte.
    pub fn from_wire(v: u8) -> Result<MessageKind, ProtoError> {
        match v {
            0 => Ok(MessageKind::Error),
            1 => Ok(MessageKind::Reply),
            2 => Ok(MessageKind::Event),
            other => Err(ProtoError::BadEnum {
                field: "message kind",
                value: u32::from(other),
            }),
        }
    }
}

/// The common 8-byte header of every server-to-client message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageHeader {
    /// Message class.
    pub kind: MessageKind,
    /// Class-specific detail: the error code, the event kind, or 0.
    pub detail: u8,
    /// Low 16 bits of the sequence number of the last request processed on
    /// this connection when the message was generated.
    pub sequence: u16,
    /// Payload length beyond this header, in 32-bit words.
    pub extra_words: u32,
}

impl MessageHeader {
    /// Encoded header size in bytes.
    pub const SIZE: usize = 8;

    /// Encodes the header.
    pub fn encode(&self, order: ByteOrder) -> [u8; 8] {
        let [s0, s1] = order.u16_bytes(self.sequence);
        let [w0, w1, w2, w3] = order.u32_bytes(self.extra_words);
        [self.kind as u8, self.detail, s0, s1, w0, w1, w2, w3]
    }

    /// Decodes a header from exactly 8 bytes.
    pub fn decode(order: ByteOrder, bytes: &[u8]) -> Result<MessageHeader, ProtoError> {
        let mut r = WireReader::new(order, bytes);
        let kind = MessageKind::from_wire(r.u8()?)?;
        let detail = r.u8()?;
        let sequence = r.u16()?;
        let extra_words = r.u32()?;
        Ok(MessageHeader {
            kind,
            detail,
            sequence,
            extra_words,
        })
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.extra_words as usize * 4
    }
}

/// Encodes a complete error message (header + fixed 8-byte payload).
pub fn encode_error(order: ByteOrder, err: &WireError) -> Vec<u8> {
    let header = MessageHeader {
        kind: MessageKind::Error,
        detail: err.code.to_wire(),
        sequence: err.sequence,
        extra_words: 2,
    };
    let mut w = WireWriter::with_capacity(order, 16);
    w.bytes(&header.encode(order));
    w.u32(err.bad_value).u8(err.opcode).pad(3);
    w.finish()
}

/// Decodes an error payload given its already-parsed header.
pub fn decode_error(
    order: ByteOrder,
    header: &MessageHeader,
    payload: &[u8],
) -> Result<WireError, ProtoError> {
    let code = ErrorCode::from_wire(header.detail).ok_or(ProtoError::BadEnum {
        field: "error code",
        value: u32::from(header.detail),
    })?;
    let mut r = WireReader::new(order, payload);
    let bad_value = r.u32()?;
    let opcode = r.u8()?;
    Ok(WireError {
        code,
        sequence: header.sequence,
        bad_value,
        opcode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let h = MessageHeader {
                kind: MessageKind::Reply,
                detail: 3,
                sequence: 0xBEEF,
                extra_words: 17,
            };
            let bytes = h.encode(order);
            assert_eq!(MessageHeader::decode(order, &bytes).unwrap(), h);
        }
    }

    #[test]
    fn error_round_trip() {
        let err = WireError {
            code: ErrorCode::BadDevice,
            sequence: 42,
            bad_value: 9,
            opcode: 7,
        };
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let bytes = encode_error(order, &err);
            assert_eq!(bytes.len(), 16);
            let header = MessageHeader::decode(order, &bytes[..8]).unwrap();
            assert_eq!(header.kind, MessageKind::Error);
            assert_eq!(header.payload_len(), 8);
            let back = decode_error(order, &header, &bytes[8..]).unwrap();
            assert_eq!(back, err);
        }
    }

    #[test]
    fn bad_kind_rejected() {
        assert!(MessageKind::from_wire(9).is_err());
        let bytes = [9u8, 0, 0, 0, 0, 0, 0, 0];
        assert!(MessageHeader::decode(ByteOrder::Little, &bytes).is_err());
    }
}
