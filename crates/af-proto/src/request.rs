//! Request encoding and decoding — all 37 protocol requests.
//!
//! Every request starts with a four-byte header: a length field (16 bits,
//! expressed in 32-bit quantities and including the header), an opcode byte
//! and an opcode-extension byte (unused, reserved).  Data is padded to a
//! 32-bit boundary (§5.3).

use crate::ac::{AcAttributes, AcId, AcMask};
use crate::atoms::Atom;
use crate::codec::{messages, wire_ticks, Bytes};
use crate::error::{FrameError, ProtoError};
use crate::event::EventMask;
use crate::opcode::Opcode;
use crate::wire::{pad4, ByteOrder, WireReader, WireWriter};
use crate::{DeviceId, MAX_REQUEST_BYTES};
use af_time::ATime;

/// Flag bits carried by `PlaySamples`.
pub mod play_flags {
    /// Suppress the usual time reply (§5.7): the client library sets this on
    /// all but the final chunk of a contiguous play series.
    pub const SUPPRESS_REPLY: u8 = 1 << 0;
    /// Sample data is big-endian (§7.3.1).
    pub const BIG_ENDIAN_DATA: u8 = 1 << 1;
    /// Preempt (overwrite) instead of mixing, overriding the AC for this
    /// request only.
    pub const PREEMPT: u8 = 1 << 2;
}

/// Flag bits carried by `RecordSamples`.
pub mod record_flags {
    /// Block until all requested data is available (`ABlock`); when clear,
    /// return whatever is immediately available (`ANoBlock`).
    pub const BLOCK: u8 = 1 << 0;
    /// Return sample data big-endian.
    pub const BIG_ENDIAN_DATA: u8 = 1 << 1;
}

/// How `ChangeProperty` combines new data with existing data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PropertyMode {
    /// Discard any previous value.
    Replace = 0,
    /// Insert before the existing data.
    Prepend = 1,
    /// Insert after the existing data.
    Append = 2,
}

macro_rules! define_request {
    ($(($name:ident, $wire:literal, $reply:ident, $doc:literal $(, $($fields:tt)*)?)),* $(,)?) => {
        messages! {
            /// A decoded protocol request, generated from
            /// [`crate::with_request_table`].
            #[derive(Clone, Debug, PartialEq)]
            Request, ProtoError::BadOpcode;
            $(($name, $wire, $doc $(, $($fields)*)?)),*
        }

        impl Request {
            /// The opcode of this request.
            pub fn opcode(&self) -> Opcode {
                match self {
                    $(Request::$name { .. } => Opcode::$name,)*
                }
            }
        }
    };
}

crate::with_request_table!(define_request);

impl Request {
    /// Encodes the request as a complete framed message (header included).
    ///
    /// # Panics
    ///
    /// Panics if the encoded request would exceed [`MAX_REQUEST_BYTES`],
    /// or if a counted field does not fit its count: an address longer
    /// than 255 bytes, or a string or list longer than 65,535.  Client
    /// libraries chunk data requests well below the limit.
    pub fn encode(&self, order: ByteOrder) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len(order));
        self.frame_into(order, &mut buf);
        buf
    }

    /// Appends the request as a complete framed message to `out` — the
    /// mirror of [`crate::Reply::encode_into`], except that `out` is not
    /// cleared: a client batches requests into one buffer and one `write`.
    ///
    /// # Panics
    ///
    /// As [`Request::encode`]; also if `out` does not hold a whole number
    /// of 32-bit words (whole frames always do).
    pub fn encode_into(&self, order: ByteOrder, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len(order));
        self.frame_into(order, out);
    }

    /// The [`PLAY_HEADER_BYTES`] that open a framed `PlaySamples` carrying
    /// `nbytes` of samples.  Followed by the samples and zeros to the next
    /// word boundary they are byte-identical to the owned
    /// [`Request::PlaySamples`], so a client can send the samples from
    /// where they lie.
    ///
    /// # Panics
    ///
    /// As [`Request::encode`].
    pub fn encode_play_header(
        order: ByteOrder,
        ac: AcId,
        start_time: ATime,
        flags: u8,
        nbytes: usize,
    ) -> [u8; PLAY_HEADER_BYTES] {
        let total = pad4(PLAY_HEADER_BYTES + nbytes);
        assert!(total <= MAX_REQUEST_BYTES, "request too long: {total}");
        let mut h = [0u8; PLAY_HEADER_BYTES];
        h[..2].copy_from_slice(&order.u16_bytes((total / 4) as u16));
        h[2] = Opcode::PlaySamples.to_wire();
        h[4..8].copy_from_slice(&order.u32_bytes(ac));
        h[8..12].copy_from_slice(&order.u32_bytes(wire_ticks(start_time)));
        h[12] = flags;
        h[16..].copy_from_slice(&order.u32_bytes(nbytes as u32));
        h
    }

    /// Header placeholder, payload, padding, then the length patched in.
    /// Callers make room first, so a fresh buffer is allocated once.
    fn frame_into(&self, order: ByteOrder, out: &mut Vec<u8>) {
        let start = out.len();
        // The writer pads strings and frames to absolute word boundaries.
        assert!(
            start.is_multiple_of(4),
            "request appended at unaligned offset {start}"
        );
        let mut w = WireWriter::over(order, std::mem::take(out));
        w.u16(0).u8(self.wire()).u8(0);
        self.walk(&mut w);
        w.pad_to_word();
        let total = w.len() - start;
        assert!(total <= MAX_REQUEST_BYTES, "request too long: {total}");
        w.patch(start, &order.u16_bytes((total / 4) as u16));
        *out = w.finish();
    }

    /// Decodes a request payload (the bytes following the 4-byte header).
    pub fn decode(order: ByteOrder, opcode: Opcode, payload: &[u8]) -> Result<Request, ProtoError> {
        Request::read(opcode.to_wire(), WireReader::new(order, payload))
    }

    /// Parses a request frame header, returning `(opcode, payload_len)`.
    ///
    /// `payload_len` is the number of bytes following the 4-byte header.
    pub fn parse_header(order: ByteOrder, header: &[u8; 4]) -> Result<(Opcode, usize), ProtoError> {
        let (opcode, payload_len) = decode_frame_header(order, *header).map_err(|e| match e {
            FrameError::ZeroLength => ProtoError::BadLength(0),
            FrameError::Oversized { bytes } => ProtoError::BadLength(bytes),
        })?;
        Ok((Opcode::from_wire(opcode)?, payload_len))
    }

    /// Total padded frame size of this request when encoded, the same in
    /// either byte order: computed from the field kinds, not by encoding.
    pub fn encoded_len(&self, _order: ByteOrder) -> usize {
        let mut len = 4;
        self.walk(&mut len);
        pad4(len)
    }
}

/// Decodes a 4-byte request frame header into `(opcode, payload_len)`,
/// the opcode byte as received.
///
/// The header is `[len_lo, len_hi, opcode, pad]` with the length counted
/// in 4-byte words including the header itself.  Garbage prefixes decode
/// to out-of-range lengths and are rejected rather than trusted — an
/// attacker-controlled or corrupted length must never size an allocation.
pub fn decode_frame_header(order: ByteOrder, header: [u8; 4]) -> Result<(u8, usize), FrameError> {
    let words = match order {
        ByteOrder::Little => u16::from_le_bytes([header[0], header[1]]),
        ByteOrder::Big => u16::from_be_bytes([header[0], header[1]]),
    } as usize;
    if words == 0 {
        return Err(FrameError::ZeroLength);
    }
    let payload_len = words * 4 - 4;
    if payload_len > MAX_REQUEST_BYTES {
        return Err(FrameError::Oversized { bytes: payload_len });
    }
    Ok((header[2], payload_len))
}

/// A `PlaySamples` request's fields, its sample bytes still where they
/// were received: the borrowed form of [`Request::PlaySamples`], for a
/// server that only reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlayView<'a> {
    /// The audio context.
    pub ac: AcId,
    /// Device time of the first sample.
    pub start_time: ATime,
    /// [`play_flags`] bits.
    pub flags: u8,
    /// The sample bytes.
    pub data: &'a [u8],
}

impl<'a> PlayView<'a> {
    /// Parses a `PlaySamples` payload (the bytes following the 4-byte
    /// header) without copying it.
    pub fn parse(order: ByteOrder, payload: &'a [u8]) -> Result<PlayView<'a>, ProtoError> {
        let mut r = WireReader::new(order, payload);
        let ac = r.u32()?;
        let start_time = ATime::new(r.u32()?);
        let flags = r.u8()?;
        r.skip(3)?;
        let nbytes = r.u32()? as usize;
        if nbytes > r.remaining() {
            return Err(ProtoError::BadLength(nbytes));
        }
        Ok(PlayView {
            ac,
            start_time,
            flags,
            data: r.bytes(nbytes)?,
        })
    }
}

/// Bytes of a framed `PlaySamples` before its samples: the 4-byte header
/// and four words of fields ([`Request::encode_play_header`]).
pub const PLAY_HEADER_BYTES: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Request> {
        crate::codec::tests::samples(Request::generators())
    }

    #[test]
    fn encode_into_appends_the_same_frames_both_orders() {
        // A batch appended into one buffer is the concatenation of the
        // stand-alone encodings; a play header, the borrowed samples and
        // their padding match the owned request byte for byte.
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let (mut batch, mut want) = (Vec::new(), Vec::new());
            for req in samples() {
                let before = batch.len();
                req.encode_into(order, &mut batch);
                assert_eq!(batch.len() - before, req.encoded_len(order), "{req:?}");
                want.extend_from_slice(&req.encode(order));
                if let Request::PlaySamples {
                    ac,
                    start_time,
                    flags,
                    data,
                } = &req
                {
                    let header =
                        Request::encode_play_header(order, *ac, *start_time, *flags, data.len());
                    batch.extend_from_slice(&header);
                    batch.extend_from_slice(data);
                    batch.resize(pad4(batch.len()), 0);
                    want.extend_from_slice(&req.encode(order));
                }
            }
            assert_eq!(batch, want);
            // Every frame in the batch still parses and round-trips.
            let mut rest = &batch[..];
            let mut decoded = 0;
            while !rest.is_empty() {
                let header: [u8; 4] = rest[..4].try_into().unwrap();
                let (opcode, len) = Request::parse_header(order, &header).unwrap();
                Request::decode(order, opcode, &rest[4..4 + len]).unwrap();
                rest = &rest[4 + len..];
                decoded += 1;
            }
            assert_eq!(decoded, samples().len() + 1);
        }
    }

    #[test]
    fn play_header_samples_and_padding_are_the_owned_frame() {
        // Every padding length, the largest chunk the library sends and a
        // chunk one byte short of it, in both orders.
        for order in [ByteOrder::Little, ByteOrder::Big] {
            for nbytes in [0, 1, 2, 3, 4, 5, 8191, crate::CHUNK_BYTES] {
                let data: Vec<u8> = (0..nbytes).map(|i| (i * 7 + 1) as u8).collect();
                let (ac, start, flags) = (0x0102_0304, ATime::new(0xA0B0_C0D0), 0x85);
                let mut sent =
                    Request::encode_play_header(order, ac, start, flags, nbytes).to_vec();
                sent.extend_from_slice(&data);
                sent.resize(pad4(sent.len()), 0);
                let owned = Request::PlaySamples {
                    ac,
                    start_time: start,
                    flags,
                    data,
                };
                assert_eq!(sent, owned.encode(order), "{nbytes} bytes, {order:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn encode_into_refuses_a_buffer_that_is_not_whole_words() {
        Request::NoOperation.encode_into(ByteOrder::Little, &mut vec![0u8; 3]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn an_address_too_long_for_its_u8_count_panics() {
        let address = vec![10; 300];
        Request::ChangeHosts {
            insert: true,
            address,
        }
        .encode(ByteOrder::Little);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_name_too_long_for_its_u16_count_panics() {
        let name = "A".repeat(70_000);
        Request::InternAtom {
            only_if_exists: false,
            name,
        }
        .encode(ByteOrder::Little);
    }

    #[test]
    fn noop_is_minimal() {
        // The shortest possible request is four bytes (§5.3).
        assert_eq!(Request::NoOperation.encode(ByteOrder::Little).len(), 4);
    }

    #[test]
    fn play_data_length_validated() {
        // A PlaySamples whose nbytes exceeds the actual payload is rejected.
        let req = Request::PlaySamples {
            ac: 1,
            start_time: ATime::ZERO,
            flags: 0,
            data: vec![0u8; 16],
        };
        let mut bytes = req.encode(ByteOrder::Little);
        // Corrupt the nbytes field (at offset 4 + 4 + 4 + 1 + 3 = 16).
        bytes[16] = 0xFF;
        bytes[17] = 0xFF;
        let header: [u8; 4] = bytes[..4].try_into().unwrap();
        let (opcode, _) = Request::parse_header(ByteOrder::Little, &header).unwrap();
        assert!(Request::decode(ByteOrder::Little, opcode, &bytes[4..]).is_err());
    }

    #[test]
    fn decode_frame_header_bounds_every_possible_prefix() {
        // Zero length in both byte orders.
        assert_eq!(
            decode_frame_header(ByteOrder::Little, [0, 0, 7, 0]),
            Err(FrameError::ZeroLength)
        );
        assert_eq!(
            decode_frame_header(ByteOrder::Big, [0, 0, 7, 0]),
            Err(FrameError::ZeroLength)
        );
        // Minimum valid frame: one word, no payload — opcode preserved.
        assert_eq!(
            decode_frame_header(ByteOrder::Little, [1, 0, 42, 0]),
            Ok((42, 0))
        );
        assert_eq!(
            decode_frame_header(ByteOrder::Big, [0, 1, 42, 0]),
            Ok((42, 0))
        );
        // The allocation-safety property: over the ENTIRE header space, a
        // garbage prefix either errors or yields a payload length at most
        // MAX_REQUEST_BYTES — the length field never sizes an unbounded
        // allocation.  (The u16 length field tops out at 262,136 bytes,
        // just under the limit, so today Oversized guards against the
        // limit shrinking or the field widening.)
        for hi in 0..=255u8 {
            for lo in [0u8, 1, 2, 0x7f, 0x80, 0xfe, 0xff] {
                for order in [ByteOrder::Little, ByteOrder::Big] {
                    match decode_frame_header(order, [lo, hi, 0xAB, 0xCD]) {
                        Ok((op, len)) => {
                            assert_eq!(op, 0xAB);
                            assert!(len <= MAX_REQUEST_BYTES);
                        }
                        Err(FrameError::ZeroLength) => {}
                        Err(FrameError::Oversized { bytes }) => {
                            assert!(bytes > MAX_REQUEST_BYTES);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_length_header_rejected() {
        let header = [0u8, 0, 33, 0];
        assert!(Request::parse_header(ByteOrder::Little, &header).is_err());
    }

    #[test]
    fn cross_order_decode_differs() {
        // Decoding with the wrong byte order must not silently succeed with
        // the same values for multi-byte fields.
        let req = Request::FreeAc { id: 0x0102_0304 };
        let bytes = req.encode(ByteOrder::Little);
        let wrong = Request::decode(ByteOrder::Big, Opcode::FreeAc, &bytes[4..]).unwrap();
        assert_eq!(wrong, Request::FreeAc { id: 0x0403_0201 });
    }
}
