//! Byte-order-aware wire encoding primitives.

use crate::error::ProtoError;

/// The byte order a connection's multi-byte fields use.
///
/// Declared by the client in the first byte of connection setup, exactly as
/// in X11: `b'l'` for little-endian, `b'B'` for big-endian.  The server
/// byte-swaps requests from opposite-order clients (§7.3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByteOrder {
    /// Least significant byte first.
    Little,
    /// Most significant byte first.
    Big,
}

impl ByteOrder {
    /// The byte order of the machine we are running on.
    pub const fn native() -> ByteOrder {
        if cfg!(target_endian = "big") {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        }
    }

    /// The setup marker byte for this order.
    pub const fn marker(self) -> u8 {
        match self {
            ByteOrder::Little => b'l',
            ByteOrder::Big => b'B',
        }
    }

    /// Parses a setup marker byte.
    pub fn from_marker(b: u8) -> Result<ByteOrder, ProtoError> {
        match b {
            b'l' => Ok(ByteOrder::Little),
            b'B' => Ok(ByteOrder::Big),
            other => Err(ProtoError::BadByteOrderMarker(other)),
        }
    }

    /// A 16-bit value as it goes on the wire in this order.
    pub const fn u16_bytes(self, v: u16) -> [u8; 2] {
        match self {
            ByteOrder::Little => v.to_le_bytes(),
            ByteOrder::Big => v.to_be_bytes(),
        }
    }

    /// A 32-bit value as it goes on the wire in this order.
    pub const fn u32_bytes(self, v: u32) -> [u8; 4] {
        match self {
            ByteOrder::Little => v.to_le_bytes(),
            ByteOrder::Big => v.to_be_bytes(),
        }
    }
}

/// Rounds a byte length up to a whole number of 32-bit words.
pub const fn pad4(len: usize) -> usize {
    len.div_ceil(4) * 4
}

/// An append-only encoder with a fixed byte order.
#[derive(Debug)]
pub struct WireWriter {
    order: ByteOrder,
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new(order: ByteOrder) -> WireWriter {
        WireWriter {
            order,
            buf: Vec::new(),
        }
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(order: ByteOrder, cap: usize) -> WireWriter {
        WireWriter {
            order,
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates a writer that appends to an existing buffer.
    ///
    /// Lets a caller encode a message directly into a reused (pooled)
    /// buffer instead of allocating; reclaim the buffer with
    /// [`WireWriter::finish`].
    pub fn over(order: ByteOrder, buf: Vec<u8>) -> WireWriter {
        WireWriter { order, buf }
    }

    /// Overwrites `bytes.len()` already-written bytes starting at `at`.
    ///
    /// Used to patch a fixed-size header placeholder once the body length
    /// is known, so header and payload share one buffer and one write.
    ///
    /// # Panics
    ///
    /// Panics if the range `at..at + bytes.len()` has not been written yet.
    pub fn patch(&mut self, at: usize, bytes: &[u8]) -> &mut Self {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
        self
    }

    /// The byte order in use.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a signed byte.
    pub fn i8(&mut self, v: i8) -> &mut Self {
        self.u8(v as u8)
    }

    /// Appends a 16-bit value in the connection order.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&self.order.u16_bytes(v));
        self
    }

    /// Appends a signed 16-bit value.
    pub fn i16(&mut self, v: i16) -> &mut Self {
        self.u16(v as u16)
    }

    /// Appends a 32-bit value in the connection order.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&self.order.u32_bytes(v));
        self
    }

    /// Appends a signed 32-bit value.
    pub fn i32(&mut self, v: i32) -> &mut Self {
        self.u32(v as u32)
    }

    /// Appends a 64-bit value in the connection order.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let b = match self.order {
            ByteOrder::Little => v.to_le_bytes(),
            ByteOrder::Big => v.to_be_bytes(),
        };
        self.buf.extend_from_slice(&b);
        self
    }

    /// Appends raw bytes verbatim (sample data, strings).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends `n` zero bytes.
    pub fn pad(&mut self, n: usize) -> &mut Self {
        self.buf.resize(self.buf.len() + n, 0);
        self
    }

    /// Pads with zeros to the next 32-bit boundary.
    pub fn pad_to_word(&mut self) -> &mut Self {
        let target = pad4(self.buf.len());
        self.buf.resize(target, 0);
        self
    }

    /// A counted string: `u16` length, bytes, padding to a word boundary.
    ///
    /// # Panics
    ///
    /// Panics if `s` is longer than a `u16` counts.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.u16(u16::try_from(s.len()).expect("a string does not fit a u16 count"));
        self.bytes(s.as_bytes());
        self.pad_to_word()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A sequential decoder with a fixed byte order.
#[derive(Debug)]
pub struct WireReader<'a> {
    order: ByteOrder,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(order: ByteOrder, buf: &'a [u8]) -> WireReader<'a> {
        WireReader { order, buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated {
                wanted: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a signed byte.
    pub fn i8(&mut self) -> Result<i8, ProtoError> {
        Ok(self.u8()? as i8)
    }

    /// Reads a 16-bit value.
    pub fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(match self.order {
            ByteOrder::Little => u16::from_le_bytes([b[0], b[1]]),
            ByteOrder::Big => u16::from_be_bytes([b[0], b[1]]),
        })
    }

    /// Reads a signed 16-bit value.
    pub fn i16(&mut self) -> Result<i16, ProtoError> {
        Ok(self.u16()? as i16)
    }

    /// Reads a 32-bit value.
    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(match self.order {
            ByteOrder::Little => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            ByteOrder::Big => u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
        })
    }

    /// Reads a signed 32-bit value.
    pub fn i32(&mut self) -> Result<i32, ProtoError> {
        Ok(self.u32()? as i32)
    }

    /// Reads a 64-bit value.
    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(match self.order {
            ByteOrder::Little => u64::from_le_bytes(a),
            ByteOrder::Big => u64::from_be_bytes(a),
        })
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        self.take(n)
    }

    /// Skips `n` bytes of padding.
    pub fn skip(&mut self, n: usize) -> Result<(), ProtoError> {
        self.take(n).map(|_| ())
    }

    /// Skips to the next 32-bit boundary.
    pub fn skip_to_word(&mut self) -> Result<(), ProtoError> {
        let target = pad4(self.pos);
        self.skip(target - self.pos)
    }

    /// Reads a counted, padded string written by [`WireWriter::string`].
    pub fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?.to_vec();
        self.skip_to_word()?;
        String::from_utf8(bytes).map_err(|_| ProtoError::BadString)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_both_orders() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let mut w = WireWriter::new(order);
            w.u8(7)
                .u16(0xABCD)
                .u32(0xDEADBEEF)
                .i32(-12345)
                .u64(0x0123_4567_89AB_CDEF)
                .string("hello")
                .bytes(&[1, 2, 3])
                .pad_to_word();
            let buf = w.finish();
            assert_eq!(buf.len() % 4, 0);

            let mut r = WireReader::new(order, &buf);
            assert_eq!(r.u8().unwrap(), 7);
            assert_eq!(r.u16().unwrap(), 0xABCD);
            assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
            assert_eq!(r.i32().unwrap(), -12345);
            assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
            assert_eq!(r.string().unwrap(), "hello");
            assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        }
    }

    #[test]
    fn orders_differ_on_the_wire() {
        let mut le = WireWriter::new(ByteOrder::Little);
        le.u32(1);
        let mut be = WireWriter::new(ByteOrder::Big);
        be.u32(1);
        assert_eq!(le.finish(), vec![1, 0, 0, 0]);
        assert_eq!(be.finish(), vec![0, 0, 0, 1]);
    }

    #[test]
    fn truncated_read_is_error() {
        let buf = [1u8, 2];
        let mut r = WireReader::new(ByteOrder::Little, &buf);
        assert!(matches!(
            r.u32(),
            Err(ProtoError::Truncated {
                wanted: 4,
                available: 2
            })
        ));
    }

    #[test]
    fn marker_round_trip() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            assert_eq!(ByteOrder::from_marker(order.marker()).unwrap(), order);
        }
        assert!(ByteOrder::from_marker(b'x').is_err());
    }

    #[test]
    fn pad4_values() {
        assert_eq!(pad4(0), 0);
        assert_eq!(pad4(1), 4);
        assert_eq!(pad4(4), 4);
        assert_eq!(pad4(5), 8);
    }

    #[test]
    fn invalid_utf8_string_rejected() {
        let mut w = WireWriter::new(ByteOrder::Little);
        w.u16(2).bytes(&[0xFF, 0xFE]).pad_to_word();
        let buf = w.finish();
        let mut r = WireReader::new(ByteOrder::Little, &buf);
        assert!(matches!(r.string(), Err(ProtoError::BadString)));
    }
}
