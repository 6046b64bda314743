//! The OS layer's shared pieces: frame headers, the outbound bound, and
//! the bookkeeping every connection shares.
//!
//! The paper's server multiplexed client sockets with `select()`; the
//! [`crate::reactor`] reproduces that with a small set of readiness-driven
//! shards over nonblocking sockets.  The shard that frames an event
//! (4-byte header, length-derived payload) hands it to the one
//! [`DispatchHandle`] and runs its handler there and then, under the
//! dispatch lock — single-threaded semantics over all server state with no
//! thread hop.  [`crate::reactor::OutboundTx`] is the one handle the
//! dispatcher holds on a connection: replies go through it — a nonblocking `write` on the socket
//! itself, made by whoever produced the reply, with a **bounded** deque
//! behind it for bytes the socket cannot take yet — and so does eviction.
//!
//! Failure model: a malformed or oversized frame header is a protocol
//! error that disconnects only the offending client; a client that stops
//! reading fills its bounded deque and is evicted instead of growing
//! server memory.  Faults are injected below the socket, by a proxy
//! between client and server (`af_chaos::FaultProxy`), so every
//! connection runs the one transport.
//!
//! TCP and Unix-domain sockets are supported, matching §5.1.

use crate::dispatch::DispatchHandle;
use crate::pool::BufferPool;
use af_proto::{ByteOrder, MAX_REQUEST_BYTES};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

/// Bound on the messages a connection may have waiting for its socket
/// (the one mid-write included).  A slow client hits this bound and is
/// evicted; the seed's unbounded queue grew without limit instead.
pub const OUTBOUND_QUEUE_CAPACITY: usize = 256;

/// Why [`crate::reactor::OutboundTx::try_send_buf`] did not take a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refused {
    /// [`OUTBOUND_QUEUE_CAPACITY`] messages are already waiting: the
    /// client is not keeping up.
    Full,
    /// The connection is closed, or closing once what it holds has left.
    Closed,
}

/// Why the framing layer rejected an inbound frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length field was zero — below the minimum one-word frame.
    ZeroLength,
    /// The frame claimed more payload than [`MAX_REQUEST_BYTES`].
    Oversized {
        /// The claimed payload size in bytes.
        bytes: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ZeroLength => write!(f, "zero-length frame header"),
            FrameError::Oversized { bytes } => {
                write!(f, "oversized frame: {bytes} bytes > {MAX_REQUEST_BYTES}")
            }
        }
    }
}

/// Decodes a 4-byte request frame header into `(opcode, payload_len)`.
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

/// Shared transport bookkeeping.
pub struct TransportShared {
    /// The way into the dispatcher: every framed event goes through it.
    pub dispatch: DispatchHandle,
    /// Client id allocator.
    pub next_id: AtomicU64,
    /// Set by `Reactor::shutdown`; a woken shard that finds it exits.
    pub stop: AtomicBool,
    /// Frame/reply buffer pool shared by the shards and the dispatcher.
    pub pool: Arc<BufferPool>,
}

impl TransportShared {
    /// Creates shared state submitting to `dispatch`, over the default
    /// buffer pool.
    pub fn new(dispatch: DispatchHandle) -> Arc<TransportShared> {
        Self::with_pool(dispatch, BufferPool::shared())
    }

    /// Creates shared state over an explicitly sized buffer pool — a
    /// server wants a deeper free list for partial-frame accumulation than
    /// the default.
    pub fn with_pool(dispatch: DispatchHandle, pool: Arc<BufferPool>) -> Arc<TransportShared> {
        Arc::new(TransportShared {
            dispatch,
            next_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            pool,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
