//! Encode-once broadcast fan-out (ROADMAP item 1, DESIGN.md §13).
//!
//! One device's post-mix speaker bus is tapped inside the update task and
//! encoded **once** per chunk into a refcounted, sequence-numbered ring of
//! pre-rendered wire bytes.  Every listener connection holds only a cursor
//! (the next sequence number it wants) into that shared ring; the reactor
//! writes the `Arc`-shared bytes straight to each socket, so serving
//! N listeners costs O(1) encode work per chunk plus N vectored writes —
//! no per-listener copies and, in the steady state, no per-chunk
//! allocation (retired chunk buffers recycle through a freelist).
//!
//! Slow listeners are handled by cursor lag: a cursor that falls off the
//! ring tail skips ahead to the live edge (minus a burst-in preroll); a
//! listener whose socket accepts nothing across many consecutive chunk
//! publishes is evicted with the same accounting the slow-client eviction
//! machinery uses.  The dispatcher is never involved: §7.3.1's
//! single-threaded control semantics are untouched because the bus tap
//! runs inside the existing update task and listeners are read-only
//! observers of bytes the hardware was already given.

use crate::stats::{lag_bucket, Bus, BusCounters};
use af_dsp::kernels::cycles;
use std::collections::VecDeque;
use std::sync::Arc;

/// Frames per broadcast chunk (100 ms at the 8 kHz CODEC rate).
pub const BROADCAST_CHUNK_FRAMES: u32 = 800;
/// Ring capacity in chunks (≈ 6.4 s of audio at the default chunk size).
pub const BROADCAST_RING_CHUNKS: usize = 64;
/// Late joiners start this many chunks behind the live edge (burst-in).
pub const BROADCAST_PREROLL_CHUNKS: u64 = 2;
/// Consecutive no-progress chunk publishes before a stalled listener is
/// evicted (≈ 6.4 s at the default chunk rate).
pub const BROADCAST_STALL_STRIKES: u32 = 64;

/// HTTP response head for a chunked-transfer listener.  `audio/basic` is
/// the registered type for 8 kHz µ-law, so the device's native bytes
/// stream codec-free.
pub const HTTP_STREAM_HEADER: &[u8] = b"HTTP/1.1 200 OK\r\n\
Content-Type: audio/basic\r\n\
Cache-Control: no-cache\r\n\
Transfer-Encoding: chunked\r\n\
Connection: close\r\n\r\n";

/// Response head for an ICY (SHOUTcast-style) listener.  `icy-metaint` is
/// deliberately absent, so no metadata blocks are interleaved and the body
/// is the raw payload bytes.
pub const ICY_STREAM_HEADER: &[u8] = b"ICY 200 OK\r\n\
icy-name:AudioFile speaker bus\r\n\
icy-pub:0\r\n\
Content-Type: audio/basic\r\n\r\n";

/// Tuning knobs for one [`BroadcastBus`].
#[derive(Clone, Debug)]
pub struct BroadcastConfig {
    /// Frames accumulated per sealed chunk.
    pub chunk_frames: u32,
    /// Ring capacity in chunks.
    pub ring_chunks: usize,
    /// Burst-in preroll for late joiners, in chunks.
    pub preroll_chunks: u64,
    /// No-progress publishes tolerated before eviction.
    pub stall_strikes: u32,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        BroadcastConfig {
            chunk_frames: BROADCAST_CHUNK_FRAMES,
            ring_chunks: BROADCAST_RING_CHUNKS,
            preroll_chunks: BROADCAST_PREROLL_CHUNKS,
            stall_strikes: BROADCAST_STALL_STRIKES,
        }
    }
}

/// One sealed chunk: pre-rendered wire bytes shared by every listener.
///
/// `wire` is the HTTP chunked-transfer framing (`hex-size CRLF payload
/// CRLF`); ICY listeners write only the payload range of the same bytes.
/// Either way the bytes are rendered exactly once, when the chunk is
/// sealed.
pub struct BroadcastChunk {
    seq: u64,
    wire: Vec<u8>,
    payload: (usize, usize),
}

impl BroadcastChunk {
    /// The chunk's sequence number (monotonic from 0).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The full chunked-transfer framing, ready for the socket.
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// The raw audio payload inside [`BroadcastChunk::wire`].
    pub fn payload(&self) -> &[u8] {
        &self.wire[self.payload.0..self.payload.1]
    }

    /// Byte range of the payload within the wire framing.
    pub fn payload_range(&self) -> (usize, usize) {
        self.payload
    }
}

/// What a cursor got back from [`BroadcastBus::fetch_batch`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FetchInfo {
    /// The cursor after consuming everything fetched.
    pub next_cursor: u64,
    /// Chunks jumped over because the cursor fell off the ring tail.
    pub skipped: u64,
    /// Chunks the (pre-skip) cursor was behind the live edge.
    pub lag: u64,
}

/// The one-to-many chunk bus: the speaker bus's bytes go in through
/// [`BroadcastBus::tap`] and [`BroadcastBus::tap_silence`], sealed chunks
/// come out through the reactor listeners' cursors.  Plain owned state:
/// its device's buffers hold it, and the reactor thread reaches it through
/// them.
pub struct BroadcastBus {
    cfg: BroadcastConfig,
    frame_bytes: usize,
    /// The device's silence byte.
    fill: u8,
    /// Bus bytes not yet sealed: less than one chunk.
    staging: Vec<u8>,
    /// The ring of sealed chunks, oldest first.  `Arc`, not `Rc`, only so
    /// that the bus can be built with its device's buffers, on the thread
    /// that builds the server, and move with them to the reactor thread;
    /// no other thread holds a chunk.
    chunks: VecDeque<Arc<BroadcastChunk>>,
    next_seq: u64,
    /// Retired chunks no listener holds, recycled whole (the `Arc` and its
    /// wire buffer) so the steady state seals without allocating.
    free: Vec<Arc<BroadcastChunk>>,
    stats: Arc<BusCounters>,
}

impl BroadcastBus {
    /// A bus sealing chunks of `cfg.chunk_frames * frame_bytes` payload
    /// bytes, with fresh counters; `fill` is the device's silence byte.
    pub fn new(cfg: BroadcastConfig, frame_bytes: usize, fill: u8) -> BroadcastBus {
        let chunk_bytes = cfg.chunk_frames as usize * frame_bytes;
        BroadcastBus {
            staging: Vec::with_capacity(chunk_bytes),
            chunks: VecDeque::with_capacity(cfg.ring_chunks),
            next_seq: 0,
            free: Vec::with_capacity(cfg.ring_chunks),
            cfg,
            frame_bytes,
            fill,
            stats: Arc::default(),
        }
    }

    /// The bus's tuning knobs.
    pub fn config(&self) -> &BroadcastConfig {
        &self.cfg
    }

    /// Payload bytes per sealed chunk.
    pub fn chunk_bytes(&self) -> usize {
        self.cfg.chunk_frames as usize * self.frame_bytes
    }

    /// The bus's counters.
    pub fn stats(&self) -> &Arc<BusCounters> {
        &self.stats
    }

    /// One past the newest sealed sequence number (the live edge).
    pub fn live_seq(&self) -> u64 {
        self.next_seq
    }

    /// The starting cursor for a late joiner: the live edge minus the
    /// burst-in preroll (clamped to what the ring still holds).
    pub fn join_cursor(&self) -> u64 {
        let oldest = self.next_seq - self.chunks.len() as u64;
        self.next_seq
            .saturating_sub(self.cfg.preroll_chunks)
            .max(oldest)
    }

    /// Post-gain bus bytes just handed to the hardware, in device-time
    /// order: staged, and sealed a chunk at a time.
    pub fn tap(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (self.chunk_bytes() - self.staging.len()).min(bytes.len());
            self.staging.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.seal_full();
        }
    }

    /// `frames` frames of silence on the bus (spans the hardware
    /// back-fills itself).
    pub fn tap_silence(&mut self, frames: u32) {
        // Cap pathological spans (a clock jump) at one ring of silence:
        // listeners are at the live edge, so older silence is inaudible.
        let ring_frames = self.cfg.ring_chunks as u64 * self.cfg.chunk_frames as u64;
        let mut left = (frames as u64).min(ring_frames) as usize * self.frame_bytes;
        while left > 0 {
            let take = (self.chunk_bytes() - self.staging.len()).min(left);
            let new_len = self.staging.len() + take;
            self.staging.resize(new_len, self.fill);
            left -= take;
            self.seal_full();
        }
    }

    /// Seals the staged bytes once they make a whole chunk.
    fn seal_full(&mut self) {
        if self.staging.len() == self.chunk_bytes() {
            let staging = std::mem::take(&mut self.staging);
            self.publish(&staging);
            self.staging = staging;
            self.staging.clear();
        }
    }

    /// Seals one chunk of `payload` (exactly [`BroadcastBus::chunk_bytes`]
    /// bytes).  Called on the reactor thread, by the update task through
    /// [`BroadcastBus::tap`]; the reactor pumps its listeners at the end of
    /// that pass.  The chunk is a retired one rendered over, so the steady
    /// state allocates nothing.
    pub fn publish(&mut self, payload: &[u8]) {
        let mut chunk = self.free.pop().unwrap_or_else(|| {
            Arc::new(BroadcastChunk {
                seq: 0,
                wire: Vec::with_capacity(payload.len() + 20),
                payload: (0, 0),
            })
        });
        let Some(BroadcastChunk {
            seq,
            wire,
            payload: range,
        }) = Arc::get_mut(&mut chunk)
        else {
            return; // Unreachable: a retired chunk has no other holder.
        };
        // Scrub the recycled buffer: stale wire bytes from a previous
        // chunk must never be observable through a framing bug, and the
        // scrub leaves the destination in a uniform cache state whatever
        // the audience size did to it since its last use.
        wire.clear();
        wire.resize(payload.len() + 20, 0);
        // The source likewise: it was staged over several updates, and
        // whatever the listener plane wrote in between decides how much of
        // it is still cached — scheduling order, not encode work.  One
        // read per cache line puts it in the same state every time.
        std::hint::black_box(payload.iter().step_by(64).fold(0u8, |acc, b| acc ^ b));
        // Time only the render: this is the encode-once work whose
        // cycles/byte the fan-out curve proves flat.
        let t0 = cycles::timestamp();
        wire.clear();
        push_hex(payload.len(), wire);
        wire.extend_from_slice(b"\r\n");
        let start = wire.len();
        wire.extend_from_slice(payload);
        wire.extend_from_slice(b"\r\n");
        let spent = cycles::timestamp().wrapping_sub(t0);
        *seq = self.next_seq;
        *range = (start, start + payload.len());
        self.next_seq += 1;
        if self.chunks.len() == self.cfg.ring_chunks {
            if let Some(mut old) = self.chunks.pop_front() {
                // Recycle the chunk when no listener still holds it; a
                // held chunk just drops later.
                if Arc::get_mut(&mut old).is_some() {
                    self.free.push(old);
                }
            }
        }
        self.chunks.push_back(chunk);
        self.stats.add(Bus::ChunksSealed, 1);
        self.stats.add(Bus::EncodedBytes, payload.len() as u64);
        self.stats.add(Bus::EncodeCycles, spent);
        self.stats.record_min(Bus::EncodeCyclesMin, spent);
    }

    /// Fetches up to `max` consecutive chunks starting at `cursor`,
    /// applying the lag policy: a cursor that fell off the ring tail
    /// skips ahead to the live edge minus the preroll.  Appends `Arc`
    /// clones to `out`; returns the new cursor plus skip/lag accounting
    /// (also recorded in the bus stats).
    pub fn fetch_batch(
        &self,
        cursor: u64,
        max: usize,
        out: &mut VecDeque<Arc<BroadcastChunk>>,
    ) -> FetchInfo {
        let mut info = FetchInfo {
            next_cursor: cursor,
            skipped: 0,
            lag: 0,
        };
        if cursor >= self.next_seq {
            return info; // At the live edge: nothing new yet.
        }
        info.lag = self.next_seq - cursor;
        let oldest = self.next_seq - self.chunks.len() as u64;
        let mut seq = cursor;
        if seq < oldest {
            // The ring moved past this cursor: skip ahead to the live edge
            // (minus the preroll, so recovery still bursts in).
            let live = self.join_cursor();
            info.skipped = live - seq;
            seq = live;
        }
        while seq < self.next_seq && out.len() < max {
            out.push_back(Arc::clone(&self.chunks[(seq - oldest) as usize]));
            seq += 1;
        }
        info.next_cursor = seq;
        self.stats.add(lag_bucket(info.lag), 1);
        if info.skipped > 0 {
            self.stats.add(Bus::SkipAheads, 1);
        }
        info
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Renders `len` as a lowercase-hex chunked-transfer size line (no
/// `format!`: this runs on the seal path).
fn push_hex(len: usize, out: &mut Vec<u8>) {
    let mut digits = [0u8; 16];
    let mut i = digits.len();
    let mut v = len;
    loop {
        i -= 1;
        digits[i] = HEX[v & 0xF];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(ring_chunks: usize) -> BroadcastBus {
        let cfg = BroadcastConfig {
            chunk_frames: 4,
            ring_chunks,
            preroll_chunks: 2,
            stall_strikes: 4,
        };
        BroadcastBus::new(cfg, 1, 0xFF)
    }

    #[test]
    fn wire_framing_is_chunked_transfer() {
        let mut b = bus(8);
        b.publish(&[0xAB; 4]);
        let mut out = VecDeque::new();
        let info = b.fetch_batch(0, 8, &mut out);
        assert_eq!(info.next_cursor, 1);
        let c = &out[0];
        assert_eq!(c.wire(), b"4\r\n\xAB\xAB\xAB\xAB\r\n");
        assert_eq!(c.payload(), &[0xAB; 4]);
    }

    #[test]
    fn hex_sizes_render_like_format() {
        for len in [0usize, 1, 9, 10, 15, 16, 255, 256, 800, 6400, 65535] {
            let mut out = Vec::new();
            push_hex(len, &mut out);
            assert_eq!(String::from_utf8(out).unwrap(), format!("{len:x}"));
        }
    }

    #[test]
    fn cursor_walks_the_ring_in_order() {
        let mut b = bus(8);
        for i in 0..5u8 {
            b.publish(&[i; 4]);
        }
        let mut out = VecDeque::new();
        let info = b.fetch_batch(0, 3, &mut out);
        assert_eq!(info.next_cursor, 3);
        assert_eq!(info.skipped, 0);
        assert_eq!(out.len(), 3);
        let info = b.fetch_batch(info.next_cursor, 8, &mut out);
        assert_eq!(info.next_cursor, 5);
        let seqs: Vec<u64> = out.iter().map(|c| c.seq()).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        for (i, c) in out.iter().enumerate() {
            assert_eq!(c.payload(), &[i as u8; 4]);
        }
        // At the live edge: nothing more.
        let info = b.fetch_batch(5, 8, &mut out);
        assert_eq!(info.next_cursor, 5);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn lagging_cursor_skips_to_live_edge_minus_preroll() {
        let mut b = bus(4);
        for i in 0..20u8 {
            b.publish(&[i; 4]);
        }
        // Ring now holds seqs 16..20; cursor 1 fell off long ago.
        let mut out = VecDeque::new();
        let info = b.fetch_batch(1, 16, &mut out);
        assert_eq!(info.skipped, 17, "1 → 18 (live edge 20 minus preroll 2)");
        assert_eq!(out[0].seq(), 18);
        assert_eq!(info.next_cursor, 20);
        assert_eq!(b.stats().get(Bus::SkipAheads), 1);
        assert!(b.stats().get(Bus::Lag16Plus) >= 1);
    }

    #[test]
    fn retired_buffers_recycle_through_the_freelist() {
        let mut b = bus(4);
        for i in 0..32u8 {
            b.publish(&[i; 4]);
        }
        // 32 publishes through a 4-chunk ring with no listeners holding
        // refs: at most ring+freelist buffers were ever allocated.
        assert!(
            b.free.len() + b.chunks.len() <= 8,
            "freelist failed to recycle: {} free + {} live",
            b.free.len(),
            b.chunks.len()
        );
        assert!(!b.free.is_empty(), "nothing recycled");
    }

    #[test]
    fn held_chunks_survive_ring_eviction() {
        let mut b = bus(2);
        b.publish(&[1; 4]);
        let mut out = VecDeque::new();
        b.fetch_batch(0, 1, &mut out);
        let held = Arc::clone(&out[0]);
        for i in 2..10u8 {
            b.publish(&[i; 4]);
        }
        // The ring evicted seq 0 while a listener still held it; the
        // bytes are untouched (refcount kept the buffer out of the
        // freelist).
        assert_eq!(held.payload(), &[1; 4]);
    }

    #[test]
    fn late_joiner_gets_preroll_cursor() {
        let mut b = bus(8);
        assert_eq!(b.join_cursor(), 0, "empty bus starts at 0");
        for i in 0..6u8 {
            b.publish(&[i; 4]);
        }
        // Live edge 6, preroll 2 → join at 4.
        assert_eq!(b.join_cursor(), 4);
    }

    #[test]
    fn tap_seals_data_and_silence_contiguously() {
        let mut b = bus(8);
        b.tap(&[1, 2, 3]); // 3 of 4 bytes: no chunk yet.
        assert_eq!(b.live_seq(), 0);
        b.tap_silence(2); // Crosses the boundary: one chunk seals.
        assert_eq!(b.live_seq(), 1);
        b.tap(&[9; 7]); // 1 + 7 = 2 more chunks.
        assert_eq!(b.live_seq(), 3);
        let mut out = VecDeque::new();
        b.fetch_batch(0, 8, &mut out);
        assert_eq!(out[0].payload(), &[1, 2, 3, 0xFF]);
        assert_eq!(out[1].payload(), &[0xFF, 9, 9, 9]);
        assert_eq!(out[2].payload(), &[9, 9, 9, 9]);
    }
}
