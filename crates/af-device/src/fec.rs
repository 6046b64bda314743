//! Forward error correction for the LineServer UDP audio path.
//!
//! The link groups consecutive audio datagrams into *FEC groups* of `k`
//! data shards and appends `m` parity shards, so a receiver holding any
//! `k` of the `k + m` shards reconstructs the group without a round trip —
//! loss becomes latency-free erasure recovery instead of a retransmission
//! (or a gap).  Frames are sequence-numbered by `(group, index)` and
//! CRC-framed, turning corruption into erasure, which is the only failure
//! mode the code handles (see `af_proto::link` for the wire layout).
//!
//! Parity shard 0 is the plain XOR of the group's data shards — the
//! classic single-erasure parity.  Shards 1..m generalize it with
//! GF(256) coefficients drawn from a column-normalized Cauchy matrix,
//! whose every square submatrix is nonsingular, so *any* combination of
//! up to `m` erasures per group — bursts included — solves exactly.
//! Recovery is a tiny (≤ `m` × `m`) Gaussian elimination over GF(256),
//! then one pass over the shard bytes.
//!
//! Data shards carry variable-length payloads; parity is computed over
//! each payload prefixed with its 16-bit length and zero-padded to the
//! group's longest, so reconstruction recovers exact original bytes
//! (pinned bit-exact by `tests/fec.rs` property tests).

// Runs inside the server's real-time pump, so it keeps the server's ban on
// panics (af-server's crate root).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::lineserver::{LsPacket, LS_BUFFER_SAMPLES};
use af_proto::link::{
    FEC_CRC_BYTES, FEC_GROUP_WINDOW, FEC_HEADER_BYTES, FEC_MAGIC, FEC_MAX_K, FEC_MAX_M,
    FEC_VERSION,
};
use std::collections::VecDeque;

// --- GF(256) arithmetic --------------------------------------------------

/// Exp/log tables for GF(2^8) with the AES-adjacent polynomial 0x11D,
/// generator 2.  Built at compile time; `EXP` is doubled so products of
/// logs index without a modulo.
const GF_TABLES: ([u8; 510], [u8; 256]) = build_gf_tables();

const fn build_gf_tables() -> ([u8; 510], [u8; 256]) {
    let mut exp = [0u8; 510];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11D;
        }
        i += 1;
    }
    (exp, log)
}

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (exp, log) = (&GF_TABLES.0, &GF_TABLES.1);
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

#[inline]
fn gf_inv(a: u8) -> u8 {
    // a^-1 = exp(255 - log a); a must be nonzero (callers guarantee it:
    // Cauchy entries and pivots are nonzero by construction).
    let (exp, log) = (&GF_TABLES.0, &GF_TABLES.1);
    exp[255 - log[a as usize] as usize]
}

/// `out[i] ^= coeff * data[i]` over GF(256) — the erasure-code kernel.
fn gf_mul_acc(out: &mut [u8], data: &[u8], coeff: u8) {
    if coeff == 0 {
        return;
    }
    if coeff == 1 {
        for (o, d) in out.iter_mut().zip(data) {
            *o ^= *d;
        }
        return;
    }
    let (exp, log) = (&GF_TABLES.0, &GF_TABLES.1);
    let lc = log[coeff as usize] as usize;
    for (o, d) in out.iter_mut().zip(data) {
        if *d != 0 {
            *o ^= exp[lc + log[*d as usize] as usize];
        }
    }
}

/// Parity coefficient for parity row `j` (0..m) applied to data column `i`
/// (0..k): a Cauchy matrix `1 / (x_j ^ y_i)` with `x_j = j`,
/// `y_i = FEC_MAX_M + i`, column-scaled so row 0 is all ones (plain XOR).
/// Column scaling preserves the all-submatrices-nonsingular property.
fn cauchy_coeff(j: usize, i: usize) -> u8 {
    let x = j as u8;
    let y = (FEC_MAX_M + i) as u8;
    let c = gf_inv(x ^ y); // x != y because j < FEC_MAX_M <= y.
    let c0 = gf_inv(y); // Row-0 entry for this column (x = 0).
    gf_mul(c, gf_inv(c0))
}

// --- CRC-32 --------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- Configuration and framing -------------------------------------------

/// FEC group shape: `k` data shards protected by `m` parity shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FecConfig {
    /// Data shards per group (1..=[`FEC_MAX_K`]).
    pub k: usize,
    /// Parity shards per group (0..=[`FEC_MAX_M`]); 0 disables parity.
    pub m: usize,
}

impl Default for FecConfig {
    fn default() -> Self {
        FecConfig {
            k: af_proto::link::FEC_DEFAULT_K,
            m: af_proto::link::FEC_DEFAULT_M,
        }
    }
}

impl FecConfig {
    /// A validated config, clamping out-of-range shapes into bounds.
    pub fn new(k: usize, m: usize) -> FecConfig {
        FecConfig {
            k: k.clamp(1, FEC_MAX_K),
            m: m.min(FEC_MAX_M),
        }
    }

    /// Packs the shape into a register value (`k` high byte, `m` low).
    pub fn to_reg(self) -> u16 {
        ((self.k as u16) << 8) | self.m as u16
    }

    /// Unpacks a register value; `None` when zero (FEC disabled).
    pub fn from_reg(v: u16) -> Option<FecConfig> {
        if v == 0 {
            return None;
        }
        Some(FecConfig::new((v >> 8) as usize, (v & 0xFF) as usize))
    }
}

/// One FEC frame, borrowing its payload: from the datagram it was parsed
/// out of, or from the encoder that is sending it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FecFrame<'a> {
    /// Group sequence number.
    pub group: u32,
    /// Shard index: `0..k` data, `k..k+m` parity.
    pub index: u8,
    /// Data shards in this frame's group.
    pub k: u8,
    /// Parity shards in this frame's group.
    pub m: u8,
    /// Shard payload bytes.
    pub payload: &'a [u8],
}

impl FecFrame<'_> {
    /// Encodes the frame with header and trailing CRC into `out`, which it
    /// clears first.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&FEC_MAGIC.to_le_bytes());
        out.push(FEC_VERSION);
        out.extend_from_slice(&self.group.to_le_bytes());
        out.push(self.index);
        out.push(self.k);
        out.push(self.m);
        out.extend_from_slice(&(self.payload.len() as u16).to_le_bytes());
        out.extend_from_slice(self.payload);
        let crc = crc32(out);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Decodes a datagram as an FEC frame.
    ///
    /// `None` for anything that is not a well-formed frame: wrong magic or
    /// version, truncation, length mismatch, shape out of bounds, or CRC
    /// failure.  Corruption is therefore indistinguishable from loss,
    /// which is the erasure model the parity math assumes.
    pub fn decode(bytes: &[u8]) -> Option<FecFrame<'_>> {
        if bytes.len() < FEC_HEADER_BYTES + FEC_CRC_BYTES {
            return None;
        }
        if u16::from_le_bytes([bytes[0], bytes[1]]) != FEC_MAGIC || bytes[2] != FEC_VERSION {
            return None;
        }
        let len = usize::from(u16::from_le_bytes([bytes[10], bytes[11]]));
        if bytes.len() != FEC_HEADER_BYTES + len + FEC_CRC_BYTES {
            return None;
        }
        let body = &bytes[..FEC_HEADER_BYTES + len];
        let wire_crc = u32::from_le_bytes([
            bytes[FEC_HEADER_BYTES + len],
            bytes[FEC_HEADER_BYTES + len + 1],
            bytes[FEC_HEADER_BYTES + len + 2],
            bytes[FEC_HEADER_BYTES + len + 3],
        ]);
        if crc32(body) != wire_crc {
            return None;
        }
        let (k, m) = (usize::from(bytes[8]), usize::from(bytes[9]));
        if k == 0 || k > FEC_MAX_K || m > FEC_MAX_M || usize::from(bytes[7]) >= k + m {
            return None;
        }
        Some(FecFrame {
            group: u32::from_le_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]),
            index: bytes[7],
            k: bytes[8],
            m: bytes[9],
            payload: &bytes[FEC_HEADER_BYTES..FEC_HEADER_BYTES + len],
        })
    }
}

/// The room a shard buffer reserves on its first fill: a LineServer
/// packet of a full record buffer, with the shard's length prefix.  A
/// steady stream of such packets then never grows a buffer.
const SHARD_CAPACITY: usize = 2 + LsPacket::HEADER + LS_BUFFER_SAMPLES as usize;

/// Refills `buf` with `head` then `body`, keeping its allocation.
fn refill(buf: &mut Vec<u8>, head: &[u8], body: &[u8]) {
    buf.clear();
    buf.reserve(SHARD_CAPACITY.max(head.len() + body.len()));
    buf.extend_from_slice(head);
    buf.extend_from_slice(body);
}

/// Refills `buf` with the shard form of `payload` that parity is computed
/// over: the payload prefixed with its 16-bit length.
fn stash_shard(buf: &mut Vec<u8>, payload: &[u8]) {
    let capped = payload.len().min(usize::from(u16::MAX));
    refill(buf, &(capped as u16).to_le_bytes(), &payload[..capped]);
}

// --- Encoder -------------------------------------------------------------

/// Streams payloads into FEC frames: each payload becomes one data frame
/// (sent immediately), and every `k`-th payload closes the group and sends
/// its `m` parity frames.  Every buffer it writes is its own and kept, so
/// a warm encoder allocates nothing.
pub struct FecEncoder {
    cfg: FecConfig,
    group: u32,
    /// Length-prefixed shard buffers; the first `open` hold the open
    /// group's data shards.
    shards: Vec<Vec<u8>>,
    /// Data shards in the open group.
    open: usize,
    /// The parity row being computed.
    parity: Vec<u8>,
    /// The frame being sent.
    frame: Vec<u8>,
}

impl FecEncoder {
    /// Creates an encoder with the given group shape, clamped into bounds.
    pub fn new(cfg: FecConfig) -> FecEncoder {
        let cfg = FecConfig::new(cfg.k, cfg.m);
        FecEncoder {
            cfg,
            group: 0,
            shards: (0..cfg.k).map(|_| Vec::new()).collect(),
            open: 0,
            parity: Vec::with_capacity(SHARD_CAPACITY),
            frame: Vec::with_capacity(FEC_HEADER_BYTES + SHARD_CAPACITY + FEC_CRC_BYTES),
        }
    }

    /// The configured group shape.
    pub fn config(&self) -> FecConfig {
        self.cfg
    }

    /// Encodes one payload, handing the wire frames to `send` in order:
    /// one data frame, plus `m` parity frames when this payload completes
    /// a group.
    pub fn push(&mut self, payload: &[u8], mut send: impl FnMut(&[u8])) {
        FecFrame {
            group: self.group,
            index: self.open as u8,
            k: self.cfg.k as u8,
            m: self.cfg.m as u8,
            payload,
        }
        .encode_into(&mut self.frame);
        send(&self.frame);
        stash_shard(&mut self.shards[self.open], payload);
        self.open += 1;
        if self.open == self.cfg.k {
            self.close_group(&mut send);
        }
    }

    /// Closes the open group early (fewer than `k` data shards), sending
    /// parity over what it holds.  Used at end-of-stream so tail packets
    /// are not left unprotected.
    pub fn flush(&mut self, mut send: impl FnMut(&[u8])) {
        if self.open > 0 {
            // Parity frames declare the short group's true k so the
            // decoder solves the right system.
            self.close_group(&mut send);
        }
    }

    fn close_group(&mut self, send: &mut impl FnMut(&[u8])) {
        let k = self.open;
        let shards = &mut self.shards[..k];
        let width = shards.iter().map(Vec::len).max().unwrap_or(0);
        for shard in shards.iter_mut() {
            shard.resize(width, 0);
        }
        for j in 0..self.cfg.m {
            self.parity.clear();
            self.parity.resize(width, 0);
            for (i, shard) in self.shards[..k].iter().enumerate() {
                gf_mul_acc(&mut self.parity, shard, cauchy_coeff(j, i));
            }
            FecFrame {
                group: self.group,
                index: (k + j) as u8,
                k: k as u8,
                m: self.cfg.m as u8,
                payload: &self.parity,
            }
            .encode_into(&mut self.frame);
            send(&self.frame);
        }
        self.open = 0;
        self.group = self.group.wrapping_add(1);
    }
}

// --- Decoder -------------------------------------------------------------

/// Monotonic counters a [`FecDecoder`] keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FecDecoderStats {
    /// Data payloads delivered straight from received data shards.
    pub direct: u64,
    /// Data payloads reconstructed from parity.
    pub recovered: u64,
    /// Data shards lost beyond recovery (group evicted incomplete).
    pub unrecoverable: u64,
    /// Frames discarded as duplicates of an already-seen `(group, index)`.
    pub duplicates: u64,
}

/// Per-group reassembly state.  Its buffers outlive the group: an evicted
/// group's state is reset for the next one.
struct GroupState {
    group: u32,
    k: usize,
    m: usize,
    /// Data shards in length-prefixed form, by index; the first `k` of
    /// `have_data` say which are on hand.
    data: [Vec<u8>; FEC_MAX_K],
    have_data: [bool; FEC_MAX_K],
    /// Parity shards by parity row; the first `m` of `have_parity` say
    /// which are on hand.
    parity: [Vec<u8>; FEC_MAX_M],
    have_parity: [bool; FEC_MAX_M],
    /// Which data indices were already delivered to the caller.
    delivered: [bool; FEC_MAX_K],
    /// Whether reconstruction already ran (or became unnecessary).
    done: bool,
}

impl GroupState {
    fn new() -> GroupState {
        GroupState {
            group: 0,
            k: 0,
            m: 0,
            data: std::array::from_fn(|_| Vec::new()),
            have_data: [false; FEC_MAX_K],
            parity: std::array::from_fn(|_| Vec::new()),
            have_parity: [false; FEC_MAX_M],
            delivered: [false; FEC_MAX_K],
            done: false,
        }
    }

    /// Empties the state for group `group` of shape `k + m`.
    fn reset(&mut self, group: u32, k: usize, m: usize) {
        (self.group, self.k, self.m) = (group, k, m);
        self.have_data = [false; FEC_MAX_K];
        self.have_parity = [false; FEC_MAX_M];
        self.delivered = [false; FEC_MAX_K];
        self.done = false;
    }
}

/// Reassembles FEC frames into payloads, reconstructing missing data
/// shards as soon as any `k` of a group's shards are on hand.
///
/// Duplicated frames are dropped, reordered frames slot into place by
/// `(group, index)`, and at most [`FEC_GROUP_WINDOW`] incomplete groups
/// are retained (oldest evicted first), so memory is bounded no matter
/// what the network does.  Once the window has filled, only a
/// reconstruction allocates.
pub struct FecDecoder {
    groups: VecDeque<GroupState>,
    stats: FecDecoderStats,
}

impl Default for FecDecoder {
    fn default() -> Self {
        FecDecoder::new()
    }
}

impl FecDecoder {
    /// Creates an empty decoder.
    pub fn new() -> FecDecoder {
        FecDecoder {
            groups: VecDeque::with_capacity(FEC_GROUP_WINDOW),
            stats: FecDecoderStats::default(),
        }
    }

    /// The decoder's counters.
    pub fn stats(&self) -> FecDecoderStats {
        self.stats
    }

    /// Feeds one parsed frame, handing each newly available data payload
    /// to `deliver`.
    ///
    /// A data frame's own payload is always delivered first (unless it is
    /// a duplicate); reconstruction of *other* shards may add more.
    pub fn push(&mut self, frame: FecFrame<'_>, mut deliver: impl FnMut(&[u8])) {
        let k = usize::from(frame.k);
        let m = usize::from(frame.m);
        if k == 0 || k > FEC_MAX_K || m > FEC_MAX_M {
            return; // A shape no encoder sends.
        }
        let slot = match self.groups.iter().position(|g| g.group == frame.group) {
            Some(i) => i,
            None => {
                let mut st = if self.groups.len() >= FEC_GROUP_WINDOW {
                    self.evict_oldest()
                } else {
                    None
                }
                .unwrap_or_else(GroupState::new);
                st.reset(frame.group, k, m);
                self.groups.push_back(st);
                self.groups.len() - 1
            }
        };
        let st = &mut self.groups[slot];
        // Classify by the *frame's own* k: data frames of a tail group
        // optimistically declare the configured k (they go out before the
        // group closes short), while parity frames always declare the
        // group's true k.
        let idx = usize::from(frame.index);
        if idx < k {
            // Data shard.  An index at or past the group's (possibly
            // already corrected) shape cannot exist; drop it.
            if idx >= st.k {
                return;
            }
            if st.have_data[idx] {
                self.stats.duplicates += 1;
                return;
            }
            // Deliver the direct payload now; keep the length-prefixed
            // form for parity math.
            stash_shard(&mut st.data[idx], frame.payload);
            st.have_data[idx] = true;
            if !st.delivered[idx] {
                st.delivered[idx] = true;
                self.stats.direct += 1;
                deliver(frame.payload);
            }
        } else {
            // Parity shard: its declared k is authoritative, so a shape
            // recorded from data frames shrinks to the true one (the
            // excess slots never had shards on the wire).
            st.k = st.k.min(k);
            let row = idx - k;
            if row >= st.m {
                return; // Index beyond this group's recorded shape.
            }
            if st.have_parity[row] {
                self.stats.duplicates += 1;
                return;
            }
            refill(&mut st.parity[row], &[], frame.payload);
            st.have_parity[row] = true;
        }
        self.try_reconstruct(slot, &mut deliver);
        // Completed groups stay in the window (until evicted) so late
        // duplicates of their shards are still recognized as duplicates.
    }

    /// Reconstructs group `slot`'s missing data shards once enough parity
    /// is on hand, delivering the recovered payloads.  Counting what is
    /// missing allocates nothing; only solving the system does.
    fn try_reconstruct(&mut self, slot: usize, deliver: &mut impl FnMut(&[u8])) {
        let st = &mut self.groups[slot];
        if st.done {
            return;
        }
        let e = st.have_data[..st.k].iter().filter(|&&have| !have).count();
        if e == 0 {
            st.done = true;
            return;
        }
        if st.have_parity[..st.m].iter().filter(|&&have| have).count() < e {
            return; // Not yet solvable; wait for more shards.
        }
        let missing: Vec<usize> = (0..st.k).filter(|&i| !st.have_data[i]).collect();
        let rows: Vec<usize> = (0..st.m).filter(|&j| st.have_parity[j]).take(e).collect();
        let width = (0..st.m)
            .filter(|&j| st.have_parity[j])
            .map(|j| st.parity[j].len())
            .max()
            .unwrap_or(0);
        // b_r = parity_r XOR sum(coeff * present data shards).
        let mut rhs: Vec<Vec<u8>> = rows
            .iter()
            .map(|&j| {
                let mut b = vec![0u8; width];
                let p = &st.parity[j];
                b[..p.len()].copy_from_slice(p);
                for i in (0..st.k).filter(|&i| st.have_data[i]) {
                    // Present shards are <= width; pad implicitly.
                    let s = &st.data[i];
                    let mut padded = vec![0u8; width];
                    padded[..s.len().min(width)].copy_from_slice(&s[..s.len().min(width)]);
                    gf_mul_acc(&mut b, &padded, cauchy_coeff(j, i));
                }
                b
            })
            .collect();
        // Solve M x = rhs where M[r][c] = coeff(rows[r], missing[c]).
        let mut mat: Vec<Vec<u8>> = rows
            .iter()
            .map(|&j| missing.iter().map(|&i| cauchy_coeff(j, i)).collect())
            .collect();
        // Gaussian elimination with partial pivot over GF(256).
        for col in 0..e {
            let Some(pivot) = (col..e).find(|&r| mat[r][col] != 0) else {
                return; // Singular (cannot happen with Cauchy).
            };
            mat.swap(col, pivot);
            rhs.swap(col, pivot);
            let inv = gf_inv(mat[col][col]);
            for v in &mut mat[col][col..e] {
                *v = gf_mul(*v, inv);
            }
            let scaled: Vec<u8> = rhs[col].iter().map(|&b| gf_mul(b, inv)).collect();
            rhs[col] = scaled;
            let pivot_row: Vec<u8> = mat[col][col..e].to_vec();
            for r in 0..e {
                if r != col && mat[r][col] != 0 {
                    let f = mat[r][col];
                    for (v, &p) in mat[r][col..e].iter_mut().zip(&pivot_row) {
                        *v ^= gf_mul(f, p);
                    }
                    let (head, tail) = if r < col {
                        let (h, t) = rhs.split_at_mut(col);
                        (&mut h[r], &t[0])
                    } else {
                        let (h, t) = rhs.split_at_mut(r);
                        (&mut t[0], &h[col])
                    };
                    gf_mul_acc(head, tail, f);
                }
            }
        }
        for (c, &idx) in missing.iter().enumerate() {
            let shard = std::mem::take(&mut rhs[c]);
            // Strip the length prefix back off.
            let payload = if shard.len() >= 2 {
                let len = usize::from(u16::from_le_bytes([shard[0], shard[1]]));
                2..shard.len().min(2 + len).max(2)
            } else {
                0..0
            };
            st.data[idx] = shard;
            st.have_data[idx] = true;
            if !st.delivered[idx] {
                st.delivered[idx] = true;
                self.stats.recovered += 1;
                deliver(&st.data[idx][payload]);
            }
        }
        st.done = true;
    }

    /// Drops the oldest group, counting its undelivered shards as lost,
    /// and returns its state for reuse.
    fn evict_oldest(&mut self) -> Option<GroupState> {
        let st = self.groups.pop_front()?;
        let lost = st.delivered[..st.k].iter().filter(|&&d| !d).count();
        self.stats.unrecoverable += lost as u64;
        Some(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frames `push` sends for `payload`.
    fn pushed(enc: &mut FecEncoder, payload: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        enc.push(payload, |f| frames.push(f.to_vec()));
        frames
    }

    /// The frames `flush` sends.
    fn flushed(enc: &mut FecEncoder) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        enc.flush(|f| frames.push(f.to_vec()));
        frames
    }

    /// The payloads `push` delivers for the frame in `bytes`.
    fn delivered(dec: &mut FecDecoder, bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        let frame = FecFrame::decode(bytes).expect("frame decodes");
        dec.push(frame, |p| got.push(p.to_vec()));
        got
    }

    fn round_trip(cfg: FecConfig, payloads: &[&[u8]], drop: &[usize]) -> Vec<Vec<u8>> {
        let mut enc = FecEncoder::new(cfg);
        let mut frames = Vec::new();
        for p in payloads {
            frames.extend(pushed(&mut enc, p));
        }
        frames.extend(flushed(&mut enc));
        let mut dec = FecDecoder::new();
        let mut got = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            if drop.contains(&i) {
                continue;
            }
            got.extend(delivered(&mut dec, f));
        }
        got
    }

    #[test]
    fn lossless_stream_is_delivered_in_order() {
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10 + usize::from(i)]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let got = round_trip(FecConfig::new(4, 2), &refs, &[]);
        assert_eq!(got, payloads);
    }

    #[test]
    fn single_loss_recovers_from_xor_parity() {
        // Frames: d0 d1 d2 d3 p0 p1 — drop d1.
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i * 3; 16]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let got = round_trip(FecConfig::new(4, 2), &refs, &[1]);
        assert_eq!(got.len(), 4);
        // d1 arrives last (recovered), others direct.
        assert!(got.contains(&payloads[1]));
    }

    #[test]
    fn burst_of_m_losses_recovers() {
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; 32]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        // Drop d1 and d2 — a burst of m = 2 inside one group.
        let got = round_trip(FecConfig::new(4, 2), &refs, &[1, 2]);
        let mut sorted = got.clone();
        sorted.sort();
        let mut want = payloads.clone();
        want.sort();
        assert_eq!(sorted, want);
    }

    #[test]
    fn mixed_data_and_parity_loss_recovers() {
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0xA0 ^ i; 24]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        // Drop d0 and p0: the solver must use the Cauchy row, not plain XOR.
        let got = round_trip(FecConfig::new(4, 2), &refs, &[0, 4]);
        let mut sorted = got.clone();
        sorted.sort();
        let mut want = payloads;
        want.sort();
        assert_eq!(sorted, want);
    }

    #[test]
    fn variable_lengths_reconstruct_exactly() {
        let payloads: Vec<Vec<u8>> = vec![vec![7; 3], vec![8; 100], vec![9; 1], vec![10; 57]];
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        for dropped in 0..4 {
            let got = round_trip(FecConfig::new(4, 2), &refs, &[dropped]);
            let mut sorted = got.clone();
            sorted.sort();
            let mut want = payloads.clone();
            want.sort();
            assert_eq!(sorted, want, "dropping frame {dropped}");
        }
    }

    #[test]
    fn duplicates_and_reorder_do_not_double_deliver() {
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let mut enc = FecEncoder::new(FecConfig::new(4, 2));
        let mut frames = Vec::new();
        for p in &payloads {
            frames.extend(pushed(&mut enc, p));
        }
        frames.reverse(); // Fully reversed arrival order.
        let doubled: Vec<Vec<u8>> = frames.iter().cloned().chain(frames.clone()).collect();
        let mut dec = FecDecoder::new();
        let mut got = Vec::new();
        for f in &doubled {
            got.extend(delivered(&mut dec, f));
        }
        assert_eq!(got.len(), 4);
        assert!(dec.stats().duplicates > 0);
    }

    #[test]
    fn corrupted_frame_is_rejected_by_crc() {
        let mut enc = FecEncoder::new(FecConfig::new(2, 1));
        let frames = pushed(&mut enc, &[1, 2, 3]);
        let mut bad = frames[0].clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert_eq!(FecFrame::decode(&bad), None);
        assert!(FecFrame::decode(&frames[0]).is_some());
    }

    #[test]
    fn flush_protects_short_tail_group() {
        let mut enc = FecEncoder::new(FecConfig::new(4, 2));
        let mut frames = pushed(&mut enc, &[42; 20]);
        frames.extend(pushed(&mut enc, &[43; 20]));
        frames.extend(flushed(&mut enc)); // Group closed at k = 2.
        assert_eq!(frames.len(), 4); // 2 data + 2 parity.
        let mut dec = FecDecoder::new();
        // Drop both data frames; parity alone must rebuild them.
        let mut got = Vec::new();
        for f in &frames[2..] {
            got.extend(delivered(&mut dec, f));
        }
        let mut sorted = got;
        sorted.sort();
        assert_eq!(sorted, vec![vec![42; 20], vec![43; 20]]);
    }

    #[test]
    fn group_window_is_bounded() {
        let mut dec = FecDecoder::new();
        // Feed one lone data shard from many distinct groups.
        for g in 0..(FEC_GROUP_WINDOW as u32 + 8) {
            let f = FecFrame {
                group: g,
                index: 0,
                k: 4,
                m: 2,
                payload: &[1],
            };
            dec.push(f, |_| {});
        }
        assert!(dec.groups.len() <= FEC_GROUP_WINDOW);
    }

    #[test]
    fn gf_field_sanity() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
        }
        assert_eq!(gf_mul(0, 7), 0);
        // Row 0 of the normalized Cauchy matrix is all ones.
        for i in 0..FEC_MAX_K {
            assert_eq!(cauchy_coeff(0, i), 1);
        }
    }

    #[test]
    fn crc_known_value() {
        // CRC-32 ("123456789") = 0xCBF43926, the standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
