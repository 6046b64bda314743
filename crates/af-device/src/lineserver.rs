//! The LineServer: a detached UDP audio peripheral (§4.4, §7.4.3).
//!
//! The real LineServer was a Motorola 68302 Ethernet box with an 8 kHz ISDN
//! CODEC; the AudioFile server for it (`Als`) ran on a nearby workstation
//! and drove the hardware with a private UDP protocol of six packet types.
//! Request and reply packets share one format — a header of sequence number,
//! audio time, function code, and parameter, followed by data bytes — and
//! the LineServer *only* sends packets as replies to requests.
//!
//! [`LineServerFirmware`] reproduces the firmware: small (2048-sample)
//! play/record buffers, interrupt-driven sample movement (simulated by
//! servicing a virtual codec on every poll), and a request loop over a real
//! UDP socket.  [`LineServerLink`] is the workstation side used by the
//! `Als`-style device backend.

use crate::clock::SharedClock;
use crate::fec::{FecConfig, FecDecoder, FecEncoder, FecFrame};
use crate::hardware::{HwConfig, VirtualAudioHw};
use crate::io::{SampleSink, SampleSource};
use crate::stats::{Link, LinkCounters};
use af_time::ATime;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LineServer buffer size: 2048 samples, "1/4 second at 8 kHz".
pub const LS_BUFFER_SAMPLES: u32 = 2048;

/// How many recent replies the firmware keeps for answering retransmitted
/// requests without re-executing them (at-most-once semantics).
pub const LS_REPLY_CACHE: usize = 32;

/// Number of device registers (gains, config).
pub const LS_NUM_REGS: usize = 16;

/// Register index: output gain.
pub const LS_REG_OUTPUT_GAIN: u8 = 0;
/// Register index: input gain.
pub const LS_REG_INPUT_GAIN: u8 = 1;
/// Register index: FEC group shape, `(k << 8) | m`; zero disables FEC.
/// Written by the workstation at link setup; while non-zero the firmware
/// wraps `Record` replies in FEC frames and accepts FEC-framed one-way
/// requests (`Play`) from the peer.
pub const LS_REG_FEC: u8 = 2;

/// How many distinct peers the firmware keeps FEC / sequence state for
/// before recycling (a real box served exactly one workstation).
const LS_MAX_PEERS: usize = 16;

/// How many drained audio packets (plain or FEC-recovered `Record`
/// replies) a link queues for the backend before dropping the oldest.
const LINK_AUDIO_QUEUE: usize = 64;

/// How many unanswered clock probes a link remembers the send instants of.
const LINK_PROBES: usize = 8;

/// The six packet function codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum LsFunction {
    /// Play samples (data = µ-law samples, `time` = start time).
    Play = 1,
    /// Record samples (`aux` = sample count; reply data = samples).
    Record = 2,
    /// Read a CODEC register (`param` = index; reply `aux` = value).
    ReadReg = 3,
    /// Write a CODEC register (`param` = index, `aux` = value).
    WriteReg = 4,
    /// Loopback, for testing: the reply echoes the request.
    Loopback = 5,
    /// Reset: clear buffers and registers.
    Reset = 6,
}

impl LsFunction {
    fn from_wire(v: u8) -> Option<LsFunction> {
        match v {
            1 => Some(LsFunction::Play),
            2 => Some(LsFunction::Record),
            3 => Some(LsFunction::ReadReg),
            4 => Some(LsFunction::WriteReg),
            5 => Some(LsFunction::Loopback),
            6 => Some(LsFunction::Reset),
            _ => None,
        }
    }
}

/// One LineServer packet; requests and replies share this format.  It
/// borrows its data: from the datagram it was parsed out of, or from
/// whoever is sending it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LsPacket<'a> {
    /// Sequence number; replies echo it.
    pub seq: u32,
    /// Audio device time (request: start time; reply: current time).
    pub time: ATime,
    /// Function code.
    pub function: LsFunction,
    /// Small parameter (register index).
    pub param: u8,
    /// Auxiliary 16-bit parameter (lengths, register values).
    pub aux: u16,
    /// Data bytes.
    pub data: &'a [u8],
}

impl LsPacket<'_> {
    /// Header size in bytes.
    pub const HEADER: usize = 12;

    /// Encodes the packet into `out`, which it clears first (fields
    /// little-endian; this private protocol has a fixed order, unlike the
    /// client protocol).
    #[expect(clippy::disallowed_methods, reason = "the wire carries raw time")]
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.time.ticks().to_le_bytes());
        out.push(self.function as u8);
        out.push(self.param);
        out.extend_from_slice(&self.aux.to_le_bytes());
        out.extend_from_slice(self.data);
    }

    /// Decodes a packet, or `None` if malformed.
    pub fn decode(bytes: &[u8]) -> Option<LsPacket<'_>> {
        if bytes.len() < Self::HEADER {
            return None;
        }
        let seq = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
        let time = ATime::new(u32::from_le_bytes(bytes[4..8].try_into().ok()?));
        let function = LsFunction::from_wire(bytes[8])?;
        let param = bytes[9];
        let aux = u16::from_le_bytes(bytes[10..12].try_into().ok()?);
        Some(LsPacket {
            seq,
            time,
            function,
            param,
            aux,
            data: &bytes[Self::HEADER..],
        })
    }
}

/// The simulated LineServer box.
pub struct LineServerFirmware {
    socket: UdpSocket,
    hw: VirtualAudioHw,
    regs: [u16; LS_NUM_REGS],
    stop: Arc<AtomicBool>,
    /// Per-peer FEC encoders for outbound `Record` replies (active while
    /// the FEC register is non-zero).
    fec_tx: HashMap<SocketAddr, FecEncoder>,
    /// Per-peer FEC decoders for inbound one-way frames.
    fec_rx: HashMap<SocketAddr, FecDecoder>,
    /// Highest executed request sequence per peer, for the stale guard.
    last_seq: HashMap<SocketAddr, u32>,
    /// The data of the reply being built.
    reply_data: Vec<u8>,
}

impl LineServerFirmware {
    /// Boots a LineServer on an ephemeral localhost UDP port.
    ///
    /// The 8 kHz codec runs on `clock`; `sink`/`source` are its audio
    /// endpoints.  Returns the firmware and its address.
    pub fn boot(
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
    ) -> io::Result<(LineServerFirmware, SocketAddr)> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(Duration::from_millis(5)))?;
        let addr = socket.local_addr()?;
        let cfg = HwConfig {
            encoding: af_dsp::Encoding::Mu255,
            rate: 8000,
            channels: 1,
            ring_frames: LS_BUFFER_SAMPLES,
        };
        Ok((
            LineServerFirmware {
                socket,
                hw: VirtualAudioHw::new(cfg, clock, sink, source),
                regs: [0; LS_NUM_REGS],
                stop: Arc::new(AtomicBool::new(false)),
                fec_tx: HashMap::new(),
                fec_rx: HashMap::new(),
                last_seq: HashMap::new(),
                reply_data: Vec::new(),
            },
            addr,
        ))
    }

    /// A handle that stops the firmware loop when set.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the firmware loop until stopped: the "network thread" of the
    /// real firmware, with the "update thread" folded into each iteration.
    ///
    /// A small reply cache gives retransmissions at-most-once semantics: a
    /// request whose `(peer, seq)` matches a recent exchange is answered
    /// with the original reply bytes instead of being executed again, so a
    /// link that times out and resends cannot double-play samples or
    /// double-apply register writes.  A per-peer high-water sequence mark
    /// backs the cache up: a retransmission old enough to have been
    /// evicted is dropped silently rather than re-executed, preserving
    /// at-most-once past the cache horizon.
    pub fn run(mut self) {
        let mut buf = vec![0u8; 65_536];
        let mut cache: VecDeque<(SocketAddr, u32, Vec<u8>)> =
            VecDeque::with_capacity(LS_REPLY_CACHE);
        while !self.stop.load(Ordering::Relaxed) {
            // Interrupt-driven sample movement, batched.
            self.hw.service();
            match self.socket.recv_from(&mut buf) {
                Ok((n, peer)) => self.handle_datagram(&buf[..n], peer, &mut cache),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
    }

    /// Handles one inbound datagram: an FEC frame carrying one-way inner
    /// requests, or a plain request/reply exchange.
    fn handle_datagram(
        &mut self,
        bytes: &[u8],
        peer: SocketAddr,
        cache: &mut VecDeque<(SocketAddr, u32, Vec<u8>)>,
    ) {
        // FEC frames first: the magic + CRC check makes a false positive
        // against a plain packet practically impossible, while a plain
        // decode of an FEC frame could succeed by accident.
        if let Some(frame) = FecFrame::decode(bytes) {
            if !self.fec_rx.contains_key(&peer) && self.fec_rx.len() >= LS_MAX_PEERS {
                self.fec_rx.clear();
            }
            let mut payloads = Vec::new();
            self.fec_rx
                .entry(peer)
                .or_default()
                .push(frame, |p| payloads.push(p.to_vec()));
            for payload in payloads {
                // One-way inner requests (play traffic): executed, reply
                // discarded; duplicates were already shed by the decoder
                // and replayed `Play` writes are idempotent.
                if let Some(req) = LsPacket::decode(&payload) {
                    let _ = self.process(req);
                }
            }
            return;
        }
        let Some(req) = LsPacket::decode(bytes) else {
            return; // Malformed packets dropped silently, as firmware would.
        };
        let seq = req.seq;
        if let Some((_, _, bytes)) = cache.iter().find(|(p, s, _)| *p == peer && *s == seq) {
            let _ = self.socket.send_to(bytes, peer);
            return;
        }
        // Not cached: drop it silently if it is older than the newest
        // executed request from this peer — a retransmission whose cache
        // entry was evicted must not re-execute.
        if let Some(&last) = self.last_seq.get(&peer) {
            if seq.wrapping_sub(last) as i32 <= 0 {
                return;
            }
        }
        if !self.last_seq.contains_key(&peer) && self.last_seq.len() >= LS_MAX_PEERS {
            self.last_seq.clear();
        }
        self.last_seq.insert(peer, seq);
        let reply = self.process(req);
        let function = reply.function;
        let mut encoded = Vec::new();
        reply.encode_into(&mut encoded);
        // While FEC is enabled, Record replies — the loss-sensitive,
        // unretried audio path — go out wrapped in FEC frames; everything
        // else stays plain.
        let mut sent_fec = false;
        if function == LsFunction::Record {
            if let Some(cfg) = FecConfig::from_reg(self.regs[usize::from(LS_REG_FEC)]) {
                if !self.fec_tx.contains_key(&peer) && self.fec_tx.len() >= LS_MAX_PEERS {
                    self.fec_tx.clear();
                }
                let enc = self
                    .fec_tx
                    .entry(peer)
                    .or_insert_with(|| FecEncoder::new(cfg));
                if enc.config() != cfg {
                    *enc = FecEncoder::new(cfg);
                }
                enc.push(&encoded, |frame| {
                    let _ = self.socket.send_to(frame, peer);
                });
                sent_fec = true;
            }
        }
        if !sent_fec {
            let _ = self.socket.send_to(&encoded, peer);
        }
        if cache.len() == LS_REPLY_CACHE {
            cache.pop_front();
        }
        // The cache keeps the *plain* reply: a retransmitted request gets
        // a direct answer even if the FEC'd original was lost.
        cache.push_back((peer, seq, encoded));
    }

    /// Processes one request into its reply.
    pub fn process(&mut self, req: LsPacket<'_>) -> LsPacket<'_> {
        let mut time = self.hw.service();
        let mut aux = req.aux;
        self.reply_data.clear();
        match req.function {
            LsFunction::Play => {
                self.hw.write_play(req.time, req.data);
            }
            LsFunction::Record => {
                let n = u32::from(req.aux).min(LS_BUFFER_SAMPLES);
                self.reply_data.resize(n as usize, 0);
                self.hw.read_rec(req.time, &mut self.reply_data);
                // A Record reply's time is the *sample start time* (the
                // request's), not "now": a late or FEC-recovered reply
                // must still say where its samples belong on the device
                // timeline so the jitter buffer can slot them in.
                time = req.time;
            }
            LsFunction::ReadReg => {
                aux = self
                    .regs
                    .get(req.param as usize)
                    .copied()
                    .unwrap_or_default();
            }
            LsFunction::WriteReg => {
                if let Some(r) = self.regs.get_mut(req.param as usize) {
                    *r = req.aux;
                }
            }
            LsFunction::Loopback => {
                self.reply_data.extend_from_slice(req.data);
            }
            LsFunction::Reset => {
                self.regs = [0; LS_NUM_REGS];
            }
        }
        LsPacket {
            seq: req.seq,
            time,
            function: req.function,
            param: req.param,
            aux,
            data: &self.reply_data,
        }
    }
}

/// The workstation side of the private protocol, used by the `Als` backend.
///
/// Nothing here waits on the network.  [`Self::send`] puts one request on
/// the wire and returns; [`Self::drain`] reads the datagrams that have
/// already arrived and routes what they carry: recorded audio to
/// [`Self::take_audio`], clock-probe replies to the time estimate, and
/// register replies to the acknowledgement of their writes.
///
/// Once warm it allocates nothing: requests are encoded into a buffer it
/// keeps, replies are decoded where they landed, and recorded audio waits
/// in sample buffers it reuses.
pub struct LineServerLink {
    socket: UdpSocket,
    next_seq: u32,
    /// The request being sent, encoded.
    tx: Vec<u8>,
    /// The one receive buffer every drained datagram lands in.
    rx: Vec<u8>,
    /// Decoder for inbound FEC frames (Record replies), always live.
    fec_rx: FecDecoder,
    /// What routing a reply updates.
    routes: Routes,
    /// The link's health counters: retransmissions, undecodable datagrams
    /// and FEC outcomes are counted here, the rest by the `Als` backend.
    counters: Arc<LinkCounters>,
}

/// The link's state that replies update, apart from the FEC decoder that
/// hands them over.
struct Routes {
    /// `(local instant, remote time)` of the newest clock observation: the
    /// send instant of the probe a reply answered, and the time stamp it
    /// carried.  Before the first reply, the connect instant and time zero.
    last_observation: (Instant, ATime),
    /// `(seq, send instant)` of the clock probes not yet answered, oldest
    /// first.
    probes: VecDeque<(u32, Instant)>,
    /// `(register, value)` of the register writes not yet acknowledged.
    writes: Vec<(u8, u16)>,
    /// Encoder for outbound `Play` traffic, set once the LineServer
    /// acknowledges a write of [`LS_REG_FEC`].
    fec_tx: Option<FecEncoder>,
    /// Recorded audio drained from the socket (`Record` replies, plain or
    /// FEC-recovered), waiting for the backend's jitter buffer: each
    /// reply's start time and samples, oldest first.
    audio: VecDeque<(ATime, Vec<u8>)>,
    /// Sample buffers of audio already taken, for the next replies.  With
    /// `audio`, they never number more than [`LINK_AUDIO_QUEUE`].
    spare: Vec<Vec<u8>>,
}

impl LineServerLink {
    /// Connects to a LineServer at `addr`, from the unspecified address
    /// of its family: the kernel picks the source address that reaches it.
    /// The socket never blocks.
    #[expect(clippy::disallowed_methods, reason = "anchors the estimate (§7.4.3)")]
    pub fn connect(addr: SocketAddr) -> io::Result<LineServerLink> {
        let any: IpAddr = match addr {
            SocketAddr::V4(_) => Ipv4Addr::UNSPECIFIED.into(),
            SocketAddr::V6(_) => Ipv6Addr::UNSPECIFIED.into(),
        };
        let socket = UdpSocket::bind((any, 0))?;
        socket.connect(addr)?;
        socket.set_nonblocking(true)?;
        Ok(LineServerLink {
            socket,
            next_seq: 1,
            tx: Vec::with_capacity(LsPacket::HEADER + LS_BUFFER_SAMPLES as usize),
            rx: vec![0; 65_536],
            fec_rx: FecDecoder::new(),
            routes: Routes {
                last_observation: (Instant::now(), ATime::ZERO),
                probes: VecDeque::with_capacity(LINK_PROBES),
                writes: Vec::with_capacity(LS_NUM_REGS),
                fec_tx: None,
                audio: VecDeque::with_capacity(LINK_AUDIO_QUEUE),
                spare: Vec::with_capacity(LINK_AUDIO_QUEUE),
            },
            counters: Arc::default(),
        })
    }

    /// Sends one request and returns its sequence number without waiting
    /// for a reply.  `Play` goes out FEC-framed once FEC is negotiated:
    /// loss on the play path is absorbed by parity, never by a resend.  A
    /// `Loopback` is a clock probe, and a `WriteReg` stays pending until
    /// [`Self::drain`] sees its acknowledgement.
    #[expect(clippy::disallowed_methods, reason = "stamps probes (§7.4.3)")]
    pub fn send(&mut self, req: LsPacket<'_>) -> io::Result<u32> {
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(1);
        let routes = &mut self.routes;
        match req.function {
            LsFunction::Loopback => {
                if routes.probes.len() == LINK_PROBES {
                    routes.probes.pop_front();
                }
                routes.probes.push_back((seq, Instant::now()));
            }
            LsFunction::WriteReg => match routes.writes.iter_mut().find(|w| w.0 == req.param) {
                Some(w) => w.1 = req.aux,
                None => routes.writes.push((req.param, req.aux)),
            },
            _ => {}
        }
        LsPacket { seq, ..req }.encode_into(&mut self.tx);
        match &mut routes.fec_tx {
            Some(enc) if req.function == LsFunction::Play => {
                // Every frame goes to the encoder's group; sending stops
                // at the first error, which is returned.
                let mut sent = Ok(0);
                enc.push(&self.tx, |frame| {
                    if sent.is_ok() {
                        sent = self.socket.send(frame);
                    }
                });
                sent?;
            }
            _ => {
                self.socket.send(&self.tx)?;
            }
        }
        Ok(seq)
    }

    /// Re-sends every register write not yet acknowledged, each as a new
    /// request: a write is idempotent, and the firmware drops a repeated
    /// sequence number older than the newest it has executed.
    pub fn resend_writes(&mut self) -> io::Result<()> {
        for i in 0..self.routes.writes.len() {
            let (param, aux) = self.routes.writes[i];
            self.counters.add(Link::Retransmits, 1);
            self.send(LsPacket {
                seq: 0,
                time: ATime::ZERO,
                function: LsFunction::WriteReg,
                param,
                aux,
                data: &[],
            })?;
        }
        Ok(())
    }

    /// Reads every datagram already queued on the socket, without waiting,
    /// hands each packet it carries to `seen`, and routes it.  Returns how
    /// many datagrams it read.
    pub fn drain(&mut self, mut seen: impl FnMut(&LsPacket<'_>)) -> usize {
        let mut rx = std::mem::take(&mut self.rx);
        let mut datagrams = 0;
        while let Ok(n) = self.socket.recv(&mut rx) {
            datagrams += 1;
            self.accept_datagram(&rx[..n], &mut seen);
        }
        self.rx = rx;
        datagrams
    }

    /// Hands the recorded audio drained so far to `sink`, oldest first:
    /// each reply's start time and samples.
    pub fn take_audio(&mut self, mut sink: impl FnMut(ATime, &[u8])) {
        let routes = &mut self.routes;
        while let Some((time, samples)) = routes.audio.pop_front() {
            sink(time, &samples);
            routes.spare.push(samples);
        }
    }

    /// The link's health counters.
    pub fn counters(&self) -> &Arc<LinkCounters> {
        &self.counters
    }

    /// Unwraps one inbound datagram: an FEC frame can release several
    /// packets (the lost one plus the parity that repaired it).
    fn accept_datagram(&mut self, bytes: &[u8], seen: &mut dyn FnMut(&LsPacket<'_>)) {
        // FEC first: magic + CRC make misclassification of a plain packet
        // practically impossible.
        if let Some(frame) = FecFrame::decode(bytes) {
            let before = self.fec_rx.stats();
            let routes = &mut self.routes;
            self.fec_rx.push(frame, |payload| {
                if let Some(pkt) = LsPacket::decode(payload) {
                    seen(&pkt);
                    routes.route(pkt);
                }
            });
            let after = self.fec_rx.stats();
            self.counters
                .add(Link::FecRecovered, after.recovered - before.recovered);
            self.counters.add(
                Link::FecUnrecoverable,
                after.unrecoverable - before.unrecoverable,
            );
            return;
        }
        match LsPacket::decode(bytes) {
            Some(pkt) => {
                seen(&pkt);
                self.routes.route(pkt);
            }
            // Truncated or corrupted (CRC rejections land here too).
            None => self.counters.add(Link::CrcDrops, 1),
        }
    }

    /// Estimates the LineServer's current device time from the last clock
    /// observation and the local time elapsed since (§7.4.3).  Anchored at
    /// a probe's send instant, it runs ahead of the device by one one-way
    /// delay: the time at which a request sent now arrives.
    #[expect(clippy::disallowed_methods, reason = "extrapolates time (§7.4.3)")]
    pub fn estimate_time(&self, rate: u32) -> ATime {
        let (at, remote) = self.routes.last_observation;
        remote + (at.elapsed().as_secs_f64() * f64::from(rate)) as u32
    }
}

impl Routes {
    /// Routes one reply: audio is queued, a probe reply re-anchors the
    /// time estimate, a register reply acknowledges its write.
    fn route(&mut self, pkt: LsPacket<'_>) {
        match pkt.function {
            LsFunction::Record if !pkt.data.is_empty() => {
                // A full queue gives up its oldest reply's buffer.
                let mut samples = if self.audio.len() >= LINK_AUDIO_QUEUE {
                    self.audio.pop_front().map(|(_, samples)| samples)
                } else {
                    self.spare.pop()
                }
                .unwrap_or_else(|| Vec::with_capacity(LS_BUFFER_SAMPLES as usize));
                samples.clear();
                samples.extend_from_slice(pkt.data);
                self.audio.push_back((pkt.time, samples));
            }
            LsFunction::Loopback => {
                // Anchored at the probe's send instant, so a late drain
                // cannot skew it; a reply to an older probe than the
                // newest answered one finds nothing and is ignored.
                if let Some(i) = self.probes.iter().position(|p| p.0 == pkt.seq) {
                    self.last_observation = (self.probes[i].1, pkt.time);
                    self.probes.drain(..=i);
                }
            }
            LsFunction::WriteReg => {
                self.writes.retain(|&w| w != (pkt.param, pkt.aux));
                if pkt.param == LS_REG_FEC {
                    let cfg = FecConfig::from_reg(pkt.aux);
                    if self.fec_tx.as_ref().map(FecEncoder::config) != cfg {
                        self.fec_tx = cfg.map(FecEncoder::new);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests wait, read raw time")]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::io::{CaptureSink, ToneSource};

    fn packet(function: LsFunction) -> LsPacket<'static> {
        LsPacket {
            seq: 7,
            time: ATime::new(100),
            function,
            param: 2,
            aux: 34,
            data: &[1, 2, 3],
        }
    }

    /// `p`'s wire bytes.
    fn wire(p: LsPacket<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        p.encode_into(&mut out);
        out
    }

    #[test]
    fn packet_round_trip() {
        for f in [
            LsFunction::Play,
            LsFunction::Record,
            LsFunction::ReadReg,
            LsFunction::WriteReg,
            LsFunction::Loopback,
            LsFunction::Reset,
        ] {
            let p = packet(f);
            assert_eq!(LsPacket::decode(&wire(p)), Some(p));
        }
        assert_eq!(LsPacket::decode(&[0u8; 4]), None);
        let mut bad = wire(packet(LsFunction::Play));
        bad[8] = 99; // Unknown function.
        assert_eq!(LsPacket::decode(&bad), None);
    }

    #[test]
    fn firmware_processes_all_functions() {
        let clock = Arc::new(VirtualClock::new(8000));
        let (sink, capture) = CaptureSink::new(1 << 16);
        let (mut fw, _addr) = LineServerFirmware::boot(
            clock.clone(),
            Box::new(sink),
            Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0)),
        )
        .unwrap();

        // Write and read back a register.
        let r = fw.process(LsPacket {
            seq: 1,
            time: ATime::ZERO,
            function: LsFunction::WriteReg,
            param: LS_REG_OUTPUT_GAIN,
            aux: 42,
            data: &[],
        });
        assert_eq!(r.seq, 1);
        let r = fw.process(LsPacket {
            seq: 2,
            time: ATime::ZERO,
            function: LsFunction::ReadReg,
            param: LS_REG_OUTPUT_GAIN,
            aux: 0,
            data: &[],
        });
        assert_eq!(r.aux, 42);

        // Loopback echoes data.
        let r = fw.process(LsPacket {
            seq: 3,
            time: ATime::ZERO,
            function: LsFunction::Loopback,
            param: 0,
            aux: 0,
            data: &[9, 9, 9],
        });
        assert_eq!(r.data, [9, 9, 9]);

        // Play at t=10, advance, verify the sink heard it.
        fw.process(LsPacket {
            seq: 4,
            time: ATime::new(10),
            function: LsFunction::Play,
            param: 0,
            aux: 0,
            data: &[0x21; 20],
        });
        clock.advance(100);
        fw.hw.service();
        let cap = capture.lock().unwrap();
        assert_eq!(&cap[10..30], &[0x21; 20][..]);
        drop(cap);

        // Record from the tone source.
        clock.advance(100);
        let r = fw.process(LsPacket {
            seq: 5,
            time: ATime::new(120),
            function: LsFunction::Record,
            param: 0,
            aux: 64,
            data: &[],
        });
        assert_eq!(r.data.len(), 64);
        assert!(r.data.iter().any(|&b| b != af_dsp::g711::ULAW_SILENCE));

        // Reset clears registers.
        fw.process(LsPacket {
            seq: 6,
            time: ATime::ZERO,
            function: LsFunction::Reset,
            param: 0,
            aux: 0,
            data: &[],
        });
        let r = fw.process(LsPacket {
            seq: 7,
            time: ATime::ZERO,
            function: LsFunction::ReadReg,
            param: LS_REG_OUTPUT_GAIN,
            aux: 0,
            data: &[],
        });
        assert_eq!(r.aux, 0);
    }

    /// A request to hand to [`LineServerLink::send`].
    fn request(function: LsFunction, param: u8, aux: u16, data: &[u8]) -> LsPacket<'_> {
        LsPacket {
            seq: 0,
            time: ATime::ZERO,
            function,
            param,
            aux,
            data,
        }
    }

    /// Sends `req` and drains until its reply arrives: the test's own
    /// bounded wait, since the link never waits.  Every 25 ms without a
    /// reply, a write is re-sent by the link and anything else is sent
    /// again as a new request.  Returns the reply's header and its data.
    fn exchange(link: &mut LineServerLink, req: LsPacket<'_>) -> (LsPacket<'static>, Vec<u8>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut seq = link.send(req).unwrap();
        loop {
            let sent = Instant::now();
            while sent.elapsed() < Duration::from_millis(25) {
                let mut reply = None;
                link.drain(|p| {
                    let write_ack = p.function == LsFunction::WriteReg
                        && (p.param, p.aux) == (req.param, req.aux);
                    if p.function == req.function && (p.seq == seq || write_ack) {
                        reply = Some((LsPacket { data: &[], ..*p }, p.data.to_vec()));
                    }
                });
                if let Some(reply) = reply {
                    return reply;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(Instant::now() < deadline, "no reply to {req:?}");
            if req.function == LsFunction::WriteReg {
                link.resend_writes().unwrap();
            } else {
                seq = link.send(req).unwrap();
            }
        }
    }

    #[test]
    fn link_transacts_over_udp() {
        let clock = Arc::new(VirtualClock::new(8000));
        let (fw, addr) = LineServerFirmware::boot(
            clock.clone(),
            Box::new(crate::io::NullSink),
            Box::new(crate::io::SilenceSource::new(0xFF)),
        )
        .unwrap();
        let stop = fw.stop_handle();
        let handle = std::thread::spawn(move || fw.run());

        let mut link = LineServerLink::connect(addr).unwrap();
        clock.advance(500);
        let (reply, data) = exchange(
            &mut link,
            request(LsFunction::Loopback, 0, 0, &[1, 2, 3, 4]),
        );
        assert_eq!(data, [1, 2, 3, 4]);
        assert!(reply.time.ticks() >= 500);
        assert!(link.estimate_time(8000).ticks() >= 500);

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    /// Boots a firmware with null/silence endpoints and runs it on a thread.
    fn booted(
        clock: SharedClock,
    ) -> (
        SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<()>,
    ) {
        let (fw, addr) = LineServerFirmware::boot(
            clock,
            Box::new(crate::io::NullSink),
            Box::new(crate::io::SilenceSource::new(0xFF)),
        )
        .unwrap();
        let stop = fw.stop_handle();
        let handle = std::thread::spawn(move || fw.run());
        (addr, stop, handle)
    }

    #[test]
    fn fec_turns_on_when_its_write_is_acknowledged() {
        let clock = Arc::new(VirtualClock::new(8000));
        let (addr, stop, handle) = booted(clock);
        let mut link = LineServerLink::connect(addr).unwrap();
        let fec = FecConfig::default();
        let write = request(LsFunction::WriteReg, LS_REG_FEC, fec.to_reg(), &[]);
        link.send(write).unwrap();
        assert!(
            link.routes.fec_tx.is_none(),
            "FEC before the acknowledgement"
        );
        exchange(&mut link, write);
        assert_eq!(
            link.routes.fec_tx.as_ref().map(FecEncoder::config),
            Some(fec)
        );

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn retransmitted_request_is_answered_from_cache_not_reexecuted() {
        let clock = Arc::new(VirtualClock::new(8000));
        let (addr, stop, handle) = booted(clock.clone());

        // Talk to the firmware with a raw socket so the same encoded bytes
        // (same seq) can be sent twice, as a timed-out link would.
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sock.connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        clock.advance(100);
        let req = wire(LsPacket {
            seq: 42,
            time: ATime::ZERO,
            function: LsFunction::Loopback,
            param: 0,
            aux: 0,
            data: &[5, 6, 7],
        });

        let mut buf = vec![0u8; 65_536];
        sock.send(&req).unwrap();
        let n = sock.recv(&mut buf).unwrap();
        let first = buf[..n].to_vec();

        // Advance device time, then retransmit.  A re-executed request
        // would stamp its reply with the later time; a cache hit returns
        // the original reply verbatim.
        clock.advance(500);
        sock.send(&req).unwrap();
        let n = sock.recv(&mut buf).unwrap();
        assert_eq!(first, buf[..n], "duplicate seq must be served from cache");

        // A fresh sequence number executes normally and sees the new time.
        let mut fresh = LsPacket::decode(&req).unwrap();
        fresh.seq = 43;
        sock.send(&wire(fresh)).unwrap();
        let n = sock.recv(&mut buf).unwrap();
        let third = LsPacket::decode(&buf[..n]).unwrap();
        let first = LsPacket::decode(&first).unwrap();
        assert!(
            third.time.ticks() > first.time.ticks(),
            "new seq must be re-executed"
        );

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn stale_retransmit_past_cache_horizon_is_not_reexecuted() {
        // The eviction edge: a retransmission old enough to have fallen
        // out of the 32-entry reply cache must be dropped silently by the
        // stale-sequence guard — not executed a second time.
        let clock = Arc::new(VirtualClock::new(8000));
        let (addr, stop, handle) = booted(clock.clone());

        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sock.connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = vec![0u8; 65_536];

        // seq 1: set the output gain to 1.
        let stale = wire(LsPacket {
            seq: 1,
            time: ATime::ZERO,
            function: LsFunction::WriteReg,
            param: LS_REG_OUTPUT_GAIN,
            aux: 1,
            data: &[],
        });
        sock.send(&stale).unwrap();
        sock.recv(&mut buf).unwrap();

        // Overwrite the gain, then push the cache well past seq 1 with a
        // full window of newer exchanges.
        for seq in 2..2 + LS_REPLY_CACHE as u32 + 4 {
            let function = if seq == 2 {
                LsFunction::WriteReg
            } else {
                LsFunction::Loopback
            };
            let req = LsPacket {
                seq,
                time: ATime::ZERO,
                function,
                param: LS_REG_OUTPUT_GAIN,
                aux: 9,
                data: &[],
            };
            sock.send(&wire(req)).unwrap();
            sock.recv(&mut buf).unwrap();
        }

        // Retransmit the evicted seq-1 write.  Re-execution would reset
        // the gain to 1; a cache hit would produce a reply.  At-most-once
        // past the horizon demands neither: silence.
        sock.send(&stale).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        assert!(
            sock.recv(&mut buf).is_err(),
            "stale retransmit must be dropped silently"
        );

        // The register still holds the newer value.
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let read = LsPacket {
            seq: 100,
            time: ATime::ZERO,
            function: LsFunction::ReadReg,
            param: LS_REG_OUTPUT_GAIN,
            aux: 0,
            data: &[],
        };
        sock.send(&wire(read)).unwrap();
        let n = sock.recv(&mut buf).unwrap();
        let reply = LsPacket::decode(&buf[..n]).unwrap();
        assert_eq!(reply.aux, 9, "stale retransmit must not re-execute");

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn link_recovers_over_lossy_reordering_path() {
        let clock = Arc::new(VirtualClock::new(8000));
        let (addr, stop, handle) = booted(clock.clone());

        // A router between link and firmware: 30% loss, duplication, and
        // jitter that reorders, in both directions.
        let hop = af_chaos::HopPlan::new()
            .drop(0.3)
            .duplicate(0.2)
            .jitter(Duration::from_millis(8));
        let router = af_chaos::Router::spawn(addr, vec![hop], 0xA51F).unwrap();
        let mut link = LineServerLink::connect(router.addr()).unwrap();

        // Register writes followed by read-backs: every exchange must
        // eventually succeed, and dedup must keep the state consistent
        // despite duplicated and retransmitted writes.
        for i in 0..10u16 {
            clock.advance(50);
            let write = request(LsFunction::WriteReg, LS_REG_OUTPUT_GAIN, 100 + i, &[]);
            exchange(&mut link, write);
            let read = request(LsFunction::ReadReg, LS_REG_OUTPUT_GAIN, 0, &[]);
            assert_eq!(exchange(&mut link, read).0.aux, 100 + i);
        }

        let hop = router.hop_stats()[0];
        assert!(
            hop.dropped_loss > 0 && hop.duplicated > 0,
            "the router must actually have injected faults: {hop:?}"
        );
        assert!(link.counters().get(Link::Retransmits) > 0);

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn link_reaches_an_ipv6_peer() {
        // A peer on `[::1]` answering one Loopback exchange: the link's
        // socket must be of the peer's family to reach it at all.
        let peer = UdpSocket::bind("[::1]:0").expect("IPv6 loopback");
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let addr = peer.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let mut buf = vec![0u8; 65_536];
            let (n, from) = peer.recv_from(&mut buf).unwrap();
            let req = LsPacket::decode(&buf[..n]).unwrap();
            peer.send_to(&wire(req), from).unwrap();
        });
        let mut link = LineServerLink::connect(addr).unwrap();
        let (_, data) = exchange(&mut link, request(LsFunction::Loopback, 0, 0, &[1, 2, 3]));
        assert_eq!(data, [1, 2, 3]);
        echo.join().unwrap();
    }
}
