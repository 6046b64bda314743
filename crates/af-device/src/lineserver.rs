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

/// One LineServer packet; requests and replies share this format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LsPacket {
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
    pub data: Vec<u8>,
}

impl LsPacket {
    /// Header size in bytes.
    pub const HEADER: usize = 12;

    /// Encodes the packet (fields little-endian; this private protocol has a
    /// fixed order, unlike the client protocol).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER + self.data.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.time.ticks().to_le_bytes());
        out.push(self.function as u8);
        out.push(self.param);
        out.extend_from_slice(&self.aux.to_le_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Decodes a packet, or `None` if malformed.
    pub fn decode(bytes: &[u8]) -> Option<LsPacket> {
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
            data: bytes[Self::HEADER..].to_vec(),
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
            let payloads = self.fec_rx.entry(peer).or_default().push(frame);
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
        let encoded = reply.encode();
        // While FEC is enabled, Record replies — the loss-sensitive,
        // unretried audio path — go out wrapped in FEC frames; everything
        // else stays plain.
        let mut sent_fec = false;
        if reply.function == LsFunction::Record {
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
                for frame in enc.push(&encoded) {
                    let _ = self.socket.send_to(&frame, peer);
                }
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
    pub fn process(&mut self, req: LsPacket) -> LsPacket {
        let now = self.hw.service();
        let mut reply = LsPacket {
            seq: req.seq,
            time: now,
            function: req.function,
            param: req.param,
            aux: req.aux,
            data: Vec::new(),
        };
        match req.function {
            LsFunction::Play => {
                self.hw.write_play(req.time, &req.data);
            }
            LsFunction::Record => {
                let n = u32::from(req.aux).min(LS_BUFFER_SAMPLES);
                let mut data = vec![0u8; n as usize];
                self.hw.read_rec(req.time, &mut data);
                reply.data = data;
                // A Record reply's time is the *sample start time* (the
                // request's), not "now": a late or FEC-recovered reply
                // must still say where its samples belong on the device
                // timeline so the jitter buffer can slot them in.
                reply.time = req.time;
            }
            LsFunction::ReadReg => {
                reply.aux = self
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
                reply.data = req.data;
            }
            LsFunction::Reset => {
                self.regs = [0; LS_NUM_REGS];
            }
        }
        reply
    }
}

/// The workstation side of the private protocol, used by the `Als` backend.
///
/// Nothing here waits on the network.  [`Self::send`] puts one request on
/// the wire and returns; [`Self::drain`] reads the datagrams that have
/// already arrived and routes what they carry: recorded audio to
/// [`Self::take_audio`], clock-probe replies to the time estimate, and
/// register replies to the acknowledgement of their writes.
pub struct LineServerLink {
    socket: UdpSocket,
    next_seq: u32,
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
    /// Decoder for inbound FEC frames (Record replies), always live.
    fec_rx: FecDecoder,
    /// Recorded audio drained from the socket (`Record` replies, plain or
    /// FEC-recovered), waiting for the backend's jitter buffer.
    pending_audio: VecDeque<LsPacket>,
    /// The one receive buffer every drained datagram lands in.
    rx: Vec<u8>,
    /// The link's health counters: retransmissions, undecodable datagrams
    /// and FEC outcomes are counted here, the rest by the `Als` backend.
    counters: Arc<LinkCounters>,
}

impl LineServerLink {
    /// Connects to a LineServer at `addr`, from the unspecified address
    /// of its family: the kernel picks the source address that reaches it.
    /// The socket never blocks.
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
            last_observation: (Instant::now(), ATime::ZERO),
            probes: VecDeque::with_capacity(LINK_PROBES),
            writes: Vec::new(),
            fec_tx: None,
            fec_rx: FecDecoder::new(),
            pending_audio: VecDeque::new(),
            rx: vec![0; 65_536],
            counters: Arc::default(),
        })
    }

    /// Sends one request and returns its sequence number without waiting
    /// for a reply.  `Play` goes out FEC-framed once FEC is negotiated:
    /// loss on the play path is absorbed by parity, never by a resend.  A
    /// `Loopback` is a clock probe, and a `WriteReg` stays pending until
    /// [`Self::drain`] sees its acknowledgement.
    pub fn send(&mut self, mut req: LsPacket) -> io::Result<u32> {
        req.seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        match req.function {
            LsFunction::Loopback => {
                if self.probes.len() == LINK_PROBES {
                    self.probes.pop_front();
                }
                self.probes.push_back((req.seq, Instant::now()));
            }
            LsFunction::WriteReg => match self.writes.iter_mut().find(|w| w.0 == req.param) {
                Some(w) => w.1 = req.aux,
                None => self.writes.push((req.param, req.aux)),
            },
            _ => {}
        }
        let encoded = req.encode();
        match &mut self.fec_tx {
            Some(enc) if req.function == LsFunction::Play => {
                for frame in enc.push(&encoded) {
                    self.socket.send(&frame)?;
                }
            }
            _ => {
                self.socket.send(&encoded)?;
            }
        }
        Ok(req.seq)
    }

    /// Re-sends every register write not yet acknowledged, each as a new
    /// request: a write is idempotent, and the firmware drops a repeated
    /// sequence number older than the newest it has executed.
    pub fn resend_writes(&mut self) -> io::Result<()> {
        for i in 0..self.writes.len() {
            let (param, aux) = self.writes[i];
            self.counters.add(Link::Retransmits, 1);
            self.send(LsPacket {
                seq: 0,
                time: ATime::ZERO,
                function: LsFunction::WriteReg,
                param,
                aux,
                data: Vec::new(),
            })?;
        }
        Ok(())
    }

    /// Reads every datagram already queued on the socket, without waiting,
    /// hands each packet it carries to `seen`, and routes it.  Returns how
    /// many datagrams it read.
    pub fn drain(&mut self, mut seen: impl FnMut(&LsPacket)) -> usize {
        let mut rx = std::mem::take(&mut self.rx);
        let mut datagrams = 0;
        while let Ok(n) = self.socket.recv(&mut rx) {
            datagrams += 1;
            self.accept_datagram(&rx[..n], &mut seen);
        }
        self.rx = rx;
        datagrams
    }

    /// Takes the recorded audio drained so far.
    pub fn take_audio(&mut self) -> Vec<LsPacket> {
        self.pending_audio.drain(..).collect()
    }

    /// The link's health counters.
    pub fn counters(&self) -> &Arc<LinkCounters> {
        &self.counters
    }

    /// Unwraps one inbound datagram: an FEC frame can release several
    /// packets (the lost one plus the parity that repaired it).
    fn accept_datagram(&mut self, bytes: &[u8], seen: &mut dyn FnMut(&LsPacket)) {
        // FEC first: magic + CRC make misclassification of a plain packet
        // practically impossible.
        if let Some(frame) = FecFrame::decode(bytes) {
            let before = self.fec_rx.stats();
            let payloads = self.fec_rx.push(frame);
            let after = self.fec_rx.stats();
            self.counters
                .add(Link::FecRecovered, after.recovered - before.recovered);
            self.counters.add(
                Link::FecUnrecoverable,
                after.unrecoverable - before.unrecoverable,
            );
            for pkt in payloads.iter().filter_map(|p| LsPacket::decode(p)) {
                seen(&pkt);
                self.route(pkt);
            }
            return;
        }
        match LsPacket::decode(bytes) {
            Some(pkt) => {
                seen(&pkt);
                self.route(pkt);
            }
            // Truncated or corrupted (CRC rejections land here too).
            None => self.counters.add(Link::CrcDrops, 1),
        }
    }

    /// Routes one reply: audio is queued, a probe reply re-anchors the
    /// time estimate, a register reply acknowledges its write.
    fn route(&mut self, pkt: LsPacket) {
        match pkt.function {
            LsFunction::Record if !pkt.data.is_empty() => {
                if self.pending_audio.len() >= LINK_AUDIO_QUEUE {
                    self.pending_audio.pop_front();
                }
                self.pending_audio.push_back(pkt);
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

    /// Estimates the LineServer's current device time from the last clock
    /// observation and the local time elapsed since (§7.4.3).  Anchored at
    /// a probe's send instant, it runs ahead of the device by one one-way
    /// delay: the time at which a request sent now arrives.
    pub fn estimate_time(&self, rate: u32) -> ATime {
        let (at, remote) = self.last_observation;
        remote + (at.elapsed().as_secs_f64() * f64::from(rate)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::io::{CaptureSink, ToneSource};

    fn packet(function: LsFunction) -> LsPacket {
        LsPacket {
            seq: 7,
            time: ATime::new(100),
            function,
            param: 2,
            aux: 34,
            data: vec![1, 2, 3],
        }
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
            assert_eq!(LsPacket::decode(&p.encode()), Some(p));
        }
        assert_eq!(LsPacket::decode(&[0u8; 4]), None);
        let mut bad = packet(LsFunction::Play).encode();
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
            data: vec![],
        });
        assert_eq!(r.seq, 1);
        let r = fw.process(LsPacket {
            seq: 2,
            time: ATime::ZERO,
            function: LsFunction::ReadReg,
            param: LS_REG_OUTPUT_GAIN,
            aux: 0,
            data: vec![],
        });
        assert_eq!(r.aux, 42);

        // Loopback echoes data.
        let r = fw.process(LsPacket {
            seq: 3,
            time: ATime::ZERO,
            function: LsFunction::Loopback,
            param: 0,
            aux: 0,
            data: vec![9, 9, 9],
        });
        assert_eq!(r.data, vec![9, 9, 9]);

        // Play at t=10, advance, verify the sink heard it.
        fw.process(LsPacket {
            seq: 4,
            time: ATime::new(10),
            function: LsFunction::Play,
            param: 0,
            aux: 0,
            data: vec![0x21; 20],
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
            data: vec![],
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
            data: vec![],
        });
        let r = fw.process(LsPacket {
            seq: 7,
            time: ATime::ZERO,
            function: LsFunction::ReadReg,
            param: LS_REG_OUTPUT_GAIN,
            aux: 0,
            data: vec![],
        });
        assert_eq!(r.aux, 0);
    }

    /// A request to hand to [`LineServerLink::send`].
    fn request(function: LsFunction, param: u8, aux: u16, data: &[u8]) -> LsPacket {
        LsPacket {
            seq: 0,
            time: ATime::ZERO,
            function,
            param,
            aux,
            data: data.to_vec(),
        }
    }

    /// Sends `req` and drains until its reply arrives: the test's own
    /// bounded wait, since the link never waits.  Every 25 ms without a
    /// reply, a write is re-sent by the link and anything else is sent
    /// again as a new request.
    fn exchange(link: &mut LineServerLink, req: LsPacket) -> LsPacket {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut seq = link.send(req.clone()).unwrap();
        loop {
            let sent = Instant::now();
            while sent.elapsed() < Duration::from_millis(25) {
                let mut reply = None;
                link.drain(|p| {
                    let write_ack = p.function == LsFunction::WriteReg
                        && (p.param, p.aux) == (req.param, req.aux);
                    if p.function == req.function && (p.seq == seq || write_ack) {
                        reply = Some(p.clone());
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
                seq = link.send(req.clone()).unwrap();
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
        let reply = exchange(
            &mut link,
            request(LsFunction::Loopback, 0, 0, &[1, 2, 3, 4]),
        );
        assert_eq!(reply.data, vec![1, 2, 3, 4]);
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
        link.send(write.clone()).unwrap();
        assert!(link.fec_tx.is_none(), "FEC before the acknowledgement");
        exchange(&mut link, write);
        assert_eq!(link.fec_tx.as_ref().map(FecEncoder::config), Some(fec));

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
        let req = LsPacket {
            seq: 42,
            time: ATime::ZERO,
            function: LsFunction::Loopback,
            param: 0,
            aux: 0,
            data: vec![5, 6, 7],
        }
        .encode();

        let mut buf = vec![0u8; 65_536];
        sock.send(&req).unwrap();
        let n = sock.recv(&mut buf).unwrap();
        let first = LsPacket::decode(&buf[..n]).unwrap();

        // Advance device time, then retransmit.  A re-executed request
        // would stamp its reply with the later time; a cache hit returns
        // the original reply verbatim.
        clock.advance(500);
        sock.send(&req).unwrap();
        let n = sock.recv(&mut buf).unwrap();
        let second = LsPacket::decode(&buf[..n]).unwrap();
        assert_eq!(first, second, "duplicate seq must be served from cache");

        // A fresh sequence number executes normally and sees the new time.
        let mut fresh = LsPacket::decode(&req).unwrap();
        fresh.seq = 43;
        sock.send(&fresh.encode()).unwrap();
        let n = sock.recv(&mut buf).unwrap();
        let third = LsPacket::decode(&buf[..n]).unwrap();
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
        let stale = LsPacket {
            seq: 1,
            time: ATime::ZERO,
            function: LsFunction::WriteReg,
            param: LS_REG_OUTPUT_GAIN,
            aux: 1,
            data: vec![],
        }
        .encode();
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
                data: vec![],
            };
            sock.send(&req.encode()).unwrap();
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
            data: vec![],
        };
        sock.send(&read.encode()).unwrap();
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
            assert_eq!(exchange(&mut link, read).aux, 100 + i);
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
            peer.send_to(&req.encode(), from).unwrap();
        });
        let mut link = LineServerLink::connect(addr).unwrap();
        let reply = exchange(&mut link, request(LsFunction::Loopback, 0, 0, &[1, 2, 3]));
        assert_eq!(reply.data, [1, 2, 3]);
        echo.join().unwrap();
    }
}
