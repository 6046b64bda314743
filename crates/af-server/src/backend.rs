//! Hardware backends: what the device-dependent layer drives.
//!
//! The paper's DDAs drove LoFi shared-memory rings directly (`Alofi`),
//! kernel device drivers (`Aaxp`/`Asparc`), or a detached network box
//! (`Als`).  All expose the same contract to the buffering engine: a device
//! time, a way to make the hardware consistent, and time-indexed play/record
//! access.

use af_device::fec::FecConfig;
use af_device::jitter::JitterBuffer;
use af_device::lineserver::{LineServerLink, LsFunction, LsPacket, LS_REG_FEC};
use af_device::stats::Link;
use af_device::VirtualAudioHw;
use af_time::ATime;

/// The device-dependent hardware interface.
pub trait HwBackend: Send {
    /// A cheap estimate of the current device time.
    fn now(&mut self) -> ATime;

    /// Makes the hardware consistent with the clock and returns the current
    /// device time (the update task's hardware half).
    fn service(&mut self) -> ATime;

    /// Writes play frames at `time` (native encoding, gain already applied).
    fn write_play(&mut self, time: ATime, data: &[u8]);

    /// Reads recorded frames at `time`.
    fn read_rec(&mut self, time: ATime, out: &mut [u8]);

    /// How far ahead of "now" the update task keeps the hardware filled,
    /// in frames (the hardware ring size).
    fn lead_frames(&self) -> u32;
}

/// A directly attached simulated device (the `Alofi`/`Aaxp` case).
pub struct LocalBackend {
    hw: VirtualAudioHw,
}

impl LocalBackend {
    /// Wraps a virtual device.
    pub fn new(hw: VirtualAudioHw) -> LocalBackend {
        LocalBackend { hw }
    }
}

impl HwBackend for LocalBackend {
    fn now(&mut self) -> ATime {
        self.hw.now()
    }

    fn service(&mut self) -> ATime {
        self.hw.service()
    }

    fn write_play(&mut self, time: ATime, data: &[u8]) {
        self.hw.write_play(time, data);
    }

    fn read_rec(&mut self, time: ATime, out: &mut [u8]) {
        self.hw.read_rec(time, out);
    }

    fn lead_frames(&self) -> u32 {
        self.hw.config().ring_frames
    }
}

/// The `Als` case: the device is a LineServer across a UDP link (§7.4.3).
///
/// "The server makes every attempt to minimize access to the LineServer,
/// since crossing the network is a relatively expensive operation": only
/// play/record traffic in the update regions crosses the wire, and times
/// are estimated locally from reply timestamps between exchanges.
///
/// Nothing here waits on the network.  Every entry first drains what the
/// LineServer has already sent; the update sends one clock probe, and
/// each request goes out as one datagram whose reply, if any, is picked
/// up by a later drain.  WAN hardening on top of the paper's design:
///
/// * Play traffic is FEC-framed once the firmware acknowledges the
///   [`FecConfig`] written at construction — loss is absorbed by parity,
///   never by a retransmission.
/// * Recorded audio is requested in small chunks one update ahead and
///   played out through an adaptive [`JitterBuffer`]: lost chunks are
///   concealed, late and FEC-recovered ones are slotted in when they
///   arrive.
/// * A register write left unacknowledged at an update is re-sent.
/// * A link that sends nothing for `DOWN_MISS_LIMIT` consecutive
///   updates counts one [`Link::LinkDowns`]; device time runs on from
///   the last observation meanwhile.
pub struct AlsBackend {
    link: LineServerLink,
    rate: u32,
    lead: u32,
    /// Playout buffer for the record path.
    jb: JitterBuffer,
    /// End (exclusive) of the recorded range already requested.
    fetched_until: Option<ATime>,
    /// Whether any datagram arrived since the last update.
    heard: bool,
    /// Consecutive updates that ended with nothing heard.
    silent_updates: u32,
}

/// Consecutive silent updates that declare the link down (loss is
/// expected on a WAN; only a long silence means the peer is gone).
const DOWN_MISS_LIMIT: u32 = 8;

/// Ticks held back from "now" when prefetching: the firmware may not
/// have recorded the newest samples yet.
const REC_GUARD_TICKS: i32 = 64;

/// Record prefetch chunk size in ticks (64 ms at 8 kHz — small enough
/// that one lost datagram is one concealable gap).
const REC_CHUNK_TICKS: i32 = 512;

/// Most chunks requested per `read_rec` call.
const REC_CHUNKS_PER_CALL: u32 = 4;

/// Deepest history (in ticks) worth requesting: the LineServer's record
/// ring is 2048 samples, so anything older is already overwritten.
const REC_MAX_HISTORY: i32 = 1536;

/// A request with no payload.
fn request(function: LsFunction, time: ATime, param: u8, aux: u16) -> LsPacket {
    LsPacket {
        seq: 0,
        time,
        function,
        param,
        aux,
        // af-analyze: allow(alloc): empty Vec::new is allocation-free (these requests carry no payload)
        data: Vec::new(),
    }
}

impl AlsBackend {
    /// Wraps a connected LineServer link and starts FEC negotiation for
    /// the audio path (the link stays in plain mode until the peer
    /// acknowledges it).
    pub fn new(mut link: LineServerLink, rate: u32, lead_frames: u32) -> AlsBackend {
        let fec = FecConfig::default().to_reg();
        let _ = link.send(request(LsFunction::WriteReg, ATime::ZERO, LS_REG_FEC, fec));
        AlsBackend {
            link,
            rate,
            lead: lead_frames,
            jb: JitterBuffer::new(),
            fetched_until: None,
            heard: false,
            silent_updates: 0,
        }
    }

    /// Drains what the LineServer has sent, without waiting, and returns
    /// the device time estimate it leaves.
    fn drain(&mut self) -> ATime {
        if self.link.drain(|_| {}) > 0 {
            self.heard = true;
        }
        self.link.estimate_time(self.rate)
    }

    /// Requests recorded chunks covering up to `now_est − guard`; their
    /// replies reach the jitter buffer through a later drain.  A lost
    /// reply is parity's or the concealer's problem, never a resend.
    fn prefetch(&mut self, now_est: ATime) {
        let horizon = now_est.offset(-REC_GUARD_TICKS);
        let depth_slack = (self.jb.depth() as i32).saturating_add(REC_CHUNK_TICKS);
        let mut start = match self.fetched_until {
            Some(f) => f,
            None => horizon.offset(-depth_slack.min(REC_MAX_HISTORY)),
        };
        // Never ask for samples the 2048-sample firmware ring has already
        // overwritten; skip ahead instead.
        if horizon.delta(start) > REC_MAX_HISTORY {
            start = horizon.offset(-REC_MAX_HISTORY);
        }
        let mut chunks = 0;
        while start.is_before(horizon) && chunks < REC_CHUNKS_PER_CALL {
            let span = horizon.delta(start).min(REC_CHUNK_TICKS);
            if span <= 0 {
                break;
            }
            let req = request(LsFunction::Record, start, 0, span as u16);
            if self.link.send(req).is_err() {
                break;
            }
            start = start.offset(span);
            chunks += 1;
        }
        self.fetched_until = Some(start);
    }
}

impl HwBackend for AlsBackend {
    fn now(&mut self) -> ATime {
        self.drain()
    }

    fn service(&mut self) -> ATime {
        let now = self.drain();
        if std::mem::take(&mut self.heard) {
            self.silent_updates = 0;
        } else {
            self.silent_updates = self.silent_updates.saturating_add(1);
            if self.silent_updates == DOWN_MISS_LIMIT {
                self.link.counters().add(Link::LinkDowns, 1);
            }
        }
        // One clock probe per update: a loopback is the cheapest way to
        // observe the remote clock.  Its reply re-anchors the estimate at
        // a later drain.
        let probe = request(LsFunction::Loopback, ATime::ZERO, 0, 0);
        let _ = self.link.send(probe);
        let _ = self.link.resend_writes();
        now
    }

    fn write_play(&mut self, time: ATime, data: &[u8]) {
        self.drain();
        // One datagram, FEC-framed when negotiated.  The paper did not
        // retry play packets ("by then, it is probably too late anyway");
        // parity carries the redundancy instead.
        let mut req = request(LsFunction::Play, time, 0, 0);
        // af-analyze: allow(alloc): the wire packet owns its payload; one copy per play write is the link framing cost
        req.data = data.to_vec();
        let _ = self.link.send(req);
    }

    fn read_rec(&mut self, time: ATime, out: &mut [u8]) {
        let now_est = self.drain();
        for pkt in self.link.take_audio() {
            // Transit to the chunk's last sample: the playout depth must
            // cover it for the next chunk to arrive before it is played.
            let end = pkt.time.offset(pkt.data.len() as i32);
            self.jb.observe_transit(i64::from(now_est.delta(end)));
            self.jb.insert(pkt.time, &pkt.data, self.link.counters());
        }
        self.prefetch(now_est);
        // Serve from the playout buffer: recorded time `time − depth`,
        // concealing what never arrived.
        self.jb.read(time, out, self.link.counters());
    }

    fn lead_frames(&self) -> u32 {
        self.lead
    }
}
