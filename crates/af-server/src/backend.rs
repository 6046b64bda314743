//! Hardware backends: what the device-dependent layer drives.
//!
//! The paper's DDAs drove LoFi shared-memory rings directly (`Alofi`),
//! kernel device drivers (`Aaxp`/`Asparc`), or a detached network box
//! (`Als`).  All expose the same contract to the buffering engine: a device
//! time, a way to make the hardware consistent, and time-indexed play/record
//! access.

use af_device::fec::FecConfig;
use af_device::jitter::JitterBuffer;
use af_device::lineserver::{LineServerLink, LinkError, LsFunction, LsPacket};
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
/// WAN hardening on top of the paper's design:
///
/// * Play traffic goes out *one-way*, FEC-framed when the firmware
///   accepted [`FecConfig`] negotiation — loss is absorbed by parity,
///   never by a blocking retransmission.
/// * Recorded audio is prefetched in small single-attempt chunks and
///   played out through an adaptive [`JitterBuffer`]: lost chunks are
///   concealed, late and FEC-recovered ones are slotted in when they
///   arrive.
/// * A [`LinkError::Down`] verdict from the reliable control path puts
///   the backend into a free-run backoff: for `DOWN_BACKOFF_OPS`
///   operations no transaction is attempted, so one dead LineServer
///   costs a timeout once, not on every request.
pub struct AlsBackend {
    link: LineServerLink,
    rate: u32,
    lead: u32,
    /// The last valid device time (the paper's `timeLastValid`): when the
    /// link stops answering, time free-runs from here at the nominal rate
    /// so the engine degrades to silence instead of stalling.
    last_time: ATime,
    /// Local instant paired with `last_time`, anchoring the free-run.
    last_anchor: std::time::Instant,
    /// Playout buffer for the record path.
    jb: JitterBuffer,
    /// End (exclusive) of the recorded range already requested.
    fetched_until: Option<ATime>,
    /// Consecutive failed record prefetches (loss is expected on a WAN;
    /// only a long run of misses means the link is down).
    misses: u32,
    /// Remaining operations to skip while backing off a down link.
    down_backoff: u32,
}

/// Retransmissions per reliable (control-path) LineServer exchange.
/// Kept at one on the real-time path: a second retry would already be
/// late.
pub const ALS_RETRIES: u32 = 1;

/// How long one attempt of an exchange waits for its reply.  With
/// [`ALS_RETRIES`], it bounds how long a dead LineServer holds up the
/// update task, and with it the reactor thread.
pub const ALS_REPLY_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(30);

/// Operations to skip after the link is declared down (~hundreds of ms
/// of free-run at typical service cadence) before probing again.
pub const DOWN_BACKOFF_OPS: u32 = 8;

/// Consecutive record-prefetch misses that declare the link down.
const DOWN_MISS_LIMIT: u32 = 8;

/// Ticks held back from "now" when prefetching: the firmware may not
/// have recorded the newest samples yet.
const REC_GUARD_TICKS: i32 = 64;

/// Record prefetch chunk size in ticks (64 ms at 8 kHz — small enough
/// that one lost datagram is one concealable gap).
const REC_CHUNK_TICKS: i32 = 512;

/// Most chunks fetched per `read_rec` call, bounding its wire time.
const REC_CHUNKS_PER_CALL: u32 = 4;

/// Deepest history (in ticks) worth requesting: the LineServer's record
/// ring is 2048 samples, so anything older is already overwritten.
const REC_MAX_HISTORY: i32 = 1536;

impl AlsBackend {
    /// Wraps a connected LineServer link, negotiating FEC for the audio
    /// path (the link stays in plain mode if the peer declines).
    pub fn new(mut link: LineServerLink, rate: u32, lead_frames: u32) -> AlsBackend {
        let _ = link.enable_fec(FecConfig::default(), ALS_RETRIES);
        // A lost single-attempt prefetch should stall the pump briefly,
        // not for the default 100 ms — the reply still arrives through
        // `poll` if it was merely late.
        let _ = link.set_reply_timeout(ALS_REPLY_TIMEOUT);
        AlsBackend {
            link,
            rate,
            lead: lead_frames,
            last_time: ATime::ZERO,
            last_anchor: std::time::Instant::now(),
            jb: JitterBuffer::new(),
            fetched_until: None,
            misses: 0,
            down_backoff: 0,
        }
    }

    fn refresh_time(&mut self) -> ATime {
        if self.enter_backoff_tick() {
            return self.last_time;
        }
        // A loopback exchange is the cheapest way to observe the remote
        // clock; register reads would also carry a timestamp.
        let req = LsPacket {
            seq: 0,
            time: ATime::ZERO,
            function: LsFunction::Loopback,
            param: 0,
            aux: 0,
            // af-analyze: allow(alloc): empty Vec::new is allocation-free (this request carries no payload)
            data: Vec::new(),
        };
        match self.link.transact(req, ALS_RETRIES) {
            Ok(reply) => {
                self.misses = 0;
                self.anchor(reply.time);
            }
            Err(LinkError::Down { .. }) => self.declare_down(),
            Err(LinkError::Io(_)) => self.free_run(),
        }
        self.last_time
    }

    fn anchor(&mut self, time: ATime) {
        self.last_time = time;
        // af-analyze: allow(wallclock): LineServer device time is derived from the host clock between exchanges (§7.4.3)
        self.last_anchor = std::time::Instant::now();
    }

    /// Advances `last_time` at the nominal sample rate while the link is
    /// down, so callers keep seeing monotonic device time.
    fn free_run(&mut self) {
        // af-analyze: allow(wallclock): LineServer device time is derived from the host clock between exchanges (§7.4.3)
        let elapsed = self.last_anchor.elapsed().as_secs_f64();
        self.anchor(self.last_time + (elapsed * f64::from(self.rate)) as u32);
    }

    /// Consumes one backoff tick; `true` means skip the network and
    /// free-run this operation.
    fn enter_backoff_tick(&mut self) -> bool {
        if self.down_backoff == 0 {
            return false;
        }
        self.down_backoff -= 1;
        self.free_run();
        true
    }

    /// Marks the link down: free-run immediately and skip transactions
    /// for a while instead of blocking every request on timeouts.
    fn declare_down(&mut self) {
        self.link.counters().add(Link::LinkDowns, 1);
        self.down_backoff = DOWN_BACKOFF_OPS;
        self.misses = 0;
        self.free_run();
    }

    /// Best current estimate of the device time without forcing a wire
    /// exchange.
    fn local_now(&mut self) -> ATime {
        match self.link.estimate_time(self.rate) {
            Some(t) => {
                self.anchor(t);
                t
            }
            None => {
                self.free_run();
                self.last_time
            }
        }
    }

    /// Drains out-of-band audio (late and FEC-recovered record replies)
    /// into the jitter buffer.
    fn drain_audio(&mut self, now_est: ATime) {
        for pkt in self.link.take_audio() {
            self.jb.observe_transit(i64::from(now_est.delta(pkt.time)));
            self.jb.insert(pkt.time, &pkt.data, self.link.counters());
        }
    }

    /// Requests recorded chunks covering up to `now_est − guard`, one
    /// attempt each: a lost reply is parity's or the concealer's problem,
    /// never a blocking retransmission.
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
            let req = LsPacket {
                seq: 0,
                time: start,
                function: LsFunction::Record,
                param: 0,
                aux: span as u16,
                // af-analyze: allow(alloc): empty Vec::new is allocation-free (this request carries no payload)
                data: Vec::new(),
            };
            match self.link.transact(req, 0) {
                Ok(reply) => {
                    self.misses = 0;
                    self.jb
                        .observe_transit(i64::from(now_est.delta(reply.time)));
                    self.jb.insert(reply.time, &reply.data, self.link.counters());
                }
                Err(LinkError::Down { .. }) => {
                    // One miss is ordinary WAN loss (the chunk is already
                    // re-requestable as parity or conceal); a long run
                    // means the peer is gone.
                    self.misses += 1;
                    if self.misses >= DOWN_MISS_LIMIT {
                        self.declare_down();
                    }
                    // The chunk still counts as fetched: single-attempt.
                }
                Err(LinkError::Io(_)) => break,
            }
            start = start.offset(span);
            chunks += 1;
        }
        self.fetched_until = Some(start);
    }
}

impl HwBackend for AlsBackend {
    fn now(&mut self) -> ATime {
        match self.link.estimate_time(self.rate) {
            Some(t) => {
                self.anchor(t);
                t
            }
            None => self.refresh_time(),
        }
    }

    fn service(&mut self) -> ATime {
        // The firmware services itself; we only need a fresh time estimate.
        self.refresh_time()
    }

    fn write_play(&mut self, time: ATime, data: &[u8]) {
        // One-way, FEC-framed when negotiated.  The paper did not retry
        // play packets ("by then, it is probably too late anyway"); here
        // even the first timeout is gone from the path — parity carries
        // the redundancy instead.
        let req = LsPacket {
            seq: 0,
            time,
            function: LsFunction::Play,
            param: 0,
            aux: 0,
            // af-analyze: allow(alloc): the wire packet owns its payload; one copy per play write is the link framing cost
            data: data.to_vec(),
        };
        if self.link.send_oneway(req).is_err() {
            self.free_run();
        }
    }

    fn read_rec(&mut self, time: ATime, out: &mut [u8]) {
        let now_est = self.local_now();
        if !self.enter_backoff_tick() {
            self.link.poll();
            self.drain_audio(now_est);
            self.prefetch(now_est);
        }
        // Serve from the playout buffer: recorded time `time − depth`,
        // concealing what never arrived.
        self.jb.read(time, out, self.link.counters());
    }

    fn lead_frames(&self) -> u32 {
        self.lead
    }
}
