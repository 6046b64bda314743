//! The audio connection: request generation, reply/event demultiplexing.

use crate::error::{AfError, AfResult};
use af_proto::message::{self, MessageHeader, MessageKind};
use af_proto::request::{play_flags, record_flags, PropertyMode, PLAY_HEADER_BYTES};
use af_proto::wire::{pad4, WireReader};
use af_proto::{
    AcAttributes, AcId, AcMask, Atom, ByteOrder, ConnSetup, DeviceDesc, DeviceId, Event, EventMask,
    ProtoError, RecordView, Reply, Request, SetupReply, WireError, CHUNK_BYTES, MAX_REQUEST_BYTES,
};
use af_time::ATime;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Flush threshold for the outbound request buffer.
const OUT_FLUSH_BYTES: usize = 16 * 1024;

/// Play chunks per vectored `write`: three slices each (header, samples,
/// padding) after one for the buffered requests, 64 in all — well under
/// Linux's `IOV_MAX` of 1,024, whose array, built on the stack for every
/// play, cost a 32 KB play 0.5–1 µs of its 14 (EXPERIMENTS.md).
const CHUNKS_PER_WRITE: usize = 21;

/// Connection policy for opening an audio connection.
///
/// The C library's `AFOpenAudioConn` blocked in `connect()` without limit;
/// these options bound every step of connection establishment and retry
/// transient failures with exponential backoff.
#[derive(Clone, Debug)]
pub struct ConnectOptions {
    /// Per-attempt limit on both `connect()` and the setup reply read.
    pub timeout: Duration,
    /// Additional attempts after the first fails with a transient error
    /// ([`AfError::is_transient`]); a deliberate server refusal is final.
    pub retries: u32,
    /// Delay before the second attempt, doubling for each one after.
    pub backoff: Duration,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            timeout: Duration::from_secs(10),
            retries: 2,
            backoff: Duration::from_millis(100),
        }
    }
}

/// A parsed server name: where to connect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerName {
    /// TCP `host:port`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(std::path::PathBuf),
}

impl ServerName {
    /// Resolves a server name the way `AFOpenAudioConn` does (§6.1.1):
    /// explicit argument first, then the `AUDIOFILE` environment variable,
    /// then `DISPLAY` as a convenient fallback.
    ///
    /// Syntax: `host:port` or `tcp:host:port` for TCP; `/path` or
    /// `unix:/path` for a Unix-domain socket.
    pub fn resolve(explicit: &str) -> AfResult<ServerName> {
        let name = if !explicit.is_empty() {
            explicit.to_string()
        } else if let Ok(v) = std::env::var("AUDIOFILE") {
            v
        } else if let Ok(v) = std::env::var("DISPLAY") {
            v
        } else {
            return Err(AfError::ConnectFailed(
                "no server name given and AUDIOFILE is unset".into(),
            ));
        };
        if let Some(path) = name.strip_prefix("unix:") {
            return Ok(ServerName::Unix(path.into()));
        }
        if name.starts_with('/') {
            return Ok(ServerName::Unix(name.into()));
        }
        let name = name.strip_prefix("tcp:").unwrap_or(&name).to_string();
        if !name.contains(':') {
            return Err(AfError::ConnectFailed(format!(
                "cannot parse server name {name:?} (want host:port or /socket/path)"
            )));
        }
        Ok(ServerName::Tcp(name))
    }
}

/// A client-side audio context (§5.6): a handle plus cached attributes and
/// the attributes of the device it is bound to.
#[derive(Clone, Debug)]
pub struct Ac {
    /// The context id used on the wire.
    pub id: AcId,
    /// The device the context binds to.
    pub device: DeviceId,
    /// The effective attributes (server defaults + requested fields).
    pub attrs: AcAttributes,
    /// A copy of the device description, for rate/format math
    /// (`ac->device->playSampleFreq` in the paper's examples).
    pub desc: DeviceDesc,
}

impl Ac {
    /// Samples per second of the bound device.
    pub fn sample_rate(&self) -> u32 {
        self.desc.play_sample_freq
    }

    /// Bytes occupied by one frame (one sample across all channels) in this
    /// context's encoding.  For sub-byte encodings this is the byte count
    /// of one *unit* across channels.
    pub fn frame_bytes(&self) -> usize {
        let info = self.attrs.encoding.info();
        info.bytes_per_unit as usize * self.attrs.channels as usize
    }

    /// Frames represented by `nbytes` of data in this context's encoding.
    pub fn bytes_to_frames(&self, nbytes: usize) -> u32 {
        (self.attrs.encoding.samples_in_bytes(nbytes) / self.attrs.channels.max(1) as usize) as u32
    }

    /// Bytes needed for `frames` frames in this context's encoding.
    pub fn frames_to_bytes(&self, frames: u32) -> usize {
        self.attrs
            .encoding
            .bytes_for_samples(frames as usize * self.attrs.channels as usize)
    }

    /// Bytes per second of audio in this context's encoding.
    pub fn bytes_per_second(&self) -> usize {
        self.frames_to_bytes(self.sample_rate())
    }
}

/// Initial size of a connection's input buffer: room for one full
/// [`CHUNK_BYTES`] record reply plus whatever small message follows it,
/// so the common reply arrives in one `read`.
const IN_BUF_BYTES: usize = CHUNK_BYTES + 4096;

/// Bytes received from the server and not yet parsed.  `read`s land
/// directly in the spare tail of `buf`; parsed messages are consumed by
/// advancing `start`, never by shifting the buffer.
struct InBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl InBuf {
    fn new() -> InBuf {
        InBuf {
            buf: vec![0u8; IN_BUF_BYTES],
            start: 0,
            end: 0,
        }
    }

    /// Consumes the next complete message, returning its header and where
    /// its payload sits in `buf` (valid until the next [`InBuf::fill_from`]).
    fn next_message(
        &mut self,
        order: ByteOrder,
    ) -> AfResult<Option<(MessageHeader, std::ops::Range<usize>)>> {
        let have = &self.buf[self.start..self.end];
        if have.len() < MessageHeader::SIZE {
            return Ok(None);
        }
        let header = MessageHeader::decode(order, &have[..MessageHeader::SIZE])
            .map_err(AfError::Protocol)?;
        let total = MessageHeader::SIZE + header.payload_len();
        if have.len() < total {
            return Ok(None);
        }
        let payload = self.start + MessageHeader::SIZE..self.start + total;
        self.start += total;
        Ok(Some((header, payload)))
    }

    /// One `read` from `src` into the free tail; returns its byte count
    /// (0 is end of stream).  Called only when the buffered bytes are an
    /// incomplete message: that fragment moves to the front, and the
    /// buffer doubles only once real data has filled it (a length claimed
    /// by the peer never sizes an allocation).
    fn fill_from<R: Read + ?Sized>(&mut self, src: &mut R) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// A connection's byte stream (§5.1): a TCP or Unix-domain socket.  Its
/// descriptor is what the library waits on before it reads.
trait Stream: Read + Write + AsFd + Send {}

impl<S: Read + Write + AsFd + Send> Stream for S {}

/// Callback invoked for asynchronous server errors (`AFSetErrorHandler`).
pub type ErrorHandler = Box<dyn FnMut(&WireError) + Send>;

/// A connection to an AudioFile server (`AFAudioConn`).
pub struct AudioConn {
    stream: Box<dyn Stream>,
    order: ByteOrder,
    name: String,
    vendor: String,
    devices: Vec<DeviceDesc>,
    seq_sent: u16,
    out: Vec<u8>,
    inbuf: InBuf,
    events: VecDeque<Event>,
    async_errors: Vec<WireError>,
    synchronous: bool,
    next_ac_id: AcId,
    error_handler: Option<ErrorHandler>,
}

impl AudioConn {
    /// Opens a connection (`AFOpenAudioConn`).
    ///
    /// `name` may be empty to fall back to `$AUDIOFILE` then `$DISPLAY`.
    /// Uses the default [`ConnectOptions`]: a 10-second per-attempt
    /// timeout with two retries, so an unreachable host fails in bounded
    /// time instead of blocking forever.
    pub fn open(name: &str) -> AfResult<AudioConn> {
        Self::open_with_order(name, ByteOrder::native())
    }

    /// Opens a connection declaring a specific byte order — mainly for
    /// exercising the server's byte-swapping path (§7.3.1).
    pub fn open_with_order(name: &str, order: ByteOrder) -> AfResult<AudioConn> {
        Self::open_with_options(name, order, &ConnectOptions::default())
    }

    /// Opens a connection under an explicit connection policy.
    pub fn open_with_options(
        name: &str,
        order: ByteOrder,
        opts: &ConnectOptions,
    ) -> AfResult<AudioConn> {
        let resolved = ServerName::resolve(name)?;
        let mut delay = opts.backoff;
        let mut attempt = 0u32;
        loop {
            match Self::try_open(&resolved, order, opts) {
                Ok(conn) => return Ok(conn),
                Err(e) if attempt < opts.retries && e.is_transient() => {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One connection attempt: connect, then shake hands under the setup
    /// read timeout.
    fn try_open(
        resolved: &ServerName,
        order: ByteOrder,
        opts: &ConnectOptions,
    ) -> AfResult<AudioConn> {
        let (stream, display_name): (Box<dyn Stream>, String) = match resolved {
            ServerName::Tcp(hostport) => {
                let s = Self::connect_tcp(hostport, opts.timeout)?;
                let _ = s.set_nodelay(true);
                (Box::new(s), hostport.clone())
            }
            ServerName::Unix(path) => {
                let s = UnixStream::connect(path)
                    .map_err(|e| AfError::ConnectFailed(format!("{}: {e}", path.display())))?;
                (Box::new(s), path.display().to_string())
            }
        };
        let mut conn = AudioConn {
            stream,
            order,
            name: display_name,
            vendor: String::new(),
            devices: Vec::new(),
            seq_sent: 0,
            out: Vec::new(),
            inbuf: InBuf::new(),
            events: VecDeque::new(),
            async_errors: Vec::new(),
            synchronous: false,
            next_ac_id: 1,
            error_handler: None,
        };
        conn.handshake(opts.timeout)?;
        Ok(conn)
    }

    /// Connects to `host:port` with a per-address timeout.
    fn connect_tcp(hostport: &str, timeout: Duration) -> AfResult<TcpStream> {
        let addrs = hostport
            .to_socket_addrs()
            .map_err(|e| AfError::ConnectFailed(format!("{hostport}: {e}")))?;
        let mut last: Option<std::io::Error> = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
        }
        Err(AfError::ConnectFailed(match last {
            Some(e) => format!("{hostport}: {e}"),
            None => format!("{hostport}: no addresses resolved"),
        }))
    }

    /// Sends the setup and reads its reply.  Every wait for the reply's
    /// bytes is bounded by `timeout`, so a server that accepts but never
    /// answers cannot hang the client; replies afterwards may block freely.
    fn handshake(&mut self, timeout: Duration) -> AfResult<()> {
        let setup = ConnSetup {
            byte_order: self.order,
            ..ConnSetup::new()
        };
        self.stream.write_all(&setup.encode()?)?;
        self.stream.flush()?;
        // Reply: 4-byte length prefix, then the body.
        let body = loop {
            let have = &self.inbuf.buf[self.inbuf.start..self.inbuf.end];
            if let Ok(len) = WireReader::new(self.order, have).u32().map(|l| l as usize) {
                if len > 1 << 20 {
                    return Err(AfError::SetupFailed("implausible setup reply".into()));
                }
                if have.len() >= 4 + len {
                    let body = self.inbuf.start + 4..self.inbuf.start + 4 + len;
                    self.inbuf.start = body.end;
                    break body;
                }
            }
            if !self.fill(Some(timeout))? {
                return Err(AfError::Io(ErrorKind::TimedOut.into()));
            }
        };
        match SetupReply::decode(self.order, &self.inbuf.buf[body]).map_err(AfError::Protocol)? {
            SetupReply::Failed { reason } => Err(AfError::SetupFailed(reason)),
            SetupReply::Success {
                vendor, devices, ..
            } => {
                self.vendor = vendor;
                self.devices = devices;
                Ok(())
            }
        }
    }

    // ---- Introspection. ----

    /// The server name this connection used (`AFAudioConnName`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The server's vendor string.
    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    /// The abstract audio devices the server exports.
    pub fn devices(&self) -> &[DeviceDesc] {
        &self.devices
    }

    /// One device's description.
    pub fn device(&self, id: DeviceId) -> Option<&DeviceDesc> {
        self.devices.get(id as usize)
    }

    /// The lowest-numbered device not connected to the telephone — usually
    /// the local loudspeaker/microphone (the `FindDefaultDevice` of §8.1.2).
    pub fn find_default_device(&self) -> Option<DeviceId> {
        self.devices
            .iter()
            .position(|d| !d.is_telephone())
            .map(|i| i as DeviceId)
    }

    /// Errors the server reported for asynchronous requests, drained.
    pub fn take_async_errors(&mut self) -> Vec<WireError> {
        std::mem::take(&mut self.async_errors)
    }

    /// Installs a handler invoked for every asynchronous server error
    /// (`AFSetErrorHandler`).  Handled errors are not queued for
    /// [`AudioConn::take_async_errors`].  The C library's default handler
    /// exited the process; here the default is to queue.
    pub fn set_error_handler(&mut self, handler: Option<ErrorHandler>) {
        self.error_handler = handler;
    }

    fn note_async_error(&mut self, err: WireError) {
        match &mut self.error_handler {
            Some(h) => h(&err),
            None => self.async_errors.push(err),
        }
    }

    /// Enables or disables synchronous mode (`AFSynchronize`): every
    /// asynchronous request is followed by a round trip so errors surface
    /// immediately — "particularly \[useful\] when debugging".
    pub fn set_synchronous(&mut self, on: bool) {
        self.synchronous = on;
    }

    // ---- Core wire machinery. ----

    fn send_async(&mut self, req: &Request) -> AfResult<u16> {
        let seq = self.push_request(req)?;
        if self.synchronous {
            self.sync()?;
        }
        Ok(seq)
    }

    fn push_request(&mut self, req: &Request) -> AfResult<u16> {
        // A field too long for its wire count, or a request too long for
        // its frame, is refused before anything is queued: encoding would
        // panic rather than wrap the count.
        req.check_counts().map_err(|e| {
            AfError::InvalidArgument(format!("{:?} field too long: {e}", req.opcode()))
        })?;
        let len = req.encoded_len(self.order);
        if len > MAX_REQUEST_BYTES {
            return Err(AfError::InvalidArgument(format!(
                "{:?} request too long: {len} bytes, past {MAX_REQUEST_BYTES}",
                req.opcode()
            )));
        }
        req.encode_into(self.order, &mut self.out);
        self.seq_sent = self.seq_sent.wrapping_add(1);
        if self.out.len() >= OUT_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(self.seq_sent)
    }

    /// Flushes buffered requests to the server (`AFFlush`).
    pub fn flush(&mut self) -> AfResult<()> {
        if !self.out.is_empty() {
            // Cleared before the result is inspected (a failed write must
            // not be re-sent), and cleared rather than taken so the
            // allocation serves the next request.
            let written = self.stream.write_all(&self.out);
            self.out.clear();
            written?;
            self.stream.flush()?;
        }
        Ok(())
    }

    fn round_trip(&mut self, req: &Request) -> AfResult<Reply> {
        let seq = self.push_request(req)?;
        self.flush()?;
        self.wait_reply(seq, Reply::decode)
    }

    /// Waits for the reply to request `seq` and returns what `decode`
    /// makes of it, straight from the input buffer.
    fn wait_reply<T>(
        &mut self,
        seq: u16,
        mut decode: impl FnMut(ByteOrder, &MessageHeader, &[u8]) -> Result<T, ProtoError>,
    ) -> AfResult<T> {
        loop {
            let (header, range) = self.read_message_blocking()?;
            let payload = &self.inbuf.buf[range.clone()];
            match header.kind {
                MessageKind::Reply if header.sequence == seq => {
                    return decode(self.order, &header, payload).map_err(AfError::Protocol);
                }
                MessageKind::Error if header.sequence == seq => {
                    let err = message::decode_error(self.order, &header, payload)
                        .map_err(AfError::Protocol)?;
                    return Err(AfError::Server(err));
                }
                // A reply for some other sequence: stale; dropped once it parses.
                MessageKind::Reply => {
                    Reply::decode(self.order, &header, payload).map_err(AfError::Protocol)?;
                }
                _ => self.absorb(&header, range)?,
            }
        }
    }

    /// Handles a message no call is waiting for: an event queues, an error
    /// goes to the handler, a stale reply drops.
    fn absorb(&mut self, header: &MessageHeader, range: std::ops::Range<usize>) -> AfResult<()> {
        let payload = &self.inbuf.buf[range];
        match header.kind {
            MessageKind::Event => {
                let ev = Event::decode(self.order, header, payload).map_err(AfError::Protocol)?;
                self.events.push_back(ev);
            }
            MessageKind::Error => {
                let err = message::decode_error(self.order, header, payload)
                    .map_err(AfError::Protocol)?;
                self.note_async_error(err);
            }
            MessageKind::Reply => {}
        }
        Ok(())
    }

    /// Blocks until one complete message is buffered; returns its header
    /// and its payload's place in `self.inbuf.buf`.
    fn read_message_blocking(&mut self) -> AfResult<(MessageHeader, std::ops::Range<usize>)> {
        loop {
            if let Some(msg) = self.inbuf.next_message(self.order)? {
                return Ok(msg);
            }
            self.fill(None)?;
        }
    }

    /// One `read` into the input buffer once the socket has bytes, waiting
    /// at most `timeout` (`None`: without limit); `Ok(false)` if none came.
    /// The client sleeps in the wait, which only incoming bytes end, not in
    /// a `read`, which the server's `read` freeing send space also wakes.
    fn fill(&mut self, timeout: Option<Duration>) -> AfResult<bool> {
        if !af_sys::wait_readable(self.stream.as_fd(), timeout)? {
            return Ok(false);
        }
        match self.inbuf.fill_from(&mut *self.stream)? {
            0 => Err(AfError::ConnectionClosed),
            _ => Ok(true),
        }
    }

    // ---- Synchronization (§6.1.3). ----

    /// Flushes and waits for the server to process everything (`AFSync`).
    pub fn sync(&mut self) -> AfResult<()> {
        match self.round_trip(&Request::SyncConnection)? {
            Reply::Sync => Ok(()),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Sends a no-op request (`AFNoOp`); does not flush.
    pub fn no_op(&mut self) -> AfResult<()> {
        self.send_async(&Request::NoOperation).map(|_| ())
    }

    // ---- Time, play, record (§6.1.5). ----

    /// Returns the device's current time (`AFGetTime`).
    pub fn get_time(&mut self, device: DeviceId) -> AfResult<ATime> {
        match self.round_trip(&Request::GetTime { device })? {
            Reply::Time { time } => Ok(time),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Plays a block of samples at an exact device time (`AFPlaySamples`).
    ///
    /// Long requests are chunked into 8 KB pieces with the reply suppressed
    /// on all but the last (§5.7, §10.1.3), and sent with any buffered
    /// requests in one vectored `write` per 21 chunks, the samples straight
    /// from `data`.  Returns the device time from the final reply.
    pub fn play_samples(&mut self, ac: &Ac, start_time: ATime, data: &[u8]) -> AfResult<ATime> {
        self.play_samples_with_flags(ac, start_time, data, 0)
    }

    /// [`AudioConn::play_samples`] with extra [`play_flags`] bits ORed into
    /// every chunk — e.g. [`play_flags::PREEMPT`] for a one-off preemptive
    /// write on a mixing context.
    pub fn play_samples_with_flags(
        &mut self,
        ac: &Ac,
        start_time: ATime,
        data: &[u8],
        extra_flags: u8,
    ) -> AfResult<ATime> {
        if data.is_empty() {
            return self.get_time(ac.device);
        }
        let align = ac.frame_bytes().max(1);
        let chunk_bytes = (CHUNK_BYTES / align).max(1) * align;
        let chunks = data.len().div_ceil(chunk_bytes);
        let mut headers = [[0u8; PLAY_HEADER_BYTES]; CHUNKS_PER_WRITE];
        let mut time = start_time;
        // The buffered requests, then each chunk's header, its samples
        // where the caller holds them, and its padding: one `write` and
        // no copy, `CHUNKS_PER_WRITE` chunks at a time.
        for first in (0..chunks).step_by(CHUNKS_PER_WRITE) {
            let mut slices = [IoSlice::new(&[]); 1 + 3 * CHUNKS_PER_WRITE];
            slices[0] = IoSlice::new(&self.out);
            let mut used = 1;
            let batch = data[first * chunk_bytes..].chunks(chunk_bytes);
            for (i, (header, chunk)) in headers.iter_mut().zip(batch).enumerate() {
                let last = first + i + 1 == chunks;
                let flags = extra_flags | if last { 0 } else { play_flags::SUPPRESS_REPLY };
                *header = Request::encode_play_header(self.order, ac.id, time, flags, chunk.len());
                time += ac.bytes_to_frames(chunk.len());
                self.seq_sent = self.seq_sent.wrapping_add(1);
                slices[used] = IoSlice::new(header);
                slices[used + 1] = IoSlice::new(chunk);
                slices[used + 2] = IoSlice::new(&[0; 3][..pad4(chunk.len()) - chunk.len()]);
                used += 3;
            }
            // Cleared whatever the result, as in `flush`.
            let written = write_all_vectored(&mut *self.stream, &mut slices[..used]);
            self.out.clear();
            written?;
        }
        self.stream.flush()?;
        match self.wait_reply(self.seq_sent, Reply::decode)? {
            Reply::Time { time } => Ok(time),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Records samples from an exact device time (`AFRecordSamples`).
    ///
    /// With `block` set the call returns exactly `nbytes` of data once it
    /// has all been captured; otherwise it returns whatever was immediately
    /// available.  Returns the device time of the final reply and the data.
    pub fn record_samples(
        &mut self,
        ac: &Ac,
        start_time: ATime,
        nbytes: usize,
        block: bool,
    ) -> AfResult<(ATime, Vec<u8>)> {
        let align = ac.frame_bytes().max(1);
        let chunk_bytes = (CHUNK_BYTES / align).max(1) * align;
        let mut collected = Vec::with_capacity(nbytes);
        let mut time = start_time;
        let mut remaining = nbytes;
        let mut flags = 0u8;
        if block {
            flags |= record_flags::BLOCK;
        }
        let last_time = loop {
            let ask = remaining.min(chunk_bytes);
            // A zero-byte request is still sent: the first record operation
            // under a context marks it as recording on the server (§7.4.1),
            // so clients arm the recorder with an empty record.
            let req = Request::RecordSamples {
                ac: ac.id,
                start_time: time,
                nbytes: ask as u32,
                flags,
            };
            let seq = self.push_request(&req)?;
            self.flush()?;
            // The reply's bytes go from the input buffer to `collected`,
            // copied once.
            let (now, got) = self.wait_reply(seq, |order, header, payload| {
                let reply = RecordView::parse(order, header, payload)?;
                collected.extend_from_slice(reply.data);
                Ok((reply.time, reply.data.len()))
            })?;
            time += ac.bytes_to_frames(got);
            remaining -= got.min(remaining);
            if got < ask || remaining == 0 {
                // Done, or a non-blocking record ran out of data.
                break now;
            }
        };
        Ok((last_time, collected))
    }

    // ---- Audio contexts. ----

    /// Creates an audio context (`AFCreateAC`).
    pub fn create_ac(
        &mut self,
        device: DeviceId,
        mask: AcMask,
        attrs: &AcAttributes,
    ) -> AfResult<Ac> {
        let desc = *self
            .device(device)
            .ok_or_else(|| AfError::InvalidArgument(format!("no device {device}")))?;
        if mask.contains(AcMask::ENCODING) && !desc.supports(attrs.encoding) {
            // The device advertises which sample types its conversion
            // modules accept (§5.4); fail fast client-side.
            return Err(AfError::InvalidArgument(format!(
                "device {device} does not support encoding {}",
                attrs.encoding
            )));
        }
        let id = self.next_ac_id;
        self.next_ac_id += 1;
        self.send_async(&Request::CreateAc {
            id,
            device,
            mask,
            attrs: *attrs,
        })?;
        // Mirror the server's defaulting: device-native values overlaid
        // with the masked fields.
        let mut effective = AcAttributes {
            encoding: desc.play_buf_type,
            channels: desc.play_nchannels,
            ..AcAttributes::default()
        };
        effective.apply(mask, attrs);
        Ok(Ac {
            id,
            device,
            attrs: effective,
            desc,
        })
    }

    /// Changes attributes of a context (`AFChangeACAttributes`).
    pub fn change_ac_attributes(
        &mut self,
        ac: &mut Ac,
        mask: AcMask,
        attrs: &AcAttributes,
    ) -> AfResult<()> {
        self.send_async(&Request::ChangeAcAttributes {
            id: ac.id,
            mask,
            attrs: *attrs,
        })?;
        ac.attrs.apply(mask, attrs);
        Ok(())
    }

    /// Frees a context (`AFFreeAC`).
    pub fn free_ac(&mut self, ac: Ac) -> AfResult<()> {
        self.send_async(&Request::FreeAc { id: ac.id }).map(|_| ())
    }

    // ---- Events (§6.1.4). ----

    /// Selects which events to receive for a device (`AFSelectEvents`).
    pub fn select_events(&mut self, device: DeviceId, mask: EventMask) -> AfResult<()> {
        self.send_async(&Request::SelectEvents { device, mask })
            .map(|_| ())
    }

    /// Returns the next event, blocking if none are queued (`AFNextEvent`).
    pub fn next_event(&mut self) -> AfResult<Event> {
        self.if_event(|_| true)
    }

    /// Reads until an event satisfying `pred` is queued; returns its index.
    fn wait_event(&mut self, mut pred: impl FnMut(&Event) -> bool) -> AfResult<usize> {
        loop {
            if let Some(i) = self.events.iter().position(&mut pred) {
                return Ok(i);
            }
            self.flush()?;
            let (header, range) = self.read_message_blocking()?;
            self.absorb(&header, range)?;
        }
    }

    /// Number of events queued without blocking (`AFPending`).
    pub fn pending(&mut self) -> AfResult<usize> {
        self.flush()?;
        loop {
            // Parse as we go: `fill_from` expects at most a fragment.
            while let Some((header, range)) = self.inbuf.next_message(self.order)? {
                self.absorb(&header, range)?;
            }
            if !self.fill(Some(Duration::ZERO))? {
                return Ok(self.events.len());
            }
        }
    }

    /// Blocks until an event satisfying `pred` arrives; removes and returns
    /// it (`AFIfEvent`).
    pub fn if_event<F: FnMut(&Event) -> bool>(&mut self, pred: F) -> AfResult<Event> {
        let i = self.wait_event(pred)?;
        Ok(self.events.remove(i).expect("index valid"))
    }

    /// Removes and returns the first queued event satisfying `pred` without
    /// blocking (`AFCheckIfEvent`).
    pub fn check_if_event<F: FnMut(&Event) -> bool>(
        &mut self,
        mut pred: F,
    ) -> AfResult<Option<Event>> {
        self.pending()?;
        match self.events.iter().position(&mut pred) {
            Some(i) => Ok(self.events.remove(i)),
            None => Ok(None),
        }
    }

    /// Blocks until an event satisfying `pred` arrives and returns a copy
    /// without dequeuing it (`AFPeekIfEvent`).
    pub fn peek_if_event<F: FnMut(&Event) -> bool>(&mut self, pred: F) -> AfResult<Event> {
        let i = self.wait_event(pred)?;
        Ok(self.events[i])
    }

    // ---- Telephone control (§8.4). ----

    /// Sets the hookswitch state (`AFHookSwitch`).
    pub fn hook_switch(&mut self, device: DeviceId, off_hook: bool) -> AfResult<()> {
        self.send_async(&Request::HookSwitch { device, off_hook })
            .map(|_| ())
    }

    /// Flashes the hookswitch (`AFFlashHook`).
    pub fn flash_hook(&mut self, device: DeviceId) -> AfResult<()> {
        self.send_async(&Request::FlashHook { device }).map(|_| ())
    }

    /// Returns `(off_hook, loop_current, ringing)` (`AFQueryPhone`).
    pub fn query_phone(&mut self, device: DeviceId) -> AfResult<(bool, bool, bool)> {
        match self.round_trip(&Request::QueryPhone { device })? {
            Reply::Phone {
                off_hook,
                loop_current,
                ringing,
            } => Ok((off_hook, loop_current, ringing)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Connects local audio to the telephone (`AFEnablePassThrough`).
    pub fn enable_pass_through(&mut self, device: DeviceId) -> AfResult<()> {
        self.send_async(&Request::EnablePassThrough { device })
            .map(|_| ())
    }

    /// Removes the direct connection (`AFDisablePassThrough`).
    pub fn disable_pass_through(&mut self, device: DeviceId) -> AfResult<()> {
        self.send_async(&Request::DisablePassThrough { device })
            .map(|_| ())
    }

    // ---- I/O control (§5.8). ----

    /// Sets the input gain in dB (`AFSetInputGain`).
    pub fn set_input_gain(&mut self, device: DeviceId, db: i32) -> AfResult<()> {
        self.send_async(&Request::SetInputGain { device, db })
            .map(|_| ())
    }

    /// Sets the output gain (volume) in dB (`AFSetOutputGain`).
    pub fn set_output_gain(&mut self, device: DeviceId, db: i32) -> AfResult<()> {
        self.send_async(&Request::SetOutputGain { device, db })
            .map(|_| ())
    }

    /// Returns `(min, max, current)` input gain in dB (`AFQueryInputGain`).
    pub fn query_input_gain(&mut self, device: DeviceId) -> AfResult<(i32, i32, i32)> {
        match self.round_trip(&Request::QueryInputGain { device })? {
            Reply::Gain {
                min_db,
                max_db,
                current_db,
            } => Ok((min_db, max_db, current_db)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Returns `(min, max, current)` output gain in dB
    /// (`AFQueryOutputGain`).
    pub fn query_output_gain(&mut self, device: DeviceId) -> AfResult<(i32, i32, i32)> {
        match self.round_trip(&Request::QueryOutputGain { device })? {
            Reply::Gain {
                min_db,
                max_db,
                current_db,
            } => Ok((min_db, max_db, current_db)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Enables inputs by connector mask (`AFEnableInput`).
    pub fn enable_input(&mut self, device: DeviceId, mask: u32) -> AfResult<()> {
        self.send_async(&Request::EnableInput { device, mask })
            .map(|_| ())
    }

    /// Disables inputs by connector mask (`AFDisableInput`).
    pub fn disable_input(&mut self, device: DeviceId, mask: u32) -> AfResult<()> {
        self.send_async(&Request::DisableInput { device, mask })
            .map(|_| ())
    }

    /// Enables outputs by connector mask (`AFEnableOutput`).
    pub fn enable_output(&mut self, device: DeviceId, mask: u32) -> AfResult<()> {
        self.send_async(&Request::EnableOutput { device, mask })
            .map(|_| ())
    }

    /// Disables outputs by connector mask (`AFDisableOutput`).
    pub fn disable_output(&mut self, device: DeviceId, mask: u32) -> AfResult<()> {
        self.send_async(&Request::DisableOutput { device, mask })
            .map(|_| ())
    }

    // ---- Access control. ----

    /// Enables or disables access-control checking (`AFSetAccessControl`).
    pub fn set_access_control(&mut self, enabled: bool) -> AfResult<()> {
        self.send_async(&Request::SetAccessControl { enabled })
            .map(|_| ())
    }

    /// Adds a host's raw address to the access list (`AFAddHost`).
    pub fn add_host(&mut self, address: &[u8]) -> AfResult<()> {
        self.send_async(&Request::ChangeHosts {
            insert: true,
            address: address.to_vec(),
        })
        .map(|_| ())
    }

    /// Removes a host from the access list (`AFRemoveHost`).
    pub fn remove_host(&mut self, address: &[u8]) -> AfResult<()> {
        self.send_async(&Request::ChangeHosts {
            insert: false,
            address: address.to_vec(),
        })
        .map(|_| ())
    }

    /// Returns `(enforcing, hosts)` (`AFListHosts`).
    pub fn list_hosts(&mut self) -> AfResult<(bool, Vec<Vec<u8>>)> {
        match self.round_trip(&Request::ListHosts)? {
            Reply::Hosts { enabled, hosts } => Ok((enabled, hosts)),
            other => Err(unexpected_reply(&other)),
        }
    }

    // ---- Atoms and properties (§5.9). ----

    /// Interns a string, returning its atom (`AFInternAtom`).
    pub fn intern_atom(&mut self, name: &str, only_if_exists: bool) -> AfResult<Atom> {
        match self.round_trip(&Request::InternAtom {
            only_if_exists,
            name: name.to_string(),
        })? {
            Reply::InternedAtom { atom } => Ok(atom),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Returns the name of an atom (`AFGetAtomName`).
    pub fn get_atom_name(&mut self, atom: Atom) -> AfResult<String> {
        match self.round_trip(&Request::GetAtomName { atom })? {
            Reply::AtomName { name } => Ok(name),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Changes a device property (`AFChangeProperty`).
    pub fn change_property(
        &mut self,
        device: DeviceId,
        mode: PropertyMode,
        property: Atom,
        type_: Atom,
        data: &[u8],
    ) -> AfResult<()> {
        self.send_async(&Request::ChangeProperty {
            device,
            mode,
            property,
            type_,
            data: data.to_vec(),
        })
        .map(|_| ())
    }

    /// Retrieves a property: `(type, data)`, where a [`Atom::NONE`] type
    /// means the property does not exist (`AFGetProperty`).
    pub fn get_property(
        &mut self,
        device: DeviceId,
        delete: bool,
        property: Atom,
        type_: Atom,
    ) -> AfResult<(Atom, Vec<u8>)> {
        match self.round_trip(&Request::GetProperty {
            device,
            delete,
            property,
            type_,
        })? {
            Reply::Property { type_, data } => Ok((type_, data)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Deletes a property (`AFDeleteProperty`).
    pub fn delete_property(&mut self, device: DeviceId, property: Atom) -> AfResult<()> {
        self.send_async(&Request::DeleteProperty { device, property })
            .map(|_| ())
    }

    /// Lists the device's property name atoms (`AFListProperties`).
    pub fn list_properties(&mut self, device: DeviceId) -> AfResult<Vec<Atom>> {
        match self.round_trip(&Request::ListProperties { device })? {
            Reply::Properties { atoms } => Ok(atoms),
            other => Err(unexpected_reply(&other)),
        }
    }
}

/// Writes every byte of `slices`, finishing short writes and retrying
/// interrupted ones (std's `write_all_vectored` is not stable).
fn write_all_vectored(w: &mut dyn Write, mut slices: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn unexpected_reply(r: &Reply) -> AfError {
    AfError::Protocol(af_proto::ProtoError::BadEnum {
        field: "reply kind",
        value: r.wire().into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `wire` to an [`InBuf`] in `step`-byte reads and returns every
    /// message's (sequence, payload) in order.
    fn reassemble(wire: &[u8], step: usize) -> Vec<(u16, Vec<u8>)> {
        let order = ByteOrder::Little;
        let mut inbuf = InBuf::new();
        let mut got = Vec::new();
        for mut piece in wire.chunks(step) {
            // A slice is a `Read` that hands out what it has left.
            while !piece.is_empty() {
                while let Some((header, range)) = inbuf.next_message(order).unwrap() {
                    got.push((header.sequence, inbuf.buf[range].to_vec()));
                }
                inbuf.fill_from(&mut piece).unwrap();
            }
        }
        while let Some((header, range)) = inbuf.next_message(order).unwrap() {
            got.push((header.sequence, inbuf.buf[range].to_vec()));
        }
        assert_eq!(inbuf.start, inbuf.end, "no bytes left over");
        got
    }

    #[test]
    fn inbuf_reassembles_messages_across_any_read_boundaries() {
        // Small, empty, chunk-sized and larger-than-the-buffer payloads,
        // back to back: the cursor, the compaction of a trailing fragment
        // and the doubling on a full buffer must all keep every byte.
        let sizes = [8usize, 0, CHUNK_BYTES, 4, 3 * IN_BUF_BYTES, 12];
        let mut wire = Vec::new();
        let mut want = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
            let header = MessageHeader {
                kind: MessageKind::Reply,
                detail: 0,
                sequence: i as u16,
                extra_words: (len / 4) as u32,
            };
            wire.extend_from_slice(&header.encode(ByteOrder::Little));
            wire.extend_from_slice(&payload);
            want.push((i as u16, payload));
        }
        for step in [1, 7, 4096, IN_BUF_BYTES, wire.len()] {
            assert_eq!(reassemble(&wire, step), want, "step {step}");
        }
    }

    #[test]
    fn short_vectored_writes_resume_where_they_stopped() {
        // A buffered request and a 32 KB play's header, sample and padding
        // slices, into a writer that takes at most 97 bytes a call.  It
        // fails once their length has crossed it, so a loop that sends a
        // byte twice stops there instead of running on.
        let order = ByteOrder::native();
        let buffered = Request::GetTime { device: 0 }.encode(order);
        let data: Vec<u8> = (0..32 * 1024).map(|i| (i * 131 + i / 251) as u8).collect();
        let chunks: Vec<&[u8]> = data.chunks(CHUNK_BYTES).collect();
        let headers: Vec<_> = (0u32..)
            .zip(&chunks)
            .map(|(i, chunk)| {
                let time = ATime::new(i * CHUNK_BYTES as u32);
                Request::encode_play_header(order, 1, time, 0, chunk.len())
            })
            .collect();
        let mut slices = vec![IoSlice::new(&buffered)];
        for (header, chunk) in headers.iter().zip(&chunks) {
            let padding = &[0; 3][..pad4(chunk.len()) - chunk.len()];
            slices.extend([
                IoSlice::new(header),
                IoSlice::new(chunk),
                IoSlice::new(padding),
            ]);
        }
        let want: Vec<u8> = slices.iter().flat_map(|s| s.iter().copied()).collect();
        let plan = af_chaos::StreamFaultPlan::new(27)
            .partial_writes(97)
            .cut_after(want.len() as u64);
        let mut writer = af_chaos::ChaosStream::new(Vec::new(), plan);
        write_all_vectored(&mut writer, &mut slices).unwrap();
        assert!(*writer.get_ref() == want, "written bytes differ");
    }

    #[test]
    fn server_name_resolution() {
        assert_eq!(
            ServerName::resolve("localhost:7000").unwrap(),
            ServerName::Tcp("localhost:7000".into())
        );
        assert_eq!(
            ServerName::resolve("tcp:10.0.0.1:7001").unwrap(),
            ServerName::Tcp("10.0.0.1:7001".into())
        );
        assert_eq!(
            ServerName::resolve("/tmp/af.sock").unwrap(),
            ServerName::Unix("/tmp/af.sock".into())
        );
        assert_eq!(
            ServerName::resolve("unix:/run/af0").unwrap(),
            ServerName::Unix("/run/af0".into())
        );
        assert!(ServerName::resolve("nonsense").is_err());
    }

    #[test]
    fn ac_math() {
        let desc = DeviceDesc {
            index: 0,
            kind: af_proto::DeviceKind::Codec,
            play_sample_freq: 8000,
            rec_sample_freq: 8000,
            play_buf_type: af_dsp::Encoding::Mu255,
            rec_buf_type: af_dsp::Encoding::Mu255,
            play_nchannels: 1,
            rec_nchannels: 1,
            play_nsamples_buf: 32_768,
            rec_nsamples_buf: 32_768,
            number_of_inputs: 1,
            number_of_outputs: 1,
            inputs_from_phone: 0,
            outputs_to_phone: 0,
            supported_types: DeviceDesc::all_convertible_types(),
        };
        let ac = Ac {
            id: 1,
            device: 0,
            attrs: AcAttributes {
                encoding: af_dsp::Encoding::Mu255,
                channels: 1,
                ..AcAttributes::default()
            },
            desc,
        };
        assert_eq!(ac.frame_bytes(), 1);
        assert_eq!(ac.bytes_to_frames(8000), 8000);
        assert_eq!(ac.frames_to_bytes(8000), 8000);
        assert_eq!(ac.bytes_per_second(), 8000);

        let stereo = Ac {
            attrs: AcAttributes {
                encoding: af_dsp::Encoding::Lin16,
                channels: 2,
                ..AcAttributes::default()
            },
            ..ac
        };
        assert_eq!(stereo.frame_bytes(), 4);
        assert_eq!(stereo.bytes_to_frames(4000), 1000);
        assert_eq!(stereo.frames_to_bytes(1000), 4000);
    }

    #[test]
    fn connect_options_defaults_are_bounded() {
        let opts = ConnectOptions::default();
        assert_eq!(opts.timeout, Duration::from_secs(10));
        assert_eq!(opts.retries, 2);
        assert_eq!(opts.backoff, Duration::from_millis(100));
    }

    #[test]
    fn refused_connection_fails_in_bounded_time() {
        // Bind then drop a listener so the port is known-refusing.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let opts = ConnectOptions {
            timeout: Duration::from_millis(200),
            retries: 1,
            backoff: Duration::from_millis(10),
        };
        let started = std::time::Instant::now();
        let err = match AudioConn::open_with_options(
            &format!("127.0.0.1:{port}"),
            ByteOrder::native(),
            &opts,
        ) {
            Ok(_) => panic!("expected the connection to fail"),
            Err(e) => e,
        };
        assert!(matches!(err, AfError::ConnectFailed(_)), "got {err}");
        assert!(err.is_transient());
        // Two attempts at ≤200 ms each plus a 10 ms backoff, with slack.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn silent_server_fails_the_handshake_in_bounded_time() {
        // A listener that accepts every connection, holds it open and
        // never answers the setup.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((sock, _)) = listener.accept() {
                held.push(sock);
            }
        });
        let opts = ConnectOptions {
            timeout: Duration::from_millis(200),
            retries: 1,
            backoff: Duration::from_millis(10),
        };
        // Opened on a thread of its own, so a wait without a bound fails
        // the test rather than hanging it.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let opener = std::thread::spawn(move || {
            let opened =
                AudioConn::open_with_options(&format!("{addr}"), ByteOrder::native(), &opts);
            tx.send(opened.map(|_| ())).unwrap();
        });
        // Two attempts at ≤200 ms each plus a 10 ms backoff, with slack.
        let err = match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Err(e)) => e,
            Ok(Ok(())) => panic!("expected the handshake to time out"),
            Err(_) => panic!("the handshake was still waiting after 5 s"),
        };
        opener.join().unwrap();
        assert!(matches!(err, AfError::Io(_)), "got {err}");
        assert!(err.is_transient());
    }

    #[test]
    fn setup_refusal_is_not_retried() {
        // A listener that immediately sends a Failed setup reply.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let served_in_thread = std::sync::Arc::clone(&served);
        std::thread::spawn(move || {
            while let Ok((mut sock, _)) = listener.accept() {
                served_in_thread.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let mut buf = [0u8; 256];
                let _ = sock.read(&mut buf);
                let reply = SetupReply::Failed {
                    reason: "go away".into(),
                };
                let _ = sock.write_all(&reply.encode(ByteOrder::native()).unwrap());
            }
        });
        let opts = ConnectOptions {
            timeout: Duration::from_millis(500),
            retries: 3,
            backoff: Duration::from_millis(10),
        };
        let err =
            match AudioConn::open_with_options(&format!("{addr}"), ByteOrder::native(), &opts) {
                Ok(_) => panic!("expected the setup to be refused"),
                Err(e) => e,
            };
        assert!(matches!(err, AfError::SetupFailed(_)), "got {err}");
        assert!(!err.is_transient());
        assert_eq!(
            served.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "a deliberate refusal must not be retried"
        );
    }
}
