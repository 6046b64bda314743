//! The server's OS section: one reactor thread multiplexing all connections.
//!
//! The paper's server multiplexed every client socket, TCP or Unix-domain,
//! with one `select()` loop (§5.1, §7.3.1).  This module keeps that shape:
//! one thread runs a level-triggered readiness loop ([`af_sys::Poller`]:
//! raw `epoll`) over nonblocking sockets.  Sockets enter in two forms: the
//! [`Listener`]s handed to [`Reactor::spawn`], accepted on with one loop
//! whatever their family or kind, and a `SharedSock` for each accepted
//! connection, registered with the same poller.
//!
//! The reactor owns its connections outright: the per-connection read
//! state machine (setup header → setup tail → frame header → payload,
//! resumable at any byte boundary) is fed from **one `read` per readiness
//! event** into one scratch buffer, and the connection's outbound deque is
//! drained on write readiness.  A request frame that arrived whole is
//! lent to the dispatcher where it lies in the scratch; only one split
//! across reads (or larger than the scratch) is put together in a pooled
//! staging buffer first.  The reactor hands each framed event to the
//! dispatcher through the one [`crate::dispatch::DispatchHandle`] and runs
//! its handler itself, under the dispatch lock — so a `GetTime` is
//! `epoll_wait`, `read`, `write` on one thread — with single-threaded
//! control semantics and slow-client overflow/eviction.
//!
//! Reply path (modeled in `loom_models.rs`, scenarios 5 and 6): every
//! connection has one deque of unwritten messages behind one lock
//! (`ConnShared`); the front is the message mid-write.  Whoever produces
//! a reply — a request handler on the reactor thread or the task thread —
//! takes the lock and, when the deque is empty, tries one nonblocking
//! `write` on the connection's socket itself.  A message the socket takes
//! whole never touches the deque; a short write, a would-block, an error,
//! or a message with others ahead of it is pushed on the back (at most
//! [`OUTBOUND_QUEUE_CAPACITY`] wait there).  The reactor's `flush_conn`
//! writes from the front under the same lock, one message per hold, so
//! bytes leave in issue order.  After a push the producer runs the wakeup
//! protocol: atomically swap the connection's `notified` flag; only the
//! first producer to set it leaves the connection's token in the mailbox
//! and writes the self-pipe.  The reactor clears `notified` *before*
//! draining, so a producer racing with the drain re-arms the notification
//! — no lost wakeup — while the flag keeps redundant tokens (and redundant
//! drains) bounded at one per drain cycle.  In the steady state the socket
//! takes every reply whole and the reactor is never woken for output.
//!
//! The mailbox is the flush tokens other threads leave, behind one leaf
//! lock; the reactor swaps it out whole when its self-pipe fires.
//!
//! Failure model: a malformed or oversized frame header is a protocol
//! error that disconnects only the offending client; a client that stops
//! reading fills its bounded deque and is evicted instead of growing
//! server memory.  Faults are injected below the socket, by a proxy
//! between client and server (`af_chaos::FaultProxy`), so every
//! connection runs the one transport.
//!
//! Backpressure: the lock is taken per framed event, never per readiness
//! batch, so `FRAME_BUDGET` fairness holds and the update task waits
//! behind at most one request.  While the reactor waits for the dispatch
//! lock it is not reading its sockets — TCP backpressure to the clients.

use crate::broadcast::{BroadcastBus, BroadcastChunk};
use crate::dispatch::DispatchHandle;
use crate::pool::{BufferPool, PooledBuf};
use crate::state::{ClientId, ServerEvent};
use crate::stats::{self, Bus, ShardCounters};
use af_proto::{decode_frame_header, ByteOrder, ConnSetup, FrameError};
use af_sys::{Interest, PollEvent, Poller, MAX_EVENTS};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Bound on the messages a connection may have waiting for its socket
/// (the one mid-write included).  A slow client hits this bound and is
/// evicted; the seed's unbounded queue grew without limit instead.
pub const OUTBOUND_QUEUE_CAPACITY: usize = 256;

/// Why [`OutboundTx::try_send_buf`] did not take a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refused {
    /// [`OUTBOUND_QUEUE_CAPACITY`] messages are already waiting: the
    /// client is not keeping up.
    Full,
    /// The connection is closed, or closing once what it holds has left.
    Closed,
}

/// `accept` errors meaning the process (`EMFILE`) or the system
/// (`ENFILE`) is out of descriptors; the same numbers on every Linux.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// Poller token reserved for the reactor's self-pipe wake fd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Frames decoded per readiness event per connection before yielding, so
/// one firehose client cannot starve its siblings (level-triggered
/// polling re-reports the fd immediately).  Checked between reads only:
/// bytes already read are always framed, so a turn can overshoot by at
/// most one scratch-full of frames.
const FRAME_BUDGET: u32 = 64;

/// Size of the reactor's read scratch: one `read` per readiness event lands
/// here, and a request frame that lies whole in it is handled where it
/// lies.  Holds a client library's whole pipelined burst (a 32 KB play is
/// four 8,212-byte frames in two `write`s) so that none straddles the end;
/// at 32 KB the fourth would whenever both writes are queued.  One for the
/// reactor, not one per connection, so idle connections cost no memory.
const READ_SCRATCH_BYTES: usize = 64 * 1024;

/// A staged payload's remainder at least this large is read straight into
/// its pooled buffer instead of through the scratch (no second copy).
const DIRECT_READ_MIN: usize = 2048;

/// Chunks gathered into one vectored write on a broadcast listener.
const BCAST_BATCH: usize = 8;

/// Cap on a broadcast listener's HTTP request head; longer heads are
/// treated as garbage and the connection is closed.
const BCAST_REQ_MAX: usize = 4096;

/// Wakes the reactor's poll loop by writing one byte to its self-pipe.
struct Waker {
    tx: UnixStream,
}

impl Waker {
    fn pair() -> io::Result<(Waker, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, rx))
    }

    fn wake(&self) {
        // A full pipe means a wake is already pending: dropping the byte
        // is correct, not a lost wakeup.
        let _ = (&self.tx).write(&[1]);
    }
}

/// The one owning handle to an accepted socket, shared by the reactor
/// (reads, flushes) and, for an AudioFile client, the dispatcher's
/// [`OutboundTx`] (direct writes, eviction).  One descriptor per
/// connection; a producer that outlives the connection keeps the *socket*
/// alive, so it can never write to a recycled descriptor number.
enum SharedSock {
    Tcp(Arc<TcpStream>),
    Unix(Arc<UnixStream>),
}

impl SharedSock {
    fn shutdown(&self) {
        let _ = match self {
            SharedSock::Tcp(s) => s.shutdown(Shutdown::Both),
            SharedSock::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }

    /// `read` through a shared reference (`Read` is implemented for
    /// `&TcpStream`/`&UnixStream`): the reactor holds the socket in the
    /// `Arc` it shares with the producers.
    fn read_shared(&self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SharedSock::Tcp(s) => (&**s).read(buf),
            SharedSock::Unix(s) => (&**s).read(buf),
        }
    }

    /// `write` through a shared reference, for the reactor's flush and for
    /// producers, none of which holds a `&mut`.
    fn write_shared(&self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SharedSock::Tcp(s) => (&**s).write(buf),
            SharedSock::Unix(s) => (&**s).write(buf),
        }
    }

    fn write_vectored(&self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            SharedSock::Tcp(s) => (&**s).write_vectored(bufs),
            SharedSock::Unix(s) => (&**s).write_vectored(bufs),
        }
    }
}

impl AsRawFd for SharedSock {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            SharedSock::Tcp(s) => s.as_raw_fd(),
            SharedSock::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// A bound, nonblocking listening socket, handed to [`Reactor::spawn`]
/// before the reactor thread runs.
pub struct Listener {
    sock: ListenSock,
    /// What it accepts are broadcast (HTTP/ICY) listeners, not AudioFile
    /// clients.
    broadcast: bool,
}

enum ListenSock {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds a TCP listener on `addr`.
    pub fn tcp(addr: SocketAddr, broadcast: bool) -> io::Result<Listener> {
        let sock = TcpListener::bind(addr)?;
        sock.set_nonblocking(true)?;
        Ok(Listener {
            sock: ListenSock::Tcp(sock),
            broadcast,
        })
    }

    /// Binds a Unix-domain listener at `path`, removing a stale socket
    /// file first.
    pub fn unix(path: &Path) -> io::Result<Listener> {
        let _ = std::fs::remove_file(path);
        let sock = UnixListener::bind(path)?;
        sock.set_nonblocking(true)?;
        Ok(Listener {
            sock: ListenSock::Unix(sock),
            broadcast: false,
        })
    }

    /// The bound address of a TCP listener.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.sock {
            ListenSock::Tcp(l) => l.local_addr().ok(),
            ListenSock::Unix(_) => None,
        }
    }

    /// Takes one pending connection, nonblocking, with its peer's address.
    fn accept(&self) -> io::Result<(SharedSock, Option<IpAddr>)> {
        Ok(match &self.sock {
            ListenSock::Tcp(l) => {
                let (s, addr) = l.accept()?;
                s.set_nonblocking(true)?;
                let _ = s.set_nodelay(true);
                (SharedSock::Tcp(Arc::new(s)), Some(addr.ip()))
            }
            ListenSock::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                (SharedSock::Unix(Arc::new(s)), None)
            }
        })
    }

    fn as_raw_fd(&self) -> RawFd {
        match &self.sock {
            ListenSock::Tcp(l) => l.as_raw_fd(),
            ListenSock::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// A connection's unwritten outbound messages, oldest first.
#[derive(Default)]
struct Outbound {
    /// The front is the message mid-write.
    queue: VecDeque<PooledBuf>,
    /// Bytes of the front message already on the socket.
    written: usize,
    /// No further message is taken.  Set by the reactor when it closes the
    /// connection, and by [`OutboundTx::hang_up`], after which the reactor
    /// closes the connection once `queue` has drained.
    closed: bool,
}

/// What the reactor and the dispatcher's [`OutboundTx`] share for one
/// connection: the socket, the unwritten messages, and the way to wake
/// the reactor for them.  Built by the reactor when it registers the
/// connection.
struct ConnShared {
    /// Poller token of the connection's slot.
    token: u64,
    /// Wakeup-protocol flag: a flush token for this connection is pending.
    notified: AtomicBool,
    /// The reactor's mailbox, waker and counters.
    link: Arc<ShardLink>,
    sock: SharedSock,
    /// The lock is the connection's write critical section — whoever holds
    /// it is the only thread writing the socket or touching the deque.
    outbound: Mutex<Outbound>,
}

impl ConnShared {
    /// Sends one message toward the connection without blocking: straight
    /// to the socket when nothing is ahead of it, otherwise (or for the
    /// unwritten remainder) onto the deque with a reactor wakeup.
    fn deliver(&self, buf: PooledBuf) -> Result<(), Refused> {
        // af-analyze: allow(blocking-in-reactor): leaf lock, held only across a nonblocking write and a push; contended only while the reactor flushes this same connection
        let mut out = self.outbound.lock().unwrap_or_else(PoisonError::into_inner);
        // A refused `buf` recycles (pool lock) at the return, unlocked.
        if out.closed {
            drop(out);
            return Err(Refused::Closed);
        }
        if out.queue.len() >= OUTBOUND_QUEUE_CAPACITY {
            drop(out);
            return Err(Refused::Full);
        }
        if out.queue.is_empty() {
            match self.sock.write_shared(&buf) {
                Ok(n) if n == buf.len() => {
                    drop(out);
                    self.link.stats.add(stats::Shard::Replies, 1);
                    self.link.stats.add(stats::Shard::DirectWrites, 1);
                    return Ok(());
                }
                // Short write: the reactor finishes the message and arms
                // write interest, exactly as for a queued one.
                Ok(n) => out.written = n,
                // Would block or an error: queue it, so the reactor's flush
                // meets the same condition and handles it on the one
                // close path.
                Err(_) => {}
            }
        }
        out.queue.push_back(buf);
        drop(out);
        self.link.stats.add(stats::Shard::QueuedWrites, 1);
        self.wake();
        Ok(())
    }

    /// Signals the reactor that the connection has outbound data it must
    /// write.  Must be called *after* the push, with the outbound lock
    /// released (the reactor clears `notified` before draining, so this
    /// ordering is what makes a racing push visible — see the module docs
    /// and the loom model).
    fn wake(&self) {
        if !self.notified.swap(true, Ordering::AcqRel) {
            let link = &self.link;
            // af-analyze: allow(blocking-in-reactor): leaf lock, held for one push
            let mut mailbox = link.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
            mailbox.push(self.token);
            drop(mailbox);
            link.waker.wake();
        }
    }

    /// The reactor's half of closing: refuses later messages and hands back
    /// the unwritten ones, so they recycle outside the lock.
    fn close(&self) -> VecDeque<PooledBuf> {
        // af-analyze: allow(blocking-in-reactor): leaf lock, held for a flag store and a take
        let mut out = self.outbound.lock().unwrap_or_else(PoisonError::into_inner);
        out.closed = true;
        std::mem::take(&mut out.queue)
    }
}

/// The dispatcher's handle on one connection: the way replies reach it
/// and the way it is evicted.
///
/// A producer (a request handler or the task thread) first attempts the
/// *direct write*: one nonblocking `write` on the socket, allowed only
/// when no earlier message is still waiting.  Whatever the socket would
/// not take goes on the connection's bounded deque, which the reactor
/// drains; producers push first, then wake, and that ordering is what
/// makes the clear-before-drain protocol lossless.
#[derive(Clone)]
pub struct OutboundTx(Arc<ConnShared>);

impl OutboundTx {
    /// Sends a message without blocking; the caller maps
    /// [`Refused::Full`] onto the slow-client overflow policy.
    pub fn try_send_buf(&self, buf: PooledBuf) -> Result<(), Refused> {
        self.0.deliver(buf)
    }

    /// Forcibly closes the connection's socket, so the reactor sees the
    /// hang-up and drops it (slow clients are evicted this way).  Counted
    /// as an eviction.
    pub fn kick(&self) {
        self.0.link.stats.add(stats::Shard::Evictions, 1);
        self.0.sock.shutdown();
    }

    /// Closes the connection from the server side once everything sent so
    /// far has left: no later message is taken, and the peer reads what
    /// was sent, whole, and then end-of-file.
    pub fn hang_up(&self) {
        let mut out = self
            .0
            .outbound
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        out.closed = true;
        let drained = out.queue.is_empty();
        drop(out);
        if drained {
            // Not an eviction, so not counted as one.
            self.0.sock.shutdown();
        } else {
            // The reactor closes the connection when its flush drains the
            // deque; the token makes sure a flush comes.
            self.0.wake();
        }
    }
}

#[cfg(test)]
impl OutboundTx {
    /// A handle on a connection no reactor owns: its socket's peer is gone,
    /// so every direct write fails and every message waits on the deque,
    /// which nothing drains, and wakeups go nowhere.
    pub(crate) fn detached() -> OutboundTx {
        let (waker, _wake_rx) = Waker::pair().expect("socketpair");
        let (sock, _peer) = UnixStream::pair().expect("socketpair");
        OutboundTx(Arc::new(ConnShared {
            token: 0,
            notified: AtomicBool::new(false),
            link: Arc::new(ShardLink {
                mailbox: Mutex::default(),
                waker,
                stats: Arc::default(),
                stop: AtomicBool::new(false),
            }),
            sock: SharedSock::Unix(Arc::new(sock)),
            outbound: Mutex::new(Outbound::default()),
        }))
    }

    /// Messages waiting on the deque.
    pub(crate) fn queued(&self) -> usize {
        self.0
            .outbound
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// Times the handle was kicked (a detached connection's reactor
    /// counters are its own).
    pub(crate) fn kicks(&self) -> u64 {
        self.0.link.stats.get(stats::Shard::Evictions)
    }
}

/// The way to reach the reactor thread from another thread.
struct ShardLink {
    /// Tokens of connections with freshly queued outbound data; no bound
    /// of its own, as `notified` admits one per connection.  A leaf lock:
    /// held for one push, or for the reactor's one swap.
    mailbox: Mutex<Vec<u64>>,
    waker: Waker,
    stats: Arc<ShardCounters>,
    /// Set by [`Reactor::shutdown`]; the woken reactor that finds it exits.
    stop: AtomicBool,
}

/// Where the connection's resumable read state machine stands.
enum ReadPhase {
    /// Collecting the fixed setup-message header.
    SetupHeader {
        buf: [u8; ConnSetup::HEADER_SIZE],
        have: usize,
    },
    /// Collecting the setup tail (`buf` holds header + zeroed tail).
    SetupTail { buf: Vec<u8>, have: usize },
    /// Between request frames, or collecting a 4-byte frame header that
    /// did not arrive whole.
    Header { buf: [u8; 4], have: usize },
    /// Staging, in a pooled buffer, a frame payload that did not arrive
    /// whole: split across reads, or larger than the read scratch.
    Payload {
        opcode: u8,
        buf: PooledBuf,
        have: usize,
    },
}

impl ReadPhase {
    const BETWEEN_FRAMES: ReadPhase = ReadPhase::Header {
        buf: [0u8; 4],
        have: 0,
    };
}

/// Moves what `dst` still needs (it has `have` bytes) out of `data`;
/// whether that completed it.
fn fill(dst: &mut [u8], have: &mut usize, data: &mut &[u8]) -> bool {
    let n = (dst.len() - *have).min(data.len());
    dst[*have..*have + n].copy_from_slice(&data[..n]);
    *have += n;
    *data = &data[n..];
    *have == dst.len()
}

/// One registered connection.
struct ConnState {
    fd: RawFd,
    id: ClientId,
    peer: Option<IpAddr>,
    order: ByteOrder,
    phase: ReadPhase,
    /// The socket, the unwritten outbound messages and the `notified`
    /// flag, shared with the dispatcher's [`OutboundTx`].
    shared: Arc<ConnShared>,
    want_write: bool,
}

/// Where a broadcast listener connection stands.
enum BcastPhase {
    /// Reading the HTTP request head (until the blank line).
    Request,
    /// Streaming chunks from the shared ring.
    Streaming,
}

/// One broadcast listener.  Holds no audio of its own — only a cursor
/// into the shared chunk ring plus the batch of `Arc`-shared chunks
/// currently being written.
struct BcastConn {
    sock: SharedSock,
    phase: BcastPhase,
    /// Request-head bytes collected so far (bounded by [`BCAST_REQ_MAX`]).
    req: Vec<u8>,
    /// ICY listener: raw payload bytes, no chunked-transfer framing.
    icy: bool,
    /// Next chunk sequence number this listener wants.
    cursor: u64,
    /// Response head still to write: `(bytes, offset)`.
    header: Option<(&'static [u8], usize)>,
    /// Fetched chunks being written; front is in flight.
    batch: VecDeque<Arc<BroadcastChunk>>,
    /// Bytes of the front chunk's wire slice already written.
    off: usize,
    want_write: bool,
    /// Consecutive chunk publishes with pending data and zero write
    /// progress (the stalled-listener eviction trigger).
    strikes: u32,
}

/// Index of the byte just past the request head's blank line, if the
/// head is complete.
fn find_head_end(req: &[u8]) -> Option<usize> {
    req.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// The reactor's broadcast state: the shared bus plus the listener
/// roster, pumped when the bus marks the reactor dirty.
struct ShardBroadcast {
    bus: Arc<BroadcastBus>,
    /// Set by [`BroadcastBus::publish`]; cleared (then acted on) by the
    /// reactor's wake handler — the same edge-triggered shape as a
    /// connection's `notified` flag.
    dirty: Arc<AtomicBool>,
    /// Tokens of the broadcast listener slots.
    tokens: Vec<usize>,
}

enum Slot {
    Listen(Listener),
    Conn(Box<ConnState>),
    Bcast(Box<BcastConn>),
}

/// Why `drive_read` stopped.
enum ReadOutcome {
    /// Would block: state saved, wait for the next readiness event.
    Park,
    /// EOF, I/O error, or unusable setup: close without protocol blame.
    Close,
    /// Malformed framing: report `ProtocolError`, then close.
    Protocol(FrameError),
}

/// The reactor thread's state: everything it owns.
struct Shard {
    poller: Poller,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Tokens freed during the current event batch; recycled only after
    /// the batch so a stale readiness event cannot alias a fresh conn.
    deferred_free: Vec<usize>,
    wake_rx: UnixStream,
    stats: Arc<ShardCounters>,
    link: Arc<ShardLink>,
    /// The way into the dispatcher: every framed event goes through it.
    dispatch: DispatchHandle,
    /// Frame/reply buffer pool shared with the dispatcher.
    pool: Arc<BufferPool>,
    /// The next client id to hand out.
    next_id: ClientId,
    /// The empty half of the mailbox swap: a wake trades it for the full
    /// mailbox and keeps what it got, cleared, for the next trade, so the
    /// vector's capacity circulates and a busy wake does not allocate.
    spare_mailbox: Vec<u64>,
    /// Where each readiness event's one `read` lands
    /// ([`READ_SCRATCH_BYTES`]); shared by all connections.
    read_scratch: Vec<u8>,
    /// Broadcast bus + listener roster, when this reactor serves fan-out.
    broadcast: Option<ShardBroadcast>,
    /// Reusable scratch for the broadcast dirty pass (same rationale as
    /// `spare_mailbox`).
    bcast_scratch: Vec<usize>,
    /// A descriptor held in reserve, given up to shed a pending
    /// connection when the process is out of descriptors.
    spare: Option<File>,
}

impl Shard {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(MAX_EVENTS);
        loop {
            if self.link.stop.load(Ordering::Relaxed) {
                break;
            }
            events.clear();
            if self.poller.wait(&mut events, -1).is_err() {
                break;
            }
            for ev in &events {
                self.stats.add(stats::Shard::ReadinessEvents, 1);
                if ev.token == WAKE_TOKEN {
                    self.handle_wake();
                } else {
                    self.handle_token(*ev);
                }
            }
            self.free.append(&mut self.deferred_free);
        }
        self.close_all();
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(t) => t,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        }
    }

    fn handle_wake(&mut self) {
        self.stats.add(stats::Shard::Wakeups, 1);
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                // A full sink may leave bytes behind; anything less has
                // drained the pipe, so no second read just to see EAGAIN.
                Ok(n) if n == sink.len() => continue,
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: pipe drained.
            }
        }
        // Every flush token left since the last wake, swapped out whole
        // for the empty spare.
        let mut inbox = std::mem::take(&mut self.spare_mailbox);
        {
            let link = &self.link;
            // af-analyze: allow(blocking-in-reactor): leaf lock, held for one swap; a producer holds it for one push
            let mut mailbox = link.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut *mailbox, &mut inbox);
        }
        // Flush connections with freshly queued outbound data.
        for &t in &inbox {
            self.flush_token(t);
        }
        inbox.clear();
        self.spare_mailbox = inbox;
        // Broadcast dirty pass: a sealed chunk set the reactor's flag, so
        // pump every listener.  Strikes are counted here (and only
        // here): a listener with pending bytes that makes no progress
        // across many publishes is stalled, not merely slow.
        if self
            .broadcast
            .as_ref()
            .is_some_and(|b| b.dirty.swap(false, Ordering::AcqRel))
        {
            let mut tokens = std::mem::take(&mut self.bcast_scratch);
            tokens.clear();
            if let Some(b) = self.broadcast.as_ref() {
                tokens.extend_from_slice(&b.tokens);
            }
            for &t in &tokens {
                self.pump_bcast(t, true);
            }
            self.bcast_scratch = tokens;
        }
    }

    /// Registers an accepted connection: an AudioFile client, or a
    /// broadcast listener (dropped, closing its socket, when this reactor
    /// has no bus).
    fn register_conn(&mut self, sock: SharedSock, peer: Option<IpAddr>, broadcast: bool) {
        if broadcast && self.broadcast.is_none() {
            return;
        }
        let token = self.alloc_slot();
        let fd = sock.as_raw_fd();
        if self
            .poller
            .register(fd, token as u64, Interest::Read)
            .is_err()
        {
            self.free.push(token);
            return; // Dropping the socket closes it; the dispatcher never
                    // learned of it, so no event is owed.
        }
        self.stats.add(stats::Shard::Accepted, 1);
        self.stats.add(stats::Shard::FdCount, 1);
        let id = self.next_id;
        self.next_id += 1;
        let slot = match self.broadcast.as_mut() {
            Some(sb) if broadcast => {
                sb.bus.stats().add(Bus::ListenersTotal, 1);
                sb.tokens.push(token);
                Slot::Bcast(Box::new(BcastConn {
                    sock,
                    phase: BcastPhase::Request,
                    req: Vec::with_capacity(256),
                    icy: false,
                    cursor: 0,
                    header: None,
                    batch: VecDeque::with_capacity(BCAST_BATCH),
                    off: 0,
                    want_write: false,
                    strikes: 0,
                }))
            }
            _ => Slot::Conn(Box::new(ConnState {
                fd,
                id,
                peer,
                order: ByteOrder::Little, // Overwritten when setup completes.
                phase: ReadPhase::SetupHeader {
                    buf: [0u8; ConnSetup::HEADER_SIZE],
                    have: 0,
                },
                shared: Arc::new(ConnShared {
                    token: token as u64,
                    notified: AtomicBool::new(false),
                    link: Arc::clone(&self.link),
                    sock,
                    outbound: Mutex::new(Outbound::default()),
                }),
                want_write: false,
            })),
        };
        self.slots[token] = Some(slot);
    }

    fn handle_token(&mut self, ev: PollEvent) {
        let token = ev.token as usize;
        match self.slots.get(token) {
            Some(Some(Slot::Listen(_))) => self.accept_ready(token),
            Some(Some(Slot::Conn(_))) => {
                if ev.writable {
                    self.flush_conn(token, false);
                }
                if ev.readable {
                    self.read_conn(token);
                }
            }
            Some(Some(Slot::Bcast(_))) => {
                if ev.writable {
                    self.pump_bcast(token, false);
                }
                if ev.readable {
                    self.read_bcast(token);
                }
            }
            _ => {} // Freed mid-batch: stale event, ignore.
        }
    }

    /// Accepts every pending connection on a listener — TCP or Unix,
    /// AudioFile client or broadcast listener — and registers each.
    fn accept_ready(&mut self, token: usize) {
        loop {
            let Some(Some(Slot::Listen(listener))) = self.slots.get(token) else {
                return;
            };
            let broadcast = listener.broadcast;
            match listener.accept() {
                Ok((sock, peer)) => self.register_conn(sock, peer, broadcast),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Out of descriptors: the connection stays in the backlog,
                // and the level-triggered poller would report the listener
                // again at once.  Shed it: give up the spare, accept and drop
                // the connection, take the spare back.
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => {
                    let Some(spare) = self.spare.take() else {
                        return;
                    };
                    drop(spare);
                    drop(listener.accept());
                    self.spare = File::open("/dev/null").ok();
                }
                Err(_) => return, // WouldBlock or transient accept failure.
            }
        }
    }

    /// Clears the notified flag, then drains: the clear-before-drain order
    /// is the receiving half of the wakeup protocol.
    fn flush_token(&mut self, token: u64) {
        let token = token as usize;
        if let Some(Some(Slot::Conn(c))) = self.slots.get(token) {
            c.shared.notified.store(false, Ordering::Release);
            self.flush_conn(token, true);
        }
    }

    /// Writes the connection's outbound deque out as far as the socket
    /// allows, tracking write interest so the poller only watches
    /// writability while a message is actually stalled.  Each message is
    /// written from the front under the connection's outbound lock, so no
    /// producer writes the socket while anything is ahead of it; the lock
    /// is dropped between messages so a finished buffer goes back to the
    /// pool (another lock) outside it.  A deque that drains after
    /// `hang_up` closes the connection.
    fn flush_conn(&mut self, token: usize, from_notify: bool) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(Slot::Conn(mut conn)) = slot.take() else {
            return;
        };
        let mut dead = false;
        let outbound = &conn.shared.outbound;
        let want = loop {
            // af-analyze: allow(blocking-in-reactor): leaf lock; a producer holds it only across one nonblocking write and a push
            let mut locked = outbound.lock().unwrap_or_else(PoisonError::into_inner);
            let out = &mut *locked;
            let Some(buf) = out.queue.front() else {
                dead = out.closed;
                break false;
            };
            match conn.shared.sock.write_shared(&buf[out.written..]) {
                Ok(0) => {
                    dead = true;
                    break true;
                }
                Ok(n) => {
                    out.written += n;
                    if out.written == buf.len() {
                        out.written = 0;
                        let sent = out.queue.pop_front();
                        drop(locked);
                        self.stats.add(stats::Shard::Replies, 1);
                        drop(sent); // Recycles the pooled buffer, unlocked.
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break true;
                }
            }
        };
        if dead
            || (!self.watch_writes(conn.fd, token, &mut conn.want_write, want)
                && (from_notify || want))
        {
            self.close_conn(token, conn, None);
            return;
        }
        self.slots[token] = Some(Slot::Conn(conn));
    }

    /// Watches the socket's writability exactly while `want` says bytes
    /// are stalled.  False when the poller refused the change: a stalled
    /// message would then never drain, so the caller fails the connection
    /// instead of wedging.
    fn watch_writes(&mut self, fd: RawFd, token: usize, armed: &mut bool, want: bool) -> bool {
        if want == *armed {
            return true;
        }
        let interest = if want {
            Interest::ReadWrite
        } else {
            Interest::Read
        };
        let ok = self.poller.reregister(fd, token as u64, interest).is_ok();
        if ok {
            *armed = want;
        }
        ok
    }

    /// Reads a broadcast listener: the HTTP request head during
    /// [`BcastPhase::Request`], discard-and-detect-EOF afterwards
    /// (listeners have nothing further to say).
    fn read_bcast(&mut self, token: usize) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(Slot::Bcast(mut conn)) = slot.take() else {
            return;
        };
        let mut buf = [0u8; 512];
        loop {
            match conn.sock.read_shared(&mut buf) {
                Ok(0) => {
                    self.close_bcast(token, *conn);
                    return;
                }
                Ok(n) => match conn.phase {
                    BcastPhase::Request => {
                        conn.req.extend_from_slice(&buf[..n]);
                        if conn.req.len() > BCAST_REQ_MAX {
                            self.close_bcast(token, *conn); // Garbage head.
                            return;
                        }
                        if let Some(head_end) = find_head_end(&conn.req) {
                            if !self.start_stream(&mut conn, head_end) {
                                self.close_bcast(token, *conn);
                                return;
                            }
                            // Immediate pump: the preroll chunks burst in
                            // without waiting for the next publish.
                            self.slots[token] = Some(Slot::Bcast(conn));
                            self.pump_bcast(token, false);
                            return;
                        }
                    }
                    BcastPhase::Streaming => {} // Discard.
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_bcast(token, *conn);
                    return;
                }
            }
        }
        self.slots[token] = Some(Slot::Bcast(conn));
    }

    /// Parses the completed request head and arms the stream: response
    /// header, join cursor at the live edge minus preroll, listener gauge.
    /// Returns false on a head that is not a plausible stream request.
    fn start_stream(&self, conn: &mut BcastConn, head_end: usize) -> bool {
        let Some(sb) = self.broadcast.as_ref() else {
            return false;
        };
        let head = &conn.req[..head_end];
        let line_end = head.iter().position(|&c| c == b'\r').unwrap_or(head.len());
        let mut parts = head[..line_end].split(|&c| c == b' ');
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return false;
        };
        if method != b"GET" {
            return false;
        }
        // `/;` is the SHOUTcast convention for "give me the ICY stream";
        // a `.icy` suffix is accepted as an explicit spelling.
        conn.icy = path == b"/;" || path.ends_with(b".icy");
        conn.header = Some((
            if conn.icy {
                crate::broadcast::ICY_STREAM_HEADER
            } else {
                crate::broadcast::HTTP_STREAM_HEADER
            },
            0,
        ));
        conn.cursor = sb.bus.join_cursor();
        conn.phase = BcastPhase::Streaming;
        sb.bus.stats().add(Bus::Listeners, 1);
        conn.req = Vec::new(); // Request buffer is dead weight from here.
        true
    }

    /// Writes a broadcast listener forward: response head first, then
    /// batches of `Arc`-shared ring chunks via one vectored write per
    /// round, until the socket would block or the cursor reaches the live
    /// edge.  `strike` is true on the publish-driven dirty pass, where
    /// zero progress with pending bytes counts toward stall eviction.
    fn pump_bcast(&mut self, token: usize, strike: bool) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(Slot::Bcast(mut conn)) = slot.take() else {
            return;
        };
        if matches!(conn.phase, BcastPhase::Request) {
            self.slots[token] = Some(Slot::Bcast(conn));
            return;
        }
        let Some(bus) = self.broadcast.as_ref().map(|sb| Arc::clone(&sb.bus)) else {
            self.close_bcast(token, *conn);
            return;
        };
        let mut progressed = false;
        let mut dead = false;
        loop {
            // Flush the response head before any chunk bytes.
            if let Some((head, off)) = conn.header.as_mut() {
                match conn.sock.write_shared(&head[*off..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        *off += n;
                        progressed = true;
                        if *off == head.len() {
                            conn.header = None;
                        } else {
                            continue;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            // Refill the write batch from the shared ring (applies the
            // skip-ahead lag policy and its accounting).
            if conn.batch.is_empty() {
                let info = bus.fetch_batch(conn.cursor, BCAST_BATCH, &mut conn.batch);
                conn.cursor = info.next_cursor;
                if conn.batch.is_empty() {
                    break; // At the live edge.
                }
            }
            // One vectored write over the whole batch.  The slices borrow
            // the `Arc`-shared chunk bytes directly: this is the zero-copy
            // fan-out — no listener-side buffer exists at all.
            let result = {
                let c = &mut *conn;
                let mut slices: [IoSlice; BCAST_BATCH] = std::array::from_fn(|_| IoSlice::new(&[]));
                let mut count = 0;
                for chunk in c.batch.iter().take(BCAST_BATCH) {
                    let s = if c.icy { chunk.payload() } else { chunk.wire() };
                    slices[count] = IoSlice::new(if count == 0 { &s[c.off..] } else { s });
                    count += 1;
                }
                c.sock.write_vectored(&slices[..count])
            };
            match result {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    bus.stats().add(Bus::BytesFannedOut, n as u64);
                    // Retire fully written chunks; remember the offset
                    // into a partially written front.
                    let mut left = n;
                    while left > 0 {
                        let Some(chunk) = conn.batch.front() else {
                            break;
                        };
                        let total = if conn.icy {
                            chunk.payload().len()
                        } else {
                            chunk.wire().len()
                        };
                        let front_left = total - conn.off;
                        if left >= front_left {
                            conn.batch.pop_front();
                            conn.off = 0;
                            left -= front_left;
                        } else {
                            conn.off += left;
                            left = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.close_bcast(token, *conn);
            return;
        }
        let pending = conn.header.is_some() || !conn.batch.is_empty();
        if progressed {
            conn.strikes = 0;
        } else if strike && pending {
            conn.strikes += 1;
            if conn.strikes >= bus.config().stall_strikes {
                self.stats.add(stats::Shard::Evictions, 1);
                bus.stats().add(Bus::Evictions, 1);
                self.close_bcast(token, *conn);
                return;
            }
        }
        let fd = conn.sock.as_raw_fd();
        if !self.watch_writes(fd, token, &mut conn.want_write, pending) && pending {
            self.close_bcast(token, *conn);
            return;
        }
        self.slots[token] = Some(Slot::Bcast(conn));
    }

    fn close_bcast(&mut self, token: usize, conn: BcastConn) {
        self.release(conn.sock.as_raw_fd(), token);
        if let Some(sb) = self.broadcast.as_mut() {
            if let Some(i) = sb.tokens.iter().position(|&t| t == token) {
                sb.tokens.swap_remove(i);
            }
            if matches!(conn.phase, BcastPhase::Streaming) {
                sb.bus.stats().sub(Bus::Listeners, 1);
            }
        }
        // Dropping `conn` closes the fd and releases its chunk refs.
    }

    /// The accounting every close shares: the descriptor leaves the poller
    /// and the gauge, and its token is recycled once the event batch is
    /// done.
    fn release(&mut self, fd: RawFd, token: usize) {
        let _ = self.poller.deregister(fd);
        self.stats.add(stats::Shard::Closed, 1);
        self.stats.sub(stats::Shard::FdCount, 1);
        self.deferred_free.push(token);
    }

    fn read_conn(&mut self, token: usize) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(Slot::Conn(mut conn)) = slot.take() else {
            return;
        };
        match self.drive_read(&mut conn) {
            ReadOutcome::Park => self.slots[token] = Some(Slot::Conn(conn)),
            ReadOutcome::Close => self.close_conn(token, conn, None),
            ReadOutcome::Protocol(e) => self.close_conn(token, conn, Some(e)),
        }
    }

    /// Reads the connection once per readiness event into the reactor's
    /// scratch and frames whatever arrived.  A short read means the socket
    /// is drained — park without probing for `EAGAIN` (level-triggered
    /// polling re-reports anything that arrives later); only a read that
    /// filled its buffer is followed by another, frame budget permitting.
    fn drive_read(&mut self, conn: &mut ConnState) -> ReadOutcome {
        let mut budget = FRAME_BUDGET;
        let mut scratch = std::mem::take(&mut self.read_scratch);
        let outcome = loop {
            if budget == 0 {
                // Level-triggered polling re-reports unread data, so
                // parking here just rotates to the next fd.
                break ReadOutcome::Park;
            }
            // A staged payload's large remainder goes straight into its
            // pooled buffer; everything else lands in the scratch.
            self.stats.add(stats::Shard::ReadCalls, 1);
            let (read, room, direct) = match &mut conn.phase {
                ReadPhase::Payload { buf, have, .. } if buf.len() - *have >= DIRECT_READ_MIN => {
                    let dst = &mut buf[*have..];
                    (conn.shared.sock.read_shared(dst), dst.len(), true)
                }
                _ => (
                    conn.shared.sock.read_shared(&mut scratch),
                    scratch.len(),
                    false,
                ),
            };
            let n = match read {
                Ok(0) => break ReadOutcome::Close, // EOF.
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break ReadOutcome::Park,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break ReadOutcome::Close,
            };
            let data: &[u8] = match &mut conn.phase {
                ReadPhase::Payload { have, .. } if direct => {
                    *have += n;
                    &[]
                }
                _ => &scratch[..n],
            };
            if let Err(outcome) = self.feed(conn, data, &mut budget) {
                break outcome;
            }
            if n < room {
                break ReadOutcome::Park;
            }
        };
        self.read_scratch = scratch;
        outcome
    }

    /// Feeds `data` through the connection's read state machine, which
    /// resumes at any byte boundary.  All of `data` is consumed: a request
    /// frame that lies whole in it goes to the dispatcher from where it
    /// lies, one that does not is staged in the connection's phase buffer
    /// and goes from there once complete — the same call either way.
    /// `budget` is decremented per frame and may be exhausted mid-buffer;
    /// the caller checks it between reads.
    fn feed(
        &mut self,
        conn: &mut ConnState,
        mut data: &[u8],
        budget: &mut u32,
    ) -> Result<(), ReadOutcome> {
        loop {
            // Each arm moves what its phase still needs out of `data`; a
            // phase left incomplete has run out of bytes, and that is a
            // partial read unless it stopped cleanly between two frames.
            match &mut conn.phase {
                ReadPhase::SetupHeader { buf, have } => {
                    if !fill(buf, have, &mut data) {
                        break;
                    }
                    let Ok(tail_len) = ConnSetup::tail_len(buf) else {
                        return Err(ReadOutcome::Close); // Garbage setup.
                    };
                    // af-analyze: allow(alloc): connection-setup phase, one hello copy per connection
                    let mut setup = buf.to_vec();
                    if tail_len == 0 {
                        self.finish_setup(conn, setup)?;
                    } else {
                        setup.resize(ConnSetup::HEADER_SIZE + tail_len, 0);
                        conn.phase = ReadPhase::SetupTail {
                            buf: setup,
                            have: ConnSetup::HEADER_SIZE,
                        };
                    }
                }
                ReadPhase::SetupTail { buf, have } => {
                    if !fill(buf, have, &mut data) {
                        break;
                    }
                    let setup = std::mem::take(buf);
                    self.finish_setup(conn, setup)?;
                }
                ReadPhase::Header { buf, have } => {
                    let header = match data.split_first_chunk() {
                        Some((header, rest)) if *have == 0 => {
                            data = rest;
                            *header
                        }
                        _ if fill(buf, have, &mut data) => {
                            *have = 0;
                            *buf
                        }
                        _ if *have == 0 => return Ok(()), // A clean frame boundary.
                        _ => break,
                    };
                    let (opcode, payload_len) =
                        decode_frame_header(conn.order, header).map_err(ReadOutcome::Protocol)?;
                    if data.len() >= payload_len {
                        let (payload, rest) = data.split_at(payload_len);
                        data = rest;
                        self.dispatch_frame(conn.id, opcode, payload, budget)?;
                    } else {
                        conn.phase = ReadPhase::Payload {
                            opcode,
                            buf: self.pool.take_filled(payload_len),
                            have: 0,
                        };
                    }
                }
                ReadPhase::Payload { buf, have, .. } => {
                    if !fill(buf, have, &mut data) {
                        break;
                    }
                    let staged = std::mem::replace(&mut conn.phase, ReadPhase::BETWEEN_FRAMES);
                    if let ReadPhase::Payload { opcode, buf, .. } = staged {
                        self.stats.add(stats::Shard::StagedFrames, 1);
                        self.dispatch_frame(conn.id, opcode, &buf, budget)?;
                    }
                }
            }
        }
        self.stats.add(stats::Shard::PartialReads, 1);
        Ok(())
    }

    /// Lends one complete request frame to the dispatcher, which handles
    /// it here and now, under the dispatch lock.
    fn dispatch_frame(
        &self,
        id: ClientId,
        opcode: u8,
        payload: &[u8],
        budget: &mut u32,
    ) -> Result<(), ReadOutcome> {
        self.stats.add(stats::Shard::Frames, 1);
        if self.dispatch.request(id, opcode, payload).is_err() {
            return Err(ReadOutcome::Close); // Dispatcher gone.
        }
        *budget = budget.saturating_sub(1);
        Ok(())
    }

    fn finish_setup(&self, conn: &mut ConnState, setup: Vec<u8>) -> Result<(), ReadOutcome> {
        let Some(&marker) = setup.first() else {
            return Err(ReadOutcome::Close);
        };
        let Ok(order) = ByteOrder::from_marker(marker) else {
            return Err(ReadOutcome::Close);
        };
        conn.order = order;
        if self
            .dispatch
            .submit(ServerEvent::NewClient {
                id: conn.id,
                setup,
                peer: conn.peer,
                tx: OutboundTx(Arc::clone(&conn.shared)),
            })
            .is_err()
        {
            return Err(ReadOutcome::Close);
        }
        conn.phase = ReadPhase::BETWEEN_FRAMES;
        Ok(())
    }

    // Takes the box so the reactor's half of the connection is dropped here.
    #[allow(clippy::boxed_local)]
    fn close_conn(&mut self, token: usize, conn: Box<ConnState>, protocol: Option<FrameError>) {
        self.release(conn.fd, token);
        let dispatch = &self.dispatch;
        if let Some(error) = protocol {
            let _ = dispatch.submit(ServerEvent::ProtocolError { id: conn.id, error });
        }
        // Always sent, even pre-setup: the dispatcher ignores ids it
        // never admitted.
        let _ = dispatch.submit(ServerEvent::Disconnect { id: conn.id });
        // A handle the dispatcher still holds now reports closed and keeps
        // no buffer; dropping `conn` closes the reactor's half.
        drop(conn.shared.close());
    }

    /// Closes everything the reactor owns, with the same accounting as a
    /// close on the way: after it, the `fd_count` gauge reads 0.
    fn close_all(&mut self) {
        for (token, slot) in std::mem::take(&mut self.slots).into_iter().enumerate() {
            match slot {
                Some(Slot::Conn(conn)) => self.close_conn(token, conn, None),
                Some(Slot::Bcast(conn)) => self.close_bcast(token, *conn),
                Some(Slot::Listen(_)) => self.stats.sub(stats::Shard::FdCount, 1),
                None => {}
            }
        }
        let _ = self.poller.deregister(self.wake_rx.as_raw_fd());
        self.stats.sub(stats::Shard::FdCount, 1);
    }
}

/// A running reactor: its thread and the way to reach it.
pub struct Reactor {
    link: Arc<ShardLink>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the reactor thread (`af-reactor-0`), submitting to
    /// `dispatch` and staging split frames in `pool`.
    ///
    /// The reactor accepts on every listener.  With a [`BroadcastBus`], it
    /// registers an edge-triggered dirty flag with the bus, so sealing a
    /// chunk wakes it once.  The wake pipe and the listeners are
    /// registered with the poller and counted in `FdCount` before this
    /// returns.  Fails, with no thread started, when the poller cannot be
    /// created or take a descriptor: `ErrorKind::Unsupported` on targets
    /// without a syscall backend (see [`af_sys`] for the supported list),
    /// else the system call's own error.
    pub fn spawn(
        dispatch: DispatchHandle,
        pool: Arc<BufferPool>,
        listeners: Vec<Listener>,
        broadcast: Option<Arc<BroadcastBus>>,
    ) -> io::Result<Reactor> {
        let mut poller = Poller::new()?;
        let (waker, wake_rx) = Waker::pair()?;
        // Registered and counted here, not on the reactor thread, so the
        // gauge is settled when `spawn` returns; `close_all` undoes both.
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::Read)?;
        let counters = Arc::<ShardCounters>::default();
        counters.add(stats::Shard::FdCount, 1);
        let mut slots = Vec::with_capacity(listeners.len());
        for listener in listeners {
            poller.register(listener.as_raw_fd(), slots.len() as u64, Interest::Read)?;
            counters.add(stats::Shard::FdCount, 1);
            slots.push(Some(Slot::Listen(listener)));
        }
        let spare = Some(File::open("/dev/null")?);
        let link = Arc::new(ShardLink {
            mailbox: Mutex::default(),
            waker,
            stats: Arc::clone(&counters),
            stop: AtomicBool::new(false),
        });
        let broadcast = broadcast.map(|bus| {
            let dirty = Arc::new(AtomicBool::new(false));
            let wake = Arc::clone(&link);
            bus.register_reactor(Arc::clone(&dirty), Box::new(move || wake.waker.wake()));
            ShardBroadcast {
                bus,
                dirty,
                tokens: Vec::new(),
            }
        });
        let shard = Shard {
            poller,
            slots,
            free: Vec::new(),
            deferred_free: Vec::new(),
            wake_rx,
            stats: counters,
            link: Arc::clone(&link),
            dispatch,
            pool,
            next_id: 1,
            spare_mailbox: Vec::new(),
            read_scratch: vec![0u8; READ_SCRATCH_BYTES],
            broadcast,
            bcast_scratch: Vec::new(),
            spare,
        };
        let join = std::thread::Builder::new()
            .name("af-reactor-0".into())
            .spawn(move || shard.run())?;
        Ok(Reactor {
            link,
            join: Some(join),
        })
    }

    /// The reactor's counters (the builder hands them to
    /// `ServerStats::reactor`).
    pub fn stats(&self) -> Arc<ShardCounters> {
        Arc::clone(&self.link.stats)
    }

    /// Stops the reactor and joins its thread.  Idempotent.
    pub fn shutdown(&mut self) {
        let Some(join) = self.join.take() else {
            return;
        };
        // Stored before the wake-up's `write`, so the reactor finds it at
        // the top of its loop.
        self.link.stop.store(true, Ordering::SeqCst);
        self.link.waker.wake();
        // af-analyze: allow(blocking-in-reactor): server teardown only; the approximate call graph reaches here through a TcpStream::shutdown name collision
        let _ = join.join();
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Captured, DispatchHandle};
    use crate::pool::BufferPool;
    use crate::stats::Shard::{
        Accepted, Closed, DirectWrites, Evictions, FdCount, Frames, PartialReads, QueuedWrites,
        Replies, StagedFrames,
    };
    use crate::stats::Snapshot;
    use af_time::ATime;
    use std::sync::mpsc::{sync_channel, Receiver};
    use std::time::Duration;

    /// Room for every event of a test that does not bound its own queue.
    const EVENT_ROOM: usize = 1024;

    fn start() -> (Reactor, Receiver<Captured>, SocketAddr) {
        start_with(EVENT_ROOM)
    }

    /// A reactor on loopback TCP with a bounded event queue.  (Loopback
    /// TCP has byte-granular socket buffers: a reader that pauses forces
    /// short writes, which all-or-nothing Unix-socket writes never are.)
    fn start_with(event_capacity: usize) -> (Reactor, Receiver<Captured>, SocketAddr) {
        let (tx, rx) = sync_channel(event_capacity);
        let (listener, addr) = tcp_listener(false);
        let dispatch = DispatchHandle::capture(tx);
        let reactor = Reactor::spawn(dispatch, BufferPool::shared(), vec![listener], None);
        (reactor.unwrap(), rx, addr)
    }

    /// A loopback TCP listener and its address.
    fn tcp_listener(broadcast: bool) -> (Listener, SocketAddr) {
        let listener = Listener::tcp("127.0.0.1:0".parse().unwrap(), broadcast).unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    fn recv(rx: &Receiver<Captured>) -> Captured {
        rx.recv_timeout(Duration::from_secs(5)).unwrap()
    }

    /// The next thing the reactor handed over, which must be a connection's
    /// setup: `(id, setup, peer, tx)`.
    fn new_client(rx: &Receiver<Captured>) -> (ClientId, Vec<u8>, Option<IpAddr>, OutboundTx) {
        match recv(rx) {
            Captured::Event(ServerEvent::NewClient {
                id,
                setup,
                peer,
                tx,
            }) => (id, setup, peer, tx),
            _ => panic!("expected NewClient"),
        }
    }

    /// … a framed request: `(id, opcode, payload)`.
    fn request(rx: &Receiver<Captured>) -> (ClientId, u8, Vec<u8>) {
        match recv(rx) {
            Captured::Request(id, opcode, payload) => (id, opcode, payload),
            _ => panic!("expected a request"),
        }
    }

    /// … a framing violation.
    fn protocol_error(rx: &Receiver<Captured>) -> FrameError {
        match recv(rx) {
            Captured::Event(ServerEvent::ProtocolError { error, .. }) => error,
            _ => panic!("expected ProtocolError"),
        }
    }

    /// … the connection's end.
    fn disconnect(rx: &Receiver<Captured>) {
        match recv(rx) {
            Captured::Event(ServerEvent::Disconnect { .. }) => {}
            _ => panic!("expected Disconnect"),
        }
    }

    /// Polls until `done` holds (the reactor bumps its counters a beat after
    /// the effect a test can observe).
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        for _ in 0..10_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn framing_round_trip_and_reply() {
        let (mut reactor, rx, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        let setup = ConnSetup::new();
        sock.write_all(&setup.encode()).unwrap();
        let req = af_proto::Request::PlaySamples {
            ac: 3,
            start_time: ATime::new(99),
            flags: 0,
            data: vec![1, 2, 3, 4, 5, 6, 7],
        };
        sock.write_all(&req.encode(ByteOrder::native())).unwrap();

        let (_, s, peer, otx) = new_client(&rx);
        assert_eq!(ConnSetup::decode(&s).unwrap(), setup);
        assert!(peer.unwrap().is_loopback());
        let (_, opcode, payload) = request(&rx);
        assert_eq!(opcode, af_proto::Opcode::PlaySamples.to_wire());
        let decoded =
            af_proto::Request::decode(ByteOrder::native(), af_proto::Opcode::PlaySamples, &payload)
                .unwrap();
        assert_eq!(decoded, req);

        // Reply path: queue bytes the way the dispatcher does and
        // check they arrive — this exercises the wakeup protocol and
        // the write-readiness drain end to end.
        let payload = vec![0xA5u8; 600];
        assert!(otx.try_send_buf(payload.clone().into()).is_ok());
        let mut got = vec![0u8; payload.len()];
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.read_exact(&mut got).unwrap();
        assert_eq!(got, payload);

        drop(sock);
        disconnect(&rx);
        reactor.shutdown();
    }

    #[test]
    fn zero_length_frame_reports_protocol_error_then_disconnects() {
        let (mut reactor, rx, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        new_client(&rx);
        sock.write_all(&[0, 0, 33, 0]).unwrap();
        assert_eq!(protocol_error(&rx), FrameError::ZeroLength);
        disconnect(&rx);
        reactor.shutdown();
    }

    #[test]
    fn truncated_max_length_frame_disconnects_without_a_partial_request() {
        let (mut reactor, rx, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        new_client(&rx);
        // Claim the maximum expressible frame length (0xffff words, which
        // reads the same in either byte order), then hang up without
        // sending the payload.  The reactor must not emit a partial request.
        sock.write_all(&[0xff, 0xff, 33, 0]).unwrap();
        drop(sock);
        disconnect(&rx);
        reactor.shutdown();
    }

    #[test]
    fn steady_state_framing_recycles_frame_buffers() {
        // The acceptance property for the buffer pool.  Frames that arrive
        // whole are handled where `read` left them: no buffer is taken
        // from the pool at all.  Frames split across reads are staged in
        // a pooled buffer, and that one buffer goes round: the reactor does
        // NOT allocate a Vec per frame.
        let (tx, rx) = sync_channel(1);
        let pool = BufferPool::shared();
        let (listener, addr) = tcp_listener(false);
        let dispatch = DispatchHandle::capture(tx);
        let mut reactor =
            Reactor::spawn(dispatch, Arc::clone(&pool), vec![listener], None).unwrap();

        let mut wire = ConnSetup::new().encode();
        for _ in 0..100 {
            wire.extend_from_slice(&[2, 0, 33, 0]); // 2 words: header + 4 bytes.
            wire.extend_from_slice(&[1, 2, 3, 4]);
        }
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.write_all(&wire).unwrap();
        new_client(&rx);
        for _ in 0..100 {
            assert_eq!(request(&rx).2, [1, 2, 3, 4]);
        }
        assert_eq!(
            (pool.allocs(), pool.reuses()),
            (0, 0),
            "whole frames took buffers from the pool"
        );
        assert_eq!(totals(&reactor)[StagedFrames], 0);

        // The same frames, each cut after its sixth byte; the second piece
        // is sent once the reactor has parked on the first.
        for i in 0..100u64 {
            let parked = totals(&reactor)[PartialReads];
            sock.write_all(&[2, 0, 33, 0, 1, 2]).unwrap();
            wait_until("the first piece to be read", || {
                totals(&reactor)[PartialReads] > parked
            });
            sock.write_all(&[3, 4]).unwrap();
            assert_eq!(request(&rx).2, [1, 2, 3, 4]);
            assert_eq!(totals(&reactor)[StagedFrames], i + 1);
        }
        assert_eq!(totals(&reactor)[Frames], 200);
        assert_eq!(
            (pool.allocs(), pool.reuses()),
            (1, 99),
            "split frames must stage in one recycled buffer"
        );
        reactor.shutdown();
    }

    #[test]
    fn partial_frames_one_byte_per_readiness_event() {
        // The torture case: every byte of the setup message and of several
        // request frames arrives in its own segment, so the state machine
        // must resume mid-header and mid-payload dozens of times.
        let (mut reactor, rx, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();

        let mut wire = ConnSetup::new().encode();
        for _ in 0..3 {
            wire.extend_from_slice(&[3, 0, 33, 0]); // 3 words: 8-byte payload.
            wire.extend_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2]);
        }
        for byte in wire {
            sock.write_all(&[byte]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }

        new_client(&rx);
        for _ in 0..3 {
            let (_, opcode, payload) = request(&rx);
            assert_eq!(opcode, 33);
            assert_eq!(payload, [9, 8, 7, 6, 5, 4, 3, 2]);
        }
        let partials = totals(&reactor)[PartialReads];
        assert!(
            partials >= 10,
            "one-byte delivery must exercise partial reads: {partials}"
        );
        drop(sock);
        disconnect(&rx);
        reactor.shutdown();
    }

    #[test]
    fn unix_socket_connects_and_disconnects() {
        let (tx, rx) = sync_channel(EVENT_ROOM);
        let dir = std::env::temp_dir().join(format!("af-reactor-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("reactor.sock");
        let listeners = vec![Listener::unix(&path).unwrap()];
        let dispatch = DispatchHandle::capture(tx);
        let mut reactor = Reactor::spawn(dispatch, BufferPool::shared(), listeners, None).unwrap();

        let mut sock = UnixStream::connect(&path).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        assert!(new_client(&rx).2.is_none());
        drop(sock);
        disconnect(&rx);
        reactor.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slow_reader_overflow_then_kick_closes_socket() {
        // A peer that never reads: the socket fills, then the deque, and
        // the flood is refused exactly at the bound.  Then the kick (as
        // the dispatcher's eviction does): the reactor tears the connection
        // down, and the handle the dispatcher may still hold reports
        // closed and keeps no buffer.
        let (tx, rx) = sync_channel(EVENT_ROOM);
        let pool = BufferPool::with_max_idle(2 * OUTBOUND_QUEUE_CAPACITY);
        let (listener, addr) = tcp_listener(false);
        let dispatch = DispatchHandle::capture(tx);
        let mut reactor =
            Reactor::spawn(dispatch, Arc::clone(&pool), vec![listener], None).unwrap();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        let otx = new_client(&rx).3;
        let mut taken = 0u64;
        loop {
            match otx.try_send_buf(pool.take_filled(64 * 1024)) {
                Ok(()) => taken += 1,
                Err(refused) => {
                    assert_eq!(refused, Refused::Full);
                    break;
                }
            }
            assert!(otx.queued() <= OUTBOUND_QUEUE_CAPACITY, "bound exceeded");
        }
        // Refused with the bound's worth unwritten, not one more or less:
        // every message taken is either fully on the socket or waiting.
        assert_eq!(otx.queued(), OUTBOUND_QUEUE_CAPACITY);
        let written = taken - OUTBOUND_QUEUE_CAPACITY as u64;
        for _ in 0..500 {
            // The reactor counts a message just after it pops it.
            if totals(&reactor)[Replies] == written {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(totals(&reactor)[Replies], written);
        let idle_while_held = pool.idle_len();

        otx.kick();
        disconnect(&rx);
        assert_eq!(totals(&reactor)[Evictions], 1);
        // The reactor empties the deque right after it reports the close.
        for _ in 0..500 {
            if pool.idle_len() == idle_while_held + OUTBOUND_QUEUE_CAPACITY {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            pool.idle_len(),
            idle_while_held + OUTBOUND_QUEUE_CAPACITY,
            "the closed connection's handle still holds buffers"
        );
        assert_eq!(otx.queued(), 0);
        assert_eq!(otx.try_send_buf(pool.take_filled(16)), Err(Refused::Closed));
        reactor.shutdown();
    }

    #[test]
    fn hang_up_behind_queued_replies_delivers_every_byte_then_end_of_file() {
        // How a refusal reply leaves when the socket cannot take it: the
        // peer stops reading until replies wait on the deque, then the
        // dispatcher hangs up.  The peer must read every byte sent, in
        // issue order, then end-of-file, and the reactor must give the
        // connection's descriptor back.
        let (mut reactor, rx, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        let otx = new_client(&rx).3;
        let fds = || totals(&reactor)[FdCount];
        let open = fds(); // The wake pipe, the listener and this connection.
        let mut sent = 0;
        while otx.queued() == 0 {
            otx.try_send_buf(ordered_message(sent).into()).unwrap();
            sent += 1;
        }
        otx.hang_up();
        let late = otx.try_send_buf(ordered_message(sent).into());
        assert_eq!(late, Err(Refused::Closed));
        drop(otx); // The dispatcher keeps no handle on a refused client.
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        for seq in 0..sent {
            let want = ordered_message(seq);
            let mut got = vec![0u8; want.len()];
            sock.read_exact(&mut got).unwrap();
            assert!(got == want, "stream diverged at message {seq}");
        }
        assert_eq!(sock.read(&mut [0u8; 16]).unwrap(), 0, "no end-of-file");
        disconnect(&rx);
        wait_until("the reactor to close the connection", || fds() == open - 1);
        reactor.shutdown();
    }

    fn totals(reactor: &Reactor) -> Snapshot<stats::Shard, 13> {
        reactor.stats().snapshot()
    }

    /// Message `seq` of the ordering tests: 12 bytes or 8 KB, every byte
    /// derived from `seq` so any reordering, interleaving or loss shows.
    fn ordered_message(seq: u32) -> Vec<u8> {
        let len = if seq % 4 == 3 { 8192 } else { 12 };
        let mut msg: Vec<u8> = (0..len).map(|i| (seq as usize * 31 + i) as u8).collect();
        msg[..4].copy_from_slice(&seq.to_le_bytes());
        msg
    }

    #[test]
    fn two_producers_partial_writes_keep_issue_order() {
        // Two producer threads share one connection's `OutboundTx` and
        // issue mixed-size messages in a global order (fixed by a mutex
        // held across number-assignment and send, as the dispatch lock
        // orders real producers); the reader drains in bursts so the
        // socket fills and writes go short.  The received stream must be
        // the exact concatenation in issue order.
        const MESSAGES: u32 = 8000;
        let (mut reactor, rx, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        let otx = new_client(&rx).3;
        let next = Arc::new(std::sync::Mutex::new(0u32));
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let (otx, next) = (otx.clone(), Arc::clone(&next));
                std::thread::spawn(move || loop {
                    let mut seq = next.lock().unwrap();
                    if *seq == MESSAGES {
                        return;
                    }
                    match otx.try_send_buf(ordered_message(*seq).into()) {
                        Ok(()) => *seq += 1,
                        Err(Refused::Full) => {
                            // Slow reader: the same message is re-issued.
                            drop(seq);
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(Refused::Closed) => panic!("connection died"),
                    }
                })
            })
            .collect();
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        for seq in 0..MESSAGES {
            let want = ordered_message(seq);
            let mut got = vec![0u8; want.len()];
            sock.read_exact(&mut got).unwrap();
            assert!(got == want, "stream diverged at message {seq}");
            if seq % 16 == 15 {
                std::thread::sleep(Duration::from_millis(2)); // Burst boundary.
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        // The reactor bumps `replies` after the write the reader just saw.
        for _ in 0..500 {
            if totals(&reactor)[Replies] == u64::from(MESSAGES) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let t = totals(&reactor);
        assert_eq!(
            t[Replies],
            u64::from(MESSAGES),
            "every message counted once"
        );
        assert!(t[QueuedWrites] > 0, "the fallback path never ran");
        assert!(t[DirectWrites] > 0, "the direct path never ran");
        reactor.shutdown();
    }

    /// The 100 request payloads of the coalescing tests, sent right after
    /// a `setup_len`-byte setup message: header-only frames, small ones,
    /// one payload larger than the scratch itself and one 8 KB
    /// payload placed to start inside the first scratch-full and leave at
    /// least `DIRECT_READ_MIN` beyond it — an undivided arrival stages
    /// its head from the scratch and reads its tail straight into the
    /// pooled buffer.
    fn burst_payloads(setup_len: usize) -> Vec<Vec<u8>> {
        let mut offset = setup_len;
        let mut straddler_placed = false;
        let payloads: Vec<Vec<u8>> = (0..100usize)
            .map(|i| {
                let len = if !straddler_placed && offset >= READ_SCRATCH_BYTES - 4096 {
                    assert!(offset < READ_SCRATCH_BYTES);
                    assert!(offset + 4 + 8192 >= READ_SCRATCH_BYTES + DIRECT_READ_MIN);
                    straddler_placed = true;
                    8192
                } else if i % 10 == 0 {
                    0
                } else if i == 85 {
                    READ_SCRATCH_BYTES + 8192
                } else {
                    256 * (1 + i % 9)
                };
                offset += 4 + len;
                (0..len).map(|b| (i * 13 + b) as u8).collect()
            })
            .collect();
        assert!(straddler_placed);
        payloads
    }

    fn push_frame(wire: &mut Vec<u8>, opcode: u8, payload: &[u8]) {
        let words = (payload.len() / 4 + 1) as u16;
        wire.extend_from_slice(&words.to_le_bytes());
        wire.extend_from_slice(&[opcode, 0]);
        wire.extend_from_slice(payload);
    }

    /// Setup message and 100 requests written `piece` bytes at a time:
    /// everything arrives, in order.  With `poison_after`, a zero-length
    /// frame header follows that many requests: those are delivered, then
    /// `ProtocolError`, then `Disconnect`, and nothing after.
    fn coalesced_burst(piece: usize, poison_after: Option<usize>) {
        let (mut reactor, rx, addr) = start();
        let mut wire = ConnSetup::new().encode();
        let payloads = burst_payloads(wire.len());
        for (i, payload) in payloads.iter().enumerate() {
            if poison_after == Some(i) {
                wire.extend_from_slice(&[0, 0, 33, 0]);
            }
            push_frame(&mut wire, 1 + i as u8, payload);
        }
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        for piece in wire.chunks(piece) {
            if sock.write_all(piece).is_err() {
                break; // Closed by the reactor, past a poisoned header.
            }
        }
        new_client(&rx);
        for (i, payload) in payloads
            .iter()
            .enumerate()
            .take(poison_after.unwrap_or(100))
        {
            let (_, opcode, got) = request(&rx);
            assert_eq!(opcode, 1 + i as u8, "request {i}");
            assert!(got == *payload, "payload of request {i}");
        }
        if poison_after.is_some() {
            assert_eq!(protocol_error(&rx), FrameError::ZeroLength);
        } else {
            assert_eq!(totals(&reactor)[Frames], 100);
            drop(sock);
        }
        disconnect(&rx);
        reactor.shutdown();
    }

    #[test]
    fn coalesced_setup_and_hundred_requests_arrive_in_order() {
        for piece in [usize::MAX, 5] {
            coalesced_burst(piece, None);
            coalesced_burst(piece, Some(50));
        }
    }

    #[test]
    fn frames_cut_at_every_byte_arrive_the_same_whole_or_staged() {
        // One byte stream of mixed frames from a seeded generator, sent to
        // a fresh connection once per split point: everything before the
        // cut, then — once the reactor has parked on that — the rest.  The
        // frame the cut falls in is put together across two reads, every
        // other one arrives whole; the dispatcher must see the identical
        // (opcode, payload) sequence every time, and the reactor's counters
        // must say which way each frame came.
        let mut rng = af_chaos::ChaosRng::new(0x0F2A_3E11);
        let frames: Vec<(u8, Vec<u8>)> = [12usize, 0, 28, 4, 0, 8]
            .iter()
            .map(|&len| {
                let opcode = 1 + (rng.next_u64() % 37) as u8;
                (opcode, (0..len).map(|_| rng.next_u64() as u8).collect())
            })
            .collect();
        let mut wire = Vec::new();
        let mut starts = Vec::new();
        for (opcode, payload) in &frames {
            starts.push(wire.len());
            push_frame(&mut wire, *opcode, payload);
        }
        let (mut reactor, rx, addr) = start();
        for cut in 1..wire.len() {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.set_nodelay(true).unwrap();
            sock.write_all(&ConnSetup::new().encode()).unwrap();
            new_client(&rx);
            // The frame the cut falls in, and how far into it.
            let split = starts.iter().rposition(|&start| start < cut).unwrap();
            let into = cut - starts[split];
            let whole_first = if into == 4 + frames[split].1.len() {
                split + 1 // The cut is a clean frame boundary.
            } else {
                split
            };
            // A frame is staged when its payload is not all there with the
            // end of its header; a split header alone stages nothing.
            let staged = u64::from(whole_first == split && into >= 4);

            let before = totals(&reactor);
            sock.write_all(&wire[..cut]).unwrap();
            wait_until("the reactor to park on the first piece", || {
                let now = totals(&reactor);
                now[Frames] - before[Frames] == whole_first as u64
                    && now[PartialReads] - before[PartialReads] == u64::from(whole_first == split)
            });
            sock.write_all(&wire[cut..]).unwrap();
            for (i, (opcode, payload)) in frames.iter().enumerate() {
                let (_, got_opcode, got) = request(&rx);
                assert_eq!(
                    (got_opcode, &got),
                    (*opcode, payload),
                    "cut {cut}, frame {i}"
                );
            }
            drop(sock);
            disconnect(&rx);
            let after = totals(&reactor);
            assert_eq!(after[Frames] - before[Frames], frames.len() as u64);
            assert_eq!(
                after[StagedFrames] - before[StagedFrames],
                staged,
                "cut {cut}: {into} bytes into frame {split}"
            );
        }
        reactor.shutdown();
    }

    #[test]
    fn firehose_connection_cannot_starve_its_sibling() {
        // One reactor, a small event queue the test drains itself, and a
        // connection that keeps its socket full of 8-byte frames.  Once
        // the firehose is in full flow a sibling sends one frame: it must
        // come through within a few of the firehose's FRAME_BUDGET turns
        // (each turn ends at the first read boundary past the budget, so
        // at most one scratch-full of frames).
        let (mut reactor, rx, addr) = start_with(16);
        let connect = || {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(&ConnSetup::new().encode()).unwrap();
            (sock, new_client(&rx).0)
        };
        let (mut hose, hose_id) = connect();
        let (mut sibling, sibling_id) = connect();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            let mut block = Vec::new();
            for _ in 0..8192 {
                push_frame(&mut block, 33, &[1, 2, 3, 4]);
            }
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) && hose.write_all(&block).is_ok() {}
            })
        };
        let per_turn = (READ_SCRATCH_BYTES / 8) as u64 + u64::from(FRAME_BUDGET);
        let mut hose_frames = 0u64;
        let mut sent_at = None;
        loop {
            let (id, _, payload) = request(&rx);
            if id == hose_id {
                hose_frames += 1;
            } else {
                assert_eq!(id, sibling_id);
                assert_eq!(payload, [9, 9, 9, 9]);
                break;
            }
            match sent_at {
                None if hose_frames == 20 * per_turn => {
                    let mut frame = Vec::new();
                    push_frame(&mut frame, 34, &[9, 9, 9, 9]);
                    sibling.write_all(&frame).unwrap();
                    sent_at = Some(hose_frames);
                }
                Some(at) => assert!(
                    hose_frames - at <= 4 * per_turn,
                    "sibling starved for {} firehose frames",
                    hose_frames - at
                ),
                None => {}
            }
        }
        stop.store(true, Ordering::Relaxed);
        drop(rx); // Unblocks the reactor's backpressured send.
        reactor.shutdown(); // Closes the firehose socket: the writer ends.
        writer.join().unwrap();
    }

    use crate::broadcast::BroadcastConfig;

    fn start_broadcast(
        cfg: BroadcastConfig,
        frame_bytes: usize,
    ) -> (Reactor, Arc<BroadcastBus>, SocketAddr) {
        let (tx, rx) = sync_channel(EVENT_ROOM);
        std::mem::forget(rx); // No dispatcher: keep the channel open.
        let (listener, addr) = tcp_listener(true);
        let bus = BroadcastBus::new(cfg, frame_bytes);
        let dispatch = DispatchHandle::capture(tx);
        let bus_handle = Some(Arc::clone(&bus));
        let reactor = Reactor::spawn(dispatch, BufferPool::shared(), vec![listener], bus_handle);
        (reactor.unwrap(), bus, addr)
    }

    fn small_cfg() -> BroadcastConfig {
        BroadcastConfig {
            chunk_frames: 4,
            ring_chunks: 8,
            preroll_chunks: 2,
            stall_strikes: 4,
        }
    }

    /// Spin until the bus's listener gauge reaches `n` (request parsed).
    fn wait_listeners(bus: &BroadcastBus, n: u64) {
        for _ in 0..500 {
            if bus.stats().get(Bus::Listeners) == n {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("listener gauge never reached {n}");
    }

    #[test]
    fn http_listener_streams_chunked_frames() {
        let (mut reactor, bus, addr) = start_broadcast(small_cfg(), 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        wait_listeners(&bus, 1);
        for i in 0..3u8 {
            bus.publish(&[i; 4]);
        }
        let mut head = vec![0u8; crate::broadcast::HTTP_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        assert_eq!(head, crate::broadcast::HTTP_STREAM_HEADER);
        for i in 0..3u8 {
            let mut frame = [0u8; 9]; // "4\r\n" + 4 payload + "\r\n".
            sock.read_exact(&mut frame).unwrap();
            assert_eq!(&frame[..3], b"4\r\n");
            assert_eq!(&frame[3..7], &[i; 4]);
            assert_eq!(&frame[7..], b"\r\n");
        }
        // The client can observe the bytes a beat before the reactor's
        // counter update lands: spin briefly.
        for _ in 0..500 {
            if bus.stats().get(Bus::BytesFannedOut) >= 27 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(bus.stats().get(Bus::BytesFannedOut) >= 27);
        drop(sock);
        for _ in 0..500 {
            if bus.stats().get(Bus::Listeners) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(bus.stats().get(Bus::Listeners), 0);
        assert_eq!(bus.stats().get(Bus::ListenersTotal), 1);
        reactor.shutdown();
    }

    #[test]
    fn icy_listener_gets_raw_payload_of_the_same_chunks() {
        let (mut reactor, bus, addr) = start_broadcast(small_cfg(), 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"GET /; HTTP/1.0\r\nIcy-MetaData: 0\r\n\r\n")
            .unwrap();
        wait_listeners(&bus, 1);
        for i in 0..3u8 {
            bus.publish(&[i; 4]);
        }
        let mut head = vec![0u8; crate::broadcast::ICY_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        assert_eq!(head, crate::broadcast::ICY_STREAM_HEADER);
        let mut body = [0u8; 12]; // 3 chunks × 4 raw payload bytes.
        sock.read_exact(&mut body).unwrap();
        assert_eq!(&body[..4], &[0; 4]);
        assert_eq!(&body[4..8], &[1; 4]);
        assert_eq!(&body[8..], &[2; 4]);
        reactor.shutdown();
    }

    #[test]
    fn late_joiner_bursts_in_from_the_preroll_cursor() {
        let (mut reactor, bus, addr) = start_broadcast(small_cfg(), 1);
        for i in 0..6u8 {
            bus.publish(&[i; 4]);
        }
        // Live edge 6, preroll 2: a joiner must start at seq 4 and get
        // chunks 4 and 5 immediately, with no further publish needed.
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut head = vec![0u8; crate::broadcast::HTTP_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        for i in [4u8, 5] {
            let mut frame = [0u8; 9];
            sock.read_exact(&mut frame).unwrap();
            assert_eq!(&frame[3..7], &[i; 4]);
        }
        reactor.shutdown();
    }

    #[test]
    fn malformed_request_head_closes_the_listener() {
        let (mut reactor, bus, addr) = start_broadcast(small_cfg(), 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"PUT /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 16];
        // The reactor closes without a response: EOF (or reset).
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("expected EOF, got {n} bytes"),
        }
        assert_eq!(bus.stats().get(Bus::Listeners), 0);
        reactor.shutdown();
    }

    #[test]
    fn stalled_listener_is_evicted_after_strike_budget() {
        // Big chunks fill the kernel socket buffers quickly; a listener
        // that never reads then makes zero progress and must be evicted
        // after `stall_strikes` consecutive publishes.
        let cfg = BroadcastConfig {
            chunk_frames: 32 * 1024,
            ring_chunks: 4,
            preroll_chunks: 1,
            stall_strikes: 4,
        };
        let (mut reactor, bus, addr) = start_broadcast(cfg, 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        wait_listeners(&bus, 1);
        let chunk = vec![0x42u8; 32 * 1024];
        let mut evicted = false;
        for _ in 0..200 {
            bus.publish(&chunk);
            if bus.stats().get(Bus::Evictions) > 0 {
                evicted = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(evicted, "stalled listener never evicted");
        wait_listeners(&bus, 0);
        assert_eq!(totals(&reactor)[Evictions], 1);
        reactor.shutdown();
    }

    #[test]
    fn lagging_listener_skips_ahead_and_keeps_byte_alignment() {
        // A listener that stops reading long enough for the ring to wrap,
        // then resumes, must land on a chunk boundary at the live edge
        // (minus preroll) — never mid-chunk garbage.
        const CHUNK: usize = 64 * 1024;
        let cfg = BroadcastConfig {
            chunk_frames: CHUNK as u32,
            ring_chunks: 4,
            preroll_chunks: 1,
            stall_strikes: 1_000_000, // Never evict in this test.
        };
        let wire_len = CHUNK + b"10000\r\n".len() + 2;
        let (mut reactor, bus, addr) = start_broadcast(cfg, 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        wait_listeners(&bus, 1);
        // Each chunk's payload is filled with its own sequence number.
        // Publish without the client reading until the unwritten backlog
        // provably exceeds the ring plus the in-flight batch: the cursor
        // has fallen off the ring tail.
        let mut final_seq = 0u8;
        for seq in 0..240u8 {
            final_seq = seq;
            bus.publish(&vec![seq; CHUNK]);
            std::thread::sleep(Duration::from_millis(2));
            let sealed = bus.stats().get(Bus::ChunksSealed);
            let fanned = bus.stats().get(Bus::BytesFannedOut);
            let backlog = sealed * wire_len as u64 - fanned;
            if backlog > ((4 + BCAST_BATCH + 1) * wire_len) as u64 {
                break;
            }
        }
        // Resume reading: the stream must be buffered frames, then a
        // clean skip to the live edge — every frame still parses exactly.
        let mut head = vec![0u8; crate::broadcast::HTTP_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        assert_eq!(head, crate::broadcast::HTTP_STREAM_HEADER);
        let mut frame = vec![0u8; wire_len];
        let mut last_tag: Option<u8> = None;
        let mut frames_read = 0u32;
        while sock.read_exact(&mut frame).is_ok() {
            frames_read += 1;
            assert_eq!(&frame[..7], b"10000\r\n", "chunk framing misaligned");
            let tag = frame[7];
            assert!(
                frame[7..7 + CHUNK].iter().all(|&b| b == tag),
                "payload mixes chunks"
            );
            assert_eq!(&frame[wire_len - 2..], b"\r\n");
            if let Some(prev) = last_tag {
                assert!(tag > prev, "sequence went backwards: {prev} -> {tag}");
            }
            last_tag = Some(tag);
        }
        assert!(frames_read >= 4, "read only {frames_read} frames");
        assert_eq!(last_tag, Some(final_seq), "drain must end at the live edge");
        assert!(
            bus.stats().get(Bus::SkipAheads) > 0,
            "ring never overtook the stalled cursor"
        );
        reactor.shutdown();
    }

    /// A caller that reads the gauge straight after `spawn` (and counts on
    /// it holding still) must see the wake pipe, whether or not the
    /// reactor thread has run yet.
    #[test]
    fn fd_count_holds_the_wake_pipe_when_spawn_returns() {
        for _ in 0..20 {
            let (tx, _rx) = sync_channel(EVENT_ROOM);
            let dispatch = DispatchHandle::capture(tx);
            let mut reactor = Reactor::spawn(dispatch, BufferPool::shared(), vec![], None).unwrap();
            assert_eq!(reactor.stats().get(FdCount), 1);
            reactor.shutdown();
        }
    }

    #[test]
    fn fd_count_is_the_pipe_the_listeners_and_the_connections_until_shutdown() {
        let (tx, rx) = sync_channel(EVENT_ROOM);
        let bus = BroadcastBus::new(small_cfg(), 1);
        let (listener, addr) = tcp_listener(false);
        let (bcast_listener, bcast_addr) = tcp_listener(true);
        let dispatch = DispatchHandle::capture(tx);
        let listeners = vec![listener, bcast_listener];
        let bus_handle = Some(Arc::clone(&bus));
        let mut reactor =
            Reactor::spawn(dispatch, BufferPool::shared(), listeners, bus_handle).unwrap();
        let mut conns = Vec::new();
        for _ in 0..2 {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(&ConnSetup::new().encode()).unwrap();
            new_client(&rx);
            conns.push(sock);
        }
        let mut listener = TcpStream::connect(bcast_addr).unwrap();
        listener.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        wait_listeners(&bus, 1);
        let stats = reactor.stats();
        // The wake pipe, both listeners, and three accepted sockets.
        assert_eq!(stats.get(FdCount), 1 + 2 + 3);

        reactor.shutdown();
        assert_eq!(stats.get(FdCount), 0);
        assert_eq!(stats.get(Closed), stats.get(Accepted));
        assert_eq!(bus.stats().get(Bus::Listeners), 0);
    }
}
