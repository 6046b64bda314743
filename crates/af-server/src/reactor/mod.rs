//! The server's OS section and its one flow of control: one reactor
//! thread multiplexing every connection and running the task queue.
//!
//! The paper's server multiplexed every client socket, TCP or Unix-domain,
//! with one `select()` loop whose timeout ran the task queue "instead of
//! using threads" (§5.1, §7.3.1).  This module keeps that shape: one
//! thread, `af-reactor-0`, runs a level-triggered readiness loop
//! ([`af_sys::Poller`]: raw `epoll`) over nonblocking sockets, and the
//! time to the earliest task deadline ([`Handler::next_deadline`]) is the
//! loop's poll timeout.  Sockets enter in two forms: the [`Listener`]s
//! handed to [`Reactor::spawn`], accepted on with one loop whatever their
//! family or kind, and a `SharedSock` for each accepted connection,
//! registered with the same poller.
//!
//! One pass of the loop: wait for readiness (or the next deadline), handle
//! the ready sockets, run the tasks that are due (the periodic update,
//! wake-ups for suspended clients), pump the broadcast listeners if the
//! update sealed chunks, then arm write interest for the connections whose
//! replies the socket would not take whole.  Everything the server does
//! happens on this thread, so single-threaded control semantics hold
//! without a lock.
//!
//! The reactor owns its connections outright: the per-connection read
//! state machine (setup header → setup tail → frame header → payload,
//! resumable at any byte boundary) is fed from **one `read` per readiness
//! event** into one scratch buffer.  A request frame that arrived whole is
//! lent to the [`Handler`] — the dispatcher — where it lies in the scratch;
//! only one split across reads (or larger than the scratch) is put
//! together in a pooled staging buffer first.  The handler runs at once,
//! on this thread, so a `GetTime` is `epoll_wait`, `read`, `write`.
//!
//! Write path: every socket the reactor writes, an AudioFile client's or a
//! broadcast listener's, has one `WriteQueue` of items that own or share
//! their bytes (a pooled reply, a response head, an `Arc`-shared chunk),
//! and one flush drains it: up to `WRITE_BATCH` items per `writev`, whole
//! items retired, write interest watched exactly while items wait, so
//! bytes leave in issue order.  What goes on a queue is its owner's
//! policy.  A reply ([`Outbound`]) is first offered to the socket
//! directly, with one nonblocking `write`, when its queue is empty; a
//! message the socket takes whole never touches the queue, anything else
//! waits there (at most [`OUTBOUND_QUEUE_CAPACITY`] messages).  In the
//! steady state the socket takes every reply whole and the poller never
//! watches for output.  A listener's queue is refilled from the chunk
//! ring whenever it drains.
//!
//! Other threads reach the reactor through [`Control`] only: a [`Call`]
//! goes on a bounded queue, one byte on the self-pipe wakes the loop, and
//! the caller parks until the end of the pass that ran it.
//!
//! Failure model: a malformed or oversized frame header is a protocol
//! error that disconnects only the offending client; a client that stops
//! reading fills its bounded deque and is evicted instead of growing
//! server memory.  Faults are injected below the socket, by a proxy
//! between client and server (`af_chaos::FaultProxy`), so every
//! connection runs the one transport.
//!
//! Fairness: a connection yields after `FRAME_BUDGET` frames per readiness
//! event, so its siblings, and the tasks due at the end of the pass, wait
//! behind at most that many requests.  While a handler runs, the reactor
//! is not reading its sockets — TCP backpressure to the clients.

use crate::broadcast::{BroadcastBus, BroadcastChunk};
use crate::pool::{BufferPool, PooledBuf, REACTOR_MAX_IDLE};
use crate::state::ClientId;
use crate::stats::{self, Bus, BusCounters, ShardCounters};
use af_proto::{decode_frame_header, ByteOrder, ConnSetup, FrameError};
use af_sys::{Interest, PollEvent, Poller, MAX_EVENTS};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Bound on the messages a connection may have waiting for its socket
/// (the one mid-write included).  A slow client hits this bound and is
/// evicted; the seed's unbounded queue grew without limit instead.
pub const OUTBOUND_QUEUE_CAPACITY: usize = 256;

/// Emptied connection deques kept for later connections.
const SPARE_QUEUES: usize = 16;

/// Why [`Outbound::deliver`] did not take a message.
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

/// Items gathered into one vectored write.
const WRITE_BATCH: usize = 8;

/// Chunks a broadcast listener's queue takes from the ring at a time: one
/// vectored write's worth.
const BCAST_BATCH: usize = WRITE_BATCH;

/// Cap on a broadcast listener's HTTP request head; longer heads are
/// treated as garbage and the connection is closed.
const BCAST_REQ_MAX: usize = 4096;

/// Calls other threads may have waiting for the reactor before
/// [`Control::call`] waits for room.
const CALL_QUEUE: usize = 64;

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

/// The one owning handle to an accepted socket, shared by the reactor's
/// read side and, for an AudioFile client, its write side in
/// [`Outbound`].  One descriptor per connection.
#[derive(Clone)]
enum SharedSock {
    Tcp(Rc<TcpStream>),
    Unix(Rc<UnixStream>),
}

impl SharedSock {
    fn shutdown(&self) {
        let _ = match self {
            SharedSock::Tcp(s) => s.shutdown(Shutdown::Both),
            SharedSock::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }

    /// `read` through a shared reference (`Read` is implemented for
    /// `&TcpStream`/`&UnixStream`): the read and write sides share the
    /// socket's `Rc`.
    fn read_shared(&self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SharedSock::Tcp(s) => (&**s).read(buf),
            SharedSock::Unix(s) => (&**s).read(buf),
        }
    }

    /// `write` through a shared reference, as for `read_shared`.
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

/// One run of bytes waiting for a socket, owned or shared, never copied.
enum Item {
    /// A reply in its pooled buffer, which recycles when the item retires.
    Reply(PooledBuf),
    /// A broadcast listener's response head.
    Head(&'static [u8]),
    /// A broadcast chunk in its HTTP chunked-transfer framing.
    Wire(Arc<BroadcastChunk>),
    /// A broadcast chunk's raw payload, for an ICY listener.
    Payload(Arc<BroadcastChunk>),
}

impl Item {
    fn bytes(&self) -> &[u8] {
        match self {
            Item::Reply(buf) => buf,
            Item::Head(head) => head,
            Item::Wire(chunk) => chunk.wire(),
            Item::Payload(chunk) => chunk.payload(),
        }
    }
}

/// The bytes waiting for one socket, oldest first, and the one way they
/// leave it ([`WriteQueue::flush`]).  What goes on it, and what a queue
/// that stops draining costs its connection, is its owner's policy.
#[derive(Default)]
struct WriteQueue {
    items: VecDeque<Item>,
    /// Bytes of the front item already on the socket.
    written: usize,
    /// The poller is watching the socket's writability.
    want_write: bool,
}

/// What one [`WriteQueue::flush`] did.
#[derive(Default)]
struct Flushed {
    /// Bytes the socket took.
    bytes: usize,
    /// The peer is gone: the connection closes.
    dead: bool,
}

impl WriteQueue {
    /// Writes the queue out, up to [`WRITE_BATCH`] items per `writev`,
    /// until it drains, the socket would block, or the peer is gone.
    fn flush(&mut self, mut writev: impl FnMut(&[IoSlice]) -> io::Result<usize>) -> Flushed {
        let mut done = Flushed::default();
        while !self.items.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITE_BATCH];
            let (mut skip, mut wanted) = (self.written, 0);
            for (slice, item) in slices.iter_mut().zip(&self.items) {
                *slice = IoSlice::new(&item.bytes()[skip..]);
                (skip, wanted) = (0, wanted + slice.len());
            }
            let count = self.items.len().min(WRITE_BATCH);
            match writev(&slices[..count]) {
                Ok(0) if wanted > 0 => done.dead = true,
                Ok(n) => {
                    done.bytes += n;
                    self.retire(n);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => done.dead = e.kind() != io::ErrorKind::WouldBlock,
            }
            break;
        }
        done
    }

    /// Watches the socket's writability exactly while items wait.  False
    /// when the poller refused to watch waiting items: they would never
    /// leave, so the caller fails the connection instead of wedging.
    fn watch(&mut self, poller: &mut Poller, sock: &SharedSock, token: usize) -> bool {
        let want = !self.items.is_empty();
        if want == self.want_write {
            return true;
        }
        let interest = if want {
            Interest::ReadWrite
        } else {
            Interest::Read
        };
        let ok = poller
            .reregister(sock.as_raw_fd(), token as u64, interest)
            .is_ok();
        if ok {
            self.want_write = want;
        }
        ok || !want
    }

    /// Retires the items `n` more written bytes complete; the rest of a
    /// cut one stays in front.
    fn retire(&mut self, mut n: usize) {
        while let Some(item) = self.items.front() {
            let left = item.bytes().len() - self.written;
            if n < left {
                self.written += n;
                return;
            }
            n -= left;
            self.written = 0;
            self.items.pop_front();
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
                (SharedSock::Tcp(Rc::new(s)), Some(addr.ip()))
            }
            ListenSock::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                (SharedSock::Unix(Rc::new(s)), None)
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

/// What the reactor hands framed work to, and whose task queue it runs:
/// the dispatcher, in a server.  Built on the reactor thread
/// ([`Reactor::spawn`]) and never leaves it; every method is called
/// there, one at a time.
pub trait Handler {
    /// Connection `conn` sent its whole setup message, lent as a request's
    /// payload is.  `peer` is its address, for access control (`None` on
    /// a Unix-domain socket).
    fn connect(&mut self, conn: ConnRef, setup: &[u8], peer: Option<IpAddr>);

    /// Connection `id` is gone: closed, failed, or cut off for the framing
    /// violation `protocol`.  Called for every connection, even one that
    /// never finished its setup.
    fn disconnect(&mut self, id: ClientId, protocol: Option<FrameError>);

    /// One framed request of connection `id`.  `payload` (the bytes after
    /// the 4-byte header) is lent from where `read` left it and only read;
    /// nothing keeps it past the call.
    fn request(&mut self, id: ClientId, opcode: u8, payload: &[u8]);

    /// The earliest task deadline: the poll loop sleeps no longer.
    fn next_deadline(&self) -> Option<Instant>;

    /// Runs every task due at `now`.
    fn run_due(&mut self, now: Instant);

    /// Runs the update task now ([`Call::Update`]).
    fn update(&mut self);

    /// The connections' write side, which the handler's replies go into
    /// and the reactor drains.
    fn outbound(&mut self) -> &mut Outbound;

    /// The broadcast bus the update task seals into, whose chunks the
    /// reactor fans out to broadcast listeners.
    fn broadcast(&mut self) -> Option<&mut BroadcastBus>;
}

/// The handler's reference to one connection, handed over with its setup
/// ([`Handler::connect`]): where that client's replies go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnRef {
    /// Poller token of the connection's slot.
    token: usize,
    /// Told apart from a later connection in a recycled slot by its id.
    id: ClientId,
}

impl ConnRef {
    /// The connection's client id, which its requests and its end carry.
    pub(crate) fn id(self) -> ClientId {
        self.id
    }
}

/// One connection's write side: its socket and unwritten messages.
struct ConnOut {
    id: ClientId,
    sock: SharedSock,
    queue: WriteQueue,
    /// No further message is taken.  Set by [`Outbound::hang_up`], after
    /// which the reactor closes the connection once `queue` has drained.
    closed: bool,
}

/// Every AudioFile connection's write side, by poller token: the way
/// replies reach clients, and the way slow clients are evicted.  The
/// [`Handler`] owns it and writes its replies into it as it handles
/// requests; the reactor opens and closes its entries and drains what the
/// sockets would not take.  One thread touches it, so it has no lock.
///
/// [`Outbound::deliver`] first attempts the *direct write*: one
/// nonblocking `write` on the socket, allowed only when no earlier message
/// is still waiting.  Whatever the socket would not take goes on the
/// connection's bounded queue, which the reactor flushes on write
/// readiness.
#[derive(Default)]
pub struct Outbound {
    conns: Vec<Option<ConnOut>>,
    /// Tokens of connections whose queue took its first waiting message
    /// since the end of the last pass: the reactor flushes them then, and
    /// watches writability while bytes stay stalled.
    stalled: Vec<usize>,
    /// Emptied queues of closed connections, for the next ones: a queue
    /// keeps the room its longest backlog took, so a client that falls
    /// behind costs the allocator nothing once one has before.
    spare: Vec<VecDeque<Item>>,
    /// The reactor's counters ([`Reactor::stats`]).
    stats: Arc<ShardCounters>,
}

/// `conn`'s write side, unless the connection has closed.
fn find(conns: &mut [Option<ConnOut>], conn: ConnRef) -> Option<&mut ConnOut> {
    conns
        .get_mut(conn.token)?
        .as_mut()
        .filter(|out| out.id == conn.id)
}

impl Outbound {
    /// Sends one message toward `conn` without blocking: straight to the
    /// socket when nothing is ahead of it, otherwise (or for the unwritten
    /// remainder) onto the queue.  The caller maps [`Refused::Full`] onto
    /// the slow-client overflow policy; a refused `buf` recycles.
    pub fn deliver(&mut self, conn: ConnRef, buf: PooledBuf) -> Result<(), Refused> {
        let Some(out) = find(&mut self.conns, conn).filter(|out| !out.closed) else {
            return Err(Refused::Closed);
        };
        let queue = &mut out.queue;
        if queue.items.len() >= OUTBOUND_QUEUE_CAPACITY {
            return Err(Refused::Full);
        }
        if queue.items.is_empty() {
            match out.sock.write_shared(&buf) {
                Ok(n) if n == buf.len() => {
                    self.stats.add(stats::Shard::Replies, 1);
                    self.stats.add(stats::Shard::DirectWrites, 1);
                    return Ok(());
                }
                // Short write: the flush finishes the message, exactly as
                // for a queued one.
                Ok(n) => queue.written = n,
                // Would block or an error: queue it, so the flush meets
                // the same condition and handles it on the one close path.
                Err(_) => {}
            }
            self.stalled.push(conn.token);
        }
        queue.items.push_back(Item::Reply(buf));
        self.stats.add(stats::Shard::QueuedWrites, 1);
        Ok(())
    }

    /// Forcibly closes the connection's socket, so the reactor sees the
    /// hang-up and drops it (slow clients are evicted this way).  Counted
    /// as an eviction.
    pub fn kick(&mut self, conn: ConnRef) {
        if let Some(out) = find(&mut self.conns, conn) {
            out.sock.shutdown();
            self.stats.add(stats::Shard::Evictions, 1);
        }
    }

    /// Closes the connection from the server side once everything sent so
    /// far has left: no later message is taken, and the peer reads what
    /// was sent, whole, and then end-of-file.
    pub fn hang_up(&mut self, conn: ConnRef) {
        if let Some(out) = find(&mut self.conns, conn) {
            out.closed = true;
            // Not an eviction, so not counted as one.  With messages
            // waiting, the reactor closes the connection when its flush
            // drains the queue.
            if out.queue.items.is_empty() {
                out.sock.shutdown();
            }
        }
    }

    /// The reactor's half of accepting: the connection's write side.
    fn open(&mut self, token: usize, id: ClientId, sock: SharedSock) -> ConnRef {
        if self.conns.len() <= token {
            self.conns.resize_with(token + 1, || None);
        }
        self.conns[token] = Some(ConnOut {
            id,
            sock,
            queue: WriteQueue {
                items: self.spare.pop().unwrap_or_default(),
                ..WriteQueue::default()
            },
            closed: false,
        });
        ConnRef { token, id }
    }

    /// The reactor's half of closing: the write side goes, its unwritten
    /// messages recycle, and a queue that ever held one is kept.
    fn close(&mut self, token: usize) {
        let Some(out) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        let mut items = out.queue.items;
        if items.capacity() > 0 && self.spare.len() < SPARE_QUEUES {
            items.clear();
            self.spare.push(items);
        }
    }
}

#[cfg(test)]
impl Outbound {
    /// A connection no reactor owns: its socket's peer is gone, so every
    /// direct write fails and every message waits on the queue, which
    /// nothing drains.
    pub(crate) fn detached(&mut self, id: ClientId) -> ConnRef {
        let (sock, _peer) = UnixStream::pair().expect("socketpair");
        self.open(self.conns.len(), id, SharedSock::Unix(Rc::new(sock)))
    }

    /// Messages waiting on `conn`'s queue.
    pub(crate) fn queued(&mut self, conn: ConnRef) -> usize {
        find(&mut self.conns, conn).map_or(0, |out| out.queue.items.len())
    }

    /// Connections kicked.
    pub(crate) fn kicks(&self) -> u64 {
        self.stats.get(stats::Shard::Evictions)
    }
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

/// One registered AudioFile connection's read side.
struct ConnState {
    token: usize,
    id: ClientId,
    peer: Option<IpAddr>,
    order: ByteOrder,
    phase: ReadPhase,
    /// Shared with the connection's write side in [`Outbound`].
    sock: SharedSock,
}

/// Where a broadcast listener connection stands.
enum BcastPhase {
    /// Reading the HTTP request head (until the blank line).
    Request,
    /// Streaming chunks from the shared ring.
    Streaming,
}

/// One broadcast listener.  Holds no audio of its own — only a cursor
/// into the shared chunk ring, and a queue of the response head and the
/// `Arc`-shared chunks being written.
struct BcastConn {
    sock: SharedSock,
    phase: BcastPhase,
    /// Request-head bytes collected so far (bounded by [`BCAST_REQ_MAX`]).
    req: Vec<u8>,
    /// ICY listener: raw payload bytes, no chunked-transfer framing.
    icy: bool,
    /// Next chunk sequence number this listener wants.
    cursor: u64,
    out: WriteQueue,
    /// Consecutive chunk publishes with pending data and zero write
    /// progress (the stalled-listener eviction trigger).
    strikes: u32,
}

/// Where [`BroadcastBus::fetch_batch`] puts a listener's chunks: on its
/// queue, in its framing.
impl Extend<Arc<BroadcastChunk>> for BcastConn {
    fn extend<I: IntoIterator<Item = Arc<BroadcastChunk>>>(&mut self, chunks: I) {
        let framed = if self.icy { Item::Payload } else { Item::Wire };
        self.out.items.extend(chunks.into_iter().map(framed));
    }
}

/// Index of the byte just past the request head's blank line, if the
/// head is complete.
fn find_head_end(req: &[u8]) -> Option<usize> {
    req.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// The reactor's half of broadcast: the listener roster, pumped at the
/// end of a pass in which the handler's bus sealed chunks.
struct ShardBroadcast {
    /// The bus's counters.
    stats: Arc<BusCounters>,
    /// The bus's live edge when the listeners were last pumped.
    seen: u64,
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
    /// Malformed framing: close, telling the handler why.
    Protocol(FrameError),
}

/// The reactor thread's state: everything it owns.
struct Shard<H> {
    poller: Poller,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Tokens freed during the current pass; recycled only after the pass
    /// so a stale readiness event cannot alias a fresh conn.
    deferred_free: Vec<usize>,
    wake_rx: UnixStream,
    /// Calls from other threads, taken when the self-pipe fires.
    calls: Receiver<Asked>,
    /// The calls run this pass, answered (dropped) at its end, so a caller
    /// sees everything the call set off: a publish's pump, a reply's flush.
    answered: Vec<Asked>,
    /// Set by [`Reactor::stop`]; the woken reactor that finds it exits.
    stop: Arc<AtomicBool>,
    stats: Arc<ShardCounters>,
    /// Where every framed event goes, and whose tasks the loop runs.
    handler: H,
    /// Frame/reply buffer pool, lent to the handler for its replies.
    pool: Rc<BufferPool>,
    /// The next client id to hand out.
    next_id: ClientId,
    /// Where each readiness event's one `read` lands
    /// ([`READ_SCRATCH_BYTES`]); shared by all connections.
    read_scratch: Vec<u8>,
    /// The listener roster, when the handler has a broadcast bus.
    broadcast: Option<ShardBroadcast>,
    /// Reusable scratch for the broadcast pump's roster copy, so a pass
    /// that pumps does not allocate.
    bcast_scratch: Vec<usize>,
    /// A descriptor held in reserve, given up to shed a pending
    /// connection when the process is out of descriptors.
    spare: Option<File>,
}

/// The poll timeout for a task due at `deadline`: the wait rounded up to
/// whole milliseconds, so the reactor sleeps past the deadline rather
/// than spin short of it; `-1` (no timeout) when no task is pending.
fn poll_timeout(deadline: Option<Instant>, now: Instant) -> i32 {
    deadline.map_or(-1, |at| {
        let wait = at.saturating_duration_since(now);
        let ms = wait
            .as_secs()
            .saturating_mul(1000)
            .saturating_add(u64::from(wait.subsec_nanos().div_ceil(1_000_000)));
        i32::try_from(ms).unwrap_or(i32::MAX)
    })
}

impl<H: Handler> Shard<H> {
    #[expect(clippy::disallowed_methods, reason = "timeouts run on host time")]
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(MAX_EVENTS);
        // One clock read a pass: the timeout reckoned from the last one
        // runs long by the rest of that pass, inside the rounding up.
        let mut now = Instant::now();
        while !self.stop.load(Ordering::Relaxed) {
            events.clear();
            let timeout = poll_timeout(self.handler.next_deadline(), now);
            if self.poller.wait(&mut events, timeout).is_err() {
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
            // The task queue's turn: between readiness batches, so a busy
            // socket delays a due task by at most one pass.
            now = Instant::now();
            self.handler.run_due(now);
            self.pump_published();
            self.flush_stalled();
            self.answered.clear();
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

    /// Drains the self-pipe and runs the calls other threads left.
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
        // A caller queues its call before it writes the pipe, so every
        // call behind a byte just read is here.
        while let Ok(asked) = self.calls.try_recv() {
            if asked.call == Call::Update {
                self.handler.update();
            }
            self.answered.push(asked);
        }
    }

    /// Pumps every broadcast listener once the bus has sealed chunks since
    /// the last pump (the update task publishes on this thread).  Strikes
    /// are counted here, and only here: a listener with pending bytes that
    /// makes no progress across many publishes is stalled, not merely
    /// slow.
    fn pump_published(&mut self) {
        let Some(b) = self.broadcast.as_mut() else {
            return;
        };
        let Some(live) = self.handler.broadcast().map(|bus| bus.live_seq()) else {
            return;
        };
        if live == b.seen {
            return;
        }
        b.seen = live;
        let mut tokens = std::mem::take(&mut self.bcast_scratch);
        tokens.clear();
        tokens.extend_from_slice(&b.tokens);
        for &t in &tokens {
            self.pump_bcast(t, true);
        }
        self.bcast_scratch = tokens;
    }

    /// Flushes the connections whose replies began to wait this pass,
    /// arming write interest for what their sockets still refuse.
    fn flush_stalled(&mut self) {
        while let Some(token) = self.handler.outbound().stalled.pop() {
            self.flush_conn(token);
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
        if self
            .poller
            .register(sock.as_raw_fd(), token as u64, Interest::Read)
            .is_err()
        {
            self.free.push(token);
            return; // Dropping the socket closes it; the handler never
                    // learned of it, so no `disconnect` is owed.
        }
        self.stats.add(stats::Shard::Accepted, 1);
        self.stats.add(stats::Shard::FdCount, 1);
        let id = self.next_id;
        self.next_id += 1;
        let slot = match self.broadcast.as_mut() {
            Some(sb) if broadcast => {
                sb.stats.add(Bus::ListenersTotal, 1);
                sb.tokens.push(token);
                Slot::Bcast(Box::new(BcastConn {
                    sock,
                    phase: BcastPhase::Request,
                    req: Vec::with_capacity(256),
                    icy: false,
                    cursor: 0,
                    out: WriteQueue {
                        items: VecDeque::with_capacity(BCAST_BATCH),
                        ..WriteQueue::default()
                    },
                    strikes: 0,
                }))
            }
            _ => {
                self.handler.outbound().open(token, id, sock.clone());
                Slot::Conn(Box::new(ConnState {
                    token,
                    id,
                    peer,
                    order: ByteOrder::Little, // Overwritten when setup completes.
                    phase: ReadPhase::SetupHeader {
                        buf: [0u8; ConnSetup::HEADER_SIZE],
                        have: 0,
                    },
                    sock,
                }))
            }
        };
        self.slots[token] = Some(slot);
    }

    fn handle_token(&mut self, ev: PollEvent) {
        let token = ev.token as usize;
        match self.slots.get(token) {
            Some(Some(Slot::Listen(_))) => self.accept_ready(token),
            Some(Some(Slot::Conn(_))) => {
                if ev.writable {
                    self.flush_conn(token);
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

    /// Flushes the connection's reply queue; each message retired is a
    /// reply.  A queue that drains after `hang_up` closes the connection.
    fn flush_conn(&mut self, token: usize) {
        let out = self.handler.outbound();
        let Some(conn) = out.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let queued = conn.queue.items.len();
        let flushed = conn.queue.flush(|bufs| conn.sock.write_vectored(bufs));
        let replies = queued - conn.queue.items.len();
        out.stats.add(stats::Shard::Replies, replies as u64);
        if flushed.dead
            || !conn.queue.watch(&mut self.poller, &conn.sock, token)
            || (conn.closed && conn.queue.items.is_empty())
        {
            if let Some(Some(Slot::Conn(conn))) = self.slots.get_mut(token).map(Option::take) {
                self.close_conn(token, conn, None);
            }
        }
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
    fn start_stream(&mut self, conn: &mut BcastConn, head_end: usize) -> bool {
        let (Some(sb), Some(bus)) = (self.broadcast.as_ref(), self.handler.broadcast()) else {
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
        conn.out.items.push_back(Item::Head(if conn.icy {
            crate::broadcast::ICY_STREAM_HEADER
        } else {
            crate::broadcast::HTTP_STREAM_HEADER
        }));
        conn.cursor = bus.join_cursor();
        conn.phase = BcastPhase::Streaming;
        sb.stats.add(Bus::Listeners, 1);
        conn.req = Vec::new(); // Request buffer is dead weight from here.
        true
    }

    /// Writes a broadcast listener forward: its queue (the response head,
    /// then `Arc`-shared ring chunks, which no listener copies) is flushed,
    /// and refilled from the ring each time it drains, until the socket
    /// would block or the cursor reaches the live edge.  `strike` is true
    /// on the publish-driven dirty pass, where zero progress with pending
    /// bytes counts toward stall eviction.
    fn pump_bcast(&mut self, token: usize, strike: bool) {
        let Some(Some(Slot::Bcast(conn))) = self.slots.get_mut(token) else {
            return;
        };
        let Some(bus) = self.handler.broadcast() else {
            return;
        };
        if matches!(conn.phase, BcastPhase::Request) {
            return;
        }
        let mut progressed = false;
        let dead = loop {
            if conn.out.items.is_empty() {
                // The refill applies the skip-ahead lag policy.
                conn.cursor = bus
                    .fetch_batch(conn.cursor, BCAST_BATCH, &mut **conn)
                    .next_cursor;
                if conn.out.items.is_empty() {
                    break false; // At the live edge.
                }
            }
            // The response head's bytes are not fanned-out audio.
            let head = match conn.out.items.front() {
                Some(Item::Head(head)) => head.len() - conn.out.written,
                _ => 0,
            };
            let flushed = conn.out.flush(|bufs| conn.sock.write_vectored(bufs));
            progressed |= flushed.bytes > 0;
            let fanned = flushed.bytes.saturating_sub(head) as u64;
            bus.stats().add(Bus::BytesFannedOut, fanned);
            if flushed.dead || !conn.out.items.is_empty() {
                break flushed.dead;
            }
        };
        let mut evict = false;
        if progressed {
            conn.strikes = 0;
        } else if strike && !conn.out.items.is_empty() {
            conn.strikes += 1;
            evict = conn.strikes >= bus.config().stall_strikes;
        }
        if evict {
            self.stats.add(stats::Shard::Evictions, 1);
            bus.stats().add(Bus::Evictions, 1);
        }
        if dead || evict || !conn.out.watch(&mut self.poller, &conn.sock, token) {
            if let Some(Some(Slot::Bcast(conn))) = self.slots.get_mut(token).map(Option::take) {
                self.close_bcast(token, *conn);
            }
        }
    }

    fn close_bcast(&mut self, token: usize, conn: BcastConn) {
        self.release(conn.sock.as_raw_fd(), token);
        if let Some(sb) = self.broadcast.as_mut() {
            if let Some(i) = sb.tokens.iter().position(|&t| t == token) {
                sb.tokens.swap_remove(i);
            }
            if matches!(conn.phase, BcastPhase::Streaming) {
                sb.stats.sub(Bus::Listeners, 1);
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
                    (conn.sock.read_shared(dst), dst.len(), true)
                }
                _ => (conn.sock.read_shared(&mut scratch), scratch.len(), false),
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
                    let header = *buf;
                    match ConnSetup::tail_len(&header) {
                        Ok(0) => self.finish_setup(conn, &header)?,
                        Ok(tail_len) => {
                            // Once per connection whose setup has a tail.
                            let mut setup = header.to_vec();
                            setup.resize(ConnSetup::HEADER_SIZE + tail_len, 0);
                            conn.phase = ReadPhase::SetupTail {
                                buf: setup,
                                have: ConnSetup::HEADER_SIZE,
                            };
                        }
                        Err(_) => return Err(ReadOutcome::Close), // Garbage setup.
                    }
                }
                ReadPhase::SetupTail { buf, have } => {
                    if !fill(buf, have, &mut data) {
                        break;
                    }
                    let setup = std::mem::take(buf);
                    self.finish_setup(conn, &setup)?;
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
                        self.dispatch_frame(conn.id, opcode, payload, budget);
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
                        self.dispatch_frame(conn.id, opcode, &buf, budget);
                    }
                }
            }
        }
        self.stats.add(stats::Shard::PartialReads, 1);
        Ok(())
    }

    /// Lends one complete request frame to the handler, which handles it
    /// here and now.
    fn dispatch_frame(&mut self, id: ClientId, opcode: u8, payload: &[u8], budget: &mut u32) {
        self.stats.add(stats::Shard::Frames, 1);
        self.handler.request(id, opcode, payload);
        *budget = budget.saturating_sub(1);
    }

    /// Lends a whole setup message to the handler, once its byte-order
    /// marker has said how the connection's frames read.
    fn finish_setup(&mut self, conn: &mut ConnState, setup: &[u8]) -> Result<(), ReadOutcome> {
        let Some(Ok(order)) = setup.first().map(|&marker| ByteOrder::from_marker(marker)) else {
            return Err(ReadOutcome::Close);
        };
        conn.order = order;
        let conn_ref = ConnRef {
            token: conn.token,
            id: conn.id,
        };
        self.handler.connect(conn_ref, setup, conn.peer);
        conn.phase = ReadPhase::BETWEEN_FRAMES;
        Ok(())
    }

    // Takes the box so the reactor's half of the connection is dropped here.
    #[allow(clippy::boxed_local)]
    fn close_conn(&mut self, token: usize, conn: Box<ConnState>, protocol: Option<FrameError>) {
        self.release(conn.sock.as_raw_fd(), token);
        self.handler.disconnect(conn.id, protocol);
        self.handler.outbound().close(token);
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

/// What another thread can ask of the reactor ([`Control::call`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// Run the update task now.
    Update,
    /// Nothing: answered once everything the reactor was handed before it
    /// has been handled.
    Barrier,
}

/// A call and the thread waiting on it.  Dropped once the reactor has run
/// it, or unrun when the reactor has stopped: either way `pending` goes
/// and the caller is woken.
struct Asked {
    call: Call,
    caller: std::thread::Thread,
    pending: Option<Arc<()>>,
}

impl Drop for Asked {
    fn drop(&mut self) {
        drop(self.pending.take());
        self.caller.unpark();
    }
}

/// The way to reach the reactor from another thread: [`Control::call`]
/// puts a [`Call`] on a bounded queue and wakes the loop over its
/// self-pipe.
#[derive(Clone)]
pub struct Control {
    calls: SyncSender<Asked>,
    waker: Arc<Waker>,
}

impl Control {
    /// Asks the reactor for `call` and returns at the end of the pass that
    /// ran it — or at once, when the reactor has stopped.  Never made on the reactor
    /// thread, which would wait for itself.
    #[expect(clippy::disallowed_methods, reason = "the caller waits by design")]
    pub fn call(&self, call: Call) {
        let pending = Arc::new(());
        let caller = std::thread::current();
        let asked = Asked {
            call,
            caller,
            pending: Some(Arc::clone(&pending)),
        };
        if self.calls.send(asked).is_ok() {
            self.waker.wake();
            // Parked, not spinning as a channel's receiver does: a caller
            // spinning beside the reactor slowed the update it waits for
            // (the broadcast encode, EXPERIMENTS.md "One thread, one loop").
            while Arc::strong_count(&pending) > 1 {
                std::thread::park();
            }
            // Pairs with the release in the reactor's drop of `pending`.
            fence(Ordering::Acquire);
        }
    }
}

/// A running reactor: its thread and the way to reach it.
pub struct Reactor {
    control: Control,
    stop: Arc<AtomicBool>,
    stats: Arc<ShardCounters>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the reactor thread (`af-reactor-0`), which builds its
    /// handler with `make` and then runs: handing it framed events,
    /// running its tasks, and serving broadcast listeners from its bus.
    ///
    /// `make` gets the handler's [`Outbound`], which counts into the
    /// reactor's counters, and the reactor's buffer pool, for replies; the
    /// reactor stages split frames in the same pool, whose takes count as
    /// `PoolAllocs` and `PoolReuses`.  The handler is built on the reactor
    /// thread, so it need not be `Send`, and it never leaves that thread.
    ///
    /// The reactor accepts on every listener.  The wake pipe and the
    /// listeners are registered with the poller and counted in `FdCount`
    /// before this returns.  Fails, with no thread started, when the poller
    /// cannot be created or take a descriptor: `ErrorKind::Unsupported` on
    /// targets without a syscall backend (see [`af_sys`] for the supported
    /// list), else the system call's own error.
    pub fn spawn<H, F>(make: F, listeners: Vec<Listener>) -> io::Result<Reactor>
    where
        H: Handler,
        F: FnOnce(Outbound, Rc<BufferPool>) -> H + Send + 'static,
    {
        let mut poller = Poller::new()?;
        let (waker, wake_rx) = Waker::pair()?;
        // Registered and counted here, not on the reactor thread, so the
        // gauge is settled when `spawn` returns; `close_all` undoes both.
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::Read)?;
        let counters = Arc::new(ShardCounters::default());
        counters.add(stats::Shard::FdCount, 1);
        for (token, listener) in listeners.iter().enumerate() {
            poller.register(listener.as_raw_fd(), token as u64, Interest::Read)?;
            counters.add(stats::Shard::FdCount, 1);
        }
        let spare = Some(File::open("/dev/null")?);
        let (calls_tx, calls) = sync_channel(CALL_QUEUE);
        let stop = Arc::new(AtomicBool::new(false));
        let (thread_stop, stats) = (Arc::clone(&stop), Arc::clone(&counters));
        let run = move || {
            let pool = BufferPool::with_max_idle(REACTOR_MAX_IDLE, Arc::clone(&stats));
            let outbound = Outbound {
                stats: Arc::clone(&stats),
                ..Outbound::default()
            };
            let mut handler = make(outbound, Rc::clone(&pool));
            let broadcast = handler.broadcast().map(|bus| ShardBroadcast {
                stats: Arc::clone(bus.stats()),
                seen: bus.live_seq(),
                tokens: Vec::new(),
            });
            Shard {
                poller,
                slots: listeners
                    .into_iter()
                    .map(|l| Some(Slot::Listen(l)))
                    .collect(),
                free: Vec::new(),
                deferred_free: Vec::new(),
                wake_rx,
                calls,
                answered: Vec::with_capacity(CALL_QUEUE),
                stop: thread_stop,
                stats,
                handler,
                pool,
                next_id: 1,
                read_scratch: vec![0u8; READ_SCRATCH_BYTES],
                broadcast,
                bcast_scratch: Vec::new(),
                spare,
            }
            .run();
        };
        let join = std::thread::Builder::new()
            .name("af-reactor-0".into())
            .spawn(run)?;
        Ok(Reactor {
            control: Control {
                calls: calls_tx,
                waker: Arc::new(waker),
            },
            stop,
            stats: counters,
            join: Some(join),
        })
    }

    /// The reactor's counters (the builder hands them to
    /// `ServerStats::reactor`).
    pub fn stats(&self) -> Arc<ShardCounters> {
        Arc::clone(&self.stats)
    }

    /// The way other threads reach the reactor.
    pub fn control(&self) -> Control {
        self.control.clone()
    }

    /// Stops the reactor and joins its thread.  Idempotent.
    #[expect(clippy::disallowed_methods, reason = "the stopping thread waits")]
    pub fn stop(&mut self) {
        let Some(join) = self.join.take() else {
            return;
        };
        // Stored before the wake-up's `write`, so the reactor finds it at
        // the top of its loop.
        self.stop.store(true, Ordering::SeqCst);
        self.control.waker.wake();
        let _ = join.join();
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests are clients that wait")]
mod tests {
    use super::*;
    use crate::stats::Shard::{
        Accepted, Closed, DirectWrites, Evictions, FdCount, Frames, PartialReads, PoolAllocs,
        PoolReuses, QueuedWrites, Replies, StagedFrames,
    };
    use crate::stats::Snapshot;
    use af_time::ATime;
    use std::time::Duration;

    /// Room for every event of a test that does not bound its own queue.
    const EVENT_ROOM: usize = 1024;

    /// What the test handler was handed, with a copy of any bytes it was
    /// lent: a setup, a request (id, opcode, payload), or a connection's
    /// end.
    enum Captured {
        Connect(ConnRef, Vec<u8>, Option<IpAddr>),
        Request(ClientId, u8, Vec<u8>),
        Disconnect(Option<FrameError>),
    }

    /// Work a test runs on the reactor thread, against the handler.
    type Job = Box<dyn FnOnce(&mut Capture) + Send>;

    /// The reactor's handler in these tests: what it is handed goes to a
    /// channel the test reads (a full channel holds the reactor up, as a
    /// slow handler would), and an update runs the jobs the test queued.
    struct Capture {
        events: SyncSender<Captured>,
        jobs: Receiver<Job>,
        outbound: Outbound,
        /// The tests' own pool, with room to take back every message a
        /// flooded deque can hold.
        pool: Rc<BufferPool>,
        bus: Option<BroadcastBus>,
    }

    impl Handler for Capture {
        fn connect(&mut self, conn: ConnRef, setup: &[u8], peer: Option<IpAddr>) {
            let _ = self
                .events
                .send(Captured::Connect(conn, setup.to_vec(), peer));
        }

        fn disconnect(&mut self, _id: ClientId, protocol: Option<FrameError>) {
            let _ = self.events.send(Captured::Disconnect(protocol));
        }

        fn request(&mut self, id: ClientId, opcode: u8, payload: &[u8]) {
            let _ = self
                .events
                .send(Captured::Request(id, opcode, payload.to_vec()));
        }

        fn next_deadline(&self) -> Option<Instant> {
            None
        }

        fn run_due(&mut self, _now: Instant) {}

        fn update(&mut self) {
            while let Ok(job) = self.jobs.try_recv() {
                job(self);
            }
        }

        fn outbound(&mut self) -> &mut Outbound {
            &mut self.outbound
        }

        fn broadcast(&mut self) -> Option<&mut BroadcastBus> {
            self.bus.as_mut()
        }
    }

    /// A running reactor and the test's ends of its handler.
    struct Harness {
        reactor: Reactor,
        rx: Receiver<Captured>,
        jobs: Jobs,
    }

    /// The way to run work on the reactor thread, from any test thread.
    #[derive(Clone)]
    struct Jobs {
        queue: SyncSender<Job>,
        control: Control,
    }

    impl Jobs {
        /// Runs `job` on the reactor thread, in an update, and returns what
        /// it returned.
        fn run<T: Send + 'static>(
            &self,
            job: impl FnOnce(&mut Capture) -> T + Send + 'static,
        ) -> T {
            let (tx, rx) = sync_channel(1);
            let job: Job = Box::new(move |cap| tx.send(job(cap)).unwrap());
            self.queue.send(job).unwrap();
            self.control.call(Call::Update);
            rx.recv().unwrap()
        }
    }

    impl Harness {
        fn spawn(
            event_capacity: usize,
            listeners: Vec<Listener>,
            bus: Option<BroadcastBus>,
        ) -> Harness {
            let (events, rx) = sync_channel(event_capacity);
            let (jobs, queued) = sync_channel(EVENT_ROOM);
            let make = move |outbound, _| Capture {
                events,
                jobs: queued,
                outbound,
                pool: BufferPool::with_max_idle(2 * OUTBOUND_QUEUE_CAPACITY, Arc::default()),
                bus,
            };
            let reactor = Reactor::spawn(make, listeners).unwrap();
            let jobs = Jobs {
                queue: jobs,
                control: reactor.control(),
            };
            Harness { reactor, rx, jobs }
        }

        fn totals(&self) -> Snapshot<stats::Shard, 15> {
            self.reactor.stats().snapshot()
        }

        fn shutdown(mut self) {
            self.reactor.stop();
        }
    }

    fn start() -> (Harness, SocketAddr) {
        start_with(EVENT_ROOM)
    }

    /// A reactor on loopback TCP with a bounded event queue.  (Loopback
    /// TCP has byte-granular socket buffers: a reader that pauses forces
    /// short writes, which all-or-nothing Unix-socket writes never are.)
    fn start_with(event_capacity: usize) -> (Harness, SocketAddr) {
        let (listener, addr) = tcp_listener(false);
        let h = Harness::spawn(event_capacity, vec![listener], None);
        (h, addr)
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
    /// setup: `(id, setup, peer, conn)`.
    fn new_client(rx: &Receiver<Captured>) -> (ClientId, Vec<u8>, Option<IpAddr>, ConnRef) {
        match recv(rx) {
            Captured::Connect(conn, setup, peer) => (conn.id, setup, peer, conn),
            _ => panic!("expected a connect"),
        }
    }

    /// … a framed request: `(id, opcode, payload)`.
    fn request(rx: &Receiver<Captured>) -> (ClientId, u8, Vec<u8>) {
        match recv(rx) {
            Captured::Request(id, opcode, payload) => (id, opcode, payload),
            _ => panic!("expected a request"),
        }
    }

    /// … the connection's end, and the framing violation that ended it.
    fn disconnect(rx: &Receiver<Captured>) -> Option<FrameError> {
        match recv(rx) {
            Captured::Disconnect(protocol) => protocol,
            _ => panic!("expected a disconnect"),
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
    fn poll_timeout_rounds_up_so_an_idle_reactor_never_spins() {
        let now = Instant::now();
        let ahead = |micros| poll_timeout(Some(now + Duration::from_micros(micros)), now);
        assert_eq!(poll_timeout(None, now), -1);
        assert_eq!(ahead(0), 0);
        assert_eq!(ahead(300), 1);
        assert_eq!(ahead(2_000), 2);
        assert_eq!(ahead(2_001), 3);
        assert_eq!(poll_timeout(Some(now), now + Duration::from_secs(1)), 0);
    }

    #[test]
    fn framing_round_trip_and_reply() {
        let (h, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        let setup = ConnSetup::new();
        sock.write_all(&setup.encode().unwrap()).unwrap();
        let req = af_proto::Request::PlaySamples {
            ac: 3,
            start_time: ATime::new(99),
            flags: 0,
            data: vec![1, 2, 3, 4, 5, 6, 7],
        };
        sock.write_all(&req.encode(ByteOrder::native())).unwrap();

        let (_, s, peer, conn) = new_client(&h.rx);
        assert_eq!(ConnSetup::decode(&s).unwrap(), setup);
        assert!(peer.unwrap().is_loopback());
        let (_, opcode, payload) = request(&h.rx);
        assert_eq!(opcode, af_proto::Opcode::PlaySamples.to_wire());
        let decoded =
            af_proto::Request::decode(ByteOrder::native(), af_proto::Opcode::PlaySamples, &payload)
                .unwrap();
        assert_eq!(decoded, req);

        // Reply path: send bytes the way the dispatcher does, on the
        // reactor thread, and check they arrive.
        let payload = vec![0xA5u8; 600];
        let reply = payload.clone();
        assert_eq!(
            h.jobs
                .run(move |cap| cap.outbound.deliver(conn, reply.into())),
            Ok(())
        );
        let mut got = vec![0u8; payload.len()];
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.read_exact(&mut got).unwrap();
        assert_eq!(got, payload);

        drop(sock);
        assert_eq!(disconnect(&h.rx), None);
        h.shutdown();
    }

    #[test]
    fn zero_length_frame_disconnects_with_a_protocol_error() {
        let (h, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
        new_client(&h.rx);
        sock.write_all(&[0, 0, 33, 0]).unwrap();
        assert_eq!(disconnect(&h.rx), Some(FrameError::ZeroLength));
        h.shutdown();
    }

    #[test]
    fn truncated_max_length_frame_disconnects_without_a_partial_request() {
        let (h, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
        new_client(&h.rx);
        // Claim the maximum expressible frame length (0xffff words, which
        // reads the same in either byte order), then hang up without
        // sending the payload.  The reactor must not emit a partial request.
        sock.write_all(&[0xff, 0xff, 33, 0]).unwrap();
        drop(sock);
        assert_eq!(disconnect(&h.rx), None);
        h.shutdown();
    }

    #[test]
    fn steady_state_framing_recycles_frame_buffers() {
        // The acceptance property for the buffer pool.  Frames that arrive
        // whole are handled where `read` left them: no buffer is taken
        // from the pool at all.  Frames split across reads are staged in
        // a pooled buffer, and that one buffer goes round: the reactor does
        // NOT allocate a Vec per frame.
        let (listener, addr) = tcp_listener(false);
        let h = Harness::spawn(1, vec![listener], None);
        let takes = || {
            let t = h.totals();
            (t[PoolAllocs], t[PoolReuses])
        };

        let mut wire = ConnSetup::new().encode().unwrap();
        for _ in 0..100 {
            wire.extend_from_slice(&[2, 0, 33, 0]); // 2 words: header + 4 bytes.
            wire.extend_from_slice(&[1, 2, 3, 4]);
        }
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.write_all(&wire).unwrap();
        new_client(&h.rx);
        for _ in 0..100 {
            assert_eq!(request(&h.rx).2, [1, 2, 3, 4]);
        }
        assert_eq!(takes(), (0, 0), "whole frames took buffers from the pool");
        assert_eq!(h.totals()[StagedFrames], 0);

        // The same frames, each cut after its sixth byte; the second piece
        // is sent once the reactor has parked on the first.
        for i in 0..100u64 {
            let parked = h.totals()[PartialReads];
            sock.write_all(&[2, 0, 33, 0, 1, 2]).unwrap();
            wait_until("the first piece to be read", || {
                h.totals()[PartialReads] > parked
            });
            sock.write_all(&[3, 4]).unwrap();
            assert_eq!(request(&h.rx).2, [1, 2, 3, 4]);
            assert_eq!(h.totals()[StagedFrames], i + 1);
        }
        assert_eq!(h.totals()[Frames], 200);
        assert_eq!(
            takes(),
            (1, 99),
            "split frames must stage in one recycled buffer"
        );
        h.shutdown();
    }

    #[test]
    fn partial_frames_one_byte_per_readiness_event() {
        // The torture case: every byte of the setup message and of several
        // request frames arrives in its own segment, so the state machine
        // must resume mid-header and mid-payload dozens of times.
        let (h, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();

        let mut wire = ConnSetup::new().encode().unwrap();
        for _ in 0..3 {
            wire.extend_from_slice(&[3, 0, 33, 0]); // 3 words: 8-byte payload.
            wire.extend_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2]);
        }
        for byte in wire {
            sock.write_all(&[byte]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }

        new_client(&h.rx);
        for _ in 0..3 {
            let (_, opcode, payload) = request(&h.rx);
            assert_eq!(opcode, 33);
            assert_eq!(payload, [9, 8, 7, 6, 5, 4, 3, 2]);
        }
        let partials = h.totals()[PartialReads];
        assert!(
            partials >= 10,
            "one-byte delivery must exercise partial reads: {partials}"
        );
        drop(sock);
        assert_eq!(disconnect(&h.rx), None);
        h.shutdown();
    }

    #[test]
    fn unix_socket_connects_and_disconnects() {
        let dir = std::env::temp_dir().join(format!("af-reactor-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("reactor.sock");
        let listeners = vec![Listener::unix(&path).unwrap()];
        let h = Harness::spawn(EVENT_ROOM, listeners, None);

        let mut sock = UnixStream::connect(&path).unwrap();
        sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
        assert!(new_client(&h.rx).2.is_none());
        drop(sock);
        assert_eq!(disconnect(&h.rx), None);
        h.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slow_reader_overflow_then_kick_closes_socket() {
        // A peer that never reads: the socket fills, then the deque, and
        // the flood is refused exactly at the bound.  Then the kick (as
        // the dispatcher's eviction does): the reactor tears the connection
        // down, and the reference the dispatcher may still hold finds a
        // closed connection that keeps no buffer.
        let (listener, addr) = tcp_listener(false);
        let h = Harness::spawn(EVENT_ROOM, vec![listener], None);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
        let conn = new_client(&h.rx).3;
        let (taken, queued) = h.jobs.run(move |cap| {
            let out = &mut cap.outbound;
            let mut taken = 0u64;
            loop {
                match out.deliver(conn, cap.pool.take_filled(64 * 1024)) {
                    Ok(()) => taken += 1,
                    Err(refused) => {
                        assert_eq!(refused, Refused::Full);
                        break;
                    }
                }
                assert!(
                    out.queued(conn) <= OUTBOUND_QUEUE_CAPACITY,
                    "bound exceeded"
                );
            }
            (taken, out.queued(conn))
        });
        assert_eq!(queued, OUTBOUND_QUEUE_CAPACITY, "refused below the bound");
        // Every message taken is either fully on the socket or waiting (the
        // reactor may have written more since: the peer's buffer grows).
        let stats = h.reactor.stats();
        let (written, waiting) = h
            .jobs
            .run(move |cap| (stats.get(Replies), cap.outbound.queued(conn)));
        assert_eq!(written + waiting as u64, taken);
        assert!(waiting > 0, "the deque drained to a peer that never reads");

        h.jobs.run(move |cap| cap.outbound.kick(conn));
        assert_eq!(disconnect(&h.rx), None);
        assert_eq!(h.totals()[Evictions], 1);
        // The reactor drops the deque right after it reports the close:
        // every buffer the flood took comes back to the pool.
        wait_until("the closed connection's buffers to recycle", || {
            h.jobs
                .run(|cap| cap.pool.idle_len() as u64 == cap.pool.stats.get(PoolAllocs))
        });
        let (queued, refused) = h.jobs.run(move |cap| {
            let late = cap.pool.take_filled(16);
            (cap.outbound.queued(conn), cap.outbound.deliver(conn, late))
        });
        assert_eq!((queued, refused), (0, Err(Refused::Closed)));
        h.shutdown();
    }

    #[test]
    fn hang_up_behind_queued_replies_delivers_every_byte_then_end_of_file() {
        // How a refusal reply leaves when the socket cannot take it: the
        // peer stops reading until replies wait on the deque, then the
        // dispatcher hangs up.  The peer must read every byte sent, in
        // issue order, then end-of-file, and the reactor must give the
        // connection's descriptor back.
        let (h, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
        let conn = new_client(&h.rx).3;
        let fds = || h.totals()[FdCount];
        let open = fds(); // The wake pipe, the listener and this connection.
        let (sent, late) = h.jobs.run(move |cap| {
            let out = &mut cap.outbound;
            let mut sent = 0;
            while out.queued(conn) == 0 {
                out.deliver(conn, ordered_message(sent).into()).unwrap();
                sent += 1;
            }
            out.hang_up(conn);
            (sent, out.deliver(conn, ordered_message(sent).into()))
        });
        assert_eq!(late, Err(Refused::Closed));
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        for seq in 0..sent {
            let want = ordered_message(seq);
            let mut got = vec![0u8; want.len()];
            sock.read_exact(&mut got).unwrap();
            assert!(got == want, "stream diverged at message {seq}");
        }
        assert_eq!(sock.read(&mut [0u8; 16]).unwrap(), 0, "no end-of-file");
        let t = h.totals();
        assert!(
            t[DirectWrites] > 0 && t[QueuedWrites] > 0,
            "a reply path never ran"
        );
        assert_eq!(disconnect(&h.rx), None);
        wait_until("the reactor to close the connection", || fds() == open - 1);
        h.shutdown();
    }

    /// Message `seq` of the ordering test: 12 bytes or 8 KB, every byte
    /// derived from `seq` so any reordering, interleaving or loss shows.
    fn ordered_message(seq: u32) -> Vec<u8> {
        let len = if seq % 4 == 3 { 8192 } else { 12 };
        sized_message(seq, len)
    }

    /// Message `seq`, `len` bytes long, as `ordered_message` makes them.
    fn sized_message(seq: u32, len: usize) -> Vec<u8> {
        let mut msg: Vec<u8> = (0..len).map(|i| (seq as usize * 31 + i) as u8).collect();
        msg[..4].copy_from_slice(&seq.to_le_bytes());
        msg
    }

    #[test]
    fn a_reply_backlog_drains_in_issue_order_to_a_peer_reading_97_bytes_at_a_time() {
        // Replies go out directly until the socket is full; then 64 more,
        // 12 B to 8 KB in a shuffled ramp, wait on the queue behind them,
        // and the flush drains the backlog in vectored writes while the
        // peer reads 97 bytes at a time.
        let (h, addr) = start();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
        let conn = new_client(&h.rx).3;
        let sent = h.jobs.run(move |cap| {
            let out = &mut cap.outbound;
            let mut sent = Vec::new();
            while out.queued(conn) == 0 {
                let msg = sized_message(sent.len() as u32, 64 * 1024);
                out.deliver(conn, msg.clone().into()).unwrap();
                sent.push(msg);
            }
            for i in 0..64 {
                let len = 12 + (i * 37 % 64) * (8192 - 12) / 63;
                let msg = sized_message(sent.len() as u32, len);
                out.deliver(conn, msg.clone().into()).unwrap();
                sent.push(msg);
            }
            assert_eq!(out.queued(conn), 65, "the 64 replies did not queue");
            sent
        });
        let want = sent.concat();
        let mut got = Vec::with_capacity(want.len());
        let mut piece = [0u8; 97];
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        while got.len() < want.len() {
            let n = sock.read(&mut piece).unwrap();
            assert!(n > 0, "end-of-file after {} bytes", got.len());
            got.extend_from_slice(&piece[..n]);
        }
        assert!(got == want, "the stream diverged from the issue order");
        wait_until("every reply to count", || {
            h.totals()[Replies] == sent.len() as u64
        });
        assert_eq!(h.totals()[QueuedWrites], 65);
        h.shutdown();
    }

    /// A socket that takes at most `cap` bytes a call and then would block
    /// once, so every flush stops on a short write.
    struct Trickle {
        got: Vec<u8>,
        cap: usize,
        full: bool,
    }

    impl Trickle {
        fn writev(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.full = !self.full;
            if !self.full {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let start = self.got.len();
            for buf in bufs {
                let room = self.cap - (self.got.len() - start);
                self.got.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.got.len() - start)
        }
    }

    #[test]
    fn a_listener_queue_cut_mid_head_and_mid_chunk_delivers_every_byte() {
        let mut bus = BroadcastBus::new(small_cfg(), 1, 0xFF);
        for i in 0..3u8 {
            bus.publish(&[i; 4]);
        }
        for icy in [false, true] {
            let (sock, _peer) = UnixStream::pair().unwrap();
            let head = if icy {
                crate::broadcast::ICY_STREAM_HEADER
            } else {
                crate::broadcast::HTTP_STREAM_HEADER
            };
            let mut conn = BcastConn {
                sock: SharedSock::Unix(Rc::new(sock)),
                phase: BcastPhase::Streaming,
                req: Vec::new(),
                icy,
                cursor: 0,
                out: WriteQueue::default(),
                strikes: 0,
            };
            conn.out.items.push_back(Item::Head(head));
            let fetched = bus.fetch_batch(0, BCAST_BATCH, &mut conn);
            assert_eq!(fetched.next_cursor, 3);
            let mut want = head.to_vec();
            for i in 0..3u8 {
                if !icy {
                    want.extend_from_slice(b"4\r\n");
                }
                want.extend_from_slice(&[i; 4]);
                if !icy {
                    want.extend_from_slice(b"\r\n");
                }
            }
            let mut sink = Trickle {
                got: Vec::new(),
                cap: 3,
                full: false,
            };
            let (mut head_cut, mut chunk_cut) = (false, false);
            while !conn.out.items.is_empty() {
                let flushed = conn.out.flush(|bufs| sink.writev(bufs));
                assert!(!flushed.dead);
                assert!(flushed.bytes <= 3);
                let cut = conn.out.written > 0;
                match conn.out.items.front() {
                    Some(Item::Head(_)) => head_cut |= cut,
                    Some(Item::Wire(c) | Item::Payload(c)) if c.seq() == 0 => chunk_cut |= cut,
                    _ => {}
                }
            }
            assert!(head_cut && chunk_cut, "icy {icy}: no cut mid-item");
            assert!(sink.got == want, "icy {icy}: the stream diverged");
        }
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
    /// one `disconnect` carrying the framing violation, and nothing after.
    fn coalesced_burst(piece: usize, poison_after: Option<usize>) {
        let (h, addr) = start();
        let mut wire = ConnSetup::new().encode().unwrap();
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
        new_client(&h.rx);
        for (i, payload) in payloads
            .iter()
            .enumerate()
            .take(poison_after.unwrap_or(100))
        {
            let (_, opcode, got) = request(&h.rx);
            assert_eq!(opcode, 1 + i as u8, "request {i}");
            assert!(got == *payload, "payload of request {i}");
        }
        if poison_after.is_none() {
            assert_eq!(h.totals()[Frames], 100);
            drop(sock);
        }
        let protocol = poison_after.map(|_| FrameError::ZeroLength);
        assert_eq!(disconnect(&h.rx), protocol);
        h.shutdown();
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
        let (h, addr) = start();
        for cut in 1..wire.len() {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.set_nodelay(true).unwrap();
            sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
            new_client(&h.rx);
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

            let before = h.totals();
            sock.write_all(&wire[..cut]).unwrap();
            wait_until("the reactor to park on the first piece", || {
                let now = h.totals();
                now[Frames] - before[Frames] == whole_first as u64
                    && now[PartialReads] - before[PartialReads] == u64::from(whole_first == split)
            });
            sock.write_all(&wire[cut..]).unwrap();
            for (i, (opcode, payload)) in frames.iter().enumerate() {
                let (_, got_opcode, got) = request(&h.rx);
                assert_eq!(
                    (got_opcode, &got),
                    (*opcode, payload),
                    "cut {cut}, frame {i}"
                );
            }
            drop(sock);
            assert_eq!(disconnect(&h.rx), None);
            let after = h.totals();
            assert_eq!(after[Frames] - before[Frames], frames.len() as u64);
            assert_eq!(
                after[StagedFrames] - before[StagedFrames],
                staged,
                "cut {cut}: {into} bytes into frame {split}"
            );
        }
        h.shutdown();
    }

    #[test]
    fn firehose_connection_cannot_starve_its_sibling() {
        // One reactor, a small event queue the test drains itself, and a
        // connection that keeps its socket full of 8-byte frames.  Once
        // the firehose is in full flow a sibling sends one frame: it must
        // come through within a few of the firehose's FRAME_BUDGET turns
        // (each turn ends at the first read boundary past the budget, so
        // at most one scratch-full of frames).
        let (h, addr) = start_with(16);
        let connect = || {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
            (sock, new_client(&h.rx).0)
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
            let (id, _, payload) = request(&h.rx);
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
        let Harness {
            mut reactor, rx, ..
        } = h;
        drop(rx); // Unblocks the handler's backpressured send.
        reactor.stop(); // Closes the firehose socket: the writer ends.
        writer.join().unwrap();
    }

    use crate::broadcast::BroadcastConfig;

    /// A reactor serving broadcast listeners from a bus of `cfg`, and the
    /// bus's counters.
    fn start_broadcast(cfg: BroadcastConfig) -> (Harness, Arc<BusCounters>, SocketAddr) {
        let (listener, addr) = tcp_listener(true);
        let bus = BroadcastBus::new(cfg, 1, 0xFF);
        let stats = Arc::clone(bus.stats());
        let h = Harness::spawn(EVENT_ROOM, vec![listener], Some(bus));
        (h, stats, addr)
    }

    /// Seals one chunk of `payload` the way the update task does: on the
    /// reactor thread, which pumps the listeners at the end of that pass.
    fn publish(h: &Harness, payload: Vec<u8>) {
        h.jobs
            .run(move |cap| cap.bus.as_mut().unwrap().publish(&payload));
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
    fn wait_listeners(bus: &BusCounters, n: u64) {
        for _ in 0..500 {
            if bus.get(Bus::Listeners) == n {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("listener gauge never reached {n}");
    }

    #[test]
    fn http_listener_streams_chunked_frames() {
        let (h, bus, addr) = start_broadcast(small_cfg());
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        wait_listeners(&bus, 1);
        for i in 0..3u8 {
            publish(&h, vec![i; 4]);
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
            if bus.get(Bus::BytesFannedOut) >= 27 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(bus.get(Bus::BytesFannedOut) >= 27);
        drop(sock);
        for _ in 0..500 {
            if bus.get(Bus::Listeners) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(bus.get(Bus::Listeners), 0);
        assert_eq!(bus.get(Bus::ListenersTotal), 1);
        h.shutdown();
    }

    #[test]
    fn icy_listener_gets_raw_payload_of_the_same_chunks() {
        let (h, bus, addr) = start_broadcast(small_cfg());
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"GET /; HTTP/1.0\r\nIcy-MetaData: 0\r\n\r\n")
            .unwrap();
        wait_listeners(&bus, 1);
        for i in 0..3u8 {
            publish(&h, vec![i; 4]);
        }
        let mut head = vec![0u8; crate::broadcast::ICY_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        assert_eq!(head, crate::broadcast::ICY_STREAM_HEADER);
        let mut body = [0u8; 12]; // 3 chunks × 4 raw payload bytes.
        sock.read_exact(&mut body).unwrap();
        assert_eq!(&body[..4], &[0; 4]);
        assert_eq!(&body[4..8], &[1; 4]);
        assert_eq!(&body[8..], &[2; 4]);
        h.shutdown();
    }

    #[test]
    fn late_joiner_bursts_in_from_the_preroll_cursor() {
        let (h, _, addr) = start_broadcast(small_cfg());
        for i in 0..6u8 {
            publish(&h, vec![i; 4]);
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
        h.shutdown();
    }

    #[test]
    fn malformed_request_head_closes_the_listener() {
        let (h, bus, addr) = start_broadcast(small_cfg());
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"PUT /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 16];
        // The reactor closes without a response: EOF (or reset).
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("expected EOF, got {n} bytes"),
        }
        assert_eq!(bus.get(Bus::Listeners), 0);
        h.shutdown();
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
        let (h, bus, addr) = start_broadcast(cfg);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        wait_listeners(&bus, 1);
        let chunk = vec![0x42u8; 32 * 1024];
        let mut evicted = false;
        for _ in 0..200 {
            publish(&h, chunk.clone());
            if bus.get(Bus::Evictions) > 0 {
                evicted = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(evicted, "stalled listener never evicted");
        wait_listeners(&bus, 0);
        assert_eq!(h.totals()[Evictions], 1);
        h.shutdown();
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
        let (h, bus, addr) = start_broadcast(cfg);
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
            publish(&h, vec![seq; CHUNK]);
            std::thread::sleep(Duration::from_millis(2));
            let sealed = bus.get(Bus::ChunksSealed);
            let fanned = bus.get(Bus::BytesFannedOut);
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
            bus.get(Bus::SkipAheads) > 0,
            "ring never overtook the stalled cursor"
        );
        h.shutdown();
    }

    /// A caller that reads the gauge straight after `spawn` (and counts on
    /// it holding still) must see the wake pipe, whether or not the
    /// reactor thread has run yet.
    #[test]
    fn fd_count_holds_the_wake_pipe_when_spawn_returns() {
        for _ in 0..20 {
            let h = Harness::spawn(EVENT_ROOM, vec![], None);
            assert_eq!(h.totals()[FdCount], 1);
            h.shutdown();
        }
    }

    #[test]
    fn fd_count_is_the_pipe_the_listeners_and_the_connections_until_shutdown() {
        let bus = BroadcastBus::new(small_cfg(), 1, 0xFF);
        let bus_stats = Arc::clone(bus.stats());
        let (listener, addr) = tcp_listener(false);
        let (bcast_listener, bcast_addr) = tcp_listener(true);
        let listeners = vec![listener, bcast_listener];
        let h = Harness::spawn(EVENT_ROOM, listeners, Some(bus));
        let mut conns = Vec::new();
        for _ in 0..2 {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
            new_client(&h.rx);
            conns.push(sock);
        }
        let mut listener = TcpStream::connect(bcast_addr).unwrap();
        listener.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        wait_listeners(&bus_stats, 1);
        let stats = h.reactor.stats();
        // The wake pipe, both listeners, and three accepted sockets.
        assert_eq!(stats.get(FdCount), 1 + 2 + 3);

        h.shutdown();
        assert_eq!(stats.get(FdCount), 0);
        assert_eq!(stats.get(Closed), stats.get(Accepted));
        assert_eq!(bus_stats.get(Bus::Listeners), 0);
    }
}
