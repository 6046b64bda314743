//! Readiness multiplexer over `epoll`.
//!
//! [`Poller`] gives the reactor one level-triggered wait loop over its
//! fds, O(ready) per wakeup, reporting [`PollEvent`]s keyed by
//! caller-chosen tokens.  Both supported targets have epoll; a failed
//! `epoll_create1` (descriptor or memory exhaustion) is an error the
//! caller sees, not a reason to degrade.

use crate::sys;
use std::io;
use std::os::fd::RawFd;

/// Maximum readiness events drained per `wait`.
pub const MAX_EVENTS: usize = 256;

/// One fd's readiness, as reported by [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data (or EOF, or a pending error) can be read without blocking.
    pub readable: bool,
    /// The fd can accept writes without blocking.
    pub writable: bool,
}

/// Registration interest: reads always, writes on demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interest {
    /// Read readiness only (the steady state for idle connections).
    Read,
    /// Read and write readiness (an outbound queue is mid-drain).
    ReadWrite,
}

impl Interest {
    fn epoll_bits(self) -> u32 {
        match self {
            Interest::Read => sys::EPOLLIN,
            Interest::ReadWrite => sys::EPOLLIN | sys::EPOLLOUT,
        }
    }
}

/// A level-triggered readiness multiplexer over raw fds.
pub struct Poller {
    ep: sys::EpollFd,
    buf: Vec<sys::EpollEvent>,
}

impl Poller {
    /// Creates a poller; `ErrorKind::Unsupported` off the supported targets.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            ep: sys::EpollFd::create()?,
            buf: vec![sys::EpollEvent::default(); MAX_EVENTS],
        })
    }

    /// Registers `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ep.add(fd, interest.epoll_bits(), token)
    }

    /// Updates a registered fd's interest set.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ep.modify(fd, interest.epoll_bits(), token)
    }

    /// Removes a registered fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ep.delete(fd)
    }

    /// Blocks until readiness (or `timeout_ms >= 0` elapses), appending
    /// events to `out`.  `EINTR` is swallowed (reported as zero events).
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        let n = match self.ep.wait(&mut self.buf, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &self.buf[..n] {
            let bits = { ev.events };
            out.push(PollEvent {
                token: { ev.token },
                // Errors and hangups surface through the read path,
                // where `read` returns the error or EOF.
                readable: bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_read_then_write_readiness() {
        let mut p = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        p.register(b.as_raw_fd(), 42, Interest::Read).unwrap();

        let mut out = Vec::new();
        p.wait(&mut out, 0).unwrap();
        assert!(out.is_empty(), "nothing written yet");

        (&a).write_all(&[1, 2, 3]).unwrap();
        p.wait(&mut out, 1000).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 42);
        assert!(out[0].readable);

        // Level-triggered: unread data keeps reporting readable.
        out.clear();
        p.wait(&mut out, 1000).unwrap();
        assert_eq!(out.len(), 1, "level-triggered re-report");

        let mut sink = [0u8; 8];
        let n = (&b).read(&mut sink).unwrap();
        assert_eq!(n, 3);

        p.reregister(b.as_raw_fd(), 42, Interest::ReadWrite).unwrap();
        out.clear();
        p.wait(&mut out, 1000).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].writable, "buffer space means writable");
        assert!(!out[0].readable, "drained means not readable");

        p.deregister(b.as_raw_fd()).unwrap();
        out.clear();
        p.wait(&mut out, 0).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn hangup_surfaces_as_readable() {
        let mut p = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        p.register(b.as_raw_fd(), 7, Interest::Read).unwrap();
        drop(a);
        let mut out = Vec::new();
        p.wait(&mut out, 1000).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].readable, "peer hangup must wake the read path");
    }
}
