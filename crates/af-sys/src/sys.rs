//! The audited syscall shim: `epoll`, `ppoll`, `prlimit64` and
//! `clock_gettime`.
//!
//! The wrappers return `io::Error` decoded from the kernel's `-errno`
//! convention, and [`EpollFd`] owns its descriptor through [`OwnedFd`] so
//! the close path stays in std.

// The asm blocks pass kernel-ABI scratch registers and pointers into
// caller-owned buffers whose lifetimes span the call; nothing here
// fabricates references or aliases Rust-managed memory.
#![expect(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const EPOLL_CTL: usize = 233;
    pub const PPOLL: usize = 271;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
    pub const PRLIMIT64: usize = 302;
    pub const CLOCK_GETTIME: usize = 228;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const PPOLL: usize = 73;
    pub const CLOCK_GETTIME: usize = 113;
    pub const PRLIMIT64: usize = 261;
}

/// Issues a raw syscall with up to five arguments.
///
/// # Safety
///
/// The caller must uphold the kernel contract for syscall `n`: any
/// argument that the kernel treats as a pointer must reference memory
/// valid (and writable where the call writes) for the duration of the
/// call, with length arguments matching the referenced buffers.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall5(n: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    let ret: isize;
    // SAFETY: the x86_64 Linux syscall ABI takes the number in rax and
    // arguments in rdi/rsi/rdx/r10/r8, returning in rax and clobbering
    // only rcx/r11 (declared below); the caller guarantees pointer args.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

/// Issues a raw syscall with up to five arguments.
///
/// # Safety
///
/// Same contract as the x86_64 variant: pointer arguments must reference
/// memory valid for the duration of the call.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall5(n: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    let ret: isize;
    // SAFETY: the aarch64 Linux syscall ABI takes the number in x8 and
    // arguments in x0..x4, returning in x0; the caller guarantees
    // pointer args.
    unsafe {
        core::arch::asm!(
            "svc #0",
            in("x8") n,
            inlateout("x0") a0 => ret,
            in("x1") a1,
            in("x2") a2,
            in("x3") a3,
            in("x4") a4,
            options(nostack, preserves_flags)
        );
    }
    ret
}

/// Decodes the kernel's `-errno` return convention.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret as usize)
    }
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CLOEXEC: usize = 0x8_0000;
const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

/// The kernel's `struct epoll_event`.
///
/// Packed on x86_64 (the kernel declares it `__attribute__((packed))`
/// there for 32/64-bit compat); naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    /// Readiness bits (`EPOLLIN` | ...).
    pub events: u32,
    /// The caller-chosen token registered with the fd.
    pub token: u64,
}

/// An owned epoll instance.
pub(crate) struct EpollFd(OwnedFd);

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
impl EpollFd {
    /// Creates a close-on-exec epoll instance.
    pub fn create() -> io::Result<EpollFd> {
        // SAFETY: epoll_create1 takes no pointer arguments.
        let fd = check(unsafe { syscall5(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0) })?;
        // SAFETY: the kernel just returned this fd and nothing else owns
        // it, so wrapping it in OwnedFd (which closes on drop) is sound.
        Ok(EpollFd(unsafe { OwnedFd::from_raw_fd(fd as RawFd) }))
    }

    fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent { events, token };
        // SAFETY: `&ev` points at a live stack value for the duration of
        // the call; the kernel copies it and keeps no reference.
        check(unsafe {
            syscall5(
                nr::EPOLL_CTL,
                self.0.as_raw_fd() as usize,
                op,
                fd as usize,
                std::ptr::addr_of!(ev) as usize,
                0,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` for level-triggered readiness with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of a registered fd.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes a registered fd.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events`; `timeout_ms < 0` blocks.
    ///
    /// Returns the number of leading entries filled.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        // SAFETY: `events` is a live, writable slice and `events.len()`
        // bounds how many entries the kernel may fill; the null sigmask
        // (with size 0) makes epoll_pwait behave as epoll_wait.
        check(unsafe {
            syscall5(
                nr::EPOLL_PWAIT,
                self.0.as_raw_fd() as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as isize as usize,
                0,
            )
        })
    }
}

/// The kernel's `struct timespec`: seconds and nanoseconds.
#[repr(C)]
struct Timespec(i64, i64);

#[repr(C)]
struct Rlimit64 {
    rlim_cur: u64,
    rlim_max: u64,
}

const RLIMIT_NOFILE: usize = 7;

/// Raises the process's soft open-file limit to its hard limit.
///
/// Returns the resulting soft limit.  The load harnesses call this before
/// opening thousands of client sockets, and `afd` before serving them.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut cur = Rlimit64 {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: pid 0 targets the calling process; the new-limit pointer is
    // null (read nothing) and `cur` is a live, writable stack value the
    // kernel fills.
    check(unsafe {
        syscall5(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            0,
            std::ptr::addr_of_mut!(cur) as usize,
            0,
        )
    })?;
    if cur.rlim_cur >= cur.rlim_max {
        return Ok(cur.rlim_cur);
    }
    let raised = Rlimit64 {
        rlim_cur: cur.rlim_max,
        rlim_max: cur.rlim_max,
    };
    // SAFETY: both pointers reference live stack values for the duration
    // of the call; the kernel reads `raised` and writes `cur`.
    check(unsafe {
        syscall5(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            std::ptr::addr_of!(raised) as usize,
            std::ptr::addr_of_mut!(cur) as usize,
            0,
        )
    })?;
    Ok(raised.rlim_cur)
}

/// Waits until `fd` can be read without blocking (bytes, end of stream or
/// an error) or `timeout` passes (`None`: without limit); returns whether
/// it can.  A signal does not end the wait, nor stretch it.
///
/// A blocking `read` sleeps on a wait entry that any wake-up of the socket
/// ends — including the one the kernel sends when the peer's `read` frees
/// send space — while poll's entry filters on the event.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn wait_readable(fd: BorrowedFd<'_>, timeout: Option<Duration>) -> io::Result<bool> {
    /// The kernel's `struct pollfd`: descriptor, requested and returned events.
    #[repr(C)]
    struct PollFd(i32, i16, i16);
    const POLLIN: i16 = 0x001;
    const EINTR: isize = 4;

    let mut pfd = PollFd(fd.as_raw_fd(), POLLIN, 0);
    let mut ts = timeout.map(|t| {
        let secs = i64::try_from(t.as_secs()).unwrap_or(i64::MAX);
        Timespec(secs, t.subsec_nanos().into())
    });
    let fds = std::ptr::addr_of_mut!(pfd) as usize;
    let tsp = ts.as_mut().map_or(0, |t| std::ptr::addr_of_mut!(*t) as usize);
    loop {
        // SAFETY: ppoll(fds, 1, tsp, NULL, 0): `pfd` is a live stack `pollfd` the kernel reads
        // and writes (`revents`); `tsp` is null or a live stack `timespec` the kernel reads and
        // then writes the time left back into (`poll_select_finish`), which keeps a retry after
        // `EINTR` to the first deadline; a null sigmask leaves the mask alone.
        match unsafe { syscall5(nr::PPOLL, fds, 1, tsp, 0, 0) } {
            r if r == -EINTR => continue,
            r => return check(r).map(|ready| ready > 0),
        }
    }
}

/// The CPU time the calling process has used, user and system, summed
/// over all its threads: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, to the
/// nanosecond of the scheduler's own accounting.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn process_cpu_time() -> io::Result<Duration> {
    const CLOCK_PROCESS_CPUTIME_ID: usize = 2;
    let mut ts = Timespec(0, 0);
    // SAFETY: `ts` is a live, writable stack `timespec` for the duration of
    // the call; the kernel writes it and keeps no reference.
    check(unsafe {
        syscall5(
            nr::CLOCK_GETTIME,
            CLOCK_PROCESS_CPUTIME_ID,
            std::ptr::addr_of_mut!(ts) as usize,
            0,
            0,
            0,
        )
    })?;
    Ok(Duration::new(ts.0 as u64, ts.1 as u32))
}

// Unsupported-target stubs keep the crate compiling everywhere: the
// epoll instance, the limit raise and the CPU clock fail, so the rest are
// never reached at runtime, and the wait returns at once, readable unless
// `timeout` is zero, so the `read` after it blocks as a plain `read` does.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod stubs {
    use super::*;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "raw syscalls unavailable on this target",
        ))
    }

    impl EpollFd {
        pub fn create() -> io::Result<EpollFd> {
            unsupported()
        }

        pub fn add(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
            unsupported()
        }

        pub fn modify(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
            unsupported()
        }

        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }

        pub fn wait(&self, _events: &mut [EpollEvent], _timeout_ms: i32) -> io::Result<usize> {
            unsupported()
        }
    }

    /// Unsupported on this target.
    pub fn raise_nofile_limit() -> io::Result<u64> {
        unsupported()
    }

    /// Unsupported on this target.
    pub fn process_cpu_time() -> io::Result<Duration> {
        unsupported()
    }

    /// Returns at once: readable unless `timeout` is zero.
    pub fn wait_readable(_fd: BorrowedFd<'_>, timeout: Option<Duration>) -> io::Result<bool> {
        Ok(timeout != Some(Duration::ZERO))
    }
}
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub use stubs::{process_cpu_time, raise_nofile_limit, wait_readable};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn epoll_reports_readable_with_registered_token() {
        let ep = EpollFd::create().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 0x5151).unwrap();

        let mut events = [EpollEvent::default(); 4];
        // Nothing written yet: a zero timeout returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        (&a).write_all(&[9]).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.token }, 0x5151);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        // Modify to write interest: a socket with buffer space is writable.
        ep.modify(b.as_raw_fd(), EPOLLOUT, 7).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!({ events[0].events } & EPOLLOUT, 0);

        ep.delete(b.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn nofile_limit_raises_to_hard_cap() {
        let cur = raise_nofile_limit().unwrap();
        assert!(cur >= 1024, "soft limit unexpectedly tiny: {cur}");
        // Idempotent: a second raise reports the same ceiling.
        assert_eq!(raise_nofile_limit().unwrap(), cur);
    }

    #[test]
    fn process_cpu_time_counts_a_5_ms_spin_to_the_millisecond() {
        // A tick-counting clock reads 0 or 10 ms here.  Three tries: a
        // spin the scheduler preempts burns less than its wall time.
        let spin = || {
            let before = process_cpu_time().unwrap();
            let started = Instant::now();
            while started.elapsed() < Duration::from_millis(5) {
                std::hint::spin_loop();
            }
            process_cpu_time().unwrap() - before
        };
        let readings: Vec<Duration> = (0..3).map(|_| spin()).collect();
        let in_range = |d: &Duration| (4..=50).contains(&d.as_millis());
        assert!(readings.iter().any(in_range), "{readings:?}");
    }

    #[test]
    fn wait_readable_times_out_then_sees_bytes_and_end_of_stream() {
        let (a, b) = UnixStream::pair().unwrap();
        let started = Instant::now();
        assert!(!wait_readable(b.as_fd(), Some(Duration::from_millis(20))).unwrap());
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert!(!wait_readable(b.as_fd(), Some(Duration::ZERO)).unwrap());
        (&a).write_all(&[1]).unwrap();
        assert!(wait_readable(b.as_fd(), None).unwrap());
        assert_eq!((&b).read(&mut [0u8; 4]).unwrap(), 1);
        assert!(!wait_readable(b.as_fd(), Some(Duration::ZERO)).unwrap());
        drop(a);
        assert!(wait_readable(b.as_fd(), Some(Duration::ZERO)).unwrap());
    }
}
