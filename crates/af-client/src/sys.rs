//! The client library's one raw syscall: `ppoll` for `POLLIN` on the
//! connection's socket.  A blocking `read` sleeps on a wait entry that any
//! wake-up of the socket ends — including the one the kernel sends when
//! the server's `read` frees send space — while poll's entry filters on
//! the event.  With no libc binding in the workspace the call is inline
//! assembly, as in af-server's `reactor::sys`, on Linux x86_64 and aarch64.

use std::io;
use std::os::fd::BorrowedFd;
use std::time::Duration;

/// Waits until `fd` can be read without blocking (bytes, end of stream or
/// an error) or `timeout` passes (`None`: without limit); returns whether
/// it can.  A signal does not end the wait.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
pub fn wait_readable(fd: BorrowedFd<'_>, timeout: Option<Duration>) -> io::Result<bool> {
    /// The kernel's `struct pollfd`: descriptor, requested and returned events.
    #[repr(C)]
    struct PollFd(i32, i16, i16);
    /// The kernel's `struct timespec`: seconds and nanoseconds.
    #[repr(C)]
    struct Timespec(i64, i64);
    const POLLIN: i16 = 0x001;
    const EINTR: isize = 4;
    #[cfg(target_arch = "x86_64")]
    const PPOLL: usize = 271;
    #[cfg(target_arch = "aarch64")]
    const PPOLL: usize = 73;

    let mut pfd = PollFd(std::os::fd::AsRawFd::as_raw_fd(&fd), POLLIN, 0);
    let ts = timeout.map(|t| {
        let secs = i64::try_from(t.as_secs()).unwrap_or(i64::MAX);
        Timespec(secs, t.subsec_nanos().into())
    });
    let fds = std::ptr::addr_of_mut!(pfd) as usize;
    let tsp = ts.as_ref().map_or(0, |t| t as *const Timespec as usize);
    loop {
        let ret: isize;
        // SAFETY: ppoll(fds, 1, tsp, NULL, 0): `pfd` is a live stack `pollfd` the kernel
        // reads and writes (`revents`) during the call, `tsp` is null or a live stack
        // `timespec` it only reads, and a null sigmask leaves the mask alone.  Each asm
        // block follows its target's syscall ABI (number and arguments in registers, the
        // result in the first; x86_64's `syscall` clobbers rcx and r11, declared).
        unsafe {
            #[cfg(target_arch = "x86_64")]
            core::arch::asm!(
                "syscall",
                inlateout("rax") PPOLL as isize => ret,
                in("rdi") fds,
                in("rsi") 1usize,
                in("rdx") tsp,
                in("r10") 0usize,
                in("r8") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, preserves_flags)
            );
            #[cfg(target_arch = "aarch64")]
            core::arch::asm!(
                "svc #0",
                in("x8") PPOLL,
                inlateout("x0") fds => ret,
                in("x1") 1usize,
                in("x2") tsp,
                in("x3") 0usize,
                in("x4") 0usize,
                options(nostack, preserves_flags)
            );
        }
        match ret {
            r if r == -EINTR => continue,
            r if r < 0 => return Err(io::Error::from_raw_os_error(-r as i32)),
            r => return Ok(r > 0),
        }
    }
}

/// Elsewhere the wait returns at once, readable unless `timeout` is zero,
/// so the `read` after it blocks as a plain `read` does.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn wait_readable(_fd: BorrowedFd<'_>, timeout: Option<Duration>) -> io::Result<bool> {
    Ok(timeout != Some(Duration::ZERO))
}
