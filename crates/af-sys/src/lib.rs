//! Every raw system call the workspace makes, behind safe wrappers.
//!
//! The workspace carries no libc binding (every external dependency is a
//! vendored shim), so the readiness primitives the server's reactor, the
//! client library and the load harnesses need are raw Linux syscalls
//! issued through inline assembly, one `syscall5` per architecture.  All
//! of that `unsafe` lives in this crate's `sys` module, where every call
//! site states the pointer-validity argument the kernel interface
//! requires; the rest of the workspace forbids `unsafe` outright, except
//! af-dsp's SIMD kernels.
//!
//! - [`Poller`]: a level-triggered `epoll` instance reporting
//!   [`PollEvent`]s per registered [`Interest`] — the reactor's wait
//!   loop, and the harnesses' client loops.
//! - [`wait_readable`]: `ppoll(POLLIN)` on one descriptor — the client
//!   library's wait before each `read`.
//! - [`raise_nofile_limit`]: `prlimit64` — for processes that open
//!   thousands of sockets.
//! - [`process_cpu_time`]: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` —
//!   `report`'s §10.2 CPU-load rows.
//!
//! Supported targets: Linux on x86_64 and on aarch64, the two syscall
//! tables wired.  Elsewhere [`Poller::new`], [`raise_nofile_limit`] and
//! [`process_cpu_time`] fail with `ErrorKind::Unsupported`, and
//! [`wait_readable`] returns at once.

mod poller;
mod sys;

pub use poller::{Interest, PollEvent, Poller, MAX_EVENTS};
pub use sys::{process_cpu_time, raise_nofile_limit, wait_readable};
