//! The AudioFile server.
//!
//! The server mediates access to audio devices and exports the
//! device-independent protocol to clients (§7).  Its organization follows
//! the paper's: a device-independent section (connection management,
//! dispatch, tasks, properties, events — [`dispatch`], [`state`],
//! [`task`]), a device-dependent section behind [`backend::HwBackend`] and
//! [`buffer::DeviceBuffers`], and an OS section ([`reactor`]) that turns
//! sockets into a request stream.
//!
//! Concurrency model: the paper's server is a single-threaded process
//! multiplexed by `select()`.  The Rust equivalent keeps **all server state
//! behind one dispatch lock**.  The [`reactor`] registers every nonblocking
//! socket with one readiness-driven thread (raw `epoll` — the modern form
//! of the paper's `select()` loop), scaling to tens of thousands of
//! connections; it runs the handler of each request it frames under the
//! lock and writes the reply, one thread deep.  A slow
//! client overflows its bounded outbound deque and is evicted — preserving
//! the paper's fairness and "no rocket science" properties.  There is one
//! configuration: no alternate transport and no separate audio threads
//! (DESIGN.md §9.1 says why).
//!
//! `unsafe` is forbidden (the workspace lint table): the reactor's raw
//! syscalls (`epoll`) are `af_sys`'s safe wrappers.

// One flow of control (§7.3.1): a panic on a request path kills every
// client, so production code returns an error or degrades instead.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod backend;
pub mod broadcast;
pub mod buffer;
pub mod builder;
pub mod dispatch;
pub mod pool;
pub mod reactor;
pub mod state;
pub mod task;

pub use af_device::stats;
pub use broadcast::{BroadcastBus, BroadcastConfig, BROADCAST_CHUNK_FRAMES, BROADCAST_RING_CHUNKS};
pub use buffer::{DeviceBuffers, PlayOutcome};
pub use builder::{RunningServer, ServerBuilder, ServerHandle};
pub use pool::{BufferPool, PooledBuf};
pub use reactor::{OutboundTx, Reactor, OUTBOUND_QUEUE_CAPACITY};
pub use state::ServerStats;

/// The paper's `MSUPDATE`: the update task period, in milliseconds.
pub const MSUPDATE: u64 = 100;
