//! Deterministic fault injection for AudioFile's I/O boundaries.
//!
//! The paper's server assumes a reliable byte stream and a well-behaved
//! LAN (§5.1, §7.4.3).  At production scale the opposite holds: slow
//! clients, half-open sockets, and dropped UDP packets are the common
//! case.  This crate provides seedable wrappers that make those failures
//! reproducible in tests:
//!
//! * [`ChaosStream`] wraps any `Read + Write` byte stream (a client's
//!   TCP/Unix connection) and injects partial reads and writes, latency,
//!   byte corruption, and abrupt disconnects.
//! * [`FaultProxy`] puts those faults below a real server's socket: a TCP
//!   relay with a `ChaosStream` on both legs, so the server under test
//!   runs the one transport real clients reach.
//! * [`Router`] puts datagram faults between a server and its LineServers:
//!   a multi-hop path with per-hop plans ([`GilbertElliott`] bursts or
//!   independent drop, duplication, corruption), bounded drop-tail
//!   queues, delay + jitter, and NAT-style address rewriting.
//!
//! Faults are drawn from a [`ChaosRng`] — a SplitMix64 generator — so a
//! fixed seed always produces the same fault schedule.  The crate has no
//! dependencies and no global state; every wrapper owns its own stream of
//! randomness.  Both injectors sit between the peers, so the code under
//! test carries no fault hook of its own.

mod plan;
mod proxy;
mod rng;
mod router;
mod stream;

pub use plan::{GeState, GilbertElliott, StreamFaultPlan};
pub use proxy::FaultProxy;
pub use rng::ChaosRng;
pub use router::{HopPlan, HopStats, Router};
pub use stream::ChaosStream;
