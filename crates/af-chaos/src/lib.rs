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
//! * [`ChaosUdp`] wraps a `UdpSocket` (the LineServer link) and injects
//!   packet drop (independent or [`GilbertElliott`] bursts), duplication,
//!   windowed reordering, and corruption.
//! * [`Router`] simulates a whole multi-hop WAN path between a server
//!   and its LineServers: per-hop fault plans, bounded drop-tail queues,
//!   delay + jitter, and NAT-style address rewriting.
//!
//! Faults are drawn from a [`ChaosRng`] — a SplitMix64 generator — so a
//! fixed seed always produces the same fault schedule.  The crate has no
//! dependencies and no global state; every wrapper owns its own stream of
//! randomness.

#![forbid(unsafe_code)]
mod plan;
mod proxy;
mod rng;
mod router;
mod stream;
mod udp;

pub use plan::{GeState, GilbertElliott, StreamFaultPlan, UdpFaultPlan};
pub use proxy::FaultProxy;
pub use rng::ChaosRng;
pub use router::{HopPlan, HopStats, Router};
pub use stream::ChaosStream;
pub use udp::ChaosUdp;
