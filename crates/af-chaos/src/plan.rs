//! Fault plans: declarative descriptions of what should go wrong.

use crate::rng::ChaosRng;
use std::time::Duration;

/// The Gilbert–Elliott two-state burst-loss model.
///
/// A Markov chain alternates between a *good* state (rare loss) and a
/// *bad* state (heavy loss).  Unlike independent per-packet drops, this
/// reproduces the bursty losses of congested WAN paths — several
/// consecutive packets vanish, then the path is clean for a while —
/// which is exactly the pattern FEC groups and jitter buffers must
/// absorb.  The chain is stepped once per packet by [`GeState`], driven
/// by the plan's own deterministic RNG so runs reproduce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad after a packet.
    pub p_good_bad: f64,
    /// Probability of moving bad → good after a packet.
    pub p_bad_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A model with explicit transition and loss probabilities.
    pub fn new(p_good_bad: f64, p_bad_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        GilbertElliott {
            p_good_bad: p_good_bad.clamp(0.0, 1.0),
            p_bad_good: p_bad_good.clamp(0.0, 1.0),
            loss_good: loss_good.clamp(0.0, 1.0),
            loss_bad: loss_bad.clamp(0.0, 1.0),
        }
    }

    /// A bursty model hitting a target average loss rate: the bad state
    /// loses everything, lasts `burst_len` packets on average, and the
    /// good state is clean.  `avg_loss` must be in `(0, 1)`.
    pub fn bursty(avg_loss: f64, burst_len: f64) -> Self {
        let avg = avg_loss.clamp(0.001, 0.95);
        let p_bad_good = (1.0 / burst_len.max(1.0)).clamp(0.0, 1.0);
        // Stationary bad-state probability p_gb / (p_gb + p_bg) = avg.
        let p_good_bad = (avg * p_bad_good / (1.0 - avg)).clamp(0.0, 1.0);
        GilbertElliott::new(p_good_bad, p_bad_good, 0.0, 1.0)
    }

    /// The model's stationary average loss rate.
    pub fn avg_loss(&self) -> f64 {
        let denom = self.p_good_bad + self.p_bad_good;
        if denom == 0.0 {
            return self.loss_good; // Chain never leaves the good state.
        }
        let pi_bad = self.p_good_bad / denom;
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// Per-link runtime state of a [`GilbertElliott`] chain.
#[derive(Clone, Copy, Debug, Default)]
pub struct GeState {
    in_bad: bool,
}

impl GeState {
    /// A chain starting in the good state.
    pub fn new() -> GeState {
        GeState::default()
    }

    /// Whether the chain is currently in the bad state.
    pub fn in_bad(&self) -> bool {
        self.in_bad
    }

    /// Advances the chain by one packet; returns `true` if that packet
    /// is lost.  Loss is sampled in the current state, then the state
    /// transition is sampled.
    pub fn step(&mut self, ge: &GilbertElliott, rng: &mut ChaosRng) -> bool {
        let loss_p = if self.in_bad { ge.loss_bad } else { ge.loss_good };
        let lost = loss_p > 0.0 && rng.chance(loss_p);
        let flip_p = if self.in_bad { ge.p_bad_good } else { ge.p_good_bad };
        if flip_p > 0.0 && rng.chance(flip_p) {
            self.in_bad = !self.in_bad;
        }
        lost
    }
}

/// Faults to inject into a byte stream (TCP or Unix-domain connection).
///
/// A plan is inert data; wrap a stream with
/// [`ChaosStream::new`](crate::ChaosStream::new) to apply it.  All
/// probabilities are per read/write operation.  The default plan injects
/// nothing.
#[derive(Clone, Debug)]
pub struct StreamFaultPlan {
    /// Seed for the fault schedule; equal seeds reproduce equal runs.
    pub seed: u64,
    /// Deliver at most this many bytes per read (partial reads).
    pub read_chunk_max: Option<usize>,
    /// Accept at most this many bytes per write (partial writes).
    pub write_chunk_max: Option<usize>,
    /// Probability of sleeping `latency` before an operation.
    pub latency_chance: f64,
    /// Injected delay when `latency_chance` fires.
    pub latency: Duration,
    /// Probability of flipping one random byte of the data moved by an
    /// operation (frame corruption).
    pub corrupt_chance: f64,
    /// Abruptly fail the stream once this many total bytes (reads plus
    /// writes) have crossed it — a half-open connection appearing as a
    /// reset.
    pub cut_after_bytes: Option<u64>,
    /// Probability of an operation failing with `ConnectionReset` outright.
    pub error_chance: f64,
}

impl Default for StreamFaultPlan {
    fn default() -> Self {
        StreamFaultPlan::new(0)
    }
}

impl StreamFaultPlan {
    /// A plan that injects nothing, with the given seed.
    pub fn new(seed: u64) -> StreamFaultPlan {
        StreamFaultPlan {
            seed,
            read_chunk_max: None,
            write_chunk_max: None,
            latency_chance: 0.0,
            latency: Duration::ZERO,
            corrupt_chance: 0.0,
            cut_after_bytes: None,
            error_chance: 0.0,
        }
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Splits reads into chunks of at most `max` bytes.
    pub fn partial_reads(mut self, max: usize) -> Self {
        self.read_chunk_max = Some(max.max(1));
        self
    }

    /// Splits writes into chunks of at most `max` bytes.
    pub fn partial_writes(mut self, max: usize) -> Self {
        self.write_chunk_max = Some(max.max(1));
        self
    }

    /// Sleeps `delay` before an operation with probability `chance`.
    pub fn latency(mut self, chance: f64, delay: Duration) -> Self {
        self.latency_chance = chance;
        self.latency = delay;
        self
    }

    /// Flips one byte of moved data with probability `chance` per op.
    pub fn corruption(mut self, chance: f64) -> Self {
        self.corrupt_chance = chance;
        self
    }

    /// Resets the stream after `bytes` total bytes have crossed it.
    pub fn cut_after(mut self, bytes: u64) -> Self {
        self.cut_after_bytes = Some(bytes);
        self
    }

    /// Fails an operation with `ConnectionReset` with probability `chance`.
    pub fn random_errors(mut self, chance: f64) -> Self {
        self.error_chance = chance;
        self
    }
}

/// Faults to inject into a UDP socket (the LineServer link).
///
/// Send-side faults model a lossy path toward the peer; receive-side
/// faults model losses on the way back.  The default plan injects
/// nothing.
#[derive(Clone, Debug)]
pub struct UdpFaultPlan {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Probability an outbound datagram is silently dropped.
    pub drop_send: f64,
    /// Probability an outbound datagram is sent twice (duplication).
    pub dup_send: f64,
    /// Probability an outbound datagram is held back and released after
    /// the next one (reordering).
    pub reorder_send: f64,
    /// How far a held datagram may be displaced, in subsequent sends
    /// (at least 1).  Up to this many datagrams can be held at once.
    pub reorder_window: usize,
    /// Probability one byte of an outbound datagram is flipped.
    pub corrupt_send: f64,
    /// Probability an inbound datagram is discarded after arrival.
    pub drop_recv: f64,
    /// Probability one byte of an inbound datagram is flipped.
    pub corrupt_recv: f64,
    /// Bursty loss on the send side, applied on top of `drop_send`.
    pub ge_send: Option<GilbertElliott>,
    /// Bursty loss on the receive side, applied on top of `drop_recv`.
    pub ge_recv: Option<GilbertElliott>,
    /// Probability of sleeping `latency` before a send.
    pub latency_chance: f64,
    /// Injected delay when `latency_chance` fires.
    pub latency: Duration,
}

impl Default for UdpFaultPlan {
    fn default() -> Self {
        UdpFaultPlan::new(0)
    }
}

impl UdpFaultPlan {
    /// A plan that injects nothing, with the given seed.
    pub fn new(seed: u64) -> UdpFaultPlan {
        UdpFaultPlan {
            seed,
            drop_send: 0.0,
            dup_send: 0.0,
            reorder_send: 0.0,
            reorder_window: 1,
            corrupt_send: 0.0,
            drop_recv: 0.0,
            corrupt_recv: 0.0,
            ge_send: None,
            ge_recv: None,
            latency_chance: 0.0,
            latency: Duration::ZERO,
        }
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drops outbound datagrams with probability `p`.
    pub fn drop_send(mut self, p: f64) -> Self {
        self.drop_send = p;
        self
    }

    /// Duplicates outbound datagrams with probability `p`.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.dup_send = p;
        self
    }

    /// Reorders outbound datagrams with probability `p`.
    pub fn reorder(mut self, p: f64) -> Self {
        self.reorder_send = p;
        self
    }

    /// Lets reordered datagrams be displaced by up to `window` sends
    /// (default 1, the adjacent swap).
    pub fn reorder_window(mut self, window: usize) -> Self {
        self.reorder_window = window.max(1);
        self
    }

    /// Applies Gilbert–Elliott burst loss to outbound datagrams.
    pub fn burst_send(mut self, ge: GilbertElliott) -> Self {
        self.ge_send = Some(ge);
        self
    }

    /// Applies Gilbert–Elliott burst loss to inbound datagrams.
    pub fn burst_recv(mut self, ge: GilbertElliott) -> Self {
        self.ge_recv = Some(ge);
        self
    }

    /// Corrupts outbound datagrams with probability `p`.
    pub fn corrupt_send(mut self, p: f64) -> Self {
        self.corrupt_send = p;
        self
    }

    /// Discards inbound datagrams with probability `p`.
    pub fn drop_recv(mut self, p: f64) -> Self {
        self.drop_recv = p;
        self
    }

    /// Corrupts inbound datagrams with probability `p`.
    pub fn corrupt_recv(mut self, p: f64) -> Self {
        self.corrupt_recv = p;
        self
    }

    /// Sleeps `delay` before a send with probability `chance`.
    pub fn latency(mut self, chance: f64, delay: Duration) -> Self {
        self.latency_chance = chance;
        self.latency = delay;
        self
    }
}
