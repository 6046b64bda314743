//! Typed counter families: one counters type for every stats family.
//!
//! A family is a fieldless enum, declared with `family!`, whose variants
//! are its counters and whose [`Family::NAMES`] give their snake_case
//! names in index order.  [`Counters`] holds a family's relaxed atomics
//! inline, so a bump is one atomic op at a constant offset; [`Snapshot`]
//! is a plain copy that readers index by variant, add across instances
//! (one per LineServer link, say) and walk generically as `(name, value)`
//! pairs.  Every counter is a statistic that publishes no other data,
//! hence `Relaxed` throughout.

use std::fmt;
use std::iter::Sum;
use std::marker::PhantomData;
use std::ops::{Add, Index};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A set of named counters: a `Copy` enum whose variants index them.
pub trait Family: Copy + 'static {
    /// The counters' snake_case names, in index order.
    const NAMES: &'static [&'static str];
    /// This counter's index into [`Family::NAMES`].
    fn index(self) -> usize;
}

/// A family's `N` counters: relaxed atomics, inline, indexed by variant.
pub struct Counters<F, const N: usize> {
    values: [AtomicU64; N],
    family: PhantomData<F>,
}

impl<F: Family, const N: usize> Default for Counters<F, N> {
    fn default() -> Self {
        const { assert!(F::NAMES.len() == N, "N must be the family's counter count") };
        Counters {
            values: [const { AtomicU64::new(0) }; N],
            family: PhantomData,
        }
    }
}

impl<F: Family, const N: usize> Counters<F, N> {
    /// Adds `n` to `counter`.
    pub fn add(&self, counter: F, n: u64) {
        self.values[counter.index()].fetch_add(n, Relaxed);
    }

    /// Subtracts `n` from `counter` (a gauge going down).
    pub fn sub(&self, counter: F, n: u64) {
        self.values[counter.index()].fetch_sub(n, Relaxed);
    }

    /// Sets `counter` (a gauge) to `value`.
    pub fn set(&self, counter: F, value: u64) {
        self.values[counter.index()].store(value, Relaxed);
    }

    /// Lowers `counter` to `value` if it is smaller, or if nothing has been
    /// recorded yet: the counter reads 0 until the first value, and the
    /// minimum of every nonzero value after.
    pub fn record_min(&self, counter: F, value: u64) {
        let _ = self.values[counter.index()].fetch_update(Relaxed, Relaxed, |min| {
            (min == 0 || value < min).then_some(value)
        });
    }

    /// Reads `counter`.
    pub fn get(&self, counter: F) -> u64 {
        self.values[counter.index()].load(Relaxed)
    }

    /// Copies every counter out.
    pub fn snapshot(&self) -> Snapshot<F, N> {
        Snapshot {
            values: std::array::from_fn(|i| self.values[i].load(Relaxed)),
            family: PhantomData,
        }
    }
}

/// A point-in-time copy of a family's counters.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Snapshot<F, const N: usize> {
    values: [u64; N],
    family: PhantomData<F>,
}

impl<F: Family, const N: usize> Snapshot<F, N> {
    /// Every counter as `(name, value)`, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        F::NAMES.iter().copied().zip(self.values)
    }
}

impl<F, const N: usize> Default for Snapshot<F, N> {
    fn default() -> Self {
        Snapshot {
            values: [0; N],
            family: PhantomData,
        }
    }
}

impl<F: Family, const N: usize> Index<F> for Snapshot<F, N> {
    type Output = u64;

    fn index(&self, counter: F) -> &u64 {
        &self.values[counter.index()]
    }
}

impl<F, const N: usize> Add for Snapshot<F, N> {
    type Output = Self;

    fn add(mut self, other: Self) -> Self {
        for (sum, v) in self.values.iter_mut().zip(other.values) {
            *sum += v;
        }
        self
    }
}

impl<F, const N: usize> Sum for Snapshot<F, N> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), Add::add)
    }
}

impl<F: Family, const N: usize> fmt::Debug for Snapshot<F, N> {
    /// `name=value` pairs, space-separated.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

/// Declares a counter family: the enum, one documented variant per
/// counter with its snake_case name, and the [`Family`] impl.
macro_rules! family {
    ($(#[$doc:meta])* pub enum $family:ident {
        $($(#[$counter_doc:meta])* $counter:ident => $name:literal,)*
    }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $family {
            $($(#[$counter_doc])* $counter,)*
        }

        impl Family for $family {
            const NAMES: &'static [&'static str] = &[$($name),*];

            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

family! {
    /// Server-wide connection and dispatch counters.  All are monotonic
    /// except the `clients_current` gauge.
    pub enum Server {
        /// Clients currently connected (gauge).
        ClientsCurrent => "clients_current",
        /// Connections accepted over the server's lifetime.
        ClientsTotal => "clients_total",
        /// Clients evicted because their outbound queue overflowed.
        EvictedSlow => "evicted_slow",
        /// Connections dropped for malformed or oversized framing.
        ProtocolErrors => "protocol_errors",
        /// Connections that ended for any reason.
        Disconnects => "disconnects",
        /// Transport events and requests the dispatcher handled, each on
        /// the reactor thread that framed it.
        InlineEvents => "inline_events",
    }
}

family! {
    /// The reactor's transport counters.
    pub enum Shard {
        /// Registered fds owned right now (gauge): the self-pipe, listeners
        /// and connections.
        FdCount => "fd_count",
        /// Readiness events processed.
        ReadinessEvents => "readiness_events",
        /// Self-pipe wakeups handled.
        Wakeups => "wakeups",
        /// Reads that advanced a frame without completing it.
        PartialReads => "partial_reads",
        /// `read` calls issued on connection sockets (including ones that
        /// found nothing).
        ReadCalls => "read_calls",
        /// Complete request frames delivered to the dispatcher.
        Frames => "frames",
        /// Of those, the ones that did not arrive whole in one `read` and
        /// were put together in a pooled staging buffer first.
        StagedFrames => "staged_frames",
        /// Outbound messages fully written to sockets.
        Replies => "replies",
        /// Outbound messages a producer wrote whole, straight to the socket.
        DirectWrites => "direct_writes",
        /// Outbound messages handed to the reactor (queued, or the remainder
        /// of a short direct write).
        QueuedWrites => "queued_writes",
        /// Connections the reactor registered.
        Accepted => "accepted",
        /// Connections the reactor closed (any reason, shutdown included).
        Closed => "closed",
        /// Forced kicks (dispatcher evictions, stalled broadcast listeners)
        /// landed on the reactor's connections.
        Evictions => "evictions",
        /// Buffers the reactor's pool handed out that missed its free list
        /// (fresh allocations).
        PoolAllocs => "pool_allocs",
        /// Buffers the reactor's pool handed out from its free list.
        PoolReuses => "pool_reuses",
    }
}

family! {
    /// One broadcast bus's fan-out counters.  The six `lag_*` counters are
    /// a histogram of how far behind the live edge a listener's cursor was
    /// at each chunk fetch, bucketed by [`lag_bucket`].
    pub enum Bus {
        /// Currently streaming listeners (gauge).
        Listeners => "listeners",
        /// Listeners ever accepted.
        ListenersTotal => "listeners_total",
        /// Chunks sealed by the producer.
        ChunksSealed => "chunks_sealed",
        /// Payload bytes encoded (once each, regardless of listener count).
        EncodedBytes => "encoded_bytes",
        /// Cycles spent sealing chunks (gain/copy/framing — the encode-once
        /// cost the fan-out curve proves flat).
        EncodeCycles => "encode_cycles",
        /// Cheapest single chunk seal observed (0 until one lands).  The
        /// mean above absorbs cache/scheduler interference from the
        /// concurrently-writing listener plane; the minimum isolates the
        /// render work itself, which must not grow with the audience.
        EncodeCyclesMin => "encode_cycles_min",
        /// Wire bytes actually written to listener sockets.
        BytesFannedOut => "bytes_fanned_out",
        /// Cursor skip-aheads to the live edge (slow listeners recovering).
        SkipAheads => "skip_aheads",
        /// Listeners evicted for stalling.
        Evictions => "evictions",
        /// Fetches at the live edge.
        Lag0 => "lag_0",
        /// Fetches one chunk behind.
        Lag1 => "lag_1",
        /// Fetches 2–3 chunks behind.
        Lag2To3 => "lag_2_3",
        /// Fetches 4–7 chunks behind.
        Lag4To7 => "lag_4_7",
        /// Fetches 8–15 chunks behind.
        Lag8To15 => "lag_8_15",
        /// Fetches 16 or more chunks behind.
        Lag16Plus => "lag_16_plus",
    }
}

/// The lag counter a fetch `lag` chunks behind the live edge counts in:
/// `0, 1, 2–3, 4–7, 8–15, 16+`.
pub fn lag_bucket(lag: u64) -> Bus {
    match lag {
        0 => Bus::Lag0,
        1 => Bus::Lag1,
        2..=3 => Bus::Lag2To3,
        4..=7 => Bus::Lag4To7,
        8..=15 => Bus::Lag8To15,
        _ => Bus::Lag16Plus,
    }
}

family! {
    /// One LineServer link's health counters, written by its backend and
    /// jitter buffer.  All are monotonic except the two `*depth` gauges.
    pub enum Link {
        /// Samples concealed (repeated/faded or silenced) at playout time.
        Conceals => "conceals",
        /// Inserts that arrived out of order and were slotted into place.
        Reorders => "reorders",
        /// Samples that arrived after their playout time had already passed.
        LateDrops => "late_drops",
        /// Data packets reconstructed from FEC parity.
        FecRecovered => "fec_recovered",
        /// Data packets lost beyond FEC recovery.
        FecUnrecoverable => "fec_unrecoverable",
        /// Datagrams dropped by CRC / frame validation.
        CrcDrops => "crc_drops",
        /// Control-path retransmissions performed by the link.
        Retransmits => "retransmits",
        /// Times the link was declared down after retry exhaustion.
        LinkDowns => "link_downs",
        /// Current playout depth in ticks (gauge).
        Depth => "depth",
        /// Adaptive target depth in ticks (gauge).
        TargetDepth => "target_depth",
    }
}

/// The server's counters.
pub type ServerCounters = Counters<Server, 6>;
/// The reactor's counters.
pub type ShardCounters = Counters<Shard, 15>;
/// A broadcast bus's counters.
pub type BusCounters = Counters<Bus, 15>;
/// A LineServer link's counters.
pub type LinkCounters = Counters<Link, 10>;

#[cfg(test)]
mod tests {
    use super::*;

    /// `F`'s names are `want`, in order (one string, space-separated),
    /// each once and in snake_case, and `N` of them.
    fn assert_names<F: Family, const N: usize>(want: &str) {
        let _ = Counters::<F, N>::default(); // Fails to compile unless N fits.
        assert_eq!(F::NAMES.join(" "), want);
        for (i, name) in F::NAMES.iter().enumerate() {
            let word = |w: &str| {
                !w.is_empty() && w.bytes().all(|c| matches!(c, b'a'..=b'z' | b'0'..=b'9'))
            };
            let snake =
                name.split('_').all(word) && name.starts_with(|c: char| c.is_ascii_lowercase());
            assert!(snake, "{name}");
            assert!(!F::NAMES[..i].contains(name), "{name} twice");
        }
    }

    #[test]
    fn every_family_names_its_counters_once_in_snake_case() {
        assert_names::<Server, 6>(
            "clients_current clients_total evicted_slow protocol_errors \
             disconnects inline_events",
        );
        assert_names::<Shard, 15>(
            "fd_count readiness_events wakeups partial_reads read_calls frames staged_frames \
             replies direct_writes queued_writes accepted closed evictions pool_allocs \
             pool_reuses",
        );
        assert_names::<Bus, 15>(
            "listeners listeners_total chunks_sealed encoded_bytes encode_cycles \
             encode_cycles_min bytes_fanned_out skip_aheads evictions \
             lag_0 lag_1 lag_2_3 lag_4_7 lag_8_15 lag_16_plus",
        );
        assert_names::<Link, 10>(
            "conceals reorders late_drops fec_recovered fec_unrecoverable crc_drops \
             retransmits link_downs depth target_depth",
        );
    }

    #[test]
    fn counters_add_sub_set_and_snapshot_by_variant() {
        let c = ShardCounters::default();
        c.add(Shard::Frames, 3);
        c.add(Shard::FdCount, 2);
        c.sub(Shard::FdCount, 1);
        c.set(Shard::Replies, 7);
        let s = c.snapshot();
        assert_eq!(
            (s[Shard::Frames], s[Shard::FdCount], s[Shard::Replies]),
            (3, 1, 7)
        );
        assert_eq!(c.get(Shard::Frames), 3);
        assert_eq!(s.iter().nth(5), Some(("frames", 3)));
        assert_eq!(s.iter().map(|(_, v)| v).sum::<u64>(), 11);
        let debug = format!("{s:?}");
        assert!(
            debug.starts_with("fd_count=1 readiness_events=0 "),
            "{debug}"
        );
        assert!(debug.ends_with(" pool_reuses=0"), "{debug}");
    }

    #[test]
    fn record_min_reads_zero_until_the_first_value_then_the_minimum() {
        let c = BusCounters::default();
        assert_eq!(c.get(Bus::EncodeCyclesMin), 0);
        c.record_min(Bus::EncodeCyclesMin, 900);
        assert_eq!(c.get(Bus::EncodeCyclesMin), 900);
        c.record_min(Bus::EncodeCyclesMin, 1200);
        c.record_min(Bus::EncodeCyclesMin, 400);
        c.record_min(Bus::EncodeCyclesMin, 650);
        assert_eq!(c.get(Bus::EncodeCyclesMin), 400);
    }

    #[test]
    fn snapshots_add_counter_by_counter() {
        let (a, b) = (LinkCounters::default(), LinkCounters::default());
        a.add(Link::Conceals, 5);
        a.set(Link::Depth, 64);
        b.add(Link::Conceals, 2);
        b.add(Link::FecRecovered, 9);
        let sum = a.snapshot() + b.snapshot();
        assert_eq!(sum[Link::Conceals], 7);
        assert_eq!(sum[Link::FecRecovered], 9);
        assert_eq!(sum[Link::Depth], 64);
        assert_eq!(sum[Link::Reorders], 0);
        let summed: Snapshot<Link, 10> =
            [a.snapshot(), b.snapshot(), b.snapshot()].into_iter().sum();
        assert_eq!(summed[Link::Conceals], 9);
        assert_eq!(summed[Link::FecRecovered], 18);
    }

    #[test]
    fn lag_buckets_are_the_six_lag_counters() {
        let cases = [
            (0, Bus::Lag0),
            (1, Bus::Lag1),
            (2, Bus::Lag2To3),
            (3, Bus::Lag2To3),
            (4, Bus::Lag4To7),
            (7, Bus::Lag4To7),
            (8, Bus::Lag8To15),
            (15, Bus::Lag8To15),
            (16, Bus::Lag16Plus),
            (u64::MAX, Bus::Lag16Plus),
        ];
        for (lag, bucket) in cases {
            assert_eq!(lag_bucket(lag), bucket, "lag {lag}");
        }
    }
}
