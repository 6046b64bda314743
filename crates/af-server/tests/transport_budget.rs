//! The reactor's per-request transport budget, gated without a stopwatch.
//!
//! A closed-loop `GetTime` round trip should cost the server one `read`
//! (the request, whole), one `write` (the reply, made by the request's
//! handler straight on the socket) and no self-pipe wakeup: the reactor
//! thread that framed the request handles it.  The reactor's counters and
//! the server's `inline_events` count exactly those, and in a closed loop
//! over one connection they repeat exactly from run to run — so the
//! syscalls-per-request figures are asserted as counts, not inferred from
//! timings.
//!
//! The data plane is gated the same way: a pipelined 32 KB play (four
//! chunk frames in one `write`, as the client library sends it) is framed
//! where `read` left it — no frame staged, one `read` for nearly every
//! play — and
//! neither it nor an 8 KB record grows the buffer pool once the first op
//! has warmed it.

// An `allow`, not an `expect`: the root package builds this file too,
// under the workspace's `clippy.toml`, which bans none of what it calls.
#![allow(clippy::disallowed_methods, reason = "the test is a client that waits")]

use af_device::{NullSink, SilenceSource, VirtualClock};
use af_dsp::Encoding;
use af_proto::{AcAttributes, AcMask, ByteOrder, ConnSetup, Request};
use af_server::stats::{Server, Shard, Snapshot};
use af_server::{RunningServer, ServerBuilder};
use af_time::ATime;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

const ROUND_TRIPS: u64 = 2_000;

/// A server with one codec on a virtual clock, listening on a Unix
/// socket of its own, and one connection past its setup exchange.
fn serve(name: &str) -> (RunningServer, Arc<VirtualClock>, UnixStream) {
    let dir = std::env::temp_dir().join(format!("af-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.sock"));
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_unix(path.clone());
    builder.add_codec(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();

    let mut sock = UnixStream::connect(&path).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(&ConnSetup::new().encode().unwrap()).unwrap();
    let mut len = [0u8; 4];
    sock.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    sock.read_exact(&mut body).unwrap();
    (server, clock, sock)
}

/// The reactor's counters.  A handler counts its direct write before it
/// returns, and the barrier is answered at the end of a later pass, so
/// after a reply has been read the counters are final.
fn reactor_totals(server: &RunningServer) -> Snapshot<Shard, 15> {
    server.handle().barrier();
    server.stats().reactor.snapshot()
}

#[test]
fn get_time_round_trip_costs_one_read_one_direct_write_and_no_wakeup() {
    let (server, _clock, mut sock) = serve("ping");

    let get_time = Request::GetTime { device: 0 }.encode(ByteOrder::Little);
    for _ in 0..ROUND_TRIPS {
        sock.write_all(&get_time).unwrap();
        // A Time reply is 12 bytes: 8-byte message header + the ticks.
        let mut reply = [0u8; 12];
        sock.read_exact(&mut reply).unwrap();
    }

    let reactor = reactor_totals(&server);
    let [read_calls, frames, replies, direct_writes, queued_writes, wakeups] = [
        Shard::ReadCalls,
        Shard::Frames,
        Shard::Replies,
        Shard::DirectWrites,
        Shard::QueuedWrites,
        Shard::Wakeups,
    ]
    .map(|counter| reactor[counter]);
    let server_counters = &server.stats().server;
    let inline_events = server_counters.get(Server::InlineEvents);
    eprintln!(
        "transport budget: {read_calls} reads / {frames} frames, {direct_writes} direct + \
         {queued_writes} queued / {replies} replies, {wakeups} wakeups, \
         {inline_events} inline events"
    );
    assert_eq!(frames, ROUND_TRIPS);
    assert_eq!(
        replies,
        ROUND_TRIPS + 1,
        "every reply (and the setup reply) counted once"
    );
    assert!(
        read_calls as f64 <= 1.05 * frames as f64,
        "{read_calls} reads for {frames} frames"
    );
    assert!(
        direct_writes as f64 >= 0.99 * replies as f64,
        "only {direct_writes} of {replies} replies written directly"
    );
    // No allowance for the connection's setup: the listener is registered
    // before the reactor thread runs, and the reactor that accepts the
    // connection registers it itself.  The barrier's call is the one
    // wakeup.
    assert!(
        wakeups as f64 <= 0.01 * replies as f64,
        "{wakeups} reactor wakeups for {replies} replies"
    );

    assert!(
        inline_events > ROUND_TRIPS,
        "only {inline_events} events handled inline for {ROUND_TRIPS} requests and a setup"
    );

    drop(sock);
    server.shutdown();
}

const DATA_OPS: u64 = 500;

#[test]
fn pipelined_32k_play_is_framed_in_place_and_takes_one_pooled_buffer() {
    let (server, _clock, mut sock) = serve("play");
    let order = ByteOrder::Little;
    // The benchmark's context: LIN16 on the µ-law codec, mixed at -6 dB.
    let attrs = AcAttributes {
        encoding: Encoding::Lin16,
        play_gain_db: -6,
        ..AcAttributes::default()
    };
    let mut hello = Request::CreateAc {
        id: 1,
        device: 0,
        mask: AcMask::ENCODING | AcMask::PLAY_GAIN,
        attrs,
    }
    .encode(order);
    hello.extend_from_slice(&Request::SyncConnection.encode(order));
    sock.write_all(&hello).unwrap();
    let mut sync_reply = [0u8; 8];
    sock.read_exact(&mut sync_reply).unwrap();

    // Four 8,212-byte chunk frames, 4,096 frames of LIN16 each, the reply
    // suppressed on all but the last; sent in one write.
    let mut frames = Vec::new();
    for chunk in 0..4u32 {
        let flags = if chunk < 3 {
            af_proto::request::play_flags::SUPPRESS_REPLY
        } else {
            0
        };
        let request = Request::PlaySamples {
            ac: 1,
            start_time: ATime::new(1000 + chunk * 4096),
            flags,
            data: (0..8192u32).map(|i| (i * 7 + chunk) as u8).collect(),
        };
        request.encode_into(order, &mut frames);
    }
    assert_eq!(frames.len(), 32_848);

    let play = |sock: &mut UnixStream| {
        sock.write_all(&frames).unwrap();
        let mut reply = [0u8; 12];
        sock.read_exact(&mut reply).unwrap();
    };
    play(&mut sock);
    let before = reactor_totals(&server);
    let warm = before[Shard::PoolAllocs];
    for _ in 0..DATA_OPS {
        play(&mut sock);
    }
    let after = reactor_totals(&server);
    let [frames, staged, reads, direct_writes] = [
        Shard::Frames,
        Shard::StagedFrames,
        Shard::ReadCalls,
        Shard::DirectWrites,
    ]
    .map(|counter| after[counter] - before[counter]);
    eprintln!(
        "32 KB play budget: {reads} reads / {frames} frames, {staged} staged, \
         {warm} pool allocations"
    );
    assert_eq!(frames, 4 * DATA_OPS);
    assert_eq!(staged, 0, "a whole frame went through the staging buffer");
    assert!(
        reads <= DATA_OPS + DATA_OPS / 20,
        "{reads} reads for {DATA_OPS} plays"
    );
    assert_eq!(direct_writes, DATA_OPS);
    assert_eq!(
        after[Shard::PoolAllocs],
        warm,
        "the pool grew after the first play"
    );

    drop(sock);
    server.shutdown();
}

#[test]
fn record_8k_reply_takes_one_pooled_buffer() {
    let (server, clock, mut sock) = serve("record");
    let order = ByteOrder::Little;
    let record = |sock: &mut UnixStream, start: u32, nbytes: u32| {
        let request = Request::RecordSamples {
            ac: 1,
            start_time: ATime::new(start),
            nbytes,
            flags: 0,
        };
        sock.write_all(&request.encode(order)).unwrap();
        // Message header, time, length, then the samples.
        let mut reply = vec![0u8; 16 + nbytes as usize];
        sock.read_exact(&mut reply).unwrap();
        assert_eq!(reply[12..16], nbytes.to_le_bytes());
    };
    let create = Request::CreateAc {
        id: 1,
        device: 0,
        mask: AcMask::default(),
        attrs: AcAttributes::default(),
    };
    sock.write_all(&create.encode(order)).unwrap();
    // An empty record arms the recorder; then four seconds pass.
    record(&mut sock, 0, 0);
    clock.advance(20_000);
    server.handle().run_update();

    record(&mut sock, 10_000, 8192);
    let before = reactor_totals(&server);
    for _ in 0..DATA_OPS {
        record(&mut sock, 10_000, 8192);
    }
    let after = reactor_totals(&server);
    assert_eq!(
        after[Shard::PoolAllocs],
        before[Shard::PoolAllocs],
        "the pool grew after the first record"
    );
    assert_eq!(
        after[Shard::PoolReuses] - before[Shard::PoolReuses],
        DATA_OPS,
        "one pooled buffer per reply"
    );

    drop(sock);
    server.shutdown();
}
