//! The reactor's per-request transport budget, gated without a stopwatch.
//!
//! A closed-loop `GetTime` round trip should cost the server one `read`
//! (the request, whole), one `write` (the reply, made by the request's
//! handler straight on the socket), no self-pipe wakeup and no thread hop:
//! the shard that framed the request handles it, under the dispatch lock,
//! and a `GetTime` gives it no reason to wake the task thread.
//! The shard counters and the server's `inline_events`/`task_nudges`
//! count exactly those, and in a closed loop over one connection they
//! repeat exactly from run to run — so the syscalls- and hops-per-request
//! figures are asserted as counts, not inferred from timings.

use af_device::{NullSink, SilenceSource, VirtualClock};
use af_proto::{ByteOrder, ConnSetup, Request};
use af_server::{ServerBuilder, ServerStats};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

const ROUND_TRIPS: u64 = 2_000;

/// Wakeups a connection's life may cost outside the request loop: the
/// listener's registration, the accept hand-off to another shard, and the
/// setup reply if it raced the shard's registration of the connection.
const SETUP_WAKEUPS: f64 = 8.0;

#[test]
fn get_time_round_trip_costs_one_read_one_direct_write_and_no_wakeup() {
    let dir = std::env::temp_dir().join(format!("af-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("budget.sock");
    let mut builder = ServerBuilder::new().listen_unix(path.clone());
    builder.add_codec(
        Arc::new(VirtualClock::new(8000)),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();

    let mut sock = UnixStream::connect(&path).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(&ConnSetup::new().encode()).unwrap();
    let mut len = [0u8; 4];
    sock.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    sock.read_exact(&mut body).unwrap();

    let get_time = Request::GetTime { device: 0 }.encode(ByteOrder::Little);
    for _ in 0..ROUND_TRIPS {
        sock.write_all(&get_time).unwrap();
        // A Time reply is 12 bytes: 8-byte message header + the ticks.
        let mut reply = [0u8; 12];
        sock.read_exact(&mut reply).unwrap();
    }

    // A handler counts its direct write and itself before it releases the
    // dispatch lock; the barrier takes that lock, so the counters below
    // are final.
    server.handle().barrier();
    let (mut read_calls, mut frames, mut replies) = (0u64, 0u64, 0u64);
    let (mut direct_writes, mut queued_writes, mut wakeups) = (0u64, 0u64, 0u64);
    for shard in server.stats().reactor_snapshots() {
        read_calls += shard.read_calls;
        frames += shard.frames;
        replies += shard.replies;
        direct_writes += shard.direct_writes;
        queued_writes += shard.queued_writes;
        wakeups += shard.wakeups;
    }
    let stats = server.stats();
    let inline_events = ServerStats::get(&stats.inline_events);
    let task_nudges = ServerStats::get(&stats.task_nudges);
    eprintln!(
        "transport budget: {read_calls} reads / {frames} frames, {direct_writes} direct + \
         {queued_writes} queued / {replies} replies, {wakeups} wakeups, \
         {inline_events} inline events, {task_nudges} task-thread nudges"
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
    assert!(
        wakeups as f64 <= 0.01 * replies as f64 + SETUP_WAKEUPS,
        "{wakeups} shard wakeups for {replies} replies"
    );

    assert!(
        inline_events > ROUND_TRIPS,
        "only {inline_events} events handled inline for {ROUND_TRIPS} requests and a setup"
    );
    assert!(
        task_nudges as f64 <= 0.01 * ROUND_TRIPS as f64,
        "{task_nudges} thread hops for {ROUND_TRIPS} requests"
    );

    drop(sock);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
