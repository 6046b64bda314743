//! A server out of descriptors sheds a pending connection instead of
//! spinning.
//!
//! When `accept` fails with `EMFILE` the connection stays in the listen
//! backlog, and the level-triggered poller reports the listener again at
//! once: a reactor that only retried would wake about a million times a
//! second.  This file holds one test and so runs in a process of its own:
//! it exhausts the process's descriptor table, which no other test may
//! share.

use audiofile::client::AudioConn;
use audiofile::device::{NullSink, SilenceSource, SystemClock};
use audiofile::server::stats::Shard;
use audiofile::server::{RunningServer, ServerBuilder};
use std::fs::File;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Hoarding stops here.  A soft `RLIMIT_NOFILE` of 20,000 (a common
/// default) takes well under a second to exhaust; a host whose limit is
/// above this fails the test with a message instead of skipping it.
const HOARD_CAP: usize = 1 << 20;

fn readiness_events(server: &RunningServer) -> u64 {
    server.stats().reactor.get(Shard::ReadinessEvents)
}

#[test]
fn out_of_descriptors_a_pending_connection_is_shed_not_spun_on() {
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        Arc::new(SystemClock::new(8000)),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();
    let addr = server.tcp_addr().unwrap();

    let mut hoard = Vec::new();
    let exhausted = loop {
        match File::open("/dev/null") {
            Ok(file) => hoard.push(file),
            Err(e) => break e,
        }
        assert!(
            hoard.len() < HOARD_CAP,
            "the soft RLIMIT_NOFILE is above {HOARD_CAP}: too high to exhaust \
             here; lower it (`ulimit -Sn 20000`) to run this test"
        );
    };
    assert_eq!(exhausted.raw_os_error(), Some(24), "{exhausted}");
    // One descriptor back, for the client's socket: the server's `accept`
    // then finds none left.
    hoard.pop();
    let client = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let before = readiness_events(&server);
    std::thread::sleep(Duration::from_millis(200));
    let events = readiness_events(&server) - before;
    drop(hoard);
    assert!(
        events < 100,
        "{events} readiness events in 200 ms while out of descriptors"
    );

    drop(client);
    let mut conn = AudioConn::open(&addr.to_string()).unwrap();
    conn.get_time(0).unwrap();
    server.shutdown();
}
