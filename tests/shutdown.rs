//! Shutdown with requests in flight (DESIGN.md §9).
//!
//! Request handlers and the task queue run on the one reactor thread, so
//! stopping the server has to reach that thread through its wake pipe,
//! close every connection and join it — while clients keep sending.  This
//! file holds one test and so runs in a process of its own: the census of
//! `af-*` threads it takes is exact.

use audiofile::client::AudioConn;
use audiofile::device::{NullSink, SilenceSource, SystemClock};
use audiofile::server::ServerBuilder;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{assert_no_server_threads, server_threads};

#[test]
fn shutdown_under_a_request_stream_returns_closes_every_connection_and_leaks_no_thread() {
    assert_eq!(server_threads(), Vec::<String>::new());
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        Arc::new(SystemClock::new(8000)),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    // Four clients in closed GetTime loops until their connection dies
    // under them.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let mut conn = AudioConn::open(&addr).unwrap();
            std::thread::spawn(move || {
                let mut round_trips = 0u64;
                while conn.get_time(0).is_ok() {
                    round_trips += 1;
                }
                round_trips
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let running = server_threads();
    assert_eq!(running, ["af-reactor-0"], "the one server thread");

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
    // Every client's loop ends: its next request meets EOF or a reset.
    for client in clients {
        let round_trips = client.join().unwrap();
        assert!(round_trips > 100, "client barely ran: {round_trips}");
    }
    // `shutdown` joined every thread it started.
    assert_no_server_threads();
}
