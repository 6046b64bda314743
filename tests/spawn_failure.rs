//! A `spawn()` that fails must not leave threads behind.
//!
//! The server starts a thread (the reactor, which also runs the task
//! queue) and binds listeners; when a bind fails the caller gets an `Err`
//! and no handle to stop anything with, so nothing may have started.  A
//! leaked reactor would keep running the update task against the device
//! backends forever.  This file holds one test and so runs in a
//! process of its own: the census of `af-*` threads it takes is exact.

use audiofile::device::{NullSink, SilenceSource, SystemClock};
use audiofile::server::ServerBuilder;
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{assert_no_server_threads, server_threads};

fn codec_builder() -> ServerBuilder {
    let mut builder = ServerBuilder::new().update_interval(Duration::from_millis(10));
    builder.add_codec(
        Arc::new(SystemClock::new(8000)),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    builder
}

#[test]
fn failed_spawn_returns_the_bind_error_and_leaks_no_thread() {
    assert_eq!(server_threads(), Vec::<String>::new());

    // The first listener fails: the address is held by someone else.
    let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let err = codec_builder()
        .listen_tcp(held.local_addr().unwrap())
        .spawn()
        .err()
        .expect("address in use");
    assert_eq!(err.kind(), ErrorKind::AddrInUse);
    assert_no_server_threads();

    // A later listener fails after an earlier one was bound.
    let err = codec_builder()
        .listen_tcp("127.0.0.1:0".parse().unwrap())
        .listen_unix("/nonexistent-directory/af.sock".into())
        .spawn()
        .err()
        .expect("socket path in a missing directory");
    assert_eq!(err.kind(), ErrorKind::NotFound);
    assert_no_server_threads();
}
