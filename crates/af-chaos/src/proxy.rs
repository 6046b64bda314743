//! A fault proxy: a real TCP hop with a [`ChaosStream`] on each leg.

use crate::plan::StreamFaultPlan;
use crate::rng::ChaosRng;
use crate::stream::ChaosStream;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// A seeded TCP proxy that injects a [`StreamFaultPlan`] between clients
/// and a real server, below both sockets.
///
/// Every connection accepted on [`FaultProxy::addr`] is relayed to the
/// target by two pump threads, one per direction, reading one leg and
/// writing the other through `ChaosStream`s.  All four halves share one
/// fault state ([`ChaosStream::fork`]: one byte budget, one cut), seeded
/// from the plan's seed forked by the connection's accept index, so
/// connection `n` sees the same fault schedule on every run.  The server
/// behind the proxy runs exactly the transport a real client reaches.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listens on an ephemeral loopback port and relays to `target`.
    pub fn spawn(target: SocketAddr, plan: StreamFaultPlan) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let accept = thread::Builder::new()
            .name("chaos-proxy".into())
            .spawn(move || {
                for (index, client) in listener.incoming().enumerate() {
                    if stopped.load(Ordering::Acquire) {
                        break;
                    }
                    let mut plan = plan.clone();
                    plan.seed = ChaosRng::new(plan.seed).fork(index as u64).next_u64();
                    // A connection that cannot be relayed is dropped: its
                    // client sees the connection close.
                    let _ = client.and_then(|c| relay(c, TcpStream::connect(target)?, plan));
                }
            })?;
        Ok(FaultProxy {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address clients connect to instead of the target's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FaultProxy {
    /// Stops accepting and joins the accept loop; connections already
    /// relayed run until one of their ends closes.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The connection wakes the accept loop to see the flag; without
        // it the loop would never return.
        if TcpStream::connect(self.addr).is_ok() {
            let _ = self.accept.take().map(JoinHandle::join);
        }
    }
}

/// Starts the two pumps of one proxied connection.
fn relay(client: TcpStream, server: TcpStream, plan: StreamFaultPlan) -> io::Result<()> {
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let up = ChaosStream::new(client.try_clone()?, plan);
    let to_server = up.fork(server.try_clone()?);
    let down = up.fork(server);
    let to_client = up.fork(client);
    for (from, to) in [(up, to_server), (down, to_client)] {
        thread::Builder::new()
            .name("chaos-pump".into())
            .spawn(move || pump(from, to))?;
    }
    Ok(())
}

/// Copies `from` to `to` until `from` ends or either fails, then shuts
/// both sockets down, which ends the opposite pump too.  The buffer size
/// is part of what `bench`'s wire rows measure: a 64 KB play with its
/// headers crosses in two reads, each paying a latency plan's delays.
fn pump(mut from: ChaosStream<TcpStream>, mut to: ChaosStream<TcpStream>) {
    let mut buf = vec![0u8; 64 * 1024];
    while let Ok(n @ 1..) = from.read(&mut buf) {
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.get_ref().shutdown(Shutdown::Both);
    let _ = to.get_ref().shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// A server that echoes every connection's bytes back.
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for conn in listener.incoming().flatten() {
                let mut reader = conn.try_clone().unwrap();
                thread::spawn(move || io::copy(&mut reader, &mut &conn));
            }
        });
        addr
    }

    /// Mean seconds per 16-byte echo round trip to `addr`.
    fn round_trip(addr: SocketAddr) -> f64 {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        let mut back = [0u8; 16];
        let started = Instant::now();
        for i in 0..20u8 {
            sock.write_all(&[i; 16]).unwrap();
            sock.read_exact(&mut back).unwrap();
            assert_eq!(back, [i; 16]);
        }
        started.elapsed().as_secs_f64() / 20.0
    }

    #[test]
    fn latency_plan_delays_each_direction() {
        let echo = echo_server();
        let plan = StreamFaultPlan::new(1).latency(1.0, Duration::from_millis(2));
        let proxy = FaultProxy::spawn(echo, plan).unwrap();
        let (direct, proxied) = (round_trip(echo), round_trip(proxy.addr()));
        // 2 ms each way: at least 4 ms more per round trip.
        assert!(
            proxied > direct + 0.003,
            "proxy adds no latency: direct {direct:.6} s, proxied {proxied:.6} s"
        );
    }

    #[test]
    fn chunked_legs_relay_every_byte_in_order_and_a_cut_ends_the_connection() {
        let echo = echo_server();
        let plan = StreamFaultPlan::new(2).partial_reads(3).partial_writes(5);
        let proxy = FaultProxy::spawn(echo, plan.clone()).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i * 7 + i / 256) as u8).collect();
        let mut sock = TcpStream::connect(proxy.addr()).unwrap();
        sock.write_all(&data).unwrap();
        let mut back = vec![0u8; data.len()];
        sock.read_exact(&mut back).unwrap();
        assert!(back == data, "relayed bytes differ");

        // One byte budget for all four halves, where a relayed byte counts
        // once per leg: the first kilobyte spends it, and then the
        // connection is closed, not left hanging.
        let proxy = FaultProxy::spawn(echo, plan.cut_after(2000)).unwrap();
        let mut sock = TcpStream::connect(proxy.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = Instant::now();
        let _ = sock.write_all(&data);
        let mut total = 0;
        while let Ok(n @ 1..) = sock.read(&mut back) {
            total += n;
        }
        assert!(total < data.len() && started.elapsed() < Duration::from_secs(10));
    }
}
