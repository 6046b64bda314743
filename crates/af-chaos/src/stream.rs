//! A fault-injecting wrapper over any byte stream.

use crate::plan::StreamFaultPlan;
use crate::rng::ChaosRng;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, BorrowedFd};
use std::sync::{Arc, Mutex};

/// Shared fault state for one logical connection.
///
/// A connection is often split into halves (the fault proxy's two pumps
/// each read one leg and write the other); all of them must draw from one
/// fault schedule and one byte budget, so the state lives behind an
/// `Arc`.
struct FaultState {
    plan: StreamFaultPlan,
    rng: ChaosRng,
    /// Total bytes moved in either direction.
    transferred: u64,
    /// Set once the cut threshold is crossed; every later op fails.
    cut: bool,
}

/// What the fault schedule decided for one operation.
struct OpPlan {
    delay: Option<std::time::Duration>,
    limit: Option<usize>,
    corrupt: bool,
    fail: bool,
}

impl FaultState {
    /// Draws the faults for one read or write of up to `len` bytes.
    fn decide(&mut self, len: usize, read: bool) -> OpPlan {
        if self.cut || self.plan.error_chance > 0.0 && self.rng.chance(self.plan.error_chance) {
            self.cut = true;
            return OpPlan {
                delay: None,
                limit: None,
                corrupt: false,
                fail: true,
            };
        }
        let delay = (self.plan.latency_chance > 0.0 && self.rng.chance(self.plan.latency_chance))
            .then_some(self.plan.latency);
        let max = if read {
            self.plan.read_chunk_max
        } else {
            self.plan.write_chunk_max
        };
        let limit = max.map(|m| self.rng.range(1, m.saturating_add(1)).min(len).max(1));
        let corrupt = self.plan.corrupt_chance > 0.0 && self.rng.chance(self.plan.corrupt_chance);
        OpPlan {
            delay,
            limit,
            corrupt,
            fail: false,
        }
    }

    /// Accounts bytes moved; arms the cut once the budget is spent.
    fn account(&mut self, n: usize) {
        self.transferred = self.transferred.saturating_add(n as u64);
        if let Some(cut) = self.plan.cut_after_bytes {
            if self.transferred >= cut {
                self.cut = true;
            }
        }
    }

    /// Flips one byte of `data` in place.
    fn corrupt(&mut self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let i = self.rng.range(0, data.len());
        let bit = 1u8 << self.rng.range(0, 8);
        data[i] ^= bit;
    }
}

fn reset_error() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection cut")
}

/// A byte stream with faults injected per a [`StreamFaultPlan`].
///
/// Wraps any `Read + Write` transport.  Cloned halves created with
/// [`ChaosStream::fork`] share one fault schedule, so a connection that is
/// split into reader and writer threads still sees a single coherent
/// failure story (one byte budget, one cut).
pub struct ChaosStream<S> {
    inner: S,
    state: Arc<Mutex<FaultState>>,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` with the faults described by `plan`.
    pub fn new(inner: S, plan: StreamFaultPlan) -> ChaosStream<S> {
        let rng = ChaosRng::new(plan.seed);
        ChaosStream {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                plan,
                rng,
                transferred: 0,
                cut: false,
            })),
        }
    }

    /// Wraps another handle to the same underlying connection (e.g. a
    /// `try_clone`d socket) sharing this wrapper's fault state.
    pub fn fork(&self, inner: S) -> ChaosStream<S> {
        ChaosStream {
            inner,
            state: Arc::clone(&self.state),
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Total bytes moved through the connection so far.
    pub fn transferred(&self) -> u64 {
        self.state.lock().expect("chaos state poisoned").transferred
    }

    /// Whether the connection has been cut by the fault schedule.
    pub fn is_cut(&self) -> bool {
        self.state.lock().expect("chaos state poisoned").cut
    }
}

/// The wrapped stream's descriptor, so a caller can wait on the socket
/// the faults are applied to.
impl<S: AsFd> AsFd for ChaosStream<S> {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.inner.as_fd()
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let op = {
            let mut st = self.state.lock().expect("chaos state poisoned");
            st.decide(buf.len(), true)
        };
        if op.fail {
            return Err(reset_error());
        }
        if let Some(d) = op.delay {
            std::thread::sleep(d);
        }
        let end = op.limit.unwrap_or(buf.len()).max(1).min(buf.len());
        let n = self.inner.read(&mut buf[..end])?;
        let mut st = self.state.lock().expect("chaos state poisoned");
        if op.corrupt && n > 0 {
            st.corrupt(&mut buf[..n]);
        }
        st.account(n);
        Ok(n)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let op = {
            let mut st = self.state.lock().expect("chaos state poisoned");
            st.decide(buf.len(), false)
        };
        if op.fail {
            return Err(reset_error());
        }
        if let Some(d) = op.delay {
            std::thread::sleep(d);
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        let end = op.limit.unwrap_or(buf.len()).min(buf.len()).max(1);
        let n = if op.corrupt {
            let mut copy = buf[..end].to_vec();
            {
                let mut st = self.state.lock().expect("chaos state poisoned");
                st.corrupt(&mut copy);
            }
            self.inner.write(&copy)?
        } else {
            self.inner.write(&buf[..end])?
        };
        let mut st = self.state.lock().expect("chaos state poisoned");
        st.account(n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex-ish stream: reads from `input`, writes to `out`.
    struct MemStream {
        input: Cursor<Vec<u8>>,
        out: Vec<u8>,
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn mem(data: &[u8]) -> MemStream {
        MemStream {
            input: Cursor::new(data.to_vec()),
            out: Vec::new(),
        }
    }

    #[test]
    fn passthrough_with_default_plan() {
        let mut s = ChaosStream::new(mem(b"hello world"), StreamFaultPlan::new(1));
        let mut buf = [0u8; 32];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello world");
        s.write_all(b"reply").unwrap();
        assert_eq!(s.get_ref().out, b"reply");
        assert_eq!(s.transferred(), 16);
    }

    #[test]
    fn partial_reads_still_deliver_everything() {
        let data: Vec<u8> = (0..=255).collect();
        let mut s = ChaosStream::new(mem(&data), StreamFaultPlan::new(2).partial_reads(7));
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 7, "read chunk {n} exceeds cap");
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, data);
    }

    #[test]
    fn partial_writes_still_deliver_everything() {
        let data: Vec<u8> = (0..=255).rev().collect();
        let mut s = ChaosStream::new(mem(b""), StreamFaultPlan::new(3).partial_writes(5));
        s.write_all(&data).unwrap();
        assert_eq!(s.get_ref().out, data);
    }

    #[test]
    fn cut_after_budget_resets() {
        let mut s = ChaosStream::new(mem(&[9u8; 100]), StreamFaultPlan::new(4).cut_after(10));
        let mut buf = [0u8; 10];
        s.read_exact(&mut buf).unwrap();
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(s.is_cut());
        assert!(s.write(b"x").is_err());
    }

    #[test]
    fn corruption_flips_exactly_one_bit_per_op() {
        let data = vec![0u8; 64];
        let plan = StreamFaultPlan::new(5).corruption(1.0);
        let mut s = ChaosStream::new(mem(&data), plan);
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).unwrap();
        let flipped: u32 = buf[..n].iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped per corrupt read");
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let run = |seed: u64| {
            let data: Vec<u8> = (0..200u16).map(|v| (v & 0xFF) as u8).collect();
            let plan = StreamFaultPlan::new(seed).partial_reads(9).corruption(0.3);
            let mut s = ChaosStream::new(mem(&data), plan);
            let mut got = Vec::new();
            let mut buf = [0u8; 16];
            loop {
                match s.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(_) => break,
                }
            }
            got
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn forked_halves_share_one_budget() {
        let a = ChaosStream::new(mem(&[1u8; 8]), StreamFaultPlan::new(6).cut_after(8));
        let mut b = a.fork(mem(b""));
        let mut a = a;
        let mut buf = [0u8; 8];
        a.read_exact(&mut buf).unwrap();
        // The budget was spent by the read half; the write half is cut too.
        assert!(b.write(b"x").is_err());
    }
}
