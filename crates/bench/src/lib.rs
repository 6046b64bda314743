//! Shared machinery for the performance benchmarks (§10).
//!
//! The paper measured six configurations that vary CPU (MIPS vs Alpha) and
//! locality (local vs 10 Mbit Ethernet).  One 2026 machine cannot vary its
//! CPU, so our configurations vary the transport instead:
//!
//! * **unix** — Unix-domain socket: the "local client & server" rows,
//! * **tcp** — loopback TCP: the networked rows without wire latency,
//! * **tcpdelay** — loopback TCP behind af-chaos's fault proxy with a
//!   latency-only plan, which delays every read and write on either leg
//!   (so each direction of a round trip by one delay), standing in for
//!   the Ethernet+driver overhead the paper observed ("most of this
//!   overhead is spent in the operating system and network driver").
//!
//! Every benchmark talks to a codec server with a 16-second buffer (the
//! buffer size is an advertised device attribute) so the full 1 B – 64 KB
//! request sweep of Figures 11–13 fits without flow-control blocking.

#![forbid(unsafe_code)]
pub mod jsonmerge;
pub mod kernels;

use af_chaos::{FaultProxy, StreamFaultPlan};
use af_client::{AcAttributes, AcMask, AudioConn};
use af_device::{SilenceSource, SystemClock, ToneSource};
use af_server::{RunningServer, ServerBuilder};
use std::sync::Arc;
use std::time::Duration;

/// Server buffer frames for benchmark rigs: 16 s at 8 kHz.
pub const BENCH_BUFFER_FRAMES: u32 = 131_072;

/// A benchmark transport configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Unix-domain socket ("local").
    Unix,
    /// Loopback TCP ("network").
    Tcp,
    /// Loopback TCP with an extra per-direction delay in microseconds.
    TcpDelay(u64),
}

impl Transport {
    /// All standard configurations with a display label each.
    pub fn standard() -> Vec<(Transport, &'static str)> {
        vec![
            (Transport::Unix, "local (unix socket)"),
            (Transport::Tcp, "tcp (loopback)"),
            (Transport::TcpDelay(500), "tcp + 0.5 ms wire"),
        ]
    }
}

/// A running benchmark rig: server plus the name clients connect to.
pub struct Rig {
    /// The server (kept alive for the rig's lifetime).
    pub server: RunningServer,
    /// The connection string for [`AudioConn::open`].
    pub conn_name: String,
    /// The proxy in front of a [`Transport::TcpDelay`] rig's server, held
    /// so it keeps accepting for the rig's lifetime.
    _wire: Option<FaultProxy>,
}

impl Rig {
    /// Starts a codec server on the given transport.
    ///
    /// `mic_tone` selects a 440 Hz microphone (for record benches) instead
    /// of silence.
    pub fn start(transport: Transport, mic_tone: bool) -> Rig {
        Rig::start_multi(transport, 1, mic_tone)
    }

    /// Starts a server with `devices` independent codec devices.
    pub fn start_multi(transport: Transport, devices: usize, mic_tone: bool) -> Rig {
        let mut builder = ServerBuilder::new();
        for _ in 0..devices {
            let clock = Arc::new(SystemClock::new(8000));
            let source: Box<dyn af_device::SampleSource> = if mic_tone {
                Box::new(ToneSource::ulaw(440.0, 8000.0, 10_000.0))
            } else {
                Box::new(SilenceSource::new(af_dsp::g711::ULAW_SILENCE))
            };
            builder.add_codec_with_buffer(
                clock,
                Box::new(af_device::NullSink),
                source,
                BENCH_BUFFER_FRAMES,
            );
        }
        if transport == Transport::Unix {
            let path = std::env::temp_dir().join(format!(
                "af-bench-{}-{:x}.sock",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::SystemTime::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos() as u64
            ));
            let server = builder
                .listen_unix(path.clone())
                .spawn()
                .expect("start server");
            return Rig {
                server,
                conn_name: path.display().to_string(),
                _wire: None,
            };
        }
        let server = builder
            .listen_tcp("127.0.0.1:0".parse().unwrap())
            .spawn()
            .expect("start server");
        let addr = server.tcp_addr().unwrap();
        let wire = match transport {
            Transport::TcpDelay(micros) => {
                let plan = StreamFaultPlan::new(0).latency(1.0, Duration::from_micros(micros));
                Some(FaultProxy::spawn(addr, plan).expect("start wire proxy"))
            }
            _ => None,
        };
        Rig {
            server,
            conn_name: wire.as_ref().map_or(addr, FaultProxy::addr).to_string(),
            _wire: wire,
        }
    }

    /// Opens a client connection to the rig.
    pub fn connect(&self) -> AudioConn {
        AudioConn::open(&self.conn_name).expect("connect to rig")
    }

    /// Opens a connection with a default audio context.
    pub fn connect_with_ac(&self, preempt: bool) -> (AudioConn, af_client::Ac) {
        self.connect_with_ac_on(0, preempt)
    }

    /// Opens a connection with a default audio context on a given device.
    pub fn connect_with_ac_on(&self, device: u8, preempt: bool) -> (AudioConn, af_client::Ac) {
        let mut conn = self.connect();
        let mut mask = AcMask::default();
        let mut attrs = AcAttributes::default();
        if preempt {
            mask = mask | AcMask::PREEMPTION;
            attrs.preempt = true;
        }
        let ac = conn.create_ac(device, mask, &attrs).expect("create ac");
        (conn, ac)
    }
}

/// Number of CPU cores the benchmark process can use.  Recorded in the
/// report because every result that involves several threads (reactor
/// shards, concurrent bench clients) depends on it.
pub fn cpu_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times `iters` calls of `f`, returning mean seconds per call.
pub fn time_per_iter<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// The request sizes of the paper's sweep figures: powers of two to 64 KB.
pub fn sweep_sizes() -> Vec<usize> {
    (0..=16).map(|p| 1usize << p).collect()
}

/// Process CPU time (user + system) in seconds, for §10.2-style load
/// measurements.
pub fn process_cpu_seconds() -> f64 {
    // Reads /proc/self/stat fields 14 (utime) and 15 (stime).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Skip past the parenthesized command name, which may contain spaces.
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: f64 = fields.get(11).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.get(12).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let ticks = 100.0; // Standard Linux USER_HZ.
    (utime + stime) / ticks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rigs_start_on_all_transports() {
        for (t, _) in Transport::standard() {
            let rig = Rig::start(t, false);
            let mut conn = rig.connect();
            assert!(conn.get_time(0).is_ok(), "transport {t:?}");
        }
    }

    #[test]
    fn cpu_seconds_monotone() {
        let a = process_cpu_seconds();
        // Burn a little CPU.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = process_cpu_seconds();
        assert!(b >= a, "CPU time went backwards: {a} -> {b}");
    }
}
