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

pub mod json;
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
/// report because every result that involves several threads (the
/// reactor and task threads, concurrent bench clients) depends on it.
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

/// The options every report writer takes: `--smoke` (short runs, the
/// section marked `"mode": "smoke"`) and `--out PATH` (default
/// `BENCH_report.json`).
pub struct Args {
    pub smoke: bool,
    pub out: String,
}

impl Args {
    /// Reads the process's arguments.
    pub fn parse() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args {
            smoke: args.iter().any(|a| a == "--smoke"),
            out: args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1).cloned())
                .unwrap_or_else(|| "BENCH_report.json".to_owned()),
        }
    }

    /// The `"mode"` a section records.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// The value at fraction `p` of an ascending slice (nearest rank); the
/// default for an empty one.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A same-run ratio rule over one section's rows: `subject` must measure
/// at most `limit` × `base`.
pub type RatioRule = (&'static str, &'static str, f64);

/// The `rules` that `rows` (name, value) of `section` break, one message
/// each; empty when all hold.  A rule naming a missing row is broken.
pub fn ratio_violations(section: &str, rows: &[(&str, f64)], rules: &[RatioRule]) -> Vec<String> {
    let row = |name| rows.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    rules
        .iter()
        .filter_map(|&(subject, base, limit)| match (row(subject), row(base)) {
            (Some(s), Some(b)) if s <= limit * b => None,
            (Some(s), Some(b)) => Some(format!(
                "{section}: {subject} {s:.3} vs {base} {b:.3} ({:.3}x, limit {limit}x)",
                s / b
            )),
            _ => Some(format!("{section}: no {subject} or {base} row")),
        })
        .collect()
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
    fn ratio_rules_flag_only_the_broken_one() {
        let rows = [("idle", 1.0), ("busy", 10.0)];
        let check = |rules: &[RatioRule]| ratio_violations("s", &rows, rules);
        assert!(check(&[("idle", "busy", 0.5)]).is_empty());
        let broken = check(&[("idle", "busy", 0.05), ("busy", "idle", 20.0)]);
        assert_eq!(broken.len(), 1);
        assert!(broken[0].starts_with("s: idle 1.000 vs busy 10.000"));
        assert_eq!(check(&[("idle", "gone", 1.0)]).len(), 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5), 3);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
        assert_eq!(percentile::<usize>(&[], 0.5), 0);
    }
}
