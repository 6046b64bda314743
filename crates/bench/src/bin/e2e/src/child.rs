//! One measured round of one workload, run as a pinned child process: set
//! up the default server and one client connection, check the server's
//! output bit-exact, warm up, then run ops back to back for the window.

use crate::json::Json;
use crate::metrics::{family_metric, span_metric};
use crate::pace::{self, Pace};
use crate::procstat::{self, Family, Snapshot};
use crate::stats;
use crate::trace::{NoProbe, Probe, SpanKind, SpanProbe};
use crate::workload::{
    mic_byte, Inputs, Workload, CHECK_FRAMES, PLAY_LEAD_TICKS, RECORD_BYTES, RECORD_PAST_TICKS,
};
use af_client::{ATime, Ac, AcAttributes, AcMask, AudioConn};
use af_device::{SampleSink, SampleSource, SharedClock, SystemClock};
use af_dsp::resample::Resampler;
use af_dsp::{reference, Encoding};
use af_server::ServerBuilder;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Device the output check plays on and every record reads from.  Nothing
/// else plays there, so its speaker is quiet but for the check.
const MIC_DEVICE: u8 = 0;
/// Device the play workloads play on.
const PLAY_DEVICE: u8 = 1;
/// The gain of the mixing play context, as in the paper's Table 11 runs.
const PLAY_GAIN_DB: i16 = -6;
/// The check's first block starts this far ahead: beyond the hardware
/// lead, so it reaches the speaker through the periodic update.
const CHECK_LEAD_TICKS: i32 = 1_600;
/// Device-time slack added to a wait: one update period (800 ticks) plus
/// scheduling margin.
const SETTLE_TICKS: i32 = 1_000;
/// Full-block byte check of a record reply on every this-many-th op; the
/// other ops check the first and last byte.
const FULL_CHECK_EVERY: u64 = 64;
/// Ops in a round below which p99 has fewer than ten samples beyond it.
const MIN_SAMPLES: usize = 1_000;
/// An op this slow means the whole machine stalled (a pinned process that
/// loses its CPU stops in all its threads at once).  If the server's 100 ms
/// update then runs more than 128 ms after the last, the 1,024-frame
/// hardware rings overrun and audio is lost, as on real hardware; 20 ms
/// stays clear of the 28 ms that takes.  A normal op takes 0.01–0.3 ms.
const STALL: Duration = Duration::from_millis(20);
/// Times the output check is played again when a stall ate part of it.
const CHECK_ATTEMPTS: u32 = 3;
const SPAN_CAPACITY: usize = 1 << 21;
const SETUP_DEADLINE: Duration = Duration::from_secs(20);
/// The workload's ops run untimed for at least this long before the window.
pub const WARMUP: Duration = Duration::from_millis(500);

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    /// Record spans and write them here.
    pub spans_out: Option<PathBuf>,
    /// Plumbing check with short windows: too few samples is not an error.
    pub smoke: bool,
}

/// The benchmark's microphone: emits [`mic_byte`] of the device tick.
struct Mic {
    key: u32,
}

impl SampleSource for Mic {
    fn fill(&mut self, time: ATime, out: &mut [u8]) {
        let first = time.ticks();
        for (i, b) in out.iter_mut().enumerate() {
            *b = mic_byte(self.key, first.wrapping_add(i as u32));
        }
    }
}

/// What the speaker of [`MIC_DEVICE`] emitted over one window of ticks.
#[derive(Default)]
struct Capture {
    start: ATime,
    bytes: Vec<u8>,
    got: usize,
}

struct Speaker(Arc<Mutex<Capture>>);

impl SampleSink for Speaker {
    fn consume(&mut self, time: ATime, data: &[u8]) {
        let mut cap = self.0.lock().unwrap_or_else(|p| p.into_inner());
        // Position of `data[0]` in the window; may lie before or after it.
        let off = i64::from(time.delta(cap.start));
        let lo = off.max(0);
        let hi = (off + data.len() as i64).min(cap.bytes.len() as i64);
        if lo < hi {
            let (lo, hi) = (lo as usize, hi as usize);
            let from = (lo as i64 - off) as usize;
            cap.bytes[lo..hi].copy_from_slice(&data[from..from + (hi - lo)]);
            cap.got += hi - lo;
        }
    }
}

struct Discard;

impl SampleSink for Discard {
    fn consume(&mut self, _time: ATime, _data: &[u8]) {}
}

/// What the speaker must emit for the check's two overlapping plays,
/// computed with the frozen reference kernels: each block converted LIN16 →
/// µ-law and attenuated by the context's gain; where the second block
/// overlaps the first the two are mixed; elsewhere the server copies the
/// block onto the silence it back-filled (it mixes only up to the last
/// valid sample, §7.4.1), so the bytes are the block's own.
fn expected_speaker(a_lin16: &[u8], b_lin16: &[u8]) -> Vec<u8> {
    let prepare = |lin16: &[u8]| {
        let pcm = reference::decode_to_lin16_scalar(Encoding::Lin16, lin16);
        let mut ulaw = reference::encode_from_lin16_scalar(Encoding::Mu255, &pcm);
        reference::apply_gain_bytes_scalar(Encoding::Mu255, &mut ulaw, i32::from(PLAY_GAIN_DB));
        ulaw
    };
    let (a, b) = (prepare(a_lin16), prepare(b_lin16));
    let half = CHECK_FRAMES / 2;
    let mut out = a;
    reference::mix_bytes_scalar(Encoding::Mu255, &mut out[half..], &b[..half]);
    out.extend_from_slice(&b[half..]);
    out
}

/// Connection, contexts and scratch of the one client.
struct Client<'a> {
    conn: AudioConn,
    workload: Workload,
    inputs: &'a Inputs,
    play_ac: Option<Ac>,
    rec_ac: Option<Ac>,
    /// Device time of the last reply; ops are scheduled relative to it.
    last_time: ATime,
    /// Recorded history is intact from this device time on: the recorder
    /// was armed then, or the last machine stall ended then.  A record
    /// reply that starts earlier is not compared with the microphone.
    history_from: ATime,
    stalls: u64,
    ops: u64,
    payload_bytes: u64,
    resampler: Resampler,
    pcm: Vec<i16>,
    resampled: Vec<i16>,
    packed: Vec<u8>,
}

impl Client<'_> {
    /// Takes a reply's device time; it must not run backwards (wrapping).
    fn advance(&mut self, t: ATime) -> Result<(), String> {
        if t.is_before(self.last_time) {
            return Err(format!(
                "device time ran backwards: {} after {}",
                t.ticks(),
                self.last_time.ticks()
            ));
        }
        self.last_time = t;
        Ok(())
    }

    fn check_record(&self, start: ATime, data: &[u8]) -> Result<(), String> {
        if data.len() != RECORD_BYTES {
            return Err(format!("record reply of {} bytes", data.len()));
        }
        if start.is_before(self.history_from) {
            return Ok(());
        }
        let first = start.ticks();
        let wrong =
            |i: usize| data[i] != mic_byte(self.inputs.mic_key, first.wrapping_add(i as u32));
        let bad = if self.ops.is_multiple_of(FULL_CHECK_EVERY) {
            (0..data.len()).find(|&i| wrong(i))
        } else {
            [0, data.len() - 1].into_iter().find(|&i| wrong(i))
        };
        match bad {
            Some(i) => Err(format!(
                "record byte {i} of the block at tick {first} is not what the microphone emitted"
            )),
            None => Ok(()),
        }
    }

    fn record<P: Probe>(&mut self, probe: &mut P) -> Result<Vec<u8>, String> {
        let ac = self.rec_ac.as_ref().ok_or("no record context")?;
        let start = self.last_time.offset(-RECORD_PAST_TICKS);
        let conn = &mut self.conn;
        let (t, data) = probe
            .span(SpanKind::RecordCall, || {
                conn.record_samples(ac, start, RECORD_BYTES, false)
            })
            .map_err(|e| e.to_string())?;
        self.advance(t)?;
        self.check_record(start, &data)?;
        self.payload_bytes += data.len() as u64;
        Ok(data)
    }

    fn play<P: Probe>(&mut self, probe: &mut P, relay: bool) -> Result<(), String> {
        let ac = self.play_ac.as_ref().ok_or("no play context")?;
        let data: &[u8] = if relay {
            &self.packed
        } else {
            &self.inputs.play_lin16
        };
        let at = self.last_time.offset(PLAY_LEAD_TICKS);
        let conn = &mut self.conn;
        let t = probe
            .span(SpanKind::PlayCall, || conn.play_samples(ac, at, data))
            .map_err(|e| e.to_string())?;
        self.payload_bytes += data.len() as u64;
        self.advance(t)
    }

    /// One op, timed from `started`.  A stall of the machine during it may
    /// have cost the server audio, so history restarts after it.
    fn timed_op<P: Probe>(
        &mut self,
        probe: &mut P,
        started: Instant,
    ) -> (Result<(), String>, Instant) {
        let result = self.op(probe);
        let ended = Instant::now();
        let took = ended - started;
        if took > STALL {
            self.stalls += 1;
            let ticks = (took.as_secs_f64() * 8000.0) as i32;
            self.history_from = self.last_time.offset(ticks + SETTLE_TICKS);
        }
        (result, ended)
    }

    /// Whether a record issued now would be compared with the microphone.
    fn history_ready(&self) -> bool {
        self.rec_ac.is_none()
            || !self
                .last_time
                .offset(-RECORD_PAST_TICKS)
                .is_before(self.history_from)
    }

    /// One operation of the workload.  `Err` is a failed op.
    fn op<P: Probe>(&mut self, probe: &mut P) -> Result<(), String> {
        self.ops += 1;
        match self.workload {
            Workload::CtlPing => {
                let conn = &mut self.conn;
                let t = probe
                    .span(SpanKind::GetTimeCall, || conn.get_time(MIC_DEVICE))
                    .map_err(|e| e.to_string())?;
                // The useful bytes of a GetTime are the 4-byte device time.
                self.payload_bytes += 4;
                self.advance(t)
            }
            Workload::PlayMixLin16 => self.play(probe, false),
            Workload::Record8k => self.record(probe).map(|_| ()),
            Workload::RelayResample => {
                let ulaw = self.record(probe)?;
                let (pcm, resampled, packed) =
                    (&mut self.pcm, &mut self.resampled, &mut self.packed);
                probe.span(SpanKind::Decode, || {
                    pcm.resize(ulaw.len(), 0);
                    (af_dsp::kernels::active().decode_ulaw)(&ulaw, pcm);
                });
                let resampler = &mut self.resampler;
                probe.span(SpanKind::Resample, || {
                    resampled.clear();
                    resampler.process_into(pcm, resampled);
                });
                probe.span(SpanKind::Pack, || {
                    packed.clear();
                    for s in resampled.iter() {
                        packed.extend_from_slice(&s.to_le_bytes());
                    }
                });
                self.play(probe, true)
            }
        }
    }
}

/// Refuses to measure unless the process is confined to one CPU.
fn pinned_cpu() -> Result<u32, String> {
    let list = procstat::status_field("Cpus_allowed_list")
        .ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    match procstat::parse_cpu_list(&list).as_deref() {
        Some([cpu]) => Ok(*cpu),
        _ => Err(format!(
            "child is allowed on CPUs {list:?}, not on exactly one; refusing an unpinned run"
        )),
    }
}

pub fn run(args: &ChildArgs, t0: Instant) -> Result<Json, String> {
    let cpu = pinned_cpu()?;
    let inputs = Inputs::from_seed(args.seed);
    let io_err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    // The server a user gets by default: two 8 kHz µ-law CODECs on one
    // clock, as LoFi has; only the endpoints are the benchmark's own.
    let capture = Arc::new(Mutex::new(Capture::default()));
    let clock: SharedClock = Arc::new(SystemClock::new(8000));
    let mut builder = ServerBuilder::new();
    let mic = || {
        Box::new(Mic {
            key: inputs.mic_key,
        })
    };
    builder.add_codec(
        Arc::clone(&clock),
        Box::new(Speaker(Arc::clone(&capture))),
        mic(),
    );
    builder.add_codec(clock, Box::new(Discard), mic());
    let builder = if args.workload == Workload::RelayResample {
        builder.listen_tcp(([127, 0, 0, 1], 0).into())
    } else {
        // A relative path: a socket path is limited to about a hundred bytes.
        let run_dir = std::path::Path::new(crate::parent::RUN_DIR);
        std::fs::create_dir_all(run_dir).map_err(|e| io_err("run dir", &e))?;
        let sock = run_dir.join(format!("e2e-{}.sock", std::process::id()));
        builder.listen_unix(sock)
    };
    let server = builder.spawn().map_err(|e| io_err("server spawn", &e))?;
    let t_spawned = Instant::now();
    let name = match (server.tcp_addr(), server.unix_path()) {
        (Some(addr), _) => addr.to_string(),
        (None, Some(path)) => format!("unix:{}", path.display()),
        (None, None) => return Err("server has no listener".into()),
    };
    let mut conn = AudioConn::open(&name).map_err(|e| io_err("connect", &e))?;
    let mut make_ac = |device: u8, encoding: Encoding, gain: i16| {
        let attrs = AcAttributes {
            encoding,
            play_gain_db: gain,
            ..AcAttributes::default()
        };
        conn.create_ac(device, AcMask::ENCODING | AcMask::PLAY_GAIN, &attrs)
            .map_err(|e| io_err("create_ac", &e))
    };
    let check_ac = make_ac(MIC_DEVICE, Encoding::Lin16, PLAY_GAIN_DB)?;
    let play_ac = match args.workload {
        Workload::PlayMixLin16 => Some(make_ac(PLAY_DEVICE, Encoding::Lin16, PLAY_GAIN_DB)?),
        Workload::RelayResample => Some(make_ac(PLAY_DEVICE, Encoding::Lin16, 0)?),
        _ => None,
    };
    let rec_ac = if args.workload.records() {
        Some(make_ac(MIC_DEVICE, Encoding::Mu255, 0)?)
    } else {
        None
    };
    let now = conn
        .get_time(MIC_DEVICE)
        .map_err(|e| io_err("first get_time", &e))?;
    let t_connected = Instant::now();

    let mut history_from = now;
    if let Some(ac) = &rec_ac {
        // A zero-byte record arms the recorder.
        let (armed, _) = conn
            .record_samples(ac, now, 0, false)
            .map_err(|e| io_err("arming record", &e))?;
        history_from = armed.offset(SETTLE_TICKS);
    }
    let mut client = Client {
        conn,
        workload: args.workload,
        inputs: &inputs,
        play_ac,
        rec_ac,
        last_time: now,
        history_from,
        stalls: 0,
        ops: 0,
        payload_bytes: 0,
        resampler: Resampler::new(8000.0, 8000.0 * (1.0 + inputs.drift_ppm * 1e-6)),
        pcm: Vec::new(),
        resampled: Vec::new(),
        packed: Vec::new(),
    };

    // Output check: two overlapping blocks on the quiet device, compared
    // once device time has passed them.  Meanwhile the workload's own ops
    // warm everything up, for at least the warm-up time and until recorded
    // history reaches as far back as a request does.
    let check_len = CHECK_FRAMES + CHECK_FRAMES / 2;
    let want = expected_speaker(&inputs.check_a, &inputs.check_b);
    let warm_end = Instant::now() + WARMUP;
    let mut warm_error = None;
    let mut attempt = 0;
    let precheck = loop {
        attempt += 1;
        let check_start = client.last_time.offset(CHECK_LEAD_TICKS);
        {
            let mut cap = capture.lock().unwrap_or_else(|p| p.into_inner());
            cap.start = check_start;
            cap.bytes = vec![0; check_len];
            cap.got = 0;
        }
        let second = check_start.offset((CHECK_FRAMES / 2) as i32);
        client
            .conn
            .play_samples(&check_ac, check_start, &inputs.check_a)
            .and_then(|_| client.conn.play_samples(&check_ac, second, &inputs.check_b))
            .map_err(|e| io_err("check play", &e))?;
        let check_done = check_start.offset(check_len as i32 + SETTLE_TICKS);
        let mut at = Instant::now();
        while at < warm_end || client.last_time.is_before(check_done) || !client.history_ready() {
            let (result, ended) = client.timed_op(&mut NoProbe, at);
            at = ended;
            if let Err(e) = result {
                warm_error = Some(e);
            }
            if t0.elapsed() > SETUP_DEADLINE {
                return Err(format!(
                    "set-up did not finish in {SETUP_DEADLINE:?} (last warm-up error: {warm_error:?})"
                ));
            }
        }
        let cap = capture.lock().unwrap_or_else(|p| p.into_inner());
        if cap.got != check_len {
            // Ticks never reached the speaker: the hardware ring overran
            // because the machine stalled.  Play the check again.
            if attempt < CHECK_ATTEMPTS {
                continue;
            }
            break Err(format!(
                "speaker emitted {} of the check's {check_len} ticks in each of {attempt} attempts",
                cap.got
            ));
        }
        break match cap
            .bytes
            .iter()
            .zip(&want)
            .position(|(got, want)| got != want)
        {
            Some(i) => Err(format!(
                "speaker byte {i} of the check is {:#04x}, the reference pipeline gives {:#04x}",
                cap.bytes[i], want[i]
            )),
            None => Ok(()),
        };
    };

    client.ops = 0;
    client.payload_bytes = 0;
    let run = match &args.spans_out {
        None => timed_window(&mut client, cpu, args.window, t0, |_| NoProbe)?,
        Some(_) => timed_window(&mut client, cpu, args.window, t0, |start| {
            SpanProbe::new(start, SPAN_CAPACITY)
        })?,
    };
    let Window {
        spans,
        mut latencies_ns,
        failed,
        first_error,
        elapsed,
        reference_s,
        setup_s,
        families,
        source,
        stolen_ns,
    } = run;
    let (payload_bytes, stalls) = (client.payload_bytes, client.stalls);
    drop(client);
    server.shutdown();

    let attempted = latencies_ns.len() as u64;
    let completed = attempted - failed;
    latencies_ns.sort_unstable();
    if !args.smoke && latencies_ns.len() < MIN_SAMPLES {
        return Err(format!(
            "only {} ops in the window; p99 needs {MIN_SAMPLES}",
            latencies_ns.len()
        ));
    }
    let us = |ns: Option<u32>| ns.map(|ns| f64::from(ns) / 1e3);
    let per_op = |total: u64| total as f64 / completed.max(1) as f64;
    let secs = elapsed.as_secs_f64();

    // Timed end-to-end metrics are at the reference machine speed; the
    // per-thread budget below them is in wall time, as the OS accounts it.
    let speed = reference_s / secs;
    let mut m = Json::obj();
    m.set("setup_s", setup_s)
        .set("ops_per_s", completed as f64 / reference_s)
        .set("payload_mb_per_s", payload_bytes as f64 / reference_s / 1e6)
        .set(
            "op_latency_p50_us",
            us(stats::percentile(&latencies_ns, 500)),
        )
        .set(
            "op_latency_p99_us",
            us(stats::percentile(&latencies_ns, 990)),
        );
    let server_cpu: u64 = families
        .iter()
        .filter(|(f, _)| f.is_server())
        .map(|(_, c)| c.cpu_ns)
        .sum();
    m.set("server_cpu_us_per_op", per_op(server_cpu) / 1e3 * speed)
        .set("machine.speed", speed)
        .set("wall.ops_per_s", completed as f64 / secs);
    for (family, c) in &families {
        m.set(
            &family_metric(*family, "cpu_us_per_op"),
            per_op(c.cpu_ns) / 1e3,
        )
        .set(
            &family_metric(*family, "runq_wait_us_per_op"),
            c.runq_wait_ns.map(|ns| per_op(ns) / 1e3),
        )
        .set(
            &family_metric(*family, "timeslices_per_op"),
            c.timeslices.map(per_op),
        );
    }
    let all_cpu: u64 = families.values().map(|c| c.cpu_ns).sum();
    m.set(
        "accounted_share",
        all_cpu as f64 / elapsed.as_nanos() as f64,
    )
    .set(
        "machine.steal_share",
        stolen_ns.map(|ns| ns as f64 / elapsed.as_nanos() as f64),
    )
    .set(
        "setup.server_spawn_ms",
        (t_spawned - t0).as_secs_f64() * 1e3,
    )
    .set(
        "setup.connect_ms",
        (t_connected - t_spawned).as_secs_f64() * 1e3,
    );
    if let (Some(path), Some(probe)) = (&args.spans_out, &spans) {
        let (kinds, harness) = probe.p50_us();
        for (kind, p50) in kinds {
            // A call the workload never makes costs it nothing.
            m.set(&span_metric(kind), p50.unwrap_or(0.0));
        }
        m.set("harness.self_us", harness);
        let file = std::fs::File::create(path).map_err(|e| io_err("span file", &e))?;
        let mut out = std::io::BufWriter::new(file);
        probe
            .write_tsv(&mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| io_err("span file", &e))?;
        if probe.dropped > 0 {
            eprintln!(
                "e2e: {} spans beyond capacity were not recorded",
                probe.dropped
            );
        }
    }
    // Peak memory is read last, so it covers everything above — less the
    // harness's own latency log, which grows with the number of ops and
    // would make a faster server look like a bigger one.
    let rss_kib = procstat::status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    let log_bytes = std::mem::size_of_val(latencies_ns.as_slice()) as f64;
    m.set("rss_peak_mb", (rss_kib * 1024.0 - log_bytes) / 1e6);

    let mut out = Json::obj();
    out.set("workload", args.workload.name())
        .set("attempted", attempted)
        .set("failed", failed)
        .set("precheck_ok", precheck.is_ok())
        .set("samples", latencies_ns.len() as u64)
        .set("accounting_source", source.name())
        .set("dsp_kernels", af_dsp::kernels::active().name)
        .set("stalls", stalls)
        .set("metrics", m);
    if let Some(e) = precheck.err().or(first_error) {
        out.set("first_error", e);
    }
    Ok(out)
}

struct Window {
    spans: Option<SpanProbe>,
    latencies_ns: Vec<u32>,
    failed: u64,
    first_error: Option<String>,
    /// Wall time of the ops.
    elapsed: Duration,
    /// The same at the reference machine speed.
    reference_s: f64,
    setup_s: f64,
    families: std::collections::BTreeMap<Family, procstat::Counters>,
    source: procstat::Source,
    /// Time the hypervisor withheld the CPU during the window, if known.
    stolen_ns: Option<u64>,
}

/// Runs ops back to back (closed loop: the next starts when the previous
/// reply has arrived) for `window`, timing each and reading the per-thread
/// CPU counters once before and once after.
fn timed_window<P: Probe>(
    client: &mut Client<'_>,
    cpu: u32,
    window: Duration,
    t0: Instant,
    make_probe: impl FnOnce(Instant) -> P,
) -> Result<Window, String> {
    let mut latencies_ns: Vec<u32> = Vec::with_capacity(1 << 22);
    let mut failed = 0u64;
    let mut first_error = None;
    let stolen_before = procstat::stolen_ns(cpu);
    let mut pace = Pace::new();
    let before = Snapshot::of_this_process().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let setup_s = (start - t0).as_secs_f64();
    let mut probe = make_probe(start);
    // Each op's wall time is recorded at the reference speed (see `pace`):
    // times the machine's speed of the moment, which is re-timed every
    // 20 ms, outside the ops.
    let mut a = start;
    let mut retime_at = Duration::ZERO;
    let mut retiming = Duration::ZERO;
    let mut reference_ns = 0.0f64;
    loop {
        let mut since_start = a - start;
        if since_start >= window + retiming {
            break;
        }
        if since_start >= retime_at {
            let b = pace.retime(a);
            retiming += b - a;
            a = b;
            since_start = a - start;
            retime_at = since_start + pace::EVERY;
        }
        probe.begin_op(since_start.as_nanos() as u64);
        let (result, b) = client.timed_op(&mut probe, a);
        probe.end_op((b - start).as_nanos() as u64);
        let at_reference = (b - a).as_nanos() as f64 * pace.scale;
        reference_ns += at_reference;
        latencies_ns.push(at_reference.min(f64::from(u32::MAX)) as u32);
        if let Err(e) = result {
            failed += 1;
            first_error.get_or_insert(e);
        }
        a = b;
    }
    let elapsed = a - start - retiming;
    let after = Snapshot::of_this_process().map_err(|e| e.to_string())?;
    let stolen_ns = procstat::stolen_ns(cpu)
        .zip(stolen_before)
        .map(|(after, before)| after.saturating_sub(before));
    Ok(Window {
        spans: probe.into_spans(),
        latencies_ns,
        failed,
        first_error,
        elapsed,
        reference_s: reference_ns / 1e9,
        setup_s,
        families: after.since(&before),
        source: after.source,
        stolen_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speaker_keeps_only_the_window() {
        let cap = Arc::new(Mutex::new(Capture {
            start: ATime::new(u32::MAX - 1),
            bytes: vec![0; 6],
            got: 0,
        }));
        let mut s = Speaker(Arc::clone(&cap));
        // Before, straddling the start (and the 32-bit wrap), inside,
        // straddling the end, after.
        s.consume(ATime::new(u32::MAX - 9), &[9; 4]);
        s.consume(ATime::new(u32::MAX - 3), &[1, 2, 3, 4]);
        s.consume(ATime::new(1), &[5, 6]);
        s.consume(ATime::new(3), &[7, 8, 9]);
        s.consume(ATime::new(40), &[9; 4]);
        let cap = cap.lock().expect("not poisoned");
        assert_eq!(cap.bytes, vec![3, 4, 0, 5, 6, 7]);
        assert_eq!(cap.got, 5);
    }

    #[test]
    fn mic_fills_from_the_tick_across_the_wrap() {
        let mut buf = [0u8; 4];
        Mic { key: 3 }.fill(ATime::new(u32::MAX - 1), &mut buf);
        let want = [u32::MAX - 1, u32::MAX, 0, 1].map(|t| mic_byte(3, t));
        assert_eq!(buf, want);
    }

    #[test]
    fn expected_speaker_covers_both_blocks_and_mixes_the_overlap() {
        let inputs = Inputs::from_seed(1);
        let out = expected_speaker(&inputs.check_a, &inputs.check_b);
        assert_eq!(out.len(), CHECK_FRAMES + CHECK_FRAMES / 2);
        let silent = expected_speaker(&vec![0; CHECK_FRAMES * 2], &vec![0; CHECK_FRAMES * 2]);
        assert!(silent.iter().all(|&b| b == af_dsp::g711::ULAW_SILENCE));
        assert_ne!(out, silent);
    }
}
