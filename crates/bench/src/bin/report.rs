//! `report` — regenerates the paper's evaluation tables and figures.
//!
//! Prints the same rows/series §10 reports, measured against this
//! implementation's configurations (transport variants instead of 1993
//! CPU variants), and writes every number to `BENCH_report.json` so CI
//! and regression tooling can diff runs without parsing markdown.
//! Run with:
//!
//! ```text
//! cargo run --release -p bench --bin report [-- --smoke] [-- --out PATH]
//! ```
//!
//! `--smoke` cuts iteration counts for a fast CI sanity pass — the JSON
//! records `"mode": "smoke"` so such runs are never mistaken for real
//! measurements.  The markdown output is pasted into EXPERIMENTS.md next
//! to the paper's numbers.  Besides the paper's rows, `report` enforces
//! same-run gates and, once every section has run and the JSON is
//! written, exits non-zero if one failed: the kernel dispatch
//! rules (`bench::kernels::dispatch_regressions`) and the ratio rules of
//! the §10.2 CPU-load rows (`CPU_RULES`) and of the update-task ablation
//! (`UPDATE_RULES`).

use af_client::{Ac, AcAttributes, AcMask, AudioConn};
use af_device::hardware::{HwConfig, VirtualAudioHw};
use af_device::{NullSink, SilenceSource, VirtualClock};
use af_server::backend::LocalBackend;
use af_server::DeviceBuffers;
use bench::json::{obj, Json};
use bench::kernels::{run_kernels_v2, KernelV2Measurement};
use bench::{
    cpu_cores, ratio_violations, sweep_sizes, time_per_iter, Args, RatioRule, Rig, Transport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-run measurement settings.
#[derive(Clone, Copy)]
struct Settings {
    smoke: bool,
    /// Iterations for latency-style measurements (the paper used 1000).
    latency_iters: u32,
    /// Iterations for data-moving measurements.
    data_iters: u32,
}

impl Settings {
    fn new(smoke: bool) -> Settings {
        let (latency_iters, data_iters) = if smoke { (60, 20) } else { (1000, 300) };
        Settings {
            smoke,
            latency_iters,
            data_iters,
        }
    }
}

/// Wall-clock window of each §10.2 CPU row.
const CPU_WINDOW: Duration = Duration::from_secs(3);

/// §10.2's same-run rules over `cpu_usage_pct`: serving one real-time
/// client costs a sliver of a saturating one, and an idle server less
/// again.  Each limit is at least twice the worst ratio of the runs in
/// EXPERIMENTS.md §10.2, some made beside a busy compiler: 0.0072, 0.040
/// and 0.31.
const CPU_RULES: [RatioRule; 3] = [
    ("realtime_play", "flat_out_play", 0.02),
    ("realtime_record", "flat_out_play", 0.1),
    ("quiescent", "realtime_play", 0.7),
];

/// The ablation's same-run rule over `update_task_ns`: a quiescent update
/// (the `timeLastValid` and `recRefCount` short cuts) costs no more than
/// one that copies both directions, with twice the worst ratio of the
/// recorded runs (0.70) as its limit.  At 800 frames an update the fixed
/// cost dominates, so the short cuts save well under half.
const UPDATE_RULES: [RatioRule; 1] = [("quiescent", "play_and_record", 1.5)];

/// Concurrent clients in the multi-device benchmark.
const MULTI_CLIENTS: usize = 8;
/// Bytes per play request in the multi-device benchmark.
const MULTI_CHUNK: usize = 8192;

/// The sections `chaos_soak`, `load` and `fanout` own.  `report` rewrites
/// the file whole and copies these in from the old one; every other key of
/// the old file is dropped, so a section `report` stopped writing does not
/// come back.
const SIBLING_SECTIONS: [&str; 3] = ["chaos_soak", "reactor_scaling", "fanout_scaling"];

fn main() {
    let args = Args::parse();
    let settings = Settings::new(args.smoke);

    let configs = Transport::standard();
    println!("# AudioFile evaluation report (reproducing §10)\n");
    if args.smoke {
        println!("**smoke mode** — reduced iterations, numbers are sanity checks only\n");
    }
    println!("configurations: unix socket (local), loopback TCP, TCP + 0.5 ms wire\n");

    // A broken same-run rule fails the run only after every section has
    // run and the report is written.
    let mut broken = Vec::new();
    let kernels_v2 = kernel_v2_section(settings, &mut broken);
    // Before the figures: their rigs stay up for the rest of the run, and
    // the CPU rows count every thread in the process.
    let cpu_rows = cpu_usage_rows();
    let cpu_usage = ratio_section("cpu_usage_pct", cpu_rows, &CPU_RULES, "%", &mut broken);
    let update_rows = update_task_rows(settings);
    let update_task = ratio_section(
        "update_task_ns",
        update_rows,
        &UPDATE_RULES,
        "ns",
        &mut broken,
    );
    let get_time = figure10(&configs, settings);
    let record = figure11(&configs, settings);
    table10(&configs, &record);
    let preempt = figure12_13(&configs, settings, true);
    let mix = figure12_13(&configs, settings, false);
    table11(&configs, &mix, &preempt);
    let loop_time = table12(&configs, settings);
    let (dtmf_ok, dtmf_total) = table7();
    let multi_device = multi_device_section(settings);

    let labels: Vec<&str> = configs.iter().map(|&(_, l)| l).collect();
    let sizes = sweep_sizes();
    let per_config = |vals: &[f64], scale: f64| {
        let scaled = vals.iter().map(|v| v * scale);
        labels.iter().copied().zip(scaled).collect::<Json>()
    };
    let series = |rows: &[Vec<f64>]| {
        let us = rows.iter().map(|row| row.iter().map(|v| v * 1e6));
        let us = us.map(Iterator::collect::<Vec<_>>);
        labels.iter().copied().zip(us).collect::<Json>()
    };
    let throughput = labels.iter().enumerate().map(|(ci, &l)| {
        let kbs = |times: &[Vec<f64>]| Json::from(slope_kbs(&sizes, &times[ci]));
        let row = [
            ("record_kbs", kbs(&record)),
            ("play_mix_kbs", kbs(&mix)),
            ("play_preempt_kbs", kbs(&preempt)),
        ];
        (l, obj(row))
    });
    let kernel_rows = kernels_v2.iter().map(|m| {
        obj([
            ("kernel", m.kernel.into()),
            ("path", m.path.into()),
            ("bytes", m.bytes.into()),
            ("mb_s", m.mb_s.into()),
            ("cycles_per_byte", m.cycles_per_byte.into()),
        ])
    });
    let multi_rows = multi_device.iter().map(|&(devices, mb_s)| {
        obj([("devices", devices.into()), ("aggregate_mb_s", mb_s.into())])
    });
    let table7 = Json::from_iter([("decoded", dtmf_ok), ("total", dtmf_total)]);
    let mut doc = obj([
        ("schema", "audiofile-bench-report/1".into()),
        ("mode", args.mode().into()),
        ("cpu_cores", cpu_cores().into()),
        ("configurations", labels.clone().into()),
        ("kernels_v2", Json::Arr(kernel_rows.collect())),
        ("figure10_get_time_us", per_config(&get_time, 1e6)),
        ("sweep_sizes_bytes", sizes.clone().into()),
        ("figure11_record_us", series(&record)),
        ("figure12_preempt_play_us", series(&preempt)),
        ("figure13_mix_play_us", series(&mix)),
        ("throughput_kbs", obj(throughput)),
        ("table12_loop_ms", per_config(&loop_time, 1e3)),
        ("table7_dtmf", table7),
        (
            "multi_device",
            obj([
                ("clients", MULTI_CLIENTS.into()),
                ("chunk_bytes", MULTI_CHUNK.into()),
                ("rows", Json::Arr(multi_rows.collect())),
            ]),
        ),
        ("cpu_usage_pct", cpu_usage.into_iter().collect()),
        ("update_task_ns", update_task.into_iter().collect()),
    ]);
    let old = bench::json::read(&args.out);
    for key in SIBLING_SECTIONS {
        if let Some(section) = old.get(key) {
            doc.set(key, section.clone());
        }
    }
    std::fs::write(&args.out, doc.render()).expect("write BENCH_report.json");
    println!("machine-readable report written to {}", args.out);
    if !broken.is_empty() {
        for v in &broken {
            eprintln!("report: {v}");
        }
        std::process::exit(1);
    }
}

/// Prints the kernel rows and adds every dispatch regression to `broken`.
fn kernel_v2_section(settings: Settings, broken: &mut Vec<String>) -> Vec<KernelV2Measurement> {
    println!("## Kernels — scalar and SIMD tables, resampler, gain (cycle-accounted)\n");
    println!("| kernel | path | bytes | MB/s | cycles/byte |");
    println!("|---|---|---|---|---|");
    let results = run_kernels_v2(settings.smoke);
    for m in &results {
        println!(
            "| {} | {} | {} | {:.0} | {:.3} |",
            m.kernel, m.path, m.bytes, m.mb_s, m.cycles_per_byte
        );
    }
    println!();
    // Dispatch gate: the table `active()` ships must never lose to scalar
    // on any entry point.
    let violations =
        bench::kernels::dispatch_regressions(&results, bench::kernels::DISPATCH_GATE_TOLERANCE);
    if violations.is_empty() {
        println!(
            "Dispatch gate: {} ≤ scalar cycles/byte on every entry point.\n",
            af_dsp::kernels::active().name
        );
    } else {
        println!("Dispatch gate: {} regressions.\n", violations.len());
        for v in &violations {
            broken.push(format!("dispatch regression: {v}"));
        }
    }
    results
}

/// Prints one section of named rows and checks its same-run `rules`,
/// adding every violation to `broken`; returns the rows.
fn ratio_section(
    name: &str,
    rows: Vec<(&'static str, f64)>,
    rules: &[RatioRule],
    unit: &str,
    broken: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    println!("| `{name}` row | {unit} |");
    println!("|---|---|");
    for (row, v) in &rows {
        println!("| {row} | {v:.3} |");
    }
    println!();
    let violations = ratio_violations(name, &rows, rules);
    if violations.is_empty() {
        println!("Ratio gate: all {} rules hold.\n", rules.len());
    } else {
        println!(
            "Ratio gate: {} of {} rules broken.\n",
            violations.len(),
            rules.len()
        );
        for v in &violations {
            broken.push(format!("ratio rule broken: {v}"));
        }
    }
    rows
}

/// Process CPU time over [`CPU_WINDOW`] of calling `body`, in percent of
/// one core.  Server and client threads share the process, so this is
/// their combined load (the paper measured the server alone, externally).
fn cpu_pct(mut body: impl FnMut()) -> f64 {
    let cpu = || af_sys::process_cpu_time().expect("process CPU clock");
    let (wall, cpu0) = (Instant::now(), cpu());
    while wall.elapsed() < CPU_WINDOW {
        body();
    }
    (cpu() - cpu0).as_secs_f64() / wall.elapsed().as_secs_f64() * 100.0
}

/// §10.2: "the quiescent server should present a negligible CPU load".
/// One TCP rig per row: an idle client, one 8 kHz µ-law stream played or
/// recorded in real time (800 frames per 100 ms), and plays flat out.
fn cpu_usage_rows() -> Vec<(&'static str, f64)> {
    println!("## §10.2 — CPU usage, server + client threads\n");
    let quiescent = {
        let rig = Rig::start(Transport::Tcp, false);
        let _idle = rig.connect();
        cpu_pct(|| std::thread::sleep(CPU_WINDOW))
    };
    let block = [0x31u8; 800];
    let realtime_play = {
        let rig = Rig::start(Transport::Tcp, false);
        let (mut conn, ac) = rig.connect_with_ac(false);
        let mut t = conn.get_time(0).unwrap() + 1600u32;
        cpu_pct(|| {
            conn.play_samples(&ac, t, &block).unwrap();
            t += 800u32;
            std::thread::sleep(Duration::from_millis(100));
        })
    };
    let realtime_record = {
        let rig = Rig::start(Transport::Tcp, true);
        let (mut conn, ac) = rig.connect_with_ac(false);
        let mut t = conn.get_time(0).unwrap();
        conn.record_samples(&ac, t, 0, false).unwrap();
        cpu_pct(|| {
            let (_, data) = conn.record_samples(&ac, t, 800, true).unwrap();
            t += data.len() as u32;
        })
    };
    let flat_out_play = {
        let rig = Rig::start(Transport::Tcp, false);
        let (mut conn, ac) = rig.connect_with_ac(false);
        let block = [0x31u8; 8000];
        cpu_pct(|| {
            let now = conn.get_time(0).unwrap();
            conn.play_samples(&ac, now + 8000u32, &block).unwrap();
        })
    };
    vec![
        ("quiescent", quiescent),
        ("realtime_play", realtime_play),
        ("realtime_record", realtime_record),
        ("flat_out_play", flat_out_play),
    ]
}

/// The ablation of §7.4.1's short cuts: ns per update-task pass over
/// 100 ms of 8 kHz µ-law, on the buffering engine alone over a virtual
/// clock.  With nothing valid ahead the play half copies nothing, and with
/// no recorder the record half does not run.  Streaming rows include the
/// client's `write_play` of the block the pass consumes.  Each row is the
/// fastest of five rounds.
fn update_task_rows(settings: Settings) -> Vec<(&'static str, f64)> {
    println!("## Ablation — update-task pass, quiescent vs streaming\n");
    let iters = if settings.smoke { 20_000 } else { 200_000 };
    let pass_ns = |play: bool, record: bool| {
        let clock = Arc::new(VirtualClock::new(8000));
        let hw = VirtualAudioHw::new(
            HwConfig::codec(),
            clock.clone(),
            Box::new(NullSink),
            Box::new(SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
        );
        let backend = Box::new(LocalBackend::new(hw));
        let mut bufs = DeviceBuffers::new(backend, af_dsp::Encoding::Mu255, 1, 32_768);
        if record {
            bufs.add_recorder();
        }
        let block = [0x31u8; 800];
        let mut pass = || {
            if play {
                let now = bufs.now();
                bufs.write_play(now + 8000u32, &block, false, 0, true);
            }
            clock.advance(800);
            std::hint::black_box(bufs.update(0, true));
        };
        let rounds = (0..5).map(|_| time_per_iter(iters, &mut pass));
        rounds.fold(f64::INFINITY, f64::min) * 1e9
    };
    vec![
        ("quiescent", pass_ns(false, false)),
        ("streaming_play", pass_ns(true, false)),
        ("play_and_record", pass_ns(true, true)),
        ("record_only", pass_ns(false, true)),
    ]
}

fn figure10(configs: &[(Transport, &'static str)], settings: Settings) -> Vec<f64> {
    println!("## Figure 10 — AFGetTime() round-trip time\n");
    println!("| configuration | mean per call |");
    println!("|---|---|");
    let mut means = Vec::new();
    for &(t, label) in configs {
        let rig = Rig::start(t, false);
        let mut conn = rig.connect();
        // Warm up.
        for _ in 0..50 {
            conn.get_time(0).unwrap();
        }
        let s = time_per_iter(settings.latency_iters, || {
            conn.get_time(0).unwrap();
        });
        println!("| {label} | {:.1} µs |", s * 1e6);
        means.push(s);
    }
    println!();
    means
}

/// Measures record time per size per configuration; returns seconds.
fn figure11(configs: &[(Transport, &'static str)], settings: Settings) -> Vec<Vec<f64>> {
    println!("## Figure 11 — AFRecordSamples() time vs request size\n");
    let rigs = configs
        .iter()
        .map(|&(t, _)| {
            let rig = Rig::start(t, true);
            let (mut conn, ac) = rig.connect_with_ac(false);
            let t0 = conn.get_time(0).unwrap();
            conn.record_samples(&ac, t0, 0, false).unwrap();
            std::mem::forget(rig); // Keep servers alive for the whole report.
            (conn, ac)
        })
        .collect();
    let all = sweep(configs, settings, rigs, |conn, ac, size| {
        let now = conn.get_time(0).unwrap();
        let start = now - (size as u32 + 8000);
        let (_, data) = conn.record_samples(ac, start, size, false).unwrap();
        assert_eq!(data.len(), size);
    });
    println!("\n(the step at 8 KB is the client library's request chunking, §10.1.2)\n");
    all
}

/// Times `op` at every sweep size on each configuration's connection,
/// printing the table; returns seconds per call, per configuration, per
/// size.
fn sweep(
    configs: &[(Transport, &'static str)],
    settings: Settings,
    mut rigs: Vec<(AudioConn, Ac)>,
    mut op: impl FnMut(&mut AudioConn, &Ac, usize),
) -> Vec<Vec<f64>> {
    let labels: Vec<&str> = configs.iter().map(|&(_, l)| l).collect();
    println!("| bytes | {} |", labels.join(" | "));
    println!("|---|{}", "---|".repeat(configs.len()));
    let mut all = vec![Vec::new(); configs.len()];
    for size in sweep_sizes() {
        print!("| {size} |");
        for (ci, (conn, ac)) in rigs.iter_mut().enumerate() {
            let s = time_per_iter(sweep_iters(settings, size), || op(conn, ac, size));
            all[ci].push(s);
            print!(" {:.1} µs |", s * 1e6);
        }
        println!();
    }
    all
}

fn sweep_iters(settings: Settings, size: usize) -> u32 {
    if settings.smoke || size >= 16_384 {
        settings.data_iters
    } else {
        300
    }
}

/// Least-squares slope of time vs bytes over the ≥ 4 KB sizes, inverted
/// into KB/s — the paper reads throughput off the slope of its lines, and
/// regression resists the per-point noise a two-point difference amplifies.
fn slope_kbs(sizes: &[usize], times: &[f64]) -> f64 {
    let pts: Vec<(f64, f64)> = sizes
        .iter()
        .zip(times)
        .filter(|(s, _)| **s >= 4096)
        .map(|(s, t)| (*s as f64, *t))
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    1.0 / slope / 1024.0
}

fn table10(configs: &[(Transport, &'static str)], record: &[Vec<f64>]) {
    println!("## Table 10 — record throughput\n");
    println!("| configuration | throughput (KB/s) |");
    println!("|---|---|");
    let sizes = sweep_sizes();
    for (ci, &(_, label)) in configs.iter().enumerate() {
        println!("| {label} | {:.0} |", slope_kbs(&sizes, &record[ci]));
    }
    println!();
}

fn figure12_13(
    configs: &[(Transport, &'static str)],
    settings: Settings,
    preempt: bool,
) -> Vec<Vec<f64>> {
    let (fig, mode) = if preempt {
        (12, "preemptive")
    } else {
        (13, "mixing")
    };
    println!("## Figure {fig} — {mode} AFPlaySamples() time vs request size\n");
    let rigs = configs
        .iter()
        .map(|&(t, _)| {
            let rig = Rig::start(t, false);
            let pair = rig.connect_with_ac(preempt);
            std::mem::forget(rig);
            pair
        })
        .collect();
    let data = vec![0x31u8; 65_536];
    let all = sweep(configs, settings, rigs, |conn, ac, size| {
        let now = conn.get_time(0).unwrap();
        conn.play_samples(ac, now + 8000u32, &data[..size]).unwrap();
    });
    println!();
    all
}

fn table11(configs: &[(Transport, &'static str)], mix: &[Vec<f64>], preempt: &[Vec<f64>]) {
    println!("## Table 11 — play throughput\n");
    println!("| configuration | mixing (KB/s) | preempt (KB/s) |");
    println!("|---|---|---|");
    let sizes = sweep_sizes();
    for (ci, &(_, label)) in configs.iter().enumerate() {
        println!(
            "| {label} | {:.0} | {:.0} |",
            slope_kbs(&sizes, &mix[ci]),
            slope_kbs(&sizes, &preempt[ci])
        );
    }
    println!();
}

fn table12(configs: &[(Transport, &'static str)], settings: Settings) -> Vec<f64> {
    println!("## Table 12 — open-loop record/play iteration time\n");
    println!("| configuration | time (ms) |");
    println!("|---|---|");
    let mut times = Vec::new();
    for &(t, label) in configs {
        let rig = Rig::start(t, true);
        let (mut conn, ac) = rig.connect_with_ac(false);
        let mut next = conn.get_time(0).unwrap();
        conn.record_samples(&ac, next, 0, false).unwrap();
        // Warm up the loop.
        for _ in 0..20 {
            let (now, data) = conn.record_samples(&ac, next, 8000, false).unwrap();
            if !data.is_empty() {
                conn.play_samples(&ac, next + 4000u32, &data).unwrap();
            }
            next = now;
        }
        let s = time_per_iter(settings.latency_iters, || {
            let (now, data) = conn.record_samples(&ac, next, 8000, false).unwrap();
            if !data.is_empty() {
                conn.play_samples(&ac, next + 4000u32, &data).unwrap();
            }
            next = now;
        });
        println!("| {label} | {:.3} |", s * 1e3);
        times.push(s);
    }
    println!();
    times
}

fn table7() -> (u32, u32) {
    println!("## Table 7 — tone pairs verified by decoding\n");
    use af_dsp::goertzel::{DtmfDetector, DtmfEvent};
    use af_dsp::telephony::DTMF;
    use af_dsp::tone::tone_pair;
    let mut ok = 0;
    let mut total = 0;
    for def in DTMF {
        total += 1;
        let ulaw = tone_pair(def.spec, 8000.0, 480, 16);
        let pcm: Vec<i16> = ulaw
            .iter()
            .map(|&b| af_dsp::g711::ulaw_to_linear(b))
            .collect();
        let mut det = DtmfDetector::new(8000.0);
        let mut stream = pcm;
        stream.extend(std::iter::repeat_n(0i16, 800));
        let hit = det
            .feed(&stream)
            .iter()
            .any(|e| matches!(e, DtmfEvent::KeyDown(d) if def.name.starts_with(*d)));
        if hit {
            ok += 1;
        } else {
            println!("FAILED to decode {}", def.name);
        }
    }
    println!("all 16 DTMF tone pairs synthesized and decoded: {ok}/{total}\n");
    (ok, total)
}

/// Aggregate play throughput with 8 concurrent clients spread round-robin
/// over 1 and 4 devices.
///
/// Every client loops `get_time` + mixing `play_samples` of 8 KB, so each
/// iteration is two handler runs and one chunk of DSP work, all on the
/// one reactor thread.  The report records
/// `cpu_cores`: the eight client threads compete with the reactor for
/// them, so the figure depends on how many there are.
/// Returns (devices, aggregate MB/s) rows.  The wall-clock aggregate is
/// recorded for context, not gated: on a 1-core host it measures scheduler
/// interleaving, not kernel work.
fn multi_device_section(settings: Settings) -> Vec<(usize, f64)> {
    println!(
        "## Multi-device throughput — {MULTI_CLIENTS} clients, {MULTI_CHUNK} B mixing plays \
         (cpu_cores = {})\n",
        cpu_cores()
    );
    println!("| devices | aggregate (MB/s) |");
    println!("|---|---|");
    let iters: u32 = if settings.smoke { 50 } else { 600 };
    let mut rows = Vec::new();
    for &devices in &[1usize, 4] {
        let rig = Rig::start_multi(Transport::Tcp, devices, false);
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..MULTI_CLIENTS)
            .map(|i| {
                let name = rig.conn_name.clone();
                let device = (i % devices) as u8;
                std::thread::spawn(move || {
                    let mut conn = AudioConn::open(&name).expect("connect");
                    let ac = conn
                        .create_ac(device, AcMask::default(), &AcAttributes::default())
                        .expect("create ac");
                    let data = vec![0x31u8; MULTI_CHUNK];
                    for _ in 0..iters {
                        let now = conn.get_time(device).expect("get_time");
                        conn.play_samples(&ac, now + 8000u32, &data).expect("play");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        let elapsed = start.elapsed().as_secs_f64();
        let bytes = MULTI_CLIENTS * iters as usize * MULTI_CHUNK;
        let mb_s = bytes as f64 / elapsed / 1e6;
        println!("| {devices} | {mb_s:.1} |");
        rows.push((devices, mb_s));
        rig.server.shutdown();
    }
    println!();
    rows
}
