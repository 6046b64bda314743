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
//! to the paper's numbers.

use af_client::{Ac, AcAttributes, AcMask, AudioConn};
use bench::kernels::{run_kernels_v2, KernelV2Measurement};
use bench::{cpu_cores, jsonmerge, sweep_sizes, time_per_iter, Rig, Transport};

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
        if smoke {
            Settings {
                smoke,
                latency_iters: 60,
                data_iters: 20,
            }
        } else {
            Settings {
                smoke,
                latency_iters: 1000,
                data_iters: 300,
            }
        }
    }
}

/// Everything the run measured, in emission order.
struct Report {
    mode: &'static str,
    labels: Vec<&'static str>,
    /// Every kernel on every implementation the host can execute, with the
    /// cycles-per-byte metric the gate compares on.
    kernels_v2: Vec<KernelV2Measurement>,
    /// Figure 10: mean AFGetTime() seconds per configuration.
    get_time: Vec<f64>,
    sizes: Vec<usize>,
    /// Figures 11/12/13: seconds per call, per configuration, per size.
    record: Vec<Vec<f64>>,
    preempt: Vec<Vec<f64>>,
    mix: Vec<Vec<f64>>,
    /// Table 12: open-loop iteration seconds per configuration.
    loop_time: Vec<f64>,
    /// Table 7: decoded / total DTMF pairs.
    dtmf_ok: u32,
    dtmf_total: u32,
    /// Multi-device aggregate play throughput.
    multi_device: Vec<MultiDeviceRow>,
}

/// One multi-device throughput measurement.
struct MultiDeviceRow {
    devices: usize,
    /// Wall-clock aggregate — recorded for context, not gated: on a
    /// 1-core host it measures scheduler interleaving, not kernel work.
    aggregate_mb_s: f64,
}

/// Concurrent clients in the multi-device benchmark.
const MULTI_CLIENTS: usize = 8;
/// Bytes per play request in the multi-device benchmark.
const MULTI_CHUNK: usize = 8192;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_report.json".to_string());
    let settings = Settings::new(smoke);

    let configs = Transport::standard();
    println!("# AudioFile evaluation report (reproducing §10)\n");
    if smoke {
        println!("**smoke mode** — reduced iterations, numbers are sanity checks only\n");
    }
    println!("configurations: unix socket (local), loopback TCP, TCP + 0.5 ms wire\n");

    let kernels_v2 = kernel_v2_section(settings);
    let get_time = figure10(&configs, settings);
    let record = figure11(&configs, settings);
    table10(&configs, &record);
    let preempt = figure12_13(&configs, settings, true);
    let mix = figure12_13(&configs, settings, false);
    table11(&configs, &mix, &preempt);
    let loop_time = table12(&configs, settings);
    let (dtmf_ok, dtmf_total) = table7();
    let multi_device = multi_device_section(settings);

    let report = Report {
        mode: if smoke { "smoke" } else { "full" },
        labels: configs.iter().map(|&(_, l)| l).collect(),
        kernels_v2,
        get_time,
        sizes: sweep_sizes(),
        record,
        preempt,
        mix,
        loop_time,
        dtmf_ok,
        dtmf_total,
        multi_device,
    };
    let json = render_json(&report);
    // Preserve sections owned by sibling binaries (chaos_soak, load,
    // fanout) across the rewrite, so repeated runs in any order converge
    // on one report.
    let merged = match std::fs::read_to_string(&out_path) {
        Ok(existing) => jsonmerge::preserve_missing(&json, &existing),
        Err(_) => json,
    };
    std::fs::write(&out_path, merged).expect("write BENCH_report.json");
    println!("machine-readable report written to {out_path}");
}

fn kernel_v2_section(settings: Settings) -> Vec<KernelV2Measurement> {
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
        for v in &violations {
            eprintln!("report: dispatch regression: {v}");
        }
        std::process::exit(1);
    }
    results
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
    print!("| bytes |");
    for &(_, label) in configs {
        print!(" {label} |");
    }
    println!();
    print!("|---|");
    for _ in configs {
        print!("---|");
    }
    println!();

    let sizes = sweep_sizes();
    let mut all = vec![Vec::new(); configs.len()];
    let mut rigs: Vec<(AudioConn, Ac)> = configs
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
    for &size in &sizes {
        print!("| {size} |");
        for (ci, (conn, ac)) in rigs.iter_mut().enumerate() {
            let iters = sweep_iters(settings, size);
            let s = time_per_iter(iters, || {
                let now = conn.get_time(0).unwrap();
                let start = now - (size as u32 + 8000);
                let (_, data) = conn.record_samples(ac, start, size, false).unwrap();
                assert_eq!(data.len(), size);
            });
            all[ci].push(s);
            print!(" {:.1} µs |", s * 1e6);
        }
        println!();
    }
    println!("\n(the step at 8 KB is the client library's request chunking, §10.1.2)\n");
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
    print!("| bytes |");
    for &(_, label) in configs {
        print!(" {label} |");
    }
    println!();
    print!("|---|");
    for _ in configs {
        print!("---|");
    }
    println!();

    let sizes = sweep_sizes();
    let mut all = vec![Vec::new(); configs.len()];
    let mut rigs: Vec<(AudioConn, Ac)> = configs
        .iter()
        .map(|&(t, _)| {
            let rig = Rig::start(t, false);
            let pair = rig.connect_with_ac(preempt);
            std::mem::forget(rig);
            pair
        })
        .collect();
    let data = vec![0x31u8; 65_536];
    for &size in &sizes {
        print!("| {size} |");
        for (ci, (conn, ac)) in rigs.iter_mut().enumerate() {
            let iters = sweep_iters(settings, size);
            let s = time_per_iter(iters, || {
                let now = conn.get_time(0).unwrap();
                conn.play_samples(ac, now + 8000u32, &data[..size]).unwrap();
            });
            all[ci].push(s);
            print!(" {:.1} µs |", s * 1e6);
        }
        println!();
    }
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
/// iteration takes the dispatch lock twice and does one chunk of DSP work
/// under it.  The report records `cpu_cores`: handlers on different shards
/// contend for the one lock, so the figure depends on how many run at once.
fn multi_device_section(settings: Settings) -> Vec<MultiDeviceRow> {
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
        rows.push(MultiDeviceRow {
            devices,
            aggregate_mb_s: mb_s,
        });
        rig.server.shutdown();
    }
    println!();
    rows
}

// --- JSON emission -------------------------------------------------------
//
// The workspace has no serde; the report's shape is small and fixed, so a
// few formatting helpers keep the output valid without a dependency.

/// Formats a float with enough precision to diff runs, never NaN/inf
/// (which are not JSON).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"label": [...], ...}` for a per-configuration series table.
fn jseries(labels: &[&str], series: &[Vec<f64>], scale: f64) -> String {
    let body: Vec<String> = labels
        .iter()
        .zip(series)
        .map(|(l, row)| {
            let vals: Vec<String> = row.iter().map(|&v| jnum(v * scale)).collect();
            format!("{}: [{}]", jstr(l), vals.join(", "))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `{"label": value, ...}` for a per-configuration scalar table.
fn jscalars(labels: &[&str], vals: &[f64], scale: f64) -> String {
    let body: Vec<String> = labels
        .iter()
        .zip(vals)
        .map(|(l, &v)| format!("{}: {}", jstr(l), jnum(v * scale)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn render_json(r: &Report) -> String {
    let sizes = &r.sizes;
    let labels = &r.labels;
    let sizes_json: Vec<String> = sizes.iter().map(|s| s.to_string()).collect();
    let throughput_rows: Vec<String> = labels
        .iter()
        .enumerate()
        .map(|(ci, l)| {
            format!(
                "    {}: {{\"record_kbs\": {}, \"play_mix_kbs\": {}, \"play_preempt_kbs\": {}}}",
                jstr(l),
                jnum(slope_kbs(sizes, &r.record[ci])),
                jnum(slope_kbs(sizes, &r.mix[ci])),
                jnum(slope_kbs(sizes, &r.preempt[ci]))
            )
        })
        .collect();

    let kernels_v2: Vec<String> = r
        .kernels_v2
        .iter()
        .map(|m| {
            format!(
                "    {{\"kernel\": {}, \"path\": {}, \"bytes\": {}, \"mb_s\": {}, \"cycles_per_byte\": {}}}",
                jstr(m.kernel),
                jstr(m.path),
                m.bytes,
                jnum(m.mb_s),
                jnum(m.cycles_per_byte)
            )
        })
        .collect();

    let multi_rows: Vec<String> = r
        .multi_device
        .iter()
        .map(|row| {
            format!(
                "      {{\"devices\": {}, \"aggregate_mb_s\": {}}}",
                row.devices,
                jnum(row.aggregate_mb_s)
            )
        })
        .collect();

    format!(
        "{{\n  \"schema\": \"audiofile-bench-report/1\",\n  \"mode\": {mode},\n  \
         \"cpu_cores\": {cores},\n  \
         \"configurations\": [{configs}],\n  \
         \"kernels_v2\": [\n{kernels_v2}\n  ],\n  \
         \"figure10_get_time_us\": {get_time},\n  \"sweep_sizes_bytes\": [{sizes}],\n  \
         \"figure11_record_us\": {record},\n  \"figure12_preempt_play_us\": {preempt},\n  \
         \"figure13_mix_play_us\": {mix},\n  \"throughput_kbs\": {{\n{thr}\n  }},\n  \
         \"table12_loop_ms\": {loops},\n  \"table7_dtmf\": {{\"decoded\": {ok}, \"total\": {tot}}},\n  \
         \"multi_device\": {{\n    \"clients\": {mclients},\n    \"chunk_bytes\": {mchunk},\n    \
         \"rows\": [\n{mrows}\n    ]\n  }}\n}}\n",
        mode = jstr(r.mode),
        cores = cpu_cores(),
        mclients = MULTI_CLIENTS,
        mchunk = MULTI_CHUNK,
        mrows = multi_rows.join(",\n"),
        configs = labels
            .iter()
            .map(|l| jstr(l))
            .collect::<Vec<_>>()
            .join(", "),
        kernels_v2 = kernels_v2.join(",\n"),
        get_time = jscalars(labels, &r.get_time, 1e6),
        sizes = sizes_json.join(", "),
        record = jseries(labels, &r.record, 1e6),
        preempt = jseries(labels, &r.preempt, 1e6),
        mix = jseries(labels, &r.mix, 1e6),
        thr = throughput_rows.join(",\n"),
        loops = jscalars(labels, &r.loop_time, 1e3),
        ok = r.dtmf_ok,
        tot = r.dtmf_total,
    )
}
