//! `compare` — the CI bench-regression gate.
//!
//! Diffs a candidate `BENCH_report.json` against the checked-in baseline
//! and exits non-zero when any kernel or transport metric regresses by
//! more than the tolerance (default 15 %).  Run with:
//!
//! ```text
//! cargo run --release -p bench --bin compare -- BASELINE.json CANDIDATE.json [--tolerance 15]
//! ```
//!
//! Metrics where higher is better: per-path `kernels_v2` `mb_s`,
//! `throughput_kbs`.  Metrics where lower is better:
//! per-path `kernels_v2` `cycles_per_byte`, Figure 10 `get_time_us`, the
//! Figure 11/12/13 latency sweeps (compared by series mean, which resists
//! per-point timer noise), and Table 12 `loop_ms`.  Table 7's
//! `decoded_fraction` (higher is better) is deterministic and gates
//! cross-mode like the scaling sections' sustained flags.  The `multi_device`
//! section's wall-clock `aggregate_mb_s` stays in the report but is
//! deliberately not gated — on a 1-core host it measures scheduler
//! interleaving, not kernel work.  Scaling sections gate
//! their deterministic outcomes everywhere (`reactor_scaling`'s sustained
//! fraction, `fanout_scaling`'s per-level sustained flags) and their
//! duration-sensitive rates only same-mode.  Metrics present in only one
//! report are noted but never fail the gate, so the schema can grow
//! without breaking older baselines.
//!
//! **Cross-mode runs.**  When the two reports' `"mode"` fields differ
//! (CI compares a `--smoke` candidate against the checked-in full
//! baseline), the tolerance floor rises to 50 % to keep the gate honest
//! on a shared 1-core runner: a short smoke run against an idle
//! full-length baseline measures load variance below that, and the gate's
//! cross-mode job is catching catastrophic (≥ 2×) regressions.  The
//! scaling sections' duration-sensitive rows are skipped.  Same-mode
//! comparisons keep the tight default.

use bench::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

// --- Metric extraction ---------------------------------------------------

/// Direction of improvement for a metric.
#[derive(Clone, Copy, PartialEq)]
enum Better {
    Higher,
    Lower,
}

/// Flattens a report into named scalar metrics with their direction.
fn metrics(report: &Json) -> BTreeMap<String, (f64, Better)> {
    let mut out = BTreeMap::new();

    if let Some(rows) = report.get("kernels_v2").and_then(Json::as_arr) {
        for k in rows {
            let (Some(name), Some(path), Some(bytes)) = (
                k.get("kernel").and_then(Json::as_str),
                k.get("path").and_then(Json::as_str),
                k.get("bytes").and_then(Json::as_f64),
            ) else {
                continue;
            };
            if let Some(v) = k.get("mb_s").and_then(Json::as_f64) {
                out.insert(
                    format!("kernel_v2/{name}/{path}/{bytes}B mb_s"),
                    (v, Better::Higher),
                );
            }
            if let Some(v) = k.get("cycles_per_byte").and_then(Json::as_f64) {
                out.insert(
                    format!("kernel_v2/{name}/{path}/{bytes}B cycles_per_byte"),
                    (v, Better::Lower),
                );
            }
        }
    }

    if let Some(thr) = report.get("throughput_kbs").and_then(Json::as_obj) {
        for (config, row) in thr {
            if let Some(fields) = row.as_obj() {
                for (metric, v) in fields {
                    if let Some(v) = v.as_f64() {
                        out.insert(format!("throughput/{config}/{metric}"), (v, Better::Higher));
                    }
                }
            }
        }
    }

    if let Some(f10) = report.get("figure10_get_time_us").and_then(Json::as_obj) {
        for (config, v) in f10 {
            if let Some(v) = v.as_f64() {
                out.insert(format!("figure10/{config}/get_time_us"), (v, Better::Lower));
            }
        }
    }

    for (key, label) in [
        ("figure11_record_us", "figure11/record_us"),
        ("figure12_preempt_play_us", "figure12/preempt_play_us"),
        ("figure13_mix_play_us", "figure13/mix_play_us"),
    ] {
        if let Some(series) = report.get(key).and_then(Json::as_obj) {
            for (config, row) in series {
                let Some(vals) = row.as_arr() else { continue };
                let nums: Vec<f64> = vals.iter().filter_map(Json::as_f64).collect();
                if nums.is_empty() {
                    continue;
                }
                let mean = nums.iter().sum::<f64>() / nums.len() as f64;
                out.insert(format!("{label}/{config}/mean"), (mean, Better::Lower));
            }
        }
    }

    if let Some(loops) = report.get("table12_loop_ms").and_then(Json::as_obj) {
        for (config, v) in loops {
            if let Some(v) = v.as_f64() {
                out.insert(format!("table12/{config}/loop_ms"), (v, Better::Lower));
            }
        }
    }

    if let Some(t7) = report.get("table7_dtmf") {
        let field = |k| t7.get(k).and_then(Json::as_f64);
        if let (Some(decoded), Some(total)) = (field("decoded"), field("total")) {
            out.insert(
                "table7/decoded_fraction".to_owned(),
                (decoded / total, Better::Higher),
            );
        }
    }

    if let Some(fanout) = report.get("fanout_scaling") {
        if let Some(rows) = fanout.get("rows").and_then(Json::as_arr) {
            for row in rows {
                let Some(n) = row.get("listeners").and_then(Json::as_f64) else {
                    continue;
                };
                // Sustained is deterministic (no evictions, no protocol
                // errors, every listener drained the full stream), so it
                // gates even cross-mode.
                if let Some(Json::Bool(s)) = row.get("sustained") {
                    out.insert(
                        format!("fanout_scaling/{n}lis/sustained"),
                        (if *s { 1.0 } else { 0.0 }, Better::Higher),
                    );
                }
                // Pipeline throughput is duration-sensitive; the
                // `fanout_scaling_rows/` prefix opts it out of cross-mode
                // comparisons like the reactor rows.
                if let Some(v) = row.get("fanout_mb_s").and_then(Json::as_f64) {
                    out.insert(
                        format!("fanout_scaling_rows/{n}lis/fanout_mb_s"),
                        (v, Better::Higher),
                    );
                }
            }
        }
    }

    if let Some(scaling) = report.get("reactor_scaling") {
        // The headline: what fraction of load levels the server sustained.
        if let Some(v) = scaling.get("sustained_fraction").and_then(Json::as_f64) {
            out.insert(
                "reactor_scaling/sustained_fraction".to_owned(),
                (v, Better::Higher),
            );
        }
        // Per-level throughput under paced load.  These rows live under a
        // distinct prefix so the cross-mode gate can skip them: smoke and
        // full runs use different durations, and short runs amortize
        // connection setup differently.
        if let Some(rows) = scaling.get("rows").and_then(Json::as_arr) {
            for row in rows {
                let (Some(transport), Some(conns)) = (
                    row.get("transport").and_then(Json::as_str),
                    row.get("connections").and_then(Json::as_f64),
                ) else {
                    continue;
                };
                if let Some(v) = row.get("achieved_rps").and_then(Json::as_f64) {
                    out.insert(
                        format!("reactor_scaling_rows/{transport}/{conns}conn/achieved_rps"),
                        (v, Better::Higher),
                    );
                }
            }
        }
    }

    out
}

// --- Gate ----------------------------------------------------------------

/// How far `cand` fell behind `base`, as a fraction of `base`: positive is
/// a regression in the metric's `better` direction.
fn regression(base: f64, cand: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (base - cand) / base,
        Better::Lower => (cand - base) / base,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance_pct = 15.0f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tolerance" {
            let Some(v) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("--tolerance needs a numeric percentage");
                return ExitCode::from(2);
            };
            tolerance_pct = v;
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: compare BASELINE.json CANDIDATE.json [--tolerance PCT]");
        return ExitCode::from(2);
    }

    let (baseline, candidate) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let base_mode = baseline.get("mode").and_then(Json::as_str).unwrap_or("?");
    let cand_mode = candidate.get("mode").and_then(Json::as_str).unwrap_or("?");
    let cross_mode = base_mode != cand_mode;
    if cross_mode {
        // See the module docs: cross-mode comparisons gate only
        // catastrophic regressions and skip duration-structural metrics.
        tolerance_pct = tolerance_pct.max(50.0);
    }
    println!(
        "bench gate: baseline={} ({base_mode}) candidate={} ({cand_mode}) tolerance={tolerance_pct}%",
        paths[0], paths[1]
    );

    let base = metrics(&baseline);
    let cand = metrics(&candidate);

    let mut failures = 0u32;
    let mut compared = 0u32;
    for (name, &(b, better)) in &base {
        if cross_mode
            && (name.starts_with("reactor_scaling_rows/")
                || name.starts_with("fanout_scaling_rows/"))
        {
            continue;
        }
        let Some(&(c, _)) = cand.get(name) else {
            println!("  MISSING  {name} (in baseline only — not gated)");
            continue;
        };
        compared += 1;
        let regression = regression(b, c, better);
        if regression * 100.0 > tolerance_pct {
            failures += 1;
            println!(
                "  FAIL     {name}: baseline {b:.3} -> candidate {c:.3} ({:+.1}% regression)",
                regression * 100.0
            );
        }
    }
    for name in cand.keys() {
        if !base.contains_key(name) {
            println!("  NEW      {name} (no baseline — not gated)");
        }
    }

    println!("compared {compared} metrics, {failures} regressed beyond {tolerance_pct}%");
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        println!("bench gate passed");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_report_shapes() {
        let v = Json::parse(
            r#"{"schema": "audiofile-bench-report/1", "mode": "full",
                "kernels_v2": [{"kernel": "convert_decode", "path": "simd-avx2", "bytes": 65536,
                                "mb_s": 7000.0, "cycles_per_byte": 0.4}],
                "throughput_kbs": {"tcp": {"record_kbs": 5.0}},
                "figure10_get_time_us": {"tcp": 10.0},
                "figure11_record_us": {"tcp": [1.0, 3.0]},
                "table12_loop_ms": {"tcp": 0.5},
                "multi_device": {"rows": [{"devices": 4, "aggregate_mb_s": 9.0}]}}"#,
        )
        .unwrap();
        let m = metrics(&v);
        assert_eq!(m["kernel_v2/convert_decode/simd-avx2/65536B mb_s"].0, 7000.0);
        assert!(m["kernel_v2/convert_decode/simd-avx2/65536B cycles_per_byte"].1 == Better::Lower);
        assert_eq!(m["throughput/tcp/record_kbs"].0, 5.0);
        assert_eq!(m["figure11/record_us/tcp/mean"].0, 2.0);
        // Wall-clock multi-device MB/s is reported, not gated.
        assert!(m.keys().all(|k| !k.contains("multi_device")));
    }

    #[test]
    fn extracts_reactor_scaling_metrics() {
        let v = Json::parse(
            r#"{"mode": "full", "reactor_scaling": {"mode": "full", "sustained_fraction": 0.857,
                "rows": [
                  {"transport": "reactor", "connections": 5000, "achieved_rps": 8323.0, "sustained": true}]}}"#,
        )
        .unwrap();
        let m = metrics(&v);
        assert_eq!(m["reactor_scaling/sustained_fraction"].0, 0.857);
        assert!(m["reactor_scaling/sustained_fraction"].1 == Better::Higher);
        assert_eq!(
            m["reactor_scaling_rows/reactor/5000conn/achieved_rps"].0,
            8323.0
        );
    }

    #[test]
    fn extracts_fanout_scaling_metrics() {
        let v = Json::parse(
            r#"{"mode": "full", "fanout_scaling": {"mode": "full", "encode_flatness": 1.391,
                "rows": [
                  {"listeners": 1, "fanout_mb_s": 2.6, "sustained": true},
                  {"listeners": 512, "fanout_mb_s": 1027.3, "sustained": false}]}}"#,
        )
        .unwrap();
        let m = metrics(&v);
        assert_eq!(m["fanout_scaling/1lis/sustained"].0, 1.0);
        assert_eq!(m["fanout_scaling/512lis/sustained"].0, 0.0);
        assert_eq!(m["fanout_scaling_rows/512lis/fanout_mb_s"].0, 1027.3);
        assert!(m["fanout_scaling_rows/512lis/fanout_mb_s"].1 == Better::Higher);
    }

    #[test]
    fn detects_regressions_both_directions() {
        let base = Json::parse(r#"{"figure10_get_time_us": {"tcp": 10.0}, "throughput_kbs": {"tcp": {"record_kbs": 100.0}}}"#).unwrap();
        let b = metrics(&base);
        // Latency up 20% regresses; throughput down 20% regresses.
        let worse = Json::parse(r#"{"figure10_get_time_us": {"tcp": 12.0}, "throughput_kbs": {"tcp": {"record_kbs": 80.0}}}"#).unwrap();
        let w = metrics(&worse);
        for (name, &(bv, better)) in &b {
            let regressed = regression(bv, w[name].0, better);
            assert!(regressed * 100.0 > 15.0, "{name} should regress");
            assert!(regression(bv, bv, better) == 0.0, "{name} unchanged");
        }
    }

    #[test]
    fn table7_gates_its_decoded_fraction() {
        let v = Json::parse(r#"{"table7_dtmf": {"decoded": 12, "total": 16}}"#).unwrap();
        let (fraction, better) = metrics(&v)["table7/decoded_fraction"];
        assert_eq!(fraction, 0.75);
        assert!(better == Better::Higher);
    }

    #[test]
    fn the_checked_in_report_yields_every_gated_metric() {
        let report = Json::parse(include_str!("../../../../BENCH_report.json")).unwrap();
        let m = metrics(&report);
        // 28 kernel rows × 2 (`gain` at both sizes among them), 3 × (3
        // throughput + Figure 10 + 3 sweeps + Table 12), Table 7, 4 fan-out
        // levels × 2, reactor fraction + 5 levels.
        assert_eq!(m.len(), 56 + 24 + 1 + 8 + 6, "{:?}", m.keys());
        assert_eq!(m["table7/decoded_fraction"].0, 1.0);
        assert!(m["kernel_v2/gain/kernel/65536B cycles_per_byte"].0 > 0.0);
    }
}
