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
//! per-point timer noise), and Table 12 `loop_ms`.  The `multi_device`
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

use std::collections::BTreeMap;
use std::process::ExitCode;

// --- Minimal JSON parser -------------------------------------------------
//
// The workspace has no serde; the report format is machine-written by
// `report.rs`, so a small recursive-descent parser over well-formed JSON
// is all the gate needs.

/// A parsed JSON value.
#[derive(Debug, Clone)]
enum Json {
    Null,
    /// Booleans appear in the scaling rows (`sustained`).
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 sequence.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("bad UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

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

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
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
        // Positive change = regression, as a fraction of the baseline.
        let regression = match better {
            Better::Higher => (b - c) / b,
            Better::Lower => (c - b) / b,
        };
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
        let v = parse(
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
        let v = parse(
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
        let v = parse(
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
        let base = parse(r#"{"figure10_get_time_us": {"tcp": 10.0}, "throughput_kbs": {"tcp": {"record_kbs": 100.0}}}"#).unwrap();
        let b = metrics(&base);
        // Latency up 20% regresses; throughput down 20% regresses.
        let worse = parse(r#"{"figure10_get_time_us": {"tcp": 12.0}, "throughput_kbs": {"tcp": {"record_kbs": 80.0}}}"#).unwrap();
        let w = metrics(&worse);
        for (name, &(bv, better)) in &b {
            let (wv, _) = w[name];
            let regression = match better {
                Better::Higher => (bv - wv) / bv,
                Better::Lower => (wv - bv) / bv,
            };
            assert!(regression * 100.0 > 15.0, "{name} should regress");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#"{"aA\n\"": 1}"#).unwrap();
        assert!(v.get("aA\n\"").is_some());
    }
}
