//! `e2e --agree A.json B.json`: do two result sets agree within the bounds
//! `BENCHMARK.json` fixes?  B is worse than A on a metric when it moved
//! against the metric's direction by more than the bound's share of A.

use crate::json::Json;
use std::path::Path;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds_of(doc: &Json) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .ok_or("no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: match m.get("better")?.as_str()? {
                    "lower" => true,
                    "higher" => false,
                    _ => return None,
                },
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// By what share of `base` `new` is worse (negative when it is better).
fn worse_by(base: f64, new: f64, lower_is_better: bool) -> f64 {
    let change = (new - base) / base;
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Compares every end-to-end metric of every workload in `a` with `b`;
/// returns the lines to print and whether all agree.
fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    let empty = Json::obj();
    let workloads = a.get("workloads").unwrap_or(&empty);
    for (workload, entry_a) in workloads.fields() {
        let e2e = |entry: Option<&Json>| entry.and_then(|e| e.get("end_to_end")).cloned();
        let (Some(ea), Some(eb)) = (
            e2e(Some(entry_a)),
            e2e(b.get("workloads").and_then(|w| w.get(workload))),
        ) else {
            lines.push(format!("{workload}: missing from one result set  EXCESS"));
            ok = false;
            continue;
        };
        // The error rate has no bound: any increase fails.
        let error_rate = |e: &Json| -> Option<f64> {
            Some(e.get("failed")?.as_f64()? / e.get("attempted")?.as_f64()?.max(1.0))
        };
        match (error_rate(&ea), error_rate(&eb)) {
            (Some(ra), Some(rb)) => {
                let verdict = if rb > ra { "EXCESS" } else { "ok" };
                ok &= rb <= ra;
                lines.push(format!(
                    "{workload:<15} {:<24} A {ra} B {rb}  {verdict}",
                    "error_rate"
                ));
            }
            _ => {
                lines.push(format!("{workload:<15} error_rate missing  EXCESS"));
                ok = false;
            }
        }
        for bound in bounds {
            let value = |e: &Json| e.get("metrics")?.get(&bound.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(&ea), value(&eb)) else {
                lines.push(format!("{workload:<15} {:<24} missing  EXCESS", bound.name));
                ok = false;
                continue;
            };
            let worse = worse_by(va, vb, bound.lower_is_better);
            // A ratio that is not a number (a zero base) never agrees.
            let excess = worse.is_nan() || worse > bound.bound;
            ok &= !excess;
            lines.push(format!(
                "{workload:<15} {:<24} B/A {:.4} (A {va:.4}, B {vb:.4})  worse by {:+.2}% of A, bound {:.0}%  {}",
                bound.name,
                vb / va,
                worse * 100.0,
                bound.bound * 100.0,
                if excess { "EXCESS" } else { "ok" }
            ));
        }
    }
    if workloads.fields().is_empty() {
        lines.push("no workloads in the first result set  EXCESS".into());
        ok = false;
    }
    (lines, ok)
}

pub fn run(a: &Path, b: &Path, bounds: &Path) -> Result<bool, String> {
    let bounds = bounds_of(&read(bounds)?)?;
    let (lines, ok) = compare(&read(a)?, &read(b)?, &bounds);
    for line in lines {
        println!("{line}");
    }
    println!("{}", if ok { "agree" } else { "DISAGREE" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ops: f64, p50: f64, failed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"ctl_ping": {{"end_to_end": {{"attempted": 1000, "failed": {failed},
                "metrics": {{"ops_per_s": {{"value": {ops}}}, "op_latency_p50_us": {{"value": {p50}}}}}}}}}}}}}"#
        ))
        .expect("fixture parses")
    }

    fn bounds() -> Vec<Bound> {
        let doc = Json::parse(
            r#"{"end_to_end": [
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "op_latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("fixture parses");
        bounds_of(&doc).expect("well formed")
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(100.0, 89.0, false) - 0.11).abs() < 1e-12);
        assert!((worse_by(100.0, 111.0, false) + 0.11).abs() < 1e-12);
        assert!((worse_by(100.0, 111.0, true) - 0.11).abs() < 1e-12);
    }

    #[test]
    fn within_bounds_agrees_and_any_excess_does_not() {
        let base = result(50_000.0, 18.0, 0);
        assert!(compare(&base, &result(46_000.0, 19.5, 0), &bounds()).1);
        assert!(compare(&base, &result(80_000.0, 9.0, 0), &bounds()).1);
        assert!(!compare(&base, &result(44_000.0, 18.0, 0), &bounds()).1);
        assert!(!compare(&base, &result(50_000.0, 20.0, 0), &bounds()).1);
    }

    #[test]
    fn more_failures_or_missing_data_never_agree() {
        let base = result(50_000.0, 18.0, 0);
        assert!(!compare(&base, &result(50_000.0, 18.0, 1), &bounds()).1);
        assert!(!compare(&base, &Json::obj(), &bounds()).1);
        assert!(!compare(&Json::obj(), &base, &bounds()).1);
        let nan = Json::parse(
            r#"{"workloads": {"ctl_ping": {"end_to_end": {"attempted": 1, "failed": 0,
            "metrics": {"ops_per_s": {"value": null}, "op_latency_p50_us": {"value": 18}}}}}}"#,
        )
        .expect("fixture parses");
        assert!(!compare(&base, &nan, &bounds()).1);
    }
}
