//! The parent process: checks that pinning is possible, runs every round of
//! every workload as a child under `taskset`, aggregates rounds into
//! medians, prints every metric and writes the result JSON.

use crate::json::Json;
use crate::metrics::{self, MetricDef};
use crate::procstat;
use crate::stats::{self, Rounds};
use crate::workload::{Workload, PLAY_FRAMES, RECORD_BYTES};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Sockets and span files go here, relative to the working directory.
pub const RUN_DIR: &str = ".e2e_run";
/// Untraced rounds per workload; every end-to-end metric is their median,
/// so one bad round (a stall, a noisy second) does not decide the result.
const ROUNDS: u32 = 5;
/// Pairs of (untraced, traced) rounds in the traced run.
const TRACE_ROUNDS: u32 = 3;
/// Seconds one run measures when `--seconds` is not given: five 3 s windows.
const DEFAULT_SECONDS: u64 = 15;
const SMOKE_WINDOW_MS: u64 = 1_000;
/// The traced run fails when the thread families' CPU, plus the time the
/// hypervisor withheld the CPU from the whole machine, explains less of an
/// op's wall time than this: then the budget is not a budget.
const MIN_ACCOUNTED_SHARE: f64 = 0.90;

pub struct Plan {
    pub seed: u64,
    pub seconds: Option<u64>,
    pub smoke: bool,
    pub workloads: Vec<Workload>,
    pub untraced: bool,
    pub traced: bool,
    /// End stdout with the driver's result object for the one workload.
    pub driver_line: bool,
    pub out: Option<PathBuf>,
    /// Prefix of the span files; `<prefix><workload>.tsv`.
    pub trace_out: Option<PathBuf>,
}

struct Env {
    nproc: u64,
    cpus_allowed: String,
    pinned_cpu: u32,
    kernel_release: String,
}

/// Never falls back to an unpinned run: without `taskset`, or without a
/// readable CPU list, there is no benchmark.
fn probe_env() -> Result<Env, String> {
    let cpus_allowed = procstat::status_field("Cpus_allowed_list")
        .ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    let pinned_cpu = *procstat::parse_cpu_list(&cpus_allowed)
        .ok_or_else(|| format!("cannot parse Cpus_allowed_list {cpus_allowed:?}"))?
        .first()
        .ok_or("no CPU allowed")?;
    Command::new("taskset")
        .arg("--version")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("taskset is needed to pin the children and cannot be run: {e}"))?;
    Ok(Env {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        cpus_allowed,
        pinned_cpu,
        kernel_release: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
    })
}

/// Runs this executable as a child pinned to the chosen CPU, waits for it,
/// and parses the JSON object on the last line of its output.
fn run_child(env: &Env, what: &str, args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new("taskset")
        .arg("-c")
        .arg(env.pinned_cpu.to_string())
        .arg(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{what}: cannot run child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what}: child failed with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{what}: child printed nothing"))?;
    Json::parse(line).map_err(|e| format!("{what}: bad child output: {e}"))
}

fn metric_of(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.as_f64()
}

fn over_rounds(results: &[Json], name: &str) -> Option<Rounds> {
    let values: Vec<f64> = results.iter().filter_map(|r| metric_of(r, name)).collect();
    stats::over_rounds(&values)
}

/// One workload's result for one kind of run, in the driver's terms.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricDef, Option<Rounds>)>,
    rounds: usize,
    /// Machine stalls the children saw (ops slower than 20 ms).
    stalls: u64,
    /// Fewest latency samples any round had, and the highest percentile
    /// that many samples support.
    min_samples: u64,
    /// Per mille.
    top_percentile: Option<u32>,
    first_error: Option<String>,
}

impl Outcome {
    fn new(results: &[Json], metrics: Vec<(MetricDef, Option<Rounds>)>) -> Outcome {
        let count = |key: &str| -> u64 {
            let sum: f64 = results.iter().filter_map(|r| r.get(key)?.as_f64()).sum();
            sum as u64
        };
        let min_samples = results
            .iter()
            .filter_map(|r| r.get("samples")?.as_f64())
            .fold(f64::INFINITY, f64::min);
        let min_samples = if min_samples.is_finite() {
            min_samples as u64
        } else {
            0
        };
        let prechecks_ok = results
            .iter()
            .all(|r| r.get("precheck_ok").and_then(Json::as_bool) == Some(true));
        let failed = count("failed");
        Outcome {
            correct: !results.is_empty() && prechecks_ok && failed == 0,
            attempted: count("attempted"),
            failed,
            metrics,
            rounds: results.len(),
            stalls: count("stalls"),
            min_samples,
            top_percentile: stats::highest_supported_percentile(min_samples as usize),
            first_error: results
                .iter()
                .find_map(|r| r.get("first_error")?.as_str().map(str::to_string)),
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .and_then(|(_, r)| r.map(|r| r.median))
    }

    fn print(&self, workload: Workload, kind: &str) {
        println!(
            "# {} {kind}: correct={} attempted={} failed={} rounds={} stalls={} samples/round>={} (supports p{})",
            workload.name(),
            self.correct,
            self.attempted,
            self.failed,
            self.rounds,
            self.stalls,
            self.min_samples,
            self.top_percentile
                .map_or("-".into(), |pm| (f64::from(pm) / 10.0).to_string()),
        );
        if let Some(e) = &self.first_error {
            println!("#   first error: {e}");
        }
        for (m, r) in &self.metrics {
            match r {
                Some(r) => println!(
                    "{:<15} {:<40} {:>14.4} {:<6} min {:.4} max {:.4}",
                    workload.name(),
                    m.name,
                    r.median,
                    m.unit,
                    r.min,
                    r.max
                ),
                None => println!(
                    "{:<15} {:<40} {:>14} {:<6}",
                    workload.name(),
                    m.name,
                    "unavailable",
                    m.unit
                ),
            }
        }
    }

    /// The object the driver reads.  It wants every metric present, so one
    /// the OS could not supply is written as −1, never as a fake zero.
    fn driver_object(&self) -> Json {
        let mut metrics = Json::obj();
        for (m, r) in &self.metrics {
            let mut entry = Json::obj();
            entry
                .set("value", r.map_or(-1.0, |r| r.median))
                .set("unit", m.unit);
            metrics.set(&m.name, entry);
        }
        let mut out = Json::obj();
        out.set("correct", self.correct)
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics);
        out
    }

    /// The same with the spread over rounds, for `--out` and `--agree`.
    fn report_object(&self) -> Json {
        let mut metrics = Json::obj();
        for (m, r) in &self.metrics {
            let mut entry = Json::obj();
            entry
                .set("value", r.map(|r| r.median))
                .set("unit", m.unit)
                .set("min", r.map(|r| r.min))
                .set("max", r.map(|r| r.max));
            metrics.set(&m.name, entry);
        }
        let mut out = Json::obj();
        out.set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("rounds", self.rounds as u64)
            .set("machine_stalls", self.stalls)
            .set("samples_per_round_min", self.min_samples)
            .set("metrics", metrics);
        if let Some(e) = &self.first_error {
            out.set("first_error", e.as_str());
        }
        out
    }
}

/// Dispatcher CPU per op that the layer calls account for: the requests it
/// decodes, the samples it converts, attenuates and writes or reads, and
/// the reply it encodes.  What is left of `dispatcher.cpu_us_per_op` is
/// overhead no layer call explains.
fn dispatcher_explained_us(workload: Workload, layers: &Json) -> Option<f64> {
    let ns = |name: &str| metric_of(layers, name);
    let small_request = ns("proto.get_time_req_decode_ns")?;
    let time_reply = ns("proto.time_reply_encode_ns")?;
    let play = |lin16_bytes: f64, gain: bool| -> Option<f64> {
        let ulaw_bytes = lin16_bytes / 2.0;
        let gain_ns = if gain {
            ulaw_bytes * ns("dsp.gain_ulaw_ns_per_byte")?
        } else {
            0.0
        };
        Some(
            lin16_bytes / 8_192.0 * ns("proto.play_8k_req_decode_ns")?
                + lin16_bytes * ns("dsp.convert_lin16_ulaw_ns_per_byte")?
                + gain_ns
                + ulaw_bytes * ns("buffer.write_play_mix_ns_per_byte")?
                + time_reply,
        )
    };
    let record = || -> Option<f64> {
        Some(
            small_request
                + RECORD_BYTES as f64 * ns("buffer.read_rec_ns_per_byte")?
                + ns("proto.record_8k_reply_encode_ns")?,
        )
    };
    let total_ns = match workload {
        Workload::CtlPing => small_request + time_reply,
        Workload::PlayMixLin16 => play((PLAY_FRAMES * 2) as f64, true)?,
        Workload::Record8k => record()?,
        // The relay plays back what it recorded as LIN16 at 0 dB.
        Workload::RelayResample => record()? + play((RECORD_BYTES * 2) as f64, false)?,
    };
    Some(total_ns / 1e3)
}

fn child_args(
    plan: &Plan,
    workload: Workload,
    window_ms: u64,
    spans: Option<&Path>,
) -> Vec<String> {
    let mut args: Vec<String> = ["--child", "run", "--workload", workload.name()]
        .map(String::from)
        .to_vec();
    args.extend(["--seed".into(), plan.seed.to_string()]);
    args.extend(["--window-ms".into(), window_ms.to_string()]);
    if plan.smoke {
        args.push("--smoke".into());
    }
    if let Some(path) = spans {
        args.extend(["--spans".into(), path.display().to_string()]);
    }
    args
}

pub fn run(plan: &Plan) -> Result<bool, String> {
    let env = probe_env()?;
    let (rounds, trace_rounds, window_ms) = if plan.smoke {
        (1, 1, SMOKE_WINDOW_MS)
    } else {
        let seconds = plan.seconds.unwrap_or(DEFAULT_SECONDS);
        (ROUNDS, TRACE_ROUNDS, seconds * 1_000 / u64::from(ROUNDS))
    };
    if window_ms == 0 {
        return Err("--seconds is too short for the rounds".into());
    }
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    let n = plan.workloads.len();
    let what = |w: Workload, kind: &str, r: u32| format!("{} {kind} round {r}", w.name());

    // Rounds are interleaved: every workload once per round, in a fixed
    // order, so a slow phase of the machine costs one round of each
    // workload and not every round of one.
    let mut untraced: Vec<Vec<Json>> = vec![Vec::new(); n];
    if plan.untraced {
        for r in 0..rounds {
            for (i, &w) in plan.workloads.iter().enumerate() {
                let args = child_args(plan, w, window_ms, None);
                untraced[i].push(run_child(&env, &what(w, "untraced", r), &args)?);
            }
        }
    }
    let mut paired: Vec<Vec<Json>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<Json>> = vec![Vec::new(); n];
    let mut layers = None;
    if plan.traced {
        for r in 0..trace_rounds {
            for (i, &w) in plan.workloads.iter().enumerate() {
                let spans = match &plan.trace_out {
                    Some(prefix) => format!("{}{}.tsv", prefix.display(), w.name()),
                    None => format!("{RUN_DIR}/spans-{}.tsv", w.name()),
                };
                let args = child_args(plan, w, window_ms, None);
                paired[i].push(run_child(&env, &what(w, "untraced (paired)", r), &args)?);
                let args = child_args(plan, w, window_ms, Some(Path::new(&spans)));
                traced[i].push(run_child(&env, &what(w, "traced", r), &args)?);
            }
        }
        let args = ["--child", "layers", "--seed", &plan.seed.to_string()].map(String::from);
        layers = Some(run_child(&env, "layer calls", &args)?);
    }

    let mut ok = true;
    let mut report = Json::obj();
    let mut last_driver_object = None;
    // Every child reports these; any one will do.
    let from_any_child = |key: &str| -> String {
        [&untraced, &paired, &traced]
            .into_iter()
            .flatten()
            .flatten()
            .find_map(|r| r.get(key)?.as_str())
            .unwrap_or_default()
            .to_string()
    };
    for (i, &w) in plan.workloads.iter().enumerate() {
        let mut entry = Json::obj();
        entry.set("transport", w.transport());
        if plan.untraced {
            let metrics = metrics::end_to_end()
                .into_iter()
                .map(|m| {
                    let r = over_rounds(&untraced[i], &m.name);
                    (m, r)
                })
                .collect();
            let outcome = Outcome::new(&untraced[i], metrics);
            outcome.print(w, "end to end (untraced)");
            if !plan.smoke && outcome.top_percentile.is_none_or(|pm| pm < 990) {
                eprintln!("e2e: {}: too few samples per round for p99", w.name());
                ok = false;
            }
            ok &= outcome.correct;
            entry.set("end_to_end", outcome.report_object());
            last_driver_object = Some(outcome.driver_object());
        }
        if let Some(layers) = &layers {
            let untraced_ops = over_rounds(&paired[i], "ops_per_s").map(|r| r.median);
            let traced_ops = over_rounds(&traced[i], "ops_per_s").map(|r| r.median);
            let constant = |v: Option<f64>| {
                v.map(|v| Rounds {
                    median: v,
                    min: v,
                    max: v,
                })
            };
            let metrics = metrics::per_layer()
                .into_iter()
                .map(|m| {
                    let r = match m.name.as_str() {
                        "trace_overhead_pct" => constant(
                            untraced_ops
                                .zip(traced_ops)
                                .map(|(u, t)| (u - t) / u * 100.0),
                        ),
                        "dispatcher.unexplained_us_per_op" => constant(
                            over_rounds(&traced[i], "dispatcher.cpu_us_per_op")
                                .zip(dispatcher_explained_us(w, layers))
                                .map(|(cpu, explained)| cpu.median - explained),
                        ),
                        // What a user sees comes from untraced rounds, always.
                        name @ ("op_latency_p99_us" | "wall.ops_per_s" | "machine.speed") => {
                            over_rounds(&paired[i], name)
                        }
                        name if metric_of(layers, name).is_some() => {
                            constant(metric_of(layers, name))
                        }
                        name => over_rounds(&traced[i], name),
                    };
                    (m, r)
                })
                .collect();
            let outcome = Outcome::new(&traced[i], metrics);
            outcome.print(w, "per layer (traced)");
            ok &= outcome.correct;
            let stolen = outcome.value("machine.steal_share").unwrap_or(0.0);
            match outcome.value("accounted_share") {
                Some(share) if share + stolen >= MIN_ACCOUNTED_SHARE => {}
                share => {
                    eprintln!(
                        "e2e: {}: thread families account for {share:?} of an op and steal for \
                         {stolen}, together below {MIN_ACCOUNTED_SHARE}",
                        w.name()
                    );
                    // A smoke run checks plumbing and outputs, not the machine.
                    ok &= plan.smoke;
                }
            }
            entry.set("per_layer", outcome.report_object());
            last_driver_object = Some(outcome.driver_object());
        }
        report.set(w.name(), entry);
    }

    let mut env_json = Json::obj();
    env_json
        .set("nproc", env.nproc)
        .set("cpus_allowed", env.cpus_allowed.as_str())
        .set("pinned_cpu", u64::from(env.pinned_cpu))
        .set("kernel_release", env.kernel_release.as_str())
        .set("dsp_kernels", from_any_child("dsp_kernels"))
        .set("accounting_source", from_any_child("accounting_source"))
        .set("rounds", u64::from(rounds))
        .set("window_s", window_ms as f64 / 1e3)
        .set("warmup_s", crate::child::WARMUP.as_secs_f64())
        .set("loop", "closed, 1 connection, client and server on one CPU");
    println!("# env: {}", env_json.to_line());
    let mut doc = Json::obj();
    doc.set("benchmark", "e2e")
        .set("seed", plan.seed)
        .set("ok", ok)
        .set("env", env_json)
        .set("workloads", report);
    if let Some(path) = &plan.out {
        std::fs::write(path, doc.to_line() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    match (plan.driver_line, last_driver_object) {
        (true, Some(object)) => println!("{}", object.to_line()),
        _ => println!("{}", doc.to_line()),
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child_result(ops_per_s: f64, failed: u64, precheck_ok: bool) -> Json {
        let mut m = Json::obj();
        m.set("ops_per_s", ops_per_s);
        let mut r = Json::obj();
        r.set("attempted", 1000u64)
            .set("failed", failed)
            .set("precheck_ok", precheck_ok)
            .set("samples", 1000u64)
            .set("metrics", m);
        r
    }

    fn ops_def() -> MetricDef {
        MetricDef {
            name: "ops_per_s".into(),
            unit: "1/s",
            better: metrics::Better::Higher,
        }
    }

    #[test]
    fn rounds_aggregate_to_the_median_and_sum_the_counts() {
        let results: Vec<Json> = [20.4e3, 16.2e3, 20.2e3]
            .iter()
            .map(|&v| child_result(v, 0, true))
            .collect();
        let r = over_rounds(&results, "ops_per_s").expect("present");
        assert_eq!((r.median, r.min, r.max), (20.2e3, 16.2e3, 20.4e3));
        assert_eq!(over_rounds(&results, "absent"), None);
        let outcome = Outcome::new(&results, vec![(ops_def(), Some(r))]);
        assert!(outcome.correct);
        assert_eq!((outcome.attempted, outcome.failed), (3000, 0));
        assert_eq!(outcome.rounds, 3);
        assert_eq!(outcome.top_percentile, Some(990));
        let line = outcome.driver_object().to_line();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3000, "failed": 0, "metrics": {"ops_per_s": {"value": 20200, "unit": "1/s"}}}"#
        );
    }

    #[test]
    fn a_failed_op_or_a_failed_output_check_is_incorrect() {
        let bad_op = [child_result(1.0, 0, true), child_result(1.0, 2, true)];
        let o = Outcome::new(&bad_op, Vec::new());
        assert!(!o.correct);
        assert_eq!(o.failed, 2);
        let bad_check = [child_result(1.0, 0, false)];
        assert!(!Outcome::new(&bad_check, Vec::new()).correct);
        assert!(!Outcome::new(&[], Vec::new()).correct);
    }

    #[test]
    fn unavailable_metrics_are_marked_not_zeroed() {
        let o = Outcome::new(&[child_result(1.0, 0, true)], vec![(ops_def(), None)]);
        let driver = o.driver_object();
        let value = |j: &Json| j.get("metrics")?.get("ops_per_s")?.get("value").cloned();
        assert_eq!(value(&driver), Some(Json::Num(-1.0)));
        assert_eq!(value(&o.report_object()), Some(Json::Null));
    }

    #[test]
    fn dispatcher_budget_uses_the_bytes_each_stage_touches() {
        let mut m = Json::obj();
        for (name, _) in metrics::LAYER_CALLS {
            m.set(name, 1.0);
        }
        let mut layers = Json::obj();
        layers.set("metrics", m);
        // 4 decodes + 32 KB converted + 16 KB attenuated + 16 KB mixed + reply.
        let play = dispatcher_explained_us(Workload::PlayMixLin16, &layers).expect("complete");
        assert_eq!(play, (4.0 + 32_768.0 + 16_384.0 + 16_384.0 + 1.0) / 1e3);
        let ping = dispatcher_explained_us(Workload::CtlPing, &layers).expect("complete");
        assert_eq!(ping, 2.0 / 1e3);
        assert_eq!(
            dispatcher_explained_us(Workload::CtlPing, &Json::obj()),
            None
        );
    }
}
