//! `e2e`: the repository's benchmark.  One client drives the default
//! server in-process over one connection, closed loop, pinned to one CPU,
//! and the per-thread CPU the OS accounts to the server's named threads is
//! budgeted against the end-to-end cost of an op.  See `README.md` beside
//! this package for the metric and workload definitions.
//!
//! ```text
//! e2e [--seed N] [--out FILE] [--smoke]              every workload, untraced rounds then the traced run
//! e2e --workload W --seed N --seconds S --trace 0|1  one workload; last stdout line is the driver's result object
//! e2e --agree A.json B.json [--bounds BENCHMARK.json]
//! ```

mod agree;
mod child;
mod json;
mod layers;
mod metrics;
mod pace;
mod parent;
mod procstat;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Flags and their values, in the order given.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value {v:?} for {name}")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.value("--workload") {
            None if self.flag("--workload") => Err("--workload needs a value".into()),
            None => Ok(None),
            Some(name) => Workload::from_name(name).map(Some).ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; known: {}", known.join(", "))
            }),
        }
    }
}

fn run(args: &Args, t0: Instant) -> Result<bool, String> {
    if let Some(kind) = args.value("--child") {
        let seed = args.parsed("--seed")?.unwrap_or(1);
        let line = match kind {
            "layers" => layers::run(seed)?,
            "run" => child::run(
                &child::ChildArgs {
                    workload: args.workload()?.ok_or("--child run needs --workload")?,
                    seed,
                    window: args
                        .parsed("--window-ms")?
                        .map(Duration::from_millis)
                        .ok_or("--child run needs --window-ms")?,
                    spans_out: args.value("--spans").map(PathBuf::from),
                    smoke: args.flag("--smoke"),
                },
                t0,
            )?,
            other => return Err(format!("unknown --child kind {other:?}")),
        };
        println!("{}", line.to_line());
        return Ok(true);
    }
    if args.flag("--agree") {
        let at = args.0.iter().position(|a| a == "--agree").unwrap_or(0);
        let (Some(a), Some(b)) = (args.0.get(at + 1), args.0.get(at + 2)) else {
            return Err("--agree needs two result files".into());
        };
        let bounds = args.value("--bounds").unwrap_or("BENCHMARK.json");
        return agree::run(a.as_ref(), b.as_ref(), bounds.as_ref());
    }
    let workload = args.workload()?;
    let trace: Option<u8> = args.parsed("--trace")?;
    let plan = parent::Plan {
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args.parsed("--seconds")?,
        smoke: args.flag("--smoke"),
        // Every workload, untraced and traced, unless the driver asks for
        // one workload and one kind of run.
        workloads: workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        untraced: trace != Some(1),
        traced: match trace {
            None => workload.is_none(),
            Some(0) => false,
            Some(1) => true,
            Some(other) => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        driver_line: workload.is_some(),
        out: args.value("--out").map(PathBuf::from),
        trace_out: args.value("--trace-out").map(PathBuf::from),
    };
    parent::run(&plan)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    match run(&Args(std::env::args().skip(1).collect()), t0) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
