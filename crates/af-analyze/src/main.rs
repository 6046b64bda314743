//! The `af-analyze` binary: run every project lint over the workspace.
//!
//! Usage: `cargo run -p af-analyze [--] [workspace-root]`.  With no
//! argument the workspace root is found by walking up from the current
//! directory to the first `Cargo.toml` declaring `[workspace]`.  Exit
//! status is 0 when the tree is clean, 1 when any finding remains, 2 on
//! usage/IO errors — CI treats nonzero as a failed gate.
//!
//! Per-lint wall-clock timings are printed after the run and guarded: a
//! single lint (or the shared index/call-graph build) exceeding
//! [`LINT_BUDGET`] fails the run even on a clean tree, so an
//! accidentally quadratic lint cannot quietly make every CI push slow.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Per-lint wall-clock budget.
const LINT_BUDGET: Duration = Duration::from_secs(10);

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => match find_workspace_root() {
            Some(root) => root,
            None => {
                eprintln!("af-analyze: no workspace root found (run from inside the repo)");
                return ExitCode::from(2);
            }
        },
    };
    let files = match af_analyze::load_tree(&root) {
        Ok(files) => files,
        Err(err) => {
            eprintln!("af-analyze: {err}");
            return ExitCode::from(2);
        }
    };
    let (findings, timings) = af_analyze::analyze_files_timed(&files);
    for t in &timings {
        println!("af-analyze: timing {:<20} {:>8.1?}", t.name, t.duration);
    }
    let over_budget: Vec<_> = timings
        .iter()
        .filter(|t| t.duration > LINT_BUDGET)
        .collect();
    for t in &over_budget {
        println!(
            "af-analyze: lint `{}` took {:.1?}, over the {:?} budget",
            t.name, t.duration, LINT_BUDGET
        );
    }
    if findings.is_empty() && over_budget.is_empty() {
        println!(
            "af-analyze: clean ({} lints over {})",
            af_analyze::LINT_NAMES.len(),
            root.display()
        );
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        println!("{finding}");
    }
    println!(
        "af-analyze: {} finding(s), {} lint(s) over time budget",
        findings.len(),
        over_budget.len()
    );
    ExitCode::FAILURE
}

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
