//! `bounded-channels`: every channel in af-server must have a capacity.
//!
//! Backpressure is part of the design: client outbound deques are bounded
//! with slow-client eviction, the shard mailboxes shed past their bound,
//! and a full queue must stall or shed the *producer*, not grow the heap
//! until the process dies.  The server has no channel today; an unbounded
//! one anywhere in it would silently remove that guarantee, so
//! constructing one is a finding.

use crate::lints::{is_link_hot_src, is_server_src, prod_lines};
use crate::source::SourceFile;
use crate::Finding;

const LINT: &str = "bounded-channels";

/// Runs the lint.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| is_server_src(f) || is_link_hot_src(f)) {
        for i in prod_lines(file) {
            let code = &file.code[i];
            // `unbounded(...)` and the turbofish `unbounded::<T>()` form.
            let called = code
                .find("unbounded")
                .map(|at| code[at + "unbounded".len()..].trim_start())
                .is_some_and(|rest| rest.starts_with('(') || rest.starts_with("::<"));
            if called || code.contains("mpsc::channel(") {
                findings.push(Finding::at(
                    LINT,
                    file,
                    i,
                    "unbounded channel in af-server; use `bounded(n)` so a slow \
                     consumer exerts backpressure instead of growing the heap"
                        .to_owned(),
                ));
            }
        }
    }
    findings
}
