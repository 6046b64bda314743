//! `no-panics`: server request-handling paths must not be able to panic.
//!
//! A panic in the dispatcher or a shard kills the whole server for every
//! connected client (§7.3.1 has exactly one flow of control).  Fallible
//! cases must surface as protocol errors, disconnects, or degraded audio —
//! never as process death.  Production `af-server` code therefore bans
//! `.unwrap()`, `.expect(...)` and the panicking macros; `#[cfg(test)]`
//! code is exempt.

use crate::lints::{is_link_hot_src, is_server_src, prod_lines};
use crate::source::SourceFile;
use crate::Finding;

const LINT: &str = "no-panics";

/// `(needle, what to say)` — needles are matched against stripped code, so
/// occurrences inside strings/comments do not count.
const PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()` can panic"),
    (".expect(", "`.expect(...)` can panic"),
    ("panic!", "`panic!` aborts the dispatcher"),
    ("unreachable!", "`unreachable!` aborts the dispatcher"),
    ("todo!", "`todo!` aborts the dispatcher"),
    ("unimplemented!", "`unimplemented!` aborts the dispatcher"),
];

/// Runs the lint.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| is_server_src(f) || is_link_hot_src(f)) {
        for i in prod_lines(file) {
            for (needle, why) in PATTERNS {
                if file.code[i].contains(needle) {
                    findings.push(Finding::at(
                        LINT,
                        file,
                        i,
                        format!("{why} on a server path; return an error or degrade instead"),
                    ));
                }
            }
        }
    }
    findings
}
