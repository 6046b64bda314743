//! `lock-across-send`: never hold a lock guard across a channel send.
//!
//! A bounded channel send can block (that is the point of backpressure);
//! blocking while holding a mutex turns one slow consumer into a pile-up
//! of every thread that touches the same lock — with the dispatcher in
//! that pile, the whole server stalls.  The rule: finish the locked work,
//! drop the guard, then send.
//!
//! The index already records every call an af-server function makes
//! while a guard of a declared `Mutex`/`RwLock` is live (block scope plus
//! explicit `drop(guard)`); a `send` or `try_send` among them is a
//! finding.

use crate::index::Index;
use crate::lints::is_server_src;
use crate::source::SourceFile;
use crate::Finding;

const LINT: &str = "lock-across-send";

/// Runs the lint.
pub fn run(files: &[SourceFile], index: &Index) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in index.fns.iter().filter(|f| !f.in_test) {
        let file = &files[f.file];
        if !is_server_src(file) {
            continue;
        }
        for held in &f.held_calls {
            let call = &f.calls[held.call];
            if call.name == "send" || call.name == "try_send" {
                findings.push(Finding::at(
                    LINT,
                    file,
                    call.line,
                    format!(
                        "channel `{}` while lock `{}` (taken on line {}) is held; \
                         drop the guard before sending",
                        call.name,
                        held.held.lock,
                        held.held.line + 1
                    ),
                ));
            }
        }
    }
    findings
}
