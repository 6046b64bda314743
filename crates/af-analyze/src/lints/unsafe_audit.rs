//! `unsafe-audit`: crate-level unsafe posture matches crate contents.
//!
//! Two rules (per-site auditing moved to `unsafe-blocks` in v2):
//!
//! 1. Every crate root (`crates/*/src/lib.rs` and the facade `src/lib.rs`)
//!    must carry `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`.
//! 2. A crate with *no* unsafe site anywhere in its production sources
//!    must use `forbid`, not `deny` — `deny` can be re-allowed by a
//!    module, so a zero-unsafe crate that merely denies leaves the door
//!    ajar for no reason.  Crates that do contain audited unsafe (the
//!    SIMD kernels in `af-dsp`, the syscall wrappers in `af-sys`)
//!    legitimately stay on `deny` + scoped allows.

use crate::callgraph::crate_of;
use crate::lex::Kind;
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeSet;

const LINT: &str = "unsafe-audit";

/// Runs the lint.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    // Crates with at least one production `unsafe` token.
    let mut crates_with_unsafe: BTreeSet<&str> = BTreeSet::new();
    for file in files {
        let has = file.tokens.iter().any(|t| {
            t.kind == Kind::Ident
                && t.text == "unsafe"
                && !file.in_test.get(t.line).copied().unwrap_or(false)
        });
        if has {
            crates_with_unsafe.insert(crate_of(&file.rel));
        }
    }
    let mut findings = Vec::new();
    for file in files {
        if !is_crate_root(&file.rel) {
            continue;
        }
        let forbids = has_gate(file, "#![forbid(unsafe_code)]");
        let denies = has_gate(file, "#![deny(unsafe_code)]");
        if !forbids && !denies {
            findings.push(Finding {
                lint: LINT,
                file: file.rel.clone(),
                line: 1,
                message: "crate root must carry `#![forbid(unsafe_code)]` or \
                          `#![deny(unsafe_code)]`"
                    .to_owned(),
            });
        } else if denies && !crates_with_unsafe.contains(crate_of(&file.rel)) {
            findings.push(Finding {
                lint: LINT,
                file: file.rel.clone(),
                line: 1,
                message: "crate has no unsafe code; tighten \
                          `#![deny(unsafe_code)]` to `#![forbid(unsafe_code)]`"
                    .to_owned(),
            });
        }
    }
    findings
}

fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    matches!(rest.split_once('/'), Some((_, "src/lib.rs")))
}

fn has_gate(file: &SourceFile, gate: &str) -> bool {
    file.code.iter().any(|l| l.contains(gate))
}
