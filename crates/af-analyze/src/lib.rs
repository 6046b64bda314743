//! Project-invariant static analysis for the AudioFile workspace.
//!
//! `cargo run -p af-analyze` walks the source tree and enforces the
//! DESIGN.md invariants that `rustc` cannot see (DESIGN.md §10):
//!
//! | lint | invariant |
//! |------|-----------|
//! | `wallclock`        | nothing reachable from the per-tick data plane reads a wall clock (device time only) |
//! | `lock-across-send` | no call made under a live lock guard in af-server is a channel send |
//! | `tick-arith`       | no bare `+`/`-`/`as` on device-time tick values (wrapping ops only) |
//! | `lock-order`       | all lock pairs are acquired in one global order (no deadlock cycles), checked through the call graph |
//! | `blocking-in-reactor` | nothing reachable from the reactor event loops blocks |
//! | `alloc`            | nothing reachable from the per-tick data plane allocates |
//!
//! The invariants rustc and clippy check themselves are lint levels
//! instead (the workspace `[lints]` table, `clippy.toml` and af-server's
//! crate root; DESIGN.md §10.1): no panics on server paths, bounded
//! channels, and a scoped, audited `unsafe`.
//!
//! Every question about a function or a lock guard goes through the item
//! [`index`] and the approximate [`callgraph`]; patterns are matched on
//! the stripped view, rendered from the token stream (see [`lex`]).
//!
//! Findings can be suppressed at the site with a justified marker on the
//! same line or the line above:
//!
//! ```text
//! // af-analyze: allow(alloc): connection-setup phase, one copy per connection
//! ```
//!
//! A marker with an unknown lint name or an empty justification is itself
//! a finding (`allow-marker`), so the escape hatch cannot rot silently.

pub mod callgraph;
pub mod index;
pub mod lex;
pub mod lints;
pub mod source;

use source::SourceFile;
use std::fmt;
use std::path::Path;

/// Every lint name, as accepted by allow-markers.
pub const LINT_NAMES: &[&str] = &[
    "wallclock",
    "lock-across-send",
    "tick-arith",
    "lock-order",
    "blocking-in-reactor",
    "alloc",
    "allow-marker",
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired (one of [`LINT_NAMES`]).
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

impl Finding {
    /// Builds a finding for 0-based line `line0` of `file`.
    pub fn at(lint: &'static str, file: &SourceFile, line0: usize, message: String) -> Finding {
        Finding {
            lint,
            file: file.rel.clone(),
            line: line0 + 1,
            message,
        }
    }
}

/// Wall-clock cost of one lint pass (or of building the shared index).
pub struct LintTiming {
    pub name: &'static str,
    pub duration: std::time::Duration,
}

/// Runs every lint over pre-parsed files and applies allow-markers.
pub fn analyze_files(files: &[SourceFile]) -> Vec<Finding> {
    analyze_files_timed(files).0
}

/// Like [`analyze_files`] but also reports per-lint wall-clock timings,
/// which `main` prints and guards (no single lint may exceed its budget —
/// the analyzer runs in CI on every push and must stay cheap).
pub fn analyze_files_timed(files: &[SourceFile]) -> (Vec<Finding>, Vec<LintTiming>) {
    let mut findings = Vec::new();
    let mut timings = Vec::new();
    let start = std::time::Instant::now();
    let index = index::Index::build(files);
    let graph = callgraph::CallGraph::build(&index, files);
    timings.push(LintTiming {
        name: "index+callgraph",
        duration: start.elapsed(),
    });
    let mut timed = |name: &'static str,
                     out: &mut Vec<Finding>,
                     run: &mut dyn FnMut() -> Vec<Finding>| {
        let start = std::time::Instant::now();
        out.extend(run());
        timings.push(LintTiming {
            name,
            duration: start.elapsed(),
        });
    };
    timed("wallclock", &mut findings, &mut || {
        lints::wallclock::run(files, &index, &graph)
    });
    timed("lock-across-send", &mut findings, &mut || {
        lints::lock_across_send::run(files, &index)
    });
    timed("tick-arith", &mut findings, &mut || lints::tick_arith::run(files));
    timed("lock-order", &mut findings, &mut || {
        lints::lock_order::run(files, &index, &graph)
    });
    timed("blocking-in-reactor", &mut findings, &mut || {
        lints::blocking_in_reactor::run(files, &index, &graph)
    });
    timed("alloc", &mut findings, &mut || {
        lints::alloc_hot::run(files, &index, &graph)
    });
    let mut kept = apply_markers(files, findings);
    kept.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    kept.dedup();
    (kept, timings)
}

/// Walks the workspace at `root`, parses its sources and runs every lint.
///
/// Scope: `crates/*/src/**`, the facade `src/**` and `examples/**`.
/// `shims/` (vendored third-party stand-ins) and test directories are out
/// of scope — the invariants govern first-party production code.
pub fn analyze_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = load_tree(root)?;
    Ok(analyze_files(&files))
}

/// Loads every in-scope `.rs` file under `root`.
pub fn load_tree(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), root, &mut files)?;
        }
    }
    collect_rs(&root.join("src"), root, &mut files)?;
    collect_rs(&root.join("examples"), root, &mut files)?;
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path)?;
            out.push(SourceFile::parse(&rel, &text));
        }
    }
    Ok(())
}

/// A parsed `af-analyze: allow(<lint>): <reason>` comment marker.
struct Marker<'a> {
    lint: &'a str,
    reason: &'a str,
}

const MARKER_TAG: &str = "af-analyze: allow(";

fn parse_marker(raw_line: &str) -> Option<Marker<'_>> {
    let at = raw_line.find(MARKER_TAG)?;
    // The tag must directly follow a comment opener — prose that merely
    // *mentions* the marker syntax (docs, messages) is not a marker.
    if !raw_line[..at].trim_end().ends_with("//") {
        return None;
    }
    let rest = &raw_line[at + MARKER_TAG.len()..];
    let close = rest.find(')')?;
    let lint = rest[..close].trim();
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':').unwrap_or("").trim();
    Some(Marker { lint, reason })
}

/// Drops findings covered by a valid marker on the same or preceding line;
/// reports malformed markers as `allow-marker` findings.
fn apply_markers(files: &[SourceFile], findings: Vec<Finding>) -> Vec<Finding> {
    let mut kept = Vec::new();
    for finding in findings {
        let Some(file) = files.iter().find(|f| f.rel == finding.file) else {
            kept.push(finding);
            continue;
        };
        let line0 = finding.line.saturating_sub(1);
        let covered = [Some(line0), line0.checked_sub(1)]
            .into_iter()
            .flatten()
            .filter_map(|l| file.lines.get(l))
            .filter_map(|raw| parse_marker(raw))
            .any(|m| m.lint == finding.lint && !m.reason.is_empty());
        if !covered {
            kept.push(finding);
        }
    }
    // Validate every marker in production code, used or not.
    for file in files {
        for (i, raw) in file.lines.iter().enumerate() {
            if file.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(marker) = parse_marker(raw) else {
                continue;
            };
            if !LINT_NAMES.contains(&marker.lint) {
                kept.push(Finding::at(
                    "allow-marker",
                    file,
                    i,
                    format!("unknown lint `{}` in allow-marker", marker.lint),
                ));
            } else if marker.reason.is_empty() {
                kept.push(Finding::at(
                    "allow-marker",
                    file,
                    i,
                    "allow-marker must give a `: reason` justification".to_owned(),
                ));
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_parses_lint_and_reason() {
        let m = parse_marker("    // af-analyze: allow(tick-arith): widened first, cannot wrap").unwrap();
        assert_eq!(m.lint, "tick-arith");
        assert_eq!(m.reason, "widened first, cannot wrap");
    }

    #[test]
    fn marker_without_reason_is_flagged() {
        let f = SourceFile::parse("a.rs", "// af-analyze: allow(tick-arith)\nlet x = 1;\n");
        let out = apply_markers(&[f], Vec::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "allow-marker");
    }

    #[test]
    fn marker_with_unknown_lint_is_flagged() {
        let f = SourceFile::parse("a.rs", "// af-analyze: allow(no-such-lint): because\n");
        let out = apply_markers(&[f], Vec::new());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("no-such-lint"));
    }

    #[test]
    fn valid_marker_suppresses_matching_lint_only() {
        let f = SourceFile::parse(
            "a.rs",
            "// af-analyze: allow(tick-arith): justified here\nt.ticks() + 1;\n",
        );
        let hit = |lint| Finding {
            lint,
            file: "a.rs".into(),
            line: 2,
            message: "m".into(),
        };
        let out = apply_markers(&[f], vec![hit("tick-arith"), hit("wallclock")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "wallclock");
    }
}
