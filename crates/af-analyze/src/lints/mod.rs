//! The individual lints.
//!
//! Each module exposes a `run` over the parsed files (plus the index and
//! call graph where it asks about functions) and owns one
//! invariant from DESIGN.md §10.  Lints scope themselves by
//! workspace-relative path — passing them a synthetic tree (as the fixture
//! tests do) works as long as the `rel` paths match the production layout.

pub mod alloc_hot;
pub mod blocking_in_reactor;
pub mod tick_arith;
pub mod wallclock;

use crate::callgraph::CallGraph;
use crate::index::Index;
use crate::source::SourceFile;
use crate::Finding;

pub(crate) const DISPATCH: &str = "crates/af-server/src/dispatch.rs";

/// The reactor's handlers, including the broadcast listener's read
/// and pump paths: every reachability lint's event-loop roots.
pub(crate) const SHARD_HANDLERS: (&str, &[&str]) = (
    "crates/af-server/src/reactor/mod.rs",
    &[
        "handle_wake",
        "handle_token",
        "flush_conn",
        "read_conn",
        "drive_read",
        "feed",
        "deliver",
        "read_bcast",
        "pump_bcast",
    ],
);

/// The per-tick data plane, the roots of `alloc` and `wallclock`: the
/// dispatcher's borrowed request entry and its request-handling arms, the
/// reactor handlers, the borrowed `PlaySamples` parser, the append-form
/// record read and the merge loop behind every play, the broadcast
/// tap/seal/fetch entry points, and the FEC/jitter per-frame entry points.
/// Each is named outright: many are reached otherwise only through an
/// `alloc` barrier or a call the graph does not follow (a `parse`/`decode`
/// or method call across crates, a call through a struct field).
pub(crate) const DATA_PLANE: &[(&str, &[&str])] = &[
    (
        DISPATCH,
        &[
            "handle_request",
            "h_play",
            "advance_play",
            "suspend",
            "h_record",
            "finish_record",
            "drain_queue",
            "retry_blocked",
        ],
    ),
    SHARD_HANDLERS,
    (
        "crates/af-server/src/buffer.rs",
        &["read_rec_into", "merge_play"],
    ),
    ("crates/af-proto/src/request.rs", &["parse"]),
    (
        "crates/af-server/src/broadcast.rs",
        &["tap", "tap_silence", "publish", "fetch_batch"],
    ),
    ("crates/af-device/src/fec.rs", &["encode", "decode"]),
    (
        "crates/af-device/src/jitter.rs",
        &["insert", "read", "observe_transit"],
    ),
];

/// Iterates 0-based indices of non-test lines.
pub(crate) fn prod_lines(file: &SourceFile) -> impl Iterator<Item = usize> + '_ {
    (0..file.code.len()).filter(|&i| !file.in_test[i])
}

/// A reachability lint: named root functions, forbidden call patterns,
/// one finding per pattern hit in any production function reachable from
/// a root through the call graph.
///
/// Shared by `blocking-in-reactor`, `alloc` and `wallclock` — each is a
/// "nothing reachable from these hot loops may do X" rule; they differ
/// only in roots, barriers, patterns and message.  A registry entry that
/// no longer resolves is itself a finding: a renamed hot function must
/// not silently fall out of coverage.
pub(crate) struct ReachScan {
    pub lint: &'static str,
    /// file → root function names.
    pub roots: &'static [(&'static str, &'static [&'static str])],
    /// file → functions traversal must not enter (control-plane cuts).
    /// Unlike roots, a stale barrier is also a loud finding.
    pub barriers: &'static [(&'static str, &'static [&'static str])],
    /// Substring patterns over stripped code.
    pub patterns: &'static [&'static str],
    /// What the rule is, appended after the pattern and call path.
    pub rationale: &'static str,
}

pub(crate) fn run_reach_scan(
    scan: &ReachScan,
    files: &[SourceFile],
    index: &Index,
    graph: &CallGraph,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut roots = Vec::new();
    for (path, fns) in scan.roots {
        if !files.iter().any(|f| f.rel == *path) {
            findings.push(Finding {
                lint: scan.lint,
                file: (*path).to_owned(),
                line: 0,
                message: "root registry names a file that no longer exists; \
                          update the registry in af-analyze"
                    .to_owned(),
            });
            continue;
        }
        for name in *fns {
            match index.find(files, path, name) {
                Some(f) => roots.push(f),
                None => findings.push(Finding {
                    lint: scan.lint,
                    file: (*path).to_owned(),
                    line: 0,
                    message: format!(
                        "root function `{name}` not found; update the registry in \
                         af-analyze if it was renamed"
                    ),
                }),
            }
        }
    }
    let mut barriers = std::collections::BTreeSet::new();
    for (path, fns) in scan.barriers {
        for name in *fns {
            match index.find(files, path, name) {
                Some(f) => {
                    barriers.insert(f);
                }
                None if files.iter().any(|f| f.rel == *path) => findings.push(Finding {
                    lint: scan.lint,
                    file: (*path).to_owned(),
                    line: 0,
                    message: format!(
                        "barrier function `{name}` not found; update the registry in \
                         af-analyze if it was renamed"
                    ),
                }),
                None => {}
            }
        }
    }
    let reach = graph.reach_stopping(&roots, |f| barriers.contains(&f));
    let mut seen_hits = std::collections::BTreeSet::new();
    for (f, info) in index.fns.iter().enumerate() {
        if !reach.seen[f] || info.in_test {
            continue;
        }
        let file = &files[info.file];
        let path = reach.path_to(index, f);
        for i in info.start_line..=info.end_line.min(file.code.len().saturating_sub(1)) {
            if file.in_test[i] {
                continue;
            }
            for pat in scan.patterns {
                if file.code[i].contains(pat) && seen_hits.insert((info.file, i, *pat)) {
                    findings.push(Finding::at(
                        scan.lint,
                        file,
                        i,
                        format!("`{pat}` reachable from hot loop ({path}); {}", scan.rationale),
                    ));
                }
            }
        }
    }
    findings
}
