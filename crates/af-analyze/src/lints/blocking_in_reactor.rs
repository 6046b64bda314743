//! `blocking-in-reactor`: nothing reachable from the event loop may block.
//!
//! The reactor thread owns every connection; one blocked call — a sleep,
//! a channel `send`/`recv`, a blocking read — stalls *all* of them, which
//! on a WAN link shows up as a burst of late frames and concealment on
//! every session at once.  The reactor may only use non-blocking
//! primitives (atomics, nonblocking I/O, pre-sized scratch).
//!
//! The lint follows the approximate call graph from the reactor handlers:
//! a helper three calls away from `handle_wake` is as much inside the
//! loop as the loop body itself.
//! Each finding reports the call path it was reached through.  Designed
//! blocking is justified per site with
//! `// af-analyze: allow(blocking-in-reactor): reason`.
//!
//! The reactor runs request handlers and the task queue itself, so the
//! reactor-rooted scan stops at the dispatcher's two request entries,
//! `handle_request` and `handle_event`: what the dispatcher does is its
//! own business (`alloc`, `wallclock`).  Its tasks are entered through the
//! `Handler` trait, which the textual call graph does not follow; the one
//! blocking call the update task makes, a LineServer exchange, is bounded
//! by its reply timeout and retries, and tests/lineserver.rs holds the
//! bound.

use crate::callgraph::CallGraph;
use crate::index::Index;
use crate::lints::{run_reach_scan, ReachScan, DISPATCH, SHARD_HANDLERS};
use crate::source::SourceFile;
use crate::Finding;

/// Blocking call patterns.  `.send(` does not match `.try_send(`; `.recv()`
/// etc. are the blocking channel reads; `.lock()` blocks on contention;
/// the `read_*`/`write_all` family are blocking `std::io` calls.
const PATTERNS: &[&str] = &[
    "thread::sleep(",
    "::sleep(",
    ".recv()",
    ".recv_timeout(",
    ".recv_deadline(",
    ".send(",
    ".join()",
    ".wait(",
    ".wait_timeout(",
    ".lock()",
    ".read_exact(",
    ".read_to_end(",
    ".read_to_string(",
    ".write_all(",
];

const SCAN: ReachScan = ReachScan {
    lint: "blocking-in-reactor",
    roots: &[SHARD_HANDLERS],
    barriers: &[(DISPATCH, &["handle_request", "handle_event"])],
    patterns: PATTERNS,
    rationale: "event loops must stay non-blocking (atomics, nonblocking \
                I/O); a block here stalls every connection on the reactor",
};

/// Runs the lint.
pub fn run(files: &[SourceFile], index: &Index, graph: &CallGraph) -> Vec<Finding> {
    run_reach_scan(&SCAN, files, index, graph)
}
