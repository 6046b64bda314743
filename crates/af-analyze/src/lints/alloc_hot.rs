//! `alloc`: no heap allocation on the per-tick data plane.
//!
//! The sample pump runs once per device tick with a hard deadline; a
//! `Vec::new` that grows, a `format!`, a defensive `.clone()` are each a
//! malloc — and malloc takes a process-global lock and has unbounded
//! tail latency.  Hot-path buffers are pre-sized at setup and reused
//! (`clear()` + `extend_from_slice`, scratch fields, fixed arrays).
//!
//! Roots are the data-plane registry it shares with `wallclock`.
//! The dispatcher's control arms (open/close/configure) may allocate —
//! they run once per session, not once per tick — and are deliberately
//! not roots.  Follows the call graph like `blocking-in-reactor`; a
//! setup-time or amortized allocation that is genuinely fine is justified
//! per site with `// af-analyze: allow(alloc): reason`.

use crate::callgraph::CallGraph;
use crate::index::Index;
use crate::lints::{run_reach_scan, ReachScan, DATA_PLANE, DISPATCH, SHARD_HANDLERS};
use crate::source::SourceFile;
use crate::Finding;

/// Allocation patterns over stripped code.  Deliberately absent:
/// `Vec::with_capacity` and `vec![n; len]` — those are *sized* one-shot
/// allocations, i.e. exactly the "pre-size" shape this lint pushes
/// toward; the targets are the incremental/defensive allocators.
const PATTERNS: &[&str] = &[
    "Vec::new",
    ".to_vec()",
    "Box::new",
    "format!(",
    ".clone()",
    ".to_owned()",
    ".to_string(",
    "String::new",
];

/// Control-plane cuts:
///
/// * `handle_new_client` is where the reactor enters the dispatcher with
///   a connection's setup (per connection, not per tick): the
///   reactor-rooted scan stops there.
/// * `handle_request`, the borrowed request entry, is scanned, and so are
///   `drain_queue`/`retry_blocked`, which replay a suspended client's
///   requests; all three go on through `process_request`/`dispatch`,
///   whose control arms (open, close, configure, properties) legitimately
///   allocate, so the scan stops at those two and the data-plane arms
///   behind them are covered directly as roots.
/// * the reactor's accept/registration path (`accept_ready`,
///   `register_conn`) runs per *connection*, not per tick — boxing the
///   conn or broadcast-listener state and building its shared half there
///   is setup, amortized over the connection lifetime.  So is the
///   broadcast listener's `start_stream`, which builds the one-shot
///   HTTP/ICY response head; the per-publish fan-out in `pump_bcast`
///   writes `Arc`-shared ring chunks and stays a root.
/// * FEC `try_reconstruct` is the loss-recovery path: it runs only when
///   shards actually went missing, and Gaussian elimination needs its
///   matrices; the steady lossless path never enters it.
const BARRIERS: &[(&str, &[&str])] = &[
    (
        DISPATCH,
        &["handle_new_client", "process_request", "dispatch"],
    ),
    (
        SHARD_HANDLERS.0,
        &["accept_ready", "register_conn", "start_stream"],
    ),
    ("crates/af-device/src/fec.rs", &["try_reconstruct"]),
];

const SCAN: ReachScan = ReachScan {
    lint: "alloc",
    roots: DATA_PLANE,
    barriers: BARRIERS,
    patterns: PATTERNS,
    rationale: "the per-tick data plane must not allocate; pre-size at \
                setup and reuse scratch buffers",
};

/// Runs the lint.
pub fn run(files: &[SourceFile], index: &Index, graph: &CallGraph) -> Vec<Finding> {
    run_reach_scan(&SCAN, files, index, graph)
}
