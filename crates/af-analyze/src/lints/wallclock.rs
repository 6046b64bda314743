//! `wallclock`: hot sample paths must run on device time only.
//!
//! Device time (the 32-bit per-device sample counter, §2.1) is the only
//! clock the data plane may consult: it is what play/record requests are
//! timed against, and it advances even when the host clock steps.
//! Wall-clock reads (`Instant::now`, `SystemTime::now`, `.elapsed()`)
//! belong to the *scheduling* layer — the reactor's loop, the task
//! queue, and the designated wake helper (`play_wake_instant`) that
//! converts a device-time deficit into a sleep.
//!
//! Roots are the data-plane registry `alloc` uses, and the scan follows
//! the call graph from them.  It stops at the wake helper and at
//! `handle_event`, where the reactor enters the dispatcher per connection,
//! not per tick.  A clock read the protocol itself asks for is justified
//! per site with `// af-analyze: allow(wallclock): reason`.

use crate::callgraph::CallGraph;
use crate::index::Index;
use crate::lints::{run_reach_scan, ReachScan, DATA_PLANE, DISPATCH};
use crate::source::SourceFile;
use crate::Finding;

const SCAN: ReachScan = ReachScan {
    lint: "wallclock",
    roots: DATA_PLANE,
    barriers: &[(DISPATCH, &["handle_event", "play_wake_instant"])],
    patterns: &["Instant::now", "SystemTime::now", ".elapsed("],
    rationale: "hot paths run on device time (ATime snapshots) only",
};

/// Runs the lint.
pub fn run(files: &[SourceFile], index: &Index, graph: &CallGraph) -> Vec<Finding> {
    run_reach_scan(&SCAN, files, index, graph)
}
