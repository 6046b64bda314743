//! Fixture tests: every lint has a must-trigger and a must-not-trigger
//! case, so a refactor that silently disables a lint fails here rather
//! than shipping a checker that checks nothing.  The fixtures live under
//! `fixtures/` as plain text — they are linted, never compiled — and are
//! presented to the lints at the workspace-relative paths each lint
//! scopes itself to.

use af_analyze::callgraph::CallGraph;
use af_analyze::index::Index;
use af_analyze::lints;
use af_analyze::source::SourceFile;
use af_analyze::{analyze_files, Finding};

/// Parses a fixture at a pretend workspace path.
fn fx(rel: &str, text: &str) -> SourceFile {
    SourceFile::parse(rel, text)
}

/// Builds the index + call graph and runs a whole-program lint.
fn run_graph_lint(
    files: &[SourceFile],
    run: fn(&[SourceFile], &Index, &CallGraph) -> Vec<Finding>,
) -> Vec<Finding> {
    let index = Index::build(files);
    let graph = CallGraph::build(&index, files);
    run(files, &index, &graph)
}

// ---- tick-arith --------------------------------------------------------

#[test]
fn tick_arith_triggers() {
    let files = [fx(
        "crates/af-time/src/fixture.rs",
        include_str!("../fixtures/tick_arith/trigger.rs"),
    )];
    let found = lints::tick_arith::run(&files);
    assert_eq!(found.len(), 3, "+, reversed + and `as`: {found:?}");
}

#[test]
fn tick_arith_stays_quiet() {
    let files = [fx(
        "crates/af-time/src/fixture.rs",
        include_str!("../fixtures/tick_arith/clean.rs"),
    )];
    assert_eq!(lints::tick_arith::run(&files), vec![]);
}

// ---- the hot-path tree -------------------------------------------------

const DISPATCH: &str = "crates/af-server/src/dispatch.rs";
const FEC: &str = "crates/af-device/src/fec.rs";
const JITTER: &str = "crates/af-device/src/jitter.rs";
const REACTOR: &str = "crates/af-server/src/reactor/mod.rs";
const BROADCAST: &str = "crates/af-server/src/broadcast.rs";
const BUFFER: &str = "crates/af-server/src/buffer.rs";
const REQUEST: &str = "crates/af-proto/src/request.rs";

/// `text` with `from` replaced by `to`; `from` must occur in it.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "fixture lacks {from:?}");
    text.replace(from, to)
}

/// The registry-complete hot-path tree shared by the reachability lints.
fn reach_tree(reactor: &str, fec: &str) -> [SourceFile; 7] {
    [
        fx(REACTOR, reactor),
        fx(DISPATCH, include_str!("../fixtures/reach/dispatch_clean.rs")),
        fx(FEC, fec),
        fx(JITTER, include_str!("../fixtures/reach/jitter_clean.rs")),
        fx(
            BROADCAST,
            include_str!("../fixtures/reach/broadcast_clean.rs"),
        ),
        fx(BUFFER, include_str!("../fixtures/reach/buffer_clean.rs")),
        fx(
            REQUEST,
            include_str!("../fixtures/reach/proto_request_clean.rs"),
        ),
    ]
}

// ---- blocking-in-reactor -----------------------------------------------

#[test]
fn blocking_in_reactor_triggers_through_call_graph() {
    // The blocking `.recv()` sits two calls below the `drive_read` root;
    // the finding must carry the path it was reached through.
    let files = reach_tree(
        include_str!("../fixtures/reach/reactor_trigger.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    let found = run_graph_lint(&files, lints::blocking_in_reactor::run);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(
        found.iter().all(|f| f.message.contains(".recv(")),
        "{found:?}"
    );
    assert!(
        found
            .iter()
            .any(|f| f.message.contains("drive_read -> stall")),
        "{found:?}"
    );
}

#[test]
fn blocking_in_reactor_catches_a_socket_recv() {
    // A socket read into a caller's buffer, `socket.recv(&mut buf)`,
    // blocks as surely as a channel's `.recv()`.
    let files = reach_tree(
        include_str!("../fixtures/reach/reactor_trigger.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    let found = run_graph_lint(&files, lints::blocking_in_reactor::run);
    assert!(
        found
            .iter()
            .any(|f| f.message.contains("feed -> poll_link")),
        "{found:?}"
    );
}

#[test]
fn blocking_in_reactor_stays_quiet() {
    // Through the full pipeline, with no allow marker in the tree: the
    // clean reactor takes calls with `try_recv`, lends what it frames to the
    // dispatcher's `Handler` impl and writes replies without blocking; the
    // timed channel read in the dispatcher's `handle_request` sits behind
    // the barrier.  Nothing may be reported.
    let files = reach_tree(
        include_str!("../fixtures/reach/reactor_clean.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    let found: Vec<_> = analyze_files(&files)
        .into_iter()
        .filter(|f| f.lint == "blocking-in-reactor" || f.lint == "allow-marker")
        .collect();
    assert_eq!(found, vec![]);
}

#[test]
fn blocking_in_reactor_reports_stale_registry() {
    // A renamed root must fail loudly, not silently drop out of coverage.
    let mut files = reach_tree(
        include_str!("../fixtures/reach/reactor_clean.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    files[0] = fx(REACTOR, "fn renamed_handler() {}\n");
    let found = run_graph_lint(&files, lints::blocking_in_reactor::run);
    assert!(
        found
            .iter()
            .any(|f| f.message.contains("handle_wake") && f.message.contains("not found")),
        "{found:?}"
    );
}

// ---- alloc -------------------------------------------------------------

#[test]
fn alloc_triggers_through_call_graph() {
    // The `.to_vec()` sits in a helper below the `encode` root.
    let files = reach_tree(
        include_str!("../fixtures/reach/reactor_clean.rs"),
        include_str!("../fixtures/reach/fec_trigger.rs"),
    );
    let found = run_graph_lint(&files, lints::alloc_hot::run);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].message.contains(".to_vec()"), "{found:?}");
    assert!(found[0].message.contains("encode -> copy_out"), "{found:?}");
}

#[test]
fn alloc_barriers_cut_the_control_plane() {
    // The clean tree allocates plenty behind its barriers:
    // `process_request` (reached from the `drain_queue` root) uses
    // `format!` and `dispatch` clones; FEC's `try_reconstruct` (reached
    // from `decode`) builds its matrices with `Vec::new` + `format!`; the
    // reactor's `register_conn` boxes per-connection state and its
    // `start_stream` (reached from the `read_bcast` root) formats the
    // one-shot broadcast response head; the dispatcher's `handle_new_client`
    // (reached from the reactor's `feed` root through `connect`) formats
    // and clones; the owned `Request::decode` copies the samples the
    // borrowed `parse` root found, and `read_rec` builds the `Vec` the
    // `read_rec_into` root appends to, each outside its root.  None of it
    // may be reported.
    let files = reach_tree(
        include_str!("../fixtures/reach/reactor_clean.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    assert_eq!(run_graph_lint(&files, lints::alloc_hot::run), vec![]);
}

#[test]
fn alloc_triggers_in_broadcast_seal() {
    // A defensive `.to_vec()` in a helper below the `publish` root is a
    // per-chunk allocation on the encode-once path; the lint must reach
    // it through the call graph and report the path.
    let mut files = reach_tree(
        include_str!("../fixtures/reach/reactor_clean.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    files[4] = fx(
        BROADCAST,
        include_str!("../fixtures/reach/broadcast_trigger.rs"),
    );
    let found = run_graph_lint(&files, lints::alloc_hot::run);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].message.contains(".to_vec()"), "{found:?}");
    assert!(found[0].message.contains("publish -> seal"), "{found:?}");
}

#[test]
fn alloc_triggers_on_the_borrowed_request_path() {
    // The borrowed request entry, which the reactor-rooted scan stops at
    // for `blocking-in-reactor`, and the two roots below it that the
    // call graph cannot reach by itself (`parse` is a cross-crate call into
    // a name too common to follow; `read_rec_into` and `merge_play`, the
    // loop behind every play, hang off a struct field): a copy in any of
    // them is a per-chunk allocation and must be found from the root named
    // in the registry.
    let mut files = reach_tree(
        include_str!("../fixtures/reach/reactor_clean.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    files[1] = fx(
        DISPATCH,
        &edit(
            include_str!("../fixtures/reach/dispatch_clean.rs"),
            "let mut copy = self.pool.take_empty();",
            "let mut copy = payload.to_vec();",
        ),
    );
    files[5] = fx(BUFFER, include_str!("../fixtures/reach/buffer_trigger.rs"));
    files[6] = fx(
        REQUEST,
        include_str!("../fixtures/reach/proto_request_trigger.rs"),
    );
    let found = run_graph_lint(&files, lints::alloc_hot::run);
    assert_eq!(found.len(), 4, "{found:?}");
    assert!(
        found
            .iter()
            .any(|f| f.file == DISPATCH && f.message.contains("(handle_request)")),
        "{found:?}"
    );
    assert!(
        found.iter().any(|f| f.file == BUFFER
            && f.message.contains(".to_owned()")
            && f.message.contains("(merge_play)")),
        "{found:?}"
    );
    assert!(
        found.iter().any(|f| f.file == BUFFER
            && f.message.contains("Vec::new")
            && f.message.contains("read_rec_into -> stage")),
        "{found:?}"
    );
    assert!(
        found
            .iter()
            .any(|f| f.file == REQUEST && f.message.contains(".to_vec()")),
        "{found:?}"
    );
}

// ---- wallclock ---------------------------------------------------------

/// The clean hot-path tree with one fixture edited.
fn wallclock_tree(slot: usize, rel: &str, text: &str, from: &str, to: &str) -> Vec<Finding> {
    let mut files = reach_tree(
        include_str!("../fixtures/reach/reactor_clean.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    files[slot] = fx(rel, &edit(text, from, to));
    run_graph_lint(&files, lints::wallclock::run)
}

#[test]
fn wallclock_triggers_inside_hot_path() {
    let found = wallclock_tree(
        1,
        DISPATCH,
        include_str!("../fixtures/reach/dispatch_clean.rs"),
        "self.advance_play(req.id, 0);",
        "let _deadline = Instant::now();\n        self.advance_play(req.id, 0);",
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].message.contains("`Instant::now`"), "{found:?}");
    assert!(found[0].message.contains("(h_play)"), "{found:?}");
}

#[test]
fn wallclock_allows_the_wake_helper() {
    // The clean tree reads the wall clock behind both barriers: in
    // `play_wake_instant`, below `suspend` (the scheduling layer's one
    // sanctioned use), and in `handle_new_client`, reached from the `feed`
    // root through `connect` (per-connection setup).
    let files = reach_tree(
        include_str!("../fixtures/reach/reactor_clean.rs"),
        include_str!("../fixtures/reach/fec_clean.rs"),
    );
    assert_eq!(run_graph_lint(&files, lints::wallclock::run), vec![]);
}

#[test]
fn wallclock_triggers_in_jitter_concealer() {
    // The concealer is reached from the jitter buffer's `read` root.
    let found = wallclock_tree(
        3,
        JITTER,
        include_str!("../fixtures/reach/jitter_clean.rs"),
        "self.fade_ticks.saturating_sub(FRAME_TICKS)",
        "self.fade_from.elapsed().as_millis() as u32",
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].message.contains("read -> conceal_sample"),
        "{found:?}"
    );
}

#[test]
fn wallclock_triggers_in_reactor_framing_loop() {
    let found = wallclock_tree(
        0,
        REACTOR,
        include_str!("../fixtures/reach/reactor_clean.rs"),
        "let n = self.io.read(&mut self.read_scratch);",
        "let _t0 = Instant::now();\n        let n = self.io.read(&mut self.read_scratch);",
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].message.contains("(drive_read)"), "{found:?}");
}

#[test]
fn wallclock_triggers_in_broadcast_seal() {
    // An `Instant::now` + `.elapsed()` pair around the encode-once seal
    // is two findings.
    let found = wallclock_tree(
        4,
        BROADCAST,
        &edit(
            include_str!("../fixtures/reach/broadcast_clean.rs"),
            "let mut wire = self.pop_free();",
            "let t0 = Instant::now();\n        let mut wire = self.pop_free();",
        ),
        "self.seal(wire);",
        "self.seal(wire);\n        self.seal_time.record(t0.elapsed());",
    );
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(
        found.iter().all(|f| f.message.contains("(publish)")),
        "{found:?}"
    );
}

#[test]
fn wallclock_reports_stale_registry() {
    // A root that disappears must fail loudly, not silently check nothing.
    let found = wallclock_tree(
        1,
        DISPATCH,
        include_str!("../fixtures/reach/dispatch_clean.rs"),
        "fn h_play(",
        "fn h_play_renamed(",
    );
    assert!(
        found
            .iter()
            .any(|f| f.message.contains("`h_play` not found")),
        "{found:?}"
    );
}

const SERVER: &str = "crates/af-server/src/fixture.rs";

// ---- allow-marker ------------------------------------------------------

#[test]
fn allow_marker_flags_unknown_lint_and_missing_reason() {
    let files = [fx(SERVER, include_str!("../fixtures/allow_marker/trigger.rs"))];
    let found = analyze_files(&files);
    let markers: Vec<_> = found.iter().filter(|f| f.lint == "allow-marker").collect();
    assert_eq!(markers.len(), 2, "{markers:?}");
    assert!(markers.iter().any(|f| f.message.contains("no-such-lint")));
    assert!(markers.iter().any(|f| f.message.contains("justification")));
}

#[test]
fn allow_marker_suppresses_justified_finding() {
    let files = [fx(SERVER, include_str!("../fixtures/allow_marker/clean.rs"))];
    let found = analyze_files(&files);
    // The bare `+` is suppressed by the marker and the marker itself is
    // valid; everything left is other lints complaining about the files
    // this synthetic tree does not contain.
    assert!(
        found
            .iter()
            .all(|f| f.lint != "tick-arith" && f.lint != "allow-marker"),
        "{found:?}"
    );
}

// ---- the real tree -----------------------------------------------------

#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let findings = af_analyze::analyze_root(root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "the tree must satisfy its own invariants:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
