//! `wallclock`: hot sample paths must run on device time only.
//!
//! Device time (the 32-bit per-device sample counter, §2.1) is the only
//! clock the data plane may consult: it is what play/record requests are
//! timed against, and it advances even when the host clock steps.
//! Wall-clock reads (`Instant::now`, `SystemTime::now`, `.elapsed()`)
//! belong to the *scheduling* layer — the task thread's loop, the task
//! queue, and the designated wake helper (`play_wake_instant`) that
//! converts a device-time deficit into a sleep.
//!
//! The registry below names every hot function; a function that is renamed
//! or removed makes the lint fail loudly (stale registry) instead of
//! silently checking nothing.

use crate::source::SourceFile;
use crate::Finding;

const LINT: &str = "wallclock";

/// The hot-path registry: file → functions that must not read wall clocks.
const HOT_PATHS: &[(&str, &[&str])] = &[
    (
        "crates/af-server/src/dispatch.rs",
        &[
            "run_inline",
            "process_request",
            "dispatch",
            "h_play",
            "advance_play",
            "suspend",
            "h_record",
            "finish_record",
            "drain_queue",
            "retry_blocked",
        ],
    ),
    (
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
    ),
    (
        "crates/af-server/src/broadcast.rs",
        &[
            "publish",
            "notify_shards",
            "fetch_batch",
            "absorb",
            "push_hex",
        ],
    ),
    (
        "crates/af-device/src/fec.rs",
        &[
            "crc32",
            "gf_mul_acc",
            "close_group",
            "encode",
            "decode",
            "try_reconstruct",
            "evict_oldest",
        ],
    ),
    (
        "crates/af-device/src/jitter.rs",
        &[
            "observe_transit",
            "target_depth",
            "insert",
            "read",
            "conceal_sample",
        ],
    ),
];

const CLOCK_READS: &[&str] = &["Instant::now", "SystemTime::now", ".elapsed("];

/// Runs the lint.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (path, fns) in HOT_PATHS {
        let Some(file) = files.iter().find(|f| f.rel == *path) else {
            findings.push(Finding {
                lint: LINT,
                file: (*path).to_owned(),
                line: 0,
                message: "hot-path registry names a file that no longer exists; \
                          update HOT_PATHS in af-analyze"
                    .to_owned(),
            });
            continue;
        };
        for name in *fns {
            let Some((start, end)) = file.fn_span(name) else {
                findings.push(Finding {
                    lint: LINT,
                    file: file.rel.clone(),
                    line: 0,
                    message: format!(
                        "hot function `{name}` not found; update HOT_PATHS in af-analyze \
                         if it was renamed"
                    ),
                });
                continue;
            };
            for i in start..=end {
                for read in CLOCK_READS {
                    if file.code[i].contains(read) {
                        findings.push(Finding::at(
                            LINT,
                            file,
                            i,
                            format!(
                                "wall-clock read `{read}` inside hot path `{name}`; \
                                 hot paths run on device time (ATime snapshots) only"
                            ),
                        ));
                    }
                }
            }
        }
    }
    findings
}
