//! Loom-style model checks for the server's cross-thread handoff protocols.
//!
//! The reactor's reply path rests on two cross-thread protocols that
//! ordinary tests exercise under only one interleaving.  Each model below
//! re-states one protocol with the same atomics/deque shapes as the server
//! and asserts its invariant under *every* interleaving of the
//! synchronization operations, via the `loom` shim's exhaustive schedule
//! exploration.  (The numbering starts at 5: DESIGN.md §10.2 and the
//! reactor's module docs cite these numbers.  The task thread needs no
//! model: it waits on a condition variable paired with the dispatch lock,
//! and deadlines are only ever published under that lock.)
//!
//! 5. producer→shard wakeup: the reply path pushes to the outbound deque
//!    and then arms a notify flag that gates the wake-pipe write; the
//!    shard clears the flag *before* draining.  Invariant: no push is
//!    ever stranded without a visible wake (no lost wakeup), and a drain
//!    pass only runs when a wake was actually written (no double-drain).
//! 6. direct reply write: producers write the connection's socket
//!    themselves when the deque is empty, under the same per-connection
//!    lock the shard's flush takes per message, and fall back to scenario
//!    5's push + wakeup otherwise.  Invariants: bytes leave in issue
//!    order, the remainder of a short direct write is never stranded, and
//!    `notified` still bounds redundant drains.
//!
//! Models must stay tiny (two or three threads, a handful of operations):
//! the schedule space is explored exhaustively.

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Scenario 5 — the reactor's producer→shard wakeup protocol.
///
/// Producer (a handler's or the task thread's `OutboundTx`): push the reply, then
/// `notified.swap(true)`; only a false→true transition writes the wake
/// pipe, so an already-armed flag costs no syscall.  Consumer (the shard's
/// `handle_wake`): consume the pipe, clear `notified` *before* draining
/// the queue — anything pushed after the clear re-arms the flag and
/// writes the pipe again.  Invariants: every push is drained once the
/// trailing wake is honored (no lost wakeup), and drain passes never
/// exceed pipe writes (no double-drain).
#[test]
fn reactor_wakeup_protocol_loses_no_wakeups() {
    loom::model(|| {
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        let notified = Arc::new(AtomicBool::new(false));
        let pipe = Arc::new(AtomicUsize::new(0)); // bytes in the wake pipe

        let producer = {
            let (queue, notified, pipe) = (queue.clone(), notified.clone(), pipe.clone());
            loom::thread::spawn(move || {
                for reply in [1u32, 2] {
                    queue.lock().unwrap().push_back(reply);
                    if !notified.swap(true, Ordering::SeqCst) {
                        pipe.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        };

        // The shard's poll loop, two readiness rounds plus the trailing
        // round the real reactor gets because an unconsumed pipe byte
        // keeps the wake fd readable.
        let mut drained = 0;
        let mut drains = 0;
        let shard_round = |drained: &mut u32, drains: &mut u32| {
            if pipe.swap(0, Ordering::SeqCst) > 0 {
                // Clear-before-drain: a push racing with this drain sees
                // the cleared flag and writes the pipe again.
                notified.store(false, Ordering::SeqCst);
                *drains += 1;
                while queue.lock().unwrap().pop_front().is_some() {
                    *drained += 1;
                }
            }
        };
        shard_round(&mut drained, &mut drains);
        shard_round(&mut drained, &mut drains);
        producer.join().expect("producer thread");
        shard_round(&mut drained, &mut drains);

        assert_eq!(drained, 2, "lost wakeup: {drained}/2 replies drained");
        assert!(drains <= 2, "double-drain: {drains} passes for ≤2 wakes");
    });
}

/// The inverse of scenario 5 — notifying *before* pushing (the classic
/// lost-wakeup bug) must strand a reply under some interleaving.
#[test]
fn shim_catches_notify_before_push_bug() {
    let failed = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let queue = Arc::new(Mutex::new(VecDeque::new()));
            let notified = Arc::new(AtomicBool::new(false));
            let pipe = Arc::new(AtomicUsize::new(0));

            let producer = {
                let (queue, notified, pipe) = (queue.clone(), notified.clone(), pipe.clone());
                loom::thread::spawn(move || {
                    // BUG: wake armed and written before the push lands.
                    if !notified.swap(true, Ordering::SeqCst) {
                        pipe.fetch_add(1, Ordering::SeqCst);
                    }
                    queue.lock().unwrap().push_back(1u32);
                })
            };

            let mut drained = 0;
            if pipe.swap(0, Ordering::SeqCst) > 0 {
                notified.store(false, Ordering::SeqCst);
                while queue.lock().unwrap().pop_front().is_some() {
                    drained += 1;
                }
            }
            producer.join().expect("producer thread");
            if pipe.swap(0, Ordering::SeqCst) > 0 {
                notified.store(false, Ordering::SeqCst);
                while queue.lock().unwrap().pop_front().is_some() {
                    drained += 1;
                }
            }
            assert_eq!(drained, 1, "reply stranded with no pending wake");
        });
    }))
    .is_err();
    assert!(failed, "the seeded notify-before-push bug must be detected");
}

/// One connection's shared write state as scenario 6 models it — the
/// shape of the reactor's `Outbound`: one deque whose front is the message
/// mid-write, behind the one lock, and so is the socket, which only a lock
/// holder ever writes.
///
/// A message is two wire units `(id, 0)` and `(id, 1)`.  The socket takes
/// one unit of any *direct* write (so every direct write goes short and
/// hands its remainder to the shard) and everything the shard writes.
#[derive(Default)]
struct ModelConn {
    queue: VecDeque<u8>,
    /// Units of the front message already on the wire.
    written: u8,
    wire: Vec<(u8, u8)>,
    /// Message ids in the order their sends took the lock.
    issued: Vec<u8>,
}

/// The locked part of `ConnShared::deliver` for one message; either way
/// the message ends up on the deque, so the caller wakes the shard.  With
/// `check_empty` false it is the seeded bug: a direct write that does not
/// look at what is already waiting.
fn model_deliver(conn: &Mutex<ModelConn>, id: u8, check_empty: bool) {
    let mut c = conn.lock().unwrap();
    c.issued.push(id);
    if c.queue.is_empty() || !check_empty {
        c.wire.push((id, 0));
        c.written = 1; // Short write: the remainder waits at the front.
    }
    c.queue.push_back(id);
}

/// `ConnShared::wake`: only the false→true edge writes the pipe.  Returns
/// whether it did.
fn model_wake(notified: &AtomicBool, pipe: &AtomicUsize) -> bool {
    let first = !notified.swap(true, Ordering::SeqCst);
    if first {
        pipe.fetch_add(1, Ordering::SeqCst);
    }
    first
}

/// `Shard::flush_conn`: one message per lock hold, so a producer can find
/// the deque non-empty between two messages of a flush.
fn model_flush(conn: &Mutex<ModelConn>) {
    loop {
        let mut c = conn.lock().unwrap();
        let Some(&id) = c.queue.front() else {
            return;
        };
        for unit in c.written..2 {
            c.wire.push((id, unit));
        }
        c.written = 0;
        c.queue.pop_front();
    }
}

/// One poll-loop round of the shard: honor a pending pipe byte with a
/// clear-before-drain flush.  Returns whether a drain pass ran.
fn model_shard_round(conn: &Mutex<ModelConn>, notified: &AtomicBool, pipe: &AtomicUsize) -> bool {
    if pipe.swap(0, Ordering::SeqCst) == 0 {
        return false;
    }
    notified.store(false, Ordering::SeqCst);
    model_flush(conn);
    true
}

/// Asserts the wire carries exactly the issued messages, whole and in
/// issue order.
fn assert_wire_in_issue_order(c: &ModelConn) {
    let want: Vec<(u8, u8)> = c.issued.iter().flat_map(|&id| [(id, 0), (id, 1)]).collect();
    assert_eq!(c.wire, want, "bytes left the connection out of issue order");
}

/// Scenario 6 — two producers and the shard over one connection's shared
/// write state.
///
/// A handler has already sent message 1 (a short direct write, wake
/// written); now it sends message 3 while the task thread sends message 2
/// and the shard runs the poll round that wake earned — so sends land before,
/// between the messages of, and after the shard's flush.  Every schedule
/// must deliver all six wire units in issue order; when the producers are
/// done, anything not yet on the wire must have a wake pending (a short
/// direct write that raced the finishing flush re-armed `notified`); and
/// drain passes never exceed pipe writes.
#[test]
fn direct_write_keeps_issue_order_and_strands_nothing() {
    use std::sync::atomic::AtomicUsize as Tally; // Bookkeeping, not a sync op.
    loom::model(|| {
        let conn = Arc::new(Mutex::new(ModelConn::default()));
        let notified = Arc::new(AtomicBool::new(false));
        let pipe = Arc::new(AtomicUsize::new(0));
        let pipe_writes = Arc::new(Tally::new(0));

        let send = |id: u8| {
            let (conn, notified, pipe, pipe_writes) = (
                conn.clone(),
                notified.clone(),
                pipe.clone(),
                pipe_writes.clone(),
            );
            move || {
                model_deliver(&conn, id, true);
                if model_wake(&notified, &pipe) {
                    pipe_writes.fetch_add(1, Ordering::SeqCst);
                }
            }
        };
        send(1)();
        let handler = loom::thread::spawn(send(3));
        let task_thread = loom::thread::spawn(send(2));

        let mut drains = 0;
        drains += usize::from(model_shard_round(&conn, &notified, &pipe));
        handler.join().expect("handler");
        task_thread.join().expect("task thread");
        {
            let c = conn.lock().unwrap();
            assert!(
                c.queue.is_empty() || pipe.load(Ordering::SeqCst) > 0,
                "message stranded: handed to the shard with no wake pending"
            );
        }
        // An unconsumed pipe byte keeps the wake fd readable: the real
        // shard gets these trailing rounds for free.
        drains += usize::from(model_shard_round(&conn, &notified, &pipe));
        drains += usize::from(model_shard_round(&conn, &notified, &pipe));

        let c = conn.lock().unwrap();
        assert_eq!(c.issued.len(), 3);
        assert!(c.queue.is_empty(), "undrained");
        assert_wire_in_issue_order(&c);
        let wakes = pipe_writes.load(Ordering::SeqCst);
        assert!(
            drains <= wakes,
            "double-drain: {drains} passes for {wakes} wakes"
        );
    });
}

/// The inverse of scenario 6 — a direct write without the emptiness check.
/// The shard is about to flush message 1, still whole on the deque, when a
/// producer sends message 2: writing past what is waiting must be caught
/// as a reorder under some interleaving.
#[test]
fn shim_catches_direct_write_without_the_emptiness_check() {
    let failed = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let conn = Arc::new(Mutex::new(ModelConn::default()));
            let notified = Arc::new(AtomicBool::new(true));
            let pipe = Arc::new(AtomicUsize::new(1));
            {
                let mut c = conn.lock().unwrap();
                c.issued.push(1);
                c.queue.push_back(1);
            }
            let producer = {
                let (conn, notified, pipe) = (conn.clone(), notified.clone(), pipe.clone());
                loom::thread::spawn(move || {
                    // BUG: the deque is not consulted.
                    model_deliver(&conn, 2, false);
                    model_wake(&notified, &pipe);
                })
            };
            model_shard_round(&conn, &notified, &pipe);
            producer.join().expect("producer thread");
            model_shard_round(&conn, &notified, &pipe);
            assert_wire_in_issue_order(&conn.lock().unwrap());
        });
    }))
    .is_err();
    assert!(
        failed,
        "the seeded direct write past a waiting message must be detected"
    );
}

/// The shim really explores more than one interleaving: a two-thread model
/// with racing stores must run under several schedules.
#[test]
fn shim_explores_multiple_schedules() {
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    static RUNS: StdAtomicUsize = StdAtomicUsize::new(0);
    loom::model(|| {
        RUNS.fetch_add(1, StdOrdering::SeqCst);
        let x = Arc::new(AtomicU64::new(0));
        let t = {
            let x = x.clone();
            loom::thread::spawn(move || x.store(1, Ordering::SeqCst))
        };
        x.store(2, Ordering::SeqCst);
        t.join().expect("thread");
        let v = x.load(Ordering::SeqCst);
        assert!(v == 1 || v == 2);
    });
    assert!(
        RUNS.load(StdOrdering::SeqCst) > 1,
        "expected several schedules, got {}",
        RUNS.load(StdOrdering::SeqCst)
    );
}

/// The checker actually catches ordering bugs: enqueueing a wake event
/// *before* publishing the state that justifies it must fail under some
/// interleaving.
#[test]
fn shim_catches_publication_order_bug() {
    let failed = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let events = Arc::new(Mutex::new(Vec::new()));
            let space = Arc::new(AtomicBool::new(false));

            let publisher = {
                let (events, space) = (events.clone(), space.clone());
                loom::thread::spawn(move || {
                    events.lock().unwrap().push(0u8); // BUG: wake before free
                    space.store(true, Ordering::SeqCst);
                })
            };

            let polled = events.lock().unwrap().pop();
            if polled.is_some() {
                assert!(space.load(Ordering::SeqCst), "lost wakeup");
            }
            publisher.join().expect("publisher thread");
        });
    }))
    .is_err();
    assert!(failed, "the seeded lost-wakeup bug must be detected");
}

/// The checker detects deadlock: two threads taking two locks in opposite
/// orders must deadlock under some schedule, and the shim must report it
/// rather than hang.
#[test]
fn shim_detects_lock_order_deadlock() {
    let failed = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let t = {
                let (a, b) = (a.clone(), b.clone());
                loom::thread::spawn(move || {
                    let _ga = a.lock().unwrap();
                    let _gb = b.lock().unwrap();
                })
            };
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_ga, _gb));
            t.join().expect("thread");
        });
    }))
    .is_err();
    assert!(failed, "opposite lock order must be reported as deadlock");
}
