//! The data plane's heap budget, counted: once warm, a play, a record and
//! the update task between them cost the server's one thread no
//! allocation at all.
//!
//! A counting `#[global_allocator]` tallies every allocation made on a
//! thread named `af-reactor-*` — the reactor thread, which runs every
//! request's handler and every task itself.  The client (this test's own
//! thread) is not counted.  A file of its own, so a process of its own:
//! the allocator is process-wide.

use audiofile::client::{AcAttributes, AcMask, AudioConn};
use audiofile::device::{Clock, NullSink, SilenceSource, VirtualClock};
use audiofile::dsp::Encoding;
use audiofile::server::ServerBuilder;
use audiofile::time::ATime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static REACTOR_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// 0: not looked yet; 1: an `af-reactor-*` thread; 2: any other.
    static WATCHED: Cell<u8> = const { Cell::new(0) };
}

fn on_reactor_thread() -> bool {
    WATCHED
        .try_with(|watched| {
            if watched.get() == 0 {
                // Looking the name up may allocate: not while looking.
                watched.set(2);
                let named = std::thread::current()
                    .name()
                    .is_some_and(|name| name.starts_with("af-reactor-"));
                watched.set(if named { 1 } else { 2 });
            }
            watched.get() == 1
        })
        .unwrap_or(false)
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter and
// the thread-local flag (a `const`-initialized `Cell`, so no lazy
// allocation and no destructor) touch no allocator state.
#[expect(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_reactor_thread() {
            REACTOR_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_reactor_thread() {
            REACTOR_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: usize = 50;
const OPS: usize = 1_000;
/// Device time that passes between two ops (10 ms at 8 kHz): each op is
/// followed by an update that services the hardware for it.
const TICKS_PER_OP: u32 = 80;

#[test]
fn steady_plays_and_records_allocate_nothing_on_the_reactor_threads() {
    let dir = std::env::temp_dir().join(format!("af-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("alloc.sock");
    let clock = Arc::new(VirtualClock::new(8000));
    let mut builder = ServerBuilder::new().listen_unix(path.clone());
    builder.add_codec(
        clock.clone(),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();
    let mut conn = AudioConn::open(&format!("unix:{}", path.display())).unwrap();

    // The benchmark's two data workloads: 32 KB of LIN16 mixed at -6 dB
    // into the µ-law codec, and 8 KB µ-law records.
    let mixing = AcAttributes {
        encoding: Encoding::Lin16,
        play_gain_db: -6,
        ..AcAttributes::default()
    };
    let play_ac = conn
        .create_ac(0, AcMask::ENCODING | AcMask::PLAY_GAIN, &mixing)
        .unwrap();
    let rec_ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .unwrap();
    let lin16: Vec<u8> = (0..32_768u32).map(|i| (i * 31) as u8).collect();
    conn.record_samples(&rec_ac, ATime::ZERO, 0, false).unwrap(); // Arms the recorder.
    clock.advance(20_000);
    server.handle().run_update();

    // The clock moves on between ops, and the update runs for it, as the
    // periodic task does on a real clock.
    let tick = || {
        clock.advance(TICKS_PER_OP);
        server.handle().run_update();
    };
    // Allocations on the reactor threads across `ops` plays, then `ops`
    // records, each followed by an update.
    let mut run = |ops: usize| {
        REACTOR_ALLOCS.store(0, Ordering::Relaxed);
        for _ in 0..ops {
            // A second ahead: mixed into the buffer, not dropped as past.
            let at = clock.now() + 8_000u32;
            conn.play_samples(&play_ac, at, &lin16).unwrap();
            tick();
        }
        let plays = REACTOR_ALLOCS.load(Ordering::Relaxed);
        for _ in 0..ops {
            // Recorded a second ago: in the buffer, no record update owed.
            let at = clock.now() - 16_192u32;
            let (_, data) = conn.record_samples(&rec_ac, at, 8192, false).unwrap();
            assert_eq!(data.len(), 8192);
            tick();
        }
        // The replies have been read, so the handlers have run; the
        // barrier waits out whatever a handler does after its write.
        server.handle().barrier();
        (plays, REACTOR_ALLOCS.load(Ordering::Relaxed) - plays)
    };
    assert_ne!(
        run(WARM_UP),
        (0, 0),
        "the allocator never saw a reactor thread"
    );
    assert_eq!(
        run(OPS),
        (0, 0),
        "heap allocations on af-reactor-* threads across {OPS} plays, then {OPS} records, \
         each with an update"
    );

    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
