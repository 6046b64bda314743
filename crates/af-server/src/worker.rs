//! Per-device audio workers: the server's data plane.
//!
//! The paper's server is single-threaded (§7.3.1) because LoFi hung five
//! devices off one select() loop.  That remains true here for the *control
//! plane*: every request is still parsed, validated and sequenced by the
//! one dispatcher, under its dispatch lock, so §7.1's ordering guarantees
//! are untouched.
//! What moves out is the sample-touching work — byte-swapping, sample-type
//! conversion, gain scaling, ring mixing, the per-device update task —
//! which lands on a worker thread per device *group* (a buffer owner plus
//! its mono views and its pass-through peer), fed by a bounded SPSC queue
//! of [`AudioJob`]s.
//!
//! Invariants that keep the sharded path bit-exact with the classic path:
//!
//! * All sample ops for one device funnel through its single worker in the
//!   dispatcher's enqueue order, so ring writes (and therefore saturating
//!   mixes) happen in the same sequence either way.
//! * Gains and enable masks that the classic path read at request time are
//!   captured into the job at enqueue time; values the classic path read
//!   at *completion* time (a blocked record's input gain) are re-read from
//!   the [`DeviceControl`] atomics, which the dispatcher mirrors
//!   synchronously before any later job can be enqueued.
//! * Conversion state (ADPCM predictors) is per audio context in the
//!   classic path, so the worker caches one [`Converter`] pair per
//!   `(client, ac)` and drops it on `FreeAc`/disconnect.
//! * A client has at most one job in flight; its other requests wait in
//!   the dispatcher's per-client queue until the worker posts
//!   [`TaskMsg::WorkerDone`], so per-client reply order is preserved.
//!
//! Device time is published after every job and update through an
//! `AtomicU64` snapshot, so `GetTime` (and event stamping) on the
//! dispatcher never blocks on a worker — a seqlock-free read at the cost
//! of at most one update period of staleness.

use crate::buffer::DeviceBuffers;
use crate::pool::BufferPool;
use crate::state::{ClientId, TaskMsg};
use crate::transport::ReplySink;
use af_dsp::convert::Converter;
use af_dsp::Encoding;
use af_proto::{AcId, ErrorCode, Opcode, Reply};
use af_time::ATime;
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on each worker's job queue.  A client never has more than one
/// job in flight, so depth is bounded by the client count in practice;
/// the cap only guards against pathological fan-in.
pub const WORKER_QUEUE_CAPACITY: usize = 256;

/// Dispatcher-owned mirror of a device's gain/enable state, read by the
/// worker when it needs *current* (not enqueue-time) values: the periodic
/// update and blocked-record completion, matching what the classic path
/// reads at those moments.
#[derive(Debug)]
pub struct DeviceControl {
    /// Output gain applied by the update task and ring writes.
    pub output_gain_db: AtomicI32,
    /// Input gain applied when a record completes.
    pub input_gain_db: AtomicI32,
    /// Nonzero = some input connector enabled.
    pub inputs_enabled: AtomicU32,
    /// Nonzero = some output connector enabled.
    pub outputs_enabled: AtomicU32,
}

impl DeviceControl {
    /// Mirrors the given initial device state.
    pub fn new(
        output_gain_db: i32,
        input_gain_db: i32,
        inputs_enabled: u32,
        outputs_enabled: u32,
    ) -> DeviceControl {
        DeviceControl {
            output_gain_db: AtomicI32::new(output_gain_db),
            input_gain_db: AtomicI32::new(input_gain_db),
            inputs_enabled: AtomicU32::new(inputs_enabled),
            outputs_enabled: AtomicU32::new(outputs_enabled),
        }
    }

    fn output_state(&self) -> (i32, bool) {
        (
            self.output_gain_db.load(Ordering::Acquire),
            self.outputs_enabled.load(Ordering::Acquire) != 0,
        )
    }
}

/// Per-worker counters, registered in [`crate::state::ServerStats`].
#[derive(Debug)]
pub struct WorkerStats {
    /// Thread label, e.g. `audio-worker-0`.
    pub label: String,
    /// High-water mark of the job queue depth (sampled at enqueue).
    pub queue_hwm: AtomicU64,
    /// Jobs the worker has drained.
    pub jobs_processed: AtomicU64,
    /// Periodic updates that started at least one full period late.
    pub update_overruns: AtomicU64,
    /// Cycles (or nanoseconds where the host has no cycle counter) spent
    /// in data-plane work: job handling plus periodic updates and retries.
    /// Divided by [`WorkerStats::bytes_processed`] this gives the
    /// per-plane cycles-per-byte metric the bench gate compares on.
    pub busy_cycles: AtomicU64,
    /// Sample bytes the drained jobs carried (play payloads as submitted,
    /// record replies as device bytes read).
    pub bytes_processed: AtomicU64,
}

impl WorkerStats {
    /// Fresh zeroed counters under `label`.
    pub fn new(label: String) -> WorkerStats {
        WorkerStats {
            label,
            queue_hwm: AtomicU64::new(0),
            jobs_processed: AtomicU64::new(0),
            update_overruns: AtomicU64::new(0),
            busy_cycles: AtomicU64::new(0),
            bytes_processed: AtomicU64::new(0),
        }
    }

    /// Records an observed queue depth.
    pub fn observe_depth(&self, depth: u64) {
        self.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one worker's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Thread label.
    pub label: String,
    /// Deepest the job queue has been.
    pub queue_hwm: u64,
    /// Jobs drained so far.
    pub jobs_processed: u64,
    /// Late periodic updates so far.
    pub update_overruns: u64,
    /// Data-plane cycles consumed so far.
    pub busy_cycles: u64,
    /// Sample bytes processed so far.
    pub bytes_processed: u64,
}

impl WorkerStats {
    /// Copies the counters out.
    pub fn snapshot(&self) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            label: self.label.clone(),
            queue_hwm: self.queue_hwm.load(Ordering::Relaxed),
            jobs_processed: self.jobs_processed.load(Ordering::Relaxed),
            update_overruns: self.update_overruns.load(Ordering::Relaxed),
            busy_cycles: self.busy_cycles.load(Ordering::Relaxed),
            bytes_processed: self.bytes_processed.load(Ordering::Relaxed),
        }
    }
}

/// The dispatcher's handle to the worker that owns a device's buffers.
/// Stored on buffer-owning [`crate::state::Device`]s in sharded mode.
pub struct WorkerLink {
    /// Identifies the worker (device groups can share one thread).
    pub worker_id: usize,
    /// Job queue into the worker.
    pub tx: Sender<AudioJob>,
    /// The device's published tick counter.
    pub snapshot: Arc<AtomicU64>,
    /// Mirrored gain/enable state.
    pub control: Arc<DeviceControl>,
    /// The worker's counters.
    pub stats: Arc<WorkerStats>,
    /// Cached native encoding (the buffers now live on the worker).
    pub enc: Encoding,
    /// Cached native frame size in bytes.
    pub frame_bytes: usize,
    /// Cached ring capacity in frames.
    pub frames: u32,
}

impl WorkerLink {
    /// The device's last published time.
    pub fn now(&self) -> ATime {
        ATime::new(self.snapshot.load(Ordering::Acquire) as u32)
    }
}

/// One unit of data-plane work, carrying everything the worker needs so
/// it never reads dispatcher-owned state.
pub enum AudioJob {
    /// A `PlaySamples` request (validated by the dispatcher).
    Play {
        /// Where replies/errors for this client go.
        sink: ReplySink,
        /// Originating client (for the completion event and converter key).
        client: ClientId,
        /// The audio context (converter cache key).
        ac: AcId,
        /// Request sequence number.
        seq: u16,
        /// Buffer-owning device index.
        device: usize,
        /// Mono-view channel lane, if any.
        lane: Option<u8>,
        /// Requested device time.
        start: ATime,
        /// Preemptive write (replace) instead of mixing.
        preempt: bool,
        /// Skip the completion reply.
        suppress_reply: bool,
        /// Client data is big-endian and needs swapping first.
        swap_bytes: bool,
        /// The AC's sample type (conversion source).
        src_enc: Encoding,
        /// The AC's play gain in dB.
        play_gain_db: i32,
        /// Output gain at enqueue time (what the classic path read).
        out_gain_db: i32,
        /// Output enablement at enqueue time.
        out_enabled: bool,
        /// The sample bytes, still in the client's sample type.
        data: Vec<u8>,
    },
    /// A `RecordSamples` request (validated by the dispatcher).
    Record {
        /// Where replies/errors for this client go.
        sink: ReplySink,
        /// Originating client.
        client: ClientId,
        /// The audio context (converter cache key).
        ac: AcId,
        /// Request sequence number.
        seq: u16,
        /// Buffer-owning device index.
        device: usize,
        /// Mono-view channel lane, if any.
        lane: Option<u8>,
        /// Requested device time.
        start: ATime,
        /// Frames requested (already derived from the AC's sample type).
        nframes: u32,
        /// Suspend until the whole region is recorded.
        block: bool,
        /// Swap the reply into big-endian order.
        big_endian: bool,
        /// The AC's sample type (conversion destination).
        dst_enc: Encoding,
        /// The AC's record gain in dB (device input gain is read live).
        record_gain_db: i32,
        /// First record under this AC: take a recorder reference.
        add_recorder: bool,
        /// Output gain at enqueue time, for the record-update.
        out_gain_db: i32,
        /// Output enablement at enqueue time, for the record-update.
        out_enabled: bool,
    },
    /// Release one recorder reference (FreeAc / disconnect of a
    /// recording AC).
    RemoveRecorder {
        /// Buffer-owning device index.
        device: usize,
    },
    /// Drop cached converters for a freed AC (`Some`) or a disconnected
    /// client (`None`) so a recreated AC starts with fresh codec state.
    ForgetAc {
        /// The client whose converters to drop.
        client: ClientId,
        /// The specific AC, or all of the client's.
        ac: Option<AcId>,
    },
    /// Enable or disable the pass-through pair (both endpoints are in
    /// this worker's group by construction).  Acked so the dispatcher can
    /// keep the classic path's synchronous cursor setup: the cursors must
    /// reflect device time *at the request*, not at some later drain.
    SetPassthrough {
        /// The requesting endpoint.
        device: usize,
        /// Its wired peer.
        peer: usize,
        /// Enable or disable.
        enable: bool,
        /// Ack channel.
        ack: Sender<()>,
    },
    /// Run the group's update task now and acknowledge (RunUpdate
    /// fan-out, keeping `ServerHandle::run_update` a full barrier).
    Update {
        /// Ack channel.
        ack: Sender<()>,
    },
    /// Exit the worker loop.
    Shutdown,
}

/// A device owned by a worker: its buffers plus the per-device state the
/// dispatcher's update task used to hold.
pub struct WorkerDevice {
    /// Index in the server's device table.
    pub index: usize,
    /// The buffering engine, moved out of the dispatcher.
    pub buffers: DeviceBuffers,
    /// Mirrored gain/enable state.
    pub control: Arc<DeviceControl>,
    /// Published tick counter.
    pub snapshot: Arc<AtomicU64>,
    /// Sample rate, for wake-up estimates.
    pub rate: u32,
    /// Owner channel count, for mono-lane frame math.
    pub channels: u8,
    /// Pass-through currently enabled.
    pub passthrough: bool,
    /// Pass-through peer device index.
    pub passthrough_peer: Option<usize>,
    /// Pass-through read cursor into the peer's record stream.
    pub pt_in: ATime,
    /// Pass-through write cursor into our play stream.
    pub pt_out: ATime,
}

/// A suspended sample request, retried on the worker's own schedule
/// (the classic path's `WakeBlocked` task, scoped to this worker).
struct PendingJob {
    sink: ReplySink,
    client: ClientId,
    ac: AcId,
    seq: u16,
    wake: Instant,
    op: PendingOp,
}

enum PendingOp {
    Play {
        device: usize,
        lane: Option<u8>,
        preempt: bool,
        start: ATime,
        /// Device-encoded frames with a consumed-bytes cursor: written
        /// exactly once across however many wake-ups it takes.
        frames: Vec<u8>,
        offset: usize,
        suppress_reply: bool,
    },
    Record {
        device: usize,
        lane: Option<u8>,
        start: ATime,
        nframes: u32,
        big_endian: bool,
        dst_enc: Encoding,
        record_gain_db: i32,
    },
}

/// The worker thread: drains jobs, runs the group's periodic update, and
/// retries suspended requests.
pub struct AudioWorker {
    rx: Receiver<AudioJob>,
    devices: Vec<WorkerDevice>,
    /// Device table index → position in `devices`.
    by_index: HashMap<usize, usize>,
    update_interval: Duration,
    stats: Arc<WorkerStats>,
    /// Completion notifications to the task thread.  Always this channel,
    /// never the dispatch lock: its holder may be blocked on `rx`'s queue.
    events: Sender<TaskMsg>,
    /// Shared buffer pool: drained play payloads are recycled into it so
    /// a steady stream re-uses request storage across the thread boundary.
    pool: Arc<BufferPool>,
    pending: Vec<PendingJob>,
    /// Per-(client, AC) converters, keyed so stateful codecs (ADPCM)
    /// keep their predictor state exactly as the classic per-AC
    /// converters do.  The `(from, to)` pair detects AC retypes.
    play_convs: HashMap<(ClientId, AcId), Converter>,
    rec_convs: HashMap<(ClientId, AcId), Converter>,
    /// Reusable conversion scratch (the dispatcher's `conv_buf` idiom).
    conv_buf: Vec<u8>,
}

impl AudioWorker {
    /// Assembles a worker over `devices`, fed by `rx`.
    pub fn new(
        rx: Receiver<AudioJob>,
        devices: Vec<WorkerDevice>,
        update_interval: Duration,
        stats: Arc<WorkerStats>,
        events: Sender<TaskMsg>,
        pool: Arc<BufferPool>,
    ) -> AudioWorker {
        let by_index = devices
            .iter()
            .enumerate()
            .map(|(pos, d)| (d.index, pos))
            .collect();
        AudioWorker {
            rx,
            devices,
            by_index,
            update_interval,
            stats,
            events,
            pool,
            pending: Vec::new(),
            play_convs: HashMap::new(),
            rec_convs: HashMap::new(),
            conv_buf: Vec::new(),
        }
    }

    /// Runs until `Shutdown` or the dispatcher side hangs up.
    pub fn run(mut self) {
        self.publish_snapshots();
        let mut next_update = Instant::now() + self.update_interval;
        loop {
            let wake = self.pending.iter().map(|p| p.wake).min();
            let deadline = match wake {
                Some(w) => w.min(next_update),
                None => next_update,
            };
            let timeout = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(timeout) {
                Ok(AudioJob::Shutdown) => break,
                Ok(job) => {
                    self.stats.jobs_processed.fetch_add(1, Ordering::Relaxed);
                    let t0 = af_dsp::kernels::cycles::timestamp();
                    let bytes = self.handle(job);
                    let spent = af_dsp::kernels::cycles::timestamp().wrapping_sub(t0);
                    self.stats.busy_cycles.fetch_add(spent, Ordering::Relaxed);
                    self.stats
                        .bytes_processed
                        .fetch_add(bytes as u64, Ordering::Relaxed);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            let now = Instant::now();
            if now >= next_update {
                // Count whole periods missed before this update started.
                let mut missed = 0u64;
                while next_update + self.update_interval <= now {
                    next_update += self.update_interval;
                    missed += 1;
                }
                next_update += self.update_interval;
                if missed > 0 {
                    self.stats
                        .update_overruns
                        .fetch_add(missed, Ordering::Relaxed);
                }
                let t0 = af_dsp::kernels::cycles::timestamp();
                self.run_group_update();
                // The classic update task retries every suspended request,
                // not just due ones (virtual clocks can advance device time
                // without wall time passing).
                self.retry_all();
                let spent = af_dsp::kernels::cycles::timestamp().wrapping_sub(t0);
                self.stats.busy_cycles.fetch_add(spent, Ordering::Relaxed);
            } else {
                self.retry_due(Instant::now());
            }
            self.publish_snapshots();
        }
    }

    /// Handles one job, returning the sample bytes it carried (play
    /// payloads as submitted, record requests as device bytes to read)
    /// for the worker's bytes-processed counter.
    fn handle(&mut self, job: AudioJob) -> usize {
        match job {
            AudioJob::Play {
                sink,
                client,
                ac,
                seq,
                device,
                lane,
                start,
                preempt,
                suppress_reply,
                swap_bytes,
                src_enc,
                play_gain_db,
                out_gain_db,
                out_enabled,
                data,
            } => {
                let bytes = data.len();
                self.handle_play(
                    sink,
                    client,
                    ac,
                    seq,
                    device,
                    lane,
                    start,
                    preempt,
                    suppress_reply,
                    swap_bytes,
                    src_enc,
                    play_gain_db,
                    out_gain_db,
                    out_enabled,
                    data,
                );
                bytes
            }
            AudioJob::Record {
                sink,
                client,
                ac,
                seq,
                device,
                lane,
                start,
                nframes,
                block,
                big_endian,
                dst_enc,
                record_gain_db,
                add_recorder,
                out_gain_db,
                out_enabled,
            } => {
                let bytes = self.by_index.get(&device).map_or(0, |&pos| {
                    self.devices[pos].buffers.frame_bytes() * nframes as usize
                });
                self.handle_record(
                    sink,
                    client,
                    ac,
                    seq,
                    device,
                    lane,
                    start,
                    nframes,
                    block,
                    big_endian,
                    dst_enc,
                    record_gain_db,
                    add_recorder,
                    out_gain_db,
                    out_enabled,
                );
                bytes
            }
            AudioJob::RemoveRecorder { device } => {
                if let Some(&pos) = self.by_index.get(&device) {
                    self.devices[pos].buffers.remove_recorder();
                }
                0
            }
            AudioJob::ForgetAc { client, ac } => {
                match ac {
                    Some(ac) => {
                        self.play_convs.remove(&(client, ac));
                        self.rec_convs.remove(&(client, ac));
                    }
                    None => {
                        self.play_convs.retain(|(c, _), _| *c != client);
                        self.rec_convs.retain(|(c, _), _| *c != client);
                    }
                }
                0
            }
            AudioJob::SetPassthrough {
                device,
                peer,
                enable,
                ack,
            } => {
                self.set_passthrough(device, peer, enable);
                // af-analyze: allow(blocking-in-reactor): completion ack on a rendezvous channel; the dispatcher is already waiting on it
                let _ = ack.send(());
                0
            }
            AudioJob::Update { ack } => {
                self.run_group_update();
                self.retry_all();
                self.publish_snapshots();
                // af-analyze: allow(blocking-in-reactor): completion ack on a rendezvous channel; the dispatcher is already waiting on it
                let _ = ack.send(());
                0
            }
            AudioJob::Shutdown => 0,
        }
    }

    /// Posts the per-client completion event so the dispatcher releases
    /// the client's request queue.
    fn done(&self, client: ClientId) {
        // af-analyze: allow(blocking-in-reactor): worker-done event; the queue holds at most one per client in flight and the task thread drains it
        let _ = self.events.send(TaskMsg::WorkerDone { id: client });
    }

    /// Fetches (or rebuilds, if the AC was retyped) the cached converter
    /// for `key`; `None` means the pair is an identity and conversion is
    /// skipped, exactly as the classic path skips identity ACs.
    fn converter(
        map: &mut HashMap<(ClientId, AcId), Converter>,
        key: (ClientId, AcId),
        from: Encoding,
        to: Encoding,
    ) -> Result<Option<&mut Converter>, ()> {
        if from == to {
            return Ok(None);
        }
        let stale = map
            .get(&key)
            .is_some_and(|c| c.from_encoding() != from || c.to_encoding() != to);
        if stale {
            map.remove(&key);
        }
        if let std::collections::hash_map::Entry::Vacant(e) = map.entry(key) {
            e.insert(Converter::new(from, to).map_err(|_| ())?);
        }
        Ok(map.get_mut(&key))
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_play(
        &mut self,
        sink: ReplySink,
        client: ClientId,
        ac: AcId,
        seq: u16,
        device: usize,
        lane: Option<u8>,
        start: ATime,
        preempt: bool,
        suppress_reply: bool,
        swap_bytes: bool,
        src_enc: Encoding,
        play_gain_db: i32,
        out_gain_db: i32,
        out_enabled: bool,
        mut data: Vec<u8>,
    ) {
        let Some(&pos) = self.by_index.get(&device) else {
            self.done(client);
            return;
        };
        if swap_bytes {
            crate::gain::swap_sample_bytes(src_enc, &mut data);
        }
        let dev_enc = self.devices[pos].buffers.encoding();
        match Self::converter(&mut self.play_convs, (client, ac), src_enc, dev_enc) {
            Ok(None) => {}
            Ok(Some(conv)) => {
                let mut converted = std::mem::take(&mut self.conv_buf);
                match conv.convert_into(&data, &mut converted) {
                    Ok(()) => {
                        std::mem::swap(&mut data, &mut converted);
                        self.conv_buf = converted;
                    }
                    Err(_) => {
                        self.conv_buf = converted;
                        sink.send_error(
                            seq,
                            ErrorCode::BadLength,
                            data.len() as u32,
                            Opcode::PlaySamples.to_wire(),
                        );
                        self.done(client);
                        return;
                    }
                }
            }
            Err(()) => {
                sink.send_error(seq, ErrorCode::BadMatch, 0, Opcode::PlaySamples.to_wire());
                self.done(client);
                return;
            }
        }
        crate::gain::apply_gain_bytes(dev_enc, &mut data, play_gain_db);
        let d = &mut self.devices[pos];
        let fb = match lane {
            Some(_) => d.buffers.frame_bytes() / d.channels.max(1) as usize,
            None => d.buffers.frame_bytes(),
        };
        if !data.len().is_multiple_of(fb) {
            sink.send_error(
                seq,
                ErrorCode::BadLength,
                data.len() as u32,
                Opcode::PlaySamples.to_wire(),
            );
            self.done(client);
            return;
        }
        let outcome = match lane {
            Some(ch) => d.buffers.write_play_channel(
                start,
                &data,
                ch,
                d.channels,
                preempt,
                out_gain_db,
                out_enabled,
            ),
            None => d
                .buffers
                .write_play(start, &data, preempt, out_gain_db, out_enabled),
        };
        if outcome.beyond_horizon > 0 {
            let consumed = (outcome.dropped_past + outcome.written) as usize * fb;
            let new_start = start + (outcome.dropped_past + outcome.written);
            let wake = wake_instant(d.rate, outcome.beyond_horizon);
            self.pending.push(PendingJob {
                sink,
                client,
                ac,
                seq,
                wake,
                op: PendingOp::Play {
                    device,
                    lane,
                    preempt,
                    start: new_start,
                    frames: data,
                    offset: consumed,
                    suppress_reply,
                },
            });
            return;
        }
        if !suppress_reply {
            let now = d.buffers.now();
            sink.send_reply(seq, &Reply::Time { time: now });
        }
        self.pool.recycle(data);
        self.done(client);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_record(
        &mut self,
        sink: ReplySink,
        client: ClientId,
        ac: AcId,
        seq: u16,
        device: usize,
        lane: Option<u8>,
        start: ATime,
        nframes: u32,
        block: bool,
        big_endian: bool,
        dst_enc: Encoding,
        record_gain_db: i32,
        add_recorder: bool,
        out_gain_db: i32,
        out_enabled: bool,
    ) {
        let Some(&pos) = self.by_index.get(&device) else {
            self.done(client);
            return;
        };
        {
            let d = &mut self.devices[pos];
            if add_recorder {
                d.buffers.add_recorder();
            }
            let end = start + nframes;
            // Record update: make the buffer consistent if the request
            // touches the shaded region (§7.2).
            if end.is_after(d.buffers.recorded_until()) {
                d.buffers.update(out_gain_db, out_enabled);
            }
            if end.is_after(d.buffers.recorded_until()) {
                if block {
                    let remaining = (end - d.buffers.recorded_until()).max(1) as u32;
                    let wake = wake_instant(d.rate, remaining);
                    self.pending.push(PendingJob {
                        sink,
                        client,
                        ac,
                        seq,
                        wake,
                        op: PendingOp::Record {
                            device,
                            lane,
                            start,
                            nframes,
                            big_endian,
                            dst_enc,
                            record_gain_db,
                        },
                    });
                    return;
                }
                // Non-blocking: return whatever is available now.
                let available = (d.buffers.recorded_until() - start).max(0) as u32;
                let nframes = available.min(nframes);
                self.finish_record(
                    &sink,
                    client,
                    ac,
                    seq,
                    pos,
                    lane,
                    start,
                    nframes,
                    big_endian,
                    dst_enc,
                    record_gain_db,
                );
                self.done(client);
                return;
            }
        }
        self.finish_record(
            &sink,
            client,
            ac,
            seq,
            pos,
            lane,
            start,
            nframes,
            big_endian,
            dst_enc,
            record_gain_db,
        );
        self.done(client);
    }

    /// Reads, gains (or silences), converts and replies — the worker-side
    /// twin of the dispatcher's `finish_record`.  Input gain and
    /// enablement are read *now*, as the classic path does at completion.
    #[allow(clippy::too_many_arguments)]
    fn finish_record(
        &mut self,
        sink: &ReplySink,
        client: ClientId,
        ac: AcId,
        seq: u16,
        pos: usize,
        lane: Option<u8>,
        start: ATime,
        nframes: u32,
        big_endian: bool,
        dst_enc: Encoding,
        record_gain_db: i32,
    ) {
        let (mut raw, now, dev_enc) = {
            let d = &mut self.devices[pos];
            let raw = match lane {
                Some(ch) => d.buffers.read_rec_channel(start, nframes, ch, d.channels),
                None => d.buffers.read_rec(start, nframes),
            };
            let now = d.buffers.now();
            (raw, now, d.buffers.encoding())
        };
        let d = &self.devices[pos];
        let input_enabled = d.control.inputs_enabled.load(Ordering::Acquire) != 0;
        let input_gain = d.control.input_gain_db.load(Ordering::Acquire);
        if !input_enabled {
            af_dsp::silence::fill_silence(dev_enc, &mut raw);
        } else {
            crate::gain::apply_gain_bytes(dev_enc, &mut raw, input_gain + record_gain_db);
        }
        let mut out = std::mem::take(&mut self.conv_buf);
        match Self::converter(&mut self.rec_convs, (client, ac), dev_enc, dst_enc) {
            Ok(None) => {
                out.clear();
                out.extend_from_slice(&raw);
            }
            Ok(Some(conv)) => {
                if conv.convert_into(&raw, &mut out).is_err() {
                    out.clear();
                }
            }
            Err(()) => out.clear(),
        }
        if big_endian {
            crate::gain::swap_sample_bytes(dst_enc, &mut out);
        }
        let reply = Reply::Record {
            time: now,
            data: out,
        };
        sink.send_reply(seq, &reply);
        if let Reply::Record { data, .. } = reply {
            self.conv_buf = data;
        }
    }

    /// Retries every suspended request unconditionally (the update task's
    /// behavior), preserving suspension order.
    fn retry_all(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = self.pending.remove(i);
            if let Some(still) = self.retry_one(p) {
                self.pending.insert(i, still);
                i += 1;
            }
        }
    }

    /// Retries every suspended request whose wake-up has arrived,
    /// preserving suspension order.
    fn retry_due(&mut self, now: Instant) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].wake > now {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            if let Some(still) = self.retry_one(p) {
                self.pending.insert(i, still);
                i += 1;
            }
        }
    }

    /// One retry attempt; returns the job if it must stay suspended.
    fn retry_one(&mut self, p: PendingJob) -> Option<PendingJob> {
        let PendingJob {
            sink,
            client,
            ac,
            seq,
            wake: _,
            op,
        } = p;
        match op {
            PendingOp::Play {
                device,
                lane,
                preempt,
                start,
                frames,
                offset,
                suppress_reply,
            } => {
                let &pos = self.by_index.get(&device)?;
                let d = &mut self.devices[pos];
                let (out_gain_db, out_enabled) = d.control.output_state();
                let fb = match lane {
                    Some(_) => d.buffers.frame_bytes() / d.channels.max(1) as usize,
                    None => d.buffers.frame_bytes(),
                };
                let pending_bytes = &frames[offset..];
                let outcome = match lane {
                    Some(ch) => d.buffers.write_play_channel(
                        start,
                        pending_bytes,
                        ch,
                        d.channels,
                        preempt,
                        out_gain_db,
                        out_enabled,
                    ),
                    None => d.buffers.write_play(
                        start,
                        pending_bytes,
                        preempt,
                        out_gain_db,
                        out_enabled,
                    ),
                };
                let consumed = (outcome.dropped_past + outcome.written) as usize * fb;
                if outcome.beyond_horizon > 0 {
                    let new_start = start + (outcome.dropped_past + outcome.written);
                    let wake = wake_instant(d.rate, outcome.beyond_horizon);
                    return Some(PendingJob {
                        sink,
                        client,
                        ac,
                        seq,
                        wake,
                        op: PendingOp::Play {
                            device,
                            lane,
                            preempt,
                            start: new_start,
                            frames,
                            offset: offset + consumed,
                            suppress_reply,
                        },
                    });
                }
                if !suppress_reply {
                    let now = d.buffers.now();
                    sink.send_reply(seq, &Reply::Time { time: now });
                }
                self.pool.recycle(frames);
                self.done(client);
                None
            }
            PendingOp::Record {
                device,
                lane,
                start,
                nframes,
                big_endian,
                dst_enc,
                record_gain_db,
            } => {
                let &pos = self.by_index.get(&device)?;
                let end = start + nframes;
                let ready = {
                    let d = &mut self.devices[pos];
                    !end.is_after(d.buffers.recorded_until())
                };
                if ready {
                    self.finish_record(
                        &sink,
                        client,
                        ac,
                        seq,
                        pos,
                        lane,
                        start,
                        nframes,
                        big_endian,
                        dst_enc,
                        record_gain_db,
                    );
                    self.done(client);
                    None
                } else {
                    let d = &mut self.devices[pos];
                    let remaining = (end - d.buffers.recorded_until()).max(1) as u32;
                    let wake = wake_instant(d.rate, remaining);
                    Some(PendingJob {
                        sink,
                        client,
                        ac,
                        seq,
                        wake,
                        op: PendingOp::Record {
                            device,
                            lane,
                            start,
                            nframes,
                            big_endian,
                            dst_enc,
                            record_gain_db,
                        },
                    })
                }
            }
        }
    }

    /// The group's update task: per-device ring update with the mirrored
    /// gain state, then pass-through motion (§7.2, §7.4.1).
    fn run_group_update(&mut self) {
        for d in &mut self.devices {
            let (gain, enabled) = d.control.output_state();
            d.buffers.update(gain, enabled);
        }
        self.run_passthrough();
    }

    /// The dispatcher's `run_passthrough`, scoped to this group.
    fn run_passthrough(&mut self) {
        for i in 0..self.devices.len() {
            let (enabled, peer) = {
                let d = &self.devices[i];
                (d.passthrough, d.passthrough_peer)
            };
            let Some(peer) = peer else { continue };
            let Some(&j) = self.by_index.get(&peer) else {
                continue;
            };
            if !enabled || i == j {
                continue;
            }
            let (src, dst) = if i < j {
                let (a, b) = self.devices.split_at_mut(j);
                (&mut b[0], &mut a[i])
            } else {
                let (a, b) = self.devices.split_at_mut(i);
                (&mut a[j], &mut b[0])
            };
            let avail = src.buffers.recorded_until() - dst.pt_in;
            if avail <= 0 {
                continue;
            }
            let frames = (avail as u32).min(src.buffers.frames() / 2);
            let data = src.buffers.read_rec(dst.pt_in, frames);
            let (gain, out_enabled) = dst.control.output_state();
            dst.buffers
                .write_play(dst.pt_out, &data, false, gain, out_enabled);
            dst.pt_in += frames;
            dst.pt_out += frames;
        }
    }

    /// Mirrors the dispatcher's `h_passthrough` buffer work.
    fn set_passthrough(&mut self, device: usize, peer: usize, enable: bool) {
        let (Some(&pd), Some(&pp)) = (self.by_index.get(&device), self.by_index.get(&peer)) else {
            return;
        };
        for (a, b) in [(pd, pp), (pp, pd)] {
            if self.devices[a].passthrough == enable {
                continue;
            }
            let peer_rec = self.devices[b].buffers.recorded_until();
            let d = &mut self.devices[a];
            d.passthrough = enable;
            if enable {
                d.buffers.add_recorder();
                let lead = 800u32.min(d.buffers.frames() / 4);
                d.pt_out = d.buffers.now() + lead;
                d.pt_in = peer_rec;
            } else {
                d.buffers.remove_recorder();
            }
        }
        self.devices[pp].passthrough_peer = Some(device);
        self.devices[pd].passthrough_peer = Some(peer);
    }

    /// Publishes each device's current tick for lock-free `GetTime`.
    fn publish_snapshots(&mut self) {
        for d in &mut self.devices {
            let ticks = d.buffers.now().ticks();
            d.snapshot.store(u64::from(ticks), Ordering::Release);
        }
    }
}

/// Estimates when `frames` more frames will have elapsed at `rate`
/// (the dispatcher's `play_wake_instant`, using the worker's cached rate).
fn wake_instant(rate: u32, frames: u32) -> Instant {
    let secs = f64::from(frames) / f64::from(rate.max(1));
    Instant::now() + Duration::from_secs_f64(secs.max(0.001))
}

/// The dispatcher's handle for joining a worker at shutdown.
pub struct WorkerHandle {
    /// Job queue (for the final `Shutdown`).
    pub tx: Sender<AudioJob>,
    /// The worker thread.
    pub join: std::thread::JoinHandle<()>,
}
