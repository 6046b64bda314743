//! The device-independent dispatcher (§7.3.1).
//!
//! The paper's server is "a single logical thread of control": one loop
//! waits in `select()`, reads a request, dispatches it and writes the
//! reply, and the same loop's timeout runs the task queue.  Here the
//! [`Dispatcher`] — all server state, the task queue and the request
//! handlers — is the reactor's [`Handler`]: the reactor thread that frames
//! a request lends it, still in the buffer `read` left it in, to
//! [`Handler::request`], which runs the handler there and then; the reply
//! goes into the connection's [`Outbound`] entry.  Between readiness
//! batches the reactor runs the tasks that are due ([`Handler::run_due`]:
//! the periodic update, wake-ups for suspended clients), and sleeps no
//! longer than the earliest deadline.  Events are handled one at a time,
//! atomically, in per-connection arrival order, on that one thread.

use crate::broadcast::BroadcastBus;
use crate::buffer::PlayOutcome;
use crate::pool::BufferPool;
use crate::reactor::{ConnRef, Handler, Outbound};
use crate::state::{
    connector_mask, AccessControl, AtomRegistry, Blocked, BlockedOp, ClientId, ClientState, Device,
    PropertyValue, RawRequest, ServerAc,
};
use crate::stats::{Server, ServerCounters};
use crate::task::{next_period, TaskKind, TaskQueue};
use af_dsp::convert::Converter;
use af_dsp::tables::PlayMap;
use af_proto::request::{play_flags, record_flags, PropertyMode};
use af_proto::{
    message, AcAttributes, AcId, AcMask, Atom, DeviceId, ErrorCode, Event, EventDetail, EventMask,
    FrameError, Opcode, PlayView, Reply, Request, SetupReply, WireError, MAX_REQUEST_BYTES,
};
use af_time::ATime;
use std::collections::HashMap;
use std::net::IpAddr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// All server state, owned by the dispatcher.
pub struct ServerCore {
    /// Vendor string reported at setup.
    pub vendor: String,
    /// The abstract audio devices.
    pub devices: Vec<Device>,
    /// Connected clients.
    pub clients: HashMap<ClientId, ClientState>,
    /// The atom registry.
    pub atoms: AtomRegistry,
    /// Host access control.
    pub access: AccessControl,
    /// Connection and dispatch counters, shared with the server handle.
    pub stats: Arc<ServerCounters>,
    /// The reactor's buffer pool, which replies are built in: a reply
    /// buffer the reactor has written out comes back to it.
    pub pool: Rc<BufferPool>,
    /// Every connection's write side: where replies go.
    pub outbound: Outbound,
}

impl ServerCore {
    fn device(&mut self, id: DeviceId) -> Option<&mut Device> {
        self.devices.get_mut(id as usize)
    }

    /// Resolves a device id to its buffer owner and, for mono views, the
    /// channel lane (§7.4.1: "the mono channel devices are built on top of
    /// the server's stereo buffers").
    fn resolve(&self, id: DeviceId) -> Option<(usize, Option<u8>)> {
        let d = self.devices.get(id as usize)?;
        match d.mono_of {
            Some((parent, lane)) if parent < self.devices.len() => Some((parent, Some(lane))),
            Some(_) => None,
            None => Some((id as usize, None)),
        }
    }

    /// The buffering engine serving `id`, the view lane, and the owner's
    /// channel count.
    fn buffers_mut(
        &mut self,
        id: DeviceId,
    ) -> Option<(&mut crate::buffer::DeviceBuffers, Option<u8>, u8)> {
        let (owner, lane) = self.resolve(id)?;
        let channels = self.devices[owner].desc.play_nchannels;
        self.devices[owner]
            .buffers
            .as_mut()
            .map(|b| (b, lane, channels))
    }

    /// Current device time of `id` (the owner's clock for mono views).
    fn dev_now(&mut self, id: DeviceId) -> ATime {
        self.try_dev_now(id).unwrap_or(ATime::ZERO)
    }

    /// `dev_now` distinguishing "no such device" from time zero.
    fn try_dev_now(&mut self, id: DeviceId) -> Option<ATime> {
        let (owner, _) = self.resolve(id)?;
        self.devices[owner].buffers.as_mut().map(|b| b.now())
    }

    /// The buffer owner's native encoding.
    fn owner_encoding(&self, owner: usize) -> Option<af_dsp::Encoding> {
        let buffers = self.devices.get(owner)?.buffers.as_ref()?;
        Some(buffers.encoding())
    }

    /// Output gain and enablement that apply to `id`'s buffer owner.
    fn output_state(&self, id: DeviceId) -> (i32, bool) {
        match self.resolve(id) {
            Some((owner, _)) => {
                let d = &self.devices[owner];
                (d.output_gain_db, d.output_enabled())
            }
            None => (0, true),
        }
    }

    /// Client `id`'s audio context `ac_id`.
    fn ac_mut(&mut self, id: ClientId, ac_id: AcId) -> Result<&mut ServerAc, (ErrorCode, u32)> {
        let client = self.clients.get_mut(&id).ok_or((ErrorCode::BadAccess, 0))?;
        client.acs.get_mut(&ac_id).ok_or((ErrorCode::BadAc, ac_id))
    }

    /// The audio context that `mask`'s fields of `attrs`, laid over `base`
    /// (the device's native defaults when `None`), make on `device` — or
    /// why they cannot.  Built whole and on the side, play map included,
    /// so `CreateAC` and `ChangeACAttributes` refuse the same things and a
    /// play never builds a table.
    fn bind_ac(
        &self,
        device: DeviceId,
        base: Option<AcAttributes>,
        mask: AcMask,
        attrs: &AcAttributes,
    ) -> Result<ServerAc, (ErrorCode, u32)> {
        let bad_device = (ErrorCode::BadDevice, u32::from(device));
        let (owner, lane) = self.resolve(device).ok_or(bad_device)?;
        let dev_enc = self.owner_encoding(owner).ok_or(bad_device)?;
        // Mono views advertise one channel over the owner's encoding.
        let desc = &self.devices[device as usize].desc;
        let mut effective = base.unwrap_or(AcAttributes {
            encoding: dev_enc,
            channels: desc.play_nchannels,
            ..AcAttributes::default()
        });
        effective.apply(mask, attrs);
        if effective.channels != desc.play_nchannels {
            return Err((ErrorCode::BadMatch, u32::from(effective.channels)));
        }
        // The device advertises the sample types its conversion modules
        // handle (§5.4); anything else is a mismatch.
        let bad_encoding = (ErrorCode::BadMatch, u32::from(effective.encoding.to_wire()));
        if !desc.supports(effective.encoding) {
            return Err(bad_encoding);
        }
        Ok(ServerAc {
            device,
            attrs: effective,
            play_conv: Converter::new(effective.encoding, dev_enc).map_err(|_| bad_encoding)?,
            rec_conv: Converter::new(dev_enc, effective.encoding).map_err(|_| bad_encoding)?,
            // A lane of a stereo device is spliced sample by sample.
            play_map: match lane {
                None => PlayMap::new(effective.encoding, dev_enc, effective.play_gain_db.into()),
                Some(_) => None,
            },
            recording: false,
        })
    }
}

/// The dispatcher: server state, task queue and request handlers.  The
/// reactor owns it and calls it through [`Handler`].
pub struct Dispatcher {
    core: ServerCore,
    tasks: TaskQueue,
    update_interval: Duration,
    /// The reactor's clock reading for the pass being served, which every
    /// wake-up counts from; `None` before the first.
    now: Option<Instant>,
    /// Scratch for AC sample-type conversion and pass-through copies,
    /// reused so a steady play/record stream and the update run without
    /// allocating.
    conv_buf: Vec<u8>,
    /// Clients whose bounded outbound deque refused a message since the
    /// last eviction pass (which follows every event).
    overflowed: Vec<ClientId>,
    /// Scratch for the suspended clients a retry pass visits, reused so
    /// the update allocates nothing while a client is suspended.
    retrying: Vec<ClientId>,
}

/// Where [`Dispatcher::advance_play`] had to stop: the first `consumed`
/// bytes are in the device buffer (or were dropped as past), and `frames`
/// more frames, the first due at `next`, lie beyond the buffer horizon.
struct Beyond {
    consumed: usize,
    next: ATime,
    frames: u32,
}

impl Beyond {
    /// Where a write at `start` of frames `frame_bytes` wide (as the
    /// caller holds them) stopped, if short of the end.
    fn of(outcome: PlayOutcome, start: ATime, frame_bytes: usize) -> Option<Beyond> {
        let done = outcome.dropped_past + outcome.written;
        (outcome.beyond_horizon > 0).then_some(Beyond {
            consumed: done as usize * frame_bytes,
            next: start + done,
            frames: outcome.beyond_horizon,
        })
    }
}

/// Milliseconds since the Unix epoch (the "host clock time" in events).
#[expect(clippy::disallowed_methods, reason = "events carry host time (§5.2)")]
fn host_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// Each connection entry ends with the eviction pass, as `handle_request`
// does: a client whose bounded deque overflowed is evicted rather than
// buffered without limit.
impl Handler for Dispatcher {
    fn connect(&mut self, conn: ConnRef, setup: &[u8], peer: Option<IpAddr>) {
        self.handle_new_client(conn, setup, peer);
        self.evict_overflowed();
        self.core.stats.add(Server::InlineEvents, 1);
    }

    fn disconnect(&mut self, id: ClientId, protocol: Option<FrameError>) {
        // A framing violation poisons only the offending connection; other
        // clients are untouched.
        if protocol.is_some() {
            self.core.stats.add(Server::ProtocolErrors, 1);
        }
        // Ids never admitted, or already evicted, find nothing.
        self.remove_client(id);
        self.evict_overflowed();
        self.core.stats.add(Server::InlineEvents, 1);
    }

    fn request(&mut self, id: ClientId, opcode: u8, payload: &[u8], now: Instant) {
        self.observe(now);
        self.handle_request(id, opcode, payload);
        self.core.stats.add(Server::InlineEvents, 1);
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.tasks.next_deadline()
    }

    // The periodic update re-arms from the deadline it was due at, so
    // neither a late poll timeout nor a busy pass stretches the cadence.
    fn run_due(&mut self, now: Instant) {
        self.observe(now);
        while let Some((deadline, kind)) = self.tasks.pop_due(now) {
            match kind {
                TaskKind::Update => {
                    self.update(now);
                    let (next, skipped) = next_period(deadline, self.update_interval, now);
                    self.core.stats.add(Server::UpdateSkips, u64::from(skipped));
                    self.tasks.schedule(next, TaskKind::Update);
                }
                TaskKind::WakeBlocked(device) => self.retry_suspended(Some(device)),
            }
        }
    }

    /// The update task (§7.2): every device's buffers brought up to its
    /// clock, pass-through, phone events, and suspended clients retried.
    fn update(&mut self, now: Instant) {
        self.observe(now);
        for dev in &mut self.core.devices {
            let gain = dev.output_gain_db;
            let enabled = dev.output_enabled();
            if let Some(b) = dev.buffers.as_mut() {
                b.update(gain, enabled);
            }
        }
        self.run_passthrough();
        self.poll_phone_events();
        self.retry_suspended(None);
        self.evict_overflowed();
    }

    fn outbound(&mut self) -> &mut Outbound {
        &mut self.core.outbound
    }

    fn broadcast(&mut self) -> Option<&mut BroadcastBus> {
        let mut devices = self.core.devices.iter_mut();
        devices.find_map(|d| d.buffers.as_mut()?.bus_mut())
    }
}

impl Dispatcher {
    /// Creates a dispatcher over `core`, its periodic update every
    /// `update_interval`, the first one interval after the first clock
    /// reading the reactor hands it.
    pub fn new(core: ServerCore, update_interval: Duration) -> Self {
        Dispatcher {
            core,
            tasks: TaskQueue::new(),
            update_interval,
            now: None,
            conv_buf: Vec::new(),
            overflowed: Vec::new(),
            retrying: Vec::new(),
        }
    }

    /// Takes the reactor's reading for the pass being served; the first
    /// arms the periodic update.
    fn observe(&mut self, now: Instant) {
        if self.now.is_none() {
            self.tasks
                .schedule(now + self.update_interval, TaskKind::Update);
        }
        self.now = Some(now);
    }

    /// One framed request, in the buffer it was framed in.  Unknown ids (never admitted, or already evicted)
    /// drop the request.
    fn handle_request(&mut self, id: ClientId, opcode: u8, payload: &[u8]) {
        if let Some(c) = self.core.clients.get_mut(&id) {
            if c.blocked.is_some() {
                // The one place a request's bytes must outlive the call:
                // a suspended client's requests wait in pooled copies.
                let mut copy = self.core.pool.take_empty();
                copy.vec_mut().extend_from_slice(payload);
                c.queue.push_back(RawRequest {
                    opcode,
                    payload: copy,
                });
            } else {
                self.process_request(id, opcode, payload);
            }
        }
        self.evict_overflowed();
    }

    /// A connection's setup: the client admitted, or its refusal sent.
    fn handle_new_client(&mut self, conn: ConnRef, setup: &[u8], peer: Option<IpAddr>) {
        // A refused connection is closed from this side: `hang_up` lets
        // the refusal leave, whole, before the socket goes.
        let setup = match af_proto::ConnSetup::decode(setup) {
            Ok(s) => s,
            Err(_) => {
                self.core.outbound.hang_up(conn); // Garbage setup.
                return;
            }
        };
        let order = setup.byte_order;
        // Whichever reply goes out is the first message on a fresh
        // connection: its outbound deque cannot be full.
        let refusal = if !self.core.access.allows(peer) {
            Some("host not authorized".to_string())
        } else if setup.major != af_proto::PROTOCOL_MAJOR {
            Some(format!(
                "protocol version mismatch: client {}.{}, server {}.{}",
                setup.major,
                setup.minor,
                af_proto::PROTOCOL_MAJOR,
                af_proto::PROTOCOL_MINOR
            ))
        } else {
            None
        };
        if let Some(reason) = refusal {
            if let Ok(refusal) = (SetupReply::Failed { reason }).encode(order) {
                let _ = self.core.outbound.deliver(conn, refusal.into());
            }
            self.core.outbound.hang_up(conn);
            return;
        }
        let reply = SetupReply::Success {
            major: af_proto::PROTOCOL_MAJOR,
            minor: af_proto::PROTOCOL_MINOR,
            vendor: self.core.vendor.clone(),
            devices: self.core.devices.iter().map(|d| d.desc).collect(),
        };
        // `ServerBuilder::spawn` refused a server whose reply does not
        // encode.
        let Ok(reply) = reply.encode(order) else {
            self.core.outbound.hang_up(conn);
            return;
        };
        let _ = self.core.outbound.deliver(conn, reply.into());
        self.core
            .clients
            .insert(conn.id(), ClientState::new(order, conn));
        self.core.stats.add(Server::ClientsTotal, 1);
        self.core
            .stats
            .set(Server::ClientsCurrent, self.core.clients.len() as u64);
    }

    fn remove_client(&mut self, id: ClientId) {
        if let Some(client) = self.core.clients.remove(&id) {
            // Release record references held by the client's ACs.
            for ac in client.acs.values() {
                if ac.recording {
                    if let Some((buffers, _, _)) = self.core.buffers_mut(ac.device) {
                        buffers.remove_recorder();
                    }
                }
            }
            self.core.stats.add(Server::Disconnects, 1);
            self.core
                .stats
                .set(Server::ClientsCurrent, self.core.clients.len() as u64);
        }
    }

    /// Evicts every client whose outbound deque refused a message: closes
    /// its socket (the reactor sees the hang-up) and drops its state, so
    /// the reactor's eventual `disconnect` finds nothing.  (A client listed
    /// twice, or gone since, is evicted once.)
    fn evict_overflowed(&mut self) {
        while let Some(id) = self.overflowed.pop() {
            if let Some(c) = self.core.clients.get(&id) {
                self.core.stats.add(Server::EvictedSlow, 1);
                self.core.outbound.kick(c.conn);
                self.remove_client(id);
            }
        }
    }

    // ---- The update task (§7.2). ----

    /// Moves audio directly between pass-through-connected device pairs.
    ///
    /// LoFi routed this in hardware; here the update task copies the
    /// freshest recorded frames of each device into the other's playback
    /// stream a small lead ahead of now (§7.4.1, "Pass-Through").
    fn run_passthrough(&mut self) {
        for i in 0..self.core.devices.len() {
            let (enabled, peer) = {
                let d = &self.core.devices[i];
                (d.passthrough, d.passthrough_peer)
            };
            let Some(j) = peer else { continue };
            if !enabled || i >= self.core.devices.len() || j >= self.core.devices.len() || i == j {
                continue;
            }
            // Copy peer's fresh record data into our play stream.
            let (src, dst) = if i < j {
                let (a, b) = self.core.devices.split_at_mut(j);
                (&mut b[0], &mut a[i])
            } else {
                let (a, b) = self.core.devices.split_at_mut(i);
                (&mut a[j], &mut b[0])
            };
            let (Some(sb), Some(db)) = (src.buffers.as_mut(), dst.buffers.as_mut()) else {
                continue; // Mono views cannot be pass-through endpoints.
            };
            // dst.pt_in tracks how much of src's record stream we consumed.
            let avail = sb.recorded_until() - dst.pt_in;
            if avail <= 0 {
                continue;
            }
            let frames = (avail as u32).min(sb.frames() / 2);
            self.conv_buf.clear();
            sb.read_rec_into(dst.pt_in, frames, &mut self.conv_buf);
            let gain = dst.output_gain_db;
            let out_enabled = dst.outputs_enabled != 0;
            db.write_play(dst.pt_out, &self.conv_buf, false, gain, out_enabled);
            dst.pt_in += frames;
            dst.pt_out += frames;
        }
    }

    fn poll_phone_events(&mut self) {
        for idx in 0..self.core.devices.len() {
            let dev = &mut self.core.devices[idx];
            let Some(phone) = &dev.phone else { continue };
            let signals = phone.poll_signals();
            if signals.is_empty() {
                continue;
            }
            let device_time = dev.buffers.as_mut().map_or(ATime::ZERO, |b| b.now());
            for s in signals {
                let detail = match s {
                    af_device::PhoneSignal::Ring(r) => EventDetail::Ring { ringing: r },
                    af_device::PhoneSignal::Dtmf { digit, down } => EventDetail::Dtmf {
                        digit: digit as u8,
                        down,
                    },
                    af_device::PhoneSignal::Loop(c) => EventDetail::Loop { current: c },
                    af_device::PhoneSignal::Hook(h) => EventDetail::Hook { off_hook: h },
                };
                let event = Event {
                    device: idx as DeviceId,
                    device_time,
                    host_time_ms: host_time_ms(),
                    detail,
                };
                self.broadcast_event(idx as DeviceId, &event);
            }
        }
    }

    fn broadcast_event(&mut self, device: DeviceId, event: &Event) {
        let kind = event.detail.kind();
        for client in self.core.clients.values() {
            if client.mask_for(device).selects(kind)
                && !client.send_bytes(
                    &mut self.core.outbound,
                    event.encode(client.order, client.seq),
                )
            {
                self.overflowed.push(client.conn.id());
            }
        }
    }

    // ---- Suspended clients (the task-resume mechanism). ----

    /// Retries the suspended clients: every one in the update, or only
    /// those suspended on `device` — the scoped form a
    /// `WakeBlocked(device)` task runs, so one device's wake-up does not
    /// re-attempt every suspended request server-wide.
    fn retry_suspended(&mut self, device: Option<DeviceId>) {
        let mut ids = std::mem::take(&mut self.retrying);
        ids.clear();
        ids.extend(self.core.clients.iter().filter_map(|(&id, c)| {
            let op = &c.blocked.as_ref()?.op;
            device.is_none_or(|d| op.device() == d).then_some(id)
        }));
        for &id in &ids {
            self.retry_blocked(id);
            // A completed request may unblock queued requests.
            self.drain_queue(id);
        }
        self.retrying = ids;
    }

    fn drain_queue(&mut self, id: ClientId) {
        loop {
            let raw = {
                let Some(c) = self.core.clients.get_mut(&id) else {
                    return;
                };
                if c.blocked.is_some() {
                    return;
                }
                match c.queue.pop_front() {
                    Some(r) => r,
                    None => return,
                }
            };
            self.process_request(id, raw.opcode, &raw.payload);
        }
    }

    fn retry_blocked(&mut self, id: ClientId) {
        let Some(client) = self.core.clients.get_mut(&id) else {
            return;
        };
        let Some(blocked) = client.blocked.take() else {
            return;
        };
        let seq = blocked.seq;
        let order = client.order;
        match blocked.op {
            BlockedOp::Play {
                device,
                preempt,
                start,
                frames,
                offset,
                suppress_reply,
            } => {
                // Cannot fail: the request passed these checks when it
                // arrived, and devices do not go away.
                match self.advance_play(device, preempt, start, &frames[offset..]) {
                    Ok(None) => {
                        if let Some(reply) = self.play_reply(device, suppress_reply) {
                            self.send_reply_to(id, order, seq, &reply);
                        }
                    }
                    Ok(Some(beyond)) => {
                        // The same buffer, its cursor moved on: the tail
                        // is never copied again.
                        let op = BlockedOp::Play {
                            device,
                            preempt,
                            start: beyond.next,
                            frames,
                            offset: offset + beyond.consumed,
                            suppress_reply,
                        };
                        self.suspend(id, seq, op, beyond.frames);
                    }
                    Err(_) => {}
                }
            }
            BlockedOp::Record {
                ac,
                device,
                start,
                nframes,
                big_endian,
            } => {
                self.record_or_suspend(
                    id, order, seq, ac, device, start, nframes, big_endian, true,
                );
            }
        }
    }

    /// Suspends `id` on `op` until about `frames` more frames have elapsed
    /// on the op's device: the request waits in `client.blocked`, and a
    /// `WakeBlocked` task retries it then.
    fn suspend(&mut self, id: ClientId, seq: u16, op: BlockedOp, frames: u32) {
        let device = op.device();
        let wait = self.frames_wait(device, frames);
        if let Some(client) = self.core.clients.get_mut(&id) {
            client.blocked = Some(Blocked { seq, op });
            // Every caller observed the pass's reading first.
            if let Some(now) = self.now {
                self.tasks
                    .schedule(now + wait, TaskKind::WakeBlocked(device));
            }
        }
    }

    /// How long `frames` frames take on `device`, at least 1 ms.
    fn frames_wait(&self, device: DeviceId, frames: u32) -> Duration {
        let rate = self
            .core
            .devices
            .get(device as usize)
            .map(|d| d.desc.play_sample_freq)
            .unwrap_or(8000)
            .max(1);
        let secs = f64::from(frames) / f64::from(rate);
        Duration::from_secs_f64(secs.max(0.001))
    }

    // ---- Request processing. ----

    fn process_request(&mut self, id: ClientId, raw_opcode: u8, payload: &[u8]) {
        let Some(client) = self.core.clients.get_mut(&id) else {
            return;
        };
        client.seq = client.seq.wrapping_add(1);
        let seq = client.seq;
        let order = client.order;

        let opcode = match Opcode::from_wire(raw_opcode) {
            Ok(op) => op,
            Err(_) => {
                self.send_error_to(
                    id,
                    order,
                    seq,
                    ErrorCode::BadRequest,
                    u32::from(raw_opcode),
                    raw_opcode,
                );
                return;
            }
        };
        // A play's samples are only read on their way to the device buffer:
        // it is handled from the borrowed payload; every other request is
        // small and decodes to its owned form.
        let bad_length = |_| (ErrorCode::BadLength, 0);
        let result = if opcode == Opcode::PlaySamples {
            PlayView::parse(order, payload)
                .map_err(bad_length)
                .and_then(|p| self.h_play(id, seq, p.ac, p.start_time, p.flags, p.data))
        } else {
            Request::decode(order, opcode, payload)
                .map_err(bad_length)
                .and_then(|request| self.dispatch(id, order, seq, request))
        };
        // A client can grow the host and property lists past what a reply's
        // count can say: such a reply is an error, not a panic in encode.
        let result = result.and_then(|reply| {
            let fits = reply.as_ref().map_or(Ok(()), Reply::check_counts);
            fits.map(|()| reply).map_err(bad_length)
        });
        match result {
            Ok(Some(reply)) => self.send_reply_to(id, order, seq, &reply),
            Ok(None) => {}
            Err((code, bad_value)) => {
                self.send_error_to(id, order, seq, code, bad_value, opcode.to_wire())
            }
        }
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn dispatch(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        request: Request,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        use Request as R;
        match request {
            R::SelectEvents { device, mask } => self.h_select_events(id, device, mask),
            R::CreateAc {
                id: ac_id,
                device,
                mask,
                attrs,
            } => self.h_create_ac(id, ac_id, device, mask, attrs),
            R::ChangeAcAttributes {
                id: ac_id,
                mask,
                attrs,
            } => self.h_change_ac(id, ac_id, mask, attrs),
            R::FreeAc { id: ac_id } => self.h_free_ac(id, ac_id),
            R::PlaySamples {
                ac,
                start_time,
                flags,
                data,
            } => self.h_play(id, seq, ac, start_time, flags, &data),
            R::RecordSamples {
                ac,
                start_time,
                nbytes,
                flags,
            } => self.h_record(id, order, seq, ac, start_time, nbytes, flags),
            R::GetTime { device } => match self.core.try_dev_now(device) {
                Some(now) => Ok(Some(Reply::Time { time: now })),
                None => Err((ErrorCode::BadDevice, u32::from(device))),
            },
            R::QueryPhone { device } => self.h_query_phone(device),
            R::EnablePassThrough { device } => self.h_passthrough(device, true),
            R::DisablePassThrough { device } => self.h_passthrough(device, false),
            R::HookSwitch { device, off_hook } => self.h_hookswitch(device, off_hook),
            R::FlashHook { device } => self.h_flashhook(device),
            R::EnableGainControl { device } | R::DisableGainControl { device } => {
                // "Not for general use": accepted as no-ops.
                self.core
                    .device(device)
                    .map(|_| None)
                    .ok_or((ErrorCode::BadDevice, u32::from(device)))
            }
            R::DialPhone { .. } => Err((ErrorCode::BadImplementation, 0)),
            R::SetInputGain { device, db } => self.h_set_gain(device, db, true),
            R::SetOutputGain { device, db } => self.h_set_gain(device, db, false),
            R::QueryInputGain { device } => self.h_query_gain(device, true),
            R::QueryOutputGain { device } => self.h_query_gain(device, false),
            R::EnableInput { device, mask } => self.h_io_control(device, mask, true, true),
            R::EnableOutput { device, mask } => self.h_io_control(device, mask, false, true),
            R::DisableInput { device, mask } => self.h_io_control(device, mask, true, false),
            R::DisableOutput { device, mask } => self.h_io_control(device, mask, false, false),
            R::SetAccessControl { enabled } => {
                self.core.access.set_enabled(enabled);
                Ok(None)
            }
            R::ChangeHosts { insert, address } => {
                if address.len() == 4 || address.len() == 16 {
                    self.core.access.change(insert, &address);
                    Ok(None)
                } else {
                    Err((ErrorCode::BadValue, address.len() as u32))
                }
            }
            R::ListHosts => Ok(Some(Reply::Hosts {
                enabled: self.core.access.enabled(),
                hosts: self.core.access.hosts().to_vec(),
            })),
            R::InternAtom {
                only_if_exists,
                name,
            } => Ok(Some(Reply::InternedAtom {
                atom: self.core.atoms.intern(&name, only_if_exists),
            })),
            R::GetAtomName { atom } => match self.core.atoms.name(atom) {
                Some(n) => Ok(Some(Reply::AtomName {
                    name: n.to_string(),
                })),
                None => Err((ErrorCode::BadAtom, atom.0)),
            },
            R::ChangeProperty {
                device,
                mode,
                property,
                type_,
                data,
            } => self.h_change_property(device, mode, property, type_, data),
            R::DeleteProperty { device, property } => self.h_delete_property(device, property),
            R::GetProperty {
                device,
                delete,
                property,
                type_,
            } => self.h_get_property(device, delete, property, type_),
            R::ListProperties { device } => self
                .core
                .device(device)
                .map(|d| {
                    let mut atoms: Vec<Atom> = d.properties.keys().copied().collect();
                    atoms.sort();
                    Some(Reply::Properties { atoms })
                })
                .ok_or((ErrorCode::BadDevice, u32::from(device))),
            R::NoOperation => Ok(None),
            R::SyncConnection => Ok(Some(Reply::Sync)),
            R::QueryExtension { .. } => Ok(Some(Reply::Extension { present: false })),
            R::ListExtensions => Ok(Some(Reply::Extensions { names: Vec::new() })),
            R::KillClient { .. } => Err((ErrorCode::BadImplementation, 0)),
        }
    }

    // ---- Individual handlers. ----

    fn h_select_events(
        &mut self,
        id: ClientId,
        device: DeviceId,
        mask: EventMask,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        if self.core.device(device).is_none() {
            return Err((ErrorCode::BadDevice, u32::from(device)));
        }
        if let Some(c) = self.core.clients.get_mut(&id) {
            c.event_masks.insert(device, mask);
        }
        Ok(None)
    }

    fn h_create_ac(
        &mut self,
        id: ClientId,
        ac_id: AcId,
        device: DeviceId,
        mask: AcMask,
        attrs: AcAttributes,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let ac = self.core.bind_ac(device, None, mask, &attrs)?;
        let client = self
            .core
            .clients
            .get_mut(&id)
            .ok_or((ErrorCode::BadAccess, 0))?;
        if client.acs.contains_key(&ac_id) {
            return Err((ErrorCode::BadIdChoice, ac_id));
        }
        client.acs.insert(ac_id, ac);
        Ok(None)
    }

    fn h_change_ac(
        &mut self,
        id: ClientId,
        ac_id: AcId,
        mask: AcMask,
        attrs: AcAttributes,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let (device, current) = self
            .core
            .ac_mut(id, ac_id)
            .map(|ac| (ac.device, ac.attrs))?;
        // Everything is checked and built on the side: a refused change
        // leaves the context as it was.
        let next = self.core.bind_ac(device, Some(current), mask, &attrs)?;
        let ac = self.core.ac_mut(id, ac_id)?;
        if next.attrs.encoding != current.encoding {
            // Same encoding, same modules: an ADPCM stream keeps its state.
            ac.play_conv = next.play_conv;
            ac.rec_conv = next.rec_conv;
        }
        ac.attrs = next.attrs;
        ac.play_map = next.play_map;
        Ok(None)
    }

    fn h_free_ac(&mut self, id: ClientId, ac_id: AcId) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let client = self
            .core
            .clients
            .get_mut(&id)
            .ok_or((ErrorCode::BadAccess, 0))?;
        let ac = client.acs.remove(&ac_id).ok_or((ErrorCode::BadAc, ac_id))?;
        if ac.recording {
            if let Some((buffers, _, _)) = self.core.buffers_mut(ac.device) {
                buffers.remove_recorder();
            }
        }
        Ok(None)
    }

    fn h_play(
        &mut self,
        id: ClientId,
        seq: u16,
        ac_id: AcId,
        start_time: ATime,
        flags: u8,
        data: &[u8],
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let ServerCore {
            clients,
            devices,
            pool,
            ..
        } = &mut self.core;
        let client = clients.get_mut(&id).ok_or((ErrorCode::BadAccess, 0))?;
        let ac = client
            .acs
            .get_mut(&ac_id)
            .ok_or((ErrorCode::BadAc, ac_id))?;
        let device = ac.device;
        let preempt = ac.attrs.preempt || flags & play_flags::PREEMPT != 0;
        let suppress_reply = flags & play_flags::SUPPRESS_REPLY != 0;
        let play_gain = i32::from(ac.attrs.play_gain_db);
        // The request's bytes are borrowed and only read.  Big-endian
        // samples (rare) are put in buffer order in a pooled copy first.
        let big = ac.attrs.big_endian_data || flags & play_flags::BIG_ENDIAN_DATA != 0;
        let swapped;
        let data: &[u8] = if big {
            let mut copy = pool.take_empty();
            copy.vec_mut().extend_from_slice(data);
            af_dsp::gain::swap_sample_bytes(ac.attrs.encoding, &mut copy);
            swapped = copy;
            &swapped
        } else {
            data
        };
        let bad_length = (ErrorCode::BadLength, data.len() as u32);
        // Only a suspended play owns its frames.
        let (beyond, frames, offset) = if let Some(map) = &ac.play_map {
            // One pass, from the bytes where they are into the ring.  (A
            // context with a play map is on a device that owns its buffers.)
            let bad_device = (ErrorCode::BadDevice, u32::from(device));
            let dev = devices.get_mut(device as usize).ok_or(bad_device)?;
            let (gain, enabled) = (dev.output_gain_db, dev.output_enabled());
            let buffers = dev.buffers.as_mut().ok_or(bad_device)?;
            let fb = buffers.frame_bytes() * map.sample_bytes();
            if !data.len().is_multiple_of(fb) {
                return Err(bad_length);
            }
            let outcome = buffers.write_play_mapped(start_time, data, map, preempt, gain, enabled);
            let Some(beyond) = Beyond::of(outcome, start_time, fb) else {
                return Ok(self.play_reply(device, suppress_reply));
            };
            // Copy on suspend: what is left waits as device frames.
            let tail = &data[beyond.consumed..];
            let mut frames = vec![0; tail.len() / map.sample_bytes()];
            map.copy_into(&mut frames, tail);
            (beyond, frames, 0)
        } else {
            // What a table cannot express goes through the AC pipeline to
            // device frames, in the dispatcher's reusable scratch, and is
            // gained there.  An identity AC at 0 dB changes nothing: its
            // bytes go to the device buffer from where they are.
            let mut staged = std::mem::take(&mut self.conv_buf);
            let in_scratch = !ac.play_conv.is_identity() || play_gain != 0;
            if in_scratch {
                if ac.play_conv.convert_into(data, &mut staged).is_err() {
                    self.conv_buf = staged;
                    return Err(bad_length);
                }
                // The AC's play gain, in the owner's native encoding.
                af_dsp::gain::apply_gain_bytes(ac.play_conv.to_encoding(), &mut staged, play_gain);
            }
            let frames: &[u8] = if in_scratch { &staged } else { data };
            let beyond = match self.advance_play(device, preempt, start_time, frames) {
                Ok(Some(beyond)) => beyond,
                done => {
                    self.conv_buf = staged;
                    return done.map(|_| self.play_reply(device, suppress_reply));
                }
            };
            // The scratch itself when the frames are in it, else a copy of
            // what is left.
            if in_scratch {
                let offset = beyond.consumed;
                (beyond, staged, offset)
            } else {
                let tail = frames[beyond.consumed..].to_vec();
                (beyond, tail, 0)
            }
        };
        let op = BlockedOp::Play {
            device,
            preempt,
            start: beyond.next,
            frames,
            offset,
            suppress_reply,
        };
        self.suspend(id, seq, op, beyond.frames);
        Ok(None)
    }

    /// Writes what is left of a play — `pending`, in the device encoding
    /// with the AC's gain applied — at `start`.  A play that still reaches
    /// beyond the buffer horizon is to be suspended until time advances
    /// (§2.2: "requests that fall beyond the four-second buffer are
    /// suspended") by the caller, which knows who owns the bytes: told how
    /// far this got, it keeps a consumed-bytes cursor, so the request's
    /// bytes are written exactly once however many wake-ups it takes.
    fn advance_play(
        &mut self,
        device: DeviceId,
        preempt: bool,
        start: ATime,
        pending: &[u8],
    ) -> Result<Option<Beyond>, (ErrorCode, u32)> {
        let (gain, enabled) = self.core.output_state(device);
        let (buffers, lane, channels) = self
            .core
            .buffers_mut(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let fb = match lane {
            Some(_) => buffers.frame_bytes() / channels.max(1) as usize,
            None => buffers.frame_bytes(),
        };
        if !pending.len().is_multiple_of(fb) {
            return Err((ErrorCode::BadLength, pending.len() as u32));
        }
        let outcome = match lane {
            Some(ch) => {
                buffers.write_play_channel(start, pending, ch, channels, preempt, gain, enabled)
            }
            None => buffers.write_play(start, pending, preempt, gain, enabled),
        };
        Ok(Beyond::of(outcome, start, fb))
    }

    /// The reply a finished play is owed.
    fn play_reply(&mut self, device: DeviceId, suppress_reply: bool) -> Option<Reply> {
        (!suppress_reply).then(|| Reply::Time {
            time: self.core.dev_now(device),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn h_record(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        ac_id: AcId,
        start_time: ATime,
        nbytes: u32,
        flags: u8,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        if nbytes as usize > MAX_REQUEST_BYTES {
            return Err((ErrorCode::BadValue, nbytes));
        }
        let (device, nframes, big_endian, newly_recording) = {
            let ac = self.core.ac_mut(id, ac_id)?;
            let samples = ac.attrs.encoding.samples_in_bytes(nbytes as usize);
            let nframes = (samples / ac.attrs.channels.max(1) as usize) as u32;
            let big = ac.attrs.big_endian_data || flags & record_flags::BIG_ENDIAN_DATA != 0;
            let newly = !ac.recording;
            if newly {
                // "The first record operation performed under a context
                // marks the context as recording."
                ac.recording = true;
            }
            (ac.device, nframes, big, newly)
        };
        let (buffers, _, _) = self
            .core
            .buffers_mut(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        if newly_recording {
            buffers.add_recorder();
        }
        let block = flags & record_flags::BLOCK != 0;
        self.record_or_suspend(
            id, order, seq, ac_id, device, start_time, nframes, big_endian, block,
        );
        Ok(None)
    }

    /// The one record path, for a new request and for the retry of a
    /// suspended one alike.  A record update first makes the buffer
    /// consistent if the request touches the shaded region (§7.2); then a
    /// request still missing frames suspends until about then (`block`) or
    /// shrinks to what is recorded, and anything else is answered by
    /// `finish_record`, which builds the reply in place.
    #[allow(clippy::too_many_arguments)]
    fn record_or_suspend(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        ac: AcId,
        device: DeviceId,
        start: ATime,
        mut nframes: u32,
        big_endian: bool,
        block: bool,
    ) {
        let (gain, enabled) = self.core.output_state(device);
        let Some((buffers, _, _)) = self.core.buffers_mut(device) else {
            return;
        };
        let end = start + nframes;
        if end.is_after(buffers.recorded_until()) {
            buffers.update(gain, enabled);
        }
        let recorded_until = buffers.recorded_until();
        let missing = end - recorded_until;
        if missing > 0 {
            if block {
                let op = BlockedOp::Record {
                    ac,
                    device,
                    start,
                    nframes,
                    big_endian,
                };
                self.suspend(id, seq, op, missing as u32);
                return;
            }
            // Non-blocking: return whatever is available now.
            nframes = nframes.min((recorded_until - start).max(0) as u32);
        }
        self.finish_record(id, order, seq, ac, device, start, nframes, big_endian);
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_record(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        ac_id: AcId,
        device: DeviceId,
        start: ATime,
        nframes: u32,
        big_endian: bool,
    ) {
        let (input_enabled, input_gain) = match self.core.resolve(device) {
            Some((owner, _)) => {
                let d = &self.core.devices[owner];
                (d.input_enabled(), d.input_gain_db)
            }
            None => return,
        };
        // The reply is built where the transport's `write` takes it from:
        // the ring is read straight into the pooled reply buffer, and
        // gained there.
        let mut buf = self.core.pool.take_empty();
        let out = buf.vec_mut();
        Reply::open_record(out);
        let now = {
            let Some((buffers, lane, channels)) = self.core.buffers_mut(device) else {
                return;
            };
            match lane {
                Some(ch) => buffers.read_rec_channel_into(start, nframes, ch, channels, out),
                None => buffers.read_rec_into(start, nframes, out),
            }
            buffers.now()
        };
        let Some(client) = self.core.clients.get_mut(&id) else {
            return;
        };
        let Some(ac) = client.acs.get_mut(&ac_id) else {
            return;
        };
        let dev_enc = ac.rec_conv.from_encoding();
        let samples = &mut out[Reply::RECORD_DATA_AT..];
        if !input_enabled {
            af_dsp::silence::fill_silence(dev_enc, samples);
        } else {
            let total_gain = input_gain + i32::from(ac.attrs.record_gain_db);
            af_dsp::gain::apply_gain_bytes(dev_enc, samples, total_gain);
        }
        // Only an AC in another encoding goes through the dispatcher's
        // reusable scratch.
        if !ac.rec_conv.is_identity() {
            let mut converted = std::mem::take(&mut self.conv_buf);
            if ac.rec_conv.convert_into(samples, &mut converted).is_err() {
                converted.clear();
            }
            out.truncate(Reply::RECORD_DATA_AT);
            out.extend_from_slice(&converted);
            self.conv_buf = converted;
        }
        if big_endian {
            let samples = &mut out[Reply::RECORD_DATA_AT..];
            af_dsp::gain::swap_sample_bytes(ac.attrs.encoding, samples);
        }
        Reply::close_record(order, seq, now, out);
        if !client.send_bytes(&mut self.core.outbound, buf) {
            self.overflowed.push(id);
        }
    }

    fn h_query_phone(&mut self, device: DeviceId) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let phone = dev
            .phone
            .as_ref()
            .ok_or((ErrorCode::BadMatch, u32::from(device)))?;
        let (off_hook, loop_current, ringing) = phone.query();
        Ok(Some(Reply::Phone {
            off_hook,
            loop_current,
            ringing,
        }))
    }

    fn h_hookswitch(
        &mut self,
        device: DeviceId,
        off_hook: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let phone = dev
            .phone
            .as_ref()
            .ok_or((ErrorCode::BadMatch, u32::from(device)))?;
        phone.set_hook(off_hook);
        Ok(None)
    }

    fn h_flashhook(&mut self, device: DeviceId) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let phone = dev
            .phone
            .as_ref()
            .ok_or((ErrorCode::BadMatch, u32::from(device)))?;
        phone.flash_hook();
        Ok(None)
    }

    fn h_passthrough(
        &mut self,
        device: DeviceId,
        enable: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let ndev = self.core.devices.len();
        let di = device as usize;
        if di >= ndev {
            return Err((ErrorCode::BadDevice, u32::from(device)));
        }
        let peer = self.core.devices[di]
            .passthrough_peer
            .filter(|p| *p < ndev && *p != di)
            .ok_or((ErrorCode::BadMatch, u32::from(device)))?;
        if self.core.devices[di].passthrough == enable {
            return Ok(None);
        }
        // Pass-through needs both devices' record streams flowing, and
        // fresh cursors: consume the peer's stream from its current
        // position, write a small lead ahead of our own now.  Mono views
        // cannot be endpoints (they have no buffers of their own).
        for (a, b) in [(di, peer), (peer, di)] {
            if self.core.devices[a].buffers.is_none() || self.core.devices[b].buffers.is_none() {
                return Err((ErrorCode::BadMatch, u32::from(device)));
            }
        }
        for (a, b) in [(di, peer), (peer, di)] {
            // Both endpoints were verified to own buffers just above; if
            // that ever stops holding, fail the request, not the server.
            let Some(peer_rec) = self.core.devices[b]
                .buffers
                .as_ref()
                .map(|bufs| bufs.recorded_until())
            else {
                return Err((ErrorCode::BadMatch, u32::from(device)));
            };
            let dev = &mut self.core.devices[a];
            dev.passthrough = enable;
            let Some(bufs) = dev.buffers.as_mut() else {
                return Err((ErrorCode::BadMatch, u32::from(device)));
            };
            if enable {
                bufs.add_recorder();
                let lead = 800u32.min(bufs.frames() / 4);
                dev.pt_out = bufs.now() + lead;
                dev.pt_in = peer_rec;
            } else {
                bufs.remove_recorder();
            }
        }
        // Mirror the pairing so both directions flow in run_passthrough.
        self.core.devices[peer].passthrough_peer = Some(di);
        Ok(None)
    }

    fn h_set_gain(
        &mut self,
        device: DeviceId,
        db: i32,
        input: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        // Gains live on the buffer owner: a mono view's volume is the
        // stereo device's volume (LoFi had no per-channel HiFi gain).
        let (owner, _) = self
            .core
            .resolve(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let dev = &mut self.core.devices[owner];
        let (min, max) = dev.gain_range;
        if db < min || db > max {
            return Err((ErrorCode::BadValue, db as u32));
        }
        if input {
            dev.input_gain_db = db;
        } else {
            dev.output_gain_db = db;
        }
        Ok(None)
    }

    fn h_query_gain(
        &mut self,
        device: DeviceId,
        input: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let (owner, _) = self
            .core
            .resolve(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let dev = &mut self.core.devices[owner];
        Ok(Some(Reply::Gain {
            min_db: dev.gain_range.0,
            max_db: dev.gain_range.1,
            current_db: if input {
                dev.input_gain_db
            } else {
                dev.output_gain_db
            },
        }))
    }

    fn h_io_control(
        &mut self,
        device: DeviceId,
        mask: u32,
        input: bool,
        enable: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let (owner, _) = self
            .core
            .resolve(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let dev = &mut self.core.devices[owner];
        let count = if input {
            dev.desc.number_of_inputs
        } else {
            dev.desc.number_of_outputs
        };
        if mask & !connector_mask(count) != 0 {
            return Err((ErrorCode::BadValue, mask));
        }
        let target = if input {
            &mut dev.inputs_enabled
        } else {
            &mut dev.outputs_enabled
        };
        if enable {
            *target |= mask;
        } else {
            *target &= !mask;
        }
        Ok(None)
    }

    fn h_change_property(
        &mut self,
        device: DeviceId,
        mode: PropertyMode,
        property: Atom,
        type_: Atom,
        data: Vec<u8>,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        if self.core.atoms.name(property).is_none() {
            return Err((ErrorCode::BadAtom, property.0));
        }
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let entry = dev.properties.get_mut(&property);
        match (mode, entry) {
            (PropertyMode::Replace, _) => {
                dev.properties
                    .insert(property, PropertyValue { type_, data });
            }
            (PropertyMode::Prepend, Some(existing)) => {
                if existing.type_ != type_ {
                    return Err((ErrorCode::BadMatch, type_.0));
                }
                let mut combined = data;
                combined.extend_from_slice(&existing.data);
                existing.data = combined;
            }
            (PropertyMode::Append, Some(existing)) => {
                if existing.type_ != type_ {
                    return Err((ErrorCode::BadMatch, type_.0));
                }
                existing.data.extend_from_slice(&data);
            }
            (_, None) => {
                dev.properties
                    .insert(property, PropertyValue { type_, data });
            }
        }
        let now = self.core.dev_now(device);
        let event = Event {
            device,
            device_time: now,
            host_time_ms: host_time_ms(),
            detail: EventDetail::Property {
                atom: property,
                exists: true,
            },
        };
        self.broadcast_event(device, &event);
        Ok(None)
    }

    fn h_delete_property(
        &mut self,
        device: DeviceId,
        property: Atom,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        if dev.properties.remove(&property).is_some() {
            let now = self.core.dev_now(device);
            let event = Event {
                device,
                device_time: now,
                host_time_ms: host_time_ms(),
                detail: EventDetail::Property {
                    atom: property,
                    exists: false,
                },
            };
            self.broadcast_event(device, &event);
        }
        Ok(None)
    }

    fn h_get_property(
        &mut self,
        device: DeviceId,
        delete: bool,
        property: Atom,
        type_filter: Atom,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let Some(value) = dev.properties.get(&property) else {
            return Ok(Some(Reply::Property {
                type_: Atom::NONE,
                data: Vec::new(),
            }));
        };
        if !type_filter.is_none() && type_filter != value.type_ {
            // Type mismatch: report the actual type with no data, as X does.
            return Ok(Some(Reply::Property {
                type_: value.type_,
                data: Vec::new(),
            }));
        }
        let reply = Reply::Property {
            type_: value.type_,
            data: value.data.clone(),
        };
        if delete {
            dev.properties.remove(&property);
            let now = self.core.dev_now(device);
            let event = Event {
                device,
                device_time: now,
                host_time_ms: host_time_ms(),
                detail: EventDetail::Property {
                    atom: property,
                    exists: false,
                },
            };
            self.broadcast_event(device, &event);
        }
        Ok(Some(reply))
    }

    // ---- Outbound helpers. ----

    fn send_reply_to(&mut self, id: ClientId, order: af_proto::ByteOrder, seq: u16, reply: &Reply) {
        if let Some(c) = self.core.clients.get(&id) {
            // Header and payload are encoded into one pooled buffer: one
            // allocation-free encode, one `write` on the transport, and
            // dropping the written buffer recycles the storage.
            let mut buf = self.core.pool.take_empty();
            reply.encode_into(order, seq, buf.vec_mut());
            if !c.send_bytes(&mut self.core.outbound, buf) {
                self.overflowed.push(id);
            }
        }
    }

    fn send_error_to(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        code: ErrorCode,
        bad_value: u32,
        opcode: u8,
    ) {
        if let Some(c) = self.core.clients.get(&id) {
            let error = WireError {
                code,
                sequence: seq,
                bad_value,
                opcode,
            };
            if !c.send_bytes(
                &mut self.core.outbound,
                message::encode_error(order, &error),
            ) {
                self.overflowed.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::OUTBOUND_QUEUE_CAPACITY;

    fn bare_dispatcher() -> Dispatcher {
        dispatcher_over(Vec::new())
    }

    fn dispatcher_over(devices: Vec<Device>) -> Dispatcher {
        let core = ServerCore {
            vendor: "test".into(),
            devices,
            clients: HashMap::new(),
            atoms: AtomRegistry::new(),
            access: AccessControl::new(),
            stats: Arc::default(),
            pool: BufferPool::shared(),
            outbound: Outbound::default(),
        };
        Dispatcher::new(core, Duration::from_secs(3600))
    }

    #[test]
    fn overflow_raised_between_events_is_evicted_by_the_next_one() {
        let mut dispatcher = bare_dispatcher();

        // One admitted client on a connection nothing drains: the setup
        // reply is its first waiting message.
        let conn = dispatcher.core.outbound.detached(7);
        dispatcher.connect(conn, &af_proto::ConnSetup::new().encode().unwrap(), None);
        assert!(dispatcher.core.clients.contains_key(&7));

        // Messages hit the bound outside any event's eviction pass: the
        // client is still there, listed.
        for _ in 1..OUTBOUND_QUEUE_CAPACITY {
            dispatcher.send_reply_to(7, af_proto::ByteOrder::Little, 1, &Reply::Sync);
        }
        assert_eq!(dispatcher.overflowed, []);
        dispatcher.send_reply_to(7, af_proto::ByteOrder::Little, 1, &Reply::Sync);
        assert_eq!(dispatcher.overflowed, [7]);
        let outbound = &mut dispatcher.core.outbound;
        assert_eq!(
            outbound.queued(conn),
            OUTBOUND_QUEUE_CAPACITY,
            "bound never exceeded"
        );
        assert_eq!(outbound.kicks(), 0);

        // Any later event — here one that has nothing to do with the
        // client — runs the pass.
        dispatcher.disconnect(99, None);
        assert!(dispatcher.core.clients.is_empty(), "listed client evicted");
        assert_eq!(
            dispatcher.core.outbound.kicks(),
            1,
            "its connection was kicked, once"
        );
        assert_eq!(dispatcher.core.stats.get(Server::EvictedSlow), 1);
        assert_eq!(dispatcher.overflowed, [], "list consumed");
    }

    /// An 8 kHz codec device with a 32,768-frame buffer, on `clock`.
    fn codec(clock: Arc<af_device::VirtualClock>) -> Device {
        use af_device::io::{NullSink, SilenceSource};
        let source = Box::new(SilenceSource::new(0xFF));
        let mut builder = crate::ServerBuilder::new();
        builder.add_codec(clock, Box::new(NullSink), source);
        builder.take_devices().remove(0)
    }

    /// Hands `request` to the dispatcher as the reactor frames it, at the
    /// reading `now`.
    fn send(dispatcher: &mut Dispatcher, id: ClientId, request: Request, now: Instant) {
        let frame = request.encode(af_proto::ByteOrder::Little);
        let header = frame[..4].try_into().unwrap();
        let (opcode, _) =
            af_proto::decode_frame_header(af_proto::ByteOrder::Little, header).unwrap();
        dispatcher.request(id, opcode, &frame[4..], now);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "one reading to offset from")]
    fn a_suspended_play_wakes_at_the_reading_it_was_handed_plus_its_frames() {
        let clock = Arc::new(af_device::VirtualClock::new(8000));
        let mut dispatcher = dispatcher_over(vec![codec(Arc::clone(&clock))]);
        let conn = dispatcher.core.outbound.detached(7);
        dispatcher.connect(conn, &af_proto::ConnSetup::new().encode().unwrap(), None);
        let t0 = Instant::now();
        let create = Request::CreateAc {
            id: 1,
            device: 0,
            mask: AcMask::default(),
            attrs: AcAttributes::default(),
        };
        send(&mut dispatcher, 7, create, t0);
        let queued = dispatcher.core.outbound.queued(conn);

        // 4,000 frames wholly past the 32,768-frame horizon: the client
        // suspends, and its wake-up is 0.5 s (4,000 frames at 8 kHz) after
        // the reading the request came with, not after any clock read.
        let play = Request::PlaySamples {
            ac: 1,
            start_time: ATime::new(32_768),
            flags: 0,
            data: vec![0x55; 4000],
        };
        send(&mut dispatcher, 7, play, t0);
        let deadline = t0 + Duration::from_millis(500);
        assert!(
            dispatcher.core.clients[&7].blocked.is_some(),
            "not suspended"
        );
        assert_eq!(dispatcher.tasks.next_deadline(), Some(deadline));

        // The device time has come; the host time decides.
        clock.advance(4000);
        dispatcher.run_due(deadline - Duration::from_nanos(1));
        assert!(dispatcher.core.clients[&7].blocked.is_some(), "woke early");
        dispatcher.run_due(deadline);
        assert!(
            dispatcher.core.clients[&7].blocked.is_none(),
            "still suspended"
        );
        assert_eq!(
            dispatcher.core.outbound.queued(conn),
            queued + 1,
            "the play's reply"
        );
        assert_eq!(
            dispatcher.tasks.next_deadline(),
            Some(t0 + Duration::from_secs(3600)),
            "the update, one interval after the first reading"
        );
    }
}
