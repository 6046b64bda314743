//! Assembling and running servers.
//!
//! The paper shipped several server binaries — `Alofi` (two CODECs, HiFi,
//! telephone line), `Aaxp`/`Asparc` (one base-board CODEC), `Als`
//! (LineServer) — that differed only in their device-dependent bottom
//! halves.  [`ServerBuilder`] composes the same shapes from simulated
//! devices and produces a [`RunningServer`]: the dispatcher behind its
//! dispatch lock, the task thread (`af-dispatcher`) and the reactor thread
//! (`af-reactor-0`), which runs request handlers itself.

use crate::backend::{AlsBackend, LocalBackend};
use crate::broadcast::{BroadcastBus, BroadcastConfig, BusTap};
use crate::buffer::DeviceBuffers;
use crate::dispatch::{DispatchHandle, Dispatcher, ServerCore};
use crate::reactor::{Listener, Reactor};
use crate::state::{connector_mask, AccessControl, AtomRegistry, Device, ServerStats};
use crate::stats::{LinkCounters, ServerCounters};
use af_device::hardware::{HwConfig, VirtualAudioHw};
use af_device::io::{NullSink, SampleSink, SampleSource, SilenceSource};
use af_device::lineserver::LineServerLink;
use af_device::{PhoneLine, SharedClock};
use af_dsp::Encoding;
use af_proto::{DeviceDesc, DeviceKind};
use af_time::ATime;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Ingredients for one abstract audio device.
struct DeviceSetup {
    /// Advertised description (index is assigned by the builder).
    desc: DeviceDesc,
    /// The buffering engine over its backend (owners only).
    buffers: Option<DeviceBuffers>,
    /// For mono views: `(parent device index, channel lane)`.
    mono_of: Option<(usize, u8)>,
    /// Attached telephone line, if any.
    phone: Option<PhoneLine>,
    /// Pass-through peer device index, if wired.
    passthrough_peer: Option<usize>,
}

/// Builder for an AudioFile server.
pub struct ServerBuilder {
    vendor: String,
    update_interval: Duration,
    devices: Vec<DeviceSetup>,
    tcp: Option<SocketAddr>,
    unix: Option<PathBuf>,
    access_enabled: bool,
    link_stats: Vec<Arc<LinkCounters>>,
    broadcast: Option<(usize, SocketAddr, BroadcastConfig)>,
}

/// Server play/record buffer frames for an 8 kHz device: ≈ 4 seconds
/// (the next power of two above 4 × 8000).
pub const CODEC_BUFFER_FRAMES: u32 = 32_768;
/// Server buffer frames for a 44.1/48 kHz device: ≈ 4–6 seconds.
pub const HIFI_BUFFER_FRAMES: u32 = 262_144;

impl ServerBuilder {
    /// Creates an empty builder.
    pub fn new() -> ServerBuilder {
        ServerBuilder {
            vendor: "audiofile-rs".to_string(),
            update_interval: Duration::from_millis(crate::MSUPDATE),
            devices: Vec::new(),
            tcp: None,
            unix: None,
            access_enabled: true,
            link_stats: Vec::new(),
            broadcast: None,
        }
    }

    /// Broadcasts `device`'s post-mix speaker bus to HTTP/ICY listeners on
    /// `addr` (encode-once fan-out, DESIGN.md §13).  Use port 0 for an
    /// ephemeral port; the bound address is
    /// [`RunningServer::broadcast_addr`].  The device must own buffers (not
    /// a mono view).  Listeners are served by the reactor.
    pub fn broadcast(self, device: usize, addr: SocketAddr) -> Self {
        self.broadcast_with_config(device, addr, BroadcastConfig::default())
    }

    /// [`ServerBuilder::broadcast`] with explicit bus tuning (chunk size,
    /// ring depth, preroll, stall budget) — tests shrink these.
    pub fn broadcast_with_config(
        mut self,
        device: usize,
        addr: SocketAddr,
        cfg: BroadcastConfig,
    ) -> Self {
        self.broadcast = Some((device, addr, cfg));
        self
    }

    /// Sets the vendor string reported at connection setup.
    pub fn vendor(mut self, vendor: &str) -> Self {
        self.vendor = vendor.to_string();
        self
    }

    /// Sets the update task period (the paper's `MSUPDATE`, default 100 ms).
    pub fn update_interval(mut self, interval: Duration) -> Self {
        self.update_interval = interval;
        self
    }

    /// Listens on a TCP address (use port 0 for an ephemeral port).
    pub fn listen_tcp(mut self, addr: SocketAddr) -> Self {
        self.tcp = Some(addr);
        self
    }

    /// Listens on a Unix-domain socket path.
    pub fn listen_unix(mut self, path: PathBuf) -> Self {
        self.unix = Some(path);
        self
    }

    /// Starts with access control disabled (any host may connect).
    pub fn access_control(mut self, enabled: bool) -> Self {
        self.access_enabled = enabled;
        self
    }

    fn desc_for(
        kind: DeviceKind,
        cfg: &HwConfig,
        frames: u32,
        phone_masks: (u32, u32),
    ) -> DeviceDesc {
        DeviceDesc {
            index: 0, // Assigned at spawn.
            kind,
            play_sample_freq: cfg.rate,
            rec_sample_freq: cfg.rate,
            play_buf_type: cfg.encoding,
            rec_buf_type: cfg.encoding,
            play_nchannels: cfg.channels,
            rec_nchannels: cfg.channels,
            play_nsamples_buf: frames,
            rec_nsamples_buf: frames,
            number_of_inputs: 1,
            number_of_outputs: 1,
            inputs_from_phone: phone_masks.0,
            outputs_to_phone: phone_masks.1,
            supported_types: DeviceDesc::all_convertible_types(),
        }
    }

    /// Adds an 8 kHz µ-law codec device with the given endpoints.
    ///
    /// Returns the device index.
    pub fn add_codec(
        &mut self,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
    ) -> usize {
        self.add_codec_with_buffer(clock, sink, source, CODEC_BUFFER_FRAMES)
    }

    /// Adds a codec with an explicit server buffer size in frames (a power
    /// of two).  The buffer size is an advertised device attribute (§2.1
    /// footnote: "the precise size of the server buffer is available to
    /// clients as an attribute of the audio device"), so nonstandard sizes
    /// are legitimate — benchmarks use larger ones.
    pub fn add_codec_with_buffer(
        &mut self,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
        frames: u32,
    ) -> usize {
        let cfg = HwConfig::codec();
        let hw = VirtualAudioHw::new(cfg, clock, sink, source);
        let buffers =
            DeviceBuffers::new(Box::new(LocalBackend::new(hw)), Encoding::Mu255, 1, frames);
        self.push(DeviceSetup {
            desc: Self::desc_for(DeviceKind::Codec, &cfg, frames, (0, 0)),
            buffers: Some(buffers),
            mono_of: None,
            phone: None,
            passthrough_peer: None,
        })
    }

    /// Adds a codec whose connectors reach a telephone line (LoFi device 0).
    pub fn add_phone_codec(&mut self, clock: SharedClock, line: PhoneLine) -> usize {
        let cfg = HwConfig::codec();
        let hw = VirtualAudioHw::new(
            cfg,
            clock,
            Box::new(line.line_sink()),
            Box::new(line.line_source()),
        );
        let buffers = DeviceBuffers::new(
            Box::new(LocalBackend::new(hw)),
            Encoding::Mu255,
            1,
            CODEC_BUFFER_FRAMES,
        );
        self.push(DeviceSetup {
            desc: Self::desc_for(DeviceKind::Codec, &cfg, CODEC_BUFFER_FRAMES, (1, 1)),
            buffers: Some(buffers),
            mono_of: None,
            phone: Some(line),
            passthrough_peer: None,
        })
    }

    /// Adds a 44.1 kHz 16-bit stereo HiFi device.
    pub fn add_hifi(
        &mut self,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
    ) -> usize {
        let cfg = HwConfig::hifi();
        let hw = VirtualAudioHw::new(cfg, clock, sink, source);
        let buffers = DeviceBuffers::new(
            Box::new(LocalBackend::new(hw)),
            Encoding::Lin16,
            2,
            HIFI_BUFFER_FRAMES,
        );
        self.push(DeviceSetup {
            desc: Self::desc_for(DeviceKind::Hifi, &cfg, HIFI_BUFFER_FRAMES, (0, 0)),
            buffers: Some(buffers),
            mono_of: None,
            phone: None,
            passthrough_peer: None,
        })
    }

    /// Adds a HiFi stereo device plus two mono-view devices for its left
    /// and right channels, as the Alofi server does (§7.4.1: "to support
    /// mono channel operations, we also implemented two audio devices that
    /// represent the separate left and right channels of the stereo
    /// device").
    ///
    /// Returns `(stereo, left, right)` device indices.
    pub fn add_hifi_with_mono(
        &mut self,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
    ) -> (usize, usize, usize) {
        let stereo = self.add_hifi(clock, sink, source);
        let cfg = HwConfig::hifi();
        let mono_desc = |kind: DeviceKind| {
            let mut d = Self::desc_for(kind, &cfg, HIFI_BUFFER_FRAMES, (0, 0));
            d.play_nchannels = 1;
            d.rec_nchannels = 1;
            d
        };
        let left = self.push(DeviceSetup {
            desc: mono_desc(DeviceKind::HifiLeft),
            buffers: None,
            mono_of: Some((stereo, 0)),
            phone: None,
            passthrough_peer: None,
        });
        let right = self.push(DeviceSetup {
            desc: mono_desc(DeviceKind::HifiRight),
            buffers: None,
            mono_of: Some((stereo, 1)),
            phone: None,
            passthrough_peer: None,
        });
        (stereo, left, right)
    }

    /// Adds a device served by a remote LineServer over UDP (`Als`).
    pub fn add_lineserver(&mut self, addr: SocketAddr) -> std::io::Result<usize> {
        let link = LineServerLink::connect(addr)?;
        Ok(self.add_lineserver_link(link))
    }

    /// Adds a LineServer device over an already-connected link — the hook
    /// for links with a fault-injecting UDP socket underneath.
    pub fn add_lineserver_link(&mut self, link: LineServerLink) -> usize {
        self.link_stats.push(Arc::clone(link.counters()));
        let backend = AlsBackend::new(link, 8000, af_device::lineserver::LS_BUFFER_SAMPLES);
        let buffers =
            DeviceBuffers::new(Box::new(backend), Encoding::Mu255, 1, CODEC_BUFFER_FRAMES);
        let cfg = HwConfig {
            encoding: Encoding::Mu255,
            rate: 8000,
            channels: 1,
            ring_frames: af_device::lineserver::LS_BUFFER_SAMPLES,
        };
        self.push(DeviceSetup {
            desc: Self::desc_for(DeviceKind::LineServer, &cfg, CODEC_BUFFER_FRAMES, (0, 0)),
            buffers: Some(buffers),
            mono_of: None,
            phone: None,
            passthrough_peer: None,
        })
    }

    fn push(&mut self, setup: DeviceSetup) -> usize {
        self.devices.push(setup);
        self.devices.len() - 1
    }

    /// Wires two devices as a pass-through pair (§7.4.1).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or they are equal.
    pub fn pair_passthrough(&mut self, a: usize, b: usize) {
        assert!(a != b && a < self.devices.len() && b < self.devices.len());
        self.devices[a].passthrough_peer = Some(b);
        self.devices[b].passthrough_peer = Some(a);
    }

    /// The standard LoFi shape: a phone codec, a local codec (pass-through
    /// paired), and a HiFi device — all on one clock, as LoFi's devices
    /// shared synchronized interrupts.
    ///
    /// Returns `(builder, phone_line)`.
    pub fn lofi(clock: SharedClock) -> (ServerBuilder, PhoneLine) {
        let mut b = ServerBuilder::new().vendor("audiofile-rs Alofi");
        let line = PhoneLine::new();
        let d0 = b.add_phone_codec(Arc::clone(&clock), line.clone());
        let d1 = b.add_codec(
            Arc::clone(&clock),
            Box::new(NullSink),
            Box::new(SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
        );
        b.pair_passthrough(d0, d1);
        // Like Alofi, "presents five audio devices to clients": two CODECs
        // and three HiFi views (stereo, left, right).
        b.add_hifi_with_mono(clock, Box::new(NullSink), Box::new(SilenceSource::new(0)));
        (b, line)
    }

    /// Starts the server: dispatcher, reactor, listeners and the task
    /// thread.
    ///
    /// The reactor is the only transport, so this fails with
    /// `ErrorKind::Unsupported` on targets `af_sys` has no syscall backend
    /// for (supported: Linux on x86_64 and aarch64), and with
    /// `epoll_create1`'s own error when the reactor cannot get its epoll
    /// instance.  On any error every thread started so far has been joined
    /// by the time it is returned.
    pub fn spawn(self) -> std::io::Result<RunningServer> {
        let mut devices = Vec::with_capacity(self.devices.len());
        for (i, mut setup) in self.devices.into_iter().enumerate() {
            setup.desc.index = i as u8;
            let inputs_enabled = connector_mask(setup.desc.number_of_inputs);
            let outputs_enabled = connector_mask(setup.desc.number_of_outputs);
            devices.push(Device {
                desc: setup.desc,
                buffers: setup.buffers,
                mono_of: setup.mono_of,
                phone: setup.phone,
                input_gain_db: 0,
                output_gain_db: 0,
                gain_range: (-30, 30),
                inputs_enabled,
                outputs_enabled,
                passthrough: false,
                passthrough_peer: setup.passthrough_peer,
                properties: HashMap::new(),
                gain_control_locked: false,
                pt_in: ATime::ZERO,
                pt_out: ATime::ZERO,
            });
        }
        let mut access = AccessControl::new();
        access.set_enabled(self.access_enabled);
        // Broadcast fan-out: build the bus and install the speaker-bus tap
        // on the device, so the update task publishes what it plays.
        let mut broadcast_bus: Option<Arc<BroadcastBus>> = None;
        if let Some((dev_idx, _, cfg)) = &self.broadcast {
            let buffers = devices
                .get_mut(*dev_idx)
                .and_then(|d| d.buffers.as_mut())
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "broadcast device must own buffers",
                    )
                })?;
            let bus = BroadcastBus::new(cfg.clone(), buffers.frame_bytes());
            let fill = af_dsp::silence::silence_byte(buffers.encoding()).unwrap_or(0);
            buffers.set_tap(Box::new(BusTap::new(Arc::clone(&bus), fill)));
            broadcast_bus = Some(bus);
        }
        // The reactor stages frames in the buffer pool; the dispatcher shares it
        // so reply buffers written out by the reactor come back around.  The
        // free list is sized for per-connection partial-frame accumulation
        // across thousands of sockets.
        let pool = crate::pool::BufferPool::with_max_idle(crate::pool::REACTOR_MAX_IDLE);
        let server_counters = Arc::new(ServerCounters::default());
        let core = ServerCore {
            vendor: self.vendor,
            devices,
            clients: HashMap::new(),
            atoms: AtomRegistry::new(),
            access,
            stats: Arc::clone(&server_counters),
            pool: Arc::clone(&pool),
        };
        let dispatch = DispatchHandle::new(Dispatcher::new(core, self.update_interval));

        // Every step from here to the task thread can fail (an address in
        // use, a bad socket path, no epoll instance).  The listeners are
        // bound before any thread starts, and the task thread starts only
        // once nothing can fail any more, so an `Err` leaves no thread
        // behind.  The Unix socket is bound last: it is the one listener
        // that leaves a file, removed again if the reactor fails.
        let mut listeners = Vec::new();
        let mut bind_tcp = |addr, broadcast| -> std::io::Result<_> {
            let listener = Listener::tcp(addr, broadcast)?;
            let bound = listener.local_addr();
            listeners.push(listener);
            Ok(bound)
        };
        let tcp_addr = match self.tcp {
            Some(addr) => bind_tcp(addr, false)?,
            None => None,
        };
        let broadcast_addr = match &self.broadcast {
            Some((_, addr, _)) => bind_tcp(*addr, true)?,
            None => None,
        };
        if let Some(path) = &self.unix {
            listeners.push(Listener::unix(path)?);
        }
        let bus_counters = broadcast_bus.as_ref().map(|bus| Arc::clone(bus.stats()));
        let spawned = Reactor::spawn(
            dispatch.clone(),
            Arc::clone(&pool),
            listeners,
            broadcast_bus,
        );
        let reactor = spawned.inspect_err(|_| {
            if let Some(path) = &self.unix {
                let _ = std::fs::remove_file(path);
            }
        })?;
        let handle = ServerHandle {
            dispatch: dispatch.clone(),
        };
        let join = std::thread::Builder::new()
            .name("af-dispatcher".into())
            .spawn(move || dispatch.run_task_thread())?;
        let stats = Arc::new(ServerStats {
            server: server_counters,
            reactor: reactor.stats(),
            links: self.link_stats,
            broadcast: bus_counters,
        });
        Ok(RunningServer {
            handle,
            stats,
            pool,
            reactor: Some(reactor),
            tcp_addr,
            broadcast_addr,
            unix_path: self.unix,
            join: Some(join),
        })
    }
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder::new()
    }
}

/// A control handle into a running server's dispatcher.  Every call takes
/// the dispatch lock on the calling thread and returns when it is done.
#[derive(Clone)]
pub struct ServerHandle {
    dispatch: DispatchHandle,
}

impl ServerHandle {
    /// Runs the update task now, on the calling thread.
    ///
    /// Tests that drive a [`af_device::VirtualClock`] call this after
    /// advancing the clock, standing in for the periodic task firing.
    pub fn run_update(&self) {
        self.dispatch.run_update();
    }

    /// Returns once everything submitted before the call has been handled.
    pub fn barrier(&self) {
        self.dispatch.barrier();
    }

    /// Shuts the dispatcher down: the task thread exits, and later
    /// transport events are refused.
    pub fn shutdown(&self) {
        self.dispatch.shutdown();
    }
}

/// A running server: task thread, reactor, and control handle.
pub struct RunningServer {
    handle: ServerHandle,
    stats: Arc<ServerStats>,
    pool: Arc<crate::pool::BufferPool>,
    reactor: Option<Reactor>,
    tcp_addr: Option<SocketAddr>,
    broadcast_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    /// The bound TCP address, if a TCP listener was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound broadcast (HTTP/ICY) address, if broadcast was configured.
    pub fn broadcast_addr(&self) -> Option<SocketAddr> {
        self.broadcast_addr
    }

    /// Every counter the server keeps: its own, the reactor's, each link's
    /// and the broadcast bus's.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The pool the transport stages split frames in and the dispatcher
    /// builds replies in (its `allocs`/`reuses` count the traffic).
    pub fn pool(&self) -> &crate::pool::BufferPool {
        &self.pool
    }

    /// The Unix-domain socket path, if configured.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// The control handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Stops the server and joins the task thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.handle.shutdown();
        if let Some(mut reactor) = self.reactor.take() {
            // Raises the stop flag and wakes the reactor to see it.
            reactor.shutdown();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop();
        }
    }
}
