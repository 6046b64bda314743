//! Assembling and running servers.
//!
//! The paper shipped several server binaries — `Alofi` (two CODECs, HiFi,
//! telephone line), `Aaxp`/`Asparc` (one base-board CODEC), `Als`
//! (LineServer) — that differed only in their device-dependent bottom
//! halves.  [`ServerBuilder`] composes the same shapes from simulated
//! devices and produces a [`RunningServer`]: one thread, the reactor
//! (`af-reactor-0`), which owns the dispatcher, runs every request handler
//! and runs the task queue in its poll timeout.

use crate::backend::{AlsBackend, LocalBackend};
use crate::broadcast::{BroadcastBus, BroadcastConfig};
use crate::buffer::DeviceBuffers;
use crate::dispatch::{Dispatcher, ServerCore};
use crate::reactor::{Call, Control, Listener, Reactor};
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

    /// Starts the server: the dispatcher, on the reactor thread, and the
    /// listeners.
    ///
    /// The reactor is the only transport, so this fails with
    /// `ErrorKind::Unsupported` on targets `af_sys` has no syscall backend
    /// for (supported: Linux on x86_64 and aarch64), and with
    /// `epoll_create1`'s own error when the reactor cannot get its epoll
    /// instance.  On any error no thread has been started.
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
                pt_in: ATime::ZERO,
                pt_out: ATime::ZERO,
            });
        }
        let mut access = AccessControl::new();
        access.set_enabled(self.access_enabled);
        // Broadcast fan-out: the device's buffers hold the bus and tap their
        // speaker bus into it, so the update task publishes what it plays.
        let mut bus_counters = None;
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
            let fill = af_dsp::silence::silence_byte(buffers.encoding()).unwrap_or(0);
            let bus = BroadcastBus::new(cfg.clone(), buffers.frame_bytes(), fill);
            bus_counters = Some(Arc::clone(bus.stats()));
            buffers.set_bus(bus);
        }
        let server_counters = Arc::new(ServerCounters::default());
        let stats = Arc::clone(&server_counters);
        let (vendor, update_interval) = (self.vendor, self.update_interval);
        // Built on the reactor thread, which owns the dispatcher from then
        // on; its replies go into the reactor's pool.
        let make = move |outbound, pool| {
            let core = ServerCore {
                vendor,
                devices,
                clients: HashMap::new(),
                atoms: AtomRegistry::new(),
                access,
                stats,
                pool,
                outbound,
            };
            Dispatcher::new(core, update_interval)
        };

        // Every step from here to the reactor thread can fail (an address
        // in use, a bad socket path, no epoll instance).  The listeners are
        // bound before the thread starts, so an `Err` leaves no thread
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
        let reactor = Reactor::spawn(make, listeners).inspect_err(|_| {
            if let Some(path) = &self.unix {
                let _ = std::fs::remove_file(path);
            }
        })?;
        let handle = ServerHandle {
            control: reactor.control(),
        };
        let stats = Arc::new(ServerStats {
            server: server_counters,
            reactor: reactor.stats(),
            links: self.link_stats,
            broadcast: bus_counters,
        });
        Ok(RunningServer {
            handle,
            stats,
            reactor: Some(reactor),
            tcp_addr,
            broadcast_addr,
            unix_path: self.unix,
        })
    }
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder::new()
    }
}

/// A control handle into a running server, for other threads: each call
/// is a request the reactor answers ([`Call`]), and returns once it has
/// been answered.
#[derive(Clone)]
pub struct ServerHandle {
    control: Control,
}

impl ServerHandle {
    /// Runs the update task now, on the reactor thread.
    ///
    /// Tests that drive a [`af_device::VirtualClock`] call this after
    /// advancing the clock, standing in for the periodic task firing.
    pub fn run_update(&self) {
        self.control.call(Call::Update);
    }

    /// Returns once everything the reactor was handed before the call has
    /// been handled.
    pub fn barrier(&self) {
        self.control.call(Call::Barrier);
    }
}

/// A running server: the reactor thread, and the control handle.
pub struct RunningServer {
    handle: ServerHandle,
    stats: Arc<ServerStats>,
    reactor: Option<Reactor>,
    tcp_addr: Option<SocketAddr>,
    broadcast_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
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

    /// The Unix-domain socket path, if configured.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// The control handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Stops the server and joins the reactor thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(mut reactor) = self.reactor.take() {
            reactor.stop();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// What other threads hold of a server stays `Send` and `Sync`; what only
// the reactor thread may touch (the buffer pool, pooled buffers, the
// connections) is not `Send`.
const _: () = {
    const fn cross_thread<T: Send + Sync>() {}
    cross_thread::<RunningServer>();
    cross_thread::<ServerHandle>();
    cross_thread::<ServerStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Server;
    use af_device::VirtualClock;
    use af_proto::{AcAttributes, AcMask, ByteOrder, ConnSetup, Request};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A speaker that counts the services it gets, and notes any that ran
    /// off the reactor thread.
    struct Witness {
        services: Arc<AtomicU64>,
        off_reactor: Arc<AtomicBool>,
    }

    impl SampleSink for Witness {
        fn consume(&mut self, _time: ATime, _data: &[u8]) {
            if std::thread::current().name() != Some("af-reactor-0") {
                self.off_reactor.store(true, Ordering::SeqCst);
            }
            self.services.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn handle_calls_from_another_thread_return_after_their_work_ran_on_the_reactor() {
        // The one path into the server from another thread: the handle's
        // calls, answered by the reactor while a client keeps it busy.
        let clock = Arc::new(VirtualClock::new(8000));
        let services = Arc::new(AtomicU64::new(0));
        let off_reactor = Arc::new(AtomicBool::new(false));
        let mut builder = ServerBuilder::new()
            .listen_tcp("127.0.0.1:0".parse().unwrap())
            .update_interval(Duration::from_secs(3600)); // Only `run_update` services.
        let speaker = Witness {
            services: Arc::clone(&services),
            off_reactor: Arc::clone(&off_reactor),
        };
        builder.add_codec(
            clock.clone(),
            Box::new(speaker),
            Box::new(SilenceSource::new(0xFF)),
        );
        let server = builder.spawn().unwrap();

        // The client: setup, a context, then plays until told to stop,
        // counting the replies it has read.
        let order = ByteOrder::Little;
        let mut sock = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        let mut len = [0u8; 4];
        sock.read_exact(&mut len).unwrap();
        sock.read_exact(&mut vec![0u8; u32::from_le_bytes(len) as usize])
            .unwrap();
        let mut hello = Request::CreateAc {
            id: 1,
            device: 0,
            mask: AcMask::default(),
            attrs: AcAttributes::default(),
        }
        .encode(order);
        hello.extend_from_slice(&Request::SyncConnection.encode(order));
        sock.write_all(&hello).unwrap();
        sock.read_exact(&mut [0u8; 8]).unwrap();
        let replies = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let client = {
            let (replies, stop) = (Arc::clone(&replies), Arc::clone(&stop));
            let play = Request::PlaySamples {
                ac: 1,
                start_time: ATime::new(4000),
                flags: 0,
                data: vec![0x55; 800],
            }
            .encode(order);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    sock.write_all(&play).unwrap();
                    sock.read_exact(&mut [0u8; 12]).unwrap();
                    replies.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        let handle = server.handle();
        let stats = server.stats();
        let read_so_far = Arc::clone(&replies);
        let control = std::thread::spawn(move || {
            for round in 1..=200 {
                clock.advance(80);
                handle.run_update();
                // The update serviced the speaker before the call returned.
                assert_eq!(services.load(Ordering::SeqCst), round);
                let read = read_so_far.load(Ordering::SeqCst);
                handle.barrier();
                // Every play whose reply the client read was handled whole
                // — counted after its reply was written — as were the
                // setup, the context and the sync before them.
                let handled = stats.server.get(Server::InlineEvents);
                assert!(
                    handled >= read + 3,
                    "{handled} handled, {read} replies read"
                );
            }
        });
        control.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        client.join().unwrap();
        assert!(
            replies.load(Ordering::SeqCst) > 0,
            "the client never played"
        );
        assert!(
            !off_reactor.load(Ordering::SeqCst),
            "an update ran off the reactor"
        );
        server.shutdown();
    }

    #[test]
    fn handle_calls_return_once_the_server_is_gone() {
        // `Control::call` returns at once when the reactor has stopped: a
        // call the stopped reactor never ran still wakes its caller.
        let server = ServerBuilder::new().spawn().unwrap();
        let handle = server.handle();
        let (looping, started) = std::sync::mpsc::sync_channel(1);
        let (done, finished) = std::sync::mpsc::sync_channel(1);
        let stop = Arc::new(AtomicBool::new(false));
        let caller = {
            let (handle, stop) = (handle.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    handle.barrier();
                    let _ = looping.try_send(());
                }
                done.send(()).unwrap();
            })
        };
        started.recv().unwrap();
        server.shutdown();
        handle.run_update();
        handle.barrier();
        stop.store(true, Ordering::SeqCst);
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("a barrier caller was left parked by the shutdown");
        caller.join().unwrap();
    }
}
