//! Server-side state: devices, clients, audio contexts, atoms, access
//! control, and properties.

use crate::buffer::DeviceBuffers;
use crate::pool::PooledBuf;
use crate::reactor::{ConnRef, Outbound, Refused};
use crate::stats::{BusCounters, LinkCounters, ServerCounters, ShardCounters};
use af_dsp::convert::Converter;
use af_dsp::tables::PlayMap;
use af_proto::{AcAttributes, AcId, Atom, ByteOrder, DeviceDesc, DeviceId, EventMask, FrameError};
use af_time::ATime;
use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;
use std::sync::Arc;

/// Server-assigned client connection identifier.
pub type ClientId = u64;

/// Every counter a running server keeps, by family: handles on the
/// counters the dispatcher, the reactor, the LineServer links and
/// the broadcast bus bump.  Built once, when the server is spawned.
pub struct ServerStats {
    /// Connection and dispatch counters.
    pub server: Arc<ServerCounters>,
    /// The reactor's transport counters.
    pub reactor: Arc<ShardCounters>,
    /// Each LineServer link's health counters, in device order.
    pub links: Vec<Arc<LinkCounters>>,
    /// The broadcast bus's fan-out counters, on a broadcasting server.
    pub broadcast: Option<Arc<BusCounters>>,
}

/// The server-wide atom registry (§5.9).
///
/// Built-in atoms (Table 2) are pre-interned; clients add more with
/// `InternAtom`.
pub struct AtomRegistry {
    by_name: HashMap<String, Atom>,
    names: Vec<String>, // names[i] is the name of Atom(i + 1).
}

impl Default for AtomRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomRegistry {
    /// Creates a registry holding the built-in atoms.
    pub fn new() -> AtomRegistry {
        let mut reg = AtomRegistry {
            by_name: HashMap::new(),
            names: Vec::new(),
        };
        for (atom, name) in af_proto::atoms::BUILTIN_ATOMS {
            reg.names.push((*name).to_string());
            reg.by_name.insert((*name).to_string(), *atom);
        }
        reg
    }

    /// Interns `name`, creating a new atom unless `only_if_exists`.
    ///
    /// Returns [`Atom::NONE`] when `only_if_exists` finds nothing.
    pub fn intern(&mut self, name: &str, only_if_exists: bool) -> Atom {
        if let Some(a) = self.by_name.get(name) {
            return *a;
        }
        if only_if_exists {
            return Atom::NONE;
        }
        let atom = Atom(self.names.len() as u32 + 1);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), atom);
        atom
    }

    /// The name of `atom`, if interned.
    pub fn name(&self, atom: Atom) -> Option<&str> {
        let idx = (atom.0 as usize).checked_sub(1)?;
        self.names.get(idx).map(String::as_str)
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no atoms are interned (never true: built-ins always exist).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Host-based access control (§6.1.1): "a simple access control scheme
/// based on host network address".
pub struct AccessControl {
    enabled: bool,
    hosts: Vec<Vec<u8>>,
}

impl Default for AccessControl {
    fn default() -> Self {
        AccessControl::new()
    }
}

impl AccessControl {
    /// Creates the default policy: checking enabled, localhost-only.
    pub fn new() -> AccessControl {
        AccessControl {
            enabled: true,
            hosts: Vec::new(),
        }
    }

    /// Whether checking is enforced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables checking (`SetAccessControl`).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The configured host list.
    pub fn hosts(&self) -> &[Vec<u8>] {
        &self.hosts
    }

    /// Adds or removes a host address (`ChangeHosts`).
    pub fn change(&mut self, insert: bool, address: &[u8]) {
        if insert {
            if !self.hosts.iter().any(|h| h == address) {
                self.hosts.push(address.to_vec());
            }
        } else {
            self.hosts.retain(|h| h != address);
        }
    }

    /// Whether a connection from `peer` may proceed.
    ///
    /// Local transports (`None`) and loopback addresses are always allowed,
    /// as the machine's own users are trusted in the paper's model.
    pub fn allows(&self, peer: Option<IpAddr>) -> bool {
        if !self.enabled {
            return true;
        }
        match peer {
            None => true,
            Some(ip) => {
                if ip.is_loopback() {
                    return true;
                }
                let bytes: Vec<u8> = match ip {
                    IpAddr::V4(v4) => v4.octets().to_vec(),
                    IpAddr::V6(v6) => v6.octets().to_vec(),
                };
                self.hosts.contains(&bytes)
            }
        }
    }
}

/// A stored property value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyValue {
    /// The type atom the writer declared.
    pub type_: Atom,
    /// Raw value bytes.
    pub data: Vec<u8>,
}

/// One abstract audio device with its buffering engine and control state.
///
/// A device either owns a buffering engine or is a *mono view* onto one
/// channel of another device's stereo buffers (§7.4.1's left/right
/// devices); exactly one of `buffers` and `mono_of` is set.
pub struct Device {
    /// The advertised attributes (sent at connection setup).
    pub desc: DeviceDesc,
    /// The buffering engine over the hardware backend (owners only).
    pub buffers: Option<DeviceBuffers>,
    /// For mono views: `(parent device index, channel lane)`.
    pub mono_of: Option<(usize, u8)>,
    /// The telephone line, when this device's connectors reach one.
    pub phone: Option<af_device::PhoneLine>,
    /// Current input gain in dB.
    pub input_gain_db: i32,
    /// Current output gain (volume) in dB.
    pub output_gain_db: i32,
    /// Settable gain range.
    pub gain_range: (i32, i32),
    /// Bitmask of enabled inputs.
    pub inputs_enabled: u32,
    /// Bitmask of enabled outputs.
    pub outputs_enabled: u32,
    /// Whether pass-through is engaged (§7.4.1).
    pub passthrough: bool,
    /// The peer device index pass-through connects to.
    pub passthrough_peer: Option<usize>,
    /// Device properties (§5.9).
    pub properties: HashMap<Atom, PropertyValue>,
    /// Whether gain-control requests are accepted ("not for general use").
    pub gain_control_locked: bool,
    /// Pass-through: how much of the peer's record stream we consumed.
    pub pt_in: ATime,
    /// Pass-through: our playback write cursor.
    pub pt_out: ATime,
}

/// One bit per connector of a device with `count` of them: the masks the
/// I/O-control requests accept, and the all-enabled state a device starts
/// in — so clearing every valid bit leaves zero, which is what mutes.
pub fn connector_mask(count: u8) -> u32 {
    if count >= 32 {
        u32::MAX
    } else {
        (1u32 << count) - 1
    }
}

impl Device {
    /// Whether any output connector is enabled.
    pub fn output_enabled(&self) -> bool {
        self.outputs_enabled != 0
    }

    /// Whether any input connector is enabled.
    pub fn input_enabled(&self) -> bool {
        self.inputs_enabled != 0
    }
}

/// The server half of an audio context (§7.3.2's `AC` struct).
pub struct ServerAc {
    /// The device the context binds to.
    pub device: DeviceId,
    /// Client-visible attributes.
    pub attrs: AcAttributes,
    /// Conversion module: client encoding → device encoding.
    pub play_conv: Converter,
    /// Conversion module: device encoding → client encoding.
    pub rec_conv: Converter,
    /// `play_conv` and the play gain as one lookup, where a table can
    /// express them (a companded device, a per-sample client encoding);
    /// plays of such a context go through it and never through `play_conv`.
    pub play_map: Option<PlayMap>,
    /// Whether this context has recorded (contributes to `recRefCount`).
    pub recording: bool,
}

/// A request held for a suspended client, as read off the wire: the one
/// owned form of a request's bytes.
#[derive(Debug)]
pub struct RawRequest {
    /// The raw opcode byte (may be invalid; the dispatcher validates).
    pub opcode: u8,
    /// A copy of the payload after the 4-byte header, in a pooled buffer
    /// that recycles once the request is replayed.
    pub payload: PooledBuf,
}

/// Why a client is suspended, and what to do when it can continue.
pub enum BlockedOp {
    /// A play request extended beyond the buffer horizon; the remainder is
    /// already converted to the device encoding with gain applied.
    Play {
        /// Target device (possibly a mono view).
        device: DeviceId,
        /// Whether to preempt.
        preempt: bool,
        /// Device time of the first remaining frame.
        start: ATime,
        /// What was left of the request when it was suspended, in device
        /// encoding; `offset` marks how much has been consumed since (a
        /// cursor, so retries never re-copy the tail).
        frames: Vec<u8>,
        /// Bytes of `frames` already written into the device buffer.
        offset: usize,
        /// Whether the final reply is suppressed.
        suppress_reply: bool,
    },
    /// A blocking record request for data not yet captured.
    Record {
        /// The audio context to convert with.
        ac: AcId,
        /// Target device.
        device: DeviceId,
        /// Device time of the first requested frame.
        start: ATime,
        /// Frames requested.
        nframes: u32,
        /// Whether sample data should be returned big-endian.
        big_endian: bool,
    },
}

impl BlockedOp {
    /// The device the suspension is waiting on (for per-device wake-ups).
    pub fn device(&self) -> DeviceId {
        match self {
            BlockedOp::Play { device, .. } | BlockedOp::Record { device, .. } => *device,
        }
    }
}

/// A suspended request plus its sequence number (for the eventual reply).
pub struct Blocked {
    /// Sequence number the reply must carry.
    pub seq: u16,
    /// The suspended operation.
    pub op: BlockedOp,
}

/// Per-connection client state.
pub struct ClientState {
    /// Connection identifier.
    pub id: ClientId,
    /// The client's declared byte order.
    pub order: ByteOrder,
    /// The connection: where replies go, and what an eviction kicks.
    pub conn: ConnRef,
    /// Requests processed on this connection (low 16 bits are the wire
    /// sequence number).
    pub seq: u16,
    /// Audio contexts owned by this client.
    pub acs: HashMap<AcId, ServerAc>,
    /// Event selections per device.
    pub event_masks: HashMap<DeviceId, EventMask>,
    /// The currently suspended request, if any.
    pub blocked: Option<Blocked>,
    /// Requests received while suspended, in arrival order.
    pub queue: VecDeque<RawRequest>,
}

impl ClientState {
    /// Creates state for a newly accepted connection.
    pub fn new(id: ClientId, order: ByteOrder, conn: ConnRef) -> ClientState {
        ClientState {
            id,
            order,
            conn,
            seq: 0,
            acs: HashMap::new(),
            event_masks: HashMap::new(),
            blocked: None,
            queue: VecDeque::new(),
        }
    }

    /// The event mask in force for `device`.
    pub fn mask_for(&self, device: DeviceId) -> EventMask {
        self.event_masks.get(&device).copied().unwrap_or_default()
    }

    /// Sends encoded bytes toward this client through `out`: straight to
    /// its socket or onto its outbound deque (see [`Outbound`]).
    ///
    /// The deque is bounded
    /// ([`crate::reactor::OUTBOUND_QUEUE_CAPACITY`]); a full one means
    /// the client is reading more slowly than the server is producing, so
    /// instead of buffering without limit (the seed behavior) the message
    /// is dropped and `false` returned: the protocol stream is no longer
    /// coherent and the caller must have the client evicted.  A closed
    /// connection is ignored — its disconnect event is already in
    /// flight.
    #[must_use]
    pub fn send_bytes<B: Into<PooledBuf>>(&self, out: &mut Outbound, bytes: B) -> bool {
        out.deliver(self.conn, bytes.into()) != Err(Refused::Full)
    }
}

/// What the reactor hands to the dispatcher through
/// [`crate::reactor::Handler::event`].  Framed requests are not among
/// them: they go in borrowed, through
/// [`crate::reactor::Handler::request`].
pub enum ServerEvent {
    /// A transport accepted a connection and read its setup message.
    NewClient {
        /// Transport-assigned id.
        id: ClientId,
        /// The raw setup message.
        setup: Vec<u8>,
        /// Peer address for access control (`None` for local transports).
        peer: Option<IpAddr>,
        /// The dispatcher's reference to the connection.
        conn: ConnRef,
    },
    /// The connection sent an unrecoverable malformed frame; only this
    /// client is disconnected.
    ProtocolError {
        /// The offending connection.
        id: ClientId,
        /// What the framing decoder rejected.
        error: FrameError,
    },
    /// The connection closed or failed.
    Disconnect {
        /// The connection that went away.
        id: ClientId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_registry_builtins_and_interning() {
        let mut reg = AtomRegistry::new();
        assert_eq!(reg.len(), 20);
        assert_eq!(reg.name(Atom(4)), Some("STRING"));
        assert_eq!(reg.intern("STRING", true), Atom(4));
        assert_eq!(reg.intern("NOPE", true), Atom::NONE);
        let a = reg.intern("MY_THING", false);
        assert_eq!(a, Atom(21));
        assert_eq!(reg.intern("MY_THING", false), a);
        assert_eq!(reg.name(a), Some("MY_THING"));
        assert_eq!(reg.name(Atom(0)), None);
        assert_eq!(reg.name(Atom(99)), None);
    }

    #[test]
    fn access_control_policy() {
        let mut ac = AccessControl::new();
        assert!(ac.enabled());
        // Loopback and local transports always pass.
        assert!(ac.allows(None));
        assert!(ac.allows(Some("127.0.0.1".parse().unwrap())));
        // A remote host needs an entry.
        let remote: IpAddr = "10.1.2.3".parse().unwrap();
        assert!(!ac.allows(Some(remote)));
        ac.change(true, &[10, 1, 2, 3]);
        assert!(ac.allows(Some(remote)));
        // Duplicates are not stored twice.
        ac.change(true, &[10, 1, 2, 3]);
        assert_eq!(ac.hosts().len(), 1);
        ac.change(false, &[10, 1, 2, 3]);
        assert!(!ac.allows(Some(remote)));
        // Disabling opens the door.
        ac.set_enabled(false);
        assert!(ac.allows(Some(remote)));
    }

    fn client(out: &mut Outbound) -> ClientState {
        ClientState::new(1, ByteOrder::Little, out.detached(1))
    }

    #[test]
    fn client_state_defaults() {
        let c = client(&mut Outbound::default());
        assert_eq!(c.mask_for(0), EventMask::NONE);
        assert!(c.blocked.is_none());
        assert!(c.queue.is_empty());
    }

    #[test]
    fn bounded_send_flags_overflow_instead_of_growing() {
        use crate::reactor::OUTBOUND_QUEUE_CAPACITY;
        let mut out = Outbound::default();
        let c = client(&mut out); // Nothing drains a detached connection.
        for _ in 0..OUTBOUND_QUEUE_CAPACITY {
            assert!(c.send_bytes(&mut out, vec![1]));
        }
        assert!(
            !c.send_bytes(&mut out, vec![2]),
            "deque full: flagged, not grown"
        );
        assert_eq!(
            out.queued(c.conn),
            OUTBOUND_QUEUE_CAPACITY,
            "deque never exceeds its bound"
        );
        // A closed connection is not a slow one.
        out.hang_up(c.conn);
        assert!(c.send_bytes(&mut out, vec![3]));
        assert_eq!(out.queued(c.conn), OUTBOUND_QUEUE_CAPACITY);
    }
}
