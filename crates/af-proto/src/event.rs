//! Protocol events (§5.2).
//!
//! An event is an asynchronous message from server to client, sent only to
//! clients that registered interest.  Five event types are defined: four for
//! telephone control and one for inter-client communications.  Every device
//! event carries both the audio device time and the clock time of the
//! server's host (needed when synchronizing with other media).
//!
//! Events have a fixed wire size of 32 bytes.

use crate::atoms::Atom;
use crate::codec::wire_ticks;
use crate::error::ProtoError;
use crate::message::{MessageHeader, MessageKind};
use crate::wire::{ByteOrder, WireReader, WireWriter};
use crate::DeviceId;
use af_time::ATime;

macro_rules! define_event_kind {
    ($(($name:ident, $wire:literal, $doc:literal)),* $(,)?) => {
        /// The five defined event types.
        ///
        /// Generated from [`crate::with_event_table`], the one spec table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum EventKind {
            $(#[doc = $doc] $name = $wire,)*
        }

        impl EventKind {
            /// All event kinds, in wire order.
            pub const ALL: [EventKind; crate::spec::EVENT_COUNT] = [$(EventKind::$name,)*];

            /// Decodes the wire value.
            pub fn from_wire(v: u8) -> Result<EventKind, ProtoError> {
                match v {
                    $($wire => Ok(EventKind::$name),)*
                    other => Err(ProtoError::BadEventKind(other)),
                }
            }
        }
    };
}

crate::with_event_table!(define_event_kind);

impl EventKind {
    /// The wire value.
    pub const fn to_wire(self) -> u8 {
        self as u8
    }

    /// The selection-mask bit for this kind.
    pub const fn mask_bit(self) -> EventMask {
        EventMask(1 << (self as u8))
    }
}

/// A bitmask of event kinds a client selects with `SelectEvents`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct EventMask(pub u32);

impl EventMask {
    /// No events.
    pub const NONE: EventMask = EventMask(0);
    /// Every defined event.
    pub const ALL: EventMask = EventMask(0b1_1111);

    /// Whether `kind` is selected.
    pub fn selects(self, kind: EventKind) -> bool {
        self.0 & kind.mask_bit().0 != 0
    }

    /// Adds a kind to the selection.
    pub fn with(self, kind: EventKind) -> EventMask {
        EventMask(self.0 | kind.mask_bit().0)
    }
}

/// Kind-specific event payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventDetail {
    /// Ring state: `true` while ring voltage is present.
    Ring {
        /// Whether ringing started (true) or stopped (false).
        ringing: bool,
    },
    /// DTMF key transition.
    Dtmf {
        /// ASCII digit (`'0'`–`'9'`, `'*'`, `'#'`, `'A'`–`'D'`).
        digit: u8,
        /// `true` on key-down, `false` on key-up.
        down: bool,
    },
    /// Loop-current state: `true` when current flows (extension off-hook).
    Loop {
        /// Whether loop current is present.
        current: bool,
    },
    /// Local hookswitch state: `true` when off-hook.
    Hook {
        /// Whether the interface is off-hook.
        off_hook: bool,
    },
    /// A property changed (or was deleted).
    Property {
        /// The property's name atom.
        atom: Atom,
        /// `true` if the property now exists, `false` if deleted.
        exists: bool,
    },
}

impl EventDetail {
    /// The event kind this detail belongs to.
    pub fn kind(&self) -> EventKind {
        match self {
            EventDetail::Ring { .. } => EventKind::PhoneRing,
            EventDetail::Dtmf { .. } => EventKind::PhoneDtmf,
            EventDetail::Loop { .. } => EventKind::PhoneLoop,
            EventDetail::Hook { .. } => EventKind::HookSwitch,
            EventDetail::Property { .. } => EventKind::PropertyChange,
        }
    }
}

/// A complete event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The device the event concerns.
    pub device: DeviceId,
    /// Device time when the event occurred.
    pub device_time: ATime,
    /// Server host wall-clock time in milliseconds (for cross-media
    /// synchronization, §5.2).
    pub host_time_ms: u64,
    /// Kind-specific payload.
    pub detail: EventDetail,
}

/// Total encoded event size: header (8) + payload (24).
pub const EVENT_WIRE_SIZE: usize = 32;

impl Event {
    /// Encodes the event as a complete 32-byte wire message.
    pub fn encode(&self, order: ByteOrder, sequence: u16) -> Vec<u8> {
        let header = MessageHeader {
            kind: MessageKind::Event,
            detail: self.detail.kind().to_wire(),
            sequence,
            extra_words: 6,
        };
        let mut w = WireWriter::with_capacity(order, EVENT_WIRE_SIZE);
        w.bytes(&header.encode(order));
        let (a, b, atom) = match self.detail {
            EventDetail::Ring { ringing } => (u8::from(ringing), 0u8, 0u32),
            EventDetail::Dtmf { digit, down } => (digit, u8::from(down), 0),
            EventDetail::Loop { current } => (u8::from(current), 0, 0),
            EventDetail::Hook { off_hook } => (u8::from(off_hook), 0, 0),
            EventDetail::Property { atom, exists } => (u8::from(exists), 0, atom.0),
        };
        w.u8(self.device).u8(a).u8(b).pad(1);
        w.u32(wire_ticks(self.device_time));
        w.u64(self.host_time_ms);
        w.u32(atom);
        w.pad(4);
        debug_assert_eq!(w.len(), EVENT_WIRE_SIZE);
        w.finish()
    }

    /// Decodes an event payload given its parsed header.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn decode(
        order: ByteOrder,
        header: &MessageHeader,
        payload: &[u8],
    ) -> Result<Event, ProtoError> {
        let kind = EventKind::from_wire(header.detail)?;
        let mut r = WireReader::new(order, payload);
        let device = r.u8()?;
        let a = r.u8()?;
        let b = r.u8()?;
        r.skip(1)?;
        let device_time = ATime::new(r.u32()?);
        let host_time_ms = r.u64()?;
        let atom = r.u32()?;
        let detail = match kind {
            EventKind::PhoneRing => EventDetail::Ring { ringing: a != 0 },
            EventKind::PhoneDtmf => EventDetail::Dtmf {
                digit: a,
                down: b != 0,
            },
            EventKind::PhoneLoop => EventDetail::Loop { current: a != 0 },
            EventKind::HookSwitch => EventDetail::Hook { off_hook: a != 0 },
            EventKind::PropertyChange => EventDetail::Property {
                atom: Atom(atom),
                exists: a != 0,
            },
        };
        Ok(Event {
            device,
            device_time,
            host_time_ms,
            detail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                device: 1,
                device_time: ATime::new(123_456),
                host_time_ms: 1_000_000,
                detail: EventDetail::Ring { ringing: true },
            },
            Event {
                device: 2,
                device_time: ATime::new(u32::MAX),
                host_time_ms: 42,
                detail: EventDetail::Dtmf {
                    digit: b'5',
                    down: true,
                },
            },
            Event {
                device: 0,
                device_time: ATime::ZERO,
                host_time_ms: 0,
                detail: EventDetail::Loop { current: false },
            },
            Event {
                device: 3,
                device_time: ATime::new(77),
                host_time_ms: 9,
                detail: EventDetail::Hook { off_hook: true },
            },
            Event {
                device: 0,
                device_time: ATime::new(88),
                host_time_ms: 10,
                detail: EventDetail::Property {
                    atom: Atom(20),
                    exists: true,
                },
            },
        ]
    }

    #[test]
    fn events_round_trip_both_orders() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            for ev in sample_events() {
                let bytes = ev.encode(order, 7);
                assert_eq!(bytes.len(), EVENT_WIRE_SIZE, "events are fixed size");
                let header = MessageHeader::decode(order, &bytes[..8]).unwrap();
                assert_eq!(header.kind, MessageKind::Event);
                assert_eq!(header.sequence, 7);
                let back = Event::decode(order, &header, &bytes[8..]).unwrap();
                assert_eq!(back, ev);
            }
        }
    }

    #[test]
    fn five_event_kinds() {
        // "Only five event types are currently defined: four for telephone
        // control and one for interclient communications."
        assert_eq!(EventKind::ALL.len(), 5);
        let phone = EventKind::ALL
            .iter()
            .filter(|k| !matches!(k, EventKind::PropertyChange))
            .count();
        assert_eq!(phone, 4);
    }

    #[test]
    fn mask_selection() {
        let m = EventMask::NONE
            .with(EventKind::PhoneRing)
            .with(EventKind::PropertyChange);
        assert!(m.selects(EventKind::PhoneRing));
        assert!(m.selects(EventKind::PropertyChange));
        assert!(!m.selects(EventKind::PhoneDtmf));
        assert!(EventMask::ALL.selects(EventKind::HookSwitch));
        assert!(!EventMask::NONE.selects(EventKind::PhoneLoop));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(EventKind::from_wire(5).is_err());
    }
}
