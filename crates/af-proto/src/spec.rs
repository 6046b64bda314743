//! The protocol tables — the single source of truth for the wire format.
//!
//! Table 1 of the paper lists 37 protocol requests; §5.2 defines 5 event
//! kinds.  Each namespace has one table here, and every derived artifact
//! is macro-generated from its rows: the [`crate::Opcode`] and
//! [`crate::EventKind`] enums, and — from the request and reply rows'
//! fields — the [`crate::Request`] and [`crate::Reply`] enums, their
//! encoders, decoders and exact lengths, and the tests' samples and
//! strategies (`codec.rs` has the field kinds and the generator).
//!
//! The tables are *callback macros*: `with_request_table!(m)` expands to
//! `m! { rows }`, so any module can generate items from the same rows.
//!
//! Adding a request is one row in [`crate::with_request_table`] (and a reply
//! row if it answers with a new reply kind), plus its arm in the server's
//! `dispatch`, the one hand-written match over [`crate::Request`], which
//! denies clippy's wildcard lints so that it covers every row.  The
//! irregular messages stay hand-written beside the tables: the borrowed
//! play header and view ([`crate::Request::encode_play_header`],
//! [`crate::PlayView`]), the record reply written in place
//! ([`crate::Reply::open_record`], [`crate::RecordView`]), the events'
//! fixed layout and the setup messages.  `tests/golden.txt` is the codec's
//! oracle: every sample message in both byte orders, its decode and the
//! decode of every prefix of its payload.

/// Number of protocol requests (Table 1).
pub const REQUEST_COUNT: usize = 37;

/// Number of event kinds (§5.2).
pub const EVENT_COUNT: usize = 5;

/// Invokes `$m!` with every request row.
///
/// A row is `(Name, wire, reply_mode, doc)` for a request without fields
/// and `(Name, wire, reply_mode, doc, [layout] { fields })` for the rest.
/// `reply_mode` is `replies` (the server answers unconditionally) or
/// `oneway` (any reply is conditional: `PlaySamples` replies only when
/// the client does not suppress it).
/// Each field is `name: Type`, or `name: Type as Kind` when the type alone
/// does not say how it goes on the wire (counted bytes); the layout lists
/// the field names and, as numbers, the zero bytes between them, in wire
/// order after the 4-byte header.  Wire values are dense `1..=37` in table
/// order: the unit test below checks density, and a duplicate cannot
/// compile in the generated `#[repr(u8)]` [`crate::Opcode`].
#[macro_export]
macro_rules! with_request_table {
    ($m:ident) => {
        $m! {
            // Audio and events.
            (SelectEvents, 1, oneway, "Select which events the client wants for a device.",
             [device, 3, mask] {
                /// Target device.
                device: DeviceId,
                /// Event kinds to deliver.
                mask: EventMask,
            }),
            (CreateAc, 2, oneway, "Create an audio context with a client-chosen ID.",
             [id, device, 3, mask, attrs] {
                /// Client-allocated AC identifier.
                id: AcId,
                /// Device the context binds to.
                device: DeviceId,
                /// Which attribute fields are supplied.
                mask: AcMask,
                /// Attribute values.
                attrs: AcAttributes,
            }),
            (ChangeAcAttributes, 3, oneway, "Change attributes of an existing audio context.",
             [id, mask, attrs] {
                /// The context to modify.
                id: AcId,
                /// Which attribute fields are supplied.
                mask: AcMask,
                /// Attribute values.
                attrs: AcAttributes,
            }),
            (FreeAc, 4, oneway, "Free an audio context.", [id] {
                /// The context to free.
                id: AcId,
            }),
            (PlaySamples, 5, oneway,
             "Play samples at an exact device time (replies unless suppressed).",
             [ac, start_time, flags, 3, data] {
                /// Audio context supplying device, gain and preemption.
                ac: AcId,
                /// Device time of the first sample.
                start_time: ATime,
                /// Flag bits (see [`play_flags`]).
                flags: u8,
                /// Raw sample data in the AC's encoding.
                data: Vec<u8> as Bytes<u32>,
            }),
            (RecordSamples, 6, replies, "Record samples from an exact device time.",
             [ac, start_time, flags, 3, nbytes] {
                /// Audio context supplying device and encoding.
                ac: AcId,
                /// Device time of the first requested sample.
                start_time: ATime,
                /// Number of data bytes requested.
                nbytes: u32,
                /// Flag bits (see [`record_flags`]).
                flags: u8,
            }),
            (GetTime, 7, replies, "Get the audio device's time.", [device] {
                /// Target device.
                device: DeviceId,
            }),
            // Telephony.
            (QueryPhone, 8, replies, "Get telephone state.", [device] {
                /// Target (telephone) device.
                device: DeviceId,
            }),
            (EnablePassThrough, 9, oneway,
             "Connect local audio directly to the telephone (§7.4.1).", [device] {
                /// Target device.
                device: DeviceId,
            }),
            (DisablePassThrough, 10, oneway,
             "Remove the direct local-audio/telephone connection.", [device] {
                /// Target device.
                device: DeviceId,
            }),
            (HookSwitch, 11, oneway, "Set the hookswitch state.", [device, off_hook] {
                /// Target device.
                device: DeviceId,
                /// `true` to go off-hook.
                off_hook: bool,
            }),
            (FlashHook, 12, oneway, "Flash the hookswitch.", [device] {
                /// Target device.
                device: DeviceId,
            }),
            (EnableGainControl, 13, oneway, "Not for general use (§5.3, Table 1).", [device] {
                /// Target device.
                device: DeviceId,
            }),
            (DisableGainControl, 14, oneway, "Not for general use.", [device] {
                /// Target device.
                device: DeviceId,
            }),
            (DialPhone, 15, oneway,
             "Obsolete, do not use: dialing is done client-side with tones (§5.5).",
             [device, 3, number] {
                /// Target device.
                device: DeviceId,
                /// Number to dial.
                number: String,
            }),
            // I/O control.
            (SetInputGain, 16, oneway, "Set input gain.", [device, 3, db] {
                /// Target device.
                device: DeviceId,
                /// Gain in dB.
                db: i32,
            }),
            (SetOutputGain, 17, oneway, "Set output gain (volume).", [device, 3, db] {
                /// Target device.
                device: DeviceId,
                /// Gain in dB.
                db: i32,
            }),
            (QueryInputGain, 18, replies, "Find out current input gain.", [device] {
                /// Target device.
                device: DeviceId,
            }),
            (QueryOutputGain, 19, replies, "Find out current output gain.", [device] {
                /// Target device.
                device: DeviceId,
            }),
            (EnableInput, 20, oneway, "Enable inputs selected by a mask.", [device, 3, mask] {
                /// Target device.
                device: DeviceId,
                /// Connector mask.
                mask: u32,
            }),
            (EnableOutput, 21, oneway, "Enable outputs selected by a mask.", [device, 3, mask] {
                /// Target device.
                device: DeviceId,
                /// Connector mask.
                mask: u32,
            }),
            (DisableInput, 22, oneway, "Disable inputs selected by a mask.", [device, 3, mask] {
                /// Target device.
                device: DeviceId,
                /// Connector mask.
                mask: u32,
            }),
            (DisableOutput, 23, oneway, "Disable outputs selected by a mask.",
             [device, 3, mask] {
                /// Target device.
                device: DeviceId,
                /// Connector mask.
                mask: u32,
            }),
            // Access control.
            (SetAccessControl, 24, oneway, "Enable or disable access-control checking.",
             [enabled] {
                /// Whether checking is enabled.
                enabled: bool,
            }),
            (ChangeHosts, 25, oneway, "Add or remove a host from the access list.",
             [insert, address] {
                /// `true` to insert, `false` to delete.
                insert: bool,
                /// Raw network address bytes (4 for IPv4, 16 for IPv6).
                address: Vec<u8> as Bytes<u8, 2>,
            }),
            (ListHosts, 26, replies, "List which hosts are permitted access."),
            // Atoms and properties.
            (InternAtom, 27, replies, "Allocate (or look up) a unique ID for a string.",
             [only_if_exists, 3, name] {
                /// When set, do not create the atom if it does not exist.
                only_if_exists: bool,
                /// The string to intern.
                name: String,
            }),
            (GetAtomName, 28, replies, "Get the name for an atom ID.", [atom] {
                /// The atom to look up.
                atom: Atom,
            }),
            (ChangeProperty, 29, oneway, "Change a device property.",
             [device, mode, 2, property, type_, data] {
                /// Target device.
                device: DeviceId,
                /// Combination mode.
                mode: PropertyMode,
                /// Property name atom.
                property: Atom,
                /// Property type atom.
                type_: Atom,
                /// Property value bytes.
                data: Vec<u8> as Bytes<u32>,
            }),
            (DeleteProperty, 30, oneway, "Remove a device property.", [device, 3, property] {
                /// Target device.
                device: DeviceId,
                /// Property name atom.
                property: Atom,
            }),
            (GetProperty, 31, replies, "Retrieve a device property.",
             [device, delete, 2, property, type_] {
                /// Target device.
                device: DeviceId,
                /// Delete the property after reading.
                delete: bool,
                /// Property name atom.
                property: Atom,
                /// Required type (or [`Atom::NONE`] for any).
                type_: Atom,
            }),
            (ListProperties, 32, replies, "List all device properties.", [device] {
                /// Target device.
                device: DeviceId,
            }),
            // Housekeeping.
            (NoOperation, 33, oneway, "Non-blocking no-operation."),
            (SyncConnection, 34, replies, "Round-trip no-operation, used by `AFSync`."),
            (QueryExtension, 35, replies, "Query an extension by name (none are implemented).",
             [name] {
                /// Extension name.
                name: String,
            }),
            (ListExtensions, 36, replies, "List extensions (none are implemented)."),
            (KillClient, 37, oneway,
             "Kill a client owning a resource (not yet implemented in servers).", [resource] {
                /// Resource identifying the victim client.
                resource: u32,
            }),
        }
    };
}

/// Invokes `$m!` with every reply row, in the request table's row shape
/// without the reply mode: the wire value is the reply-kind tag carried in
/// the message header's detail byte, and the layout follows the 8-byte
/// header.  Tags are dense `1..=12` in table order.
macro_rules! with_reply_table {
    ($m:ident) => {
        $m! {
            (Time, 1, "Current device time (`GetTime`, and `PlaySamples` unless suppressed).",
             [time] {
                /// The device time when the request was processed.
                time: ATime,
            }),
            (Record, 2, "Recorded data (`RecordSamples`).", [time, data] {
                /// The device time when the reply was generated.
                time: ATime,
                /// The recorded bytes; may be shorter than requested for
                /// non-blocking records.
                data: Vec<u8> as Bytes<u32>,
            }),
            (Phone, 3, "Telephone line state (`QueryPhone`).",
             [off_hook, loop_current, ringing] {
                /// Whether the interface is off-hook.
                off_hook: bool,
                /// Whether loop current is flowing (extension phone off-hook).
                loop_current: bool,
                /// Whether ring voltage is currently present.
                ringing: bool,
            }),
            (Gain, 4, "Gain range and setting (`QueryInputGain` / `QueryOutputGain`).",
             [min_db, max_db, current_db] {
                /// Minimum settable gain in dB.
                min_db: i32,
                /// Maximum settable gain in dB.
                max_db: i32,
                /// Current gain in dB.
                current_db: i32,
            }),
            (Hosts, 5, "The access list (`ListHosts`).", [enabled, 1, hosts] {
                /// Whether access control is currently enforced.
                enabled: bool,
                /// Raw address bytes of each permitted host.
                hosts: Vec<Vec<u8>> as List<u16, Bytes<u8>>,
            }),
            (InternedAtom, 6,
             "An interned atom (`InternAtom`); [`Atom::NONE`] when `only_if_exists` found nothing.",
             [atom] {
                /// The atom.
                atom: Atom,
            }),
            (AtomName, 7, "An atom's name (`GetAtomName`).", [name] {
                /// The interned string.
                name: String,
            }),
            (Property, 8, "A property value (`GetProperty`).", [type_, data] {
                /// The property's type atom ([`Atom::NONE`] if absent).
                type_: Atom,
                /// The value bytes.
                data: Vec<u8> as Bytes<u32>,
            }),
            (Properties, 9, "The property list (`ListProperties`).", [atoms] {
                /// Name atoms of every property on the device.
                atoms: Vec<Atom> as List<u16, Atom, 2>,
            }),
            (Sync, 10, "Round-trip completion (`SyncConnection`)."),
            (Extension, 11, "Extension presence (`QueryExtension`; always absent today).",
             [present] {
                /// Whether the extension exists.
                present: bool,
            }),
            (Extensions, 12, "Extension list (`ListExtensions`; always empty today).", [names] {
                /// Extension names.
                names: Vec<String> as List<u16, String, 2>,
            }),
        }
    };
}

pub(crate) use with_reply_table;

/// Invokes `$m!` with every event row: `(Name, wire, doc)`.
///
/// Wire values are dense `0..=4` in table order.
#[macro_export]
macro_rules! with_event_table {
    ($m:ident) => {
        $m! {
            (PhoneRing, 0, "An incoming call is ringing (`PhoneRing`)."),
            (PhoneDtmf, 1, "A DTMF digit was detected on the line (`PhoneDTMF`)."),
            (PhoneLoop, 2, "Loop current changed: the extension went on/off hook (`PhoneLoop`)."),
            (HookSwitch, 3, "The local hookswitch changed state (`HookSwitch`)."),
            (PropertyChange, 4, "A device property was changed by some client (`PropertyChange`)."),
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{EventKind, Opcode};

    macro_rules! wires {
        ($(($name:ident, $wire:literal, $($rest:tt)*)),* $(,)?) => {
            [$($wire as u8),*]
        };
    }

    /// Every table's wire values are dense in table order, and each
    /// request and event row drives its enum variant.
    #[test]
    fn wire_values_dense_in_table_order() {
        let requests = with_request_table!(wires);
        let replies = with_reply_table!(wires);
        let events = with_event_table!(wires);
        assert_eq!(requests.to_vec(), (1..=37).collect::<Vec<u8>>());
        assert_eq!(replies.to_vec(), (1..=12).collect::<Vec<u8>>());
        assert_eq!(events.to_vec(), (0..5).collect::<Vec<u8>>());
        assert_eq!(Opcode::ALL.map(Opcode::to_wire), requests);
        assert_eq!(EventKind::ALL.map(EventKind::to_wire), events);
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_wire(op.to_wire()).unwrap(), op);
        }
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_wire(kind.to_wire()).unwrap(), kind);
        }
        assert!(Opcode::from_wire(0).is_err() && Opcode::from_wire(38).is_err());
    }
}
