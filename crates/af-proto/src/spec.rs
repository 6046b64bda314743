//! The protocol specification table — single source of truth.
//!
//! Table 1 of the paper lists 37 protocol requests; §5.2 defines 5 event
//! kinds.  Before this module those lists were hand-duplicated across the
//! `Opcode` enum, `Opcode::ALL`, `Opcode::always_replies`,
//! `Request::opcode`, the `EventKind` enum and `EventKind::ALL` — six
//! places that had to agree byte for byte.  Now there is exactly one table
//! per namespace, and every derived artifact is macro-generated from it.
//!
//! The tables are *callback macros*: `with_request_table!(m)` expands to
//! `m! { (Name, wire, reply-mode, doc), ... }`, so any module can generate
//! enums, match arms, or constant arrays from the same rows.  The
//! hand-written encode/decode/dispatch matches (`Request::encode_payload`,
//! `Request::decode`, `Event::decode` and the server's `dispatch`) have no
//! wildcard arm, and each denies clippy's two wildcard lints, so the
//! compiler proves they cover every row — adding a request is: add one
//! row here, then follow the compile errors until everything covers it.
//!
//! Row shape: `(Name, wire_value, reply_mode, doc_string)` where
//! `reply_mode` is `replies` (the server answers unconditionally) or
//! `oneway` (asynchronous; any reply is conditional, e.g. `PlaySamples`
//! replies only when the client does not suppress it).

/// Number of protocol requests (Table 1).
pub const REQUEST_COUNT: usize = 37;

/// Number of event kinds (§5.2).
pub const EVENT_COUNT: usize = 5;

/// Invokes `$m!` with every request row: `(Name, wire, reply_mode, doc)`.
///
/// Wire values are dense `1..=37` in table order: `af-proto`'s unit tests
/// check density, and a duplicate cannot compile in the generated
/// `#[repr(u8)]` enum.
#[macro_export]
macro_rules! with_request_table {
    ($m:ident) => {
        $m! {
            // Audio and events.
            (SelectEvents, 1, oneway, "Select which events the client wants."),
            (CreateAc, 2, oneway, "Create an audio context."),
            (ChangeAcAttributes, 3, oneway, "Change the contents of an audio context."),
            (FreeAc, 4, oneway, "Free an audio context."),
            (PlaySamples, 5, oneway, "Play samples (replies unless suppressed)."),
            (RecordSamples, 6, replies, "Record samples."),
            (GetTime, 7, replies, "Get the audio device's time."),
            // Telephony.
            (QueryPhone, 8, replies, "Get telephone state."),
            (EnablePassThrough, 9, oneway, "Enable telephone passthrough."),
            (DisablePassThrough, 10, oneway, "Disable telephone passthrough."),
            (HookSwitch, 11, oneway, "Control hookswitch."),
            (FlashHook, 12, oneway, "Flash hookswitch."),
            (EnableGainControl, 13, oneway, "Not for general use."),
            (DisableGainControl, 14, oneway, "Not for general use."),
            (DialPhone, 15, oneway, "Obsolete, do not use (client libraries dial with tones instead)."),
            // I/O control.
            (SetInputGain, 16, oneway, "Set input gain."),
            (SetOutputGain, 17, oneway, "Set output gain (volume)."),
            (QueryInputGain, 18, replies, "Find out current input gain."),
            (QueryOutputGain, 19, replies, "Find out current output gain."),
            (EnableInput, 20, oneway, "Enable input."),
            (EnableOutput, 21, oneway, "Enable output."),
            (DisableInput, 22, oneway, "Disable input."),
            (DisableOutput, 23, oneway, "Disable output."),
            // Access control.
            (SetAccessControl, 24, oneway, "Set access control."),
            (ChangeHosts, 25, oneway, "Change access control list."),
            (ListHosts, 26, replies, "List which hosts are permitted access."),
            // Atoms and properties.
            (InternAtom, 27, replies, "Allocate unique ID."),
            (GetAtomName, 28, replies, "Get name for ID."),
            (ChangeProperty, 29, oneway, "Change device property."),
            (DeleteProperty, 30, oneway, "Remove device property."),
            (GetProperty, 31, replies, "Retrieve device property."),
            (ListProperties, 32, replies, "List all device properties."),
            // Housekeeping.
            (NoOperation, 33, oneway, "Non-blocking NoOperation."),
            (SyncConnection, 34, replies, "Round-trip NoOperation."),
            (QueryExtension, 35, replies, "Not yet implemented."),
            (ListExtensions, 36, replies, "Not yet implemented."),
            (KillClient, 37, oneway, "Not yet implemented."),
        }
    };
}

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
    use super::{EVENT_COUNT, REQUEST_COUNT};

    macro_rules! count_requests {
        ($(($name:ident, $wire:literal, $reply:ident, $doc:literal)),* $(,)?) => {
            [$($wire as u8),*]
        };
    }
    macro_rules! count_events {
        ($(($name:ident, $wire:literal, $doc:literal)),* $(,)?) => {
            [$($wire as u8),*]
        };
    }

    #[test]
    fn request_wire_values_dense_from_one() {
        let wires: [u8; REQUEST_COUNT] = with_request_table!(count_requests);
        for (i, w) in wires.iter().enumerate() {
            assert_eq!(*w as usize, i + 1, "table rows must be in wire order");
        }
    }

    #[test]
    fn event_wire_values_dense_from_zero() {
        let wires: [u8; EVENT_COUNT] = with_event_table!(count_events);
        for (i, w) in wires.iter().enumerate() {
            assert_eq!(*w as usize, i, "table rows must be in wire order");
        }
    }

    #[test]
    fn every_row_drives_its_enum_variant() {
        use crate::{EventKind, Opcode};
        macro_rules! check_requests {
            ($(($name:ident, $wire:literal, $reply:ident, $doc:literal)),* $(,)?) => {$(
                assert_eq!(Opcode::$name.to_wire(), $wire);
                assert_eq!(Opcode::from_wire($wire).unwrap(), Opcode::$name);
            )*};
        }
        macro_rules! check_events {
            ($(($name:ident, $wire:literal, $doc:literal)),* $(,)?) => {$(
                assert_eq!(EventKind::$name.to_wire(), $wire);
                assert_eq!(EventKind::from_wire($wire).unwrap(), EventKind::$name);
            )*};
        }
        with_request_table!(check_requests);
        with_event_table!(check_events);
    }
}
