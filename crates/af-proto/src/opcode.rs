//! Request opcodes — the 37 protocol requests of Table 1.
//!
//! The enum, the `ALL` array, wire decoding and the reply classification
//! are all generated from the one spec table in [`crate::spec`]; nothing
//! here lists the opcodes by hand.

use crate::error::ProtoError;
use crate::spec::REQUEST_COUNT;

macro_rules! define_opcode {
    ($(($name:ident, $wire:literal, $reply:ident, $doc:literal $(, $($fields:tt)*)?)),* $(,)?) => {
        /// A protocol request opcode.
        ///
        /// The numbering groups requests as Table 1 does: audio and events,
        /// telephony, I/O control, access control, atoms and properties,
        /// and housekeeping.  Generated from [`crate::with_request_table`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $(#[doc = $doc] $name = $wire,)*
        }

        impl Opcode {
            /// All 37 opcodes, in wire order.
            pub const ALL: [Opcode; REQUEST_COUNT] = [$(Opcode::$name,)*];

            /// Decodes a wire opcode byte.
            pub fn from_wire(v: u8) -> Result<Opcode, ProtoError> {
                match v {
                    $($wire => Ok(Opcode::$name),)*
                    other => Err(ProtoError::BadOpcode(other)),
                }
            }

            /// Whether the server sends a reply for this request
            /// unconditionally.
            ///
            /// `PlaySamples` replies unless the request suppresses it;
            /// `NoOperation`, the AC and event management requests,
            /// property writes and gain setters are asynchronous (one-way).
            pub const fn always_replies(self) -> bool {
                match self {
                    $(Opcode::$name => define_opcode!(@replies $reply),)*
                }
            }
        }
    };
    (@replies replies) => { true };
    (@replies oneway) => { false };
}

crate::with_request_table!(define_opcode);

impl Opcode {
    /// The wire value.
    pub const fn to_wire(self) -> u8 {
        self as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_37_requests() {
        // Table 1 lists 37 protocol requests.
        assert_eq!(Opcode::ALL.len(), 37);
    }

    #[test]
    fn audio_data_requests() {
        // "Most of these are related to audio, although only two deal with
        // audio data."
        let data_ops: Vec<_> = Opcode::ALL
            .iter()
            .filter(|o| matches!(o, Opcode::PlaySamples | Opcode::RecordSamples))
            .collect();
        assert_eq!(data_ops.len(), 2);
    }

    #[test]
    fn reply_classification_matches_seed() {
        // The 13 requests the seed classified as always replying.
        let replying: Vec<_> = Opcode::ALL
            .iter()
            .filter(|o| o.always_replies())
            .copied()
            .collect();
        assert_eq!(
            replying,
            vec![
                Opcode::RecordSamples,
                Opcode::GetTime,
                Opcode::QueryPhone,
                Opcode::QueryInputGain,
                Opcode::QueryOutputGain,
                Opcode::ListHosts,
                Opcode::InternAtom,
                Opcode::GetAtomName,
                Opcode::GetProperty,
                Opcode::ListProperties,
                Opcode::SyncConnection,
                Opcode::QueryExtension,
                Opcode::ListExtensions,
            ]
        );
    }
}
