//! Protocol error codes and decode errors.

use core::fmt;

/// Error codes a server reports to clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// The opcode or request structure was malformed.
    BadRequest = 1,
    /// A numeric field fell outside its legal range.
    BadValue = 2,
    /// The named audio device does not exist.
    BadDevice = 3,
    /// The audio context ID names no known AC.
    BadAc = 4,
    /// The atom ID names no interned atom.
    BadAtom = 5,
    /// The host is not authorized, or the operation is not permitted.
    BadAccess = 6,
    /// The request length field was inconsistent with its contents.
    BadLength = 7,
    /// The request is defined but not implemented by this server.
    BadImplementation = 8,
    /// A parameter does not match the target (e.g. phone request on a
    /// non-telephone device).
    BadMatch = 9,
    /// A resource ID was already in use or could not be allocated.
    BadIdChoice = 10,
}

impl ErrorCode {
    /// All error codes, in wire order.
    pub const ALL: [ErrorCode; 10] = [
        ErrorCode::BadRequest,
        ErrorCode::BadValue,
        ErrorCode::BadDevice,
        ErrorCode::BadAc,
        ErrorCode::BadAtom,
        ErrorCode::BadAccess,
        ErrorCode::BadLength,
        ErrorCode::BadImplementation,
        ErrorCode::BadMatch,
        ErrorCode::BadIdChoice,
    ];

    /// Decodes a wire value.
    pub fn from_wire(v: u8) -> Option<ErrorCode> {
        ErrorCode::ALL.get(v.wrapping_sub(1) as usize).copied()
    }

    /// The wire value.
    pub const fn to_wire(self) -> u8 {
        self as u8
    }

    /// `AFGetErrorText`: a human-readable description.
    pub const fn text(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad request code or malformed request",
            ErrorCode::BadValue => "integer parameter out of range",
            ErrorCode::BadDevice => "no such audio device",
            ErrorCode::BadAc => "no such audio context",
            ErrorCode::BadAtom => "no such atom",
            ErrorCode::BadAccess => "access denied",
            ErrorCode::BadLength => "request length incorrect",
            ErrorCode::BadImplementation => "server does not implement this request",
            ErrorCode::BadMatch => "parameter mismatch",
            ErrorCode::BadIdChoice => "resource id choice invalid",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

/// A protocol error as delivered to a client: which request failed and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The error code.
    pub code: ErrorCode,
    /// Low 16 bits of the failing request's sequence number.
    pub sequence: u16,
    /// The offending value, if meaningful.
    pub bad_value: u32,
    /// Opcode of the failing request (0 if unknown).
    pub opcode: u8,
}

/// Errors that arise while encoding or decoding the wire format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// More bytes were needed than remained in the buffer.
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes that remained.
        available: usize,
    },
    /// The first setup byte was neither `b'l'` nor `b'B'`.
    BadByteOrderMarker(u8),
    /// An unknown request opcode.
    BadOpcode(u8),
    /// An unknown event kind.
    BadEventKind(u8),
    /// An unknown enumeration value in a field.
    BadEnum {
        /// Which field held the value.
        field: &'static str,
        /// The unknown value.
        value: u32,
    },
    /// A length field exceeded the protocol maximum or its container.
    BadLength(usize),
    /// String contents were not valid UTF-8.
    BadString,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { wanted, available } => {
                write!(f, "truncated message: wanted {wanted}, had {available}")
            }
            ProtoError::BadByteOrderMarker(b) => write!(f, "bad byte-order marker {b:#04x}"),
            ProtoError::BadOpcode(v) => write!(f, "unknown opcode {v}"),
            ProtoError::BadEventKind(v) => write!(f, "unknown event kind {v}"),
            ProtoError::BadEnum { field, value } => write!(f, "bad value {value} for {field}"),
            ProtoError::BadLength(n) => write!(f, "bad length {n}"),
            ProtoError::BadString => write!(f, "string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Why a request frame header was rejected: a garbage prefix must never
/// size an allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length field was zero — below the minimum one-word frame.
    ZeroLength,
    /// The frame claimed more payload than [`crate::MAX_REQUEST_BYTES`].
    Oversized {
        /// The claimed payload size in bytes.
        bytes: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::ZeroLength => write!(f, "zero-length frame header"),
            FrameError::Oversized { bytes } => {
                write!(
                    f,
                    "oversized frame: {bytes} bytes > {}",
                    crate::MAX_REQUEST_BYTES
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        for e in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_wire(e.to_wire()), Some(e));
        }
        assert_eq!(ErrorCode::from_wire(0), None);
        assert_eq!(ErrorCode::from_wire(99), None);
    }

    #[test]
    fn error_text_nonempty() {
        for e in ErrorCode::ALL {
            assert!(!e.text().is_empty());
        }
    }

    #[test]
    fn display_formats() {
        let s = ProtoError::Truncated {
            wanted: 8,
            available: 3,
        }
        .to_string();
        assert!(s.contains("wanted 8"));
    }
}
