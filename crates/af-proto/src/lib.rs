//! The AudioFile wire protocol.
//!
//! Control and audio data are multiplexed over a single reliable byte-stream
//! connection between client and server (§5).  The protocol is modelled on
//! the X Window System protocol: requests carry a 16-bit length in 32-bit
//! words, a one-byte opcode and an optional one-byte opcode extension; the
//! shortest request is four bytes and the longest is 262 144 bytes.  There
//! are 37 requests (Table 1) and five event types (§5.2).
//!
//! Layout conventions:
//!
//! * Multi-byte fields use the client's byte order, declared at connection
//!   setup; the server byte-swaps as needed (§7.3.1).  Both orders are
//!   implemented here as [`ByteOrder`].
//! * All data in requests is naturally aligned inside the request header and
//!   requests are padded to a 32-bit boundary.
//! * Server-to-client messages are framed by [`message::MessageHeader`]:
//!   errors, replies and events share one 8-byte header, and events have a
//!   fixed 32-byte size.

pub mod ac;
pub mod atoms;
mod codec;
pub mod error;
pub mod event;
pub mod message;
pub mod opcode;
pub mod reply;
pub mod request;
pub mod setup;
pub mod spec;
pub mod wire;

pub use ac::{AcAttributes, AcId, AcMask};
pub use atoms::Atom;
pub use error::{ErrorCode, FrameError, ProtoError, WireError};
pub use event::{Event, EventDetail, EventKind, EventMask};
pub use opcode::Opcode;
pub use reply::{RecordView, Reply};
pub use request::{decode_frame_header, PlayView, Request};
pub use setup::{ConnSetup, DeviceDesc, DeviceKind, SetupReply, SetupStatus};
pub use wire::ByteOrder;

/// Device identifier within one server: a small index (§5.4).
pub type DeviceId = u8;

/// Maximum request length in bytes: 2¹⁶ words (§5.3).
pub const MAX_REQUEST_BYTES: usize = 65_536 * 4;

/// Protocol major version exchanged at connection setup.
pub const PROTOCOL_MAJOR: u16 = 2;
/// Protocol minor version exchanged at connection setup.
pub const PROTOCOL_MINOR: u16 = 2;

/// The request-size boundary at which client libraries chunk large play and
/// record requests (§5.7): "long play and record requests are 'chunked' into
/// 8K byte pieces, so that no single request will take very long for the
/// server to process."
pub const CHUNK_BYTES: usize = 8 * 1024;
