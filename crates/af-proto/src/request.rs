//! Request encoding and decoding — all 37 protocol requests.
//!
//! Every request starts with a four-byte header: a length field (16 bits,
//! expressed in 32-bit quantities and including the header), an opcode byte
//! and an opcode-extension byte (unused, reserved).  Data is padded to a
//! 32-bit boundary (§5.3).

use crate::ac::{AcAttributes, AcId, AcMask};
use crate::atoms::Atom;
use crate::error::{FrameError, ProtoError};
use crate::event::EventMask;
use crate::opcode::Opcode;
use crate::wire::{pad4, ByteOrder, WireReader, WireWriter};
use crate::{DeviceId, MAX_REQUEST_BYTES};
use af_dsp::Encoding;
use af_time::ATime;

/// Flag bits carried by `PlaySamples`.
pub mod play_flags {
    /// Suppress the usual time reply (§5.7): the client library sets this on
    /// all but the final chunk of a contiguous play series.
    pub const SUPPRESS_REPLY: u8 = 1 << 0;
    /// Sample data is big-endian (§7.3.1).
    pub const BIG_ENDIAN_DATA: u8 = 1 << 1;
    /// Preempt (overwrite) instead of mixing, overriding the AC for this
    /// request only.
    pub const PREEMPT: u8 = 1 << 2;
}

/// Flag bits carried by `RecordSamples`.
pub mod record_flags {
    /// Block until all requested data is available (`ABlock`); when clear,
    /// return whatever is immediately available (`ANoBlock`).
    pub const BLOCK: u8 = 1 << 0;
    /// Return sample data big-endian.
    pub const BIG_ENDIAN_DATA: u8 = 1 << 1;
}

/// How `ChangeProperty` combines new data with existing data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PropertyMode {
    /// Discard any previous value.
    Replace = 0,
    /// Insert before the existing data.
    Prepend = 1,
    /// Insert after the existing data.
    Append = 2,
}

impl PropertyMode {
    fn from_wire(v: u8) -> Result<PropertyMode, ProtoError> {
        match v {
            0 => Ok(PropertyMode::Replace),
            1 => Ok(PropertyMode::Prepend),
            2 => Ok(PropertyMode::Append),
            other => Err(ProtoError::BadEnum {
                field: "property mode",
                value: u32::from(other),
            }),
        }
    }
}

/// A decoded protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Select which events the client wants for a device.
    SelectEvents {
        /// Target device.
        device: DeviceId,
        /// Event kinds to deliver.
        mask: EventMask,
    },
    /// Create an audio context with a client-chosen ID.
    CreateAc {
        /// Client-allocated AC identifier.
        id: AcId,
        /// Device the context binds to.
        device: DeviceId,
        /// Which attribute fields are supplied.
        mask: AcMask,
        /// Attribute values.
        attrs: AcAttributes,
    },
    /// Change attributes of an existing audio context.
    ChangeAcAttributes {
        /// The context to modify.
        id: AcId,
        /// Which attribute fields are supplied.
        mask: AcMask,
        /// Attribute values.
        attrs: AcAttributes,
    },
    /// Free an audio context.
    FreeAc {
        /// The context to free.
        id: AcId,
    },
    /// Play samples at an exact device time.
    PlaySamples {
        /// Audio context supplying device, gain and preemption.
        ac: AcId,
        /// Device time of the first sample.
        start_time: ATime,
        /// Flag bits (see [`play_flags`]).
        flags: u8,
        /// Raw sample data in the AC's encoding.
        data: Vec<u8>,
    },
    /// Record samples from an exact device time.
    RecordSamples {
        /// Audio context supplying device and encoding.
        ac: AcId,
        /// Device time of the first requested sample.
        start_time: ATime,
        /// Number of data bytes requested.
        nbytes: u32,
        /// Flag bits (see [`record_flags`]).
        flags: u8,
    },
    /// Get the audio device's time.
    GetTime {
        /// Target device.
        device: DeviceId,
    },
    /// Get telephone state.
    QueryPhone {
        /// Target (telephone) device.
        device: DeviceId,
    },
    /// Connect local audio directly to the telephone (§7.4.1).
    EnablePassThrough {
        /// Target device.
        device: DeviceId,
    },
    /// Remove the direct local-audio/telephone connection.
    DisablePassThrough {
        /// Target device.
        device: DeviceId,
    },
    /// Set the hookswitch state.
    HookSwitch {
        /// Target device.
        device: DeviceId,
        /// `true` to go off-hook.
        off_hook: bool,
    },
    /// Flash the hookswitch.
    FlashHook {
        /// Target device.
        device: DeviceId,
    },
    /// Not for general use (§5.3, Table 1).
    EnableGainControl {
        /// Target device.
        device: DeviceId,
    },
    /// Not for general use.
    DisableGainControl {
        /// Target device.
        device: DeviceId,
    },
    /// Obsolete, do not use: dialing is done client-side with tones (§5.5).
    DialPhone {
        /// Target device.
        device: DeviceId,
        /// Number to dial.
        number: String,
    },
    /// Set input gain.
    SetInputGain {
        /// Target device.
        device: DeviceId,
        /// Gain in dB.
        db: i32,
    },
    /// Set output gain (volume).
    SetOutputGain {
        /// Target device.
        device: DeviceId,
        /// Gain in dB.
        db: i32,
    },
    /// Find out current input gain.
    QueryInputGain {
        /// Target device.
        device: DeviceId,
    },
    /// Find out current output gain.
    QueryOutputGain {
        /// Target device.
        device: DeviceId,
    },
    /// Enable inputs selected by a mask.
    EnableInput {
        /// Target device.
        device: DeviceId,
        /// Connector mask.
        mask: u32,
    },
    /// Enable outputs selected by a mask.
    EnableOutput {
        /// Target device.
        device: DeviceId,
        /// Connector mask.
        mask: u32,
    },
    /// Disable inputs selected by a mask.
    DisableInput {
        /// Target device.
        device: DeviceId,
        /// Connector mask.
        mask: u32,
    },
    /// Disable outputs selected by a mask.
    DisableOutput {
        /// Target device.
        device: DeviceId,
        /// Connector mask.
        mask: u32,
    },
    /// Enable or disable access-control checking.
    SetAccessControl {
        /// Whether checking is enabled.
        enabled: bool,
    },
    /// Add or remove a host from the access list.
    ChangeHosts {
        /// `true` to insert, `false` to delete.
        insert: bool,
        /// Raw network address bytes (4 for IPv4, 16 for IPv6).
        address: Vec<u8>,
    },
    /// List which hosts are permitted access.
    ListHosts,
    /// Allocate (or look up) a unique ID for a string.
    InternAtom {
        /// When set, do not create the atom if it does not exist.
        only_if_exists: bool,
        /// The string to intern.
        name: String,
    },
    /// Get the name for an atom ID.
    GetAtomName {
        /// The atom to look up.
        atom: Atom,
    },
    /// Change a device property.
    ChangeProperty {
        /// Target device.
        device: DeviceId,
        /// Combination mode.
        mode: PropertyMode,
        /// Property name atom.
        property: Atom,
        /// Property type atom.
        type_: Atom,
        /// Property value bytes.
        data: Vec<u8>,
    },
    /// Remove a device property.
    DeleteProperty {
        /// Target device.
        device: DeviceId,
        /// Property name atom.
        property: Atom,
    },
    /// Retrieve a device property.
    GetProperty {
        /// Target device.
        device: DeviceId,
        /// Delete the property after reading.
        delete: bool,
        /// Property name atom.
        property: Atom,
        /// Required type (or [`Atom::NONE`] for any).
        type_: Atom,
    },
    /// List all device properties.
    ListProperties {
        /// Target device.
        device: DeviceId,
    },
    /// Non-blocking no-operation.
    NoOperation,
    /// Round-trip no-operation, used by `AFSync`.
    SyncConnection,
    /// Query an extension by name (none are implemented).
    QueryExtension {
        /// Extension name.
        name: String,
    },
    /// List extensions (none are implemented).
    ListExtensions,
    /// Kill a client owning a resource (not yet implemented in servers).
    KillClient {
        /// Resource identifying the victim client.
        resource: u32,
    },
}

macro_rules! define_request_opcode {
    ($(($name:ident, $wire:literal, $reply:ident, $doc:literal)),* $(,)?) => {
        impl Request {
            /// The opcode of this request.
            ///
            /// Generated from [`crate::with_request_table`]; a `Request`
            /// variant missing from the spec table fails to compile here.
            pub fn opcode(&self) -> Opcode {
                match self {
                    $(Request::$name { .. } => Opcode::$name,)*
                }
            }
        }
    };
}

crate::with_request_table!(define_request_opcode);

impl Request {
    /// Encodes the request as a complete framed message (header included).
    ///
    /// # Panics
    ///
    /// Panics if the encoded request would exceed [`MAX_REQUEST_BYTES`];
    /// client libraries chunk data requests well below that limit.
    pub fn encode(&self, order: ByteOrder) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.room());
        Self::frame_into(order, self.opcode(), &mut buf, |w| self.encode_payload(w));
        buf
    }

    /// Appends the request as a complete framed message to `out` — the
    /// mirror of [`crate::Reply::encode_into`], except that `out` is not
    /// cleared: a client batches requests into one buffer and one `write`.
    ///
    /// # Panics
    ///
    /// As [`Request::encode`]; also if `out` does not hold a whole number
    /// of 32-bit words (whole frames always do).
    pub fn encode_into(&self, order: ByteOrder, out: &mut Vec<u8>) {
        out.reserve(self.room());
        Self::frame_into(order, self.opcode(), out, |w| self.encode_payload(w));
    }

    /// Bytes to make room for before encoding: exact for the data-carrying
    /// requests, a small frame's worth for the rest.
    fn room(&self) -> usize {
        match self {
            Request::PlaySamples { data, .. } | Request::ChangeProperty { data, .. } => {
                data_frame_len(data)
            }
            _ => SMALL_FRAME_BYTES,
        }
    }

    /// The [`PLAY_HEADER_BYTES`] that open a framed `PlaySamples` carrying
    /// `nbytes` of samples.  Followed by the samples and zeros to the next
    /// word boundary they are byte-identical to the owned
    /// [`Request::PlaySamples`], so a client can send the samples from
    /// where they lie.
    ///
    /// # Panics
    ///
    /// As [`Request::encode`].
    pub fn encode_play_header(
        order: ByteOrder,
        ac: AcId,
        start_time: ATime,
        flags: u8,
        nbytes: usize,
    ) -> [u8; PLAY_HEADER_BYTES] {
        let total = pad4(PLAY_HEADER_BYTES + nbytes);
        assert!(total <= MAX_REQUEST_BYTES, "request too long: {total}");
        let mut h = [0u8; PLAY_HEADER_BYTES];
        h[..2].copy_from_slice(&order.u16_bytes((total / 4) as u16));
        h[2] = Opcode::PlaySamples.to_wire();
        h[4..8].copy_from_slice(&order.u32_bytes(ac));
        h[8..12].copy_from_slice(&order.u32_bytes(start_time.ticks()));
        h[12] = flags;
        h[16..].copy_from_slice(&order.u32_bytes(nbytes as u32));
        h
    }

    /// Header placeholder, payload, padding, then the length patched in.
    /// Callers make room first, so a fresh buffer is allocated once.
    fn frame_into(
        order: ByteOrder,
        opcode: Opcode,
        out: &mut Vec<u8>,
        payload: impl FnOnce(&mut WireWriter),
    ) {
        let start = out.len();
        // The writer pads strings and frames to absolute word boundaries.
        assert!(
            start.is_multiple_of(4),
            "request appended at unaligned offset {start}"
        );
        let mut w = WireWriter::over(order, std::mem::take(out));
        w.u16(0).u8(opcode.to_wire()).u8(0);
        payload(&mut w);
        w.pad_to_word();
        let total = w.len() - start;
        assert!(total <= MAX_REQUEST_BYTES, "request too long: {total}");
        w.patch(start, &order.u16_bytes((total / 4) as u16));
        *out = w.finish();
    }

    fn encode_ac_attrs(w: &mut WireWriter, mask: AcMask, attrs: &AcAttributes) {
        w.u32(mask.0);
        w.i16(attrs.play_gain_db).i16(attrs.record_gain_db);
        w.u8(u8::from(attrs.preempt))
            .u8(attrs.encoding.to_wire())
            .u8(attrs.channels)
            .u8(u8::from(attrs.big_endian_data));
    }

    fn decode_ac_attrs(r: &mut WireReader<'_>) -> Result<(AcMask, AcAttributes), ProtoError> {
        let mask = AcMask(r.u32()?);
        let play_gain_db = r.i16()?;
        let record_gain_db = r.i16()?;
        let preempt = r.u8()? != 0;
        let enc_wire = r.u8()?;
        let encoding = Encoding::from_wire(enc_wire).ok_or(ProtoError::BadEnum {
            field: "ac encoding",
            value: u32::from(enc_wire),
        })?;
        let channels = r.u8()?;
        let big_endian_data = r.u8()? != 0;
        Ok((
            mask,
            AcAttributes {
                play_gain_db,
                record_gain_db,
                preempt,
                encoding,
                channels,
                big_endian_data,
            },
        ))
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn encode_payload(&self, w: &mut WireWriter) {
        match self {
            Request::SelectEvents { device, mask } => {
                w.u8(*device).pad(3).u32(mask.0);
            }
            Request::CreateAc {
                id,
                device,
                mask,
                attrs,
            } => {
                w.u32(*id).u8(*device).pad(3);
                Self::encode_ac_attrs(w, *mask, attrs);
            }
            Request::ChangeAcAttributes { id, mask, attrs } => {
                w.u32(*id);
                Self::encode_ac_attrs(w, *mask, attrs);
            }
            Request::FreeAc { id } => {
                w.u32(*id);
            }
            Request::PlaySamples {
                ac,
                start_time,
                flags,
                data,
            } => {
                let h = Self::encode_play_header(w.order(), *ac, *start_time, *flags, data.len());
                w.bytes(&h[4..]).bytes(data);
            }
            Request::RecordSamples {
                ac,
                start_time,
                nbytes,
                flags,
            } => {
                w.u32(*ac).u32(start_time.ticks()).u8(*flags).pad(3);
                w.u32(*nbytes);
            }
            Request::GetTime { device }
            | Request::QueryPhone { device }
            | Request::EnablePassThrough { device }
            | Request::DisablePassThrough { device }
            | Request::FlashHook { device }
            | Request::EnableGainControl { device }
            | Request::DisableGainControl { device }
            | Request::QueryInputGain { device }
            | Request::QueryOutputGain { device }
            | Request::ListProperties { device } => {
                w.u8(*device).pad(3);
            }
            Request::HookSwitch { device, off_hook } => {
                w.u8(*device).u8(u8::from(*off_hook)).pad(2);
            }
            Request::DialPhone { device, number } => {
                w.u8(*device).pad(3).string(number);
            }
            Request::SetInputGain { device, db } | Request::SetOutputGain { device, db } => {
                w.u8(*device).pad(3).i32(*db);
            }
            Request::EnableInput { device, mask }
            | Request::EnableOutput { device, mask }
            | Request::DisableInput { device, mask }
            | Request::DisableOutput { device, mask } => {
                w.u8(*device).pad(3).u32(*mask);
            }
            Request::SetAccessControl { enabled } => {
                w.u8(u8::from(*enabled)).pad(3);
            }
            Request::ChangeHosts { insert, address } => {
                w.u8(u8::from(*insert)).u8(address.len() as u8).pad(2);
                w.bytes(address);
            }
            Request::ListHosts
            | Request::NoOperation
            | Request::SyncConnection
            | Request::ListExtensions => {}
            Request::InternAtom {
                only_if_exists,
                name,
            } => {
                w.u8(u8::from(*only_if_exists)).pad(3).string(name);
            }
            Request::GetAtomName { atom } => {
                w.u32(atom.0);
            }
            Request::ChangeProperty {
                device,
                mode,
                property,
                type_,
                data,
            } => {
                w.u8(*device).u8(*mode as u8).pad(2);
                w.u32(property.0).u32(type_.0);
                w.u32(data.len() as u32);
                w.bytes(data);
            }
            Request::DeleteProperty { device, property } => {
                w.u8(*device).pad(3).u32(property.0);
            }
            Request::GetProperty {
                device,
                delete,
                property,
                type_,
            } => {
                w.u8(*device).u8(u8::from(*delete)).pad(2);
                w.u32(property.0).u32(type_.0);
            }
            Request::QueryExtension { name } => {
                w.string(name);
            }
            Request::KillClient { resource } => {
                w.u32(*resource);
            }
        }
    }

    /// Decodes a request payload (the bytes following the 4-byte header).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn decode(order: ByteOrder, opcode: Opcode, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = WireReader::new(order, payload);
        let req = match opcode {
            Opcode::SelectEvents => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::SelectEvents {
                    device,
                    mask: EventMask(r.u32()?),
                }
            }
            Opcode::CreateAc => {
                let id = r.u32()?;
                let device = r.u8()?;
                r.skip(3)?;
                let (mask, attrs) = Self::decode_ac_attrs(&mut r)?;
                Request::CreateAc {
                    id,
                    device,
                    mask,
                    attrs,
                }
            }
            Opcode::ChangeAcAttributes => {
                let id = r.u32()?;
                let (mask, attrs) = Self::decode_ac_attrs(&mut r)?;
                Request::ChangeAcAttributes { id, mask, attrs }
            }
            Opcode::FreeAc => Request::FreeAc { id: r.u32()? },
            Opcode::PlaySamples => {
                let play = PlayView::parse(order, payload)?;
                Request::PlaySamples {
                    ac: play.ac,
                    start_time: play.start_time,
                    flags: play.flags,
                    data: play.data.to_vec(),
                }
            }
            Opcode::RecordSamples => {
                let ac = r.u32()?;
                let start_time = ATime::new(r.u32()?);
                let flags = r.u8()?;
                r.skip(3)?;
                let nbytes = r.u32()?;
                Request::RecordSamples {
                    ac,
                    start_time,
                    nbytes,
                    flags,
                }
            }
            Opcode::GetTime => Request::GetTime { device: r.u8()? },
            Opcode::QueryPhone => Request::QueryPhone { device: r.u8()? },
            Opcode::EnablePassThrough => Request::EnablePassThrough { device: r.u8()? },
            Opcode::DisablePassThrough => Request::DisablePassThrough { device: r.u8()? },
            Opcode::HookSwitch => {
                let device = r.u8()?;
                let off_hook = r.u8()? != 0;
                Request::HookSwitch { device, off_hook }
            }
            Opcode::FlashHook => Request::FlashHook { device: r.u8()? },
            Opcode::EnableGainControl => Request::EnableGainControl { device: r.u8()? },
            Opcode::DisableGainControl => Request::DisableGainControl { device: r.u8()? },
            Opcode::DialPhone => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::DialPhone {
                    device,
                    number: r.string()?,
                }
            }
            Opcode::SetInputGain => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::SetInputGain {
                    device,
                    db: r.i32()?,
                }
            }
            Opcode::SetOutputGain => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::SetOutputGain {
                    device,
                    db: r.i32()?,
                }
            }
            Opcode::QueryInputGain => Request::QueryInputGain { device: r.u8()? },
            Opcode::QueryOutputGain => Request::QueryOutputGain { device: r.u8()? },
            Opcode::EnableInput => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::EnableInput {
                    device,
                    mask: r.u32()?,
                }
            }
            Opcode::EnableOutput => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::EnableOutput {
                    device,
                    mask: r.u32()?,
                }
            }
            Opcode::DisableInput => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::DisableInput {
                    device,
                    mask: r.u32()?,
                }
            }
            Opcode::DisableOutput => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::DisableOutput {
                    device,
                    mask: r.u32()?,
                }
            }
            Opcode::SetAccessControl => Request::SetAccessControl {
                enabled: r.u8()? != 0,
            },
            Opcode::ChangeHosts => {
                let insert = r.u8()? != 0;
                let len = r.u8()? as usize;
                r.skip(2)?;
                Request::ChangeHosts {
                    insert,
                    address: r.bytes(len)?.to_vec(),
                }
            }
            Opcode::ListHosts => Request::ListHosts,
            Opcode::InternAtom => {
                let only_if_exists = r.u8()? != 0;
                r.skip(3)?;
                Request::InternAtom {
                    only_if_exists,
                    name: r.string()?,
                }
            }
            Opcode::GetAtomName => Request::GetAtomName {
                atom: Atom(r.u32()?),
            },
            Opcode::ChangeProperty => {
                let device = r.u8()?;
                let mode = PropertyMode::from_wire(r.u8()?)?;
                r.skip(2)?;
                let property = Atom(r.u32()?);
                let type_ = Atom(r.u32()?);
                let len = r.u32()? as usize;
                if len > r.remaining() {
                    return Err(ProtoError::BadLength(len));
                }
                Request::ChangeProperty {
                    device,
                    mode,
                    property,
                    type_,
                    data: r.bytes(len)?.to_vec(),
                }
            }
            Opcode::DeleteProperty => {
                let device = r.u8()?;
                r.skip(3)?;
                Request::DeleteProperty {
                    device,
                    property: Atom(r.u32()?),
                }
            }
            Opcode::GetProperty => {
                let device = r.u8()?;
                let delete = r.u8()? != 0;
                r.skip(2)?;
                Request::GetProperty {
                    device,
                    delete,
                    property: Atom(r.u32()?),
                    type_: Atom(r.u32()?),
                }
            }
            Opcode::ListProperties => Request::ListProperties { device: r.u8()? },
            Opcode::NoOperation => Request::NoOperation,
            Opcode::SyncConnection => Request::SyncConnection,
            Opcode::QueryExtension => Request::QueryExtension { name: r.string()? },
            Opcode::ListExtensions => Request::ListExtensions,
            Opcode::KillClient => Request::KillClient { resource: r.u32()? },
        };
        Ok(req)
    }

    /// Parses a request frame header, returning `(opcode, payload_len)`.
    ///
    /// `payload_len` is the number of bytes following the 4-byte header.
    pub fn parse_header(order: ByteOrder, header: &[u8; 4]) -> Result<(Opcode, usize), ProtoError> {
        let (opcode, payload_len) = decode_frame_header(order, *header).map_err(|e| match e {
            FrameError::ZeroLength => ProtoError::BadLength(0),
            FrameError::Oversized { bytes } => ProtoError::BadLength(bytes),
        })?;
        Ok((Opcode::from_wire(opcode)?, payload_len))
    }

    /// Total padded frame size of this request when encoded.
    pub fn encoded_len(&self, order: ByteOrder) -> usize {
        // Cheap requests dominate; re-encoding small ones is fine, and data
        // requests compute exactly without copying the data.
        match self {
            Request::PlaySamples { data, .. } | Request::ChangeProperty { data, .. } => {
                data_frame_len(data)
            }
            _ => self.encode(order).len(),
        }
    }
}

/// Decodes a 4-byte request frame header into `(opcode, payload_len)`,
/// the opcode byte as received.
///
/// The header is `[len_lo, len_hi, opcode, pad]` with the length counted
/// in 4-byte words including the header itself.  Garbage prefixes decode
/// to out-of-range lengths and are rejected rather than trusted — an
/// attacker-controlled or corrupted length must never size an allocation.
pub fn decode_frame_header(order: ByteOrder, header: [u8; 4]) -> Result<(u8, usize), FrameError> {
    let words = match order {
        ByteOrder::Little => u16::from_le_bytes([header[0], header[1]]),
        ByteOrder::Big => u16::from_be_bytes([header[0], header[1]]),
    } as usize;
    if words == 0 {
        return Err(FrameError::ZeroLength);
    }
    let payload_len = words * 4 - 4;
    if payload_len > MAX_REQUEST_BYTES {
        return Err(FrameError::Oversized { bytes: payload_len });
    }
    Ok((header[2], payload_len))
}

/// A `PlaySamples` request's fields, its sample bytes still where they
/// were received: the borrowed form of [`Request::PlaySamples`], for a
/// server that only reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlayView<'a> {
    /// The audio context.
    pub ac: AcId,
    /// Device time of the first sample.
    pub start_time: ATime,
    /// [`play_flags`] bits.
    pub flags: u8,
    /// The sample bytes.
    pub data: &'a [u8],
}

impl<'a> PlayView<'a> {
    /// Parses a `PlaySamples` payload (the bytes following the 4-byte
    /// header) without copying it.
    pub fn parse(order: ByteOrder, payload: &'a [u8]) -> Result<PlayView<'a>, ProtoError> {
        let mut r = WireReader::new(order, payload);
        let ac = r.u32()?;
        let start_time = ATime::new(r.u32()?);
        let flags = r.u8()?;
        r.skip(3)?;
        let nbytes = r.u32()? as usize;
        if nbytes > r.remaining() {
            return Err(ProtoError::BadLength(nbytes));
        }
        Ok(PlayView {
            ac,
            start_time,
            flags,
            data: r.bytes(nbytes)?,
        })
    }
}

/// Bytes of a framed `PlaySamples` before its samples: the 4-byte header
/// and four words of fields ([`Request::encode_play_header`]).
pub const PLAY_HEADER_BYTES: usize = 20;

/// Room reserved for a request that carries no sample or property data:
/// all but the string-carrying ones fit.
const SMALL_FRAME_BYTES: usize = 24;

/// Padded frame size of the two data-carrying requests (`PlaySamples`,
/// `ChangeProperty`): header, four words of fields, the data.
fn data_frame_len(data: &[u8]) -> usize {
    pad4(4 + 16 + data.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Request> {
        vec![
            Request::SelectEvents {
                device: 1,
                mask: EventMask::ALL,
            },
            Request::CreateAc {
                id: 0xABCD_0001,
                device: 2,
                mask: AcMask::ALL,
                attrs: AcAttributes {
                    play_gain_db: -6,
                    record_gain_db: 3,
                    preempt: true,
                    encoding: Encoding::Lin16,
                    channels: 2,
                    big_endian_data: true,
                },
            },
            Request::ChangeAcAttributes {
                id: 7,
                mask: AcMask::PLAY_GAIN,
                attrs: AcAttributes::default(),
            },
            Request::FreeAc { id: 7 },
            Request::PlaySamples {
                ac: 9,
                start_time: ATime::new(123_456),
                flags: play_flags::SUPPRESS_REPLY,
                data: vec![1, 2, 3, 4, 5],
            },
            Request::RecordSamples {
                ac: 9,
                start_time: ATime::new(u32::MAX - 5),
                nbytes: 8000,
                flags: record_flags::BLOCK,
            },
            Request::GetTime { device: 0 },
            Request::QueryPhone { device: 0 },
            Request::EnablePassThrough { device: 0 },
            Request::DisablePassThrough { device: 0 },
            Request::HookSwitch {
                device: 0,
                off_hook: true,
            },
            Request::FlashHook { device: 0 },
            Request::EnableGainControl { device: 0 },
            Request::DisableGainControl { device: 0 },
            Request::DialPhone {
                device: 0,
                number: "16175551212".into(),
            },
            Request::SetInputGain { device: 1, db: -12 },
            Request::SetOutputGain { device: 1, db: 6 },
            Request::QueryInputGain { device: 1 },
            Request::QueryOutputGain { device: 1 },
            Request::EnableInput { device: 1, mask: 1 },
            Request::EnableOutput { device: 1, mask: 2 },
            Request::DisableInput { device: 1, mask: 1 },
            Request::DisableOutput { device: 1, mask: 2 },
            Request::SetAccessControl { enabled: true },
            Request::ChangeHosts {
                insert: true,
                address: vec![127, 0, 0, 1],
            },
            Request::ListHosts,
            Request::InternAtom {
                only_if_exists: false,
                name: "MY_PROPERTY".into(),
            },
            Request::GetAtomName { atom: Atom(12) },
            Request::ChangeProperty {
                device: 0,
                mode: PropertyMode::Append,
                property: Atom(20),
                type_: Atom(4),
                data: b"16175551212".to_vec(),
            },
            Request::DeleteProperty {
                device: 0,
                property: Atom(20),
            },
            Request::GetProperty {
                device: 0,
                delete: false,
                property: Atom(20),
                type_: Atom(4),
            },
            Request::ListProperties { device: 0 },
            Request::NoOperation,
            Request::SyncConnection,
            Request::QueryExtension {
                name: "AF-NOSUCH".into(),
            },
            Request::ListExtensions,
            Request::KillClient { resource: 0xDEAD },
        ]
    }

    #[test]
    fn every_request_round_trips_both_orders() {
        let reqs = samples();
        assert_eq!(reqs.len(), 37, "one sample per protocol request");
        for order in [ByteOrder::Little, ByteOrder::Big] {
            for req in &reqs {
                let bytes = req.encode(order);
                assert_eq!(bytes.len() % 4, 0, "{req:?} not padded");
                assert!(bytes.len() >= 4, "shortest possible request is 4 bytes");
                let header: [u8; 4] = bytes[..4].try_into().unwrap();
                let (opcode, payload_len) = Request::parse_header(order, &header).unwrap();
                assert_eq!(opcode, req.opcode());
                assert_eq!(payload_len, bytes.len() - 4);
                let back = Request::decode(order, opcode, &bytes[4..]).unwrap();
                assert_eq!(&back, req, "round trip failed for {req:?}");
            }
        }
    }

    #[test]
    fn encode_into_appends_the_same_frames_both_orders() {
        // A batch appended into one buffer is the concatenation of the
        // stand-alone encodings; a play header, the borrowed samples and
        // their padding match the owned request byte for byte.
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let (mut batch, mut want) = (Vec::new(), Vec::new());
            for req in samples() {
                let before = batch.len();
                req.encode_into(order, &mut batch);
                assert_eq!(batch.len() - before, req.encoded_len(order), "{req:?}");
                want.extend_from_slice(&req.encode(order));
                if let Request::PlaySamples {
                    ac,
                    start_time,
                    flags,
                    data,
                } = &req
                {
                    let header =
                        Request::encode_play_header(order, *ac, *start_time, *flags, data.len());
                    batch.extend_from_slice(&header);
                    batch.extend_from_slice(data);
                    batch.resize(pad4(batch.len()), 0);
                    want.extend_from_slice(&req.encode(order));
                }
            }
            assert_eq!(batch, want);
            // Every frame in the batch still parses and round-trips.
            let mut rest = &batch[..];
            let mut decoded = 0;
            while !rest.is_empty() {
                let header: [u8; 4] = rest[..4].try_into().unwrap();
                let (opcode, len) = Request::parse_header(order, &header).unwrap();
                Request::decode(order, opcode, &rest[4..4 + len]).unwrap();
                rest = &rest[4 + len..];
                decoded += 1;
            }
            assert_eq!(decoded, samples().len() + 1);
        }
    }

    #[test]
    fn play_header_samples_and_padding_are_the_owned_frame() {
        // Every padding length, the largest chunk the library sends and a
        // chunk one byte short of it, in both orders.
        for order in [ByteOrder::Little, ByteOrder::Big] {
            for nbytes in [0, 1, 2, 3, 4, 5, 8191, crate::CHUNK_BYTES] {
                let data: Vec<u8> = (0..nbytes).map(|i| (i * 7 + 1) as u8).collect();
                let (ac, start, flags) = (0x0102_0304, ATime::new(0xA0B0_C0D0), 0x85);
                let mut sent =
                    Request::encode_play_header(order, ac, start, flags, nbytes).to_vec();
                sent.extend_from_slice(&data);
                sent.resize(pad4(sent.len()), 0);
                let owned = Request::PlaySamples {
                    ac,
                    start_time: start,
                    flags,
                    data,
                };
                assert_eq!(sent, owned.encode(order), "{nbytes} bytes, {order:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn encode_into_refuses_a_buffer_that_is_not_whole_words() {
        Request::NoOperation.encode_into(ByteOrder::Little, &mut vec![0u8; 3]);
    }

    #[test]
    fn noop_is_minimal() {
        // The shortest possible request is four bytes (§5.3).
        assert_eq!(Request::NoOperation.encode(ByteOrder::Little).len(), 4);
    }

    #[test]
    fn encoded_len_matches_encode() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            for req in samples() {
                assert_eq!(
                    req.encoded_len(order),
                    req.encode(order).len(),
                    "mismatch for {req:?}"
                );
            }
        }
    }

    #[test]
    fn play_data_length_validated() {
        // A PlaySamples whose nbytes exceeds the actual payload is rejected.
        let req = Request::PlaySamples {
            ac: 1,
            start_time: ATime::ZERO,
            flags: 0,
            data: vec![0u8; 16],
        };
        let mut bytes = req.encode(ByteOrder::Little);
        // Corrupt the nbytes field (at offset 4 + 4 + 4 + 1 + 3 = 16).
        bytes[16] = 0xFF;
        bytes[17] = 0xFF;
        let header: [u8; 4] = bytes[..4].try_into().unwrap();
        let (opcode, _) = Request::parse_header(ByteOrder::Little, &header).unwrap();
        assert!(Request::decode(ByteOrder::Little, opcode, &bytes[4..]).is_err());
    }

    #[test]
    fn decode_frame_header_bounds_every_possible_prefix() {
        // Zero length in both byte orders.
        assert_eq!(
            decode_frame_header(ByteOrder::Little, [0, 0, 7, 0]),
            Err(FrameError::ZeroLength)
        );
        assert_eq!(
            decode_frame_header(ByteOrder::Big, [0, 0, 7, 0]),
            Err(FrameError::ZeroLength)
        );
        // Minimum valid frame: one word, no payload — opcode preserved.
        assert_eq!(
            decode_frame_header(ByteOrder::Little, [1, 0, 42, 0]),
            Ok((42, 0))
        );
        assert_eq!(
            decode_frame_header(ByteOrder::Big, [0, 1, 42, 0]),
            Ok((42, 0))
        );
        // The allocation-safety property: over the ENTIRE header space, a
        // garbage prefix either errors or yields a payload length at most
        // MAX_REQUEST_BYTES — the length field never sizes an unbounded
        // allocation.  (The u16 length field tops out at 262,136 bytes,
        // just under the limit, so today Oversized guards against the
        // limit shrinking or the field widening.)
        for hi in 0..=255u8 {
            for lo in [0u8, 1, 2, 0x7f, 0x80, 0xfe, 0xff] {
                for order in [ByteOrder::Little, ByteOrder::Big] {
                    match decode_frame_header(order, [lo, hi, 0xAB, 0xCD]) {
                        Ok((op, len)) => {
                            assert_eq!(op, 0xAB);
                            assert!(len <= MAX_REQUEST_BYTES);
                        }
                        Err(FrameError::ZeroLength) => {}
                        Err(FrameError::Oversized { bytes }) => {
                            assert!(bytes > MAX_REQUEST_BYTES);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_length_header_rejected() {
        let header = [0u8, 0, 33, 0];
        assert!(Request::parse_header(ByteOrder::Little, &header).is_err());
    }

    #[test]
    fn cross_order_decode_differs() {
        // Decoding with the wrong byte order must not silently succeed with
        // the same values for multi-byte fields.
        let req = Request::FreeAc { id: 0x0102_0304 };
        let bytes = req.encode(ByteOrder::Little);
        let wrong = Request::decode(ByteOrder::Big, Opcode::FreeAc, &bytes[4..]).unwrap();
        assert_eq!(wrong, Request::FreeAc { id: 0x0403_0201 });
    }
}
