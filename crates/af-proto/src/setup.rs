//! Connection setup (§5.3, §5.4).
//!
//! At connection setup the client and server exchange version information
//! and authentication data, exactly as in the X Window System, and the
//! server returns the attributes of every abstract audio device: sampling
//! rate, sample data type, buffer size, channel counts, and which inputs and
//! outputs connect to a telephone line.

use crate::codec::count;
use crate::error::ProtoError;
use crate::wire::{ByteOrder, WireReader, WireWriter};
use crate::{PROTOCOL_MAJOR, PROTOCOL_MINOR};
use af_dsp::Encoding;

/// What kind of hardware an abstract device represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DeviceKind {
    /// An 8 kHz telephone-quality CODEC.
    Codec = 0,
    /// A high-fidelity stereo device.
    Hifi = 1,
    /// The left channel of a stereo HiFi device, exposed as mono (§7.4.1).
    HifiLeft = 2,
    /// The right channel of a stereo HiFi device, exposed as mono.
    HifiRight = 3,
    /// A detached network audio peripheral (the LineServer, §7.4.3).
    LineServer = 4,
}

impl DeviceKind {
    /// Decodes the wire value.
    pub fn from_wire(v: u8) -> Result<DeviceKind, ProtoError> {
        match v {
            0 => Ok(DeviceKind::Codec),
            1 => Ok(DeviceKind::Hifi),
            2 => Ok(DeviceKind::HifiLeft),
            3 => Ok(DeviceKind::HifiRight),
            4 => Ok(DeviceKind::LineServer),
            other => Err(ProtoError::BadEnum {
                field: "device kind",
                value: u32::from(other),
            }),
        }
    }
}

/// The client's opening message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnSetup {
    /// Byte order all subsequent multi-byte fields use.
    pub byte_order: ByteOrder,
    /// Client protocol major version.
    pub major: u16,
    /// Client protocol minor version.
    pub minor: u16,
    /// Authorization protocol name (empty for host-based access control).
    pub auth_name: String,
    /// Authorization data.
    pub auth_data: Vec<u8>,
}

impl ConnSetup {
    /// A default setup in the native byte order with no authorization.
    pub fn new() -> ConnSetup {
        ConnSetup {
            byte_order: ByteOrder::native(),
            major: PROTOCOL_MAJOR,
            minor: PROTOCOL_MINOR,
            auth_name: String::new(),
            auth_data: Vec::new(),
        }
    }

    /// Encodes the setup message; `BadLength` for an authorization name
    /// or data too long for its 16-bit count.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let name_len = count::<u16>(self.auth_name.len())?;
        let data_len = count::<u16>(self.auth_data.len())?;
        let mut w = WireWriter::new(self.byte_order);
        w.u8(self.byte_order.marker()).pad(1);
        w.u16(self.major).u16(self.minor);
        w.u16(name_len).u16(data_len);
        w.pad(2); // Header is 12 bytes.
        w.bytes(self.auth_name.as_bytes()).pad_to_word();
        w.bytes(&self.auth_data).pad_to_word();
        Ok(w.finish())
    }

    /// Fixed-size prefix of the setup message (enough to learn the variable
    /// part's length).
    pub const HEADER_SIZE: usize = 12;

    /// Inspects the fixed 12-byte header and returns how many more bytes the
    /// variable tail occupies, so a server can size its second read.
    pub fn tail_len(header: &[u8]) -> Result<usize, ProtoError> {
        if header.len() < Self::HEADER_SIZE {
            return Err(ProtoError::Truncated {
                wanted: Self::HEADER_SIZE,
                available: header.len(),
            });
        }
        let byte_order = ByteOrder::from_marker(header[0])?;
        let mut r = WireReader::new(byte_order, &header[6..]);
        let name_len = r.u16()? as usize;
        let data_len = r.u16()? as usize;
        Ok(crate::wire::pad4(name_len) + crate::wire::pad4(data_len))
    }

    /// Decodes a complete setup message.
    pub fn decode(bytes: &[u8]) -> Result<ConnSetup, ProtoError> {
        if bytes.len() < Self::HEADER_SIZE {
            return Err(ProtoError::Truncated {
                wanted: Self::HEADER_SIZE,
                available: bytes.len(),
            });
        }
        let byte_order = ByteOrder::from_marker(bytes[0])?;
        let mut r = WireReader::new(byte_order, bytes);
        r.skip(2)?; // Marker and pad.
        let major = r.u16()?;
        let minor = r.u16()?;
        let name_len = r.u16()? as usize;
        let data_len = r.u16()? as usize;
        r.skip(2)?;
        let auth_name =
            String::from_utf8(r.bytes(name_len)?.to_vec()).map_err(|_| ProtoError::BadString)?;
        r.skip_to_word()?;
        let auth_data = r.bytes(data_len)?.to_vec();
        Ok(ConnSetup {
            byte_order,
            major,
            minor,
            auth_name,
            auth_data,
        })
    }
}

impl Default for ConnSetup {
    fn default() -> Self {
        ConnSetup::new()
    }
}

/// Whether the server accepted the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SetupStatus {
    /// Connection refused; a reason string follows.
    Failed = 0,
    /// Connection accepted; the device table follows.
    Success = 1,
}

/// Description of one abstract audio device, returned at setup (§5.4).
///
/// This is the client-visible projection of the server's `AudioDeviceRec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceDesc {
    /// Device index, used in requests.
    pub index: u8,
    /// Device kind.
    pub kind: DeviceKind,
    /// Playback sampling frequency in Hz.
    pub play_sample_freq: u32,
    /// Record sampling frequency in Hz.
    pub rec_sample_freq: u32,
    /// Native playback buffer encoding.
    pub play_buf_type: Encoding,
    /// Native record buffer encoding.
    pub rec_buf_type: Encoding,
    /// Number of interleaved playback channels.
    pub play_nchannels: u8,
    /// Number of interleaved record channels.
    pub rec_nchannels: u8,
    /// Playback buffer length in samples (the "four seconds" of §2.2).
    pub play_nsamples_buf: u32,
    /// Record buffer length in samples.
    pub rec_nsamples_buf: u32,
    /// Number of selectable input connectors.
    pub number_of_inputs: u8,
    /// Number of selectable output connectors.
    pub number_of_outputs: u8,
    /// Mask of inputs connected to a telephone line.
    pub inputs_from_phone: u32,
    /// Mask of outputs connected to a telephone line.
    pub outputs_to_phone: u32,
    /// Bitmask of sample encodings (by wire value) this device accepts in
    /// audio contexts — the paper's intended evolution of the single
    /// sample-type attribute into "a prioritized list" served by
    /// per-encoding conversion modules (§5.4).
    pub supported_types: u32,
}

impl DeviceDesc {
    /// Encoded size in bytes.
    pub const WIRE_SIZE: usize = 36;

    /// Whether `encoding` may be used in an audio context on this device.
    pub fn supports(&self, encoding: Encoding) -> bool {
        self.supported_types & (1 << encoding.to_wire()) != 0
    }

    /// The supported-encodings mask covering every convertible encoding.
    pub fn all_convertible_types() -> u32 {
        Encoding::ALL
            .iter()
            .filter(|e| e.is_convertible())
            .fold(0, |m, e| m | (1 << e.to_wire()))
    }

    /// Whether any connector of this device touches a telephone line.
    pub fn is_telephone(&self) -> bool {
        self.inputs_from_phone != 0 || self.outputs_to_phone != 0
    }

    /// Bytes per frame (one sample across all channels) for playback.
    pub fn play_frame_bytes(&self) -> usize {
        self.play_buf_type.bytes_for_samples(1) * self.play_nchannels as usize
    }

    /// Bytes per frame for recording.
    pub fn rec_frame_bytes(&self) -> usize {
        self.rec_buf_type.bytes_for_samples(1) * self.rec_nchannels as usize
    }

    fn encode_into(&self, w: &mut WireWriter) {
        w.u8(self.index).u8(self.kind as u8).pad(2);
        w.u32(self.play_sample_freq).u32(self.rec_sample_freq);
        w.u8(self.play_buf_type.to_wire())
            .u8(self.rec_buf_type.to_wire())
            .u8(self.play_nchannels)
            .u8(self.rec_nchannels);
        w.u32(self.play_nsamples_buf).u32(self.rec_nsamples_buf);
        w.u8(self.number_of_inputs)
            .u8(self.number_of_outputs)
            .pad(2);
        w.u32(self.inputs_from_phone).u32(self.outputs_to_phone);
        w.u32(self.supported_types);
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<DeviceDesc, ProtoError> {
        let index = r.u8()?;
        let kind = DeviceKind::from_wire(r.u8()?)?;
        r.skip(2)?;
        let play_sample_freq = r.u32()?;
        let rec_sample_freq = r.u32()?;
        let play_buf_type = Encoding::from_wire(r.u8()?).ok_or(ProtoError::BadEnum {
            field: "play encoding",
            value: 0,
        })?;
        let rec_buf_type = Encoding::from_wire(r.u8()?).ok_or(ProtoError::BadEnum {
            field: "rec encoding",
            value: 0,
        })?;
        let play_nchannels = r.u8()?;
        let rec_nchannels = r.u8()?;
        let play_nsamples_buf = r.u32()?;
        let rec_nsamples_buf = r.u32()?;
        let number_of_inputs = r.u8()?;
        let number_of_outputs = r.u8()?;
        r.skip(2)?;
        let inputs_from_phone = r.u32()?;
        let outputs_to_phone = r.u32()?;
        let supported_types = r.u32()?;
        Ok(DeviceDesc {
            index,
            kind,
            play_sample_freq,
            rec_sample_freq,
            play_buf_type,
            rec_buf_type,
            play_nchannels,
            rec_nchannels,
            play_nsamples_buf,
            rec_nsamples_buf,
            number_of_inputs,
            number_of_outputs,
            inputs_from_phone,
            outputs_to_phone,
            supported_types,
        })
    }
}

/// The server's answer to connection setup.
#[derive(Clone, Debug, PartialEq)]
pub enum SetupReply {
    /// Refused, with a reason.
    Failed {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Accepted.
    Success {
        /// Server protocol major version.
        major: u16,
        /// Server protocol minor version.
        minor: u16,
        /// Server vendor string.
        vendor: String,
        /// The abstract audio devices this server exports.
        devices: Vec<DeviceDesc>,
    },
}

impl SetupReply {
    /// Encodes the reply in the connection's byte order; `BadLength` for
    /// more devices than its 8-bit count says, or a string longer than its
    /// 16-bit one.
    pub fn encode(&self, order: ByteOrder) -> Result<Vec<u8>, ProtoError> {
        let mut w = WireWriter::new(order);
        match self {
            SetupReply::Failed { reason } => {
                count::<u16>(reason.len())?;
                w.u8(SetupStatus::Failed as u8).pad(3);
                w.string(reason);
            }
            SetupReply::Success {
                major,
                minor,
                vendor,
                devices,
            } => {
                let ndev = count::<u8>(devices.len())?;
                count::<u16>(vendor.len())?;
                w.u8(SetupStatus::Success as u8).pad(1);
                w.u16(*major);
                w.u16(*minor);
                w.u8(ndev).pad(1);
                w.string(vendor);
                for d in devices {
                    d.encode_into(&mut w);
                }
            }
        }
        // Prefix with total length so the client can read the whole reply.
        let body = w.finish();
        let mut framed = WireWriter::with_capacity(order, body.len() + 4);
        framed.u32(body.len() as u32);
        framed.bytes(&body);
        Ok(framed.finish())
    }

    /// Decodes a reply body (after the 4-byte length prefix was consumed).
    pub fn decode(order: ByteOrder, body: &[u8]) -> Result<SetupReply, ProtoError> {
        let mut r = WireReader::new(order, body);
        let status = r.u8()?;
        match status {
            0 => {
                r.skip(3)?;
                let reason = r.string()?;
                Ok(SetupReply::Failed { reason })
            }
            1 => {
                r.skip(1)?;
                let major = r.u16()?;
                let minor = r.u16()?;
                let ndev = r.u8()? as usize;
                r.skip(1)?;
                let vendor = r.string()?;
                let mut devices = Vec::with_capacity(ndev);
                for _ in 0..ndev {
                    devices.push(DeviceDesc::decode_from(&mut r)?);
                }
                Ok(SetupReply::Success {
                    major,
                    minor,
                    vendor,
                    devices,
                })
            }
            other => Err(ProtoError::BadEnum {
                field: "setup status",
                value: u32::from(other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::pad4;
    use proptest::prelude::*;

    fn sample_device(index: u8) -> DeviceDesc {
        DeviceDesc {
            index,
            kind: DeviceKind::Codec,
            play_sample_freq: 8000,
            rec_sample_freq: 8000,
            play_buf_type: Encoding::Mu255,
            rec_buf_type: Encoding::Mu255,
            play_nchannels: 1,
            rec_nchannels: 1,
            play_nsamples_buf: 32_000,
            rec_nsamples_buf: 32_000,
            number_of_inputs: 2,
            number_of_outputs: 2,
            inputs_from_phone: if index == 0 { 1 } else { 0 },
            outputs_to_phone: if index == 0 { 1 } else { 0 },
            supported_types: DeviceDesc::all_convertible_types(),
        }
    }

    #[test]
    fn setup_round_trip() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let setup = ConnSetup {
                byte_order: order,
                major: 2,
                minor: 2,
                auth_name: "MIT-MAGIC-COOKIE-1".into(),
                auth_data: vec![1, 2, 3, 4, 5],
            };
            let bytes = setup.encode().unwrap();
            assert_eq!(bytes.len() % 4, 0);
            assert_eq!(ConnSetup::decode(&bytes).unwrap(), setup);
        }
    }

    #[test]
    fn setup_reply_success_round_trip() {
        let reply = SetupReply::Success {
            major: 2,
            minor: 2,
            vendor: "audiofile-rs".into(),
            devices: vec![sample_device(0), sample_device(1)],
        };
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let bytes = reply.encode(order).unwrap();
            let mut r = WireReader::new(order, &bytes);
            let len = r.u32().unwrap() as usize;
            assert_eq!(len, bytes.len() - 4);
            let back = SetupReply::decode(order, &bytes[4..]).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn setup_reply_failure_round_trip() {
        let reply = SetupReply::Failed {
            reason: "access denied".into(),
        };
        let bytes = reply.encode(ByteOrder::Little).unwrap();
        let back = SetupReply::decode(ByteOrder::Little, &bytes[4..]).unwrap();
        assert_eq!(back, reply);
    }

    /// A count its field cannot hold is refused, not wrapped: a 70,000-byte
    /// name once went out as a 4,464-byte one followed by its own bytes.
    #[test]
    fn counts_too_long_for_their_fields_are_refused() {
        let name = ConnSetup {
            auth_name: "n".repeat(70_000),
            ..ConnSetup::new()
        };
        assert_eq!(name.encode(), Err(ProtoError::BadLength(70_000)));
        let data = ConnSetup {
            auth_data: vec![0; 65_536],
            ..ConnSetup::new()
        };
        assert_eq!(data.encode(), Err(ProtoError::BadLength(65_536)));
        let fits = ConnSetup {
            auth_data: vec![0; 65_535],
            ..ConnSetup::new()
        };
        assert_eq!(ConnSetup::decode(&fits.encode().unwrap()), Ok(fits));

        let success = |devices: usize, vendor: usize| SetupReply::Success {
            major: 2,
            minor: 2,
            vendor: "v".repeat(vendor),
            devices: vec![sample_device(1); devices],
        };
        let order = ByteOrder::Little;
        let too_long =
            |r: SetupReply, n| assert_eq!(r.encode(order), Err(ProtoError::BadLength(n)));
        too_long(success(256, 0), 256);
        too_long(success(0, 65_536), 65_536);
        too_long(
            SetupReply::Failed {
                reason: "r".repeat(65_536),
            },
            65_536,
        );
        let most = success(255, 65_535);
        let bytes = most.encode(order).unwrap();
        assert_eq!(SetupReply::decode(order, &bytes[4..]), Ok(most));
    }

    /// Every mutation of `codec.rs`'s `lying_*` props, for a message whose
    /// field ends are `bounds` and whose counts are `(offset, width,
    /// value)`: a cut at every field end, each count at 0, one past its
    /// value and its width's maximum, and the other byte order (`None`).
    fn lies(
        order: ByteOrder,
        bytes: &[u8],
        bounds: &[usize],
        counts: &[(usize, usize, usize)],
    ) -> Vec<(Option<ByteOrder>, Vec<u8>)> {
        let cuts = [0].iter().chain(bounds).filter(|&&b| b < bytes.len());
        let mut out: Vec<_> = cuts.map(|&b| (Some(order), bytes[..b].to_vec())).collect();
        for &(at, width, value) in counts {
            for n in [0, value as u64 + 1, (1 << (8 * width)) - 1] {
                let mut lie = bytes.to_vec();
                lie[at..at + width].copy_from_slice(&match order {
                    ByteOrder::Little => n.to_le_bytes()[..width].to_vec(),
                    ByteOrder::Big => n.to_be_bytes()[8 - width..].to_vec(),
                });
                out.push((Some(order), lie));
            }
        }
        out.push((None, bytes.to_vec()));
        out
    }

    fn the_other(order: ByteOrder) -> ByteOrder {
        match order {
            ByteOrder::Little => ByteOrder::Big,
            ByteOrder::Big => ByteOrder::Little,
        }
    }

    /// An error of the sorts setup decoding raises.
    fn setup_error(e: &ProtoError) -> bool {
        use ProtoError::*;
        matches!(
            e,
            Truncated { .. } | BadLength(_) | BadEnum { .. } | BadString | BadByteOrderMarker(_)
        )
    }

    fn orders() -> impl Strategy<Value = ByteOrder> {
        prop_oneof![Just(ByteOrder::Little), Just(ByteOrder::Big)]
    }

    /// Text up to 600 bytes: counts past a 16-bit count's low byte.
    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(97u8..123, 0..600).prop_map(|v| String::from_utf8(v).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

        #[test]
        fn lying_conn_setups_decode_to_errors_or_fitting_setups(
            order in orders(),
            auth_name in text(),
            auth_data in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            let setup = ConnSetup { byte_order: order, auth_name, auth_data, ..ConnSetup::new() };
            let bytes = setup.encode().unwrap();
            let (n, d) = (setup.auth_name.len(), setup.auth_data.len());
            let data_at = pad4(12 + n);
            let bounds = [1, 2, 4, 6, 8, 10, 12, 12 + n, data_at, data_at + d];
            for (lied, mut input) in lies(order, &bytes, &bounds, &[(6, 2, n), (8, 2, d)]) {
                if lied.is_none() {
                    input[0] = the_other(order).marker(); // The order is the message's own.
                }
                match ConnSetup::decode(&input) {
                    Ok(s) => {
                        prop_assert!(12 + s.auth_name.len() + s.auth_data.len() <= input.len());
                    }
                    Err(e) => prop_assert!(setup_error(&e), "{e:?}"),
                }
            }
        }

        #[test]
        fn lying_setup_replies_decode_to_errors_or_fitting_replies(
            order in orders(),
            failed in any::<bool>(),
            text in text(),
            ndev in 0u8..6,
        ) {
            let (reply, bounds, counts) = if failed {
                let len = text.len();
                (SetupReply::Failed { reason: text }, vec![1, 4, 6, 6 + len], vec![(4, 2, len)])
            } else {
                let devices_at = pad4(10 + text.len());
                let mut bounds = vec![1, 2, 4, 6, 7, 8, 10, 10 + text.len(), devices_at];
                bounds.extend((1..=ndev as usize).map(|i| devices_at + i * DeviceDesc::WIRE_SIZE));
                let counts = vec![(6, 1, ndev as usize), (8, 2, text.len())];
                let devices = (0..ndev).map(sample_device).collect();
                (SetupReply::Success { major: 2, minor: 2, vendor: text, devices }, bounds, counts)
            };
            let framed = reply.encode(order).unwrap();
            for (lied, input) in lies(order, &framed[4..], &bounds, &counts) {
                let fits = match SetupReply::decode(lied.unwrap_or(the_other(order)), &input) {
                    Ok(SetupReply::Failed { reason }) => 4 + reason.len(),
                    Ok(SetupReply::Success { vendor, devices, .. }) => {
                        8 + vendor.len() + devices.len() * DeviceDesc::WIRE_SIZE
                    }
                    Err(e) => {
                        prop_assert!(setup_error(&e), "{e:?}");
                        0
                    }
                };
                prop_assert!(fits <= input.len(), "{fits} bytes of fields from {}", input.len());
            }
        }
    }

    #[test]
    fn telephone_detection() {
        assert!(sample_device(0).is_telephone());
        assert!(!sample_device(1).is_telephone());
    }

    #[test]
    fn frame_sizes() {
        let mut d = sample_device(1);
        assert_eq!(d.play_frame_bytes(), 1);
        d.play_buf_type = Encoding::Lin16;
        d.play_nchannels = 2;
        assert_eq!(d.play_frame_bytes(), 4);
    }

    #[test]
    fn garbage_setup_rejected() {
        assert!(ConnSetup::decode(&[0x42]).is_err()); // Truncated.
        let mut bytes = ConnSetup::new().encode().unwrap();
        bytes[0] = b'x';
        assert!(ConnSetup::decode(&bytes).is_err());
    }
}
