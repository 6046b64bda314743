//! Conversion between sample encodings.
//!
//! The server's conversion modules (§2.2–2.3) translate between the data
//! type a client uses and the data type the audio hardware supports.  All
//! conversions go through 16-bit linear, the richest fully-supported common
//! domain; LIN32 keeps its full width on pass-through and scales through the
//! top 16 bits otherwise.
//!
//! Multi-byte linear formats are little-endian in buffers; the protocol layer
//! byte-swaps on the wire when client and server disagree (§7.3.1), so by the
//! time data reaches these kernels it is in native buffer order.

use crate::{adpcm, kernels, sample, tables, Encoding};

/// Error converting between encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvertError {
    /// The source or destination encoding has no conversion support.
    Unsupported(Encoding),
    /// Input length is not a whole number of units for its encoding.
    PartialSample,
}

impl core::fmt::Display for ConvertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConvertError::Unsupported(e) => write!(f, "encoding {e} is not convertible"),
            ConvertError::PartialSample => write!(f, "buffer holds a partial sample"),
        }
    }
}

impl std::error::Error for ConvertError {}

/// Decodes raw bytes of `encoding` into 16-bit linear samples, appending to
/// `out` (cleared first) so a caller-owned scratch buffer can be reused
/// across blocks.
///
/// For ADPCM the caller supplies (and the function updates) codec state so
/// that a continuous stream can be converted block by block.
pub fn decode_to_lin16_into(
    encoding: Encoding,
    data: &[u8],
    adpcm_state: &mut adpcm::AdpcmState,
    out: &mut Vec<i16>,
) -> Result<(), ConvertError> {
    out.clear();
    match encoding {
        Encoding::Mu255 => {
            out.resize(data.len(), 0);
            (kernels::active().decode_ulaw)(data, out.as_mut_slice());
        }
        Encoding::Alaw => {
            out.resize(data.len(), 0);
            (kernels::active().decode_alaw)(data, out.as_mut_slice());
        }
        Encoding::Lin16 => {
            if !data.len().is_multiple_of(2) {
                return Err(ConvertError::PartialSample);
            }
            out.extend(
                data.chunks_exact(2)
                    .map(|c| i16::from_le_bytes([c[0], c[1]])),
            );
        }
        Encoding::Lin32 => {
            if !data.len().is_multiple_of(4) {
                return Err(ConvertError::PartialSample);
            }
            out.extend(
                data.chunks_exact(4)
                    .map(|c| (i32::from_le_bytes([c[0], c[1], c[2], c[3]]) >> 16) as i16),
            );
        }
        Encoding::Adpcm32 => out.extend(adpcm::decode(adpcm_state, data, data.len() * 2)),
        other => return Err(ConvertError::Unsupported(other)),
    }
    Ok(())
}

/// Encodes 16-bit linear samples into raw bytes of `encoding`, appending to
/// `out` (cleared first).
pub fn encode_from_lin16_into(
    encoding: Encoding,
    pcm: &[i16],
    adpcm_state: &mut adpcm::AdpcmState,
    out: &mut Vec<u8>,
) -> Result<(), ConvertError> {
    out.clear();
    match encoding {
        Encoding::Mu255 | Encoding::Alaw => encode_companded(encoding, pcm.iter().copied(), out),
        Encoding::Lin16 => {
            out.resize(pcm.len() * 2, 0);
            for (c, s) in out.chunks_exact_mut(2).zip(pcm) {
                c.copy_from_slice(&s.to_le_bytes());
            }
        }
        Encoding::Lin32 => {
            out.resize(pcm.len() * 4, 0);
            for (c, s) in out.chunks_exact_mut(4).zip(pcm) {
                c.copy_from_slice(&(i32::from(*s) << 16).to_le_bytes());
            }
        }
        Encoding::Adpcm32 => out.extend(adpcm::encode(adpcm_state, pcm)),
        other => return Err(ConvertError::Unsupported(other)),
    }
    Ok(())
}

/// Appends the µ-law or A-law bytes of `pcm` to `out`: one lookup per
/// sample in the 16 K compression table (`tables::comp_u`/`comp_a`).
fn encode_companded(to: Encoding, pcm: impl Iterator<Item = i16>, out: &mut Vec<u8>) {
    let t = if to == Encoding::Mu255 {
        tables::comp_u()
    } else {
        tables::comp_a()
    };
    out.extend(pcm.map(|s| t[tables::comp_index(s)]));
}

/// A stateful converter from one encoding to another.
///
/// This is the Rust shape of the server's per-AC conversion module: created
/// when an audio context binds a client data type to a device data type,
/// then fed blocks in order.  Identity conversions are pass-through.
pub struct Converter {
    from: Encoding,
    to: Encoding,
    decode_state: adpcm::AdpcmState,
    encode_state: adpcm::AdpcmState,
    /// Linear staging buffer reused across blocks ([`Converter::convert_into`]).
    scratch: Vec<i16>,
}

impl Converter {
    /// Creates a converter, checking both encodings are supported.
    pub fn new(from: Encoding, to: Encoding) -> Result<Converter, ConvertError> {
        for e in [from, to] {
            if !e.is_convertible() {
                return Err(ConvertError::Unsupported(e));
            }
        }
        Ok(Converter {
            from,
            to,
            decode_state: adpcm::AdpcmState::new(),
            encode_state: adpcm::AdpcmState::new(),
            // af-analyze: allow(alloc): empty Vec::new is allocation-free; scratch grows once on first use, then is reused
            scratch: Vec::new(),
        })
    }

    /// Whether this conversion is the identity.
    pub fn is_identity(&self) -> bool {
        self.from == self.to
    }

    /// Source encoding.
    pub fn from_encoding(&self) -> Encoding {
        self.from
    }

    /// Destination encoding.
    pub fn to_encoding(&self) -> Encoding {
        self.to
    }

    /// Converts one block of raw bytes into `out` (cleared first).
    ///
    /// The encoding pair alone picks the strategy: identity copies,
    /// companded↔companded goes through a 256-entry table, LIN16 bytes
    /// index the 16 K compression table directly, and companded bytes
    /// decode straight into the output's LIN16 view.  Everything else —
    /// and that last path on storage the view refuses — stages through
    /// a scratch buffer owned by the converter, so a steady stream of
    /// equal-sized blocks converts without allocating.
    pub fn convert_into(&mut self, data: &[u8], out: &mut Vec<u8>) -> Result<(), ConvertError> {
        match (self.from, self.to) {
            (from, to) if from == to => {
                out.clear();
                out.extend_from_slice(data);
            }
            (Encoding::Mu255, Encoding::Alaw) | (Encoding::Alaw, Encoding::Mu255) => {
                let t = if self.from == Encoding::Mu255 {
                    tables::cvt_u2a()
                } else {
                    tables::cvt_a2u()
                };
                out.clear();
                out.extend(data.iter().map(|&b| t[b as usize]));
            }
            (Encoding::Lin16, to @ (Encoding::Mu255 | Encoding::Alaw)) => {
                if !data.len().is_multiple_of(2) {
                    return Err(ConvertError::PartialSample);
                }
                let pcm = data
                    .chunks_exact(2)
                    .map(|c| i16::from_le_bytes([c[0], c[1]]));
                out.clear();
                encode_companded(to, pcm, out);
            }
            (from @ (Encoding::Mu255 | Encoding::Alaw), Encoding::Lin16) => {
                // Every byte is overwritten: a steady block size resizes
                // nothing.
                out.resize(data.len() * 2, 0);
                let Some(view) = sample::as_lin16_mut(out) else {
                    return self.convert_staged(data, out);
                };
                let k = kernels::active();
                let decode = if from == Encoding::Mu255 {
                    k.decode_ulaw
                } else {
                    k.decode_alaw
                };
                decode(data, view);
            }
            _ => return self.convert_staged(data, out),
        }
        Ok(())
    }

    /// Decodes into the scratch buffer, then encodes out of it.
    fn convert_staged(&mut self, data: &[u8], out: &mut Vec<u8>) -> Result<(), ConvertError> {
        let mut pcm = std::mem::take(&mut self.scratch);
        let decoded = decode_to_lin16_into(self.from, data, &mut self.decode_state, &mut pcm);
        let result = decoded
            .and_then(|()| encode_from_lin16_into(self.to, &pcm, &mut self.encode_state, out));
        self.scratch = pcm;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pcm` encoded as `encoding`, and those bytes decoded back.
    fn round_trip(encoding: Encoding, pcm: &[i16]) -> (Vec<u8>, Vec<i16>) {
        let mut st = adpcm::AdpcmState::new();
        let (mut bytes, mut back) = (Vec::new(), Vec::new());
        encode_from_lin16_into(encoding, pcm, &mut st, &mut bytes).unwrap();
        decode_to_lin16_into(encoding, &bytes, &mut st, &mut back).unwrap();
        (bytes, back)
    }

    fn decode(encoding: Encoding, data: &[u8]) -> Result<(), ConvertError> {
        let mut st = adpcm::AdpcmState::new();
        decode_to_lin16_into(encoding, data, &mut st, &mut Vec::new())
    }

    fn convert(c: &mut Converter, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        c.convert_into(data, &mut out).unwrap();
        out
    }

    fn ramp() -> Vec<i16> {
        (-100..100).map(|i| i * 300).collect()
    }

    #[test]
    fn lin16_round_trip_exact() {
        let pcm = ramp();
        assert_eq!(round_trip(Encoding::Lin16, &pcm).1, pcm);
    }

    #[test]
    fn lin32_round_trip_exact_through_top_bits() {
        let pcm = ramp();
        let (bytes, back) = round_trip(Encoding::Lin32, &pcm);
        assert_eq!(bytes.len(), pcm.len() * 4);
        assert_eq!(pcm, back);
    }

    #[test]
    fn ulaw_round_trip_within_quantization() {
        let pcm = ramp();
        for (a, b) in pcm.iter().zip(&round_trip(Encoding::Mu255, &pcm).1) {
            assert!((i32::from(*a) - i32::from(*b)).abs() <= 512);
        }
    }

    #[test]
    fn encodes_every_sample_exactly() {
        // All 65536 inputs through the 16 K table loop, against the
        // comp-table path (the seed's semantics, with its 14-bit
        // quantization).
        let pcm: Vec<i16> = (i16::MIN..=i16::MAX).collect();
        let mut out = Vec::new();
        encode_companded(Encoding::Mu255, pcm.iter().copied(), &mut out);
        for (&s, &b) in pcm.iter().zip(&out) {
            assert_eq!(b, tables::ulaw_encode_fast(s), "ulaw {s}");
        }
        out.clear();
        encode_companded(Encoding::Alaw, pcm.iter().copied(), &mut out);
        for (&s, &b) in pcm.iter().zip(&out) {
            assert_eq!(b, tables::alaw_encode_fast(s), "alaw {s}");
        }
    }

    #[test]
    fn partial_sample_rejected() {
        let partial = Err(ConvertError::PartialSample);
        assert_eq!(decode(Encoding::Lin16, &[1, 2, 3]), partial);
        assert_eq!(decode(Encoding::Lin32, &[1, 2, 3, 4, 5]), partial);
    }

    #[test]
    fn unsupported_encodings_rejected() {
        assert!(Converter::new(Encoding::Celp1016, Encoding::Lin16).is_err());
        assert!(Converter::new(Encoding::Lin16, Encoding::Adpcm24).is_err());
        assert_eq!(
            decode(Encoding::Celp1015, &[0u8; 7]),
            Err(ConvertError::Unsupported(Encoding::Celp1015))
        );
    }

    #[test]
    fn converter_identity_passthrough() {
        let mut c = Converter::new(Encoding::Mu255, Encoding::Mu255).unwrap();
        assert!(c.is_identity());
        let data = vec![1u8, 2, 3, 0xFF];
        assert_eq!(convert(&mut c, &data), data);
    }

    #[test]
    fn converter_ulaw_to_lin16() {
        let mut c = Converter::new(Encoding::Mu255, Encoding::Lin16).unwrap();
        let out = convert(&mut c, &[g711::linear_to_ulaw(1000)]);
        let v = i16::from_le_bytes([out[0], out[1]]);
        assert!((i32::from(v) - 1000).abs() <= 40);
    }

    #[test]
    fn converter_companded_cross_uses_tables() {
        let mut c = Converter::new(Encoding::Mu255, Encoding::Alaw).unwrap();
        let u = g711::linear_to_ulaw(-4_000);
        let out = convert(&mut c, &[u]);
        assert_eq!(out[0], tables::cvt_u2a()[u as usize]);
    }

    #[test]
    fn converter_adpcm_is_stateful_across_blocks() {
        let pcm: Vec<i16> = (0..400)
            .map(|i| (8_000.0 * (std::f64::consts::TAU * 440.0 * i as f64 / 8000.0).sin()) as i16)
            .collect();
        let (bytes, _) = round_trip(Encoding::Lin16, &pcm);

        let mut c = Converter::new(Encoding::Lin16, Encoding::Adpcm32).unwrap();
        let mut stream = Vec::new();
        for chunk in bytes.chunks(64) {
            stream.extend(convert(&mut c, chunk));
        }
        // Compare against a single-shot encode.
        let mut st2 = adpcm::AdpcmState::new();
        let batch = adpcm::encode(&mut st2, &pcm);
        assert_eq!(stream, batch);
    }

    use crate::g711;
}
