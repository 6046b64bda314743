//! Saturating sample mixing.
//!
//! The AudioFile server mixes output data from multiple clients by default
//! (§7.2); these are the kernels it uses.  Companded formats mix through the
//! 64 KiB lookup tables of [`crate::tables`]; linear formats mix with
//! saturating adds.

use crate::{kernels, tables};

/// Mixes `src` into `dst` (µ-law), saturating in the linear domain.
pub fn mix_ulaw(dst: &mut [u8], src: &[u8]) {
    let t = tables::mix_u();
    for (d, s) in dst.iter_mut().zip(src) {
        *d = t.mix(*d, *s);
    }
}

/// Mixes `src` into `dst` (A-law), saturating in the linear domain.
pub fn mix_alaw(dst: &mut [u8], src: &[u8]) {
    let t = tables::mix_a();
    for (d, s) in dst.iter_mut().zip(src) {
        *d = t.mix(*d, *s);
    }
}

/// Mixes raw little-endian sample bytes of the given encoding.
///
/// This is the server's generic mixing entry point for its native buffer
/// format.  It mixes the whole samples both buffers hold — `min(dst, src)`
/// truncated to a sample boundary — and leaves any trailing bytes of `dst`
/// untouched, so a malformed client length cannot abort the server's update
/// task.  LIN16 goes through the runtime-selected kernel vtable
/// ([`crate::kernels`]); LIN32 is one saturating loop over the bytes.
///
/// # Panics
///
/// Panics if the encoding is not one of MU255, ALAW, LIN16, LIN32.
pub fn mix_bytes(encoding: crate::Encoding, dst: &mut [u8], src: &[u8]) {
    use crate::Encoding;
    let unit = match encoding {
        Encoding::Mu255 | Encoding::Alaw => 1,
        Encoding::Lin16 => 2,
        Encoding::Lin32 => 4,
        other => panic!("mixing unsupported for encoding {other}"),
    };
    let len = dst.len().min(src.len()) / unit * unit;
    let (dst, src) = (&mut dst[..len], &src[..len]);
    match encoding {
        Encoding::Mu255 => mix_ulaw(dst, src),
        Encoding::Alaw => mix_alaw(dst, src),
        Encoding::Lin16 => (kernels::active().mix_lin16_le)(dst, src),
        Encoding::Lin32 => {
            for (d, s) in dst.chunks_exact_mut(4).zip(src.chunks_exact(4)) {
                let a = i32::from_le_bytes([d[0], d[1], d[2], d[3]]);
                let b = i32::from_le_bytes([s[0], s[1], s[2], s[3]]);
                d.copy_from_slice(&a.saturating_add(b).to_le_bytes());
            }
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g711;

    #[test]
    fn ulaw_mix_approximates_linear_addition() {
        let a = g711::linear_to_ulaw(5_000);
        let b = g711::linear_to_ulaw(3_000);
        let mut dst = vec![a];
        mix_ulaw(&mut dst, &[b]);
        let got = i32::from(g711::ulaw_to_linear(dst[0]));
        assert!((got - 8_000).abs() <= 600, "got {got}");
    }

    #[test]
    fn mix_bytes_lin16_little_endian() {
        let bytes = |v: [i16; 3]| -> Vec<u8> { v.iter().flat_map(|s| s.to_le_bytes()).collect() };
        let mut dst = bytes([1000, 30_000, -30_000]);
        let src = bytes([234, 10_000, -10_000]);
        mix_bytes(crate::Encoding::Lin16, &mut dst, &src);
        assert_eq!(dst, bytes([1234, 32_767, -32_768])); // The last two saturate.
    }

    #[test]
    fn mix_bytes_lin32() {
        let mut dst = 70_000i32.to_le_bytes().to_vec();
        let src = (-100_000i32).to_le_bytes().to_vec();
        mix_bytes(crate::Encoding::Lin32, &mut dst, &src);
        assert_eq!(i32::from_le_bytes(dst.try_into().unwrap()), -30_000);
    }

    #[test]
    fn mix_bytes_truncates_length_mismatch() {
        let a = g711::linear_to_ulaw(5_000);
        let b = g711::linear_to_ulaw(3_000);
        let mut dst = vec![a, a];
        // Longer source: only the common prefix is mixed.
        mix_bytes(crate::Encoding::Mu255, &mut dst, &[b, b, b]);
        assert_eq!(dst[0], dst[1]);
        assert!(i32::from(g711::ulaw_to_linear(dst[0])) > 6_000);
    }

    #[test]
    fn mix_bytes_ignores_trailing_partial_sample() {
        let mut dst = Vec::new();
        dst.extend_from_slice(&1000i16.to_le_bytes());
        dst.push(0x7A); // Trailing partial sample: must survive untouched.
        let mut src = Vec::new();
        src.extend_from_slice(&234i16.to_le_bytes());
        src.push(0x01);
        mix_bytes(crate::Encoding::Lin16, &mut dst, &src);
        assert_eq!(i16::from_le_bytes([dst[0], dst[1]]), 1234);
        assert_eq!(dst[2], 0x7A);
    }

    #[test]
    fn mix_bytes_matches_scalar_reference() {
        for encoding in [
            crate::Encoding::Mu255,
            crate::Encoding::Alaw,
            crate::Encoding::Lin16,
            crate::Encoding::Lin32,
        ] {
            let unit = encoding.bytes_for_samples(1);
            let n = 64 * unit;
            let dst: Vec<u8> = (0..n).map(|i| (i * 7 + 13) as u8).collect();
            let src: Vec<u8> = (0..n).map(|i| (i * 31 + 5) as u8).collect();
            let mut batched = dst.clone();
            mix_bytes(encoding, &mut batched, &src);
            let mut scalar = dst;
            crate::reference::mix_bytes_scalar(encoding, &mut scalar, &src);
            assert_eq!(batched, scalar, "encoding {encoding}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn mix_bytes_rejects_compressed() {
        let mut dst = vec![0u8; 2];
        mix_bytes(crate::Encoding::Adpcm32, &mut dst, &[0u8; 2]);
    }
}
