//! Byte↔sample slice reinterpretation for the batched kernels.
//!
//! Sample data lives in byte buffers (wire payloads, device rings) but the
//! linear kernels want `&[i16]`/`&[i32]` so the compiler can vectorize the
//! whole slice.  The viewers here reinterpret a byte slice in place when
//! that is sound — little-endian target, aligned pointer, whole samples —
//! and return `None` otherwise so callers can fall back to a scalar loop.
//! Buffer sample order is defined as little-endian (§7.3.1), which on a
//! big-endian target never matches native order, so the view is refused
//! there outright.

// This module is the crate's audited slice-reinterpretation boundary —
// four `align_to` views, each guarded by the endianness/alignment/length
// checks documented in the SAFETY comments below.
#![expect(unsafe_code)]

/// Views a byte slice as 16-bit samples, or `None` if the bytes are
/// misaligned, a partial sample, or the target is big-endian.
#[inline]
pub fn as_lin16(bytes: &[u8]) -> Option<&[i16]> {
    if !cfg!(target_endian = "little") {
        return None;
    }
    // SAFETY: i16 has no invalid bit patterns and a weaker alignment
    // requirement is checked by align_to; head/tail non-empty means the
    // slice was unaligned or held a partial sample.
    let (head, samples, tail) = unsafe { bytes.align_to::<i16>() };
    (head.is_empty() && tail.is_empty()).then_some(samples)
}

/// Mutable 16-bit view of a byte slice (same conditions as [`as_lin16`]).
#[inline]
pub fn as_lin16_mut(bytes: &mut [u8]) -> Option<&mut [i16]> {
    if !cfg!(target_endian = "little") {
        return None;
    }
    // SAFETY: as in `as_lin16`; any i16 bit pattern is also a valid pair of
    // bytes, so writes through the view are well-defined.
    let (head, samples, tail) = unsafe { bytes.align_to_mut::<i16>() };
    (head.is_empty() && tail.is_empty()).then_some(samples)
}

/// Views a byte slice as 32-bit samples, or `None` if the bytes are
/// misaligned, a partial sample, or the target is big-endian.
#[inline]
pub fn as_lin32(bytes: &[u8]) -> Option<&[i32]> {
    if !cfg!(target_endian = "little") {
        return None;
    }
    // SAFETY: as in `as_lin16`.
    let (head, samples, tail) = unsafe { bytes.align_to::<i32>() };
    (head.is_empty() && tail.is_empty()).then_some(samples)
}

/// Mutable 32-bit view of a byte slice (same conditions as [`as_lin32`]).
#[inline]
pub fn as_lin32_mut(bytes: &mut [u8]) -> Option<&mut [i32]> {
    if !cfg!(target_endian = "little") {
        return None;
    }
    // SAFETY: as in `as_lin16_mut`.
    let (head, samples, tail) = unsafe { bytes.align_to_mut::<i32>() };
    (head.is_empty() && tail.is_empty()).then_some(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lin16_view_round_trips() {
        let mut bytes = Vec::new();
        for s in [-1i16, 1000, i16::MIN, i16::MAX] {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        let view = as_lin16(&bytes).expect("vec data is aligned");
        assert_eq!(view, &[-1, 1000, i16::MIN, i16::MAX]);
        let view = as_lin16_mut(&mut bytes).unwrap();
        view[0] = 77;
        assert_eq!(i16::from_le_bytes([bytes[0], bytes[1]]), 77);
    }

    #[test]
    fn lin32_view_round_trips() {
        let mut bytes = Vec::new();
        for s in [123_456i32, -99, i32::MIN] {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        assert_eq!(as_lin32(&bytes).unwrap(), &[123_456, -99, i32::MIN]);
    }

    #[test]
    fn partial_sample_refused() {
        let bytes = [0u8; 3];
        assert!(as_lin16(&bytes).is_none());
        assert!(as_lin32(&bytes).is_none());
    }

    #[test]
    fn unaligned_slice_refused() {
        // A buffer with 16-byte-aligned storage: offsetting by one byte
        // guarantees a misaligned i16 view.
        let buf = [0u64; 4];
        // SAFETY: u8 has alignment 1 and no invalid bit patterns, so the
        // whole array is one byte view.
        let bytes: &[u8] = unsafe { buf.align_to::<u8>().1 };
        assert!(as_lin16(&bytes[1..3]).is_none());
        assert!(as_lin32(&bytes[1..5]).is_none());
        // The aligned prefix is fine.
        assert!(as_lin16(&bytes[..4]).is_some());
    }
}
