//! The one byte→sample slice view left in the crate.
//!
//! Sample data lives in byte buffers (wire payloads, device rings) in
//! little-endian order (§7.3.1), and every linear kernel is one loop over
//! those bytes: LLVM compiles `i16::from_le_bytes` pairs to the code a
//! typed slice gets.  The exception is decoding companded bytes into a LIN16
//! output (`Converter::convert_into`): the decode kernels write `&mut
//! [i16]`, and handing them the output bytes in place measured faster than
//! decoding into a staging buffer and copying it out.  [`as_lin16_mut`]
//! gives that view when it is sound — little-endian target, aligned
//! pointer, whole samples — and `None` otherwise, so the caller stages.

// This module is the crate's audited slice-reinterpretation boundary: one
// `align_to_mut` view, guarded by the endianness/alignment/length checks
// its SAFETY comment names.
#![expect(unsafe_code)]

/// Views a byte slice as mutable 16-bit samples, or `None` if the bytes are
/// misaligned, a partial sample, or the target is big-endian.
#[inline]
pub fn as_lin16_mut(bytes: &mut [u8]) -> Option<&mut [i16]> {
    if !cfg!(target_endian = "little") {
        return None;
    }
    // SAFETY: i16 has no invalid bit patterns and a weaker alignment
    // requirement is checked by align_to_mut; head/tail non-empty means
    // the slice was unaligned or held a partial sample.  Any i16 bit
    // pattern is also a valid pair of bytes, so writes through the view
    // are well-defined.
    let (head, samples, tail) = unsafe { bytes.align_to_mut::<i16>() };
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
        let view = as_lin16_mut(&mut bytes).expect("vec data is aligned");
        assert_eq!(view, &[-1, 1000, i16::MIN, i16::MAX]);
        view[0] = 77;
        assert_eq!(i16::from_le_bytes([bytes[0], bytes[1]]), 77);
    }

    #[test]
    fn unaligned_or_partial_slice_refused() {
        let mut bytes = [0u8; 8];
        // The first odd address in the buffer starts a misaligned view.
        let odd = usize::from((bytes.as_ptr() as usize).is_multiple_of(2));
        assert!(as_lin16_mut(&mut bytes[odd..odd + 2]).is_none());
        assert!(as_lin16_mut(&mut bytes[1 - odd..4 - odd]).is_none());
        assert!(as_lin16_mut(&mut bytes[1 - odd..3 - odd]).is_some());
    }
}
