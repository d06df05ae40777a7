//! Varint / zig-zag wire primitives shared by the trace format and the
//! analyzer checkpoint format.

use std::io::{self, Read, Write};

/// Writes `v` as an LEB128 varint.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_varint<W: Write>(mut w: W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads an LEB128 varint.
///
/// # Errors
///
/// Returns `InvalidData` if the encoding overflows a `u64`, and propagates
/// I/O errors (including `UnexpectedEof` on truncation).
pub fn read_varint<R: Read>(mut r: R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`, advancing `*pos`
/// past the bytes consumed.
///
/// Slice-based twin of [`read_varint`] for the block decoder: same value
/// space and the same error contract, but no `Read` plumbing in the hot
/// loop.
///
/// # Errors
///
/// Returns `InvalidData` if the encoding overflows a `u64`, and
/// `UnexpectedEof` if the slice ends mid-varint.
#[inline]
pub fn read_varint_slice(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    // Fast path: the overwhelmingly common single-byte encoding.
    if let Some(&b) = buf.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "varint ends past the buffer",
            ));
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos` using SWAR bit
/// tricks: the next 8 bytes are loaded as one little-endian `u64`, the
/// terminator byte is located with `trailing_zeros` over the inverted
/// continuation bits, and the 7-bit payload lanes are compacted with three
/// shift-and-mask folds — no per-byte branch on the fast path.
///
/// A single-byte encoding returns at once. Falls back to
/// [`read_varint_slice`] when fewer than 8 bytes remain
/// (buffer tail) or no terminator appears within 8 bytes (9/10-byte
/// encodings, which need the scalar overflow check). Byte-for-byte
/// equivalent to `read_varint_slice` on every input, including
/// non-canonical encodings: same values, same errors, same cursor
/// positions.
///
/// # Errors
///
/// Returns `InvalidData` if the encoding overflows a `u64`, and
/// `UnexpectedEof` if the slice ends mid-varint.
#[inline]
pub fn read_varint_swar(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    const CONT: u64 = 0x8080_8080_8080_8080;
    const PAYLOAD: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let p = *pos;
    // Fast path: most record varints (sequential pc deltas above all)
    // are single-byte; skip the 8-byte load and the folds.
    if let Some(&b) = buf.get(p) {
        if b < 0x80 {
            *pos = p + 1;
            return Ok(u64::from(b));
        }
    }
    let Some(window) = buf.get(p..p + 8) else {
        // Under 8 bytes left: the scalar loop handles tails and truncation.
        return read_varint_slice(buf, pos);
    };
    // The bounds check above guarantees the conversion succeeds; the
    // fallible form keeps the hot path free of panicking branches.
    let word = match <[u8; 8]>::try_from(window) {
        Ok(bytes) => u64::from_le_bytes(bytes),
        Err(_) => return read_varint_slice(buf, pos),
    };
    let stops = !word & CONT;
    if stops == 0 {
        // All 8 continuation bits set: a 9- or 10-byte encoding (or garbage
        // that overflows). The scalar loop owns the overflow contract.
        return read_varint_slice(buf, pos);
    }
    // Byte index of the terminator; the encoding spans n = k + 1 bytes and
    // at most 7 * 8 = 56 payload bits, so overflow is impossible here.
    let k = stops.trailing_zeros() >> 3;
    let n = k as usize + 1;
    let kept = word & (u64::MAX >> ((8 - n) * 8));
    // Three folds halve the lane count each time: 8 lanes of 7 bits ->
    // 4 lanes of 14 -> 2 lanes of 28 -> one 56-bit value.
    let x = kept & PAYLOAD;
    let x = ((x & 0x7f00_7f00_7f00_7f00) >> 1) | (x & 0x007f_007f_007f_007f);
    let x = ((x & 0x3fff_0000_3fff_0000) >> 2) | (x & 0x0000_3fff_0000_3fff);
    let x = ((x & 0x0fff_ffff_0000_0000) >> 4) | (x & 0x0000_0000_0fff_ffff);
    *pos = p + n;
    Ok(x)
}

/// Maps a signed value to an unsigned one with small magnitudes first.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        let buf = [0xffu8; 11];
        assert!(read_varint(&buf[..]).is_err());
    }

    #[test]
    fn truncated_varint_reports_eof() {
        let buf = [0x80u8];
        let err = read_varint(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn slice_varint_matches_the_reader_on_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            let mut pos = 0;
            assert_eq!(read_varint_slice(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len(), "must consume exactly the encoding");
        }
    }

    #[test]
    fn slice_varint_advances_through_consecutive_values() {
        let mut buf = Vec::new();
        for v in [5u64, 300, 0, u64::MAX] {
            write_varint(&mut buf, v).unwrap();
        }
        let mut pos = 0;
        for v in [5u64, 300, 0, u64::MAX] {
            assert_eq!(read_varint_slice(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    /// Differential harness: SWAR and scalar must agree on value/error kind
    /// and on the cursor position after the call.
    fn assert_swar_matches_scalar(buf: &[u8], start: usize) {
        let mut scalar_pos = start;
        let mut swar_pos = start;
        let scalar = read_varint_slice(buf, &mut scalar_pos);
        let swar = read_varint_swar(buf, &mut swar_pos);
        match (&scalar, &swar) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "value mismatch on {buf:x?} at {start}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.kind(), b.kind(), "error mismatch on {buf:x?} at {start}");
            }
            _ => panic!("Ok/Err disagreement on {buf:x?} at {start}: {scalar:?} vs {swar:?}"),
        }
        if scalar.is_ok() {
            assert_eq!(
                scalar_pos, swar_pos,
                "cursor mismatch on {buf:x?} at {start}"
            );
        }
    }

    #[test]
    fn swar_varint_matches_scalar_on_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            0x3fff,
            0x4000,
            300,
            (1 << 7) - 1,
            1 << 7,
            (1 << 14) - 1,
            1 << 14,
            (1 << 21) - 1,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            (1 << 35) - 1,
            1 << 35,
            (1 << 42) - 1,
            1 << 42,
            (1 << 49) - 1,
            1 << 49,
            (1 << 56) - 1,
            1 << 56,
            (1 << 63) - 1,
            1 << 63,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_swar_matches_scalar(&buf, 0);
            let mut pos = 0;
            assert_eq!(read_varint_swar(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len(), "must consume exactly the encoding");
            // With trailing bytes present the 8-byte window is full of
            // garbage beyond the terminator; the mask must drop it.
            let mut padded = buf.clone();
            padded.extend_from_slice(&[0xffu8; 12]);
            let mut pos = 0;
            assert_eq!(read_varint_swar(&padded, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn swar_varint_matches_scalar_on_non_canonical_encodings() {
        // Trailing zero continuation bytes are non-canonical but accepted
        // by the scalar decoder; SWAR must agree exactly.
        for enc in [
            vec![0x80, 0x00],
            vec![0x80, 0x80, 0x00],
            vec![0xff, 0x80, 0x80, 0x80, 0x00],
            vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
        ] {
            assert_swar_matches_scalar(&enc, 0);
        }
    }

    #[test]
    fn swar_varint_matches_scalar_on_truncation_and_overflow() {
        // Truncated at every length, including tails shorter than the
        // 8-byte SWAR window.
        for len in 0..10 {
            let buf = vec![0x80u8; len];
            assert_swar_matches_scalar(&buf, 0);
        }
        // Overflow shapes: ten continuation bytes, and a 10th byte > 1.
        assert_swar_matches_scalar(&[0xffu8; 11], 0);
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX).unwrap();
        assert_swar_matches_scalar(&max, 0);
        max[9] = 0x02; // still a terminator, but overflows bit 63
        assert_swar_matches_scalar(&max, 0);
    }

    #[test]
    fn swar_varint_matches_scalar_on_random_bytes() {
        // SplitMix64-style deterministic fuzz over arbitrary byte strings
        // and arbitrary start offsets, covering the window/tail boundary.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..4000 {
            let len = (next() % 24) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            for start in 0..=buf.len() {
                assert_swar_matches_scalar(&buf, start);
            }
        }
    }

    #[test]
    fn swar_varint_advances_through_consecutive_values() {
        let values = [5u64, 300, 0, 1 << 42, u64::MAX, 127, 1 << 56];
        let mut buf = Vec::new();
        for v in values {
            write_varint(&mut buf, v).unwrap();
        }
        let mut pos = 0;
        for v in values {
            assert_eq!(read_varint_swar(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn slice_varint_rejects_overflow_and_truncation() {
        let overflow = [0xffu8; 11];
        let mut pos = 0;
        let err = read_varint_slice(&overflow, &mut pos).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let truncated = [0x80u8];
        let mut pos = 0;
        let err = read_varint_slice(&truncated, &mut pos).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
