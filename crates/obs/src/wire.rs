//! The workspace's one checked reader for untrusted little-endian bytes.
//!
//! Every decoder of bytes from disk or the network (core checkpoints,
//! `alf-dist` messages and gradients, the `alf-lab` campaign manifest)
//! reads through a [`Reader`]. No read panics; each failure is a
//! [`WireError`] naming the offset and the bytes needed and available.
//! Memory stays proportional to the input: [`Reader::count`] rejects a
//! `u32` element count whose `count · min_elem_bytes` (overflow-checked)
//! exceeds the bytes remaining, so reserving `count` elements is bounded
//! by the blob, and [`Reader::bytes`] / [`Reader::f32s`] check a span
//! exists before copying it. Writers stay on `bytes::BufMut`, since
//! writing cannot fail; the one layout both sides share is [`put_frame`].

use std::fmt;

use crate::crc32;

/// A read past the end of the input, or — with `needed == 0`, from
/// [`Reader::finish`] — `available` bytes left after the last field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset of the failed read.
    pub offset: usize,
    /// Bytes the read needed (`usize::MAX` when the length overflowed).
    pub needed: usize,
    /// Bytes that remained at `offset`.
    pub available: usize,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self {
            offset,
            needed,
            available,
        } = self;
        if *needed == 0 {
            write!(f, "{available} trailing bytes at offset {offset}")
        } else {
            write!(
                f,
                "truncated at offset {offset}: need {needed} bytes, have {available}"
            )
        }
    }
}

impl std::error::Error for WireError {}

/// Sequential little-endian reads over a borrowed byte slice.
///
/// ```
/// use alf_obs::wire::Reader;
///
/// let blob = [2u8, 0, 0, 0, 7, 9];
/// let mut r = Reader::new(&blob);
/// let n = r.count(1).unwrap();
/// assert_eq!(r.bytes(n).unwrap(), &[7, 9]);
/// r.finish().unwrap();
///
/// // A count the input cannot hold is refused before anything allocates.
/// let err = Reader::new(&[0xff, 0xff, 0xff, 0xff]).count(4).unwrap_err();
/// assert_eq!(err.available, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn short(&self, needed: usize) -> WireError {
        WireError {
            offset: self.pos,
            needed,
            available: self.remaining(),
        }
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(self.short(n));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.array().map(f64::from_le_bytes)
    }

    /// The little-endian `f32`s of the next `4 · n` bytes, length
    /// overflow-checked.
    fn f32_chunks(&mut self, n: usize) -> Result<impl Iterator<Item = f32> + 'a, WireError> {
        let len = n.checked_mul(4).ok_or_else(|| self.short(usize::MAX))?;
        let raw = self.bytes(len)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])))
    }

    /// Fills `dst` with consecutive little-endian `f32`s; on error `dst`
    /// is untouched.
    pub fn f32s_into(&mut self, dst: &mut [f32]) -> Result<(), WireError> {
        let vals = self.f32_chunks(dst.len())?;
        for (slot, v) in dst.iter_mut().zip(vals) {
            *slot = v;
        }
        Ok(())
    }

    /// Reads `n` little-endian `f32`s, allocating only once the bytes are
    /// known to be there.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        Ok(self.f32_chunks(n)?.collect())
    }

    /// Reads a `u32` element count, refusing it when `count ·
    /// min_elem_bytes` (each element taken as at least 1 byte) exceeds
    /// the bytes left, so reserving `count` elements is bounded by them.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        let needed = count.saturating_mul(min_elem_bytes.max(1));
        if needed > self.remaining() {
            return Err(self.short(needed));
        }
        Ok(count)
    }

    /// Ends the read: a well-formed input stops exactly at its last field.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(self.short(0)),
        }
    }
}

/// Appends `u32 len | payload | u32 crc32(payload)` (little-endian) to
/// `out`: the frame of both the campaign manifest and the dist wire.
///
/// # Panics
///
/// When `payload` exceeds `u32::MAX` bytes; callers cap frames far below.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload fits u32");
    out.reserve(payload.len() + 8);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reads_are_little_endian_and_advance() {
        let mut blob = vec![0xAB];
        blob.extend_from_slice(&0x0102_0304u32.to_le_bytes());
        blob.extend_from_slice(&u64::MAX.to_le_bytes());
        blob.extend_from_slice(&1.5f32.to_le_bytes());
        blob.extend_from_slice(&(-2.25f64).to_le_bytes());
        let mut r = Reader::new(&blob);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0x0102_0304);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap(), -2.25);
        assert_eq!(r.offset(), blob.len());
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_report_offset_needed_and_available() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5, 6]);
        r.u32().unwrap();
        let err = r.u64().unwrap_err();
        assert_eq!(
            err,
            WireError {
                offset: 4,
                needed: 8,
                available: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "truncated at offset 4: need 8 bytes, have 2"
        );
        // A failed read consumes nothing.
        assert_eq!(r.bytes(2).unwrap(), &[5, 6]);
        assert!(r.u8().is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[0; 7]);
        r.u32().unwrap();
        let err = r.finish().unwrap_err();
        assert_eq!((err.offset, err.needed, err.available), (4, 0, 3));
        assert!(err.to_string().contains("3 trailing bytes"), "{err}");
    }

    #[test]
    fn count_is_bounded_by_the_bytes_remaining() {
        let mut blob = 3u32.to_le_bytes().to_vec();
        blob.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&blob).count(4).unwrap(), 3);
        let err = Reader::new(&blob).count(5).unwrap_err();
        assert_eq!((err.offset, err.needed, err.available), (4, 15, 12));
        // A zero element size still bounds the count by one byte each.
        let huge = u32::MAX.to_le_bytes();
        assert!(Reader::new(&huge).count(0).is_err());
        // The product saturates instead of wrapping.
        let err = Reader::new(&huge).count(usize::MAX).unwrap_err();
        assert_eq!(err.needed, usize::MAX);
    }

    #[test]
    fn f32_bulk_reads_match_scalar_reads() {
        let vals = [0.5f32, -0.0, f32::INFINITY, 3.25];
        let blob: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut dst = [0.0f32; 4];
        Reader::new(&blob).f32s_into(&mut dst).unwrap();
        let owned = Reader::new(&blob).f32s(4).unwrap();
        for ((a, b), c) in vals.iter().zip(&dst).zip(&owned) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
        let mut too_long = [7.0f32; 5];
        assert!(Reader::new(&blob).f32s_into(&mut too_long).is_err());
        assert_eq!(too_long, [7.0; 5], "failed bulk read leaves dst untouched");
        assert_eq!(
            Reader::new(&blob).f32s(usize::MAX).unwrap_err().needed,
            usize::MAX
        );
    }

    #[test]
    fn put_frame_layout() {
        let mut out = vec![0xEE];
        put_frame(&mut out, b"alf");
        let mut r = Reader::new(&out[1..]);
        let len = r.u32().unwrap() as usize;
        assert_eq!(r.bytes(len).unwrap(), b"alf");
        assert_eq!(r.u32().unwrap(), crc32(b"alf"));
        r.finish().unwrap();
    }
}
