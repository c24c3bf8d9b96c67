//! Stable little-endian binary encoding primitives.
//!
//! The durable analysis store (`noelle-store`) persists per-function
//! artifacts — PDG partitions — as byte payloads whose encoding must be
//! *stable*: the same in-memory value must
//! produce the same bytes in every process, on every run, forever within
//! one store format revision. These primitives are therefore deliberately
//! boring: fixed-width little-endian integers, LEB128 varints for counts,
//! zigzag for signed values, and length-prefixed byte strings. No
//! type-level cleverness, no implicit framing — each artifact codec
//! composes these into its own explicit layout.
//!
//! Decoding is total: every read is bounds-checked and malformed input
//! surfaces as a [`DecodeError`], never a panic. The store treats a decode
//! failure exactly like a cache miss (recompute and overwrite), so a
//! corrupt or stale entry can degrade performance but never correctness.

use std::fmt;

/// A growing byte buffer with stable append-only encoding helpers.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a fixed-width little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a fixed-width little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an unsigned LEB128 varint (used for counts and small ids).
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append a zigzag-encoded signed varint.
    pub fn ivarint(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Decoding failure: truncated input, varint overflow, invalid UTF-8, or a
/// value outside its domain. Carries a static context label so a store
/// `fsck` can say *which* field of *which* artifact was malformed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// What was being decoded when the failure occurred.
    pub context: &'static str,
}

impl DecodeError {
    /// A decode error in `context`.
    pub fn new(context: &'static str) -> DecodeError {
        DecodeError { context }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed encoding: {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over an encoded byte slice.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed (codecs assert this at the
    /// end so trailing garbage is a decode error, not silently ignored).
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new(context));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a fixed-width little-endian u32.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a fixed-width little-endian u64.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an unsigned LEB128 varint.
    pub fn varint(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(context)?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::new(context)); // u64 overflow
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::new(context));
            }
        }
    }

    /// Read a varint bounded by `max` (for counts, so a corrupt length
    /// cannot trigger a huge allocation).
    pub fn count(&mut self, max: usize, context: &'static str) -> Result<usize, DecodeError> {
        let v = self.varint(context)?;
        if v > max as u64 {
            return Err(DecodeError::new(context));
        }
        Ok(v as usize)
    }

    /// Read a zigzag-encoded signed varint.
    pub fn ivarint(&mut self, context: &'static str) -> Result<i64, DecodeError> {
        let v = self.varint(context)?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.count(self.remaining(), context)?;
        self.take(n, context)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes(context)?).map_err(|_| DecodeError::new(context))
    }

    /// Fail with a decode error unless every byte was consumed.
    pub fn finish(&self, context: &'static str) -> Result<(), DecodeError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(DecodeError::new(context))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.varint(0);
        w.varint(127);
        w.varint(128);
        w.varint(u64::MAX);
        w.ivarint(-1);
        w.ivarint(i64::MIN);
        w.ivarint(i64::MAX);
        w.str("hé");
        w.bytes(&[]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u32("t").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("t").unwrap(), u64::MAX);
        assert_eq!(r.varint("t").unwrap(), 0);
        assert_eq!(r.varint("t").unwrap(), 127);
        assert_eq!(r.varint("t").unwrap(), 128);
        assert_eq!(r.varint("t").unwrap(), u64::MAX);
        assert_eq!(r.ivarint("t").unwrap(), -1);
        assert_eq!(r.ivarint("t").unwrap(), i64::MIN);
        assert_eq!(r.ivarint("t").unwrap(), i64::MAX);
        assert_eq!(r.str("t").unwrap(), "hé");
        assert_eq!(r.bytes("t").unwrap(), &[] as &[u8]);
        r.finish("t").unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u64(42);
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let ok = r
                .u64("u64")
                .and_then(|_| r.str("str").map(|_| ()))
                .and_then(|()| r.finish("tail"));
            assert!(ok.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn counts_are_bounded() {
        let mut w = ByteWriter::new();
        w.varint(1 << 40); // absurd element count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.count(1 << 20, "count").is_err());
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 bytes of continuation: too long for a u64.
        let bytes = [0xff; 11];
        let mut r = ByteReader::new(&bytes);
        assert!(r.varint("v").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u8("a").unwrap();
        assert!(r.finish("tail").is_err());
    }
}
