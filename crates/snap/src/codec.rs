//! Byte-level codec for the snapshot format.
//!
//! The encoding is deliberately simple and deterministic:
//!
//! - unsigned integers are LEB128 varints,
//! - signed integers are zigzag-mapped onto varints,
//! - strings and byte slices are length-prefixed,
//! - containers (`Option`, `Vec`, `BTreeMap`, `BTreeSet`, tuples) compose
//!   structurally.
//!
//! There is no self-description in the stream: reader and writer must agree
//! on the layout, which is pinned by [`crate::FORMAT_VERSION`]. Decoding is
//! defensive — every read is bounds-checked and enum tags are validated — so
//! a truncated or corrupted snapshot yields a [`DecodeError`] rather than a
//! panic or garbage data.

use std::collections::{BTreeMap, BTreeSet};

/// Error produced when a snapshot cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl DecodeError {
    /// Build an error from anything stringy.
    pub fn new(message: impl Into<String>) -> DecodeError {
        DecodeError { message: message.into() }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single raw byte.
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Write raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Write a zigzag-encoded signed varint.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
}

/// Bounds-checked decoder over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// New reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining to be read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Read one raw byte.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| DecodeError::new("unexpected end of snapshot"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| DecodeError::new("unexpected end of snapshot"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(DecodeError::new("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-encoded signed varint.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a `usize`, rejecting values that cannot index this platform.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::new("length exceeds usize"))
    }

    /// Read a length prefix that must fit in the remaining buffer.
    ///
    /// Used for element counts: each element encodes to at least one byte,
    /// so any valid count is bounded by `remaining()`. Checking up front
    /// keeps a corrupted length from triggering a huge allocation.
    pub fn len(&mut self) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(DecodeError::new(format!(
                "length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.len()?;
        let bytes = self.raw(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new("invalid UTF-8 in string"))
    }

    /// Read a bool, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::new(format!("invalid bool byte {b}"))),
        }
    }
}

/// Types that can round-trip through the snapshot byte format.
pub trait Snap: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decode a value previously written by [`Snap::encode`].
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

impl Snap for u8 {
    fn encode(&self, w: &mut Writer) {
        w.byte(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.byte()
    }
}

impl Snap for u16 {
    fn encode(&self, w: &mut Writer) {
        w.u64(u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        u16::try_from(r.u64()?).map_err(|_| DecodeError::new("u16 out of range"))
    }
}

impl Snap for u32 {
    fn encode(&self, w: &mut Writer) {
        w.u64(u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        u32::try_from(r.u64()?).map_err(|_| DecodeError::new("u32 out of range"))
    }
}

impl Snap for u64 {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Snap for usize {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.usize()
    }
}

impl Snap for i64 {
    fn encode(&self, w: &mut Writer) {
        w.i64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.i64()
    }
}

impl Snap for bool {
    fn encode(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.bool()
    }
}

impl Snap for String {
    fn encode(&self, w: &mut Writer) {
        w.string(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.string()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.byte(0),
            Some(v) => {
                w.byte(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(DecodeError::new(format!("invalid Option tag {b}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// FNV-1a 64-bit hash, used as the snapshot trailer checksum.
///
/// Not cryptographic — it guards against truncation and bit rot, not
/// adversaries, matching the format's "trusted local artifact" threat model.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Streams `bytes` into a running FNV-1a-64 state `h`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64` of `a` followed by `b`
/// (so a digest starts from `fnv1a64(&[])`, the offset basis).
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert!(r.is_at_end());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            roundtrip(v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            roundtrip(v);
        }
    }

    #[test]
    fn container_roundtrip() {
        roundtrip(String::from("hello ü"));
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u32));
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(BTreeMap::from([(1u32, String::from("a")), (2, String::from("b"))]));
        roundtrip(BTreeSet::from([3u64, 1, 2]));
        roundtrip((1u32, String::from("x"), true));
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        vec![1u32, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(Vec::<u32>::decode(&mut r).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn hostile_length_rejected() {
        // A varint claiming 2^40 elements must fail fast, not allocate.
        let mut w = Writer::new();
        w.u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(Vec::<u8>::decode(&mut r).is_err());
    }

    #[test]
    fn invalid_tags_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(Option::<u8>::decode(&mut r).is_err());
        let mut r = Reader::new(&[7]);
        assert!(bool::decode(&mut r).is_err());
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_extend(fnv1a64(b"ab"), b"cd"), fnv1a64(b"abcd"));
    }
}
