//! Vendored offline stand-in for the `bytes` crate.
//!
//! Implements the slice of the upstream API the runtime protocol codec
//! uses: [`Bytes`] (cheaply cloneable shared buffer with a read cursor via
//! [`Buf`]), [`BytesMut`] (builder via [`BufMut`], patchable in place),
//! and the little-endian `get_*`/`put_*` accessors. A [`Bytes`] is an
//! `Arc<Vec<u8>>` plus a range, which keeps upstream's O(1)
//! `clone`/`slice`/`copy_to_bytes` and, because the vector is moved rather
//! than copied into the `Arc`, its O(1) `Bytes::from(Vec<u8>)` and
//! [`BytesMut::freeze`].

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read-side interface: a cursor over a byte buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_le_bytes(raw)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write-side interface: appends encoded values.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }
}

/// Cheaply cloneable immutable byte buffer with a read cursor.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Wraps a static slice. Unlike upstream, which borrows it, this
    /// copies the slice once into a new allocation; clones and slices of
    /// the result share that copy.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// O(1) sub-buffer sharing the same allocation.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of the vector's allocation without copying it.
    fn from(data: Vec<u8>) -> Bytes {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.start += cnt;
    }
}

impl Bytes {
    /// Splits off the first `len` bytes as an O(1) shared sub-buffer,
    /// advancing the cursor past them.
    pub fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.slice(0..len);
        self.advance(len);
        out
    }
}

/// Growable byte builder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Converts into an immutable [`Bytes`] that keeps this builder's
    /// allocation: no byte is copied.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_little_endian_accessors() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16_le(0xBEEF);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(u64::MAX - 1);
        b.put_f64_le(-0.25);
        let mut r = b.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_f64_le(), -0.25);
        assert!(!r.has_remaining());
    }

    #[test]
    fn copy_to_bytes_shares_and_advances() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.copy_to_bytes(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(b.remaining(), 3);
        assert_eq!(&b[..], &[3, 4, 5]);
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![1u8; 4096];
        let p = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), p);
        assert_eq!(b.clone().as_ptr(), p);

        let mut m = BytesMut::with_capacity(4096);
        m.extend_from_slice(&[2u8; 4096]);
        let p = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), p);
    }

    #[test]
    fn slice_and_copy_to_bytes_share_the_allocation() {
        let mut b = Bytes::from((0..=255u8).collect::<Vec<_>>());
        let base = b.as_ptr();
        let mid = b.slice(100..200);
        assert_eq!(mid.as_ptr(), base.wrapping_add(100));
        assert_eq!(&mid[..], &(100..200u8).collect::<Vec<_>>()[..]);
        b.advance(10);
        let head = b.copy_to_bytes(20);
        assert_eq!(head.as_ptr(), base.wrapping_add(10));
        assert_eq!(b.as_ptr(), base.wrapping_add(30));
    }

    #[test]
    fn bytes_mut_patches_in_place() {
        let mut m = BytesMut::new();
        m.put_u32_le(0);
        m.put_u8(9);
        let len = (m.len() - 4) as u32;
        m[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(&m.freeze()[..], &[1, 0, 0, 0, 9]);
    }

    #[test]
    fn equality_ignores_cursor_history() {
        let mut a = Bytes::from(vec![9, 1, 2]);
        a.advance(1);
        assert_eq!(a, Bytes::from(vec![1, 2]));
    }
}
