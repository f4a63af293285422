//! The workspace's one reader of binary input.
//!
//! Every binary decoder (`MSC3`, `SEG1`, `MSH1`, `MSK1`, the `MSPF`
//! footer and the segmentation messages) reads
//! through [`Reader`], so hostile bytes end a decode with [`Truncated`],
//! never a panic, and a count read from the input reserves no more than
//! the input could hold. Each format's error type has a `From<Truncated>`.

use std::{fmt, io};

/// The input ended before a read, or declared more records than its
/// unread bytes could hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated;

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("input truncated")
    }
}

impl std::error::Error for Truncated {}

/// File readers report short input as [`io::ErrorKind::InvalidData`].
impl From<Truncated> for io::Error {
    fn from(t: Truncated) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, t)
    }
}

/// Bounds-checked little-endian read cursor over a byte slice.
#[derive(Clone, Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader(buf)
    }

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.0
    }

    /// True once every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if self.0.len() < n {
            return Err(Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn f32(&mut self) -> Result<f32, Truncated> {
        self.array().map(f32::from_le_bytes)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }

    /// An unsigned LEB128 varint of at most 10 bytes; `None` when it is
    /// longer or larger than `u64::MAX`.
    #[inline]
    pub fn varint(&mut self) -> Result<Option<u64>, Truncated> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                // the tenth byte holds only the top bit
                return Ok((i < 9 || b <= 1).then_some(v));
            }
        }
        Ok(None)
    }

    /// A `u32` count of records that each take at least `min_bytes`
    /// bytes: safe to reserve, since the unread bytes could hold them.
    #[inline]
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, Truncated> {
        let n = self.u32()?;
        self.fits(n.into(), min_bytes)
    }

    /// `n` records of at least `min_bytes` bytes each, as a `usize`,
    /// when the unread bytes could hold them.
    #[inline]
    pub fn fits(&self, n: u64, min_bytes: usize) -> Result<usize, Truncated> {
        if n > (self.0.len() / min_bytes) as u64 {
            return Err(Truncated);
        }
        Ok(n as usize)
    }
}
