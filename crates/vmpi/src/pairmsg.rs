//! Typed `u64`-pair and `u64`-list messages.
//!
//! The segmentation resolution protocol ships exactly two payload
//! shapes between ranks: lists of `(u64, u64)` pairs (forward entries,
//! query replies) and flat lists of `u64` addresses (queries). Both get
//! a length-prefixed little-endian encoding here so every message is
//! validated on receipt. The all-to-all exchange that carries them is a
//! step pair of the pipeline's stage list, so it runs on both backends.

use bytes::{BufMut, Bytes};
use msp_telemetry::{Reader, Truncated};

/// Why a pair or address message did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgError {
    /// The message ends before its count or its declared entries.
    Truncated,
    /// Bytes left over after the declared entries.
    TrailingBytes,
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::Truncated => write!(f, "message truncated"),
            MsgError::TrailingBytes => write!(f, "trailing bytes after the last entry"),
        }
    }
}

impl std::error::Error for MsgError {}

impl From<Truncated> for MsgError {
    fn from(_: Truncated) -> MsgError {
        MsgError::Truncated
    }
}

/// Encode a pair list: `u32` count, then `(u64, u64)` little-endian.
pub fn encode_pairs(pairs: &[(u64, u64)]) -> Bytes {
    let mut b = Vec::with_capacity(4 + 16 * pairs.len());
    b.put_u32_le(pairs.len() as u32);
    for &(k, v) in pairs {
        b.put_u64_le(k);
        b.put_u64_le(v);
    }
    Bytes::from(b)
}

/// Decode a pair list encoded by [`encode_pairs`].
pub fn decode_pairs(b: &[u8]) -> Result<Vec<(u64, u64)>, MsgError> {
    decode(b, 16, |r| Ok((r.u64()?, r.u64()?)))
}

/// Encode an address list: `u32` count, then `u64` little-endian.
pub fn encode_u64s(addrs: &[u64]) -> Bytes {
    let mut b = Vec::with_capacity(4 + 8 * addrs.len());
    b.put_u32_le(addrs.len() as u32);
    for &a in addrs {
        b.put_u64_le(a);
    }
    Bytes::from(b)
}

/// Decode an address list encoded by [`encode_u64s`].
pub fn decode_u64s(b: &[u8]) -> Result<Vec<u64>, MsgError> {
    decode(b, 8, |r| r.u64())
}

/// A `u32` count, then that many `width`-byte entries read by `entry`,
/// and nothing after them.
fn decode<T>(
    b: &[u8],
    width: usize,
    entry: impl Fn(&mut Reader<'_>) -> Result<T, Truncated>,
) -> Result<Vec<T>, MsgError> {
    let mut r = Reader::new(b);
    let n = r.count(width)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(entry(&mut r)?);
    }
    if !r.is_empty() {
        return Err(MsgError::TrailingBytes);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_round_trip() {
        let pairs = vec![(1u64, 2u64), (u64::MAX, 0), (7, 7)];
        assert_eq!(decode_pairs(&encode_pairs(&pairs)).unwrap(), pairs);
        assert_eq!(decode_pairs(&encode_pairs(&[])).unwrap(), vec![]);
    }

    #[test]
    fn u64_round_trip() {
        let addrs = vec![0u64, 5, u64::MAX];
        assert_eq!(decode_u64s(&encode_u64s(&addrs)).unwrap(), addrs);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode_pairs(b"").is_err());
        assert!(decode_pairs(b"\x02\x00\x00\x00short").is_err());
        let mut extra = encode_pairs(&[(1, 2)]).to_vec();
        extra.push(0);
        assert_eq!(decode_pairs(&extra), Err(MsgError::TrailingBytes));
        assert!(decode_u64s(b"\x01").is_err());
        let mut extra = encode_u64s(&[9]).to_vec();
        extra.push(0);
        assert!(decode_u64s(&extra).is_err());
    }

    /// Every single-bit flip of `bytes` either errs or decodes to
    /// entries that encode back to exactly the flipped bytes.
    fn flips_err_or_round_trip<T>(
        bytes: &[u8],
        decode: fn(&[u8]) -> Result<Vec<T>, MsgError>,
        encode: fn(&[T]) -> Bytes,
    ) {
        let mut flipped = bytes.to_vec();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                if let Ok(v) = decode(&flipped) {
                    assert_eq!(encode(&v)[..], flipped[..], "byte {at} bit {bit}");
                }
                flipped[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn hostile_payloads_never_panic() {
        let pairs = encode_pairs(&[(1, 2), (u64::MAX, 0), (7, 1 << 40)]);
        let addrs = encode_u64s(&[0, 5, u64::MAX, 1 << 33]);
        for cut in 0..pairs.len() {
            assert_eq!(decode_pairs(&pairs[..cut]), Err(MsgError::Truncated));
        }
        for cut in 0..addrs.len() {
            assert_eq!(decode_u64s(&addrs[..cut]), Err(MsgError::Truncated));
        }
        flips_err_or_round_trip(&pairs, decode_pairs, encode_pairs);
        flips_err_or_round_trip(&addrs, decode_u64s, encode_u64s);
    }
}
