//! Typed `u64`-pair and `u64`-list messages.
//!
//! The segmentation resolution protocol ships exactly two payload
//! shapes between ranks: lists of `(u64, u64)` pairs (forward entries,
//! query replies) and flat lists of `u64` addresses (queries). Both get
//! a length-prefixed little-endian encoding here so every message is
//! validated on receipt. The all-to-all exchange that carries them is a
//! step pair of the pipeline's stage list, so it runs on both backends.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encode a pair list: `u32` count, then `(u64, u64)` little-endian.
pub fn encode_pairs(pairs: &[(u64, u64)]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + 16 * pairs.len());
    b.put_u32_le(pairs.len() as u32);
    for &(k, v) in pairs {
        b.put_u64_le(k);
        b.put_u64_le(v);
    }
    b.freeze()
}

/// Decode a pair list encoded by [`encode_pairs`].
pub fn decode_pairs(mut b: &[u8]) -> Result<Vec<(u64, u64)>, String> {
    if b.len() < 4 {
        return Err("truncated pair message (no count)".into());
    }
    let n = b.get_u32_le() as usize;
    if b.len() != 16 * n {
        return Err(format!("pair message: {} bytes for {} pairs", b.len(), n));
    }
    Ok((0..n).map(|_| (b.get_u64_le(), b.get_u64_le())).collect())
}

/// Encode an address list: `u32` count, then `u64` little-endian.
pub fn encode_u64s(addrs: &[u64]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + 8 * addrs.len());
    b.put_u32_le(addrs.len() as u32);
    for &a in addrs {
        b.put_u64_le(a);
    }
    b.freeze()
}

/// Decode an address list encoded by [`encode_u64s`].
pub fn decode_u64s(mut b: &[u8]) -> Result<Vec<u64>, String> {
    if b.len() < 4 {
        return Err("truncated u64 message (no count)".into());
    }
    let n = b.get_u32_le() as usize;
    if b.len() != 8 * n {
        return Err(format!("u64 message: {} bytes for {} entries", b.len(), n));
    }
    Ok((0..n).map(|_| b.get_u64_le()).collect())
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
        assert!(decode_pairs(&extra).is_err());
        assert!(decode_u64s(b"\x01").is_err());
        let mut extra = encode_u64s(&[9]).to_vec();
        extra.push(0);
        assert!(decode_u64s(&extra).is_err());
    }
}
