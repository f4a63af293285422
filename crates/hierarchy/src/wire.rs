//! `MSH1` wire serialization of a [`SlotHierarchy`].
//!
//! One payload per output slot, written through the same keyed
//! collective write as the `.seg` artifact so the `<out>.msh` file is
//! byte-identical across rank/thread/schedule choices. Layout (all
//! little-endian):
//!
//! ```text
//! "MSH1"
//! u64 max_new_arcs        (u64::MAX = unlimited)
//! u32 max_parallel_arcs   (u32::MAX = unlimited)
//! u8  n_sequences
//! per sequence:
//!   u8  ordering tag      (0 = difference, 1 = count)
//!   u64 n_records
//!   per record:
//!     u64 upper_addr, u64 lower_addr, f32 persistence, f32 key,
//!     u8 has_forward, [u64 dead, u64 target]
//! ```

use crate::{Ordering, ReplayParams, SlotHierarchy};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use msp_complex::CancelRecord;

/// Format magic + version.
const MAGIC: &[u8; 4] = b"MSH1";

/// Serialize a hierarchy to its `MSH1` payload.
pub fn serialize(h: &SlotHierarchy) -> Bytes {
    let n_records = h.difference.len() + h.count.as_ref().map_or(0, |c| c.len());
    let mut buf = BytesMut::with_capacity(4 + 13 + 9 * 2 + 41 * n_records);
    buf.put_slice(MAGIC);
    buf.put_u64_le(h.params.max_new_arcs.unwrap_or(u64::MAX));
    buf.put_u32_le(h.params.max_parallel_arcs.unwrap_or(u32::MAX));
    let seqs: Vec<(u8, &[CancelRecord])> = [
        Some((0u8, h.difference.as_slice())),
        h.count.as_deref().map(|c| (1u8, c)),
    ]
    .into_iter()
    .flatten()
    .collect();
    buf.put_u8(seqs.len() as u8);
    for (tag, recs) in seqs {
        buf.put_u8(tag);
        buf.put_u64_le(recs.len() as u64);
        for r in recs {
            buf.put_u64_le(r.upper_addr);
            buf.put_u64_le(r.lower_addr);
            buf.put_f32_le(r.persistence);
            buf.put_f32_le(r.key);
            match r.forward {
                Some((dead, target)) => {
                    buf.put_u8(1);
                    buf.put_u64_le(dead);
                    buf.put_u64_le(target);
                }
                None => buf.put_u8(0),
            }
        }
    }
    buf.freeze()
}

/// Errors from [`deserialize`].
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    BadMagic,
    Truncated,
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (not an MSH1 payload)"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Deserialize an `MSH1` payload.
pub fn deserialize(data: &[u8]) -> Result<SlotHierarchy, WireError> {
    let mut buf = data;
    if buf.remaining() < 4 || &buf[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    buf.advance(4);
    let need = |n: usize, buf: &&[u8]| -> Result<(), WireError> {
        if buf.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    };
    need(13, &buf)?;
    let max_new_arcs = match buf.get_u64_le() {
        u64::MAX => None,
        n => Some(n),
    };
    let max_parallel_arcs = match buf.get_u32_le() {
        u32::MAX => None,
        n => Some(n),
    };
    let n_seqs = buf.get_u8() as usize;
    if n_seqs > Ordering::ALL.len() {
        return Err(WireError::Corrupt("too many sequences"));
    }
    let mut difference: Option<Vec<CancelRecord>> = None;
    let mut count: Option<Vec<CancelRecord>> = None;
    for _ in 0..n_seqs {
        need(9, &buf)?;
        let tag = buf.get_u8();
        let n = buf.get_u64_le();
        // the count comes from the payload: reserve no more records than
        // the remaining bytes could hold (a record is at least 25 bytes)
        let mut recs = Vec::with_capacity(n.min(buf.remaining() as u64 / 25) as usize);
        for _ in 0..n {
            need(25, &buf)?;
            let upper_addr = buf.get_u64_le();
            let lower_addr = buf.get_u64_le();
            let persistence = buf.get_f32_le();
            let key = buf.get_f32_le();
            let forward = match buf.get_u8() {
                0 => None,
                1 => {
                    need(16, &buf)?;
                    Some((buf.get_u64_le(), buf.get_u64_le()))
                }
                _ => return Err(WireError::Corrupt("bad forward flag")),
            };
            if persistence.is_nan() || key.is_nan() {
                return Err(WireError::Corrupt("NaN record key"));
            }
            recs.push(CancelRecord {
                upper_addr,
                lower_addr,
                persistence,
                key,
                forward,
            });
        }
        let slot = match tag {
            0 => &mut difference,
            1 => &mut count,
            _ => return Err(WireError::Corrupt("unknown ordering tag")),
        };
        if slot.replace(recs).is_some() {
            return Err(WireError::Corrupt("duplicate ordering sequence"));
        }
    }
    if buf.remaining() > 0 {
        return Err(WireError::Corrupt("trailing bytes"));
    }
    Ok(SlotHierarchy {
        params: ReplayParams {
            max_new_arcs,
            max_parallel_arcs,
        },
        difference: difference.ok_or(WireError::Corrupt("missing difference sequence"))?,
        count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(with_count: bool) -> SlotHierarchy {
        let rec = |i: u64, key: f32, fwd: Option<(u64, u64)>| CancelRecord {
            upper_addr: 100 + i,
            lower_addr: 200 + i,
            persistence: 0.25 * key,
            key,
            forward: fwd,
        };
        SlotHierarchy {
            params: ReplayParams {
                max_new_arcs: Some(4096),
                max_parallel_arcs: Some(2),
            },
            difference: vec![rec(0, 0.1, Some((5, 6))), rec(1, 0.7, None)],
            count: with_count.then(|| vec![rec(2, 12.0, Some((9, u64::MAX)))]),
        }
    }

    #[test]
    fn round_trip_both_shapes() {
        for with_count in [false, true] {
            let h = sample(with_count);
            let bytes = serialize(&h);
            let back = deserialize(&bytes).unwrap();
            assert_eq!(back, h);
        }
    }

    #[test]
    fn unlimited_params_round_trip() {
        let mut h = sample(false);
        h.params = ReplayParams {
            max_new_arcs: None,
            max_parallel_arcs: None,
        };
        assert_eq!(deserialize(&serialize(&h)).unwrap().params, h.params);
    }

    #[test]
    fn huge_record_count_is_refused_before_allocating() {
        // 26 bytes that claim 2^63 records
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&[1, 0]);
        bad.extend_from_slice(&(1u64 << 63).to_le_bytes());
        assert_eq!(bad.len(), 26);
        assert_eq!(deserialize(&bad).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn hostile_payloads_never_panic() {
        for with_count in [false, true] {
            let bytes = serialize(&sample(with_count)).to_vec();
            for cut in 0..bytes.len() {
                assert!(deserialize(&bytes[..cut]).is_err(), "prefix {cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(deserialize(&long).is_err(), "trailing byte");
            let mut flipped = bytes.clone();
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    flipped[at] ^= 1 << bit;
                    // an edit either errs or decodes to a hierarchy that
                    // writes back exactly the edited bytes
                    if let Ok(h) = deserialize(&flipped) {
                        assert_eq!(serialize(&h)[..], flipped[..], "byte {at} bit {bit}");
                    }
                    flipped[at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert_eq!(deserialize(b"nope").unwrap_err(), WireError::BadMagic);
        let bytes = serialize(&sample(true));
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                deserialize(&bytes[..cut]).unwrap_err(),
                WireError::Truncated | WireError::Corrupt(_)
            ));
        }
    }
}
