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
//!   u8  ordering tag      (0 = difference, 2 = count)
//!   u64 n_records
//!   per record:
//!     u64 upper_addr, u64 lower_addr, f32 persistence, f32 key,
//!     u8 has_forward, [u64 dead, u64 target]
//! ```
//!
//! Tag 1 was the retired `count` sequence that cancelled every
//! saddle–saddle pair first, at key 0. Its answers differ from today's
//! `count` at every threshold, so it is refused
//! ([`WireError::RetiredCountOrdering`]) rather than read under the new
//! meaning; rerun `msc compute --hierarchy` to rewrite such a file.

use crate::{Ordering, ReplayParams, SlotHierarchy};
use bytes::{BufMut, Bytes};
use msp_complex::CancelRecord;
use msp_telemetry::{Reader, Truncated};

/// Format magic + version.
const MAGIC: &[u8; 4] = b"MSH1";

/// Ordering tags: the retired saddle-first `count` held tag 1.
const TAG_DIFFERENCE: u8 = 0;
const TAG_RETIRED_COUNT: u8 = 1;
const TAG_COUNT: u8 = 2;

/// Serialize a hierarchy to its `MSH1` payload.
pub fn serialize(h: &SlotHierarchy) -> Bytes {
    let n_records = h.difference.len() + h.count.as_ref().map_or(0, |c| c.len());
    let mut buf = Vec::with_capacity(4 + 13 + 9 * 2 + 41 * n_records);
    buf.put_slice(MAGIC);
    buf.put_u64_le(h.params.max_new_arcs.unwrap_or(u64::MAX));
    buf.put_u32_le(h.params.max_parallel_arcs.unwrap_or(u32::MAX));
    let seqs: Vec<(u8, &[CancelRecord])> = [
        Some((TAG_DIFFERENCE, h.difference.as_slice())),
        h.count.as_deref().map(|c| (TAG_COUNT, c)),
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
    Bytes::from(buf)
}

/// Errors from [`deserialize`].
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    BadMagic,
    Truncated,
    Corrupt(&'static str),
    /// A sequence under the retired saddle-first `count` tag.
    RetiredCountOrdering,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (not an MSH1 payload)"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            WireError::RetiredCountOrdering => write!(
                f,
                "retired ordering: this count sequence cancels every saddle-saddle pair \
                 first, which count no longer does; rerun compute --hierarchy"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> WireError {
        WireError::Truncated
    }
}

/// Deserialize an `MSH1` payload.
pub fn deserialize(data: &[u8]) -> Result<SlotHierarchy, WireError> {
    if data.get(..4) != Some(MAGIC) {
        return Err(WireError::BadMagic);
    }
    let mut r = Reader::new(&data[4..]);
    let max_new_arcs = match r.u64()? {
        u64::MAX => None,
        n => Some(n),
    };
    let max_parallel_arcs = match r.u32()? {
        u32::MAX => None,
        n => Some(n),
    };
    let n_seqs = r.u8()? as usize;
    if n_seqs > Ordering::ALL.len() {
        return Err(WireError::Corrupt("too many sequences"));
    }
    let mut difference: Option<Vec<CancelRecord>> = None;
    let mut count: Option<Vec<CancelRecord>> = None;
    for _ in 0..n_seqs {
        let slot = match r.u8()? {
            TAG_DIFFERENCE => &mut difference,
            TAG_COUNT => &mut count,
            TAG_RETIRED_COUNT => return Err(WireError::RetiredCountOrdering),
            _ => return Err(WireError::Corrupt("unknown ordering tag")),
        };
        // a record is at least 25 bytes
        let n = r.u64()?;
        let n = r.fits(n, 25)?;
        let mut recs = Vec::with_capacity(n);
        for _ in 0..n {
            let upper_addr = r.u64()?;
            let lower_addr = r.u64()?;
            let persistence = r.f32()?;
            let key = r.f32()?;
            let forward = match r.u8()? {
                0 => None,
                1 => Some((r.u64()?, r.u64()?)),
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
        if slot.replace(recs).is_some() {
            return Err(WireError::Corrupt("duplicate ordering sequence"));
        }
    }
    if !r.is_empty() {
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
            // the last sequence's tag rewritten to the retired count tag,
            // whole or cut short: the typed error that names it
            let mut retired = bytes.clone();
            let at = if with_count {
                serialize(&sample(false)).len()
            } else {
                17
            };
            retired[at] = TAG_RETIRED_COUNT;
            for cut in [at + 1, retired.len()] {
                assert_eq!(
                    deserialize(&retired[..cut]).unwrap_err(),
                    WireError::RetiredCountOrdering,
                    "cut {cut}"
                );
            }
            for cut in 0..bytes.len() {
                let err = deserialize(&bytes[..cut]).unwrap_err();
                let want = if cut < 4 {
                    WireError::BadMagic
                } else {
                    WireError::Truncated
                };
                assert_eq!(err, want, "prefix {cut}");
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
