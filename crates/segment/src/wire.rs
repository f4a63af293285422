//! Canonical serialization of a block segmentation (`SEG1`).
//!
//! The encoding is a pure function of the segmentation content — tables
//! sorted, labels in block-local x-fastest order — so two runs that
//! computed the same labeled volume produce byte-identical payloads
//! regardless of rank count, thread count or merge schedule. This is
//! the byte-identity contract the differential fuzzer (`src/fuzz.rs`)
//! and the verify smoke gate on.
//!
//! `.seg` files are outside input (`msc serve`, `msc export`), so the
//! decoder returns an error, never a panic, on hostile bytes: sizes are
//! checked before anything is allocated, and every label must index
//! its table (or be the drain).
//!
//! ```text
//! "SEG1"                       magic
//! u32  block_id
//! u32 ×3 vdims                 vertex-grid dims
//! u32 ×3 origin                block origin (vertex coords, full grid)
//! u32  n_mins, u64 ×n          descending representatives (sorted)
//! u32  n_maxs, u64 ×n          ascending representatives (sorted)
//! u32 ×n_verts  min_label
//! u32 ×n_voxels max_label      (u32::MAX = drain)
//! ```

use crate::{BlockSegmentation, DRAIN_LABEL};
use bytes::{BufMut, Bytes};
use msp_telemetry::{Reader, Truncated};

const MAGIC: &[u8; 4] = b"SEG1";

/// Encode one block segmentation.
pub fn serialize(seg: &BlockSegmentation) -> Bytes {
    let mut b = Vec::with_capacity(
        40 + 8 * (seg.mins.len() + seg.maxs.len())
            + 4 * (seg.min_label.len() + seg.max_label.len()),
    );
    b.put_slice(MAGIC);
    b.put_u32_le(seg.block_id);
    for d in seg.vdims {
        b.put_u32_le(d);
    }
    for o in seg.origin {
        b.put_u32_le(o);
    }
    b.put_u32_le(seg.mins.len() as u32);
    for &a in &seg.mins {
        b.put_u64_le(a);
    }
    b.put_u32_le(seg.maxs.len() as u32);
    for &a in &seg.maxs {
        b.put_u64_le(a);
    }
    for &l in &seg.min_label {
        b.put_u32_le(l);
    }
    for &l in &seg.max_label {
        b.put_u32_le(l);
    }
    Bytes::from(b)
}

/// Why a `SEG1` payload did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not a `SEG1` payload at all.
    BadMagic,
    /// The payload ends before a part it declares (checked before that
    /// part is allocated).
    Truncated,
    /// Block dims whose label arrays would overflow `usize` bytes.
    DimsOverflow([u32; 3]),
    /// This many bytes left over after the last label.
    TrailingBytes(usize),
    /// A `vertex` label past the minima table or a `voxel` label past
    /// the maxima table (the drain excepted), with the table's length.
    LabelOutOfRange {
        what: &'static str,
        label: u32,
        len: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad SEG1 magic"),
            WireError::Truncated => write!(f, "truncated SEG1 payload"),
            WireError::DimsOverflow(d) => write!(f, "SEG1 block dims {d:?} overflow"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) in SEG1 payload"),
            WireError::LabelOutOfRange { what, label, len } => {
                let table = if *what == "vertex" {
                    "minima"
                } else {
                    "maxima"
                };
                write!(f, "SEG1 {what} label {label} past {len} {table}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> WireError {
        WireError::Truncated
    }
}

/// Decode a `SEG1` payload.
pub fn deserialize(data: &[u8]) -> Result<BlockSegmentation, WireError> {
    let mut r = Reader::new(data);
    if r.take(4)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let block_id = r.u32()?;
    let vdims = [r.u32()?, r.u32()?, r.u32()?];
    let origin = [r.u32()?, r.u32()?, r.u32()?];
    // label-array byte sizes, `None` when one overflows
    let count = |dims: [u32; 3]| (dims.iter()).try_fold(4usize, |n, &d| n.checked_mul(d as usize));
    let n_verts = count(vdims);
    let n_voxels = count(vdims.map(|d| d.saturating_sub(1)));
    let read_table = |r: &mut Reader<'_>| -> Result<Vec<u64>, WireError> {
        let n = r.count(8)?;
        let table = r.take(8 * n)?.chunks_exact(8);
        Ok(table
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    };
    let mins = read_table(&mut r)?;
    let maxs = read_table(&mut r)?;
    let read_labels = |r: &mut Reader<'_>, bytes: Option<usize>| -> Result<Vec<u32>, WireError> {
        let labels = r.take(bytes.ok_or(WireError::DimsOverflow(vdims))?)?;
        let labels = labels.chunks_exact(4);
        Ok(labels
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    };
    let min_label = read_labels(&mut r, n_verts)?;
    let max_label = read_labels(&mut r, n_voxels)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes(r.rest().len()));
    }
    if let Some(&label) = min_label.iter().find(|&&l| l as usize >= mins.len()) {
        let len = mins.len();
        return Err(WireError::LabelOutOfRange {
            what: "vertex",
            label,
            len,
        });
    }
    if let Some(&label) =
        (max_label.iter()).find(|&&l| l != DRAIN_LABEL && l as usize >= maxs.len())
    {
        let len = maxs.len();
        return Err(WireError::LabelOutOfRange {
            what: "voxel",
            label,
            len,
        });
    }
    Ok(BlockSegmentation {
        block_id,
        vdims,
        origin,
        mins,
        maxs,
        min_label,
        max_label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BlockSegmentation {
        BlockSegmentation {
            block_id: 3,
            vdims: [2, 2, 2],
            origin: [4, 0, 2],
            mins: vec![0, 9],
            maxs: vec![13],
            min_label: vec![0, 0, 1, 1, 0, 0, 1, 1],
            max_label: vec![u32::MAX],
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let enc = serialize(&s);
        assert_eq!(deserialize(&enc).unwrap(), s);
    }

    #[test]
    fn hostile_payloads_never_panic() {
        let bytes = serialize(&sample()).to_vec();
        for cut in 0..bytes.len() {
            let err = deserialize(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated), "prefix {cut}: {err}");
        }
        let mut flipped = bytes.clone();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                // an edit either errs or decodes to a segmentation whose
                // labels all resolve and that writes back the edited bytes
                if let Ok(s) = deserialize(&flipped) {
                    let addrs = (s.min_label.iter().map(|&l| s.min_addr(l)))
                        .chain(s.max_label.iter().map(|&l| s.max_addr(l)));
                    assert_eq!(addrs.count(), 9);
                    assert_eq!(serialize(&s)[..], flipped[..], "byte {at} bit {bit}");
                }
                flipped[at] ^= 1 << bit;
            }
        }
        // a 40-byte header whose label counts overflow
        let mut huge = b"SEG1".to_vec();
        huge.extend(
            [0u32, u32::MAX, u32::MAX, u32::MAX, 0, 0, 0, 0, 0]
                .map(u32::to_le_bytes)
                .concat(),
        );
        assert_eq!(huge.len(), 40);
        assert_eq!(
            deserialize(&huge),
            Err(WireError::DimsOverflow([u32::MAX; 3]))
        );
        // a vertex label past the minima table, a voxel label past the
        // maxima table
        let mut past = sample();
        past.min_label[2] = 7;
        let err = deserialize(&serialize(&past)).unwrap_err();
        assert_eq!(
            err,
            WireError::LabelOutOfRange {
                what: "vertex",
                label: 7,
                len: 2
            }
        );
        assert_eq!(err.to_string(), "SEG1 vertex label 7 past 2 minima");
        let mut past = sample();
        past.max_label[0] = 1;
        assert_eq!(
            deserialize(&serialize(&past)),
            Err(WireError::LabelOutOfRange {
                what: "voxel",
                label: 1,
                len: 1
            })
        );
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(deserialize(b"nope"), Err(WireError::BadMagic));
        assert_eq!(deserialize(b""), Err(WireError::Truncated));
        let enc = serialize(&sample());
        assert_eq!(
            deserialize(&enc[..enc.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut extra = enc.to_vec();
        extra.push(0);
        assert_eq!(deserialize(&extra), Err(WireError::TrailingBytes(1)));
    }
}
