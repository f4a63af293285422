//! Wire serialization of a compacted MS complex: the `MSC3` format.
//!
//! Used both for inter-process merge messages (§IV-F2) and as the block
//! payload of the output file (§IV-G). Geometry is shipped as the
//! reference DAG the complex holds (live arcs only; the hierarchy is
//! dropped — "we remove from memory all but the coarsest levels",
//! §IV-F1). All addresses are **global**, so a receiver can glue without
//! further translation.
//!
//! Layout (fixed-width fields little-endian; `varint` is unsigned LEB128
//! of at most 10 bytes, `zigzag` a varint of the zigzag-mapped signed
//! value):
//!
//! ```text
//! magic     "MSC3"
//! refined   u64 × 3      rx, ry, rz of the full dataset's refined grid
//! n_members u32          then one u32 block id each, sorted
//! n_nodes   u32          then 14 bytes each: addr u64, value f32,
//!                        index u8, boundary u8
//! n_geoms   u32
//! n_steps   u32          total leaf bytes once decoded (`MsComplex::steps`)
//! geom[i]   leaf:   0u8, varint len; when len > 0 also
//!                   zigzag (start − start of the previous non-empty leaf,
//!                   0 for the first), then the len − 1 step codes
//!           cancel: 1u8, varint i−1−first, varint i−1−mid, varint i−1−last
//! n_arcs    u32
//! arc[j]    zigzag upper, zigzag lower, zigzag geom, each minus arc
//!           j − 1's (0 for j = 0)
//! ```
//!
//! A step code is one byte: `0..=5` move −x, +x, −y, +y, −z, +z on the
//! refined grid, and `6` is followed by the next cell's address (8
//! bytes) for a step that is not a unit move. The codes are the bytes
//! [`MsComplex`] holds in memory, so writing a leaf is a copy and reading
//! one is a "every byte < 6" check plus a copy; escapes take a slow
//! path. Payloads of the older `MSC2` format are refused with
//! [`WireError::OlderFormat`].
//!
//! The bytes do not depend on what a complex shares: a complex with a
//! frozen geometry prefix ([`MsComplex::freeze_geometry`]) is written as
//! its [`MsComplex::unshared`] compaction, the reachable geometry
//! depth-first in arc order, exactly as a complex that never froze
//! anything is laid out by [`MsComplex::compact`]. Only serve-side
//! materializations hold a prefix, and only verification code writes
//! them; the pipeline's complexes own all of their geometry and are
//! written as they are.

use crate::skeleton::{leaf_parts, GeomRec, MsComplex, STEP_ESCAPE};
use bytes::{BufMut, Bytes};
use msp_grid::dims::RefinedDims;
use msp_telemetry::{Reader, Truncated};

const MAGIC: &[u8; 4] = b"MSC3";

/// Magic of the format before step codes; still recognised so the error
/// can say what to do.
const MAGIC_V2: &[u8; 4] = b"MSC2";

const TAG_LEAF: u8 = 0;
const TAG_CANCEL: u8 = 1;

/// Fixed-size part: magic, refined dims and the five `u32` counts.
const FIXED_BYTES: usize = 4 + 24 + 5 * 4;
const NODE_BYTES: usize = 14;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Zigzag deltas of an arc's `(upper, lower, geom)` against the previous
/// arc's.
fn arc_deltas(ms: &MsComplex) -> impl Iterator<Item = [u64; 3]> + '_ {
    let mut prev = [0i64; 3];
    ms.arcs.iter().map(move |a| {
        let cur = [a.upper, a.lower, a.geom].map(i64::from);
        let d = [0, 1, 2].map(|k| zigzag(cur[k] - prev[k]));
        prev = cur;
        d
    })
}

/// Serialize a compacted complex (live nodes/arcs only) to bytes.
///
/// Panics if the complex still contains tombstones — call
/// [`MsComplex::compact`] first.
pub fn serialize(ms: &MsComplex) -> Bytes {
    let mut buf = Vec::with_capacity(estimate_size(ms));
    serialize_into(ms, &mut buf);
    debug_assert_eq!(buf.len(), estimate_size(ms));
    Bytes::from(buf)
}

/// [`serialize`], appended to `buf` (which grows as needed): the entry
/// point for a container that embeds payloads, such as a checkpoint.
pub fn serialize_into(ms: &MsComplex, buf: &mut Vec<u8>) {
    assert!(
        ms.nodes.iter().all(|n| n.alive) && ms.arcs.iter().all(|a| a.alive),
        "serialize requires a compacted complex"
    );
    let ms = &*ms.unshared();
    buf.put_slice(MAGIC);
    buf.put_u64_le(ms.refined.rx);
    buf.put_u64_le(ms.refined.ry);
    buf.put_u64_le(ms.refined.rz);
    buf.put_u32_le(ms.member_blocks.len() as u32);
    for &b in &ms.member_blocks {
        buf.put_u32_le(b);
    }
    buf.put_u32_le(ms.nodes.len() as u32);
    for n in &ms.nodes {
        buf.put_u64_le(n.addr);
        buf.put_f32_le(n.value);
        buf.put_u8(n.index);
        buf.put_u8(n.boundary as u8);
    }
    // geometry DAG: records in creation order, children precede parents
    buf.put_u32_le(ms.geoms.len() as u32);
    buf.put_u32_le(ms.steps.len() as u32);
    let mut prev_start = 0u64;
    for (i, g) in ms.geoms.iter().enumerate() {
        match *g {
            GeomRec::Leaf { offset, bytes, len } => {
                buf.push(TAG_LEAF);
                put_varint(buf, u64::from(len));
                if len > 0 {
                    let (start, codes) = leaf_parts(&ms.steps, offset, bytes);
                    put_varint(buf, zigzag(start.wrapping_sub(prev_start) as i64));
                    prev_start = start;
                    buf.extend_from_slice(codes);
                }
            }
            GeomRec::Cancel { first, mid, last } => {
                buf.push(TAG_CANCEL);
                for child in [first, mid, last] {
                    put_varint(buf, (i - 1 - child as usize) as u64);
                }
            }
        }
    }
    buf.put_u32_le(ms.arcs.len() as u32);
    for d in arc_deltas(ms) {
        for v in d {
            put_varint(buf, v);
        }
    }
}

/// Exact serialized size of a compacted complex, in one pass (used for
/// preallocation and as the message size in the communication-cost
/// model).
pub fn estimate_size(ms: &MsComplex) -> usize {
    let ms = &*ms.unshared();
    let mut size = FIXED_BYTES + 4 * ms.member_blocks.len() + NODE_BYTES * ms.nodes.len();
    let mut prev_start = 0u64;
    for (i, g) in ms.geoms.iter().enumerate() {
        size += 1 + match *g {
            GeomRec::Leaf { offset, bytes, len } if len > 0 => {
                let (start, codes) = leaf_parts(&ms.steps, offset, bytes);
                let delta = zigzag(start.wrapping_sub(prev_start) as i64);
                prev_start = start;
                varint_len(u64::from(len)) + varint_len(delta) + codes.len()
            }
            GeomRec::Leaf { .. } => 1,
            GeomRec::Cancel { first, mid, last } => [first, mid, last]
                .iter()
                .map(|&c| varint_len((i - 1 - c as usize) as u64))
                .sum(),
        };
    }
    size + arc_deltas(ms).flatten().map(varint_len).sum::<usize>()
}

/// Errors from [`deserialize`].
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// Not an MSC payload at all.
    BadMagic,
    /// An `MSC2` payload, written by an older build.
    OlderFormat,
    /// The payload ends early, or declares more records or cells than
    /// its remaining bytes could hold (checked before allocating them).
    Truncated,
    /// A varint longer than 10 bytes or larger than `u64::MAX`.
    VarintOverflow,
    /// A step code other than `0..=6`.
    BadStepCode(u8),
    /// A cancel record naming itself or a later record as a child.
    ForwardReference,
    /// An arc delta leading outside the node or geometry records.
    ArcOutOfRange,
    /// Bytes left over after the last arc.
    TrailingBytes,
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (not an MSC3 payload)"),
            WireError::OlderFormat => write!(
                f,
                "MSC2 payload written by an older build; re-run `msc compute` to rewrite it"
            ),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::BadStepCode(c) => write!(f, "unknown step code {c}"),
            WireError::ForwardReference => write!(f, "geometry record forward reference"),
            WireError::ArcOutOfRange => write!(f, "arc endpoint or geometry out of range"),
            WireError::TrailingBytes => write!(f, "trailing bytes after the last arc"),
            WireError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> WireError {
        WireError::Truncated
    }
}

fn varint(r: &mut Reader<'_>) -> Result<u64, WireError> {
    r.varint()?.ok_or(WireError::VarintOverflow)
}

fn read_zigzag(r: &mut Reader<'_>) -> Result<i64, WireError> {
    varint(r).map(unzigzag)
}

/// Deserialize a complex serialized with [`serialize`].
pub fn deserialize(data: &[u8]) -> Result<MsComplex, WireError> {
    match data.get(..4) {
        Some(m) if m == MAGIC => {}
        Some(m) if m == MAGIC_V2 => return Err(WireError::OlderFormat),
        _ => return Err(WireError::BadMagic),
    }
    let mut r = Reader::new(&data[4..]);
    let refined = RefinedDims {
        rx: r.u64()?,
        ry: r.u64()?,
        rz: r.u64()?,
    };
    let n_members = r.count(4)?;
    let members = r.take(4 * n_members)?;
    let members = members
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect();
    let mut ms = MsComplex::new(refined, members);

    let n_nodes = r.count(NODE_BYTES)?;
    ms.reserve(n_nodes, 0, 0, 0);
    for rec in r.take(NODE_BYTES * n_nodes)?.chunks_exact(NODE_BYTES) {
        let addr = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
        let value = f32::from_le_bytes(rec[8..12].try_into().expect("4 bytes"));
        let (index, boundary) = (rec[12], rec[13] != 0);
        if index > 3 {
            return Err(WireError::Corrupt("node index > 3"));
        }
        ms.try_add_node(addr, index, value, boundary)
            .ok_or(WireError::Corrupt("duplicate node address"))?;
    }

    // every record is at least a tag and a varint
    let n_geoms = r.count(2)?;
    let n_steps = r.u32()? as usize;
    // a non-empty leaf decodes to 8 bytes + its codes, and costs at
    // least 3 bytes + its codes on the wire
    if n_steps > r.rest().len().saturating_mul(3) {
        return Err(WireError::Truncated);
    }
    ms.reserve(0, n_geoms, n_steps, 0);
    let mut prev_start = 0u64;
    for i in 0..n_geoms {
        match r.u8()? {
            TAG_LEAF => {
                let len = varint(&mut r)?;
                let offset = ms.steps.len();
                if len > 0 {
                    // every cell after the first costs at least a byte
                    if len - 1 > r.rest().len() as u64 || len > u64::from(u32::MAX) {
                        return Err(WireError::Truncated);
                    }
                    let start = prev_start.wrapping_add(read_zigzag(&mut r)? as u64);
                    prev_start = start;
                    ms.steps.extend_from_slice(&start.to_le_bytes());
                    read_steps(&mut r, len as usize - 1, &mut ms.steps)?;
                    if ms.steps.len() > n_steps {
                        return Err(WireError::Corrupt("leaf bytes exceed the declared total"));
                    }
                }
                ms.seal_leaf(offset, len as usize);
            }
            TAG_CANCEL => {
                let mut child = || -> Result<u32, WireError> {
                    let back = varint(&mut r)?;
                    // children precede parents (DAG in creation order)
                    if back >= i as u64 {
                        return Err(WireError::ForwardReference);
                    }
                    Ok((i as u64 - 1 - back) as u32)
                };
                let (f, m, l) = (child()?, child()?, child()?);
                ms.add_cancel_geom(f, m, l);
            }
            _ => return Err(WireError::Corrupt("unknown geometry record kind")),
        }
    }
    if ms.steps.len() != n_steps {
        return Err(WireError::Corrupt(
            "leaf bytes fall short of the declared total",
        ));
    }

    // every arc is at least three one-byte varints
    let n_arcs = r.count(3)?;
    ms.reserve(0, 0, 0, n_arcs);
    let mut prev = [0i64; 3];
    for _ in 0..n_arcs {
        let mut next = |k: usize, bound: usize| -> Result<u32, WireError> {
            let v = prev[k]
                .checked_add(read_zigzag(&mut r)?)
                .filter(|v| (0..bound as i64).contains(v))
                .ok_or(WireError::ArcOutOfRange)?;
            prev[k] = v;
            Ok(v as u32)
        };
        let (upper, lower, geom) = (next(0, n_nodes)?, next(1, n_nodes)?, next(2, n_geoms)?);
        if ms.nodes[upper as usize].index != ms.nodes[lower as usize].index + 1 {
            return Err(WireError::Corrupt(
                "arc endpoints do not differ by one in index",
            ));
        }
        ms.add_arc(upper, lower, geom);
    }
    if !r.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(ms)
}

/// Append `n` step codes (and the addresses behind escapes) from `r` to
/// `steps`, validating each code.
fn read_steps(r: &mut Reader<'_>, n: usize, steps: &mut Vec<u8>) -> Result<(), WireError> {
    if r.rest()
        .get(..n)
        .is_some_and(|codes| codes.iter().all(|&c| c < STEP_ESCAPE))
    {
        steps.extend_from_slice(r.take(n)?);
        return Ok(());
    }
    for _ in 0..n {
        match r.u8()? {
            STEP_ESCAPE => {
                steps.push(STEP_ESCAPE);
                steps.extend_from_slice(r.take(8)?);
            }
            c if c < STEP_ESCAPE => steps.push(c),
            c => return Err(WireError::BadStepCode(c)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_block_complex;
    use crate::glue::glue_all;
    use crate::simplify::{simplify, SimplifyParams};
    use msp_grid::decomp::Decomposition;
    use msp_grid::{Dims, ScalarField};
    use msp_morse::TraceLimits;

    fn sample() -> MsComplex {
        let dims = Dims::new(8, 8, 8);
        let f = msp_synth::white_noise(dims, 8);
        let d = Decomposition::bisect(dims, 2);
        let (mut ms, _) =
            build_block_complex(&f.extract_block(d.block(0)), &d, TraceLimits::default());
        ms.compact();
        ms
    }

    /// Every block of `field` on `bisect(dims, n_blocks)`, simplified
    /// locally at `t`, glued into one complex, re-simplified at `t` and
    /// compacted. With `tidy` each block is compacted before the glue, as
    /// the pipeline does; without it the glue and the re-simplification
    /// see every tombstone of the local pass.
    fn merged(field: &ScalarField, n_blocks: u32, t: f32, tidy: bool) -> MsComplex {
        let d = Decomposition::bisect(field.dims(), n_blocks);
        let mut cs: Vec<MsComplex> = d
            .blocks()
            .iter()
            .map(|b| {
                let (mut ms, _) =
                    build_block_complex(&field.extract_block(b), &d, TraceLimits::default());
                simplify(&mut ms, SimplifyParams::up_to(t)).unwrap();
                if tidy {
                    ms.compact();
                }
                ms
            })
            .collect();
        let mut root = cs.remove(0);
        glue_all(&mut root, &cs, &d).unwrap();
        simplify(&mut root, SimplifyParams::up_to(t)).unwrap();
        root.compact();
        root
    }

    /// A complex whose leaves are not V-paths: empty, single-cell,
    /// non-unit, wrapping and repeating paths, with cancel records over
    /// them.
    fn escapes() -> MsComplex {
        let mut ms = MsComplex::new(Dims::new(4, 4, 4).refined(), vec![0]);
        let lo = ms.add_node(0, 0, 0.0, false);
        let hi = ms.add_node(u64::MAX, 1, 1.0, true);
        let paths: [&[u64]; 5] = [
            &[],
            &[7],
            &[u64::MAX, 0, 1],
            &[300, 3, 3, 2],
            &[5, 1 << 40, 9],
        ];
        for p in paths {
            let g = ms.add_leaf_geom(p);
            ms.add_arc(hi, lo, g);
        }
        let g = ms.add_cancel_geom(2, 3, 4);
        ms.add_arc(hi, lo, g);
        let g = ms.add_cancel_geom(5, 0, 1);
        ms.add_arc(hi, lo, g);
        ms
    }

    /// The three payloads the hostile-input test mutates, kept to a
    /// couple of KiB since every mutation decodes the whole payload: one
    /// traced block, a glued and re-simplified pair with cancel records,
    /// and [`escapes`].
    fn payloads() -> Vec<Vec<u8>> {
        let dims = Dims::cube(6);
        let noise = msp_synth::white_noise(dims, 4);
        let d = Decomposition::bisect(dims, 2);
        let (mut block, _) =
            build_block_complex(&noise.extract_block(d.block(1)), &d, TraceLimits::default());
        block.compact();
        let glued = merged(&noise, 2, 0.1, true);
        assert!(glued
            .geoms
            .iter()
            .any(|g| matches!(g, GeomRec::Cancel { .. })));
        [block, glued, escapes()]
            .iter()
            .map(|ms| serialize(ms).to_vec())
            .collect()
    }

    #[test]
    fn round_trip() {
        let ms = sample();
        let bytes = serialize(&ms);
        let back = deserialize(&bytes).unwrap();
        assert_eq!(back.nodes.len(), ms.nodes.len());
        assert_eq!(back.arcs.len(), ms.arcs.len());
        assert_eq!(back.member_blocks, ms.member_blocks);
        assert_eq!(back.refined, ms.refined);
        for (a, b) in ms.nodes.iter().zip(&back.nodes) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.index, b.index);
            assert_eq!(a.value, b.value);
            assert_eq!(a.boundary, b.boundary);
        }
        for (a, b) in ms.arcs.iter().zip(&back.arcs) {
            assert_eq!((a.upper, a.lower), (b.upper, b.lower));
            assert_eq!(ms.flatten_geom(a.geom), back.flatten_geom(b.geom));
        }
        back.check_integrity().unwrap();
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a-64 of the MSC3 bytes of three complexes merged from the 8
    /// blocks of `bisect(dims, 8)`, simplified at 2 % of the value range
    /// before and after `glue_all`. These constants change only when the
    /// wire format changes on purpose (or a synthetic generator does):
    /// a change to building, simplifying or gluing that moves them has
    /// changed the complex, not its encoding.
    const PINNED_MSC3: [(&str, u64); 3] = [
        ("noise", 0x52b7_0a8a_9142_b2a7),
        ("plateau", 0xca4d_4f82_bf5f_8045),
        ("sinusoid", 0xe425_4eac_59c7_30c9),
    ];

    #[test]
    fn serialized_bytes_match_the_pinned_hashes() {
        let fields = [
            msp_synth::white_noise(Dims::cube(17), 1),
            msp_synth::plateau(Dims::cube(17), 1, 3),
            msp_synth::sinusoid(33, 4),
        ];
        // each merge twice: compacted between the steps, and not
        let mut got = Vec::new();
        for (f, (name, _)) in fields.iter().zip(PINNED_MSC3) {
            let (lo, hi) = f.min_max();
            for tidy in [true, false] {
                let ms = merged(f, 8, 0.02 * (hi - lo), tidy);
                got.push((name, fnv1a64(&serialize(&ms))));
            }
        }
        let want: Vec<_> = PINNED_MSC3.iter().flat_map(|&p| [p, p]).collect();
        assert_eq!(got, want, "serialized now: {got:#018x?}");
    }

    #[test]
    fn estimate_is_exact() {
        let noise = msp_synth::white_noise(Dims::cube(9), 4);
        let glued = merged(&noise, 4, 0.2, true);
        let cancels = glued
            .geoms
            .iter()
            .filter(|g| matches!(g, GeomRec::Cancel { .. }))
            .count();
        assert!(cancels > 20, "glued complex holds {cancels} cancel records");
        for ms in [sample(), glued, escapes()] {
            assert_eq!(estimate_size(&ms), serialize(&ms).len());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(deserialize(b"nope").unwrap_err(), WireError::BadMagic);
        assert_eq!(deserialize(b"MSC").unwrap_err(), WireError::BadMagic);
        let ms = sample();
        let bytes = serialize(&ms);
        // truncate mid-stream
        let cut = &bytes[..bytes.len() / 2];
        assert!(matches!(
            deserialize(cut).unwrap_err(),
            WireError::Truncated | WireError::Corrupt(_)
        ));
        let mut old = bytes.to_vec();
        old[..4].copy_from_slice(b"MSC2");
        assert_eq!(deserialize(&old).unwrap_err(), WireError::OlderFormat);
        assert!(WireError::OlderFormat.to_string().contains("msc compute"));
        assert!(WireError::BadMagic.to_string().contains("MSC3"));
    }

    /// Byte offset of the first geometry record of a payload.
    fn geom_section(bytes: &[u8]) -> usize {
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let members = word(28);
        let nodes_at = 32 + 4 * members;
        nodes_at + 4 + NODE_BYTES * word(nodes_at) + 8
    }

    #[test]
    fn each_hostile_edit_gets_its_own_error() {
        let ms = escapes();
        let bytes = serialize(&ms).to_vec();
        let geoms = geom_section(&bytes);
        // record 0, the empty leaf, is tag and length 0; record 1 is the
        // one-cell leaf
        assert_eq!(&bytes[geoms..geoms + 3], &[TAG_LEAF, 0, TAG_LEAF]);
        let edit = |at: usize, with: &[u8]| {
            let mut b = bytes.clone();
            b.splice(at..at + 1, with.iter().copied());
            deserialize(&b).unwrap_err()
        };
        // the empty leaf's length as 11 continuation bytes
        assert_eq!(edit(geoms + 1, &[0xFF; 11]), WireError::VarintOverflow);
        // the one-cell leaf claims more cells than bytes remain
        assert_eq!(
            edit(geoms + 3, &[0xFF, 0xFF, 0xFF, 0x7F]),
            WireError::Truncated
        );
        // the first step code of leaf 2 ([MAX, 0, 1], start delta −8) → 7
        let leaf2 = geoms + 2 + 3 + 3;
        assert_eq!(bytes[leaf2 - 3..leaf2 + 2], [TAG_LEAF, 3, 15, 1, 1]);
        assert_eq!(edit(leaf2, &[7]), WireError::BadStepCode(7));
        // an escape whose address is cut short: leaf 4 ends in one
        let mut cut = bytes.clone();
        let last_escape = cut.iter().rposition(|&b| b == STEP_ESCAPE).unwrap();
        cut.truncate(last_escape + 4);
        assert_eq!(deserialize(&cut).unwrap_err(), WireError::Truncated);
        // arcs: 7 × three one-byte deltas after their count; before
        // them the two cancel records, 4 bytes each
        let arcs_at = bytes.len() - 3 * ms.arcs.len();
        let cancel = arcs_at - 4 - 2 * 4;
        assert_eq!(bytes[cancel..cancel + 4], [TAG_CANCEL, 2, 1, 0]);
        assert_eq!(last_escape, cancel - 9);
        // record 5's `first` back-reference → 5
        assert_eq!(edit(cancel + 1, &[5]), WireError::ForwardReference);
        // the first arc's upper delta → −1
        assert_eq!(edit(arcs_at, &[1]), WireError::ArcOutOfRange);
        // the last arc's upper delta → i64::MAX, on top of upper = 1
        let last_arc = bytes.len() - 3;
        let max = [0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(edit(last_arc, &max), WireError::ArcOutOfRange);
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(deserialize(&long).unwrap_err(), WireError::TrailingBytes);
    }

    #[test]
    fn hostile_payloads_never_panic() {
        for bytes in payloads() {
            assert!(deserialize(&bytes).is_ok());
            for cut in 0..bytes.len() {
                let err = deserialize(&bytes[..cut]).unwrap_err();
                let want = if cut < 4 {
                    WireError::BadMagic
                } else {
                    WireError::Truncated
                };
                assert_eq!(err, want, "prefix {cut}");
            }
            let geoms = geom_section(&bytes);
            let mut flipped = bytes.clone();
            for at in geoms - 8..bytes.len() {
                for bit in 0..8 {
                    flipped[at] ^= 1 << bit;
                    if let Ok(ms) = deserialize(&flipped) {
                        // whatever decodes must be usable
                        for a in &ms.arcs {
                            ms.flatten_geom(a.geom);
                        }
                        let _ = serialize(&ms);
                    }
                    flipped[at] ^= 1 << bit;
                }
            }
            // every byte from the first record on, which covers each
            // varint, replaced by ten 0xFF
            for at in geoms..bytes.len() {
                let mut b = bytes.clone();
                b.splice(at..at + 1, [0xFF; 10]);
                let _ = deserialize(&b);
            }
        }
    }
}
