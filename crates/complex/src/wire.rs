//! Wire serialization of an MS complex: the `MSC3` format.
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
//! A payload holds a complex's compaction ([`MsComplex::compact`]): the
//! live nodes and arcs in order and the geometry the live arcs reach,
//! laid out by the one geometry walker (`skeleton::GeomWalk`) children
//! first in arc order. [`serialize`] writes those bytes straight from the
//! complex through the same walk, tombstones, unreached records and a
//! frozen prefix ([`MsComplex::freeze_geometry`]) included, so a complex
//! serializes the same whether it was compacted after every pass, only
//! at the end, or never. The pipeline relies on that: it ships, checkpoints and
//! writes its roots with the tombstones of their re-simplifications.
//!
//! Reading is one parser, which makes every structural check whichever
//! sink takes the records: [`deserialize`] builds a complex straight
//! from them, and [`glue_from_wire`](crate::glue::glue_from_wire) reads
//! them through a `Payload` that leaves them in the payload's bytes, so
//! the incoming complex is never built; its records are the same
//! `GeomView`s a complex yields, and the one geometry walker
//! (`skeleton::GeomWalk`) reads either. Besides the layout, the parser
//! bounds what the records decode to: a cancel record decodes to the
//! cells of its three children, and a record that decodes to more cells
//! than `n_steps` (a cell takes at least one leaf byte) is refused, and
//! so is one whose in-order walk visits more than `2·(n_steps +
//! n_geoms)` records, so records naming one child many times cannot make
//! a short payload decode to exponentially many cells, nor make a walk
//! visit exponentially many zero-cell records.

use crate::glue::Incoming;
use crate::skeleton::{
    Arc, GeomId, GeomSource, GeomView, GeomWalk, Leaf, MsComplex, Node, STEP_ESCAPE, UNMAPPED,
};
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

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// The compaction of a complex as the serializer reads it, built without
/// copying a record: the live nodes and live arcs in order, and the
/// geometry records the live arcs reach in the one walker's post-order
/// ([`GeomWalk::renumber`]) arc by arc — the layout
/// [`MsComplex::compact`] gives a complex that shares no frozen prefix.
/// Ids are remapped through dense old-id → packed-id tables, so
/// tombstones and a frozen prefix cost one table entry each; a compacted
/// complex packs to itself.
struct Packing<'a> {
    ms: &'a MsComplex,
    /// Old node id → packed id (`UNMAPPED` for a dead node).
    nodes: Vec<u32>,
    n_nodes: usize,
    n_arcs: usize,
    /// The reached geometry records' old ids, in packed order.
    order: Vec<GeomId>,
    /// Old geometry id → packed id.
    geoms: GeomWalk,
    /// Leaf bytes of the reached records (`MsComplex::steps` decoded).
    n_steps: usize,
}

impl<'a> Packing<'a> {
    fn of(ms: &'a MsComplex) -> Packing<'a> {
        let mut nodes = vec![UNMAPPED; ms.nodes.len()];
        let mut n_nodes = 0;
        for (packed, _) in nodes.iter_mut().zip(&ms.nodes).filter(|(_, n)| n.alive) {
            *packed = n_nodes as u32;
            n_nodes += 1;
        }
        let (mut geoms, mut order, mut n_steps, mut n_arcs) = (GeomWalk::default(), vec![], 0, 0);
        for a in ms.arcs.iter().filter(|a| a.alive) {
            n_arcs += 1;
            geoms.renumber(ms, a.geom, |g, view, _| {
                if let GeomView::Leaf(leaf) = view {
                    n_steps += leaf.bytes();
                }
                order.push(g);
                (order.len() - 1) as GeomId
            });
        }
        Packing {
            ms,
            nodes,
            n_nodes,
            n_arcs,
            order,
            geoms,
            n_steps,
        }
    }

    /// An upper bound of [`Packing::write`]'s output length, from the
    /// counts alone: a varint of a `u32` id or delta takes at most 5
    /// bytes and a leaf's start delta at most 10, where its start takes 8
    /// bytes of `n_steps`.
    fn bound(&self) -> usize {
        let fixed = FIXED_BYTES + 4 * self.ms.member_blocks.len() + NODE_BYTES * self.n_nodes;
        fixed + 16 * self.order.len() + self.n_steps + 15 * self.n_arcs
    }

    fn write(&self, buf: &mut Vec<u8>) {
        let ms = self.ms;
        buf.put_slice(MAGIC);
        buf.put_u64_le(ms.refined.rx);
        buf.put_u64_le(ms.refined.ry);
        buf.put_u64_le(ms.refined.rz);
        buf.put_u32_le(ms.member_blocks.len() as u32);
        for &b in &ms.member_blocks {
            buf.put_u32_le(b);
        }
        buf.put_u32_le(self.n_nodes as u32);
        for n in ms.nodes.iter().filter(|n| n.alive) {
            buf.put_u64_le(n.addr);
            buf.put_f32_le(n.value);
            buf.put_u8(n.index);
            buf.put_u8(n.boundary as u8);
        }
        // geometry DAG: children precede parents
        buf.put_u32_le(self.order.len() as u32);
        buf.put_u32_le(self.n_steps as u32);
        let mut prev_start = 0u64;
        for (i, &g) in self.order.iter().enumerate() {
            match ms.geom(g) {
                GeomView::Leaf(Leaf { start, codes, len }) => {
                    buf.push(TAG_LEAF);
                    put_varint(buf, u64::from(len));
                    if len > 0 {
                        put_varint(buf, zigzag(start.wrapping_sub(prev_start) as i64));
                        prev_start = start;
                        buf.extend_from_slice(codes);
                    }
                }
                GeomView::Cancel(children) => {
                    buf.push(TAG_CANCEL);
                    for c in children {
                        put_varint(buf, (i - 1 - self.geoms.new_id(c) as usize) as u64);
                    }
                }
            }
        }
        buf.put_u32_le(self.n_arcs as u32);
        let mut prev = [0i64; 3];
        for a in ms.arcs.iter().filter(|a| a.alive) {
            let cur = [
                self.nodes[a.upper as usize],
                self.nodes[a.lower as usize],
                self.geoms.new_id(a.geom),
            ]
            .map(i64::from);
            for (c, p) in cur.iter().zip(prev) {
                put_varint(buf, zigzag(c - p));
            }
            prev = cur;
        }
    }
}

/// Serialize a complex: the bytes of its compaction, written without
/// building it. Dead nodes and arcs are skipped, ids are remapped and
/// only the geometry the live arcs reach is written, so a complex with
/// tombstones (or a frozen prefix) gives exactly the bytes of its
/// [`MsComplex::compact`]ion.
pub fn serialize(ms: &MsComplex) -> Bytes {
    let packing = Packing::of(ms);
    let mut buf = Vec::with_capacity(packing.bound());
    packing.write(&mut buf);
    Bytes::from(buf)
}

/// [`serialize`], appended to `buf` (which grows as needed): the entry
/// point for a container that embeds payloads, such as a checkpoint.
pub fn serialize_into(ms: &MsComplex, buf: &mut Vec<u8>) {
    Packing::of(ms).write(buf);
}

/// Errors from [`deserialize`].
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Where [`parse`] puts an MSC3 payload's records as it checks them:
/// straight into a complex ([`deserialize`]) or into a [`Payload`] view
/// (the glue). The checks are the parser's, whichever the sink.
trait Records<'a> {
    /// The header and the node records ([`NODE_BYTES`] each, every index
    /// ≤ 3), before any geometry.
    fn nodes(
        &mut self,
        refined: RefinedDims,
        members: Vec<u32>,
        nodes: &'a [u8],
    ) -> Result<(), WireError>;
    /// Room for `n_geoms` more records decoding to `n_steps` leaf bytes,
    /// or for `n_arcs` more arcs (counts checked against the bytes left).
    fn reserve(&mut self, n_geoms: usize, n_steps: usize, n_arcs: usize);
    fn geom(&mut self, g: GeomView<'a>);
    /// An arc's `[upper, lower, geom]`, in range and one index apart.
    fn arc(&mut self, arc: [u32; 3]);
}

/// Check an MSC3 payload, handing each record to `out` in order.
fn parse<'a>(data: &'a [u8], out: &mut impl Records<'a>) -> Result<(), WireError> {
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

    let n_nodes = r.count(NODE_BYTES)?;
    let nodes = r.take(NODE_BYTES * n_nodes)?;
    let index = |n: usize| nodes[NODE_BYTES * n + 12];
    if (0..n_nodes).any(|n| index(n) > 3) {
        return Err(WireError::Corrupt("node index > 3"));
    }
    out.nodes(refined, members, nodes)?;

    // every record is at least a tag and a varint
    let n_geoms = r.count(2)?;
    let n_steps = r.u32()? as usize;
    // a non-empty leaf decodes to 8 bytes + its codes, and costs at
    // least 3 bytes + its codes on the wire
    if n_steps > r.rest().len().saturating_mul(3) {
        return Err(WireError::Truncated);
    }
    out.reserve(n_geoms, n_steps, 0);
    let (mut prev_start, mut steps) = (0u64, 0usize);
    // per record, the cells it decodes to and the records an in-order
    // walk of it visits (1 for a leaf, 1 plus its children's for a
    // cancel, saturating). No record may decode to more cells than the
    // leaf bytes hold (a cell takes at least one), nor walk more records
    // than twice the leaf bytes and records together (a walk of
    // non-empty leaves visits at most 1.5 per cell; the budget stays
    // below the saturated count), so cancel records naming one child
    // many times cannot make a short payload decode to exponentially
    // many cells, nor walk exponentially many empty ones
    let walk_budget = (2 * (n_steps as u64 + n_geoms as u64)).min(u64::from(u32::MAX - 1));
    let mut cells: Vec<(u32, u32)> = Vec::with_capacity(n_geoms);
    for i in 0..n_geoms {
        let rec = match r.u8()? {
            TAG_LEAF => {
                let len = varint(&mut r)?;
                let (mut start, mut codes) = (0, &[][..]);
                if len > 0 {
                    // every cell after the first costs at least a byte
                    if len - 1 > r.rest().len() as u64 || len > u64::from(u32::MAX) {
                        return Err(WireError::Truncated);
                    }
                    start = prev_start.wrapping_add(read_zigzag(&mut r)? as u64);
                    prev_start = start;
                    codes = step_codes(&mut r, len as usize - 1)?;
                    steps += 8 + codes.len();
                    if steps > n_steps {
                        return Err(WireError::Corrupt("leaf bytes exceed the declared total"));
                    }
                }
                let len = len as u32;
                cells.push((len, 1));
                GeomView::Leaf(Leaf { start, codes, len })
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
                let (first, mid, last) = (child()?, child()?, child()?);
                let (mut len, mut walk) = (0u64, 1u32);
                for c in [first, mid, last] {
                    let (c_len, c_walk) = cells[c as usize];
                    len += u64::from(c_len);
                    walk = walk.saturating_add(c_walk);
                }
                if len > n_steps as u64 {
                    return Err(WireError::Corrupt(
                        "geometry record decodes to more cells than the leaf bytes hold",
                    ));
                }
                if u64::from(walk) > walk_budget {
                    return Err(WireError::Corrupt(
                        "geometry record walks more records than the payload bounds",
                    ));
                }
                cells.push((len as u32, walk));
                GeomView::Cancel([first, mid, last])
            }
            _ => return Err(WireError::Corrupt("unknown geometry record kind")),
        };
        out.geom(rec);
    }
    if steps != n_steps {
        return Err(WireError::Corrupt(
            "leaf bytes fall short of the declared total",
        ));
    }

    // every arc is at least three one-byte varints
    let n_arcs = r.count(3)?;
    out.reserve(0, 0, n_arcs);
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
        let arc = [next(0, n_nodes)?, next(1, n_nodes)?, next(2, n_geoms)?];
        if index(arc[0] as usize) != index(arc[1] as usize) + 1 {
            return Err(WireError::Corrupt(
                "arc endpoints do not differ by one in index",
            ));
        }
        out.arc(arc);
    }
    if !r.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(())
}

/// A complex decodes straight into itself: the one pass of
/// [`deserialize`].
impl<'a> Records<'a> for MsComplex {
    fn nodes(
        &mut self,
        refined: RefinedDims,
        members: Vec<u32>,
        nodes: &'a [u8],
    ) -> Result<(), WireError> {
        *self = MsComplex::new(refined, members);
        MsComplex::reserve(self, nodes.len() / NODE_BYTES, 0, 0, 0);
        for n in node_records(nodes) {
            if self.node_at_or_add(n.addr, n.index, n.value, n.boundary).1 {
                return Err(WireError::Corrupt("duplicate node address"));
            }
        }
        Ok(())
    }

    fn reserve(&mut self, n_geoms: usize, n_steps: usize, n_arcs: usize) {
        MsComplex::reserve(self, 0, n_geoms, n_steps, n_arcs);
    }

    /// Records keep their ids: children precede parents already.
    fn geom(&mut self, g: GeomView<'a>) {
        self.add_geom(g);
    }

    /// Arcs are indexed once, after the last ([`deserialize`]).
    fn arc(&mut self, [upper, lower, geom]: [u32; 3]) {
        self.arcs.push(Arc {
            upper,
            lower,
            geom,
            alive: true,
        });
    }
}

/// The records of a payload's node section, each alive.
fn node_records(nodes: &[u8]) -> impl Iterator<Item = Node> + '_ {
    nodes.chunks_exact(NODE_BYTES).map(|rec| Node {
        addr: u64::from_le_bytes(rec[..8].try_into().expect("8 bytes")),
        value: f32::from_le_bytes(rec[8..12].try_into().expect("4 bytes")),
        index: rec[12],
        boundary: rec[13] != 0,
        alive: true,
        cancel_persistence: f32::INFINITY,
    })
}

/// An MSC3 payload with every structural check [`deserialize`] makes
/// done and nothing copied: the node records stay in the payload, each
/// geometry record is a [`GeomView`] pointing into it, and the arcs are
/// decoded ids. [`glue_from_wire`](crate::glue::glue_from_wire) reads
/// through it. Whether two nodes share an address is left to the glue,
/// which has the root's index to tell.
#[derive(Default)]
pub(crate) struct Payload<'a> {
    refined: RefinedDims,
    members: Vec<u32>,
    /// The node records, [`NODE_BYTES`] each, every index ≤ 3.
    nodes: &'a [u8],
    geoms: Vec<GeomView<'a>>,
    /// Each arc's `[upper, lower, geom]`, in range and one index apart.
    arcs: Vec<[u32; 3]>,
}

impl<'a> Records<'a> for Payload<'a> {
    fn nodes(
        &mut self,
        refined: RefinedDims,
        members: Vec<u32>,
        nodes: &'a [u8],
    ) -> Result<(), WireError> {
        (self.refined, self.members, self.nodes) = (refined, members, nodes);
        Ok(())
    }

    fn reserve(&mut self, n_geoms: usize, _: usize, n_arcs: usize) {
        self.geoms.reserve(n_geoms);
        self.arcs.reserve(n_arcs);
    }

    fn geom(&mut self, g: GeomView<'a>) {
        self.geoms.push(g);
    }

    fn arc(&mut self, arc: [u32; 3]) {
        self.arcs.push(arc);
    }
}

impl<'a> Payload<'a> {
    pub(crate) fn parse(data: &'a [u8]) -> Result<Payload<'a>, WireError> {
        let mut p = Payload::default();
        parse(data, &mut p)?;
        Ok(p)
    }
}

/// A payload's records are read in place.
impl GeomSource for Payload<'_> {
    fn refined(&self) -> RefinedDims {
        self.refined
    }

    fn n_geom_ids(&self) -> usize {
        self.geoms.len()
    }

    fn geom(&self, g: GeomId) -> GeomView<'_> {
        self.geoms[g as usize]
    }
}

/// A payload glues from its bytes.
impl Incoming for Payload<'_> {
    fn member_blocks(&self) -> &[u32] {
        &self.members
    }

    fn nodes(&self) -> impl Iterator<Item = Node> {
        node_records(self.nodes)
    }

    fn arcs(&self) -> impl Iterator<Item = [u32; 3]> {
        self.arcs.iter().copied()
    }
}

/// Deserialize a complex serialized with [`serialize`]: its compaction,
/// with every node alive.
pub fn deserialize(data: &[u8]) -> Result<MsComplex, WireError> {
    let mut ms = MsComplex::default();
    parse(data, &mut ms)?;
    ms.relink();
    Ok(ms)
}

/// The `n` step codes (and the addresses behind escapes) at the front
/// of `r`, each code checked.
fn step_codes<'a>(r: &mut Reader<'a>, n: usize) -> Result<&'a [u8], WireError> {
    let rest = r.rest();
    if rest
        .get(..n)
        .is_some_and(|codes| codes.iter().all(|&c| c < STEP_ESCAPE))
    {
        return Ok(r.take(n)?);
    }
    for _ in 0..n {
        match r.u8()? {
            STEP_ESCAPE => {
                r.take(8)?;
            }
            c if c < STEP_ESCAPE => {}
            c => return Err(WireError::BadStepCode(c)),
        }
    }
    Ok(&rest[..rest.len() - r.rest().len()])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::build::build_block_complex;
    use crate::glue::glue_all;
    use crate::simplify::{simplify, SimplifyParams};
    use crate::skeleton::GeomRec;
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

    /// [`merged_loose`], compacted.
    fn merged(field: &ScalarField, n_blocks: u32, t: f32, tidy: bool) -> MsComplex {
        let mut root = merged_loose(field, n_blocks, t, tidy);
        root.compact();
        root
    }

    /// Every block of `field` on `bisect(dims, n_blocks)`, simplified
    /// locally at `t`, glued into one complex and re-simplified at `t`,
    /// with the tombstones of the re-simplification. With `tidy` each
    /// block is compacted before the glue, as the pipeline does; without
    /// it the glue and the re-simplification see every tombstone of the
    /// local pass.
    fn merged_loose(field: &ScalarField, n_blocks: u32, t: f32, tidy: bool) -> MsComplex {
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

    /// A complex over `refined` whose one arc is the leaf `path` under
    /// `levels` cancel records, each made by `level` from the record
    /// before it ([`tripled`], [`chained`]).
    pub(crate) fn nested_cancels(
        refined: RefinedDims,
        path: &[u64],
        levels: u32,
        level: fn(&mut MsComplex, GeomId) -> GeomId,
    ) -> MsComplex {
        let mut ms = MsComplex::new(refined, vec![0]);
        let lo = ms.add_node(0, 0, 0.0, false);
        let hi = ms.add_node(1, 1, 1.0, false);
        let mut g = ms.add_leaf_geom(path);
        for _ in 0..levels {
            g = level(&mut ms, g);
        }
        ms.add_arc(hi, lo, g);
        ms
    }

    /// A cancel record naming `g` three times: over the leaf `[1, 0]` the
    /// arc decodes to 2 · 3^levels cells, from a payload that grows by
    /// four bytes a level; over an empty leaf it decodes to none, yet an
    /// in-order walk visits 3^levels leaves.
    pub(crate) fn tripled(ms: &mut MsComplex, g: GeomId) -> GeomId {
        ms.add_cancel_geom(g, g, g)
    }

    /// `g` reversed between two empty leaves: the arc decodes to the
    /// leaf's two cells at any depth, so every depth is within the
    /// parser's cell bound.
    pub(crate) fn chained(ms: &mut MsComplex, g: GeomId) -> GeomId {
        let empty = ms.add_leaf_geom(&[]);
        ms.add_cancel_geom(empty, g, empty)
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

    /// The complex with every tombstone and unreached record dropped.
    fn compacted(ms: &MsComplex) -> MsComplex {
        let mut packed = ms.clone();
        packed.compact();
        packed
    }

    #[test]
    fn a_loose_complex_serializes_as_its_compaction() {
        let fields = [
            msp_synth::white_noise(Dims::cube(17), 1),
            msp_synth::plateau(Dims::cube(17), 1, 3),
            msp_synth::sinusoid(33, 4),
        ];
        for (f, (name, want)) in fields.iter().zip(PINNED_MSC3) {
            let (lo, hi) = f.min_max();
            for tidy in [true, false] {
                let loose = merged_loose(f, 8, 0.02 * (hi - lo), tidy);
                assert!(
                    loose.nodes.iter().any(|n| !n.alive),
                    "{name}: no tombstones"
                );
                let bytes = serialize(&loose);
                assert_eq!(bytes, serialize(&compacted(&loose)), "{name}");
                assert_eq!(fnv1a64(&bytes), want, "{name}");
                let mut into = vec![7];
                serialize_into(&loose, &mut into);
                assert_eq!(into[1..], bytes[..], "{name}");
            }
        }

        // escapes(), and escapes() with a dead node, dead arcs and a
        // record only a dead arc reaches
        let mut ms = escapes();
        assert_eq!(serialize(&ms), serialize(&compacted(&ms)));
        let (hi, lo) = (ms.arcs[0].upper, ms.arcs[0].lower);
        let dead = ms.add_node(33, 0, 0.5, false);
        let g = ms.add_leaf_geom(&[40, 41]);
        let a = ms.add_arc(hi, dead, g);
        ms.kill_arc(a);
        ms.kill_node(dead, 0.5);
        let g = ms.add_cancel_geom(6, 3, 1);
        ms.add_arc(hi, lo, g);
        for a in [0, 3, 6] {
            ms.kill_arc(a);
        }
        let bytes = serialize(&ms);
        assert_eq!(bytes, serialize(&compacted(&ms)));
        let back = deserialize(&bytes).unwrap();
        assert_eq!(back.nodes.len(), 2);
        assert_eq!(back.arcs.len(), 5);
        let live = ms.arcs.iter().filter(|a| a.alive);
        for (a, b) in live.zip(&back.arcs) {
            assert_eq!(ms.flatten_geom(a.geom), back.flatten_geom(b.geom));
        }
    }

    #[test]
    fn a_frozen_prefix_complex_serializes_as_its_compaction() {
        // a materialization shares its base's records and owns only what
        // its own cancellations add, with tombstones on both sides
        let noise = msp_synth::white_noise(Dims::cube(9), 4);
        let base = merged(&noise, 4, 0.05, true);
        let mut frozen = base.clone();
        frozen.freeze_geometry();
        let mut view = frozen.clone();
        let mut plain = base.clone();
        for ms in [&mut view, &mut plain] {
            simplify(ms, SimplifyParams::up_to(0.3)).unwrap();
        }
        assert!(view.shares_geometry_with(&frozen));
        assert!(view.nodes.iter().any(|n| !n.alive), "no tombstones");
        let bytes = serialize(&plain);
        assert_eq!(serialize(&view), bytes);
        assert_eq!(serialize(&compacted(&view)), bytes);
        assert_eq!(serialize(&frozen), serialize(&base));
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
                            ms.geom_len(a.geom);
                        }
                        ms.check_integrity().unwrap();
                        assert_eq!(serialize(&compacted(&ms)), serialize(&ms));
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
        // one level decodes to 6 cells of the leaf's 9 bytes; at 16
        // levels a payload of under 160 bytes would decode to 86,093,442
        let refined = Dims::cube(4).refined();
        let one = deserialize(&serialize(&nested_cancels(refined, &[1, 0], 1, tripled))).unwrap();
        assert_eq!(one.geom_len(one.arcs[0].geom), 6);
        let bytes = serialize(&nested_cancels(refined, &[1, 0], 16, tripled));
        assert!(bytes.len() < 160, "{} bytes", bytes.len());
        assert_eq!(
            deserialize(&bytes).unwrap_err(),
            WireError::Corrupt("geometry record decodes to more cells than the leaf bytes hold")
        );
    }

    #[test]
    fn deep_cancel_chains_walk_on_the_heap() {
        // every walk of a chain as deep as a payload the parser accepts,
        // on the test thread's stack: each one recursing per level would
        // overflow it
        let dims = Dims::cube(4);
        let chain = nested_cancels(dims.refined(), &[1, 0], 200_000, chained);
        let bytes = serialize(&chain);
        let mut ms = deserialize(&bytes).unwrap();
        let g = ms.arcs[0].geom;
        assert_eq!(ms.geom_len(g), 2);
        assert_eq!(ms.flatten_geom(g), [1, 0]);
        assert_eq!(serialize(&ms), bytes);
        ms.check_integrity().unwrap();
        ms.compact();
        assert_eq!(ms.flatten_geom(ms.arcs[0].geom), [1, 0]);
        assert_eq!(serialize(&ms), bytes);

        // glued straight from the payload into an empty root
        let d = Decomposition::bisect(dims, 1);
        let mut root = MsComplex::new(dims.refined(), vec![]);
        crate::glue::glue_from_wire(&mut root, &bytes, &d).unwrap();
        root.compact();
        assert_eq!(root.flatten_geom(root.arcs[0].geom), [1, 0]);
        assert_eq!(serialize(&root), bytes);
    }

    #[test]
    fn zero_cell_cancel_dags_are_refused_at_parse() {
        // an empty leaf under `cancel(g, g, g)` levels decodes to no
        // cells, so the cell bound passes it at any depth, but an
        // in-order walk of 30 levels would visit 3^30 records
        let dims = Dims::cube(4);
        for levels in [18, 30] {
            let bytes = serialize(&nested_cancels(dims.refined(), &[], levels, tripled));
            assert!(bytes.len() < 250, "{} bytes", bytes.len());
            let t0 = std::time::Instant::now();
            assert_eq!(
                deserialize(&bytes).unwrap_err(),
                WireError::Corrupt("geometry record walks more records than the payload bounds")
            );
            let d = Decomposition::bisect(dims, 1);
            let mut root = MsComplex::new(dims.refined(), vec![]);
            assert!(crate::glue::glue_from_wire(&mut root, &bytes, &d).is_err());
            let took = t0.elapsed();
            assert!(
                took.as_millis() < 500,
                "{levels} levels refused in {took:?}"
            );
        }
        // one level is within the budget, and walks its four records
        let one =
            deserialize(&serialize(&nested_cancels(dims.refined(), &[], 1, tripled))).unwrap();
        assert_eq!(one.geom_len(one.arcs[0].geom), 0);
    }
}
