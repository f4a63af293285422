//! Flat-array storage of the MS complex 1-skeleton.
//!
//! Nodes and arcs are constant-sized records in `Vec`s (\[11\]); arc
//! geometry is a DAG of geometry records — a `Leaf` is a range of one
//! byte buffer holding a V-path as its start address plus one direction
//! code per step, and a `Cancel` record references the three geometries
//! a cancellation concatenates (paper §IV-E: "the geometry of the new
//! arcs is inherited from the deleted arcs, and a new geometry object is
//! created that references the geometry objects that were merged").
//! Deletion is by tombstone (`alive` flags) so record ids stay stable;
//! [`MsComplex::compact`] rebuilds dense arrays. The pipeline compacts a
//! block once, after its local simplification, and a merged complex only
//! where compacted node ids are named (hierarchy recording): otherwise a
//! complex is glued, re-simplified, shipped, checkpointed and written with
//! its tombstones, since every pass sees the live records in the same
//! relative order either way and the wire format writes a complex's
//! compaction without building it (`wire::serialize`), laid out by the
//! same walk.
//!
//! Every walk of a geometry DAG is one walker, `GeomWalk`, on an explicit
//! stack: a chain of cancel records is as deep as its payload is long, so
//! no walk recurses. It reads records as `GeomView`s through
//! `GeomSource`, from a complex or straight from a parsed payload
//! (`wire::Payload`), and runs a memoized post-order copy/renumber
//! ([`MsComplex::compact`], the serializer's packing order, the copy
//! into a glued root) and an in-order walk over
//! the leaves in either direction ([`MsComplex::flatten_geom`],
//! [`MsComplex::geom_len`], the glue's duplicate-arc test).
//!
//! Every node's incidence list is a segment `(start, len, cap)` of one
//! arena vector of arc ids (`Incidence`), so building, compacting and
//! cloning a complex allocate nothing per node. An append writes in place
//! while its segment has room; the segment that ends the arena grows in
//! place; any other full segment moves to the arena's end with doubled
//! room (at least 4), leaving its old space as garbage. Callers that
//! know their arcs in advance make the room first
//! (`MsComplex::reserve_incidence`: the glue, the cancellation splice),
//! so that a list moves at most once for them; the block build,
//! [`MsComplex::compact`] and `wire::deserialize` lay the arena out as
//! exact CSR at once, and [`MsComplex::prune_dead_adjacency`] repacks it
//! in place, segments in arena order, so every entry moves down; a list
//! keeps its room there, as a pruned `Vec` keeps its capacity. A list
//! holds its arcs in id order, dead ones included until a prune: the
//! order the splice reads its `above × below` pairs in, so arc ids and
//! bytes do not depend on the layout. Per-node intrusive linked lists
//! (one next link per arc end) would avoid the garbage, but make every
//! list step a dependent load: they made the hierarchy record 1.4–1.6×
//! slower.
//!
//! The geometry records are a shared frozen prefix plus the records this
//! complex owns. [`MsComplex::freeze_geometry`] moves every record and
//! leaf byte behind an `Arc`; a clone shares that prefix, so it holds
//! only the records it creates itself (the splices of a replay). A
//! record id below the prefix length names a shared record, one at or
//! above it an owned record. The compute pipeline never freezes, so its
//! prefix is empty and every record is owned.

use msp_grid::coord::mix_address;
use msp_grid::dims::RefinedDims;
use msp_grid::RCoord;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

pub type NodeId = u32;
pub type ArcId = u32;
pub type GeomId = u32;

/// "Not mapped yet" in the dense old-id → new-id tables of
/// [`MsComplex::compact`], the serializer and `GeomWalk`.
pub(crate) const UNMAPPED: u32 = u32::MAX;

/// Step code announcing that the next cell's address follows verbatim
/// (8 bytes, little-endian) instead of a unit move; codes `0..=5` are the
/// moves −x, +x, −y, +y, −z, +z on the refined grid.
pub(crate) const STEP_ESCAPE: u8 = 6;

/// Address change of each unit-move step code, in wrapping `u64`
/// arithmetic (addresses are `x + rx·(y + ry·z)`).
fn step_deltas(refined: &RefinedDims) -> [u64; 6] {
    let (x, y, z) = (1u64, refined.rx, refined.rx.wrapping_mul(refined.ry));
    [
        x.wrapping_neg(),
        x,
        y.wrapping_neg(),
        y,
        z.wrapping_neg(),
        z,
    ]
}

/// The address index's hashing: the splitmix64 finalizer
/// ([`mix_address`]) of the address xor a per-process random key — one
/// multiply-xorshift chain per probe, where the std hasher runs SipHash.
/// The key keeps addresses read from a payload from being chosen to
/// collide.
#[derive(Debug, Clone, Copy)]
struct AddrHashing(u64);

impl Default for AddrHashing {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        AddrHashing(*KEY.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for AddrHashing {
    type Hasher = AddrHasher;

    fn build_hasher(&self) -> AddrHasher {
        AddrHasher(self.0)
    }
}

/// See [`AddrHashing`].
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, addr: u64) {
        self.0 = mix_address(self.0 ^ addr);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The cells of one leaf geometry, decoded from its step codes as they
/// are read ([`Leaf::cells`]).
pub(crate) struct LeafCells<'a> {
    next: Option<u64>,
    codes: &'a [u8],
    deltas: [u64; 6],
}

impl Iterator for LeafCells<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let addr = self.next?;
        let codes = self.codes;
        self.next = match codes.split_first() {
            None => None,
            Some((&STEP_ESCAPE, rest)) => {
                let (to, rest) = rest.split_first_chunk::<8>().expect("escape address");
                self.codes = rest;
                Some(u64::from_le_bytes(*to))
            }
            Some((&code, rest)) => {
                self.codes = rest;
                Some(addr.wrapping_add(self.deltas[code as usize]))
            }
        };
        Some(addr)
    }
}

/// A leaf geometry as every walk reads it: `len` cells from `start`
/// along the step codes `codes` (escapes whole); `start` is 0 and `codes`
/// empty when `len` is 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Leaf<'a> {
    pub start: u64,
    pub codes: &'a [u8],
    pub len: u32,
}

impl<'a> Leaf<'a> {
    /// The leaf's cells, upper end first: the one decoder of leaf bytes,
    /// in memory and in a payload.
    pub(crate) fn cells(self, refined: &RefinedDims) -> LeafCells<'a> {
        LeafCells {
            next: (self.len > 0).then_some(self.start),
            codes: self.codes,
            deltas: step_deltas(refined),
        }
    }

    /// The bytes the leaf takes in [`MsComplex`]'s leaf bytes: its start
    /// address and codes, none when empty.
    pub(crate) fn bytes(self) -> usize {
        if self.len > 0 {
            8 + self.codes.len()
        } else {
            0
        }
    }
}

/// One geometry record as every walk reads it, from a complex's records
/// or from a payload's: a leaf, or a cancel record's `[first, mid,
/// last]` children.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GeomView<'a> {
    Leaf(Leaf<'a>),
    Cancel([GeomId; 3]),
}

impl GeomView<'_> {
    /// This record with its children's ids replaced by the new ids
    /// `walk` gave them.
    fn renumbered(self, walk: &GeomWalk) -> Self {
        match self {
            GeomView::Cancel(children) => GeomView::Cancel(children.map(|c| walk.new_id(c))),
            leaf => leaf,
        }
    }
}

/// A store of geometry records the walker reads: a complex (its frozen
/// prefix and its own records), or the checked records of a parsed
/// payload (`wire::Payload`). Children precede parents in either.
pub(crate) trait GeomSource {
    /// Refined dims of the full dataset: the step codes move on it.
    fn refined(&self) -> RefinedDims;
    /// The number of record ids.
    fn n_geom_ids(&self) -> usize;
    /// Record `g`.
    fn geom(&self, g: GeomId) -> GeomView<'_>;
}

/// The one walker of geometry DAGs, on an explicit stack (a chain of
/// cancel records nests as deep as its payload is long, so no walk may
/// recurse). Keep one per target across the walks into it: it holds the
/// post-order walk's record id → new id table and the stack both walks
/// share, empty between walks.
#[derive(Default)]
pub(crate) struct GeomWalk {
    /// Records `0..kept` keep their ids and are never reached (a frozen
    /// prefix the target shares); they take no entry in `map`.
    kept: GeomId,
    /// Record `kept + i` → new id at `i`, `UNMAPPED` until the post-order
    /// walk reaches it.
    map: Vec<GeomId>,
    /// Pending records: `(id, false)` in the post-order walk, `(id,
    /// reversed)` in the in-order one.
    stack: Vec<(GeomId, bool)>,
}

impl GeomWalk {
    /// A walk that keeps the ids of records `0..kept` (a frozen prefix
    /// the target shares): they are never reached.
    fn keeping(kept: usize) -> GeomWalk {
        GeomWalk {
            kept: kept as GeomId,
            ..GeomWalk::default()
        }
    }

    /// Give record `g` and every record under it not reached yet a new
    /// id, each record after its children and the children in `first,
    /// mid, last` order. `assign(r, view, walk)` makes record `r`'s new
    /// id, reading its children's from `walk`.
    pub(crate) fn renumber<'s, S: GeomSource>(
        &mut self,
        src: &'s S,
        g: GeomId,
        mut assign: impl FnMut(GeomId, GeomView<'s>, &GeomWalk) -> GeomId,
    ) -> GeomId {
        let owned = src.n_geom_ids() - self.kept as usize;
        if self.map.len() < owned {
            self.map.resize(owned, UNMAPPED);
        }
        if self.new_id(g) != UNMAPPED {
            return self.new_id(g);
        }
        self.stack.push((g, false));
        while let Some(&(r, _)) = self.stack.last() {
            if self.new_id(r) != UNMAPPED {
                // reached again under another parent before this visit
                self.stack.pop();
                continue;
            }
            let view = src.geom(r);
            if let GeomView::Cancel(children) = view {
                // `first` on top: its subtree is numbered first
                let pending = self.stack.len();
                for c in children.into_iter().rev() {
                    if self.new_id(c) == UNMAPPED {
                        self.stack.push((c, false));
                    }
                }
                if self.stack.len() > pending {
                    continue;
                }
            }
            self.stack.pop();
            let id = assign(r, view, self);
            self.map[(r - self.kept) as usize] = id;
        }
        self.new_id(g)
    }

    /// The new id [`GeomWalk::renumber`] gave record `g` (`UNMAPPED`
    /// while unreached; itself when kept).
    pub(crate) fn new_id(&self, g: GeomId) -> GeomId {
        match g.checked_sub(self.kept) {
            Some(i) => self.map[i as usize],
            None => g,
        }
    }

    /// Copy record `g` of `src` and every record under it into `out`,
    /// each record once per walk: the copy of `compact` and of the glue,
    /// from a complex or a payload alike.
    pub(crate) fn copy_into(
        &mut self,
        src: &impl GeomSource,
        g: GeomId,
        out: &mut MsComplex,
    ) -> GeomId {
        // step codes are relative to the refined dims
        debug_assert_eq!(src.refined(), out.refined);
        self.renumber(src, g, |_, view, walk| out.add_geom(view.renumbered(walk)))
    }

    /// Hand `f` each leaf of geometry `g` in path order, upper end first,
    /// with whether it runs reversed there (a cancel record is `first ++
    /// reverse(mid) ++ last`). Stops when `f` returns false, and returns
    /// whether it never did.
    pub(crate) fn leaves<'s, S: GeomSource>(
        &mut self,
        src: &'s S,
        g: GeomId,
        mut f: impl FnMut(Leaf<'s>, bool) -> bool,
    ) -> bool {
        let mut next = Some((g, false));
        while let Some((r, rev)) = next.take().or_else(|| self.stack.pop()) {
            match src.geom(r) {
                GeomView::Leaf(leaf) => {
                    if !f(leaf, rev) {
                        self.stack.clear();
                        return false;
                    }
                }
                GeomView::Cancel([first, mid, last]) => {
                    let [a, b, c] = match rev {
                        false => [(first, false), (mid, true), (last, false)],
                        true => [(last, true), (mid, false), (first, true)],
                    };
                    self.stack.extend([c, b]);
                    next = Some(a);
                }
            }
        }
        true
    }
}

/// A node of the complex: a critical cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Global cell address on the refined grid of the full dataset.
    pub addr: u64,
    /// Morse index (0 = minimum … 3 = maximum) = dimension of the cell.
    pub index: u8,
    /// Function value of the critical cell.
    pub value: f32,
    /// True while the node lies on a boundary shared with a block outside
    /// this complex (such nodes may never be cancelled).
    pub boundary: bool,
    pub alive: bool,
    /// Persistence at which this node was cancelled (`f32::INFINITY`
    /// while alive) — lets stability studies rank features without
    /// replaying the hierarchy.
    pub cancel_persistence: f32,
}

/// An arc between critical cells of adjacent index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Node of index `d`.
    pub upper: NodeId,
    /// Node of index `d − 1`.
    pub lower: NodeId,
    pub geom: GeomId,
    pub alive: bool,
}

/// Geometry record: either a verbatim V-path or a cancellation splice.
/// Both variants are three `u32`s, so a record is 16 bytes.
#[derive(Debug, Clone, Copy)]
pub enum GeomRec {
    /// A path of `len` cells, ordered from the upper node's cell to the
    /// lower node's cell, stored as `steps[offset .. offset + bytes]`:
    /// the first cell's address (8 bytes, little-endian), then one step
    /// code per later cell (`STEP_ESCAPE`, 6, followed by that cell's
    /// address when it is not a unit move). Empty when `len` is 0.
    Leaf { offset: u32, bytes: u32, len: u32 },
    /// Concatenation `first ++ reverse(mid) ++ last`, produced when a
    /// cancellation splices `x→l`, reversed `u→l`, and `u→y` into `x→y`.
    Cancel {
        first: GeomId,
        mid: GeomId,
        last: GeomId,
    },
}

/// The frozen geometry prefix of a complex and its clones: records
/// `0..geoms.len()` and the leaf bytes their offsets index. Immutable
/// once built.
#[derive(Debug)]
struct FrozenGeom {
    geoms: Vec<GeomRec>,
    steps: Vec<u8>,
}

/// One node's incidence list in the arena: `arcs[start..start + len]`,
/// with room up to `start + cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    start: u32,
    len: u32,
    cap: u32,
}

/// Every node's incidence list, each a segment of one arena vector (see
/// the module docs): a list is appended to in place while it has room,
/// grows in place at the arena's end, and otherwise moves to the end
/// with doubled room, leaving its old space as garbage that
/// [`Incidence::repack`] and [`Incidence::relink`] reclaim.
#[derive(Debug, Clone, Default)]
struct Incidence {
    arcs: Vec<ArcId>,
    seg: Vec<Seg>,
}

impl Incidence {
    /// Make every node's list exactly the arcs naming it, in id order,
    /// laid out node after node with no room to spare (CSR).
    fn relink(&mut self, arcs: &[Arc]) {
        self.seg.fill(Seg::default());
        for a in arcs {
            self.seg[a.upper as usize].cap += 1;
            self.seg[a.lower as usize].cap += 1;
        }
        let mut end = 0usize;
        for s in &mut self.seg {
            s.start = end as u32;
            end += s.cap as usize;
        }
        self.arcs.clear();
        self.arcs.resize(checked_end(end), UNMAPPED);
        for (id, a) in arcs.iter().enumerate() {
            for n in [a.upper, a.lower] {
                let s = &mut self.seg[n as usize];
                self.arcs[(s.start + s.len) as usize] = id as ArcId;
                s.len += 1;
            }
        }
    }

    fn push(&mut self, n: NodeId, a: ArcId) {
        self.reserve(n, 1);
        let s = &mut self.seg[n as usize];
        self.arcs[(s.start + s.len) as usize] = a;
        s.len += 1;
    }

    /// Room for `extra` more entries on node `n`'s list: a list without
    /// it grows to the larger of what it needs, twice its room, and 4.
    fn reserve(&mut self, n: NodeId, extra: u32) {
        let s = self.seg[n as usize];
        if s.cap - s.len < extra {
            let need = s.len as usize + extra as usize;
            self.regrow(n, need.max(2 * s.cap as usize).max(4));
        }
    }

    /// Give node `n`'s list room for `cap` entries: in place when it
    /// ends the arena, else as a copy at the arena's end.
    fn regrow(&mut self, n: NodeId, cap: usize) {
        let s = &mut self.seg[n as usize];
        let end = self.arcs.len();
        if (s.start + s.cap) as usize != end {
            let from = s.start as usize;
            self.arcs.extend_from_within(from..from + s.len as usize);
            s.start = end as u32;
        }
        let new_end = checked_end(s.start as usize + cap);
        self.arcs.resize(new_end, UNMAPPED);
        s.cap = cap as u32;
    }

    /// Drop dead arcs from every list and reclaim the garbage: the lists
    /// are packed in arena order, so every entry moves down and the
    /// repack needs no second buffer. Each list keeps its order and its
    /// room, unless it is left empty.
    fn repack(&mut self, arcs: &[Arc]) {
        let mut order: Vec<u64> = Vec::new();
        for (n, s) in self.seg.iter_mut().enumerate() {
            match s.cap {
                0 => s.start = 0,
                _ => order.push((u64::from(s.start) << 32) | n as u64),
            }
        }
        order.sort_unstable();
        let mut at = 0;
        for key in order {
            let s = &mut self.seg[key as u32 as usize];
            let from = s.start as usize;
            s.start = at as u32;
            for i in from..from + s.len as usize {
                // written either way, kept only when alive: no branch
                let a = self.arcs[i];
                self.arcs[at] = a;
                at += usize::from(arcs[a as usize].alive);
            }
            s.len = at as u32 - s.start;
            s.cap = if s.len == 0 { 0 } else { s.cap };
            at = (s.start + s.cap) as usize;
        }
        self.arcs.truncate(at);
    }

    /// The arena's layout checks of [`MsComplex::check_integrity`]: every
    /// list inside the arena and within its room, and no two overlapping.
    fn check_layout(&self) -> Result<(), String> {
        let mut taken = Vec::new();
        for (n, s) in self.seg.iter().enumerate() {
            if s.len > s.cap || s.start as usize + s.cap as usize > self.arcs.len() {
                return Err(format!(
                    "node {n}'s list {s:?} outside its room or the arena"
                ));
            }
            if s.cap > 0 {
                taken.push((s.start, s.cap, n));
            }
        }
        taken.sort_unstable();
        match taken.windows(2).find(|w| w[0].0 + w[0].1 > w[1].0) {
            Some(w) => Err(format!("lists of nodes {} and {} overlap", w[0].2, w[1].2)),
            None => Ok(()),
        }
    }

    fn mem_bytes(&self) -> usize {
        self.arcs.capacity() * std::mem::size_of::<ArcId>()
            + self.seg.capacity() * std::mem::size_of::<Seg>()
    }
}

/// `end` as an arena length, which [`Seg`] addresses in `u32`.
fn checked_end(end: usize) -> usize {
    u32::try_from(end).expect("incidence arena exceeds u32 addressing");
    end
}

/// A recorded cancellation (one level of the simplification hierarchy).
#[derive(Debug, Clone)]
pub struct Cancellation {
    pub persistence: f32,
    pub upper: NodeId,
    pub lower: NodeId,
    pub n_deleted_arcs: u32,
    pub n_created_arcs: u32,
}

/// What one cancellation's splice needs to know about the pairs it
/// creates arcs between, reused from cancellation to cancellation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpliceScratch {
    /// Per node: 1 + its slot in `xs` or `ys` while a splice runs, zero
    /// otherwise. A node is in at most one of them (their Morse indices
    /// differ by one), so one array marks both. Grown to the node count
    /// on use.
    pub slot: Vec<u32>,
    /// The distinct upper neighbours `x` (index d), in first-seen order.
    pub xs: Vec<NodeId>,
    /// The distinct lower neighbours `y` (index d − 1), in first-seen
    /// order.
    pub ys: Vec<NodeId>,
    /// `table[i * ys.len() + j]`: living arcs `xs[i] → ys[j]`.
    pub table: Vec<u32>,
    /// Per slot, those of `xs` and then those of `ys`: how many of the
    /// splice's `above` or `below` arcs end there.
    pub ends: Vec<u32>,
}

impl SpliceScratch {
    /// The table cell of the pair `(x, y)`; both must be marked.
    pub fn cell(&self, x: NodeId, y: NodeId) -> usize {
        (self.slot[x as usize] as usize - 1) * self.ys.len() + self.slot[y as usize] as usize - 1
    }

    /// Unmark every neighbour; the scratch is then ready for the next
    /// splice.
    pub fn clear(&mut self) {
        for &n in self.xs.iter().chain(&self.ys) {
            self.slot[n as usize] = 0;
        }
        self.xs.clear();
        self.ys.clear();
        self.ends.clear();
    }

    /// How many arcs the splice adds to each marked node's list under the
    /// parallel-arc cap `cap`: it visits the pair `(xs[i], ys[j])` once
    /// per `above` arc at the one and `below` arc at the other, and adds
    /// an arc per visit until the pair holds `cap`.
    pub fn added(&self, cap: u32) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        let (nx, ny) = (self.xs.len(), self.ys.len());
        let made = move |i: usize, j: usize| {
            let visits = self.ends[i].saturating_mul(self.ends[nx + j]);
            visits.min(cap.saturating_sub(self.table[i * ny + j]))
        };
        let xs =
            (self.xs.iter().enumerate()).map(move |(i, &x)| (x, (0..ny).map(|j| made(i, j)).sum()));
        let ys =
            (self.ys.iter().enumerate()).map(move |(j, &y)| (y, (0..nx).map(|i| made(i, j)).sum()));
        xs.chain(ys)
    }
}

/// The 1-skeleton of a Morse-Smale complex covering one or more blocks.
#[derive(Debug, Clone, Default)]
pub struct MsComplex {
    pub nodes: Vec<Node>,
    pub arcs: Vec<Arc>,
    /// The shared geometry prefix ([`MsComplex::freeze_geometry`]);
    /// `None` until frozen, and always in the compute pipeline.
    frozen: Option<std::sync::Arc<FrozenGeom>>,
    /// The geometry records this complex owns: record `i` here has id
    /// `i` plus the frozen prefix's length.
    pub(crate) geoms: Vec<GeomRec>,
    /// The bytes of every owned leaf geometry, back to back in creation
    /// order (see [`GeomRec::Leaf`]); a traced V-path costs 8 bytes plus
    /// one per step. Decoded only through [`Leaf::cells`].
    pub(crate) steps: Vec<u8>,
    /// Arc ids incident to each node, in id order (may contain dead arcs;
    /// filtered on access).
    inc: Incidence,
    /// Scratch lent to the cancellation splice
    /// ([`MsComplex::count_splice_pairs`]); [`MsComplex::compact`]
    /// starts over with an empty one.
    pub(crate) splice: SpliceScratch,
    /// Global address → node id, for boundary matching during gluing.
    addr_index: HashMap<u64, NodeId, AddrHashing>,
    /// Refined dims of the full dataset (address codec).
    pub refined: RefinedDims,
    /// Blocks merged into this complex, sorted.
    pub member_blocks: Vec<u32>,
    /// Cancellation log, in simplification order.
    pub hierarchy: Vec<Cancellation>,
}

impl MsComplex {
    pub fn new(refined: RefinedDims, member_blocks: Vec<u32>) -> Self {
        let mut member_blocks = member_blocks;
        member_blocks.sort_unstable();
        MsComplex {
            refined,
            member_blocks,
            ..Default::default()
        }
    }

    /// Add a node; panics if a node with the same address already exists.
    pub fn add_node(&mut self, addr: u64, index: u8, value: f32, boundary: bool) -> NodeId {
        match self.node_at_or_add(addr, index, value, boundary) {
            (id, false) => id,
            (_, true) => panic!("duplicate node address {addr}"),
        }
    }

    /// The node at `addr` and `true`, or a node added there with the
    /// given record and `false`: one index probe either way.
    pub(crate) fn node_at_or_add(
        &mut self,
        addr: u64,
        index: u8,
        value: f32,
        boundary: bool,
    ) -> (NodeId, bool) {
        debug_assert!(index <= 3);
        let id = self.nodes.len() as NodeId;
        match self.addr_index.entry(addr) {
            Entry::Occupied(e) => return (*e.get(), true),
            Entry::Vacant(slot) => slot.insert(id),
        };
        self.nodes.push(Node {
            addr,
            index,
            value,
            boundary,
            alive: true,
            cancel_persistence: f32::INFINITY,
        });
        self.inc.seg.push(Seg::default());
        (id, false)
    }

    /// Add an arc between `upper` (index d) and `lower` (index d−1).
    pub fn add_arc(&mut self, upper: NodeId, lower: NodeId, geom: GeomId) -> ArcId {
        debug_assert_eq!(
            self.nodes[upper as usize].index,
            self.nodes[lower as usize].index + 1,
            "arc endpoints must differ by one in index"
        );
        let id = self.arcs.len() as ArcId;
        self.arcs.push(Arc {
            upper,
            lower,
            geom,
            alive: true,
        });
        self.inc.push(upper, id);
        self.inc.push(lower, id);
        id
    }

    /// Room for `extra` more arcs on each named node's incidence list,
    /// made before adding arcs whose endpoints are known in advance, so
    /// that no list moves more than once for them.
    pub(crate) fn reserve_incidence(&mut self, extra: impl IntoIterator<Item = (NodeId, u32)>) {
        for (n, k) in extra {
            self.inc.reserve(n, k);
        }
    }

    /// Rebuild every incidence list as exactly the arcs naming its node,
    /// in id order, with no room to spare: for a complex whose arcs were
    /// pushed without [`MsComplex::add_arc`].
    pub(crate) fn relink(&mut self) {
        self.inc.relink(&self.arcs);
    }

    /// Reserve room for `nodes` more nodes, `geoms` more geometry
    /// records, `steps` more leaf bytes and `arcs` more arcs.
    pub(crate) fn reserve(&mut self, nodes: usize, geoms: usize, steps: usize, arcs: usize) {
        self.nodes.reserve(nodes);
        self.inc.seg.reserve(nodes);
        self.addr_index.reserve(nodes);
        self.geoms.reserve(geoms);
        self.steps.reserve(steps);
        self.arcs.reserve(arcs);
    }

    /// Store any path of cell addresses as a leaf geometry: each step
    /// that is a unit move on the refined grid costs one byte, any other
    /// (tests build such leaves) an escape plus the address.
    pub fn add_leaf_geom(&mut self, path: &[u64]) -> GeomId {
        let offset = self.steps.len();
        if let Some((&first, rest)) = path.split_first() {
            let deltas = step_deltas(&self.refined);
            self.steps.extend_from_slice(&first.to_le_bytes());
            let mut prev = first;
            for &addr in rest {
                match deltas.iter().position(|&d| d == addr.wrapping_sub(prev)) {
                    Some(code) => self.steps.push(code as u8),
                    None => {
                        self.steps.push(STEP_ESCAPE);
                        self.steps.extend_from_slice(&addr.to_le_bytes());
                    }
                }
                prev = addr;
            }
        }
        self.seal_leaf(offset, path.len())
    }

    /// Record `steps[offset..]` as a leaf of `len` cells.
    pub(crate) fn seal_leaf(&mut self, offset: usize, len: usize) -> GeomId {
        let end = u32::try_from(self.steps.len()).expect("leaf bytes exceed u32 addressing");
        let id = self.next_geom_id();
        self.geoms.push(GeomRec::Leaf {
            offset: offset as u32,
            bytes: end - offset as u32,
            len: len as u32,
        });
        id
    }

    /// Store a cancellation-splice geometry.
    pub fn add_cancel_geom(&mut self, first: GeomId, mid: GeomId, last: GeomId) -> GeomId {
        let id = self.next_geom_id();
        self.geoms.push(GeomRec::Cancel { first, mid, last });
        id
    }

    /// Store a record read from a complex or a payload, its children's
    /// ids as they are: a leaf's start address and codes become its
    /// bytes.
    pub(crate) fn add_geom(&mut self, view: GeomView<'_>) -> GeomId {
        match view {
            GeomView::Leaf(leaf) => {
                let at = self.steps.len();
                if leaf.len > 0 {
                    self.steps.extend_from_slice(&leaf.start.to_le_bytes());
                    self.steps.extend_from_slice(leaf.codes);
                }
                self.seal_leaf(at, leaf.len as usize)
            }
            GeomView::Cancel([first, mid, last]) => self.add_cancel_geom(first, mid, last),
        }
    }

    /// Length of the shared frozen geometry prefix: the id of the first
    /// owned record.
    fn n_frozen(&self) -> usize {
        self.frozen.as_ref().map_or(0, |f| f.geoms.len())
    }

    fn next_geom_id(&self) -> GeomId {
        self.n_geom_ids() as GeomId
    }

    /// Move every geometry record and leaf byte of this complex into a
    /// shared frozen prefix. Ids do not change; clones made from now on
    /// share the records instead of copying them, and own only the
    /// records they add. Panics if the geometry is frozen already.
    pub fn freeze_geometry(&mut self) {
        assert!(self.frozen.is_none(), "geometry frozen twice");
        let (mut geoms, mut steps) = (
            std::mem::take(&mut self.geoms),
            std::mem::take(&mut self.steps),
        );
        geoms.shrink_to_fit();
        steps.shrink_to_fit();
        self.frozen = Some(std::sync::Arc::new(FrozenGeom { geoms, steps }));
    }

    /// True when both complexes hold the same frozen geometry prefix
    /// (one allocation, not two equal copies).
    pub fn shares_geometry_with(&self, other: &MsComplex) -> bool {
        matches!((&self.frozen, &other.frozen),
            (Some(a), Some(b)) if std::sync::Arc::ptr_eq(a, b))
    }

    /// Geometry bytes `(owned, shared)`: the capacity of this complex's
    /// own records and leaf bytes, and of its frozen prefix (which every
    /// complex sharing it reports again).
    pub fn geometry_bytes(&self) -> (u64, u64) {
        let size = |geoms: &Vec<GeomRec>, steps: &Vec<u8>| {
            (geoms.capacity() * std::mem::size_of::<GeomRec>() + steps.capacity()) as u64
        };
        let shared = self.frozen.as_ref().map_or(0, |f| size(&f.geoms, &f.steps));
        (size(&self.geoms, &self.steps), shared)
    }

    /// Resolve a geometry record to the flat list of cell addresses,
    /// ordered from the upper end to the lower end.
    pub fn flatten_geom(&self, g: GeomId) -> Vec<u64> {
        let mut out = Vec::new();
        GeomWalk::default().leaves(self, g, |leaf, rev| {
            let at = out.len();
            out.extend(leaf.cells(&self.refined));
            if rev {
                out[at..].reverse();
            }
            true
        });
        out
    }

    /// Total number of cells a geometry resolves to (without
    /// materializing it).
    pub fn geom_len(&self, g: GeomId) -> u64 {
        let mut n = 0;
        GeomWalk::default().leaves(self, g, |leaf, _| {
            n += u64::from(leaf.len);
            true
        });
        n
    }

    /// True when `g` is a verbatim traced V-path (a [`GeomRec::Leaf`]),
    /// false for a cancellation splice. Spliced geometries contain a
    /// reversed middle segment and are *not* gradient V-paths, so
    /// path-validity checkers (the oracle crate) only apply to leaves.
    pub fn geom_is_leaf(&self, g: GeomId) -> bool {
        matches!(self.geom(g), GeomView::Leaf(_))
    }

    /// Node id at a global address, if present.
    pub fn node_at(&self, addr: u64) -> Option<NodeId> {
        self.addr_index.get(&addr).copied()
    }

    /// The refined coordinate of a node.
    pub fn node_coord(&self, n: NodeId) -> RCoord {
        RCoord::from_address(self.nodes[n as usize].addr, &self.refined)
    }

    /// Node `n`'s incidence list, dead arcs included.
    fn adj(&self, n: NodeId) -> &[ArcId] {
        let s = self.inc.seg[n as usize];
        &self.inc.arcs[s.start as usize..][..s.len as usize]
    }

    /// Living arcs incident to a node.
    pub fn arcs_of(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.adj(n)
            .iter()
            .copied()
            .filter(move |&a| self.arcs[a as usize].alive)
    }

    /// Living arcs from upper node `u` (index d) down to any lower node.
    pub fn arcs_below(&self, u: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.arcs_of(u)
            .filter(move |&a| self.arcs[a as usize].upper == u)
    }

    /// Living arcs into lower node `l` from any upper node.
    pub fn arcs_above(&self, l: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.arcs_of(l)
            .filter(move |&a| self.arcs[a as usize].lower == l)
    }

    /// Living arcs from `u` down to `l`, found on the shorter of the two
    /// incidence lists (so in no particular order).
    pub(crate) fn arcs_between(&self, u: NodeId, l: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        let (of_u, of_l) = (self.adj(u), self.adj(l));
        let shorter = if of_l.len() < of_u.len() { of_l } else { of_u };
        shorter.iter().copied().filter(move |&a| {
            let arc = &self.arcs[a as usize];
            arc.alive && arc.upper == u && arc.lower == l
        })
    }

    /// Number of living arcs connecting `u` and `l`.
    pub fn multiplicity(&self, u: NodeId, l: NodeId) -> usize {
        self.arcs_between(u, l).count()
    }

    /// Mark the distinct upper endpoints of `above` and lower endpoints
    /// of `below` in `sp` and count the living arcs between every such
    /// pair into `sp.table`. Each of those arcs sits on both endpoints'
    /// incidence lists, so the count walks the lists of whichever side
    /// holds fewer entries in total, each list once. `sp` must be clear;
    /// [`SpliceScratch::clear`] unmarks it again.
    pub(crate) fn count_splice_pairs(
        &self,
        sp: &mut SpliceScratch,
        above: &[ArcId],
        below: &[ArcId],
    ) {
        if sp.slot.len() < self.nodes.len() {
            sp.slot.resize(self.nodes.len(), 0);
        }
        // every x is marked before the first y, so `ends` lists the xs'
        // slots first
        let mark = |sp: &mut SpliceScratch, n: NodeId, upper: bool| {
            if sp.slot[n as usize] != 0 {
                let offset = if upper { 0 } else { sp.xs.len() };
                sp.ends[offset + sp.slot[n as usize] as usize - 1] += 1;
                return 0;
            }
            let side = if upper { &mut sp.xs } else { &mut sp.ys };
            side.push(n);
            sp.slot[n as usize] = side.len() as u32;
            sp.ends.push(1);
            self.adj(n).len()
        };
        let x_entries: usize = (above.iter())
            .map(|&a| mark(sp, self.arcs[a as usize].upper, true))
            .sum();
        let y_entries: usize = (below.iter())
            .map(|&a| mark(sp, self.arcs[a as usize].lower, false))
            .sum();
        let nb = sp.ys.len();
        sp.table.clear();
        sp.table.resize(sp.xs.len() * nb, 0);
        // the cancelled pair is unmarked, so its own arcs never count
        if x_entries <= y_entries {
            for (i, &x) in sp.xs.iter().enumerate() {
                for &a in self.adj(x) {
                    let arc = &self.arcs[a as usize];
                    let j = sp.slot[arc.lower as usize] as usize;
                    if arc.alive && arc.upper == x && j != 0 {
                        sp.table[i * nb + j - 1] += 1;
                    }
                }
            }
        } else {
            for (j, &y) in sp.ys.iter().enumerate() {
                for &a in self.adj(y) {
                    let arc = &self.arcs[a as usize];
                    let i = sp.slot[arc.upper as usize] as usize;
                    if arc.alive && arc.lower == y && i != 0 {
                        sp.table[(i - 1) * nb + j] += 1;
                    }
                }
            }
        }
        if cfg!(debug_assertions) {
            for &x in &sp.xs {
                for &y in &sp.ys {
                    let n = self.multiplicity(x, y);
                    debug_assert_eq!(sp.table[sp.cell(x, y)] as usize, n, "pair {x}->{y}");
                }
            }
        }
    }

    /// Tombstone an arc.
    pub fn kill_arc(&mut self, a: ArcId) {
        self.arcs[a as usize].alive = false;
    }

    /// Drop dead arc ids from every adjacency list. Long simplification
    /// runs leave tombstones behind that make incidence scans linear in
    /// *historical* degree; pruning restores them to live degree, and
    /// repacks the arena without the garbage of moved lists.
    pub fn prune_dead_adjacency(&mut self) {
        self.inc.repack(&self.arcs);
    }

    /// Tombstone a node, recording the persistence it was cancelled at.
    pub fn kill_node(&mut self, n: NodeId, persistence: f32) {
        let node = &mut self.nodes[n as usize];
        node.alive = false;
        node.cancel_persistence = persistence;
        self.addr_index.remove(&node.addr);
    }

    /// Census of living nodes per Morse index.
    pub fn node_census(&self) -> [u64; 4] {
        let mut c = [0u64; 4];
        for n in &self.nodes {
            if n.alive {
                c[n.index as usize] += 1;
            }
        }
        c
    }

    pub fn n_live_nodes(&self) -> u64 {
        self.nodes.iter().filter(|n| n.alive).count() as u64
    }

    pub fn n_live_arcs(&self) -> u64 {
        self.arcs.iter().filter(|a| a.alive).count() as u64
    }

    /// Estimated resident heap footprint in bytes, from the container
    /// capacities (the serve layer's byte gauges and the future
    /// evict-by-bytes budget read this; exactness to the allocator is
    /// not required, stability across calls is). Leaf geometry counts
    /// as its encoded `steps` bytes — about one per path cell — since
    /// addresses are decoded only on demand. Only owned geometry counts:
    /// the frozen prefix belongs to whoever froze it (see
    /// [`MsComplex::geometry_bytes`]).
    pub fn mem_bytes(&self) -> u64 {
        use std::mem::size_of;
        let vecs = self.nodes.capacity() * size_of::<Node>()
            + self.arcs.capacity() * size_of::<Arc>()
            + self.geoms.capacity() * size_of::<GeomRec>()
            + self.steps.capacity()
            + self.member_blocks.capacity() * size_of::<u32>()
            + (self.splice.slot.capacity() + self.splice.table.capacity()) * size_of::<u32>()
            + (self.splice.xs.capacity() + self.splice.ys.capacity()) * size_of::<NodeId>()
            + self.hierarchy.capacity() * size_of::<Cancellation>();
        // HashMap overhead ≈ 1/0.875 load factor plus one control byte
        // per slot; close enough for a gauge
        let index = self.addr_index.capacity() * (size_of::<(u64, NodeId)>() + 1);
        (size_of::<MsComplex>() + vecs + self.inc.mem_bytes() + index) as u64
    }

    /// Rebuild dense arrays: drop dead nodes/arcs, keep only owned
    /// geometry records reachable from living arcs (preserving the
    /// sharing DAG — the paper's geometry objects are stored by
    /// reference, §IV-E), rebuild adjacency and the address index, and
    /// clear the hierarchy (keeping only the coarsest level, as the paper
    /// does before communication, §IV-F1). Ids are dense, so the old→new
    /// maps are plain vectors and the incidence arena is built once, as
    /// exact CSR.
    ///
    /// Live nodes, arcs and incidence lists keep their relative order,
    /// and the owned geometry is copied in the one walker's post-order
    /// arc by arc, the layout
    /// [`wire::serialize`](crate::wire::serialize) writes from a loose
    /// complex through the same walk: a complex serializes the same
    /// whether it was compacted after every pass, only at the end or
    /// never. The frozen prefix stays shared and keeps its ids, reachable
    /// or not; only the owned records are copied.
    pub fn compact(&mut self) {
        let mut out = MsComplex::new(self.refined, self.member_blocks.clone());
        out.frozen = self.frozen.clone();
        let live = self.nodes.iter().filter(|n| n.alive).count();
        out.nodes.reserve_exact(live);
        out.inc.seg.reserve_exact(live);
        out.addr_index.reserve(live);
        let mut node_map = vec![UNMAPPED; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.alive) {
            node_map[i] = out.add_node(n.addr, n.index, n.value, n.boundary);
        }
        out.arcs
            .reserve_exact(self.arcs.iter().filter(|a| a.alive).count());
        let mut walk = GeomWalk::keeping(self.n_frozen());
        for a in self.arcs.iter().filter(|a| a.alive) {
            let geom = walk.copy_into(self, a.geom, &mut out);
            out.arcs.push(Arc {
                upper: node_map[a.upper as usize],
                lower: node_map[a.lower as usize],
                geom,
                alive: true,
            });
        }
        out.relink();
        *self = out;
    }

    /// Recompute the boundary flags against the current member-block
    /// set: a node stays boundary iff its address is shared with a block
    /// outside this complex (paper §IV-F3: "the boundary status of each
    /// node is updated according to the bounds of the merged blocks").
    /// Member sets only grow, so a flag only ever goes from true to
    /// false: interior nodes are skipped, and membership is a binary
    /// search in the sorted `member_blocks`.
    pub fn reflag_boundaries(&mut self, decomp: &msp_grid::Decomposition) {
        let (members, refined) = (&self.member_blocks, self.refined);
        for n in self.nodes.iter_mut().filter(|n| n.alive && n.boundary) {
            let c = RCoord::from_address(n.addr, &refined);
            n.boundary = decomp
                .owners(c)
                .as_slice()
                .iter()
                .any(|b| members.binary_search(b).is_err());
        }
    }

    /// Structural sanity check used by tests: adjacency covers arcs,
    /// indices differ by one, address index matches living nodes, and
    /// the incidence arena is well formed: every list lies inside it and
    /// within its room, no two lists overlap, and every entry of a node's
    /// list is an arc touching that node, in increasing id order.
    pub fn check_integrity(&self) -> Result<(), String> {
        if self.inc.seg.len() != self.nodes.len() {
            return Err(format!(
                "{} incidence lists for {} nodes",
                self.inc.seg.len(),
                self.nodes.len()
            ));
        }
        self.inc.check_layout()?;
        for n in 0..self.nodes.len() as NodeId {
            let list = self.adj(n);
            if let Some(&a) = (list.iter()).find(|&&a| {
                (self.arcs.get(a as usize)).is_none_or(|arc| arc.upper != n && arc.lower != n)
            }) {
                return Err(format!(
                    "node {n}'s list holds arc {a}, which does not touch it"
                ));
            }
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("node {n}'s list is not in increasing arc order"));
            }
        }
        for (i, a) in self.arcs.iter().enumerate() {
            let (u, l) = (&self.nodes[a.upper as usize], &self.nodes[a.lower as usize]);
            if u.index != l.index + 1 {
                return Err(format!("arc {i} endpoint indices {} {}", u.index, l.index));
            }
            if a.alive && (!u.alive || !l.alive) {
                return Err(format!("arc {i} alive with dead endpoint"));
            }
            if a.alive {
                let ok = self.adj(a.upper).contains(&(i as ArcId))
                    && self.adj(a.lower).contains(&(i as ArcId));
                if !ok {
                    return Err(format!("arc {i} missing from adjacency"));
                }
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.alive && self.addr_index.get(&n.addr) != Some(&(i as NodeId)) {
                return Err(format!("node {i} missing from address index"));
            }
        }
        Ok(())
    }
}

/// A complex's records: the frozen prefix's below its length, its own
/// above.
impl GeomSource for MsComplex {
    fn refined(&self) -> RefinedDims {
        self.refined
    }

    fn n_geom_ids(&self) -> usize {
        self.n_frozen() + self.geoms.len()
    }

    fn geom(&self, g: GeomId) -> GeomView<'_> {
        let (rec, steps) = match &self.frozen {
            Some(f) if (g as usize) < f.geoms.len() => (f.geoms[g as usize], &f.steps),
            Some(f) => (self.geoms[g as usize - f.geoms.len()], &self.steps),
            None => (self.geoms[g as usize], &self.steps),
        };
        match rec {
            GeomRec::Leaf { len: 0, .. } => GeomView::Leaf(Leaf {
                start: 0,
                codes: &[],
                len: 0,
            }),
            GeomRec::Leaf { offset, bytes, len } => {
                let (start, codes) = steps[offset as usize..(offset + bytes) as usize]
                    .split_first_chunk::<8>()
                    .expect("a non-empty leaf starts with its address");
                let start = u64::from_le_bytes(*start);
                GeomView::Leaf(Leaf { start, codes, len })
            }
            GeomRec::Cancel { first, mid, last } => GeomView::Cancel([first, mid, last]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::Dims;

    fn tiny() -> MsComplex {
        MsComplex::new(Dims::new(4, 4, 4).refined(), vec![0])
    }

    #[test]
    fn add_and_census() {
        let mut ms = tiny();
        let mn = ms.add_node(0, 0, 0.0, false);
        let sd = ms.add_node(1, 1, 1.0, false);
        let g = ms.add_leaf_geom(&[1, 0]);
        ms.add_arc(sd, mn, g);
        assert_eq!(ms.node_census(), [1, 1, 0, 0]);
        assert_eq!(ms.n_live_arcs(), 1);
        assert_eq!(ms.multiplicity(sd, mn), 1);
        ms.check_integrity().unwrap();
    }

    #[test]
    fn flatten_cancel_geometry() {
        let mut ms = tiny();
        let a = ms.add_leaf_geom(&[10, 11, 12]); // x -> l
        let t = ms.add_leaf_geom(&[20, 21, 12]); // u -> l
        let b = ms.add_leaf_geom(&[20, 31, 32]); // u -> y
        let spliced = ms.add_cancel_geom(a, t, b);
        // x..l, reversed u..l, u..y
        assert_eq!(
            ms.flatten_geom(spliced),
            vec![10, 11, 12, 12, 21, 20, 20, 31, 32]
        );
        assert_eq!(ms.geom_len(spliced), 9);
        // reversal of a spliced geometry
        let outer = ms.add_cancel_geom(spliced, a, t);
        let flat = ms.flatten_geom(outer);
        assert_eq!(flat.len(), 9 + 3 + 3);
    }

    #[test]
    fn kill_and_compact() {
        let mut ms = tiny();
        let n0 = ms.add_node(0, 0, 0.0, false);
        let n1 = ms.add_node(5, 1, 2.0, false);
        let n2 = ms.add_node(9, 1, 3.0, true);
        let g1 = ms.add_leaf_geom(&[5, 0]);
        let g2 = ms.add_leaf_geom(&[9, 0]);
        let a1 = ms.add_arc(n1, n0, g1);
        ms.add_arc(n2, n0, g2);
        ms.kill_arc(a1);
        ms.kill_node(n1, 2.0);
        assert_eq!(ms.n_live_nodes(), 2);
        assert!(ms.node_at(5).is_none(), "dead node leaves the index");
        ms.compact();
        assert_eq!(ms.nodes.len(), 2);
        assert_eq!(ms.arcs.len(), 1);
        assert_eq!(ms.flatten_geom(ms.arcs[0].geom), vec![9, 0]);
        ms.check_integrity().unwrap();
        assert_eq!(ms.nodes[ms.arcs[0].upper as usize].addr, 9);
    }

    #[test]
    #[should_panic]
    fn duplicate_address_rejected() {
        let mut ms = tiny();
        ms.add_node(3, 0, 0.0, false);
        ms.add_node(3, 1, 1.0, false);
    }

    #[test]
    fn multiplicity_counts_parallel_arcs() {
        let mut ms = tiny();
        let n0 = ms.add_node(0, 0, 0.0, false);
        let n1 = ms.add_node(5, 1, 2.0, false);
        let g1 = ms.add_leaf_geom(&[5, 4, 0]);
        let g2 = ms.add_leaf_geom(&[5, 6, 0]);
        ms.add_arc(n1, n0, g1);
        ms.add_arc(n1, n0, g2);
        assert_eq!(ms.multiplicity(n1, n0), 2);
        assert_eq!(ms.arcs_below(n1).count(), 2);
        assert_eq!(ms.arcs_above(n0).count(), 2);
    }

    fn leaf_bytes(ms: &MsComplex, g: GeomId) -> &[u8] {
        match ms.geoms[g as usize] {
            GeomRec::Leaf { offset, bytes, .. } => {
                &ms.steps[offset as usize..(offset + bytes) as usize]
            }
            GeomRec::Cancel { .. } => panic!("not a leaf"),
        }
    }

    #[test]
    fn unit_moves_cost_one_code_and_jumps_an_escape() {
        let mut ms = tiny();
        // every axis in both directions
        let xyz = [(3, 3, 3), (4, 3, 3), (4, 4, 3), (4, 4, 4), (4, 4, 3)];
        let mut path: Vec<RCoord> = xyz.iter().map(|&(x, y, z)| RCoord::new(x, y, z)).collect();
        path.extend([(4, 3, 3), (3, 3, 3), (2, 3, 3)].map(|(x, y, z)| RCoord::new(x, y, z)));
        let addrs: Vec<u64> = path.iter().map(|c| c.address(&ms.refined)).collect();
        let moved = ms.add_leaf_geom(&addrs);
        assert_eq!(leaf_bytes(&ms, moved)[8..], [1, 3, 5, 4, 2, 0, 0]);
        assert_eq!(ms.flatten_geom(moved), addrs);
        // a non-unit step costs an escape and the address
        let a = addrs[0];
        let jumped = ms.add_leaf_geom(&[a, a + 2, a + 3]);
        let escaped = [&[STEP_ESCAPE][..], &(a + 2).to_le_bytes(), &[1]].concat();
        assert_eq!(leaf_bytes(&ms, jumped)[8..], escaped);
        assert_eq!(ms.steps.len(), (8 + 7) + (8 + 1 + 8 + 1));
    }

    /// A seeded mix of every operation that touches the incidence arena,
    /// checked after each against a plain list per node kept beside it:
    /// each node's list, dead entries included, must hold the same arcs
    /// in the same order.
    #[test]
    fn arena_lists_equal_a_list_per_node() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(51);
        let mut ms = tiny();
        let mut reference: Vec<Vec<ArcId>> = Vec::new();
        let g = ms.add_leaf_geom(&[]);
        let mut next_addr = 0u64;
        for step in 0..4000 {
            let live: Vec<NodeId> = (0..ms.nodes.len() as NodeId)
                .filter(|&n| ms.nodes[n as usize].alive)
                .collect();
            match rng.gen_range(0..100u32) {
                0..=19 => {
                    let index = rng.gen_range(0..4u32) as u8;
                    ms.add_node(next_addr, index, 0.0, false);
                    next_addr += 1;
                    reference.push(Vec::new());
                }
                20..=69 if !live.is_empty() => {
                    let u = live[rng.gen_range(0..live.len())];
                    let below = ms.nodes[u as usize].index.checked_sub(1);
                    let lows: Vec<NodeId> = (live.iter().copied())
                        .filter(|&l| Some(ms.nodes[l as usize].index) == below)
                        .collect();
                    if !lows.is_empty() {
                        let l = lows[rng.gen_range(0..lows.len())];
                        let a = ms.add_arc(u, l, g);
                        reference[u as usize].push(a);
                        reference[l as usize].push(a);
                    }
                }
                70..=81 if !ms.arcs.is_empty() => {
                    ms.kill_arc(rng.gen_range(0..ms.arcs.len()) as ArcId);
                }
                82..=85 if !live.is_empty() => {
                    let n = live[rng.gen_range(0..live.len())];
                    let doomed: Vec<ArcId> = ms.arcs_of(n).collect();
                    for a in doomed {
                        ms.kill_arc(a);
                    }
                    ms.kill_node(n, 1.0);
                }
                86..=89 if !live.is_empty() => {
                    let (n, k) = (live[rng.gen_range(0..live.len())], rng.gen_range(0..9u32));
                    ms.reserve_incidence([(n, k)]);
                    let s = ms.inc.seg[n as usize];
                    assert!(
                        s.cap - s.len >= k,
                        "step {step}: room for {k} on {n}: {s:?}"
                    );
                }
                90..=93 => {
                    ms.prune_dead_adjacency();
                    for list in &mut reference {
                        list.retain(|&a| ms.arcs[a as usize].alive);
                    }
                }
                94..=96 => {
                    // renumber the reference as `compact` renumbers
                    let mut arc_map = vec![UNMAPPED; ms.arcs.len()];
                    let live_arcs = (0..).zip(&ms.arcs).filter(|(_, a)| a.alive);
                    for (new, (old, _)) in live_arcs.enumerate() {
                        arc_map[old] = new as ArcId;
                    }
                    reference = (reference.iter().zip(&ms.nodes))
                        .filter(|(_, n)| n.alive)
                        .map(|(list, _)| {
                            let kept = list.iter().map(|&a| arc_map[a as usize]);
                            kept.filter(|&a| a != UNMAPPED).collect()
                        })
                        .collect();
                    ms.compact();
                }
                97..=99 => ms = ms.clone(),
                _ => {}
            }
            ms.check_integrity()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(ms.nodes.len(), reference.len());
            for (n, want) in (0..).zip(&reference) {
                assert_eq!(ms.adj(n), &want[..], "step {step}, node {n}");
                let alive = want.iter().copied().filter(|&a| ms.arcs[a as usize].alive);
                assert!(ms.arcs_of(n).eq(alive), "step {step}, node {n}");
            }
        }
        assert!(ms.n_live_arcs() > 100, "the mix keeps a populated complex");
    }
}
