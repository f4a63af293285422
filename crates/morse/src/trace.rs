//! V-path tracing: extracting the arcs of the MS complex 1-skeleton from
//! a discrete gradient field (paper §IV-D).
//!
//! "The finest-scale MS complex is computed by tracing V-paths in the
//! discrete gradient field from critical cells. … V-paths are traced
//! downwards from each node, and an arc is added to the MS complex for
//! every path terminating at a critical cell. The list of cells in the
//! V-path forms the geometric embedding of the arc."
//!
//! Paths are guaranteed to terminate inside the block because the
//! boundary restriction prevents gradient arrows from crossing block
//! faces outward. Tracing branches (a descending path may split at every
//! head cell), so one critical cell can produce many arcs, including
//! multiple arcs to the *same* destination — the multiplicity matters for
//! cancellation legality and is preserved.
//!
//! The tracer is a depth-first search over **linear byte indices** — facet
//! neighbors are `± stride` hops, cell state is one pooled byte read —
//! and batches the address-ordered critical list into contiguous chunks
//! traced on separate threads into per-chunk [`ArcStore`] arenas that are
//! concatenated in chunk order, making the emitted arc sequence (and
//! therefore the stores' bytes) identical to the serial trace for every
//! thread count. `tests/pinned_bytes.rs` pins that sequence;
//! `msp-oracle`'s `reference_arcs` checks the arcs as a multiset.
//!
//! **Leaf bytes.** A DFS frame carries the step code onto its cell, known
//! when the facet or the paired cofacet is pushed, so the path prefix is
//! the code string an `MsComplex` leaf stores and an arc is emitted by
//! copying it behind the upper cell's address ([`ArcStore`]). The complex
//! builder takes the store's arena over as its leaf bytes: no path cell
//! is ever held as a coordinate.
//!
//! **Live voxels.** A maximum's DFS would walk its whole descending
//! manifold, although only the voxels whose paths reach a critical
//! 2-cell can emit anything. `LiveVoxels` marks exactly those, in a
//! bitset beside the (shared, read-only) gradient bytes: from both voxel
//! cofacets of every critical 2-cell it walks *upward* along the voxel
//! successor forest — voxel → its paired quad → that quad's other voxel
//! — which is unbranched because a voxel has one pair. A walk stops at a
//! maximum, at the box face, or at an already-marked voxel, so marking
//! visits each voxel at most once. Every voxel on such a walk is a DFS
//! ancestor of the critical 2-cell (the quad it steps through is a tail
//! paired with the next voxel, never the current voxel's own pair), and
//! every ancestor lies on one. The tracer then expands a voxel reached
//! from a maximum only if it is live. That cannot move the emission
//! order: a skipped subtree holds no critical cell, so it would have
//! emitted nothing, and the frames that do emit are popped in the same
//! relative order. Arc counts, path lengths and truncation (which only
//! fires at a critical cell) are therefore unchanged by construction;
//! only the frames popped in dead subtrees go.

use crate::gradient::{GradientField, CRITICAL, DIR_MASK, PAIRED, TAIL};
use crate::kernel::Kernel;
use msp_grid::{RCoord, RefinedDims};

/// One traced arc decoded back to its cells ([`ArcStore::get`]): from a
/// critical `upper` cell of index `d` down to a critical `lower` cell of
/// index `d − 1`, with the full V-path as its geometric embedding
/// (`geom[0] == upper`, `geom.last() == lower`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedArc {
    pub upper: RCoord,
    pub lower: RCoord,
    pub geom: Vec<RCoord>,
}

/// One traced arc's record in an [`ArcStore`]: its two ends and its
/// window of the store's leaf bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcRec {
    /// Position of the upper critical cell in the critical list the
    /// trace ran over.
    pub upper: u32,
    /// Cells on the path, both ends included.
    pub len: u32,
    /// Start of the arc's leaf bytes in the store's arena.
    pub offset: u32,
    /// Address of the lower critical cell.
    pub lower: u64,
}

impl ArcRec {
    /// The leaf bytes the arc takes: its 8-byte start address and one
    /// step code per later cell.
    pub fn bytes(&self) -> u32 {
        self.len + 7
    }
}

/// Traced arcs as the leaf bytes an `MsComplex` holds, back to back in
/// emission order in one byte arena: each arc is its upper cell's
/// address (8 bytes, little-endian) and one step code per later cell,
/// `2·axis + (step > 0)`. [`ArcStore::get`] decodes an arc back to its
/// cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArcStore {
    /// The refined grid the addresses lie on.
    refined: RefinedDims,
    recs: Vec<ArcRec>,
    steps: Vec<u8>,
}

impl ArcStore {
    /// An empty store whose addresses lie on `refined`.
    pub fn new(refined: RefinedDims) -> Self {
        ArcStore {
            refined,
            ..Self::default()
        }
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The arc at index `i`, decoded to its cells.
    pub fn get(&self, i: usize) -> TracedArc {
        let r = self.recs[i];
        let leaf = &self.steps[r.offset as usize..][..r.bytes() as usize];
        let (start, codes) = leaf
            .split_first_chunk::<8>()
            .expect("a leaf starts with its address");
        let mut geom = Vec::with_capacity(r.len as usize);
        let mut cell = RCoord::from_address(u64::from_le_bytes(*start), &self.refined);
        geom.push(cell);
        for &code in codes {
            cell = step(cell, code);
            geom.push(cell);
        }
        TracedArc {
            upper: geom[0],
            lower: RCoord::from_address(r.lower, &self.refined),
            geom,
        }
    }

    /// Iterate arcs in emission order, each decoded to its cells.
    pub fn iter(&self) -> impl Iterator<Item = TracedArc> + '_ {
        (0..self.recs.len()).map(move |i| self.get(i))
    }

    /// The records, in emission order, and the leaf bytes they index.
    pub fn into_parts(self) -> (Vec<ArcRec>, Vec<u8>) {
        (self.recs, self.steps)
    }

    /// Append one arc: the leaf from address `start` along `codes`.
    fn push(&mut self, upper: u32, start: u64, lower: u64, codes: &[u8]) {
        let offset = self.steps.len() as u32;
        self.steps.extend_from_slice(&start.to_le_bytes());
        self.steps.extend_from_slice(codes);
        u32::try_from(self.steps.len()).expect("leaf bytes exceed u32 addressing");
        self.recs.push(ArcRec {
            upper,
            len: codes.len() as u32 + 1,
            offset,
            lower,
        });
    }

    /// Concatenate another store onto this one, preserving both emission
    /// orders: `other`'s arcs follow this store's, with their leaf byte
    /// windows shifted past this arena. Appending per-chunk stores in
    /// chunk order therefore reproduces exactly the store a single
    /// serial trace over the concatenated input would have built.
    fn append(&mut self, mut other: ArcStore) {
        debug_assert_eq!(self.refined, other.refined);
        let shift = self.steps.len() as u32;
        u32::try_from(self.steps.len() + other.steps.len())
            .expect("leaf bytes exceed u32 addressing");
        self.steps.append(&mut other.steps);
        self.recs.extend(other.recs.into_iter().map(|mut r| {
            r.offset += shift;
            r
        }));
    }
}

/// The cell one step code away from `c`: code `2·axis + (step > 0)`,
/// the gradient byte's direction code and a leaf's step code alike. A
/// step below 0 wraps, off every box.
#[inline]
fn step(c: RCoord, code: u8) -> RCoord {
    let axis = (code >> 1) as usize;
    let v = c.get(axis);
    let to = if code & 1 == 1 {
        v + 1
    } else {
        v.wrapping_sub(1)
    };
    c.with(axis, to)
}

/// Safety limits for tracing (pathological fields can have very many
/// paths; real data does not come close).
#[derive(Debug, Clone, Copy)]
pub struct TraceLimits {
    /// Maximum number of arcs emitted per critical cell.
    pub max_paths_per_node: usize,
}

impl Default for TraceLimits {
    fn default() -> Self {
        TraceLimits {
            max_paths_per_node: 1_000_000,
        }
    }
}

/// Counters reported by a tracing pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    pub arcs: u64,
    pub truncated_nodes: u64,
    pub path_cells_total: u64,
}

/// Trace every descending V-path from every critical cell of positive
/// index, returning all arcs of the block's MS complex 1-skeleton.
/// Serial. Addresses lie on the smallest refined grid holding the
/// gradient's box; [`trace_arcs_from`] takes the domain's.
pub fn trace_all_arcs(grad: &GradientField, limits: TraceLimits) -> (ArcStore, TraceStats) {
    trace_all_arcs_kernel(grad, limits, 1, Kernel::default())
}

/// [`trace_all_arcs`] on `threads` workers: the address-ordered critical
/// list is chunked contiguously across them and the per-chunk stores are
/// concatenated in chunk order, so the result is identical for every
/// thread count. The [`Kernel`] argument selects nothing (see its docs).
pub fn trace_all_arcs_kernel(
    grad: &GradientField,
    limits: TraceLimits,
    threads: usize,
    _kernel: Kernel,
) -> (ArcStore, TraceStats) {
    let hi = grad.bbox().hi;
    let refined = RefinedDims {
        rx: u64::from(hi.x) + 1,
        ry: u64::from(hi.y) + 1,
        rz: u64::from(hi.z) + 1,
    };
    trace_arcs_from(grad, &grad.critical_cells(), refined, limits, threads)
}

/// [`trace_all_arcs_kernel`] for a caller that already holds
/// `grad.critical_cells()` (the complex builder adds them as nodes
/// first): `critical` must be that list, in address order, and each
/// arc's `upper` is its upper cell's position there. Addresses lie on
/// `refined`, the dataset's refined grid.
pub fn trace_arcs_from(
    grad: &GradientField,
    critical: &[RCoord],
    refined: RefinedDims,
    limits: TraceLimits,
    threads: usize,
) -> (ArcStore, TraceStats) {
    let workers = threads.min(critical.len()).max(1);
    let live = critical
        .iter()
        .any(|c| c.cell_dim() == 3)
        .then(|| LiveVoxels::of(grad, critical));
    let live = live.as_ref();
    let trace_chunk = |base: usize, chunk: &[RCoord]| {
        let mut arcs = ArcStore::new(refined);
        let mut stats = TraceStats::default();
        let mut tracer = FlatTracer::new(grad, refined, live);
        for (i, &c) in chunk.iter().enumerate() {
            if c.cell_dim() >= 1 {
                tracer.trace_from(grad, (base + i) as u32, c, limits, &mut arcs, &mut stats);
            }
        }
        (arcs, stats)
    };
    if workers <= 1 {
        return trace_chunk(0, critical);
    }
    let chunk = critical.len().div_ceil(workers);
    let chunks: Vec<&[RCoord]> = critical.chunks(chunk).collect();
    let mut parts =
        msp_grid::par::par_map(workers, &chunks, |k, ch| trace_chunk(k * chunk, ch)).into_iter();
    let (mut arcs, mut stats) = parts.next().expect("at least one chunk");
    for (a, s) in parts {
        arcs.append(a);
        stats.arcs += s.arcs;
        stats.truncated_nodes += s.truncated_nodes;
        stats.path_cells_total += s.path_cells_total;
    }
    (arcs, stats)
}

/// One bit per voxel of a gradient's box: set iff some descending V-path
/// from the voxel reaches a critical 2-cell (module docs, "Live voxels").
struct LiveVoxels {
    lo: [u32; 3],
    /// Voxels per row and per plane (a voxel has all coordinates odd).
    vx: usize,
    vxy: usize,
    bits: Vec<u64>,
}

impl LiveVoxels {
    /// Mark the live voxels of `grad` by walking upward from both voxel
    /// cofacets of every critical 2-cell in `critical`.
    fn of(grad: &GradientField, critical: &[RCoord]) -> Self {
        let bbox = grad.bbox();
        let lo = [bbox.lo.x, bbox.lo.y, bbox.lo.z];
        let per_axis = |a: usize| (bbox.hi.get(a) - lo[a]) as usize / 2 + 1;
        let (vx, vxy) = (per_axis(0), per_axis(0) * per_axis(1));
        let mut live = LiveVoxels {
            lo,
            vx,
            vxy,
            bits: vec![0; (vxy * per_axis(2)).div_ceil(64)],
        };
        for &q in critical.iter().filter(|c| c.cell_dim() == 2) {
            let axis = (0..3)
                .find(|&a| q.get(a) % 2 == 0)
                .expect("a 2-cell has an even axis");
            let c = q.get(axis);
            for v in [q.with(axis, c.wrapping_sub(1)), q.with(axis, c + 1)] {
                if bbox.contains(v) {
                    live.mark_upward(grad, v);
                }
            }
        }
        live
    }

    /// Mark `v` and the voxels above it: its paired quad's other voxel,
    /// and so on, until a maximum, the box face or a marked voxel.
    fn mark_upward(&mut self, grad: &GradientField, mut v: RCoord) {
        loop {
            if self.contains(v) {
                return;
            }
            let i = self.index(v);
            self.bits[i / 64] |= 1 << (i % 64);
            let b = grad.byte_at(grad.linear_index(v));
            if b & PAIRED == 0 {
                return; // a maximum
            }
            // a voxel is always the head: the code points at its quad,
            // and the quad's other voxel is one more step that way
            v = step(step(v, b & DIR_MASK), b & DIR_MASK);
            if !grad.bbox().contains(v) {
                return; // the quad lies on the box face
            }
        }
    }

    #[inline]
    fn index(&self, v: RCoord) -> usize {
        let at = |a: usize| (v.get(a) - self.lo[a]) as usize / 2;
        at(0) + self.vx * at(1) + self.vxy * at(2)
    }

    #[inline]
    fn contains(&self, v: RCoord) -> bool {
        let i = self.index(v);
        self.bits[i / 64] >> (i % 64) & 1 != 0
    }
}

/// Reusable scratch of the flat tracer: the DFS stack and path prefix
/// are cleared — capacity kept — between critical cells, so a whole
/// chunk traces with zero allocations after warm-up beyond the store's
/// own. Frames carry each cell's linear byte index and the step code
/// that reaches it alongside its coordinate: facet neighbors are
/// `± stride` hops, the per-step state test is a single byte read, and
/// the path prefix is already the step codes a leaf stores. With `live`
/// set, a maximum's DFS expands only live voxels; without, it is the
/// plain DFS.
struct FlatTracer<'a> {
    lo: [u32; 3],
    hi: [u32; 3],
    strides: [isize; 3],
    refined: RefinedDims,
    live: Option<&'a LiveVoxels>,
    /// Step codes of the current path, one per cell after its root.
    path: Vec<u8>,
    /// (cell, linear index, depth to truncate the path to, step code
    /// onto the cell).
    stack: Vec<(RCoord, usize, usize, u8)>,
    #[cfg(test)]
    pops: u64,
}

impl<'a> FlatTracer<'a> {
    fn new(grad: &GradientField, refined: RefinedDims, live: Option<&'a LiveVoxels>) -> Self {
        let bbox = grad.bbox();
        let (sx, sxy) = grad.strides();
        FlatTracer {
            lo: [bbox.lo.x, bbox.lo.y, bbox.lo.z],
            hi: [bbox.hi.x, bbox.hi.y, bbox.hi.z],
            strides: [1, sx as isize, sxy as isize],
            refined,
            live,
            path: Vec::new(),
            stack: Vec::new(),
            #[cfg(test)]
            pops: 0,
        }
    }

    /// Push the facets of `c` in `FaceDir::ALL` order (axis-major,
    /// negative before positive) — the exact order
    /// `msp_grid::topology::facets` yields, which fixes the LIFO pops and
    /// hence the arc emission order that `tests/pinned_bytes.rs` pins.
    /// `skip` is the linear index of the facet the path arrived from.
    #[inline]
    fn push_facets(&mut self, c: RCoord, ci: usize, depth: usize, skip: usize) {
        for axis in 0..3 {
            let v = c.get(axis);
            if v.is_multiple_of(2) {
                continue; // no facet along an even axis
            }
            let s = self.strides[axis];
            let code = 2 * axis as u8;
            if v > self.lo[axis] {
                let fi = (ci as isize - s) as usize;
                if fi != skip {
                    self.stack.push((c.with(axis, v - 1), fi, depth, code));
                }
            }
            if v < self.hi[axis] {
                let fi = (ci as isize + s) as usize;
                if fi != skip {
                    self.stack.push((c.with(axis, v + 1), fi, depth, code + 1));
                }
            }
        }
    }

    /// Trace all descending paths from one critical cell, at position
    /// `pos` of the critical list, by an explicit DFS over linear
    /// indices. The path alternates (d−1)-cells and d-cells; `path`
    /// holds the current prefix's step codes, and each frame records the
    /// length to truncate it to before stepping onto its cell.
    fn trace_from(
        &mut self,
        grad: &GradientField,
        pos: u32,
        from: RCoord,
        limits: TraceLimits,
        arcs: &mut ArcStore,
        stats: &mut TraceStats,
    ) {
        debug_assert!(from.cell_dim() >= 1);
        let start = from.address(&self.refined);
        let live = self.live.filter(|_| from.cell_dim() == 3);
        let mut emitted = 0usize;
        self.path.clear();
        self.stack.clear();
        self.push_facets(from, grad.linear_index(from), 0, usize::MAX);
        while let Some((alpha, ai, depth, code)) = self.stack.pop() {
            #[cfg(test)]
            {
                self.pops += 1;
            }
            self.path.truncate(depth);
            self.path.push(code);
            let b = grad.byte_at(ai);
            if b & CRITICAL != 0 {
                if emitted >= limits.max_paths_per_node {
                    stats.truncated_nodes += 1;
                    break;
                }
                emitted += 1;
                stats.arcs += 1;
                stats.path_cells_total += self.path.len() as u64 + 1;
                arcs.push(pos, start, alpha.address(&self.refined), &self.path);
                continue;
            }
            if b & PAIRED == 0 || b & TAIL == 0 {
                continue; // head cell: flow does not continue through it
            }
            // partner is a cofacet (TAIL), one step along the stored
            // direction, whose code is the step's
            let code = b & DIR_MASK;
            let beta = step(alpha, code);
            let s = self.strides[(code >> 1) as usize];
            let bi = if code & 1 == 1 {
                (ai as isize + s) as usize
            } else {
                (ai as isize - s) as usize
            };
            debug_assert_eq!(beta.cell_dim(), from.cell_dim());
            if live.is_some_and(|l| !l.contains(beta)) {
                continue; // no critical 2-cell below beta
            }
            self.path.push(code);
            self.push_facets(beta, bi, self.path.len(), ai);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_star::assign_gradient;
    use msp_grid::decomp::Decomposition;
    use msp_grid::{Dims, ScalarField};

    fn grad_of(f: &ScalarField) -> GradientField {
        let d = Decomposition::bisect(f.dims(), 1);
        assign_gradient(&f.extract_block(d.block(0)), &d)
    }

    #[test]
    fn ramp_has_no_arcs() {
        let f = msp_synth::ramp(Dims::new(5, 5, 5));
        let g = grad_of(&f);
        let (arcs, stats) = trace_all_arcs(&g, TraceLimits::default());
        assert!(arcs.is_empty(), "a fully collapsed field has no arcs");
        assert_eq!(stats.arcs, 0);
    }

    #[test]
    fn arcs_connect_adjacent_indices() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 4);
        let g = grad_of(&f);
        let (arcs, _) = trace_all_arcs(&g, TraceLimits::default());
        assert!(!arcs.is_empty());
        for a in arcs.iter() {
            assert_eq!(a.upper.cell_dim(), a.lower.cell_dim() + 1);
            assert!(g.is_critical(a.upper));
            assert!(g.is_critical(a.lower));
            assert_eq!(a.geom[0], a.upper);
            assert_eq!(*a.geom.last().unwrap(), a.lower);
        }
    }

    #[test]
    fn path_is_valid_v_path() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 11);
        let g = grad_of(&f);
        let (arcs, _) = trace_all_arcs(&g, TraceLimits::default());
        for a in arcs.iter() {
            // geometry alternates d, d-1, d, d-1, ..., d-1
            let d = a.upper.cell_dim();
            for (i, c) in a.geom.iter().enumerate() {
                let expect = if i % 2 == 0 { d } else { d - 1 };
                assert_eq!(c.cell_dim(), expect, "alternating dims in path");
            }
            // interior (d-1)-cells are tails paired with the next d-cell
            for w in a.geom.windows(2).skip(1).step_by(2) {
                assert_eq!(g.partner(w[0]), Some(w[1]));
            }
        }
    }

    #[test]
    fn two_bump_field_has_saddle_between_maxima() {
        // two bumps => two maxima separated by a 2-saddle; the 2-saddle
        // must have arcs to both maxima
        let dims = Dims::new(17, 9, 9);
        let f = ScalarField::from_fn(dims, |x, y, z| {
            let b1 =
                (-((x as f32 - 4.0).powi(2) + (y as f32 - 4.0).powi(2) + (z as f32 - 4.0).powi(2))
                    / 6.0)
                    .exp();
            let b2 = (-((x as f32 - 12.0).powi(2)
                + (y as f32 - 4.0).powi(2)
                + (z as f32 - 4.0).powi(2))
                / 6.0)
                .exp();
            b1 + b2
        });
        let g = grad_of(&f);
        let census = g.census();
        assert_eq!(census[3], 2, "two maxima: {:?}", census);
        let (arcs, _) = trace_all_arcs(&g, TraceLimits::default());
        // find 2-saddle -> max arcs; some saddle must reach two distinct maxima
        use std::collections::HashMap;
        let mut reach: HashMap<RCoord, std::collections::HashSet<RCoord>> = HashMap::new();
        for a in arcs.iter() {
            if a.upper.cell_dim() == 3 {
                // descending from maxima to 2-saddles: group by lower
                reach.entry(a.lower).or_default().insert(a.upper);
            }
        }
        assert!(
            reach.values().any(|s| s.len() == 2),
            "a 2-saddle should connect the two maxima"
        );
    }

    #[test]
    fn arc_store_append_matches_single_store() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 4);
        let g = grad_of(&f);
        let (whole, _) = trace_all_arcs(&g, TraceLimits::default());
        // re-trace in two halves and append
        let crits = g.critical_cells();
        let mid = crits.len() / 2;
        let mut parts = ArcStore::new(whole.refined);
        let mut stats = TraceStats::default();
        for (base, half) in [(0, &crits[..mid]), (mid, &crits[mid..])] {
            let mut a = ArcStore::new(whole.refined);
            let mut tracer = FlatTracer::new(&g, whole.refined, None);
            for (i, &c) in half.iter().enumerate().filter(|(_, c)| c.cell_dim() >= 1) {
                let pos = (base + i) as u32;
                tracer.trace_from(&g, pos, c, TraceLimits::default(), &mut a, &mut stats);
            }
            parts.append(a);
        }
        assert_eq!(parts, whole);
    }

    /// Each node's arcs in emission order (a node's arcs are contiguous).
    fn arcs_by_node(store: &ArcStore) -> Vec<(RCoord, Vec<TracedArc>)> {
        let mut nodes: Vec<(RCoord, Vec<TracedArc>)> = Vec::new();
        for a in store.iter() {
            match nodes.last_mut() {
                Some((u, arcs)) if *u == a.upper => arcs.push(a),
                _ => nodes.push((a.upper, vec![a])),
            }
        }
        nodes
    }

    #[test]
    fn truncation_limit_respected() {
        let f = msp_synth::sinusoid_dims(Dims::cube(17), 2);
        let g = grad_of(&f);
        let (full, _) = trace_all_arcs(&g, TraceLimits::default());
        let full = arcs_by_node(&full);
        for k in 1..=3 {
            let limits = TraceLimits {
                max_paths_per_node: k,
            };
            let (limited, stats) = trace_all_arcs(&g, limits);
            let limited = arcs_by_node(&limited);
            // every node with an arc keeps at least one, so the nodes align
            assert_eq!(limited.len(), full.len());
            for ((u, got), (fu, want)) in limited.iter().zip(&full) {
                assert_eq!(u, fu);
                assert_eq!(got[..], want[..want.len().min(k)], "node {u:?}, k = {k}");
            }
            let over = full.iter().filter(|(_, a)| a.len() > k).count() as u64;
            assert!(over > 0, "k = {k} truncates nothing");
            assert_eq!(stats.truncated_nodes, over, "k = {k}");
        }
    }

    /// Trace every critical cell of `g` with one tracer; also returns
    /// the DFS frames it popped.
    fn trace_counting(g: &GradientField, live: Option<&LiveVoxels>) -> (ArcStore, TraceStats, u64) {
        let (whole, _) = trace_all_arcs(g, TraceLimits::default());
        let mut tracer = FlatTracer::new(g, whole.refined, live);
        let (mut arcs, mut stats) = (ArcStore::new(whole.refined), TraceStats::default());
        for (i, c) in g.critical_cells().into_iter().enumerate() {
            if c.cell_dim() >= 1 {
                let limits = TraceLimits::default();
                tracer.trace_from(g, i as u32, c, limits, &mut arcs, &mut stats);
            }
        }
        (arcs, stats, tracer.pops)
    }

    #[test]
    fn live_pruning_keeps_every_arc_in_order() {
        let dims = Dims::new(21, 19, 17);
        let fields = [
            ("sinusoid", msp_synth::sinusoid_dims(dims, 2)),
            ("jet", msp_synth::jet(dims, 4, 3)),
            ("noise", msp_synth::white_noise(dims, 7)),
            ("plateau", msp_synth::plateau(dims, 7, 3)),
        ];
        let decomps = [
            Decomposition::bisect(dims, 4),
            Decomposition::random_tree(dims, 5, 2),
        ];
        for (name, f) in &fields {
            let mut pops = [0u64; 2];
            for d in &decomps {
                for b in d.blocks() {
                    let g = assign_gradient(&f.extract_block(b), d);
                    let live = LiveVoxels::of(&g, &g.critical_cells());
                    let (arcs, stats, plain) = trace_counting(&g, None);
                    let (pruned_arcs, pruned_stats, pruned) = trace_counting(&g, Some(&live));
                    assert_eq!(pruned_arcs, arcs, "{name}, block {}", b.id);
                    assert_eq!(pruned_stats, stats, "{name}, block {}", b.id);
                    pops[0] += plain;
                    pops[1] += pruned;
                }
            }
            assert!(pops[1] <= pops[0], "{name}: {pops:?}");
            if *name == "sinusoid" {
                assert!(pops[1] < pops[0], "{name}: {pops:?}");
            }
        }
    }
}
