//! Flat structure-of-arrays lower-star kernel.
//!
//! Runs the lower-star homotopy expansion (the Robins-Wood-Sheppard rule,
//! which `msp-oracle`'s `reference_gradient` writes out literally)
//! without priority queues, `CellKey` materialization, or any per-vertex
//! allocation. Every
//! candidate cell lives in the 3×3×3 refined cube around the vertex, so
//! the star is a 27-bit set ([`msp_grid::offsets`]) and each step below
//! works on the whole set at once. It rests on three observations and
//! one argument about block boundaries:
//!
//! 1. **The star's corners are its members' offsets.** The same offset
//!    index names a refined cell and a vertex neighbor. A cell is in the
//!    lower star iff all of its non-center corners are SoS-below the
//!    center, and its corners are its projections onto every subset of
//!    its nonzero axes — [`star_members`] tests that for all 27 cells in
//!    three shift-and-mask rounds over the "below" mask. A member's
//!    projections are members too, and a member's own offset is its far
//!    corner, so the vertices whose order the keys need are exactly
//!    `member & !CENTER`: no second table walk.
//!
//! 2. **In-star cell keys are rank sets.** All member cells share the
//!    center as their SoS-maximal vertex, so `CellKey` order restricted
//!    to one star is the lexicographic order of the *descending
//!    sequences of the remaining corners*, a proper prefix being less.
//!    Rank the ≤ 26 distinct corners once (by counting, over the words
//!    `ord << 5 | oi`: offset order is global-id order, which is the SoS
//!    tie-break) and let a cell's key be the set of its corners' ranks
//!    as a `u32` bit mask. Then `key(a) < key(b)` as integers iff
//!    `CellKey(a) < CellKey(b)`: let `r` be the highest rank in exactly
//!    one of the two sets, say `b`'s. Above `r` the descending sequences
//!    agree; at that position `b` has `r` and `a` has a smaller rank or
//!    has ended. Either way `a` is less, and `r` is also the highest bit
//!    in which the integers differ.
//!
//! 3. **The expansion rule is an eligibility mask and a minimum.** The
//!    rule always pairs the minimum-key cell that has exactly
//!    one unassigned same-group facet, and when no such cell exists it
//!    marks the minimum-key unassigned cell critical (which then
//!    necessarily has zero unassigned facets, since a facet's key is a
//!    strict subset of its coface's). [`one_facet`] gives "exactly one
//!    unassigned facet" for every cell of the group at once; the
//!    minimum runs over those cells, or over the whole group when there
//!    are none. Per-group independence means owner-set groups can run
//!    one after another.
//!
//! **Boundaries.** Pairing is restricted to cells with equal owner sets
//! (paper §IV-C). Every star cell has the vertex as a corner, so a block
//! whose box contains the cell contains the vertex: `owners(cell) ⊆
//! owners(vertex)`, and a block of `owners(vertex)` owns the cell iff
//! its box keeps that offset around the vertex. One `owners` walk for
//! the vertex plus one clip mask per other owner therefore partitions
//! the members by owner set.
//!
//! The sweep reads one precomputed array: the block's vertex values
//! mapped through [`OrderedF32`] (a pooled `Vec<u32>`, see
//! `crate::pool`), walked x-fastest with incrementally advanced indices.
//! Everything else is stack scratch, so the kernel performs zero heap
//! allocations after the per-block key array is built.

use crate::gradient::{GradientField, ASSIGNED, CRITICAL, PAIRED, TAIL};
use msp_grid::decomp::Decomposition;
use msp_grid::field::{BlockField, OrderedF32};
use msp_grid::offsets::{
    clip_mask, offset_of, one_facet, star_members, ALL_OFFSETS, CENTER, NEG_GID, STAR_FACETS,
};
use msp_grid::{Dims, RCoord};

const CENTER_BIT: u32 = 1 << CENTER;

/// Fill `out` with the block's vertex values mapped through the monotone
/// [`OrderedF32`] transform, in the block's own x-fastest layout. All
/// SoS value comparisons in the sweep become raw `u32` compares on this
/// array.
pub(crate) fn ordered_keys_into(field: &BlockField, out: &mut Vec<u32>) {
    out.clear();
    out.extend(field.data().iter().map(|&v| OrderedF32::new(v).0));
}

/// Immutable per-block state of the flat sweep, shared by every slab
/// thread.
pub(crate) struct FlatSweep<'a> {
    decomp: &'a Decomposition,
    /// `OrderedF32` words of the block's vertices (block-local layout).
    ord: &'a [u32],
    block_id: u32,
    /// Block bounds in **vertex** coordinates (inclusive).
    blo: [u32; 3],
    bhi: [u32; 3],
    /// Block-local vertex dims (for row starts into `ord`).
    bd: Dims,
    /// Block-local vertex index delta per offset.
    ld: [isize; 27],
}

/// The offset mask a box `[lo, hi]` (vertex coordinates) keeps around the
/// vertex `v` inside it.
#[inline]
fn box_clip(v: [u32; 3], lo: &[u32; 3], hi: &[u32; 3]) -> u32 {
    clip_mask(0, v[0] > lo[0], v[0] < hi[0])
        & clip_mask(1, v[1] > lo[1], v[1] < hi[1])
        & clip_mask(2, v[2] > lo[2], v[2] < hi[2])
}

impl<'a> FlatSweep<'a> {
    pub(crate) fn new(field: &'a BlockField, decomp: &'a Decomposition, ord: &'a [u32]) -> Self {
        let block = field.block();
        let bd = block.dims();
        debug_assert_eq!(ord.len() as u64, bd.n_verts());
        let mut ld = [0isize; 27];
        for (oi, l) in ld.iter_mut().enumerate() {
            let (dx, dy, dz) = offset_of(oi);
            *l = dx as isize + bd.nx as isize * (dy as isize + bd.ny as isize * dz as isize);
        }
        FlatSweep {
            decomp,
            ord,
            block_id: block.id,
            blo: block.lo,
            bhi: block.hi,
            bd,
            ld,
        }
    }

    /// Run the flat sweep for every vertex with z ∈ `[z0, z1]` (global
    /// vertex coordinates), writing into `grad` — which may cover just a
    /// slab's refined sub-box.
    pub(crate) fn sweep_z_range(&self, z0: u32, z1: u32, grad: &mut GradientField) {
        let (sx, sxy) = grad.strides();
        let mut rd = [0isize; 27];
        for (oi, r) in rd.iter_mut().enumerate() {
            let (dx, dy, dz) = offset_of(oi);
            *r = dx as isize + sx as isize * dy as isize + sxy as isize * dz as isize;
        }
        for z in z0..=z1 {
            let mz = clip_mask(2, z > self.blo[2], z < self.bhi[2]);
            for y in self.blo[1]..=self.bhi[1] {
                let my = mz & clip_mask(1, y > self.blo[1], y < self.bhi[1]);
                let li0 = self.bd.vertex_index(0, y - self.blo[1], z - self.blo[2]) as usize;
                let mut gi = grad.linear_index(RCoord::of_vertex(self.blo[0], y, z));
                for (k, x) in (self.blo[0]..=self.bhi[0]).enumerate() {
                    let valid = my & clip_mask(0, x > self.blo[0], x < self.bhi[0]);
                    self.process_vertex(li0 + k, gi, [x, y, z], valid, &rd, grad);
                    gi += 2;
                }
            }
        }
    }

    /// Assign the entire lower star of one vertex. `li` indexes `ord`,
    /// `gi` is the vertex cell's linear index in `grad`, `valid` is the
    /// box-clipped offset mask.
    fn process_vertex(
        &self,
        li: usize,
        gi: usize,
        v: [u32; 3],
        valid: u32,
        rd: &[isize; 27],
        grad: &mut GradientField,
    ) {
        let mut keys = [0u32; 27];
        let member = self.star_keys(li, valid, &mut keys);
        if member == CENTER_BIT {
            // Local SoS minimum: the star is just the vertex, critical.
            grad.write_byte(gi, ASSIGNED | CRITICAL);
        } else if valid == ALL_OFFSETS {
            // Interior fast path: the whole star has the singleton owner
            // set {block}, one group.
            expand_group(member, &keys, gi, rd, grad);
        } else {
            // Boundary: stratify members into owner-set groups (paper
            // §IV-C's pairing restriction) and expand each independently.
            // Cross-group operations commute — bytes only depend on the
            // within-group sequence — so running the groups one after
            // another writes the bytes of any interleaving.
            let mut groups = [0u32; 27];
            let n = self.owner_groups(v, member, &mut groups);
            for &g in &groups[..n] {
                expand_group(g, &keys, gi, rd, grad);
            }
        }
    }

    /// The lower star of the vertex at `ord[li]` as a member mask, and
    /// into the zeroed `keys` the rank-set key of every member cell by
    /// offset (the center's key is the empty set, the smallest).
    #[inline]
    fn star_keys(&self, li: usize, valid: u32, keys: &mut [u32; 27]) -> u32 {
        // The 27 neighbor words; a clipped offset reads the center, which
        // is never below itself.
        let mut w = [0u32; 27];
        for (oi, w) in w.iter_mut().enumerate() {
            let d = if valid >> oi & 1 != 0 { self.ld[oi] } else { 0 };
            *w = self.ord[(li as isize + d) as usize];
        }
        let k0 = w[CENTER];
        let mut below = 0u32;
        for (oi, &kn) in w.iter().enumerate() {
            let b = ((kn < k0) as u32) | (((kn == k0) as u32) & (NEG_GID >> oi & 1));
            below |= b << oi;
        }
        let member = star_members(below & valid);
        if member == CENTER_BIT {
            return member;
        }

        // Rank the star's corners (observation 1: the member offsets) by
        // counting; the words `ord << 5 | oi` are distinct.
        let mut corner = [0u64; 26];
        let mut n = 0usize;
        let mut m = member & !CENTER_BIT;
        while m != 0 {
            let oi = m.trailing_zeros();
            m &= m - 1;
            corner[n] = (w[oi as usize] as u64) << 5 | oi as u64;
            n += 1;
        }
        let mut rank = [0u32; 26];
        for i in 1..n {
            for j in 0..i {
                let lt = (corner[j] < corner[i]) as u32;
                rank[i] += lt;
                rank[j] += 1 - lt;
            }
        }

        // Observation 2: put each corner's rank bit at its own offset,
        // then or every cell into its two cofaces along x, then y, then
        // z. Each cell ends up with the bits of all its projections, its
        // corners. (Non-member cells collect bits nobody reads.)
        for (&c, &r) in corner[..n].iter().zip(&rank) {
            keys[(c & 31) as usize] = 1 << r;
        }
        for b in (1..27).step_by(3) {
            keys[b - 1] |= keys[b];
            keys[b + 1] |= keys[b];
        }
        for b in [3, 4, 5, 12, 13, 14, 21, 22, 23] {
            keys[b - 3] |= keys[b];
            keys[b + 3] |= keys[b];
        }
        for b in 9..18 {
            keys[b - 9] |= keys[b];
            keys[b + 9] |= keys[b];
        }
        member
    }

    /// Partition the member cells around the block-surface vertex `v` by
    /// owner set: two cells have the same owner set iff every other
    /// owner of the vertex keeps both or neither in its box (module
    /// docs, "Boundaries"). Fills `groups` and returns their count.
    #[inline]
    fn owner_groups(&self, v: [u32; 3], member: u32, groups: &mut [u32; 27]) -> usize {
        groups[0] = member;
        let mut n = 1usize;
        let owners = self.decomp.owners(RCoord::of_vertex(v[0], v[1], v[2]));
        for &b in owners.as_slice() {
            if b == self.block_id {
                continue;
            }
            let other = self.decomp.block(b);
            let keeps = box_clip(v, &other.lo, &other.hi);
            // split every group that straddles this owner's box
            let before = n;
            for g in 0..before {
                let out = groups[g] & !keeps;
                if out != 0 && out != groups[g] {
                    groups[g] &= keeps;
                    groups[n] = out;
                    n += 1;
                }
            }
        }
        n
    }
}

/// Homotopy-expand one owner-set group of a lower star, given as a
/// bitmask of unassigned member cells. The scan form of the expansion
/// rule: pair the min-key cell with exactly one unassigned same-group
/// facet; when none exists, the min-key unassigned cell (then
/// necessarily facet-free, as facet keys are strictly smaller) becomes
/// critical.
fn expand_group(
    mut un: u32,
    keys: &[u32; 27],
    gi: usize,
    rd: &[isize; 27],
    grad: &mut GradientField,
) {
    while un != 0 {
        let eligible = one_facet(un);
        let mut m = if eligible != 0 { eligible } else { un };
        // keys are distinct, so the low five bits only carry the index
        let mut best = u32::MAX;
        while m != 0 {
            let oi = m.trailing_zeros();
            m &= m - 1;
            best = best.min(keys[oi as usize] << 5 | oi);
        }
        let oi = (best & 31) as usize;
        if eligible != 0 {
            let fj = (STAR_FACETS[oi] & un).trailing_zeros() as usize;
            write_pair(gi, rd, fj, oi, grad);
            un &= !((1u32 << oi) | (1u32 << fj));
        } else {
            grad.write_byte(at(gi, rd[oi]), ASSIGNED | CRITICAL);
            un &= !(1u32 << oi);
        }
    }
}

#[inline]
fn at(gi: usize, d: isize) -> usize {
    (gi as isize + d) as usize
}

/// Write the two bytes of a gradient pair directly: `tail_oi` (the
/// facet, flow leaves through it) and `head_oi` (its coface) differ on
/// exactly one axis by one refined step, so their offset indices differ
/// by ±1, ±3 or ±9. Mirrors `GradientField::pair`'s byte encoding without
/// re-deriving coordinates.
fn write_pair(
    gi: usize,
    rd: &[isize; 27],
    tail_oi: usize,
    head_oi: usize,
    grad: &mut GradientField,
) {
    let step = head_oi as i32 - tail_oi as i32;
    let axis = (step.abs() >= 3) as u8 + (step.abs() >= 9) as u8;
    let positive = step > 0;
    let fwd = axis * 2 + positive as u8;
    let bwd = axis * 2 + (!positive) as u8;
    grad.write_byte(at(gi, rd[tail_oi]), ASSIGNED | PAIRED | TAIL | fwd);
    grad.write_byte(at(gi, rd[head_oi]), ASSIGNED | PAIRED | bwd);
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::decomp::OwnerSet;
    use msp_grid::topology::RBox;
    use msp_grid::ScalarField;

    #[test]
    fn ordered_keys_preserve_order() {
        let dims = Dims::new(4, 3, 2);
        let f = ScalarField::from_fn(dims, |x, y, z| (x as f32) - (y as f32) * 0.5 + z as f32);
        let d = Decomposition::bisect(dims, 1);
        let bf = f.extract_block(d.block(0));
        let mut ord = Vec::new();
        ordered_keys_into(&bf, &mut ord);
        assert_eq!(ord.len(), bf.data().len());
        for (i, &v) in bf.data().iter().enumerate() {
            assert_eq!(ord[i], OrderedF32::new(v).0);
        }
        for i in 1..ord.len() {
            assert_eq!(
                bf.data()[i - 1] < bf.data()[i],
                ord[i - 1] < ord[i],
                "monotone transform"
            );
        }
    }

    /// The refined cell at offset `oi` from the vertex `v`.
    fn cell_at(v: [u32; 3], oi: usize) -> RCoord {
        let (dx, dy, dz) = offset_of(oi);
        RCoord::new(
            (2 * v[0] as i32 + dx) as u32,
            (2 * v[1] as i32 + dy) as u32,
            (2 * v[2] as i32 + dz) as u32,
        )
    }

    /// Call `f(sweep, li, v, valid)` for every vertex of every block.
    fn for_each_vertex(
        field: &ScalarField,
        decomp: &Decomposition,
        mut f: impl FnMut(&FlatSweep, &BlockField, usize, [u32; 3], u32),
    ) {
        for b in decomp.blocks() {
            let bf = field.extract_block(b);
            let mut ord = Vec::new();
            ordered_keys_into(&bf, &mut ord);
            let sweep = FlatSweep::new(&bf, decomp, &ord);
            let mut li = 0;
            for z in b.lo[2]..=b.hi[2] {
                for y in b.lo[1]..=b.hi[1] {
                    for x in b.lo[0]..=b.hi[0] {
                        let v = [x, y, z];
                        f(&sweep, &bf, li, v, box_clip(v, &b.lo, &b.hi));
                        li += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn rank_set_order_is_cell_key_order() {
        // observation 2 against the definition it replaces, on distinct
        // values and on plateaus (equal words ranked by offset); two
        // blocks so that clipped stars are covered
        let dims = Dims::cube(6);
        let noise = msp_synth::white_noise(dims, 41);
        let plateau = msp_synth::plateau(dims, 41, 3);
        let decomp = Decomposition::bisect(dims, 2);
        let mut pairs = 0u64;
        for field in [&noise, &plateau] {
            for_each_vertex(field, &decomp, |sweep, bf, li, v, valid| {
                let mut keys = [0u32; 27];
                let member = sweep.star_keys(li, valid, &mut keys);
                let vkey = bf.vertex_key(RCoord::of_vertex(v[0], v[1], v[2]));
                let cells: Vec<usize> = (0..27).filter(|&oi| valid >> oi & 1 == 1).collect();
                for &a in &cells {
                    let ka = bf.cell_key(cell_at(v, a));
                    assert_eq!(
                        member >> a & 1 == 1,
                        ka.max_vertex() == vkey,
                        "membership of offset {a} around {v:?}"
                    );
                    if member >> a & 1 == 0 {
                        continue;
                    }
                    for &b in cells.iter().filter(|&&b| member >> b & 1 == 1) {
                        let kb = bf.cell_key(cell_at(v, b));
                        assert_eq!(ka < kb, keys[a] < keys[b], "offsets {a}, {b} around {v:?}");
                        pairs += 1;
                    }
                }
            });
        }
        assert!(pairs > 10_000, "only {pairs} member pairs compared");
    }

    #[test]
    fn owner_groups_partition_members_by_owner_set() {
        // the boundary argument where it can fail: irregular trees with
        // T-junctions, every surface vertex of every block
        let dims = Dims::new(11, 9, 10);
        let field = msp_synth::white_noise(dims, 8);
        let weights: Vec<u64> = field.data().iter().map(|v| (v * 50.0) as u64).collect();
        let mut decomps: Vec<Decomposition> = (0..8)
            .map(|seed| Decomposition::random_tree(dims, 2 + seed as u32 % 10, seed))
            .collect();
        decomps.push(Decomposition::adaptive(dims, 5, &weights));
        decomps.push(Decomposition::adaptive(dims, 7, &weights));
        let mut shared = 0u64;
        for decomp in &decomps {
            for_each_vertex(&field, decomp, |sweep, _, li, v, valid| {
                if valid == ALL_OFFSETS {
                    return;
                }
                let mut keys = [0u32; 27];
                let member = sweep.star_keys(li, valid, &mut keys);
                let mut groups = [0u32; 27];
                let n = sweep.owner_groups(v, member, &mut groups);
                let mut got = groups[..n].to_vec();
                got.sort_unstable();
                let mut by_owners: Vec<(OwnerSet, u32)> = Vec::new();
                for oi in (0..27).filter(|&oi| member >> oi & 1 == 1) {
                    let owners = decomp.owners(cell_at(v, oi));
                    match by_owners.iter_mut().find(|(o, _)| *o == owners) {
                        Some((_, mask)) => *mask |= 1 << oi,
                        None => by_owners.push((owners, 1 << oi)),
                    }
                }
                let mut want: Vec<u32> = by_owners.iter().map(|&(_, mask)| mask).collect();
                want.sort_unstable();
                assert_eq!(got, want, "vertex {v:?} of block {}", sweep.block_id);
                shared += (n > 1) as u64;
            });
        }
        assert!(
            shared > 500,
            "only {shared} vertices with more than one group"
        );
    }

    #[test]
    fn write_pair_matches_gradient_pair() {
        // all 54 (facet, coface) pairs of the star, both directions of
        // every axis
        let bbox = RBox::new(RCoord::new(0, 0, 0), RCoord::new(4, 4, 4));
        let v = [1, 1, 1];
        let mut rd = [0isize; 27];
        let (sx, sxy) = GradientField::new(bbox).strides();
        for (oi, r) in rd.iter_mut().enumerate() {
            let (dx, dy, dz) = offset_of(oi);
            *r = dx as isize + sx as isize * dy as isize + sxy as isize * dz as isize;
        }
        let mut n = 0;
        for (head, &facets) in STAR_FACETS.iter().enumerate() {
            for tail in (0..27).filter(|&t| facets >> t & 1 == 1) {
                let mut a = GradientField::new(bbox);
                a.pair(cell_at(v, tail), cell_at(v, head));
                let mut b = GradientField::new(bbox);
                let gi = b.linear_index(cell_at(v, CENTER));
                write_pair(gi, &rd, tail, head, &mut b);
                assert_eq!(a.bytes(), b.bytes(), "tail {tail} head {head}");
                n += 1;
            }
        }
        assert_eq!(n, 54);
    }
}
