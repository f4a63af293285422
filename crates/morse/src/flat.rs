//! Flat structure-of-arrays lower-star kernel.
//!
//! Runs the lower-star homotopy expansion (the Robins-Wood-Sheppard rule,
//! which `msp-oracle`'s `reference_gradient` writes out literally)
//! without priority queues, `CellKey` materialization, or any per-vertex
//! allocation. Every
//! candidate cell lives in the 3×3×3 refined cube around the vertex, so
//! the star is a 27-bit set ([`msp_grid::offsets`]) and each step below
//! works on the whole set at once. It rests on four observations and
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
//! 4. **The expansion is a pure function of the member mask and the
//!    corner order.** [`expand`] reads the group mask and the keys and
//!    emits a byte per member offset; the keys are fixed by the member
//!    mask and the corners' ranks, and the ranks by the outcome of every
//!    pairwise corner comparison. A one-group star with at most 8
//!    corners is therefore named by its 27-bit member mask plus one bit
//!    `corner[j] < corner[i]` per corner pair (at most 28), and two stars
//!    with the same name get the same bytes at the same offsets, inside
//!    the block or on its surface. A direct-mapped memo of
//!    [`MEMO_SLOTS`] slots keyed by that name replays the bytes on a
//!    hit, skipping the ranking, the key spreading and the expansion; a
//!    hit stores exactly what the miss would have computed, so the memo
//!    cannot move a byte. Smooth fields repeat a few thousand shapes: on
//!    a 129³ sinusoid in 8 blocks, 99.7 % of the lookups hit. Most of
//!    those stars (86.5 % of all of them there) are one of the eight
//!    [`OCTANTS`]: the vertex and the seven cells of one unit cube it is
//!    the maximum of. Their seven corners sit at fixed offsets, so their
//!    key (the same `u64`) is seven loads and 21 compares of
//!    straight-line code, and a hit is eight fixed stores.
//!
//! **Boundaries.** Pairing is restricted to cells with equal owner sets
//! (paper §IV-C). Every star cell has the vertex as a corner, so a block
//! whose box contains the cell contains the vertex: `owners(cell) ⊆
//! owners(vertex)`, and a block of `owners(vertex)` owns the cell iff
//! its box keeps that offset around the vertex. One `owners` walk for
//! the vertex plus one clip mask per other owner therefore partitions
//! the members by owner set. A surface star whose members form one group
//! (every star on a domain face that one block owns, and most at
//! T-junctions) has an interior star's name and goes through the memo.
//! Stars with two or more groups, local minima and stars with more than
//! 8 corners skip it: [`expand`] hands their bytes straight to the
//! gradient, group by group, with no byte array in between.
//!
//! The sweep reads one precomputed array: the block's vertex values
//! mapped through [`OrderedF32`] (a pooled `Vec<u32>`, see
//! `crate::pool`), walked x-fastest. A vertex on the block surface loads
//! its 27 neighbor words one offset at a time, each clipped to the box.
//! A `(y, z)` row strictly inside the block instead takes the nine rows
//! around it as slices of that array once and classifies all its
//! vertices but the two ends at once: [`row_below`] fills one reused
//! `below` mask per vertex with three vectorized passes of slice-against-
//! slice compares, one per z plane of the cube. Each of those vertices
//! then reads its corner words straight from the row slices, with no
//! per-offset clip and no 27-word copy unless it misses the memo or
//! expands directly; the two ends and every surface row keep the clipped
//! loads. Everything else is stack scratch, so beyond the per-block key
//! array the kernel allocates one memo table and one row of masks per
//! slab call and nothing per vertex.

use crate::gradient::{GradientField, ASSIGNED, CRITICAL, PAIRED, TAIL};
use msp_grid::decomp::Decomposition;
use msp_grid::field::{BlockField, OrderedF32};
use msp_grid::offsets::{
    clip_mask, index_of, offset_of, one_facet, star_members, CENTER, NEG_GID, STAR_FACETS,
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
        self.sweep_with(z0, z1, &mut Memo::new(), grad);
    }

    /// [`sweep_z_range`](Self::sweep_z_range) with the caller's memo.
    fn sweep_with(&self, z0: u32, z1: u32, memo: &mut Memo, grad: &mut GradientField) {
        let rd = refined_deltas(grad);
        let nx = self.bd.nx as usize;
        // the `below` masks of one interior row's vertices 1..nx-1
        let mut below = vec![0u32; nx.saturating_sub(2)];
        for z in z0..=z1 {
            let z_inside = z > self.blo[2] && z < self.bhi[2];
            let mz = clip_mask(2, z > self.blo[2], z < self.bhi[2]);
            for y in self.blo[1]..=self.bhi[1] {
                let my = mz & clip_mask(1, y > self.blo[1], y < self.bhi[1]);
                let li0 = self.bd.vertex_index(0, y - self.blo[1], z - self.blo[2]) as usize;
                let gi0 = grad.linear_index(RCoord::of_vertex(self.blo[0], y, z));
                if !(z_inside && y > self.blo[1] && y < self.bhi[1] && nx >= 3) {
                    for (k, x) in (self.blo[0]..=self.bhi[0]).enumerate() {
                        let valid = my & clip_mask(0, x > self.blo[0], x < self.bhi[0]);
                        let v = [x, y, z];
                        self.surface_vertex(li0 + k, gi0 + 2 * k, v, valid, &rd, memo, grad);
                    }
                    continue;
                }
                // Interior row: the nine rows around it as slices, the
                // `below` masks of all its vertices but the two ends
                // from three passes of slice compares, and the corner
                // words read from the slices, unclipped.
                let rows = self.rows_around(li0);
                let ends = [
                    (0, clip_mask(0, false, true)),
                    (nx - 1, clip_mask(0, true, false)),
                ];
                for (k, mx) in ends {
                    let v = [self.blo[0] + k as u32, y, z];
                    self.surface_vertex(li0 + k, gi0 + 2 * k, v, my & mx, &rd, memo, grad);
                }
                row_below(&rows, &mut below);
                for (k, &b) in (1..nx - 1).zip(&below) {
                    let gi = gi0 + 2 * k;
                    let member = star_members(b);
                    let corners = (member & !CENTER_BIT).count_ones();
                    if corners == 0 {
                        // Local SoS minimum: the star is just the vertex.
                        grad.write_byte(gi, ASSIGNED | CRITICAL);
                    } else if corners > 8 {
                        assign_direct(&row_words(&rows, k), member, &[member], gi, &rd, grad);
                    } else if let Some(o) = octant(member) {
                        assign_octant(o, memo, &rows, k, gi, &rd, grad);
                    } else {
                        let key = row_key(&rows, k, member);
                        assign_memo(memo, key, member, || row_words(&rows, k), gi, &rd, grad);
                    }
                }
            }
        }
    }

    /// Assign the lower star of the block-surface vertex `v`: `li`
    /// indexes `ord`, `gi` is the vertex cell's linear index in `grad`,
    /// `valid` is the box-clipped offset mask. A star whose members all
    /// have one owner set and that has 1 to 8 corners goes through the
    /// memo like an interior one; minima and the rest expand directly.
    #[allow(clippy::too_many_arguments)]
    fn surface_vertex(
        &self,
        li: usize,
        gi: usize,
        v: [u32; 3],
        valid: u32,
        rd: &[isize; 27],
        memo: &mut Memo,
        grad: &mut GradientField,
    ) {
        let w = self.neighbor_words(li, valid);
        let member = star_member(&w, valid);
        if member == CENTER_BIT {
            return grad.write_byte(gi, ASSIGNED | CRITICAL);
        }
        let mut groups = [0u32; 27];
        let n = self.owner_groups(v, member, &mut groups);
        if n == 1 && (member & !CENTER_BIT).count_ones() <= 8 {
            #[cfg(test)]
            {
                memo.surface += 1;
            }
            return assign_memo(memo, memo_key(&w, member), member, || w, gi, rd, grad);
        }
        assign_direct(&w, member, &groups[..n], gi, rd, grad);
    }

    /// The nine rows of `ord` around the interior row starting at
    /// `ord[li0]`, by offset `3 * j + 1` (dz, dy of row `j`).
    fn rows_around(&self, li0: usize) -> [&[u32]; 9] {
        let nx = self.bd.nx as usize;
        std::array::from_fn(|j| {
            let s = (li0 as isize + self.ld[3 * j + 1]) as usize;
            &self.ord[s..s + nx]
        })
    }

    /// The 27 neighbor words of the vertex at `ord[li]`; a clipped offset
    /// reads the center, which is never below itself.
    #[inline]
    fn neighbor_words(&self, li: usize, valid: u32) -> [u32; 27] {
        let mut w = [0u32; 27];
        for (oi, w) in w.iter_mut().enumerate() {
            let d = if valid >> oi & 1 != 0 { self.ld[oi] } else { 0 };
            *w = self.ord[(li as isize + d) as usize];
        }
        w
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

/// Assign a lower star without the memo, expanding straight into `grad`:
/// `w` are the neighbor words, `member` the star's member mask and
/// `groups` its owner-set groups (module docs, "Boundaries"). Cross-group
/// operations commute — bytes only depend on the within-group sequence —
/// so running the groups one after another writes the bytes of any
/// interleaving.
fn assign_direct(
    w: &[u32; 27],
    member: u32,
    groups: &[u32],
    gi: usize,
    rd: &[isize; 27],
    grad: &mut GradientField,
) {
    let mut keys = [0u32; 27];
    star_keys(w, member, &mut keys);
    for &g in groups {
        expand(g, &keys, |oi, b| grad.write_byte(at(gi, rd[oi]), b));
    }
}

/// Assign a one-group lower star with 1 to 8 corners through the memo
/// (observation 4): replay the slot of `key` on a hit, or fill it from
/// the neighbor words `words()` on a miss.
#[inline]
fn assign_memo(
    memo: &mut Memo,
    key: u64,
    member: u32,
    words: impl FnOnce() -> [u32; 27],
    gi: usize,
    rd: &[isize; 27],
    grad: &mut GradientField,
) {
    let slot = memo.slot(key);
    if slot.0 == key {
        return write_star(member, &slot.1, gi, rd, grad);
    }
    fill_slot(slot, key, member, &words(), gi, rd, grad);
}

/// The memo miss: expand the star `member` with neighbor words `w` into
/// the slot's bytes and `grad` at once, and name the slot `key`.
#[inline]
fn fill_slot(
    slot: &mut (u64, [u8; 27]),
    key: u64,
    member: u32,
    w: &[u32; 27],
    gi: usize,
    rd: &[isize; 27],
    grad: &mut GradientField,
) {
    let mut keys = [0u32; 27];
    star_keys(w, member, &mut keys);
    let bytes = &mut slot.1;
    expand(member, &keys, |oi, b| {
        bytes[oi] = b;
        grad.write_byte(at(gi, rd[oi]), b);
    });
    slot.0 = key;
}

/// [`assign_memo`] for the octant star `OCTANTS[o]` around vertex `k` of
/// an interior row.
#[inline(always)]
fn assign_octant(
    o: usize,
    memo: &mut Memo,
    rows: &[&[u32]; 9],
    k: usize,
    gi: usize,
    rd: &[isize; 27],
    grad: &mut GradientField,
) {
    match o {
        0 => assign_octant_of::<0>(memo, rows, k, gi, rd, grad),
        1 => assign_octant_of::<1>(memo, rows, k, gi, rd, grad),
        2 => assign_octant_of::<2>(memo, rows, k, gi, rd, grad),
        3 => assign_octant_of::<3>(memo, rows, k, gi, rd, grad),
        4 => assign_octant_of::<4>(memo, rows, k, gi, rd, grad),
        5 => assign_octant_of::<5>(memo, rows, k, gi, rd, grad),
        6 => assign_octant_of::<6>(memo, rows, k, gi, rd, grad),
        _ => assign_octant_of::<7>(memo, rows, k, gi, rd, grad),
    }
}

/// [`assign_octant`] for one octant: the key's loads and order bits and
/// a hit's eight stores are straight-line code at compile-time offsets.
#[inline(always)]
fn assign_octant_of<const O: usize>(
    memo: &mut Memo,
    rows: &[&[u32]; 9],
    k: usize,
    gi: usize,
    rd: &[isize; 27],
    grad: &mut GradientField,
) {
    let key = octant_key::<O>(rows, k);
    let slot = memo.slot(key);
    if slot.0 != key {
        return fill_slot(slot, key, OCTANTS[O], &row_words(rows, k), gi, rd, grad);
    }
    for oi in OCTANT_CORNERS[O] {
        grad.write_byte(at(gi, rd[oi]), slot.1[oi]);
    }
    grad.write_byte(gi, slot.1[CENTER]);
}

/// Fill `below[k - 1]` with the `below` mask (the offsets SoS-below the
/// center) of vertex `k` of the interior row whose nine surrounding rows
/// are `rows`, for every `k` in `1..nx - 1`: three passes over the row,
/// one per z plane of the cube, each comparing nine shifted slices
/// against the center slice, which the compiler vectorizes. Equal words
/// are below at [`NEG_GID`] offsets, the SoS tie-break.
fn row_below(rows: &[&[u32]; 9], below: &mut [u32]) {
    let center = &rows[CENTER / 3][1..below.len() + 1];
    let plane = |z: usize| [rows[3 * z], rows[3 * z + 1], rows[3 * z + 2]];
    plane_below::<{ NEG_GID & 0x1ff }, false>(below, center, plane(0), 0);
    plane_below::<{ NEG_GID >> 9 & 0x1ff }, true>(below, center, plane(1), 9);
    plane_below::<{ NEG_GID >> 18 & 0x1ff }, true>(below, center, plane(2), 18);
}

/// One z plane of [`row_below`]: the nine bits from `shift` up, stored
/// (`OR` false) or or-ed in; bit `i` of `NEG` marks a tie-break offset.
#[inline(always)]
fn plane_below<const NEG: u32, const OR: bool>(
    below: &mut [u32],
    center: &[u32],
    rows: [&[u32]; 3],
    shift: u32,
) {
    let n = below.len();
    let w: [&[u32]; 9] = std::array::from_fn(|i| &rows[i / 3][i % 3..i % 3 + n]);
    for j in 0..n {
        let c = center[j];
        let mut m = 0u32;
        for (i, w) in w.iter().enumerate() {
            let b = if NEG >> i & 1 != 0 {
                w[j] <= c
            } else {
                w[j] < c
            };
            m |= (b as u32) << i;
        }
        below[j] = if OR {
            below[j] | m << shift
        } else {
            m << shift
        };
    }
}

/// The 27 neighbor words of vertex `k` of an interior row, by offset.
#[inline]
fn row_words(rows: &[&[u32]; 9], k: usize) -> [u32; 27] {
    let mut w = [0u32; 27];
    for (w, r) in w.chunks_exact_mut(3).zip(rows) {
        w.copy_from_slice(&r[k - 1..k + 2]);
    }
    w
}

/// The lower star of the vertex with neighbor words `w` and box clip
/// `valid`, as a member mask.
#[inline]
fn star_member(w: &[u32; 27], valid: u32) -> u32 {
    let k0 = w[CENTER];
    let mut below = 0u32;
    for (oi, &kn) in w.iter().enumerate() {
        let b = ((kn < k0) as u32) | (((kn == k0) as u32) & (NEG_GID >> oi & 1));
        below |= b << oi;
    }
    star_members(below & valid)
}

/// Fill the zeroed `keys` with the rank-set key of every cell of the star
/// `member` by offset (the center's key is the empty set, the smallest).
#[inline]
fn star_keys(w: &[u32; 27], member: u32, keys: &mut [u32; 27]) {
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

    // Observation 2: put each corner's rank bit at its own offset, then
    // or every cell into its two cofaces along x, then y, then z. Each
    // cell ends up with the bits of all its projections, its corners.
    // (Non-member cells collect bits nobody reads.)
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
}

/// Slots of the star memo (observation 4).
const MEMO_SLOTS: usize = 4096;

/// Direct-mapped memo of one-group star expansions: `(key, bytes)` per
/// slot, key 0 marking an empty one (a real key has the center bit).
/// One per [`FlatSweep::sweep_z_range`] call, so slab threads share
/// nothing.
struct Memo {
    slots: Box<[(u64, [u8; 27]); MEMO_SLOTS]>,
    #[cfg(test)]
    lookups: u64,
    /// Of `lookups`, those of block-surface stars.
    #[cfg(test)]
    surface: u64,
    #[cfg(test)]
    hits: u64,
    #[cfg(test)]
    evictions: u64,
}

impl Memo {
    fn new() -> Self {
        let slots = vec![(0, [0; 27]); MEMO_SLOTS].into_boxed_slice();
        Memo {
            slots: slots.try_into().expect("MEMO_SLOTS slots"),
            #[cfg(test)]
            lookups: 0,
            #[cfg(test)]
            surface: 0,
            #[cfg(test)]
            hits: 0,
            #[cfg(test)]
            evictions: 0,
        }
    }

    /// The one slot `key` may live in.
    #[inline]
    fn slot(&mut self, key: u64) -> &mut (u64, [u8; 27]) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_SLOTS.trailing_zeros());
        let slot = &mut self.slots[h as usize];
        #[cfg(test)]
        {
            self.lookups += 1;
            self.hits += (slot.0 == key) as u64;
            self.evictions += (slot.0 != key && slot.0 != 0) as u64;
        }
        slot
    }
}

/// [`memo_key`] of vertex `k` of an interior row, its corner words
/// read from the row slices.
#[inline]
fn row_key(rows: &[&[u32]; 9], k: usize, member: u32) -> u64 {
    corner_key(member, |oi| rows[oi / 3][k - 1 + oi % 3])
}

/// The memo key of a one-group star with 1 to 8 corners: the member
/// mask, then one bit `corner[j] < corner[i]` for every corner pair
/// `j < i` in offset order (observation 4). Equal words order by offset,
/// and `j`'s is the smaller, so that bit is `w[j] <= w[i]`.
#[inline]
fn memo_key(w: &[u32; 27], member: u32) -> u64 {
    corner_key(member, |oi| w[oi])
}

/// [`memo_key`] with the corner words read through `word(offset)`.
#[inline(always)]
fn corner_key(member: u32, word: impl Fn(usize) -> u32) -> u64 {
    let mut c = [0u32; 8];
    let mut n = 0usize;
    let mut m = member & !CENTER_BIT;
    while m != 0 {
        c[n] = word(m.trailing_zeros() as usize);
        m &= m - 1;
        n += 1;
    }
    order_key(member, &c[..n])
}

/// `member` with the order bits of the corner words `c` (in offset
/// order) above it: [`memo_key`]'s layout.
#[inline(always)]
fn order_key(member: u32, c: &[u32]) -> u64 {
    let mut key = member as u64;
    let mut bit = 27;
    for i in 1..c.len() {
        for j in 0..i {
            key |= ((c[j] <= c[i]) as u64) << bit;
            bit += 1;
        }
    }
    key
}

/// The `o` with `OCTANTS[o] == member`, if any: an octant star has, on
/// each axis, the axis neighbor on its side.
#[inline]
fn octant(member: u32) -> Option<usize> {
    let o =
        (member >> X_POS & 1 | (member >> Y_POS & 1) << 1 | (member >> Z_POS & 1) << 2) as usize;
    (member == OCTANTS[o]).then_some(o)
}

/// [`memo_key`] of the octant star `OCTANTS[O]` around vertex `k` of an
/// interior row: seven loads at fixed offsets and 21 fixed compares.
#[inline(always)]
fn octant_key<const O: usize>(rows: &[&[u32]; 9], k: usize) -> u64 {
    let c: [u32; 7] = std::array::from_fn(|i| {
        let oi = OCTANT_CORNERS[O][i];
        rows[oi / 3][k - 1 + oi % 3]
    });
    order_key(OCTANTS[O], &c)
}

const X_POS: usize = index_of(1, 0, 0);
const Y_POS: usize = index_of(0, 1, 0);
const Z_POS: usize = index_of(0, 0, 1);

const fn octant_masks() -> [u32; 8] {
    // component `a` of the cube corner `sub` on side `o`: 0, or the side
    const fn d(o: usize, sub: usize, a: usize) -> i32 {
        (sub >> a & 1) as i32 * (2 * (o >> a & 1) as i32 - 1)
    }
    let mut t = [0u32; 8];
    let mut o = 0;
    while o < 8 {
        let mut sub = 0;
        while sub < 8 {
            t[o] |= 1 << index_of(d(o, sub, 0), d(o, sub, 1), d(o, sub, 2));
            sub += 1;
        }
        o += 1;
    }
    t
}

/// The octant stars: bit `a` of `o` picks the +1 side of axis `a`, and
/// `OCTANTS[o]` is the vertex plus the seven cells of the unit cube on
/// that side, the cells of which it is the maximum. On smooth fields
/// most lower stars are one of these eight.
const OCTANTS: [u32; 8] = octant_masks();

const fn octant_corners() -> [[usize; 7]; 8] {
    let mut t = [[0usize; 7]; 8];
    let mut o = 0;
    while o < 8 {
        let (mut oi, mut i) = (0, 0);
        while oi < 27 {
            if oi != CENTER && OCTANTS[o] >> oi & 1 != 0 {
                t[o][i] = oi;
                i += 1;
            }
            oi += 1;
        }
        o += 1;
    }
    t
}

/// The seven corner offsets of each octant star, ascending.
const OCTANT_CORNERS: [[usize; 7]; 8] = octant_corners();

/// The linear index delta in `grad` of every star offset.
fn refined_deltas(grad: &GradientField) -> [isize; 27] {
    let (sx, sxy) = grad.strides();
    let mut rd = [0isize; 27];
    for (oi, r) in rd.iter_mut().enumerate() {
        let (dx, dy, dz) = offset_of(oi);
        *r = dx as isize + sx as isize * dy as isize + sxy as isize * dz as isize;
    }
    rd
}

/// Homotopy-expand one owner-set group of a lower star, given as a
/// bitmask of unassigned member cells, handing `put` the byte each cell
/// of the group gets, by offset. The scan form of the expansion rule:
/// pair the min-key cell with exactly one unassigned same-group facet;
/// when none exists, the min-key unassigned cell (then necessarily
/// facet-free, as facet keys are strictly smaller) becomes critical.
#[inline]
fn expand(mut un: u32, keys: &[u32; 27], mut put: impl FnMut(usize, u8)) {
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
            // The facet `fj` (the tail, flow leaves through it) and its
            // coface `oi` differ on exactly one axis by one refined
            // step, so their offset indices differ by ±1, ±3 or ±9; the
            // direction codes are `GradientField::pair`'s.
            let fj = (STAR_FACETS[oi] & un).trailing_zeros() as usize;
            let step = oi as i32 - fj as i32;
            let axis = (step.abs() >= 3) as u8 + (step.abs() >= 9) as u8;
            let positive = step > 0;
            put(fj, ASSIGNED | PAIRED | TAIL | (axis * 2 + positive as u8));
            put(oi, ASSIGNED | PAIRED | (axis * 2 + !positive as u8));
            un &= !((1u32 << oi) | (1u32 << fj));
        } else {
            put(oi, ASSIGNED | CRITICAL);
            un &= !(1u32 << oi);
        }
    }
}

/// Store `bytes[oi]` for every member offset `oi` of a star at its cell,
/// `gi` being the vertex cell's linear index.
#[inline]
fn write_star(
    mut member: u32,
    bytes: &[u8; 27],
    gi: usize,
    rd: &[isize; 27],
    grad: &mut GradientField,
) {
    while member != 0 {
        let oi = member.trailing_zeros() as usize;
        member &= member - 1;
        grad.write_byte(at(gi, rd[oi]), bytes[oi]);
    }
}

#[inline]
fn at(gi: usize, d: isize) -> usize {
    (gi as isize + d) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::decomp::{BlockBox, OwnerSet};
    use msp_grid::offsets::ALL_OFFSETS;
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
                let w = sweep.neighbor_words(li, valid);
                let member = star_member(&w, valid);
                star_keys(&w, member, &mut keys);
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
                let w = sweep.neighbor_words(li, valid);
                let member = star_member(&w, valid);
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

    /// The gradient of block `b` swept one vertex at a time through the
    /// clipped loads and the direct path: no row slices, no memo.
    fn direct_sweep(sweep: &FlatSweep, b: &BlockBox) -> GradientField {
        let mut grad = GradientField::new(b.refined_box());
        let rd = refined_deltas(&grad);
        let mut li = 0;
        for z in b.lo[2]..=b.hi[2] {
            for y in b.lo[1]..=b.hi[1] {
                for x in b.lo[0]..=b.hi[0] {
                    let v = [x, y, z];
                    let gi = grad.linear_index(RCoord::of_vertex(x, y, z));
                    let w = sweep.neighbor_words(li, box_clip(v, &b.lo, &b.hi));
                    let member = star_member(&w, box_clip(v, &b.lo, &b.hi));
                    let mut groups = [0u32; 27];
                    let n = sweep.owner_groups(v, member, &mut groups);
                    assign_direct(&w, member, &groups[..n], gi, &rd, &mut grad);
                    li += 1;
                }
            }
        }
        grad
    }

    #[test]
    fn row_window_sweep_equals_per_vertex_sweep() {
        // single blocks with vertex extents 2 and 3 on each axis (no
        // interior column, or exactly one), then irregular trees
        let mut cases: Vec<(Dims, Decomposition)> = Vec::new();
        for n in 0..8u32 {
            let dims = Dims::new(2 + (n & 1), 2 + (n >> 1 & 1), 2 + (n >> 2));
            cases.push((dims, Decomposition::bisect(dims, 1)));
        }
        let dims = Dims::new(11, 9, 10);
        for seed in 0..6 {
            cases.push((
                dims,
                Decomposition::random_tree(dims, 2 + seed as u32, seed),
            ));
        }
        let mut windowed = 0u64;
        for (dims, decomp) in &cases {
            for field in [
                msp_synth::white_noise(*dims, 5),
                msp_synth::plateau(*dims, 5, 3),
            ] {
                for b in decomp.blocks() {
                    let bf = field.extract_block(b);
                    let mut ord = Vec::new();
                    ordered_keys_into(&bf, &mut ord);
                    let sweep = FlatSweep::new(&bf, decomp, &ord);
                    let mut rows = GradientField::new(b.refined_box());
                    sweep.sweep_z_range(b.lo[2], b.hi[2], &mut rows);
                    let each = direct_sweep(&sweep, b);
                    assert_eq!(rows.bytes(), each.bytes(), "block {b:?} of {dims:?}");
                    windowed += (0..3)
                        .map(|a| (b.hi[a] - b.lo[a]).saturating_sub(1) as u64)
                        .product::<u64>();
                }
            }
        }
        assert!(windowed > 1000, "only {windowed} interior vertices");
    }

    /// The smooth and rough fields the memo tests run on: plateau's equal
    /// words are ordered by the `NEG_GID` tie-break.
    fn memo_fields(dims: Dims) -> [(&'static str, ScalarField); 4] {
        [
            ("sinusoid", msp_synth::sinusoid_dims(dims, 4)),
            ("jet", msp_synth::jet(dims, 6, 3)),
            ("noise", msp_synth::white_noise(dims, 7)),
            ("plateau", msp_synth::plateau(dims, 7, 3)),
        ]
    }

    /// Regular, irregular and adaptive (T-junction) decompositions.
    fn memo_decomps(field: &ScalarField) -> [Decomposition; 3] {
        let dims = field.dims();
        let weights: Vec<u64> = field
            .data()
            .iter()
            .map(|v| (v.abs() * 50.0) as u64)
            .collect();
        [
            Decomposition::bisect(dims, 2),
            Decomposition::random_tree(dims, 3, 4),
            Decomposition::adaptive(dims, 5, &weights),
        ]
    }

    #[test]
    fn memoized_sweep_equals_direct_sweep() {
        // smooth fields, whose stars repeat, and rough ones, which fill
        // the table and evict; interior stars and single-group surface
        // stars both go through the memo
        let dims = Dims::cube(33);
        let mut evictions = 0u64;
        for (name, field) in &memo_fields(dims) {
            let (mut lookups, mut surface, mut hits) = (0u64, 0u64, 0u64);
            for decomp in &memo_decomps(field) {
                for b in decomp.blocks() {
                    let bf = field.extract_block(b);
                    let mut ord = Vec::new();
                    ordered_keys_into(&bf, &mut ord);
                    let sweep = FlatSweep::new(&bf, decomp, &ord);
                    let mut memo = Memo::new();
                    let mut grad = GradientField::new(b.refined_box());
                    sweep.sweep_with(b.lo[2], b.hi[2], &mut memo, &mut grad);
                    let direct = direct_sweep(&sweep, b);
                    assert_eq!(grad.bytes(), direct.bytes(), "{name}, block {b:?}");
                    lookups += memo.lookups;
                    surface += memo.surface;
                    hits += memo.hits;
                    evictions += memo.evictions;
                }
            }
            let interior = lookups - surface;
            eprintln!("{name}: {hits} hits of {interior} interior + {surface} surface lookups");
            assert!(
                interior > 10_000,
                "{name}: only {interior} interior lookups"
            );
            assert!(surface > 1_000, "{name}: only {surface} surface lookups");
            if *name == "sinusoid" {
                assert!(hits * 10 > lookups * 9, "{hits} hits of {lookups}");
            }
        }
        assert!(evictions > 0, "no case evicted a memo slot");
    }

    #[test]
    fn row_and_octant_keys_equal_memo_key() {
        // every interior-row star with 1 to 8 corners: its row-batched
        // `below` mask, its row-slice key and, for an octant star, its
        // straight-line key against the per-vertex definitions
        type RowKey = fn(&[&[u32]; 9], usize) -> u64;
        let octant_keys: [RowKey; 8] = [
            octant_key::<0>,
            octant_key::<1>,
            octant_key::<2>,
            octant_key::<3>,
            octant_key::<4>,
            octant_key::<5>,
            octant_key::<6>,
            octant_key::<7>,
        ];
        let dims = Dims::cube(33);
        for (name, field) in &memo_fields(dims) {
            let (mut general, mut octants) = (0u64, [0u64; 8]);
            for decomp in &memo_decomps(field) {
                for b in decomp.blocks() {
                    let bf = field.extract_block(b);
                    let mut ord = Vec::new();
                    ordered_keys_into(&bf, &mut ord);
                    let sweep = FlatSweep::new(&bf, decomp, &ord);
                    let nx = sweep.bd.nx as usize;
                    let mut below = vec![0u32; nx - 2];
                    for z in b.lo[2] + 1..b.hi[2] {
                        for y in b.lo[1] + 1..b.hi[1] {
                            let li0 = sweep.bd.vertex_index(0, y - b.lo[1], z - b.lo[2]) as usize;
                            let rows = sweep.rows_around(li0);
                            row_below(&rows, &mut below);
                            for (k, &bl) in (1..nx - 1).zip(&below) {
                                let w = sweep.neighbor_words(li0 + k, ALL_OFFSETS);
                                assert_eq!(row_words(&rows, k), w);
                                let member = star_members(bl);
                                assert_eq!(member, star_member(&w, ALL_OFFSETS));
                                if !(1..=8).contains(&(member & !CENTER_BIT).count_ones()) {
                                    continue;
                                }
                                let key = memo_key(&w, member);
                                assert_eq!(row_key(&rows, k, member), key, "{name} {z} {y} {k}");
                                match octant(member) {
                                    Some(o) => {
                                        assert_eq!(octant_keys[o](&rows, k), key);
                                        octants[o] += 1;
                                    }
                                    None => general += 1,
                                }
                            }
                        }
                    }
                }
            }
            eprintln!("{name}: octant stars {octants:?}, {general} others");
            assert!(general > 1_000, "{name}: only {general} non-octant stars");
            if *name != "plateau" {
                assert!(
                    octants.iter().all(|&n| n > 0),
                    "{name}: octants {octants:?}"
                );
            }
        }
    }

    #[test]
    fn expand_pair_bytes_match_gradient_pair() {
        // all 54 (facet, coface) pairs of the star, both directions of
        // every axis: a two-cell group pairs its cells whatever the keys
        let bbox = RBox::new(RCoord::new(0, 0, 0), RCoord::new(4, 4, 4));
        let v = [1, 1, 1];
        let rd = refined_deltas(&GradientField::new(bbox));
        let mut n = 0;
        for (head, &facets) in STAR_FACETS.iter().enumerate() {
            for tail in (0..27).filter(|&t| facets >> t & 1 == 1) {
                let mut a = GradientField::new(bbox);
                a.pair(cell_at(v, tail), cell_at(v, head));
                let mut b = GradientField::new(bbox);
                let gi = b.linear_index(cell_at(v, CENTER));
                let group = 1 << tail | 1 << head;
                let mut bytes = [0u8; 27];
                expand(group, &[0; 27], |oi, b| bytes[oi] = b);
                write_star(group, &bytes, gi, &rd, &mut b);
                assert_eq!(a.bytes(), b.bytes(), "tail {tail} head {head}");
                n += 1;
            }
        }
        assert_eq!(n, 54);
    }
}
