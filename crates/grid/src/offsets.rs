//! Precomputed 3×3×3 neighborhood offset tables for the flat lower-star
//! kernel.
//!
//! A vertex's lower star lives entirely in the 3×3×3 cube of refined
//! cells centered on the vertex. Indexing every offset `(dx, dy, dz) ∈
//! {−1, 0, 1}³` as `oi = (dx+1) + 3(dy+1) + 9(dz+1)` turns the star into
//! a 27-bit set. The relations the kernel needs are then either constant
//! bitmask lookups — "which star cells are a cell's facets"
//! ([`STAR_FACETS`]), "which offsets survive box clipping"
//! ([`clip_mask`]) — or a few shifts of the whole set along one axis of
//! the cube ([`CENTER_SLICES`]): "which cells have all their corners in
//! this set" ([`star_members`]) and "which cells have exactly one facet
//! in this set" ([`one_facet`]). The same offset index serves two coordinate
//! systems at once: refined-cell offsets (`rv + δ`, one refined step)
//! and vertex-neighbor offsets (`v + δ` in vertex space, one vertex
//! step), because the box-validity condition is identical for both (see
//! [`clip_mask`]).

/// Offset index of the center (the vertex itself / the vertex cell).
pub const CENTER: usize = 13;

/// Bit over all 27 offsets.
pub const ALL_OFFSETS: u32 = (1 << 27) - 1;

/// The `(dx, dy, dz)` offset of index `oi` (each component in −1..=1).
#[inline]
pub const fn offset_of(oi: usize) -> (i32, i32, i32) {
    (
        (oi % 3) as i32 - 1,
        ((oi / 3) % 3) as i32 - 1,
        ((oi / 9) % 3) as i32 - 1,
    )
}

/// Inverse of [`offset_of`].
#[inline]
pub const fn index_of(dx: i32, dy: i32, dz: i32) -> usize {
    ((dx + 1) + 3 * (dy + 1) + 9 * (dz + 1)) as usize
}

const fn corners_mask(oi: usize) -> u32 {
    // Corner vertices of the cell at refined offset δ, as vertex-neighbor
    // offsets: every nonempty subset of δ's nonzero axes, keeping δ's
    // sign on chosen axes and 0 elsewhere. (The empty subset is the
    // center vertex itself, deliberately excluded: the kernel tests
    // "all *other* corners are below the center".)
    let (dx, dy, dz) = offset_of(oi);
    let mut mask = 0u32;
    let mut sub = 1usize; // skip 0 = empty subset
    while sub < 8 {
        let ex = if sub & 1 != 0 { dx } else { 0 };
        let ey = if sub & 2 != 0 { dy } else { 0 };
        let ez = if sub & 4 != 0 { dz } else { 0 };
        // subsets selecting a zero component collapse onto smaller
        // subsets; the bitmask dedupes them for free
        if !(ex == 0 && ey == 0 && ez == 0) {
            mask |= 1 << index_of(ex, ey, ez);
        }
        sub += 1;
    }
    mask
}

const fn facets_mask(oi: usize) -> u32 {
    // Facets of the cell at offset δ that stay inside the same lower
    // star: zero out exactly one nonzero axis. (The opposite facet along
    // that axis does not contain the center vertex.)
    let (dx, dy, dz) = offset_of(oi);
    let mut mask = 0u32;
    if dx != 0 {
        mask |= 1 << index_of(0, dy, dz);
    }
    if dy != 0 {
        mask |= 1 << index_of(dx, 0, dz);
    }
    if dz != 0 {
        mask |= 1 << index_of(dx, dy, 0);
    }
    mask
}

const fn build_corners() -> [u32; 27] {
    let mut t = [0u32; 27];
    let mut oi = 0;
    while oi < 27 {
        t[oi] = corners_mask(oi);
        oi += 1;
    }
    t
}

const fn build_facets() -> [u32; 27] {
    let mut t = [0u32; 27];
    let mut oi = 0;
    while oi < 27 {
        t[oi] = facets_mask(oi);
        oi += 1;
    }
    t
}

/// `STAR_CORNERS[oi]`: vertex-neighbor offsets that are corners of the
/// cell at offset `oi`, excluding the center vertex. A cell belongs to
/// the center's lower star iff all these corners are SoS-below the
/// center: the definition [`star_members`] is tested against.
pub const STAR_CORNERS: [u32; 27] = build_corners();

/// `STAR_FACETS[oi]`: offsets of the facets of the cell at `oi` that lie
/// in the same lower star (one nonzero axis zeroed).
pub const STAR_FACETS: [u32; 27] = build_facets();

const fn build_slices() -> [(u32, u32); 3] {
    let mut t = [(0u32, 1u32), (0, 3), (0, 9)];
    let mut oi = 0;
    while oi < 27 {
        let (dx, dy, dz) = offset_of(oi);
        let d = [dx, dy, dz];
        let mut a = 0;
        while a < 3 {
            if d[a] == 0 {
                t[a].0 |= 1 << oi;
            }
            a += 1;
        }
        oi += 1;
    }
    t
}

/// Per axis, `(slice, shift)`: the nine offsets whose component along
/// the axis is 0, and the bit distance of one step along it. A slice
/// shifted left or right by its shift lands on the +1 or −1 slice of the
/// same axis with the other two components unchanged, which is what lets
/// one shift move a whole face of the cube onto its neighbours.
pub const CENTER_SLICES: [(u32, u32); 3] = build_slices();

/// The lower star of the center as a bit set, from the set `below` of
/// vertex neighbors SoS-below it: the center cell plus every cell all of
/// whose other corners are below — [`STAR_CORNERS`]'s test for all 27
/// cells at once. A cell's corners are its projections onto every subset
/// of its nonzero axes, so keeping, axis by axis, only the cells whose
/// projection onto that axis's center slice is still present leaves
/// exactly the cells whose eight projections were all in `below`.
///
/// The member cells' offsets double as the offsets of their corners: a
/// member's corners are projections of it, hence members themselves, and
/// every member's own offset is a corner of it. So the vertex neighbors
/// the star's keys are built from are `star_members(below) & !CENTER`.
#[inline]
pub fn star_members(below: u32) -> u32 {
    let mut m = below | 1 << CENTER;
    for (slice, s) in CENTER_SLICES {
        let c = m & slice;
        m &= c | c << s | c >> s;
    }
    m
}

/// The cells of `un` (a set of star cells) with exactly one facet in
/// `un` — `(STAR_FACETS[oi] & un).count_ones() == 1` for all 27 cells at
/// once. A cell has at most one in-star facet per axis, its projection
/// onto that axis's center slice, so shifting each slice of `un` onto its
/// two neighbours gives three "has a facet along this axis" sets, and
/// exactly one of three bits is their parity minus all three.
#[inline]
pub fn one_facet(un: u32) -> u32 {
    let [fx, fy, fz] = CENTER_SLICES.map(|(slice, s)| {
        let c = un & slice;
        c << s | c >> s
    });
    un & (fx ^ fy ^ fz) & !(fx & fy & fz)
}

const fn clip(axis: usize, lo_ok: bool, hi_ok: bool) -> u32 {
    let mut mask = 0u32;
    let mut oi = 0;
    while oi < 27 {
        let (dx, dy, dz) = offset_of(oi);
        let d = [dx, dy, dz][axis];
        let ok = (d >= 0 || lo_ok) && (d <= 0 || hi_ok);
        if ok {
            mask |= 1 << oi;
        }
        oi += 1;
    }
    mask
}

const fn build_clips() -> [[[u32; 2]; 2]; 3] {
    let mut t = [[[0u32; 2]; 2]; 3];
    let mut a = 0;
    while a < 3 {
        t[a][0][0] = clip(a, false, false);
        t[a][0][1] = clip(a, false, true);
        t[a][1][0] = clip(a, true, false);
        t[a][1][1] = clip(a, true, true);
        a += 1;
    }
    t
}

const CLIPS: [[[u32; 2]; 2]; 3] = build_clips();

/// Offsets whose component along `axis` keeps them inside the box:
/// `lo_ok` permits −1 (the center is strictly above the box's low face
/// on that axis), `hi_ok` permits +1. The condition is shared by refined
/// cell offsets (`rv ± 1` with `rv` and the box faces even) and vertex
/// neighbors (`v ± 1` in vertex space): both are in range exactly when
/// the center is not on the corresponding box face.
#[inline]
pub fn clip_mask(axis: usize, lo_ok: bool, hi_ok: bool) -> u32 {
    CLIPS[axis][lo_ok as usize][hi_ok as usize]
}

const fn build_neg_gid() -> u32 {
    let mut mask = 0u32;
    let mut oi = 0;
    while oi < 27 {
        let (dx, dy, dz) = offset_of(oi);
        // global vertex ids are x-fastest, so the id delta's sign is the
        // lexicographic sign of (dz, dy, dx) for any offset that stays
        // inside the grid
        let neg = dz < 0 || (dz == 0 && (dy < 0 || (dy == 0 && dx < 0)));
        if neg {
            mask |= 1 << oi;
        }
        oi += 1;
    }
    mask
}

/// Offsets whose global vertex id is smaller than the center's (the SoS
/// tiebreak for equal values): `(dz, dy, dx)` lexicographically negative.
pub const NEG_GID: u32 = build_neg_gid();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{RCoord, SplitMix64};

    #[test]
    fn index_round_trip_and_center() {
        for oi in 0..27 {
            let (dx, dy, dz) = offset_of(oi);
            assert_eq!(index_of(dx, dy, dz), oi);
        }
        assert_eq!(offset_of(CENTER), (0, 0, 0));
        assert_eq!(STAR_CORNERS[CENTER], 0);
        assert_eq!(STAR_FACETS[CENTER], 0);
    }

    #[test]
    fn corners_match_rcoord_vertices() {
        // place the center vertex well inside a grid so all offsets are
        // legal, and compare against RCoord::vertices of the offset cell
        let rv = RCoord::of_vertex(5, 5, 5);
        for (oi, &corner_mask) in STAR_CORNERS.iter().enumerate() {
            let (dx, dy, dz) = offset_of(oi);
            let c = RCoord::new(
                (rv.x as i32 + dx) as u32,
                (rv.y as i32 + dy) as u32,
                (rv.z as i32 + dz) as u32,
            );
            let mut expect = 0u32;
            for v in c.vertices() {
                if v == rv {
                    continue;
                }
                // vertex offsets are ±2 in refined space = ±1 in vertex space
                let e = (
                    (v.x as i32 - rv.x as i32) / 2,
                    (v.y as i32 - rv.y as i32) / 2,
                    (v.z as i32 - rv.z as i32) / 2,
                );
                expect |= 1 << index_of(e.0, e.1, e.2);
            }
            // cells whose vertex set does not include rv are not star
            // candidates; for those the corner mask is meaningless but
            // must still only name real corners — vertices() covers the
            // star cube only when rv is a corner, so restrict the check
            if c.vertices().any(|v| v == rv) {
                assert_eq!(corner_mask, expect, "offset {oi} {:?}", (dx, dy, dz));
                assert_eq!(
                    corner_mask.count_ones() + 1,
                    1 << c.cell_dim(),
                    "corner count is 2^dim"
                );
            }
        }
    }

    #[test]
    fn every_star_cell_contains_the_center() {
        // every offset cell has the center among its vertices (that is
        // what makes the 3^3 cube the star), so the restriction in
        // corners_match_rcoord_vertices is vacuous — check it
        let rv = RCoord::of_vertex(5, 5, 5);
        for oi in 0..27 {
            let (dx, dy, dz) = offset_of(oi);
            let c = RCoord::new(
                (rv.x as i32 + dx) as u32,
                (rv.y as i32 + dy) as u32,
                (rv.z as i32 + dz) as u32,
            );
            assert!(c.vertices().any(|v| v == rv), "offset {oi}");
        }
    }

    #[test]
    fn facets_match_facet_predicate() {
        // f is a facet of c iff they differ by exactly 1 on exactly one
        // axis where c is odd — mirror of the morse-side is_facet_of
        let is_facet = |f: (i32, i32, i32), c: (i32, i32, i32)| {
            let d = [c.0 - f.0, c.1 - f.1, c.2 - f.2];
            let nd: Vec<usize> = (0..3).filter(|&a| d[a] != 0).collect();
            nd.len() == 1 && d[nd[0]].abs() == 1 && {
                // c odd on that axis ⇔ nonzero offset there (center even)
                [c.0, c.1, c.2][nd[0]] != 0
            }
        };
        for (oi, &facet_mask) in STAR_FACETS.iter().enumerate() {
            let c = offset_of(oi);
            for fi in 0..27 {
                let f = offset_of(fi);
                let in_mask = facet_mask >> fi & 1 == 1;
                assert_eq!(
                    in_mask,
                    is_facet(f, c),
                    "facet relation {fi}->{oi} ({f:?} of {c:?})"
                );
            }
        }
    }

    #[test]
    fn facets_are_strict_corner_subsets() {
        // "a facet's key is strictly smaller" rests on this: a facet's
        // corner set is a strict subset of its coface's corner set
        for oi in 0..27 {
            let mut m = STAR_FACETS[oi];
            while m != 0 {
                let fi = m.trailing_zeros() as usize;
                m &= m - 1;
                let (fc, cc) = (STAR_CORNERS[fi], STAR_CORNERS[oi]);
                assert_eq!(fc & cc, fc, "facet corners ⊆ cell corners");
                assert!(fc != cc, "strict subset");
            }
        }
    }

    #[test]
    fn center_slices_are_the_zero_planes() {
        for (axis, (slice, shift)) in CENTER_SLICES.into_iter().enumerate() {
            assert_eq!(shift, [1, 3, 9][axis]);
            for oi in 0..27 {
                let (dx, dy, dz) = offset_of(oi);
                assert_eq!(slice >> oi & 1 == 1, [dx, dy, dz][axis] == 0);
            }
            // one step along the axis from the slice stays in the cube
            assert_eq!((slice << shift | slice >> shift) & slice, 0);
            assert_eq!(slice | slice << shift | slice >> shift, ALL_OFFSETS);
        }
    }

    #[test]
    fn star_members_matches_corner_table() {
        // the definition star_members replaces: a cell is a member iff
        // every corner in STAR_CORNERS is below the center
        let by_table = |below: u32| {
            let mut member = 1 << CENTER;
            for (oi, &sc) in STAR_CORNERS.iter().enumerate() {
                if oi != CENTER && below & sc == sc {
                    member |= 1 << oi;
                }
            }
            member
        };
        let mut few_bits = vec![0u32];
        for a in 0..27 {
            few_bits.push(1 << a);
            few_bits.extend((0..a).map(|b| 1 << a | 1 << b));
        }
        let mut rng = SplitMix64::new(22);
        let seeded: Vec<u32> = (0..50_000)
            .map(|_| rng.next_u64() as u32 & ALL_OFFSETS)
            .collect();
        for clip in 0..64usize {
            let ok = |bit: usize| clip >> bit & 1 == 1;
            let valid = clip_mask(0, ok(0), ok(1))
                & clip_mask(1, ok(2), ok(3))
                & clip_mask(2, ok(4), ok(5));
            for &raw in few_bits.iter().chain(&seeded) {
                let below = raw & valid & !(1 << CENTER);
                assert_eq!(
                    star_members(below),
                    by_table(below),
                    "below {below:#x}, clip {clip:#x}"
                );
            }
        }
    }

    #[test]
    fn one_facet_matches_facet_table() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..50_000 {
            let un = rng.next_u64() as u32 & ALL_OFFSETS;
            let mut by_table = 0u32;
            for (oi, &facets) in STAR_FACETS.iter().enumerate() {
                if un >> oi & 1 == 1 && (facets & un).count_ones() == 1 {
                    by_table |= 1 << oi;
                }
            }
            assert_eq!(one_facet(un), by_table, "un {un:#x}");
        }
    }

    #[test]
    fn clip_masks_filter_by_component() {
        for axis in 0..3 {
            for lo_ok in [false, true] {
                for hi_ok in [false, true] {
                    let m = clip_mask(axis, lo_ok, hi_ok);
                    for oi in 0..27 {
                        let d = [offset_of(oi).0, offset_of(oi).1, offset_of(oi).2][axis];
                        let expect = (d >= 0 || lo_ok) && (d <= 0 || hi_ok);
                        assert_eq!(m >> oi & 1 == 1, expect);
                    }
                }
            }
        }
        // the conjunction over all axes with everything permitted is the
        // full cube
        let full = clip_mask(0, true, true) & clip_mask(1, true, true) & clip_mask(2, true, true);
        assert_eq!(full, ALL_OFFSETS);
    }

    #[test]
    fn neg_gid_is_lexicographic() {
        use crate::dims::Dims;
        // on a concrete grid, the id delta's sign must match the mask for
        // every offset that stays in bounds
        let dims = Dims::new(5, 4, 3);
        let (x, y, z) = (2u32, 2u32, 1u32);
        let gid0 = dims.vertex_index(x, y, z) as i64;
        for oi in 0..27 {
            if oi == CENTER {
                continue;
            }
            let (dx, dy, dz) = offset_of(oi);
            let (nx, ny, nz) = (x as i32 + dx, y as i32 + dy, z as i32 + dz);
            let gid = dims.vertex_index(nx as u32, ny as u32, nz as u32) as i64;
            assert_eq!(
                gid < gid0,
                NEG_GID >> oi & 1 == 1,
                "offset {:?}",
                (dx, dy, dz)
            );
        }
    }
}
