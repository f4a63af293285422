//! Incidence relations of the cubical complex on the refined grid.
//!
//! All enumeration is *clipped to a refined box* so the same routines
//! serve both the global complex and a block-local complex. Boxes are
//! inclusive on both ends and live in global refined coordinates.

use crate::coord::RCoord;

/// An axis-aligned inclusive box in refined coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RBox {
    pub lo: RCoord,
    pub hi: RCoord,
}

impl RBox {
    pub fn new(lo: RCoord, hi: RCoord) -> Self {
        assert!(lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z);
        RBox { lo, hi }
    }

    /// True when `c` lies inside the box (inclusive).
    pub fn contains(&self, c: RCoord) -> bool {
        self.lo.x <= c.x
            && c.x <= self.hi.x
            && self.lo.y <= c.y
            && c.y <= self.hi.y
            && self.lo.z <= c.z
            && c.z <= self.hi.z
    }

    /// Extent (number of refined entries) along `axis`.
    pub fn extent(&self, axis: usize) -> u64 {
        (self.hi.get(axis) - self.lo.get(axis)) as u64 + 1
    }

    /// Total number of refined entries in the box.
    pub fn len(&self) -> u64 {
        self.extent(0) * self.extent(1) * self.extent(2)
    }

    pub fn is_empty(&self) -> bool {
        false // construction enforces lo <= hi
    }

    /// Local linear index of `c` within the box (x-fastest).
    pub fn local_index(&self, c: RCoord) -> u64 {
        debug_assert!(self.contains(c));
        let i = (c.x - self.lo.x) as u64;
        let j = (c.y - self.lo.y) as u64;
        let k = (c.z - self.lo.z) as u64;
        i + self.extent(0) * (j + self.extent(1) * k)
    }

    /// Inverse of [`RBox::local_index`].
    pub fn from_local_index(&self, idx: u64) -> RCoord {
        let ex = self.extent(0);
        let ey = self.extent(1);
        let i = idx % ex;
        let rest = idx / ex;
        let j = rest % ey;
        let k = rest / ey;
        RCoord::new(
            self.lo.x + i as u32,
            self.lo.y + j as u32,
            self.lo.z + k as u32,
        )
    }

    /// Iterate over every refined coordinate in the box, x-fastest.
    pub fn iter(&self) -> CellIter {
        CellIter {
            bbox: *self,
            next: Some(self.lo),
        }
    }

    /// True when `c` lies on the surface of the box.
    pub fn on_surface(&self, c: RCoord) -> bool {
        debug_assert!(self.contains(c));
        (0..3).any(|a| c.get(a) == self.lo.get(a) || c.get(a) == self.hi.get(a))
    }
}

/// Iterator over the refined coordinates of an [`RBox`] in x-fastest order.
pub struct CellIter {
    bbox: RBox,
    next: Option<RCoord>,
}

impl Iterator for CellIter {
    type Item = RCoord;

    fn next(&mut self) -> Option<RCoord> {
        let cur = self.next?;
        let b = self.bbox;
        let mut n = cur;
        if n.x < b.hi.x {
            n.x += 1;
        } else {
            n.x = b.lo.x;
            if n.y < b.hi.y {
                n.y += 1;
            } else {
                n.y = b.lo.y;
                if n.z < b.hi.z {
                    n.z += 1;
                } else {
                    self.next = None;
                    return Some(cur);
                }
            }
        }
        self.next = Some(n);
        Some(cur)
    }
}

/// Identifies one of the six axis-aligned directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaceDir {
    /// Axis 0..3.
    pub axis: u8,
    /// `true` for the +direction, `false` for −.
    pub positive: bool,
}

impl FaceDir {
    pub const ALL: [FaceDir; 6] = [
        FaceDir {
            axis: 0,
            positive: false,
        },
        FaceDir {
            axis: 0,
            positive: true,
        },
        FaceDir {
            axis: 1,
            positive: false,
        },
        FaceDir {
            axis: 1,
            positive: true,
        },
        FaceDir {
            axis: 2,
            positive: false,
        },
        FaceDir {
            axis: 2,
            positive: true,
        },
    ];

    /// Signed unit step of this direction.
    pub fn delta(&self) -> i32 {
        if self.positive {
            1
        } else {
            -1
        }
    }

    /// Compact code 0..6 (axis*2 + positive).
    pub fn code(&self) -> u8 {
        self.axis * 2 + self.positive as u8
    }

    /// Inverse of [`FaceDir::code`].
    pub fn from_code(code: u8) -> Self {
        FaceDir {
            axis: code / 2,
            positive: code % 2 == 1,
        }
    }

    /// The opposite direction.
    pub fn flip(&self) -> Self {
        FaceDir {
            axis: self.axis,
            positive: !self.positive,
        }
    }
}

/// Enumerate the facets (codimension-1 faces) of `c` clipped to `bbox`.
///
/// A `d`-cell has `2d` facets in the unbounded complex: one step ±1 along
/// each odd-parity axis. Facet steps never leave the *global* grid (the
/// cell's own vertices bound them) but may leave a block-local box — those
/// are filtered out.
pub fn facets(c: RCoord, bbox: &RBox) -> impl Iterator<Item = (FaceDir, RCoord)> + '_ {
    FaceDir::ALL.into_iter().filter_map(move |dir| {
        let axis = dir.axis as usize;
        if c.get(axis).is_multiple_of(2) {
            return None; // flat along this axis: no facet here
        }
        let v = c.get(axis) as i64 + dir.delta() as i64;
        let f = c.with(axis, v as u32);
        bbox.contains(f).then_some((dir, f))
    })
}

/// Enumerate the cofacets (codimension-1 cofaces) of `c` clipped to `bbox`.
///
/// A `d`-cell has up to `2·(3−d)` cofacets: one step ±1 along each
/// even-parity axis, clipped to the box.
pub fn cofacets(c: RCoord, bbox: &RBox) -> impl Iterator<Item = (FaceDir, RCoord)> + '_ {
    FaceDir::ALL.into_iter().filter_map(move |dir| {
        let axis = dir.axis as usize;
        if c.get(axis) % 2 == 1 {
            return None; // already extends along this axis
        }
        let v = c.get(axis) as i64 + dir.delta() as i64;
        if v < 0 {
            return None;
        }
        let f = c.with(axis, v as u32);
        bbox.contains(f).then_some((dir, f))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_box(n: u32) -> RBox {
        RBox::new(
            RCoord::new(0, 0, 0),
            RCoord::new(2 * n - 2, 2 * n - 2, 2 * n - 2),
        )
    }

    #[test]
    fn facet_counts_interior() {
        let b = full_box(4);
        // interior voxel (3-cell) has 6 facets, quad 4, edge 2, vertex 0
        assert_eq!(facets(RCoord::new(3, 3, 3), &b).count(), 6);
        assert_eq!(facets(RCoord::new(3, 3, 2), &b).count(), 4);
        assert_eq!(facets(RCoord::new(3, 2, 2), &b).count(), 2);
        assert_eq!(facets(RCoord::new(2, 2, 2), &b).count(), 0);
    }

    #[test]
    fn cofacet_counts() {
        let b = full_box(4);
        // interior vertex has 6 cofacet edges; corner vertex has 3
        assert_eq!(cofacets(RCoord::new(2, 2, 2), &b).count(), 6);
        assert_eq!(cofacets(RCoord::new(0, 0, 0), &b).count(), 3);
        // voxel has no cofacets
        assert_eq!(cofacets(RCoord::new(3, 3, 3), &b).count(), 0);
    }

    #[test]
    fn facet_cofacet_duality() {
        let b = full_box(3);
        for c in b.iter() {
            for (_, f) in facets(c, &b) {
                assert_eq!(f.cell_dim() + 1, c.cell_dim());
                assert!(
                    cofacets(f, &b).any(|(_, cf)| cf == c),
                    "facet relation must be symmetric"
                );
            }
        }
    }

    #[test]
    fn box_iter_covers_all() {
        let b = RBox::new(RCoord::new(2, 0, 4), RCoord::new(5, 3, 6));
        let v: Vec<_> = b.iter().collect();
        assert_eq!(v.len() as u64, b.len());
        let mut uniq = std::collections::HashSet::new();
        for c in &v {
            assert!(b.contains(*c));
            assert!(uniq.insert(*c));
        }
        // local_index round trip and x-fastest ordering
        for (i, c) in v.iter().enumerate() {
            assert_eq!(b.local_index(*c), i as u64);
            assert_eq!(b.from_local_index(i as u64), *c);
        }
    }

    #[test]
    fn face_dir_codes() {
        for d in FaceDir::ALL {
            assert_eq!(FaceDir::from_code(d.code()), d);
            assert_eq!(d.flip().flip(), d);
            assert_ne!(d.flip().code(), d.code());
        }
    }

    #[test]
    fn vertices_of_cell_are_faces_closure() {
        let b = full_box(3);
        let c = RCoord::new(1, 1, 1); // voxel
        let mut verts: Vec<_> = c.vertices().collect();
        verts.sort();
        assert_eq!(verts.len(), 8);
        // every facet's vertex set is a subset
        for (_, f) in facets(c, &b) {
            for v in f.vertices() {
                assert!(verts.contains(&v));
            }
        }
    }
}
