//! Grid dimensions in vertex space and refined (cell) space.

/// Dimensions of a structured grid in **vertex** space.
///
/// A `Dims { nx, ny, nz }` grid has `nx·ny·nz` vertices and
/// `(nx−1)·(ny−1)·(nz−1)` hexahedral cells. All axes must hold at least
/// one vertex; degenerate (flat) grids with an axis of a single vertex
/// are allowed and simply carry no cells extending along that axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims {
    pub nx: u32,
    pub ny: u32,
    pub nz: u32,
}

impl Dims {
    /// New vertex-space dimensions. Panics if any axis is zero.
    pub fn new(nx: u32, ny: u32, nz: u32) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid axes must be non-zero");
        Dims { nx, ny, nz }
    }

    /// Cubic grid with `n` vertices per side.
    pub fn cube(n: u32) -> Self {
        Dims::new(n, n, n)
    }

    /// Number of vertices.
    pub fn n_verts(&self) -> u64 {
        self.nx as u64 * self.ny as u64 * self.nz as u64
    }

    /// Vertex extents as an array, indexed by axis.
    pub fn axes(&self) -> [u32; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Linear index of vertex `(x, y, z)` in x-fastest order.
    pub fn vertex_index(&self, x: u32, y: u32, z: u32) -> u64 {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x as u64 + self.nx as u64 * (y as u64 + self.ny as u64 * z as u64)
    }

    /// Inverse of [`Dims::vertex_index`].
    pub fn vertex_coord(&self, idx: u64) -> (u32, u32, u32) {
        debug_assert!(idx < self.n_verts());
        let x = (idx % self.nx as u64) as u32;
        let rest = idx / self.nx as u64;
        let y = (rest % self.ny as u64) as u32;
        let z = (rest / self.ny as u64) as u32;
        (x, y, z)
    }

    /// The refined (cell-space) dimensions: `2n − 1` entries per axis.
    pub fn refined(&self) -> RefinedDims {
        RefinedDims {
            rx: 2 * self.nx as u64 - 1,
            ry: 2 * self.ny as u64 - 1,
            rz: 2 * self.nz as u64 - 1,
        }
    }

    /// Total number of cells of all dimensions in the cubical complex.
    pub fn n_cells(&self) -> u64 {
        let r = self.refined();
        r.rx * r.ry * r.rz
    }
}

/// Dimensions of the **refined grid** holding one entry per cell of the
/// cubical complex.
///
/// Entry `(i, j, k)` with `i < rx`, `j < ry`, `k < rz` is the cell of
/// dimension `i%2 + j%2 + k%2`. The linearised index in x-fastest order is
/// the cell's *address*; on the refined grid of the full dataset this is
/// the **global address** used to match cells across blocks (§IV-F1 of
/// the paper).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefinedDims {
    pub rx: u64,
    pub ry: u64,
    pub rz: u64,
}

impl RefinedDims {
    /// Number of refined-grid entries (= number of cells).
    pub fn len(&self) -> u64 {
        self.rx * self.ry * self.rz
    }

    /// True when the refined grid holds no entries (never for valid dims).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linearise a refined coordinate into an address.
    pub fn address(&self, i: u64, j: u64, k: u64) -> u64 {
        debug_assert!(i < self.rx && j < self.ry && k < self.rz);
        i + self.rx * (j + self.ry * k)
    }

    /// Inverse of [`RefinedDims::address`].
    pub fn coord(&self, addr: u64) -> (u64, u64, u64) {
        debug_assert!(addr < self.len());
        let i = addr % self.rx;
        let rest = addr / self.rx;
        (i, rest % self.ry, rest / self.ry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_index_round_trip() {
        let d = Dims::new(5, 7, 3);
        for z in 0..3 {
            for y in 0..7 {
                for x in 0..5 {
                    let idx = d.vertex_index(x, y, z);
                    assert_eq!(d.vertex_coord(idx), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn refined_dims_are_2n_minus_1() {
        let d = Dims::new(4, 5, 6);
        let r = d.refined();
        assert_eq!((r.rx, r.ry, r.rz), (7, 9, 11));
        assert_eq!(d.n_cells(), 7 * 9 * 11);
    }

    #[test]
    fn refined_address_round_trip() {
        let r = Dims::new(3, 4, 5).refined();
        let mut seen = std::collections::HashSet::new();
        for k in 0..r.rz {
            for j in 0..r.ry {
                for i in 0..r.rx {
                    let a = r.address(i, j, k);
                    assert_eq!(r.coord(a), (i, j, k));
                    assert!(seen.insert(a), "addresses must be unique");
                }
            }
        }
        assert_eq!(seen.len() as u64, r.len());
    }

    #[test]
    fn degenerate_axis_allowed() {
        let d = Dims::new(1, 8, 8);
        assert_eq!(d.refined().rx, 1);
        assert_eq!(d.n_verts(), 64);
    }

    #[test]
    #[should_panic]
    fn zero_axis_rejected() {
        let _ = Dims::new(0, 2, 2);
    }
}
