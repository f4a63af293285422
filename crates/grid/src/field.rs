//! Scalar fields on vertex grids, block extraction, and the total
//! vertex/cell orders used for simulation of simplicity.
//!
//! Simulation of simplicity (paper §IV-C, \[11\]) removes ties: vertices
//! are totally ordered by `(value, global vertex id)`, and cells of the
//! complex are ordered by the lexicographic comparison of their
//! descending-sorted vertex keys. Because the order is keyed on *global*
//! ids and the raw field values, two blocks sharing a vertex layer derive
//! exactly the same order for shared cells — the property that makes
//! block-boundary gradients bitwise identical.

use crate::coord::RCoord;
use crate::decomp::BlockBox;
use crate::dims::Dims;

/// A monotone, totally ordered encoding of an `f32`.
///
/// Finite floats map to `u32` such that `a < b ⇔ key(a) < key(b)`
/// (−0.0 and +0.0 get distinct adjacent keys, which is harmless here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderedF32(pub u32);

impl OrderedF32 {
    pub fn new(v: f32) -> Self {
        let bits = v.to_bits();
        OrderedF32(if bits & 0x8000_0000 != 0 {
            !bits
        } else {
            bits | 0x8000_0000
        })
    }

    pub fn value(self) -> f32 {
        let bits = self.0;
        f32::from_bits(if bits & 0x8000_0000 != 0 {
            bits & 0x7fff_ffff
        } else {
            !bits
        })
    }
}

/// Total order on vertices: by value, ties broken by global vertex id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VKey {
    pub value: OrderedF32,
    pub gid: u64,
}

/// Simulation-of-simplicity key of a cell: its vertex keys sorted in
/// descending order, compared lexicographically. A cell's key is strictly
/// greater than the key of any of its faces sharing the same maximal
/// vertex (the face's key is a proper prefix), which is exactly the order
/// required by lower-star processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    keys: [VKey; 8],
    len: u8,
}

impl CellKey {
    pub fn as_slice(&self) -> &[VKey] {
        &self.keys[..self.len as usize]
    }

    /// The maximal vertex of the cell (first entry).
    pub fn max_vertex(&self) -> VKey {
        self.keys[0]
    }
}

impl PartialOrd for CellKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CellKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// A scalar field over a full vertex grid, values in x-fastest order.
#[derive(Debug, Clone)]
pub struct ScalarField {
    dims: Dims,
    data: Vec<f32>,
}

impl ScalarField {
    pub fn new(dims: Dims, data: Vec<f32>) -> Self {
        assert_eq!(data.len() as u64, dims.n_verts(), "field size mismatch");
        ScalarField { dims, data }
    }

    /// Build a field by evaluating `f` at every vertex.
    pub fn from_fn(dims: Dims, mut f: impl FnMut(u32, u32, u32) -> f32) -> Self {
        let mut data = Vec::with_capacity(dims.n_verts() as usize);
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(f(x, y, z));
                }
            }
        }
        ScalarField { dims, data }
    }

    pub fn dims(&self) -> Dims {
        self.dims
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn value(&self, x: u32, y: u32, z: u32) -> f32 {
        self.data[self.dims.vertex_index(x, y, z) as usize]
    }

    /// Minimum and maximum values over the whole field.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Copy out the sub-box of values a block needs (shared layers
    /// included), producing a self-contained [`BlockField`].
    pub fn extract_block(&self, block: &BlockBox) -> BlockField {
        self.extract_block_minmax(block).0
    }

    /// [`extract_block`](ScalarField::extract_block) that also folds the
    /// block's value range into the same pass over the data — the read
    /// stage needs the range for the persistence threshold and used to
    /// make a second full sweep for it.
    pub fn extract_block_minmax(&self, block: &BlockBox) -> (BlockField, f32, f32) {
        let bd = block.dims();
        let mut data = Vec::with_capacity(bd.n_verts() as usize);
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for z in block.lo[2]..=block.hi[2] {
            for y in block.lo[1]..=block.hi[1] {
                for x in block.lo[0]..=block.hi[0] {
                    let v = self.value(x, y, z);
                    lo = lo.min(v);
                    hi = hi.max(v);
                    data.push(v);
                }
            }
        }
        (
            BlockField {
                block: *block,
                domain: self.dims,
                data,
            },
            lo,
            hi,
        )
    }
}

/// The values a single block holds: its vertex sub-box (shared layers
/// included) plus enough global context (domain dims, block box) to
/// compute global vertex ids and global cell addresses.
#[derive(Debug, Clone)]
pub struct BlockField {
    block: BlockBox,
    domain: Dims,
    data: Vec<f32>,
}

impl BlockField {
    pub fn new(block: BlockBox, domain: Dims, data: Vec<f32>) -> Self {
        assert_eq!(data.len() as u64, block.dims().n_verts());
        BlockField {
            block,
            domain,
            data,
        }
    }

    pub fn block(&self) -> &BlockBox {
        &self.block
    }

    pub fn domain(&self) -> Dims {
        self.domain
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Minimum and maximum values over the block (for inputs read from
    /// file, where the range cannot fold into the decode loop).
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Value at a **global** vertex coordinate (must lie in the block).
    pub fn vertex_value(&self, x: u32, y: u32, z: u32) -> f32 {
        let bd = self.block.dims();
        debug_assert!(
            x >= self.block.lo[0] && x <= self.block.hi[0],
            "vertex outside block"
        );
        let i = bd.vertex_index(
            x - self.block.lo[0],
            y - self.block.lo[1],
            z - self.block.lo[2],
        );
        self.data[i as usize]
    }

    /// SoS key of a **global** vertex refined coordinate.
    pub fn vertex_key(&self, v: RCoord) -> VKey {
        debug_assert!(v.is_vertex());
        let (x, y, z) = (v.x / 2, v.y / 2, v.z / 2);
        VKey {
            value: OrderedF32::new(self.vertex_value(x, y, z)),
            gid: self.domain.vertex_index(x, y, z),
        }
    }

    /// SoS key of a cell at a global refined coordinate: descending-sorted
    /// vertex keys.
    pub fn cell_key(&self, c: RCoord) -> CellKey {
        let mut keys = [VKey {
            value: OrderedF32(0),
            gid: 0,
        }; 8];
        let mut len = 0usize;
        for v in c.vertices() {
            keys[len] = self.vertex_key(v);
            len += 1;
        }
        keys[..len].sort_unstable_by(|a, b| b.cmp(a));
        CellKey {
            keys,
            len: len as u8,
        }
    }

    /// Plain function value of a cell: the maximum of its vertex values
    /// (paper §IV-C — "values are assigned to higher dimensional cells as
    /// the maximum of the values at the vertices").
    pub fn cell_value(&self, c: RCoord) -> f32 {
        c.vertices()
            .map(|v| {
                let (x, y, z) = (v.x / 2, v.y / 2, v.z / 2);
                self.vertex_value(x, y, z)
            })
            .fold(f32::NEG_INFINITY, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomposition;

    #[test]
    fn ordered_f32_is_monotone() {
        let vals = [-1.0e30f32, -5.0, -0.5, 0.0, 0.25, 3.5, 7.0e20];
        for w in vals.windows(2) {
            assert!(OrderedF32::new(w[0]) < OrderedF32::new(w[1]));
        }
        for v in vals {
            assert_eq!(OrderedF32::new(v).value(), v);
        }
    }

    #[test]
    fn cell_key_face_is_prefix() {
        let dims = Dims::new(3, 3, 3);
        let f = ScalarField::from_fn(dims, |x, y, z| (x + 2 * y + 4 * z) as f32);
        let d = Decomposition::bisect(dims, 1);
        let bf = f.extract_block(d.block(0));
        // edge (1,0,0) has vertices (0,0,0) and (2,0,0); its max vertex
        // is (2,0,0) with value 1, so the edge key must be greater than
        // the key of vertex (2,0,0) and the vertex key must be a prefix.
        let edge = RCoord::new(1, 0, 0);
        let vtx = RCoord::new(2, 0, 0);
        let ek = bf.cell_key(edge);
        let vk = bf.cell_key(vtx);
        assert!(ek > vk);
        assert_eq!(ek.as_slice()[0], vk.as_slice()[0]);
        assert_eq!(ek.max_vertex().gid, 1);
    }

    #[test]
    fn cell_value_is_max_of_vertices() {
        let dims = Dims::new(3, 3, 3);
        let f = ScalarField::from_fn(dims, |x, y, z| (x * 100 + y * 10 + z) as f32);
        let d = Decomposition::bisect(dims, 1);
        let bf = f.extract_block(d.block(0));
        // voxel at (1,1,1) spans vertices (0..1)^3 -> max at (1,1,1)=111
        assert_eq!(bf.cell_value(RCoord::new(1, 1, 1)), 111.0);
        // quad at (1,1,0) spans (0..1,0..1,0) -> max 110
        assert_eq!(bf.cell_value(RCoord::new(1, 1, 0)), 110.0);
    }

    #[test]
    fn block_extraction_matches_global() {
        let dims = Dims::new(9, 9, 9);
        let f = ScalarField::from_fn(dims, |x, y, z| (x as f32).sin() + (y * z) as f32);
        let d = Decomposition::bisect(dims, 4);
        for b in d.blocks() {
            let bf = f.extract_block(b);
            for z in b.lo[2]..=b.hi[2] {
                for y in b.lo[1]..=b.hi[1] {
                    for x in b.lo[0]..=b.hi[0] {
                        assert_eq!(bf.vertex_value(x, y, z), f.value(x, y, z));
                    }
                }
            }
        }
    }

    #[test]
    fn shared_layer_keys_identical_across_blocks() {
        let dims = Dims::new(9, 9, 9);
        let f = ScalarField::from_fn(dims, |x, y, z| ((x * 7 + y * 13 + z * 29) % 5) as f32);
        let d = Decomposition::bisect(dims, 2);
        let bf0 = f.extract_block(d.block(0));
        let bf1 = f.extract_block(d.block(1));
        let rb0 = d.block(0).refined_box();
        let rb1 = d.block(1).refined_box();
        for c in rb0.iter() {
            if rb1.contains(c) {
                assert_eq!(bf0.cell_key(c), bf1.cell_key(c), "shared cell {:?}", c);
            }
        }
    }

    #[test]
    fn min_max() {
        let f = ScalarField::new(Dims::new(2, 2, 1), vec![3.0, -1.0, 0.5, 2.0]);
        assert_eq!(f.min_max(), (-1.0, 3.0));
    }

    #[test]
    fn block_minmax_folds_with_extraction() {
        let dims = Dims::new(9, 9, 9);
        let f = ScalarField::from_fn(dims, |x, y, z| {
            (x as f32) - (y as f32) * 0.5 + (z as f32) * 0.25
        });
        let d = Decomposition::bisect(dims, 4);
        for b in d.blocks() {
            let (bf, lo, hi) = f.extract_block_minmax(b);
            assert_eq!((lo, hi), bf.min_max());
            let mut elo = f32::INFINITY;
            let mut ehi = f32::NEG_INFINITY;
            for &v in bf.data() {
                elo = elo.min(v);
                ehi = ehi.max(v);
            }
            assert_eq!((lo, hi), (elo, ehi));
        }
    }
}
