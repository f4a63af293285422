//! Refined-grid coordinates.

use crate::dims::RefinedDims;

/// A coordinate on the refined grid of the **full dataset**.
///
/// The parity of each component determines whether the cell extends along
/// that axis: even ⇒ flat (vertex-aligned), odd ⇒ extends. Component
/// values fit comfortably in `u32` (a 1152³ dataset has refined extent
/// 2303 per axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RCoord {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl RCoord {
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        RCoord { x, y, z }
    }

    /// Coordinate of the refined-grid entry for vertex `(x, y, z)`.
    pub fn of_vertex(x: u32, y: u32, z: u32) -> Self {
        RCoord::new(2 * x, 2 * y, 2 * z)
    }

    /// Dimension of the cell at this coordinate (count of odd components).
    pub fn cell_dim(&self) -> u8 {
        (self.x % 2 + self.y % 2 + self.z % 2) as u8
    }

    /// True if this coordinate is a vertex (all components even).
    pub fn is_vertex(&self) -> bool {
        self.cell_dim() == 0
    }

    /// Component along `axis` (0 = x, 1 = y, 2 = z).
    pub fn get(&self, axis: usize) -> u32 {
        match axis {
            0 => self.x,
            1 => self.y,
            _ => self.z,
        }
    }

    /// Copy with `axis` set to `v`.
    pub fn with(&self, axis: usize, v: u32) -> Self {
        let mut c = *self;
        match axis {
            0 => c.x = v,
            1 => c.y = v,
            _ => c.z = v,
        }
        c
    }

    /// Offset by `d ∈ {−1, +1}` along `axis`; `None` when it would leave
    /// `[0, extent)` bounds given by `dims`.
    pub fn step(&self, axis: usize, d: i32, dims: &RefinedDims) -> Option<Self> {
        let extent = [dims.rx, dims.ry, dims.rz][axis];
        let v = self.get(axis) as i64 + d as i64;
        if v < 0 || v as u64 >= extent {
            None
        } else {
            Some(self.with(axis, v as u32))
        }
    }

    /// Global address of this cell on the refined grid `dims`.
    pub fn address(&self, dims: &RefinedDims) -> u64 {
        dims.address(self.x as u64, self.y as u64, self.z as u64)
    }

    /// Inverse of [`RCoord::address`].
    pub fn from_address(addr: u64, dims: &RefinedDims) -> Self {
        let (i, j, k) = dims.coord(addr);
        RCoord::new(i as u32, j as u32, k as u32)
    }

    /// The vertices (even-parity corners) of this cell, lowest-coordinate
    /// first. A `d`-cell has `2^d` vertices.
    pub fn vertices(&self) -> impl Iterator<Item = RCoord> + '_ {
        let base = *self;
        let odd = [self.x % 2 == 1, self.y % 2 == 1, self.z % 2 == 1];
        (0..8u32).filter_map(move |mask| {
            let mut c = base;
            for (axis, &o) in odd.iter().enumerate() {
                let bit = (mask >> axis) & 1;
                if o {
                    let v = c.get(axis);
                    c = c.with(axis, if bit == 1 { v + 1 } else { v - 1 });
                } else if bit == 1 {
                    return None; // even axis has no choice; dedupe
                }
            }
            Some(c)
        })
    }
}

/// The splitmix64 finalizer: a bijection of `u64` that spreads any
/// structured set of global addresses (parity-skewed, strided or sparse)
/// over all 64 bits. The segmentation's owner map and the complex's
/// address index both hash addresses through it.
pub fn mix_address(addr: u64) -> u64 {
    let mut z = addr.wrapping_add(SplitMix64::GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom
/// number generators"): the workspace's one seeded generator, behind
/// random decompositions, seeded fault plans and fuzz cases, so each is
/// the same on every platform. Each draw is [`mix_address`] of the
/// state, which then advances by the golden gamma.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The golden-ratio increment of the state.
    pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        let z = mix_address(self.state);
        self.state = self.state.wrapping_add(Self::GAMMA);
        z
    }

    /// `next_u64() % n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// The element of `xs` (non-empty) at one [`below`](Self::below) draw.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims;

    #[test]
    fn splitmix64_draws_the_reference_sequence() {
        let mut rng = SplitMix64::new(0);
        let draws = [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
        ];
        for want in draws {
            assert_eq!(rng.next_u64(), want);
        }
    }

    #[test]
    fn cell_dim_matches_parity() {
        assert_eq!(RCoord::new(0, 0, 0).cell_dim(), 0);
        assert_eq!(RCoord::new(1, 0, 0).cell_dim(), 1);
        assert_eq!(RCoord::new(1, 1, 0).cell_dim(), 2);
        assert_eq!(RCoord::new(1, 1, 1).cell_dim(), 3);
    }

    #[test]
    fn vertices_count_is_2_pow_dim() {
        for c in [
            RCoord::new(2, 2, 2),
            RCoord::new(3, 2, 2),
            RCoord::new(3, 3, 2),
            RCoord::new(3, 3, 3),
        ] {
            let n = c.vertices().count();
            assert_eq!(n, 1 << c.cell_dim());
            for v in c.vertices() {
                assert!(v.is_vertex());
                // each vertex is within distance 1 of the cell coord
                assert!((v.x as i64 - c.x as i64).abs() <= 1);
                assert!((v.y as i64 - c.y as i64).abs() <= 1);
                assert!((v.z as i64 - c.z as i64).abs() <= 1);
            }
        }
    }

    #[test]
    fn address_round_trip() {
        let dims = Dims::new(4, 4, 4).refined();
        for k in 0..dims.rz as u32 {
            for j in 0..dims.ry as u32 {
                for i in 0..dims.rx as u32 {
                    let c = RCoord::new(i, j, k);
                    assert_eq!(RCoord::from_address(c.address(&dims), &dims), c);
                }
            }
        }
    }

    #[test]
    fn step_bounds() {
        let dims = Dims::new(3, 3, 3).refined(); // extent 5
        let c = RCoord::new(0, 4, 2);
        assert_eq!(c.step(0, -1, &dims), None);
        assert_eq!(c.step(0, 1, &dims), Some(RCoord::new(1, 4, 2)));
        assert_eq!(c.step(1, 1, &dims), None);
        assert_eq!(c.step(2, -1, &dims), Some(RCoord::new(0, 4, 1)));
    }
}
