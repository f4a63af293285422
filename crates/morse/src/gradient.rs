//! One-byte-per-cell discrete gradient storage.
//!
//! "We use a refined grid to store the result of the gradient
//! computation, … and stores the discrete gradient pairing, criticality,
//! and additional temporary values compactly in one byte per element"
//! (paper §IV-C). The byte layout here:
//!
//! ```text
//! bit 0..2   partner direction (FaceDir code 0..5), valid when PAIRED
//! bit 3      TAIL: partner is a cofacet (flow leaves through this cell)
//! bit 4      PAIRED
//! bit 5      CRITICAL
//! bit 6      ASSIGNED
//! ```

use msp_grid::topology::{FaceDir, RBox};
use msp_grid::RCoord;

pub(crate) const DIR_MASK: u8 = 0b0000_0111;
pub(crate) const TAIL: u8 = 0b0000_1000;
pub(crate) const PAIRED: u8 = 0b0001_0000;
pub(crate) const CRITICAL: u8 = 0b0010_0000;
pub(crate) const ASSIGNED: u8 = 0b0100_0000;

/// The discrete gradient of one block, stored on the block's refined box
/// in **global** refined coordinates. The byte array is addressed through
/// precomputed row/plane strides (flat layout) so the per-cell index is
/// three subtractions, one multiply-add pair and no recomputed extents —
/// this is the innermost memory access of the whole local stage.
#[derive(Debug, Clone)]
pub struct GradientField {
    bbox: RBox,
    /// Refined entries per row (x extent).
    sx: u64,
    /// Refined entries per plane (x extent · y extent).
    sxy: u64,
    bytes: Vec<u8>,
}

impl GradientField {
    /// A fully unassigned gradient over `bbox`.
    pub fn new(bbox: RBox) -> Self {
        let sx = bbox.extent(0);
        GradientField {
            bbox,
            sx,
            sxy: sx * bbox.extent(1),
            bytes: vec![0; bbox.len() as usize],
        }
    }

    /// A fully unassigned gradient over `bbox` backed by a caller-owned
    /// (typically pooled) zeroed buffer of exactly `bbox.len()` bytes.
    pub(crate) fn with_buffer(bbox: RBox, bytes: Vec<u8>) -> Self {
        assert_eq!(bytes.len() as u64, bbox.len(), "buffer size mismatch");
        debug_assert!(bytes.iter().all(|&b| b == 0), "buffer must be zeroed");
        let sx = bbox.extent(0);
        GradientField {
            bbox,
            sx,
            sxy: sx * bbox.extent(1),
            bytes,
        }
    }

    /// Take the byte buffer back (for returning slab scratch to a pool).
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Row and plane strides for flat-kernel index arithmetic.
    pub(crate) fn strides(&self) -> (u64, u64) {
        (self.sx, self.sxy)
    }

    /// Linear index of a cell (the flat kernels hoist this out of their
    /// inner loops and advance it incrementally).
    #[inline]
    pub(crate) fn linear_index(&self, c: RCoord) -> usize {
        self.index(c)
    }

    /// Write the full byte of an unassigned cell by linear index. The
    /// flat kernel's only store; keeps the one-write-per-cell contract
    /// checkable in debug builds.
    #[inline]
    pub(crate) fn write_byte(&mut self, i: usize, b: u8) {
        debug_assert_eq!(self.bytes[i], 0, "cell already assigned");
        self.bytes[i] = b;
    }

    /// Read a cell's byte by linear index (flat tracer fast path).
    #[inline]
    pub(crate) fn byte_at(&self, i: usize) -> u8 {
        self.bytes[i]
    }

    /// The block's refined box (global coordinates).
    pub fn bbox(&self) -> &RBox {
        &self.bbox
    }

    /// The raw byte array, x-fastest over [`bbox`](GradientField::bbox).
    /// Unassigned cells are 0; every assigned cell is nonzero (the
    /// `ASSIGNED` bit). Used for slab merging and bit-exactness checks.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    #[inline]
    fn index(&self, c: RCoord) -> usize {
        debug_assert!(self.bbox.contains(c));
        ((c.x - self.bbox.lo.x) as u64
            + self.sx * (c.y - self.bbox.lo.y) as u64
            + self.sxy * (c.z - self.bbox.lo.z) as u64) as usize
    }

    #[inline]
    fn byte(&self, c: RCoord) -> u8 {
        self.bytes[self.index(c)]
    }

    #[inline]
    fn byte_mut(&mut self, c: RCoord) -> &mut u8 {
        let i = self.index(c);
        &mut self.bytes[i]
    }

    /// Copy every *assigned* cell of `sub` (a gradient over a sub-box of
    /// this field's box) into this field. Row-wise: the two boxes agree
    /// on x/y extent when slabs cut only along z, but the loop handles
    /// any contained sub-box. Cells unassigned in `sub` are left alone,
    /// so adjacent z-slabs — which overlap in exactly one refined plane,
    /// each owning a disjoint subset of its cells — merge losslessly in
    /// any order (the parallel path applies them in slab order anyway).
    pub fn absorb_assigned(&mut self, sub: &GradientField) {
        let sb = sub.bbox;
        debug_assert!(self.bbox.contains(sb.lo) && self.bbox.contains(sb.hi));
        let n = sb.extent(0) as usize;
        for z in sb.lo.z..=sb.hi.z {
            for y in sb.lo.y..=sb.hi.y {
                let row = RCoord::new(sb.lo.x, y, z);
                let s0 = sub.index(row);
                let d0 = self.index(row);
                let (src, dst) = (&sub.bytes[s0..s0 + n], &mut self.bytes[d0..d0 + n]);
                for (d, &s) in dst.iter_mut().zip(src) {
                    if s != 0 {
                        *d = s;
                    }
                }
            }
        }
    }

    /// Slab-specialized [`absorb_assigned`](GradientField::absorb_assigned):
    /// a z-slab that swept vertices `z ∈ [z0, z1]` fully owns every
    /// refined plane in `[2z0, 2z1]` (a cell on an even plane `2z` has
    /// all vertices at `z`; an odd plane `2z+1` has them at `z`/`z+1` —
    /// either way the owning SoS-max vertex is inside the slab), so that
    /// span is one contiguous `copy_from_slice`. Only the up-to-one
    /// overlap plane on each side (`2z0 − 1`, `2z1 + 1`), whose cells
    /// are split between adjacent slabs, needs the conditional per-byte
    /// merge. Falls back to the general path when `sub` is not a full
    /// xy-cross-section slab of this box.
    pub fn absorb_slab(&mut self, sub: &GradientField, full_lo_z: u32, full_hi_z: u32) {
        let sb = sub.bbox;
        let is_slab = sub.sx == self.sx
            && sub.sxy == self.sxy
            && sb.lo.x == self.bbox.lo.x
            && sb.lo.y == self.bbox.lo.y
            && sb.lo.z >= self.bbox.lo.z
            && sb.hi.z <= self.bbox.hi.z
            && sb.lo.z <= full_lo_z
            && full_hi_z <= sb.hi.z;
        if !is_slab {
            self.absorb_assigned(sub);
            return;
        }
        for z in sb.lo.z..full_lo_z {
            self.merge_plane(sub, z);
        }
        let row = RCoord::new(sb.lo.x, sb.lo.y, full_lo_z);
        let s0 = sub.index(row);
        let d0 = self.index(row);
        let n = (self.sxy * (full_hi_z - full_lo_z + 1) as u64) as usize;
        let src = &sub.bytes[s0..s0 + n];
        debug_assert!(
            src.iter().all(|&b| b != 0),
            "fully-owned slab planes must be completely assigned"
        );
        self.bytes[d0..d0 + n].copy_from_slice(src);
        for z in (full_hi_z + 1)..=sb.hi.z {
            self.merge_plane(sub, z);
        }
    }

    /// Conditional byte merge of one shared refined plane of `sub`.
    fn merge_plane(&mut self, sub: &GradientField, z: u32) {
        let sb = sub.bbox;
        let row = RCoord::new(sb.lo.x, sb.lo.y, z);
        let s0 = sub.index(row);
        let d0 = self.index(row);
        let n = self.sxy as usize;
        let (src, dst) = (&sub.bytes[s0..s0 + n], &mut self.bytes[d0..d0 + n]);
        for (d, &s) in dst.iter_mut().zip(src) {
            if s != 0 {
                *d = s;
            }
        }
    }

    /// Raw byte of a cell (for boundary-equality tests and serialization).
    pub fn raw(&self, c: RCoord) -> u8 {
        self.byte(c)
    }

    pub fn is_assigned(&self, c: RCoord) -> bool {
        self.byte(c) & ASSIGNED != 0
    }

    pub fn is_critical(&self, c: RCoord) -> bool {
        self.byte(c) & CRITICAL != 0
    }

    /// True when `c` is the tail of its vector (paired with a cofacet,
    /// i.e. flow passes *through* `c` into the partner).
    pub fn is_tail(&self, c: RCoord) -> bool {
        let b = self.byte(c);
        b & PAIRED != 0 && b & TAIL != 0
    }

    /// The cell `c` is paired with, if any.
    pub fn partner(&self, c: RCoord) -> Option<RCoord> {
        let b = self.byte(c);
        if b & PAIRED == 0 {
            return None;
        }
        let dir = FaceDir::from_code(b & DIR_MASK);
        let axis = dir.axis as usize;
        let v = (c.get(axis) as i64 + dir.delta() as i64) as u32;
        Some(c.with(axis, v))
    }

    /// Record the discrete vector `(tail < head)` where `head` must be a
    /// cofacet of `tail` one step along some axis. Panics (debug) if
    /// either cell is already assigned.
    pub fn pair(&mut self, tail: RCoord, head: RCoord) {
        debug_assert!(!self.is_assigned(tail), "tail already assigned");
        debug_assert!(!self.is_assigned(head), "head already assigned");
        debug_assert_eq!(tail.cell_dim() + 1, head.cell_dim());
        let (axis, positive) = Self::step_between(tail, head);
        let fwd = FaceDir { axis, positive };
        *self.byte_mut(tail) = ASSIGNED | PAIRED | TAIL | fwd.code();
        *self.byte_mut(head) = ASSIGNED | PAIRED | fwd.flip().code();
    }

    fn step_between(a: RCoord, b: RCoord) -> (u8, bool) {
        for axis in 0..3 {
            let (x, y) = (a.get(axis), b.get(axis));
            if x != y {
                debug_assert!((x as i64 - y as i64).abs() == 1, "cells must be adjacent");
                for other in 0..3 {
                    if other != axis {
                        debug_assert_eq!(a.get(other), b.get(other));
                    }
                }
                return (axis as u8, y > x);
            }
        }
        panic!("cells are identical");
    }

    /// Mark `c` as a critical cell.
    pub fn mark_critical(&mut self, c: RCoord) {
        debug_assert!(!self.is_assigned(c), "cell already assigned");
        *self.byte_mut(c) = ASSIGNED | CRITICAL;
    }

    /// All critical cells, in address order (x-fastest, matching
    /// `bbox.iter()` order).
    pub fn critical_cells(&self) -> Vec<RCoord> {
        self.critical_cells_and_paired_count().0
    }

    /// [`critical_cells`](GradientField::critical_cells) and
    /// [`n_paired_cells`](GradientField::n_paired_cells) from one pass
    /// over the bytes. Critical cells are rare, so the scan tests eight
    /// bytes at a time and derives coordinates only on a hit.
    pub fn critical_cells_and_paired_count(&self) -> (Vec<RCoord>, u64) {
        const EACH_BYTE: u64 = 0x0101_0101_0101_0101;
        let lo = self.bbox.lo;
        let mut critical = Vec::new();
        let mut paired = 0u64;
        let mut visit = |base: usize, word: [u8; 8]| {
            let w = u64::from_le_bytes(word);
            paired += (w & (EACH_BYTE * PAIRED as u64)).count_ones() as u64;
            let mut hits = w & (EACH_BYTE * CRITICAL as u64);
            while hits != 0 {
                let i = (base + hits.trailing_zeros() as usize / 8) as u64;
                hits &= hits - 1;
                critical.push(RCoord::new(
                    lo.x + (i % self.sx) as u32,
                    lo.y + (i % self.sxy / self.sx) as u32,
                    lo.z + (i / self.sxy) as u32,
                ));
            }
        };
        let words = self.bytes.chunks_exact(8);
        let tail = words.remainder();
        for (k, word) in words.enumerate() {
            visit(8 * k, word.try_into().expect("chunks_exact(8)"));
        }
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        visit(self.bytes.len() - tail.len(), last);
        (critical, paired)
    }

    /// Count of critical cells per index (0..=3).
    pub fn census(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for c in self.bbox.iter() {
            if self.is_critical(c) {
                out[c.cell_dim() as usize] += 1;
            }
        }
        out
    }

    /// Number of unassigned cells (0 after a complete assignment).
    pub fn n_unassigned(&self) -> u64 {
        self.bytes.iter().filter(|&&b| b & ASSIGNED == 0).count() as u64
    }

    /// Number of cells in gradient pairs (tails + heads; an even number
    /// for a complete assignment: cells are either paired or critical).
    pub fn n_paired_cells(&self) -> u64 {
        self.bytes.iter().filter(|&&b| b & PAIRED != 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_box() -> RBox {
        RBox::new(RCoord::new(0, 0, 0), RCoord::new(4, 4, 4))
    }

    #[test]
    fn fresh_field_unassigned() {
        let g = GradientField::new(small_box());
        assert_eq!(g.n_unassigned(), 125);
        assert!(!g.is_assigned(RCoord::new(1, 2, 3)));
        assert_eq!(g.partner(RCoord::new(1, 2, 3)), None);
    }

    #[test]
    fn pair_round_trip() {
        let mut g = GradientField::new(small_box());
        let v = RCoord::new(2, 2, 2);
        let e = RCoord::new(3, 2, 2);
        g.pair(v, e);
        assert!(g.is_tail(v));
        assert!(!g.is_tail(e));
        assert_eq!(g.partner(v), Some(e));
        assert_eq!(g.partner(e), Some(v));
        assert!(!g.is_critical(v));
        assert_eq!(g.n_unassigned(), 123);
        assert_eq!(g.n_paired_cells(), 2);
        g.mark_critical(RCoord::new(0, 0, 0));
        assert_eq!(g.n_paired_cells(), 2); // critical cells are not paired
    }

    #[test]
    fn pair_negative_direction() {
        let mut g = GradientField::new(small_box());
        let e = RCoord::new(2, 1, 2); // edge along y
        let v = RCoord::new(2, 2, 2); // its upper vertex
        g.pair(v, e);
        assert_eq!(g.partner(v), Some(e));
        assert_eq!(g.partner(e), Some(v));
    }

    #[test]
    fn critical_census() {
        let mut g = GradientField::new(small_box());
        g.mark_critical(RCoord::new(0, 0, 0)); // vertex
        g.mark_critical(RCoord::new(1, 0, 0)); // edge
        g.mark_critical(RCoord::new(1, 1, 0)); // quad
        g.mark_critical(RCoord::new(1, 1, 1)); // voxel
        g.mark_critical(RCoord::new(3, 3, 3)); // voxel
        assert_eq!(g.census(), [1, 1, 1, 2]);
        assert_eq!(g.critical_cells().len(), 5);
    }

    #[test]
    fn word_scan_matches_cell_by_cell_scan() {
        // extents that leave every remainder length, cells of every kind
        // at every position within a word
        for (nx, ny, nz) in [(4, 4, 4), (5, 3, 2), (6, 2, 2), (0, 0, 0), (8, 1, 0)] {
            let bbox = RBox::new(RCoord::new(2, 4, 6), RCoord::new(2 + nx, 4 + ny, 6 + nz));
            let mut g = GradientField::new(bbox);
            for (i, c) in bbox.iter().enumerate() {
                if g.is_assigned(c) {
                    continue; // the head of an earlier pair
                }
                match (i * 7 + i / 5) % 4 {
                    0 => g.mark_critical(c),
                    1 if c.x % 2 == 0 && c.x < bbox.hi.x => g.pair(c, c.with(0, c.x + 1)),
                    _ => {}
                }
            }
            let naive: Vec<RCoord> = bbox.iter().filter(|&c| g.is_critical(c)).collect();
            let (critical, paired) = g.critical_cells_and_paired_count();
            assert_eq!(critical, naive, "box {nx}x{ny}x{nz}");
            assert_eq!(paired, g.n_paired_cells());
            assert_eq!(g.critical_cells(), naive);
        }
    }

    #[test]
    fn absorb_assigned_merges_overlapping_slabs() {
        // two z-slabs sharing the refined plane z=3, each assigning a
        // disjoint subset of it, must merge into one complete field
        let mut a = GradientField::new(RBox::new(RCoord::new(0, 0, 0), RCoord::new(4, 4, 3)));
        let mut b = GradientField::new(RBox::new(RCoord::new(0, 0, 3), RCoord::new(4, 4, 4)));
        a.pair(RCoord::new(2, 2, 2), RCoord::new(2, 2, 3)); // reaches into the shared plane
        b.mark_critical(RCoord::new(0, 0, 4));
        b.mark_critical(RCoord::new(1, 0, 3)); // on the shared plane, owned by b
        let mut g = GradientField::new(small_box());
        g.absorb_assigned(&a);
        g.absorb_assigned(&b);
        assert_eq!(g.partner(RCoord::new(2, 2, 2)), Some(RCoord::new(2, 2, 3)));
        assert!(g.is_tail(RCoord::new(2, 2, 2)));
        assert!(g.is_critical(RCoord::new(0, 0, 4)));
        assert!(g.is_critical(RCoord::new(1, 0, 3)));
        assert_eq!(g.n_unassigned(), 125 - 4);
        assert_eq!(g.bytes().len(), 125);
    }

    #[test]
    fn absorb_slab_matches_absorb_assigned() {
        // a slab over vertices z ∈ [0, 1] of a 0..=4 refined box: fully
        // owned planes [0, 2], shared plane 3 partially assigned
        let sub_box = RBox::new(RCoord::new(0, 0, 0), RCoord::new(4, 4, 3));
        let mut sub = GradientField::new(sub_box);
        for c in sub_box.iter() {
            if c.z <= 2 {
                sub.mark_critical(c); // "fully assigned" stand-in bytes
            } else if (c.x + c.y) % 2 == 0 {
                sub.mark_critical(c); // split plane: half the cells
            }
        }
        let mut via_slab = GradientField::new(small_box());
        via_slab.absorb_slab(&sub, 0, 2);
        let mut via_general = GradientField::new(small_box());
        via_general.absorb_assigned(&sub);
        assert_eq!(via_slab.bytes(), via_general.bytes());
        // a sub-box that is not a full cross-section slab must fall back
        let part_box = RBox::new(RCoord::new(1, 1, 0), RCoord::new(3, 3, 1));
        let mut part = GradientField::new(part_box);
        part.mark_critical(RCoord::new(2, 2, 1));
        let mut d = GradientField::new(small_box());
        d.absorb_slab(&part, 0, 1);
        assert!(d.is_critical(RCoord::new(2, 2, 1)));
    }

    // tests a `debug_assert!`, compiled out in release builds
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn double_assign_panics() {
        let mut g = GradientField::new(small_box());
        let v = RCoord::new(2, 2, 2);
        g.mark_critical(v);
        g.mark_critical(v);
    }
}
