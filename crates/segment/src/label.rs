//! Per-block label propagation: batched pointer doubling over flat
//! successor arrays.
//!
//! Two forests are extracted from the block's discrete gradient:
//!
//! * the **vertex forest** — every non-critical vertex is the tail of
//!   exactly one vertex→edge pairing; its successor is the other
//!   endpoint of the partner edge; roots are the critical vertices
//!   (minima of the owner-restricted gradient);
//! * the **voxel forest** — every non-critical voxel is the head of
//!   exactly one quad→voxel pairing; its successor is the other voxel
//!   cofacet of the partner quad; roots are the critical voxels
//!   (maxima). A partner quad on the domain boundary has no second
//!   cofacet: the path drains off the domain ([`DRAIN_LABEL`]).
//!
//! Owner-restricted pairing guarantees both forests are closed inside
//! the block (a pairing never crosses an owner-set change), so the
//! whole stage is communication-free and its result is independent of
//! how the domain is distributed over ranks.
//!
//! Plateau tie-breaking needs no extra rule here: successors follow the
//! gradient's own pairings, which were chosen under the
//! simulation-of-simplicity order, so flat
//! regions inherit exactly the same deterministic owners the complex
//! construction sees.

use crate::{DRAIN_ADDR, DRAIN_LABEL};
use msp_grid::par::par_map;
use msp_grid::{BlockBox, RCoord, RefinedDims};
use msp_morse::GradientField;
use std::collections::HashMap;

/// The segmentation of one block: extremum tables (global refined-grid
/// addresses, sorted) and flat label arrays indexing into them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSegmentation {
    pub block_id: u32,
    /// Vertex-grid dimensions of the block (shared layers included).
    pub vdims: [u32; 3],
    /// Block origin in vertex coordinates of the full dataset.
    pub origin: [u32; 3],
    /// Descending-manifold representatives: addresses of the minima the
    /// vertex labels refer to. Sorted, unique.
    pub mins: Vec<u64>,
    /// Ascending-manifold representatives: addresses of the maxima the
    /// voxel labels refer to. Sorted, unique.
    pub maxs: Vec<u64>,
    /// Per-vertex index into `mins`, x-fastest block-local order.
    pub min_label: Vec<u32>,
    /// Per-voxel index into `maxs` ([`DRAIN_LABEL`] = drains off the
    /// domain boundary), x-fastest block-local order over the
    /// `(vdims-1)^3` voxel grid.
    pub max_label: Vec<u32>,
}

impl BlockSegmentation {
    /// Estimated resident heap footprint in bytes (capacity-based, for
    /// the serve layer's per-dataset byte gauges).
    pub fn mem_bytes(&self) -> u64 {
        use std::mem::size_of;
        (size_of::<BlockSegmentation>()
            + (self.mins.capacity() + self.maxs.capacity()) * size_of::<u64>()
            + (self.min_label.capacity() + self.max_label.capacity()) * size_of::<u32>())
            as u64
    }

    /// Voxel-grid dimensions (`vdims - 1` per axis, saturating).
    pub fn cdims(&self) -> [u32; 3] {
        [
            self.vdims[0].saturating_sub(1),
            self.vdims[1].saturating_sub(1),
            self.vdims[2].saturating_sub(1),
        ]
    }

    /// The address a vertex label stands for.
    pub fn min_addr(&self, label: u32) -> u64 {
        self.mins[label as usize]
    }

    /// The address a voxel label stands for ([`DRAIN_ADDR`] for drains).
    pub fn max_addr(&self, label: u32) -> u64 {
        if label == DRAIN_LABEL {
            DRAIN_ADDR
        } else {
            self.maxs[label as usize]
        }
    }

    /// Distinct regions actually referenced: `(descending, ascending,
    /// drained voxels)`.
    pub fn census(&self) -> (usize, usize, u64) {
        let drained = self.max_label.iter().filter(|&&l| l == DRAIN_LABEL).count() as u64;
        (self.mins.len(), self.maxs.len(), drained)
    }

    /// Rewrite both extremum tables through their resolved
    /// representatives (`resolved_*[i]` replaces table entry `i`;
    /// [`DRAIN_ADDR`] sends a region to the drain), dedup + re-sort the
    /// tables, and remap the label arrays. Returns how many table
    /// entries actually moved.
    pub fn apply_resolution(&mut self, resolved_mins: &[u64], resolved_maxs: &[u64]) -> u64 {
        assert_eq!(resolved_mins.len(), self.mins.len());
        assert_eq!(resolved_maxs.len(), self.maxs.len());
        let mut moved = 0;
        moved += remap_table(&mut self.mins, &mut self.min_label, resolved_mins);
        moved += remap_table(&mut self.maxs, &mut self.max_label, resolved_maxs);
        moved
    }
}

/// Replace `table` by the sorted dedup of `resolved` (drains excluded)
/// and rewrite `labels` accordingly. Returns the number of table entries
/// whose representative changed.
fn remap_table(table: &mut Vec<u64>, labels: &mut [u32], resolved: &[u64]) -> u64 {
    let moved = table
        .iter()
        .zip(resolved)
        .filter(|(old, new)| old != new)
        .count() as u64;
    if moved == 0 {
        return 0;
    }
    let mut new_table: Vec<u64> = resolved
        .iter()
        .copied()
        .filter(|&a| a != DRAIN_ADDR)
        .collect();
    new_table.sort_unstable();
    new_table.dedup();
    // old table index -> new label (or drain)
    let relabel: Vec<u32> = resolved
        .iter()
        .map(|&a| {
            if a == DRAIN_ADDR {
                DRAIN_LABEL
            } else {
                new_table.binary_search(&a).expect("resolved addr in table") as u32
            }
        })
        .collect();
    for l in labels.iter_mut() {
        if *l != DRAIN_LABEL {
            *l = relabel[*l as usize];
        }
    }
    *table = new_table;
    moved
}

/// Split `0..n` into at most `threads` contiguous ranges.
fn chunk_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.clamp(1, n.max(1));
    let per = n.div_ceil(workers);
    (0..workers)
        .map(|w| (w * per, ((w + 1) * per).min(n)))
        .filter(|(a, b)| a < b)
        .collect()
}

/// One synchronized pointer-doubling pass: `new[i] = old[old[i]]`
/// (drains are absorbing). Returns whether anything moved.
fn double_pass(succ: &mut Vec<u32>, threads: usize) -> bool {
    let old = std::mem::take(succ);
    let chunks = chunk_ranges(old.len(), threads);
    let parts = par_map(threads, &chunks, |_, &(a, b)| {
        let mut out = Vec::with_capacity(b - a);
        let mut changed = false;
        for &s in &old[a..b] {
            let n = if s == DRAIN_LABEL {
                DRAIN_LABEL
            } else {
                old[s as usize]
            };
            changed |= n != s;
            out.push(n);
        }
        (out, changed)
    });
    let mut changed = false;
    let mut merged = Vec::with_capacity(old.len());
    for (part, c) in parts {
        merged.extend(part);
        changed |= c;
    }
    *succ = merged;
    changed
}

/// Pointer-double until every entry is a root (or a drain). V-paths are
/// acyclic, so this converges in `O(log chain-length)` passes.
fn compress(succ: &mut Vec<u32>, threads: usize) {
    while double_pass(succ, threads) {}
}

/// Compute the block's segmentation from its assigned gradient.
/// `refined` is the **domain** refined grid (node addresses are global).
/// Bit-identical output for every `threads` value.
pub fn label_block(
    block: &BlockBox,
    refined: &RefinedDims,
    grad: &GradientField,
    threads: usize,
) -> BlockSegmentation {
    let d = block.dims();
    let vdims = [d.nx, d.ny, d.nz];
    let (nx, ny, nz) = (d.nx as usize, d.ny as usize, d.nz as usize);
    let (mx, my, mz) = (
        nx.saturating_sub(1),
        ny.saturating_sub(1),
        nz.saturating_sub(1),
    );
    let lo = block.lo;

    // ---- vertex forest ----
    let n_verts = nx * ny * nz;
    let vcoord = |i: usize| {
        let (x, r) = (i % nx, i / nx);
        let (y, z) = (r % ny, r / ny);
        RCoord::of_vertex(lo[0] + x as u32, lo[1] + y as u32, lo[2] + z as u32)
    };
    let vindex = |c: RCoord| {
        let x = (c.x / 2 - lo[0]) as usize;
        let y = (c.y / 2 - lo[1]) as usize;
        let z = (c.z / 2 - lo[2]) as usize;
        x + nx * (y + ny * z)
    };
    let vchunks = chunk_ranges(n_verts, threads);
    let mut vsucc: Vec<u32> = par_map(threads, &vchunks, |_, &(a, b)| {
        let mut out = Vec::with_capacity(b - a);
        for i in a..b {
            let v = vcoord(i);
            if grad.is_critical(v) {
                out.push(i as u32);
                continue;
            }
            let e = grad
                .partner(v)
                .expect("non-critical vertex is paired with an edge");
            let axis = (0..3).find(|&ax| e.get(ax) % 2 == 1).expect("edge axis");
            let w = e.with(axis, 2 * e.get(axis) - v.get(axis));
            out.push(vindex(w) as u32);
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    compress(&mut vsucc, threads);

    // ---- voxel forest ----
    let n_cells = mx * my * mz;
    let ccoord = |i: usize| {
        let (x, r) = (i % mx.max(1), i / mx.max(1));
        let (y, z) = (r % my.max(1), r / my.max(1));
        RCoord::new(
            2 * (lo[0] + x as u32) + 1,
            2 * (lo[1] + y as u32) + 1,
            2 * (lo[2] + z as u32) + 1,
        )
    };
    let cindex = |c: RCoord| {
        let x = ((c.x - 1) / 2 - lo[0]) as usize;
        let y = ((c.y - 1) / 2 - lo[1]) as usize;
        let z = ((c.z - 1) / 2 - lo[2]) as usize;
        x + mx * (y + my * z)
    };
    let rb = block.refined_box();
    let cchunks = chunk_ranges(n_cells, threads);
    let mut csucc: Vec<u32> = par_map(threads, &cchunks, |_, &(a, b)| {
        let mut out = Vec::with_capacity(b - a);
        for i in a..b {
            let c = ccoord(i);
            if grad.is_critical(c) {
                out.push(i as u32);
                continue;
            }
            let q = grad
                .partner(c)
                .expect("non-critical voxel is paired with a quad");
            let axis = (0..3)
                .find(|&ax| q.get(ax).is_multiple_of(2))
                .expect("quad axis");
            // the partner quad's other voxel cofacet; a domain-boundary
            // quad has none and the path drains
            let other = 2 * q.get(axis) as i64 - c.get(axis) as i64;
            let extent = [refined.rx, refined.ry, refined.rz][axis];
            if other < 0 || other as u64 >= extent {
                out.push(DRAIN_LABEL);
                continue;
            }
            let w = q.with(axis, other as u32);
            debug_assert!(rb.contains(w), "owner-restricted pairing left the block");
            out.push(cindex(w) as u32);
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    compress(&mut csucc, threads);

    // ---- extremum tables ----
    let mut mins: Vec<u64> = Vec::new();
    let mut maxs: Vec<u64> = Vec::new();
    let mut min_of: HashMap<u32, u32> = HashMap::new();
    let mut max_of: HashMap<u32, u32> = HashMap::new();
    for c in grad.critical_cells() {
        match c.cell_dim() {
            0 => {
                min_of.insert(vindex(c) as u32, mins.len() as u32);
                mins.push(c.address(refined));
            }
            3 => {
                max_of.insert(cindex(c) as u32, maxs.len() as u32);
                maxs.push(c.address(refined));
            }
            _ => {}
        }
    }
    // critical_cells scans the box in address order, so the tables come
    // out sorted; the labels below rely on that only via the maps.
    debug_assert!(mins.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(maxs.windows(2).all(|w| w[0] < w[1]));

    let min_label: Vec<u32> = vsucc
        .into_iter()
        .map(|root| *min_of.get(&root).expect("vertex root is a critical vertex"))
        .collect();
    let max_label: Vec<u32> = csucc
        .into_iter()
        .map(|root| {
            if root == DRAIN_LABEL {
                DRAIN_LABEL
            } else {
                *max_of.get(&root).expect("voxel root is a critical voxel")
            }
        })
        .collect();

    BlockSegmentation {
        block_id: block.id,
        vdims,
        origin: lo,
        mins,
        maxs,
        min_label,
        max_label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::{Decomposition, Dims};
    use msp_morse::assign_gradient;

    fn segment_field(field: &msp_grid::ScalarField, threads: usize) -> Vec<BlockSegmentation> {
        let decomp = Decomposition::bisect(field.dims(), 1);
        let refined = field.dims().refined();
        decomp
            .blocks()
            .iter()
            .map(|b| {
                let bf = field.extract_block(b);
                let grad = assign_gradient(&bf, &decomp);
                label_block(b, &refined, &grad, threads)
            })
            .collect()
    }

    #[test]
    fn every_vertex_and_voxel_is_labeled() {
        let f = msp_synth::white_noise(Dims::cube(7), 11);
        let segs = segment_field(&f, 1);
        let s = &segs[0];
        assert_eq!(s.min_label.len(), 7 * 7 * 7);
        assert_eq!(s.max_label.len(), 6 * 6 * 6);
        assert!(!s.mins.is_empty());
        for &l in &s.min_label {
            assert!((l as usize) < s.mins.len());
        }
        for &l in &s.max_label {
            assert!(l == DRAIN_LABEL || (l as usize) < s.maxs.len());
        }
    }

    #[test]
    fn labels_bit_identical_across_thread_counts() {
        let f = msp_synth::white_noise(Dims::cube(9), 3);
        let base = segment_field(&f, 1);
        for threads in [2, 3, 5, 8] {
            assert_eq!(segment_field(&f, threads), base, "threads = {threads}");
        }
    }

    #[test]
    fn constant_field_has_one_descending_region() {
        // Simulation of simplicity turns a constant field into a ramp by
        // global vertex id: one minimum owns every vertex, and the
        // plateau owners are fully deterministic.
        let f = msp_synth::constant(Dims::cube(6), 0.5);
        let segs = segment_field(&f, 1);
        let s = &segs[0];
        let (n_min, _, _) = s.census();
        assert_eq!(n_min, 1);
        assert!(s.min_label.iter().all(|&l| l == 0));
    }

    #[test]
    fn label_is_constant_one_gradient_step_down() {
        // walking a vertex one step along its partner edge must not
        // change its basin — the defining segmentation invariant
        let f = msp_synth::white_noise(Dims::cube(8), 21);
        let decomp = Decomposition::bisect(f.dims(), 1);
        let refined = f.dims().refined();
        let b = decomp.block(0);
        let bf = f.extract_block(b);
        let grad = assign_gradient(&bf, &decomp);
        let s = label_block(b, &refined, &grad, 1);
        let d = b.dims();
        for i in 0..s.min_label.len() {
            let (x, r) = (i % d.nx as usize, i / d.nx as usize);
            let (y, z) = (r % d.ny as usize, r / d.ny as usize);
            let v = RCoord::of_vertex(x as u32, y as u32, z as u32);
            if grad.is_critical(v) {
                continue;
            }
            let e = grad.partner(v).unwrap();
            let axis = (0..3).find(|&ax| e.get(ax) % 2 == 1).unwrap();
            let w = e.with(axis, 2 * e.get(axis) - v.get(axis));
            let wi = (w.x / 2) as usize
                + d.nx as usize * ((w.y / 2) as usize + d.ny as usize * (w.z / 2) as usize);
            assert_eq!(s.min_label[i], s.min_label[wi], "vertex {i}");
        }
    }
}
