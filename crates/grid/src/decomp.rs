//! Recursive-bisection domain decomposition (paper §IV-A) and the
//! *owner set* query behind boundary-restricted gradient pairing (§IV-C).
//!
//! The vertex grid is split by iteratively bisecting the longest remaining
//! axis until the requested number of blocks is reached. One recursion
//! builds every tree; a cut rule (proportional, weight-steered or seeded
//! random) places each plane. Adjacent blocks **share one vertex layer**:
//! if a block ends at vertex plane `x = s`, its neighbour starts at
//! `x = s`. Because of the shared layer a refined coordinate can lie
//! inside up to eight blocks; the set of blocks containing it is its
//! *owner set*. The paper's consistency rule — "for a cell on the
//! boundary of two or more blocks, we only consider for pairing other
//! cells also on the boundary of those same blocks" — becomes: a
//! gradient pair `(α, β)` is legal iff `owners(α) == owners(β)`.

use crate::coord::{RCoord, SplitMix64};
use crate::dims::Dims;
use crate::topology::RBox;

/// A block of the decomposition: an inclusive box in **vertex** space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockBox {
    pub id: u32,
    /// Inclusive lower vertex corner.
    pub lo: [u32; 3],
    /// Inclusive upper vertex corner.
    pub hi: [u32; 3],
}

impl BlockBox {
    /// Vertex-space dimensions of this block (including shared layers).
    pub fn dims(&self) -> Dims {
        let [x, y, z] = self.extents();
        Dims::new(x + 1, y + 1, z + 1)
    }

    /// The block's extent on the refined grid, in **global** refined
    /// coordinates: `[2·lo, 2·hi]`.
    pub fn refined_box(&self) -> RBox {
        RBox::new(
            RCoord::new(2 * self.lo[0], 2 * self.lo[1], 2 * self.lo[2]),
            RCoord::new(2 * self.hi[0], 2 * self.hi[1], 2 * self.hi[2]),
        )
    }

    /// Cell extents per axis (one less than the vertex extents).
    fn extents(&self) -> [u32; 3] {
        [0, 1, 2].map(|a| self.hi[a] - self.lo[a])
    }

    /// Number of vertices this block loads (shared layers included).
    pub fn n_verts(&self) -> u64 {
        self.dims().n_verts()
    }
}

/// Owner set of a refined coordinate: the sorted ids of every block whose
/// refined box contains it. At most 8 blocks can share a coordinate
/// (a corner where two cuts per axis meet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerSet {
    ids: [u32; 8],
    len: u8,
}

impl OwnerSet {
    pub fn empty() -> Self {
        OwnerSet {
            ids: [0; 8],
            len: 0,
        }
    }

    pub fn push(&mut self, id: u32) {
        assert!((self.len as usize) < 8, "owner set overflow");
        self.ids[self.len as usize] = id;
        self.len += 1;
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.ids[..self.len as usize]
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the coordinate is shared by two or more blocks.
    pub fn is_shared(&self) -> bool {
        self.len >= 2
    }

    pub fn contains(&self, id: u32) -> bool {
        self.as_slice().contains(&id)
    }

    fn sort(&mut self) {
        self.ids[..self.len as usize].sort_unstable();
    }
}

#[derive(Debug, Clone)]
enum Node {
    /// Split along `axis` at vertex plane `plane`: coordinates `< plane`
    /// go left, `> plane` right, `== plane` to **both** (shared layer).
    Split {
        axis: u8,
        plane: u32,
        left: u32,
        right: u32,
    },
    Leaf {
        block: u32,
    },
}

const TOO_MANY_BLOCKS: &str = "the domain cannot be cut into that many blocks";

/// Where a cut rule splits a box that must hold two or more blocks.
enum Cut {
    /// Cut `axis` `s` cell layers above the box's low corner; `left` of
    /// the blocks go below the plane.
    At { axis: usize, s: u32, left: u32 },
    /// The box cannot hold its blocks: the decomposition fails.
    Infeasible,
}

/// A cut rule: where to split a box that must hold `count` blocks.
type Rule<'a> = dyn FnMut(&BlockBox, u32) -> Cut + 'a;

/// The longest axis of `bx` and its cell extent, or `None` when that
/// is under two layers. `max_by_key` returns the last maximal axis, so
/// ties go to z.
fn longest_axis(bx: &BlockBox) -> Option<(usize, u32)> {
    let extents = bx.extents();
    let axis = (0..3).max_by_key(|&a| extents[a]).expect("three axes");
    (extents[axis] >= 2).then_some((axis, extents[axis]))
}

/// The bisection rule: halve the block count across the longest axis,
/// the plane placed in proportion to the two counts and clamped so both
/// sides keep at least one cell layer.
fn bisect_rule(bx: &BlockBox, count: u32) -> Cut {
    let Some((axis, e)) = longest_axis(bx) else {
        return Cut::Infeasible;
    };
    let left = count / 2;
    let s = ((e as u64 * left as u64 + count as u64 / 2) / count as u64) as u32;
    let s = s.clamp(1, e - 1);
    Cut::At { axis, s, left }
}

/// The adaptive rule: the bisection's axis and counts, the plane where
/// the cumulative slab weight first reaches the left side's share.
fn adaptive_rule(domain: Dims, weight: &[u64], bx: &BlockBox, count: u32) -> Cut {
    let Some((axis, e)) = longest_axis(bx) else {
        return Cut::Infeasible;
    };
    let left = count / 2;
    let slabs: Vec<u64> = (bx.lo[axis]..=bx.hi[axis])
        .map(|x| {
            let (mut lo, mut hi) = (bx.lo, bx.hi);
            (lo[axis], hi[axis]) = (x, x);
            box_weight(domain, lo, hi, weight)
        })
        .collect();
    let total: u64 = slabs.iter().sum();
    let target = total as u128 * left as u128 / count as u128;
    let mut s = 1u32;
    let mut prefix = slabs[0] + slabs[1];
    while s < e - 1 && (prefix as u128) < target {
        s += 1;
        prefix += slabs[s as usize];
    }
    Cut::At { axis, s, left }
}

/// The random rule: a splittable axis, a plane and a left count, drawn
/// from `rng` in that order. A side that must hold `k` blocks needs at
/// least `k` cells, and the two sides of any plane hold exactly the
/// box's cells, so a box with fewer cells than blocks is infeasible
/// before any draw. One with enough has an axis of two or more layers.
fn random_rule(rng: &mut SplitMix64, bx: &BlockBox, count: u32) -> Cut {
    let extents = bx.extents();
    // the box's cells are fewer than the domain's vertices: no overflow
    let cells = extents.iter().map(|&x| x as u64).product::<u64>();
    let count = count as u64;
    if cells < count {
        return Cut::Infeasible;
    }
    let splittable: Vec<usize> = (0..3).filter(|&a| extents[a] >= 2).collect();
    let axis = *rng.pick(&splittable);
    let e = extents[axis];
    let s = 1 + rng.below((e - 1) as u64) as u32;
    // cells per layer of the cut axis
    let layer = cells / e as u64;
    let (lcap, rcap) = (s as u64 * layer, (e - s) as u64 * layer);
    let lo = count.saturating_sub(rcap).max(1);
    let hi = (count - 1).min(lcap);
    let left = (lo + rng.below(hi - lo + 1)) as u32;
    Cut::At { axis, s, left }
}

/// Sum of `weight` (one entry per `domain` vertex) over the inclusive
/// vertex box `lo..=hi`.
fn box_weight(domain: Dims, lo: [u32; 3], hi: [u32; 3], weight: &[u64]) -> u64 {
    let mut sum = 0u64;
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                sum += weight[domain.vertex_index(x, y, z) as usize];
            }
        }
    }
    sum
}

/// A complete recursive-bisection decomposition of a vertex grid.
#[derive(Debug, Clone)]
pub struct Decomposition {
    domain: Dims,
    blocks: Vec<BlockBox>,
    tree: Vec<Node>,
    root: u32,
}

impl Decomposition {
    /// Decompose `domain` into exactly `n_blocks` blocks.
    ///
    /// Splits the longest remaining axis (ties go to z) into two parts
    /// whose cell counts are proportional to the number of blocks
    /// assigned to each side, so non-power-of-two block counts are
    /// supported. Panics where [`Decomposition::try_bisect`] returns
    /// `None`.
    pub fn bisect(domain: Dims, n_blocks: u32) -> Self {
        Self::try_bisect(domain, n_blocks).expect(TOO_MANY_BLOCKS)
    }

    /// [`Decomposition::bisect`], or `None` when the grid cannot be cut
    /// into `n_blocks` blocks: no block, or a box that must still split
    /// has fewer than two cell layers along its longest axis.
    pub fn try_bisect(domain: Dims, n_blocks: u32) -> Option<Self> {
        Self::cut(domain, n_blocks, &mut bisect_rule)
    }

    /// The decomposition the cut rule `rule` builds from the whole
    /// domain box, or `None` when it cannot cut `n_blocks` blocks.
    fn cut(domain: Dims, n_blocks: u32, rule: &mut Rule) -> Option<Self> {
        if n_blocks == 0 {
            return None;
        }
        let mut d = Decomposition {
            domain,
            blocks: Vec::new(),
            tree: Vec::new(),
            root: 0,
        };
        let full = BlockBox {
            id: u32::MAX,
            lo: [0, 0, 0],
            hi: [domain.nx - 1, domain.ny - 1, domain.nz - 1],
        };
        d.root = d.split(full, n_blocks, rule)?;
        debug_assert_eq!(d.blocks.len(), n_blocks as usize);
        Some(d)
    }

    /// Cut `bx` into `count` blocks where `rule` says, and return its
    /// tree node. Numbering is post-order: a leaf takes the next block
    /// and node id when it is reached, a split node after both children.
    fn split(&mut self, bx: BlockBox, count: u32, rule: &mut Rule) -> Option<u32> {
        if count == 1 {
            let id = self.blocks.len() as u32;
            self.blocks.push(BlockBox { id, ..bx });
            let node = self.tree.len() as u32;
            self.tree.push(Node::Leaf { block: id });
            return Some(node);
        }
        let (axis, s, left_count) = match rule(&bx, count) {
            Cut::At { axis, s, left } => (axis, s, left),
            Cut::Infeasible => return None,
        };
        let plane = bx.lo[axis] + s;
        let (mut lhs, mut rhs) = (bx, bx);
        lhs.hi[axis] = plane;
        rhs.lo[axis] = plane;
        let left = self.split(lhs, left_count, rule)?;
        let right = self.split(rhs, count - left_count, rule)?;
        let node = self.tree.len() as u32;
        self.tree.push(Node::Split {
            axis: axis as u8,
            plane,
            left,
            right,
        });
        Some(node)
    }

    /// Decompose `domain` into exactly `n_blocks` blocks, steering every
    /// split plane by a per-vertex weight field (feature density).
    ///
    /// The recursion shape matches [`Decomposition::bisect`] — longest
    /// axis, ties to z, block counts halved — but the plane is
    /// placed where the cumulative slab weight reaches the left side's
    /// share of the total, so weight-dense regions get geometrically
    /// small (and therefore many) blocks. `weight` holds one value per
    /// domain vertex in `vertex_index` order; an all-equal field
    /// reproduces plain proportional bisection. Block ids stay dense
    /// (`0..n_blocks`), and non-power-of-two counts are supported.
    /// Panics where [`Decomposition::try_adaptive`] returns `None`.
    pub fn adaptive(domain: Dims, n_blocks: u32, weight: &[u64]) -> Self {
        Self::try_adaptive(domain, n_blocks, weight).expect(TOO_MANY_BLOCKS)
    }

    /// [`Decomposition::adaptive`], or `None` when the grid cannot be cut
    /// into `n_blocks` blocks (see [`Decomposition::try_bisect`]).
    pub fn try_adaptive(domain: Dims, n_blocks: u32, weight: &[u64]) -> Option<Self> {
        assert_eq!(
            weight.len() as u64,
            domain.n_verts(),
            "weight field must have one entry per domain vertex"
        );
        Self::cut(domain, n_blocks, &mut |bx, count| {
            adaptive_rule(domain, weight, bx, count)
        })
    }

    /// Decompose `domain` into a seeded *random* axis-aligned block tree:
    /// random axis among the splittable ones, random plane, random
    /// left/right block-count split. Deterministic in `seed`; block ids
    /// stay dense. This is the adversarial generator behind the
    /// irregular-decomposition fuzz dimension — it produces skewed,
    /// non-uniform trees no density heuristic would pick. Panics where
    /// [`Decomposition::try_random_tree`] returns `None`.
    pub fn random_tree(domain: Dims, n_blocks: u32, seed: u64) -> Self {
        Self::try_random_tree(domain, n_blocks, seed).expect(TOO_MANY_BLOCKS)
    }

    /// [`Decomposition::random_tree`], or `None` past its depth bound of
    /// 48 blocks or when the grid cannot be cut into `n_blocks` blocks.
    /// A domain with a one-vertex axis has no cells to draw planes by,
    /// and gets the bisection tree.
    pub fn try_random_tree(domain: Dims, n_blocks: u32, seed: u64) -> Option<Self> {
        if n_blocks > 48 {
            return None;
        }
        if domain.nx.min(domain.ny).min(domain.nz) == 1 {
            return Self::try_bisect(domain, n_blocks);
        }
        let mut rng = SplitMix64::new(seed ^ SplitMix64::GAMMA);
        Self::cut(domain, n_blocks, &mut |bx, count| {
            random_rule(&mut rng, bx, count)
        })
    }

    /// Per-block cost estimates: the sum of `weight` over each block's
    /// vertices (shared layers counted toward every block that loads
    /// them, mirroring actual work). One entry per block id.
    pub fn block_costs(&self, weight: &[u64]) -> Vec<u64> {
        assert_eq!(
            weight.len() as u64,
            self.domain.n_verts(),
            "weight field must have one entry per domain vertex"
        );
        self.blocks
            .iter()
            .map(|b| box_weight(self.domain, b.lo, b.hi, weight))
            .collect()
    }
    /// Undirected neighbour edges: every pair of blocks whose refined
    /// boxes intersect (shared face, edge, or corner), as sorted
    /// `(lo_id, hi_id)` pairs in lexicographic order. This is the graph
    /// the generalized merge schedule contracts.
    pub fn neighbor_edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, a) in self.blocks.iter().enumerate() {
            for b in &self.blocks[i + 1..] {
                let touch = (0..3).all(|ax| a.lo[ax] <= b.hi[ax] && b.lo[ax] <= a.hi[ax]);
                if touch {
                    out.push((a.id, b.id));
                }
            }
        }
        out
    }

    pub fn domain(&self) -> Dims {
        self.domain
    }

    pub fn n_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    pub fn block(&self, id: u32) -> &BlockBox {
        &self.blocks[id as usize]
    }

    pub fn blocks(&self) -> &[BlockBox] {
        &self.blocks
    }

    /// The owner set of a global refined coordinate: sorted ids of every
    /// block whose refined box contains it. O(tree depth); at most 8 hits.
    pub fn owners(&self, c: RCoord) -> OwnerSet {
        let mut out = OwnerSet::empty();
        let mut stack = [0u32; 64];
        let mut top = 0usize;
        stack[top] = self.root;
        top += 1;
        while top > 0 {
            top -= 1;
            match &self.tree[stack[top] as usize] {
                Node::Leaf { block } => out.push(*block),
                Node::Split {
                    axis,
                    plane,
                    left,
                    right,
                } => {
                    let rp = 2 * *plane; // plane in refined coords
                    let v = c.get(*axis as usize);
                    if v <= rp {
                        stack[top] = *left;
                        top += 1;
                    }
                    if v >= rp {
                        stack[top] = *right;
                        top += 1;
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Fast path: is `c` strictly interior to block `id`'s refined box
    /// (not on its surface)? Interior coordinates always have the
    /// singleton owner set `{id}`.
    pub fn interior_to(&self, id: u32, c: RCoord) -> bool {
        let rb = self.block(id).refined_box();
        rb.contains(c) && !rb.on_surface(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(d: &Decomposition) {
        // every vertex of the domain is covered by at least one block and
        // cell layers partition: interior vertices of each block are in
        // exactly that block.
        let dom = d.domain();
        let mut covered = vec![0u32; dom.n_verts() as usize];
        for b in d.blocks() {
            for z in b.lo[2]..=b.hi[2] {
                for y in b.lo[1]..=b.hi[1] {
                    for x in b.lo[0]..=b.hi[0] {
                        covered[dom.vertex_index(x, y, z) as usize] += 1;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c >= 1), "blocks must cover domain");
        // total cell count must equal sum of block cell counts
        let dom_cells = (dom.nx as u64 - 1) * (dom.ny as u64 - 1) * (dom.nz as u64 - 1);
        let sum: u64 = d
            .blocks()
            .iter()
            .map(|b| {
                let bd = b.dims();
                (bd.nx as u64 - 1) * (bd.ny as u64 - 1) * (bd.nz as u64 - 1)
            })
            .sum();
        assert_eq!(dom_cells, sum, "cells must partition exactly");
    }

    #[test]
    fn bisect_basic_counts() {
        for n in [1u32, 2, 3, 4, 7, 8, 16, 15] {
            let d = Decomposition::bisect(Dims::new(33, 33, 33), n);
            assert_eq!(d.n_blocks(), n);
            check_cover(&d);
        }
    }

    #[test]
    fn bisect_splits_longest_axis_first() {
        let d = Decomposition::bisect(Dims::new(65, 17, 17), 2);
        let b0 = d.block(0);
        let b1 = d.block(1);
        // split must be along x (the longest axis), sharing one layer
        assert_eq!(b0.hi[0], b1.lo[0]);
        assert_eq!(b0.lo[1], b1.lo[1]);
        assert_eq!(b0.hi[2], b1.hi[2]);
        // on a cube every axis ties, and the tie goes to z
        let d = Decomposition::bisect(Dims::new(9, 9, 9), 2);
        assert_eq!((d.block(0).lo, d.block(0).hi), ([0, 0, 0], [8, 8, 4]));
        assert_eq!((d.block(1).lo, d.block(1).hi), ([0, 0, 4], [8, 8, 8]));
    }

    #[test]
    fn shared_layer_between_neighbours() {
        let d = Decomposition::bisect(Dims::new(9, 9, 9), 2);
        let (a, b) = (d.block(0), d.block(1));
        // exactly one vertex plane shared
        let shared_plane = a.hi[2].min(b.hi[2]).min(a.hi[0]); // whichever axis
        let _ = shared_plane;
        let axis = (0..3)
            .find(|&ax| a.hi[ax] == b.lo[ax])
            .expect("share an axis plane");
        assert_eq!(a.hi[axis], b.lo[axis]);
    }

    #[test]
    fn owner_sets() {
        let d = Decomposition::bisect(Dims::new(9, 9, 9), 8);
        // domain corner: single owner
        let o = d.owners(RCoord::new(0, 0, 0));
        assert_eq!(o.len(), 1);
        // centre vertex shared by all 8 blocks when cuts meet there
        let c = RCoord::of_vertex(4, 4, 4);
        let o = d.owners(c);
        assert_eq!(o.len(), 8, "centre of 2x2x2 decomposition has 8 owners");
        // owner sets are sorted
        let s = o.as_slice();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn owners_matches_brute_force() {
        let d = Decomposition::bisect(Dims::new(17, 13, 11), 6);
        let r = d.domain().refined();
        for k in (0..r.rz as u32).step_by(3) {
            for j in (0..r.ry as u32).step_by(3) {
                for i in (0..r.rx as u32).step_by(3) {
                    let c = RCoord::new(i, j, k);
                    let fast = d.owners(c);
                    let mut brute: Vec<u32> = d
                        .blocks()
                        .iter()
                        .filter(|b| b.refined_box().contains(c))
                        .map(|b| b.id)
                        .collect();
                    brute.sort_unstable();
                    assert_eq!(fast.as_slice(), brute.as_slice(), "at {:?}", c);
                }
            }
        }
    }

    #[test]
    fn interior_fast_path_agrees() {
        let d = Decomposition::bisect(Dims::new(17, 17, 17), 4);
        for b in d.blocks() {
            let rb = b.refined_box();
            for c in rb.iter() {
                if d.interior_to(b.id, c) {
                    let o = d.owners(c);
                    assert_eq!(o.as_slice(), &[b.id]);
                }
            }
        }
    }

    #[test]
    fn round_robin_assignment() {
        // the block-cyclic map: process `p` owns blocks `p, p+P, p+2P, …`
        let d = Decomposition::bisect(Dims::new(33, 33, 33), 8);
        let a = crate::Assignment::round_robin(d.n_blocks(), 3);
        assert_eq!(a.blocks_of(0), vec![0, 3, 6]);
        assert_eq!(a.blocks_of(1), vec![1, 4, 7]);
        assert_eq!(a.blocks_of(2), vec![2, 5]);
    }

    #[test]
    fn adaptive_with_flat_weights_covers_and_counts() {
        let dom = Dims::new(33, 29, 17);
        let w = vec![1u64; dom.n_verts() as usize];
        for n in [1u32, 2, 3, 5, 6, 7, 8, 12] {
            let d = Decomposition::adaptive(dom, n, &w);
            assert_eq!(d.n_blocks(), n);
            check_cover(&d);
        }
    }

    #[test]
    fn adaptive_splits_toward_weight_mass() {
        // all weight in the x < 8 slab: the first split plane must land
        // left of centre so the dense half gets the small block
        let dom = Dims::new(33, 9, 9);
        let mut w = vec![0u64; dom.n_verts() as usize];
        for z in 0..9 {
            for y in 0..9 {
                for x in 0..8 {
                    w[dom.vertex_index(x, y, z) as usize] = 100;
                }
            }
        }
        let d = Decomposition::adaptive(dom, 2, &w);
        check_cover(&d);
        let b0 = d.block(0);
        assert!(
            b0.hi[0] < 16,
            "dense region should get the smaller block, split at {}",
            b0.hi[0]
        );
        // per-block costs follow the weight field
        let costs = d.block_costs(&w);
        assert_eq!(costs.len(), 2);
        assert!(costs[0] > 0);
    }

    #[test]
    fn adaptive_flat_weights_stay_balanced() {
        // an all-equal weight field must keep block volumes close to the
        // plain bisection's (rounding may shift a plane by one layer)
        let dom = Dims::new(33, 33, 17);
        let w = vec![1u64; dom.n_verts() as usize];
        for n in [2u32, 4, 6, 8] {
            let a = Decomposition::adaptive(dom, n, &w);
            check_cover(&a);
            let cells: Vec<u64> = a
                .blocks()
                .iter()
                .map(|b| {
                    let d = b.dims();
                    (d.nx as u64 - 1) * (d.ny as u64 - 1) * (d.nz as u64 - 1)
                })
                .collect();
            let (lo, hi) = (*cells.iter().min().unwrap(), *cells.iter().max().unwrap());
            assert!(hi <= 2 * lo, "n={n}: flat weights gave skew {lo}..{hi}");
        }
    }

    #[test]
    fn random_tree_covers_deterministically() {
        let dom = Dims::new(17, 13, 11);
        for n in [1u32, 2, 3, 5, 7, 9] {
            for seed in 0..4u64 {
                let d = Decomposition::random_tree(dom, n, seed);
                assert_eq!(d.n_blocks(), n);
                check_cover(&d);
                let d2 = Decomposition::random_tree(dom, n, seed);
                let a: Vec<_> = d.blocks().iter().map(|b| (b.lo, b.hi)).collect();
                let b: Vec<_> = d2.blocks().iter().map(|b| (b.lo, b.hi)).collect();
                assert_eq!(a, b, "same seed must give the same tree");
            }
        }
    }

    #[test]
    fn random_tree_owner_sets_match_brute_force() {
        let d = Decomposition::random_tree(Dims::new(17, 13, 11), 7, 42);
        let r = d.domain().refined();
        for k in (0..r.rz as u32).step_by(3) {
            for j in (0..r.ry as u32).step_by(3) {
                for i in (0..r.rx as u32).step_by(3) {
                    let c = RCoord::new(i, j, k);
                    let fast = d.owners(c);
                    let mut brute: Vec<u32> = d
                        .blocks()
                        .iter()
                        .filter(|b| b.refined_box().contains(c))
                        .map(|b| b.id)
                        .collect();
                    brute.sort_unstable();
                    assert_eq!(fast.as_slice(), brute.as_slice(), "at {:?}", c);
                }
            }
        }
    }

    #[test]
    fn random_trees_on_a_large_domain_do_not_overflow() {
        // 2048³ = 2³³ cells: the two sides of a cut hold more cells
        // between them than a `u32` counts
        let dom = Dims::new(2049, 2049, 2049);
        for seed in 0..8 {
            let d = Decomposition::try_random_tree(dom, 2, seed).expect("two blocks fit");
            let (a, b) = (d.block(0), d.block(1));
            assert_eq!((a.lo, b.hi), ([0; 3], [2048; 3]), "seed {seed}");
            // one shared plane on one axis, both blocks spanning the others
            let axis = (0..3).find(|&ax| a.hi[ax] < 2048).expect("a cut axis");
            let (mut hi, mut lo) = ([2048; 3], [0; 3]);
            (hi[axis], lo[axis]) = (a.hi[axis], a.hi[axis]);
            assert_eq!((a.hi, b.lo), (hi, lo), "seed {seed}");
            assert!(a.hi[axis] > 0, "seed {seed}");
        }
    }

    #[test]
    fn neighbor_edges_match_box_intersection() {
        let d = Decomposition::bisect(Dims::new(17, 17, 17), 8);
        let edges = d.neighbor_edges();
        // 2x2x2: every pair of blocks touches at least at the centre
        assert_eq!(edges.len(), 28, "all 8C2 pairs meet at the centre layer");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "sorted lexicographic"
        );
        let d = Decomposition::random_tree(Dims::new(17, 13, 11), 6, 3);
        for (a, b) in d.neighbor_edges() {
            assert!(a < b);
            let (ba, bb) = (d.block(a), d.block(b));
            assert!((0..3).all(|ax| ba.lo[ax] <= bb.hi[ax] && bb.lo[ax] <= ba.hi[ax]));
        }
    }

    /// FNV-1a-64, fed incrementally (as in `msp-morse`'s pinned bytes).
    struct Fnv(u64);

    impl Fnv {
        fn u64(&mut self, v: u64) {
            for byte in v.to_le_bytes() {
                self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        /// A decomposition's block boxes and the owner sets of a sparse
        /// sample of refined coordinates, or a marker for `None`.
        fn decomposition(&mut self, d: Option<&Decomposition>) {
            let Some(d) = d else {
                self.u64(u64::MAX);
                return;
            };
            self.u64(d.n_blocks() as u64);
            for b in d.blocks() {
                for v in [b.id].iter().chain(&b.lo).chain(&b.hi) {
                    self.u64(*v as u64);
                }
            }
            let r = d.domain().refined();
            for k in (0..r.rz as u32).step_by(5) {
                for j in (0..r.ry as u32).step_by(5) {
                    for i in (0..r.rx as u32).step_by(5) {
                        let o = d.owners(RCoord::new(i, j, k));
                        self.u64(o.len() as u64);
                        for &id in o.as_slice() {
                            self.u64(id as u64);
                        }
                    }
                }
            }
        }
    }

    /// Every tree the three splitters build on small domains, 1..=48
    /// blocks: the boxes, `block_costs` of the adaptive trees, sampled
    /// owner sets, and which requests are refused. Captured before the
    /// three recursions became one; a change here moves every block
    /// boundary, and with it every artifact.
    #[test]
    fn decompositions_are_pinned() {
        let domains = [
            Dims::new(9, 9, 9),
            Dims::new(17, 13, 11),
            Dims::new(33, 9, 5),
            Dims::new(5, 21, 7),
            Dims::new(3, 3, 40),
            Dims::new(2, 12, 12),
            Dims::new(4, 4, 4),
            Dims::new(3, 5, 9),
            Dims::new(2, 3, 30),
            Dims::new(1, 9, 13),
            Dims::new(6, 1, 5),
        ];
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut state = 7u64;
        for dom in domains {
            let weight: Vec<u64> = (0..dom.n_verts())
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 59) * (state >> 62)
                })
                .collect();
            for n in 1..=48u32 {
                h.decomposition(Decomposition::try_bisect(dom, n).as_ref());
                let a = Decomposition::try_adaptive(dom, n, &weight);
                h.decomposition(a.as_ref());
                for c in a.map(|a| a.block_costs(&weight)).unwrap_or_default() {
                    h.u64(c);
                }
                for seed in 0..5 {
                    h.decomposition(Decomposition::try_random_tree(dom, n, seed).as_ref());
                }
            }
        }
        assert_eq!(
            h.0, 0x3f07_a2a5_894f_2697,
            "decomposition pin moved: {:#018x}",
            h.0
        );
    }

    #[test]
    #[should_panic]
    fn too_many_blocks_panics() {
        // 2x2x2 grid has 1 cell: cannot split into 2 blocks
        assert!(Decomposition::try_bisect(Dims::new(2, 2, 2), 2).is_none());
        let _ = Decomposition::bisect(Dims::new(2, 2, 2), 2);
    }
}
