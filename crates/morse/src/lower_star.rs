//! Stratified lower-star discrete gradient assignment.
//!
//! Every cell of the cubical complex belongs to the *lower star* of
//! exactly one vertex: the maximal vertex (under the simulation-of-
//! simplicity order) of its vertex set. Lower stars are therefore
//! processed independently — this is the property the paper relies on
//! when it calls the gradient computation embarrassingly parallel.
//!
//! Within one lower star we run homotopy expansion (two priority queues,
//! as in Robins-Wood-Sheppard): repeatedly pair a cell that has exactly
//! one unassigned facet in the lower star with that facet, preferring
//! cells of smallest SoS key (steepest descent); when no pairing is
//! possible, the smallest remaining cell becomes critical.
//!
//! **Boundary restriction** (paper §IV-C): a pair `(α, β)` is only legal
//! when `owners(α) == owners(β)` — both cells lie on the boundaries of
//! exactly the same blocks. We implement this by *stratifying* each lower
//! star into owner-set groups and running the expansion independently per
//! group. Facet counts never cross groups, so the gradient restricted to
//! a shared block face is computed purely from data on that face — which
//! both adjacent blocks hold identically — making boundary gradients
//! bitwise equal across blocks (see `validate::boundary_consistent`).

use crate::flat::{ordered_keys_into, FlatSweep};
use crate::gradient::GradientField;
use crate::kernel::{active_kernel, Kernel, KernelStats};
use crate::pool::{self, Pool};
use msp_grid::decomp::{Decomposition, OwnerSet};
use msp_grid::field::{BlockField, CellKey};
use msp_grid::topology::RBox;
use msp_grid::RCoord;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One cell of the lower star currently being processed.
#[derive(Clone, Copy)]
struct Entry {
    c: RCoord,
    key: CellKey,
    group: u8,
    assigned: bool,
}

/// Scratch state reused across lower stars to avoid per-vertex
/// allocation. One `Scratch` lives per sweeping thread; the heaps are
/// `clear()`ed (capacity kept) between lower stars and owner-set groups
/// only ever append, so after warm-up no sweep allocates at all.
struct Scratch {
    entries: Vec<Entry>,
    groups: Vec<OwnerSet>,
    pq_one: BinaryHeap<Reverse<(CellKey, u8)>>,
    pq_zero: BinaryHeap<Reverse<(CellKey, u8)>>,
}

impl Scratch {
    /// Pre-size from the block's refined box: a lower star has at most
    /// 3 cells per non-degenerate axis (27 in 3D, 9 in a 2D slab), and
    /// the expansion re-pushes cells whose facet count changes, so the
    /// heaps get twice that — large enough that they never reallocate.
    fn for_box(bbox: &RBox) -> Self {
        let star: usize = (0..3)
            .map(|a| if bbox.extent(a) > 1 { 3 } else { 1 })
            .product();
        Scratch {
            entries: Vec::with_capacity(star),
            groups: Vec::with_capacity(8),
            pq_one: BinaryHeap::with_capacity(2 * star),
            pq_zero: BinaryHeap::with_capacity(2 * star),
        }
    }
}

/// Compute the discrete gradient of one block, restricted so that shared
/// block faces are assigned identically in all owning blocks. Serial, on
/// the production kernel.
pub fn assign_gradient(field: &BlockField, decomp: &Decomposition) -> GradientField {
    assign_gradient_kernel(field, decomp, 1, active_kernel()).0
}

/// [`assign_gradient`] with explicit thread count and kernel choice,
/// returning the allocation/throughput stats the telemetry layer feeds
/// into `kernel_cells` / `scratch_reuse` / `kernel_allocs`. All other
/// gradient entry points are thin wrappers over this one; benches call
/// it directly to compare both kernels in one process.
pub fn assign_gradient_kernel(
    field: &BlockField,
    decomp: &Decomposition,
    threads: usize,
    kernel: Kernel,
) -> (GradientField, KernelStats) {
    assign_gradient_pooled(field, decomp, threads, kernel, &pool::GLOBAL)
}

/// [`assign_gradient_kernel`] drawing its scratch buffers from `pool`.
fn assign_gradient_pooled(
    field: &BlockField,
    decomp: &Decomposition,
    threads: usize,
    kernel: Kernel,
    pool: &Pool,
) -> (GradientField, KernelStats) {
    let mut stats = KernelStats::default();
    let grad = match kernel {
        Kernel::Flat => {
            let (mut ord, reused) = pool.take_u32(field.data().len());
            stats.tally(reused);
            ordered_keys_into(field, &mut ord);
            let sweep = FlatSweep::new(field, decomp, &ord);
            let g = run_slabs(field, threads, pool, &mut stats, |z0, z1, grad| {
                sweep.sweep_z_range(z0, z1, grad)
            });
            pool.put_u32(ord);
            g
        }
        Kernel::Heap => {
            let bbox = field.block().refined_box();
            run_slabs(field, threads, pool, &mut stats, |z0, z1, grad| {
                let mut scratch = Scratch::for_box(&bbox);
                sweep_z_range(field, decomp, &bbox, z0, z1, grad, &mut scratch);
            })
        }
    };
    stats.cells = grad.bbox().len();
    debug_assert_eq!(grad.n_unassigned(), 0, "all cells must be assigned");
    (grad, stats)
}

/// Shared slab driver: split the vertex sweep into contiguous z-slabs,
/// run `sweep` per slab (serial inline when one slab suffices), and
/// merge slab outputs in slab order. Slab scratch buffers come from
/// `pool` (`crate::pool`) so repeated runs stop paying a fresh zeroed
/// allocation per slab, and the merge uses the contiguous-copy fast path
/// of [`GradientField::absorb_slab`].
fn run_slabs<F>(
    field: &BlockField,
    threads: usize,
    pool: &Pool,
    stats: &mut KernelStats,
    sweep: F,
) -> GradientField
where
    F: Fn(u32, u32, &mut GradientField) + Sync,
{
    let block = *field.block();
    let bbox = block.refined_box();
    let n_rows = (block.hi[2] - block.lo[2] + 1) as usize;
    let slabs = threads.min(n_rows);
    if slabs <= 1 {
        // the result lives on past this call, so it gets a fresh buffer;
        // only slab-local scratch below is pooled
        let mut grad = GradientField::new(bbox);
        sweep(block.lo[2], block.hi[2], &mut grad);
        return grad;
    }
    // contiguous, near-equal z ranges (global vertex coordinates)
    let base = n_rows / slabs;
    let rem = n_rows % slabs;
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(slabs);
    let mut z = block.lo[2];
    for s in 0..slabs {
        let rows = (base + usize::from(s < rem)) as u32;
        ranges.push((z, z + rows - 1));
        z += rows;
    }
    let subgrads = msp_grid::par::par_map(slabs, &ranges, |_, &(z0, z1)| {
        let sub_box = RBox::new(
            RCoord::new(
                bbox.lo.x,
                bbox.lo.y,
                (2 * z0).saturating_sub(1).max(bbox.lo.z),
            ),
            RCoord::new(bbox.hi.x, bbox.hi.y, (2 * z1 + 1).min(bbox.hi.z)),
        );
        let (buf, reused) = pool.take_u8(sub_box.len() as usize);
        let mut g = GradientField::with_buffer(sub_box, buf);
        sweep(z0, z1, &mut g);
        (g, reused)
    });
    let mut grad = GradientField::new(bbox);
    for ((sg, reused), &(z0, z1)) in subgrads.into_iter().zip(&ranges) {
        stats.tally(reused);
        grad.absorb_slab(&sg, 2 * z0, 2 * z1);
        pool.put_u8(sg.into_bytes());
    }
    grad
}

/// Run the lower-star sweep for every vertex with z ∈ `[z0, z1]` (global
/// vertex coordinates), writing into `grad` — which may cover just the
/// slab's refined sub-box. Shared by the serial path (full range, full
/// box) and the per-thread slabs of [`assign_gradient_par`].
fn sweep_z_range(
    field: &BlockField,
    decomp: &Decomposition,
    bbox: &RBox,
    z0: u32,
    z1: u32,
    grad: &mut GradientField,
    scratch: &mut Scratch,
) {
    let block = field.block();
    for z in z0..=z1 {
        for y in block.lo[1]..=block.hi[1] {
            for x in block.lo[0]..=block.hi[0] {
                process_lower_star(
                    field,
                    decomp,
                    bbox,
                    RCoord::of_vertex(x, y, z),
                    grad,
                    scratch,
                );
            }
        }
    }
}

/// [`assign_gradient`] parallelized over contiguous z-slabs of the
/// vertex sweep, bit-identical to the serial path for every thread count.
///
/// Every cell belongs to the lower star of exactly one vertex (its
/// SoS-maximal one), and processing a lower star reads only the field —
/// never other cells' gradient bytes — so distinct vertices' writes are
/// disjoint and scheduling-independent. Each slab thread writes into its
/// own [`GradientField`] over the slab's clamped refined box (a vertex at
/// z touches refined z ∈ [2z−1, 2z+1], so adjacent slab boxes overlap in
/// exactly one refined plane whose cells are split between the two
/// slabs' lower stars); the slab fields are then merged in slab order.
/// Determinism therefore needs no locks, no atomics and no unsafe.
pub fn assign_gradient_par(
    field: &BlockField,
    decomp: &Decomposition,
    threads: usize,
) -> GradientField {
    assign_gradient_kernel(field, decomp, threads, active_kernel()).0
}

/// True if `f` is a facet of `c` (both containing the same vertex): they
/// differ by exactly 1 on exactly one axis, where `c` is odd.
#[inline]
fn is_facet_of(f: RCoord, c: RCoord) -> bool {
    let mut diff_axis = None;
    for a in 0..3 {
        let (x, y) = (f.get(a), c.get(a));
        if x != y {
            if diff_axis.is_some() || (x as i64 - y as i64).abs() != 1 {
                return false;
            }
            diff_axis = Some(a);
        }
    }
    match diff_axis {
        Some(a) => c.get(a) % 2 == 1,
        None => false,
    }
}

fn process_lower_star(
    field: &BlockField,
    decomp: &Decomposition,
    bbox: &RBox,
    rv: RCoord,
    grad: &mut GradientField,
    s: &mut Scratch,
) {
    let vkey = field.vertex_key(rv);
    s.entries.clear();
    s.groups.clear();
    s.pq_one.clear();
    s.pq_zero.clear();

    // Fast path: a vertex at refined distance >= 2 from every block-box
    // face has a star entirely interior to the block, hence a single
    // owner group. (Shared cells are always on the block surface.)
    let interior =
        (0..3).all(|a| rv.get(a) >= bbox.lo.get(a) + 2 && rv.get(a) + 2 <= bbox.hi.get(a));
    let block_id = field.block().id;

    // Collect the lower star: star cells (within the block box) whose
    // maximal vertex is rv.
    for dz in -1i32..=1 {
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                let (cx, cy, cz) = (
                    rv.x as i64 + dx as i64,
                    rv.y as i64 + dy as i64,
                    rv.z as i64 + dz as i64,
                );
                if cx < 0 || cy < 0 || cz < 0 {
                    continue;
                }
                let c = RCoord::new(cx as u32, cy as u32, cz as u32);
                if !bbox.contains(c) {
                    continue;
                }
                let key = field.cell_key(c);
                if key.max_vertex() != vkey {
                    continue; // not in the lower star of rv
                }
                let owners = if interior || decomp.interior_to(block_id, c) {
                    // singleton owner set {block}
                    let mut o = OwnerSet::empty();
                    o.push(block_id);
                    o
                } else {
                    decomp.owners(c)
                };
                let group = match s.groups.iter().position(|g| *g == owners) {
                    Some(i) => i as u8,
                    None => {
                        s.groups.push(owners);
                        (s.groups.len() - 1) as u8
                    }
                };
                s.entries.push(Entry {
                    c,
                    key,
                    group,
                    assigned: false,
                });
            }
        }
    }

    // Seed the queues by initial unassigned-facet count.
    for i in 0..s.entries.len() {
        let cnt = count_unassigned_facets(&s.entries, i);
        let e = &s.entries[i];
        if cnt == 1 {
            s.pq_one.push(Reverse((e.key, i as u8)));
        } else {
            s.pq_zero.push(Reverse((e.key, i as u8)));
        }
    }

    // Homotopy expansion, steepest (smallest key) first.
    loop {
        if let Some(Reverse((_, i))) = s.pq_one.pop() {
            let i = i as usize;
            if s.entries[i].assigned {
                continue;
            }
            let cnt = count_unassigned_facets(&s.entries, i);
            debug_assert!(cnt <= 1, "facet counts only decrease");
            if cnt == 0 {
                let e = &s.entries[i];
                s.pq_zero.push(Reverse((e.key, i as u8)));
                continue;
            }
            let j = unique_unassigned_facet(&s.entries, i);
            grad.pair(s.entries[j].c, s.entries[i].c);
            s.entries[i].assigned = true;
            s.entries[j].assigned = true;
            notify_cofacets(s, i);
            notify_cofacets(s, j);
            continue;
        }
        if let Some(Reverse((_, i))) = s.pq_zero.pop() {
            let i = i as usize;
            if s.entries[i].assigned {
                continue;
            }
            let cnt = count_unassigned_facets(&s.entries, i);
            if cnt == 1 {
                let e = &s.entries[i];
                s.pq_one.push(Reverse((e.key, i as u8)));
                continue;
            }
            debug_assert_eq!(
                cnt, 0,
                "a popped zero-queue cell must have no unassigned facets"
            );
            grad.mark_critical(s.entries[i].c);
            s.entries[i].assigned = true;
            notify_cofacets(s, i);
            continue;
        }
        break;
    }
    debug_assert!(s.entries.iter().all(|e| e.assigned));
}

/// Count unassigned facets of entry `i` within the lower star and the
/// same owner group.
fn count_unassigned_facets(entries: &[Entry], i: usize) -> usize {
    let e = entries[i];
    entries
        .iter()
        .filter(|f| !f.assigned && f.group == e.group && is_facet_of(f.c, e.c))
        .count()
}

/// Index of the unique unassigned same-group facet of entry `i`.
fn unique_unassigned_facet(entries: &[Entry], i: usize) -> usize {
    let e = entries[i];
    entries
        .iter()
        .position(|f| !f.assigned && f.group == e.group && is_facet_of(f.c, e.c))
        .expect("caller checked count == 1")
}

/// After entry `i` was assigned, push its still-unassigned same-group
/// cofacets whose unassigned-facet count just reached one.
fn notify_cofacets(s: &mut Scratch, i: usize) {
    let e = s.entries[i];
    for k in 0..s.entries.len() {
        let g = s.entries[k];
        if g.assigned || g.group != e.group || !is_facet_of(e.c, g.c) {
            continue;
        }
        if count_unassigned_facets(&s.entries, k) == 1 {
            s.pq_one.push(Reverse((g.key, k as u8)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::{Dims, ScalarField};

    fn serial_grad(f: &ScalarField) -> GradientField {
        let d = Decomposition::bisect(f.dims(), 1);
        let bf = f.extract_block(d.block(0));
        assign_gradient(&bf, &d)
    }

    #[test]
    fn ramp_has_single_min_and_max() {
        // strictly monotone field on a box: one minimum (index 0) and
        // nothing else of positive persistence; discrete construction
        // gives exactly one critical cell: the global min vertex.
        let f = ScalarField::from_fn(Dims::new(5, 5, 5), |x, y, z| (x + 5 * y + 25 * z) as f32);
        let g = serial_grad(&f);
        let census = g.census();
        assert_eq!(census[0], 1, "exactly one minimum, got {:?}", census);
        // Euler characteristic of a ball: c0 - c1 + c2 - c3 = 1
        let chi = census[0] as i64 - census[1] as i64 + census[2] as i64 - census[3] as i64;
        assert_eq!(chi, 1);
    }

    #[test]
    fn constant_field_resolved_by_sos() {
        let f = ScalarField::from_fn(Dims::new(4, 4, 4), |_, _, _| 1.0);
        let g = serial_grad(&f);
        let census = g.census();
        let chi = census[0] as i64 - census[1] as i64 + census[2] as i64 - census[3] as i64;
        assert_eq!(chi, 1, "plateau must still satisfy chi = 1: {:?}", census);
        // SoS should produce a *minimal* number of critical cells here:
        // one vertex (the SoS-smallest corner) and nothing else.
        assert_eq!(census, [1, 0, 0, 0], "SoS should fully collapse a plateau");
    }

    #[test]
    fn single_bump_critical_points() {
        // one Gaussian bump: one max in the interior; minima forced to the
        // boundary of the box
        let dims = Dims::new(9, 9, 9);
        let f = ScalarField::from_fn(dims, |x, y, z| {
            let d2 = (x as f32 - 4.0).powi(2) + (y as f32 - 4.0).powi(2) + (z as f32 - 4.0).powi(2);
            (-d2 / 8.0).exp()
        });
        let g = serial_grad(&f);
        let census = g.census();
        assert_eq!(census[3], 1, "exactly one maximum (voxel): {:?}", census);
        let chi = census[0] as i64 - census[1] as i64 + census[2] as i64 - census[3] as i64;
        assert_eq!(chi, 1);
    }

    #[test]
    fn every_cell_assigned_exactly_once() {
        let f = msp_synth::white_noise(Dims::new(7, 6, 5), 99);
        let g = serial_grad(&f);
        assert_eq!(g.n_unassigned(), 0);
        // partner symmetry
        for c in g.bbox().iter() {
            if let Some(p) = g.partner(c) {
                assert_eq!(g.partner(p), Some(c), "pairing must be mutual at {:?}", c);
                assert!(g.is_tail(c) != g.is_tail(p), "one tail, one head");
            } else {
                assert!(g.is_critical(c));
            }
        }
    }

    #[test]
    fn pairs_respect_owner_restriction() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 7);
        let d = Decomposition::bisect(dims, 4);
        for b in d.blocks() {
            let bf = f.extract_block(b);
            let g = assign_gradient(&bf, &d);
            for c in g.bbox().iter() {
                if let Some(p) = g.partner(c) {
                    assert_eq!(
                        d.owners(c).as_slice(),
                        d.owners(p).as_slice(),
                        "pair {:?} <-> {:?} must have equal owner sets",
                        c,
                        p
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_gradient_bitwise_equals_serial() {
        // every thread count, every block of a multi-block decomposition:
        // the slab-parallel sweep must produce byte-identical gradients
        let dims = Dims::new(9, 8, 7);
        let f = msp_synth::white_noise(dims, 4242);
        let d = Decomposition::bisect(dims, 4);
        for b in d.blocks() {
            let bf = f.extract_block(b);
            let serial = assign_gradient(&bf, &d);
            for threads in [1, 2, 3, 4, 16] {
                let par = assign_gradient_par(&bf, &d, threads);
                assert_eq!(
                    par.bytes(),
                    serial.bytes(),
                    "block {} threads {} diverged from serial",
                    b.id,
                    threads
                );
            }
        }
    }

    #[test]
    fn parallel_gradient_handles_thin_blocks() {
        // z extent of 1 vertex row: the slab split must degenerate to the
        // serial path instead of producing empty ranges
        let dims = Dims::new(6, 5, 1);
        let f = msp_synth::white_noise(dims, 11);
        let d = Decomposition::bisect(dims, 1);
        let bf = f.extract_block(d.block(0));
        let serial = assign_gradient(&bf, &d);
        let par = assign_gradient_par(&bf, &d, 8);
        assert_eq!(par.bytes(), serial.bytes());
    }

    #[test]
    fn flat_kernel_bitwise_equals_heap() {
        // the tentpole contract: the flat SoA kernel reproduces the
        // two-heap reference byte for byte — noise, plateau-heavy and
        // smooth fields, multi-block, every slab split
        let dims = Dims::new(9, 8, 7);
        let fields = [
            msp_synth::white_noise(dims, 173),
            ScalarField::from_fn(dims, |x, y, z| ((x / 3 + y / 2 + z / 3) % 3) as f32),
            ScalarField::from_fn(dims, |x, y, z| {
                (x as f32 * 0.7).sin() + (y as f32 * 0.5).cos() + (z as f32 * 0.9).sin()
            }),
        ];
        for (fi, f) in fields.iter().enumerate() {
            let d = Decomposition::bisect(dims, 4);
            for b in d.blocks() {
                let bf = f.extract_block(b);
                let (heap, _) = assign_gradient_kernel(&bf, &d, 1, Kernel::Heap);
                for threads in [1, 2, 3, 8] {
                    let (flat, stats) = assign_gradient_kernel(&bf, &d, threads, Kernel::Flat);
                    assert_eq!(
                        flat.bytes(),
                        heap.bytes(),
                        "field {fi} block {} threads {threads}: flat != heap",
                        b.id
                    );
                    assert_eq!(stats.cells, heap.bbox().len());
                }
            }
        }
    }

    #[test]
    fn flat_kernel_bitwise_equals_heap_on_irregular_trees() {
        // bisect() never makes a T-junction; random and weight-steered
        // trees do, which is where "one owner walk per boundary vertex"
        // could diverge from the heap's walk per cell. Plateaus force
        // the equal-word tie-break on top.
        let dims = Dims::new(12, 10, 11);
        let fields = [
            msp_synth::white_noise(dims, 61),
            msp_synth::plateau(dims, 62, 3),
        ];
        for (fi, f) in fields.iter().enumerate() {
            let weights: Vec<u64> = f.data().iter().map(|v| 1 + (v * 40.0) as u64).collect();
            let mut decomps: Vec<Decomposition> = (2..12)
                .map(|n| Decomposition::random_tree(dims, n, 100 * fi as u64 + n as u64))
                .collect();
            decomps.extend([3, 6, 9].map(|n| Decomposition::adaptive(dims, n, &weights)));
            for (di, d) in decomps.iter().enumerate() {
                for b in d.blocks() {
                    let bf = f.extract_block(b);
                    let (heap, _) = assign_gradient_kernel(&bf, d, 1, Kernel::Heap);
                    for threads in [1, 3] {
                        let (flat, _) = assign_gradient_kernel(&bf, d, threads, Kernel::Flat);
                        assert_eq!(
                            flat.bytes(),
                            heap.bytes(),
                            "field {fi} decomposition {di} block {} threads {threads}",
                            b.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flat_kernel_handles_degenerate_extents() {
        // 2D slab (z extent 1) and a thin column: clip masks must kill
        // the degenerate axes identically to the heap's bbox checks
        for dims in [Dims::new(6, 5, 1), Dims::new(2, 7, 6)] {
            let f = msp_synth::white_noise(dims, 31);
            let d = Decomposition::bisect(dims, 1);
            let bf = f.extract_block(d.block(0));
            let (heap, _) = assign_gradient_kernel(&bf, &d, 1, Kernel::Heap);
            for threads in [1, 4] {
                let (flat, _) = assign_gradient_kernel(&bf, &d, threads, Kernel::Flat);
                assert_eq!(flat.bytes(), heap.bytes(), "dims {dims:?}");
            }
        }
    }

    #[test]
    fn kernel_stats_report_pool_reuse() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 55);
        let d = Decomposition::bisect(dims, 1);
        let bf = f.extract_block(d.block(0));
        // A pool of the test's own: nothing else takes or returns a
        // buffer between the warm-up and the assertion. The four slabs
        // differ in size and each takes whichever buffer is on top, so a
        // warm run can still have to grow one; every such run promotes a
        // buffer to a larger slab's size for good, which can happen four
        // times here (6, 5, 5, 4 layers), so the fifth run at the latest
        // is all reuse.
        let pool = Pool::new();
        let _ = assign_gradient_pooled(&bf, &d, 4, Kernel::Flat, &pool);
        let warm = (0..5).any(|_| {
            let (_, stats) = assign_gradient_pooled(&bf, &d, 4, Kernel::Flat, &pool);
            // 4 slab byte buffers + 1 ordered-key buffer per run
            assert_eq!(stats.scratch_reuse + stats.kernel_allocs, 5, "{stats:?}");
            stats.kernel_allocs == 0
        });
        assert!(warm, "no run reached steady-state pool reuse");
    }

    #[test]
    fn boundary_gradient_identical_across_blocks() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 21);
        let d = Decomposition::bisect(dims, 8);
        let grads: Vec<GradientField> = d
            .blocks()
            .iter()
            .map(|b| assign_gradient(&f.extract_block(b), &d))
            .collect();
        for a in 0..grads.len() {
            for b in (a + 1)..grads.len() {
                let (ga, gb) = (&grads[a], &grads[b]);
                for c in ga.bbox().iter() {
                    if gb.bbox().contains(c) {
                        assert_eq!(
                            ga.raw(c),
                            gb.raw(c),
                            "shared cell {:?} must carry identical gradient bytes",
                            c
                        );
                    }
                }
            }
        }
    }
}
