//! Stratified lower-star discrete gradient assignment.
//!
//! Every cell of the cubical complex belongs to the *lower star* of
//! exactly one vertex: the maximal vertex (under the simulation-of-
//! simplicity order) of its vertex set. Lower stars are therefore
//! processed independently — this is the property the paper relies on
//! when it calls the gradient computation embarrassingly parallel.
//!
//! Within one lower star we run homotopy expansion (Robins-Wood-Sheppard):
//! repeatedly pair the cell of smallest SoS key that has exactly one
//! unassigned facet in the lower star with that facet (steepest
//! descent); when no pairing is possible, the smallest remaining cell
//! becomes critical. The flat kernel in `crate::flat` applies that rule
//! to each lower star as a 27-bit set; this module sweeps it over
//! z-slabs.
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
use crate::kernel::{Kernel, KernelStats};
use crate::pool::{self, Pool};
use msp_grid::decomp::Decomposition;
use msp_grid::field::BlockField;
use msp_grid::topology::RBox;
use msp_grid::RCoord;

/// Compute the discrete gradient of one block, restricted so that shared
/// block faces are assigned identically in all owning blocks. Serial.
pub fn assign_gradient(field: &BlockField, decomp: &Decomposition) -> GradientField {
    assign_gradient_pooled(field, decomp, 1, &pool::GLOBAL).0
}

/// [`assign_gradient_par`], also returning the allocation/throughput
/// stats the telemetry layer feeds into `kernel_cells` /
/// `scratch_reuse` / `kernel_allocs`. The [`Kernel`] argument selects
/// nothing (see its docs).
pub fn assign_gradient_kernel(
    field: &BlockField,
    decomp: &Decomposition,
    threads: usize,
    _kernel: Kernel,
) -> (GradientField, KernelStats) {
    assign_gradient_pooled(field, decomp, threads, &pool::GLOBAL)
}

/// The gradient swept on up to `threads` slabs, drawing its scratch
/// buffers from `pool`.
fn assign_gradient_pooled(
    field: &BlockField,
    decomp: &Decomposition,
    threads: usize,
    pool: &Pool,
) -> (GradientField, KernelStats) {
    let mut stats = KernelStats::default();
    let (mut ord, reused) = pool.take_u32(field.data().len());
    stats.tally(reused);
    ordered_keys_into(field, &mut ord);
    let sweep = FlatSweep::new(field, decomp, &ord);
    let grad = run_slabs(field, threads, pool, &mut stats, |z0, z1, grad| {
        sweep.sweep_z_range(z0, z1, grad)
    });
    pool.put_u32(ord);
    stats.cells = grad.bbox().len();
    debug_assert_eq!(grad.n_unassigned(), 0, "all cells must be assigned");
    (grad, stats)
}

/// Slab driver: split the vertex sweep into contiguous z-slabs,
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
    assign_gradient_pooled(field, decomp, threads, &pool::GLOBAL).0
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
        let _ = assign_gradient_pooled(&bf, &d, 4, &pool);
        let warm = (0..5).any(|_| {
            let (_, stats) = assign_gradient_pooled(&bf, &d, 4, &pool);
            // 4 slab byte buffers + 1 ordered-key buffer per run
            assert_eq!(stats.scratch_reuse + stats.kernel_allocs, 5, "{stats:?}");
            assert_eq!(stats.cells, bf.block().refined_box().len());
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
