//! V-path tracing: extracting the arcs of the MS complex 1-skeleton from
//! a discrete gradient field (paper §IV-D).
//!
//! "The finest-scale MS complex is computed by tracing V-paths in the
//! discrete gradient field from critical cells. … V-paths are traced
//! downwards from each node, and an arc is added to the MS complex for
//! every path terminating at a critical cell. The list of cells in the
//! V-path forms the geometric embedding of the arc."
//!
//! Paths are guaranteed to terminate inside the block because the
//! boundary restriction prevents gradient arrows from crossing block
//! faces outward. Tracing branches (a descending path may split at every
//! head cell), so one critical cell can produce many arcs, including
//! multiple arcs to the *same* destination — the multiplicity matters for
//! cancellation legality and is preserved.
//!
//! Two tracers exist behind the [`Kernel`](crate::Kernel) switch. The
//! original coordinate-at-a-time DFS (`trace_from`) recomputes a strided
//! byte index and re-derives facet coordinates for every step; the flat
//! tracer ([`trace_all_arcs_kernel`] with `Kernel::Flat`, the default)
//! walks the same DFS over **linear byte indices** — facet neighbors are
//! `± stride` hops, cell state is one pooled byte read — and batches the
//! address-ordered critical list into contiguous chunks traced on
//! separate threads into per-chunk [`ArcStore`] arenas that are
//! concatenated in chunk order, making the emitted arc sequence (and
//! therefore the stores' bytes) identical to the serial trace for every
//! thread count.

use crate::gradient::{GradientField, CRITICAL, DIR_MASK, PAIRED, TAIL};
use crate::kernel::{active_kernel, Kernel};
use msp_grid::RCoord;

/// One traced arc: from a critical `upper` cell of index `d` down to a
/// critical `lower` cell of index `d − 1`, with the full V-path as its
/// geometric embedding (`geom[0] == upper`, `geom.last() == lower`).
/// A borrowed view into an [`ArcStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedArc<'a> {
    pub upper: RCoord,
    pub lower: RCoord,
    pub geom: &'a [RCoord],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ArcRec {
    upper: RCoord,
    lower: RCoord,
    start: u32,
    len: u32,
}

/// Arena-backed storage for traced arcs: all path geometry lives in one
/// shared `Vec<RCoord>`, each arc holding only a `(start, len)` window.
/// A noise block traces tens of thousands of short paths; storing each as
/// its own `Vec` made allocation the dominant cost of the trace phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArcStore {
    recs: Vec<ArcRec>,
    geom: Vec<RCoord>,
}

impl ArcStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The arc at index `i` as a borrowed view.
    pub fn get(&self, i: usize) -> TracedArc<'_> {
        let r = self.recs[i];
        TracedArc {
            upper: r.upper,
            lower: r.lower,
            geom: &self.geom[r.start as usize..(r.start + r.len) as usize],
        }
    }

    /// Iterate arcs in emission order.
    pub fn iter(&self) -> impl Iterator<Item = TracedArc<'_>> {
        (0..self.recs.len()).map(move |i| self.get(i))
    }

    /// Append one arc, copying `path` into the arena.
    pub fn push(&mut self, upper: RCoord, lower: RCoord, path: &[RCoord]) {
        let start = u32::try_from(self.geom.len()).expect("arc arena exceeds u32 addressing");
        self.geom.extend_from_slice(path);
        self.recs.push(ArcRec {
            upper,
            lower,
            start,
            len: path.len() as u32,
        });
    }

    /// Concatenate another store onto this one, preserving both emission
    /// orders: `other`'s arcs follow this store's, with their arena
    /// windows shifted past this arena. Appending per-chunk stores in
    /// chunk order therefore reproduces exactly the store a single
    /// serial trace over the concatenated input would have built.
    pub fn append(&mut self, mut other: ArcStore) {
        let shift = u32::try_from(self.geom.len() + other.geom.len())
            .map(|_| self.geom.len() as u32)
            .expect("arc arena exceeds u32 addressing");
        self.geom.append(&mut other.geom);
        self.recs.extend(other.recs.into_iter().map(|mut r| {
            r.start += shift;
            r
        }));
    }
}

/// Safety limits for tracing (pathological fields can have very many
/// paths; real data does not come close).
#[derive(Debug, Clone, Copy)]
pub struct TraceLimits {
    /// Maximum number of arcs emitted per critical cell.
    pub max_paths_per_node: usize,
}

impl Default for TraceLimits {
    fn default() -> Self {
        TraceLimits {
            max_paths_per_node: 1_000_000,
        }
    }
}

/// Counters reported by a tracing pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStats {
    pub arcs: u64,
    pub truncated_nodes: u64,
    pub path_cells_total: u64,
}

/// Trace every descending V-path from every critical cell of positive
/// index, returning all arcs of the block's MS complex 1-skeleton.
/// Serial, dispatching to the process-wide kernel selection.
pub fn trace_all_arcs(grad: &GradientField, limits: TraceLimits) -> (ArcStore, TraceStats) {
    trace_all_arcs_kernel(grad, limits, 1, active_kernel())
}

/// [`trace_all_arcs`] with explicit thread count and kernel choice. The
/// flat kernel chunks the address-ordered critical list contiguously
/// across threads and concatenates the per-chunk stores in chunk order,
/// so the result is identical for every thread count; the heap kernel is
/// the original serial coordinate-at-a-time reference.
pub fn trace_all_arcs_kernel(
    grad: &GradientField,
    limits: TraceLimits,
    threads: usize,
    kernel: Kernel,
) -> (ArcStore, TraceStats) {
    trace_arcs_from(grad, grad.critical_cells(), limits, threads, kernel)
}

/// [`trace_all_arcs_kernel`] for a caller that already holds
/// `grad.critical_cells()` (the complex builder adds them as nodes
/// first): `critical` must be that list, in address order. Taken by
/// value so the list's buffer becomes the tracer's work list.
pub fn trace_arcs_from(
    grad: &GradientField,
    critical: Vec<RCoord>,
    limits: TraceLimits,
    threads: usize,
    kernel: Kernel,
) -> (ArcStore, TraceStats) {
    let mut arcs = ArcStore::new();
    let mut stats = TraceStats::default();
    let crits: Vec<RCoord> = critical.into_iter().filter(|c| c.cell_dim() >= 1).collect();
    match kernel {
        Kernel::Heap => {
            for &c in &crits {
                trace_from(grad, c, limits, &mut arcs, &mut stats);
            }
        }
        Kernel::Flat => {
            let workers = threads.min(crits.len()).max(1);
            if workers <= 1 {
                let mut tracer = FlatTracer::new(grad);
                for &c in &crits {
                    tracer.trace_from(grad, c, limits, &mut arcs, &mut stats);
                }
            } else {
                let chunk = crits.len().div_ceil(workers);
                let chunks: Vec<&[RCoord]> = crits.chunks(chunk).collect();
                let parts = msp_grid::par::par_map(workers, &chunks, |_, ch| {
                    let mut a = ArcStore::new();
                    let mut s = TraceStats::default();
                    let mut tracer = FlatTracer::new(grad);
                    for &c in ch.iter() {
                        tracer.trace_from(grad, c, limits, &mut a, &mut s);
                    }
                    (a, s)
                });
                for (a, s) in parts {
                    arcs.append(a);
                    stats.arcs += s.arcs;
                    stats.truncated_nodes += s.truncated_nodes;
                    stats.path_cells_total += s.path_cells_total;
                }
            }
        }
    }
    (arcs, stats)
}

/// Reusable scratch of the flat tracer: the DFS stack and path prefix
/// are cleared — capacity kept — between critical cells, so a whole
/// chunk traces with zero allocations after warm-up. Frames carry each
/// cell's linear byte index alongside its coordinate: facet neighbors
/// are `± stride` hops, and the per-step state test is a single byte
/// read instead of three strided index computations.
struct FlatTracer {
    lo: [u32; 3],
    hi: [u32; 3],
    strides: [isize; 3],
    path: Vec<RCoord>,
    /// (cell, linear index, depth to truncate the path to).
    stack: Vec<(RCoord, usize, usize)>,
}

impl FlatTracer {
    fn new(grad: &GradientField) -> Self {
        let bbox = grad.bbox();
        let (sx, sxy) = grad.strides();
        FlatTracer {
            lo: [bbox.lo.x, bbox.lo.y, bbox.lo.z],
            hi: [bbox.hi.x, bbox.hi.y, bbox.hi.z],
            strides: [1, sx as isize, sxy as isize],
            path: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Push the facets of `c` in `FaceDir::ALL` order (axis-major,
    /// negative before positive) — the exact order
    /// `msp_grid::topology::facets` yields, so the LIFO pops and hence
    /// the arc emission order match the reference tracer bit for bit.
    /// `skip` is the linear index of the facet the path arrived from.
    #[inline]
    fn push_facets(&mut self, c: RCoord, ci: usize, depth: usize, skip: usize) {
        for axis in 0..3 {
            let v = c.get(axis);
            if v.is_multiple_of(2) {
                continue; // no facet along an even axis
            }
            let s = self.strides[axis];
            if v > self.lo[axis] {
                let fi = (ci as isize - s) as usize;
                if fi != skip {
                    self.stack.push((c.with(axis, v - 1), fi, depth));
                }
            }
            if v < self.hi[axis] {
                let fi = (ci as isize + s) as usize;
                if fi != skip {
                    self.stack.push((c.with(axis, v + 1), fi, depth));
                }
            }
        }
    }

    /// Trace all descending paths from one critical cell — the iterative
    /// DFS of [`trace_from`] over linear indices.
    fn trace_from(
        &mut self,
        grad: &GradientField,
        from: RCoord,
        limits: TraceLimits,
        arcs: &mut ArcStore,
        stats: &mut TraceStats,
    ) {
        debug_assert!(from.cell_dim() >= 1);
        let from_idx = grad.linear_index(from);
        let mut emitted = 0usize;
        self.path.clear();
        self.path.push(from);
        self.stack.clear();
        self.push_facets(from, from_idx, 1, usize::MAX);
        while let Some((alpha, ai, depth)) = self.stack.pop() {
            self.path.truncate(depth);
            self.path.push(alpha);
            let b = grad.byte_at(ai);
            if b & CRITICAL != 0 {
                if emitted >= limits.max_paths_per_node {
                    stats.truncated_nodes += 1;
                    break;
                }
                emitted += 1;
                stats.arcs += 1;
                stats.path_cells_total += self.path.len() as u64;
                arcs.push(from, alpha, &self.path);
                continue;
            }
            if b & PAIRED == 0 || b & TAIL == 0 {
                continue; // head cell: flow does not continue through it
            }
            // partner is a cofacet (TAIL), one step along the stored axis
            let code = b & DIR_MASK;
            let axis = (code >> 1) as usize;
            let (bv, bi) = if code & 1 == 1 {
                (
                    alpha.get(axis) + 1,
                    (ai as isize + self.strides[axis]) as usize,
                )
            } else {
                (
                    alpha.get(axis) - 1,
                    (ai as isize - self.strides[axis]) as usize,
                )
            };
            let beta = alpha.with(axis, bv);
            debug_assert_eq!(beta.cell_dim(), from.cell_dim());
            self.path.push(beta);
            let next_depth = self.path.len();
            self.push_facets(beta, bi, next_depth, ai);
        }
    }
}

/// Trace all descending paths from one critical cell.
pub fn trace_from(
    grad: &GradientField,
    from: RCoord,
    limits: TraceLimits,
    arcs: &mut ArcStore,
    stats: &mut TraceStats,
) {
    debug_assert!(grad.is_critical(from));
    debug_assert!(from.cell_dim() >= 1);
    let bbox = *grad.bbox();
    let mut emitted = 0usize;

    // Explicit DFS. The path alternates (d−1)-cells and d-cells; `path`
    // holds the current prefix; frames record (cell to expand, depth to
    // truncate the path to before expanding).
    let mut path: Vec<RCoord> = vec![from];
    let mut stack: Vec<(RCoord, usize)> = Vec::new();
    for (_, f) in msp_grid::topology::facets(from, &bbox) {
        stack.push((f, 1));
    }
    while let Some((alpha, depth)) = stack.pop() {
        path.truncate(depth);
        path.push(alpha);
        if grad.is_critical(alpha) {
            if emitted >= limits.max_paths_per_node {
                stats.truncated_nodes += 1;
                break;
            }
            emitted += 1;
            stats.arcs += 1;
            stats.path_cells_total += path.len() as u64;
            arcs.push(from, alpha, &path);
            continue;
        }
        if !grad.is_tail(alpha) {
            continue; // head cell: flow does not continue through it
        }
        let beta = grad.partner(alpha).expect("tail has a partner");
        if beta.cell_dim() != from.cell_dim() {
            continue; // paired upward out of our tracing dimension
        }
        path.push(beta);
        let next_depth = path.len();
        for (_, f2) in msp_grid::topology::facets(beta, &bbox) {
            if f2 != alpha {
                stack.push((f2, next_depth));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_star::assign_gradient;
    use msp_grid::decomp::Decomposition;
    use msp_grid::{Dims, ScalarField};

    fn grad_of(f: &ScalarField) -> GradientField {
        let d = Decomposition::bisect(f.dims(), 1);
        assign_gradient(&f.extract_block(d.block(0)), &d)
    }

    #[test]
    fn ramp_has_no_arcs() {
        let f = msp_synth::ramp(Dims::new(5, 5, 5));
        let g = grad_of(&f);
        let (arcs, stats) = trace_all_arcs(&g, TraceLimits::default());
        assert!(arcs.is_empty(), "a fully collapsed field has no arcs");
        assert_eq!(stats.arcs, 0);
    }

    #[test]
    fn arcs_connect_adjacent_indices() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 4);
        let g = grad_of(&f);
        let (arcs, _) = trace_all_arcs(&g, TraceLimits::default());
        assert!(!arcs.is_empty());
        for a in arcs.iter() {
            assert_eq!(a.upper.cell_dim(), a.lower.cell_dim() + 1);
            assert!(g.is_critical(a.upper));
            assert!(g.is_critical(a.lower));
            assert_eq!(a.geom[0], a.upper);
            assert_eq!(*a.geom.last().unwrap(), a.lower);
        }
    }

    #[test]
    fn path_is_valid_v_path() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 11);
        let g = grad_of(&f);
        let (arcs, _) = trace_all_arcs(&g, TraceLimits::default());
        for a in arcs.iter() {
            // geometry alternates d, d-1, d, d-1, ..., d-1
            let d = a.upper.cell_dim();
            for (i, c) in a.geom.iter().enumerate() {
                let expect = if i % 2 == 0 { d } else { d - 1 };
                assert_eq!(c.cell_dim(), expect, "alternating dims in path");
            }
            // interior (d-1)-cells are tails paired with the next d-cell
            for w in a.geom.windows(2).skip(1).step_by(2) {
                assert_eq!(g.partner(w[0]), Some(w[1]));
            }
        }
    }

    #[test]
    fn two_bump_field_has_saddle_between_maxima() {
        // two bumps => two maxima separated by a 2-saddle; the 2-saddle
        // must have arcs to both maxima
        let dims = Dims::new(17, 9, 9);
        let f = ScalarField::from_fn(dims, |x, y, z| {
            let b1 =
                (-((x as f32 - 4.0).powi(2) + (y as f32 - 4.0).powi(2) + (z as f32 - 4.0).powi(2))
                    / 6.0)
                    .exp();
            let b2 = (-((x as f32 - 12.0).powi(2)
                + (y as f32 - 4.0).powi(2)
                + (z as f32 - 4.0).powi(2))
                / 6.0)
                .exp();
            b1 + b2
        });
        let g = grad_of(&f);
        let census = g.census();
        assert_eq!(census[3], 2, "two maxima: {:?}", census);
        let (arcs, _) = trace_all_arcs(&g, TraceLimits::default());
        // find 2-saddle -> max arcs; some saddle must reach two distinct maxima
        use std::collections::HashMap;
        let mut reach: HashMap<RCoord, std::collections::HashSet<RCoord>> = HashMap::new();
        for a in arcs.iter() {
            if a.upper.cell_dim() == 3 {
                // descending from maxima to 2-saddles: group by lower
                reach.entry(a.lower).or_default().insert(a.upper);
            }
        }
        assert!(
            reach.values().any(|s| s.len() == 2),
            "a 2-saddle should connect the two maxima"
        );
    }

    #[test]
    fn flat_tracer_equals_recursive_reference() {
        // stores are PartialEq: record order, endpoints and the full
        // geometry arena must all match, for every thread count
        for (dims, seed) in [
            (Dims::new(9, 8, 7), 7u64),
            (Dims::new(10, 10, 10), 5),
            (Dims::new(6, 5, 1), 13),
        ] {
            let f = msp_synth::white_noise(dims, seed);
            let g = grad_of(&f);
            let (heap, hs) = trace_all_arcs_kernel(&g, TraceLimits::default(), 1, Kernel::Heap);
            for threads in [1, 2, 3, 8] {
                let (flat, fs) =
                    trace_all_arcs_kernel(&g, TraceLimits::default(), threads, Kernel::Flat);
                assert_eq!(flat, heap, "dims {dims:?} threads {threads}");
                assert_eq!(fs.arcs, hs.arcs);
                assert_eq!(fs.path_cells_total, hs.path_cells_total);
            }
        }
    }

    #[test]
    fn flat_tracer_respects_truncation_identically() {
        let f = msp_synth::white_noise(Dims::new(10, 10, 10), 5);
        let g = grad_of(&f);
        let limits = TraceLimits {
            max_paths_per_node: 3,
        };
        let (heap, hs) = trace_all_arcs_kernel(&g, limits, 1, Kernel::Heap);
        for threads in [1, 4] {
            let (flat, fs) = trace_all_arcs_kernel(&g, limits, threads, Kernel::Flat);
            assert_eq!(flat, heap, "threads {threads}");
            assert_eq!(fs.truncated_nodes, hs.truncated_nodes);
        }
    }

    #[test]
    fn arc_store_append_matches_single_store() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 4);
        let g = grad_of(&f);
        let (whole, _) = trace_all_arcs(&g, TraceLimits::default());
        // re-trace in two halves and append
        let crits: Vec<RCoord> = g
            .critical_cells()
            .into_iter()
            .filter(|c| c.cell_dim() >= 1)
            .collect();
        let mid = crits.len() / 2;
        let mut parts = ArcStore::new();
        let mut stats = TraceStats::default();
        for half in [&crits[..mid], &crits[mid..]] {
            let mut a = ArcStore::new();
            let mut tracer = FlatTracer::new(&g);
            for &c in half {
                tracer.trace_from(&g, c, TraceLimits::default(), &mut a, &mut stats);
            }
            parts.append(a);
        }
        assert_eq!(parts, whole);
    }

    #[test]
    fn truncation_limit_respected() {
        let f = msp_synth::white_noise(Dims::new(10, 10, 10), 5);
        let g = grad_of(&f);
        let (full, _) = trace_all_arcs(&g, TraceLimits::default());
        let (limited, stats) = trace_all_arcs(
            &g,
            TraceLimits {
                max_paths_per_node: 1,
            },
        );
        assert!(limited.len() <= full.len());
        if limited.len() < full.len() {
            assert!(stats.truncated_nodes > 0);
        }
    }
}
