//! The local-stage kernels and their per-call statistics.
//!
//! The flat structure-of-arrays kernels (`flat`) are the implementation:
//! they compute the gradient bytes and arc stores without heaps,
//! `CellKey` materialization or per-vertex allocation. The original
//! two-priority-queue lower-star expansion plus recursive tracing
//! (`heap`) stays runnable through the explicit [`Kernel`] argument of
//! the `*_kernel` entry points only, as the differential reference the
//! unit tests, the proptest suite and `kernel_bench` pin the flat
//! kernels against.

/// Which implementation of the hot local-stage kernels to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Flat SoA kernels: the lower star as a 27-bit set, rank-set
    /// in-star keys, batched iterative V-path tracing. What production
    /// runs.
    #[default]
    Flat,
    /// The original two-heap lower-star expansion and one-path-at-a-time
    /// recursive tracing, kept runnable as a differential reference.
    Heap,
}

impl Kernel {
    /// Stable name used in bench tables and JSON documents.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Flat => "flat",
            Kernel::Heap => "heap",
        }
    }
}

/// The kernel every dispatching entry point runs: [`Kernel::Flat`].
/// Callers that want the reference side pass [`Kernel::Heap`] to the
/// `*_kernel` entry points instead.
pub fn active_kernel() -> Kernel {
    Kernel::Flat
}

/// Allocation/throughput accounting for one gradient-kernel call, fed
/// into the telemetry counters (`kernel_cells`, `scratch_reuse`,
/// `kernel_allocs`) by the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Refined cells assigned (the throughput denominator for
    /// `grad_cells_per_s`).
    pub cells: u64,
    /// Pooled scratch buffers reused without a fresh allocation.
    pub scratch_reuse: u64,
    /// Pooled scratch buffers that had to be allocated (pool misses —
    /// zero in steady state).
    pub kernel_allocs: u64,
}

impl KernelStats {
    /// Record one pool take: `reused` says whether an existing buffer's
    /// capacity sufficed.
    pub(crate) fn tally(&mut self, reused: bool) {
        if reused {
            self.scratch_reuse += 1;
        } else {
            self.kernel_allocs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Kernel::Flat.name(), "flat");
        assert_eq!(Kernel::Heap.name(), "heap");
        assert_eq!(Kernel::default(), Kernel::Flat);
    }

    #[test]
    fn stats_tally() {
        let mut s = KernelStats::default();
        s.tally(true);
        s.tally(true);
        s.tally(false);
        assert_eq!(s.scratch_reuse, 2);
        assert_eq!(s.kernel_allocs, 1);
    }
}
