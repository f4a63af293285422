//! The local-stage kernel argument and per-call statistics.
//!
//! One implementation computes the gradient bytes and the arc stores:
//! the flat structure-of-arrays kernels (`flat`, and `trace.rs`'s
//! `FlatTracer`). `tests/pinned_bytes.rs` pins their output, and
//! `msp-oracle`'s independent reference is diffed against it.

/// The local-stage kernel. It has one variant and nothing branches on
/// it. It remains because the benchmark walk (`benchmark/src/walk.rs`,
/// versioned with the benchmark) passes [`active_kernel`] to
/// [`assign_gradient_kernel`](crate::assign_gradient_kernel) and
/// [`trace_all_arcs_kernel`](crate::trace_all_arcs_kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Flat SoA kernels: the lower star as a 27-bit set, rank-set
    /// in-star keys, batched iterative V-path tracing.
    #[default]
    Flat,
}

/// The kernel every entry point runs: [`Kernel::Flat`].
pub fn active_kernel() -> Kernel {
    Kernel::Flat
}

/// Allocation/throughput accounting for one gradient-kernel call (the
/// benchmark's layer walk reads `cells` as its throughput denominator).
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
    fn stats_tally() {
        let mut s = KernelStats::default();
        s.tally(true);
        s.tally(true);
        s.tally(false);
        assert_eq!(s.scratch_reuse, 2);
        assert_eq!(s.kernel_allocs, 1);
    }
}
