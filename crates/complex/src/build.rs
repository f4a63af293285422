//! Building a block-local MS complex from a scalar block (paper §IV-C/D):
//! assign the discrete gradient, add critical cells as nodes, trace
//! V-paths downwards and add one arc per terminating path.

use crate::skeleton::MsComplex;
use msp_grid::decomp::Decomposition;
use msp_grid::field::BlockField;
use msp_morse::gradient::GradientField;
use msp_morse::{assign_gradient, trace_arcs_from, TraceLimits, TraceStats};

/// Counters from one block build.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    pub cells_paired: u64,
    pub critical_cells: u64,
    pub boundary_nodes: u64,
    pub arcs: u64,
    pub geometry_cells: u64,
    pub truncated_nodes: u64,
}

/// Compute the gradient and MS complex of one block.
pub fn build_block_complex(
    field: &BlockField,
    decomp: &Decomposition,
    limits: TraceLimits,
) -> (MsComplex, BuildStats) {
    let grad = assign_gradient(field, decomp);
    let (ms, stats) = complex_from_gradient(field, decomp, &grad, limits);
    (ms, stats)
}

/// Build the complex from an already-computed gradient. Serial tracing;
/// see [`complex_from_gradient_mt`] for the threaded variant.
pub fn complex_from_gradient(
    field: &BlockField,
    decomp: &Decomposition,
    grad: &GradientField,
    limits: TraceLimits,
) -> (MsComplex, BuildStats) {
    complex_from_gradient_mt(field, decomp, grad, limits, 1)
}

/// [`complex_from_gradient`] with V-path tracing fanned out over
/// `threads` (deterministic: the flat tracer chunks the critical list
/// contiguously and merges per-chunk arc stores in order, so the built
/// complex is identical for every thread count).
pub fn complex_from_gradient_mt(
    field: &BlockField,
    decomp: &Decomposition,
    grad: &GradientField,
    limits: TraceLimits,
    threads: usize,
) -> (MsComplex, BuildStats) {
    let refined = field.domain().refined();
    let mut ms = MsComplex::new(refined, vec![field.block().id]);
    // one pass over the gradient bytes serves the node list, the tracer
    // and the pair count
    let (critical, cells_paired) = grad.critical_cells_and_paired_count();
    let mut stats = BuildStats {
        cells_paired,
        ..BuildStats::default()
    };

    ms.reserve(critical.len(), 0, 0, 0);
    for &c in &critical {
        let boundary = decomp.owners(c).is_shared();
        ms.add_node(
            c.address(&refined),
            c.cell_dim(),
            field.cell_value(c),
            boundary,
        );
        stats.critical_cells += 1;
        if boundary {
            stats.boundary_nodes += 1;
        }
    }

    let (arcs, tstats): (_, TraceStats) = trace_arcs_from(grad, critical, limits, threads);
    stats.truncated_nodes = tstats.truncated_nodes;
    // a traced leaf is its 8-byte start plus one code per later cell
    let cells: usize = arcs.iter().map(|a| a.geom.len()).sum();
    ms.reserve(0, arcs.len(), cells + 7 * arcs.len(), arcs.len());
    for arc in arcs.iter() {
        let g = ms.add_vpath_geom(arc.geom);
        let u = ms
            .node_at(arc.upper.address(&refined))
            .expect("upper critical cell has a node");
        let l = ms
            .node_at(arc.lower.address(&refined))
            .expect("lower critical cell has a node");
        ms.add_arc(u, l, g);
        stats.arcs += 1;
        stats.geometry_cells += arc.geom.len() as u64;
    }
    (ms, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::{Dims, ScalarField};

    fn serial_complex(f: &ScalarField) -> (MsComplex, BuildStats) {
        let d = Decomposition::bisect(f.dims(), 1);
        build_block_complex(&f.extract_block(d.block(0)), &d, TraceLimits::default())
    }

    #[test]
    fn ramp_gives_single_node() {
        let f = msp_synth::ramp(Dims::new(5, 5, 5));
        let (ms, stats) = serial_complex(&f);
        assert_eq!(ms.node_census(), [1, 0, 0, 0]);
        assert_eq!(stats.arcs, 0);
        assert_eq!(stats.boundary_nodes, 0, "single block has no shared faces");
        ms.check_integrity().unwrap();
    }

    #[test]
    fn noise_complex_is_consistent() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 19);
        let (ms, stats) = serial_complex(&f);
        assert!(stats.critical_cells > 4);
        assert!(stats.arcs > 0);
        assert!(stats.cells_paired > 0);
        assert_eq!(stats.cells_paired % 2, 0, "pairs cover cells two at a time");
        ms.check_integrity().unwrap();
        // every saddle must have arcs: a 1-saddle has exactly 2 descending
        // paths (possibly to the same minimum) unless truncated
        for (i, n) in ms.nodes.iter().enumerate() {
            if n.index == 1 {
                let down = ms.arcs_below(i as u32).count();
                assert_eq!(down, 2, "1-saddle must have 2 descending arcs");
            }
        }
    }

    #[test]
    fn threaded_trace_builds_identical_complex() {
        let dims = Dims::new(9, 8, 7);
        let f = msp_synth::white_noise(dims, 77);
        let d = Decomposition::bisect(dims, 2);
        for b in d.blocks() {
            let bf = f.extract_block(b);
            let g = assign_gradient(&bf, &d);
            let (serial, s1) = complex_from_gradient(&bf, &d, &g, TraceLimits::default());
            for threads in [2, 4, 8] {
                let (mt, s2) =
                    complex_from_gradient_mt(&bf, &d, &g, TraceLimits::default(), threads);
                assert_eq!(mt.nodes, serial.nodes, "threads {threads}");
                assert_eq!(mt.arcs, serial.arcs, "threads {threads}");
                assert_eq!(s2.arcs, s1.arcs);
                assert_eq!(s2.geometry_cells, s1.geometry_cells);
            }
        }
    }

    #[test]
    fn geometry_endpoints_match_nodes() {
        let f = msp_synth::white_noise(Dims::new(7, 7, 7), 3);
        let (ms, _) = serial_complex(&f);
        for a in &ms.arcs {
            let path = ms.flatten_geom(a.geom);
            assert_eq!(path[0], ms.nodes[a.upper as usize].addr);
            assert_eq!(*path.last().unwrap(), ms.nodes[a.lower as usize].addr);
        }
    }

    #[test]
    fn blocked_build_flags_boundary_nodes() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 5);
        let d = Decomposition::bisect(dims, 2);
        let mut boundary_total = 0;
        for b in d.blocks() {
            let (ms, stats) = build_block_complex(&f.extract_block(b), &d, TraceLimits::default());
            ms.check_integrity().unwrap();
            boundary_total += stats.boundary_nodes;
            for n in &ms.nodes {
                let c = msp_grid::RCoord::from_address(n.addr, &ms.refined);
                assert_eq!(n.boundary, d.owners(c).is_shared());
            }
        }
        assert!(boundary_total > 0, "shared face must carry spurious nodes");
    }
}
