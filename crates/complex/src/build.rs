//! Building a block-local MS complex from a scalar block (paper §IV-C/D):
//! assign the discrete gradient, add critical cells as nodes, trace
//! V-paths downwards and add one arc per terminating path.
//!
//! The tracer writes each path as the bytes a leaf geometry holds (its
//! start address, then one step code per later cell; `msp_morse::trace`
//! module docs), so the builder takes its byte arena over as the
//! complex's leaf bytes and seals one [`GeomRec::Leaf`] per arc around
//! the window the tracer recorded, copying no path. The upper node's id
//! is its position in the critical list, which is the order nodes are
//! added in; only the lower end is looked up by address.

use crate::skeleton::{Arc, GeomRec, MsComplex};
use msp_grid::decomp::Decomposition;
use msp_grid::field::BlockField;
use msp_morse::gradient::GradientField;
use msp_morse::{assign_gradient, trace_arcs_from, TraceLimits};

/// Counters from one block build.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    pub cells_paired: u64,
    pub critical_cells: u64,
    pub arcs: u64,
}

/// Compute the gradient and MS complex of one block.
pub fn build_block_complex(
    field: &BlockField,
    decomp: &Decomposition,
    limits: TraceLimits,
) -> (MsComplex, BuildStats) {
    complex_from_gradient(field, decomp, &assign_gradient(field, decomp), limits)
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
    ms.reserve(critical.len(), 0, 0, 0);
    for &c in &critical {
        let boundary = decomp.owners(c).is_shared();
        ms.add_node(
            c.address(&refined),
            c.cell_dim(),
            field.cell_value(c),
            boundary,
        );
    }

    let (store, tstats) = trace_arcs_from(grad, &critical, refined, limits, threads);
    let (recs, steps) = store.into_parts();
    debug_assert!(ms.geoms.is_empty() && ms.steps.is_empty());
    ms.steps = steps;
    ms.reserve(0, recs.len(), 0, recs.len());
    for (g, r) in recs.iter().enumerate() {
        ms.geoms.push(GeomRec::Leaf {
            offset: r.offset,
            bytes: r.bytes(),
            len: r.len,
        });
        let lower = ms.node_at(r.lower).expect("lower critical cell has a node");
        ms.arcs.push(Arc {
            upper: r.upper,
            lower,
            geom: g as u32,
            alive: true,
        });
    }
    // every list at its final length at once
    ms.relink();
    let stats = BuildStats {
        cells_paired,
        critical_cells: critical.len() as u64,
        arcs: tstats.arcs,
    };
    (ms, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
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
        assert!(
            ms.nodes.iter().all(|n| !n.boundary),
            "single block has no shared faces"
        );
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

    /// The built complex's bytes and every arc's path do not depend on
    /// the trace's thread count: a wrong shift of a chunk's leaf bytes
    /// moves a path even where the nodes and arcs agree.
    #[test]
    fn threaded_trace_builds_identical_complex() {
        let dims = Dims::new(13, 11, 10);
        let fields = [
            ("noise", msp_synth::white_noise(dims, 77)),
            ("jet", msp_synth::jet(dims, 4, 3)),
            ("plateau", msp_synth::plateau(dims, 7, 3)),
        ];
        for (name, f) in &fields {
            // steered by the field, so the cuts are not bisect's
            let weight: Vec<u64> = f
                .data()
                .iter()
                .map(|v| 1 + (v.abs() * 40.0) as u64)
                .collect();
            let decomps = [
                ("bisect", Decomposition::bisect(dims, 2)),
                ("random_tree", Decomposition::random_tree(dims, 3, 5)),
                ("adaptive", Decomposition::adaptive(dims, 3, &weight)),
            ];
            for (dname, d) in &decomps {
                for b in d.blocks() {
                    let bf = f.extract_block(b);
                    let g = assign_gradient(&bf, d);
                    let (serial, s1) = complex_from_gradient(&bf, d, &g, TraceLimits::default());
                    assert!(s1.arcs > 0, "{name} {dname} block {}", b.id);
                    let bytes = wire::serialize(&serial);
                    let paths: Vec<Vec<u64>> = serial
                        .arcs
                        .iter()
                        .map(|a| serial.flatten_geom(a.geom))
                        .collect();
                    for threads in [2, 3, 8] {
                        let at = format!("{name} {dname} block {}, threads {threads}", b.id);
                        let (mt, s2) =
                            complex_from_gradient_mt(&bf, d, &g, TraceLimits::default(), threads);
                        assert_eq!(wire::serialize(&mt), bytes, "{at}");
                        let mt_paths: Vec<Vec<u64>> =
                            mt.arcs.iter().map(|a| mt.flatten_geom(a.geom)).collect();
                        assert_eq!(mt_paths, paths, "{at}");
                        assert_eq!(s2.arcs, s1.arcs, "{at}");
                    }
                }
            }
        }
    }

    /// Every built leaf is the traced path from the upper node's cell to
    /// the lower node's, in exactly the bytes the general address
    /// encoder writes for it (unit moves only, no escape).
    #[test]
    fn leaves_are_the_encoded_paths_between_their_nodes() {
        let f = msp_synth::white_noise(Dims::new(7, 7, 7), 3);
        let (ms, _) = serial_complex(&f);
        let mut encoded = MsComplex::new(ms.refined, vec![]);
        for a in &ms.arcs {
            let path = ms.flatten_geom(a.geom);
            assert_eq!(path[0], ms.nodes[a.upper as usize].addr);
            assert_eq!(*path.last().unwrap(), ms.nodes[a.lower as usize].addr);
            encoded.add_leaf_geom(&path);
        }
        assert!(!ms.arcs.is_empty());
        assert_eq!(encoded.steps, ms.steps);
    }

    #[test]
    fn blocked_build_flags_boundary_nodes() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 5);
        let d = Decomposition::bisect(dims, 2);
        let mut boundary_total = 0;
        for b in d.blocks() {
            let (ms, _) = build_block_complex(&f.extract_block(b), &d, TraceLimits::default());
            ms.check_integrity().unwrap();
            for n in &ms.nodes {
                let c = msp_grid::RCoord::from_address(n.addr, &ms.refined);
                assert_eq!(n.boundary, d.owners(c).is_shared());
                boundary_total += usize::from(n.boundary);
            }
        }
        assert!(boundary_total > 0, "shared face must carry spurious nodes");
    }
}
