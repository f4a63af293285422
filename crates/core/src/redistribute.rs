//! Global persistence simplification + redistribution — the paper's
//! stated future work (§VII-B): *"we plan to experiment with global
//! persistence simplification in the context of our parallel structure …
//! This will allow us to further reduce the size of the output data and
//! to reduce the complexity of the resulting MS complex."*
//!
//! A partial merge leaves boundary artifacts on the faces between output
//! blocks: those nodes were never candidates for cancellation. This
//! module closes the gap: merge to the global complex, simplify with no
//! boundary restriction (every artifact can now cancel), then
//! **partition** the simplified complex back into the requested number
//! of output blocks for balanced collective writing.
//!
//! Partitioning rules:
//! * a node belongs to every part that contains one of its owner blocks
//!   (nodes on a part-interface plane are replicated in both parts and
//!   flagged `boundary`, mirroring the shared-layer convention);
//! * an arc belongs to exactly one part — the one owning its upper
//!   node's first owner block; if its lower endpoint falls outside that
//!   part, a replica of the lower node is included (flagged `boundary`)
//!   so every part is a self-contained, valid complex.
//!
//! Reassembling the parts therefore requires deduplicating replicated
//! interface nodes (address equality — exactly what [`glue`] does) but
//! never duplicates arcs, because each arc is stored once.

use msp_complex::{simplify, wire, MsComplex, SimplifyParams};
use msp_grid::{Decomposition, RCoord};
use std::collections::HashMap;

/// Statistics of a global-simplify + redistribute pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RedistributeStats {
    pub cancellations: u64,
    pub parts: u32,
    pub replicated_nodes: u64,
    pub total_bytes: u64,
}

/// Partition a (typically globally simplified) complex into one part per
/// entry of `parts`, each entry being the set of member block ids that
/// part covers. Every block of `ms.member_blocks` must appear in exactly
/// one part.
pub fn partition_complex(
    ms: &MsComplex,
    decomp: &Decomposition,
    parts: &[Vec<u32>],
) -> Vec<MsComplex> {
    // block id -> part index
    let mut part_of_block: HashMap<u32, usize> = HashMap::new();
    for (pi, blocks) in parts.iter().enumerate() {
        for &b in blocks {
            let prev = part_of_block.insert(b, pi);
            assert!(prev.is_none(), "block {b} listed in two parts");
        }
    }
    for &b in &ms.member_blocks {
        assert!(
            part_of_block.contains_key(&b),
            "member block {b} missing from the partition"
        );
    }

    let mut out: Vec<MsComplex> = parts
        .iter()
        .map(|blocks| MsComplex::new(ms.refined, blocks.clone()))
        .collect();
    // node -> (per-part local id); also the "primary" part of each node
    let mut local_ids: Vec<HashMap<usize, u32>> = vec![HashMap::new(); ms.nodes.len()];
    let mut primary_part: Vec<usize> = vec![usize::MAX; ms.nodes.len()];

    let node_parts = |addr: u64| -> Vec<usize> {
        let c = RCoord::from_address(addr, &ms.refined);
        let mut ps: Vec<usize> = decomp
            .owners(c)
            .as_slice()
            .iter()
            .filter_map(|b| part_of_block.get(b).copied())
            .collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    };

    // distribute nodes (interface nodes replicated, flagged boundary)
    for (i, n) in ms.nodes.iter().enumerate() {
        if !n.alive {
            continue;
        }
        let ps = node_parts(n.addr);
        debug_assert!(!ps.is_empty(), "node owners must map to parts");
        primary_part[i] = ps[0];
        let replicated = ps.len() > 1;
        for &p in &ps {
            let id = out[p].add_node(n.addr, n.index, n.value, n.boundary || replicated);
            local_ids[i].insert(p, id);
        }
    }

    // distribute arcs: one part each, chosen by the upper node's primary
    // part; replicate missing endpoints as boundary stubs. Part by part,
    // so one dense geometry table (sized to the source) serves them all.
    let mut geom_map = Vec::new();
    for (p, part) in out.iter_mut().enumerate() {
        geom_map.clear();
        let mine = ms
            .arcs
            .iter()
            .filter(|a| a.alive && primary_part[a.upper as usize] == p);
        for a in mine {
            for end in [a.upper, a.lower] {
                if !local_ids[end as usize].contains_key(&p) {
                    let n = &ms.nodes[end as usize];
                    let id = part.add_node(n.addr, n.index, n.value, true);
                    local_ids[end as usize].insert(p, id);
                }
            }
            let g = ms.copy_geom_into(a.geom, part, &mut geom_map);
            part.add_arc(
                local_ids[a.upper as usize][&p],
                local_ids[a.lower as usize][&p],
                g,
            );
        }
    }
    out
}

/// Merge-free entry point used by the pipeline drivers: take the fully
/// merged complex, run **unrestricted** global simplification at
/// `threshold`, and split the result into `n_parts` contiguous
/// block-range parts.
pub fn global_simplify_and_partition(
    ms: &mut MsComplex,
    decomp: &Decomposition,
    threshold: f32,
    n_parts: u32,
    max_new_arcs: Option<u64>,
) -> (Vec<MsComplex>, RedistributeStats) {
    assert!(
        (ms.member_blocks.len() as u32).is_multiple_of(n_parts),
        "parts must evenly divide the member blocks"
    );
    ms.reflag_boundaries(decomp); // full merge ⇒ clears every flag
    let stats = simplify(
        ms,
        SimplifyParams {
            threshold,
            max_new_arcs,
            max_parallel_arcs: Some(2),
        },
    )
    .expect("redistribution input complexes are finite");
    ms.compact();
    let chunk = ms.member_blocks.len() / n_parts as usize;
    let parts: Vec<Vec<u32>> = ms.member_blocks.chunks(chunk).map(|c| c.to_vec()).collect();
    let out = partition_complex(ms, decomp, &parts);
    let replicated: u64 = out.iter().map(|c| c.n_live_nodes()).sum::<u64>() - ms.n_live_nodes();
    let total_bytes: u64 = out.iter().map(|c| wire::serialize(c).len() as u64).sum();
    (
        out,
        RedistributeStats {
            cancellations: stats.cancellations,
            parts: n_parts,
            replicated_nodes: replicated,
            total_bytes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_parallel, Input, PipelineParams};
    use crate::plan::MergePlan;
    use msp_grid::Dims;
    use std::sync::Arc;

    fn merged_complex(seed: u64) -> (MsComplex, Decomposition) {
        let field = Arc::new(msp_synth::white_noise(Dims::cube(13), seed));
        let params = PipelineParams {
            persistence_frac: 0.0,
            plan: MergePlan::full_merge(8),
            ..Default::default()
        };
        let r = run_parallel(&Input::Memory(field), 4, 8, &params, None).unwrap();
        (
            r.outputs.into_iter().next().unwrap(),
            Decomposition::bisect(Dims::cube(13), 8),
        )
    }

    #[test]
    fn partition_covers_every_node_and_arc() {
        let (ms, decomp) = merged_complex(5);
        let parts = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let out = partition_complex(&ms, &decomp, &parts);
        assert_eq!(out.len(), 2);
        // every arc appears exactly once across parts
        let total_arcs: u64 = out.iter().map(|c| c.n_live_arcs()).sum();
        assert_eq!(total_arcs, ms.n_live_arcs());
        // every original node appears in at least one part; total node
        // count = original + replicas
        let total_nodes: u64 = out.iter().map(|c| c.n_live_nodes()).sum();
        assert!(total_nodes >= ms.n_live_nodes());
        for c in &out {
            c.check_integrity().unwrap();
        }
        // any node carried by a part outside its own geometric region
        // (an arc-endpoint stub) must be flagged boundary so later passes
        // never cancel it
        for (pi, c) in out.iter().enumerate() {
            let members: std::collections::HashSet<u32> = parts[pi].iter().copied().collect();
            for n in c.nodes.iter().filter(|n| n.alive) {
                let coord = msp_grid::RCoord::from_address(n.addr, &c.refined);
                let geometric = decomp
                    .owners(coord)
                    .as_slice()
                    .iter()
                    .any(|b| members.contains(b));
                if !geometric {
                    assert!(n.boundary, "stub node {:#x} must be boundary", n.addr);
                }
            }
        }
    }

    #[test]
    fn global_simplify_reduces_output() {
        // partial merge baseline: artifacts on inter-output faces remain
        let field = Arc::new(msp_synth::white_noise(Dims::cube(13), 9));
        let partial = run_parallel(
            &Input::Memory(field.clone()),
            4,
            8,
            &PipelineParams {
                persistence_frac: 0.05,
                plan: MergePlan::rounds(vec![4]), // 8 -> 2 outputs
                ..Default::default()
            },
            None,
        )
        .unwrap();
        let partial_nodes: u64 = partial.outputs.iter().map(|c| c.n_live_nodes()).sum();

        // global path: full merge, global simplify, split back into 2
        let full = run_parallel(
            &Input::Memory(field.clone()),
            4,
            8,
            &PipelineParams {
                persistence_frac: 0.05,
                plan: MergePlan::full_merge(8),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        let mut ms = full.outputs.into_iter().next().unwrap();
        let decomp = Decomposition::bisect(Dims::cube(13), 8);
        let (lo, hi) = field.min_max();
        let (parts, stats) =
            global_simplify_and_partition(&mut ms, &decomp, 0.05 * (hi - lo), 2, Some(4096));
        assert_eq!(parts.len(), 2);
        let global_nodes: u64 = parts.iter().map(|c| c.n_live_nodes()).sum();
        assert!(
            global_nodes <= partial_nodes,
            "global simplification must not leave more nodes \
             ({global_nodes} vs {partial_nodes})"
        );
        assert!(stats.total_bytes <= partial.output_bytes);
        for c in &parts {
            c.check_integrity().unwrap();
        }
    }

    #[test]
    fn partition_then_reglue_round_trips_nodes() {
        use msp_complex::glue::glue_all_with;
        let (ms, decomp) = merged_complex(21);
        let parts = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let split = partition_complex(&ms, &decomp, &parts);
        let mut root = split[0].clone();
        // partitioned complexes store each arc once: no dedup on reglue
        glue_all_with(&mut root, &split[1..], &decomp, false).unwrap();
        assert_eq!(root.n_live_nodes(), ms.n_live_nodes());
        assert_eq!(root.n_live_arcs(), ms.n_live_arcs());
        root.check_integrity().unwrap();
    }

    #[test]
    #[should_panic]
    fn overlapping_parts_rejected() {
        let (ms, decomp) = merged_complex(3);
        let parts = vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6, 7]];
        let _ = partition_complex(&ms, &decomp, &parts);
    }
}
