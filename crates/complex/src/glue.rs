//! Gluing MS complexes of neighbouring block groups (paper §IV-F3).
//!
//! Both complexes computed their gradient identically on the shared
//! boundary, so every critical cell there is a node in both — these
//! shared nodes anchor the glue:
//!
//! 1. every node of the incoming complex not matched by address in the
//!    root is added;
//! 2. every arc of the incoming complex is added **unless it is a
//!    guaranteed duplicate**: both endpoints are shared-boundary matches
//!    *and* the arc's entire V-path lies inside the region the root's
//!    member blocks already cover. Both sides computed the gradient
//!    identically everywhere their regions overlap, so such an arc
//!    already exists in the root; an arc that leaves the overlap
//!    through the incoming group's interior exists only incoming-side
//!    and is added even when its endpoints are shared. (Under uniform
//!    bisection the merged region is convex and every both-endpoints-
//!    shared arc stays in the shared face, so this degenerates to the
//!    classic face-restricted rule; the region test is what makes
//!    gluing sound for irregular block trees, where the already-merged
//!    region can be L-shaped and neighbours may share only an edge or
//!    a sub-rectangle of a face.)
//! 3. boundary flags are recomputed against the merged member-block set,
//!    turning interior boundary artifacts into cancellation candidates.
//!
//! Either complex may hold tombstones: the pipeline compacts a complex
//! only when it leaves its rank, so a root carries the tombstones of its
//! re-simplifications and a member on its root's rank arrives live.
//! Gluing skips dead nodes and arcs and copies the live arcs' geometry in
//! the order compacting first would give, so the glued complex compacts
//! to the same bytes either way.
//!
//! Malformed inputs (mismatched domains, address collisions at different
//! Morse indices) are reported as [`GlueError`]s instead of panicking, so
//! a corrupted peer complex arriving over the wire cannot take the rank
//! down.

use crate::skeleton::{GeomId, MsComplex, NodeId};
use msp_grid::{Decomposition, RCoord};
use std::fmt;

/// Statistics from one glue operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlueStats {
    pub matched_nodes: u64,
    pub added_nodes: u64,
    pub added_arcs: u64,
    pub skipped_shared_arcs: u64,
}

/// A structural defect detected while gluing. Each variant corresponds
/// to a former assert/debug_assert; all are now checked in release
/// builds too, since gluing consumes wire-decoded peer data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlueError {
    /// The two complexes disagree on the refined dims of the full
    /// dataset — their global addresses are not comparable.
    DomainMismatch,
    /// Both complexes hold a node at the same global address but with
    /// different Morse indices — the gradients disagreed on a shared
    /// face.
    IndexMismatch { addr: u64, root: u8, incoming: u8 },
    /// An arc whose V-path lies entirely inside the root's covered
    /// region is missing from the root, contradicting the
    /// boundary-identical-gradient contract.
    MissingSharedArc { upper: u64, lower: u64 },
}

impl fmt::Display for GlueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlueError::DomainMismatch => write!(f, "complexes do not share a refined domain"),
            GlueError::IndexMismatch {
                addr,
                root,
                incoming,
            } => write!(
                f,
                "node at address {addr} has index {root} in the root but {incoming} incoming"
            ),
            GlueError::MissingSharedArc { upper, lower } => write!(
                f,
                "shared-face arc {upper} -> {lower} missing from the root"
            ),
        }
    }
}

impl std::error::Error for GlueError {}

/// True when every cell of the V-path geometry `g` (decoded in place
/// from `incoming`) lies inside the region covered by the blocks in
/// `members`. This is the generalized-glue duplicate test: the gradient
/// is computed identically everywhere two groups' regions overlap, so a
/// path confined to the overlap was traced by both sides.
fn path_in_region(
    incoming: &MsComplex,
    g: GeomId,
    decomp: &Decomposition,
    members: &[u32],
) -> bool {
    incoming.geom_all(g, &mut |addr| {
        let c = RCoord::from_address(addr, &incoming.refined);
        decomp
            .owners(c)
            .as_slice()
            .iter()
            .any(|id| members.contains(id))
    })
}

/// Glue `incoming` onto `root`, two complexes over the same refined
/// grid. Either may hold tombstones; those of `incoming` are skipped.
///
/// An arc whose endpoints both match existing root nodes *and* whose
/// V-path stays inside the root's covered region is guaranteed to be a
/// duplicate and is skipped; both-endpoints-shared arcs that leave the
/// overlap (only possible with irregular decompositions, where the
/// merged region can be non-convex) are real and are added.
///
/// On error the root may hold a partially-applied glue; callers treat
/// the error as fatal for the merge and do not reuse the root.
pub fn glue(
    root: &mut MsComplex,
    incoming: &MsComplex,
    decomp: &Decomposition,
) -> Result<GlueStats, GlueError> {
    if root.refined != incoming.refined {
        return Err(GlueError::DomainMismatch);
    }
    let mut stats = GlueStats::default();

    // map incoming node id -> (root node id, was it a shared match); a
    // dead node maps nowhere, since no live arc names it. Matching is by
    // global address alone: only shared-boundary critical cells can
    // collide (interior cells are unique to a block).
    let mut node_map: Vec<(NodeId, bool)> = Vec::with_capacity(incoming.nodes.len());
    for n in &incoming.nodes {
        if !n.alive {
            node_map.push((NodeId::MAX, false));
            continue;
        }
        if let Some(existing) = root.node_at(n.addr) {
            let root_index = root.nodes[existing as usize].index;
            if root_index != n.index {
                return Err(GlueError::IndexMismatch {
                    addr: n.addr,
                    root: root_index,
                    incoming: n.index,
                });
            }
            stats.matched_nodes += 1;
            node_map.push((existing, true));
            continue;
        }
        let id = root.add_node(n.addr, n.index, n.value, n.boundary);
        stats.added_nodes += 1;
        node_map.push((id, false));
    }

    let mut geom_map = Vec::new();
    for a in incoming.arcs.iter().filter(|a| a.alive) {
        let (u, u_shared) = node_map[a.upper as usize];
        let (l, l_shared) = node_map[a.lower as usize];
        if u_shared && l_shared && path_in_region(incoming, a.geom, decomp, &root.member_blocks) {
            // the arc lies entirely in the region the root already
            // covers, so the root traced it too; skip the duplicate
            if root.multiplicity(u, l) == 0 {
                return Err(GlueError::MissingSharedArc {
                    upper: root.nodes[u as usize].addr,
                    lower: root.nodes[l as usize].addr,
                });
            }
            stats.skipped_shared_arcs += 1;
            continue;
        }
        let g = incoming.copy_geom_into(a.geom, root, &mut geom_map);
        root.add_arc(u, l, g);
        stats.added_arcs += 1;
    }

    // merged member set
    let mut members = root.member_blocks.clone();
    members.extend_from_slice(&incoming.member_blocks);
    members.sort_unstable();
    members.dedup();
    root.member_blocks = members;
    Ok(stats)
}

/// Glue several complexes onto a root and recompute boundary flags once.
pub fn glue_all(
    root: &mut MsComplex,
    incoming: &[MsComplex],
    decomp: &Decomposition,
) -> Result<GlueStats, GlueError> {
    let mut total = GlueStats::default();
    for inc in incoming {
        let s = glue(root, inc, decomp)?;
        total.matched_nodes += s.matched_nodes;
        total.added_nodes += s.added_nodes;
        total.added_arcs += s.added_arcs;
        total.skipped_shared_arcs += s.skipped_shared_arcs;
    }
    root.reflag_boundaries(decomp);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_block_complex;
    use crate::simplify::{simplify, SimplifyParams};
    use crate::wire;
    use msp_grid::{Dims, ScalarField};
    use msp_morse::TraceLimits;

    fn block_complexes(f: &ScalarField, n_blocks: u32) -> (Decomposition, Vec<MsComplex>) {
        let d = Decomposition::bisect(f.dims(), n_blocks);
        let cs = d
            .blocks()
            .iter()
            .map(|b| {
                let (mut ms, _) =
                    build_block_complex(&f.extract_block(b), &d, TraceLimits::default());
                ms.compact();
                ms
            })
            .collect();
        (d, cs)
    }

    #[test]
    fn glue_two_blocks_conserves_distinct_nodes() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 31);
        let (d, mut cs) = block_complexes(&f, 2);
        let unique_addrs: std::collections::HashSet<u64> = cs
            .iter()
            .flat_map(|c| c.nodes.iter().map(|n| n.addr))
            .collect();
        let inc = cs.pop().unwrap();
        let mut root = cs.pop().unwrap();
        let stats = glue_all(&mut root, &[inc], &d).unwrap();
        assert!(stats.matched_nodes > 0, "shared plane must anchor the glue");
        assert_eq!(root.n_live_nodes() as usize, unique_addrs.len());
        root.check_integrity().unwrap();
    }

    #[test]
    fn reflag_clears_interior_boundary_nodes() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 5);
        let (d, mut cs) = block_complexes(&f, 2);
        let inc = cs.pop().unwrap();
        let mut root = cs.pop().unwrap();
        glue_all(&mut root, &[inc], &d).unwrap();
        // both blocks merged: complex covers the whole domain, so no node
        // may remain flagged boundary
        assert!(
            root.nodes.iter().filter(|n| n.alive).all(|n| !n.boundary),
            "full merge leaves no boundary nodes"
        );
    }

    #[test]
    fn partial_merge_keeps_outer_boundary() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 5);
        let (d, cs) = block_complexes(&f, 4);
        let mut root = cs[0].clone();
        glue_all(&mut root, &[cs[1].clone()], &d).unwrap();
        assert_eq!(root.member_blocks.len(), 2);
        // nodes shared with blocks 2/3 must stay boundary
        let still_boundary = root.nodes.iter().filter(|n| n.alive && n.boundary).count();
        assert!(still_boundary > 0, "faces to unmerged blocks stay boundary");
    }

    #[test]
    fn uncompacted_incoming_glues_like_its_compaction() {
        // a member on its root's rank arrives live, with the tombstones
        // of its simplification: gluing it must give the bytes of gluing
        // its compacted form
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 8);
        let (d, mut cs) = block_complexes(&f, 2);
        let mut loose = cs.pop().unwrap();
        let root = cs.pop().unwrap();
        simplify(&mut loose, SimplifyParams::up_to(0.2)).unwrap();
        assert!(loose.nodes.iter().any(|n| !n.alive), "no tombstones");
        let mut packed = loose.clone();
        packed.compact();
        let glued = |inc: &MsComplex| {
            let mut r = root.clone();
            glue_all(&mut r, std::slice::from_ref(inc), &d).unwrap();
            r.compact();
            wire::serialize(&r)
        };
        assert_eq!(glued(&loose), glued(&packed));
    }

    #[test]
    fn domain_mismatch_is_a_typed_error() {
        let a = msp_synth::white_noise(Dims::new(9, 9, 9), 1);
        let b = msp_synth::white_noise(Dims::new(9, 9, 5), 1);
        let (da, mut ca) = block_complexes(&a, 1);
        let (_db, mut cb) = block_complexes(&b, 1);
        let mut root = ca.pop().unwrap();
        let inc = cb.pop().unwrap();
        assert_eq!(glue(&mut root, &inc, &da), Err(GlueError::DomainMismatch));
    }

    /// Canonical form of a complex for equality-of-content checks:
    /// sorted live node records and sorted live arc records with fully
    /// flattened geometry (ids and storage order abstracted away).
    type CanonNodes = Vec<(u64, u8)>;
    type CanonArcs = Vec<(u64, u64, Vec<u64>)>;
    fn canon(ms: &MsComplex) -> (CanonNodes, CanonArcs) {
        let mut nodes: Vec<(u64, u8)> = ms
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| (n.addr, n.index))
            .collect();
        nodes.sort_unstable();
        let mut arcs: Vec<(u64, u64, Vec<u64>)> = ms
            .arcs
            .iter()
            .filter(|a| a.alive)
            .map(|a| {
                (
                    ms.nodes[a.upper as usize].addr,
                    ms.nodes[a.lower as usize].addr,
                    ms.flatten_geom(a.geom),
                )
            })
            .collect();
        arcs.sort_unstable();
        (nodes, arcs)
    }

    #[test]
    fn irregular_tree_glue_is_order_independent() {
        // irregular random block trees produce non-convex partially
        // merged regions and neighbours sharing only edges or
        // sub-rectangles; gluing the same set in any order must yield
        // the same complex, and it must pass integrity
        let dims = Dims::new(13, 11, 9);
        for seed in [3u64, 17, 29] {
            let f = msp_synth::white_noise(dims, seed);
            let d = Decomposition::random_tree(dims, 5, seed);
            let cs: Vec<MsComplex> = d
                .blocks()
                .iter()
                .map(|b| {
                    let (mut ms, _) =
                        build_block_complex(&f.extract_block(b), &d, TraceLimits::default());
                    ms.compact();
                    ms
                })
                .collect();
            let mut reference = None;
            for order in [
                vec![0usize, 1, 2, 3, 4],
                vec![4, 2, 0, 3, 1],
                vec![2, 4, 1, 0, 3],
            ] {
                let mut root = cs[order[0]].clone();
                let rest: Vec<MsComplex> = order[1..].iter().map(|&i| cs[i].clone()).collect();
                glue_all(&mut root, &rest, &d).unwrap();
                root.check_integrity().unwrap();
                assert!(
                    root.nodes.iter().filter(|n| n.alive).all(|n| !n.boundary),
                    "full irregular merge leaves no boundary nodes"
                );
                let c = canon(&root);
                match &reference {
                    None => reference = Some(c),
                    Some(r) => assert_eq!(r, &c, "seed {seed}, order {order:?}"),
                }
            }
        }
    }

    #[test]
    fn glued_and_serial_agree_after_full_simplification() {
        // The paper's stability property (§V-A): significant features
        // survive blocking. Use a clean two-bump field: after a full merge
        // and matching simplification, the parallel complex must show the
        // same significant maxima as the serial one.
        let dims = Dims::new(17, 9, 9);
        let f = ScalarField::from_fn(dims, |x, y, z| {
            let b = |cx: f32| {
                (-((x as f32 - cx).powi(2) + (y as f32 - 4.0).powi(2) + (z as f32 - 4.0).powi(2))
                    / 6.0)
                    .exp()
            };
            b(4.0) + b(12.0) + 0.001 * msp_synth::basic::hash_unit(3, dims.vertex_index(x, y, z))
        });
        // serial
        let d1 = Decomposition::bisect(dims, 1);
        let (mut serial, _) =
            build_block_complex(&f.extract_block(d1.block(0)), &d1, TraceLimits::default());
        simplify(&mut serial, SimplifyParams::up_to(0.05)).unwrap();
        // parallel: 4 blocks, glue all, then simplify at the same level
        let (d4, mut cs) = block_complexes(&f, 4);
        let mut root = cs.remove(0);
        let rest = std::mem::take(&mut cs);
        glue_all(&mut root, &rest, &d4).unwrap();
        simplify(&mut root, SimplifyParams::up_to(0.05)).unwrap();
        assert_eq!(
            root.node_census()[3],
            serial.node_census()[3],
            "stable maxima must agree (serial {:?} vs parallel {:?})",
            serial.node_census(),
            root.node_census()
        );
        root.check_integrity().unwrap();
    }
}
