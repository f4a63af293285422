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
//! The incoming complex is either held in memory ([`glue`]) or still in
//! the MSC3 bytes it arrived as ([`glue_from_wire`]); one set of rules,
//! written against either source, decides both, and the one geometry
//! walker (`skeleton::GeomWalk`) reads either's records to test and copy
//! arc paths. Either complex may hold tombstones: the pipeline never
//! compacts a root in the merge, and a member on its root's rank arrives
//! live. Gluing skips dead nodes and arcs and copies the live arcs'
//! geometry in the order compacting first would give, so the glued
//! complex serializes to the same bytes either way; a payload holds a
//! compaction already.
//!
//! Malformed inputs (mismatched domains, address collisions at different
//! Morse indices) are reported as [`GlueError`]s instead of panicking, so
//! a corrupted peer complex arriving over the wire cannot take the rank
//! down.

use crate::skeleton::{GeomId, GeomSource, GeomWalk, MsComplex, Node, NodeId};
use crate::wire::{Payload, WireError};
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
    /// The incoming payload is not a well-formed MSC3 complex
    /// ([`glue_from_wire`]); the root is unchanged.
    Wire(WireError),
    /// The two complexes disagree on the refined dims of the full
    /// dataset — their global addresses are not comparable.
    DomainMismatch,
    /// Both complexes hold a node at the same global address but with
    /// different Morse indices — the gradients disagreed on a shared
    /// face.
    IndexMismatch { addr: u64, root: u8, incoming: u8 },
    /// The incoming complex holds two nodes at one address (only a
    /// payload can).
    DuplicateNode { addr: u64 },
    /// A node, or a cell of a path the duplicate rule reads, lies outside
    /// the refined grid.
    OutsideDomain { addr: u64 },
    /// An arc whose V-path lies entirely inside the root's covered
    /// region is missing from the root, contradicting the
    /// boundary-identical-gradient contract.
    MissingSharedArc { upper: u64, lower: u64 },
}

impl fmt::Display for GlueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlueError::Wire(e) => write!(f, "incoming payload: {e}"),
            GlueError::DomainMismatch => write!(f, "complexes do not share a refined domain"),
            GlueError::IndexMismatch {
                addr,
                root,
                incoming,
            } => write!(
                f,
                "node at address {addr} has index {root} in the root but {incoming} incoming"
            ),
            GlueError::DuplicateNode { addr } => {
                write!(f, "incoming complex holds two nodes at address {addr}")
            }
            GlueError::OutsideDomain { addr } => {
                write!(f, "incoming address {addr} lies outside the domain")
            }
            GlueError::MissingSharedArc { upper, lower } => write!(
                f,
                "shared-face arc {upper} -> {lower} missing from the root"
            ),
        }
    }
}

impl std::error::Error for GlueError {}

/// What gluing reads of an incoming complex, held in memory or still in
/// its MSC3 bytes (`wire::Payload`): the glue rules are written once,
/// against this, and its geometry records against [`GeomSource`].
pub(crate) trait Incoming: GeomSource {
    fn member_blocks(&self) -> &[u32];
    /// Every node record in id order, dead ones included.
    fn nodes(&self) -> impl Iterator<Item = Node>;
    /// The live arcs' `[upper, lower, geom]`, in id order.
    fn arcs(&self) -> impl Iterator<Item = [u32; 3]>;
}

impl Incoming for MsComplex {
    fn member_blocks(&self) -> &[u32] {
        &self.member_blocks
    }

    fn nodes(&self) -> impl Iterator<Item = Node> {
        self.nodes.iter().copied()
    }

    fn arcs(&self) -> impl Iterator<Item = [u32; 3]> {
        let live = self.arcs.iter().filter(|a| a.alive);
        live.map(|a| [a.upper, a.lower, a.geom])
    }
}

/// True when every cell of the V-path geometry `g` (decoded in place
/// from `incoming`) lies inside the region covered by the blocks in
/// `members`. This is the generalized-glue duplicate test: the gradient
/// is computed identically everywhere two groups' regions overlap, so a
/// path confined to the overlap was traced by both sides. A cell outside
/// the refined grid is an error.
fn path_in_region(
    walk: &mut GeomWalk,
    incoming: &impl Incoming,
    g: GeomId,
    decomp: &Decomposition,
    members: &[u32],
) -> Result<bool, GlueError> {
    let refined = incoming.refined();
    let mut outside = None;
    let mut covered = |addr: u64| {
        if addr >= refined.len() {
            outside = Some(addr);
            return false;
        }
        let c = RCoord::from_address(addr, &refined);
        decomp
            .owners(c)
            .as_slice()
            .iter()
            .any(|id| members.contains(id))
    };
    let inside = walk.leaves(incoming, g, |leaf, _| {
        leaf.cells(&refined).all(&mut covered)
    });
    match outside {
        Some(addr) => Err(GlueError::OutsideDomain { addr }),
        None => Ok(inside),
    }
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
    glue_incoming(root, incoming, decomp)
}

/// [`glue`] of the complex serialized in `payload`, read straight from
/// its bytes: its nodes are matched against the root's index and its
/// geometry is copied out of the payload, and its own index, adjacency
/// and geometry arena are never built. Gives the root and the
/// [`GlueStats`] of `glue(root, &wire::deserialize(payload)?, decomp)`.
///
/// A payload [`deserialize`](crate::wire::deserialize) refuses is a
/// [`GlueError::Wire`] (the root untouched), and one holding two nodes
/// at an address a [`GlueError::DuplicateNode`].
pub fn glue_from_wire(
    root: &mut MsComplex,
    payload: &[u8],
    decomp: &Decomposition,
) -> Result<GlueStats, GlueError> {
    let incoming = Payload::parse(payload).map_err(GlueError::Wire)?;
    glue_incoming(root, &incoming, decomp)
}

/// The glue rules, for either source: node matching with the index
/// check, the shared-arc duplicate rule and the member-set merge.
fn glue_incoming(
    root: &mut MsComplex,
    incoming: &impl Incoming,
    decomp: &Decomposition,
) -> Result<GlueStats, GlueError> {
    if root.refined != incoming.refined() {
        return Err(GlueError::DomainMismatch);
    }
    let mut stats = GlueStats::default();

    // map incoming node id -> (root node id, was it a shared match); a
    // dead node maps nowhere, since no live arc names it. Matching is by
    // global address alone: only shared-boundary critical cells can
    // collide (interior cells are unique to a block). A match with a
    // node this glue added, or a second match with one root node, is an
    // address the incoming complex holds twice.
    let first_added = root.nodes.len() as NodeId;
    let mut matched = Vec::new();
    let nodes = incoming.nodes();
    let mut node_map: Vec<(NodeId, bool)> = Vec::with_capacity(nodes.size_hint().0);
    for n in nodes {
        if !n.alive {
            node_map.push((NodeId::MAX, false));
            continue;
        }
        if n.addr >= root.refined.len() {
            return Err(GlueError::OutsideDomain { addr: n.addr });
        }
        let (id, shared) = root.node_at_or_add(n.addr, n.index, n.value, n.boundary);
        if !shared {
            stats.added_nodes += 1;
            node_map.push((id, false));
            continue;
        }
        if id >= first_added {
            return Err(GlueError::DuplicateNode { addr: n.addr });
        }
        let root_index = root.nodes[id as usize].index;
        if root_index != n.index {
            return Err(GlueError::IndexMismatch {
                addr: n.addr,
                root: root_index,
                incoming: n.index,
            });
        }
        stats.matched_nodes += 1;
        matched.push(id);
        node_map.push((id, true));
    }
    matched.sort_unstable();
    if let Some(w) = matched.windows(2).find(|w| w[0] == w[1]) {
        let addr = root.nodes[w[0] as usize].addr;
        return Err(GlueError::DuplicateNode { addr });
    }

    // room for every incoming arc on both ends' lists, so no list moves
    // more than once (a skipped shared arc leaves its room unused)
    let mut room = vec![0u32; root.nodes.len()];
    for [upper, lower, _] in incoming.arcs() {
        room[node_map[upper as usize].0 as usize] += 1;
        room[node_map[lower as usize].0 as usize] += 1;
    }
    root.reserve_incidence((0..).zip(room));

    let mut walk = GeomWalk::default();
    for [upper, lower, geom] in incoming.arcs() {
        let (u, u_shared) = node_map[upper as usize];
        let (l, l_shared) = node_map[lower as usize];
        let members = &root.member_blocks;
        if u_shared && l_shared && path_in_region(&mut walk, incoming, geom, decomp, members)? {
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
        let g = walk.copy_into(incoming, geom, root);
        root.add_arc(u, l, g);
        stats.added_arcs += 1;
    }

    // merged member set
    let mut members = root.member_blocks.clone();
    members.extend_from_slice(incoming.member_blocks());
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
    use crate::wire::{self, WireError};
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

    /// Glue `members` onto copies of `root` one at a time, from memory
    /// and from their bytes: the stats of every step and the glued root's
    /// bytes must agree.
    fn assert_wire_glue_agrees(root: &MsComplex, members: &[MsComplex], d: &Decomposition) {
        let (mut live, mut wired) = (root.clone(), root.clone());
        for m in members {
            let want = glue(&mut live, m, d).unwrap();
            let got = glue_from_wire(&mut wired, &wire::serialize(m), d).unwrap();
            assert_eq!(got, want);
        }
        wired.check_integrity().unwrap();
        assert_eq!(wired.member_blocks, live.member_blocks);
        assert_eq!(wire::serialize(&wired), wire::serialize(&live));
    }

    #[test]
    fn glue_from_wire_equals_glue_of_the_decoded_member() {
        // uniform bisection, compacted members and members and a root
        // holding the tombstones of a simplification
        let f = msp_synth::white_noise(Dims::new(9, 9, 9), 8);
        let (d, cs) = block_complexes(&f, 4);
        assert_wire_glue_agrees(&cs[0], &cs[1..], &d);
        let loose: Vec<MsComplex> = cs
            .iter()
            .map(|c| {
                let mut c = c.clone();
                simplify(&mut c, SimplifyParams::up_to(0.1)).unwrap();
                c
            })
            .collect();
        assert!(loose[1].arcs.iter().any(|a| !a.alive), "no tombstones");
        assert_wire_glue_agrees(&loose[0], &loose[1..], &d);
        // a member that has been glued and re-simplified carries cancel
        // records into the payload
        let mut pair = loose[2].clone();
        glue_all(&mut pair, &loose[3..], &d).unwrap();
        simplify(&mut pair, SimplifyParams::up_to(0.1)).unwrap();
        assert_wire_glue_agrees(&loose[0], &[loose[1].clone(), pair], &d);

        // irregular trees, where shared arcs can leave the overlap
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
                    simplify(&mut ms, SimplifyParams::up_to(0.05)).unwrap();
                    ms
                })
                .collect();
            assert_wire_glue_agrees(&cs[0], &cs[1..], &d);
            assert_wire_glue_agrees(&cs[4], &cs[..4], &d);
        }
    }

    #[test]
    fn hostile_payloads_never_panic() {
        let f = msp_synth::white_noise(Dims::cube(6), 4);
        let (d, cs) = block_complexes(&f, 2);
        let mut simplified = cs[1].clone();
        simplify(&mut simplified, SimplifyParams::up_to(0.3)).unwrap();
        for member in [&cs[1], &simplified] {
            let bytes = wire::serialize(member).to_vec();
            let glue_onto = |payload: &[u8]| {
                let mut root = cs[0].clone();
                glue_from_wire(&mut root, payload, &d).map(|_| root)
            };
            glue_onto(&bytes).unwrap();
            for cut in 0..bytes.len() {
                let err = glue_onto(&bytes[..cut]).unwrap_err();
                let want = if cut < 4 {
                    WireError::BadMagic
                } else {
                    WireError::Truncated
                };
                assert_eq!(err, GlueError::Wire(want), "prefix {cut}");
            }
            let mut flipped = bytes.clone();
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    flipped[at] ^= 1 << bit;
                    if let Ok(mut root) = glue_onto(&flipped) {
                        root.check_integrity()
                            .unwrap_or_else(|e| panic!("byte {at} bit {bit}: {e}"));
                        root.compact();
                        for a in &root.arcs {
                            root.flatten_geom(a.geom);
                        }
                    }
                    flipped[at] ^= 1 << bit;
                }
            }
        }
        // a short payload of nested cancel records that would decode to
        // 86,093,442 cells
        let nested = wire::tests::nested_cancels(cs[0].refined, &[1, 0], 16, wire::tests::tripled);
        let bytes = wire::serialize(&nested);
        let mut root = cs[0].clone();
        assert!(matches!(
            glue_from_wire(&mut root, &bytes, &d),
            Err(GlueError::Wire(WireError::Corrupt(_)))
        ));
    }

    #[test]
    fn a_payload_holding_an_address_twice_is_refused() {
        let f = msp_synth::white_noise(Dims::new(9, 9, 9), 31);
        let (d, cs) = block_complexes(&f, 2);
        let (root, member) = (&cs[0], &cs[1]);
        let bytes = wire::serialize(member).to_vec();
        let nodes_at = 32 + 4 * member.member_blocks.len() + 4;
        // node `to` takes node `from`'s address (same Morse index)
        let copy_addr = |from: usize, to: usize| {
            let mut b = bytes.clone();
            let addr = member.nodes[from].addr.to_le_bytes();
            b[nodes_at + 14 * to..][..8].copy_from_slice(&addr);
            assert_eq!(
                wire::deserialize(&b).unwrap_err(),
                WireError::Corrupt("duplicate node address")
            );
            let addr = member.nodes[from].addr;
            let mut r = root.clone();
            assert_eq!(
                glue_from_wire(&mut r, &b, &d),
                Err(GlueError::DuplicateNode { addr })
            );
        };
        let shared = |i: usize| root.node_at(member.nodes[i].addr).is_some();
        let pair = |want_shared: bool| {
            let n = member.nodes.len();
            (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .find(|&(i, j)| {
                    member.nodes[i].index == member.nodes[j].index
                        && shared(i) == want_shared
                        && !shared(j)
                })
                .expect("a pair of nodes")
        };
        // twice new to the root, then twice matching one root node
        let (i, j) = pair(false);
        copy_addr(i, j);
        let (i, j) = pair(true);
        copy_addr(i, j);
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
