//! Structural validity checks for discrete gradient fields.
//!
//! These are the invariants the algorithm's correctness rests on; the
//! test suites (including property-based tests over random fields) run
//! them exhaustively on small blocks.

use crate::gradient::GradientField;
use msp_grid::decomp::Decomposition;
use msp_grid::topology::facets;
use msp_grid::RCoord;
use std::collections::HashMap;

/// Everything [`check_valid`] verifies, as a machine-readable report.
#[derive(Debug, Default)]
pub struct ValidityReport {
    pub unassigned: u64,
    pub bad_pairs: Vec<(RCoord, RCoord)>,
    pub cycles: u64,
}

impl ValidityReport {
    pub fn is_ok(&self) -> bool {
        self.unassigned == 0 && self.bad_pairs.is_empty() && self.cycles == 0
    }
}

/// Check the three structural requirements of a discrete gradient field:
/// every cell assigned exactly once (paired or critical), every pair a
/// mutual facet/cofacet relation, and all V-paths acyclic.
pub fn check_valid(grad: &GradientField) -> ValidityReport {
    let mut report = ValidityReport {
        unassigned: grad.n_unassigned(),
        ..Default::default()
    };
    let bbox = *grad.bbox();
    for c in bbox.iter() {
        if let Some(p) = grad.partner(c) {
            let ok = grad.partner(p) == Some(c)
                && (grad.is_tail(c) ^ grad.is_tail(p))
                && (c.cell_dim() as i32 - p.cell_dim() as i32).abs() == 1
                && is_incident(c, p);
            if !ok {
                report.bad_pairs.push((c, p));
            }
        }
    }
    report.cycles = count_cycles(grad);
    report
}

fn is_incident(a: RCoord, b: RCoord) -> bool {
    let mut diffs = 0;
    for axis in 0..3 {
        let d = (a.get(axis) as i64 - b.get(axis) as i64).abs();
        if d > 1 {
            return false;
        }
        diffs += d;
    }
    diffs == 1
}

/// Count cells participating in cyclic V-paths (0 for a valid gradient).
///
/// For each dimension `d`, build the directed graph on tail `(d−1)`-cells
/// where `α → α'` when `α` is paired with head `β` and `α'` is another
/// facet of `β` that is also a tail of the same dimension pairing; then
/// count cells on cycles with an iterative three-colour DFS.
pub fn count_cycles(grad: &GradientField) -> u64 {
    let bbox = *grad.bbox();
    let mut cyclic = 0u64;
    for d in 1u8..=3 {
        // collect tails of dimension d-1 paired with d-cells
        let tails: Vec<RCoord> = bbox
            .iter()
            .filter(|&c| {
                c.cell_dim() == d - 1
                    && grad.is_tail(c)
                    && grad.partner(c).map(|p| p.cell_dim()) == Some(d)
            })
            .collect();
        let index: HashMap<RCoord, usize> =
            tails.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        // adjacency
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); tails.len()];
        for (i, &a) in tails.iter().enumerate() {
            let beta = grad.partner(a).unwrap();
            for (_, f) in facets(beta, &bbox) {
                if f != a {
                    if let Some(&j) = index.get(&f) {
                        adj[i].push(j);
                    }
                }
            }
        }
        // 0 = white, 1 = grey, 2 = black
        let mut color = vec![0u8; tails.len()];
        for start in 0..tails.len() {
            if color[start] != 0 {
                continue;
            }
            // iterative DFS with explicit post-processing
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(&(u, next)) = stack.last() {
                if next < adj[u].len() {
                    stack.last_mut().unwrap().1 += 1;
                    let v = adj[u][next];
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => cyclic += 1, // back edge: cycle detected
                        _ => {}
                    }
                } else {
                    color[u] = 2;
                    stack.pop();
                }
            }
        }
    }
    cyclic
}

/// Euler characteristic from the critical-cell census:
/// `χ = c₀ − c₁ + c₂ − c₃`. For a gradient on a solid box this must be 1
/// (the box is contractible), by the Morse equalities.
pub fn euler_characteristic(grad: &GradientField) -> i64 {
    let c = grad.census();
    c[0] as i64 - c[1] as i64 + c[2] as i64 - c[3] as i64
}

/// Verify that two blocks' gradients carry identical bytes on every
/// shared refined coordinate — the property that makes gluing possible.
pub fn boundary_consistent(a: &GradientField, b: &GradientField) -> bool {
    let (ba, bb) = (*a.bbox(), *b.bbox());
    ba.iter()
        .filter(|c| bb.contains(*c))
        .all(|c| a.raw(c) == b.raw(c))
}

/// Verify the paper's pairing restriction: every pair's two cells have
/// equal owner sets under `decomp`.
pub fn pairs_respect_owners(grad: &GradientField, decomp: &Decomposition) -> bool {
    grad.bbox().iter().all(|c| match grad.partner(c) {
        Some(p) => decomp.owners(c) == decomp.owners(p),
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_star::assign_gradient;
    use msp_grid::Dims;

    #[test]
    fn valid_on_noise() {
        let dims = Dims::new(8, 7, 6);
        let f = msp_synth::white_noise(dims, 31);
        let d = Decomposition::bisect(dims, 1);
        let g = assign_gradient(&f.extract_block(d.block(0)), &d);
        let report = check_valid(&g);
        assert!(report.is_ok(), "{:?}", report);
        assert_eq!(euler_characteristic(&g), 1);
    }

    #[test]
    fn valid_on_blocked_noise() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 8);
        let d = Decomposition::bisect(dims, 8);
        for b in d.blocks() {
            let g = assign_gradient(&f.extract_block(b), &d);
            let report = check_valid(&g);
            assert!(report.is_ok(), "block {}: {:?}", b.id, report);
            assert_eq!(euler_characteristic(&g), 1, "block {} chi", b.id);
            assert!(pairs_respect_owners(&g, &d));
        }
    }

    #[test]
    fn blocked_run_produces_boundary_artifacts() {
        // the restriction inevitably creates spurious critical cells on
        // shared faces ("necessary handles for gluing", paper §V-A)
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 17);
        let d1 = Decomposition::bisect(dims, 1);
        let d8 = Decomposition::bisect(dims, 8);
        let serial = assign_gradient(&f.extract_block(d1.block(0)), &d1);
        let total_blocked: u64 = d8
            .blocks()
            .iter()
            .map(|b| {
                let g = assign_gradient(&f.extract_block(b), &d8);
                // count critical cells owned by this block only once:
                // attribute shared cells to the lowest owner
                g.critical_cells()
                    .iter()
                    .filter(|&&c| d8.owners(c).as_slice()[0] == b.id)
                    .count() as u64
            })
            .sum();
        let total_serial: u64 = serial.census().iter().sum();
        assert!(
            total_blocked > total_serial,
            "blocking should add spurious boundary critical cells ({} vs {})",
            total_blocked,
            total_serial
        );
    }

    #[test]
    fn cycle_detector_fires_on_manufactured_cycle() {
        use crate::gradient::GradientField;
        use msp_grid::topology::RBox;
        use msp_grid::RCoord;
        // build a tiny gradient by hand containing a rotating square of
        // edge-quad pairs: a classic V-path cycle
        let bbox = RBox::new(RCoord::new(0, 0, 0), RCoord::new(4, 4, 0));
        let mut g = GradientField::new(bbox);
        // quad ring around vertex (2,2,0): pair each edge with the next
        // quad counterclockwise
        g.pair(RCoord::new(1, 2, 0), RCoord::new(1, 1, 0));
        g.pair(RCoord::new(2, 1, 0), RCoord::new(3, 1, 0));
        g.pair(RCoord::new(3, 2, 0), RCoord::new(3, 3, 0));
        g.pair(RCoord::new(2, 3, 0), RCoord::new(1, 3, 0));
        assert!(count_cycles(&g) > 0, "the rotating ring is a V-cycle");
    }
}
