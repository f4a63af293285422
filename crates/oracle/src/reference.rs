//! Naive reference implementation of the discrete gradient and of
//! V-path enumeration.
//!
//! This is the oracle the production path is diffed against, so it is
//! written for obviousness, not speed:
//!
//! * the lower star of every vertex is recollected from the full 27-cell
//!   neighbourhood, with owner sets always taken from the decomposition
//!   (no interior fast path);
//! * homotopy expansion is the literal textbook rule, re-derived from
//!   scratch each step: *if any unassigned cell has exactly one
//!   unassigned facet in its owner group, pair the smallest such cell
//!   (by simulation-of-simplicity key) with that facet; otherwise the
//!   smallest unassigned cell is critical*. No priority queues, no
//!   incremental facet counts;
//! * the facet relation is derived from vertex-set inclusion, not from
//!   coordinate parity tricks;
//! * V-paths are enumerated by plain recursion, collecting whole paths.
//!
//! Equivalence with the production expansion (`msp-morse`'s flat kernel
//! pairs the minimum-key eligible cell, else marks the minimum-key
//! unassigned cell critical) follows from the key order: a facet's
//! vertex set is a strict subset of its cofacet's, so a facet's SoS key
//! is strictly smaller — hence the smallest unassigned cell of a group
//! never has unassigned facets, and the production critical step always
//! coincides with this rule.

use msp_grid::decomp::{Decomposition, OwnerSet};
use msp_grid::dims::RefinedDims;
use msp_grid::field::{BlockField, CellKey};
use msp_grid::topology::{facets, RBox};
use msp_grid::RCoord;
use msp_morse::gradient::GradientField;
use msp_morse::ArcStore;

/// True when `f` is a facet of `c`: one dimension lower and every vertex
/// of `f` is a vertex of `c`.
fn is_facet(f: RCoord, c: RCoord) -> bool {
    if f.cell_dim() + 1 != c.cell_dim() {
        return false;
    }
    let cv: Vec<RCoord> = c.vertices().collect();
    f.vertices().all(|v| cv.contains(&v))
}

/// Compute the discrete gradient of one block by exhaustive lower-star
/// expansion. Bit-for-bit equal to `msp_morse::assign_gradient` by
/// construction (see module docs); the conformance and fuzz suites
/// assert it.
pub fn reference_gradient(field: &BlockField, decomp: &Decomposition) -> GradientField {
    let block = *field.block();
    let bbox = block.refined_box();
    let mut grad = GradientField::new(bbox);
    for z in block.lo[2]..=block.hi[2] {
        for y in block.lo[1]..=block.hi[1] {
            for x in block.lo[0]..=block.hi[0] {
                expand_lower_star(field, decomp, &bbox, RCoord::of_vertex(x, y, z), &mut grad);
            }
        }
    }
    grad
}

fn expand_lower_star(
    field: &BlockField,
    decomp: &Decomposition,
    bbox: &RBox,
    rv: RCoord,
    grad: &mut GradientField,
) {
    let vkey = field.vertex_key(rv);

    // The lower star: every cell of the 27-neighbourhood (within the
    // block box) whose SoS-maximal vertex is rv.
    let mut cells: Vec<(RCoord, CellKey, OwnerSet)> = Vec::new();
    for dz in -1i64..=1 {
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (cx, cy, cz) = (rv.x as i64 + dx, rv.y as i64 + dy, rv.z as i64 + dz);
                if cx < 0 || cy < 0 || cz < 0 {
                    continue;
                }
                let c = RCoord::new(cx as u32, cy as u32, cz as u32);
                if !bbox.contains(c) {
                    continue;
                }
                let key = field.cell_key(c);
                if key.max_vertex() != vkey {
                    continue;
                }
                cells.push((c, key, decomp.owners(c)));
            }
        }
    }

    let mut assigned = vec![false; cells.len()];
    loop {
        // Pairing step: among unassigned cells having exactly one
        // unassigned same-owner facet in the star, take the smallest.
        let mut best: Option<(usize, usize)> = None; // (cell, its facet)
        for i in 0..cells.len() {
            if assigned[i] {
                continue;
            }
            let fs: Vec<usize> = (0..cells.len())
                .filter(|&j| {
                    !assigned[j] && cells[j].2 == cells[i].2 && is_facet(cells[j].0, cells[i].0)
                })
                .collect();
            if fs.len() == 1 && best.is_none_or(|(b, _)| cells[i].1.cmp(&cells[b].1).is_lt()) {
                best = Some((i, fs[0]));
            }
        }
        if let Some((i, j)) = best {
            grad.pair(cells[j].0, cells[i].0);
            assigned[i] = true;
            assigned[j] = true;
            continue;
        }
        // Critical step: the smallest unassigned cell overall.
        let Some(i) = (0..cells.len())
            .filter(|&i| !assigned[i])
            .min_by(|&a, &b| cells[a].1.cmp(&cells[b].1))
        else {
            break;
        };
        grad.mark_critical(cells[i].0);
        assigned[i] = true;
    }
}

/// One enumerated arc in canonical (address) form: the V-path from a
/// critical `upper` cell of index d down to a critical `lower` cell of
/// index d−1, with the full path as addresses on the refined grid of
/// the whole dataset.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefArc {
    pub upper: u64,
    pub lower: u64,
    pub geom: Vec<u64>,
}

/// Enumerate every descending V-path between critical cells by plain
/// recursion, sorted canonically. The path multiset (same arc traced
/// along distinct paths appears once per path) matches what
/// `msp_morse::trace_all_arcs` produces.
pub fn reference_arcs(grad: &GradientField, refined: &RefinedDims) -> Vec<RefArc> {
    let bbox = *grad.bbox();
    let mut out = Vec::new();
    for c in grad.critical_cells() {
        if c.cell_dim() == 0 {
            continue;
        }
        let mut path = vec![c];
        for (_, f) in facets(c, &bbox) {
            descend(grad, &bbox, refined, c, f, &mut path, &mut out);
        }
    }
    out.sort();
    out
}

fn descend(
    grad: &GradientField,
    bbox: &RBox,
    refined: &RefinedDims,
    from: RCoord,
    alpha: RCoord,
    path: &mut Vec<RCoord>,
    out: &mut Vec<RefArc>,
) {
    path.push(alpha);
    if grad.is_critical(alpha) {
        out.push(RefArc {
            upper: from.address(refined),
            lower: alpha.address(refined),
            geom: path.iter().map(|c| c.address(refined)).collect(),
        });
    } else if grad.is_tail(alpha) {
        let beta = grad.partner(alpha).expect("tail has a partner");
        // paired upward out of the tracing dimension: flow stops
        if beta.cell_dim() == from.cell_dim() {
            path.push(beta);
            for (_, f2) in facets(beta, bbox) {
                if f2 != alpha {
                    descend(grad, bbox, refined, from, f2, path, out);
                }
            }
            path.pop();
        }
    }
    // head cells end the flow: nothing to do
    path.pop();
}

/// The arcs of a production [`ArcStore`] in the same canonical form as
/// [`reference_arcs`], for multiset diffing.
pub fn arcs_of_store(store: &ArcStore, refined: &RefinedDims) -> Vec<RefArc> {
    let mut out: Vec<RefArc> = store
        .iter()
        .map(|a| RefArc {
            upper: a.upper.address(refined),
            lower: a.lower.address(refined),
            geom: a.geom.iter().map(|c| c.address(refined)).collect(),
        })
        .collect();
    out.sort();
    out
}

/// Byte-level diff of two gradient fields over the same box. Returns a
/// human-readable description of the first few mismatches, or `None`
/// when identical.
pub fn diff_gradient(got: &GradientField, want: &GradientField) -> Option<String> {
    if got.bbox() != want.bbox() {
        return Some(format!(
            "gradient boxes differ: {:?} vs {:?}",
            got.bbox(),
            want.bbox()
        ));
    }
    let mut mismatches = 0u64;
    let mut first = String::new();
    for c in got.bbox().iter() {
        if got.raw(c) != want.raw(c) {
            if mismatches < 4 {
                first.push_str(&format!(
                    " [{},{},{}] got {:#04x} want {:#04x}",
                    c.x,
                    c.y,
                    c.z,
                    got.raw(c),
                    want.raw(c)
                ));
            }
            mismatches += 1;
        }
    }
    (mismatches > 0).then(|| format!("{mismatches} gradient byte(s) differ:{first}"))
}

/// Multiset diff of two canonically-sorted arc lists. Returns a
/// description of the symmetric difference, or `None` when equal.
pub fn diff_arcs(got: &[RefArc], want: &[RefArc]) -> Option<String> {
    if got == want {
        return None;
    }
    let mut only_got = 0u64;
    let mut only_want = 0u64;
    let mut sample = String::new();
    let (mut i, mut j) = (0, 0);
    while i < got.len() || j < want.len() {
        let side = match (got.get(i), want.get(j)) {
            (Some(a), Some(b)) => a.cmp(b),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => break,
        };
        match side {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                if only_got + only_want < 3 {
                    sample.push_str(&format!(" +{:?}", got[i]));
                }
                only_got += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if only_got + only_want < 3 {
                    sample.push_str(&format!(" -{:?}", want[j]));
                }
                only_want += 1;
                j += 1;
            }
        }
    }
    Some(format!(
        "arc multisets differ: {only_got} unexpected, {only_want} missing ({} vs {} total):{sample}",
        got.len(),
        want.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::{Dims, ScalarField};
    use msp_morse::{assign_gradient, assign_gradient_par, trace_all_arcs, TraceLimits};

    /// Every block of `f` under `d`: the production gradient on each of
    /// `threads` slabs equals the reference byte for byte.
    fn assert_matches(f: &ScalarField, d: &Decomposition, threads: &[usize], what: &str) {
        for b in d.blocks() {
            let bf = f.extract_block(b);
            let want = reference_gradient(&bf, d);
            for &t in threads {
                let got = assign_gradient_par(&bf, d, t);
                assert_eq!(
                    diff_gradient(&got, &want),
                    None,
                    "{what}: block {} threads {t}",
                    b.id
                );
            }
        }
    }

    /// A smooth field with long V-paths.
    fn sin_cos(dims: Dims) -> ScalarField {
        ScalarField::from_fn(dims, |x, y, z| {
            (x as f32 * 0.7).sin() + (y as f32 * 0.5).cos() + (z as f32 * 0.9).sin()
        })
    }

    /// Random trees and weight-steered splits of `f`'s domain. Unlike
    /// `bisect` they make T-junctions, where one owner walk per boundary
    /// vertex could part from one walk per cell.
    fn irregular(f: &ScalarField, seed: u64) -> Vec<Decomposition> {
        let dims = f.dims();
        let weights: Vec<u64> = f.data().iter().map(|v| 1 + (v * 40.0) as u64).collect();
        let mut decomps: Vec<Decomposition> = (2..12)
            .map(|n| Decomposition::random_tree(dims, n, seed + n as u64))
            .collect();
        decomps.extend([3, 6, 9].map(|n| Decomposition::adaptive(dims, n, &weights)));
        decomps
    }

    #[test]
    fn reference_matches_production_on_noise() {
        // the last two are degenerate: a 2D slab and a one-cell-thick
        // column, where the clip masks must kill whole axes
        for (dims, seed) in [
            (Dims::new(6, 6, 6), 1u64),
            (Dims::new(7, 5, 6), 99),
            (Dims::new(5, 8, 5), 1234),
            (Dims::new(6, 5, 1), 31),
            (Dims::new(2, 7, 6), 31),
        ] {
            let f = msp_synth::white_noise(dims, seed);
            let d = Decomposition::bisect(dims, 1);
            assert_matches(&f, &d, &[1, 4], &format!("noise {dims:?}"));
        }
    }

    #[test]
    fn reference_matches_production_on_blocks() {
        let cube = Dims::new(9, 9, 9);
        let noise = msp_synth::white_noise(cube, 7);
        assert_matches(&noise, &Decomposition::bisect(cube, 4), &[1], "noise 9^3");
        // noise, a quantized stair field and a smooth sinusoid under
        // every slab split
        let dims = Dims::new(9, 8, 7);
        let d = Decomposition::bisect(dims, 4);
        for (what, f) in [
            ("noise", msp_synth::white_noise(dims, 173)),
            (
                "stairs",
                ScalarField::from_fn(dims, |x, y, z| ((x / 3 + y / 2 + z / 3) % 3) as f32),
            ),
            ("sinusoid", sin_cos(dims)),
        ] {
            assert_matches(&f, &d, &[1, 2, 3, 8], what);
        }
        let noise = msp_synth::white_noise(Dims::new(12, 10, 11), 61);
        for (i, d) in irregular(&noise, 0).iter().enumerate() {
            assert_matches(&noise, d, &[1, 3], &format!("noise, irregular tree {i}"));
        }
    }

    #[test]
    fn reference_matches_production_on_plateaus() {
        for levels in [1u32, 2, 3] {
            let dims = Dims::new(6, 7, 5);
            let f = msp_synth::plateau(dims, 5, levels);
            let d = Decomposition::bisect(dims, 2);
            assert_matches(&f, &d, &[1], &format!("levels {levels}"));
        }
        // equal values force the tie-break on top of the T-junctions
        let plateau = msp_synth::plateau(Dims::new(12, 10, 11), 62, 3);
        for (i, d) in irregular(&plateau, 100).iter().enumerate() {
            assert_matches(
                &plateau,
                d,
                &[1, 3],
                &format!("plateau, irregular tree {i}"),
            );
        }
    }

    #[test]
    fn reference_arcs_match_traced_arcs() {
        for (f, blocks) in [
            (msp_synth::white_noise(Dims::new(7, 7, 7), 21), 2u32),
            (msp_synth::white_noise(Dims::new(9, 8, 7), 7), 1),
            (msp_synth::white_noise(Dims::new(10, 10, 10), 5), 1),
            (msp_synth::white_noise(Dims::new(6, 5, 1), 13), 1),
            (sin_cos(Dims::new(9, 8, 7)), 4),
        ] {
            let refined = f.dims().refined();
            let d = Decomposition::bisect(f.dims(), blocks);
            for b in d.blocks() {
                let bf = f.extract_block(b);
                let g = assign_gradient(&bf, &d);
                let (store, _) = trace_all_arcs(&g, TraceLimits::default());
                let got = arcs_of_store(&store, &refined);
                let want = reference_arcs(&g, &refined);
                assert_eq!(
                    diff_arcs(&got, &want),
                    None,
                    "{:?} block {}",
                    f.dims(),
                    b.id
                );
            }
        }
    }

    #[test]
    fn diff_gradient_reports_an_injected_difference() {
        let dims = Dims::new(6, 6, 6);
        let f = msp_synth::white_noise(dims, 3);
        let d = Decomposition::bisect(dims, 1);
        let bf = f.extract_block(d.block(0));
        let g = reference_gradient(&bf, &d);
        let (mutated, dropped) = crate::mutate::drop_pairing(&g, 0);
        assert!(dropped.is_some());
        let msg = diff_gradient(&mutated, &g).expect("mutation must be visible");
        assert!(msg.contains("differ"), "{msg}");
    }
}
