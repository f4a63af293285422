//! Invariant checking over any [`MsComplex`].
//!
//! Two tiers:
//!
//! * **Structural** ([`check_structural`]) — needs only the complex and
//!   the decomposition: storage integrity, Morse-index steps, geometry
//!   endpoints anchored at the arc's nodes, boundary flags matching the
//!   geometric block faces, and — when the member blocks tile a box —
//!   the Euler characteristic `Σ (−1)^i c_i = χ(box) = 1`.
//! * **Semantic** ([`check_semantic`]) — additionally needs the scalar
//!   data of the member blocks. A reference gradient (crate
//!   [`reference`](crate::reference)) is built for the union of the
//!   members; then every node must be a critical cell of it (right
//!   index, right value), every boundary critical cell must still be a
//!   live node (simplification never cancels boundary nodes), every
//!   traced (leaf) arc geometry must be a valid V-path of the gradient,
//!   and the alternating node census must equal the alternating critical
//!   census — the Euler identity that holds for *any* member shape, box
//!   or not, because cancellations remove one critical cell in each of
//!   two adjacent dimensions.
//!
//! Violations are *counted* per invariant class (so they can feed
//! telemetry counters and a nonzero count can fail CI) and described in
//! a bounded list of notes; the checker itself never panics on a broken
//! complex.

use crate::reference::reference_gradient;
use msp_complex::glue::glue;
use msp_complex::MsComplex;
use msp_grid::field::BlockField;
use msp_grid::topology::RBox;
use msp_grid::{Decomposition, RCoord, ScalarField};
use msp_morse::gradient::GradientField;
use std::collections::HashSet;

/// Knobs for the checker.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Semantic checks rebuild a reference gradient over the union of
    /// the member blocks; skip them (reporting `semantic = false`) when
    /// the union's refined box has more cells than this.
    pub semantic_cell_limit: u64,
    /// At most this many human-readable violation notes are kept.
    pub max_notes: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            semantic_cell_limit: 2_000_000,
            max_notes: 8,
        }
    }
}

/// Violation counts per invariant class, plus bounded descriptions.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Storage integrity, index steps, geometry endpoints, node-vs-
    /// reference criticality/index/value.
    pub structural: u64,
    /// Euler-characteristic violations (box χ = 1 and census-vs-
    /// reference alternating sums).
    pub euler: u64,
    /// Boundary-flag mismatches and cancelled boundary nodes.
    pub boundary: u64,
    /// Arc geometries that are not valid V-paths of the gradient.
    pub vpath: u64,
    /// Segmentation violations (malformed label tables, labels that
    /// change along a V-path, representatives that are not live critical
    /// cells of the covering complex); see
    /// [`segcheck`](crate::segcheck).
    pub segment: u64,
    /// True when the semantic tier actually ran (fields available and
    /// within the cell limit).
    pub semantic: bool,
    /// Bounded human-readable descriptions of the violations.
    pub notes: Vec<String>,
}

impl InvariantReport {
    /// Total violations across all classes.
    pub fn total(&self) -> u64 {
        self.structural + self.euler + self.boundary + self.vpath + self.segment
    }

    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    pub(crate) fn note(&mut self, opts: &CheckOptions, msg: String) {
        if self.notes.len() < opts.max_notes {
            self.notes.push(msg);
        }
    }
}

fn alternating(census: [u64; 4]) -> i64 {
    census[0] as i64 - census[1] as i64 + census[2] as i64 - census[3] as i64
}

/// The refined bounding box of the complex's member blocks.
fn member_bounds(ms: &MsComplex, decomp: &Decomposition) -> Option<RBox> {
    let mut boxes = ms
        .member_blocks
        .iter()
        .map(|&b| decomp.block(b).refined_box());
    let first = boxes.next()?;
    let (mut lo, mut hi) = (first.lo, first.hi);
    for b in boxes {
        for a in 0..3 {
            lo = lo.with(a, lo.get(a).min(b.lo.get(a)));
            hi = hi.with(a, hi.get(a).max(b.hi.get(a)));
        }
    }
    Some(RBox::new(lo, hi))
}

/// Structural checks: no scalar data needed.
pub fn check_structural(
    ms: &MsComplex,
    decomp: &Decomposition,
    opts: &CheckOptions,
    report: &mut InvariantReport,
) {
    if let Err(e) = ms.check_integrity() {
        report.structural += 1;
        report.note(opts, format!("integrity: {e}"));
    }

    let members: HashSet<u32> = ms.member_blocks.iter().copied().collect();
    for (id, n) in ms.nodes.iter().enumerate() {
        if !n.alive {
            continue;
        }
        if n.index > 3 {
            report.structural += 1;
            report.note(opts, format!("node {id} has Morse index {}", n.index));
            continue;
        }
        let c = RCoord::from_address(n.addr, &ms.refined);
        if c.cell_dim() != n.index {
            report.structural += 1;
            report.note(
                opts,
                format!(
                    "node {id} at {:?} has cell dim {} but index {}",
                    c,
                    c.cell_dim(),
                    n.index
                ),
            );
        }
        // boundary flag == "shared with a block outside the members"
        let expect = decomp
            .owners(c)
            .as_slice()
            .iter()
            .any(|b| !members.contains(b));
        if n.boundary != expect {
            report.boundary += 1;
            report.note(
                opts,
                format!(
                    "node {id} at {:?}: boundary flag {} but geometric boundary {}",
                    c, n.boundary, expect
                ),
            );
        }
    }

    // arc geometry endpoints anchor at the arc's nodes
    for (aid, a) in ms.arcs.iter().enumerate() {
        if !a.alive {
            continue;
        }
        let geom = ms.flatten_geom(a.geom);
        let (u, l) = (
            ms.nodes[a.upper as usize].addr,
            ms.nodes[a.lower as usize].addr,
        );
        if geom.first() != Some(&u) || geom.last() != Some(&l) {
            report.structural += 1;
            report.note(
                opts,
                format!("arc {aid}: geometry endpoints do not match its nodes"),
            );
        }
    }

    // Euler characteristic when the members tile a box: χ = 1.
    if let Some(bounds) = member_bounds(ms, decomp) {
        let tiles_box = bounds.len() <= opts.semantic_cell_limit
            && bounds.iter().all(|c| {
                ms.member_blocks
                    .iter()
                    .any(|&b| decomp.block(b).refined_box().contains(c))
            });
        if tiles_box {
            let chi = alternating(ms.node_census());
            if chi != 1 {
                report.euler += 1;
                report.note(
                    opts,
                    format!(
                        "members tile a box but χ = {chi} (census {:?})",
                        ms.node_census()
                    ),
                );
            }
        }
    }
}

/// Semantic checks against the scalar data of the member blocks.
/// `fields` must hold exactly the member blocks (any order); extra
/// blocks are ignored, missing ones skip their checks.
pub fn check_semantic(
    ms: &MsComplex,
    decomp: &Decomposition,
    fields: &[BlockField],
    opts: &CheckOptions,
    report: &mut InvariantReport,
) {
    let Some(bounds) = member_bounds(ms, decomp) else {
        return;
    };
    if bounds.len() > opts.semantic_cell_limit {
        return;
    }
    let members: HashSet<u32> = ms.member_blocks.iter().copied().collect();
    let member_fields: Vec<&BlockField> = fields
        .iter()
        .filter(|f| members.contains(&f.block().id))
        .collect();
    if member_fields.is_empty() {
        return;
    }
    report.semantic = true;

    // Union reference gradient: per-member reference gradients merged
    // over the bounding box. Shared faces agree bitwise (the boundary
    // restriction), so absorb order does not matter; cells outside every
    // member stay unassigned and are ignored below.
    let mut g = GradientField::new(bounds);
    for f in &member_fields {
        g.absorb_assigned(&reference_gradient(f, decomp));
    }
    let covered = |c: RCoord| {
        member_fields
            .iter()
            .any(|f| f.block().refined_box().contains(c))
    };

    // Every live node is a critical cell of the reference gradient with
    // the matching value.
    for (id, n) in ms.nodes.iter().enumerate() {
        if !n.alive {
            continue;
        }
        let c = RCoord::from_address(n.addr, &ms.refined);
        if !bounds.contains(c) || !covered(c) {
            report.structural += 1;
            report.note(opts, format!("node {id} at {:?} outside the members", c));
            continue;
        }
        if !g.is_critical(c) {
            report.structural += 1;
            report.note(
                opts,
                format!(
                    "node {id} at {:?} is not critical in the reference gradient",
                    c
                ),
            );
        }
        let f = member_fields
            .iter()
            .find(|f| f.block().refined_box().contains(c))
            .expect("covered");
        let want = f.cell_value(c);
        if n.value.to_bits() != want.to_bits() {
            report.structural += 1;
            report.note(
                opts,
                format!(
                    "node {id} at {:?} has value {} but the field says {}",
                    c, n.value, want
                ),
            );
        }
    }

    // Simplification never cancels a boundary node: every critical cell
    // shared with a non-member block must still be a live node.
    for c in g.critical_cells() {
        let shared = decomp
            .owners(c)
            .as_slice()
            .iter()
            .any(|b| !members.contains(b));
        if !shared {
            continue;
        }
        let addr = c.address(&ms.refined);
        let live = ms
            .node_at(addr)
            .is_some_and(|id| ms.nodes[id as usize].alive);
        if !live {
            report.boundary += 1;
            report.note(
                opts,
                format!(
                    "boundary critical cell {:?} has no live node (cancelled?)",
                    c
                ),
            );
        }
    }

    // Every traced (leaf) arc geometry is a valid V-path. Cancellation
    // splices are concatenations with a reversed middle segment and are
    // checked only via their endpoints (above).
    for (aid, a) in ms.arcs.iter().enumerate() {
        if !a.alive || !ms.geom_is_leaf(a.geom) {
            continue;
        }
        if let Some(err) = vpath_error(ms, &g, a.geom, a.upper, a.lower) {
            report.vpath += 1;
            report.note(opts, format!("arc {aid}: {err}"));
        }
    }

    // Alternating censuses agree: cancellations remove one critical
    // cell in each of two adjacent dimensions, so this holds at every
    // simplification level and for any member shape.
    let chi_nodes = alternating(ms.node_census());
    let chi_grad = alternating(g.census());
    if chi_nodes != chi_grad {
        report.euler += 1;
        report.note(
            opts,
            format!("alternating node census {chi_nodes} != reference critical census {chi_grad}"),
        );
    }
}

/// Why a leaf geometry is not a valid V-path, if it is not.
fn vpath_error(
    ms: &MsComplex,
    g: &GradientField,
    geom: msp_complex::GeomId,
    upper: msp_complex::NodeId,
    lower: msp_complex::NodeId,
) -> Option<String> {
    let path: Vec<RCoord> = ms
        .flatten_geom(geom)
        .iter()
        .map(|&a| RCoord::from_address(a, &ms.refined))
        .collect();
    if path.len() < 2 || !path.len().is_multiple_of(2) {
        return Some(format!("path length {} is not even and >= 2", path.len()));
    }
    let d = path[0].cell_dim();
    if d == 0 {
        return Some("upper cell has dimension 0".into());
    }
    let u = RCoord::from_address(ms.nodes[upper as usize].addr, &ms.refined);
    let l = RCoord::from_address(ms.nodes[lower as usize].addr, &ms.refined);
    if path[0] != u || *path.last().expect("nonempty") != l {
        return Some("path endpoints are not the arc's nodes".into());
    }
    if !g.bbox().contains(u) || !g.bbox().contains(l) {
        return Some("path endpoints outside the reference gradient".into());
    }
    if !g.is_critical(u) || !g.is_critical(l) {
        return Some("an endpoint is not critical in the reference gradient".into());
    }
    for (i, c) in path.iter().enumerate() {
        let expect = if i % 2 == 0 { d } else { d - 1 };
        if c.cell_dim() != expect {
            return Some(format!(
                "cell {i} has dimension {} (want {expect}: alternation broken)",
                c.cell_dim()
            ));
        }
        if i > 0 && i + 1 < path.len() && g.is_critical(*c) {
            return Some(format!("interior cell {i} is critical"));
        }
    }
    // interior (d−1)-cells are tails paired with the next d-cell
    for (i, w) in path.windows(2).enumerate().skip(1).step_by(2) {
        if i + 1 == path.len() - 1 {
            break; // w[1] is the lower endpoint: no pairing expected
        }
        if g.partner(w[0]) != Some(w[1]) {
            return Some(format!("cells {i},{} are not a gradient pair", i + 1));
        }
    }
    None
}

/// Run all applicable checks on one complex. When `field` is given,
/// member blocks are extracted from it and the semantic tier runs too
/// (subject to the cell limit).
pub fn check_complex(
    ms: &MsComplex,
    decomp: &Decomposition,
    field: Option<&ScalarField>,
    opts: &CheckOptions,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    check_structural(ms, decomp, opts, &mut report);
    if let Some(f) = field {
        let fields: Vec<BlockField> = ms
            .member_blocks
            .iter()
            .map(|&b| f.extract_block(decomp.block(b)))
            .collect();
        check_semantic(ms, decomp, &fields, opts, &mut report);
    }
    report
}

/// An order-independent content fingerprint: sorted node tuples and
/// sorted arc tuples with fully-flattened geometry. Two complexes with
/// equal fingerprints present the same Morse-Smale 1-skeleton,
/// regardless of storage order, tombstones or geometry sharing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub nodes: Vec<(u64, u8, u32, bool)>,
    pub arcs: Vec<(u64, u64, Vec<u64>)>,
}

/// Compute the [`Fingerprint`] of the living part of a complex.
pub fn fingerprint(ms: &MsComplex) -> Fingerprint {
    let mut nodes: Vec<(u64, u8, u32, bool)> = ms
        .nodes
        .iter()
        .filter(|n| n.alive)
        .map(|n| (n.addr, n.index, n.value.to_bits(), n.boundary))
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
    Fingerprint { nodes, arcs }
}

/// Glue idempotency: gluing a complex onto (a compacted copy of) itself
/// with shared-arc deduplication must add nothing and leave the content
/// fingerprint unchanged. Returns a description of the violation, if
/// any.
pub fn check_glue_idempotent(ms: &MsComplex, decomp: &Decomposition) -> Result<(), String> {
    let mut base = ms.clone();
    base.compact();
    let mut doubled = base.clone();
    let stats = glue(&mut doubled, &base, decomp).map_err(|e| format!("self-glue failed: {e}"))?;
    if stats.added_nodes != 0 || stats.added_arcs != 0 {
        return Err(format!(
            "self-glue added {} node(s) and {} arc(s)",
            stats.added_nodes, stats.added_arcs
        ));
    }
    if fingerprint(&doubled) != fingerprint(&base) {
        return Err("self-glue changed the content fingerprint".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::drop_pairing;
    use msp_complex::{build_block_complex, complex_from_gradient, simplify, SimplifyParams};
    use msp_grid::Dims;
    use msp_morse::TraceLimits;

    fn build_all(f: &ScalarField, blocks: u32) -> (Decomposition, Vec<MsComplex>) {
        let d = Decomposition::bisect(f.dims(), blocks);
        let cs = d
            .blocks()
            .iter()
            .map(|b| build_block_complex(&f.extract_block(b), &d, TraceLimits::default()).0)
            .collect();
        (d, cs)
    }

    #[test]
    fn clean_block_complexes_pass_all_checks() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 11);
        let (d, cs) = build_all(&f, 4);
        for ms in &cs {
            let r = check_complex(ms, &d, Some(&f), &CheckOptions::default());
            assert!(r.semantic);
            assert!(r.is_clean(), "{:?}", r.notes);
            check_glue_idempotent(ms, &d).unwrap();
        }
    }

    #[test]
    fn simplified_complexes_stay_clean() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 23);
        let (d, mut cs) = build_all(&f, 2);
        for ms in &mut cs {
            simplify(ms, SimplifyParams::up_to(0.3)).unwrap();
            ms.compact();
            let r = check_complex(ms, &d, Some(&f), &CheckOptions::default());
            assert!(r.is_clean(), "{:?}", r.notes);
        }
    }

    #[test]
    fn glued_complex_stays_clean() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 29);
        let (d, mut cs) = build_all(&f, 4);
        for ms in &mut cs {
            ms.compact();
        }
        let mut root = cs.remove(0);
        msp_complex::glue::glue_all(&mut root, &cs, &d).unwrap();
        simplify(&mut root, SimplifyParams::up_to(0.1)).unwrap();
        root.compact();
        let r = check_complex(&root, &d, Some(&f), &CheckOptions::default());
        assert!(r.semantic);
        assert!(r.is_clean(), "{:?}", r.notes);
        check_glue_idempotent(&root, &d).unwrap();
    }

    #[test]
    fn injected_pairing_bug_is_caught() {
        // The acceptance-criteria mutation test: drop one gradient pair
        // (Euler-neutral!), rebuild the complex, and require the checker
        // to flag it even though χ still equals 1.
        let dims = Dims::new(7, 7, 7);
        let f = msp_synth::white_noise(dims, 41);
        let d = Decomposition::bisect(dims, 1);
        let bf = f.extract_block(d.block(0));
        let good = msp_morse::assign_gradient(&bf, &d);
        let (bad, dropped) = drop_pairing(&good, 7);
        assert!(dropped.is_some());
        let (ms, _) = complex_from_gradient(&bf, &d, &bad, TraceLimits::default());
        let r = check_complex(&ms, &d, Some(&f), &CheckOptions::default());
        assert!(r.semantic);
        assert!(
            r.structural > 0,
            "spurious critical cells must be flagged: {:?}",
            r
        );
        // χ stayed 1, so the box-Euler check alone would have missed it
        assert_eq!(alternating(ms.node_census()), 1);
    }

    #[test]
    fn corrupted_boundary_flag_is_caught() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 47);
        let (d, mut cs) = build_all(&f, 2);
        let ms = &mut cs[0];
        let id = ms
            .nodes
            .iter()
            .position(|n| n.alive && n.boundary)
            .expect("boundary node exists");
        ms.nodes[id].boundary = false;
        let mut r = InvariantReport::default();
        check_structural(ms, &d, &CheckOptions::default(), &mut r);
        assert!(r.boundary > 0, "{:?}", r.notes);
    }

    #[test]
    fn fingerprint_ignores_storage_order() {
        let dims = Dims::new(8, 8, 8);
        let f = msp_synth::white_noise(dims, 3);
        let (d, mut cs) = build_all(&f, 2);
        for ms in &mut cs {
            ms.compact();
        }
        let mut ab = cs[0].clone();
        msp_complex::glue::glue_all(&mut ab, &[cs[1].clone()], &d).unwrap();
        let mut ba = cs[1].clone();
        msp_complex::glue::glue_all(&mut ba, &[cs[0].clone()], &d).unwrap();
        assert_eq!(fingerprint(&ab), fingerprint(&ba), "glue is symmetric");
    }
}
