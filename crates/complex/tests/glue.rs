//! Seeded randomized tests of the glue/simplify layer against the
//! independent oracle (`msp-oracle`): glue is idempotent and
//! order-independent, and simplification preserves the full invariant
//! set (see DESIGN.md §10).

use msp_complex::build::build_block_complex;
use msp_complex::glue::glue_all;
use msp_complex::{simplify, MsComplex, SimplifyParams};
use msp_grid::{Decomposition, Dims, ScalarField};
use msp_morse::TraceLimits;
use msp_oracle::{check_complex, check_glue_idempotent, fingerprint, CheckOptions};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 24;

fn random_field(rng: &mut ChaCha8Rng) -> ScalarField {
    let [x, y, z]: [u32; 3] = std::array::from_fn(|_| rng.gen_range(4..8));
    msp_synth::white_noise(Dims::new(x, y, z), rng.gen_range(0u64..1_000_000))
}

/// Per-block complexes over `d`, each simplified up to `threshold` (when
/// given) and compacted.
fn block_complexes(
    field: &ScalarField,
    d: &Decomposition,
    threshold: Option<f32>,
) -> Vec<MsComplex> {
    d.blocks()
        .iter()
        .map(|b| {
            let (mut ms, _) =
                build_block_complex(&field.extract_block(b), d, TraceLimits::default());
            if let Some(t) = threshold {
                simplify(&mut ms, SimplifyParams::up_to(t)).unwrap();
            }
            ms.compact();
            ms
        })
        .collect()
}

/// `field`'s two bisected blocks glued into one complex.
fn glued_pair(field: &ScalarField) -> (Decomposition, MsComplex) {
    let d = Decomposition::bisect(field.dims(), 2);
    let mut cs = block_complexes(field, &d, None);
    let inc = cs.pop().unwrap();
    let mut root = cs.pop().unwrap();
    glue_all(&mut root, &[inc], &d).unwrap();
    (d, root)
}

#[test]
fn glue_is_idempotent() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let (d, root) = glued_pair(&random_field(&mut rng));
        // re-gluing the merged complex into itself must add nothing
        check_glue_idempotent(&root, &d).unwrap();
    }
}

/// For every order, glue the blocks `order[1..]` into block `order[0]`
/// in that order; all must give the same living content.
fn assert_order_independent(
    cs: &[MsComplex],
    d: &Decomposition,
    orders: impl Iterator<Item = Vec<usize>>,
) {
    let mut reference = None;
    for order in orders {
        let mut ms = cs[order[0]].clone();
        let incoming: Vec<MsComplex> = order[1..].iter().map(|&i| cs[i].clone()).collect();
        glue_all(&mut ms, &incoming, d).unwrap();
        let fp = fingerprint(&ms);
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(r, &fp, "glue order {order:?} diverged"),
        }
    }
}

/// Every order of three items.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Glue is order-independent on a 4-block bisection (the other three
/// blocks into block 0 in every permutation) and root- and
/// order-independent on an irregular, L-shaped 3-block split (all six
/// contractions of its neighbor graph).
#[test]
fn glue_is_order_independent() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let field = random_field(&mut rng);
        let d = Decomposition::bisect(field.dims(), 4);
        let cs = block_complexes(&field, &d, None);
        assert_eq!(cs.len(), 4);
        let orders = PERMS
            .iter()
            .map(|p| [0, p[0] + 1, p[1] + 1, p[2] + 1].to_vec());
        assert_order_independent(&cs, &d, orders);
    }
    let mut cases = 0;
    while cases < 8 {
        let dims = Dims::new(7, 6, 8);
        let d = Decomposition::random_tree(dims, 3, rng.gen_range(0u64..10_000));
        // keep only genuinely L-shaped splits: the second cut ran along
        // a different axis, so all three blocks touch pairwise
        if d.neighbor_edges().len() != 3 {
            continue;
        }
        cases += 1;
        let field = msp_synth::white_noise(dims, rng.gen_range(0u64..1_000_000));
        let cs = block_complexes(&field, &d, None);
        assert_eq!(cs.len(), 3);
        assert_order_independent(&cs, &d, PERMS.iter().map(|p| p.to_vec()));
    }
}

#[test]
fn simplify_preserves_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let field = random_field(&mut rng);
        let pct = rng.gen_range(0u32..100);
        let (d, mut root) = glued_pair(&field);
        let (lo, hi) = field.min_max();
        let threshold = (hi - lo) * pct as f32 / 100.0;
        simplify(&mut root, SimplifyParams::up_to(threshold)).unwrap();
        // the merged, simplified complex must pass every oracle check,
        // structural and semantic, against the original field
        let report = check_complex(&root, &d, Some(&field), &CheckOptions::default());
        assert!(report.is_clean(), "oracle violations: {:?}", report.notes);
        assert!(report.semantic, "semantic checks did not run");
    }
}

#[test]
fn simplified_blocks_glue_idempotently() {
    // the pipeline glues *simplified* block complexes; idempotency and
    // cleanliness must survive the round trip
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let field = random_field(&mut rng);
        let pct = rng.gen_range(0u32..60);
        let d = Decomposition::bisect(field.dims(), 2);
        let (lo, hi) = field.min_max();
        let threshold = (hi - lo) * pct as f32 / 100.0;
        let mut cs = block_complexes(&field, &d, Some(threshold));
        let inc = cs.pop().unwrap();
        let mut root = cs.pop().unwrap();
        glue_all(&mut root, &[inc], &d).unwrap();
        check_glue_idempotent(&root, &d).unwrap();
        let report = check_complex(&root, &d, Some(&field), &CheckOptions::default());
        assert!(report.is_clean(), "oracle violations: {:?}", report.notes);
    }
}
