//! Seeded randomized tests of the discrete gradient: on arbitrary small
//! random fields and decompositions, the assignment must be a valid
//! acyclic matching with χ = 1 per block, owner-respecting pairs, and
//! bitwise-identical shared-face bytes across blocks.

use msp_grid::{Decomposition, Dims, ScalarField};
use msp_morse::lower_star::{assign_gradient, assign_gradient_par};
use msp_morse::validate::{
    boundary_consistent, check_valid, euler_characteristic, pairs_respect_owners,
};
use msp_morse::{trace_all_arcs, TraceLimits};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 48;

fn random_field(rng: &mut ChaCha8Rng) -> ScalarField {
    let [x, y, z]: [u32; 3] = std::array::from_fn(|_| rng.gen_range(3..8));
    msp_synth::white_noise(Dims::new(x, y, z), rng.gen_range(0u64..1_000_000))
}

/// Quantized fields create plateaus, stressing simulation of simplicity.
fn random_plateau_field(rng: &mut ChaCha8Rng) -> ScalarField {
    let noise = random_field(rng);
    let levels = rng.gen_range(2u32..5) as f32;
    let data = noise.data().iter().map(|v| (v * levels).floor()).collect();
    ScalarField::new(noise.dims(), data)
}

/// `field` bisected into `blocks`, unless it is too small for that
/// (fewer than four cells a block, or a shape bisection refuses).
fn blocked(field: &ScalarField, blocks: u32) -> Option<Decomposition> {
    let dims = field.dims();
    let cells = (dims.nx as u64 - 1) * (dims.ny as u64 - 1) * (dims.nz as u64 - 1);
    if cells < blocks as u64 * 4 {
        return None;
    }
    std::panic::catch_unwind(|| Decomposition::bisect(dims, blocks)).ok()
}

#[test]
fn serial_and_plateau_gradients_are_valid() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for plateau in [false, true] {
        for _ in 0..CASES {
            let field = if plateau {
                random_plateau_field(&mut rng)
            } else {
                random_field(&mut rng)
            };
            let d = Decomposition::bisect(field.dims(), 1);
            let g = assign_gradient(&field.extract_block(d.block(0)), &d);
            let report = check_valid(&g);
            assert!(report.is_ok(), "{:?}: {report:?}", field.dims());
            assert_eq!(euler_characteristic(&g), 1);
        }
    }
}

#[test]
fn blocked_gradient_valid_and_consistent() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut cases = 0;
    while cases < CASES {
        let field = random_field(&mut rng);
        let Some(d) = blocked(&field, rng.gen_range(2u32..5)) else {
            continue;
        };
        cases += 1;
        let grads: Vec<_> = d
            .blocks()
            .iter()
            .map(|b| assign_gradient(&field.extract_block(b), &d))
            .collect();
        for (i, g) in grads.iter().enumerate() {
            let report = check_valid(g);
            assert!(report.is_ok(), "block {i}: {report:?}");
            assert_eq!(euler_characteristic(g), 1, "block {i}");
            assert!(pairs_respect_owners(g, &d), "block {i}");
        }
        for a in 0..grads.len() {
            for b in (a + 1)..grads.len() {
                assert!(
                    boundary_consistent(&grads[a], &grads[b]),
                    "blocks {a} and {b} disagree on shared cells"
                );
            }
        }
    }
}

#[test]
fn gradient_deterministic() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let field = random_field(&mut rng);
        let d = Decomposition::bisect(field.dims(), 1);
        let bf = field.extract_block(d.block(0));
        let g1 = assign_gradient(&bf, &d);
        let g2 = assign_gradient(&bf, &d);
        for c in g1.bbox().iter() {
            assert_eq!(g1.raw(c), g2.raw(c));
        }
    }
}

#[test]
fn parallel_gradient_bit_identical_to_serial() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut cases = 0;
    while cases < CASES {
        let field = random_field(&mut rng);
        let blocks = rng.gen_range(1u32..5);
        let threads = rng.gen_range(2usize..9);
        let Some(d) = blocked(&field, blocks) else {
            continue;
        };
        cases += 1;
        for b in d.blocks() {
            let bf = field.extract_block(b);
            let serial = assign_gradient(&bf, &d);
            let par = assign_gradient_par(&bf, &d, threads);
            // raw gradient bytes, critical cells and traced arcs (with
            // geometry) must all be byte-identical to the serial path
            assert_eq!(
                par.bytes(),
                serial.bytes(),
                "block {} with {threads} threads diverged from serial",
                b.id
            );
            assert_eq!(par.critical_cells(), serial.critical_cells());
            let (arcs_s, st_s) = trace_all_arcs(&serial, TraceLimits::default());
            let (arcs_p, st_p) = trace_all_arcs(&par, TraceLimits::default());
            assert_eq!(arcs_s, arcs_p, "arc stores diverged");
            assert_eq!(st_s.arcs, st_p.arcs);
            assert_eq!(st_s.path_cells_total, st_p.path_cells_total);
        }
    }
}

#[test]
fn parallel_gradient_bit_identical_on_plateaus() {
    // plateaus exercise the SoS tie-breaking; slab splits must not
    // perturb it
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for _ in 0..CASES {
        let field = random_plateau_field(&mut rng);
        let threads = rng.gen_range(2usize..9);
        let d = Decomposition::bisect(field.dims(), 1);
        let bf = field.extract_block(d.block(0));
        let serial = assign_gradient(&bf, &d);
        let par = assign_gradient_par(&bf, &d, threads);
        assert_eq!(par.bytes(), serial.bytes(), "{threads} threads");
    }
}
