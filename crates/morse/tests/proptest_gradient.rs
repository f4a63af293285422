//! Property-based tests of the discrete gradient: on arbitrary small
//! random fields and decompositions, the assignment must be a valid
//! acyclic matching with χ = 1 per block, owner-respecting pairs, and
//! bitwise-identical shared-face bytes across blocks.

use msp_grid::{Decomposition, Dims, ScalarField};
use msp_morse::lower_star::{assign_gradient, assign_gradient_par};
use msp_morse::validate::{
    boundary_consistent, check_valid, euler_characteristic, pairs_respect_owners,
};
use msp_morse::{trace_all_arcs, TraceLimits};
use proptest::prelude::*;

fn arb_field() -> impl Strategy<Value = ScalarField> {
    ((3u32..8, 3u32..8, 3u32..8), 0u64..1_000_000)
        .prop_map(|((x, y, z), seed)| msp_synth::white_noise(Dims::new(x, y, z), seed))
}

/// Quantized fields create plateaus, stressing simulation of simplicity.
fn arb_plateau_field() -> impl Strategy<Value = ScalarField> {
    ((3u32..8, 3u32..8, 3u32..8), 0u64..1_000_000, 2u32..5).prop_map(|((x, y, z), seed, levels)| {
        let dims = Dims::new(x, y, z);
        let noise = msp_synth::white_noise(dims, seed);
        let data: Vec<f32> = noise
            .data()
            .iter()
            .map(|v| (v * levels as f32).floor())
            .collect();
        ScalarField::new(dims, data)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serial_gradient_valid(field in arb_field()) {
        let d = Decomposition::bisect(field.dims(), 1);
        let g = assign_gradient(&field.extract_block(d.block(0)), &d);
        let report = check_valid(&g);
        prop_assert!(report.is_ok(), "{:?}", report);
        prop_assert_eq!(euler_characteristic(&g), 1);
    }

    #[test]
    fn plateau_gradient_valid(field in arb_plateau_field()) {
        let d = Decomposition::bisect(field.dims(), 1);
        let g = assign_gradient(&field.extract_block(d.block(0)), &d);
        let report = check_valid(&g);
        prop_assert!(report.is_ok(), "{:?}", report);
        prop_assert_eq!(euler_characteristic(&g), 1);
    }

    #[test]
    fn blocked_gradient_valid_and_consistent(
        field in arb_field(),
        blocks in 2u32..5,
    ) {
        let dims = field.dims();
        let cells = (dims.nx as u64 - 1) * (dims.ny as u64 - 1) * (dims.nz as u64 - 1);
        prop_assume!(cells >= blocks as u64 * 4);
        let d = match std::panic::catch_unwind(|| Decomposition::bisect(dims, blocks)) {
            Ok(d) => d,
            Err(_) => return Ok(()),
        };
        let grads: Vec<_> = d
            .blocks()
            .iter()
            .map(|b| assign_gradient(&field.extract_block(b), &d))
            .collect();
        for (i, g) in grads.iter().enumerate() {
            let report = check_valid(g);
            prop_assert!(report.is_ok(), "block {i}: {:?}", report);
            prop_assert_eq!(euler_characteristic(g), 1, "block {}", i);
            prop_assert!(pairs_respect_owners(g, &d), "block {}", i);
        }
        for a in 0..grads.len() {
            for b in (a + 1)..grads.len() {
                prop_assert!(
                    boundary_consistent(&grads[a], &grads[b]),
                    "blocks {a} and {b} disagree on shared cells"
                );
            }
        }
    }

    #[test]
    fn gradient_deterministic(field in arb_field()) {
        let d = Decomposition::bisect(field.dims(), 1);
        let bf = field.extract_block(d.block(0));
        let g1 = assign_gradient(&bf, &d);
        let g2 = assign_gradient(&bf, &d);
        for c in g1.bbox().iter() {
            prop_assert_eq!(g1.raw(c), g2.raw(c));
        }
    }

    #[test]
    fn parallel_gradient_bit_identical_to_serial(
        field in arb_field(),
        blocks in 1u32..5,
        threads in 2usize..9,
    ) {
        let dims = field.dims();
        let cells = (dims.nx as u64 - 1) * (dims.ny as u64 - 1) * (dims.nz as u64 - 1);
        prop_assume!(cells >= blocks as u64 * 4);
        let d = match std::panic::catch_unwind(|| Decomposition::bisect(dims, blocks)) {
            Ok(d) => d,
            Err(_) => return Ok(()),
        };
        for b in d.blocks() {
            let bf = field.extract_block(b);
            let serial = assign_gradient(&bf, &d);
            let par = assign_gradient_par(&bf, &d, threads);
            // raw gradient bytes, critical cells and traced arcs (with
            // geometry) must all be byte-identical to the serial path
            prop_assert_eq!(
                par.bytes(), serial.bytes(),
                "block {} with {} threads diverged from serial", b.id, threads
            );
            prop_assert_eq!(par.critical_cells(), serial.critical_cells());
            let (arcs_s, st_s) = trace_all_arcs(&serial, TraceLimits::default());
            let (arcs_p, st_p) = trace_all_arcs(&par, TraceLimits::default());
            prop_assert_eq!(arcs_s, arcs_p, "arc stores diverged");
            prop_assert_eq!(st_s.arcs, st_p.arcs);
            prop_assert_eq!(st_s.path_cells_total, st_p.path_cells_total);
        }
    }

    #[test]
    fn parallel_gradient_bit_identical_on_plateaus(
        field in arb_plateau_field(),
        threads in 2usize..9,
    ) {
        // plateaus exercise the SoS tie-breaking; slab splits must not
        // perturb it
        let d = Decomposition::bisect(field.dims(), 1);
        let bf = field.extract_block(d.block(0));
        let serial = assign_gradient(&bf, &d);
        let par = assign_gradient_par(&bf, &d, threads);
        prop_assert_eq!(par.bytes(), serial.bytes());
    }
}
