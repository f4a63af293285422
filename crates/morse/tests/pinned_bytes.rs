//! The gradient bytes themselves, pinned. Every other test of the
//! lower-star kernel compares two implementations with each other; this
//! one compares the production kernel with what it wrote when the
//! constants were captured (at `a8ff582`, the parent of the bit-set
//! kernel), so the two-heap witness can be retired without losing the
//! reference.

use msp_grid::{Decomposition, Dims, ScalarField};
use msp_morse::assign_gradient;

/// FNV-1a-64 of the blocks' gradient bytes, concatenated in block order.
fn fnv1a_gradient(field: &ScalarField, decomp: &Decomposition) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in decomp.blocks() {
        let grad = assign_gradient(&field.extract_block(b), decomp);
        for &byte in grad.bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// These constants change only if the pairing rule (the SoS order, the
/// steepest-descent choice or the owner-set restriction) is changed on
/// purpose — and then every `.msc`/`.seg`/`.msh` artifact changes too.
#[test]
fn gradient_bytes_are_pinned() {
    let cube = Dims::cube(17);
    let smooth = msp_synth::sinusoid(33, 4);
    let noise = msp_synth::white_noise(cube, 1);
    let plateau = msp_synth::plateau(cube, 3, 4);
    let jet_dims = Dims::new(22, 25, 14);
    let jet = msp_synth::jet(jet_dims, 160, 2012);
    let eight = |f: &ScalarField| fnv1a_gradient(f, &Decomposition::bisect(f.dims(), 8));
    assert_eq!(eight(&smooth), 0xc813_15e3_a4d3_eb45, "sinusoid(33, 4)");
    assert_eq!(eight(&noise), 0x0a1d_f9c8_f566_9328, "white_noise(17^3, 1)");
    assert_eq!(
        eight(&plateau),
        0x9add_239a_4ab5_df5d,
        "plateau(17^3, 3, 4)"
    );
    assert_eq!(
        fnv1a_gradient(&jet, &Decomposition::random_tree(jet_dims, 6, 7)),
        0xb127_2d5b_2b3e_4e21,
        "jet(22x25x14) on random_tree(6, 7)"
    );
}
