//! The gradient bytes and the traced arc stores themselves, pinned.
//! Other tests compare the kernels with `msp-oracle`'s reference or with
//! themselves at another thread count; these compare them with what they
//! wrote when the constants were captured (the gradient at `a8ff582`,
//! the parent of the bit-set kernel; the arc stores while the recursive
//! tracer still ran beside the flat one and agreed with it).

use msp_grid::{Decomposition, Dims, RCoord, ScalarField};
use msp_morse::{active_kernel, assign_gradient, trace_all_arcs_kernel};
use msp_morse::{ArcStore, TraceLimits, TraceStats};

/// FNV-1a-64, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// FNV-1a-64 of the blocks' gradient bytes, concatenated in block order.
fn fnv1a_gradient(field: &ScalarField, decomp: &Decomposition) -> u64 {
    let mut h = Fnv::new();
    for b in decomp.blocks() {
        h.bytes(assign_gradient(&field.extract_block(b), decomp).bytes());
    }
    h.0
}

/// One block's arc store and trace counters into `h`: every record in
/// emission order (upper and lower cell, path length), then the geometry
/// arena, which holds the paths back to back in that same order.
fn hash_store(h: &mut Fnv, store: &ArcStore, stats: &TraceStats) {
    let cell = |h: &mut Fnv, c: &RCoord| {
        for v in [c.x, c.y, c.z] {
            h.u64(v as u64);
        }
    };
    for a in store.iter() {
        cell(h, &a.upper);
        cell(h, &a.lower);
        h.u64(a.geom.len() as u64);
    }
    for c in store.iter().flat_map(|a| a.geom.iter()) {
        cell(h, c);
    }
    h.u64(stats.arcs);
    h.u64(stats.truncated_nodes);
    h.u64(stats.path_cells_total);
}

/// FNV-1a-64 of the blocks' arc stores, in block order. The stores are
/// traced with 1, 2, 3 and 8 workers, and the hash must not depend on
/// the worker count.
fn fnv1a_arcs(field: &ScalarField, decomp: &Decomposition, limits: TraceLimits) -> u64 {
    let grads: Vec<_> = decomp
        .blocks()
        .iter()
        .map(|b| assign_gradient(&field.extract_block(b), decomp))
        .collect();
    let pins = [1usize, 2, 3, 8].map(|threads| {
        let mut h = Fnv::new();
        for grad in &grads {
            let (store, stats) = trace_all_arcs_kernel(grad, limits, threads, active_kernel());
            hash_store(&mut h, &store, &stats);
        }
        h.0
    });
    assert!(
        pins.iter().all(|&p| p == pins[0]),
        "arc stores depend on the worker count: {pins:x?}"
    );
    pins[0]
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

/// The arc stores the tracer emits from those gradients, in emission
/// order, on the same fields and decompositions, plus one run cut short
/// by `max_paths_per_node`. `msp-oracle`'s `reference_arcs` checks the
/// arcs as a multiset; these constants also hold the order, the arena
/// layout and the truncation point, which that check cannot see. They
/// change only if the trace order or the truncation rule is changed on
/// purpose.
#[test]
fn arc_stores_are_pinned() {
    let cube = Dims::cube(17);
    let smooth = msp_synth::sinusoid(33, 4);
    let noise = msp_synth::white_noise(cube, 1);
    let plateau = msp_synth::plateau(cube, 3, 4);
    let jet_dims = Dims::new(22, 25, 14);
    let jet = msp_synth::jet(jet_dims, 160, 2012);
    let all = TraceLimits::default();
    let eight =
        |f: &ScalarField, limits| fnv1a_arcs(f, &Decomposition::bisect(f.dims(), 8), limits);
    assert_eq!(
        eight(&smooth, all),
        0x7a6d_1912_107d_66c2,
        "sinusoid(33, 4)"
    );
    assert_eq!(
        eight(&noise, all),
        0x4f0a_61e1_5e15_8e3d,
        "white_noise(17^3, 1)"
    );
    assert_eq!(
        eight(&plateau, all),
        0x5b16_8b1e_d3a9_3b7f,
        "plateau(17^3, 3, 4)"
    );
    assert_eq!(
        fnv1a_arcs(&jet, &Decomposition::random_tree(jet_dims, 6, 7), all),
        0x5fa9_c481_0531_ca71,
        "jet(22x25x14) on random_tree(6, 7)"
    );
    let three = TraceLimits {
        max_paths_per_node: 3,
    };
    assert_eq!(
        eight(&noise, three),
        0x18c4_a5cc_552f_8807,
        "white_noise(17^3, 1), at most 3 arcs per node"
    );
}
