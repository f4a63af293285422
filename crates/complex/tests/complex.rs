//! Seeded randomized tests of the MS-complex layer: build, simplify,
//! glue and wire invariants over random fields and decompositions.

use msp_complex::build::build_block_complex;
use msp_complex::glue::glue_all;
use msp_complex::{simplify, wire, MsComplex, SimplifyParams};
use msp_grid::{Decomposition, Dims, ScalarField};
use msp_morse::TraceLimits;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 32;

fn random_field(rng: &mut ChaCha8Rng) -> ScalarField {
    let [x, y, z]: [u32; 3] = std::array::from_fn(|_| rng.gen_range(4..8));
    msp_synth::white_noise(Dims::new(x, y, z), rng.gen_range(0u64..1_000_000))
}

fn chi(ms: &MsComplex) -> i64 {
    let c = ms.node_census();
    c[0] as i64 - c[1] as i64 + c[2] as i64 - c[3] as i64
}

/// Leaf paths no tracer emits: empty, one cell, non-unit steps, a
/// `u64::MAX → 0` wrap and a repeated cell.
fn odd_paths(seed: u64) -> [Vec<u64>; 5] {
    [
        vec![],
        vec![seed],
        vec![seed, seed + 5, seed + 1000, seed + 999],
        vec![u64::MAX - 1, u64::MAX, 0, 1],
        vec![seed + 1, seed + 1, seed],
    ]
}

/// Every arc's geometry, flattened, in arc order.
fn flat_arcs(ms: &MsComplex) -> Vec<Vec<u64>> {
    ms.arcs.iter().map(|a| ms.flatten_geom(a.geom)).collect()
}

#[test]
fn geometry_records_stay_16_bytes() {
    assert!(std::mem::size_of::<msp_complex::skeleton::GeomRec>() <= 16);
}

/// A single-block complex of `field`, unsimplified.
fn one_block(field: &ScalarField) -> MsComplex {
    let d = Decomposition::bisect(field.dims(), 1);
    build_block_complex(&field.extract_block(d.block(0)), &d, TraceLimits::default()).0
}

#[test]
fn build_then_simplify_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let field = random_field(&mut rng);
        let pct = rng.gen_range(0u32..100);
        let mut ms = one_block(&field);
        let chi0 = chi(&ms);
        assert_eq!(chi0, 1);
        let (lo, hi) = field.min_max();
        let threshold = (hi - lo) * pct as f32 / 100.0;
        simplify(&mut ms, SimplifyParams::up_to(threshold)).unwrap();
        // chi invariant under cancellation
        assert_eq!(chi(&ms), chi0);
        ms.check_integrity().unwrap();
        // every cancelled pair within threshold
        for c in &ms.hierarchy {
            assert!(c.persistence <= threshold + 1e-6);
        }
        // all cancelled nodes record their persistence
        for n in ms.nodes.iter().filter(|n| !n.alive) {
            assert!(n.cancel_persistence <= threshold + 1e-6);
        }
    }
}

#[test]
fn compact_preserves_live_structure() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let mut ms = one_block(&random_field(&mut rng));
        simplify(&mut ms, SimplifyParams::up_to(0.3)).unwrap();
        let nodes = ms.n_live_nodes();
        let arcs = ms.n_live_arcs();
        let census = ms.node_census();
        ms.compact();
        assert_eq!(ms.n_live_nodes(), nodes);
        assert_eq!(ms.n_live_arcs(), arcs);
        assert_eq!(ms.node_census(), census);
        ms.check_integrity().unwrap();
    }
}

#[test]
fn wire_round_trip_arbitrary() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let field = random_field(&mut rng);
        let pct = rng.gen_range(0u32..60);
        let mut ms = one_block(&field);
        simplify(&mut ms, SimplifyParams::up_to(pct as f32 / 100.0)).unwrap();
        ms.compact();
        // leaves that are not V-paths, each as an arc of its own and as
        // the reversed middle of a cancel record, between two extra
        // nodes off the grid
        let hi = ms.add_node(u64::MAX - 1, 1, 2.0, true);
        let lo = ms.add_node(u64::MAX - 2, 0, 1.0, true);
        let edge = ms.add_leaf_geom(&[3, 4]);
        for path in odd_paths(pct as u64) {
            let g = ms.add_leaf_geom(&path);
            assert_eq!(&ms.flatten_geom(g), &path);
            let spliced = ms.add_cancel_geom(edge, g, edge);
            let reversed: Vec<u64> = path.iter().rev().copied().collect();
            let expected = [&[3, 4], &reversed[..], &[3, 4]].concat();
            assert_eq!(ms.flatten_geom(spliced), expected);
            ms.add_arc(hi, lo, g);
            ms.add_arc(hi, lo, spliced);
        }
        let paths = flat_arcs(&ms);
        let mut compacted = ms.clone();
        compacted.compact();
        assert_eq!(&flat_arcs(&compacted), &paths);
        let bytes = wire::serialize(&ms);
        let back = wire::deserialize(&bytes).unwrap();
        assert_eq!(&flat_arcs(&back), &paths);
        assert_eq!(wire::serialize(&back), bytes);
        assert_eq!(back.node_census(), ms.node_census());
    }
}

#[test]
fn glue_conserves_nodes_and_chi() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let field = random_field(&mut rng);
        let d = Decomposition::bisect(field.dims(), 2);
        let mut cs: Vec<MsComplex> = d
            .blocks()
            .iter()
            .map(|b| {
                let (mut ms, _) =
                    build_block_complex(&field.extract_block(b), &d, TraceLimits::default());
                ms.compact();
                ms
            })
            .collect();
        let unique: std::collections::HashSet<u64> = cs
            .iter()
            .flat_map(|c| c.nodes.iter().map(|n| n.addr))
            .collect();
        let inc = cs.pop().unwrap();
        let mut root = cs.pop().unwrap();
        glue_all(&mut root, &[inc], &d).unwrap();
        assert_eq!(root.n_live_nodes() as usize, unique.len());
        root.check_integrity().unwrap();
        // fully merged complex over the whole domain: chi = 1 again
        assert_eq!(chi(&root), 1);
        // no boundary nodes remain after a full merge
        assert!(root.nodes.iter().all(|n| !n.alive || !n.boundary));
    }
}

/// The paper's §V-A claim, as a property: features whose persistence is
/// far above the threshold (two strong separated bumps over weak noise)
/// survive identically in the serial and the blocked+merged computation.
#[test]
fn full_merge_preserves_separated_features() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for _ in 0..CASES {
        let n = rng.gen_range(9u32..13);
        let c1: [f32; 3] = std::array::from_fn(|_| rng.gen_range(0.20f32..0.32));
        let c2: [f32; 3] = std::array::from_fn(|_| rng.gen_range(0.68f32..0.80));
        let seed = rng.gen_range(0u64..100_000);
        let pct = rng.gen_range(10u32..30);
        let dims = Dims::cube(n);
        let s = (n - 1) as f32;
        let sigma = 0.12 * s;
        let field = {
            let noise = msp_synth::white_noise(dims, seed);
            ScalarField::from_fn(dims, |x, y, z| {
                let p = [x as f32, y as f32, z as f32];
                let bump = |c: [f32; 3]| {
                    let d2 = (0..3).map(|a| (p[a] - c[a] * s).powi(2)).sum::<f32>();
                    (-d2 / (2.0 * sigma * sigma)).exp()
                };
                bump(c1) + bump(c2) + 0.05 * noise.value(x, y, z)
            })
        };
        let (lo, hi) = field.min_max();
        let threshold = (hi - lo) * pct as f32 / 100.0;

        let mut serial = one_block(&field);
        simplify(&mut serial, SimplifyParams::up_to(threshold)).unwrap();

        let d2 = Decomposition::bisect(dims, 2);
        let mut cs: Vec<MsComplex> = d2
            .blocks()
            .iter()
            .map(|b| {
                let (mut ms, _) =
                    build_block_complex(&field.extract_block(b), &d2, TraceLimits::default());
                simplify(&mut ms, SimplifyParams::up_to(threshold)).unwrap();
                ms.compact();
                ms
            })
            .collect();
        let inc = cs.pop().unwrap();
        let mut root = cs.pop().unwrap();
        glue_all(&mut root, &[inc], &d2).unwrap();
        simplify(&mut root, SimplifyParams::up_to(threshold)).unwrap();
        assert_eq!(chi(&root), chi(&serial));
        // Exact equality of the census is NOT guaranteed for features
        // whose persistence approaches the threshold (cancellation order
        // differs; at these tiny grids sampling-induced saddles sit near
        // any threshold). Guard against gross divergence, and require
        // that both runs keep the two dominant bumps.
        let (r3, s3) = (root.node_census()[3] as i64, serial.node_census()[3] as i64);
        assert!((r3 - s3).abs() <= 3, "maxima: parallel {r3} serial {s3}");
        assert!(
            r3 >= 2 && s3 >= 2,
            "dominant bumps must survive ({r3}, {s3})"
        );
    }
}
