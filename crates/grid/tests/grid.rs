//! Seeded randomized tests of the grid substrate: address codecs, box
//! arithmetic and decomposition invariants over randomized shapes.

use msp_grid::topology::{cofacets, facets, RBox};
use msp_grid::{Decomposition, Dims, RCoord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 64;

fn random_dims(rng: &mut ChaCha8Rng) -> Dims {
    let [x, y, z]: [u32; 3] = std::array::from_fn(|_| rng.gen_range(2..12));
    Dims::new(x, y, z)
}

fn n_cells(dims: Dims) -> u64 {
    (dims.nx as u64 - 1).max(1) * (dims.ny as u64 - 1).max(1) * (dims.nz as u64 - 1).max(1)
}

#[test]
fn vertex_index_bijective() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let dims = random_dims(&mut rng);
        let idx = rng.gen_range(0u64..1000) % dims.n_verts();
        let (x, y, z) = dims.vertex_coord(idx);
        assert_eq!(dims.vertex_index(x, y, z), idx, "{dims:?}");
    }
}

#[test]
fn cell_address_bijective() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let r = random_dims(&mut rng).refined();
        let addr = rng.gen_range(0u64..100_000) % r.len();
        let c = RCoord::from_address(addr, &r);
        assert_eq!(c.address(&r), addr, "{r:?}");
        assert!(c.cell_dim() <= 3);
    }
}

#[test]
fn facet_cofacet_duality() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let r = random_dims(&mut rng).refined();
        let bbox = RBox::new(
            RCoord::new(0, 0, 0),
            RCoord::new(r.rx as u32 - 1, r.ry as u32 - 1, r.rz as u32 - 1),
        );
        let c = RCoord::from_address(rng.gen_range(0u64..100_000) % r.len(), &r);
        // every facet has this cell among its cofacets and vice versa
        for (_, f) in facets(c, &bbox) {
            assert_eq!(f.cell_dim() + 1, c.cell_dim());
            assert!(cofacets(f, &bbox).any(|(_, cf)| cf == c), "{c:?} in {r:?}");
        }
        for (_, cf) in cofacets(c, &bbox) {
            assert_eq!(cf.cell_dim(), c.cell_dim() + 1);
            assert!(facets(cf, &bbox).any(|(_, f)| f == c), "{c:?} in {r:?}");
        }
        // facet/cofacet counts follow from the parity pattern
        let d = c.cell_dim() as usize;
        assert_eq!(facets(c, &bbox).count(), 2 * d);
        assert!(cofacets(c, &bbox).count() <= 2 * (3 - d));
    }
}

#[test]
fn decomposition_covers_and_partitions() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut cases = 0;
    while cases < CASES {
        let dims = random_dims(&mut rng);
        let blocks = rng.gen_range(1u32..9);
        let cells = n_cells(dims);
        if cells < blocks as u64 * 2 {
            continue; // not enough room to bisect
        }
        cases += 1;
        // unbisectable shapes are allowed to panic
        let Ok(d) = std::panic::catch_unwind(|| Decomposition::bisect(dims, blocks)) else {
            continue;
        };
        assert_eq!(d.n_blocks(), blocks);
        // block cells partition the domain exactly
        let sum: u64 = d.blocks().iter().map(|b| n_cells(b.dims())).sum();
        assert_eq!(sum, cells, "{dims:?} in {blocks} blocks");
    }
}

#[test]
fn owners_consistent_with_boxes() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut cases = 0;
    while cases < CASES {
        let dims = random_dims(&mut rng);
        let blocks = rng.gen_range(2u32..9);
        let raw = rng.gen_range(0u64..100_000);
        if n_cells(dims) < blocks as u64 * 4 {
            continue;
        }
        cases += 1;
        let Ok(d) = std::panic::catch_unwind(|| Decomposition::bisect(dims, blocks)) else {
            continue;
        };
        let r = dims.refined();
        let c = RCoord::from_address(raw % r.len(), &r);
        let owners = d.owners(c);
        let mut brute: Vec<u32> = d
            .blocks()
            .iter()
            .filter(|b| b.refined_box().contains(c))
            .map(|b| b.id)
            .collect();
        brute.sort_unstable();
        assert_eq!(owners.as_slice(), brute.as_slice(), "{c:?} in {dims:?}");
        assert!(!owners.is_empty(), "every cell has at least one owner");
    }
}

#[test]
fn rbox_local_index_bijective() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for _ in 0..CASES {
        let lo: [u32; 3] = std::array::from_fn(|_| rng.gen_range(0u32..6));
        let hi: [u32; 3] = std::array::from_fn(|a| lo[a] + rng.gen_range(1u32..6));
        let b = RBox::new(
            RCoord::new(lo[0], lo[1], lo[2]),
            RCoord::new(hi[0], hi[1], hi[2]),
        );
        let idx = rng.gen_range(0u64..10_000) % b.len();
        let c = b.from_local_index(idx);
        assert!(b.contains(c));
        assert_eq!(b.local_index(c), idx, "{c:?}");
    }
}
