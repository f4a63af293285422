//! Seeded randomized round-trip tests of the checkpoint format: random
//! complexes (nodes, arcs, leaf geometry, boundary flags) and random
//! merge cursors must survive encode → decode bit-exactly. Corruption is
//! covered by `hostile_checkpoints_never_panic` in `src/checkpoint.rs`,
//! which flips every bit of a real checkpoint.

use bytes::Bytes;
use msp_complex::wire;
use msp_complex::MsComplex;
use msp_fault::{Checkpoint, CheckpointStore};
use msp_grid::dims::RefinedDims;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 48;

/// A recipe for a complex: `spec[i] = (index, boundary, path_len)`.
type Spec = Vec<(u32, bool, u32)>;

fn random_spec(rng: &mut ChaCha8Rng) -> Spec {
    let n = rng.gen_range(0usize..40);
    (0..n)
        .map(|_| (rng.gen_range(0..4), rng.gen_bool(0.5), rng.gen_range(0..6)))
        .collect()
}

/// One to four distinct block ids below 64, sorted.
fn random_blocks(rng: &mut ChaCha8Rng) -> Vec<u32> {
    let n = rng.gen_range(1usize..5);
    let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range(0..64)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Deterministically grow a complex from its recipe.
fn complex_from_spec(blocks: Vec<u32>, spec: &Spec) -> MsComplex {
    let refined = RefinedDims {
        rx: 33,
        ry: 17,
        rz: 9,
    };
    let mut ms = MsComplex::new(refined, blocks);
    for (i, &(index, boundary, _)) in spec.iter().enumerate() {
        ms.add_node(
            i as u64 * 5 + 1,
            index as u8,
            i as f32 * 0.25 - 3.0,
            boundary,
        );
    }
    // connect every adjacent-index pair among consecutive nodes
    for (i, &(_, _, path_len)) in spec.iter().enumerate().skip(1) {
        let (a, b) = (i as u32, i as u32 - 1);
        let (ia, ib) = (ms.nodes[a as usize].index, ms.nodes[b as usize].index);
        let path: Vec<u64> = (0..u64::from(path_len) + 2)
            .map(|k| k * 7 + i as u64)
            .collect();
        if ia == ib + 1 {
            let g = ms.add_leaf_geom(&path);
            ms.add_arc(a, b, g);
        } else if ib == ia + 1 {
            let g = ms.add_leaf_geom(&path);
            ms.add_arc(b, a, g);
        }
    }
    ms
}

#[test]
fn round_trip_is_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let (rank, round) = (rng.gen_range(0u32..64), rng.gen_range(0u32..8));
        let threshold = rng.gen_range(0.0f32..1.0);
        let blocks = random_blocks(&mut rng);
        let (spec, spec2) = (random_spec(&mut rng), random_spec(&mut rng));
        let ck = Checkpoint {
            rank,
            round,
            threshold,
            slots: vec![
                (blocks[0], complex_from_spec(blocks.clone(), &spec)),
                (
                    blocks[0] + 100,
                    complex_from_spec(vec![blocks[0] + 100], &spec2),
                ),
            ],
        };
        let encoded = ck.encode();
        let back = Checkpoint::decode(&encoded).unwrap();
        assert_eq!(
            (back.rank, back.round, back.threshold),
            (rank, round, threshold)
        );
        assert_eq!(back.slots.len(), 2);
        for ((b0, c0), (b1, c1)) in ck.slots.iter().zip(&back.slots) {
            assert_eq!(b0, b1);
            // canonical wire form: byte equality == structural equality
            assert_eq!(wire::serialize(c0), wire::serialize(c1), "{spec:?}");
        }
        // a second encode of the decoded checkpoint is bit-identical
        assert_eq!(encoded, back.encode());
    }
}

#[test]
fn store_round_trips_through_encoded_bytes() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let (rank, round) = (rng.gen_range(0u32..16), rng.gen_range(0u32..4));
        let spec = random_spec(&mut rng);
        let store = CheckpointStore::new();
        let ck = Checkpoint {
            rank,
            round,
            threshold: 0.1,
            slots: vec![(3, complex_from_spec(vec![3], &spec))],
        };
        let encoded = ck.encode();
        let n = store.save(rank, round, Bytes::from(encoded.to_vec()));
        assert_eq!(n, encoded.len());
        let loaded = store.load(rank, round).unwrap();
        let back = Checkpoint::decode(&loaded).unwrap();
        assert_eq!(back.round, round);
        assert_eq!(
            wire::serialize(&back.slots[0].1),
            wire::serialize(&ck.slots[0].1),
            "{spec:?}"
        );
    }
}
