//! Seeded randomized tests of the Morse-Smale segmentation: for random
//! fields (noise, plateau, constant, sinusoid), rank/thread counts in
//! {1, 2, 4} and both merge schedules, the resolved labeled volumes
//! must be byte-identical to the serial 1-rank/1-thread run of the same
//! schedule, the rounds-to-fixed-point and forward count must be
//! partition-independent, and the round count must respect the
//! pointer-jumping bound (`fuzz::run_case`, step 3).

use morse_smale_parallel::fuzz::run_case;
use morse_smale_parallel::grid::DecompMode;
use morse_smale_parallel::oracle::{Case, FieldKind, Schedule};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 12;

/// A uniform case with segmentation at 2 % persistence, no hierarchy.
fn case(kind: FieldKind, dims: [u32; 3], seed: u64, blocks: u32, full: bool) -> Case {
    Case {
        kind,
        dims,
        seed,
        ranks: 1,
        blocks,
        decomp: DecompMode::Uniform,
        threads: 1,
        schedule: if full { Schedule::Full } else { Schedule::None },
        persistence: 0.02,
        hierarchy: false,
        fault: None,
    }
}

fn check(case: &Case) {
    run_case(case).unwrap_or_else(|e| panic!("case failed:\n{case}--\n{e}"));
}

#[test]
fn segmentation_bit_identical_across_ranks_threads_schedules() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let seed = rng.gen_range(0u64..10_000);
        let size = rng.gen_range(9u32..14);
        // plateau and constant fields exercise the flat tie-breaking:
        // labels depend entirely on the simulation-of-simplicity order
        let kind = match rng.gen_range(0usize..4) {
            0 => FieldKind::Noise,
            1 => FieldKind::Plateau(5),
            2 => FieldKind::Constant,
            _ => FieldKind::Sinusoid(2),
        };
        let blocks = 1u32 << rng.gen_range(1u32..4);
        check(&Case {
            ranks: [1u32, 2, 4][rng.gen_range(0usize..3)].min(blocks),
            threads: [1u32, 2, 4][rng.gen_range(0usize..3)],
            ..case(kind, [size; 3], seed, blocks, rng.gen_bool(0.5))
        });
    }
}

/// Flat-plateau regression: on fields with massive value ties the
/// labels are decided purely by the simulation-of-simplicity order the
/// gradient pairs cells by. A tie-breaking divergence between
/// the labeler and the gradient/simplifier shows up here as a byte
/// difference between 4 ranks / 4 threads and the serial run.
#[test]
fn flat_plateau_labels_are_rank_and_thread_independent() {
    for (kind, seed) in [(FieldKind::Constant, 0), (FieldKind::Plateau(3), 77)] {
        for full in [false, true] {
            check(&Case {
                ranks: 4,
                threads: 4,
                ..case(kind.clone(), [11; 3], seed, 8, full)
            });
        }
    }
}
