//! Random-tree byte identity (DESIGN.md §14): every artifact the
//! pipeline writes — `.msc`, `.seg` and `.msh` — over a random
//! irregular decomposition must be byte-identical to its canonical
//! 1-rank/1-thread execution at non-power-of-two rank counts
//! (`fuzz::run_case` compares the files, step 3).

use morse_smale_parallel::fuzz::run_case;
use morse_smale_parallel::grid::DecompMode;
use morse_smale_parallel::oracle::{Case, FieldKind, Schedule};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 8;

/// Random irregular trees at 3 ranks / 2 threads and a non-power-of-two
/// 5-of-5, each against the canonical run, with the checker and the
/// hierarchy on.
#[test]
fn random_tree_artifacts_are_byte_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let seed = rng.gen_range(0u64..10_000);
        for (ranks, threads) in [(3u32, 2u32), (5, 1)] {
            let case = Case {
                kind: FieldKind::Plateau(3),
                dims: [8, 7, 9],
                seed,
                ranks,
                blocks: 5,
                decomp: DecompMode::RandomTree { seed },
                threads,
                schedule: Schedule::Full,
                persistence: 0.05,
                hierarchy: true,
                fault: None,
            };
            run_case(&case).unwrap_or_else(|e| panic!("case failed:\n{case}--\n{e}"));
        }
    }
}
