//! Seeded randomized end-to-end test of the pipeline layer: over random
//! merge plans, block counts and fields, the outputs number
//! `blocks / reduction` and their members partition the block set
//! (`fuzz::run_case`, step 2).

use morse_smale_parallel::fuzz::run_case;
use morse_smale_parallel::grid::DecompMode;
use morse_smale_parallel::oracle::{Case, FieldKind, Schedule};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 24;

#[test]
fn pipeline_output_block_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut done = 0;
    while done < CASES {
        let seed = rng.gen_range(0u64..10_000);
        let ranks = rng.gen_range(1u32..5);
        let rounds: Vec<u32> = (0..rng.gen_range(0usize..4))
            .map(|_| [2u32, 4, 8][rng.gen_range(0usize..3)])
            .collect();
        let reduction: u32 = rounds.iter().product();
        let blocks = reduction.max(4) * 2;
        if blocks > 32 {
            continue;
        }
        done += 1;
        let case = Case {
            kind: FieldKind::Noise,
            dims: [13; 3],
            seed,
            ranks: ranks.min(blocks),
            blocks,
            decomp: DecompMode::Uniform,
            threads: 1,
            schedule: Schedule::Rounds(rounds),
            persistence: 0.01,
            hierarchy: false,
            fault: None,
        };
        run_case(&case).unwrap_or_else(|e| panic!("case failed:\n{case}--\n{e}"));
    }
}
