//! Seeded randomized tests of the intra-rank parallel local stage: for
//! random fields, rank/block splits and thread counts, `--threads N`
//! must produce output blocks byte-identical to the canonical
//! 1-rank/1-thread run, with matching work counters. Each case goes
//! through `fuzz::run_case`, which makes those comparisons (step 3).

use morse_smale_parallel::fuzz::run_case;
use morse_smale_parallel::grid::DecompMode;
use morse_smale_parallel::oracle::{Case, FieldKind, Schedule};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 16;

#[test]
fn parallel_local_stage_bit_identical_to_serial() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let seed = rng.gen_range(0u64..10_000);
        let size = rng.gen_range(9u32..17);
        let blocks = 1u32 << rng.gen_range(1u32..4);
        let case = Case {
            kind: FieldKind::Noise,
            dims: [size; 3],
            seed,
            ranks: rng.gen_range(1u32..4).min(blocks),
            blocks,
            decomp: DecompMode::Uniform,
            threads: rng.gen_range(2u32..7),
            schedule: Schedule::Full,
            persistence: 0.02,
            hierarchy: false,
            fault: None,
        };
        run_case(&case).unwrap_or_else(|e| panic!("case failed:\n{case}--\n{e}"));
    }
}
