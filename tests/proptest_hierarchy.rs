//! Seeded randomized tests of the cancellation hierarchy: for random
//! fields, rank/thread counts in {1, 2, 4} and both merge schedules,
//! the recorded MSH1 artifact must be byte-identical to the serial
//! 1-rank/1-thread run (`fuzz::run_case`, step 3), and prefix replay
//! must reproduce a direct simplification of the base complex bit for
//! bit — wire bytes, forward entries, statistics and the remapped
//! segmentation label tables — whether a prefix is materialized from
//! scratch or by extending a shorter one (step 4's prefix chains).

use morse_smale_parallel::fuzz::run_case;
use morse_smale_parallel::grid::DecompMode;
use morse_smale_parallel::oracle::{Case, FieldKind, Schedule};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 8;

/// A random field of side 9..13 on a random block count in {2, 4, 8},
/// recorded with a hierarchy at zero persistence, at 1 rank / 1 thread.
fn random_case(rng: &mut ChaCha8Rng) -> Case {
    let seed = rng.gen_range(0u64..10_000);
    let size = rng.gen_range(9u32..13);
    let kind = match rng.gen_range(0usize..3) {
        0 => FieldKind::Noise,
        1 => FieldKind::Plateau(4),
        _ => FieldKind::Sinusoid(2),
    };
    Case {
        kind,
        dims: [size; 3],
        seed,
        ranks: 1,
        blocks: 1u32 << rng.gen_range(1u32..4),
        decomp: DecompMode::Uniform,
        threads: 1,
        schedule: if rng.gen_bool(0.5) {
            Schedule::Full
        } else {
            Schedule::None
        },
        persistence: 0.0,
        hierarchy: true,
        fault: None,
    }
}

fn check(case: &Case) {
    run_case(case).unwrap_or_else(|e| panic!("case failed:\n{case}--\n{e}"));
}

#[test]
fn hierarchy_replay_is_bit_identical_across_schedules() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let case = random_case(&mut rng);
        check(&Case {
            ranks: [1u32, 2, 4][rng.gen_range(0usize..3)].min(case.blocks),
            threads: [1u32, 2, 4][rng.gen_range(0usize..3)],
            ..case
        });
    }
}

#[test]
fn extension_chains_equal_from_scratch_and_direct() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..CASES {
        check(&random_case(&mut rng));
    }
}
