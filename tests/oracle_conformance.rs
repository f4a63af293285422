//! Conformance of the full pipeline against the independent reference
//! oracle (satellite of the msp-oracle subsystem; see DESIGN.md §10).
//!
//! Every test drives `morse_smale_parallel::fuzz::run_case`, which per
//! case (a) diffs the production gradient and traced arcs against the
//! naive reference implementation block by block, (b) runs the pipeline
//! at the case's rank/thread/schedule configuration with the invariant
//! checker on and requires zero violation counters, (c) requires the
//! outputs, the artifact files and the work counters to equal the
//! canonical 1-rank/1-thread run's, and (d) re-checks all invariants
//! plus glue idempotency post-hoc.
//!
//! The grids here are deliberately tiny: the reference oracle is
//! exhaustive. Each field sweeps {1,2,4} ranks x {1,2,4} threads x
//! two merge schedules (three on flat fields) on a uniform 4-block tree;
//! the uniform and adaptive trees with a hierarchy sweep rank counts up
//! to six.
//!
//! The corpus test replays every `.case` file in `tests/cases/`, so a
//! file added there runs under `cargo test` with no edit here.

use morse_smale_parallel::fuzz::{replay_path, run_case};
use morse_smale_parallel::grid::DecompMode;
use morse_smale_parallel::oracle::{Case, FieldKind, Schedule};
use std::path::Path;

const RANKS: [u32; 3] = [1, 2, 4];
const THREADS: [u32; 3] = [1, 2, 4];

/// The merge schedules every field sweeps; the flat fields add
/// `Schedule::None` (their labels come from the simulation-of-simplicity
/// order alone, so an unmerged run must not depend on ranks or threads
/// either).
fn schedules(flat: bool) -> Vec<Schedule> {
    let unmerged = flat.then_some(Schedule::None);
    (unmerged.into_iter())
        .chain([Schedule::Full, Schedule::Rounds(vec![2])])
        .collect()
}

/// A uniform 4-block case without hierarchy or fault; [`sweep`] sets
/// its ranks, threads and schedule.
fn base(kind: FieldKind, dims: [u32; 3], seed: u64, persistence: f32) -> Case {
    Case {
        kind,
        dims,
        seed,
        ranks: 1,
        blocks: 4,
        decomp: DecompMode::Uniform,
        threads: 1,
        schedule: Schedule::Full,
        persistence,
        hierarchy: false,
        fault: None,
    }
}

/// Run `base` at every rank count in `ranks` x {1,2,4} threads x every
/// schedule in `schedules`.
fn sweep(base: Case, ranks: &[u32], schedules: &[Schedule]) {
    for &ranks in ranks {
        for threads in THREADS {
            for schedule in schedules {
                let case = Case {
                    ranks,
                    threads,
                    schedule: schedule.clone(),
                    ..base.clone()
                };
                case.validate().unwrap();
                run_case(&case).unwrap_or_else(|e| {
                    panic!("case failed:\n{case}--\n{e}");
                });
            }
        }
    }
}

#[test]
fn noise_conforms_across_ranks_threads_and_schedules() {
    let case = base(FieldKind::Noise, [6, 7, 6], 2012, 0.05);
    sweep(case, &RANKS, &schedules(false));
}

#[test]
fn plateau_conforms_across_ranks_threads_and_schedules() {
    // adversarial: quantized plateaus, every tie broken by simulation
    // of simplicity
    let case = base(FieldKind::Plateau(2), [6, 6, 6], 7, 0.05);
    sweep(case, &RANKS, &schedules(true));
}

#[test]
fn constant_field_conforms_across_ranks_threads_and_schedules() {
    // fully degenerate: one plateau spanning the whole domain
    let case = base(FieldKind::Constant, [6, 6, 6], 1, 0.0);
    sweep(case, &RANKS, &schedules(true));
}

#[test]
fn sinusoid_conforms_across_ranks_threads_and_schedules() {
    // saddle-heavy smooth field
    let case = base(FieldKind::Sinusoid(2), [7, 7, 7], 1, 0.01);
    sweep(case, &RANKS, &schedules(false));
}

/// Rank counts that do not divide the block count give ranks uneven
/// block sets (contiguous ranges on uniform trees, LPT on adaptive ones); the
/// hierarchy adds the `.msh` file and the replay-prefix chains to what
/// must match.
const MANY_RANKS: [u32; 5] = [1, 2, 3, 4, 6];

#[test]
fn uniform_tree_conforms_across_ranks_and_threads_with_hierarchy() {
    let case = Case {
        blocks: 8,
        hierarchy: true,
        ..base(FieldKind::Noise, [9, 8, 7], 41, 0.05)
    };
    sweep(case, &MANY_RANKS, &[Schedule::Full]);
}

#[test]
fn adaptive_tree_conforms_across_ranks_and_threads_with_hierarchy() {
    // 6 blocks: the merge is the neighbor-graph contraction and the
    // assignment is LPT over feature-weight costs
    let case = Case {
        blocks: 6,
        decomp: DecompMode::Adaptive,
        hierarchy: true,
        ..base(FieldKind::Noise, [9, 8, 7], 41, 0.05)
    };
    sweep(case, &MANY_RANKS, &[Schedule::Full]);
}

/// Every `.case` file in `tests/cases/`: the shrunk reproducers the fuzz
/// found and the fault scenarios on the CLI's own 17³ noise field.
#[test]
fn corpus_reproducers_replay_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/cases");
    let outcomes = replay_path(Path::new(dir)).unwrap();
    for (name, outcome) in &outcomes {
        outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    }
    assert!(outcomes.len() >= 11, "{} cases", outcomes.len());
}
