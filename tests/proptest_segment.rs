//! Property-based tests of the Morse-Smale segmentation: for random
//! fields (noise, plateau, constant, sinusoid), rank/thread counts in
//! {1, 2, 4} and both merge schedules, the resolved labeled volumes
//! must be byte-identical to the serial 1-rank/1-thread run of the same
//! schedule, the rounds-to-fixed-point must be partition-independent,
//! and the round count must respect the pointer-jumping bound.

use morse_smale_parallel::core::{run_parallel, Input, MergePlan, PipelineParams};
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::segment::{jump_round_bound, wire as segwire};
use morse_smale_parallel::synth;
use proptest::prelude::*;
use std::sync::Arc;

/// Run the pipeline with segmentation on and return every block's SEG1
/// wire encoding plus the resolution's work counters.
fn run(
    input: &Input,
    ranks: u32,
    blocks: u32,
    threads: usize,
    full: bool,
) -> (Vec<bytes::Bytes>, u64, u64) {
    let plan = if full {
        MergePlan::full_merge(blocks)
    } else {
        MergePlan::none()
    };
    let params = PipelineParams {
        persistence_frac: 0.02,
        plan,
        threads: Some(threads),
        segment: true,
        ..Default::default()
    };
    let r = run_parallel(input, ranks, blocks, &params, None).unwrap();
    let encoded = r.segmentation.iter().map(segwire::serialize).collect();
    let rounds = r.telemetry.ranks[0].counter("seg_rounds");
    let forwards = r.telemetry.counter_total("seg_forwards");
    (encoded, rounds, forwards)
}

fn make_field(kind: usize, dims: Dims, seed: u64) -> morse_smale_parallel::grid::ScalarField {
    match kind {
        0 => synth::white_noise(dims, seed),
        // plateau and constant fields exercise the flat tie-breaking:
        // labels depend entirely on the simulation-of-simplicity order
        1 => synth::plateau(dims, seed, 5),
        2 => synth::constant(dims, 1.5),
        _ => synth::sinusoid_dims(dims, 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn segmentation_bit_identical_across_ranks_threads_schedules(
        seed in 0u64..10_000,
        size in 9u32..14,
        kind in 0usize..4,
        ranks_i in 0usize..3,
        threads_i in 0usize..3,
        blocks_exp in 1u32..4,
        full in any::<bool>(),
    ) {
        let blocks = 1u32 << blocks_exp;
        let ranks = [1u32, 2, 4][ranks_i].min(blocks);
        let threads = [1usize, 2, 4][threads_i];
        let input = Input::Memory(Arc::new(make_field(kind, Dims::cube(size), seed)));
        let (want, want_rounds, want_fw) = run(&input, 1, blocks, 1, full);
        let (got, got_rounds, got_fw) = run(&input, ranks, blocks, threads, full);
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g, w,
                "seg block {} with {} ranks / {} threads diverged from serial",
                i, ranks, threads
            );
        }
        prop_assert_eq!(
            got_rounds, want_rounds,
            "rounds-to-fixed-point must be partition-independent"
        );
        prop_assert_eq!(got_fw, want_fw, "total forwards are schedule-determined");
        prop_assert!(
            got_rounds <= jump_round_bound(got_fw),
            "{} rounds exceeds the pointer-jumping bound {} for {} forwards",
            got_rounds, jump_round_bound(got_fw), got_fw
        );
    }
}

/// Flat-plateau regression: on fields with massive value ties the
/// labels are decided purely by the simulation-of-simplicity order the
/// gradient pairs cells by. A tie-breaking divergence between
/// the labeler and the gradient/simplifier shows up here as a byte
/// difference between rank counts.
#[test]
fn flat_plateau_labels_are_rank_and_thread_independent() {
    for (name, field) in [
        ("constant", synth::constant(Dims::cube(11), 2.5)),
        ("plateau", synth::plateau(Dims::cube(11), 77, 3)),
    ] {
        let input = Input::Memory(Arc::new(field));
        for full in [false, true] {
            let (want, want_rounds, _) = run(&input, 1, 8, 1, full);
            let (got, got_rounds, _) = run(&input, 4, 8, 4, full);
            assert_eq!(got.len(), want.len(), "{name}: block count");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g, w,
                    "{name}: seg block {i} diverged between 4x4 and serial (full={full})"
                );
            }
            assert_eq!(got_rounds, want_rounds, "{name}: round count (full={full})");
        }
    }
}
