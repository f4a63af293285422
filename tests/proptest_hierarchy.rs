//! Property-based tests of the cancellation hierarchy: for random
//! fields, rank/thread counts in {1, 2, 4} and both merge schedules,
//! the recorded MSH1 artifact must be byte-identical to the serial
//! 1-rank/1-thread run, and prefix replay at any threshold must
//! reproduce a direct simplification of the base complex bit for bit —
//! wire bytes, forward entries, and the remapped segmentation label
//! tables alike. Materializing by extension — replaying only the records
//! between an already materialized prefix and a longer one — must be
//! indistinguishable from both.

use morse_smale_parallel::complex::{
    simplify_with, wire as cwire, CancelOrder, SimplifyParams, SimplifyStats,
};
use morse_smale_parallel::core::{run_parallel, Input, MergePlan, PipelineParams, RunResult};
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::hierarchy::{
    compress_forwards, region_sizes, remap_tables, wire as hwire, Ordering,
};
use morse_smale_parallel::segment::wire as segwire;
use morse_smale_parallel::synth;
use proptest::prelude::*;
use std::sync::Arc;

fn run(input: &Input, ranks: u32, blocks: u32, threads: usize, full: bool) -> RunResult {
    let plan = if full {
        MergePlan::full_merge(blocks)
    } else {
        MergePlan::none()
    };
    let params = PipelineParams {
        persistence_frac: 0.0,
        plan,
        threads: Some(threads),
        segment: true,
        hierarchy: true,
        ..Default::default()
    };
    run_parallel(input, ranks, blocks, &params, None).unwrap()
}

fn make_field(kind: usize, dims: Dims, seed: u64) -> morse_smale_parallel::grid::ScalarField {
    match kind {
        0 => synth::white_noise(dims, seed),
        1 => synth::plateau(dims, seed, 4),
        _ => synth::sinusoid_dims(dims, 2),
    }
}

/// The segmentation tables after replaying `forwards` on top of the
/// resolved base tables, as SEG1 bytes (deterministic comparison form).
fn remapped_seg_bytes(r: &RunResult, forwards: &[(u64, u64)]) -> Vec<bytes::Bytes> {
    let resolved = compress_forwards(forwards);
    r.segmentation
        .iter()
        .map(|seg| {
            let mut seg = seg.clone();
            remap_tables(&mut seg, &resolved);
            segwire::serialize(&seg)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hierarchy_replay_is_bit_identical_across_schedules(
        seed in 0u64..10_000,
        size in 9u32..13,
        kind in 0usize..3,
        ranks_i in 0usize..3,
        threads_i in 0usize..3,
        blocks_exp in 1u32..4,
        full in any::<bool>(),
        frac in 0.0f64..1.0,
    ) {
        let blocks = 1u32 << blocks_exp;
        let ranks = [1u32, 2, 4][ranks_i].min(blocks);
        let threads = [1usize, 2, 4][threads_i];
        let input = Input::Memory(Arc::new(make_field(kind, Dims::cube(size), seed)));
        let want = run(&input, 1, blocks, 1, full);
        let got = run(&input, ranks, blocks, threads, full);

        // the recorded artifact is schedule-independent, byte for byte
        prop_assert_eq!(got.hierarchies.len(), want.hierarchies.len());
        for (i, (g, w)) in got.hierarchies.iter().zip(&want.hierarchies).enumerate() {
            prop_assert_eq!(
                hwire::serialize(g),
                hwire::serialize(w),
                "hierarchy {} with {} ranks / {} threads diverged from serial",
                i, ranks, threads
            );
        }

        // prefix replay at an arbitrary threshold reproduces a direct
        // simplification of the base complex, for every ordering
        let sizes = region_sizes(want.segmentation.iter());
        for (slot, (h, base)) in want.hierarchies.iter().zip(&want.outputs).enumerate() {
            for ordering in h.orderings() {
                let records = h.records(ordering).unwrap();
                let t = match records.len() {
                    0 => f32::INFINITY,
                    n => records[((n - 1) as f64 * frac) as usize].key,
                };
                let m = h.materialize(base, ordering, t).unwrap();
                let mut direct = base.clone();
                let mut order = match ordering {
                    Ordering::Difference => CancelOrder::Difference,
                    Ordering::Count => CancelOrder::Count(sizes.clone()),
                };
                let mut fw = Vec::new();
                simplify_with(
                    &mut direct,
                    SimplifyParams {
                        threshold: t,
                        max_new_arcs: h.params.max_new_arcs,
                        max_parallel_arcs: h.params.max_parallel_arcs,
                    },
                    &mut order,
                    None,
                    Some(&mut fw),
                )
                .unwrap();
                direct.compact();
                prop_assert_eq!(
                    cwire::serialize(&m.complex),
                    cwire::serialize(&direct),
                    "slot {} {:?} replay at t={} diverged from direct simplification",
                    slot, ordering, t
                );
                prop_assert_eq!(&m.forwards, &fw, "slot {} {:?} forwards", slot, ordering);

                // the replayed labels are identical whichever run's
                // artifacts they are derived from
                let a = remapped_seg_bytes(&want, &m.forwards);
                let gm = got.hierarchies[slot]
                    .materialize(&got.outputs[slot], ordering, t)
                    .unwrap();
                let b = remapped_seg_bytes(&got, &gm.forwards);
                prop_assert_eq!(a, b, "slot {} {:?} remapped labels", slot, ordering);
            }
        }
    }

    #[test]
    fn extension_chains_equal_from_scratch_and_direct(
        seed in 0u64..10_000,
        size in 9u32..13,
        kind in 0usize..3,
        blocks_exp in 1u32..4,
        full in any::<bool>(),
        f0 in 0.0f64..1.0,
        f1 in 0.0f64..1.0,
        f2 in 0.0f64..1.0,
    ) {
        let blocks = 1u32 << blocks_exp;
        let input = Input::Memory(Arc::new(make_field(kind, Dims::cube(size), seed)));
        let r = run(&input, 1, blocks, 1, full);
        let sizes = region_sizes(r.segmentation.iter());
        for (slot, (h, base)) in r.hierarchies.iter().zip(&r.outputs).enumerate() {
            for ordering in h.orderings() {
                // a chain k0 <= k1 <= k2 of prefixes that thresholds can
                // name (so a direct run exists to compare against)
                let records = h.records(ordering).unwrap();
                let mut chain: Vec<(usize, f32)> = [f0, f1, f2]
                    .iter()
                    .map(|f| match records.len() {
                        0 => f32::INFINITY,
                        n => records[((n - 1) as f64 * f) as usize].key,
                    })
                    .map(|t| (h.prefix_len(ordering, t).unwrap(), t))
                    .collect();
                chain.sort_by_key(|&(k, _)| k);
                let mut extended = h.materialize_k(base, ordering, 0).unwrap();
                for (k, t) in chain {
                    extended = h.extend(&extended, ordering, k).unwrap();
                    let scratch = h.materialize_k(base, ordering, k).unwrap();
                    let mut direct = base.clone();
                    let mut order = match ordering {
                        Ordering::Difference => CancelOrder::Difference,
                        Ordering::Count => CancelOrder::Count(sizes.clone()),
                    };
                    let mut fw = Vec::new();
                    let stats = simplify_with(
                        &mut direct,
                        SimplifyParams {
                            threshold: t,
                            max_new_arcs: h.params.max_new_arcs,
                            max_parallel_arcs: h.params.max_parallel_arcs,
                        },
                        &mut order,
                        None,
                        Some(&mut fw),
                    )
                    .unwrap();
                    direct.compact();
                    let at = format!("slot {} {:?} prefix {} (t={})", slot, ordering, k, t);
                    let bytes = cwire::serialize(&extended.complex);
                    prop_assert_eq!(&bytes, &cwire::serialize(&scratch.complex), "{}", at);
                    prop_assert_eq!(&bytes, &cwire::serialize(&direct), "{}", at);
                    prop_assert_eq!(&extended.forwards, &scratch.forwards, "{}", at);
                    prop_assert_eq!(&extended.forwards, &fw, "{}", at);
                    prop_assert_eq!(extended.stats, scratch.stats, "{}", at);
                    // a replay executes cancellations only: the pairs the
                    // live loop popped and skipped are not part of it
                    let executed = SimplifyStats {
                        skipped_valence: 0,
                        ..stats
                    };
                    prop_assert_eq!(extended.stats, executed, "{}", at);
                    prop_assert_eq!((extended.applied, scratch.applied), (k, k), "{}", at);

                    // compact: a sound complex, and a fixed point
                    prop_assert_eq!(direct.check_integrity(), Ok(()), "{}", at);
                    direct.compact();
                    prop_assert_eq!(direct.check_integrity(), Ok(()), "{}", at);
                    prop_assert_eq!(&cwire::serialize(&direct), &bytes, "recompacted {}", at);
                }
            }
        }
    }
}
