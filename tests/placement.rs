//! Block placement on the uniform decomposition: each rank holds one
//! contiguous range of block ids, so it owns whole subtrees of the radix
//! merge tree. The early rounds merge on one rank, only the top of the
//! tree crosses ranks, and neither the bytes a run writes nor the glue
//! work it does in total depend on how many ranks carry the blocks.

use morse_smale_parallel::core::{run_parallel, Input, MergePlan, PipelineParams};
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::synth;
use std::path::PathBuf;
use std::sync::Arc;

const BLOCKS: u32 = 8;

fn input() -> Input {
    Input::Memory(Arc::new(synth::white_noise(Dims::cube(17), 31)))
}

/// Three radix-2 rounds, 8 -> 4 -> 2 -> 1.
fn params() -> PipelineParams {
    PipelineParams {
        persistence_frac: 0.02,
        plan: MergePlan::rounds(vec![2, 2, 2]),
        ..Default::default()
    }
}

#[test]
fn two_ranks_cross_once_at_the_top_of_the_tree() {
    // rank 0 holds blocks 0-3 and rank 1 blocks 4-7: rounds 0 and 1
    // glue on both ranks at once, and round 2 ships slot 4 to rank 0
    let traced = PipelineParams {
        trace: true,
        ..params()
    };
    let r = run_parallel(&input(), 2, BLOCKS, &traced, None).unwrap();
    let tr = r.trace.as_ref().expect("trace requested");
    let m = tr.match_messages();
    // merge tags are `round << 20 | slot`; the collectives' are not slots
    let merges: Vec<(u32, u32, u32, u32)> = (m.edges.iter())
        .filter(|e| e.tag & 0xF_FFFF < BLOCKS)
        .map(|e| (e.src, e.dst, e.tag >> 20, e.tag & 0xF_FFFF))
        .collect();
    assert_eq!(merges, vec![(1, 0, 2, 4)], "{:?}", m.edges);
    let tel = &r.telemetry;
    for rank in &tel.ranks {
        assert!(
            rank.phase_seconds("glue").is_some(),
            "rank {} glues its own subtree",
            rank.rank
        );
    }
    let shipped: Vec<u64> = tel
        .ranks
        .iter()
        .map(|k| k.counter("nodes_shipped"))
        .collect();
    assert!(shipped[0] == 0 && shipped[1] > 0, "{shipped:?}");
}

#[test]
fn glue_work_totals_do_not_depend_on_the_rank_count() {
    let totals = |ranks| {
        let r = run_parallel(&input(), ranks, BLOCKS, &params(), None).unwrap();
        let tel = &r.telemetry;
        let per_rank: Vec<u64> = tel.ranks.iter().map(|k| k.counter("glued_nodes")).collect();
        let total = (
            tel.counter_total("glued_nodes"),
            tel.counter_total("glued_arcs"),
        );
        (total, per_rank)
    };
    let (one, _) = totals(1);
    assert!(one.0 > 0 && one.1 > 0, "{one:?}");
    for ranks in 2..=4 {
        let (total, per_rank) = totals(ranks);
        assert_eq!(total, one, "{ranks} ranks");
        // every rank roots a round-0 group, so every rank glues
        assert!(
            per_rank.iter().all(|&n| n > 0),
            "{ranks} ranks: {per_rank:?}"
        );
    }
}

#[test]
fn eight_blocks_on_three_ranks_write_the_one_rank_bytes() {
    // 3 ranks hold blocks 0-2, 3-5 and 6-7: slot 3 crosses ranks in
    // round 0, slot 6 in round 1 and slot 4 in round 2; the other members
    // are handed over on their root's rank
    let all = PipelineParams {
        segment: true,
        hierarchy: true,
        ..params()
    };
    let dir = std::env::temp_dir();
    let files = |ranks: u32| {
        let out = dir.join(format!("msp_place_{}_{ranks}.msc", std::process::id()));
        run_parallel(&input(), ranks, BLOCKS, &all, Some(&out)).unwrap();
        let paths: Vec<PathBuf> = ["", ".seg", ".msh"]
            .iter()
            .map(|ext| PathBuf::from(format!("{}{ext}", out.display())))
            .collect();
        let bytes: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        for p in &paths {
            std::fs::remove_file(p).unwrap();
        }
        bytes
    };
    let (one, three) = (files(1), files(3));
    for (ext, (a, b)) in ["msc", "seg", "msh"].iter().zip(one.iter().zip(&three)) {
        assert!(!a.is_empty(), ".{ext} written");
        assert!(a == b, ".{ext}: 3 ranks differ from 1 rank");
    }
}
