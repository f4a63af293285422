//! Cross-layer accounting check: the comm-layer byte counters
//! (incremented inside `msp_vmpi::comm` on every send/recv) must agree
//! exactly with the pipeline-layer `ship_bytes` counter (summed
//! serialized wire-payload sizes at the merge sends) plus the one known
//! collective — the global min/max all-reduce.
//!
//! With no output file, a run's complete traffic is:
//!
//! * `allreduce_min_max` = 2 x `allreduce_f64`, each a gather of
//!   `W - 1` 8-byte legs into rank 0 plus a broadcast of `W - 1` 8-byte
//!   legs out of it: `32 * (W - 1)` bytes, `4 * (W - 1)` messages;
//! * one serialized-complex send per non-root merge slot per round whose
//!   root is on another rank. A member whose root shares its rank is
//!   handed over in memory: no message, and no `ship_bytes`.
//!
//! Telemetry sends nothing: each rank hands its report back with its
//! outputs, and `run_parallel` folds them.

use msp_core::{run_parallel, Input, MergePlan, PipelineParams};
use msp_grid::Dims;
use std::sync::Arc;

/// Run `blocks` blocks of a 9³ noise field on `w` ranks, merged by
/// `rounds`, and check the counters against `remote` cross-rank ships.
fn check_comm_accounting(w: u64, blocks: u32, rounds: Vec<u32>, remote: u64) {
    let input = Input::Memory(Arc::new(msp_synth::white_noise(Dims::cube(9), 23)));
    let n_rounds = rounds.len();
    let params = PipelineParams {
        plan: MergePlan::rounds(rounds),
        ..Default::default()
    };
    let r = run_parallel(&input, w as u32, blocks, &params, None).unwrap();
    let tel = &r.telemetry;
    assert_eq!(tel.n_ranks as u64, w);
    assert_eq!(tel.ranks.len() as u64, w);

    let allreduce_bytes = 32 * (w - 1);
    let allreduce_msgs = 4 * (w - 1);

    let ship_bytes = tel.counter_total("ship_bytes");
    assert!(ship_bytes > 0, "merge payloads are never empty");
    assert_eq!(
        tel.counter_total("bytes_sent"),
        ship_bytes + allreduce_bytes,
        "comm bytes must equal wire payloads + the min/max all-reduce"
    );
    assert_eq!(tel.counter_total("msgs_sent"), remote + allreduce_msgs);

    // conservation: everything sent is received
    assert_eq!(
        tel.counter_total("bytes_sent"),
        tel.counter_total("bytes_recv")
    );
    assert_eq!(
        tel.counter_total("msgs_sent"),
        tel.counter_total("msgs_recv")
    );

    // shipped complexes are non-trivial
    assert!(tel.counter_total("nodes_shipped") > 0);
    assert!(tel.counter_total("arcs_shipped") > 0);

    // per-merge-round spans made it through the aggregation
    for k in 0..n_rounds {
        let key = format!("merge_round[{k}]");
        let s = tel
            .phase_stat(&key)
            .unwrap_or_else(|| panic!("{key} present"));
        assert!(s.seconds.min >= 0.0 && s.seconds.max >= s.seconds.min);
        assert!(s.seconds.imbalance >= 1.0 || s.seconds.mean == 0.0);
    }

    // cross-rank aggregates are consistent with the raw per-rank data
    for cs in &tel.counter_stats {
        let per_rank: Vec<u64> = tel.ranks.iter().map(|rk| rk.counter(&cs.key)).collect();
        assert_eq!(
            cs.total,
            per_rank.iter().sum::<u64>(),
            "total of {}",
            cs.key
        );
        assert_eq!(cs.min, *per_rank.iter().min().unwrap());
        assert_eq!(cs.max, *per_rank.iter().max().unwrap());
    }
}

#[test]
fn comm_counters_match_wire_payload_sizes() {
    // one block per rank, 4 -> 2 -> 1: blocks 1, 3 ship in round 0 and
    // block 2 in round 1, each to another rank
    check_comm_accounting(4, 4, vec![2, 2], 3);
    // 8 blocks on 2 ranks, 8 -> 4 -> 2 -> 1: rank 0 holds blocks 0-3 and
    // rank 1 blocks 4-7, so rounds 0 and 1 merge on one rank and never
    // reach the comm layer; only slot 4 crosses to rank 0, in round 2
    check_comm_accounting(2, 8, vec![2, 2, 2], 1);
}

#[test]
fn single_rank_run_has_no_point_to_point_traffic() {
    let input = Input::Memory(Arc::new(msp_synth::white_noise(Dims::cube(8), 7)));
    let r = run_parallel(&input, 1, 1, &PipelineParams::default(), None).unwrap();
    let tel = &r.telemetry;
    // a world of one: the all-reduce is a local no-op
    assert_eq!(tel.counter_total("bytes_sent"), 0);
    assert_eq!(tel.counter_total("msgs_sent"), 0);
    assert_eq!(tel.counter_total("ship_bytes"), 0);
    // but compute counters still flow
    assert!(tel.counter_total("critical_cells") > 0);
    assert!(tel.counter_total("cells_paired") > 0);
}

#[test]
fn hierarchy_span_splits_into_sizes_and_one_record_span_per_ordering() {
    let input = Input::Memory(Arc::new(msp_synth::white_noise(Dims::cube(9), 23)));
    let params = PipelineParams {
        plan: MergePlan::full_merge(4),
        segment: true,
        hierarchy: true,
        ..Default::default()
    };
    let r = run_parallel(&input, 2, 4, &params, None).unwrap();
    // every rank aggregates sizes; only the rank holding the one output
    // slot records, both orderings, inside its `hierarchy` span
    let sub = ["hierarchy_sizes", "hierarchy_difference", "hierarchy_count"];
    let mut recorders = 0;
    for rank in &r.telemetry.ranks {
        let hierarchy = rank.phase_seconds("hierarchy").expect("hierarchy span");
        let parts: Vec<Option<f64>> = sub.iter().map(|k| rank.phase_seconds(k)).collect();
        assert!(parts[0].is_some(), "rank {}: {:?}", rank.rank, rank.phases);
        assert_eq!(parts[1].is_some(), parts[2].is_some());
        recorders += parts[1].is_some() as u32;
        let sum: f64 = parts.iter().flatten().sum();
        assert!(
            sum <= hierarchy + 1e-6,
            "rank {}: {sum} > {hierarchy}",
            rank.rank
        );
    }
    assert_eq!(recorders, 1);
}
