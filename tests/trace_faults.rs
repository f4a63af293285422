//! Trace causality under injected faults: dropped messages leave an
//! orphan send plus a receiver timeout event, crash recovery shows up as
//! `recover` spans attributed to the ranks doing the recovering — and in
//! all cases the traced run still produces bit-identical outputs.

use morse_smale_parallel::complex::wire;
use morse_smale_parallel::core::{run_parallel, FaultConfig, Input, MergePlan, PipelineParams};
use morse_smale_parallel::fault::FaultPlan;
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::synth;
use std::sync::Arc;
use std::time::Duration;

const RANKS: u32 = 4;
const BLOCKS: u32 = 8;

fn test_input() -> Input {
    Input::Memory(Arc::new(synth::gaussian_bumps(Dims::cube(17), 3, 0.12, 41)))
}

fn base_params(trace: bool) -> PipelineParams {
    PipelineParams {
        persistence_frac: 0.02,
        plan: MergePlan::rounds(vec![2, 2]),
        trace,
        ..Default::default()
    }
}

fn fault_params(plan: FaultPlan) -> PipelineParams {
    PipelineParams {
        fault: FaultConfig {
            plan: Some(plan),
            checkpoint: true,
            deadline: Duration::from_millis(400),
        },
        ..base_params(true)
    }
}

#[test]
fn dropped_message_leaves_orphan_send_and_timeout_event() {
    let input = test_input();
    let want: Vec<_> = run_parallel(&input, RANKS, BLOCKS, &base_params(false), None)
        .unwrap()
        .outputs
        .iter()
        .map(wire::serialize)
        .collect();

    // round 2: rank 3's slot 6 ships to rank 2's root 4; drop it
    let r = run_parallel(
        &input,
        RANKS,
        BLOCKS,
        &fault_params(FaultPlan::new().drop_msg(3, 2, 1)),
        None,
    )
    .unwrap();
    let tr = r.trace.as_ref().expect("trace requested");
    let m = tr.match_messages();
    assert!(
        m.unmatched_sends.iter().any(|s| s.dst == 2),
        "the dropped transfer stays an orphan send: {:?}",
        m.unmatched_sends
    );
    assert!(
        m.unmatched_recvs.is_empty(),
        "no recv without a send: {:?}",
        m.unmatched_recvs
    );
    let t2 = tr.ranks.iter().find(|t| t.rank == 2).unwrap();
    assert!(
        t2.timeouts.iter().any(|t| t.src == 3),
        "rank 2's expired deadline on rank 3 is a trace event: {:?}",
        t2.timeouts
    );
    assert!(
        t2.span_seconds("recover") > 0.0,
        "the checkpoint replay shows as a recover span on rank 2"
    );

    // the trace must be a pure observer: outputs stay bit-identical
    assert_eq!(r.outputs.len(), want.len());
    for (i, (c, w)) in r.outputs.iter().zip(&want).enumerate() {
        assert_eq!(wire::serialize(c), *w, "output block {i} identical");
    }
}

#[test]
fn crash_recovery_attributes_replayed_slots_to_recovering_ranks() {
    let input = test_input();
    // rank 3 dies at the round-2 cut, holding only slot 6, a member of
    // rank 2's root 4: rank 2 replays slot 6 from rank 3's checkpoint;
    // rank 3 reloads its own checkpoint (nothing of it is left to keep)
    // and carries on
    let r = run_parallel(
        &input,
        RANKS,
        BLOCKS,
        &fault_params(FaultPlan::new().crash(3, 2)),
        None,
    )
    .unwrap();
    assert_eq!(r.telemetry.counter_total("crashes"), 1);
    let tr = r.trace.as_ref().unwrap();
    let t2 = tr.ranks.iter().find(|t| t.rank == 2).unwrap();
    assert!(
        t2.span_seconds("recover") > 0.0,
        "root rank 2 owns the replay recover span"
    );
    assert!(
        t2.timeouts.iter().any(|t| t.src == 3),
        "detection deadline on the dead peer is recorded"
    );
    let t3 = tr.ranks.iter().find(|t| t.rank == 3).unwrap();
    assert!(
        t3.span_seconds("recover") > 0.0,
        "crashed rank 3 records restoring its own state"
    );
    // the crashed rank never handed its round-2 payload to the comm
    // layer, so nothing from rank 3 to rank 2 may pair up as delivered
    let m = tr.match_messages();
    assert!(
        !m.edges.iter().any(|e| e.src == 3 && e.dst == 2),
        "no delivered round-2 edge from the crashed rank: {:?}",
        m.edges
    );
}

#[test]
fn simulated_crash_trace_pairs_messages_and_charges_the_root() {
    use morse_smale_parallel::core::{simulate, SimParams};
    let field = synth::gaussian_bumps(Dims::cube(17), 3, 0.12, 41);
    // rank 3 dies at the round-1 cut of a radix-8 full merge: root 0
    // waits out the deadline and replays block 3 from its checkpoint
    let params = SimParams {
        persistence_frac: 0.02,
        plan: MergePlan::full_merge(8),
        trace: true,
        fault: FaultConfig::with_plan(FaultPlan::new().crash(3, 1)),
        ..Default::default()
    };
    let r = simulate(&field, 8, &params).unwrap();
    assert_eq!(r.crashes, 1);
    let tr = r.trace.as_ref().expect("trace requested");
    let m = tr.match_messages();
    assert!(!m.edges.is_empty());
    assert!(m.unmatched_recvs.is_empty(), "{:?}", m.unmatched_recvs);
    assert!(m.unmatched_sends.is_empty(), "{:?}", m.unmatched_sends);
    for e in &m.edges {
        assert!(e.t_recv_ns >= e.t_send_ns, "causality on the virtual clock");
    }
    let t0 = tr.ranks.iter().find(|t| t.rank == 0).unwrap();
    assert_eq!(t0.timeouts.len(), 1, "the crash's timeout is the one gap");
    assert_eq!(t0.timeouts[0].src, 3);
    assert!(t0.span_seconds("recover") > 0.0, "the root owns the replay");
    let cp = tr.critical_path().expect("non-empty trace has a path");
    assert!(cp.total_ns > 0);
    assert!(cp.total_ns as f64 * 1e-9 <= r.total_s * (1.0 + 1e-9));
}

#[test]
fn every_checkpoint_cut_is_a_checkpoint_span() {
    // two merge rounds: one cut inside each, and the pre-write cut
    let r = run_parallel(
        &test_input(),
        RANKS,
        BLOCKS,
        &fault_params(FaultPlan::new()),
        None,
    )
    .unwrap();
    let tr = r.trace.as_ref().expect("trace requested");
    for t in &tr.ranks {
        let spans = |key: String| t.spans.iter().filter(move |s| s.key == key);
        let cuts: Vec<_> = spans("checkpoint".into()).collect();
        assert_eq!(cuts.len(), 3, "rank {}", t.rank);
        for (k, cut) in cuts.iter().take(2).enumerate() {
            let round = spans(format!("merge_round[{k}]")).next().unwrap();
            assert!(round.t0_ns <= cut.t0_ns && cut.t1_ns <= round.t1_ns);
        }
        let write = spans("write".into()).next().unwrap();
        assert!(cuts[2].t1_ns <= write.t0_ns, "rank {}", t.rank);
        let rank = r.telemetry.ranks.iter().find(|x| x.rank == t.rank).unwrap();
        assert_eq!(
            rank.phase_seconds("checkpoint"),
            Some(t.span_seconds("checkpoint"))
        );
    }
    let plain = run_parallel(&test_input(), RANKS, BLOCKS, &base_params(true), None).unwrap();
    assert!(plain.telemetry.phase_stat("checkpoint").is_none());
}
