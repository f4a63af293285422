//! Causal-trace integration tests on the threaded backend: a traced
//! 4-rank, 2-round merge run must produce a trace whose span totals agree
//! with the telemetry recorder, whose message events pair up exactly, and
//! whose Chrome-trace export round-trips through the JSON parser. The
//! critical-path solver is pinned to a hand-constructed scenario with a
//! known longest chain.

use morse_smale_parallel::core::{run_parallel, Input, MergePlan, PipelineParams, RunResult};
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::synth;
use morse_smale_parallel::telemetry::{Json, RankTrace, RunTrace};
use std::sync::Arc;

const RANKS: u32 = 4;

fn traced_run() -> RunResult {
    let input = Input::Memory(Arc::new(synth::gaussian_bumps(Dims::cube(17), 3, 0.12, 41)));
    let params = PipelineParams {
        persistence_frac: 0.02,
        // 4 blocks -> 2 -> 1: two merge rounds
        plan: MergePlan::rounds(vec![2, 2]),
        trace: true,
        ..Default::default()
    };
    run_parallel(&input, RANKS, RANKS, &params, None).unwrap()
}

#[test]
fn trace_span_totals_match_recorder_phase_totals_within_1pct() {
    let r = traced_run();
    let tr = r.trace.as_ref().expect("trace requested");
    assert_eq!(tr.ranks.len(), RANKS as usize);
    for rank in &r.telemetry.ranks {
        let t = tr
            .ranks
            .iter()
            .find(|t| t.rank == rank.rank)
            .unwrap_or_else(|| panic!("rank {} missing from trace", rank.rank));
        assert_eq!(t.unbalanced, 0, "rank {} trace is balanced", rank.rank);
        for (key, rec_s) in &rank.phases {
            // merged (interval-union) seconds: the local stage replays
            // concurrent thread-local spans, whose raw sum can exceed
            // the wall clock; the recorder's buckets hold the union
            let trace_s = t.merged_span_seconds(key);
            let tol = (rec_s * 0.01).max(0.5e-3);
            assert!(
                (trace_s - rec_s).abs() <= tol,
                "rank {} phase '{key}': trace {trace_s}s vs recorder {rec_s}s",
                rank.rank
            );
        }
    }
}

#[test]
fn every_recv_has_a_matching_send_absent_faults() {
    let r = traced_run();
    let tr = r.trace.as_ref().unwrap();
    let m = tr.match_messages();
    assert!(!m.edges.is_empty(), "a 2-round merge moves messages");
    assert!(m.unmatched_sends.is_empty(), "{:?}", m.unmatched_sends);
    assert!(m.unmatched_recvs.is_empty(), "{:?}", m.unmatched_recvs);
    for e in &m.edges {
        assert!(
            e.t_recv_ns >= e.t_send_ns,
            "causality: recv at {} before send at {}",
            e.t_recv_ns,
            e.t_send_ns
        );
    }
}

#[test]
fn chrome_export_round_trips_with_paired_flow_edges() {
    let r = traced_run();
    let tr = r.trace.as_ref().unwrap();
    let dir = std::env::temp_dir().join(format!("msp_trace_it_{}", std::process::id()));
    let path = tr.write(&dir, "trace_pipeline").unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let doc = Json::parse(&text).expect("trace file parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array")
    };
    assert!(!events.is_empty());
    let ids = |want: &str| -> Vec<u64> {
        let mut v: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(want))
            .map(|e| {
                e.get("id")
                    .and_then(Json::as_u64)
                    .expect("flow event has a u64 id")
            })
            .collect();
        v.sort_unstable();
        v
    };
    let starts = ids("s");
    let finishes = ids("f");
    assert!(!starts.is_empty(), "flow edges present");
    assert_eq!(starts, finishes, "every flow start has a finish");
    assert_eq!(starts.len(), tr.match_messages().edges.len());
}

#[test]
fn critical_path_is_bounded_by_wall_clock() {
    let r = traced_run();
    let tr = r.trace.as_ref().unwrap();
    let cp = tr.critical_path().expect("non-empty trace has a path");
    assert!(cp.total_ns > 0);
    assert!(cp.total_ns <= cp.wall_ns);
    // the run report carries the same path as structured metadata
    let rendered = r.telemetry.to_json().pretty();
    assert!(
        rendered.contains("critical_path"),
        "telemetry report embeds the critical path"
    );
}

#[test]
fn critical_path_equals_known_longest_chain() {
    // Hand-constructed scenario with one causal choice: rank 0 works
    // 100ns then ships to rank 1, which idled 40ns early on and resumes
    // at the recv. The longest chain is a[0..100] -> (message) ->
    // c[150..400]: 350ns of work on a 400ns wall clock.
    let mut r0 = RankTrace::new(0);
    r0.span("a", 0, 100);
    r0.send(1, 7, 1, 64, 100);
    let mut r1 = RankTrace::new(1);
    r1.span("b", 0, 40);
    r1.span("c", 150, 400);
    r1.recv(0, 7, 1, 64, 150);
    let tr = RunTrace::from_ranks(vec![r0, r1]);
    let cp = tr.critical_path().unwrap();
    assert_eq!(cp.total_ns, 350);
    assert_eq!(cp.wall_ns, 400);
    let steps: Vec<(u32, &str, u64)> = cp
        .steps
        .iter()
        .map(|s| (s.rank, s.key.as_str(), s.dur_ns))
        .collect();
    assert_eq!(steps, vec![(0, "a", 100), (1, "c", 250)]);
}
