//! Causal-trace integration tests on the threaded backend: a traced
//! 4-rank, 2-round merge run with segmentation and a hierarchy (so the
//! nested resolve and hierarchy spans are covered), at one and at three
//! threads, must produce a trace whose span totals equal the rank
//! reports' phase totals, whose message events pair up exactly, and
//! whose Chrome-trace export round-trips through the JSON parser with
//! well-formed span and flow events. The critical-path solver is pinned
//! to a hand-constructed scenario with a known longest chain.

use morse_smale_parallel::core::{run_parallel, Input, MergePlan, PipelineParams, RunResult};
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::synth;
use morse_smale_parallel::telemetry::{Json, RankTrace, RunTrace};
use std::collections::HashMap;
use std::sync::Arc;

const RANKS: u32 = 4;

/// The traced run at one and at three threads per rank.
fn traced_runs() -> Vec<RunResult> {
    let input = Input::Memory(Arc::new(synth::gaussian_bumps(Dims::cube(17), 3, 0.12, 41)));
    [1, 3]
        .into_iter()
        .map(|threads| {
            let params = PipelineParams {
                persistence_frac: 0.02,
                // 4 blocks -> 2 -> 1: two merge rounds
                plan: MergePlan::rounds(vec![2, 2]),
                threads: Some(threads),
                segment: true,
                hierarchy: true,
                trace: true,
                ..Default::default()
            };
            run_parallel(&input, RANKS, RANKS, &params, None).unwrap()
        })
        .collect()
}

#[test]
fn trace_span_totals_equal_recorder_phase_totals() {
    for r in traced_runs() {
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
                assert_eq!(
                    t.span_seconds(key),
                    *rec_s,
                    "rank {} phase '{key}': trace vs report",
                    rank.rank
                );
            }
            // every phase span in the trace is one the report counted;
            // the rest are the trace's own marks
            for s in &t.spans {
                assert!(
                    rank.phase_seconds(&s.key).is_some()
                        || matches!(s.key.as_str(), "recover" | "seg_round"),
                    "rank {} span '{}'",
                    rank.rank,
                    s.key
                );
            }
        }
        for key in ["seg_resolve", "hierarchy", "hierarchy_sizes"] {
            assert!(r.telemetry.phase_stat(key).is_some(), "phase {key} ran");
        }
    }
}

#[test]
fn every_recv_has_a_matching_send_absent_faults() {
    for r in traced_runs() {
        let m = r.trace.as_ref().unwrap().match_messages();
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
}

#[test]
fn chrome_export_round_trips_with_paired_flow_edges() {
    let dir = std::env::temp_dir().join(format!("msp_trace_it_{}", std::process::id()));
    for (i, r) in traced_runs().iter().enumerate() {
        let tr = r.trace.as_ref().unwrap();
        let path = tr.write(&dir, &format!("trace_pipeline_{i}")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).expect("trace file parses");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array")
        };
        let mut n_spans = 0;
        // flow id -> (starts, finishes)
        let mut flows: HashMap<u64, (u32, u32)> = HashMap::new();
        for e in events {
            let num = |k: &str| e.get(k).and_then(Json::as_f64);
            match e.get("ph").and_then(Json::as_str) {
                Some("X") => {
                    n_spans += 1;
                    assert!(num("ts").is_some(), "span without a numeric ts: {e:?}");
                    assert!(num("dur").is_some_and(|d| d >= 0.0), "bad dur: {e:?}");
                }
                Some(ph @ ("s" | "f")) => {
                    let id = e.get("id").and_then(Json::as_u64);
                    let n = flows.entry(id.expect("flow event has a u64 id"));
                    let n = n.or_default();
                    if ph == "s" {
                        n.0 += 1
                    } else {
                        n.1 += 1
                    }
                }
                _ => {}
            }
        }
        assert!(n_spans > 0, "document contains complete ('X') span events");
        assert!(
            flows.values().all(|&n| n == (1, 1)),
            "every flow id has exactly one start and one finish"
        );
        assert_eq!(flows.len(), tr.match_messages().edges.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn critical_path_is_bounded_by_wall_clock() {
    for r in traced_runs() {
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
