//! Serve-layer latency: query-mix × cache-size sweep over [`ServerCore`]
//! with the schema-self-checked `results/BENCH_serve.json` output.
//!
//! One `--hierarchy` pipeline run builds the dataset in memory; each
//! sweep cell then replays a deterministic query stream against a fresh
//! server and reads p50/p99 per query class, QPS and the cache hit rate
//! out of the serve statistics. Two mixes bracket the cache behavior:
//!
//! * `repeat` — thresholds drawn from a pool of 4, so a warm cache
//!   answers almost everything (hit rate must be high);
//! * `scan` — a long ascending stride over the recorded keys: every
//!   distinct prefix is materialized once, as a delta replay off the
//!   previous one, whatever the cache size.
//!
//! Knobs:
//!
//! * `MSP_SCALE=small|default|large` — volume size and query count;
//! * `MSP_PERSISTENCE=F` — ingest-run threshold (default 0, the full
//!   hierarchy), validated by the shared `parse_persistence` helper;
//! * `MSP_CHECK=1` — run the oracle invariant checker inside the ingest
//!   run, and assert every response is ok, the repeat mix hits the
//!   cache, and p50 ≤ p99 per class.
//!
//! ```text
//! cargo run --release -p msp-bench --bin serve_latency
//! ```

use msp_bench::{results_dir, Scale, Table};
use msp_core::{
    parse_persistence, run_parallel, Dataset, Input, MergePlan, PipelineParams, RunResult,
    ServeConfig, ServerCore,
};
use msp_telemetry::{check_from_env, Json};
use std::sync::Arc;
use std::time::Instant;

const BLOCKS: u32 = 8;

fn field_of(j: &Json, key: &str) -> Json {
    let Json::Obj(pairs) = j else {
        panic!("expected object around {key}")
    };
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("missing field {key}"))
}

fn as_u64(j: &Json, key: &str) -> u64 {
    match field_of(j, key) {
        Json::U64(n) => n,
        other => panic!("{key} is not a u64: {other:?}"),
    }
}

fn as_f64(j: &Json, key: &str) -> f64 {
    match field_of(j, key) {
        Json::F64(v) => v,
        Json::U64(n) => n as f64,
        other => panic!("{key} is not a number: {other:?}"),
    }
}

/// Deterministic splitmix64 stream so the workload replays identically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

fn dataset_of(r: &RunResult) -> Dataset {
    Dataset {
        name: "bench".to_string(),
        bases: r.outputs.clone(),
        hierarchies: r.hierarchies.clone(),
        segs: r.segmentation.clone(),
    }
}

fn main() {
    let check = check_from_env();
    let scale = Scale::from_env();
    let size = scale.pick(17, 33, 65);
    let queries = scale.pick(300usize, 2_000, 10_000);

    // pipeline threshold for the ingest run; lower leaves more records
    // in the hierarchy (validated by the same helper as `msc compute`)
    let persistence = match std::env::var("MSP_PERSISTENCE") {
        Ok(s) => parse_persistence(&s).expect("MSP_PERSISTENCE"),
        Err(_) => 0.0,
    };

    let input = Input::Memory(Arc::new(msp_synth::sinusoid(size, 3)));
    let params = PipelineParams {
        persistence_frac: persistence,
        plan: MergePlan::full_merge(BLOCKS),
        segment: true,
        hierarchy: true,
        check,
        ..Default::default()
    };
    let r = run_parallel(&input, 2, BLOCKS, &params, None).expect("pipeline run");
    // threshold pools come from the recorded keys, so every query lands
    // inside the hierarchy's actual persistence range
    let keys: Vec<f32> = r.hierarchies[0]
        .difference
        .iter()
        .map(|rec| rec.key)
        .collect();
    assert!(!keys.is_empty(), "hierarchy recorded no cancellations");
    let key_at = |frac: f64| keys[((keys.len() - 1) as f64 * frac) as usize];
    println!(
        "serve latency: sinusoid {size}^3, {BLOCKS} blocks, {} record(s), {queries} queries\n",
        keys.len()
    );

    let table = Table::new(&[
        "mix",
        "cache",
        "queries",
        "hit_rate",
        "qps",
        "thr_p50_us",
        "thr_p99_us",
        "d_p50_us",
        "d_p99_us",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    for mix in ["repeat", "scan"] {
        for cache in [2usize, 32] {
            let core = ServerCore::new(
                vec![dataset_of(&r)],
                ServeConfig {
                    cache_capacity: cache,
                    threads: 1,
                    ..Default::default()
                },
            );
            let mut rng = Rng(0xC0FFEE ^ cache as u64);
            // client-side exact latencies of the threshold class, for
            // the histogram-vs-exact quantile comparison below
            let mut exact_thr: Vec<u64> = Vec::new();
            for i in 0..queries {
                let t = match mix {
                    // 4 hot thresholds: the cache should absorb these
                    "repeat" => key_at([0.2, 0.5, 0.8, 1.0][rng.next() as usize % 4]),
                    // a long ascending stride: one delta replay per
                    // distinct prefix
                    _ => key_at(i as f64 / queries as f64),
                };
                let (line, is_thr) = match rng.next() % 10 {
                    0..=6 => (format!("{{\"op\":\"threshold\",\"t\":{t}}}"), true),
                    7 => (format!("{{\"op\":\"extrema\",\"t\":{t},\"top\":5}}"), false),
                    8 => (format!("{{\"op\":\"segment-stats\",\"t\":{t}}}"), false),
                    _ => ("{\"op\":\"ping\"}".to_string(), false),
                };
                let t0 = Instant::now();
                let (resp, _) = core.handle_line(&line);
                if is_thr {
                    exact_thr.push(t0.elapsed().as_micros() as u64);
                }
                if check {
                    assert!(
                        !resp.contains("\"ok\":false"),
                        "{mix}/{cache}: error response to {line}: {resp}"
                    );
                }
            }
            // exact quantiles use the histogram's nearest-rank
            // convention so the delta isolates the bucketing error
            exact_thr.sort_unstable();
            let exact_at = |pct: usize| exact_thr[(exact_thr.len() - 1) * pct / 100];
            let (exact_p50, exact_p99) = (exact_at(50), exact_at(99));
            let stats = core.stats_json();
            let hit_rate = as_f64(&stats, "hit_rate");
            let qps = as_f64(&stats, "qps");
            let classes = field_of(&stats, "classes");
            let thr = field_of(&classes, "threshold");
            let (p50, p99) = (as_u64(&thr, "p50_us"), as_u64(&thr, "p99_us"));
            // The server histogram times the dispatch only, and its
            // quantile rounds down to a bucket floor — so it must sit
            // at or below the client-side exact quantile, and the gap
            // is the bucketing error plus the client's call overhead.
            let (d_p50, d_p99) = (exact_p50.saturating_sub(p50), exact_p99.saturating_sub(p99));
            if check {
                assert!(
                    p50 <= exact_p50 && p99 <= exact_p99,
                    "{mix}/{cache}: histogram quantiles above client-exact \
                     (p50 {p50} vs {exact_p50}, p99 {p99} vs {exact_p99})"
                );
                assert_eq!(as_u64(&stats, "errors"), 0, "{mix}/{cache}: errors");
                assert!(p50 <= p99, "{mix}/{cache}: p50 {p50} > p99 {p99}");
                let Json::Obj(cls) = &classes else {
                    panic!("classes is not an object")
                };
                for (name, c) in cls {
                    assert!(
                        as_u64(c, "p50_us") <= as_u64(c, "p99_us"),
                        "{mix}/{cache}: class {name} quantiles out of order"
                    );
                }
                if mix == "repeat" {
                    assert!(
                        hit_rate > 0.5,
                        "{mix}/{cache}: hit rate {hit_rate:.2} too low for a 4-key workload"
                    );
                }
            }
            table.row(&[
                mix.to_string(),
                format!("{cache}"),
                format!("{queries}"),
                format!("{hit_rate:.3}"),
                format!("{qps:.0}"),
                format!("{p50}"),
                format!("{p99}"),
                format!("{d_p50}"),
                format!("{d_p99}"),
            ]);
            rows.push(Json::obj(vec![
                ("mix", Json::str(mix)),
                ("cache", Json::U64(cache as u64)),
                ("queries", Json::U64(queries as u64)),
                ("hits", Json::U64(as_u64(&stats, "hits"))),
                ("misses", Json::U64(as_u64(&stats, "misses"))),
                (
                    "replayed_records",
                    Json::U64(as_u64(&stats, "replayed_records")),
                ),
                ("hit_rate", Json::F64(hit_rate)),
                ("qps", Json::F64(qps)),
                ("thr_exact_p50_us", Json::U64(exact_p50)),
                ("thr_exact_p99_us", Json::U64(exact_p99)),
                ("thr_hist_delta_p50_us", Json::U64(d_p50)),
                ("thr_hist_delta_p99_us", Json::U64(d_p99)),
                ("classes", classes),
            ]));
        }
    }

    let doc = Json::obj(vec![
        ("kind", Json::str("serve_latency")),
        ("volume", Json::str(format!("sinusoid_{size}_3"))),
        ("blocks", Json::U64(BLOCKS as u64)),
        ("records", Json::U64(keys.len() as u64)),
        ("runs", Json::Arr(rows)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_serve.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_serve.json");
    println!("\nbench written to {}", path.display());

    // schema self-check: the emitted document must round-trip
    let text = std::fs::read_to_string(&path).expect("read back BENCH_serve.json");
    let parsed =
        Json::parse(&text).unwrap_or_else(|e| panic!("{} does not re-parse: {e}", path.display()));
    let Json::Arr(runs) = field_of(&parsed, "runs") else {
        panic!("runs is not an array");
    };
    assert_eq!(runs.len(), 4, "round-trip preserves the sweep");
    for run in &runs {
        let (h, m) = (as_u64(run, "hits"), as_u64(run, "misses"));
        let rate = as_f64(run, "hit_rate");
        assert!(
            (rate - h as f64 / (h + m).max(1) as f64).abs() < 1e-9,
            "hit_rate inconsistent with hits/misses after round-trip"
        );
    }
    println!("schema self-check OK ({} runs)", runs.len());
}
