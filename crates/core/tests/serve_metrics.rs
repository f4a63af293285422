//! End-to-end metrics agreement: one server, three exposition paths,
//! one truth.
//!
//! Builds a small in-memory dataset, serves it over a real TCP
//! listener, drives a mixed query workload through the line-JSON
//! protocol, then reads the same counters back through all three
//! surfaces the live registry exports:
//!
//! 1. `GET /metrics` — Prometheus text format, parsed here line by
//!    line (every sample must parse, histogram `_bucket` series must
//!    be cumulative with the `+Inf` bucket equal to `_count`);
//! 2. `{"op":"metrics"}` — the JSON snapshot;
//! 3. the final [`ServerCore::report`] — the versioned `RunReport`
//!    written at shutdown.
//!
//! All three must agree on `serve_queries` / `serve_hits` /
//! `serve_errors` within 1% (absolute slack of 1 absorbs the
//! documented in-flight off-by-one: a metrics op builds its reply
//! before it is itself counted). The same session gates the transport:
//! the median closed-loop `ping` round trip must stay under 5 ms, which
//! a reply leaving in more than one segment (~40 ms behind the client's
//! delayed ACK) cannot meet.

use msp_core::{run_parallel, Dataset, Input, MergePlan, PipelineParams, ServeConfig, ServerCore};
use msp_telemetry::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const BLOCKS: u32 = 8;
/// Closed-loop pings timed for the transport gate, and the limit on
/// their median round trip.
const PINGS: usize = 25;
const PING_MEDIAN_LIMIT_MS: f64 = 5.0;

fn counter_of(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("counter {name} missing or not a number"))
}

/// `|a - b| <= max(1, 1% of scale)` — the agreement contract.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= (0.01 * a.abs().max(b.abs())).max(1.0)
}

/// One line-JSON exchange on an existing connection; the request goes
/// out in one write so the client never stalls its own segments.
fn ask(reader: &mut impl BufRead, writer: &mut impl Write, line: &str) -> String {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");
    writer.flush().expect("flush request");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    resp.trim_end().to_string()
}

/// Plain HTTP/1.1 GET against the same listener, returning
/// `(status_line, body)`.
fn http_get(addr: &std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect for GET");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send GET");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read HTTP response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in response to GET {path}"));
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Parse Prometheus text format into `identifier -> value`, where the
/// identifier keeps its label set verbatim (`name{a="b"}`). Every
/// non-comment, non-blank line must be `<identifier> <float>`.
fn parse_prometheus(text: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparsable exposition line: {line}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric sample value in line: {line}"));
        if out.insert(id.to_string(), value).is_some() {
            panic!("duplicate sample {id} in exposition");
        }
    }
    out
}

#[test]
fn json_prometheus_and_report_counters_agree() {
    // ---- ingest: small in-memory dataset with a hierarchy ----
    let input = Input::Memory(Arc::new(msp_synth::sinusoid(17, 3)));
    let params = PipelineParams {
        persistence_frac: 0.0,
        plan: MergePlan::full_merge(BLOCKS),
        segment: true,
        hierarchy: true,
        ..Default::default()
    };
    let r = run_parallel(&input, 2, BLOCKS, &params, None).expect("pipeline run");
    let keys: Vec<f32> = r.hierarchies[0]
        .difference
        .iter()
        .map(|rec| rec.key)
        .collect();
    assert!(!keys.is_empty(), "hierarchy recorded no cancellations");
    let dataset = Dataset {
        name: "check".to_string(),
        bases: r.outputs.clone(),
        hierarchies: r.hierarchies.clone(),
        segs: r.segmentation.clone(),
    };

    // ---- serve over a real ephemeral-port listener ----
    let core = Arc::new(ServerCore::new(
        vec![dataset],
        ServeConfig {
            cache_capacity: 8,
            ..Default::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || msp_core::serve::serve_tcp(&core, listener))
    };

    // ---- workload: a mixed stream on one line-JSON connection ----
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY on the client");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let n_keys = keys.len();
    let mut sent = 0u64;
    let mut errors_sent = 0u64;
    for i in 0..60usize {
        let line = match i % 6 {
            // 4-key hot pool so the cache demonstrably hits
            0 | 1 => format!(
                "{{\"op\":\"threshold\",\"t\":{}}}",
                keys[(i % 4) * 7 % n_keys]
            ),
            2 => "{\"op\":\"ping\"}".to_string(),
            3 => format!(
                "{{\"op\":\"extrema\",\"t\":{},\"top\":3}}",
                keys[i % n_keys]
            ),
            4 => "{\"op\":\"health\"}".to_string(),
            _ => {
                errors_sent += 1;
                "{\"op\":\"no-such-op\"}".to_string()
            }
        };
        let resp = ask(&mut reader, &mut writer, &line);
        assert!(!resp.is_empty(), "empty response to {line}");
        sent += 1;
    }

    // ---- transport gate: closed-loop ping round trips ----
    let mut ping_ms: Vec<f64> = (0..PINGS)
        .map(|_| {
            let t0 = Instant::now();
            let pong = ask(&mut reader, &mut writer, "{\"op\":\"ping\"}");
            assert!(pong.contains("\"ok\":true"), "ping failed: {pong}");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    sent += PINGS as u64;
    ping_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let ping_median_ms = ping_ms[PINGS / 2];
    assert!(
        ping_median_ms < PING_MEDIAN_LIMIT_MS,
        "median ping round trip {ping_median_ms:.3} ms over {PINGS} pings \
         (limit {PING_MEDIAN_LIMIT_MS} ms): replies are not leaving in one segment"
    );

    // ---- surface 1: the JSON metrics snapshot ----
    let metrics_resp = ask(&mut reader, &mut writer, "{\"op\":\"metrics\"}");
    sent += 1;
    let metrics = Json::parse(&metrics_resp).expect("metrics reply parses");
    let json_queries = counter_of(&metrics, "serve_queries");
    let json_hits = counter_of(&metrics, "serve_hits");
    let json_errors = counter_of(&metrics, "serve_errors");
    assert!(
        close(json_queries, sent as f64),
        "JSON serve_queries {json_queries} vs {sent} sent"
    );
    assert!(
        close(json_errors, errors_sent as f64),
        "JSON serve_errors {json_errors} vs {errors_sent} sent"
    );
    assert!(json_hits > 0.0, "repeated thresholds never hit the cache");

    // ---- surface 2: the Prometheus exposition ----
    let (status, body) = http_get(&addr, "/metrics");
    assert!(status.contains("200"), "GET /metrics -> {status}");
    let prom = parse_prometheus(&body);
    for (name, json_val) in [
        ("serve_queries", json_queries),
        ("serve_hits", json_hits),
        ("serve_errors", json_errors),
    ] {
        let prom_val = *prom
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"));
        assert!(
            close(prom_val, json_val),
            "{name}: exposition {prom_val} vs JSON snapshot {json_val}"
        );
    }
    // histogram structure: cumulative buckets, +Inf == _count
    for class in ["threshold", "ping", "invalid"] {
        let series = format!("serve_latency_us{{class=\"{class}\"}}");
        let count = *prom
            .get(&format!("serve_latency_us_count{{class=\"{class}\"}}"))
            .unwrap_or_else(|| panic!("missing _count for {series}"));
        let mut buckets: Vec<(f64, f64)> = prom
            .iter()
            .filter(|(id, _)| {
                id.starts_with("serve_latency_us_bucket{") && id.contains(&format!("\"{class}\""))
            })
            .map(|(id, &v)| {
                let le = id
                    .split("le=\"")
                    .nth(1)
                    .and_then(|s| s.strip_suffix("\"}"))
                    .unwrap_or_else(|| panic!("no le label in {id}"));
                let le: f64 = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or_else(|_| panic!("bad le in {id}"))
                };
                (le, v)
            })
            .collect();
        assert!(!buckets.is_empty(), "no _bucket series for {series}");
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le ordering"));
        for w in buckets.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "{series}: cumulative buckets decrease at le={}",
                w[1].0
            );
        }
        let (last_le, last_cum) = *buckets.last().expect("non-empty buckets");
        assert!(
            last_le.is_infinite() && last_cum == count,
            "{series}: +Inf bucket {last_cum} != _count {count}"
        );
    }

    // ---- surface 3: the final shutdown report ----
    let bye = ask(&mut reader, &mut writer, "{\"op\":\"shutdown\"}");
    sent += 1;
    assert!(bye.contains("\"ok\":true"), "shutdown failed: {bye}");
    drop(writer);
    drop(reader);
    server
        .join()
        .expect("server thread")
        .expect("serve_tcp exit");
    let report = core.report("serve_metrics");
    for (name, json_val) in [
        ("serve_queries", sent as f64),
        ("serve_hits", json_hits),
        ("serve_errors", json_errors),
    ] {
        let rep_val = report.counter_total(name) as f64;
        assert!(
            close(rep_val, json_val),
            "{name}: report {rep_val} vs expected {json_val}"
        );
    }
}
