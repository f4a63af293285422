//! `msc serve` — the query-serving layer over precomputed artifacts
//! (DESIGN.md §12).
//!
//! A compute run with `--hierarchy` is the expensive half of the
//! compute-once / query-many split; this module is the cheap half: load
//! the `.msc` complexes, the `.msh` cancellation hierarchies, and (when
//! present) the `.seg` label tables, then answer threshold queries by
//! prefix replay — never by re-running the pipeline.
//!
//! ## Protocol
//!
//! Line-delimited JSON over stdin/stdout ([`serve_lines`]) or TCP
//! ([`serve_tcp`]); one request object per line, one response object per
//! line, in request order. Requests name an `op`:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"datasets"}
//! {"op":"threshold","dataset":"d","block":0,"ordering":"difference","t":0.5}
//! {"op":"extrema","t":0.5,"kind":"max","top":5}
//! {"op":"arc-geometry","t":0.5,"arc":3}
//! {"op":"segment-stats","t":0.5}
//! {"op":"stats"}
//! {"op":"metrics"}     live-registry snapshot (counters/gauges/histograms)
//! {"op":"health"}      readiness/liveness summary
//! {"op":"quit"}        closes the connection
//! {"op":"shutdown"}    closes the connection and stops a TCP server
//! ```
//!
//! `dataset` defaults to the first loaded dataset, `block` to 0 and
//! `ordering` to `difference`. Errors come back as
//! `{"ok":false,"error":...}` and never tear the connection down.
//!
//! Every reply — a JSON line with its newline, or an HTTP head with its
//! body — is assembled in one buffer and leaves in one write
//! (`write_reply`, the only function that writes to a client), and
//! accepted sockets have `TCP_NODELAY` set: one reply is one segment,
//! so a closed-loop client never waits out a delayed ACK between the
//! pieces of an answer.
//!
//! A TCP connection whose first bytes spell `GET ` or `HEAD` is served
//! as HTTP instead (sniffed without consuming them): `GET /metrics`
//! answers Prometheus text exposition format from the same live
//! registry, `GET /healthz` the health object — so one listener serves
//! both line-JSON clients and an ordinary scraper. HTTP scrapes are
//! counted in `serve_http_scrapes`, not as queries.
//!
//! ## Cache
//!
//! Materializations are memoized in an LRU cache keyed by `(dataset,
//! block, ordering, prefix length)`: replay is positional, so a
//! threshold matters only through the record prefix it selects, and two
//! thresholds between the same pair of record keys share one entry. A
//! miss extends the longest cached prefix of the same sequence that is
//! no longer than the requested one, replaying only the records in
//! between (`serve_replayed_records` counts them); with nothing shorter
//! cached it replays from the base complex. Either way the result is
//! bit-identical to a from-scratch replay. Concurrent requests for the
//! same key coalesce: the first computes, the rest block on a condition
//! variable and reuse the cached result (counted as `serve_coalesced`).
//! The cache tracks resident *bytes* per entry (capacity-based estimates) —
//! the substrate for evict-by-bytes budgeting — exported via the
//! `serve_cache_bytes` / `serve_dataset_bytes` gauges.
//!
//! ## Live metrics
//!
//! All serving state lives in an `msp_telemetry::live::Registry`:
//! atomic counters (`serve_queries` …), byte gauges, windowed QPS and
//! one log-bucketed latency histogram per query class — recording is
//! lock-free and memory is O(histogram buckets), never O(requests).
//! Requests slower than [`ServeConfig::slow_us`] emit a structured
//! `{"event":"slow_request",...}` JSON line on stderr (sampled by
//! [`ServeConfig::slow_sample`]). [`ServerCore::report`] folds the
//! counters plus a live snapshot into an `msp-telemetry` run report
//! (meta `qps`, `hit_rate`, per-class p50/p99, `live`).

use crate::pipeline::{check_persistence, msh_output_path, seg_output_path};
use msp_complex::{wire as cwire, MsComplex};
use msp_hierarchy::{
    compress_forwards, remap_tables, wire as hwire, HierarchyError, Materialized, Ordering,
    SlotHierarchy,
};
use msp_segment::{wire as segwire, BlockSegmentation, DRAIN_ADDR, DRAIN_LABEL};
use msp_telemetry::{
    Counter, Json, LiveCounter, LiveGauge, LiveHistogram, RateWindow, Recorder, Registry, RunReport,
};
use msp_vmpi::fileio::{read_block_payload, read_footer};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A loading failure with enough context to name the artifact at fault.
#[derive(Debug)]
pub enum ServeError {
    Io {
        context: String,
        source: std::io::Error,
    },
    /// An artifact decoded but its content is unusable (bad wire bytes,
    /// mismatched block counts).
    Artifact { context: String, detail: String },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
            ServeError::Artifact { context, detail } => write!(f, "{context}: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One loaded dataset: the base complexes of a compute run plus its
/// replay hierarchies and (optionally) its resolved label tables.
pub struct Dataset {
    pub name: String,
    /// Output-slot complexes in footer order.
    pub bases: Vec<MsComplex>,
    /// One hierarchy per output slot, same order.
    pub hierarchies: Vec<SlotHierarchy>,
    /// Resolved block segmentations in ascending block id; empty when
    /// the compute run had no `--segment`.
    pub segs: Vec<BlockSegmentation>,
}

impl Dataset {
    /// Estimated resident bytes of the loaded artifacts (bases +
    /// hierarchies + label tables), exported as `serve_dataset_bytes`.
    pub fn mem_bytes(&self) -> u64 {
        self.bases.iter().map(|b| b.mem_bytes()).sum::<u64>()
            + self.hierarchies.iter().map(|h| h.mem_bytes()).sum::<u64>()
            + self.segs.iter().map(|s| s.mem_bytes()).sum::<u64>()
    }
}

/// Load a dataset from `<msc_path>` + `<msc_path>.msh` (required) +
/// `<msc_path>.seg` (optional).
pub fn load_dataset(name: &str, msc_path: &Path) -> Result<Dataset, ServeError> {
    let io = |context: String| move |source: std::io::Error| ServeError::Io { context, source };
    let footer = read_footer(msc_path).map_err(io(format!("reading {}", msc_path.display())))?;
    let mut bases = Vec::with_capacity(footer.len());
    for e in &footer {
        let payload = read_block_payload(msc_path, e)
            .map_err(io(format!("reading {}", msc_path.display())))?;
        bases.push(
            cwire::deserialize(&payload).map_err(|e| ServeError::Artifact {
                context: format!("decoding {}", msc_path.display()),
                detail: e.to_string(),
            })?,
        );
    }
    let msh_path = msh_output_path(msc_path);
    let hfooter = read_footer(&msh_path).map_err(io(format!(
        "reading {} (was compute run with --hierarchy?)",
        msh_path.display()
    )))?;
    let mut hierarchies = Vec::with_capacity(hfooter.len());
    for e in &hfooter {
        let payload = read_block_payload(&msh_path, e)
            .map_err(io(format!("reading {}", msh_path.display())))?;
        hierarchies.push(
            hwire::deserialize(&payload).map_err(|e| ServeError::Artifact {
                context: format!("decoding {}", msh_path.display()),
                detail: e.to_string(),
            })?,
        );
    }
    if hierarchies.len() != bases.len() {
        return Err(ServeError::Artifact {
            context: format!("loading dataset {name:?}"),
            detail: format!(
                "{} complexes but {} hierarchies",
                bases.len(),
                hierarchies.len()
            ),
        });
    }
    let seg_path = seg_output_path(msc_path);
    let mut segs = Vec::new();
    if seg_path.exists() {
        let sfooter =
            read_footer(&seg_path).map_err(io(format!("reading {}", seg_path.display())))?;
        for e in &sfooter {
            let payload = read_block_payload(&seg_path, e)
                .map_err(io(format!("reading {}", seg_path.display())))?;
            segs.push(
                segwire::deserialize(&payload).map_err(|e| ServeError::Artifact {
                    context: format!("decoding {}", seg_path.display()),
                    detail: e,
                })?,
            );
        }
        segs.sort_by_key(|s| s.block_id);
    }
    Ok(Dataset {
        name: name.to_string(),
        bases,
        hierarchies,
        segs,
    })
}

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum cached materializations (LRU eviction beyond this).
    pub cache_capacity: usize,
    /// Worker threads of the stdio pipeline ([`serve_lines`] default).
    pub threads: usize,
    /// Requests at or above this latency (microseconds) log a
    /// `slow_request` event line on stderr; `None` disables the log.
    pub slow_us: Option<u64>,
    /// Log every Nth slow request (1 = all); sampling keeps a
    /// systematically slow deployment from flooding stderr.
    pub slow_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 32,
            threads: 4,
            slow_us: None,
            slow_sample: 1,
        }
    }
}

/// The cache key: everything a materialization depends on. Replay is
/// positional, so a threshold matters only through the length of the
/// record prefix it selects — two thresholds with the same prefix are
/// the same complex and share one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    dataset: usize,
    slot: usize,
    ordering: Ordering,
    prefix_len: usize,
}

/// Hand-rolled LRU over a `HashMap` with monotonic access stamps;
/// eviction scans for the stalest entry (capacities are tens, not
/// millions — O(n) eviction is noise next to a replay). Each entry
/// carries its estimated byte footprint so the resident total is
/// maintained incrementally — the substrate for evict-by-bytes.
struct Lru {
    capacity: usize,
    stamp: u64,
    /// Estimated resident bytes across all entries.
    bytes: u64,
    map: HashMap<CacheKey, (Arc<Materialized>, u64, u64)>,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity: capacity.max(1),
            stamp: 0,
            bytes: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<Materialized>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(v, s, _)| {
            *s = stamp;
            v.clone()
        })
    }

    /// The longest cached prefix of `key`'s sequence that `key` extends
    /// (same dataset, slot and ordering, `prefix_len` at most `key`'s):
    /// the cheapest starting point for materializing `key`. Reading a
    /// starting point is not a use of it, so no stamp is touched.
    fn longest_prefix(&self, key: &CacheKey) -> Option<Arc<Materialized>> {
        self.map
            .iter()
            .filter(|(k, _)| {
                (k.dataset, k.slot, k.ordering) == (key.dataset, key.slot, key.ordering)
                    && k.prefix_len <= key.prefix_len
            })
            .max_by_key(|(k, _)| k.prefix_len)
            .map(|(_, (v, _, _))| v.clone())
    }

    fn put(&mut self, key: CacheKey, value: Arc<Materialized>) {
        self.stamp += 1;
        let bytes = value.mem_bytes();
        if let Some((_, _, old)) = self.map.insert(key, (value, self.stamp, bytes)) {
            self.bytes -= old;
        }
        self.bytes += bytes;
        while self.map.len() > self.capacity {
            let stalest = self
                .map
                .iter()
                .min_by_key(|(_, (_, s, _))| *s)
                .map(|(k, _)| *k)
                .expect("nonempty over capacity");
            if let Some((_, _, b)) = self.map.remove(&stalest) {
                self.bytes -= b;
            }
        }
    }
}

/// The fixed query-class taxonomy: one latency histogram per class is
/// registered up front, so recording never takes the registry lock.
const QUERY_CLASSES: [&str; 12] = [
    "arc-geometry",
    "datasets",
    "extrema",
    "health",
    "invalid",
    "metrics",
    "ping",
    "quit",
    "segment-stats",
    "shutdown",
    "stats",
    "threshold",
];

/// QPS windows exported as `serve_qps_window{window=...}` gauges.
const QPS_WINDOWS: [(u64, &str); 3] = [(1, "1s"), (10, "10s"), (60, "60s")];

/// The live serving metrics: a registry plus typed handles to every
/// series the hot path records into. All recording is lock-free
/// (atomics behind `Arc`s); the registry mutex is touched only when
/// rendering a scrape. Memory is a fixed set of counters/gauges plus
/// one bounded histogram per query class — O(buckets), not O(requests).
struct ServeMetrics {
    registry: Registry,
    queries: Arc<LiveCounter>,
    hits: Arc<LiveCounter>,
    misses: Arc<LiveCounter>,
    coalesced: Arc<LiveCounter>,
    replayed: Arc<LiveCounter>,
    errors: Arc<LiveCounter>,
    slow: Arc<LiveCounter>,
    scrapes: Arc<LiveCounter>,
    uptime: Arc<LiveGauge>,
    qps: Vec<(u64, Arc<LiveGauge>)>,
    cache_resident: Arc<LiveGauge>,
    cache_bytes: Arc<LiveGauge>,
    classes: Vec<(&'static str, Arc<LiveHistogram>)>,
    rate: RateWindow,
    slow_seen: AtomicU64,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = Registry::new();
        let c = |name, help| registry.counter(name, help, &[]);
        let queries = c("serve_queries", "Requests handled (all classes)");
        let hits = c("serve_hits", "Materialization cache hits");
        let misses = c("serve_misses", "Materialization cache misses (replays)");
        let coalesced = c(
            "serve_coalesced",
            "Requests that piggybacked on an in-flight replay",
        );
        let replayed = c(
            "serve_replayed_records",
            "Cancellation records replayed by cache misses",
        );
        let errors = c("serve_errors", "Requests answered with ok:false");
        let slow = c(
            "serve_slow_requests",
            "Requests at or above the slow threshold",
        );
        let scrapes = c(
            "serve_http_scrapes",
            "HTTP requests served (metrics/health)",
        );
        let uptime = registry.gauge(
            "serve_uptime_seconds",
            "Seconds since the server started",
            &[],
        );
        let qps = QPS_WINDOWS
            .iter()
            .map(|&(secs, label)| {
                (
                    secs,
                    registry.gauge(
                        "serve_qps_window",
                        "Queries per second over a trailing window",
                        &[("window", label)],
                    ),
                )
            })
            .collect();
        let cache_resident = registry.gauge(
            "serve_cache_resident",
            "Materializations resident in the LRU cache",
            &[],
        );
        let cache_bytes = registry.gauge(
            "serve_cache_bytes",
            "Estimated resident bytes of cached materializations",
            &[],
        );
        let classes = QUERY_CLASSES
            .iter()
            .map(|&class| {
                (
                    class,
                    registry.histogram(
                        "serve_latency_us",
                        "Request latency in microseconds (log-bucketed)",
                        &[("class", class)],
                    ),
                )
            })
            .collect();
        ServeMetrics {
            registry,
            queries,
            hits,
            misses,
            coalesced,
            replayed,
            errors,
            slow,
            scrapes,
            uptime,
            qps,
            cache_resident,
            cache_bytes,
            classes,
            rate: RateWindow::new(),
            slow_seen: AtomicU64::new(0),
        }
    }

    fn class_hist(&self, class: &str) -> &LiveHistogram {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, h)| h.as_ref())
            .unwrap_or(&self.classes[0].1)
    }

    /// Resident footprint of the metrics layer itself — a constant,
    /// asserted by the bounded-memory test.
    fn mem_bytes(&self) -> u64 {
        std::mem::size_of::<ServeMetrics>() as u64
            + self.classes.iter().map(|(_, h)| h.mem_bytes()).sum::<u64>()
    }
}

/// The transport-independent server: datasets, cache, coalescing map,
/// live metrics. Shared across worker/connection threads by reference.
pub struct ServerCore {
    datasets: Vec<Dataset>,
    by_name: HashMap<String, usize>,
    config: ServeConfig,
    cache: Mutex<Lru>,
    inflight: Mutex<HashSet<CacheKey>>,
    inflight_cv: Condvar,
    metrics: ServeMetrics,
    started: Instant,
    shutdown: AtomicBool,
}

impl ServerCore {
    pub fn new(datasets: Vec<Dataset>, config: ServeConfig) -> ServerCore {
        let by_name = datasets
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), i))
            .collect();
        let metrics = ServeMetrics::new();
        for d in &datasets {
            metrics
                .registry
                .gauge(
                    "serve_dataset_bytes",
                    "Estimated resident bytes of a loaded dataset's artifacts",
                    &[("dataset", &d.name)],
                )
                .set_u64(d.mem_bytes());
        }
        ServerCore {
            datasets,
            by_name,
            config,
            cache: Mutex::new(Lru::new(config.cache_capacity)),
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
            metrics,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Has some connection asked the whole server to stop?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(AtomicOrd::SeqCst)
    }

    /// Ask the server to stop, exactly as a `shutdown` op would: the
    /// TCP accept loop notices within its poll interval. Lets a signal
    /// handler (Ctrl-C in `msc serve`) drain through the same path.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, AtomicOrd::SeqCst);
    }

    /// Handle one request line. Returns the compact single-line JSON
    /// response and whether the connection should close afterwards.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let t0 = Instant::now();
        let (class, result, close) = self.dispatch(line);
        let us = t0.elapsed().as_micros() as u64;
        let m = &self.metrics;
        m.queries.inc();
        m.rate.record();
        m.class_hist(class).record(us);
        let json = match result {
            Ok(j) => j,
            Err(msg) => {
                m.errors.inc();
                Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(msg))])
            }
        };
        if let Some(threshold) = self.config.slow_us {
            if us >= threshold {
                m.slow.inc();
                let seen = m.slow_seen.fetch_add(1, AtomicOrd::Relaxed);
                if seen.is_multiple_of(self.config.slow_sample.max(1)) {
                    let mut req = line.trim().to_string();
                    if req.len() > 256 {
                        let mut cut = 256;
                        while !req.is_char_boundary(cut) {
                            cut -= 1;
                        }
                        req.truncate(cut);
                    }
                    eprintln!(
                        "{}",
                        Json::obj(vec![
                            ("event", Json::str("slow_request")),
                            ("class", Json::str(class)),
                            ("us", Json::U64(us)),
                            ("request", Json::str(req)),
                        ])
                        .compact()
                    );
                }
            }
        }
        (json.compact(), close)
    }

    fn dispatch(&self, line: &str) -> (&'static str, Result<Json, String>, bool) {
        let req = match Json::parse(line.trim()) {
            Ok(req @ Json::Obj(_)) => req,
            Ok(_) => {
                return (
                    "invalid",
                    Err("request must be a JSON object".to_string()),
                    false,
                )
            }
            Err(e) => return ("invalid", Err(format!("bad request: {e}")), false),
        };
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return ("invalid", Err("missing \"op\"".to_string()), false);
        };
        match op {
            "ping" => ("ping", Ok(ok_obj("ping", vec![])), false),
            "datasets" => ("datasets", Ok(self.q_datasets()), false),
            "threshold" => ("threshold", self.q_threshold(&req), false),
            "extrema" => ("extrema", self.q_extrema(&req), false),
            "arc-geometry" => ("arc-geometry", self.q_arc_geometry(&req), false),
            "segment-stats" => ("segment-stats", self.q_segment_stats(&req), false),
            "stats" => ("stats", Ok(self.stats_json()), false),
            "metrics" => ("metrics", Ok(self.metrics_json()), false),
            "health" => ("health", Ok(self.health_json()), false),
            "quit" => ("quit", Ok(ok_obj("quit", vec![])), true),
            "shutdown" => {
                self.request_shutdown();
                ("shutdown", Ok(ok_obj("shutdown", vec![])), true)
            }
            other => ("invalid", Err(format!("unknown op {other:?}")), false),
        }
    }

    /// Resolve the `(dataset, block)` a request targets.
    fn target(&self, req: &Json) -> Result<(usize, usize), String> {
        let di = match req.get("dataset").and_then(Json::as_str) {
            Some(name) => *self
                .by_name
                .get(name)
                .ok_or_else(|| format!("unknown dataset {name:?}"))?,
            None => 0,
        };
        let ds = self
            .datasets
            .get(di)
            .ok_or_else(|| "no datasets loaded".to_string())?;
        let slot = req.get("block").and_then(Json::as_u64).unwrap_or(0) as usize;
        if slot >= ds.bases.len() {
            return Err(format!(
                "block {slot} out of range ({} block(s))",
                ds.bases.len()
            ));
        }
        Ok((di, slot))
    }

    fn ordering_and_t(&self, req: &Json) -> Result<(Ordering, f32), String> {
        let ordering: Ordering = req
            .get("ordering")
            .and_then(Json::as_str)
            .unwrap_or("difference")
            .parse()?;
        let t = req
            .get("t")
            .and_then(Json::as_f64)
            .ok_or_else(|| "missing threshold \"t\"".to_string())? as f32;
        let t = check_persistence(t).map_err(|e| format!("bad threshold \"t\": {e}"))?;
        Ok((ordering, t))
    }

    /// The cached, coalescing materialization path. A miss replays only
    /// the records between the longest cached prefix and the requested
    /// one (from the base complex when nothing shorter is cached).
    fn materialized(
        &self,
        di: usize,
        slot: usize,
        ordering: Ordering,
        t: f32,
    ) -> Result<Arc<Materialized>, String> {
        let ds = &self.datasets[di];
        let hierarchy = &ds.hierarchies[slot];
        let failed = |e: HierarchyError| format!("materialize failed: {e}");
        let key = CacheKey {
            dataset: di,
            slot,
            ordering,
            prefix_len: hierarchy.prefix_len(ordering, t).map_err(failed)?,
        };
        let mut waited = false;
        loop {
            if let Some(v) = self.cache.lock().unwrap().get(&key) {
                self.metrics.hits.inc();
                if waited {
                    self.metrics.coalesced.inc();
                }
                return Ok(v);
            }
            let mut busy = self.inflight.lock().unwrap();
            if busy.insert(key) {
                break; // this request owns the computation
            }
            // An identical materialization is in flight: piggyback on it
            // instead of recomputing or spinning on the cache.
            waited = true;
            let _unused = self.inflight_cv.wait(busy).unwrap();
        }
        let from = self.cache.lock().unwrap().longest_prefix(&key);
        let result = match &from {
            Some(m) => hierarchy.extend(m, ordering, key.prefix_len),
            None => hierarchy.materialize_k(&ds.bases[slot], ordering, key.prefix_len),
        };
        let out = match result {
            Ok(m) => {
                let replayed = m.applied - from.map_or(0, |f| f.applied);
                let m = Arc::new(m);
                self.cache.lock().unwrap().put(key, m.clone());
                self.metrics.misses.inc();
                self.metrics.replayed.add(replayed as u64);
                if waited {
                    self.metrics.coalesced.inc();
                }
                Ok(m)
            }
            Err(e) => Err(failed(e)),
        };
        let mut busy = self.inflight.lock().unwrap();
        busy.remove(&key);
        drop(busy);
        self.inflight_cv.notify_all();
        out
    }

    fn q_datasets(&self) -> Json {
        let items = self
            .datasets
            .iter()
            .map(|d| {
                let records: usize = d
                    .hierarchies
                    .iter()
                    .map(|h| h.difference.len() + h.count.as_ref().map_or(0, |c| c.len()))
                    .sum();
                let orderings = d
                    .hierarchies
                    .first()
                    .map(|h| h.orderings())
                    .unwrap_or_default();
                Json::obj(vec![
                    ("name", Json::str(d.name.clone())),
                    ("blocks", Json::U64(d.bases.len() as u64)),
                    (
                        "orderings",
                        Json::Arr(orderings.iter().map(|o| Json::str(o.key())).collect()),
                    ),
                    ("records", Json::U64(records as u64)),
                    ("segmented", Json::Bool(!d.segs.is_empty())),
                ])
            })
            .collect();
        ok_obj("datasets", vec![("datasets", Json::Arr(items))])
    }

    fn q_threshold(&self, req: &Json) -> Result<Json, String> {
        let (di, slot) = self.target(req)?;
        let (ordering, t) = self.ordering_and_t(req)?;
        let m = self.materialized(di, slot, ordering, t)?;
        let c = m.complex.node_census();
        Ok(ok_obj(
            "threshold",
            vec![
                ("block", Json::U64(slot as u64)),
                ("ordering", Json::str(ordering.key())),
                ("t", Json::F64(t as f64)),
                ("applied", Json::U64(m.applied as u64)),
                ("nodes", Json::U64(m.complex.n_live_nodes())),
                ("arcs", Json::U64(m.complex.n_live_arcs())),
                (
                    "census",
                    Json::Arr(c.iter().map(|&n| Json::U64(n)).collect()),
                ),
            ],
        ))
    }

    fn q_extrema(&self, req: &Json) -> Result<Json, String> {
        let (di, slot) = self.target(req)?;
        let (ordering, t) = self.ordering_and_t(req)?;
        let kind = req.get("kind").and_then(Json::as_str).unwrap_or("max");
        let index = match kind {
            "max" => 3u8,
            "min" => 0u8,
            other => return Err(format!("unknown kind {other:?} (want min|max)")),
        };
        let top = req.get("top").and_then(Json::as_u64).unwrap_or(10) as usize;
        let m = self.materialized(di, slot, ordering, t)?;
        let mut extrema: Vec<(u64, f32)> = m
            .complex
            .nodes
            .iter()
            .filter(|n| n.alive && n.index == index)
            .map(|n| (n.addr, n.value))
            .collect();
        // maxima strongest-first, minima deepest-first; addr breaks ties
        extrema.sort_by(|a, b| {
            let ord = a.1.partial_cmp(&b.1).expect("finite node values");
            if index == 3 {
                ord.reverse().then(a.0.cmp(&b.0))
            } else {
                ord.then(a.0.cmp(&b.0))
            }
        });
        extrema.truncate(top);
        Ok(ok_obj(
            "extrema",
            vec![
                ("block", Json::U64(slot as u64)),
                ("kind", Json::str(kind)),
                (
                    "extrema",
                    Json::Arr(
                        extrema
                            .iter()
                            .map(|&(addr, value)| {
                                Json::obj(vec![
                                    ("addr", Json::U64(addr)),
                                    ("value", Json::F64(value as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ],
        ))
    }

    fn q_arc_geometry(&self, req: &Json) -> Result<Json, String> {
        let (di, slot) = self.target(req)?;
        let (ordering, t) = self.ordering_and_t(req)?;
        let arc = req
            .get("arc")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing arc index \"arc\"".to_string())?;
        let m = self.materialized(di, slot, ordering, t)?;
        let a = m
            .complex
            .arcs
            .get(arc as usize)
            .filter(|a| a.alive)
            .ok_or_else(|| format!("no live arc {arc}"))?;
        let node = |id: u32| {
            let n = &m.complex.nodes[id as usize];
            Json::obj(vec![
                ("addr", Json::U64(n.addr)),
                ("index", Json::U64(n.index as u64)),
                ("value", Json::F64(n.value as f64)),
            ])
        };
        let cells = m.complex.flatten_geom(a.geom);
        Ok(ok_obj(
            "arc-geometry",
            vec![
                ("block", Json::U64(slot as u64)),
                ("arc", Json::U64(arc)),
                ("upper", node(a.upper)),
                ("lower", node(a.lower)),
                (
                    "cells",
                    Json::Arr(cells.iter().map(|&c| Json::U64(c)).collect()),
                ),
            ],
        ))
    }

    fn q_segment_stats(&self, req: &Json) -> Result<Json, String> {
        let (di, slot) = self.target(req)?;
        let (ordering, t) = self.ordering_and_t(req)?;
        let ds = &self.datasets[di];
        if ds.segs.is_empty() {
            return Err("dataset has no segmentation (compute run without --segment)".to_string());
        }
        let m = self.materialized(di, slot, ordering, t)?;
        // Follow the replayed cancellations through the label tables:
        // compress the prefix's forward chains, rewrite the member
        // blocks' tables, then census the surviving regions.
        let resolved = compress_forwards(&m.forwards);
        let members = &ds.bases[slot].member_blocks;
        let mut descending: HashMap<u64, u64> = HashMap::new();
        let mut ascending: HashMap<u64, u64> = HashMap::new();
        let (mut vertices, mut voxels, mut drained) = (0u64, 0u64, 0u64);
        for seg in ds.segs.iter().filter(|s| members.contains(&s.block_id)) {
            let mut seg = seg.clone();
            remap_tables(&mut seg, &resolved);
            vertices += seg.min_label.len() as u64;
            voxels += seg.max_label.len() as u64;
            for &l in &seg.min_label {
                match seg.mins.get(l as usize) {
                    Some(&a) if l != DRAIN_LABEL && a != DRAIN_ADDR => {
                        *descending.entry(a).or_insert(0) += 1;
                    }
                    _ => drained += 1,
                }
            }
            for &l in &seg.max_label {
                match seg.maxs.get(l as usize) {
                    Some(&a) if l != DRAIN_LABEL && a != DRAIN_ADDR => {
                        *ascending.entry(a).or_insert(0) += 1;
                    }
                    _ => drained += 1,
                }
            }
        }
        let largest = |m: &HashMap<u64, u64>| m.values().max().copied().unwrap_or(0);
        Ok(ok_obj(
            "segment-stats",
            vec![
                ("block", Json::U64(slot as u64)),
                ("ordering", Json::str(ordering.key())),
                ("t", Json::F64(t as f64)),
                ("descending_regions", Json::U64(descending.len() as u64)),
                ("ascending_regions", Json::U64(ascending.len() as u64)),
                ("largest_descending", Json::U64(largest(&descending))),
                ("largest_ascending", Json::U64(largest(&ascending))),
                ("vertices", Json::U64(vertices)),
                ("voxels", Json::U64(voxels)),
                ("drained", Json::U64(drained)),
            ],
        ))
    }

    /// Bring the derived gauges (uptime, windowed QPS, cache bytes) up
    /// to date; called before every scrape/snapshot so recording paths
    /// never have to maintain them.
    fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.uptime.set(self.started.elapsed().as_secs_f64());
        for (secs, gauge) in &m.qps {
            gauge.set(m.rate.rate(*secs));
        }
        let cache = self.cache.lock().unwrap();
        m.cache_resident.set_u64(cache.map.len() as u64);
        m.cache_bytes.set_u64(cache.bytes);
    }

    fn counts(&self) -> (u64, u64, u64) {
        let m = &self.metrics;
        (m.queries.get(), m.hits.get(), m.misses.get())
    }

    /// Point-in-time statistics as a response object (the pre-live
    /// `stats` op shape, now derived from the registry).
    pub fn stats_json(&self) -> Json {
        let (queries, hits, misses) = self.counts();
        let elapsed = self.started.elapsed().as_secs_f64();
        let qps = if elapsed > 0.0 {
            queries as f64 / elapsed
        } else {
            0.0
        };
        let lookups = hits + misses;
        let hit_rate = if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        };
        ok_obj(
            "stats",
            vec![
                ("queries", Json::U64(queries)),
                ("hits", Json::U64(hits)),
                ("misses", Json::U64(misses)),
                ("coalesced", Json::U64(self.metrics.coalesced.get())),
                ("replayed_records", Json::U64(self.metrics.replayed.get())),
                ("errors", Json::U64(self.metrics.errors.get())),
                ("qps", Json::F64(qps)),
                ("hit_rate", Json::F64(hit_rate)),
                ("classes", classes_json(&self.metrics.classes)),
            ],
        )
    }

    /// The `metrics` op: the full live-registry snapshot. Counter keys
    /// are exactly the Prometheus family names, so a scrape of
    /// `/metrics` and this reply cross-check one-to-one.
    pub fn metrics_json(&self) -> Json {
        self.refresh_gauges();
        let Json::Obj(snapshot) = self.metrics.registry.snapshot_json() else {
            unreachable!("snapshot_json returns an object")
        };
        let mut pairs = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("op".to_string(), Json::str("metrics")),
        ];
        pairs.extend(snapshot);
        Json::Obj(pairs)
    }

    /// The `health` op / `GET /healthz` body: liveness plus enough
    /// context for a load balancer to act on.
    pub fn health_json(&self) -> Json {
        let stopping = self.is_shutdown();
        ok_obj(
            "health",
            vec![
                (
                    "status",
                    Json::str(if stopping { "stopping" } else { "ok" }),
                ),
                ("uptime_s", Json::F64(self.started.elapsed().as_secs_f64())),
                ("datasets", Json::U64(self.datasets.len() as u64)),
                (
                    "cache_resident",
                    Json::U64(self.cache.lock().unwrap().map.len() as u64),
                ),
            ],
        )
    }

    /// `GET /metrics` body: Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.refresh_gauges();
        self.metrics.registry.render_prometheus()
    }

    /// Resident footprint of the serving statistics — constant no
    /// matter how many requests have been handled.
    pub fn metrics_mem_bytes(&self) -> u64 {
        self.metrics.mem_bytes()
    }

    /// Fold the serving statistics into an `msp-telemetry` run report:
    /// `serve_*` counters on rank 0, plus `qps` / `hit_rate` /
    /// per-class latency quantiles and the full live snapshot in the
    /// meta. The quantile invariant (p50 ≤ p99 per class) is asserted
    /// here — a violation is a bug in the latency accounting, not a
    /// data property.
    pub fn report(&self, name: &str) -> RunReport {
        let (queries, hits, misses) = self.counts();
        let mut rec = Recorder::new(0);
        rec.add(Counter::ServeQueries, queries);
        rec.add(Counter::ServeHits, hits);
        rec.add(Counter::ServeMisses, misses);
        rec.add(Counter::ServeCoalesced, self.metrics.coalesced.get());
        rec.add(Counter::ServeErrors, self.metrics.errors.get());
        let rank = rec.finish();
        let elapsed = self.started.elapsed().as_secs_f64();
        let qps = if elapsed > 0.0 {
            queries as f64 / elapsed
        } else {
            0.0
        };
        let lookups = hits + misses;
        let hit_rate = if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        };
        for (class, hist) in &self.metrics.classes {
            assert!(
                hist.quantile(50) <= hist.quantile(99),
                "latency quantiles out of order for {class}"
            );
        }
        self.refresh_gauges();
        RunReport::from_ranks(name, vec![rank])
            .with_meta("qps", Json::F64(qps))
            .with_meta("hit_rate", Json::F64(hit_rate))
            .with_meta("classes", classes_json(&self.metrics.classes))
            .with_meta("live", self.metrics.registry.snapshot_json())
    }
}

/// Per-class latency summaries from the live histograms; classes the
/// server never saw are omitted (matching the pre-live shape). The
/// fixed class array is alphabetical, so rendering is deterministic.
fn classes_json(classes: &[(&'static str, Arc<LiveHistogram>)]) -> Json {
    Json::Obj(
        classes
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| {
                let snap = h.snapshot();
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::U64(snap.count)),
                        ("p50_us", Json::U64(snap.quantile(50))),
                        ("p99_us", Json::U64(snap.quantile(99))),
                    ]),
                )
            })
            .collect(),
    )
}

fn ok_obj(op: &str, rest: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true)), ("op", Json::str(op))];
    pairs.extend(rest);
    Json::obj(pairs)
}

/// Does this request line ask to stop reading (quit/shutdown)? Used by
/// the stdio reader so a batch ending in `{"op":"quit"}` terminates
/// without waiting for EOF.
fn wants_close(line: &str) -> bool {
    Json::parse(line.trim()).is_ok_and(|req| {
        req.get("op")
            .and_then(Json::as_str)
            .is_some_and(|op| op == "quit" || op == "shutdown")
    })
}

/// The one way a reply leaves the process, on every transport: the
/// caller completes `reply` in its own buffer (a JSON reply with its
/// newline pushed on, or an HTTP head with the body appended) and it is
/// handed to the writer in a single `write_all`. On a socket that is
/// one segment per reply; written piecewise, the tail of a reply would
/// sit behind the peer's delayed ACK of its head (~40 ms a request on a
/// closed-loop connection).
fn write_reply(writer: &mut impl Write, reply: &str) -> std::io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.flush()
}

/// State of the in-order response writer: workers finish in any order
/// but write strictly by sequence number.
struct OutState<W> {
    next: u64,
    writer: W,
    error: Option<std::io::Error>,
}

/// Serve a line-delimited session from any reader/writer pair with a
/// worker pool: the calling thread reads and sequences requests,
/// `threads` workers process them (cache coalescing happens here), and
/// responses are written in request order via a ticket on the shared
/// writer. Stops at EOF or after a `quit`/`shutdown` request.
pub fn serve_lines<R, W>(
    core: &ServerCore,
    reader: R,
    writer: W,
    threads: usize,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let threads = threads.max(1);
    type Jobs = Mutex<(VecDeque<(u64, String)>, bool)>;
    let jobs: Jobs = Mutex::new((VecDeque::new(), false));
    let jobs_cv = Condvar::new();
    let out = Mutex::new(OutState {
        next: 0,
        writer,
        error: None,
    });
    let out_cv = Condvar::new();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let job = {
                    let mut g = jobs.lock().unwrap();
                    loop {
                        if let Some(j) = g.0.pop_front() {
                            break Some(j);
                        }
                        if g.1 {
                            break None;
                        }
                        g = jobs_cv.wait(g).unwrap();
                    }
                };
                let Some((seq, line)) = job else { return };
                let (mut resp, _close) = core.handle_line(&line);
                resp.push('\n');
                let mut g = out.lock().unwrap();
                while g.next != seq {
                    g = out_cv.wait(g).unwrap();
                }
                if g.error.is_none() {
                    g.error = write_reply(&mut g.writer, &resp).err();
                }
                g.next += 1;
                out_cv.notify_all();
            });
        }
        let mut seq = 0u64;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let stop = wants_close(&line);
            jobs.lock().unwrap().0.push_back((seq, line));
            jobs_cv.notify_one();
            seq += 1;
            if stop {
                break;
            }
        }
        jobs.lock().unwrap().1 = true;
        jobs_cv.notify_all();
    });
    let out = out.into_inner().unwrap();
    match out.error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Serve TCP connections until some client sends `{"op":"shutdown"}`.
/// One thread per connection; each connection is its own line-delimited
/// session (concurrent connections still share the cache and coalesce).
pub fn serve_tcp(core: &ServerCore, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    std::thread::scope(|s| loop {
        if core.is_shutdown() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                s.spawn(move || {
                    let _ = serve_connection(core, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    })
}

fn serve_connection(core: &ServerCore, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    // replies are whole frames already: nothing for Nagle to gather
    stream.set_nodelay(true)?;
    if sniff_http(&stream)? {
        return serve_http(core, stream);
    }
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (mut resp, close) = core.handle_line(&line);
        resp.push('\n');
        write_reply(&mut writer, &resp)?;
        if close {
            break;
        }
    }
    Ok(())
}

/// Peek (without consuming) the connection's first bytes: `GET ` or
/// `HEAD` means an HTTP scraper, anything else stays line-JSON. Peeking
/// blocks until the client sends its first bytes — exactly as the
/// line reader would.
fn sniff_http(stream: &TcpStream) -> std::io::Result<bool> {
    let mut first = [0u8; 4];
    let got = loop {
        let n = stream.peek(&mut first)?;
        if n >= first.len() || n == 0 || first[..n].contains(&b'\n') {
            break n;
        }
        // a short first packet ("G", "{"): wait for the rest
        std::thread::sleep(Duration::from_millis(1));
    };
    Ok(got >= 4 && (&first == b"GET " || &first == b"HEAD"))
}

/// One-shot HTTP answer on a sniffed connection: `GET /metrics` is the
/// Prometheus exposition, `GET /healthz` the health object; everything
/// else is 404. Headers are read to the blank line and ignored; the
/// response always closes the connection.
fn serve_http(core: &ServerCore, mut stream: TcpStream) -> std::io::Result<()> {
    core.metrics.scrapes.inc();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, ctype, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            core.prometheus_text(),
        ),
        "/healthz" => (
            "200 OK",
            "application/json",
            core.health_json().compact() + "\n",
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let mut reply = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if method != "HEAD" {
        reply.push_str(&body);
    }
    write_reply(&mut stream, &reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_parallel, Input, PipelineParams};
    use crate::plan::MergePlan;
    use msp_grid::Dims;
    use std::io::{Cursor, Read};
    use std::sync::Barrier;

    fn dataset(tag: &str) -> Dataset {
        dataset_of(tag, 9)
    }

    /// Build a real dataset (white noise on a `size`³ grid) by running
    /// the pipeline with artifacts on disk, loading them back, and
    /// cleaning up.
    fn dataset_of(tag: &str, size: u32) -> Dataset {
        let mut path = std::env::temp_dir();
        path.push(format!("msp_serve_{}_{tag}.msc", std::process::id()));
        let input = Input::Memory(std::sync::Arc::new(msp_synth::white_noise(
            Dims::cube(size),
            17,
        )));
        let params = PipelineParams {
            persistence_frac: 0.0,
            plan: MergePlan::full_merge(8),
            segment: true,
            hierarchy: true,
            ..Default::default()
        };
        run_parallel(&input, 2, 8, &params, Some(&path)).unwrap();
        let ds = load_dataset("noise", &path).unwrap();
        for p in [path.clone(), seg_output_path(&path), msh_output_path(&path)] {
            std::fs::remove_file(p).ok();
        }
        ds
    }

    fn parsed(line: &str) -> Json {
        match Json::parse(line).unwrap() {
            obj @ Json::Obj(_) => obj,
            other => panic!("response must be an object, got {other:?}"),
        }
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        obj.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// Two distinct thresholds that select the same nonempty record
    /// prefix, and its length: a record whose key exceeds every earlier
    /// key opens a gap `[running max, key)` in which every threshold
    /// stops the positional replay at that record.
    fn same_prefix_pair(recs: &[msp_complex::CancelRecord]) -> (usize, f32, f32) {
        let mut lo = recs[0].key;
        for (at, r) in recs.iter().enumerate().skip(1) {
            let between = lo + (r.key - lo) / 2.0;
            if lo < between && between < r.key {
                return (at, lo, between);
            }
            lo = lo.max(r.key);
        }
        panic!("no gap between record keys");
    }

    #[test]
    fn queries_answer_and_cache() {
        let core = ServerCore::new(vec![dataset("basic")], ServeConfig::default());
        let t = {
            let h = &core.datasets[0].hierarchies[0];
            h.difference[h.difference.len() / 2].key as f64
        };
        let q = format!("{{\"op\":\"threshold\",\"t\":{t}}}");
        let (r1, close) = core.handle_line(&q);
        assert!(!close);
        let p1 = parsed(&r1);
        assert_eq!(field(&p1, "ok"), &Json::Bool(true));
        assert!(matches!(field(&p1, "applied"), Json::U64(n) if *n > 0));
        // identical request: served from cache, byte-identical response
        let (r2, _) = core.handle_line(&q);
        assert_eq!(r1, r2);
        // distinct query classes against the same materialization
        let (re, _) = core.handle_line(&format!("{{\"op\":\"extrema\",\"t\":{t},\"top\":3}}"));
        let pe = parsed(&re);
        assert_eq!(field(&pe, "ok"), &Json::Bool(true));
        let Json::Arr(ext) = field(&pe, "extrema") else {
            panic!("extrema array")
        };
        assert!(!ext.is_empty() && ext.len() <= 3);
        let (rs, _) = core.handle_line(&format!("{{\"op\":\"segment-stats\",\"t\":{t}}}"));
        let ps = parsed(&rs);
        assert_eq!(field(&ps, "ok"), &Json::Bool(true), "{rs}");
        assert!(matches!(field(&ps, "descending_regions"), Json::U64(n) if *n > 0));
        // find a live arc index from the materialized complex, then ask
        // for its geometry
        let (_, slot) = core.target(&Json::Obj(Vec::new())).unwrap();
        let m = core
            .materialized(0, slot, Ordering::Difference, t as f32)
            .unwrap();
        let arc = m.complex.arcs.iter().position(|a| a.alive).unwrap();
        let (ra, _) = core.handle_line(&format!(
            "{{\"op\":\"arc-geometry\",\"t\":{t},\"arc\":{arc}}}"
        ));
        let pa = parsed(&ra);
        assert_eq!(field(&pa, "ok"), &Json::Bool(true), "{ra}");
        assert!(matches!(field(&pa, "cells"), Json::Arr(c) if !c.is_empty()));
        // stats reflect the cache behavior: repeats hit
        let (rst, _) = core.handle_line("{\"op\":\"stats\"}");
        let pst = parsed(&rst);
        assert!(matches!(field(&pst, "hits"), Json::U64(n) if *n > 0));
        assert!(matches!(field(&pst, "misses"), Json::U64(n) if *n > 0));
        assert!(matches!(field(&pst, "hit_rate"), Json::F64(r) if *r > 0.0));
        let [hits, misses] = ["hits", "misses"].map(|k| field(&pst, k).as_f64().unwrap());
        assert_eq!(field(&pst, "hit_rate"), &Json::F64(hits / (hits + misses)));
        // and the telemetry report carries the same counters
        let report = core.report("serve_test");
        assert!(report.counter_total("serve_queries") > 0);
        assert!(report.counter_total("serve_hits") > 0);
        assert_eq!(report.counter_total("serve_errors"), 0);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let core = ServerCore::new(vec![dataset("errs")], ServeConfig::default());
        for bad in [
            "not json at all",
            "[1,2,3]",
            "{\"no\":\"op\"}",
            "{\"op\":\"teleport\"}",
            "{\"op\":\"threshold\"}",                        // missing t
            "{\"op\":\"threshold\",\"t\":0.1,\"block\":99}", // out of range
            "{\"op\":\"threshold\",\"t\":0.1,\"ordering\":\"bogus\"}",
            "{\"op\":\"arc-geometry\",\"t\":0.1,\"arc\":123456}",
            "{\"op\":\"extrema\",\"t\":0.1,\"kind\":\"saddle\"}",
            "{\"op\":\"threshold\",\"t\":0.1,\"dataset\":\"nope\"}",
        ] {
            let (resp, close) = core.handle_line(bad);
            let p = parsed(&resp);
            assert_eq!(field(&p, "ok"), &Json::Bool(false), "{bad} -> {resp}");
            assert!(!close);
        }
        let (resp, _) = core.handle_line("{\"op\":\"stats\"}");
        let p = parsed(&resp);
        assert!(
            matches!(field(&p, "errors"), Json::U64(n) if *n == 10),
            "{resp}"
        );
        // the session survives: a good query still answers
        let (ok, _) = core.handle_line("{\"op\":\"ping\"}");
        assert_eq!(field(&parsed(&ok), "ok"), &Json::Bool(true));
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let core = ServerCore::new(vec![dataset("coalesce")], ServeConfig::default());
        // identical means "same prefix": two thresholds, one key
        let (_, lo, between) = same_prefix_pair(&core.datasets[0].hierarchies[0].difference);
        let n = 8;
        let barrier = Barrier::new(n);
        std::thread::scope(|s| {
            for i in 0..n {
                let (core, barrier) = (&core, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let t = if i % 2 == 0 { lo } else { between };
                    let m = core.materialized(0, 0, Ordering::Difference, t).unwrap();
                    assert!(m.complex.n_live_nodes() > 0);
                });
            }
        });
        let (hits, misses) = (core.metrics.hits.get(), core.metrics.misses.get());
        assert_eq!(hits + misses, n as u64);
        assert_eq!(misses, 1, "one computation for {n} identical requests");
        assert_eq!(hits, n as u64 - 1);
    }

    #[test]
    fn thresholds_with_one_prefix_share_an_entry_and_misses_replay_the_delta() {
        let core = ServerCore::new(vec![dataset("prefix")], ServeConfig::default());
        let recs = &core.datasets[0].hierarchies[0].difference;
        let (at, lo, between) = same_prefix_pair(recs);
        let counts = || {
            let m = &core.metrics;
            (m.hits.get(), m.misses.get(), m.replayed.get())
        };
        let a = core.materialized(0, 0, Ordering::Difference, lo).unwrap();
        assert_eq!(a.applied, at);
        assert_eq!(counts(), (0, 1, at as u64), "cold miss replays from zero");
        let b = core
            .materialized(0, 0, Ordering::Difference, between)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same prefix, same cached complex");
        assert_eq!(counts(), (1, 1, at as u64));
        // a longer prefix extends the cached one: exactly k - k0 records
        let all = core
            .materialized(0, 0, Ordering::Difference, f32::INFINITY)
            .unwrap();
        assert_eq!(all.applied, recs.len());
        assert_eq!(counts(), (1, 2, recs.len() as u64));
        // and extending is invisible in the answer
        let direct = core.datasets[0].hierarchies[0]
            .materialize(
                &core.datasets[0].bases[0],
                Ordering::Difference,
                f32::INFINITY,
            )
            .unwrap();
        assert_eq!(
            cwire::serialize(&all.complex),
            cwire::serialize(&direct.complex)
        );
        assert_eq!(all.forwards, direct.forwards);
        assert_eq!(all.stats, direct.stats);
        // a shorter prefix has nothing to extend: from the base again
        let none = core.materialized(0, 0, Ordering::Difference, -1.0).unwrap();
        assert_eq!(none.applied, 0);
        assert_eq!(counts(), (1, 3, recs.len() as u64));
        let (stats, _) = core.handle_line("{\"op\":\"stats\"}");
        assert_eq!(
            field(&parsed(&stats), "replayed_records"),
            &Json::U64(recs.len() as u64)
        );
        assert!(core
            .prometheus_text()
            .contains(&format!("serve_replayed_records {}", recs.len())));
    }

    #[test]
    fn metrics_and_health_ops_report_live_state() {
        let core = ServerCore::new(vec![dataset("metrics")], ServeConfig::default());
        let t = core.datasets[0].hierarchies[0].difference[0].key as f64;
        for _ in 0..3 {
            core.handle_line(&format!("{{\"op\":\"threshold\",\"t\":{t}}}"));
        }
        core.handle_line("{\"op\":\"bogus\"}");
        let (resp, close) = core.handle_line("{\"op\":\"metrics\"}");
        assert!(!close);
        let p = parsed(&resp);
        assert_eq!(field(&p, "ok"), &Json::Bool(true));
        let c = field(&p, "counters");
        // 3 thresholds + 1 invalid; the in-flight metrics op is not yet
        // counted when its own snapshot is taken
        assert_eq!(c.get("serve_queries"), Some(&Json::U64(4)));
        assert_eq!(c.get("serve_errors"), Some(&Json::U64(1)));
        assert_eq!(c.get("serve_hits"), Some(&Json::U64(2)));
        assert_eq!(c.get("serve_misses"), Some(&Json::U64(1)));
        let gauges = field(&p, "gauges");
        // byte gauges are live and nonzero once something is cached
        assert!(
            matches!(gauges.get("serve_cache_bytes"), Some(Json::U64(b)) if *b > 0),
            "{resp}"
        );
        assert!(
            matches!(gauges.get("serve_dataset_bytes{dataset=\"noise\"}"),
                     Some(Json::U64(b)) if *b > 0),
            "{resp}"
        );
        let thr = field(&p, "histograms")
            .get("serve_latency_us{class=\"threshold\"}")
            .expect("threshold series");
        assert_eq!(thr.get("count"), Some(&Json::U64(3)));
        // health reflects the not-yet-stopped server
        let (resp, _) = core.handle_line("{\"op\":\"health\"}");
        let p = parsed(&resp);
        assert_eq!(field(&p, "ok"), &Json::Bool(true));
        assert_eq!(field(&p, "status"), &Json::str("ok"));
        core.request_shutdown();
        let (resp, _) = core.handle_line("{\"op\":\"health\"}");
        assert_eq!(field(&parsed(&resp), "status"), &Json::str("stopping"));
        // the telemetry report agrees with the live counters and carries
        // the snapshot under meta "live"
        let report = core.report("serve_metrics_test");
        assert_eq!(report.counter_total("serve_queries"), 7);
        let json = report.to_json();
        assert!(json.pretty().contains("\"live\""));
    }

    #[test]
    fn prometheus_text_renders_and_matches_counters() {
        let core = ServerCore::new(vec![dataset("prom")], ServeConfig::default());
        let t = core.datasets[0].hierarchies[0].difference[0].key as f64;
        for _ in 0..4 {
            core.handle_line(&format!("{{\"op\":\"threshold\",\"t\":{t}}}"));
        }
        let text = core.prometheus_text();
        assert!(text.contains("# TYPE serve_queries counter"));
        assert!(text.contains("serve_queries 4"));
        assert!(text.contains("serve_hits 3"));
        assert!(text.contains("# TYPE serve_latency_us histogram"));
        assert!(text.contains("serve_latency_us_bucket{class=\"threshold\",le=\"+Inf\"} 4"));
        assert!(text.contains("serve_latency_us_count{class=\"threshold\"} 4"));
        assert!(text.contains("# TYPE serve_cache_bytes gauge"));
        // HTTP scrapes are not queries; the JSON metrics op is
        assert!(text.contains("serve_http_scrapes 0"));
    }

    #[test]
    fn serve_memory_is_bounded_in_requests() {
        // no datasets needed: ping exercises the whole accounting path
        let core = ServerCore::new(Vec::new(), ServeConfig::default());
        core.handle_line("{\"op\":\"ping\"}");
        let before = core.metrics_mem_bytes();
        for _ in 0..50_000 {
            core.handle_line("{\"op\":\"ping\"}");
        }
        assert_eq!(
            core.metrics_mem_bytes(),
            before,
            "per-request state must not grow with request count"
        );
        // and the footprint is histogram-bucket sized, not sample sized:
        // 12 classes × ~8KiB of buckets, nowhere near 50k samples × 8B
        assert!(before < 256 * 1024, "metrics footprint {before} too large");
        let (resp, _) = core.handle_line("{\"op\":\"stats\"}");
        assert!(
            matches!(field(&parsed(&resp), "queries"), Json::U64(n) if *n > 50_000),
            "{resp}"
        );
    }

    #[test]
    fn scrapes_interleave_with_recording_without_deadlock() {
        let core = ServerCore::new(vec![dataset("scrape")], ServeConfig::default());
        let keys: Vec<f32> = core.datasets[0].hierarchies[0]
            .difference
            .iter()
            .map(|r| r.key)
            .collect();
        let n = 4;
        let barrier = Barrier::new(n + 2);
        std::thread::scope(|s| {
            for i in 0..n {
                let keys = &keys;
                let core = &core;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for k in 0..20 {
                        let t = keys[(i * 20 + k) % keys.len()] as f64;
                        let (resp, _) =
                            core.handle_line(&format!("{{\"op\":\"threshold\",\"t\":{t}}}"));
                        assert!(resp.contains("\"ok\":true"), "{resp}");
                    }
                });
            }
            // two scrapers hammer every read surface while the workers
            // materialize through the coalescing condvar path
            for _ in 0..2 {
                let core = &core;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..30 {
                        let _ = core.prometheus_text();
                        let _ = core.metrics_json();
                        let _ = core.stats_json();
                        let _ = core.health_json();
                    }
                });
            }
        });
        assert_eq!(core.metrics.queries.get(), n as u64 * 20);
        assert_eq!(
            core.metrics.hits.get() + core.metrics.misses.get(),
            n as u64 * 20
        );
    }

    #[test]
    fn http_scrape_and_json_share_one_listener() {
        let core = Arc::new(ServerCore::new(
            vec![dataset("http")],
            ServeConfig::default(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server = {
                let core = core.clone();
                s.spawn(move || serve_tcp(&core, listener))
            };
            // JSON connection first: generate some traffic
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            writeln!(stream, "{{\"op\":\"threshold\",\"t\":0.3}}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(field(&parsed(line.trim()), "ok"), &Json::Bool(true));
            drop(reader);
            drop(stream);
            // HTTP scrape on the same listener
            let mut http = TcpStream::connect(addr).unwrap();
            write!(http, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            BufReader::new(http).read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("# TYPE serve_queries counter"));
            assert!(response.contains("serve_queries 1"), "{response}");
            // health endpoint
            let mut http = TcpStream::connect(addr).unwrap();
            write!(http, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            BufReader::new(http).read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("\"status\":\"ok\""), "{response}");
            // unknown path: 404, connection still answered cleanly
            let mut http = TcpStream::connect(addr).unwrap();
            write!(http, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            BufReader::new(http).read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 404"), "{response}");
            // scrapes counted separately from queries
            assert_eq!(core.metrics.scrapes.get(), 3);
            assert_eq!(core.metrics.queries.get(), 1);
            // shut down via JSON
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            writeln!(stream, "{{\"op\":\"shutdown\"}}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn slow_request_accounting_counts_threshold_crossers() {
        let core = ServerCore::new(
            Vec::new(),
            ServeConfig {
                slow_us: Some(0),       // everything is "slow"
                slow_sample: 1_000_000, // but almost nothing is logged
                ..Default::default()
            },
        );
        for _ in 0..10 {
            core.handle_line("{\"op\":\"ping\"}");
        }
        assert_eq!(core.metrics.slow.get(), 10);
        let none = ServerCore::new(Vec::new(), ServeConfig::default());
        for _ in 0..10 {
            none.handle_line("{\"op\":\"ping\"}");
        }
        assert_eq!(
            none.metrics.slow.get(),
            0,
            "disabled threshold never counts"
        );
    }

    #[test]
    fn lru_evicts_stalest_key() {
        let mut lru = Lru::new(2);
        let key = |i: usize| CacheKey {
            dataset: 0,
            slot: 0,
            ordering: Ordering::Difference,
            prefix_len: i,
        };
        let dummy = |applied: usize| {
            Arc::new(Materialized {
                complex: MsComplex::new(msp_grid::Dims::cube(2).refined(), vec![0]),
                forwards: Vec::new(),
                stats: Default::default(),
                applied,
            })
        };
        lru.put(key(1), dummy(1));
        lru.put(key(2), dummy(2));
        assert!(lru.get(&key(1)).is_some()); // 1 freshened; 2 now stalest
        lru.put(key(3), dummy(3));
        assert!(lru.get(&key(2)).is_none(), "stalest key evicted");
        assert!(lru.get(&key(1)).is_some());
        assert!(lru.get(&key(3)).is_some());
    }

    #[test]
    fn serve_lines_keeps_request_order_and_stops_at_quit() {
        let core = ServerCore::new(vec![dataset("lines")], ServeConfig::default());
        let batch = "\
            {\"op\":\"ping\"}\n\
            {\"op\":\"threshold\",\"t\":0.2}\n\
            {\"op\":\"threshold\",\"t\":0.2}\n\
            {\"op\":\"datasets\"}\n\
            {\"op\":\"stats\"}\n\
            {\"op\":\"quit\"}\n\
            {\"op\":\"ping\"}\n";
        let mut out = Vec::new();
        serve_lines(&core, Cursor::new(batch.as_bytes()), &mut out, 3).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // the post-quit ping is never read
        assert_eq!(lines.len(), 6, "{text}");
        let ops: Vec<String> = lines
            .iter()
            .map(|l| match field(&parsed(l), "op") {
                Json::Str(s) => s.clone(),
                other => panic!("op must be a string, got {other:?}"),
            })
            .collect();
        assert_eq!(
            ops,
            [
                "ping",
                "threshold",
                "threshold",
                "datasets",
                "stats",
                "quit"
            ]
        );
        // the two identical thresholds must answer identically
        assert_eq!(lines[1], lines[2]);
        // every response is a single line of valid JSON
        for l in &lines {
            assert!(Json::parse(l).is_ok());
        }
    }

    #[test]
    fn tcp_replies_arrive_whole_and_without_a_delayed_ack_stall() {
        let core = Arc::new(ServerCore::new(
            vec![dataset_of("frames", 15)],
            ServeConfig::default(),
        ));
        // fully simplified, arcs are few and long: take the longest
        let t = f32::MAX;
        let m = core.materialized(0, 0, Ordering::Difference, t).unwrap();
        let live = m.complex.arcs.iter().enumerate().filter(|(_, a)| a.alive);
        let (arc, _) = live
            .max_by_key(|(_, a)| m.complex.geom_len(a.geom))
            .expect("a live arc");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server = {
                let core = core.clone();
                s.spawn(move || serve_tcp(&core, listener))
            };
            // a client that never delays its own segments: what is left
            // of a round trip is the server's doing
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut ask = |req: &str| {
                stream.write_all(format!("{req}\n").as_bytes()).unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line
            };
            ask("{\"op\":\"ping\"}"); // accepted and sniffed
            let t0 = Instant::now();
            let pongs: Vec<String> = (0..25).map(|_| ask("{\"op\":\"ping\"}")).collect();
            let took = t0.elapsed();
            let req = format!("{{\"op\":\"arc-geometry\",\"t\":{t},\"arc\":{arc}}}");
            let reply = ask(&req);
            // stop the server before asserting: a panic in here would
            // leave the scope waiting on the accept loop forever
            ask("{\"op\":\"shutdown\"}");
            server.join().unwrap().unwrap();
            assert!(pongs.iter().all(|p| p == "{\"ok\":true,\"op\":\"ping\"}\n"));
            assert!(
                took < Duration::from_millis(500),
                "25 closed-loop pings took {took:?}: replies are leaving in pieces"
            );
            assert!(reply.len() > 2048, "wanted a multi-kilobyte reply: {reply}");
            assert_eq!(reply, core.handle_line(&req).0 + "\n");
        });
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let core = Arc::new(ServerCore::new(
            vec![dataset("tcp")],
            ServeConfig::default(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server = {
                let core = core.clone();
                s.spawn(move || serve_tcp(&core, listener))
            };
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut ask = |req: &str| {
                writeln!(stream, "{req}").unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line
            };
            let resp = ask("{\"op\":\"threshold\",\"t\":0.3}");
            assert_eq!(field(&parsed(resp.trim()), "ok"), &Json::Bool(true));
            let resp = ask("{\"op\":\"shutdown\"}");
            assert_eq!(field(&parsed(resp.trim()), "ok"), &Json::Bool(true));
            server.join().unwrap().unwrap();
        });
        assert!(core.is_shutdown());
    }
}
