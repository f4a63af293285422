//! Live metrics: lock-free counters and log-bucketed histograms for
//! runtime introspection (DESIGN.md §13).
//!
//! The existing [`crate::Recorder`] is post-mortem: spans and counters
//! are frozen into a report once, at the end of a run. This module is
//! the complementary *live* surface a serving process needs — values
//! that can be scraped at any instant, from any thread, without
//! stalling the hot path:
//!
//! * [`LiveCounter`] — a monotonic `AtomicU64`;
//! * [`LiveHistogram`] — an HDR-style log-bucketed histogram with a
//!   *fixed* memory footprint (`O(buckets)`, never `O(samples)`) and a
//!   quantile error of at most one bucket width (≤ 1/16 relative for
//!   values ≥ 16);
//! * [`RateWindow`] — a ring of per-second event counts for windowed
//!   QPS snapshots;
//! * [`render_prometheus`] / [`snapshot_json`] — a caller's fixed list
//!   of [`Family`]s, built at scrape time, rendered as Prometheus text
//!   exposition format or a JSON snapshot. A gauge is a [`Value`]
//!   computed when the list is built, never a stored instrument, and
//!   recording touches only the caller's own atomics.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// A monotonically increasing counter. Recording is a single relaxed
/// `fetch_add`; reads are a relaxed load.
#[derive(Debug, Default)]
pub struct LiveCounter(AtomicU64);

impl LiveCounter {
    pub fn new() -> LiveCounter {
        LiveCounter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile
/// error at `2^-SUB_BITS` (6.25%) for values ≥ `2^SUB_BITS`.
const SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range: the first
/// `SUB_COUNT` values exactly, then `64 - SUB_BITS` shifted octaves of
/// `SUB_COUNT` sub-buckets each.
pub const HIST_BUCKETS: usize = SUB_COUNT * (64 - SUB_BITS as usize + 1);

/// Bucket index of a value (total order, exact below `SUB_COUNT`).
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUB_COUNT as u64 - 1)) as usize;
    SUB_COUNT + shift as usize * SUB_COUNT + sub
}

/// Lowest value mapping to bucket `i` (the quantile representative).
fn bucket_low(i: usize) -> u64 {
    if i < SUB_COUNT {
        return i as u64;
    }
    let shift = ((i - SUB_COUNT) / SUB_COUNT) as u32;
    let sub = ((i - SUB_COUNT) % SUB_COUNT) as u64;
    (SUB_COUNT as u64 + sub) << shift
}

/// Width of the bucket containing `v` — the quantile error bound at
/// that magnitude.
pub fn bucket_width(v: u64) -> u64 {
    let i = bucket_index(v);
    if i + 1 >= HIST_BUCKETS {
        return u64::MAX - bucket_low(i);
    }
    bucket_low(i + 1) - bucket_low(i)
}

/// A lock-free log-bucketed histogram over `u64` samples with a fixed
/// footprint of [`HIST_BUCKETS`] atomic cells (~8 KiB). Recording is
/// one relaxed `fetch_add` per sample; quantiles, merges and renders
/// work from a consistent local snapshot of the bucket array.
#[derive(Debug)]
pub struct LiveHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for LiveHistogram {
    fn default() -> Self {
        LiveHistogram::new()
    }
}

impl LiveHistogram {
    pub fn new() -> LiveHistogram {
        LiveHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Consistent point-in-time copy of the bucket array (the unit the
    /// quantile/merge/render paths all work from).
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile (`pct` in 0..=100), reported as the lower
    /// bound of the containing bucket — at most one bucket width below
    /// the exact order statistic, and monotone in `pct` so p50 ≤ p99
    /// holds structurally.
    pub fn quantile(&self, pct: usize) -> u64 {
        self.snapshot().quantile(pct)
    }

    /// Fold another histogram's samples into this one. Bucket-wise
    /// addition, so merging is associative and commutative.
    pub fn merge_from(&self, other: &LiveHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// Resident size — a constant, independent of how many samples have
    /// been recorded (the bounded-memory guarantee the serve layer
    /// relies on).
    pub fn mem_bytes(&self) -> u64 {
        (std::mem::size_of::<LiveHistogram>() + self.buckets.len() * 8) as u64
    }
}

/// A frozen copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Dense per-bucket counts, length [`HIST_BUCKETS`].
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistSnapshot {
    /// Same nearest-rank quantile as [`LiveHistogram::quantile`].
    pub fn quantile(&self, pct: usize) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count - 1) * pct.min(100) as u64 / 100;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum > rank {
                return bucket_low(i);
            }
        }
        bucket_low(HIST_BUCKETS - 1)
    }

    /// `(le, cumulative_count)` pairs for every non-empty bucket, in
    /// increasing `le` order — the Prometheus `_bucket` series (the
    /// implicit `+Inf` bucket is the total count).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            // the bucket spans [low(i), low(i+1)); samples are integers,
            // so `le = low(i+1) - 1` is the inclusive upper bound
            let le = if i + 1 < HIST_BUCKETS {
                bucket_low(i + 1) - 1
            } else {
                u64::MAX
            };
            out.push((le, cum));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Windowed rates
// ---------------------------------------------------------------------

const RATE_SLOTS: usize = 64;

/// Per-second event counts in a fixed ring, for windowed QPS snapshots
/// up to `RATE_SLOTS - 1` seconds back. Recording is lock-free; a slot
/// being lazily recycled across a second boundary can drop a handful of
/// concurrent increments, which is harmless for a rate metric.
#[derive(Debug)]
pub struct RateWindow {
    started: Instant,
    /// Per slot: the second this slot currently counts (+1, so 0 means
    /// "never used") and the event count within it.
    secs: Box<[AtomicU64]>,
    counts: Box<[AtomicU64]>,
}

impl Default for RateWindow {
    fn default() -> Self {
        RateWindow::new()
    }
}

impl RateWindow {
    pub fn new() -> RateWindow {
        RateWindow {
            started: Instant::now(),
            secs: (0..RATE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            counts: (0..RATE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn record(&self) {
        let sec = self.started.elapsed().as_secs() + 1;
        let i = (sec % RATE_SLOTS as u64) as usize;
        if self.secs[i].load(Ordering::Relaxed) != sec {
            self.counts[i].store(0, Ordering::Relaxed);
            self.secs[i].store(sec, Ordering::Relaxed);
        }
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Events per second over the trailing `window` seconds (including
    /// the current partial second), clamped to the ring depth and to
    /// the time the window has existed.
    pub fn rate(&self, window: u64) -> f64 {
        let now = self.started.elapsed().as_secs() + 1;
        let window = window.clamp(1, RATE_SLOTS as u64 - 1);
        let lo = now.saturating_sub(window - 1);
        let mut events = 0u64;
        for i in 0..RATE_SLOTS {
            let sec = self.secs[i].load(Ordering::Relaxed);
            if sec >= lo && sec <= now {
                events += self.counts[i].load(Ordering::Relaxed);
            }
        }
        events as f64 / window.min(now) as f64
    }
}

// ---------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------

/// One series' value, read when the family list is built.
#[derive(Debug)]
pub enum Value<'a> {
    Counter(u64),
    Gauge(f64),
    Histogram(&'a LiveHistogram),
}

impl Value<'_> {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

/// A named metric family: its series, each with at most one label.
#[derive(Debug)]
pub struct Family<'a> {
    pub name: &'static str,
    pub help: &'static str,
    pub series: Vec<(Option<(&'static str, &'a str)>, Value<'a>)>,
}

impl Family<'_> {
    /// The kind every series shares. Mixing kinds in one family is a
    /// programmer error, like a duplicate counter key, and panics.
    fn kind(&self) -> &'static str {
        let kind = self.series.first().map_or("gauge", |(_, v)| v.kind());
        if let Some((_, v)) = self.series.iter().find(|(_, v)| v.kind() != kind) {
            panic!(
                "metric {:?} registered as {kind} and {}",
                self.name,
                v.kind()
            );
        }
        kind
    }
}

/// Prometheus text exposition format (version 0.0.4): `# HELP` /
/// `# TYPE` headers per family, one sample line per series, and
/// cumulative `_bucket`/`_sum`/`_count` series for histograms. Families
/// and series render in slice order, so output is deterministic; a
/// family without series renders nothing.
pub fn render_prometheus(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families.iter().filter(|f| !f.series.is_empty()) {
        out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
        out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind()));
        for (label, value) in &f.series {
            let mut sample = |suffix: &str, le: Option<&str>, value: String| {
                let labels = label_text(*label, le);
                out.push_str(&format!("{}{suffix}{labels} {value}\n", f.name));
            };
            match value {
                Value::Counter(c) => sample("", None, c.to_string()),
                Value::Gauge(g) => sample("", None, fmt_number(*g)),
                Value::Histogram(h) => {
                    let snap = h.snapshot();
                    for (le, cum) in snap.cumulative() {
                        sample("_bucket", Some(&le.to_string()), cum.to_string());
                    }
                    sample("_bucket", Some("+Inf"), snap.count.to_string());
                    sample("_sum", None, snap.sum.to_string());
                    sample("_count", None, snap.count.to_string());
                }
            }
        }
    }
    out
}

/// JSON snapshot: `{"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, p50, p99}}}`, keyed by
/// `name{label="value"}` exactly as Prometheus renders them so the two
/// surfaces cross-check against each other.
pub fn snapshot_json(families: &[Family]) -> Json {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for f in families {
        f.kind(); // refuses a family whose series mix kinds
        for (label, value) in &f.series {
            let key = format!("{}{}", f.name, label_text(*label, None));
            match value {
                Value::Counter(c) => counters.push((key, Json::U64(*c))),
                Value::Gauge(v) => {
                    let j = if v.fract() == 0.0 && (0.0..9.0e15).contains(v) {
                        Json::U64(*v as u64)
                    } else {
                        Json::F64(*v)
                    };
                    gauges.push((key, j));
                }
                Value::Histogram(h) => {
                    let snap = h.snapshot();
                    histograms.push((
                        key,
                        Json::obj(vec![
                            ("count", Json::U64(snap.count)),
                            ("sum", Json::U64(snap.sum)),
                            ("p50", Json::U64(snap.quantile(50))),
                            ("p99", Json::U64(snap.quantile(99))),
                        ]),
                    ));
                }
            }
        }
    }
    Json::Obj(vec![
        ("counters".to_string(), Json::Obj(counters)),
        ("gauges".to_string(), Json::Obj(gauges)),
        ("histograms".to_string(), Json::Obj(histograms)),
    ])
}

/// `{label="value"}` with an optional trailing `le`; a series with
/// neither renders as nothing (bare metric name).
fn label_text(label: Option<(&str, &str)>, le: Option<&str>) -> String {
    let label =
        label.map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")));
    let parts: Vec<String> = label
        .into_iter()
        .chain(le.map(|le| format!("le=\"{le}\"")))
        .collect();
    if parts.is_empty() {
        return String::new();
    }
    format!("{{{}}}", parts.join(","))
}

/// Render a gauge value: integral values print without a fraction.
fn fmt_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn bucket_mapping_is_monotone_and_total() {
        // exact below SUB_COUNT
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
        }
        // every bucket's low maps back to itself, and lows increase
        let mut prev = None;
        for i in 0..HIST_BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "bucket {i} low {low}");
            if let Some(p) = prev {
                assert!(low > p, "bucket lows must increase at {i}");
            }
            prev = Some(low);
        }
        // extremes land inside the table
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // relative error bound: width/low <= 2^-SUB_BITS for v >= 16
        for v in [16u64, 100, 1_000, 123_456, u64::MAX / 3] {
            let w = bucket_width(v);
            assert!(
                (w as f64) <= bucket_low(bucket_index(v)) as f64 / (SUB_COUNT as f64) + 1.0,
                "width {w} too wide at {v}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_bound_exact_values() {
        let h = LiveHistogram::new();
        let mut samples: Vec<u64> = (0..1000u64).map(|i| i * i % 7919 + i).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for pct in [0, 25, 50, 90, 99, 100] {
            let exact = samples[(samples.len() - 1) * pct / 100];
            let approx = h.quantile(pct);
            assert!(approx <= exact, "p{pct}: approx {approx} > exact {exact}");
            assert!(
                exact - approx < bucket_width(exact).max(1),
                "p{pct}: error {} exceeds bucket width {}",
                exact - approx,
                bucket_width(exact)
            );
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
    }

    #[test]
    fn histogram_memory_is_bounded() {
        let h = LiveHistogram::new();
        let before = h.mem_bytes();
        for i in 0..100_000u64 {
            h.record(i.wrapping_mul(0x9e3779b97f4a7c15) >> 20);
        }
        assert_eq!(h.mem_bytes(), before, "recording must not allocate");
        assert!(before < 32 * 1024, "fixed footprint stays under 32 KiB");
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let (a, b, combined) = (
            LiveHistogram::new(),
            LiveHistogram::new(),
            LiveHistogram::new(),
        );
        for i in 0..500u64 {
            let v = i * 37 % 4096;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), combined.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LiveHistogram::new();
        let threads = 8;
        let per = 10_000u64;
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = &h;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..per {
                        h.record((t as u64 * per + i) % 100_000);
                        // scrapes interleave with recording and must not
                        // block or tear
                        if i % 1000 == 0 {
                            let _ = h.quantile(99);
                        }
                    }
                });
            }
        });
        assert_eq!(h.count(), threads as u64 * per);
    }

    #[test]
    fn registry_renders_prometheus_and_json() {
        let h = LiveHistogram::new();
        h.record(100);
        h.record(200);
        let families = [
            Family {
                name: "test_total",
                help: "a counter",
                series: vec![(None, Value::Counter(6))],
            },
            Family {
                name: "test_bytes",
                help: "a gauge",
                series: vec![(Some(("kind", "cache")), Value::Gauge(4096.0))],
            },
            Family {
                name: "test_us",
                help: "a histogram",
                series: vec![(Some(("class", "x")), Value::Histogram(&h))],
            },
            Family {
                name: "test_empty",
                help: "no series",
                series: vec![],
            },
        ];
        let text = render_prometheus(&families);
        assert!(text.contains("# TYPE test_total counter"));
        assert!(text.contains("test_total 6"));
        assert!(text.contains("test_bytes{kind=\"cache\"} 4096"));
        assert!(text.contains("# TYPE test_us histogram"));
        assert!(text.contains("test_us_bucket{class=\"x\",le=\"+Inf\"} 2"));
        assert!(text.contains("test_us_sum{class=\"x\"} 300"));
        assert!(text.contains("test_us_count{class=\"x\"} 2"));
        assert!(
            !text.contains("test_empty"),
            "a family without series renders nothing"
        );
        let rendered = snapshot_json(&families).pretty();
        assert!(rendered.contains("\"test_total\": 6"));
        assert!(rendered.contains("\"test_bytes{kind=\\\"cache\\\"}\": 4096"));
        // the snapshot re-parses (valid JSON)
        assert!(Json::parse(&rendered).is_ok());
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn registry_rejects_kind_conflicts() {
        let dual = Family {
            name: "dual",
            help: "as counter and gauge",
            series: vec![
                (Some(("as", "counter")), Value::Counter(0)),
                (Some(("as", "gauge")), Value::Gauge(0.0)),
            ],
        };
        render_prometheus(&[dual]);
    }

    #[test]
    fn rate_window_counts_recent_events() {
        let w = RateWindow::new();
        for _ in 0..50 {
            w.record();
        }
        // 50 events within the first second: any window sees them all
        assert!(w.rate(1) >= 50.0);
        assert!(w.rate(10) >= 5.0);
    }
}
