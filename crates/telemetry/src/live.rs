//! Live metrics: lock-light counters, gauges and log-bucketed
//! histograms for runtime introspection (DESIGN.md §13).
//!
//! The existing [`crate::Recorder`] is post-mortem: spans and counters
//! are frozen into a report once, at the end of a run. This module is
//! the complementary *live* surface a serving process needs — values
//! that can be scraped at any instant, from any thread, without
//! stalling the hot path:
//!
//! * [`LiveCounter`] — a monotonic `AtomicU64`;
//! * [`LiveGauge`] — a settable value (f64 bit pattern in an
//!   `AtomicU64`), used for byte footprints and windowed rates;
//! * [`LiveHistogram`] — an HDR-style log-bucketed histogram with a
//!   *fixed* memory footprint (`O(buckets)`, never `O(samples)`) and a
//!   quantile error of at most one bucket width (≤ 1/16 relative for
//!   values ≥ 16);
//! * [`RateWindow`] — a ring of per-second event counts for windowed
//!   QPS snapshots;
//! * [`Registry`] — named metric families with label sets, rendered as
//!   Prometheus text exposition format or a JSON snapshot. The lock is
//!   taken only for registration and rendering; recording is lock-free
//!   on the `Arc`ed handles.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counters and gauges
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

/// A gauge: the last value set wins. Stored as an `f64` bit pattern so
/// fractional rates and large byte counts share one type (bytes are
/// exact up to 2^53).
#[derive(Debug)]
pub struct LiveGauge(AtomicU64);

impl Default for LiveGauge {
    fn default() -> Self {
        LiveGauge::new()
    }
}

impl LiveGauge {
    pub fn new() -> LiveGauge {
        LiveGauge(AtomicU64::new(0f64.to_bits()))
    }

    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
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
// Registry
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn key(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    C(Arc<LiveCounter>),
    G(Arc<LiveGauge>),
    H(Arc<LiveHistogram>),
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    handle: Handle,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// Named metric families with label sets. The mutex guards only
/// registration and rendering; every returned handle records through
/// its own atomics. Registering the same `(name, labels)` twice returns
/// the same handle; reusing a name with a different kind panics (a
/// programmer error, like a duplicate counter key).
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<LiveCounter> {
        match self.register(name, help, Kind::Counter, labels, || {
            Handle::C(Arc::new(LiveCounter::new()))
        }) {
            Handle::C(c) => c,
            _ => unreachable!("registered as counter"),
        }
    }

    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<LiveGauge> {
        match self.register(name, help, Kind::Gauge, labels, || {
            Handle::G(Arc::new(LiveGauge::new()))
        }) {
            Handle::G(g) => g,
            _ => unreachable!("registered as gauge"),
        }
    }

    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<LiveHistogram> {
        match self.register(name, help, Kind::Histogram, labels, || {
            Handle::H(Arc::new(LiveHistogram::new()))
        }) {
            Handle::H(h) => h,
            _ => unreachable!("registered as histogram"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut fams = self.families.lock().unwrap();
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name:?} registered as {} and {}",
                    f.kind.key(),
                    kind.key()
                );
                f
            }
            None => {
                fams.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                fams.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = fam.series.iter().find(|s| s.labels == labels) {
            return s.handle.clone();
        }
        let handle = make();
        fam.series.push(Series {
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// Prometheus text exposition format (version 0.0.4): `# HELP` /
    /// `# TYPE` headers per family, one sample line per series, and
    /// cumulative `_bucket`/`_sum`/`_count` series for histograms.
    /// Families render in registration order, series in registration
    /// order, so output is deterministic.
    pub fn render_prometheus(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for f in fams.iter() {
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.key()));
            for s in &f.series {
                match &s.handle {
                    Handle::C(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            label_text(&s.labels, None),
                            c.get()
                        ));
                    }
                    Handle::G(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            label_text(&s.labels, None),
                            fmt_number(g.get())
                        ));
                    }
                    Handle::H(h) => {
                        let snap = h.snapshot();
                        for (le, cum) in snap.cumulative() {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                f.name,
                                label_text(&s.labels, Some(&le.to_string())),
                                cum
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            f.name,
                            label_text(&s.labels, Some("+Inf")),
                            snap.count
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            f.name,
                            label_text(&s.labels, None),
                            snap.sum
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            f.name,
                            label_text(&s.labels, None),
                            snap.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, p50, p99}}}`, keyed by
    /// `name{label="value",...}` exactly as Prometheus renders them so
    /// the two surfaces cross-check against each other.
    pub fn snapshot_json(&self) -> Json {
        let fams = self.families.lock().unwrap();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for f in fams.iter() {
            for s in &f.series {
                let key = format!("{}{}", f.name, label_text(&s.labels, None));
                match &s.handle {
                    Handle::C(c) => counters.push((key, Json::U64(c.get()))),
                    Handle::G(g) => {
                        let v = g.get();
                        let j = if v.fract() == 0.0 && (0.0..9.0e15).contains(&v) {
                            Json::U64(v as u64)
                        } else {
                            Json::F64(v)
                        };
                        gauges.push((key, j));
                    }
                    Handle::H(h) => {
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
}

/// `{label="value",...}` with an optional trailing `le`; empty label
/// sets render as nothing (bare metric name).
fn label_text(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
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
        let r = Registry::new();
        let c = r.counter("test_total", "a counter", &[]);
        let g = r.gauge("test_bytes", "a gauge", &[("kind", "cache")]);
        let h = r.histogram("test_us", "a histogram", &[("class", "x")]);
        c.add(5);
        g.set_u64(4096);
        h.record(100);
        h.record(200);
        // re-registration returns the same handle
        r.counter("test_total", "a counter", &[]).add(1);
        assert_eq!(c.get(), 6);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE test_total counter"));
        assert!(text.contains("test_total 6"));
        assert!(text.contains("test_bytes{kind=\"cache\"} 4096"));
        assert!(text.contains("# TYPE test_us histogram"));
        assert!(text.contains("test_us_bucket{class=\"x\",le=\"+Inf\"} 2"));
        assert!(text.contains("test_us_sum{class=\"x\"} 300"));
        assert!(text.contains("test_us_count{class=\"x\"} 2"));
        let snap = r.snapshot_json();
        let rendered = snap.pretty();
        assert!(rendered.contains("\"test_total\": 6"));
        assert!(rendered.contains("\"test_bytes{kind=\\\"cache\\\"}\": 4096"));
        // the snapshot re-parses (valid JSON)
        assert!(Json::parse(&rendered).is_ok());
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn registry_rejects_kind_conflicts() {
        let r = Registry::new();
        r.counter("dual", "as counter", &[]);
        r.gauge("dual", "as gauge", &[]);
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
