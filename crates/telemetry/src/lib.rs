//! # msp-telemetry
//!
//! Per-rank phase/comm observability for the parallel Morse-Smale
//! pipeline: the substrate every performance claim in this repo is
//! measured against (the paper's Table I and Figs 9/10 are exactly
//! per-phase, per-rank breakdowns of this kind).
//!
//! * [`Phase`] — the fixed span taxonomy matching Algorithm 1 (`read`,
//!   `gradient`, `trace`, `simplify`, `merge_round[k]`, `ship`, `glue`,
//!   `resimplify`, `write`, `total`);
//! * [`Counter`] — monotonically-accumulating work/communication
//!   counters (cells paired … bytes/messages sent/received);
//! * [`Recorder`] — one per rank: counters and one list of phase spans,
//!   from which the report's phase totals and the trace's spans are
//!   both derived;
//! * [`RankReport`] / [`RunReport`] — frozen per-rank data (a rank
//!   hands its report back with its outputs), cross-rank
//!   min/mean/max/imbalance aggregation, and a versioned
//!   `.telemetry.json` writer;
//! * [`TraceSink`] / [`RankTrace`] / [`RunTrace`] — causal event
//!   tracing: message stamps plus the recorder's spans per rank, Chrome
//!   trace-event export for Perfetto, and critical-path analysis
//!   ([`CriticalPath`]);
//! * [`Json`] — the dependency-free JSON document builder/parser the
//!   writers use;
//! * [`live`] — the *live* (scrapeable, lock-free) metric surface:
//!   atomic counters, log-bucketed histograms with bounded memory,
//!   windowed rates, and the Prometheus/JSON renderers of a caller's
//!   fixed [`live::Family`] list (DESIGN.md §13);
//! * [`Reader`] — the bounds-checked little-endian reader under every
//!   binary decoder of the workspace, with its one error, [`Truncated`].
//!
//! The crate is intentionally std-only so it can never constrain where
//! instrumentation is threaded.

pub mod counter;
pub mod json;
pub mod live;
pub mod phase;
pub mod recorder;
pub mod report;
pub mod trace;
pub(crate) mod wirefmt;

pub use counter::{Counter, ALL_COUNTERS};
pub use json::Json;
pub use live::{bucket_width, HistSnapshot, LiveCounter, LiveHistogram, RateWindow, HIST_BUCKETS};
pub use phase::Phase;
pub use recorder::{Recorder, SpanError};
pub use report::{
    aggregate, write_named_json, Agg, CounterStat, PhaseStat, RankReport, RunReport, REPORT_VERSION,
};
pub use trace::{
    CriticalPath, FlowEdge, MatchReport, MsgStamp, PathStep, RankTrace, RunTrace, TimeoutStamp,
    TraceSink, TraceSpan, TRACE_VERSION,
};
pub use wirefmt::{Reader, Truncated};
