//! Per-rank recorder: phase spans and counters.
//!
//! One `Recorder` lives on each rank for the duration of a run. It keeps
//! one list of completed spans `(phase, t0_ns, t1_ns)` stamped against
//! the run epoch: live spans open and close in LIFO order
//! ([`begin`](Recorder::begin) / [`end`](Recorder::end)), and virtual
//! clocks hand in finished ones ([`span`](Recorder::span)). Everything
//! else is a fold over that list. A phase's seconds are the summed
//! durations of its spans, so a phase entered repeatedly (e.g.
//! `gradient` once per local block, `glue` once per merge group) reports
//! its total; the rank's trace ([`trace`](Recorder::trace)) carries the
//! same spans, so the two agree exactly. Nested spans count toward
//! **both** phases: a `glue` span inside `merge_round[1]` counts toward
//! `glue` and toward `merge_round[1]` — phase times are therefore *not*
//! disjoint and do not sum to `total`.
//!
//! Unbalanced instrumentation (an `end` for a phase that isn't the
//! innermost open span, or a `finish` with spans still open) is a bug in
//! the caller, but it must not take down a production run: it surfaces
//! as a [`SpanError`] from [`try_end`](Recorder::try_end) and as the
//! `unbalanced` incident count on the frozen report, never as a panic.

use crate::counter::{Counter, ALL_COUNTERS};
use crate::phase::Phase;
use crate::report::RankReport;
use crate::trace::{RankTrace, TraceSpan};
use std::collections::BTreeMap;
use std::time::Instant;

/// Misuse of the span API, reported instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanError {
    /// `end(phase)` with no span open at all.
    NoOpenSpan { ending: Phase },
    /// `end(phase)` while a *different* phase is the innermost open
    /// span. The stack is left untouched so the innermost span can
    /// still be closed correctly.
    Mismatch { ending: Phase, innermost: Phase },
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanError::NoOpenSpan { ending } => {
                write!(f, "ended span {:?} but no span is open", ending)
            }
            SpanError::Mismatch { ending, innermost } => write!(
                f,
                "span nesting mismatch: ending {:?} but innermost open span is {:?}",
                ending, innermost
            ),
        }
    }
}

impl std::error::Error for SpanError {}

/// Seconds of a span, exactly as [`TraceSpan::dur_ns`] counts them.
fn seconds(t0_ns: u64, t1_ns: u64) -> f64 {
    t1_ns.saturating_sub(t0_ns) as f64 * 1e-9
}

/// Phase spans + counters of one rank.
#[derive(Debug)]
pub struct Recorder {
    rank: u32,
    epoch: Instant,
    counters: [u64; Counter::COUNT],
    /// Open spans `(phase, t0_ns)`, innermost last.
    stack: Vec<(Phase, u64)>,
    /// Completed spans `(phase, t0_ns, t1_ns)`, in completion order.
    spans: Vec<(Phase, u64, u64)>,
    /// Span-API misuse incidents (mismatched/unclosed spans).
    unbalanced: u32,
}

impl Recorder {
    /// A recorder for `rank` stamping spans against `epoch`. Every rank
    /// of a run shares one epoch, so traced timelines line up.
    pub fn new(rank: u32, epoch: Instant) -> Recorder {
        Recorder {
            rank,
            epoch,
            counters: [0; Counter::COUNT],
            stack: Vec::new(),
            spans: Vec::new(),
            unbalanced: 0,
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span for `phase`. Spans nest; close them in LIFO order.
    pub fn begin(&mut self, phase: Phase) {
        let now = self.now_ns();
        self.stack.push((phase, now));
    }

    /// Close the innermost span, which must be `phase`. Returns the
    /// seconds of this span occurrence, or a [`SpanError`] describing
    /// the misuse (the mismatch case leaves the stack untouched).
    pub fn try_end(&mut self, phase: Phase) -> Result<f64, SpanError> {
        match self.stack.last() {
            None => Err(SpanError::NoOpenSpan { ending: phase }),
            Some((open, _)) if *open != phase => Err(SpanError::Mismatch {
                ending: phase,
                innermost: *open,
            }),
            Some(&(_, t0)) => {
                self.stack.pop();
                let t1 = self.now_ns();
                self.spans.push((phase, t0, t1));
                Ok(seconds(t0, t1))
            }
        }
    }

    /// Close the innermost span, which must be `phase`. Returns the
    /// seconds of this span occurrence; on misuse records an unbalanced
    /// incident (surfaced on the report) and returns 0.
    pub fn end(&mut self, phase: Phase) -> f64 {
        match self.try_end(phase) {
            Ok(secs) => secs,
            Err(_) => {
                self.unbalanced += 1;
                0.0
            }
        }
    }

    /// Run `f` inside a `phase` span (exception-unsafe convenience: a
    /// panic in `f` leaves the span open, which is fine because the
    /// recorder dies with the rank).
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.begin(phase);
        let out = f(self);
        self.end(phase);
        out
    }

    /// Record a completed span with explicit timestamps — for virtual
    /// clocks (the BSP sim driver), which advance time themselves.
    pub fn span(&mut self, phase: Phase, t0_ns: u64, t1_ns: u64) {
        self.spans.push((phase, t0_ns, t1_ns));
    }

    /// Summed seconds of the completed `phase` spans so far.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        let of_phase = self.spans.iter().filter(|s| s.0 == phase);
        of_phase.map(|&(_, t0, t1)| seconds(t0, t1)).sum()
    }

    /// Number of currently open spans.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Span-API misuse incidents recorded so far.
    pub fn unbalanced(&self) -> u32 {
        self.unbalanced
    }

    /// Add `n` to counter `c`.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    /// Current value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Freeze into the per-rank report: per-phase span
    /// sums in taxonomy order. Spans still open are closed now, and
    /// each counts as an unbalanced incident on the report.
    pub fn finish(&mut self) -> RankReport {
        while let Some((phase, t0)) = self.stack.pop() {
            self.unbalanced += 1;
            let t1 = self.now_ns();
            self.spans.push((phase, t0, t1));
        }
        let mut phases: BTreeMap<Phase, f64> = BTreeMap::new();
        for &(p, t0, t1) in &self.spans {
            *phases.entry(p).or_insert(0.0) += seconds(t0, t1);
        }
        RankReport {
            rank: self.rank,
            unbalanced: self.unbalanced,
            phases: phases.into_iter().map(|(p, s)| (p.key(), s)).collect(),
            counters: ALL_COUNTERS
                .iter()
                .map(|c| (c.key().to_string(), self.counters[c.index()]))
                .collect(),
        }
    }

    /// This rank's trace: `stamps` (the message, timeout and mark
    /// events only a trace records) plus every completed span keyed by
    /// [`Phase::key`], with the recorder's unbalanced count. Call after
    /// [`finish`](Recorder::finish) so spans left open are included.
    pub fn trace(&self, mut stamps: RankTrace) -> RankTrace {
        for &(p, t0_ns, t1_ns) in &self.spans {
            let key = p.key();
            stamps.spans.push(TraceSpan { key, t0_ns, t1_ns });
        }
        stamps.unbalanced = self.unbalanced;
        stamps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_accumulate_into_both_buckets() {
        let mut r = Recorder::new(3, Instant::now());
        r.begin(Phase::MergeRound(0));
        r.begin(Phase::Glue);
        assert_eq!(r.open_spans(), 2);
        let glue = r.end(Phase::Glue);
        r.begin(Phase::Resimplify);
        r.end(Phase::Resimplify);
        let round = r.end(Phase::MergeRound(0));
        assert_eq!(r.open_spans(), 0);
        assert!(glue >= 0.0 && round >= glue, "outer span encloses inner");
        assert!(r.phase_seconds(Phase::MergeRound(0)) >= r.phase_seconds(Phase::Glue));
        assert!(r.phase_seconds(Phase::Resimplify) >= 0.0);
    }

    #[test]
    fn repeated_spans_sum() {
        let mut r = Recorder::new(0, Instant::now());
        r.begin(Phase::Gradient);
        let a = r.end(Phase::Gradient);
        r.begin(Phase::Gradient);
        let b = r.end(Phase::Gradient);
        let total = r.phase_seconds(Phase::Gradient);
        assert!((total - (a + b)).abs() < 1e-12);
    }

    #[test]
    fn mismatched_end_is_typed_error_not_panic() {
        let mut r = Recorder::new(0, Instant::now());
        r.begin(Phase::Read);
        r.begin(Phase::Gradient);
        let err = r.try_end(Phase::Read).unwrap_err();
        assert_eq!(
            err,
            SpanError::Mismatch {
                ending: Phase::Read,
                innermost: Phase::Gradient
            }
        );
        assert!(err.to_string().contains("nesting mismatch"));
        // the stack was left intact: the correct close still works
        assert_eq!(r.open_spans(), 2);
        assert!(r.try_end(Phase::Gradient).is_ok());
        assert!(r.try_end(Phase::Read).is_ok());
        assert_eq!(r.unbalanced(), 0, "try_end does not count incidents");
    }

    #[test]
    fn end_with_no_open_span_is_flagged() {
        let mut r = Recorder::new(0, Instant::now());
        assert_eq!(
            r.try_end(Phase::Write).unwrap_err(),
            SpanError::NoOpenSpan {
                ending: Phase::Write
            }
        );
        assert_eq!(r.end(Phase::Write), 0.0);
        assert_eq!(r.unbalanced(), 1);
        let rep = r.finish();
        assert_eq!(rep.unbalanced, 1);
    }

    #[test]
    fn finish_with_open_span_flags_and_accumulates() {
        let mut r = Recorder::new(0, Instant::now());
        r.begin(Phase::Read);
        r.begin(Phase::Gradient);
        let rep = r.finish();
        assert_eq!(rep.unbalanced, 2);
        assert_eq!(r.open_spans(), 0, "finish closed the open spans");
        assert!(r.phase_seconds(Phase::Read) >= r.phase_seconds(Phase::Gradient));
        assert!(rep.phases.iter().any(|(k, _)| k == "read"));
    }

    #[test]
    fn mismatched_end_via_end_flags_but_keeps_stack() {
        let mut r = Recorder::new(0, Instant::now());
        r.begin(Phase::Read);
        assert_eq!(r.end(Phase::Write), 0.0, "mismatch yields zero seconds");
        assert_eq!(r.unbalanced(), 1);
        assert_eq!(r.open_spans(), 1, "mismatch leaves innermost span open");
        assert!(r.end(Phase::Read) >= 0.0);
        assert_eq!(r.finish().unbalanced, 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut r = Recorder::new(1, Instant::now());
        r.add(Counter::BytesSent, 10);
        r.add(Counter::BytesSent, 32);
        r.add(Counter::MsgsSent, 2);
        assert_eq!(r.counter(Counter::BytesSent), 42);
        assert_eq!(r.counter(Counter::MsgsSent), 2);
        assert_eq!(r.counter(Counter::BytesRecv), 0);
    }

    #[test]
    fn time_closure_and_finish_report() {
        let mut r = Recorder::new(7, Instant::now());
        let v = r.time(Phase::Write, |r| {
            r.add(Counter::MsgsSent, 1);
            99
        });
        assert_eq!(v, 99);
        let rep = r.finish();
        assert_eq!(rep.rank, 7);
        assert_eq!(rep.unbalanced, 0);
        assert_eq!(rep.phases.len(), 1);
        assert_eq!(rep.phases[0].0, "write");
        // all counters are always present
        assert_eq!(rep.counters.len(), Counter::COUNT);
        assert_eq!(rep.counter("msgs_sent"), 1);
    }

    #[test]
    fn finish_folds_spans_into_phase_sums_in_taxonomy_order() {
        let mut r = Recorder::new(0, Instant::now());
        r.span(Phase::Write, 0, 4_000);
        r.span(Phase::Gradient, 10_000, 11_000);
        r.span(Phase::MergeRound(1), 0, 8_000);
        r.span(Phase::Gradient, 20_000, 22_000);
        r.span(Phase::Read, 0, 500);
        let rep = r.finish();
        let keys: Vec<&str> = rep.phases.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["read", "gradient", "merge_round[1]", "write"]);
        // each span adds its own seconds, in recording order
        let gradient = 1_000.0 * 1e-9 + 2_000.0 * 1e-9;
        assert_eq!(rep.phase_seconds("gradient"), Some(gradient));
        assert_eq!(rep.phase_seconds("write"), Some(4_000.0 * 1e-9));
        assert_eq!(rep.phase_seconds("trace"), None, "a phase without spans");
    }

    #[test]
    fn explicit_span_contributes_exactly_its_duration() {
        let mut r = Recorder::new(0, Instant::now());
        r.span(Phase::Glue, 1_000_000_000, 1_250_000_000);
        assert_eq!(r.phase_seconds(Phase::Glue), 0.25);
        r.span(Phase::Glue, 7, 7);
        assert_eq!(r.phase_seconds(Phase::Glue), 0.25, "an empty span adds 0");
        let rep = r.finish();
        assert_eq!(rep.phase_seconds("glue"), Some(0.25));
        assert_eq!(r.trace(RankTrace::new(0)).span_seconds("glue"), 0.25);
    }

    #[test]
    fn open_span_is_counted_once_in_report_and_trace() {
        let mut r = Recorder::new(4, Instant::now());
        r.begin(Phase::Total);
        r.time(Phase::Read, |_| ());
        let rep = r.finish();
        assert_eq!(rep.unbalanced, 1);
        // a second finish has nothing left to close
        assert_eq!(r.finish(), rep);
        let mut stamps = RankTrace::new(4);
        stamps.span("recover", 1, 2);
        let t = r.trace(stamps);
        assert_eq!(t.unbalanced, 1);
        let keys: Vec<&str> = t.spans.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, ["recover", "read", "total"]);
        for (key, secs) in &rep.phases {
            assert_eq!(t.span_seconds(key), *secs, "{key}");
        }
    }
}
