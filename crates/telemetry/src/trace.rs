//! Causal event tracing: per-rank timestamped span and message events,
//! cross-rank gathering, Chrome trace-event export (viewable in
//! Perfetto), and merge-tree **critical-path** analysis.
//!
//! The aggregate statistics of [`RunReport`](crate::RunReport) say how
//! much time each phase took *somewhere*; a trace says **when** each
//! span ran on **which** rank and which message made whom wait. Three
//! layers:
//!
//! * [`TraceSink`] — a cheaply-cloneable per-rank event recorder.
//!   Handles are shared between the pipeline code (span events, via
//!   [`Recorder`](crate::Recorder)) and the comm layer (message
//!   stamps), all timed against one common epoch so timestamps are
//!   comparable across ranks of a shared-memory universe;
//! * [`RankTrace`] — the frozen, wire-encodable event log of one rank.
//!   Simulated runs build these directly with virtual-clock
//!   timestamps, so real and simulated traces share every consumer;
//! * [`RunTrace`] — all ranks gathered at root: send/recv matching on
//!   `(src, dst, tag, seq)` ([`RunTrace::match_messages`]), the Chrome
//!   trace-event document ([`RunTrace::to_chrome_json`]), and the
//!   critical path ([`RunTrace::critical_path`]) — the longest
//!   causally-ordered chain of spans and messages from first read to
//!   final write.
//!
//! Timestamps are nanoseconds from the run epoch (`u64`), rendered as
//! fractional microseconds in the Chrome document (its native unit).

use crate::json::Json;
use crate::wirefmt::{encode_str, Cursor};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema version written into every encoded rank trace and every
/// `.trace.json` document.
pub const TRACE_VERSION: u32 = 1;

/// One completed span occurrence on a rank's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Phase key (`read`, `merge_round[k]`, `glue`, `recover`, …).
    pub key: String,
    pub t0_ns: u64,
    pub t1_ns: u64,
}

impl TraceSpan {
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// One point-to-point message stamp (one side of a transfer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgStamp {
    pub src: u32,
    pub dst: u32,
    pub tag: u32,
    /// 1-based per-directed-link sequence number assigned by the
    /// sender and carried in the message envelope, so the two sides of
    /// a transfer pair exactly even under reordering and loss.
    pub seq: u64,
    pub bytes: u64,
    pub t_ns: u64,
}

/// A receive deadline that expired with no matching message — the
/// detection event the fault layer recovers from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeoutStamp {
    /// The peer the receiver was waiting on.
    pub src: u32,
    pub tag: u32,
    /// When the deadline expired.
    pub t_ns: u64,
    pub waited_ns: u64,
}

/// The frozen event log of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    pub rank: u32,
    pub spans: Vec<TraceSpan>,
    /// Messages this rank handed to the transport.
    pub sends: Vec<MsgStamp>,
    /// Messages this rank consumed from the transport.
    pub recvs: Vec<MsgStamp>,
    pub timeouts: Vec<TimeoutStamp>,
    /// Spans that were still open at finish (closed implicitly) plus
    /// unmatched `end` calls — nonzero means the instrumentation was
    /// unbalanced and durations for those spans are best-effort.
    pub unbalanced: u32,
}

impl RankTrace {
    pub fn new(rank: u32) -> RankTrace {
        RankTrace {
            rank,
            ..Default::default()
        }
    }

    /// Record a completed span with explicit timestamps (virtual-clock
    /// producers; the live path goes through [`TraceSink`]).
    pub fn span(&mut self, key: &str, t0_ns: u64, t1_ns: u64) {
        self.spans.push(TraceSpan {
            key: key.to_string(),
            t0_ns,
            t1_ns,
        });
    }

    pub fn send(&mut self, dst: u32, tag: u32, seq: u64, bytes: u64, t_ns: u64) {
        self.sends.push(MsgStamp {
            src: self.rank,
            dst,
            tag,
            seq,
            bytes,
            t_ns,
        });
    }

    pub fn recv(&mut self, src: u32, tag: u32, seq: u64, bytes: u64, t_ns: u64) {
        self.recvs.push(MsgStamp {
            src,
            dst: self.rank,
            tag,
            seq,
            bytes,
            t_ns,
        });
    }

    /// Summed duration of all spans with this key, in seconds. Under
    /// intra-rank parallelism thread-local spans overlap, so this can
    /// exceed the wall clock; consumers comparing against recorder
    /// phase totals must use [`merged_span_seconds`](Self::merged_span_seconds).
    pub fn span_seconds(&self, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.key == key)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Interval-union duration of all spans with this key, in seconds —
    /// the wall-clock footprint of the phase on this rank's timeline.
    /// Equals [`span_seconds`](Self::span_seconds) when occurrences are
    /// disjoint (serial runs); smaller when thread-local spans ran
    /// concurrently. This is the quantity that agrees with the
    /// recorder's phase totals by construction.
    pub fn merged_span_seconds(&self, key: &str) -> f64 {
        let iv: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.key == key)
            .map(|s| (s.t0_ns, s.t1_ns))
            .collect();
        union_ns(iv) as f64 * 1e-9
    }

    /// Compact little-endian encoding for shipping to root.
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(64 + 40 * (self.spans.len() + self.sends.len() + self.recvs.len()));
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.unbalanced.to_le_bytes());
        out.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
        for s in &self.spans {
            encode_str(&mut out, &s.key);
            out.extend_from_slice(&s.t0_ns.to_le_bytes());
            out.extend_from_slice(&s.t1_ns.to_le_bytes());
        }
        for msgs in [&self.sends, &self.recvs] {
            out.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
            for m in msgs {
                out.extend_from_slice(&m.src.to_le_bytes());
                out.extend_from_slice(&m.dst.to_le_bytes());
                out.extend_from_slice(&m.tag.to_le_bytes());
                out.extend_from_slice(&m.seq.to_le_bytes());
                out.extend_from_slice(&m.bytes.to_le_bytes());
                out.extend_from_slice(&m.t_ns.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.timeouts.len() as u32).to_le_bytes());
        for t in &self.timeouts {
            out.extend_from_slice(&t.src.to_le_bytes());
            out.extend_from_slice(&t.tag.to_le_bytes());
            out.extend_from_slice(&t.t_ns.to_le_bytes());
            out.extend_from_slice(&t.waited_ns.to_le_bytes());
        }
        out
    }

    /// Inverse of [`encode`](RankTrace::encode).
    pub fn decode(buf: &[u8]) -> Result<RankTrace, String> {
        let mut c = Cursor::new(buf, "rank trace");
        let version = c.u32()?;
        if version != TRACE_VERSION {
            return Err(format!(
                "rank trace version {version} != supported {TRACE_VERSION}"
            ));
        }
        let rank = c.u32()?;
        let unbalanced = c.u32()?;
        let n_spans = c.u32()? as usize;
        // key length + two timestamps; a message stamp is 36 bytes, a
        // timeout stamp 24
        let mut spans = Vec::with_capacity(c.capacity(n_spans, 18));
        for _ in 0..n_spans {
            let key = c.string()?;
            let t0_ns = c.u64()?;
            let t1_ns = c.u64()?;
            spans.push(TraceSpan { key, t0_ns, t1_ns });
        }
        let mut msg_lists = Vec::with_capacity(2);
        for _ in 0..2 {
            let n = c.u32()? as usize;
            let mut msgs = Vec::with_capacity(c.capacity(n, 36));
            for _ in 0..n {
                msgs.push(MsgStamp {
                    src: c.u32()?,
                    dst: c.u32()?,
                    tag: c.u32()?,
                    seq: c.u64()?,
                    bytes: c.u64()?,
                    t_ns: c.u64()?,
                });
            }
            msg_lists.push(msgs);
        }
        let recvs = msg_lists.pop().unwrap();
        let sends = msg_lists.pop().unwrap();
        let n_timeouts = c.u32()? as usize;
        let mut timeouts = Vec::with_capacity(c.capacity(n_timeouts, 24));
        for _ in 0..n_timeouts {
            timeouts.push(TimeoutStamp {
                src: c.u32()?,
                tag: c.u32()?,
                t_ns: c.u64()?,
                waited_ns: c.u64()?,
            });
        }
        c.expect_end()?;
        Ok(RankTrace {
            rank,
            spans,
            sends,
            recvs,
            timeouts,
            unbalanced,
        })
    }
}

/// Total length of the union of half-open intervals `(a, b)` — the
/// merged wall clock of possibly-overlapping span occurrences.
pub(crate) fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match &mut cur {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => {
                if let Some((s, e)) = cur {
                    total += e - s;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((s, e)) = cur {
        total += e - s;
    }
    total
}

#[derive(Debug, Default)]
struct SinkBuf {
    trace: RankTrace,
    /// Open spans: `(key, t0_ns)`, LIFO.
    stack: Vec<(String, u64)>,
}

/// Live per-rank event recorder, cheap to clone: handles share one
/// buffer, so the pipeline (spans) and the comm endpoint (message
/// stamps) write into the same timeline. All methods take `&self`;
/// the buffer is mutex-protected but only ever touched from the
/// owning rank's thread, so the lock is always uncontended.
#[derive(Debug, Clone)]
pub struct TraceSink {
    rank: u32,
    epoch: Instant,
    buf: Arc<Mutex<SinkBuf>>,
}

impl TraceSink {
    /// A sink for `rank` stamping times against `epoch`. Every rank of
    /// a universe must share the same epoch or cross-rank causality is
    /// meaningless.
    pub fn new(rank: u32, epoch: Instant) -> TraceSink {
        TraceSink {
            rank,
            epoch,
            buf: Arc::new(Mutex::new(SinkBuf {
                trace: RankTrace::new(rank),
                stack: Vec::new(),
            })),
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Nanoseconds since the shared epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`end`](TraceSink::end) (LIFO).
    pub fn begin(&self, key: &str) {
        let now = self.now_ns();
        self.buf.lock().unwrap().stack.push((key.to_string(), now));
    }

    /// Close the innermost open span. An `end` with nothing open is
    /// recorded as an unbalanced incident instead of panicking.
    pub fn end(&self) {
        let now = self.now_ns();
        let mut b = self.buf.lock().unwrap();
        match b.stack.pop() {
            Some((key, t0_ns)) => b.trace.spans.push(TraceSpan {
                key,
                t0_ns,
                t1_ns: now,
            }),
            None => b.trace.unbalanced += 1,
        }
    }

    /// Record a completed span with explicit timestamps (recovery
    /// paths whose start predates the decision to record them).
    pub fn span_at(&self, key: &str, t0_ns: u64, t1_ns: u64) {
        self.buf.lock().unwrap().trace.span(key, t0_ns, t1_ns);
    }

    pub fn send(&self, dst: u32, tag: u32, seq: u64, bytes: u64) {
        let now = self.now_ns();
        self.buf
            .lock()
            .unwrap()
            .trace
            .send(dst, tag, seq, bytes, now);
    }

    pub fn recv(&self, src: u32, tag: u32, seq: u64, bytes: u64) {
        let now = self.now_ns();
        self.buf
            .lock()
            .unwrap()
            .trace
            .recv(src, tag, seq, bytes, now);
    }

    pub fn timeout(&self, src: u32, tag: u32, waited_ns: u64) {
        let now = self.now_ns();
        self.buf.lock().unwrap().trace.timeouts.push(TimeoutStamp {
            src,
            tag,
            t_ns: now,
            waited_ns,
        });
    }

    /// Freeze into a [`RankTrace`], draining the shared buffer. Spans
    /// still open are closed at the current time and counted as
    /// unbalanced. Clones of this sink keep working but write into a
    /// fresh, empty log.
    pub fn finish(&self) -> RankTrace {
        let now = self.now_ns();
        let mut b = self.buf.lock().unwrap();
        while let Some((key, t0_ns)) = b.stack.pop() {
            b.trace.unbalanced += 1;
            b.trace.spans.push(TraceSpan {
                key,
                t0_ns,
                t1_ns: now,
            });
        }
        let rank = self.rank;
        std::mem::replace(&mut b.trace, RankTrace::new(rank))
    }
}

/// A matched send→recv pair: one flow arrow in the Chrome document,
/// one causal edge in the critical-path DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEdge {
    pub src: u32,
    pub dst: u32,
    pub tag: u32,
    pub seq: u64,
    pub bytes: u64,
    pub t_send_ns: u64,
    pub t_recv_ns: u64,
}

/// Outcome of pairing every recv with its send on `(src, dst, tag, seq)`.
#[derive(Debug, Clone, Default)]
pub struct MatchReport {
    pub edges: Vec<FlowEdge>,
    /// Sends no one consumed: dropped in flight, or the receiver died.
    pub unmatched_sends: Vec<MsgStamp>,
    /// Recvs with no recorded send — possible only when a rank's trace
    /// was lost; a healthy gather has none.
    pub unmatched_recvs: Vec<MsgStamp>,
}

/// One step of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    pub rank: u32,
    pub key: String,
    pub dur_ns: u64,
}

/// The longest causally-ordered chain of span time through the run.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Causal order; consecutive steps on the same `(rank, key)` are
    /// already merged.
    pub steps: Vec<PathStep>,
    /// Summed step durations (≤ `wall_ns`: idle gaps are not on the
    /// path).
    pub total_ns: u64,
    /// Last span end − first span start over all ranks.
    pub wall_ns: u64,
}

impl CriticalPath {
    /// Steps sorted by descending duration — the "where to optimize
    /// first" view the reports print.
    pub fn ranked(&self) -> Vec<PathStep> {
        let mut v = self.steps.clone();
        v.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then_with(|| a.key.cmp(&b.key)));
        v
    }

    /// Share of the wall clock a step accounts for, in percent.
    pub fn pct_of_wall(&self, step: &PathStep) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        100.0 * step.dur_ns as f64 / self.wall_ns as f64
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("wall_s", Json::F64(self.wall_ns as f64 * 1e-9)),
            ("path_s", Json::F64(self.total_ns as f64 * 1e-9)),
            (
                "steps",
                Json::Arr(
                    self.ranked()
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("rank", Json::U64(s.rank as u64)),
                                ("span", Json::str(&s.key)),
                                ("seconds", Json::F64(s.dur_ns as f64 * 1e-9)),
                                ("pct_of_wall", Json::F64(self.pct_of_wall(s))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// All ranks' traces gathered at root.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    pub ranks: Vec<RankTrace>,
}

/// A leaf segment of one rank's timeline: the innermost span covering
/// `[a, b)`, after cutting at every span boundary and message stamp.
#[derive(Debug, Clone)]
struct Seg {
    rank_ix: usize,
    key_ix: usize,
    a: u64,
    b: u64,
}

impl RunTrace {
    /// Assemble from gathered rank traces (sorted by rank).
    pub fn from_ranks(mut ranks: Vec<RankTrace>) -> RunTrace {
        ranks.sort_by_key(|r| r.rank);
        RunTrace { ranks }
    }

    /// Pair every recv with its send on `(src, dst, tag, seq)`. Under
    /// injected faults, dropped sends stay in `unmatched_sends`.
    pub fn match_messages(&self) -> MatchReport {
        use std::collections::HashMap;
        let mut sends: HashMap<(u32, u32, u32, u64), &MsgStamp> = HashMap::new();
        for r in &self.ranks {
            for m in &r.sends {
                sends.insert((m.src, m.dst, m.tag, m.seq), m);
            }
        }
        let mut report = MatchReport::default();
        for r in &self.ranks {
            for m in &r.recvs {
                match sends.remove(&(m.src, m.dst, m.tag, m.seq)) {
                    Some(s) => report.edges.push(FlowEdge {
                        src: m.src,
                        dst: m.dst,
                        tag: m.tag,
                        seq: m.seq,
                        bytes: m.bytes,
                        t_send_ns: s.t_ns,
                        t_recv_ns: m.t_ns,
                    }),
                    None => report.unmatched_recvs.push(m.clone()),
                }
            }
        }
        report.unmatched_sends = sends.into_values().cloned().collect();
        report
            .unmatched_sends
            .sort_by_key(|m| (m.t_ns, m.src, m.dst, m.tag, m.seq));
        report
            .edges
            .sort_by_key(|e| (e.t_send_ns, e.src, e.dst, e.seq));
        report
    }

    /// `(first span start, last span end)` over all ranks; `None` when
    /// the trace has no spans.
    pub fn time_bounds(&self) -> Option<(u64, u64)> {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for r in &self.ranks {
            for s in &r.spans {
                lo = lo.min(s.t0_ns);
                hi = hi.max(s.t1_ns);
            }
        }
        (lo != u64::MAX).then_some((lo, hi))
    }

    /// Cut each rank's timeline into leaf segments: breakpoints at
    /// every span boundary and every message stamp, each elementary
    /// interval attributed to the innermost covering span.
    fn segments(&self) -> (Vec<Seg>, Vec<String>) {
        let mut keys: Vec<String> = Vec::new();
        let key_ix = |k: &str, keys: &mut Vec<String>| match keys.iter().position(|x| x == k) {
            Some(i) => i,
            None => {
                keys.push(k.to_string());
                keys.len() - 1
            }
        };
        let mut segs: Vec<Seg> = Vec::new();
        for (rank_ix, r) in self.ranks.iter().enumerate() {
            let mut cuts: Vec<u64> = Vec::new();
            for s in &r.spans {
                cuts.push(s.t0_ns);
                cuts.push(s.t1_ns);
            }
            for m in r.sends.iter().chain(&r.recvs) {
                cuts.push(m.t_ns);
            }
            cuts.sort_unstable();
            cuts.dedup();
            for w in cuts.windows(2) {
                let (a, b) = (w[0], w[1]);
                // innermost covering span: shortest extent wins, then
                // latest start (deterministic under exact ties)
                let cover = r
                    .spans
                    .iter()
                    .filter(|s| s.t0_ns <= a && s.t1_ns >= b)
                    .min_by_key(|s| (s.dur_ns(), std::cmp::Reverse(s.t0_ns)));
                if let Some(s) = cover {
                    segs.push(Seg {
                        rank_ix,
                        key_ix: key_ix(&s.key, &mut keys),
                        a,
                        b,
                    });
                }
            }
        }
        segs.sort_by_key(|s| (s.a, s.rank_ix));
        (segs, keys)
    }

    /// The critical path: model the run as a DAG of leaf segments —
    /// program-order edges between consecutive segments of a rank,
    /// causal edges from the segment ending at each matched send to
    /// the segment starting at its recv — and take the maximum-weight
    /// chain, weighted by segment duration. Idle gaps carry no weight,
    /// so the result is the span time that *had* to be serial: shrink
    /// any step and the wall clock moves.
    ///
    /// Returns `None` for a trace with no spans.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        let (lo, hi) = self.time_bounds()?;
        let (segs, keys) = self.segments();
        if segs.is_empty() {
            return None;
        }
        let n_ranks = self.ranks.len();
        // per-rank segment index lists, in time order
        let mut by_rank: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        for (i, s) in segs.iter().enumerate() {
            by_rank[s.rank_ix].push(i);
        }
        // message edges: pred[v] holds u for each matched send(u)→recv(v)
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); segs.len()];
        let rank_pos = |rank: u32| self.ranks.iter().position(|r| r.rank == rank);
        for e in self.match_messages().edges {
            let (Some(sr), Some(dr)) = (rank_pos(e.src), rank_pos(e.dst)) else {
                continue;
            };
            // last segment on src ending no later than the send…
            let u = by_rank[sr]
                .iter()
                .copied()
                .take_while(|&i| segs[i].b <= e.t_send_ns)
                .last();
            // …to the first segment on dst starting no earlier than the recv
            let v = by_rank[dr]
                .iter()
                .copied()
                .find(|&i| segs[i].a >= e.t_recv_ns);
            if let (Some(u), Some(v)) = (u, v) {
                preds[v].push(u);
            }
        }
        // DP in global start-time order (valid topological order: every
        // edge u→v has segs[u].b <= segs[v].a and segments are non-empty)
        let mut best: Vec<u64> = vec![0; segs.len()];
        let mut from: Vec<Option<usize>> = vec![None; segs.len()];
        let mut prev_on_rank: Vec<Option<usize>> = vec![None; n_ranks];
        for (i, s) in segs.iter().enumerate() {
            let mut b = 0u64;
            let mut f = None;
            if let Some(p) = prev_on_rank[s.rank_ix] {
                b = best[p];
                f = Some(p);
            }
            for &p in &preds[i] {
                if best[p] > b {
                    b = best[p];
                    f = Some(p);
                }
            }
            best[i] = b + (s.b - s.a);
            from[i] = f;
            prev_on_rank[s.rank_ix] = Some(i);
        }
        let end = (0..segs.len()).max_by_key(|&i| best[i])?;
        let mut chain = Vec::new();
        let mut cur = Some(end);
        while let Some(i) = cur {
            chain.push(i);
            cur = from[i];
        }
        chain.reverse();
        // merge consecutive steps with the same (rank, key)
        let mut steps: Vec<PathStep> = Vec::new();
        for &i in &chain {
            let s = &segs[i];
            let rank = self.ranks[s.rank_ix].rank;
            match steps.last_mut() {
                Some(last) if last.rank == rank && last.key == keys[s.key_ix] => {
                    last.dur_ns += s.b - s.a;
                }
                _ => steps.push(PathStep {
                    rank,
                    key: keys[s.key_ix].clone(),
                    dur_ns: s.b - s.a,
                }),
            }
        }
        Some(CriticalPath {
            total_ns: best[end],
            steps,
            wall_ns: hi - lo,
        })
    }

    /// The Chrome trace-event document: one track (`tid`) per rank,
    /// complete events for spans, flow arrows for matched messages,
    /// instant events for orphan sends and receive timeouts. Open
    /// `chrome://tracing` or <https://ui.perfetto.dev> and load the
    /// file.
    pub fn to_chrome_json(&self, name: &str) -> Json {
        let us = |ns: u64| Json::F64(ns as f64 / 1000.0);
        let mut events: Vec<Json> = Vec::new();
        events.push(Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::U64(0)),
            ("tid", Json::U64(0)),
            (
                "args",
                Json::obj(vec![("name", Json::str(format!("msp:{name}")))]),
            ),
        ]));
        for r in &self.ranks {
            events.push(Json::obj(vec![
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(r.rank as u64)),
                (
                    "args",
                    Json::obj(vec![("name", Json::str(format!("rank {}", r.rank)))]),
                ),
            ]));
            for s in &r.spans {
                events.push(Json::obj(vec![
                    ("name", Json::str(&s.key)),
                    ("cat", Json::str("phase")),
                    ("ph", Json::str("X")),
                    ("ts", us(s.t0_ns)),
                    ("dur", us(s.dur_ns())),
                    ("pid", Json::U64(0)),
                    ("tid", Json::U64(r.rank as u64)),
                ]));
            }
            for t in &r.timeouts {
                events.push(Json::obj(vec![
                    (
                        "name",
                        Json::str(format!("recv_timeout(from {}, tag {:#x})", t.src, t.tag)),
                    ),
                    ("cat", Json::str("fault")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("ts", us(t.t_ns)),
                    ("pid", Json::U64(0)),
                    ("tid", Json::U64(r.rank as u64)),
                    (
                        "args",
                        Json::obj(vec![("waited_ms", Json::F64(t.waited_ns as f64 / 1e6))]),
                    ),
                ]));
            }
        }
        let matched = self.match_messages();
        for (id, e) in matched.edges.iter().enumerate() {
            let args = Json::obj(vec![
                ("tag", Json::U64(e.tag as u64)),
                ("seq", Json::U64(e.seq)),
                ("bytes", Json::U64(e.bytes)),
            ]);
            events.push(Json::obj(vec![
                ("name", Json::str("msg")),
                ("cat", Json::str("msg")),
                ("ph", Json::str("s")),
                ("id", Json::U64(id as u64)),
                ("ts", us(e.t_send_ns)),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(e.src as u64)),
                ("args", args.clone()),
            ]));
            events.push(Json::obj(vec![
                ("name", Json::str("msg")),
                ("cat", Json::str("msg")),
                ("ph", Json::str("f")),
                ("bp", Json::str("e")),
                ("id", Json::U64(id as u64)),
                ("ts", us(e.t_recv_ns)),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(e.dst as u64)),
                ("args", args),
            ]));
        }
        for m in &matched.unmatched_sends {
            events.push(Json::obj(vec![
                (
                    "name",
                    Json::str(format!("orphan_send(to {}, tag {:#x})", m.dst, m.tag)),
                ),
                ("cat", Json::str("fault")),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("ts", us(m.t_ns)),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(m.src as u64)),
                ("args", Json::obj(vec![("bytes", Json::U64(m.bytes))])),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("trace_version", Json::U64(TRACE_VERSION as u64)),
                    ("n_ranks", Json::U64(self.ranks.len() as u64)),
                ]),
            ),
        ])
    }

    /// Write `<dir>/<name>.trace.json` (creating `dir` if needed) and
    /// return the path.
    pub fn write(&self, dir: &Path, name: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, self.to_chrome_json(name).pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(src: u32, dst: u32, tag: u32, seq: u64, t_ns: u64) -> MsgStamp {
        MsgStamp {
            src,
            dst,
            tag,
            seq,
            bytes: 8,
            t_ns,
        }
    }

    #[test]
    fn sink_records_spans_and_messages() {
        let sink = TraceSink::new(3, Instant::now());
        sink.begin("read");
        sink.begin("gradient");
        sink.end();
        sink.end();
        sink.send(1, 7, 1, 64);
        sink.recv(2, 7, 1, 32);
        sink.timeout(5, 9, 1000);
        let t = sink.finish();
        assert_eq!(t.rank, 3);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].key, "gradient", "inner span completes first");
        assert_eq!(t.spans[1].key, "read");
        assert!(t.spans[1].t0_ns <= t.spans[0].t0_ns);
        assert!(t.spans[1].t1_ns >= t.spans[0].t1_ns);
        assert_eq!(t.sends.len(), 1);
        assert_eq!((t.sends[0].src, t.sends[0].dst), (3, 1));
        assert_eq!((t.recvs[0].src, t.recvs[0].dst), (2, 3));
        assert_eq!(t.timeouts.len(), 1);
        assert_eq!(t.unbalanced, 0);
        // finish drained the buffer
        assert_eq!(sink.finish().spans.len(), 0);
    }

    #[test]
    fn sink_flags_unbalanced_instead_of_panicking() {
        let sink = TraceSink::new(0, Instant::now());
        sink.end(); // nothing open
        sink.begin("read"); // never closed
        let t = sink.finish();
        assert_eq!(t.unbalanced, 2);
        assert_eq!(t.spans.len(), 1, "open span closed at finish");
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = TraceSink::new(1, Instant::now());
        let b = a.clone();
        a.begin("read");
        b.send(0, 5, 1, 10);
        a.end();
        let t = b.finish();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.sends.len(), 1);
    }

    #[test]
    fn merged_span_seconds_unions_concurrent_spans() {
        let mut t = RankTrace::new(0);
        // two concurrent thread-local gradient spans + one disjoint one
        t.span("gradient", 0, 100);
        t.span("gradient", 50, 150);
        t.span("gradient", 200, 250);
        t.span("trace", 300, 400);
        // raw sum counts the [50,100] overlap twice; the union is
        // [0,150] ∪ [200,250] = 200 ns
        assert!((t.span_seconds("gradient") - 250e-9).abs() < 1e-15);
        assert!((t.merged_span_seconds("gradient") - 200e-9).abs() < 1e-15);
        // disjoint phases are unaffected
        assert!((t.merged_span_seconds("trace") - t.span_seconds("trace")).abs() < 1e-15);
        assert_eq!(t.merged_span_seconds("missing"), 0.0);
    }

    fn sample_trace() -> RankTrace {
        let mut t = RankTrace::new(5);
        t.span("read", 10, 250);
        t.span("merge_round[0]", 300, 900);
        t.send(2, 0x100007, 3, 4096, 350);
        t.recv(1, 0x100003, 1, 2048, 500);
        t.timeouts.push(TimeoutStamp {
            src: 7,
            tag: 9,
            t_ns: 800,
            waited_ns: 250,
        });
        t.unbalanced = 1;
        t
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample_trace();
        let back = RankTrace::decode(&t.encode()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn hostile_traces_never_panic() {
        let bytes = sample_trace().encode();
        for cut in 0..bytes.len() {
            assert!(RankTrace::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut flipped = bytes.clone();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                // an edit either errs or decodes to a trace that encodes
                // back to exactly the edited bytes
                if let Ok(t) = RankTrace::decode(&flipped) {
                    assert_eq!(t.encode(), flipped, "byte {at} bit {bit}");
                }
                flipped[at] ^= 1 << bit;
            }
        }
        // u32::MAX spans claimed by a 16-byte header
        let mut huge = RankTrace::new(0).encode();
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(RankTrace::decode(&huge).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RankTrace::decode(&[]).is_err());
        assert!(RankTrace::decode(&[9, 9, 0, 0]).is_err()); // bad version
        let mut good = RankTrace::new(0).encode();
        good.push(0);
        assert!(RankTrace::decode(&good).is_err(), "trailing byte");
        let t = {
            let mut t = RankTrace::new(0);
            t.span("read", 0, 10);
            t
        };
        assert!(RankTrace::decode(&t.encode()[..12]).is_err(), "truncated");
    }

    #[test]
    fn message_matching_pairs_and_orphans() {
        let mut r0 = RankTrace::new(0);
        let mut r1 = RankTrace::new(1);
        r0.send(1, 7, 1, 100, 10);
        r0.send(1, 7, 2, 100, 20); // dropped in flight: no recv
        r0.send(1, 7, 3, 100, 30);
        r1.recv(0, 7, 1, 100, 50);
        r1.recv(0, 7, 3, 100, 60); // seq pairing survives the gap
        let run = RunTrace::from_ranks(vec![r1, r0]);
        assert_eq!(run.ranks[0].rank, 0, "ranks sorted");
        let m = run.match_messages();
        assert_eq!(m.edges.len(), 2);
        assert_eq!(m.edges[0].seq, 1);
        assert_eq!(m.edges[1].seq, 3);
        assert_eq!(m.edges[1].t_send_ns, 30);
        assert_eq!(m.edges[1].t_recv_ns, 60);
        assert_eq!(m.unmatched_sends.len(), 1);
        assert_eq!(m.unmatched_sends[0].seq, 2);
        assert!(m.unmatched_recvs.is_empty());
    }

    /// Hand-constructed scenario with a known longest chain:
    ///
    /// ```text
    /// rank 0: |-- a: 0..100 --| --send@100-->
    /// rank 1: |b: 0..40|           |-- c: 150..400 --|   (recv@150)
    /// ```
    ///
    /// Chains: a→c = 100+250 = 350 beats b→c = 40+250 = 290.
    #[test]
    fn critical_path_hand_constructed() {
        let mut r0 = RankTrace::new(0);
        r0.span("a", 0, 100);
        r0.send(1, 5, 1, 8, 100);
        let mut r1 = RankTrace::new(1);
        r1.span("b", 0, 40);
        r1.span("c", 150, 400);
        r1.recv(0, 5, 1, 8, 150);
        let run = RunTrace::from_ranks(vec![r0, r1]);
        let cp = run.critical_path().expect("path exists");
        assert_eq!(cp.wall_ns, 400);
        assert_eq!(cp.total_ns, 350);
        assert_eq!(
            cp.steps,
            vec![
                PathStep {
                    rank: 0,
                    key: "a".into(),
                    dur_ns: 100
                },
                PathStep {
                    rank: 1,
                    key: "c".into(),
                    dur_ns: 250
                },
            ]
        );
        let ranked = cp.ranked();
        assert_eq!(ranked[0].key, "c", "ranked view sorts by duration");
        assert!((cp.pct_of_wall(&ranked[0]) - 62.5).abs() < 1e-9);
    }

    #[test]
    fn critical_path_prefers_slow_rank_without_messages() {
        // No causal edges: the path is simply the slowest rank's spans.
        let mut r0 = RankTrace::new(0);
        r0.span("work", 0, 100);
        let mut r1 = RankTrace::new(1);
        r1.span("work", 0, 900);
        let cp = RunTrace::from_ranks(vec![r0, r1]).critical_path().unwrap();
        assert_eq!(cp.total_ns, 900);
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].rank, 1);
    }

    #[test]
    fn critical_path_merges_nested_spans_to_innermost() {
        // total [0,100] wraps glue [20,80]: leaf attribution splits the
        // timeline into total/glue/total and merging keeps three steps.
        let mut r0 = RankTrace::new(0);
        r0.span("total", 0, 100);
        r0.span("glue", 20, 80);
        let cp = RunTrace::from_ranks(vec![r0]).critical_path().unwrap();
        assert_eq!(cp.total_ns, 100, "all time on path");
        let keys: Vec<&str> = cp.steps.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, vec!["total", "glue", "total"]);
        assert_eq!(cp.steps[1].dur_ns, 60);
    }

    #[test]
    fn empty_trace_has_no_path() {
        assert!(RunTrace::from_ranks(vec![RankTrace::new(0)])
            .critical_path()
            .is_none());
        assert!(RunTrace::default().time_bounds().is_none());
    }

    #[test]
    fn chrome_document_shape() {
        let mut r0 = RankTrace::new(0);
        r0.span("read", 0, 1000);
        r0.send(1, 7, 1, 64, 500);
        r0.send(1, 7, 2, 64, 600); // orphan
        let mut r1 = RankTrace::new(1);
        r1.span("read", 0, 2000);
        r1.recv(0, 7, 1, 64, 1500);
        r1.timeouts.push(TimeoutStamp {
            src: 0,
            tag: 7,
            t_ns: 1900,
            waited_ns: 300,
        });
        let run = RunTrace::from_ranks(vec![r0, r1]);
        let doc = run.to_chrome_json("unit").pretty();
        let parsed = Json::parse(&doc).expect("self-emitted JSON parses");
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("traceEvents is an array")
        };
        let phase_of = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
        let count = |ph: &str| events.iter().filter(|e| phase_of(e) == ph).count();
        assert_eq!(count("X"), 2, "two spans");
        assert_eq!(count("s"), 1, "one flow start");
        assert_eq!(count("f"), 1, "one flow finish");
        assert_eq!(count("i"), 2, "orphan send + timeout instants");
        assert_eq!(count("M"), 3, "process + 2 thread names");
        // flow start/finish ids pair up
        let ids: Vec<&Json> = events
            .iter()
            .filter(|e| {
                let p = phase_of(e);
                p == "s" || p == "f"
            })
            .collect();
        let id_of = |e: &Json| e.get("id").cloned().unwrap();
        assert_eq!(id_of(ids[0]), id_of(ids[1]));
    }

    #[test]
    fn write_and_reread_file() {
        let dir = std::env::temp_dir().join(format!("msp_trace_{}", std::process::id()));
        let mut r0 = RankTrace::new(0);
        r0.span("read", 0, 10);
        let path = RunTrace::from_ranks(vec![r0]).write(&dir, "t").unwrap();
        assert!(path.ends_with("t.trace.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unmatched_recv_is_reported() {
        let mut r1 = RankTrace::new(1);
        r1.recvs.push(stamp(0, 1, 7, 1, 50));
        let m = RunTrace::from_ranks(vec![r1]).match_messages();
        assert!(m.edges.is_empty());
        assert_eq!(m.unmatched_recvs.len(), 1);
    }
}
