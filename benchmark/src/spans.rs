//! In-memory spans for the traced walk.
//!
//! The benchmark records a span around every call it makes into a
//! layer (spans inside the program are a later change). Spans are held
//! in memory and written once, at the end of the run. A layer's self
//! time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`; returns its seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Span around one call into a layer.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Id the next span will get: marks where a walk starts.
    pub fn mark(&self) -> u32 {
        self.spans.len() as u32
    }

    /// Seconds per span name over the spans recorded since `mark`.
    pub fn sums_since(&self, mark: u32) -> BTreeMap<&'static str, f64> {
        let mut sums = BTreeMap::new();
        for s in &self.spans[mark as usize..] {
            *sums.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        sums
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans file: one object per span, self time included.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self_times(&self.spans);
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns, selfs[i]
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Children of one parent never overlap (the walk is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "x",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 40, Some(0)),
            span(2, 15, 25, Some(1)), // grandchild: charged to 1, not 0
            span(3, 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), [30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut tr = Tracer::new();
        let outer = tr.begin("outer");
        tr.time("leaf", || std::hint::black_box(1 + 1));
        let mark = tr.mark();
        tr.time("leaf", || ());
        tr.end(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ns >= s[2].end_ns);
        let sums = tr.sums_since(mark);
        assert_eq!(sums.len(), 1);
        assert!(sums.contains_key("leaf"));
        assert!(tr.to_json("w").contains("\"self_ns\""));
    }
}
