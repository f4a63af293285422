//! Per-rank reports, cross-rank aggregation, and the versioned
//! `.telemetry.json` run-report writer.
//!
//! A [`RankReport`] is the frozen output of one rank's
//! [`Recorder`](crate::Recorder). It has a compact little-endian wire
//! encoding ([`RankReport::encode`]) so ranks can ship their reports to
//! root through the same byte-oriented collectives the pipeline already
//! uses; root decodes and folds them into a [`RunReport`] with
//! min/mean/max/imbalance statistics per phase and per counter.

use crate::json::Json;
use crate::phase::sort_phase_keys;
use crate::wirefmt::{encode_str, Cursor};
use std::io;
use std::path::{Path, PathBuf};

/// Schema version written into every report (bump on breaking changes
/// to the JSON layout or the rank-report wire encoding).
///
/// v2: per-rank `unbalanced` span-misuse incident count (wire + JSON).
pub const REPORT_VERSION: u32 = 2;

/// Frozen phase times (seconds) and counters of one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    pub rank: u32,
    /// Span-API misuse incidents (mismatched/unclosed spans) — nonzero
    /// means this rank's phase times are best-effort, not exact.
    pub unbalanced: u32,
    /// `(phase key, accumulated seconds)`, taxonomy-ordered.
    pub phases: Vec<(String, f64)>,
    /// `(counter key, value)`, one entry per taxonomy counter.
    pub counters: Vec<(String, u64)>,
}

impl RankReport {
    /// Accumulated seconds of a phase key, `None` if the phase never ran.
    pub fn phase_seconds(&self, key: &str) -> Option<f64> {
        self.phases.iter().find(|(k, _)| k == key).map(|(_, s)| *s)
    }

    /// Total merge-stage seconds: the sum over all `merge_round[k]`
    /// spans (0 when the run had no merge rounds).
    pub fn merge_seconds(&self) -> f64 {
        self.phases
            .iter()
            .filter(|(k, _)| k.starts_with("merge_round["))
            .map(|(_, s)| *s)
            .sum()
    }

    /// Counter value by key (0 for unknown keys — counters are
    /// monotonic from 0).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Compact little-endian encoding for shipping to root.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 24 * (self.phases.len() + self.counters.len()));
        out.extend_from_slice(&REPORT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.unbalanced.to_le_bytes());
        out.extend_from_slice(&(self.phases.len() as u32).to_le_bytes());
        for (k, secs) in &self.phases {
            encode_str(&mut out, k);
            out.extend_from_slice(&secs.to_le_bytes());
        }
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (k, v) in &self.counters {
            encode_str(&mut out, k);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Inverse of [`encode`](RankReport::encode).
    pub fn decode(buf: &[u8]) -> Result<RankReport, String> {
        let mut c = Cursor::new(buf, "rank report");
        let version = c.u32()?;
        if version != REPORT_VERSION {
            return Err(format!(
                "rank report version {version} != supported {REPORT_VERSION}"
            ));
        }
        let rank = c.u32()?;
        let unbalanced = c.u32()?;
        let n_phases = c.u32()? as usize;
        // a phase or counter entry is a key length plus 8 bytes
        let mut phases = Vec::with_capacity(c.capacity(n_phases, 10));
        for _ in 0..n_phases {
            let k = c.string()?;
            let s = c.f64()?;
            phases.push((k, s));
        }
        let n_counters = c.u32()? as usize;
        let mut counters = Vec::with_capacity(c.capacity(n_counters, 10));
        for _ in 0..n_counters {
            let k = c.string()?;
            let v = c.u64()?;
            counters.push((k, v));
        }
        c.expect_end()?;
        Ok(RankReport {
            rank,
            unbalanced,
            phases,
            counters,
        })
    }
}

/// min/mean/max over ranks, plus the load-imbalance factor `max / mean`
/// (1.0 = perfectly balanced; the paper's strong-scaling discussion is
/// all about this ratio growing with rank count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    pub min: f64,
    pub mean: f64,
    pub max: f64,
    pub imbalance: f64,
}

/// Aggregate a per-rank series. An empty series (phase never ran
/// anywhere) is all-zero with imbalance 1.0.
pub fn aggregate(values: &[f64]) -> Agg {
    if values.is_empty() {
        return Agg {
            min: 0.0,
            mean: 0.0,
            max: 0.0,
            imbalance: 1.0,
        };
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
        sum += v;
    }
    let mean = sum / values.len() as f64;
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    Agg {
        min,
        mean,
        max,
        imbalance,
    }
}

impl Agg {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("min", Json::F64(self.min)),
            ("mean", Json::F64(self.mean)),
            ("max", Json::F64(self.max)),
            ("imbalance", Json::F64(self.imbalance)),
        ])
    }
}

/// Cross-rank statistics of one phase.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    pub key: String,
    /// Over ranks where the phase ran; ranks that never entered the
    /// phase contribute 0 s (they waited at the next barrier).
    pub seconds: Agg,
}

/// Cross-rank statistics of one counter.
#[derive(Debug, Clone)]
pub struct CounterStat {
    pub key: String,
    pub total: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub imbalance: f64,
}

/// The aggregated run report: per-rank raw data plus cross-rank
/// statistics, written as `results/<name>.telemetry.json`.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub version: u32,
    pub name: String,
    pub n_ranks: u32,
    /// Free-form run metadata (`dims`, `blocks`, `plan`, …) rendered
    /// into the JSON `meta` object, insertion-ordered.
    pub meta: Vec<(String, Json)>,
    pub ranks: Vec<RankReport>,
    pub phase_stats: Vec<PhaseStat>,
    pub counter_stats: Vec<CounterStat>,
}

impl RunReport {
    /// Fold gathered per-rank reports into a run report with cross-rank
    /// aggregates. `ranks` must be non-empty and is sorted by rank.
    pub fn from_ranks(name: &str, mut ranks: Vec<RankReport>) -> RunReport {
        assert!(!ranks.is_empty(), "run report needs at least one rank");
        ranks.sort_by_key(|r| r.rank);

        // union of phase keys in taxonomy order
        let mut phase_keys: Vec<String> = Vec::new();
        for r in &ranks {
            for (k, _) in &r.phases {
                if !phase_keys.iter().any(|p| p == k) {
                    phase_keys.push(k.clone());
                }
            }
        }
        sort_phase_keys(&mut phase_keys);
        let phase_stats = phase_keys
            .into_iter()
            .map(|key| {
                let series: Vec<f64> = ranks
                    .iter()
                    .map(|r| r.phase_seconds(&key).unwrap_or(0.0))
                    .collect();
                PhaseStat {
                    seconds: aggregate(&series),
                    key,
                }
            })
            .collect();

        // union of counter keys, first-seen order (all ranks emit the
        // full taxonomy, so this is taxonomy order in practice)
        let mut counter_keys: Vec<String> = Vec::new();
        for r in &ranks {
            for (k, _) in &r.counters {
                if !counter_keys.iter().any(|p| p == k) {
                    counter_keys.push(k.clone());
                }
            }
        }
        let counter_stats = counter_keys
            .into_iter()
            .map(|key| {
                let series: Vec<u64> = ranks.iter().map(|r| r.counter(&key)).collect();
                let f: Vec<f64> = series.iter().map(|&v| v as f64).collect();
                let agg = aggregate(&f);
                CounterStat {
                    total: series.iter().sum(),
                    min: series.iter().copied().min().unwrap_or(0),
                    max: series.iter().copied().max().unwrap_or(0),
                    mean: agg.mean,
                    imbalance: agg.imbalance,
                    key,
                }
            })
            .collect();

        RunReport {
            version: REPORT_VERSION,
            name: name.to_string(),
            n_ranks: ranks.len() as u32,
            meta: Vec::new(),
            ranks,
            phase_stats,
            counter_stats,
        }
    }

    /// Append a metadata entry (builder-style).
    pub fn with_meta(mut self, key: &str, value: Json) -> RunReport {
        self.meta.push((key.to_string(), value));
        self
    }

    pub fn phase_stat(&self, key: &str) -> Option<&PhaseStat> {
        self.phase_stats.iter().find(|p| p.key == key)
    }

    /// Summed counter value across ranks (0 for unknown keys).
    pub fn counter_total(&self, key: &str) -> u64 {
        self.counter_stats
            .iter()
            .find(|c| c.key == key)
            .map(|c| c.total)
            .unwrap_or(0)
    }

    /// Summed span-misuse incidents across ranks — nonzero means some
    /// rank's phase times are best-effort.
    pub fn unbalanced_total(&self) -> u32 {
        self.ranks.iter().map(|r| r.unbalanced).sum()
    }

    /// The JSON document (see DESIGN.md §Telemetry for the schema).
    pub fn to_json(&self) -> Json {
        let phases = Json::Obj(
            self.phase_stats
                .iter()
                .map(|p| (p.key.clone(), p.seconds.to_json()))
                .collect(),
        );
        let counters = Json::Obj(
            self.counter_stats
                .iter()
                .map(|c| {
                    (
                        c.key.clone(),
                        Json::obj(vec![
                            ("total", Json::U64(c.total)),
                            ("min", Json::U64(c.min)),
                            ("mean", Json::F64(c.mean)),
                            ("max", Json::U64(c.max)),
                            ("imbalance", Json::F64(c.imbalance)),
                        ]),
                    )
                })
                .collect(),
        );
        let ranks = Json::Arr(
            self.ranks
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("rank", Json::U64(r.rank as u64)),
                        ("unbalanced", Json::U64(r.unbalanced as u64)),
                        (
                            "phases",
                            Json::Obj(
                                r.phases
                                    .iter()
                                    .map(|(k, s)| (k.clone(), Json::F64(*s)))
                                    .collect(),
                            ),
                        ),
                        (
                            "counters",
                            Json::Obj(
                                r.counters
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::U64(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("version", Json::U64(self.version as u64)),
            ("kind", Json::str("run")),
            ("name", Json::str(&self.name)),
            ("n_ranks", Json::U64(self.n_ranks as u64)),
            ("unbalanced", Json::U64(self.unbalanced_total() as u64)),
            ("meta", Json::Obj(self.meta.clone())),
            ("phases", phases),
            ("counters", counters),
            ("ranks", ranks),
        ])
    }

    /// Write `<dir>/<name>.telemetry.json` (creating `dir` if needed)
    /// and return the path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        write_named_json(dir, &self.name, &self.to_json())
    }
}

/// Write any JSON document as `<dir>/<name>.telemetry.json`, creating
/// `dir` if needed. Shared by [`RunReport::write`] and the bench-series
/// emitter in `msp-bench`.
pub fn write_named_json(dir: &Path, name: &str, doc: &Json) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.telemetry.json"));
    std::fs::write(&path, doc.pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_report(rank: u32, read: f64, bytes: u64) -> RankReport {
        RankReport {
            rank,
            unbalanced: 0,
            phases: vec![
                ("read".to_string(), read),
                ("total".to_string(), read * 2.0),
            ],
            counters: vec![
                ("bytes_sent".to_string(), bytes),
                ("msgs_sent".to_string(), rank as u64),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut r = rank_report(5, 0.125, 4096);
        r.unbalanced = 3;
        let back = RankReport::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RankReport::decode(&[]).is_err());
        assert!(RankReport::decode(&[9, 0, 0, 0]).is_err()); // bad version
        let mut good = rank_report(0, 1.0, 1).encode();
        good.push(0); // trailing byte
        assert!(RankReport::decode(&good).is_err());
        let bytes = rank_report(0, 1.0, 1).encode();
        for cut in 0..bytes.len() {
            assert!(RankReport::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn aggregation_math() {
        let a = aggregate(&[1.0, 2.0, 3.0]);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.mean, 2.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.imbalance, 1.5);

        let z = aggregate(&[0.0, 0.0]);
        assert_eq!(z.imbalance, 1.0, "all-zero series is 'balanced'");

        let e = aggregate(&[]);
        assert_eq!((e.min, e.mean, e.max, e.imbalance), (0.0, 0.0, 0.0, 1.0));

        let one = aggregate(&[4.0]);
        assert_eq!(
            (one.min, one.mean, one.max, one.imbalance),
            (4.0, 4.0, 4.0, 1.0)
        );
    }

    #[test]
    fn run_report_aggregates_and_orders() {
        let ranks = vec![
            rank_report(2, 3.0, 30),
            rank_report(0, 1.0, 10),
            rank_report(1, 2.0, 20),
        ];
        let rep = RunReport::from_ranks("unit", ranks);
        assert_eq!(rep.n_ranks, 3);
        assert_eq!(rep.ranks[0].rank, 0, "ranks sorted");
        let read = rep.phase_stat("read").unwrap();
        assert_eq!(read.seconds.min, 1.0);
        assert_eq!(read.seconds.mean, 2.0);
        assert_eq!(read.seconds.max, 3.0);
        assert_eq!(read.seconds.imbalance, 1.5);
        assert_eq!(rep.counter_total("bytes_sent"), 60);
        assert_eq!(rep.counter_total("nonexistent"), 0);
        // taxonomy order: read before total
        assert_eq!(rep.phase_stats[0].key, "read");
        assert_eq!(rep.phase_stats.last().unwrap().key, "total");
    }

    #[test]
    fn missing_phase_counts_as_zero() {
        let mut a = rank_report(0, 1.0, 0);
        a.phases.push(("write".to_string(), 0.5));
        let b = rank_report(1, 1.0, 0); // no write phase
        let rep = RunReport::from_ranks("unit", vec![a, b]);
        let w = rep.phase_stat("write").unwrap();
        assert_eq!(w.seconds.min, 0.0);
        assert_eq!(w.seconds.max, 0.5);
        assert_eq!(w.seconds.mean, 0.25);
    }

    #[test]
    fn write_and_reread_file() {
        let dir = std::env::temp_dir().join(format!("msp_telemetry_{}", std::process::id()));
        let rep = RunReport::from_ranks("t", vec![rank_report(0, 1.0, 7)])
            .with_meta("blocks", Json::U64(8));
        let path = rep.write(&dir).unwrap();
        assert!(path.ends_with("t.telemetry.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"version\": 2"));
        assert!(text.contains("\"blocks\": 8"));
        assert!(text.contains("\"bytes_sent\""));
        assert!(text.contains("\"unbalanced\": 0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unbalanced_surfaces_in_totals_and_json() {
        let mut a = rank_report(0, 1.0, 1);
        a.unbalanced = 2;
        let b = rank_report(1, 1.0, 1);
        let rep = RunReport::from_ranks("u", vec![a, b]);
        assert_eq!(rep.unbalanced_total(), 2);
        let text = rep.to_json().pretty();
        assert!(text.contains("\"unbalanced\": 2"));
    }
}
