//! The seeded `serve_mix` request script.
//!
//! Closed loop, one connection. Eight untimed warm-up requests fill a
//! hot set of eight thresholds; then every pass of 200 requests places
//! 20 never-seen thresholds (cache misses, each a full
//! `hierarchy::materialize` replay) at seeded positions among 180
//! hot-set requests. With exactly a tenth of a pass missing, `p50` is
//! the hit path and `p95` (ten samples beyond it) the median miss, so a
//! cache or transport gain and a replay gain land on different metrics.

use crate::workload::{HOT_SET, PASS_MISSES, PASS_REQUESTS};

/// SplitMix64: the benchmark's only random source.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Thresholds are absolute function-value deltas of the jet field
/// (value range about 1.4). The mix is synthetic, not taken from any
/// recorded traffic: the hot band is simply a range around the miss
/// band, and the miss band is narrow so every replay costs about the
/// same and a pass's 20 misses are 20 like samples.
const HOT_BAND: (f32, f32) = (0.02, 0.08);
const MISS_BAND: (f32, f32) = (0.04, 0.06);

/// Per-pass counts of the hot-set operations: 50 % `threshold`, 20 %
/// `extrema`, 15 % `arc-geometry`, 10 % `ping`, 5 % `segment-stats`.
const HOT_MIX: [(HotOp, usize); 5] = [
    (HotOp::Threshold, 90),
    (HotOp::Extrema, 36),
    (HotOp::ArcGeometry, 27),
    (HotOp::Ping, 18),
    (HotOp::SegmentStats, 9),
];

#[derive(Debug, Clone, Copy)]
enum HotOp {
    Threshold,
    Extrema,
    ArcGeometry,
    Ping,
    SegmentStats,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The request line, without its newline.
    pub line: String,
    /// A never-seen threshold: the server must replay the hierarchy.
    pub miss: bool,
}

#[derive(Debug, PartialEq)]
pub struct Script {
    pub warmup: Vec<Request>,
    pub passes: Vec<Vec<Request>>,
}

fn draw_unseen(rng: &mut Rng, band: (f32, f32), seen: &mut Vec<f32>) -> f32 {
    loop {
        let t = rng.uniform(band.0, band.1);
        if !seen.contains(&t) {
            seen.push(t);
            return t;
        }
    }
}

pub fn generate(seed: u64, passes: usize) -> Script {
    let mut rng = Rng::new(seed ^ 0x5E12_7E00);
    let mut seen = Vec::new();
    let hot: Vec<f32> = (0..HOT_SET)
        .map(|_| draw_unseen(&mut rng, HOT_BAND, &mut seen))
        .collect();
    let threshold = |t: f32| format!("{{\"op\":\"threshold\",\"t\":{t}}}");
    let warmup = hot
        .iter()
        .map(|&t| Request {
            line: threshold(t),
            miss: false,
        })
        .collect();

    let mut out = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut ops: Vec<HotOp> = HOT_MIX
            .iter()
            .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
            .collect();
        rng.shuffle(&mut ops);
        // Hot thresholds go round in shuffled blocks of the whole set,
        // so none stays untouched long enough for the misses to evict
        // it from a cache twice the hot set's size: every hot-set
        // request is a hit on every seed.
        let mut block: Vec<f32> = Vec::new();
        let mut pass: Vec<Request> = ops
            .into_iter()
            .map(|op| {
                if block.is_empty() {
                    block = hot.clone();
                    rng.shuffle(&mut block);
                }
                let line = match op {
                    HotOp::Ping => "{\"op\":\"ping\"}".to_string(),
                    HotOp::Threshold => threshold(block.pop().expect("refilled")),
                    HotOp::Extrema => format!(
                        "{{\"op\":\"extrema\",\"t\":{},\"kind\":\"{}\",\"top\":5}}",
                        block.pop().expect("refilled"),
                        if rng.below(2) == 0 { "max" } else { "min" }
                    ),
                    HotOp::ArcGeometry => format!(
                        "{{\"op\":\"arc-geometry\",\"t\":{},\"arc\":{}}}",
                        block.pop().expect("refilled"),
                        rng.below(32)
                    ),
                    HotOp::SegmentStats => format!(
                        "{{\"op\":\"segment-stats\",\"t\":{}}}",
                        block.pop().expect("refilled")
                    ),
                };
                Request { line, miss: false }
            })
            .collect();
        for _ in 0..PASS_MISSES {
            let t = draw_unseen(&mut rng, MISS_BAND, &mut seen);
            let at = rng.below(pass.len() + 1);
            pass.insert(
                at,
                Request {
                    line: threshold(t),
                    miss: true,
                },
            );
        }
        debug_assert_eq!(pass.len(), PASS_REQUESTS);
        out.push(pass);
    }
    Script {
        warmup,
        passes: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss_lines(s: &Script) -> Vec<&str> {
        s.passes
            .iter()
            .flatten()
            .filter(|r| r.miss)
            .map(|r| r.line.as_str())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(generate(7, 3), generate(7, 3));
    }

    #[test]
    fn different_seed_different_miss_thresholds() {
        let (a, b) = (generate(7, 3), generate(8, 3));
        let (ma, mb) = (miss_lines(&a), miss_lines(&b));
        assert!(ma.iter().all(|l| !mb.contains(l)));
        assert_ne!(a.warmup, b.warmup);
    }

    #[test]
    fn every_pass_has_the_declared_shape() {
        let s = generate(11, 3);
        assert_eq!(s.warmup.len(), HOT_SET);
        assert_eq!(s.passes.len(), 3);
        let hot: Vec<&str> = s.warmup.iter().map(|r| r.line.as_str()).collect();
        let mut all_misses = Vec::new();
        for pass in &s.passes {
            assert_eq!(pass.len(), PASS_REQUESTS);
            assert_eq!(pass.iter().filter(|r| r.miss).count(), PASS_MISSES);
            let count = |op: &str| {
                pass.iter()
                    .filter(|r| !r.miss && r.line.contains(&format!("\"op\":\"{op}\"")))
                    .count()
            };
            assert_eq!(count("threshold"), 90);
            assert_eq!(count("extrema"), 36);
            assert_eq!(count("arc-geometry"), 27);
            assert_eq!(count("ping"), 18);
            assert_eq!(count("segment-stats"), 9);
            for r in pass.iter().filter(|r| r.miss) {
                // never seen before: not hot, not an earlier miss
                assert!(!hot.contains(&r.line.as_str()));
                assert!(!all_misses.contains(&r.line));
                all_misses.push(r.line.clone());
            }
        }
    }

    #[test]
    fn hot_thresholds_recur_within_two_blocks() {
        // between two uses of one hot threshold at most 2 * HOT_SET - 2
        // other cache-touching hot requests pass, far fewer than it takes
        // 8 misses (a tenth of the traffic) to push it out of 16 slots
        let s = generate(3, 1);
        let hot: Vec<String> = s.warmup.iter().map(|r| r.line.clone()).collect();
        let t_of = |line: &str| {
            let at = line.find("\"t\":")? + 4;
            let end = line[at..].find([',', '}'])? + at;
            Some(line[at..end].to_string())
        };
        let hot_ts: Vec<String> = hot.iter().map(|l| t_of(l).unwrap()).collect();
        for t in &hot_ts {
            let mut gap = 0;
            let mut worst = 0;
            for r in s.passes[0].iter().filter(|r| !r.miss) {
                match t_of(&r.line) {
                    Some(x) if &x == t => {
                        worst = worst.max(gap);
                        gap = 0;
                    }
                    Some(_) => gap += 1,
                    None => {}
                }
            }
            assert!(worst <= 2 * HOT_SET - 2, "gap {worst}");
        }
    }
}
