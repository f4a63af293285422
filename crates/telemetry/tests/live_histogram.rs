//! Seeded randomized tests for the live log-bucketed histogram: the
//! quantile error bound (≤ one bucket width below the exact order
//! statistic), merge associativity, and the counters' agreement with an
//! exact re-computation from the raw samples.

use msp_telemetry::{bucket_width, LiveHistogram};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 64;

/// Up to `max_len - 1` samples drawn below `hi`, at least `min_len`.
fn samples(rng: &mut ChaCha8Rng, min_len: usize, max_len: usize, hi: u64) -> Vec<u64> {
    let n = rng.gen_range(min_len..max_len);
    (0..n).map(|_| rng.gen_range(0..hi)).collect()
}

fn fill(vals: &[u64]) -> LiveHistogram {
    let h = LiveHistogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

/// Exact nearest-rank quantile, same rank formula the histogram uses.
fn exact_quantile(sorted: &[u64], pct: usize) -> u64 {
    sorted[(sorted.len() - 1) * pct / 100]
}

/// For any sample set and any percentile, the histogram's answer is at
/// most the exact order statistic and within one bucket width of it —
/// the advertised error bound.
#[test]
fn quantile_error_bounded_by_bucket_width() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let mut samples = samples(&mut rng, 1, 400, 2_000_000);
        let pct = rng.gen_range(0usize..101);
        let h = fill(&samples);
        samples.sort_unstable();
        let exact = exact_quantile(&samples, pct);
        let approx = h.quantile(pct);
        assert!(approx <= exact, "approx {approx} above exact {exact}");
        assert!(
            exact - approx < bucket_width(exact).max(1),
            "p{pct}: error {} >= bucket width {}",
            exact - approx,
            bucket_width(exact)
        );
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
    }
}

/// Bucket-wise merging is associative and commutative: any grouping of
/// three sample streams produces the identical snapshot.
#[test]
fn merge_is_associative_and_commutative() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let xs = samples(&mut rng, 0, 200, 1_000_000);
        let ys = samples(&mut rng, 0, 200, 1_000_000);
        let zs = samples(&mut rng, 0, 200, 1_000_000);

        // (x + y) + z
        let left = fill(&xs);
        left.merge_from(&fill(&ys));
        left.merge_from(&fill(&zs));

        // x + (y + z)
        let inner = fill(&ys);
        inner.merge_from(&fill(&zs));
        let right = fill(&xs);
        right.merge_from(&inner);

        // z + y + x (commutativity)
        let rev = fill(&zs);
        rev.merge_from(&fill(&ys));
        rev.merge_from(&fill(&xs));

        // one histogram fed everything directly
        let all = fill(&xs);
        for &v in ys.iter().chain(zs.iter()) {
            all.record(v);
        }

        let want = all.snapshot();
        assert_eq!(left.snapshot(), want);
        assert_eq!(right.snapshot(), want);
        assert_eq!(rev.snapshot(), want);
    }
}

/// The cumulative (Prometheus `_bucket`) view is monotone and ends at
/// the total count, for any sample set.
#[test]
fn cumulative_view_is_monotone() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let snap = fill(&samples(&mut rng, 0, 300, 10_000_000)).snapshot();
        let mut prev_le = None;
        let mut prev_cum = 0u64;
        for &(le, c) in &snap.cumulative() {
            if let Some(p) = prev_le {
                assert!(le > p, "le values must increase");
            }
            assert!(c >= prev_cum, "cumulative counts must not decrease");
            prev_le = Some(le);
            prev_cum = c;
        }
        assert_eq!(prev_cum, snap.count);
    }
}
