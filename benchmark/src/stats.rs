//! The statistics every reported number goes through.
//!
//! This host runs in two sharp modes (see the README): quiet, and about
//! 1.4x slower while something else holds the core's issue slots, with
//! dwell times from seconds to minutes. The share of a run's samples
//! that are quiet wanders between none and two thirds. A quantile jumps
//! by the whole 40 % whenever that share crosses it: the mean of the
//! fastest quarter ([`floor4`], what ISSUE.md asked for) when it crosses
//! a quarter, the median when it crosses a half. The mean moves by 0.4
//! per unit of the share and never jumps, so the compared `value` of a
//! child's wall and CPU time is the mean of its samples, with the
//! median and the quartile distance alongside. Set-up time and peak
//! memory, which are not two-mode in that way (a process start is three
//! times slower when disturbed, memory not at all), compare by their
//! median. `floor4` is left for the host reference loop, where the
//! quiet floor is the question asked.

/// Mean of the fastest `ceil(n / 4)` samples: the quiet floor of a run.
pub fn floor4(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "floor4 of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len().div_ceil(4);
    s[..k].iter().sum::<f64>() / k as f64
}

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (exclusive
/// method), so it matches what the driver computes. 0 below 2 samples.
pub fn iqr(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    quartile(3) - quartile(1)
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    assert!(!samples.is_empty() && (1..=100).contains(&pct));
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// How many samples lie beyond the nearest-rank percentile. A reported
/// percentile needs at least ten (choosing-metrics guide, section 1).
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct)
}

/// One reported number: the compared `value` (the mean or the median
/// of the samples; a count is its own single sample) plus what is
/// needed to judge it.
#[derive(Debug, Clone)]
pub struct Stat {
    pub value: f64,
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
    /// The samples themselves, in the order they were taken.
    pub samples: Vec<f64>,
}

impl Stat {
    pub fn median_of(samples: &[f64]) -> Stat {
        Stat {
            value: median(samples),
            median: median(samples),
            iqr: iqr(samples),
            n: samples.len(),
            samples: samples.to_vec(),
        }
    }

    pub fn mean_of(samples: &[f64]) -> Stat {
        Stat {
            value: samples.iter().sum::<f64>() / samples.len() as f64,
            ..Stat::median_of(samples)
        }
    }

    pub fn exact(value: f64) -> Stat {
        Stat::median_of(&[value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor4_is_mean_of_fastest_quarter_rounded_up() {
        assert_eq!(floor4(&[5.0]), 5.0);
        assert_eq!(floor4(&[3.0, 1.0, 2.0]), 1.0); // ceil(3/4) = 1
        assert_eq!(floor4(&[4.0, 1.0, 3.0, 2.0, 9.0]), 1.5); // ceil(5/4) = 2
        let twelve: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(floor4(&twelve), 2.0); // fastest 3 of 12
                                          // a disturbed sample cannot move the floor
        let mut disturbed = twelve.clone();
        disturbed[0] = 1e6;
        assert_eq!(floor4(&disturbed), 2.0);
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&ten) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert!((iqr(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(iqr(&[7.0]), 0.0);
    }

    #[test]
    fn a_stat_carries_every_summary_of_its_samples() {
        let s = Stat::mean_of(&[1.0, 1.0, 1.0, 1.4]);
        assert!((s.value - 1.1).abs() < 1e-12);
        assert_eq!((s.median, s.n), (1.0, 4));
        assert_eq!(Stat::median_of(&[1.0, 1.0, 1.0, 1.4]).value, 1.0);
        assert_eq!(Stat::exact(7.0).value, 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50), 50.0);
        assert_eq!(percentile(&hundred, 95), 95.0);
        assert_eq!(percentile(&hundred, 100), 100.0);
        assert_eq!(percentile(&[9.0, 7.0, 8.0], 50), 8.0);
        assert_eq!(percentile(&[4.0], 95), 4.0);
    }

    #[test]
    fn a_pass_of_200_leaves_exactly_ten_beyond_p95() {
        assert_eq!(samples_beyond(200, 95), 10);
        assert_eq!(samples_beyond(200, 50), 100);
        // shorter passes cannot support p95
        assert!(samples_beyond(100, 95) < 10);
        // with 20 slow requests among 200, p95 is a slow one and p50 is not
        let mut lat = vec![1.0; 180];
        lat.extend((0..20).map(|i| 100.0 + f64::from(i)));
        assert_eq!(percentile(&lat, 50), 1.0);
        assert_eq!(percentile(&lat, 95), 109.0); // the 10th of the 20 slow ones
    }
}
