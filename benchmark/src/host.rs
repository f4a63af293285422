//! A fixed native reference loop, run between iterations.
//!
//! It does the same work every time, so its own timing shows whether
//! the host was disturbed while a run was measured: a quiet run has
//! floor, median and maximum close together.
//!
//! This host's two virtual CPUs slow down in phases when something else
//! takes issue slots on the core. Code with high instruction-level
//! parallelism (the program under test included) then runs up to half
//! again as long, while a latency-bound loop, one dependent multiply
//! chain or a pointer chase, notices nothing. So the loop is eight
//! independent integer-mix chains plus an 8 MB stream sum (about 20 ms
//! with both threads busy), run on two threads at once so that either
//! CPU being disturbed shows.

use crate::stats::{floor4, median};
use std::hint::black_box;
use std::time::Instant;

const STREAM_WORDS: usize = 1 << 20; // 8 MB of u64
const MIX_STEPS: u64 = 2_500_000;
const THREADS: usize = 2;

pub struct HostProbe {
    streams: Vec<Vec<u64>>,
    samples_ms: Vec<f64>,
}

fn reference_loop(stream: &[u64]) -> u64 {
    let mut a = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..MIX_STEPS {
        for (k, x) in a.iter_mut().enumerate() {
            *x = (*x ^ (*x >> 7))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i + k as u64);
        }
    }
    let sum: u64 = black_box(stream).iter().sum();
    a.iter().fold(sum, |s, x| s.wrapping_add(*x))
}

impl HostProbe {
    pub fn new() -> HostProbe {
        HostProbe {
            streams: vec![(0..STREAM_WORDS as u64).collect(); THREADS],
            samples_ms: Vec::new(),
        }
    }

    /// One reference loop on every thread; the slowest thread's time
    /// joins the run's host record.
    pub fn tick(&mut self) {
        let streams = &self.streams;
        let ms = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    s.spawn(move || {
                        let t0 = Instant::now();
                        black_box(reference_loop(stream));
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference loop panicked"))
                .fold(0.0, f64::max)
        });
        self.samples_ms.push(ms);
    }

    /// The `host` block of a result.
    pub fn to_json(&self) -> String {
        if self.samples_ms.is_empty() {
            return "{\"n\": 0}".to_string();
        }
        let max = self.samples_ms.iter().copied().fold(0.0, f64::max);
        format!(
            "{{\"n\": {}, \"floor4_ms\": {:.3}, \"median_ms\": {:.3}, \"max_ms\": {:.3}}}",
            self.samples_ms.len(),
            floor4(&self.samples_ms),
            median(&self.samples_ms),
            max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tick_joins_the_host_record() {
        let mut h = HostProbe::new();
        assert_eq!(h.to_json(), "{\"n\": 0}");
        h.tick();
        h.tick();
        assert!(h.to_json().starts_with("{\"n\": 2, \"floor4_ms\": "));
    }
}
