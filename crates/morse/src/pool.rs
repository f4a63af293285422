//! Free lists for the local stage's large scratch buffers.
//!
//! The slab-parallel gradient allocates one byte buffer per slab per
//! block per run (plus one `u32` key array per block for the flat
//! kernel). `par_map` spawns fresh scoped threads each call, so
//! thread-locals die with them — a small mutex-guarded process-wide free
//! list ([`GLOBAL`]) is what actually survives across calls. The mutex is touched twice
//! per *slab* (take/put around a multi-millisecond sweep), so contention
//! is unmeasurable; in exchange the threads≥2 path stops paying a fresh
//! `vec![0; plane·rows]` (page faults included) per slab per run, which
//! was the single largest cause of the threads=2 regression recorded in
//! `results/BENCH_local.json` before this rework.
//!
//! Buffers are handed out zeroed (`u8`) or cleared (`u32`), and the pool
//! is capped so pathological fan-outs cannot hoard memory.

use std::sync::Mutex;

const POOL_CAP: usize = 64;

/// One pair of free lists. The kernels share [`GLOBAL`]; a test that
/// asserts on reuse owns its own, so no other test can take or return a
/// buffer between its warm-up and its assertion.
pub(crate) struct Pool {
    u8s: Mutex<Vec<Vec<u8>>>,
    u32s: Mutex<Vec<Vec<u32>>>,
}

/// The process-wide pool behind every public gradient entry point.
pub(crate) static GLOBAL: Pool = Pool::new();

impl Pool {
    pub(crate) const fn new() -> Self {
        Pool {
            u8s: Mutex::new(Vec::new()),
            u32s: Mutex::new(Vec::new()),
        }
    }

    /// A zeroed byte buffer of exactly `len`. The flag reports whether a
    /// pooled buffer's capacity sufficed (no allocation happened).
    pub(crate) fn take_u8(&self, len: usize) -> (Vec<u8>, bool) {
        let pooled = self.u8s.lock().expect("u8 pool poisoned").pop();
        match pooled {
            Some(mut v) => {
                let fit = v.capacity() >= len;
                v.clear();
                v.resize(len, 0);
                (v, fit)
            }
            None => (vec![0; len], false),
        }
    }

    /// Return a byte buffer to the pool (dropped if the pool is full).
    pub(crate) fn put_u8(&self, v: Vec<u8>) {
        let mut p = self.u8s.lock().expect("u8 pool poisoned");
        if p.len() < POOL_CAP {
            p.push(v);
        }
    }

    /// A cleared (length-0) `u32` buffer; the caller fills it. The flag
    /// reports whether a pooled buffer's capacity covered `len`.
    pub(crate) fn take_u32(&self, len: usize) -> (Vec<u32>, bool) {
        let pooled = self.u32s.lock().expect("u32 pool poisoned").pop();
        match pooled {
            Some(mut v) => {
                let fit = v.capacity() >= len;
                v.clear();
                v.reserve(len);
                (v, fit)
            }
            None => (Vec::with_capacity(len), false),
        }
    }

    /// Return a `u32` buffer to the pool (dropped if the pool is full).
    pub(crate) fn put_u32(&self, v: Vec<u32>) {
        let mut p = self.u32s.lock().expect("u32 pool poisoned");
        if p.len() < POOL_CAP {
            p.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_round_trip_reuses_and_zeroes() {
        let pool = Pool::new();
        let (mut a, reused) = pool.take_u8(64);
        assert!(!reused, "an empty pool allocates");
        a.iter_mut().for_each(|b| *b = 0xff);
        pool.put_u8(a);
        let (b, reused) = pool.take_u8(32);
        assert!(reused, "a same-or-smaller take reuses the buffer");
        assert_eq!(b.len(), 32);
        assert!(
            b.iter().all(|&x| x == 0),
            "pooled buffer must come back zeroed"
        );
        pool.put_u8(b);
        let (c, reused) = pool.take_u8(128);
        assert!(!reused, "a larger take is reported as an allocation");
        assert_eq!(c.len(), 128);
    }

    #[test]
    fn u32_round_trip_clears() {
        let pool = Pool::new();
        let (mut a, _) = pool.take_u32(16);
        a.extend_from_slice(&[1, 2, 3]);
        pool.put_u32(a);
        let (b, reused) = pool.take_u32(8);
        assert!(reused);
        assert!(b.is_empty(), "u32 buffers are handed out cleared");
        assert!(b.capacity() >= 8);
    }
}
