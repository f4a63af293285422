//! Deterministic fork-join helpers for the intra-rank parallel stages.
//!
//! The paper's local stage is embarrassingly parallel (§IV: lower stars
//! are independent, blocks are independent), but the pipeline must stay
//! **bit-exact regardless of thread count**. These helpers provide the
//! one scheduling discipline that makes this trivial to reason about:
//! workers may run in any order, but results are always *placed and
//! consumed in input order*. Built on `std::thread::scope`, with no
//! dependency: this is the workspace's only data-parallel substrate.
//!
//! Threads are spawned per call. A call amortizes spawn cost over a
//! whole pipeline stage (milliseconds to seconds of work), so a pool is
//! not worth its synchronization complexity here. The calling thread
//! participates as a worker itself, so `threads = n` costs `n − 1`
//! spawns — on a host with few CPUs this halves the spawn/context-switch
//! overhead of two-level (block × slab) fan-out, and `threads = 2`
//! degrades gracefully to "one spawn plus the caller".

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `threads` OS threads, returning results
/// **in input order** regardless of execution order. Work is handed out
/// item-at-a-time from a shared counter, so uneven item costs balance.
///
/// `threads <= 1` (or a single item) runs inline on the caller's thread
/// with no spawns — the exact serial code path.
///
/// A panic in `f` is re-raised on the caller's thread.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let drain = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(i, &items[i])));
        }
        done
    };
    std::thread::scope(|scope| {
        // the caller is worker 0: spawn only workers − 1 threads and
        // drain the shared counter on this thread too
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        for (i, r) in drain() {
            slots[i] = Some(r);
        }
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("par_map: every index computed exactly once"))
        .collect()
}

/// Mutate each item in place on up to `threads` OS threads (contiguous
/// chunks) and return `f`'s outputs in input order. The mutable variant
/// of [`par_map`] for stages like per-block simplification that rewrite
/// their operand.
pub fn par_map_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    let run = move |ci: usize, ch: &mut [T]| {
        ch.iter_mut()
            .enumerate()
            .map(|(j, t)| f(ci * chunk + j, t))
            .collect::<Vec<R>>()
    };
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        // the caller works the first chunk; the rest are spawned
        let mut chunks = items.chunks_mut(chunk).enumerate();
        let first = chunks.next();
        let handles: Vec<_> = chunks
            .map(|(ci, ch)| scope.spawn(move || run(ci, ch)))
            .collect();
        if let Some((ci, ch)) = first {
            out.extend(run(ci, ch));
        }
        for h in handles {
            match h.join() {
                Ok(rs) => out.extend(rs),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(threads, &items, |i, &v| {
                assert_eq!(i as u64, v);
                v * v
            });
            assert_eq!(out.len(), items.len());
            for (i, &r) in out.iter().enumerate() {
                assert_eq!(r, (i * i) as u64, "threads={threads}");
            }
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |_, &v| v).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn par_map_mut_mutates_in_place_in_order() {
        for threads in [1, 2, 5] {
            let mut items: Vec<u64> = (0..97).collect();
            let old = par_map_mut(threads, &mut items, |_, v| {
                let was = *v;
                *v += 1000;
                was
            });
            assert_eq!(old, (0..97).collect::<Vec<u64>>(), "threads={threads}");
            for (i, &v) in items.iter().enumerate() {
                assert_eq!(v, i as u64 + 1000);
            }
        }
    }

    #[test]
    fn uneven_work_still_deterministic() {
        let items: Vec<u64> = (0..64).collect();
        let a = par_map(8, &items, |_, &v| {
            // make early items much slower than late ones
            let spin = if v < 8 { 20_000 } else { 10 };
            let mut acc = v;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (v, acc)
        });
        let b = par_map(3, &items, |_, &v| {
            let spin = if v < 8 { 20_000 } else { 10 };
            let mut acc = v;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (v, acc)
        });
        assert_eq!(a, b);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
