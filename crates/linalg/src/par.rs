//! Scoped-thread worker pool shared by every parallel kernel in the
//! workspace.
//!
//! The dense products ([`crate::ops`]), the sparse×dense products
//! (`mtrl-sparse`) and the pNN graph construction (`mtrl-graph`) all
//! parallelise the same way: split the output rows into contiguous
//! chunks, hand each chunk to a scoped `std::thread`, and join. This
//! module owns that machinery so each crate does not grow its own copy.
//!
//! Determinism contract: a chunk is always a contiguous row range and
//! every per-row computation is independent of which chunk it lands in,
//! so results are **bit-identical** for any thread count. Helpers here
//! never reorder or re-reduce across rows.
//!
//! The worker count comes from, in priority order:
//! 1. [`set_num_threads`] (last call wins — benches sweep thread counts);
//! 2. the `MTRL_NUM_THREADS` environment variable;
//! 3. `min(available_parallelism, 16)`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 means "not yet resolved"; any positive value is the active count.
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads used by the parallel kernels.
pub fn num_threads() -> usize {
    match NUM_THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = default_num_threads();
            NUM_THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Set the worker-thread count (last call wins). Useful to make bench
/// runs comparable across machines and to sweep scaling curves in one
/// process.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Work (multiply-adds) below which a row fan-out costs more than it
/// saves.
pub(crate) const PAR_WORK: usize = 1 << 20;

/// Worker threads for a pass of `work` multiply-adds: one below the ~1M
/// threshold, [`num_threads`] above it. Every parallel kernel asks this
/// one test, each with its own work expression: the dense and sparse
/// products, the SPG support product, every parallel graph pass (batch
/// search, incremental maintenance, RMC candidates) and the ensemble's
/// co-association build.
pub fn threads_for(work: usize) -> usize {
    if work < PAR_WORK {
        1
    } else {
        num_threads()
    }
}

fn default_num_threads() -> usize {
    if let Ok(v) = std::env::var("MTRL_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(1)
}

/// Split `out` (an `m x n` row-major buffer) into row chunks, one per
/// worker of `threads` (callers pass [`threads_for`] of their work), and
/// run `f(r0, r1, chunk)` on each in parallel; one worker runs
/// `f(0, m, out)` on the caller's thread.
pub fn par_row_chunks(
    out: &mut [f64],
    m: usize,
    n: usize,
    threads: usize,
    f: impl Fn(usize, usize, &mut [f64]) + Sync,
) {
    let threads = threads.min(m.max(1));
    if threads <= 1 {
        f(0, m, out);
        return;
    }
    let rows_per = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (idx, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let r0 = idx * rows_per;
                let r1 = (r0 + chunk.len() / n.max(1)).min(m);
                f(r0, r1, chunk);
            });
        }
    });
}

/// Map contiguous row ranges of `0..n` to per-row results in parallel,
/// concatenated back in row order.
///
/// `f` receives a row range and must return one `T` per row of that
/// range. Chunks are contiguous and results are spliced in order, so the
/// output is identical to `f(0..n)` regardless of `threads`.
///
/// # Panics
/// Panics if `f` returns a vector whose length differs from its range.
pub fn par_chunks_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n == 0 {
        let out = f(0..n);
        assert_eq!(out.len(), n, "par_chunks_map: wrong chunk length");
        return out;
    }
    let rows_per = n.div_ceil(threads);
    let ranges: Vec<Range<usize>> = (0..threads)
        .map(|t| (t * rows_per).min(n)..((t + 1) * rows_per).min(n))
        .filter(|r| !r.is_empty())
        .collect();
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let f = &f;
                let r = r.clone();
                scope.spawn(move || {
                    let out = f(r.clone());
                    assert_eq!(out.len(), r.len(), "par_chunks_map: wrong chunk length");
                    out
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("par_chunks_map worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_map_matches_serial_any_thread_count() {
        let serial: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in 1..=8 {
            let par = par_chunks_map(37, threads, |r| r.map(|i| i * i).collect());
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn chunks_map_edge_sizes() {
        assert!(par_chunks_map(0, 4, |r| r.collect::<Vec<_>>()).is_empty());
        assert_eq!(
            par_chunks_map(1, 8, |r| r.map(|i| i + 1).collect()),
            vec![1]
        );
        // threads > n.
        assert_eq!(par_chunks_map(3, 16, |r| r.collect()), vec![0usize, 1, 2]);
    }

    #[test]
    fn row_chunks_cover_all_rows() {
        let (m, n) = (23, 4);
        let mut buf = vec![0.0; m * n];
        par_row_chunks(&mut buf, m, n, 3, |r0, r1, chunk| {
            for (local, gi) in (r0..r1).enumerate() {
                for v in &mut chunk[local * n..(local + 1) * n] {
                    *v = gi as f64;
                }
            }
        });
        for i in 0..m {
            for j in 0..n {
                assert_eq!(buf[i * n + j], i as f64, "({i},{j})");
            }
        }
    }

    #[test]
    fn set_num_threads_last_call_wins() {
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(5);
        assert_eq!(num_threads(), 5);
        set_num_threads(0); // clamped
        assert_eq!(num_threads(), 1);
        // Restore something sane for the rest of the test binary.
        set_num_threads(2);
    }
}
