//! A minimal order-preserving worker pool on scoped threads.
//!
//! Parameter sweeps simulate dozens of independent `(topology, size,
//! load)` points; each point owns its own seeded RNG, so
//! the points can run on any thread in any order without changing a
//! single result bit. [`WorkerPool::map`] exploits that: it fans the
//! items of a `Vec` out across a fixed set of scoped worker threads
//! (claimed from a shared atomic cursor) and collects the results *in
//! input order*, so the output is byte-identical to a serial loop.
//!
//! The pool is hand-rolled on [`std::thread::scope`] — the workspace
//! takes no external crates. A pool of one thread (or a single-item
//! input) runs inline on the caller's thread with zero synchronization.
//!
//! The default worker count comes from the `RINGMESH_THREADS`
//! environment variable, read once per process (see
//! [`configured_threads`]); unset, it falls back to
//! [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! use ringmesh_engine::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.map(vec![1u64, 2, 3, 4], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};

/// The number of worker threads to use by default, parsed once per
/// process: the `RINGMESH_THREADS` environment variable if set to a
/// positive integer, else [`std::thread::available_parallelism`]
/// (falling back to 1 when even that is unavailable).
pub fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let from_env = std::env::var("RINGMESH_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// An order-preserving fork-join pool over a fixed number of threads.
///
/// See the [module docs](self) for the design; construct one with an
/// explicit thread count ([`WorkerPool::new`], e.g. in determinism
/// tests comparing thread counts within one process) or from the
/// environment default ([`WorkerPool::from_env`]).
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers; zero is clamped to one (inline
    /// serial execution).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`configured_threads`] (`RINGMESH_THREADS` or
    /// the machine's available parallelism).
    pub fn from_env() -> Self {
        WorkerPool::new(configured_threads())
    }

    /// The number of worker threads this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in input
    /// order. `f` receives the item's index alongside the item.
    ///
    /// Items are claimed dynamically (an atomic cursor), so an
    /// expensive item does not serialize the cheap ones behind it; the
    /// collected order is the input order regardless of which worker
    /// finished first. With one thread (or fewer than two items) the
    /// whole map runs inline on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics (after all workers have joined) if `f` panicked on any
    /// item.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        // Safe shared state only: each index is claimed exactly once
        // via the cursor, so every Mutex below is uncontended — it
        // exists to satisfy the borrow checker, not to serialize work.
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("poisoned work slot")
                        .take()
                        .expect("work index claimed twice");
                    let r = f(i, item);
                    *results[i].lock().expect("poisoned result slot") = Some(r);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("poisoned result slot")
                    .expect("worker left a result slot empty")
            })
            .collect()
    }
    /// [`map`](Self::map) with live completion streaming: jobs may
    /// emit typed progress events while running (via the emitter
    /// passed to `f`), and the caller observes every event plus each
    /// job's completion *as it happens*, from the calling thread.
    ///
    /// This is the job-server entry point: a batch of sweep points
    /// fans out across the workers while per-job status streams back
    /// to the protocol connection. Events from concurrently running
    /// jobs interleave in completion order (which varies run to run);
    /// the *returned* results are in input order and bit-identical at
    /// any thread count, exactly like [`map`](Self::map).
    ///
    /// `on_progress` receives `(job index, event)`; `on_done` receives
    /// `(job index, &result)` once per job. With one worker (or fewer
    /// than two items) everything runs inline in input order.
    ///
    /// # Panics
    ///
    /// Panics (after all workers have joined) if `f` panicked on any
    /// item.
    pub fn run_jobs<T, R, E, F>(
        &self,
        items: Vec<T>,
        f: F,
        mut on_progress: impl FnMut(usize, E),
        mut on_done: impl FnMut(usize, &R),
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(usize, T, &mut dyn FnMut(E)) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    let r = f(i, item, &mut |e| on_progress(i, e));
                    on_done(i, &r);
                    r
                })
                .collect();
        }
        enum Msg<E, R> {
            Progress(usize, E),
            Done(usize, R),
        }
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<Msg<E, R>>();
            let (f, work, cursor) = (&f, &work, &cursor);
            for _ in 0..workers {
                let tx = tx.clone();
                s.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("poisoned work slot")
                        .take()
                        .expect("work index claimed twice");
                    let mut emit = |e| {
                        let _ = tx.send(Msg::Progress(i, e));
                    };
                    let r = f(i, item, &mut emit);
                    let _ = tx.send(Msg::Done(i, r));
                });
            }
            // The caller's thread is the event loop: it relays progress
            // and completion while the workers run. All senders live in
            // this scope, so dropping ours and counting completions
            // terminates cleanly even if a worker panicked (the scope
            // re-raises the panic after the join).
            drop(tx);
            let mut done = 0;
            while done < n {
                match rx.recv() {
                    Ok(Msg::Progress(i, e)) => on_progress(i, e),
                    Ok(Msg::Done(i, r)) => {
                        results[i] = Some(r);
                        on_done(i, results[i].as_ref().expect("just stored"));
                        done += 1;
                    }
                    Err(_) => break, // a worker panicked; the scope will re-raise
                }
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("worker left a result slot empty"))
            .collect()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let pool = WorkerPool::new(4);
        // Make early items slow so completion order differs from input
        // order; the collected order must still be the input order.
        let out = pool.map((0..64u64).collect(), |i, x| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, (0..64u64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let work = |_, x: u64| (x as f64).sqrt() * 1e9;
        let serial = WorkerPool::new(1).map((0..100).collect(), work);
        let parallel = WorkerPool::new(4).map((0..100).collect(), work);
        let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map(Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
        assert_eq!(pool.map(vec![7u32], |i, x| x + i as u32), vec![7]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![1, 2, 3], |_, x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn run_jobs_streams_events_and_preserves_order() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let mut progress = Vec::new();
            let mut done = Vec::new();
            let out = pool.run_jobs(
                (0..16u64).collect(),
                |i, x, emit| {
                    emit(x * 2);
                    emit(x * 2 + 1);
                    (i as u64) * 100 + x
                },
                |i, e| progress.push((i, e)),
                |i, r| done.push((i, *r)),
            );
            // Results: input order, same at any thread count.
            assert_eq!(out, (0..16u64).map(|x| x * 101).collect::<Vec<_>>());
            // Every job emitted both events and completed exactly once.
            assert_eq!(progress.len(), 32, "threads={threads}");
            assert_eq!(done.len(), 16);
            let mut done_ids: Vec<usize> = done.iter().map(|&(i, _)| i).collect();
            done_ids.sort_unstable();
            assert_eq!(done_ids, (0..16).collect::<Vec<_>>());
            for &(i, r) in &done {
                assert_eq!(r, (i as u64) * 101);
            }
            // Per-job progress events arrive in emit order.
            for job in 0..16u64 {
                let evs: Vec<u64> = progress
                    .iter()
                    .filter(|&&(i, _)| i as u64 == job)
                    .map(|&(_, e)| e)
                    .collect();
                assert_eq!(evs, vec![job * 2, job * 2 + 1]);
            }
        }
    }

    #[test]
    fn index_matches_item_position() {
        let pool = WorkerPool::new(3);
        let out = pool.map(vec![10usize, 11, 12, 13], |i, x| (i, x));
        for (i, &(idx, x)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(x, 10 + i);
        }
    }
}
