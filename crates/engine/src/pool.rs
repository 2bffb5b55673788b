//! A minimal order-preserving worker pool on scoped threads.
//!
//! Parameter sweeps simulate dozens of independent `(topology, size,
//! load)` points and the job server runs batches of them; each point
//! owns its own seeded RNG, so the points can run on any thread in any
//! order without changing a single result bit. The pool has one
//! scheduling loop, [`WorkerPool::run_jobs`]: a fixed set of scoped
//! worker threads claim items from a shared atomic cursor and send
//! progress events and results back over a channel to the calling
//! thread, which relays the events as they arrive and files each result
//! under its input index. [`WorkerPool::map`] is `run_jobs` with no
//! progress events. Either returns the results *in input order*, so the
//! output is byte-identical to a serial loop.
//!
//! The pool is hand-rolled on [`std::thread::scope`] — the workspace
//! takes no external crates. A pool of one thread (or a single-item
//! input) runs inline on the caller's thread with zero synchronization.
//! A job that panics does not stop the others: the caller re-panics
//! once every worker has joined.
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

/// An order-preserving fork-join pool over a fixed number of threads.
///
/// Workers claim items dynamically, so an expensive item does not
/// serialize the cheap ones behind it, and results come back in input
/// order whichever worker finished first. Construct one with an
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

    /// A pool of `RINGMESH_THREADS` workers if that environment
    /// variable holds a positive integer, else one per
    /// [`std::thread::available_parallelism`] (one when even that is
    /// unavailable). The variable is read once per process.
    pub fn from_env() -> Self {
        static THREADS: OnceLock<usize> = OnceLock::new();
        WorkerPool::new(*THREADS.get_or_init(|| {
            std::env::var("RINGMESH_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                })
        }))
    }

    /// The number of worker threads this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in input
    /// order: [`run_jobs`](Self::run_jobs) without progress events.
    /// `f` receives the item's index alongside the item.
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
        self.run_jobs(
            items,
            |i, item, _: &mut dyn FnMut(())| f(i, item),
            |_, ()| {},
        )
    }

    /// Applies `f` to every item and returns the results in input
    /// order, streaming progress: `f` receives the item's index, the
    /// item and an emitter for typed progress events, and the caller
    /// observes every event *as it happens*, on the calling thread,
    /// through `on_progress(job index, event)`.
    ///
    /// This is the job-server entry point: a batch of sweep points
    /// fans out across the workers while per-job status streams back
    /// to the protocol connection. Events from concurrently running
    /// jobs interleave in completion order (which varies run to run),
    /// but each job's own events arrive in the order it emitted them;
    /// the *returned* results are in input order and bit-identical at
    /// any thread count. With one worker (or fewer than two items)
    /// everything runs inline in input order.
    ///
    /// # Panics
    ///
    /// Panics (after all workers have joined) if `f` panicked on any
    /// item; the other items still run.
    pub fn run_jobs<T, R, E, F>(
        &self,
        items: Vec<T>,
        f: F,
        mut on_progress: impl FnMut(usize, E),
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
                .map(|(i, item)| f(i, item, &mut |e| on_progress(i, e)))
                .collect();
        }
        enum Msg<E, R> {
            Progress(usize, E),
            Done(usize, R),
        }
        // Each index is claimed exactly once via the cursor, so every
        // Mutex is uncontended: it hands an item to another thread, it
        // does not serialize work.
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
            // and files results while the workers run. Every sender is
            // a worker's, so once all workers have exited `recv` fails
            // and the loop ends even if one of them panicked (the scope
            // re-raises the panic after the join).
            drop(tx);
            for msg in rx {
                match msg {
                    Msg::Progress(i, e) => on_progress(i, e),
                    Msg::Done(i, r) => results[i] = Some(r),
                }
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("worker left a result slot empty"))
            .collect()
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
            let out = pool.run_jobs(
                (0..16u64).collect(),
                |i, x, emit| {
                    emit(x * 2);
                    emit(x * 2 + 1);
                    (i as u64) * 100 + x
                },
                |i, e| progress.push((i, e)),
            );
            // Results: input order, same at any thread count.
            assert_eq!(out, (0..16u64).map(|x| x * 101).collect::<Vec<_>>());
            // Every job emitted both events, each under its own index.
            assert_eq!(progress.len(), 32, "threads={threads}");
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

    /// A job that panics re-panics in the caller, after the workers
    /// have run every other job; it never hangs the event loop. Inline
    /// (one thread) the panic leaves at once, after the jobs before it.
    #[test]
    fn a_panicking_job_re_panics_after_the_others_finish() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(threads).map((0..16u32).collect(), |i, x| {
                    if i == 3 {
                        panic!("job {i} fails");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                    x
                })
            }));
            assert!(
                caught.is_err(),
                "threads={threads}: the panic must reach the caller"
            );
            let others = if threads == 1 { 3 } else { 15 };
            assert_eq!(ran.load(Ordering::SeqCst), others, "threads={threads}");
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
