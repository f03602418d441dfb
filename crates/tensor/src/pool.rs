//! A scoped, work-stealing-free fork-join pool for the hot numeric paths.
//!
//! The paper's kernel (§3.3) maps its tiled decomposition onto parallel
//! threadblocks; this module is the CPU analogue every hot path in the
//! workspace routes through: [`Matrix::matmul`](crate::Matrix::matmul)
//! row blocks, the fused GEMM's `n`-tiles, and MoE expert dispatch.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Work is split into *statically assigned contiguous
//!    chunks* (no work stealing, no atomics on the data path), and every
//!    output element is produced entirely by one task with its reduction
//!    order unchanged from the serial code. Parallel results are therefore
//!    bit-identical to serial results for every thread count.
//! 2. **Hermeticity.** Built on `std::thread::scope` only (PR 1 policy:
//!    no external crates).
//! 3. **No oversubscription.** Worker threads are flagged; nested
//!    parallel calls made from inside a pool task run serially, so an
//!    expert-parallel MoE layer does not spawn a thread per matmul.
//!
//! Sizing: `MILO_THREADS` (read once per process) overrides
//! `std::thread::available_parallelism`. Tests and benches use
//! [`with_threads`] for a calling-thread-scoped override that needs no
//! environment mutation and cannot race across test threads.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;

/// Upper bound on the thread count accepted from the environment or
/// [`with_threads`]; a typo like `MILO_THREADS=1000000` must not try to
/// spawn a million OS threads.
pub const MAX_THREADS: usize = 512;

thread_local! {
    /// Calling-thread-scoped thread-count override (0 = unset).
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread is executing a pool task; forces nested
    /// parallel calls onto the serial path.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide default worker count: `MILO_THREADS` if set and valid,
/// otherwise `available_parallelism`. Resolved once.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let env = std::env::var("MILO_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        env.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1)
        })
        .min(MAX_THREADS)
    })
}

/// The number of threads a parallel operation started on this thread may
/// use right now: 1 inside a pool task (nested calls stay serial),
/// otherwise the innermost [`with_threads`] override, otherwise the
/// process default (`MILO_THREADS` / `available_parallelism`).
pub fn max_threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    let o = OVERRIDE.with(Cell::get);
    if o > 0 {
        o.min(MAX_THREADS)
    } else {
        default_threads()
    }
}

/// Runs `f` with the pool sized to `n` threads for parallel operations
/// started on the calling thread, restoring the previous setting on exit
/// (including on panic). `n = 0` is treated as 1.
///
/// This is the override the equivalence tests and benches use to sweep
/// thread counts without touching the process environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(n.clamp(1, MAX_THREADS))));
    f()
}

/// Joins a scoped worker, re-raising the worker's *original* panic
/// payload (message included) on the joining thread instead of a
/// second-hand "worker panicked" message that hides the cause.
fn join_propagating<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match h.join() {
        Ok(v) => v,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Extracts a human-readable message from a panic payload: the `&str` or
/// `String` it carries, or a placeholder for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Set while a task body runs under [`try_par_map`]; the panic hook
    /// stays quiet for these, since the panic is captured and returned
    /// as a value rather than propagated.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// panics captured by [`try_par_map`] and delegates to the previous hook
/// otherwise.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Starts a busy-time measurement for one worker's chunk, or `None` when
/// telemetry is off or the call is already nested inside a pool task
/// (nested serial fallbacks are part of the enclosing worker's busy time
/// and must not be double-counted).
fn busy_timer() -> Option<std::time::Instant> {
    if milo_obs::enabled() && !IN_POOL.with(Cell::get) {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Flushes one worker's chunk into `pool.busy_ns{worker=…}` and
/// `pool.tasks{worker=…}`. Worker 0 is the calling thread.
fn record_busy(worker: usize, tasks: u64, start: Option<std::time::Instant>) {
    let Some(start) = start else { return };
    let w = worker.to_string();
    milo_obs::counter_add(
        &milo_obs::metric_key("pool.busy_ns", &[("worker", &w)]),
        start.elapsed().as_nanos() as u64,
    );
    milo_obs::counter_add(&milo_obs::metric_key("pool.tasks", &[("worker", &w)]), tasks);
}

/// RAII guard that marks the current thread as executing a pool task.
struct TaskGuard(bool);

impl TaskGuard {
    fn enter() -> Self {
        Self(IN_POOL.with(|c| c.replace(true)))
    }
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        IN_POOL.with(|c| c.set(self.0));
    }
}

/// The one scheduler behind [`par_map`], [`try_par_map`] and
/// [`parallel_chunks_mut`]: calls `f(i, item)` for every item and returns
/// the results in item order.
///
/// The items are split into at most [`max_threads`] contiguous runs of
/// `n.div_ceil(threads)` items; the calling thread takes the first run and
/// one scoped thread takes each other run. Serial when one thread is
/// configured, when there is at most one item, or when called from inside
/// another pool task.
///
/// # Panics
///
/// Re-raises the original payload of a panic in `f` (the scope joins every
/// run first).
fn fork_join<I: Send, T: Send>(items: Vec<I>, f: impl Fn(usize, I) -> T + Sync) -> Vec<T> {
    let n = items.len();
    let threads = max_threads().min(n).max(1);
    let per_run = n.div_ceil(threads);
    // Run `worker`'s items, which start at item index `first`.
    let run = |worker: usize, first: usize, items: Vec<I>| -> Vec<T> {
        let t0 = busy_timer();
        let _guard = (threads > 1).then(TaskGuard::enter);
        let out: Vec<T> =
            items.into_iter().enumerate().map(|(k, item)| f(first + k, item)).collect();
        record_busy(worker, out.len() as u64, t0);
        out
    };
    if threads == 1 {
        return run(0, 0, items);
    }
    let mut rest = items.into_iter();
    let mut runs = std::iter::from_fn(|| {
        let items: Vec<I> = rest.by_ref().take(per_run).collect();
        (!items.is_empty()).then_some(items)
    });
    let head = runs.next().expect("n > 1 items");
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (1..)
            .zip(runs)
            .map(|(w, items)| scope.spawn(move || run(w, w * per_run, items)))
            .collect();
        let mut out = run(0, 0, head);
        for h in handles {
            out.extend(join_propagating(h));
        }
        out
    })
}

/// Maps `f` over `0..n`, returning results in index order, on the
/// contiguous split and nesting rule of the pool's one scheduler.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    fork_join(vec![(); n], |i, ()| f(i))
}

/// A captured per-task panic from [`try_par_map`]: which task index
/// failed and the original panic message. Callers attribute failures
/// (e.g. "expert 3 of layer 1 died") without parsing strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// The task index `i` whose `f(i)` panicked.
    pub index: usize,
    /// The original panic message (or a placeholder for non-string
    /// payloads).
    pub message: String,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskError {}

/// Like [`par_map`], but panics in `f` are *captured per task* instead of
/// tearing down the process: index `i` maps to `Err(TaskError)` carrying
/// the failing index and the original panic message when `f(i)` panics,
/// `Ok(value)` otherwise.
///
/// This is the isolation primitive MoE expert dispatch uses — one
/// poisoned expert becomes a per-expert failure the router can degrade
/// around, while the pool, the scope, and every other expert's result
/// stay usable. Captured panics are suppressed from the global panic
/// hook (no spurious backtrace spew); everything else about scheduling
/// and nesting matches [`par_map`].
pub fn try_par_map<T: Send>(
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<std::result::Result<T, TaskError>> {
    install_quiet_hook();
    let guarded = |i: usize| -> std::result::Result<T, TaskError> {
        struct Quiet(bool);
        impl Drop for Quiet {
            fn drop(&mut self) {
                CAPTURING.with(|c| c.set(self.0));
            }
        }
        let _quiet = Quiet(CAPTURING.with(|c| c.replace(true)));
        panic::catch_unwind(AssertUnwindSafe(|| f(i)))
            .map_err(|payload| TaskError { index: i, message: panic_message(payload.as_ref()) })
    };
    par_map(n, guarded)
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the
/// last may be shorter) and calls `body(chunk_index, chunk)` for each,
/// distributing contiguous *runs of chunks* across up to [`max_threads`]
/// scoped threads. This is how mutable output buffers (matmul row
/// blocks, GEMM `n`-tile strips) are handed out without locks: each
/// chunk is a disjoint `&mut` slice.
///
/// # Panics
///
/// Panics if `chunk_len == 0`; propagates panics from `body`.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    fork_join(data.chunks_mut(chunk_len).collect(), body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_index_order() {
        for t in [1, 2, 4, 7] {
            let out = with_threads(t, || par_map(23, |i| i * i));
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={t}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(with_threads(4, || par_map(1, |i| i + 7)), vec![7]);
    }

    #[test]
    fn par_map_visits_every_index_once() {
        for t in [1, 2, 4, 7] {
            let hits: Vec<AtomicUsize> = (0..19).map(|_| AtomicUsize::new(0)).collect();
            with_threads(t, || {
                par_map(19, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                })
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "threads={t}");
        }
    }

    #[test]
    fn par_map_splits_into_contiguous_runs_led_by_the_caller() {
        // Item i runs on run i / n.div_ceil(threads); run 0 is the caller.
        let caller = std::thread::current().id();
        for (t, n) in [(1, 10), (2, 10), (4, 10), (7, 10), (7, 3)] {
            let ids = with_threads(t, || par_map(n, |_| std::thread::current().id()));
            let per_run = n.div_ceil(t.min(n));
            for i in 0..n {
                for j in 0..n {
                    let same_run = i / per_run == j / per_run;
                    assert_eq!(ids[i] == ids[j], same_run, "threads={t}, items {i} and {j}");
                }
            }
            assert_eq!(ids[0], caller, "threads={t}");
        }
    }

    #[test]
    fn three_items_at_seven_threads() {
        let out = with_threads(7, || par_map(3, |i| i * 2));
        assert_eq!(out, vec![0, 2, 4]);
        let mut data = [0usize; 3];
        with_threads(7, || parallel_chunks_mut(&mut data, 1, |ci, c| c[0] = ci + 1));
        assert_eq!(data, [1, 2, 3]);
    }

    #[test]
    fn parallel_chunks_mut_covers_all_chunks() {
        for t in [1, 2, 4, 7] {
            let mut data = vec![0usize; 37];
            with_threads(t, || {
                parallel_chunks_mut(&mut data, 5, |ci, chunk| {
                    for v in chunk.iter_mut() {
                        *v = ci + 1;
                    }
                })
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i / 5 + 1, "threads={t}, index {i}");
            }
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = max_threads();
        with_threads(7, || {
            assert_eq!(max_threads(), 7);
            with_threads(2, || assert_eq!(max_threads(), 2));
            assert_eq!(max_threads(), 7);
        });
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        with_threads(0, || assert_eq!(max_threads(), 1));
    }

    #[test]
    fn nested_parallel_calls_run_serially() {
        // Every body invocation observes max_threads() == 1, i.e. a
        // nested matmul inside a pool task cannot spawn its own workers.
        for t in [2, 4] {
            let nested: Vec<usize> = with_threads(t, || par_map(8, |_| max_threads()));
            assert!(nested.iter().all(|&n| n == 1), "threads={t}: {nested:?}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        parallel_chunks_mut(&mut [1, 2, 3], 0, |_, _| {});
    }

    #[test]
    fn parallel_chunks_mut_hands_out_a_short_final_chunk() {
        for t in [1, 2, 4, 7] {
            let lens: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
            let mut data = vec![0u8; 37];
            with_threads(t, || {
                parallel_chunks_mut(&mut data, 5, |ci, chunk| {
                    lens[ci].fetch_add(chunk.len(), Ordering::Relaxed);
                })
            });
            let lens: Vec<usize> = lens.iter().map(|l| l.load(Ordering::Relaxed)).collect();
            assert_eq!(lens, [5, 5, 5, 5, 5, 5, 5, 2], "threads={t}");
        }
    }

    #[test]
    fn empty_data_runs_no_task() {
        for t in [1, 2, 4, 7] {
            let calls = AtomicUsize::new(0);
            with_threads(t, || {
                parallel_chunks_mut(&mut [0u32; 0], 4, |_, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                });
                assert!(par_map(0, |i| calls.fetch_add(i + 1, Ordering::Relaxed)).is_empty());
            });
            assert_eq!(calls.load(Ordering::Relaxed), 0, "threads={t}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        for t in [1, 2, 4, 7] {
            let r = std::panic::catch_unwind(|| {
                with_threads(t, || {
                    par_map(8, |i| {
                        if i == 5 {
                            panic!("boom");
                        }
                    })
                })
            });
            assert!(r.is_err(), "threads={t}");
        }
    }

    #[test]
    fn worker_panic_reraises_the_original_message() {
        for t in [1, 2, 4, 7] {
            let r = std::panic::catch_unwind(|| {
                with_threads(t, || {
                    par_map(8, |i| {
                        // The last index is in a spawned run (not the
                        // caller's) whenever t > 1, so the join path is
                        // what re-raises.
                        if i == 7 {
                            panic!("expert 7 exploded: {}", 6 * 7);
                        }
                    })
                })
            });
            let payload = r.unwrap_err();
            assert_eq!(panic_message(payload.as_ref()), "expert 7 exploded: 42", "threads={t}");
        }
    }

    #[test]
    fn parallel_chunks_mut_reraises_a_spawned_run_panic() {
        for t in [1, 2, 4, 7] {
            let r = std::panic::catch_unwind(|| {
                with_threads(t, || {
                    parallel_chunks_mut(&mut [0u8; 40], 4, |ci, _| {
                        if ci == 9 {
                            panic!("strip {ci} overflowed");
                        }
                    })
                })
            });
            let payload = r.unwrap_err();
            assert_eq!(panic_message(payload.as_ref()), "strip 9 overflowed", "threads={t}");
        }
    }

    #[test]
    fn try_par_map_isolates_panics_per_task() {
        for t in [1, 2, 4, 7] {
            let out = with_threads(t, || {
                try_par_map(9, |i| {
                    if i % 4 == 2 {
                        panic!("task {i} failed");
                    }
                    i * 10
                })
            });
            assert_eq!(out.len(), 9, "threads={t}");
            for (i, r) in out.iter().enumerate() {
                if i % 4 == 2 {
                    let err = r.clone().unwrap_err();
                    assert_eq!(err.index, i, "threads={t}");
                    assert_eq!(err.message, format!("task {i} failed"));
                    assert_eq!(err.to_string(), format!("task {i} panicked: task {i} failed"));
                } else {
                    assert_eq!(*r, Ok(i * 10), "threads={t}");
                }
            }
        }
    }

    #[test]
    fn pool_stays_usable_after_captured_panics() {
        let bad = with_threads(4, || try_par_map(4, |i| -> usize { panic!("down {i}") }));
        assert!(bad.iter().all(|r| r.is_err()));
        // The pool (and process) survive: a follow-up parallel call works.
        let good = with_threads(4, || par_map(16, |i| i + 1));
        assert_eq!(good, (1..=16).collect::<Vec<_>>());
    }
}
