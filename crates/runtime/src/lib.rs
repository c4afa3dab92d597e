//! Persistent work-stealing runtime for CatDB's CPU-bound hot loops.
//!
//! Every parallel call site in the workspace used to spawn fresh OS
//! threads through `crossbeam::thread::scope`, once per profiled table,
//! per trained forest, per cleaning round. This crate replaces that with
//! one lazily-initialized pool of long-lived workers and two primitives:
//!
//! - [`parallel_map`]: apply a function to every element of a slice and
//!   collect the results **in input order**.
//! - [`parallel_chunks`]: apply a function to fixed-size contiguous index
//!   ranges of `0..total` and collect the per-chunk results in range
//!   order. Chunk boundaries depend only on `total` and `chunk_size`,
//!   never on the thread count, so flattened outputs are stable.
//! - [`parallel_map_io`]: `parallel_map` for latency-bound work (LLM
//!   round trips) on dedicated scoped threads, so fan-out width is not
//!   capped by the CPU-sized pool.
//!
//! It also holds [`Lru`], the weight-budgeted least-recently-used map
//! behind every process-wide cache of the workspace.
//!
//! # Determinism
//!
//! Work distribution is dynamic — idle threads steal the next unclaimed
//! index from a shared atomic cursor — but results are written back by
//! input index, so the returned `Vec` is byte-identical no matter how
//! many threads participated or how the OS scheduled them. Callers keep
//! their per-item seeding (`seed ^ idx`) and get thread-count-independent
//! output for free.
//!
//! # Sizing
//!
//! The pool holds `CATDB_THREADS` workers when that environment variable
//! is set, otherwise [`std::thread::available_parallelism`]. Each call
//! additionally caps its own fan-out with the `limit` argument (wired to
//! `ProfileOptions::n_threads` / `ForestConfig::n_threads`); `limit <= 1`
//! runs entirely inline on the calling thread.
//!
//! # Nesting and panics
//!
//! The submitting thread always participates in its own batch and, while
//! waiting for stragglers, drains other batches from the shared queue —
//! so a `parallel_map` issued from inside a pool worker cannot deadlock
//! even on a single-worker pool. A panicking task does not poison the
//! pool: the first payload is captured and re-raised on the submitting
//! thread once the batch has drained.
//!
//! # Observability
//!
//! When a [`catdb_trace`] sink is installed on the submitting thread it
//! is propagated to every worker that executes tasks for the batch,
//! together with the submitter's innermost open span, so the spans a task
//! opens nest under the span it was submitted from. The pool reports
//! `runtime.tasks` (items executed) and `runtime.steals` (items executed
//! by a thread other than the submitter) counters.

mod lru;

pub use lru::Lru;

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Counter name for items executed through the pool.
pub const COUNTER_TASKS: &str = "runtime.tasks";
/// Counter name for items executed by a thread other than the submitter.
pub const COUNTER_STEALS: &str = "runtime.steals";

/// A unit of queued work: a type-erased pointer to the batch runner that
/// lives on the submitting thread's stack, plus the batch's completion
/// tracker. The pointer is only dereferenced before [`BatchSync`] is
/// notified, and the submitter blocks until every queued job has done so
/// — which is what makes the lifetime erasure sound.
struct Job {
    runner: *const (dyn Fn(bool) + Sync),
    sync: Arc<BatchSync>,
}

// SAFETY: the runner pointer targets a closure that is kept alive by the
// submitting thread until `BatchSync::pending` reaches zero, and every
// job decrements `pending` only after its last use of the pointer.
unsafe impl Send for Job {}

/// Per-batch completion tracking shared between the submitter and the
/// queued jobs. Heap-allocated (unlike the runner) so a job can safely
/// signal completion even while the submitter is about to return.
struct BatchSync {
    /// Queued jobs that have not finished executing yet.
    pending: AtomicUsize,
}

impl BatchSync {
    fn finish_one(&self, pool: &Pool) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
        // Take the queue lock (even though nothing is pushed) so the
        // notification cannot slip between a waiter's check and its park.
        drop(pool.queue.lock().unwrap());
        pool.cv.notify_all();
    }
}

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    workers: usize,
}

impl Pool {
    fn push_jobs(&self, runner: *const (dyn Fn(bool) + Sync), n: usize, sync: &Arc<BatchSync>) {
        if n == 0 {
            return;
        }
        sync.pending.fetch_add(n, Ordering::SeqCst);
        let mut q = self.queue.lock().unwrap();
        for _ in 0..n {
            q.push_back(Job { runner, sync: sync.clone() });
        }
        drop(q);
        self.cv.notify_all();
    }

    /// Main loop for pool workers: execute queued jobs forever.
    fn worker_loop(&self) {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                drop(q);
                // SAFETY: see `Job` — the submitter keeps the runner
                // alive until `finish_one` below has run.
                unsafe { (*job.runner)(true) };
                job.sync.finish_one(self);
                q = self.queue.lock().unwrap();
            } else {
                q = self.cv.wait(q).unwrap();
            }
        }
    }

    /// Block until `sync.pending` drops to zero, helping with whatever
    /// work is queued in the meantime (ours or another batch's) so that
    /// nested calls on a starved pool still make progress.
    fn wait_batch(&self, sync: &BatchSync) {
        let mut q = self.queue.lock().unwrap();
        loop {
            if sync.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(job) = q.pop_front() {
                drop(q);
                // SAFETY: see `Job`.
                unsafe { (*job.runner)(true) };
                job.sync.finish_one(self);
                q = self.queue.lock().unwrap();
            } else {
                q = self.cv.wait(q).unwrap();
            }
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = pool_size();
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            workers,
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("catdb-worker-{i}"))
                .spawn(move || pool.worker_loop())
                .expect("spawn catdb-runtime worker");
        }
        pool
    })
}

/// Number of persistent workers the pool is (or will be) created with:
/// `CATDB_THREADS` when set to a positive integer, otherwise the host's
/// available parallelism. The submitting thread always works too, so the
/// effective width of a saturating call is `pool_size() + 1`.
pub fn pool_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        std::env::var("CATDB_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .clamp(1, 64)
    })
}

/// Shared state for one `parallel_map` batch, borrowed by the runner.
struct MapState<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    cursor: AtomicUsize,
    out: Mutex<Vec<(usize, R)>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Apply `f` to every element of `items` and return the results in input
/// order, using up to `limit` threads (the caller plus stolen help from
/// the pool). `limit <= 1` runs sequentially inline. The output is
/// independent of `limit`, the pool size, and scheduling.
pub fn parallel_map<T, R, F>(limit: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let sink = catdb_trace::current();
    let parent = catdb_trace::current_span();
    if limit <= 1 || len == 1 {
        let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        if let Some(s) = &sink {
            s.add_counter(COUNTER_TASKS, len as f64);
        }
        return out;
    }

    let state = MapState {
        items,
        f: &f,
        cursor: AtomicUsize::new(0),
        out: Mutex::new(Vec::with_capacity(len)),
        panic: Mutex::new(None),
    };

    // The runner claims indices until the batch is exhausted. It is
    // shared verbatim between the submitter (`stolen = false`) and any
    // pool worker that picks up one of the queued jobs.
    let runner = |stolen: bool| {
        let _guard = sink.as_ref().map(|s| catdb_trace::install_at(s.clone(), parent));
        let mut local: Vec<(usize, R)> = Vec::new();
        let mut executed = 0usize;
        loop {
            let i = state.cursor.fetch_add(1, Ordering::SeqCst);
            if i >= len {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| (state.f)(i, &state.items[i]))) {
                Ok(r) => local.push((i, r)),
                Err(payload) => {
                    let mut slot = state.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            executed += 1;
        }
        if !local.is_empty() {
            state.out.lock().unwrap().append(&mut local);
        }
        if let Some(s) = &sink {
            if executed > 0 {
                s.add_counter(COUNTER_TASKS, executed as f64);
                if stolen {
                    s.add_counter(COUNTER_STEALS, executed as f64);
                }
            }
        }
    };

    let pool = pool();
    let helpers = (limit - 1).min(pool.workers).min(len - 1);
    let sync = Arc::new(BatchSync { pending: AtomicUsize::new(0) });
    // SAFETY: erase the runner's stack lifetime. `wait_batch` below does
    // not return until every job queued here has finished its last use
    // of this pointer, so it never dangles while reachable.
    let erased: *const (dyn Fn(bool) + Sync) = unsafe {
        std::mem::transmute::<*const (dyn Fn(bool) + Sync + '_), *const (dyn Fn(bool) + Sync)>(
            &runner as &(dyn Fn(bool) + Sync) as *const _,
        )
    };
    pool.push_jobs(erased, helpers, &sync);
    runner(false);
    pool.wait_batch(&sync);
    // All queued jobs have signalled completion; nothing aliases `state`
    // or `runner` any more.

    if let Some(payload) = state.panic.lock().unwrap().take() {
        resume_unwind(payload);
    }
    let mut out = state.out.into_inner().unwrap();
    out.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(out.len(), len);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Like [`parallel_map`], but for latency-bound tasks — network round
/// trips, simulated or real LLM calls — whose threads spend their time
/// blocked, not computing. These run on dedicated scoped threads instead
/// of the CPU-sized worker pool, so the fan-out width is `min(limit,
/// len)` even on a single-core host where the pool has one worker (a
/// width-4 LLM fan-out overlaps four round-trips regardless of core
/// count). Results come back in input order; `limit <= 1` runs entirely
/// inline on the calling thread; an installed trace sink propagates to
/// every worker thread.
pub fn parallel_map_io<T, R, F>(limit: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let sink = catdb_trace::current();
    let parent = catdb_trace::current_span();
    if limit <= 1 || len == 1 {
        let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        if let Some(s) = &sink {
            s.add_counter(COUNTER_TASKS, len as f64);
        }
        return out;
    }

    let cursor = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(len));
    std::thread::scope(|scope| {
        for _ in 0..limit.min(len) {
            scope.spawn(|| {
                let _guard = sink.as_ref().map(|s| catdb_trace::install_at(s.clone(), parent));
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::SeqCst);
                    if i >= len {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                if !local.is_empty() {
                    if let Some(s) = &sink {
                        s.add_counter(COUNTER_TASKS, local.len() as f64);
                    }
                    out.lock().unwrap().append(&mut local);
                }
            });
        }
    });
    let mut out = out.into_inner().unwrap();
    out.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(out.len(), len);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Apply `f` to contiguous `chunk_size`-wide ranges covering `0..total`
/// and return the per-chunk results in range order. Boundaries depend
/// only on `total` and `chunk_size`, so flattening the result yields the
/// same bytes for every `limit` and pool size.
pub fn parallel_chunks<R, F>(limit: usize, total: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunk = chunk_size.max(1);
    let ranges: Vec<Range<usize>> =
        (0..total).step_by(chunk).map(|s| s..(s + chunk).min(total)).collect();
    parallel_map(limit, &ranges, |_, r| f(r.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..503).collect();
        let out = parallel_map(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 3 + 1
        });
        assert_eq!(out, (0..503).map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_identical_across_limits() {
        let items: Vec<u64> = (0..257).collect();
        let run = |limit| parallel_map(limit, &items, |i, &x| x.wrapping_mul(i as u64 ^ 0x9e37));
        let base = run(1);
        for limit in [2, 4, 8, 32] {
            assert_eq!(run(limit), base, "limit {limit} diverged");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u8> = vec![];
        assert!(parallel_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn io_map_is_ordered_and_identical_across_limits() {
        let items: Vec<u64> = (0..97).collect();
        let run = |limit| parallel_map_io(limit, &items, |i, &x| x.wrapping_mul(i as u64 ^ 0x9e37));
        let base = run(1);
        for limit in [2, 4, 16] {
            assert_eq!(run(limit), base, "limit {limit} diverged");
        }
        let none: Vec<u8> = vec![];
        assert!(parallel_map_io(4, &none, |_, &x| x).is_empty());
    }

    #[test]
    fn io_map_width_exceeds_the_cpu_pool() {
        // Eight sleepers at width 8 must overlap: even on a single-core
        // host the wall-clock is one sleep, not eight, because the I/O
        // variant spawns its own scoped threads rather than queueing on
        // the CPU-sized pool.
        let items: Vec<u8> = (0..8).collect();
        let started = std::time::Instant::now();
        let out = parallel_map_io(8, &items, |_, &x| {
            std::thread::sleep(std::time::Duration::from_millis(40));
            x
        });
        assert_eq!(out, items);
        assert!(
            started.elapsed() < std::time::Duration::from_millis(8 * 40),
            "sleeps did not overlap: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn io_map_propagates_the_trace_sink() {
        let sink = Arc::new(catdb_trace::TraceSink::new());
        let _guard = catdb_trace::install(sink.clone());
        let items: Vec<u8> = (0..12).collect();
        parallel_map_io(4, &items, |_, &x| {
            catdb_trace::add_counter("io.test", 1.0);
            x
        });
        let trace = sink.snapshot();
        assert_eq!(trace.counters["io.test"], 12.0);
        assert_eq!(trace.counters[COUNTER_TASKS], 12.0);
    }

    #[test]
    fn nested_calls_complete_on_a_busy_pool() {
        // Saturate the pool with outer tasks that each run an inner
        // parallel_map; the help-while-waiting loop must prevent
        // deadlock even if every worker is stuck in an outer task.
        let outer: Vec<usize> = (0..16).collect();
        let out = parallel_map(8, &outer, |_, &o| {
            let inner: Vec<usize> = (0..50).collect();
            parallel_map(4, &inner, |_, &i| i + o).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..16).map(|o| (0..50).map(|i| i + o).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let hit = AtomicBool::new(false);
        let items: Vec<usize> = (0..64).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(4, &items, |_, &x| {
                if x == 13 {
                    hit.store(true, Ordering::SeqCst);
                    panic!("boom at {x}");
                }
                x
            })
        }));
        assert!(hit.load(Ordering::SeqCst));
        assert!(res.is_err(), "task panic must re-raise on the submitter");
        // The pool survives the panic and keeps serving work.
        assert_eq!(parallel_map(4, &items, |_, &x| x).len(), 64);
    }

    #[test]
    fn chunks_cover_range_in_order() {
        let out = parallel_chunks(8, 103, 10, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..103).collect::<Vec<_>>());
        // Chunk layout is a function of (total, chunk_size) only.
        let a = parallel_chunks(1, 103, 10, |r| (r.start, r.end));
        let b = parallel_chunks(8, 103, 10, |r| (r.start, r.end));
        assert_eq!(a, b);
    }

    #[test]
    fn trace_counters_record_tasks() {
        let sink = Arc::new(catdb_trace::TraceSink::new());
        let guard = catdb_trace::install(sink.clone());
        let items: Vec<usize> = (0..40).collect();
        let _ = parallel_map(4, &items, |_, &x| x * 2);
        drop(guard);
        let trace = sink.snapshot();
        assert_eq!(trace.counters.get(COUNTER_TASKS).copied(), Some(40.0));
        // Steals are scheduling-dependent; they must never exceed tasks.
        let steals = trace.counters.get(COUNTER_STEALS).copied().unwrap_or(0.0);
        assert!(steals <= 40.0);
    }
}
