//! Thread configuration and the persistent kernel worker pool.
//!
//! The paper measures single-threaded execution (Sec. III), so the default
//! thread count is 1. The thread-scaling ablation, the `Flow` profile's
//! parallel `tridiagonal_matmul`, and the `gemm_engine` bench raise it via
//! [`set_num_threads`].
//!
//! Parallel kernels are scheduled on a **persistent worker pool**: workers
//! are spawned lazily on first use, then park on a per-worker mailbox
//! between regions, so steady-state parallel GEMMs pay no thread-spawn
//! cost. A parallel region hands every worker the same job — a shared
//! task-index counter drained with `fetch_add` — which gives dynamic load
//! balancing over arbitrarily shaped tile grids (the 2-D m×n GEMM
//! decomposition) rather than the fixed row split the previous
//! scoped-thread design was limited to.
//!
//! Determinism: the pool only distributes *which thread* runs a task;
//! tasks themselves are fixed, disjoint units whose floating-point
//! evaluation order does not depend on the thread count. Kernels built on
//! [`parallel_for`] therefore produce bit-identical results at 1 and N
//! threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static NUM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Upper bound on pool size; `set_num_threads` beyond this is clamped at
/// region-entry (a backstop against pathological configuration, not a
/// tuning knob).
const MAX_POOL: usize = 64;

/// Set the number of threads used by parallel-capable kernels (clamped to a
/// minimum of 1). Affects all threads; intended to be set once per run.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current kernel thread count.
pub fn num_threads() -> usize {
    NUM_THREADS.load(Ordering::Relaxed)
}

/// A lifetime-erased parallel region: workers call `body` with task
/// indices drained from the pool's shared counter.
///
/// Soundness: the reference is only dereferenced between job hand-off and
/// the worker's `done` increment, and [`Pool::run`] does not return (or
/// unwind) past its caller's frame until every helper has incremented
/// `done` — see the `WaitForHelpers` guard.
#[derive(Clone, Copy)]
struct Job {
    body: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
}

struct Worker {
    mailbox: Mutex<Option<Job>>,
    cv: Condvar,
}

struct Pool {
    /// Serializes parallel regions: one region owns the pool at a time
    /// (concurrent callers run their region back-to-back, never
    /// interleaved on the same workers).
    region: Mutex<()>,
    /// Next task index of the active region.
    next: AtomicUsize,
    /// Helpers that finished the active region.
    done: Mutex<usize>,
    done_cv: Condvar,
    /// Set when a helper's task panicked; the region re-panics on the
    /// caller thread after completion.
    panicked: AtomicBool,
    workers: Mutex<Vec<Arc<Worker>>>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        region: Mutex::new(()),
        next: AtomicUsize::new(0),
        done: Mutex::new(0),
        done_cv: Condvar::new(),
        panicked: AtomicBool::new(false),
        workers: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// `true` while this thread is inside a parallel region (as caller or
    /// as pool worker). Nested regions degrade to serial execution instead
    /// of deadlocking on the region lock.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Run `body(0..tasks)` with up to `threads` threads (the caller
/// participates; up to `threads - 1` pool workers help). Tasks are
/// claimed dynamically, one index at a time, from a shared counter.
/// Kernels typically pass [`num_threads`] — or a smaller count when the
/// problem is too small to amortize the hand-off.
///
/// Falls back to a plain serial loop when one thread suffices, when the
/// region is nested inside another parallel region, or when there is at
/// most one task. Callers must ensure distinct task indices touch
/// disjoint data.
///
/// # Panics
/// Propagates a panic from `body` (after all helpers have quiesced).
pub fn parallel_for<F>(threads: usize, tasks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let helpers = threads.min(MAX_POOL).saturating_sub(1).min(tasks.saturating_sub(1));
    if helpers == 0 || IN_REGION.with(|f| f.get()) {
        for i in 0..tasks {
            body(i);
        }
        return;
    }
    IN_REGION.with(|f| f.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool().run(helpers, tasks, &body);
    }));
    IN_REGION.with(|f| f.set(false));
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
}

/// Drop guard that blocks until `count` helpers have bumped the pool's
/// `done` latch. Running this in `Drop` keeps the erased `Job` reference
/// alive past the helpers' last dereference **even when the caller's own
/// share of the region panics**.
struct WaitForHelpers {
    pool: &'static Pool,
    count: usize,
}

impl Drop for WaitForHelpers {
    fn drop(&mut self) {
        let mut done = self.pool.done.lock().unwrap_or_else(|e| e.into_inner());
        while *done < self.count {
            done = self.pool.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Pool {
    fn run(&'static self, helpers: usize, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        let _region = self.region.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the erased reference outlives every dereference — the
        // WaitForHelpers guard below does not let this frame exit until
        // each helper has incremented `done`, which each helper does only
        // after its final `body` call.
        let body: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
        self.next.store(0, Ordering::Relaxed);
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = 0;
        self.panicked.store(false, Ordering::Relaxed);

        let workers = self.ensure_workers(helpers);
        let wait = WaitForHelpers { pool: self, count: workers.len() };
        let job = Job { body, tasks };
        for w in &workers {
            *w.mailbox.lock().unwrap_or_else(|e| e.into_inner()) = Some(job);
            w.cv.notify_one();
        }
        // The caller is a full participant.
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            body(i);
        }
        drop(wait);
        if self.panicked.load(Ordering::Relaxed) {
            panic!("laab-kernels: a pool worker panicked inside a parallel region");
        }
    }

    /// Grow the pool to at least `want` workers and return the first
    /// `want` of them.
    fn ensure_workers(&'static self, want: usize) -> Vec<Arc<Worker>> {
        let mut ws = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        while ws.len() < want {
            let worker = Arc::new(Worker { mailbox: Mutex::new(None), cv: Condvar::new() });
            let handle = Arc::clone(&worker);
            std::thread::Builder::new()
                .name(format!("laab-worker-{}", ws.len()))
                .spawn(move || worker_loop(pool(), &handle))
                .expect("laab-kernels: cannot spawn pool worker");
            ws.push(worker);
        }
        ws[..want].to_vec()
    }
}

fn worker_loop(pool: &'static Pool, me: &Worker) {
    // Workers never open nested regions of their own.
    IN_REGION.with(|f| f.set(true));
    loop {
        let job = {
            let mut mailbox = me.mailbox.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = mailbox.take() {
                    break job;
                }
                mailbox = me.cv.wait(mailbox).unwrap_or_else(|e| e.into_inner());
            }
        };
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            let i = pool.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.tasks {
                break;
            }
            (job.body)(i);
        }));
        if drained.is_err() {
            pool.panicked.store(true, Ordering::Relaxed);
            // Park the counter past the end so peers stop promptly.
            pool.next.store(usize::MAX / 2, Ordering::Relaxed);
        }
        // Last touch of the job: after this increment the erased `body`
        // reference is never dereferenced again by this worker.
        let mut done = pool.done.lock().unwrap_or_else(|e| e.into_inner());
        *done += 1;
        pool.done_cv.notify_all();
    }
}

/// Partition `buf` (a row-major buffer of `rows` rows, each `width` wide)
/// into contiguous row chunks and run `f(first_row, chunk)` on each, using
/// the worker pool (up to [`num_threads`] threads).
///
/// With one thread (the default, matching the paper's setup) this is a
/// plain call with no scheduling overhead. The chunk decomposition is a
/// pure partition of the index space, so results are bit-identical at any
/// thread count.
pub fn parallel_row_chunks<T, F>(buf: &mut [T], rows: usize, width: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // Hard check (not debug_assert): the parallel path manufactures chunk
    // slices from raw offsets, so an undersized buffer must stay a
    // deterministic panic rather than become out-of-bounds writes.
    assert!(buf.len() >= rows * width, "parallel_row_chunks: buffer smaller than rows*width");
    let threads = num_threads().min(rows.max(1));
    if threads <= 1 || rows == 0 {
        f(0, buf);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let chunks = rows.div_ceil(rows_per);
    let base = buf.as_mut_ptr() as usize;
    parallel_for(threads, chunks, |ci| {
        let r0 = ci * rows_per;
        let r1 = (r0 + rows_per).min(rows);
        // SAFETY: chunk `ci` covers rows [r0, r1) — ranges for distinct
        // task indices are disjoint, and `buf` is borrowed mutably for the
        // whole region (T: Send moves the elements' access across threads).
        let chunk = unsafe {
            std::slice::from_raw_parts_mut((base as *mut T).add(r0 * width), (r1 - r0) * width)
        };
        f(r0, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_threaded() {
        // Other tests may have changed the global; force-check set/get.
        set_num_threads(1);
        assert_eq!(num_threads(), 1);
        set_num_threads(0);
        assert_eq!(num_threads(), 1, "clamped to >= 1");
    }

    #[test]
    fn chunks_cover_all_rows_single_thread() {
        set_num_threads(1);
        let mut buf = vec![0u32; 12];
        parallel_row_chunks(&mut buf, 4, 3, |r0, chunk| {
            for (i, row) in chunk.chunks_mut(3).enumerate() {
                for v in row.iter_mut() {
                    *v = (r0 + i) as u32 + 1;
                }
            }
        });
        assert_eq!(buf, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]);
    }

    #[test]
    fn chunks_cover_all_rows_multi_thread() {
        set_num_threads(3);
        let mut buf = vec![0u32; 30];
        parallel_row_chunks(&mut buf, 10, 3, |r0, chunk| {
            for (i, row) in chunk.chunks_mut(3).enumerate() {
                for v in row.iter_mut() {
                    *v = (r0 + i) as u32 + 1;
                }
            }
        });
        set_num_threads(1);
        for r in 0..10 {
            for c in 0..3 {
                assert_eq!(buf[r * 3 + c], r as u32 + 1);
            }
        }
    }

    #[test]
    fn more_threads_than_rows_is_safe() {
        set_num_threads(16);
        let mut buf = vec![0u8; 6];
        parallel_row_chunks(&mut buf, 2, 3, |_r0, chunk| {
            for v in chunk.iter_mut() {
                *v = 9;
            }
        });
        set_num_threads(1);
        assert!(buf.iter().all(|&v| v == 9));
    }

    #[test]
    fn parallel_for_visits_every_task_once() {
        set_num_threads(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(num_threads(), hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        set_num_threads(1);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} ran a wrong number of times");
        }
    }

    #[test]
    fn parallel_for_zero_and_one_tasks() {
        set_num_threads(4);
        let count = AtomicUsize::new(0);
        parallel_for(num_threads(), 0, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        parallel_for(num_threads(), 1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        set_num_threads(1);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_regions_degrade_to_serial() {
        set_num_threads(4);
        let total = AtomicUsize::new(0);
        parallel_for(num_threads(), 3, |_| {
            // A nested region must not deadlock on the pool lock.
            parallel_for(num_threads(), 5, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        set_num_threads(1);
        assert_eq!(total.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn pool_reuse_across_many_regions() {
        set_num_threads(3);
        for round in 1..20usize {
            let sum = AtomicUsize::new(0);
            parallel_for(num_threads(), round * 3, |i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            let n = round * 3;
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
        set_num_threads(1);
    }
}
