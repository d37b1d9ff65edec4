//! Persistent-pool row parallelism.
//!
//! GNN kernels (GEMM, SpMM, gather, batched aggregation) are embarrassingly
//! parallel across output rows. Earlier revisions spawned a fresh
//! `crossbeam::scope` of threads on every kernel call, which put one
//! thread-spawn + join round-trip on every GEMM in the serving hot path.
//! This module instead keeps a lazily-initialized **persistent worker pool**
//! (channel-fed, sized by [`num_threads`], growable up to the largest
//! requested width) and hands it borrowed row-chunk jobs through a scoped
//! completion latch:
//!
//! * every kernel call reuses the same OS threads — no spawn cost on the
//!   hot path;
//! * jobs borrow the caller's buffers; the caller blocks on the latch until
//!   every chunk completes, which makes the lifetime erasure sound;
//! * a panicking kernel closure is caught in the worker, its payload is
//!   parked in the latch, and the **original payload** is re-raised on the
//!   calling thread once all chunks have finished — panic messages survive
//!   verbatim;
//! * one thread (`GCNP_THREADS=1`) degrades to a plain serial loop that
//!   never touches the pool, so single-threaded runs are lock-free and
//!   bit-identical to parallel runs (chunking does not change the
//!   per-row arithmetic).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Explicit thread-count override installed by [`set_num_threads`]
/// (0 = none). Benchmarks use this to sweep `GCNP_THREADS ∈ {1, 2, 4, 8}`
/// inside one process.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads used by parallel kernels.
///
/// Resolution order: [`set_num_threads`] override, then the `GCNP_THREADS`
/// environment variable, then `std::thread::available_parallelism()`.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        if let Ok(v) = std::env::var("GCNP_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Override the kernel thread count for this process (benchmarking knob;
/// takes precedence over `GCNP_THREADS`). `set_num_threads(1)` forces the
/// serial path; `set_num_threads(0)` clears the override, restoring the
/// `GCNP_THREADS`/`available_parallelism` default.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

type Job = Box<dyn FnOnce() + Send>;

/// The shared job queue feeding the persistent workers.
#[derive(Default)]
struct Queue {
    jobs: Mutex<VecDeque<Job>>, // lock: pool.jobs
    available: Condvar,         // lock: pool.available pairs pool.jobs
}

struct Pool {
    queue: Arc<Queue>,
    /// Workers spawned so far; grows up to the largest width requested.
    spawned: Mutex<usize>, // lock: pool.spawned
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Arc::new(Queue::default()),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Make sure at least `want` workers are alive.
    fn ensure_workers(&self, want: usize) {
        let _order = crate::lockcheck::acquire("pool.spawned");
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < want {
            let queue = Arc::clone(&self.queue);
            let id = *spawned;
            std::thread::Builder::new()
                .name(format!("gcnp-kernel-{id}"))
                .spawn(move || worker_loop(&queue))
                .expect("gcnp-tensor: failed to spawn kernel worker");
            *spawned += 1;
        }
    }

    fn submit(&self, job: Job) {
        let order = crate::lockcheck::acquire("pool.jobs");
        self.queue.jobs.lock().unwrap().push_back(job);
        drop(order);
        self.queue.available.notify_one();
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let _order = crate::lockcheck::acquire("pool.jobs");
            let mut jobs = queue.jobs.lock().unwrap();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = queue.available.wait(jobs).unwrap();
            }
        };
        job();
    }
}

/// Completion latch for one `parallel_row_chunks` call: counts outstanding
/// chunk jobs and parks the first panic payload for re-raise on the caller.
struct ScopeLatch {
    state: Mutex<LatchState>, // lock: latch.state
    done: Condvar,            // lock: latch.done pairs latch.state
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl ScopeLatch {
    fn new(jobs: usize) -> Self {
        ScopeLatch {
            state: Mutex::new(LatchState {
                remaining: jobs,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Record one finished chunk (and its panic payload, if any).
    fn complete(&self, payload: Option<Box<dyn Any + Send>>) {
        let _order = crate::lockcheck::acquire("latch.state");
        let mut s = self.state.lock().unwrap();
        if s.panic.is_none() {
            s.panic = payload;
        }
        s.remaining -= 1;
        if s.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every chunk has completed, then re-raise the first
    /// captured panic payload, preserving the original message.
    fn wait(&self) {
        let order = crate::lockcheck::acquire("latch.state");
        let mut s = self.state.lock().unwrap();
        while s.remaining > 0 {
            s = self.done.wait(s).unwrap();
        }
        let panic = s.panic.take();
        drop(s);
        drop(order);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
    }
}

/// Split `out` (an output buffer laid out as `rows` rows of `row_len`) into
/// contiguous row chunks and run `f(chunk_start_row, chunk)` on each, in
/// parallel on the persistent pool when more than one thread is configured.
///
/// The closure receives the absolute starting row index of its chunk so it
/// can index shared read-only inputs. Chunk boundaries depend only on the
/// thread count, and each output row is written by exactly one closure
/// invocation, so results are bitwise identical across thread counts.
///
/// # Panics
/// Re-raises the first panic raised by `f`, with its original payload.
///
/// Shapes: `out.len()` must equal `rows * row_len`; each chunk is a whole number of rows.
pub fn parallel_row_chunks<F>(out: &mut [f32], rows: usize, row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    parallel_row_chunks_aligned(out, rows, row_len, 1, f)
}

/// [`parallel_row_chunks`] with chunk boundaries rounded up to a multiple of
/// `align` rows. The blocked GEMMs use `align =` their tile height (`MR`,
/// `QMR`) so no microkernel strip ever straddles two threads' chunks (the
/// last chunk may still be ragged — its edge strip goes through the
/// kernel's stack tile). `align = 1` is exactly [`parallel_row_chunks`].
///
/// # Panics
/// Re-raises the first panic raised by `f`, with its original payload.
///
/// Shapes: `out.len()` must equal `rows * row_len`; each chunk is a whole number of rows.
pub fn parallel_row_chunks_aligned<F>(
    out: &mut [f32],
    rows: usize,
    row_len: usize,
    align: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        rows * row_len,
        "parallel_row_chunks: buffer shape mismatch"
    );
    if rows == 0 || row_len == 0 {
        return; // degenerate output: nothing to fill
    }
    let align = align.max(1);
    let threads = num_threads().min(rows.div_ceil(align));
    if threads <= 1 {
        f(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(threads).div_ceil(align) * align;
    let mut chunks: Vec<(usize, &mut [f32])> = out
        .chunks_mut(chunk_rows * row_len)
        .enumerate()
        .map(|(i, chunk)| (i * chunk_rows, chunk))
        .collect();
    let n_chunks = chunks.len();
    let latch = Arc::new(ScopeLatch::new(n_chunks));
    let pool = pool();
    pool.ensure_workers(n_chunks - 1);

    // The caller keeps the first chunk for itself; the rest go to the pool.
    let (start0, chunk0) = chunks.remove(0);
    let f = &f;
    for (start, chunk) in chunks {
        let latch = Arc::clone(&latch);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(start, chunk)));
            latch.complete(result.err());
        });
        // SAFETY: the job borrows `out` and `f`, which outlive this call;
        // `latch.wait()` below blocks (without panicking) until every job
        // has run to completion, so no borrow escapes the call. Panics
        // inside jobs are caught before unwinding past the borrow.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
        };
        pool.submit(job);
    }
    // Run the caller's own chunk inline, then wait for the pool's chunks.
    let inline_result = panic::catch_unwind(AssertUnwindSafe(|| f(start0, chunk0)));
    latch.complete(inline_result.err());
    latch.wait();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thread override is process-global; serialize tests that set it
    /// (results are thread-count-invariant, but the tests below assert
    /// pool-path behavior specifically).
    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(n);
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        set_num_threads(0);
        match result {
            Ok(v) => v,
            Err(p) => panic::resume_unwind(p),
        }
    }

    #[test]
    fn covers_all_rows_once() {
        // Force the pool path even on single-core machines.
        with_threads(4, || {
            let rows = 103;
            let row_len = 7;
            let mut out = vec![0.0f32; rows * row_len];
            parallel_row_chunks(&mut out, rows, row_len, |start, chunk| {
                for (r, row) in chunk.chunks_mut(row_len).enumerate() {
                    for v in row.iter_mut() {
                        *v += (start + r) as f32;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..row_len {
                    assert_eq!(out[r * row_len + c], r as f32);
                }
            }
        });
    }

    #[test]
    fn zero_rows_is_noop() {
        let mut out: Vec<f32> = vec![];
        parallel_row_chunks(&mut out, 0, 5, |_, _| {});
    }

    #[test]
    fn num_threads_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn pool_is_reused_across_many_calls() {
        // Hammer the pool; with per-call spawning this test is visibly slow,
        // with the persistent pool it is instant. Correctness check: every
        // call sees a consistent buffer.
        with_threads(4, || {
            let rows = 64;
            let mut out = vec![0.0f32; rows];
            for i in 0..200 {
                parallel_row_chunks(&mut out, rows, 1, |start, chunk| {
                    for (r, v) in chunk.iter_mut().enumerate() {
                        *v = (start + r + i) as f32;
                    }
                });
                assert_eq!(out[rows - 1], (rows - 1 + i) as f32);
            }
        });
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Chunk boundaries depend only on the thread count, and each row is
        // produced by one closure call — outputs must be bitwise equal.
        let rows = 211;
        let row_len = 13;
        let fill = |out: &mut [f32]| {
            parallel_row_chunks(out, rows, row_len, |start, chunk| {
                for (r, row) in chunk.chunks_mut(row_len).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = ((start + r) * 31 + c) as f32 * 0.5;
                    }
                }
            });
        };
        let mut serial = vec![0.0f32; rows * row_len];
        with_threads(1, || fill(&mut serial));
        for t in [2, 4, 8] {
            let mut parallel = vec![0.0f32; rows * row_len];
            with_threads(t, || fill(&mut parallel));
            assert_eq!(serial, parallel, "thread count {t} changed the result");
        }
    }

    #[test]
    fn aligned_chunks_start_on_multiples() {
        // Every chunk except possibly the last must start at a multiple of
        // `align` and span a multiple of `align` rows.
        with_threads(4, || {
            for (rows, align) in [(103, 8), (9, 8), (64, 8), (17, 5), (8, 8)] {
                let mut out = vec![0.0f32; rows];
                let starts = Mutex::new(Vec::new());
                parallel_row_chunks_aligned(&mut out, rows, 1, align, |start, chunk| {
                    starts.lock().unwrap().push((start, chunk.len()));
                    for (r, v) in chunk.iter_mut().enumerate() {
                        *v = (start + r) as f32;
                    }
                });
                let mut starts = starts.into_inner().unwrap();
                starts.sort_unstable();
                let mut expect_start = 0;
                for (i, &(start, len)) in starts.iter().enumerate() {
                    assert_eq!(start, expect_start, "rows={rows} align={align}");
                    assert_eq!(start % align, 0, "chunk start off alignment");
                    if i + 1 < starts.len() {
                        assert_eq!(len % align, 0, "interior chunk not aligned");
                    }
                    expect_start += len;
                }
                assert_eq!(expect_start, rows, "chunks must tile all rows");
                for (r, v) in out.iter().enumerate() {
                    assert_eq!(*v, r as f32);
                }
            }
        });
    }

    #[test]
    fn worker_panic_payload_survives() {
        // The original panic message must propagate to the caller — the old
        // implementation lost it behind `.expect("parallel worker panicked")`.
        with_threads(4, || {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut out = vec![0.0f32; 128];
                parallel_row_chunks(&mut out, 128, 1, |start, _chunk| {
                    panic!("kernel exploded at row {start}");
                });
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic payload should be the formatted message");
            assert!(
                msg.contains("kernel exploded at row"),
                "payload lost the original message: {msg}"
            );
        });
    }

    #[test]
    fn panic_in_one_chunk_still_completes_others() {
        // Rows far from the panicking chunk must still be written before the
        // panic is re-raised (the latch waits for all chunks).
        with_threads(4, || {
            let rows = 97;
            let mut out = vec![0.0f32; rows];
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_row_chunks(&mut out, rows, 1, |start, chunk| {
                    if start == 0 {
                        panic!("first chunk dies");
                    }
                    for (r, v) in chunk.iter_mut().enumerate() {
                        *v = (start + r) as f32;
                    }
                });
            }));
            assert!(result.is_err());
            assert_eq!(
                out[rows - 1],
                (rows - 1) as f32,
                "other chunks ran to completion"
            );
        });
    }
}
