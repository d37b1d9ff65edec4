//! Persistent-pool row parallelism.
//!
//! GNN kernels (GEMM, SpMM, gather, batched aggregation) are embarrassingly
//! parallel across output rows. Earlier revisions spawned a fresh
//! `crossbeam::scope` of threads on every kernel call, which put one
//! thread-spawn + join round-trip on every GEMM in the serving hot path.
//! This module instead keeps a lazily-initialized **persistent worker pool**
//! (channel-fed, sized by [`num_threads`], growable up to the largest
//! requested width) and hands it borrowed jobs through a scoped completion
//! latch:
//!
//! * every kernel call reuses the same OS threads — no spawn cost on the
//!   hot path;
//! * **rows are claimed at run time, not split once per thread.** A call
//!   cuts its rows into `CHUNKS_PER_THREAD` chunks per thread; the caller
//!   and `threads − 1` pool jobs take chunk indices from one atomic counter
//!   until none are left. A thread that is descheduled, or a vCPU that
//!   loses time to its host, holds up one small chunk instead of a
//!   `1 / threads` share of the call, because the others take the rest;
//! * jobs borrow the caller's buffers; the caller blocks on the latch until
//!   every job has finished, which makes the lifetime erasure sound;
//! * a panicking kernel closure is caught, its payload is parked in the
//!   latch, and the **original payload** is re-raised on the calling thread
//!   once every job has finished — panic messages survive verbatim. The
//!   panicking thread claims no further chunk; the threads still running
//!   take what is left;
//! * one thread (`GCNP_THREADS=1`) degrades to a plain serial loop that
//!   never touches the pool.
//!
//! **Why the bits hold.** Each row is written by exactly one closure call,
//! and every kernel's per-row arithmetic reads only shared inputs and that
//! row's position — never which chunk holds it, how long the chunk is or
//! which thread claimed it. So outputs are bitwise identical across thread
//! counts and across the order in which chunks are claimed, and the serial
//! loop at one thread is the same arithmetic over one chunk.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
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

/// Completion latch for one `parallel_row_chunks` call: counts its
/// outstanding claiming loops (the pool's jobs and the caller's own) and
/// parks the first panic payload for re-raise on the caller.
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

    /// Record one finished claiming loop (and its panic payload, if any).
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

    /// Block until every claiming loop has finished, then re-raise the first
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
/// can index shared read-only inputs. Each output row is written by exactly
/// one closure invocation, so as long as `f`'s arithmetic for a row does not
/// depend on the chunk it sits in, results are bitwise identical across
/// thread counts and across the run-time order in which chunks are claimed.
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

/// Chunks each thread's share of a parallel call is cut into, so a thread
/// that finishes early claims work a slower one would otherwise hold.
const CHUNKS_PER_THREAD: usize = 8;

/// [`parallel_row_chunks`] with chunk boundaries on multiples of `align`
/// rows. The blocked GEMMs use `align =` their tile height (`MR`, `QMR`) so
/// no microkernel strip ever straddles two chunks (the last chunk may still
/// be ragged — its edge strip goes through the kernel's stack tile).
/// `align = 1` is exactly [`parallel_row_chunks`].
///
/// With more than one thread the rows are cut into up to
/// `threads · CHUNKS_PER_THREAD` chunks that the calling thread and the
/// pool's jobs claim at run time; the closure sees each chunk once, in no
/// fixed order and on no fixed thread.
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
    let units = rows.div_ceil(align);
    let threads = num_threads().min(units);
    if threads <= 1 {
        f(0, out);
        return;
    }
    let chunk_rows = units.div_ceil(threads * CHUNKS_PER_THREAD) * align;
    let claim = ChunkClaim::new(out, row_len, chunk_rows);
    let latch = Arc::new(ScopeLatch::new(threads));
    let pool = pool();
    pool.ensure_workers(threads - 1);

    // Every participant claims chunks until none are left; a panic ends its
    // own loop and is parked in the latch.
    let (claim, f) = (&claim, &f);
    let work = move || {
        while let Some((start, chunk)) = claim.next_chunk() {
            f(start, chunk);
        }
    };
    for _ in 1..threads {
        let latch = Arc::clone(&latch);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(work));
            latch.complete(result.err());
        });
        // SAFETY: the job borrows `out` (through `claim`) and `f`, which
        // outlive this call; `latch.wait()` below blocks (without
        // panicking) until every job has run to completion, so no borrow
        // escapes the call. Panics inside jobs are caught before unwinding
        // past the borrow.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
        };
        pool.submit(job);
    }
    // Claim chunks inline too, then wait for the pool's jobs.
    let inline_result = panic::catch_unwind(AssertUnwindSafe(work));
    latch.complete(inline_result.err());
    latch.wait();
}

/// The shared state of one claimed-chunk call: the output buffer, held as a
/// base pointer for the call's lifetime `'a`, its geometry, and the index
/// of the next unclaimed chunk. Chunk `i` is rows `i · chunk_rows ..` up to
/// `rows`.
struct ChunkClaim<'a> {
    base: *mut f32,
    rows: usize,
    row_len: usize,
    chunk_rows: usize,
    n_chunks: usize,
    next: AtomicUsize,
    _out: PhantomData<&'a mut [f32]>,
}

// SAFETY: `base` is the caller's `&'a mut [f32]`, borrowed exclusively for
// `'a` (the `PhantomData`), so nothing else reaches it meanwhile. Threads
// touch it only through `next_chunk`, which hands each chunk index to
// exactly one claimer, and chunks are disjoint, so no element is reached
// from two threads. The other fields are plain values and an atomic.
unsafe impl Sync for ChunkClaim<'_> {}

impl<'a> ChunkClaim<'a> {
    /// `out` (whole rows of `row_len`) cut into chunks of `chunk_rows` rows.
    fn new(out: &'a mut [f32], row_len: usize, chunk_rows: usize) -> Self {
        let rows = out.len() / row_len;
        ChunkClaim {
            base: out.as_mut_ptr(),
            rows,
            row_len,
            chunk_rows,
            n_chunks: rows.div_ceil(chunk_rows),
            next: AtomicUsize::new(0),
            _out: PhantomData,
        }
    }

    /// Claim the next chunk: its first row and its rows of `out`, or `None`
    /// once every chunk is taken.
    fn next_chunk(&self) -> Option<(usize, &'a mut [f32])> {
        // The counter only hands out indices: `fetch_add` is atomic at any
        // ordering, so each index reaches one claimer, and no data is
        // published through it — the chunks' writes reach the caller
        // through the latch's mutex.
        let i = self.next.fetch_add(1, Ordering::Relaxed); // audit: allow(atomic-ordering) — a claim ticket; the latch orders the writes
        if i >= self.n_chunks {
            return None;
        }
        let start = i * self.chunk_rows;
        let len = self.chunk_rows.min(self.rows - start);
        // SAFETY: `start + len ≤ rows`, so the range lies within the
        // `rows · row_len` elements behind `base`; index `i` was handed to
        // this caller alone, and chunks `[i · chunk_rows, + chunk_rows)` are
        // disjoint, so this is the only live reference to these elements.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(self.base.add(start * self.row_len), len * self.row_len)
        };
        Some((start, chunk))
    }
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
        // Each row is produced by one closure call, whichever chunk holds it
        // and whichever thread claims that chunk — outputs must be bitwise
        // equal.
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
        // Chunks are claimed at run time, in no fixed order: sorted by
        // start, every chunk must start at a multiple of `align`, every
        // chunk except the last must span a multiple of `align` rows, and
        // together they cover every row exactly once. A call is cut into at
        // most `CHUNKS_PER_THREAD` chunks per thread, and into at least one
        // per thread when there are enough aligned rows.
        with_threads(4, || {
            for (rows, align) in [(103, 8), (9, 8), (64, 8), (17, 5), (8, 8), (1000, 6)] {
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
                let threads = num_threads().min(rows.div_ceil(align));
                assert!(
                    (threads..=threads * CHUNKS_PER_THREAD).contains(&starts.len()),
                    "rows={rows} align={align}: {} chunks on {threads} threads",
                    starts.len()
                );
                for (r, v) in out.iter().enumerate() {
                    assert_eq!(*v, r as f32);
                }
            }
        });
    }

    #[test]
    fn a_stalled_chunk_leaves_the_rest_to_other_threads() {
        // The chunk at row 0 (claimed first) blocks until every other row
        // has been written. Under a fixed split its thread would own more
        // rows than that one chunk and wait for itself forever; with
        // claimed chunks the other threads take all the rest. The wait is
        // on a counter, not on a timing guess, with a generous deadline
        // only so a regression fails instead of hanging.
        let rows = 211;
        let row_len = 13;
        let value = |r: usize, c: usize| ((r * 31 + c) as f32).sqrt() * 0.37;
        let fill = |out: &mut [f32]| {
            let written = AtomicUsize::new(0);
            let claimed_by = Mutex::new(Vec::new());
            parallel_row_chunks(out, rows, row_len, |start, chunk| {
                let here = std::thread::current().id();
                let len = chunk.len() / row_len;
                if start == 0 {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                    while written.load(Ordering::Acquire) < rows - len {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "the stalled chunk's rows were never taken by another thread"
                        );
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                for (r, row) in chunk.chunks_mut(row_len).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = value(start + r, c);
                    }
                }
                claimed_by.lock().unwrap().push((start, here));
                written.fetch_add(len, Ordering::Release);
            });
            claimed_by.into_inner().unwrap()
        };
        let mut serial = vec![0.0f32; rows * row_len];
        with_threads(1, || fill(&mut serial));
        for t in [2, 4] {
            let mut parallel = vec![0.0f32; rows * row_len];
            let claimed_by = with_threads(t, || fill(&mut parallel));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&serial), bits(&parallel), "threads={t}");
            let stalled = claimed_by.iter().find(|(start, _)| *start == 0).unwrap().1;
            let by_stalled = claimed_by.iter().filter(|(_, id)| *id == stalled).count();
            assert_eq!(
                by_stalled, 1,
                "threads={t}: the stalled thread took only its chunk"
            );
            assert!(
                claimed_by.len() > t,
                "threads={t}: more chunks than threads"
            );
        }
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
