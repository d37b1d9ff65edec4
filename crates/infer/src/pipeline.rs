//! Staged pipeline executor: overlap batch N+1's front end (expansion with
//! its store reads + layer 1's neighbour aggregation) with batch N's back
//! end (`k = 0` read + GEMMs + hidden levels + write-back) on separate
//! threads.
//!
//! The pair balances itself: layer 1's neighbour mean is built by the front
//! only until the back stage waits on an empty queue (the link's `idle`
//! flag, handed to `prepare` as `StageLink::hand_off_point`), and
//! `execute` builds the rows left. Any hand-off row gives the same bits, so
//! the split is free to follow whichever stage is idle.
//!
//! The split lives in [`crate::batched`]: `BatchedEngine::split` lends the
//! engine's three parts at once — the read-only `EngineCore` both threads
//! share, the front's `FrontScratch` and the back's `BackScratch` — and
//! nothing is copied. `EngineCore::prepare` fills the front scratch into an
//! owned, `Send` `PreparedBatch`; `EngineCore::execute` consumes it with
//! the back scratch. This module provides the plumbing that connects them:
//!
//! * `StageLink` — the stage pair's protocol, written once, over one
//!   state under one lock:
//!   - the bounded (`PIPELINE_DEPTH`) queue between the stages. The bound
//!     is the backpressure: a front end that runs ahead blocks instead of
//!     staging unbounded operands.
//!   - the store-write barrier. When the engine writes to a store
//!     (`EngineCore::needs_store_barrier`), batch N+1's store probes must
//!     observe batch N's write-backs, so the front waits before prepare(N+1)
//!     until the back has retired batch N. Store-less and read-only-store
//!     configurations skip the wait and overlap fully. The barrier is *per
//!     worker*: it covers an engine's own probe-after-write ordering,
//!     including a sharded engine's cross-shard write-backs (the write lands
//!     in the owner shard's striped store before execute returns).
//!     Cross-worker visibility between shard replicas is the sharded store's
//!     own concern — its stripe locks make rows atomically visible, and
//!     `serve_sharded` routes each target to exactly one shard's worker.
//!   - the scratch-return rail: front-pool matrices the back stage finished
//!     with, recycled by the front before its next prepare.
//!   - the worker's wind-down: closed, torn down by the watchdog, or
//!     retired for good.
//!
//!   The fleet worker in [`crate::serving`] and [`run_batches`] both drive
//!   their two stage threads through it; each keeps its own control flow
//!   (supervision and accounting there, first-error-wins here) around the
//!   calls.
//! * `DispatchQueue` — the condvar work queue behind `serve_multi`'s
//!   event loop (admission, retries, abort on fleet death); replaces the
//!   old 100 µs sleep-polling loop.
//! * [`run_batches`] — the stage pair over a fixed batch list, the smallest
//!   surface on which "stage-pair output ≡ [`BatchedEngine::try_infer`]
//!   output" is pinned by test.
//!
//! # One executor, one reference
//!
//! The stage pair is the only executor. `BatchedEngine::try_infer` —
//! prepare then execute on the caller's thread — is the engine's public
//! one-thread path and the reference every equivalence suite compares the
//! pair against (DESIGN §10 records the measurement that retired the
//! one-thread *serving* worker). The pair runs *exactly* the code
//! `try_infer` runs, and batches enter prepare in submission order on a
//! single front thread, so fault draws, batch seeds and store write-backs
//! happen in the order of a `try_infer` loop: outputs are bitwise identical
//! by construction, and the equivalence tests hold the executor to it.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

use gcnp_tensor::{Matrix, ScratchPool};

use crate::batched::{BatchResult, BatchedEngine, HandOff};
use crate::error::{ServingError, ServingResult};
use crate::faults::Fault;

/// Bound on the inter-stage queue: how many prepared batches the front end
/// may run ahead of the back end. Two is enough to hide the shorter stage
/// behind the longer one; more only grows staged-operand memory.
const PIPELINE_DEPTH: usize = 2;

/// How long a blocked stage waits before re-checking the link's state. The
/// stage pair tolerates a *lost wakeup* (the `QueueWedge` fault, or
/// a missed notify under a buggy refactor) by bounding every condvar wait:
/// a dropped notification costs at most one recheck interval, never a
/// permanent wedge. The `DispatchQueue` keeps unbounded waits — its wakeup
/// count is a pinned observable and its notify paths are fault-free.
const STAGE_RECHECK: Duration = Duration::from_millis(10);

pub(crate) fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // Every lock recovered here guards plain values (a VecDeque + flags, a
    // pending slot, an accounting cell) that each critical section updates
    // in one step: a panicking holder cannot leave them logically torn, so
    // recover instead of cascading the poison.
    r.unwrap_or_else(PoisonError::into_inner)
}

type TimedWait<'a, T> = (MutexGuard<'a, T>, WaitTimeoutResult);

pub(crate) fn relock_timed<'a, T>(
    r: Result<TimedWait<'a, T>, PoisonError<TimedWait<'a, T>>>,
) -> MutexGuard<'a, T> {
    // Same poison-recovery rationale as `relock`; the timeout flag is
    // irrelevant because every bounded wait re-checks its predicate.
    r.unwrap_or_else(PoisonError::into_inner).0
}

// ---------------------------------------------------------------------------
// StageLink: the stage pair's protocol, one state under one lock
// ---------------------------------------------------------------------------

/// Everything the two stage threads of one pair share.
struct LinkState<J> {
    /// Prepared jobs waiting for the back stage, oldest first; at most
    /// [`PIPELINE_DEPTH`].
    jobs: VecDeque<J>,
    /// No more hand-offs. The front closes the link when it exits, every
    /// wind-down closes it under a running front: from then on `admit` and
    /// `hand_off` fail, and the back drains `jobs` and stops. It is also
    /// the barrier's failure flag — only the front waits at the barrier,
    /// and only a wind-down can close the link while it does.
    closed: bool,
    /// Batches the back stage retired this generation: the store-write
    /// barrier's count.
    done: u64,
    /// Front-pool buffers the back stage finished with, recycled by the
    /// front before its next prepare.
    rail: Vec<Matrix>,
    /// The worker is lost for good: a stage panicked.
    retired: bool,
    /// The pair was killed from outside the front (the watchdog's
    /// teardown); `reopen` re-arms it unless the worker is retired.
    torn: bool,
}

/// The protocol of one front/back stage pair, one method per step, over one
/// [`LinkState`] under one lock (see the module docs). Every wait is bounded
/// by [`STAGE_RECHECK`].
pub(crate) struct StageLink<J> {
    state: Mutex<LinkState<J>>, // lock: link.state
    /// The back stage waits here for a job.
    back_cv: Condvar, // lock: link.back_cv pairs link.state
    /// The front stage waits here for room in the queue or for the barrier.
    front_cv: Condvar, // lock: link.front_cv pairs link.state
    /// Set while the back stage waits in [`StageLink::next`] on an empty
    /// queue, cleared by the hand-off that queues a job: the front reads it
    /// (relaxed, without the lock) to decide where to hand a batch's layer-1
    /// means over. A stale read moves only that row, never a result.
    idle: AtomicBool,
}

impl<J> StageLink<J> {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(LinkState {
                jobs: VecDeque::new(),
                closed: false,
                done: 0,
                rail: Vec::new(),
                retired: false,
                torn: false,
            }),
            back_cv: Condvar::new(),
            front_cv: Condvar::new(),
            idle: AtomicBool::new(false),
        }
    }

    /// Front, before each prepare: when the engine writes to a store
    /// (`barrier`), wait until the back stage has retired all `staged`
    /// batches handed off so far, then recycle the buffers it returned into
    /// the front `pool`. False once the pair winds down — preparing now
    /// would probe a store the missing write-backs never reached, or stage
    /// into a closed link.
    pub(crate) fn admit(&self, barrier: bool, staged: u64, pool: &mut ScratchPool) -> bool {
        let spent = {
            let _order = gcnp_tensor::lockcheck::acquire("link.state");
            let mut s = relock(self.state.lock());
            while barrier && s.done < staged && !s.closed {
                s = relock_timed(self.front_cv.wait_timeout(s, STAGE_RECHECK));
            }
            if s.closed {
                return false;
            }
            std::mem::take(&mut s.rail)
        };
        for m in spent {
            pool.recycle(m);
        }
        true
    }

    /// Front, after a prepare that drew `fault`: stage the job for the back
    /// stage, blocking while [`PIPELINE_DEPTH`] jobs wait (the bound is the
    /// backpressure). `QueueWedge` chaos stages it without the wakeup; the
    /// back's bounded wait must recover. Returns the job once the link is
    /// closed.
    pub(crate) fn hand_off(&self, job: J, fault: Fault) -> Result<(), J> {
        let _order = gcnp_tensor::lockcheck::acquire("link.state");
        let mut s = relock(self.state.lock());
        while s.jobs.len() >= PIPELINE_DEPTH && !s.closed {
            s = relock_timed(self.front_cv.wait_timeout(s, STAGE_RECHECK));
        }
        if s.closed {
            return Err(job);
        }
        s.jobs.push_back(job);
        // audit: allow(atomic-ordering) — the idle hint orders nothing: it only picks the hand-off row, and every row gives the same bits
        self.idle.store(false, Ordering::Relaxed);
        drop(s);
        if !matches!(fault, Fault::QueueWedge) {
            self.back_cv.notify_one();
        }
        Ok(())
    }

    /// Back: the next staged job, `None` once the link is closed and
    /// drained.
    pub(crate) fn next(&self) -> Option<J> {
        let _order = gcnp_tensor::lockcheck::acquire("link.state");
        let mut s = relock(self.state.lock());
        loop {
            if let Some(job) = s.jobs.pop_front() {
                drop(s);
                self.front_cv.notify_one();
                return Some(job);
            }
            if s.closed {
                return None;
            }
            // audit: allow(atomic-ordering) — the idle hint orders nothing: it only picks the hand-off row, and every row gives the same bits
            self.idle.store(true, Ordering::Relaxed);
            s = relock_timed(self.back_cv.wait_timeout(s, STAGE_RECHECK));
        }
    }

    /// Front: where prepare hands layer 1's means over — as soon as the
    /// back stage waits in [`StageLink::next`] on an empty queue.
    pub(crate) fn hand_off_point(&self) -> HandOff<'_> {
        HandOff::WhenIdle(&self.idle)
    }

    /// Back, after each execute that left the stage alive: return the
    /// front-pool buffers the batch carried and count it past the barrier
    /// (its write-backs are visible).
    pub(crate) fn retire(&self, spent: Vec<Matrix>) {
        let _order = gcnp_tensor::lockcheck::acquire("link.state");
        let mut s = relock(self.state.lock());
        s.rail.extend(spent);
        s.done += 1;
        drop(s);
        self.front_cv.notify_one();
    }

    /// Whether the pair is still open for hand-offs.
    pub(crate) fn open(&self) -> bool {
        let _order = gcnp_tensor::lockcheck::acquire("link.state");
        !relock(self.state.lock()).closed
    }

    /// Front, on exit: the back stage drains what was staged, then stops.
    pub(crate) fn close(&self) {
        self.wind_down(|_| ());
    }

    /// Wind the pair down from outside the front (a failed execute, or the
    /// watchdog's teardown): release the front wherever it blocks, and stop
    /// the back once it has drained the queue. [`StageLink::reopen`] may
    /// re-arm the link for a fresh generation.
    pub(crate) fn kill(&self) {
        self.wind_down(|s| s.torn = true);
    }

    /// A stage panicked: the worker is lost for good, and the pair winds
    /// down as under [`StageLink::kill`]. True for the first caller only,
    /// so either stage dying loses the worker exactly once.
    pub(crate) fn lose(&self) -> bool {
        let mut first = false;
        self.wind_down(|s| first = !std::mem::replace(&mut s.retired, true));
        first
    }

    fn wind_down<F: FnOnce(&mut LinkState<J>)>(&self, mark: F) {
        let _order = gcnp_tensor::lockcheck::acquire("link.state");
        let mut s = relock(self.state.lock());
        s.closed = true;
        mark(&mut s);
        drop(s);
        self.back_cv.notify_all();
        self.front_cv.notify_all();
    }

    /// Between generations, with both stage threads joined: re-arm a link
    /// the watchdog tore down, so a fresh pair restarts its staged count
    /// from zero. False — and the worker stays down — when it is retired,
    /// or when nothing tore the link down (the pair ended on its own).
    pub(crate) fn reopen(&self) -> bool {
        let _order = gcnp_tensor::lockcheck::acquire("link.state");
        let mut s = relock(self.state.lock());
        if s.retired || !s.torn {
            return false;
        }
        s.torn = false;
        s.closed = false;
        s.done = 0;
        true
    }
}

// ---------------------------------------------------------------------------
// DispatchQueue: the serve_multi event loop's work queue
// ---------------------------------------------------------------------------

struct DispatchState<T> {
    queue: VecDeque<T>,
    /// Dispatcher finished submitting; workers drain and exit.
    closed: bool,
    /// Fleet died; everything unblocks immediately and the dispatcher
    /// sheds what remains via [`DispatchQueue::drain`].
    aborted: bool,
    /// Batches popped but not yet resolved. Workers must not exit a closed
    /// queue while work is in flight: a failed in-flight batch may be
    /// requeued for retry.
    in_flight: usize,
    /// Times a blocked consumer was woken — the observable that replaces
    /// the old 100 µs sleep-poll (which "woke" ~10 000×/s while idle).
    wakeups: u64,
}

/// Bounded condvar work queue connecting `serve_multi`'s dispatcher to its
/// worker pool: event-driven handoff (no polling), bounded admission
/// backpressure, unbounded retry requeue, in-flight tracking so retries
/// can't race shutdown, and abort-on-fleet-death.
pub(crate) struct DispatchQueue<T> {
    state: Mutex<DispatchState<T>>, // lock: dispatch.state
    can_pop: Condvar,               // lock: dispatch.can_pop pairs dispatch.state
    can_push: Condvar,              // lock: dispatch.can_push pairs dispatch.state
    cap: usize,
}

impl<T> DispatchQueue<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(DispatchState {
                queue: VecDeque::new(),
                closed: false,
                aborted: false,
                in_flight: 0,
                wakeups: 0,
            }),
            can_pop: Condvar::new(),
            can_push: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Dispatcher-side submit: blocks while the queue is at capacity
    /// (admission backpressure), returns the batch back if the fleet died.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let _order = gcnp_tensor::lockcheck::acquire("dispatch.state");
        let mut s = relock(self.state.lock());
        while s.queue.len() >= self.cap && !s.aborted {
            s = relock(self.can_push.wait(s));
        }
        if s.aborted {
            return Err(item);
        }
        s.queue.push_back(item);
        drop(s);
        self.can_pop.notify_one();
        Ok(())
    }

    /// Worker-side retry resubmit: never blocks and ignores the capacity
    /// bound (a retried batch was already admitted once) and the closed
    /// flag (retries outlive the dispatcher). Call **before**
    /// [`DispatchQueue::resolve`] so the queue is never observed empty
    /// while the retried batch is in neither `queue` nor `in_flight`.
    pub(crate) fn requeue(&self, item: T) {
        let _order = gcnp_tensor::lockcheck::acquire("dispatch.state");
        let mut s = relock(self.state.lock());
        // Enqueue even after close/abort: every queued batch is either
        // popped by a live worker or shed via `drain` — never lost.
        s.queue.push_back(item);
        drop(s);
        self.can_pop.notify_one();
    }

    /// Worker-side receive: blocks (condvar, no polling) until a batch is
    /// available. Returns `None` when the queue is closed, empty, *and*
    /// nothing is in flight (no retry can appear), or on abort. A `Some`
    /// return moves the batch into the in-flight set — the worker must
    /// [`DispatchQueue::resolve`] it exactly once.
    pub(crate) fn pop(&self) -> Option<T> {
        let _order = gcnp_tensor::lockcheck::acquire("dispatch.state");
        let mut s = relock(self.state.lock());
        loop {
            if s.aborted {
                return None;
            }
            if let Some(item) = s.queue.pop_front() {
                s.in_flight += 1;
                drop(s);
                self.can_push.notify_one();
                return Some(item);
            }
            if s.closed && s.in_flight == 0 {
                return None;
            }
            s = relock(self.can_pop.wait(s));
            s.wakeups += 1;
        }
    }

    /// A popped batch reached a terminal state for this attempt (served,
    /// requeued for retry, or shed).
    pub(crate) fn resolve(&self) {
        let _order = gcnp_tensor::lockcheck::acquire("dispatch.state");
        let mut s = relock(self.state.lock());
        s.in_flight = s.in_flight.saturating_sub(1);
        let done = s.closed && s.in_flight == 0 && s.queue.is_empty();
        drop(s);
        if done {
            // Blocked workers are waiting for retries that can no longer
            // appear — release them to exit.
            self.can_pop.notify_all();
        }
    }

    /// Dispatcher finished submitting.
    pub(crate) fn close(&self) {
        let _order = gcnp_tensor::lockcheck::acquire("dispatch.state");
        let mut s = relock(self.state.lock());
        s.closed = true;
        drop(s);
        self.can_pop.notify_all();
    }

    /// Fleet death: unblock everything; queued batches stay for
    /// [`DispatchQueue::drain`].
    pub(crate) fn abort(&self) {
        let _order = gcnp_tensor::lockcheck::acquire("dispatch.state");
        let mut s = relock(self.state.lock());
        s.aborted = true;
        drop(s);
        self.can_pop.notify_all();
        self.can_push.notify_all();
    }

    /// Take whatever is still queued (shed accounting after close/abort).
    pub(crate) fn drain(&self) -> Vec<T> {
        let _order = gcnp_tensor::lockcheck::acquire("dispatch.state");
        let mut s = relock(self.state.lock());
        s.queue.drain(..).collect()
    }

    /// Times a blocked consumer was woken (see [`DispatchState::wakeups`]).
    pub(crate) fn wakeups(&self) -> u64 {
        let _order = gcnp_tensor::lockcheck::acquire("dispatch.state");
        relock(self.state.lock()).wakeups
    }
}

// ---------------------------------------------------------------------------
// run_batches: the stage pair over a fixed batch list
// ---------------------------------------------------------------------------

/// Serve `batches` on one engine through the stage pair — prepare on a front
/// thread, execute on the calling thread — returning the per-batch results
/// in submission order. The first failing batch (by submission index)
/// aborts the run and surfaces its typed error, exactly the error a
/// [`BatchedEngine::try_infer`] loop over the same batches stops at.
///
/// Injected panics are *not* caught here (that is `serve_multi`'s job);
/// they unwind to the caller.
pub fn run_batches(
    engine: &mut BatchedEngine<'_>,
    batches: &[Vec<usize>],
) -> ServingResult<Vec<BatchResult>> {
    let (core, front, back) = engine.split();
    let barrier = core.needs_store_barrier();
    let link = StageLink::new();

    let (results, front_err, back_err) = std::thread::scope(|s| {
        let link = &link;
        let front_stage = s.spawn(move || {
            // Front stage: prepare batches in submission order. A panic in
            // prepare must still close the link, or the back stage below
            // would wait on it forever instead of letting the panic out.
            let front_err = panic::catch_unwind(AssertUnwindSafe(|| {
                for (i, targets) in batches.iter().enumerate() {
                    if !link.admit(barrier, i as u64, &mut front.pool) {
                        break; // back stage died
                    }
                    match core.prepare(targets, front, link.hand_off_point()) {
                        Ok(prep) => {
                            let fault = prep.fault();
                            if link.hand_off((i, prep), fault).is_err() {
                                break; // back stage wound the pair down
                            }
                        }
                        Err(e) => return Some((i, e)),
                    }
                }
                None
            }));
            link.close();
            front_err.unwrap_or_else(|payload| panic::resume_unwind(payload))
        });

        // Back stage runs on the calling thread.
        let mut results = Vec::with_capacity(batches.len());
        let mut back_err = None;
        while let Some((i, prep)) = link.next() {
            let mut spent = Vec::new();
            match core.execute(prep, back, &mut spent) {
                Ok(res) => results.push(res),
                Err(e) => {
                    back_err = Some((i, e));
                    link.kill();
                    break;
                }
            }
            link.retire(spent);
        }
        let front_err = front_stage
            .join()
            .unwrap_or_else(|payload| panic::resume_unwind(payload));
        (results, front_err, back_err)
    });

    // Smallest batch index wins: the error a `try_infer` loop, which can
    // only ever reach the earliest failing batch, would have surfaced.
    let first: Option<(usize, ServingError)> = [front_err, back_err]
        .into_iter()
        .flatten()
        .min_by_key(|(i, _)| *i);
    match first {
        Some((_, e)) => Err(e),
        None => Ok(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::StorePolicy;
    use crate::store::FeatureStore;
    use gcnp_models::zoo;
    use gcnp_sparse::CsrMatrix;
    use gcnp_tensor::init::seeded_rng;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    fn ring(n: usize) -> CsrMatrix {
        let mut e = Vec::new();
        for i in 0..n as u32 {
            let j = (i + 1) % n as u32;
            e.push((i, j));
            e.push((j, i));
        }
        CsrMatrix::adjacency(n, &e)
    }

    #[test]
    fn link_bounds_and_close() {
        let link: StageLink<u32> = StageLink::new();
        assert!(link.hand_off(1, Fault::None).is_ok());
        assert!(link.hand_off(2, Fault::None).is_ok());
        // A third hand-off must block until the back stage takes one.
        std::thread::scope(|s| {
            let t = s.spawn(|| link.hand_off(3, Fault::None));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!t.is_finished(), "a hand-off beyond the bound must block");
            assert_eq!(link.next(), Some(1));
            assert!(t.join().unwrap().is_ok());
        });
        link.close();
        assert_eq!(link.next(), Some(2));
        assert_eq!(link.next(), Some(3), "close drains staged jobs first");
        assert_eq!(link.next(), None);
        assert_eq!(
            link.hand_off(4, Fault::None),
            Err(4),
            "a hand-off after close returns the job"
        );
    }

    #[test]
    fn link_recovers_from_lost_wakeup() {
        // A `QueueWedge` hand-off drops the back stage's notification. The
        // bounded recheck wait must deliver the job anyway, within a few
        // recheck intervals rather than wedging forever.
        let link: StageLink<u32> = StageLink::new();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| link.next());
            std::thread::sleep(Duration::from_millis(20));
            assert!(!consumer.is_finished(), "consumer blocks while idle");
            let t = Instant::now();
            link.hand_off(9, Fault::QueueWedge).unwrap();
            assert_eq!(consumer.join().unwrap(), Some(9));
            assert!(
                t.elapsed() < STAGE_RECHECK * 20,
                "lost wakeup must be recovered by the bounded wait, took {:?}",
                t.elapsed()
            );
        });
        // That hand-off really is silent, and every other one notifies. A
        // waiter parks on `back_cv` holding the state lock until its wait
        // releases it, so the hand-off cannot slip in before it is parked:
        // it times out under `QueueWedge` and is woken otherwise.
        let notified = |fault: Fault| {
            std::thread::scope(|s| {
                let (ready, parked) = std::sync::mpsc::channel();
                let link = &link;
                let waiter = s.spawn(move || {
                    let guard = relock(link.state.lock());
                    ready.send(()).unwrap();
                    let (_guard, wait) = link
                        .back_cv
                        .wait_timeout(guard, STAGE_RECHECK * 5)
                        .unwrap_or_else(PoisonError::into_inner);
                    !wait.timed_out()
                });
                parked.recv().unwrap();
                link.hand_off(1, fault).unwrap();
                let woken = waiter.join().unwrap();
                assert_eq!(link.next(), Some(1), "queued either way");
                woken
            })
        };
        assert!(!notified(Fault::QueueWedge), "a wedged hand-off is silent");
        assert!(notified(Fault::None), "a plain hand-off wakes the consumer");
    }

    #[test]
    fn idle_flag_marks_a_consumer_waiting_on_an_empty_queue() {
        // The flag prepare reads to hand layer 1's means over: set while the
        // back stage blocks in `next` on an empty queue, cleared by the
        // hand-off that wakes it, never set by a pop that finds an item.
        let link: StageLink<u32> = StageLink::new();
        let HandOff::WhenIdle(idle) = link.hand_off_point() else {
            unreachable!("the stage pair hands off when the back is idle")
        };
        assert!(!idle.load(Ordering::Relaxed), "no consumer yet");
        std::thread::scope(|s| {
            let consumer = s.spawn(|| link.next());
            // Set under the state lock just before the consumer parks.
            while !idle.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            link.hand_off(5, Fault::None).unwrap();
            assert!(!idle.load(Ordering::Relaxed), "the hand-off clears it");
            assert_eq!(consumer.join().unwrap(), Some(5));
        });
        link.hand_off(6, Fault::None).unwrap();
        assert_eq!(link.next(), Some(6));
        assert!(!idle.load(Ordering::Relaxed), "a pop that finds an item");
    }

    #[test]
    fn link_barrier_orders_and_kills() {
        // With a store barrier the front waits in `admit` until the back
        // has retired every staged batch; the buffers the back returned
        // reach the front's pool there. A kill releases a waiting front
        // with `false`.
        let link: StageLink<u32> = StageLink::new();
        let reached = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut pool = ScratchPool::new();
                assert!(link.admit(true, 2, &mut pool));
                assert_eq!(pool.retained(), 2, "both retired buffers recycled");
                reached.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(reached.load(Ordering::SeqCst), 0);
            link.retire(vec![Matrix::zeros(1, 4)]);
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(reached.load(Ordering::SeqCst), 0, "one retire is not two");
            link.retire(vec![Matrix::zeros(2, 4)]);
        });
        assert_eq!(reached.load(Ordering::SeqCst), 1);
        let mut pool = ScratchPool::new();
        assert!(link.admit(false, 99, &mut pool), "no barrier, no wait");
        std::thread::scope(|s| {
            let front = s.spawn(|| link.admit(true, 99, &mut ScratchPool::new()));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!front.is_finished(), "the front waits at the barrier");
            link.kill();
            assert!(!front.join().unwrap(), "a kill fails the waiting front");
        });
        assert!(
            !link.admit(false, 0, &mut pool),
            "a killed link admits nothing"
        );
    }

    #[test]
    fn wind_downs_decide_the_respawn() {
        // A pair that ended on its own stays down; one the watchdog killed
        // is re-armed with a fresh barrier count; a lost worker stays down
        // and is lost exactly once, whichever stage reports it first.
        let link: StageLink<u32> = StageLink::new();
        link.close();
        assert!(!link.open());
        assert!(!link.reopen(), "a pair that closed itself is not respawned");
        link.retire(Vec::new());
        link.kill();
        assert!(link.reopen(), "a torn-down pair is respawned");
        assert!(link.open());
        let mut pool = ScratchPool::new();
        std::thread::scope(|s| {
            let front = s.spawn(|| link.admit(true, 1, &mut ScratchPool::new()));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!front.is_finished(), "the barrier count restarted at 0");
            link.retire(Vec::new());
            assert!(front.join().unwrap());
        });
        assert!(link.admit(true, 1, &mut pool));
        assert!(link.lose(), "the first stage to die loses the worker");
        assert!(!link.lose(), "the second one does not");
        link.kill();
        assert!(!link.open());
        assert!(!link.reopen(), "a lost worker is not respawned");
    }

    #[test]
    fn dispatch_queue_is_event_driven_not_polling() {
        // The old loop slept 100 µs per idle iteration: an idle 150 ms span
        // cost ~1500 wakeups. The condvar queue must wake the blocked
        // consumer O(1) times per arrival.
        let q: DispatchQueue<u32> = DispatchQueue::new(4);
        std::thread::scope(|s| {
            let consumer = s.spawn(|| q.pop());
            std::thread::sleep(Duration::from_millis(150));
            assert!(!consumer.is_finished(), "consumer blocks while idle");
            q.push(7).unwrap();
            assert_eq!(consumer.join().unwrap(), Some(7));
        });
        assert!(
            q.wakeups() <= 4,
            "idle consumer woke {} times; a polling loop would have woken ~1500",
            q.wakeups()
        );
        q.resolve();
    }

    #[test]
    fn dispatch_queue_retry_holds_shutdown_open() {
        // A worker holding an in-flight batch on a closed queue can still
        // requeue it; blocked peers must see the retry, not exit early.
        let q: DispatchQueue<u32> = DispatchQueue::new(4);
        q.push(1).unwrap();
        assert_eq!(q.pop(), Some(1));
        q.close();
        std::thread::scope(|s| {
            let peer = s.spawn(|| q.pop());
            std::thread::sleep(Duration::from_millis(20));
            assert!(!peer.is_finished(), "in-flight batch keeps peers waiting");
            q.requeue(2); // requeue-before-resolve
            q.resolve();
            assert_eq!(peer.join().unwrap(), Some(2));
        });
        q.resolve();
        assert_eq!(q.pop(), None, "closed + empty + nothing in flight");
    }

    #[test]
    fn dispatch_queue_abort_unblocks_producer_and_consumers() {
        let q: DispatchQueue<u32> = DispatchQueue::new(1);
        q.push(1).unwrap();
        std::thread::scope(|s| {
            let producer = s.spawn(|| q.push(2));
            let consumer = s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                q.abort();
                q.pop()
            });
            assert_eq!(producer.join().unwrap(), Err(2), "abort fails the push");
            assert_eq!(consumer.join().unwrap(), None, "abort drains consumers");
        });
        assert_eq!(q.drain(), vec![1], "queued work remains for shedding");
    }

    /// The reference side of every equivalence check: prepare then execute
    /// on one thread, batch by batch.
    fn try_infer_loop(
        engine: &mut BatchedEngine<'_>,
        batches: &[Vec<usize>],
    ) -> ServingResult<Vec<BatchResult>> {
        batches.iter().map(|b| engine.try_infer(b)).collect()
    }

    #[test]
    fn pipelined_matches_sequential_bitwise_with_store_writes() {
        // The barrier path: Roots write-backs make batch N+1's expansion
        // depend on batch N's writes, so this pins both the output identity
        // and the write-visibility ordering.
        let n = 60;
        let adj = ring(n);
        let x = gcnp_tensor::Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut seeded_rng(3));
        let model = zoo::graphsage(6, 8, 4, 7);
        let batches: Vec<Vec<usize>> = (0..12)
            .map(|b| vec![(b * 5) % n, (b * 5 + 2) % n])
            .collect();

        let engine = |store| {
            crate::BatchedEngine::new(&model, &adj, &x, vec![], Some(store), StorePolicy::Roots, 0)
        };
        let (seq_store, pip_store) = (FeatureStore::new(n, 2), FeatureStore::new(n, 2));
        let seq = try_infer_loop(&mut engine(&seq_store), &batches).unwrap();
        let pip = run_batches(&mut engine(&pip_store), &batches).unwrap();
        assert_eq!(seq.len(), pip.len());
        for (a, b) in seq.iter().zip(&pip) {
            assert_eq!(a.targets, b.targets);
            assert_eq!(
                a.logits.as_slice(),
                b.logits.as_slice(),
                "logits must be bitwise identical across executors"
            );
            assert_eq!(a.macs, b.macs);
            assert_eq!(a.mem_bytes, b.mem_bytes);
            assert_eq!(a.n_supporting, b.n_supporting);
            assert_eq!(a.store_hits, b.store_hits);
        }
    }

    #[test]
    fn pipelined_matches_sequential_bitwise_with_int8_engine() {
        // The quantized tier rides the same scratch rails: the stage pair
        // and a `try_infer` loop over an int8 engine must agree bitwise
        // (integer accumulation is exact, so there is no ordering slack to
        // hide in).
        let n = 60;
        let adj = ring(n);
        let x = gcnp_tensor::Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut seeded_rng(3));
        let model = zoo::graphsage(6, 8, 4, 7);
        let batches: Vec<Vec<usize>> = (0..12)
            .map(|b| vec![(b * 5) % n, (b * 5 + 2) % n])
            .collect();

        let engine = || {
            crate::BatchedEngine::new_with_precision(
                &model,
                &adj,
                &x,
                vec![],
                None,
                StorePolicy::None,
                0,
                crate::Precision::Int8,
            )
        };
        let seq = try_infer_loop(&mut engine(), &batches).unwrap();
        let pip = run_batches(&mut engine(), &batches).unwrap();
        assert_eq!(seq.len(), pip.len());
        for (a, b) in seq.iter().zip(&pip) {
            assert_eq!(a.targets, b.targets);
            assert_eq!(
                a.logits.as_slice(),
                b.logits.as_slice(),
                "int8 logits must be bitwise identical across executors"
            );
            assert_eq!(a.mem_bytes, b.mem_bytes);
        }
    }

    #[test]
    fn both_modes_surface_the_same_earliest_error() {
        let n = 30;
        let adj = ring(n);
        let x = gcnp_tensor::Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut seeded_rng(5));
        let model = zoo::graphsage(6, 8, 4, 9);
        // Batch 3 contains an out-of-range target.
        let mut batches: Vec<Vec<usize>> = (0..8).map(|b| vec![b, b + 1]).collect();
        batches[3] = vec![2, 999];
        type Runner = fn(&mut BatchedEngine<'_>, &[Vec<usize>]) -> ServingResult<Vec<BatchResult>>;
        let runners: [(&str, Runner); 2] =
            [("try_infer", try_infer_loop), ("stage pair", run_batches)];
        for (name, run) in runners {
            let mut engine =
                crate::BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
            let err = run(&mut engine, &batches).unwrap_err();
            assert_eq!(
                err,
                ServingError::TargetOutOfRange {
                    node: 999,
                    n_nodes: n
                },
                "{name}"
            );
        }
    }

    #[test]
    fn pipelined_overlaps_without_store_writes() {
        // Smoke check that the store-less path actually runs front and back
        // concurrently: with a straggle-free workload the stage pair's wall
        // clock must not exceed a one-thread `try_infer` loop's by more
        // than noise. (The throughput win is measured by the benchmark;
        // this only guards against accidental serialization, so the margin
        // is generous.)
        let n = 256;
        let adj = ring(n);
        let x = gcnp_tensor::Matrix::rand_uniform(n, 16, -1.0, 1.0, &mut seeded_rng(11));
        let model = zoo::graphsage(16, 32, 4, 13);
        let batches: Vec<Vec<usize>> = (0..24)
            .map(|b| ((b * 10)..(b * 10 + 8)).map(|v| v % n).collect())
            .collect();
        let mut engine =
            crate::BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        // Warm both pools.
        run_batches(&mut engine, &batches).unwrap();
        let t = Instant::now();
        let seq = try_infer_loop(&mut engine, &batches).unwrap();
        let t_seq = t.elapsed();
        let t = Instant::now();
        let pip = run_batches(&mut engine, &batches).unwrap();
        let t_pip = t.elapsed();
        assert_eq!(seq.len(), pip.len());
        assert!(
            t_pip <= t_seq * 3,
            "stage pair ({t_pip:?}) should not be drastically slower than one thread ({t_seq:?})"
        );
    }

    #[test]
    fn an_injected_panic_unwinds_to_the_caller() {
        // A `Panic` fault fires inside prepare, on the front thread. The
        // run must end — the back stage sees the link close — and hand the
        // panic to the caller, as a `try_infer` loop would.
        let n = 30;
        let adj = ring(n);
        let x = gcnp_tensor::Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut seeded_rng(5));
        let model = zoo::graphsage(6, 8, 4, 9);
        let batches: Vec<Vec<usize>> = (0..8).map(|b| vec![b, b + 1]).collect();
        let mut engine =
            crate::BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let plan = crate::FaultPlan {
            panics: 1,
            horizon: 3,
            seed: 1,
            ..Default::default()
        };
        engine.set_faults(plan.build().unwrap());
        let run = panic::catch_unwind(AssertUnwindSafe(|| run_batches(&mut engine, &batches)));
        let payload = run.expect_err("the injected panic reaches the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("gcnp-faults:"), "unexpected panic: {msg}");
    }
}
