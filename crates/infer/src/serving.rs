//! Real-time serving: Poisson request arrivals, micro-batching, bounded
//! admission, per-request deadlines, and one fleet executor with three
//! routings — any worker, owner shard, and a degradation ladder.
//!
//! The paper's real-time applications (Table 1: recommendation, spam
//! detection) serve *requests*, not pre-formed batches. A seeded Poisson
//! trace is coalesced into micro-batches bounded by `max_batch` and
//! `max_wait` and executed by engines on real threads; a request's latency
//! runs from its arrival to its batch's commit (wall-clock meaningful under
//! [`ServingConfig::pace`]). Overload is explicit, never fail-stop: the
//! admission queue is bounded ([`ServingConfig::queue_cap`]), a request
//! projected past its [`ServingConfig::deadline`] is shed and counted, and
//! one served late anyway is counted too.
//!
//! # Batch-window anchoring
//!
//! The dispatcher forms every batch with the one `BatchFormer`: a
//! micro-batch opens when its first request has arrived **and a server slot
//! is free** (`open = max(first_arrival, free_at)`), closes `max_wait`
//! later (or as soon as it fills to `max_batch`), admits arrivals inside
//! the window subject to the bounded queue, and sheds members whose
//! projected completion is past their deadline. `free_at` is the
//! earliest-free **virtual** worker clock, advanced per dispatched batch by
//! an EWMA compute estimate. The estimate starts at zero and is only ever
//! what the fleet measured: its first busy time replaces the zero, later
//! ones blend in. On a pre-arrived burst anchoring cannot depend on compute
//! timing, so formation is exact and repeatable.
//!
//! # One fleet executor, three routings
//!
//! [`serve_multi`], [`serve_sharded`] and [`serve_tiered`] are the same
//! executor (`run_fleet`); they differ only in how engines are grouped into
//! *routing groups* and how a sealed window is routed. `AnyWorker` is one
//! group holding every engine (any idle replica takes the next batch).
//! `OwnerShard(assign)` is one group per engine: the dispatcher splits each
//! window stably by its targets' owner shard, so one shard is the
//! single-group fleet, not a special case. `Ladder(policy)` is one group
//! per tier of successively heavier-pruned engines (channel pruning's
//! bounded-accuracy-loss lever, Fig. 5): the dispatcher picks a tier from
//! the queue depth and routes the whole window there, and the tiers share
//! one virtual free clock, since they model one server switching models.
//!
//! * **Per group** — the bounded condvar `DispatchQueue` (the admission
//!   backpressure; workers block on it, no polling), the liveness count (the
//!   last worker of a group to die aborts only that group's queue: its
//!   routed requests are shed and counted), the compute-estimate EWMA fed
//!   by the group's own workers, and the served count.
//! * **Shared** — the batch former, every other accounting cell of the
//!   report, and the supervisor. A batch carries its group index, so
//!   retries and watchdog steals re-enter its own group's queue:
//!   write-backs and store probes keep their owner routing, and
//!   supervision works under every routing.
//!
//! There is one executor. Every worker is a stage pair: a **front** thread
//! (`EngineCore::prepare`: expansion with its store reads + layer 1's
//! neighbour aggregation) and a **back** thread (`EngineCore::execute`:
//! the neighbour-mean rows the front left + `k = 0` read + GEMMs + hidden
//! levels + write-back) joined by a `pipeline::StageLink`, so batch N+1's
//! neighbour sum overlaps batch N's GEMMs, and the mean goes to whichever
//! thread is free. The pair runs
//! exactly the prepare/execute code [`BatchedEngine::try_infer`] runs on
//! one thread, so outputs are bitwise identical to it, and it feeds the
//! compute estimate a batch's whole prepare + execute busy span.
//!
//! The fleet **survives worker panics**: each stage runs under
//! `catch_unwind`, a crashed worker's in-flight batch is requeued with a
//! retry cap, and the fleet finishes the trace with fewer workers. Every
//! request is served or shed and counted: `served + shed + shed_queue +
//! shed_deadline == n_requests`.

use crate::batched::{BackScratch, BatchedEngine, EngineCore, FrontScratch, PreparedBatch};
use crate::error::{ServingError, ServingResult};
use crate::faults::Fault;
use crate::metrics::ServingMetrics;
use crate::pipeline::{relock, DispatchQueue, StageLink};
use crate::supervisor::{supervise, PendingSlot, WorkerWatch};
use gcnp_obs::{percentile, Counter};
use gcnp_tensor::init::seeded_rng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Safety factor applied to the per-group compute-time estimate when
/// projecting a queued request's completion against its deadline: shedding
/// slightly early keeps the *served* latency distribution under the
/// deadline even when a batch runs somewhat over its estimate.
const DEADLINE_EST_SAFETY: f64 = 1.25;

/// EWMA weight of the newest batch compute observation in the per-group
/// compute-time estimate (the "p99 estimate" driving deadline projection).
const EST_ALPHA: f64 = 0.3;

/// Backoff before a failed batch is re-queued (seconds), doubled per retry
/// up to [`MAX_BACKOFF_SECS`] — a poison-pill batch cannot spin the fleet.
const BACKOFF_SECS: f64 = 1e-3;

/// Upper bound on a single retry backoff (seconds): a poison-pill batch
/// burns its retries quickly instead of stalling a worker.
const MAX_BACKOFF_SECS: f64 = 0.1;

/// Micro-batching + admission policy.
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Mean request arrival rate (requests / second).
    pub arrival_rate: f64,
    /// Maximum micro-batch size.
    pub max_batch: usize,
    /// Maximum time a request may wait for batch-mates (seconds).
    pub max_wait: f64,
    /// Number of requests in the arrival trace.
    pub n_requests: usize,
    pub seed: u64,
    /// Per-request deadline (seconds from arrival). A queued request whose
    /// projected completion (batch open + estimated compute) is past its
    /// deadline is shed at batch formation and counted in
    /// [`MultiServingReport::shed_deadline`]; a served request whose
    /// latency still exceeds it is counted in
    /// [`MultiServingReport::deadline_misses`]. `None` disables deadlines.
    pub deadline: Option<f64>,
    /// Bound on the admission queue (requests waiting to be batched).
    /// Arrivals beyond it are shed on admission and counted in
    /// [`MultiServingReport::shed_queue`]. `None` means unbounded.
    pub queue_cap: Option<usize>,
    /// How many times a batch whose worker panicked (or whose `try_infer`
    /// errored) is re-queued before being shed.
    pub retry_cap: u32,
    /// When true, the dispatcher replays the arrival trace in real time
    /// (sleeping until each batch's start time), so the reported latency
    /// percentiles are wall-clock meaningful. When false (default) the
    /// trace is drained as fast as the fleet allows — throughput-oriented,
    /// percentiles only relative.
    pub pace: bool,
    /// Watchdog bound in seconds. A batch whose stage has made no
    /// progress for longer than this is presumed wedged: the supervisor
    /// tears the stage pair down, requeues the batch through the normal
    /// retry path, and respawns the pair. `None` (default)
    /// disables the watchdog, and no supervisor thread is spawned.
    pub watchdog: Option<f64>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            arrival_rate: 500.0,
            max_batch: 64,
            max_wait: 0.02,
            n_requests: 1000,
            seed: 0,
            deadline: None,
            queue_cap: None,
            retry_cap: 3,
            pace: false,
            watchdog: None,
        }
    }
}

impl ServingConfig {
    fn validate(&self, pool: &[usize]) -> ServingResult<()> {
        if pool.is_empty() {
            return Err(ServingError::EmptyPool);
        }
        if !self.arrival_rate.is_finite() || self.arrival_rate <= 0.0 {
            return Err(ServingError::InvalidConfig(format!(
                "arrival_rate must be > 0, got {}",
                self.arrival_rate
            )));
        }
        if self.n_requests == 0 {
            return Err(ServingError::InvalidConfig("n_requests must be > 0".into()));
        }
        if self.max_batch == 0 {
            return Err(ServingError::InvalidConfig("max_batch must be > 0".into()));
        }
        if self.max_wait < 0.0 {
            return Err(ServingError::InvalidConfig(format!(
                "max_wait must be >= 0, got {}",
                self.max_wait
            )));
        }
        if let Some(d) = self.deadline {
            if !d.is_finite() || d <= 0.0 {
                return Err(ServingError::InvalidConfig(format!(
                    "deadline must be > 0, got {d}"
                )));
            }
        }
        if self.queue_cap == Some(0) {
            return Err(ServingError::InvalidConfig("queue_cap must be > 0".into()));
        }
        if let Some(w) = self.watchdog {
            if !w.is_finite() || w <= 0.0 {
                return Err(ServingError::InvalidConfig(format!(
                    "watchdog must be > 0 seconds, got {w}"
                )));
            }
        }
        Ok(())
    }

    /// The seeded Poisson arrival trace `(arrival_time, node)` the fleet
    /// replays.
    fn arrivals(&self, pool: &[usize]) -> Vec<(f64, usize)> {
        let mut rng = seeded_rng(self.seed);
        let mut arrivals = Vec::with_capacity(self.n_requests);
        let mut t = 0.0f64;
        for _ in 0..self.n_requests {
            let u: f64 = rng.random_range(f64::EPSILON..1.0);
            t += -u.ln() / self.arrival_rate;
            arrivals.push((t, pool[rng.random_range(0..pool.len())])); // audit: allow(no-fail-stop) — pool verified non-empty by validate()
        }
        arrivals
    }
}

/// Tier-switch policy for the degradation ladder (see [`serve_tiered`]).
#[derive(Debug, Clone, Copy)]
pub struct LadderPolicy {
    /// Queue depth (requests admitted and waiting when a batch is formed)
    /// at or above which the server steps down to the next cheaper tier.
    /// Stepping down repeats while the depth stays above the threshold, so
    /// a sudden overload drops straight to the cheapest tier.
    pub step_down_depth: usize,
    /// Queue depth at or below which the server steps back up one tier.
    pub step_up_depth: usize,
    /// Batches that must be served on the current tier before stepping back
    /// *up* (hysteresis against flapping). Stepping down is never delayed.
    pub min_dwell: usize,
}

impl Default for LadderPolicy {
    fn default() -> Self {
        Self {
            step_down_depth: 128,
            step_up_depth: 8,
            min_dwell: 4,
        }
    }
}

/// One admission window produced by [`BatchFormer::admit`]: the batch being
/// formed opened at `open = max(first_arrival, free_at)` and closes at
/// `open + max_wait` (or as soon as it fills).
struct Window {
    open: f64,
    close: f64,
}

/// A sealed, non-empty micro-batch out of [`BatchFormer::next_batch`].
struct FormedBatch {
    nodes: Vec<usize>,
    /// Arrival time of each member (latency accounting).
    arrivals: Vec<f64>,
    /// When its compute may start on the dispatcher's virtual clock.
    start: f64,
    /// The compute estimate it was projected with (the dispatcher advances
    /// its virtual clocks by the same number).
    est: f64,
}

/// The fleet dispatcher's batch former (see the module docs). Owns the
/// admission queue, the trace cursor, and the formation-time shed
/// accounting.
struct BatchFormer<'c> {
    arrivals: &'c [(f64, usize)],
    cfg: &'c ServingConfig,
    queue_cap: usize,
    /// Next arrival not yet admitted.
    i: usize,
    queue: VecDeque<(f64, usize)>,
    shed_queue: usize,
    shed_deadline: usize,
}

impl<'c> BatchFormer<'c> {
    fn new(arrivals: &'c [(f64, usize)], cfg: &'c ServingConfig) -> Self {
        Self {
            arrivals,
            cfg,
            queue_cap: cfg.queue_cap.unwrap_or(usize::MAX),
            i: 0,
            queue: VecDeque::new(),
            shed_queue: 0,
            shed_deadline: 0,
        }
    }

    /// Form the next batch against the server-free clock: admit a window,
    /// ask `estimate` for the compute seconds to project with, seal, and
    /// fix the start time. `estimate` sees the admitted queue depth (the
    /// ladder's load signal). A window whose members were all shed is
    /// skipped and the next one anchors on the next survivor. Returns
    /// `None` when the trace is exhausted and nothing is queued — the
    /// serving loop is done.
    fn next_batch(
        &mut self,
        free_at: f64,
        mut estimate: impl FnMut(usize) -> f64,
        obs: Option<&ServingMetrics>,
    ) -> Option<FormedBatch> {
        loop {
            let w = self.admit(free_at, obs)?;
            let est = estimate(self.queue.len());
            let (nodes, arrivals) = self.seal(&w, est, obs);
            if nodes.is_empty() {
                continue;
            }
            // Compute starts when the batch is sealed: a batch that filled
            // to `max_batch` is sealed by its last (latest-arriving)
            // member, a non-full batch only when its window closes at
            // `open + max_wait`.
            let start = if nodes.len() == self.cfg.max_batch {
                arrivals.iter().fold(w.open, |acc, &t| acc.max(t))
            } else {
                w.close
            };
            return Some(FormedBatch {
                nodes,
                arrivals,
                start,
                est,
            });
        }
    }

    /// Open the next batch window against the server-free clock and admit
    /// every arrival inside it (bounded queue; overflow is shed and
    /// counted). Returns `None` when the trace is exhausted and nothing is
    /// queued.
    fn admit(&mut self, free_at: f64, obs: Option<&ServingMetrics>) -> Option<Window> {
        // The window anchors on the oldest waiting request; pull one from
        // the trace when the queue is idle.
        if self.queue.is_empty() {
            let &(t, v) = self.arrivals.get(self.i)?;
            self.queue.push_back((t, v));
            self.i += 1;
        }
        let first_arrival = self.queue.front().map(|&(t, _)| t).unwrap_or(0.0);
        let open = first_arrival.max(free_at);
        let close = open + self.cfg.max_wait;
        while let Some(&(t, v)) = self.arrivals.get(self.i) {
            if t > close {
                break;
            }
            if self.queue.len() < self.queue_cap {
                self.queue.push_back((t, v));
            } else {
                self.shed_queue += 1;
                if let Some(o) = obs {
                    o.shed_queue.inc();
                }
            }
            self.i += 1;
        }
        if let Some(o) = obs {
            o.queue_depth.observe(self.queue.len() as f64);
        }
        Some(Window { open, close })
    }

    /// Seal a batch out of the queue, shedding members whose projected
    /// completion (`est × DEADLINE_EST_SAFETY` after the projected start)
    /// is already past their deadline — they are counted, not stretched.
    /// The projected start matches the post-formation start rule: a batch
    /// that will fill starts as soon as it does (~`open` under the backlog
    /// that fills it), a non-full batch waits out the window. Before the
    /// first measurement `est` is zero and members are shed on time
    /// already waited only. May return an empty batch when the whole window
    /// was shed.
    fn seal(
        &mut self,
        w: &Window,
        est: f64,
        obs: Option<&ServingMetrics>,
    ) -> (Vec<usize>, Vec<f64>) {
        let will_fill = self.queue.len() >= self.cfg.max_batch;
        let projected_start = if will_fill { w.open } else { w.close };
        let projected_compute = est * DEADLINE_EST_SAFETY;
        let mut nodes = Vec::with_capacity(self.cfg.max_batch);
        let mut when = Vec::with_capacity(self.cfg.max_batch);
        while nodes.len() < self.cfg.max_batch {
            let Some(&(t, v)) = self.queue.front() else {
                break;
            };
            self.queue.pop_front();
            if let Some(d) = self.cfg.deadline {
                if (projected_start - t) + projected_compute > d {
                    self.shed_deadline += 1;
                    if let Some(o) = obs {
                        o.shed_deadline.inc();
                    }
                    continue;
                }
            }
            nodes.push(v);
            when.push(t);
        }
        (nodes, when)
    }

    /// Count (and drop) everything not yet sealed — queued and un-admitted
    /// trace alike — so a dead fleet still accounts for every request.
    fn shed_rest(&mut self) -> usize {
        let rest = self.queue.len() + self.arrivals.len().saturating_sub(self.i);
        self.queue.clear();
        self.i = self.arrivals.len();
        rest
    }
}

/// Throughput, latency and resilience summary of a fleet serving run. Every
/// submitted request is either served or shed: `served + shed + shed_queue
/// + shed_deadline == n_requests`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiServingReport {
    pub n_workers: usize,
    pub n_requests: usize,
    /// Batches dispatched to the fleet.
    pub n_batches: usize,
    pub mean_batch_size: f64,
    /// Requests served to completion.
    pub served: usize,
    /// Requests served per routing group: one entry under [`serve_multi`],
    /// one per shard under [`serve_sharded`], one per tier (index 0 =
    /// unpruned) under [`serve_tiered`]. Sums to `served`.
    pub group_served: Vec<usize>,
    /// Served requests whose latency still exceeded
    /// [`ServingConfig::deadline`] (compute ran over its estimate).
    pub deadline_misses: usize,
    /// Ladder tier switches (0 unless [`serve_tiered`]).
    pub tier_switches: usize,
    /// Requests shed after dispatch: their batch exhausted its retries, or
    /// no live worker remained to serve them.
    pub shed: usize,
    /// Requests shed on admission (bounded queue full), before dispatch.
    pub shed_queue: usize,
    /// Requests shed at batch formation (projected completion past the
    /// deadline), before dispatch.
    pub shed_deadline: usize,
    /// Worker panics caught and recovered (the in-flight batch was
    /// requeued or shed; the fleet kept going).
    pub recoveries: usize,
    /// Clean `try_infer` errors handled without losing the worker.
    pub failures: usize,
    /// Batch re-executions triggered by recoveries/failures.
    pub retries: usize,
    /// Workers lost to panics (the run ends with `n_workers -
    /// workers_lost` live replicas).
    pub workers_lost: usize,
    /// Wall-clock seconds from first dispatch to last batch completion.
    pub wall_seconds: f64,
    /// End-to-end served requests/second over the wall clock — the number
    /// that should scale with worker count.
    pub throughput: f64,
    /// Served-request latency percentiles (milliseconds). Wall-clock
    /// meaningful when [`ServingConfig::pace`] replays the trace in real
    /// time; otherwise relative only (the trace is drained flat-out).
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Fraction of the fleet's stage-thread time spent busy: summed
    /// prepare and execute busy seconds over `2 × n_workers × wall` — every
    /// worker is two stage threads, so the denominator is a constant of the
    /// fleet size. Above 0.5 the two stages genuinely overlap.
    pub pipeline_occupancy: f64,
    /// Wedged stage pairs the watchdog tore down and respawned (0 when
    /// [`ServingConfig::watchdog`] is `None`).
    pub watchdog_restarts: usize,
}

impl MultiServingReport {
    /// The deterministic fields of the report — everything except wall-clock
    /// timings. With a seeded trace and a seeded fault schedule, two runs
    /// produce identical values here regardless of worker interleaving.
    pub fn counters(&self) -> (usize, usize, usize, usize, usize, usize, usize, usize) {
        (
            self.n_workers,
            self.n_requests,
            self.n_batches,
            self.served,
            self.shed,
            self.recoveries,
            self.failures,
            self.retries,
        )
    }
}

/// One queued unit of work: a micro-batch, its members' arrival times (for
/// latency accounting), the routing group it belongs to, and how many times
/// it has been attempted already.
///
/// `group` never changes: a retry and a watchdog steal both re-enter the
/// queue of the group the dispatcher routed the batch to.
#[derive(Clone)]
struct QueuedBatch {
    nodes: Vec<usize>,
    arrivals: Vec<f64>,
    group: usize,
    attempt: u32,
}

/// A batch staged by a worker's front thread, waiting on the inter-stage
/// queue for its back thread.
struct StagedJob {
    batch: QueuedBatch,
    prep: PreparedBatch,
}

/// Per-worker state of the stage pair: the [`StageLink`] its two threads
/// talk through (which also holds the worker's life: torn down for a
/// respawn, or lost for good) and the slots the supervisor watches.
struct WorkerLink {
    pair: StageLink<StagedJob>,
    /// The batch the front stage is currently preparing, watched by the
    /// supervisor.
    front_pending: PendingSlot<QueuedBatch>,
    /// The batch the back stage is currently executing.
    back_pending: PendingSlot<QueuedBatch>,
}

impl WorkerLink {
    fn new() -> Self {
        Self {
            pair: StageLink::new(),
            front_pending: PendingSlot::new(),
            back_pending: PendingSlot::new(),
        }
    }
}

/// How a fleet groups its engines and routes a sealed window (see the
/// module docs).
#[derive(Clone, Copy)]
enum Routing<'a> {
    /// One group holding every engine: any idle replica takes the batch.
    AnyWorker,
    /// One group per engine: engine `s` serves the nodes `assign` maps to
    /// shard `s`.
    OwnerShard(&'a [u32]),
    /// One group per engine: engine `i` is ladder tier `i`, and each whole
    /// window goes to the tier the policy picks from the queue depth.
    Ladder(&'a LadderPolicy),
}

/// One routing group: the queue its workers drain, their liveness, and
/// what they served.
struct Group {
    dispatch: DispatchQueue<QueuedBatch>,
    /// Live workers; the last one to die aborts `dispatch`.
    live: AtomicUsize,
    served: AtomicUsize,
    /// `serving.tier{i}.served` under a ladder.
    served_ctr: Option<Arc<Counter>>,
}

/// The fleet's measured accounting, one lock for all of it.
struct Ledger {
    /// Per group: EWMA of the per-batch busy seconds (prepare + execute)
    /// of the group's own workers — the dispatcher's virtual-clock advance
    /// and the deadline projection. Each starts at 0.0 and the group's
    /// first finite, positive observation replaces it.
    est: Vec<f64>,
    /// Summed stage-thread busy time (occupancy numerator).
    busy_seconds: f64,
    /// Every served request's latency, ms.
    latencies: Vec<f64>,
}

impl Ledger {
    fn update_est(&mut self, g: usize, secs: f64) {
        // A non-finite observation (e.g. a poisoned timing under fault
        // storms) must not corrupt the estimate the dispatcher sleeps on.
        if !secs.is_finite() || secs <= 0.0 {
            return;
        }
        // Only a measurement is ever positive, so a zero is "unmeasured".
        let e = &mut self.est[g]; // audit: allow(no-fail-stop) — every group index is minted by run_fleet from 0..groups.len(), and `est` has one entry per group
        *e = if *e > 0.0 {
            EST_ALPHA * secs + (1.0 - EST_ALPHA) * *e
        } else {
            secs
        };
    }
}

/// Shared state of one fleet run: the routing groups plus every
/// cross-thread accounting cell, borrowed by the worker threads.
struct Fleet<'f> {
    cfg: &'f ServingConfig,
    obs: Option<ServingMetrics>,
    groups: Vec<Group>,
    ledger: Mutex<Ledger>, // lock: fleet.ledger
    deadline_misses: AtomicUsize,
    shed: AtomicUsize,
    recoveries: AtomicUsize,
    failures: AtomicUsize,
    retries: AtomicUsize,
    workers_lost: AtomicUsize,
    watchdog_restarts: AtomicUsize,
    t0: Instant,
}

impl<'f> Fleet<'f> {
    /// A fleet of `n_groups` routing groups of `per_group` workers each,
    /// nothing served or measured yet.
    fn new(
        cfg: &'f ServingConfig,
        obs: Option<ServingMetrics>,
        per_group: usize,
        n_groups: usize,
    ) -> Self {
        Fleet {
            cfg,
            obs,
            // The bounded queue is the admission backpressure: the
            // dispatcher blocks while a group is saturated.
            groups: (0..n_groups)
                .map(|_| Group {
                    dispatch: DispatchQueue::new((2 * per_group).max(4)),
                    live: AtomicUsize::new(per_group),
                    served: AtomicUsize::new(0),
                    served_ctr: None,
                })
                .collect(),
            ledger: Mutex::new(Ledger {
                est: vec![0.0; n_groups],
                busy_seconds: 0.0,
                latencies: Vec::new(),
            }),
            deadline_misses: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            recoveries: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            workers_lost: AtomicUsize::new(0),
            watchdog_restarts: AtomicUsize::new(0),
            t0: Instant::now(),
        }
    }

    fn group(&self, g: usize) -> &Group {
        &self.groups[g] // audit: allow(no-fail-stop) — every group index is minted by run_fleet from 0..groups.len() (worker spawn, window split) and travels unchanged on QueuedBatch
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Group `g`'s current compute estimate in seconds: 0.0 until its
    /// first batch is measured.
    fn estimate(&self, g: usize) -> f64 {
        let _order = gcnp_tensor::lockcheck::acquire("fleet.ledger");
        // audit: allow(no-fail-stop) — every group index is minted by run_fleet from 0..groups.len(), and `est` has one entry per group
        relock(self.ledger.lock()).est[g]
    }

    /// Run one stage body under `catch_unwind`, timed into the fleet's busy
    /// seconds, so an injected panic retires the replica, not the fleet.
    /// Returns the outcome and the busy seconds. A panic is classified
    /// here: chaos-injected faults carry the `"gcnp-faults:"` marker in
    /// their message; anything else is a genuine bug surfacing through the
    /// recovery machinery and is counted under `serving.panics.unexpected`
    /// so chaos runs cannot silently mask real defects behind the recovery
    /// path.
    ///
    /// `AssertUnwindSafe`: the engine state a body mutates is only reused
    /// after a *clean* result (and its scratch holds nothing a later batch
    /// misreads: a table row is read only by the batch that wrote it or once
    /// it is marked, after it is written), and a panicking stage retires its
    /// worker with itself.
    fn attempt<T>(
        &self,
        body: impl FnOnce() -> ServingResult<T>,
    ) -> (std::thread::Result<ServingResult<T>>, f64) {
        let tb = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(body));
        let busy = tb.elapsed().as_secs_f64();
        {
            let _order = gcnp_tensor::lockcheck::acquire("fleet.ledger");
            relock(self.ledger.lock()).busy_seconds += busy;
        }
        if let Err(payload) = &outcome {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !msg.is_some_and(|m| m.contains("gcnp-faults:")) {
                if let Some(o) = &self.obs {
                    o.panics_unexpected.inc();
                }
            }
        }
        (outcome, busy)
    }

    /// The one settlement of a finished stage attempt, shared by every
    /// stage loop: decide whether this attempt still owns its batch,
    /// account the outcome exactly once, and pair the pop. `outcome` is
    /// the stage body's result under `catch_unwind` and `est_busy` the busy
    /// seconds a success feeds to the estimate. Returns whether the worker
    /// was lost to a panic.
    fn settle(
        &self,
        slot: &PendingSlot<QueuedBatch>,
        batch: QueuedBatch,
        outcome: std::thread::Result<ServingResult<()>>,
        est_busy: f64,
    ) -> bool {
        // An empty slot means the watchdog stole this batch: it was already
        // requeued and resolved, and this attempt's outcome is void.
        let owns = slot.finish().is_some();
        let dispatch = &self.group(batch.group).dispatch;
        let lost = outcome.is_err();
        match outcome {
            Ok(Ok(())) => {
                if owns {
                    self.on_success(&batch, est_busy);
                }
            }
            // Clean serving error: the worker survives; the batch retries
            // or sheds.
            Ok(Err(_)) => {
                if owns {
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &self.obs {
                        o.failures.inc();
                    }
                    self.retry_or_shed(batch);
                }
            }
            // Worker panic: count the lost replica and recover the batch —
            // unless the watchdog stole it: then the steal accounts for it.
            Err(_) => {
                self.recoveries.fetch_add(1, Ordering::Relaxed);
                self.workers_lost.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &self.obs {
                    o.recoveries.inc();
                    o.workers_lost.inc();
                }
                if owns {
                    self.retry_or_shed(batch);
                }
            }
        }
        // Resolve AFTER any requeue so idle peers never see "queue empty,
        // nothing in flight" while work remains. A stolen batch was
        // already resolved by the watchdog.
        if owns {
            dispatch.resolve();
        }
        lost
    }

    fn on_success(&self, batch: &QueuedBatch, est_busy: f64) {
        let done = self.now();
        let late = {
            let _order = gcnp_tensor::lockcheck::acquire("fleet.ledger");
            let mut ledger = relock(self.ledger.lock());
            ledger.update_est(batch.group, est_busy);
            let mut late = 0;
            for &arr in &batch.arrivals {
                let secs = (done - arr).max(0.0);
                late += usize::from(self.cfg.deadline.is_some_and(|d| secs > d));
                ledger.latencies.push(secs * 1e3);
            }
            late
        };
        let n = batch.nodes.len();
        // audit: allow(atomic-ordering) — a pure counter, read only after every worker joined
        self.deadline_misses.fetch_add(late, Ordering::Relaxed);
        let group = self.group(batch.group);
        group.served.fetch_add(n, Ordering::Relaxed);
        if let Some(c) = &group.served_ctr {
            c.add(n as u64);
        }
        if let Some(o) = &self.obs {
            o.served.add(n as u64);
            o.batches.inc();
            o.batch_size.observe(n as f64);
            o.deadline_miss.add(late as u64);
        }
    }

    /// Settle a batch the watchdog stole: its slot is empty now, so the
    /// wedged attempt's eventual outcome is void and this steal owns the
    /// batch. Requeue it through the retry path, then pair the wedged
    /// worker's pop (it skips its own resolve once it sees the empty slot).
    fn steal(&self, batch: QueuedBatch) {
        let dispatch = &self.group(batch.group).dispatch;
        self.retry_or_shed(batch);
        dispatch.resolve();
        self.watchdog_restarts.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.watchdog_restarts.inc();
        }
    }

    fn retry_or_shed(&self, batch: QueuedBatch) {
        if batch.attempt < self.cfg.retry_cap {
            self.retries.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &self.obs {
                o.retries.inc();
            }
            // Exponential backoff, capped; a poison-pill batch burns its
            // retries and is shed.
            let backoff = BACKOFF_SECS * (1u64 << batch.attempt.min(10)) as f64;
            std::thread::sleep(Duration::from_secs_f64(backoff.min(MAX_BACKOFF_SECS)));
            self.group(batch.group).dispatch.requeue(QueuedBatch {
                attempt: batch.attempt + 1,
                ..batch
            });
        } else {
            self.shed_requests(batch.nodes.len());
        }
    }

    fn shed_requests(&self, n: usize) {
        self.shed.fetch_add(n, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.shed_exhausted.add(n as u64);
        }
    }

    /// Hand a popped but unattempted batch back to its group (the stage
    /// pair is winding down): requeue before resolve, so the queue is never
    /// observed empty while the batch is in neither place.
    fn hand_back(&self, batch: QueuedBatch) {
        let dispatch = &self.group(batch.group).dispatch;
        dispatch.requeue(batch);
        dispatch.resolve();
    }

    /// Retire one worker of group `g`; when the group's last live worker
    /// dies, abort its queue so nothing (dispatcher included) blocks on it
    /// forever.
    fn retire_worker(&self, g: usize) {
        let group = self.group(g);
        if group.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            group.dispatch.abort();
        }
    }
}

/// Front stage of one worker: pop → admit → `prepare` → hand off. The
/// [`StageLink`] owns the pair's protocol; this loop owns what the fleet
/// adds to it — the pending slot, settlement, and handing a batch back
/// when the pair winds down under it.
fn front_stage(
    core: &EngineCore<'_>,
    front: &mut FrontScratch,
    link: &WorkerLink,
    fleet: &Fleet<'_>,
    g: usize,
) {
    let barrier = core.needs_store_barrier();
    let mut staged: u64 = 0; // batches handed to the back stage
    let mut lost = false;
    while link.pair.open() {
        let Some(batch) = fleet.group(g).dispatch.pop() else {
            break;
        };
        // The back stage may have died (or the watchdog torn the pair
        // down) while we were blocked in pop — or dies while we wait out
        // the store-write visibility barrier. Either way hand the batch
        // back for a live worker instead of preparing into a closed link.
        if !link.pair.admit(barrier, staged, &mut front.pool) {
            fleet.hand_back(batch);
            break;
        }
        link.front_pending.begin(&batch, fleet.now());
        let hand_off = link.pair.hand_off_point();
        let (outcome, _) = fleet.attempt(|| core.prepare(&batch.nodes, front, hand_off));
        let prep = match outcome {
            Ok(Ok(prep)) => prep,
            // A failed prepare is terminal for this attempt.
            Ok(Err(e)) => {
                fleet.settle(&link.front_pending, batch, Ok(Err(e)), 0.0);
                continue;
            }
            Err(payload) => {
                lost = fleet.settle(&link.front_pending, batch, Err(payload), 0.0);
                break;
            }
        };
        if link.front_pending.finish().is_none() {
            // The watchdog already requeued + resolved this batch; the
            // prepared scratch goes straight back to the pool and the
            // link check above ends the generation.
            prep.recycle_into(&mut front.pool);
            continue;
        }
        staged += 1;
        let fault = prep.fault();
        if let Err(job) = link.pair.hand_off(StagedJob { batch, prep }, fault) {
            // Back stage died and killed the link: hand back.
            fleet.hand_back(job.batch);
            break;
        }
        // The back stage settles this batch after executing it.
    }
    // Always close: the back stage drains what was staged, then exits.
    link.pair.close();
    if lost && link.pair.lose() {
        fleet.retire_worker(g);
    }
}

/// Back stage of one worker: unstage → `execute` → settle → retire. On
/// death it kills the link, drains the staged batches back to the
/// dispatcher (they were popped and never resolved), and retires the worker.
fn back_stage(
    core: &EngineCore<'_>,
    back: &mut BackScratch,
    link: &WorkerLink,
    fleet: &Fleet<'_>,
    g: usize,
) {
    while let Some(StagedJob { batch, prep }) = link.pair.next() {
        link.back_pending.begin(&batch, fleet.now());
        let front_busy = prep.front_seconds();
        // ClockSkew chaos inflates only the estimate's feed, never the
        // served latency.
        let skew = match prep.fault() {
            Fault::ClockSkew { factor } => factor,
            _ => 1.0,
        };
        let mut spent = Vec::new();
        let (outcome, busy) = fleet.attempt(|| core.execute(prep, back, &mut spent));
        // The estimate is the batch's whole busy span: prepare's seconds
        // rode in with the batch.
        let est_busy = (front_busy + busy) * skew;
        let outcome = outcome.map(|r| r.map(drop));
        if fleet.settle(&link.back_pending, batch, outcome, est_busy) {
            // Release the front wherever it blocks, then hand every
            // already-staged batch back to the dispatcher: each was popped
            // from the dispatch queue and never resolved.
            let first = link.pair.lose();
            while let Some(job) = link.pair.next() {
                fleet.hand_back(job.batch);
            }
            if first {
                fleet.retire_worker(g);
            }
            break;
        }
        // The batch reached a terminal state for this attempt (a clean
        // failure wrote nothing back, and its retry re-runs both stages).
        // Retire even when the attempt failed or did not own the batch:
        // the rail is the only route back to the front's scratch pool, and
        // the barrier counts *staged* batches so the front's wait stays in
        // sync.
        link.pair.retire(spent);
    }
}

/// One worker across watchdog generations: split the engine, run front +
/// back until they wind down, and — when the watchdog's teardown (not a
/// lost stage) ended the generation — re-arm the link and respawn a fresh
/// stage pair on the same engine. A worker lost to a genuine panic stays
/// down; a worker torn down for being wedged comes back.
fn worker(engine: &mut BatchedEngine<'_>, link: &WorkerLink, fleet: &Fleet<'_>, g: usize) {
    loop {
        let (core, front, back) = engine.split();
        std::thread::scope(|inner| {
            inner.spawn(move || front_stage(core, front, link, fleet, g));
            back_stage(core, back, link, fleet, g);
        });
        if !link.pair.reopen() {
            break;
        }
    }
}

/// Serve `cfg.n_requests` single-node requests drawn uniformly from `pool`
/// with `engines.len()` engine replicas running on real threads — the
/// fleet executor under `AnyWorker` routing (see the module docs); one
/// engine is a one-worker fleet. The replicas typically share one
/// [`crate::FeatureStore`] (pass the same store to each
/// [`BatchedEngine::new`]); each idle worker
/// takes the next batch, so a slow batch on one worker never stalls the
/// others.
///
/// Executor: every worker is a two-stage pair (prepare overlaps the
/// previous batch's execute); outputs are bitwise identical to
/// [`BatchedEngine::try_infer`] on the same batches.
///
/// Resilience: each stage runs under `catch_unwind`. A panicking worker
/// requeues its in-flight batch (bounded by [`ServingConfig::retry_cap`]
/// with saturating exponential backoff, so a poison-pill batch is
/// eventually shed, not looped forever) and leaves the fleet; the remaining
/// workers finish the trace. If every worker dies, the leftover batches are
/// shed and counted — no request is ever silently lost: `served + shed +
/// shed_queue + shed_deadline == n_requests`.
///
/// Pacing: by default the trace is drained as fast as the fleet allows
/// (offered load = ∞) and the latency percentiles are only relative; set
/// [`ServingConfig::pace`] to replay arrivals in real time for wall-clock
/// meaningful percentiles.
pub fn serve_multi(
    engines: &mut [BatchedEngine<'_>],
    pool: &[usize],
    cfg: &ServingConfig,
) -> ServingResult<MultiServingReport> {
    run_fleet(engines, Routing::AnyWorker, pool, cfg)
}

/// Sharded serving — the fleet executor under `OwnerShard` routing: engine
/// `s` is pinned to shard `s` of a [`crate::ShardedStore`] (built via
/// [`crate::BatchedEngine::new_sharded`]), `assign` maps every node to its
/// owner, and the dispatcher routes each sealed window's requests *by
/// target-node shard* — one sub-batch per shard per window, each through
/// its own bounded dispatch queue, so a shard's backlog never blocks its
/// siblings.
///
/// Windows are anchored and sealed exactly as in [`serve_multi`], and
/// projected with the slowest shard's compute estimate. A panic storm that
/// kills shard `s`'s replica aborts only queue `s`: its requests are shed
/// as routed, and the surviving shards keep serving. Retries and steals
/// stay on-shard, so write-backs and store probes keep their owner
/// routing.
pub fn serve_sharded(
    engines: &mut [BatchedEngine<'_>],
    assign: &[u32],
    pool: &[usize],
    cfg: &ServingConfig,
) -> ServingResult<MultiServingReport> {
    let n_shards = engines.len();
    let unowned = |v: &&usize| assign.get(**v).is_none_or(|&s| (s as usize) >= n_shards);
    match pool.iter().find(unowned) {
        // (With no engines at all, `run_fleet` reports `NoEngines`.)
        Some(v) if n_shards > 0 => Err(ServingError::InvalidConfig(format!(
            "pool node {v} has no shard assignment below {n_shards}"
        ))),
        _ => run_fleet(engines, Routing::OwnerShard(assign), pool, cfg),
    }
}

/// Serving through a degradation ladder — the fleet executor under `Ladder`
/// routing, one worker per tier: `tiers[0]` is the full model and each
/// later entry a successively heavier-pruned engine (e.g. built with
/// `gcnp_core::prune_model`). Each sealed window goes
/// whole to the tier [`LadderPolicy`] picks from the admitted queue depth
/// and is projected with that tier's own compute estimate. Per-tier served
/// counts in [`MultiServingReport::group_served`] make the accuracy cost of
/// degradation measurable.
pub fn serve_tiered(
    tiers: &mut [BatchedEngine<'_>],
    pool: &[usize],
    cfg: &ServingConfig,
    ladder: &LadderPolicy,
) -> ServingResult<MultiServingReport> {
    run_fleet(tiers, Routing::Ladder(ladder), pool, cfg)
}

/// The one fleet executor behind [`serve_multi`], [`serve_sharded`] and
/// [`serve_tiered`]: spawn a worker per engine into its routing group, run
/// the supervisor when armed, form and route batches on this thread, then
/// settle the report. Under `OwnerShard` the caller has checked that
/// `assign` covers every pool node with a shard below `engines.len()`.
fn run_fleet(
    engines: &mut [BatchedEngine<'_>],
    routing: Routing<'_>,
    pool: &[usize],
    cfg: &ServingConfig,
) -> ServingResult<MultiServingReport> {
    if engines.is_empty() {
        return Err(ServingError::NoEngines);
    }
    cfg.validate(pool)?;
    let n_workers = engines.len();
    let (n_groups, per_group) = match routing {
        Routing::AnyWorker => (1, n_workers),
        Routing::OwnerShard(_) | Routing::Ladder(_) => (n_workers, 1),
    };
    let arrivals = cfg.arrivals(pool);
    // Counter bundle shared by every worker (all record paths take `&self`
    // over atomics); resolved from the first instrumented engine's registry.
    let registry = engines
        .iter()
        .find_map(|e| e.metrics())
        .map(|m| m.registry());
    let mut fleet = Fleet::new(cfg, registry.map(ServingMetrics::new), per_group, n_groups);
    if let (Routing::Ladder(_), Some(reg)) = (routing, registry) {
        // Per-tier served counters: the rung-level view of the ladder, so
        // operators can see how much traffic ran pruned without parsing a
        // report.
        for (i, group) in fleet.groups.iter_mut().enumerate() {
            group.served_ctr = Some(reg.counter(&format!("serving.tier{i}.served")));
        }
    }
    let obs = fleet.obs.as_ref();
    let links: Vec<WorkerLink> = (0..n_workers).map(|_| WorkerLink::new()).collect();

    // Supervision plumbing (inert without a watchdog): per-worker teardown
    // closures, the watch table over every pending slot, and the
    // worker-exit counter that stops the supervisor thread.
    let finished = AtomicUsize::new(0);
    // Each teardown winds the stage pair down; `worker` respawns it.
    let teardowns: Vec<Box<dyn Fn() + Send + Sync>> = links
        .iter()
        .map(|link| Box::new(move || link.pair.kill()) as Box<dyn Fn() + Send + Sync>)
        .collect();
    let watches: Vec<WorkerWatch<'_, QueuedBatch>> = links
        .iter()
        .zip(&teardowns)
        .map(|(link, td)| WorkerWatch {
            slots: [&link.front_pending, &link.back_pending],
            teardown: &**td,
        })
        .collect();

    let (n_batches, shed_queue, shed_deadline, tier_switches) = std::thread::scope(|scope| {
        let (fleet, finished) = (&fleet, &finished);
        for (k, (engine, link)) in engines.iter_mut().zip(&links).enumerate() {
            let g = k / per_group;
            scope.spawn(move || {
                worker(engine, link, fleet, g);
                finished.fetch_add(1, Ordering::Release);
            });
        }
        if let Some(bound) = cfg.watchdog {
            let watches = &watches;
            scope.spawn(move || {
                supervise(
                    watches,
                    bound,
                    &|| fleet.now(),
                    &|| finished.load(Ordering::Acquire) >= n_workers,
                    &|batch| fleet.steal(batch),
                );
            });
        }

        // Dispatcher (this thread): form batches with the shared former,
        // anchored on the earliest-free virtual worker clock, and submit
        // each through the queue of the group that owns it. A ladder's
        // tiers model one server switching models: they share one clock.
        let mut former = BatchFormer::new(&arrivals, cfg);
        let shared_clock = matches!(routing, Routing::Ladder(_));
        let mut free = vec![vec![0.0f64; per_group]; if shared_clock { 1 } else { n_groups }];
        let (mut tier, mut dwell, mut tier_switches) = (0usize, 0usize, 0usize);
        let mut n_batches = 0usize;
        loop {
            let free_at = free.iter().flatten().copied().fold(f64::INFINITY, f64::min);
            if free_at.is_infinite() {
                break; // every group's workers are gone
            }
            // The estimate a window is projected with: that of the group
            // it is routed to. A split window is done when its slowest
            // shard is. A ladder picks the tier from the admitted queue
            // depth *before* computing, so a deep queue is served cheaply
            // right away.
            let estimate = |depth: usize| match routing {
                Routing::AnyWorker => fleet.estimate(0),
                Routing::OwnerShard(_) => {
                    (0..n_groups).map(|g| fleet.estimate(g)).fold(0.0, f64::max)
                }
                Routing::Ladder(pol) => {
                    let before = tier;
                    while depth >= pol.step_down_depth.max(1) && tier + 1 < n_groups {
                        tier += 1;
                    }
                    if tier == before
                        && depth <= pol.step_up_depth
                        && tier > 0
                        && dwell >= pol.min_dwell
                    {
                        tier -= 1;
                    }
                    if tier != before {
                        tier_switches += 1;
                        dwell = 0;
                        if let Some(o) = obs {
                            o.tier_switches.inc();
                        }
                    }
                    if let Some(o) = obs {
                        o.tier.set(tier as f64);
                    }
                    fleet.estimate(tier)
                }
            };
            let Some(batch) = former.next_batch(free_at, estimate, obs) else {
                break; // trace exhausted and queue drained
            };
            if cfg.pace {
                // Real-time replay: hold the batch until its start time.
                let wait = batch.start - fleet.now();
                if wait.is_finite() && wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
            }
            // The one routing-dependent step: a split of the window by
            // group — whole to the only group or the chosen tier, or
            // stably by owner shard (arrival order is preserved within
            // each sub-batch).
            let mut split = vec![(Vec::new(), Vec::new()); n_groups];
            match routing {
                Routing::AnyWorker => split[0] = (batch.nodes, batch.arrivals), // audit: allow(no-fail-stop) — AnyWorker has exactly one group
                Routing::Ladder(_) => {
                    dwell += 1;
                    split[tier] = (batch.nodes, batch.arrivals); // audit: allow(no-fail-stop) — the ladder steps keep tier within 0..n_groups
                }
                Routing::OwnerShard(assign) => {
                    for (&v, &t) in batch.nodes.iter().zip(&batch.arrivals) {
                        // audit: allow(no-fail-stop) — the caller validated every pool node's assignment below n_groups, and the former only emits pool nodes
                        let sub = &mut split[assign[v] as usize];
                        sub.0.push(v);
                        sub.1.push(t);
                    }
                }
            }
            for (g, (nodes, arrivals)) in split.into_iter().enumerate() {
                if nodes.is_empty() {
                    continue;
                }
                // audit: allow(no-fail-stop) — `free` holds one clock set per group, or the single set a ladder's tiers share
                let clocks = &mut free[if shared_clock { 0 } else { g }];
                // The earliest-free worker takes the batch.
                if let Some(f) = clocks.iter_mut().min_by(|a, b| a.total_cmp(b)) {
                    *f = batch.start + batch.est;
                }
                let queued = QueuedBatch {
                    nodes,
                    arrivals,
                    group: g,
                    attempt: 0,
                };
                match fleet.group(g).dispatch.push(queued) {
                    Ok(()) => n_batches += 1,
                    Err(b) => {
                        // The group's last worker died and aborted its
                        // queue: shed what was routed there and keep
                        // serving the surviving groups. Its clocks park
                        // once no group sharing them is left.
                        fleet.shed_requests(b.nodes.len());
                        let dead = |grp: &Group| grp.live.load(Ordering::Acquire) == 0;
                        if !shared_clock || fleet.groups.iter().all(dead) {
                            clocks.fill(f64::INFINITY);
                        }
                    }
                }
            }
        }
        let rest = former.shed_rest();
        if rest > 0 {
            fleet.shed_requests(rest);
        }
        for group in &fleet.groups {
            group.dispatch.close();
        }
        (
            n_batches,
            former.shed_queue,
            former.shed_deadline,
            tier_switches,
        )
    });

    // Whatever a dead group left queued is shed — accounted, not lost.
    let mut wakeups = 0;
    for group in &fleet.groups {
        wakeups += group.dispatch.wakeups();
        for b in group.dispatch.drain() {
            fleet.shed_requests(b.nodes.len());
        }
    }

    let wall = fleet.now().max(f64::EPSILON);
    let ledger = fleet
        .ledger
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let busy = ledger.busy_seconds;
    let pipeline_occupancy = (busy / (2.0 * n_workers as f64 * wall)).clamp(0.0, 1.0);
    if let Some(o) = obs {
        o.pipeline_occupancy.set(pipeline_occupancy);
        o.dispatch_wakeups.add(wakeups);
    }
    let mut latencies_ms = ledger.latencies;
    latencies_ms.sort_by(f64::total_cmp);
    let group_served: Vec<usize> = fleet
        .groups
        .iter()
        .map(|g| g.served.load(Ordering::Relaxed))
        .collect();
    let served = group_served.iter().sum();
    let shed = fleet.shed.into_inner();
    debug_assert_eq!(
        served + shed + shed_queue + shed_deadline,
        cfg.n_requests,
        "request accounting"
    );
    let dispatched = cfg.n_requests.saturating_sub(shed_queue + shed_deadline);

    Ok(MultiServingReport {
        n_workers,
        n_requests: cfg.n_requests,
        n_batches,
        mean_batch_size: dispatched as f64 / n_batches.max(1) as f64,
        served,
        group_served,
        deadline_misses: fleet.deadline_misses.into_inner(),
        tier_switches,
        shed,
        shed_queue,
        shed_deadline,
        recoveries: fleet.recoveries.into_inner(),
        failures: fleet.failures.into_inner(),
        retries: fleet.retries.into_inner(),
        workers_lost: fleet.workers_lost.into_inner(),
        wall_seconds: wall,
        throughput: served as f64 / wall,
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
        p99_ms: percentile(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        pipeline_occupancy,
        watchdog_restarts: fleet.watchdog_restarts.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::StorePolicy;
    use gcnp_models::zoo;
    use gcnp_sparse::CsrMatrix;
    use gcnp_tensor::init::seeded_rng as srng;
    use gcnp_tensor::Matrix;

    fn setup() -> (CsrMatrix, Matrix) {
        let mut edges = Vec::new();
        for i in 0..100u32 {
            edges.push((i, (i + 1) % 100));
            edges.push(((i + 1) % 100, i));
            edges.push((i, (i + 7) % 100));
            edges.push(((i + 7) % 100, i));
        }
        let adj = CsrMatrix::adjacency(100, &edges);
        let x = Matrix::rand_uniform(100, 8, -1.0, 1.0, &mut srng(1));
        (adj, x)
    }

    #[test]
    fn percentiles_are_ordered() {
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            n_requests: 200,
            ..Default::default()
        };
        let rep = serve_multi(std::slice::from_mut(&mut engine), &pool, &cfg).unwrap();
        assert_eq!(rep.n_requests, 200);
        assert_eq!(rep.served, 200, "no deadline/cap: everything served");
        assert_eq!(rep.shed + rep.shed_queue + rep.shed_deadline, 0);
        assert!(rep.p50_ms <= rep.p95_ms);
        assert!(rep.p95_ms <= rep.p99_ms);
        assert!(rep.p99_ms <= rep.max_ms);
        assert!(rep.n_batches >= 1);
        assert!(rep.mean_batch_size >= 1.0);
        assert!(rep.throughput > 0.0);
        assert_eq!(rep.group_served, vec![200], "one group serves everything");
        assert_eq!((rep.deadline_misses, rep.tier_switches), (0, 0));
    }

    #[test]
    fn nearest_rank_percentiles_pinned() {
        // Regression for the truncating-index percentile: nearest-rank over
        // a known 100-sample array (1..=100) must hit exact sample values.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.95), 95.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.00), 100.0);
        // Small-n tail: p99 of 10 samples is the MAXIMUM under nearest
        // rank; the old truncating formula returned the 9th-ranked value.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.50), 5.0);
        // Degenerate inputs stay total.
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn non_full_batch_starts_at_window_close() {
        // Regression pin for the batch start-time accounting bug: compute
        // for a non-full batch used to start at its *last request's
        // arrival*, erasing the `max_wait` window the requests actually sat
        // through. With sparse paced arrivals (100 req/s, 5 ms window →
        // near-singleton batches) every window opener now waits out its
        // full window, so p50 must be at least `max_wait` plus compute. The
        // buggy accounting reported pure compute.
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            arrival_rate: 100.0,
            max_wait: 0.005,
            n_requests: 30,
            pace: true,
            ..Default::default()
        };
        let rep = serve_multi(std::slice::from_mut(&mut engine), &pool, &cfg).unwrap();
        assert!(
            rep.mean_batch_size < 1.5,
            "sparse arrivals must form (near-)singleton batches, got {}",
            rep.mean_batch_size
        );
        assert!(
            rep.p50_ms >= cfg.max_wait * 1e3,
            "p50 {} ms must include the full {} ms batching window",
            rep.p50_ms,
            cfg.max_wait * 1e3
        );
        // A batch that *fills* still starts at its fill time, not the window
        // close: pre-arrived burst, max_batch 8 → every batch is full and
        // sealed at open, so latencies stay far below burst_n × max_wait.
        let burst = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 8,
            max_wait: 0.05,
            n_requests: 64,
            pace: true,
            ..Default::default()
        };
        let mut engine2 = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let rep2 = serve_multi(std::slice::from_mut(&mut engine2), &pool, &burst).unwrap();
        assert!(
            rep2.p50_ms < burst.max_wait * 1e3,
            "full batches must not serve the window out (p50 {} ms)",
            rep2.p50_ms
        );
    }

    #[test]
    fn wall_clock_throughput_saturates_at_arrival_rate() {
        // With a tiny compute load and sparse paced arrivals, the wall
        // clock is dominated by waiting for requests: end-to-end throughput
        // must stay at (or below) the offered rate while the stage threads
        // mostly idle.
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            arrival_rate: 400.0,
            n_requests: 100,
            pace: true,
            ..Default::default()
        };
        let rep = serve_multi(std::slice::from_mut(&mut engine), &pool, &cfg).unwrap();
        assert!(
            rep.throughput < 2.0 * cfg.arrival_rate,
            "wall-clock throughput {} cannot greatly exceed the offered rate {}",
            rep.throughput,
            cfg.arrival_rate
        );
        assert!(
            rep.pipeline_occupancy < 0.5,
            "a paced light load leaves the stage threads mostly idle, occupancy {}",
            rep.pipeline_occupancy
        );
    }

    #[test]
    fn multi_worker_replicas_share_the_store() {
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let store = crate::FeatureStore::new(100, model.n_layers() - 1);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            n_requests: 300,
            ..Default::default()
        };
        let mut engines: Vec<BatchedEngine<'_>> = (0..3)
            .map(|w| {
                BatchedEngine::new(
                    &model,
                    &adj,
                    &x,
                    vec![],
                    Some(&store),
                    StorePolicy::Roots,
                    w as u64,
                )
            })
            .collect();
        let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
        assert_eq!(rep.n_workers, 3);
        assert_eq!(rep.n_requests, 300);
        assert_eq!(rep.served, 300, "no faults: everything served");
        assert_eq!(
            rep.shed + rep.recoveries + rep.retries + rep.workers_lost,
            0
        );
        assert!(rep.n_batches >= 1);
        assert!(rep.throughput > 0.0);
        assert!(
            rep.pipeline_occupancy > 0.0 && rep.pipeline_occupancy <= 1.0,
            "occupancy must be a fraction of stage-thread time, got {}",
            rep.pipeline_occupancy
        );
        assert!(
            store.len(1) > 0,
            "root write-backs from the replicas land in the shared store"
        );
    }

    #[test]
    fn the_fleet_feeds_the_estimate_front_plus_back_busy_seconds() {
        // Every prepare sleeps 30 ms (a `StageStall` on each attempt) and
        // execute is sub-millisecond on this model, so an estimate fed from
        // execute alone would sit two orders of magnitude below the batch's
        // real cost. The worker must feed prepare + execute: what the same
        // warm engine's `try_infer` — both stages on one thread — reports
        // as the batch's seconds. The stall is long so that a descheduled
        // test thread cannot move the EWMA by the tolerance below.
        const STALL: f64 = 0.030;
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let cfg = ServingConfig::default();
        let n_batches = 8;
        let plan = crate::FaultPlan {
            stalls: n_batches + 1,
            stall_ms: STALL * 1e3,
            horizon: n_batches as u64 + 1,
            ..Default::default()
        };
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        engine.set_faults(plan.build().unwrap());
        let fleet = Fleet::new(&cfg, None, 1, 1);
        let link = WorkerLink::new();
        std::thread::scope(|s| {
            let (fleet, link, engine) = (&fleet, &link, &mut engine);
            s.spawn(move || worker(engine, link, fleet, 0));
            for b in 0..n_batches {
                let queued = QueuedBatch {
                    nodes: vec![b, b + 50],
                    arrivals: vec![0.0; 2],
                    group: 0,
                    attempt: 0,
                };
                assert!(fleet.group(0).dispatch.push(queued).is_ok());
            }
            fleet.group(0).dispatch.close();
        });
        assert_eq!(fleet.group(0).served.load(Ordering::Relaxed), 2 * n_batches);
        let est = fleet.estimate(0);
        assert!(
            est >= STALL,
            "every batch slept {STALL} s in prepare, the estimate says {est} s"
        );
        // The schedule's last stall lands on this reference batch.
        let reference = engine.try_infer(&[0, 50]).unwrap().seconds;
        assert!(reference >= STALL);
        assert!(
            (1.0 / 3.0..=3.0).contains(&(est / reference)),
            "the worker fed {est} s, one thread measures {reference} s"
        );
    }

    #[test]
    fn low_arrival_rate_means_small_batches() {
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let pool: Vec<usize> = (0..100).collect();
        // 1 request/sec with a 20 ms window: batches are almost always 1.
        let cfg = ServingConfig {
            arrival_rate: 1.0,
            n_requests: 30,
            ..Default::default()
        };
        let rep = serve_multi(std::slice::from_mut(&mut engine), &pool, &cfg).unwrap();
        assert!(
            rep.mean_batch_size < 2.0,
            "mean batch {}",
            rep.mean_batch_size
        );
    }

    #[test]
    fn deterministic_given_seed() {
        // A pre-arrived burst: formation cannot depend on compute timing.
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 24,
            n_requests: 100,
            seed: 5,
            ..Default::default()
        };
        assert_eq!(cfg.arrivals(&pool), cfg.arrivals(&pool), "seeded trace");
        let mut e1 = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let a = serve_multi(std::slice::from_mut(&mut e1), &pool, &cfg).unwrap();
        let mut e2 = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let b = serve_multi(std::slice::from_mut(&mut e2), &pool, &cfg).unwrap();
        assert_eq!(a.n_batches, 5, "100 pre-arrived / 24 per batch");
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.mean_batch_size, b.mean_batch_size);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let pool: Vec<usize> = (0..100).collect();
        let base = ServingConfig::default();
        assert_eq!(
            serve_multi(std::slice::from_mut(&mut engine), &[], &base).unwrap_err(),
            ServingError::EmptyPool
        );
        for bad in [
            ServingConfig {
                arrival_rate: 0.0,
                ..base
            },
            ServingConfig {
                n_requests: 0,
                ..base
            },
            ServingConfig {
                max_batch: 0,
                ..base
            },
            ServingConfig {
                max_wait: -1.0,
                ..base
            },
            ServingConfig {
                deadline: Some(0.0),
                ..base
            },
            ServingConfig {
                queue_cap: Some(0),
                ..base
            },
        ] {
            assert!(matches!(
                serve_multi(std::slice::from_mut(&mut engine), &pool, &bad),
                Err(ServingError::InvalidConfig(_))
            ));
            assert!(matches!(
                serve_tiered(
                    std::slice::from_mut(&mut engine),
                    &pool,
                    &bad,
                    &LadderPolicy::default()
                ),
                Err(ServingError::InvalidConfig(_))
            ));
        }
        assert_eq!(
            serve_multi(&mut [], &pool, &base).unwrap_err(),
            ServingError::NoEngines
        );
        assert_eq!(
            serve_tiered(&mut [], &pool, &base, &LadderPolicy::default()).unwrap_err(),
            ServingError::NoEngines
        );
    }

    #[test]
    fn bounded_queue_sheds_and_accounts() {
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let pool: Vec<usize> = (0..100).collect();
        // Offered load far beyond capacity with a tiny queue: most requests
        // are shed on admission, but all are accounted for.
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 8,
            n_requests: 400,
            queue_cap: Some(16),
            ..Default::default()
        };
        let multi = serve_multi(std::slice::from_mut(&mut engine), &pool, &cfg).unwrap();
        assert!(multi.shed_queue > 0, "overload must shed on admission");
        assert_eq!(
            multi.served + multi.shed + multi.shed_queue + multi.shed_deadline,
            400
        );
    }

    #[test]
    fn deadline_sheds_stale_requests_not_serves_them_late() {
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let pool: Vec<usize> = (0..100).collect();
        // Pre-arrived burst with a deadline far below the backlog drain
        // time: the tail of the burst must be shed, and everything still
        // adds up.
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 16,
            n_requests: 600,
            deadline: Some(2e-4), // 0.2 ms: only the first batches make it
            ..Default::default()
        };
        let rep = serve_multi(std::slice::from_mut(&mut engine), &pool, &cfg).unwrap();
        assert!(rep.shed_deadline > 0, "stale requests are shed");
        assert_eq!(
            rep.served + rep.shed + rep.shed_queue + rep.shed_deadline,
            600
        );
        assert!(
            rep.served < 600,
            "an overloaded server with deadlines cannot serve everything"
        );
    }

    #[test]
    fn ladder_steps_down_under_load_and_back_up_as_it_recedes() {
        // 520 pre-arrived requests, max_batch 64, step_down 64, step_up 8,
        // dwell 4. Queue depths at the ladder checks run 520, 456, …, 72, 8:
        // the first check multi-steps straight down to the cheapest tier
        // (one switch), and the depth-8 check steps back up one tier for the
        // final batch (second switch). All three tiers share one model here —
        // the test pins the switching mechanics, not the speed difference.
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 64,
            n_requests: 520,
            seed: 1,
            ..Default::default()
        };
        let ladder = LadderPolicy {
            step_down_depth: 64,
            step_up_depth: 8,
            min_dwell: 4,
        };
        let mut tiers: Vec<BatchedEngine<'_>> = (0..3)
            .map(|w| BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, w))
            .collect();
        let rep = serve_tiered(&mut tiers, &pool, &cfg, &ladder).unwrap();
        assert_eq!(rep.served, 520);
        assert_eq!(
            rep.group_served,
            vec![0, 8, 512],
            "overload serves on the cheapest tier, the drained tail one tier up"
        );
        assert_eq!(rep.tier_switches, 2, "one multi-step down, one step up");
    }

    #[test]
    fn fleet_metrics_match_report() {
        // The fleet's counters must agree with the report's own accounting
        // when a registry is attached through the engines — deadline
        // misses included, and under a ladder the tier gauge, switches and
        // per-tier served counts too.
        if !gcnp_obs::enabled() {
            return;
        }
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 16,
            n_requests: 300,
            queue_cap: Some(64),
            deadline: Some(5e-3),
            ..Default::default()
        };
        let burst = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 64,
            n_requests: 520,
            seed: 1,
            deadline: Some(2.0),
            ..Default::default()
        };
        let ladder = LadderPolicy {
            step_down_depth: 64,
            step_up_depth: 8,
            min_dwell: 4,
        };
        for (cfg, tiered) in [(cfg, false), (burst, true)] {
            let registry = std::sync::Arc::new(gcnp_obs::MetricsRegistry::new());
            let mut engines: Vec<BatchedEngine<'_>> = (0..if tiered { 3 } else { 1 })
                .map(|w| {
                    let mut e =
                        BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, w);
                    e.set_metrics(crate::EngineMetrics::new(&registry));
                    e
                })
                .collect();
            let rep = if tiered {
                serve_tiered(&mut engines, &pool, &cfg, &ladder).unwrap()
            } else {
                serve_multi(&mut engines, &pool, &cfg).unwrap()
            };
            let snap = registry.snapshot();
            assert_eq!(snap.counters["serving.served"] as usize, rep.served);
            assert_eq!(snap.counters["serving.shed.queue"] as usize, rep.shed_queue);
            assert_eq!(
                snap.counters["serving.shed.deadline"] as usize,
                rep.shed_deadline
            );
            assert_eq!(
                snap.counters["serving.deadline_miss"] as usize,
                rep.deadline_misses
            );
            assert_eq!(snap.counters["serving.batches"] as usize, rep.n_batches);
            assert_eq!(
                snap.histograms["serving.batch.size"].count as usize,
                rep.n_batches
            );
            assert!(snap.histograms["serving.queue.depth"].count > 0);
            // Engine-side batch accounting lines up too.
            assert_eq!(snap.counters["engine.batches"] as usize, rep.n_batches);
            assert_eq!(
                snap.counters["serving.tier_switches"] as usize,
                rep.tier_switches
            );
            if tiered {
                assert_eq!(rep.tier_switches, 2);
                for (i, &served) in rep.group_served.iter().enumerate() {
                    assert_eq!(
                        snap.counters[&format!("serving.tier{i}.served")] as usize,
                        served
                    );
                }
                // The drained tail stepped up one tier from the floor.
                assert_eq!(snap.gauges["serving.tier"], 1.0);
            } else {
                assert!(!snap.counters.contains_key("serving.tier0.served"));
            }
        }
    }

    #[test]
    fn serve_multi_metrics_match_report_counters() {
        // Satellite acceptance: a concurrent serve_multi run under 4 threads
        // must produce counter sums that match the report's deterministic
        // `counters()` tuple — no lost updates under worker interleaving.
        if !gcnp_obs::enabled() {
            return;
        }
        gcnp_tensor::set_num_threads(4);
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            n_requests: 400,
            ..Default::default()
        };

        // Clean run: served == n_requests, every failure counter zero.
        let registry = std::sync::Arc::new(gcnp_obs::MetricsRegistry::new());
        let mut engines: Vec<BatchedEngine<'_>> = (0..4)
            .map(|w| BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, w))
            .collect();
        for e in engines.iter_mut() {
            e.set_metrics(crate::EngineMetrics::new(&registry));
        }
        let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
        let (n_workers, n_requests, n_batches, served, shed, recoveries, failures, retries) =
            rep.counters();
        assert_eq!((n_workers, n_requests), (4, 400));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["serving.served"] as usize, served);
        assert_eq!(snap.counters["serving.batches"] as usize, n_batches);
        assert_eq!(snap.counters["serving.shed.exhausted"] as usize, shed);
        assert_eq!(snap.counters["serving.recoveries"] as usize, recoveries);
        assert_eq!(snap.counters["serving.failures"] as usize, failures);
        assert_eq!(snap.counters["serving.retries"] as usize, retries);
        assert_eq!(snap.counters["engine.batches"] as usize, n_batches);
        assert_eq!(
            snap.histograms["serving.batch.size"].count as usize,
            n_batches
        );
        assert_eq!(
            snap.gauges["serving.pipeline.occupancy"],
            rep.pipeline_occupancy
        );

        // Faulted run: panics + clean errors; counters still match exactly.
        let registry = std::sync::Arc::new(gcnp_obs::MetricsRegistry::new());
        let plan = crate::FaultPlan {
            panics: 2,
            storms: 0,
            horizon: 8,
            ..Default::default()
        };
        let injector = plan.build().unwrap();
        let mut engines: Vec<BatchedEngine<'_>> = (0..4)
            .map(|w| BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, w))
            .collect();
        for e in engines.iter_mut() {
            e.set_metrics(crate::EngineMetrics::new(&registry));
            e.set_faults(std::sync::Arc::clone(&injector));
        }
        let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
        gcnp_tensor::set_num_threads(0);
        let (_, _, _, served, shed, recoveries, failures, retries) = rep.counters();
        assert!(recoveries > 0, "the fault plan must inject panics");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["serving.served"] as usize, served);
        assert_eq!(snap.counters["serving.shed.exhausted"] as usize, shed);
        assert_eq!(snap.counters["serving.recoveries"] as usize, recoveries);
        assert_eq!(snap.counters["serving.workers_lost"] as usize, recoveries);
        assert_eq!(snap.counters["serving.failures"] as usize, failures);
        assert_eq!(snap.counters["serving.retries"] as usize, retries);
    }

    /// The old `serve_multi` former's trace-only batch count (`close =
    /// first_arrival + max_wait`, no busy term) — the retired behavior the
    /// equivalence test compares against.
    fn trace_only_batches(arrivals: &[(f64, usize)], cfg: &ServingConfig) -> usize {
        let mut i = 0usize;
        let mut n = 0usize;
        while i < arrivals.len() {
            let close = arrivals[i].0 + cfg.max_wait;
            let mut len = 0usize;
            while i < arrivals.len() && len < cfg.max_batch && arrivals[i].0 <= close {
                len += 1;
                i += 1;
            }
            n += 1;
        }
        n
    }

    #[test]
    fn busy_anchoring_coalesces_at_least_as_much_as_trace_only_windows() {
        // On a pre-arrived burst — where window anchoring cannot depend on
        // compute timing — formation is purely size-capped and repeatable.
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let pool: Vec<usize> = (0..100).collect();
        let burst = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 16,
            n_requests: 320,
            ..Default::default()
        };
        let run_multi = |cfg: &ServingConfig| {
            let mut engines: Vec<BatchedEngine<'_>> = (0..2)
                .map(|w| BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, w))
                .collect();
            serve_multi(&mut engines, &pool, cfg).unwrap()
        };
        let multi = run_multi(&burst);
        assert_eq!(multi.n_batches, 20, "320 pre-arrived / 16 per batch");
        assert_eq!(multi.mean_batch_size, 16.0);
        let ma = run_multi(&burst);
        assert_eq!(
            ma.counters(),
            multi.counters(),
            "burst formation is deterministic across runs"
        );

        // Under a spread overload trace the busy-anchored window can only
        // open later than the trace-only window, i.e. coalesce *more*:
        // serve_multi must no longer form more batches than the retired
        // trace-only former did.
        let spread = ServingConfig {
            arrival_rate: 20_000.0,
            max_batch: 64,
            max_wait: 1e-3,
            n_requests: 500,
            ..Default::default()
        };
        let multi = run_multi(&spread);
        let old = trace_only_batches(&spread.arrivals(&pool), &spread);
        assert!(
            multi.n_batches <= old,
            "busy-anchored formation ({}) must coalesce at least as much as \
             the retired trace-only former ({})",
            multi.n_batches,
            old
        );
    }

    #[test]
    fn the_estimate_starts_at_zero_and_learns_only_from_measurements() {
        let cfg = ServingConfig::default();
        let fleet = Fleet::new(&cfg, None, 1, 2);
        assert_eq!((fleet.estimate(0), fleet.estimate(1)), (0.0, 0.0));
        for junk in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
            relock(fleet.ledger.lock()).update_est(0, junk);
        }
        assert_eq!(fleet.estimate(0), 0.0, "no usable observation yet");
        relock(fleet.ledger.lock()).update_est(0, 0.010);
        assert_eq!(fleet.estimate(0), 0.010, "the first one replaces the zero");
        assert_eq!(fleet.estimate(1), 0.0, "groups learn independently");
        relock(fleet.ledger.lock()).update_est(0, 0.020);
        let ewma = EST_ALPHA * 0.020 + (1.0 - EST_ALPHA) * 0.010;
        assert_eq!(fleet.estimate(0), ewma, "later ones blend in");
        for junk in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            relock(fleet.ledger.lock()).update_est(0, junk);
        }
        assert_eq!(
            fleet.estimate(0),
            ewma,
            "junk never moves a measured estimate"
        );
    }

    #[test]
    fn idle_dispatch_is_event_driven() {
        // Satellite: an idle fleet must not burn CPU between sparse paced
        // arrivals. The old loop woke every 100 µs (~1600 wakeups over this
        // trace); the condvar queue wakes each blocked worker O(1) times
        // per dispatched batch.
        if !gcnp_obs::enabled() {
            return;
        }
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let registry = std::sync::Arc::new(gcnp_obs::MetricsRegistry::new());
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            arrival_rate: 50.0, // sparse: ~20 ms between arrivals
            n_requests: 8,
            pace: true, // replay in real time so the fleet actually idles
            ..Default::default()
        };
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        engine.set_metrics(crate::EngineMetrics::new(&registry));
        let rep = serve_multi(std::slice::from_mut(&mut engine), &pool, &cfg).unwrap();
        assert_eq!(rep.served, 8);
        assert!(
            rep.wall_seconds > 0.05,
            "paced replay must actually idle (wall {} s)",
            rep.wall_seconds
        );
        let snap = registry.snapshot();
        let wakeups = snap.counters["serving.dispatch.wakeups"];
        assert!(
            wakeups < 100,
            "idle workers woke {wakeups} times over {} batches — \
             that is polling, not event-driven dispatch",
            rep.n_batches
        );
    }

    #[test]
    fn paced_run_reports_wall_clock_latency_percentiles() {
        let (adj, x) = setup();
        let model = zoo::graphsage(8, 8, 3, 2);
        let pool: Vec<usize> = (0..100).collect();
        let cfg = ServingConfig {
            arrival_rate: 300.0,
            max_wait: 0.005,
            n_requests: 30,
            pace: true,
            ..Default::default()
        };
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let rep = serve_multi(std::slice::from_mut(&mut engine), &pool, &cfg).unwrap();
        assert_eq!(rep.served, 30);
        assert!(rep.p50_ms >= 0.0);
        assert!(rep.p50_ms <= rep.p95_ms && rep.p95_ms <= rep.p99_ms && rep.p99_ms <= rep.max_ms);
        assert!(
            rep.wall_seconds >= 0.03,
            "a paced 30-request trace at 300 req/s spans ≥ 100 ms of arrivals, wall {}",
            rep.wall_seconds
        );
    }
}
