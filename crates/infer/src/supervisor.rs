//! Supervision layer for the serving fleets: watchdog + hedged re-execution.
//!
//! The stage-pair executor has surfaces that can wedge without
//! dying — a front stage asleep inside `prepare`, a back stage stuck behind a
//! straggling GEMM, a `StageQueue` that lost a wakeup. The supervisor is a
//! single low-frequency thread per fleet that watches every worker's
//! *pending slot* (the batch it is currently busy on, published before the
//! stage body runs) and takes one of two actions:
//!
//! * **Watchdog steal** — a batch busy past the configured bound is stolen
//!   from its slot, requeued through the existing retry path, and the
//!   worker's stage pair is torn down (barrier killed, queue closed) so the
//!   per-worker manager can respawn a fresh generation. The wedged thread,
//!   when it eventually wakes, finds its slot empty and abandons the
//!   attempt without double-resolving.
//! * **Hedge** — a batch busy past `k×` its routing group's EWMA compute
//!   estimate is speculatively re-dispatched to a free worker. Both copies
//!   share a claim token (`Arc<AtomicBool>`); the first terminal outcome
//!   (success *or* failure) claims it and owns the batch's accounting, the loser
//!   discards its result. Store write-backs are deterministic per batch, so
//!   a duplicate write-back is idempotent.
//!
//! The ownership invariant that makes recovery lossless: every popped batch
//! produces exactly one terminal outcome — a worker completion that still
//! holds its pending entry and wins the claim, or a supervisor steal. All
//! other finishers see an empty slot or a spent token and resolve silently.
//!
//! Everything here is deliberately generic over the batch type so the state
//! machine is unit-testable without spinning up a fleet (see the tests at
//! the bottom).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Re-acquire a possibly poisoned lock. Poisoning only marks that another
/// thread panicked while holding the guard; supervisor state stays
/// consistent because every critical section is a plain field update.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// What the supervisor is allowed to do, derived from `ServingConfig`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SupervisorPolicy {
    /// Steal a batch busy longer than this many seconds (watchdog bound).
    pub(crate) watchdog: Option<f64>,
    /// Hedge a batch busy longer than `k ×` its group's EWMA estimate.
    pub(crate) hedge: Option<f64>,
}

impl SupervisorPolicy {
    pub(crate) fn active(&self) -> bool {
        self.watchdog.is_some() || self.hedge.is_some()
    }

    /// Scan cadence: a quarter of the watchdog bound, clamped to [1, 20] ms
    /// so detection latency stays well inside the bound without burning a
    /// core.
    pub(crate) fn interval(&self) -> Duration {
        let base = self.watchdog.unwrap_or(0.05) / 4.0;
        Duration::from_secs_f64(base.clamp(0.001, 0.02))
    }
}

/// Recovery-action counters, mirrored into obs when enabled and into the
/// serving report unconditionally.
#[derive(Debug, Default)]
pub(crate) struct SupervisorStats {
    pub(crate) restarts: AtomicUsize,
    pub(crate) hedges_fired: AtomicUsize,
}

/// One in-flight batch, published by a worker for the supervisor to watch.
pub(crate) struct PendingEntry<T> {
    pub(crate) item: T,
    /// Fleet-clock seconds when the stage body started on this batch.
    pub(crate) since: f64,
    /// Claim token installed by the supervisor when this entry is hedged.
    pub(crate) hedge: Option<Arc<AtomicBool>>,
    /// Hedge duplicates are never hedged again.
    hedgeable: bool,
}

/// A worker's published in-flight batch. `begin` before the stage body,
/// `finish` after: `None` from `finish` means the supervisor stole the
/// batch and this attempt's outcome is void.
pub(crate) struct PendingSlot<T>(Mutex<Option<PendingEntry<T>>>); // lock: pending.slot

impl<T: Clone> PendingSlot<T> {
    pub(crate) fn new() -> Self {
        Self(Mutex::new(None))
    }

    pub(crate) fn begin(&self, item: &T, since: f64, hedgeable: bool) {
        let _order = gcnp_tensor::lockcheck::acquire("pending.slot");
        *relock(self.0.lock()) = Some(PendingEntry {
            item: item.clone(),
            since,
            hedge: None,
            hedgeable,
        });
    }

    pub(crate) fn finish(&self) -> Option<PendingEntry<T>> {
        let _order = gcnp_tensor::lockcheck::acquire("pending.slot");
        relock(self.0.lock()).take()
    }
}

/// One supervised worker: its two stage slots (front, back), the routing
/// group whose estimate bounds its hedges, and the teardown hook the
/// watchdog fires after a steal.
pub(crate) struct WorkerWatch<'w, T> {
    pub(crate) slots: [&'w PendingSlot<T>; 2],
    pub(crate) group: usize,
    pub(crate) teardown: &'w (dyn Fn() + Sync),
}

/// A single supervision scan over every worker slot at fleet-clock `now`.
///
/// `est(g)` is routing group `g`'s current EWMA compute estimate in
/// seconds (`<= 0` disables hedging of that group's workers for this
/// tick); a worker's batches all belong to its own group. `steal` receives
/// the full stolen entry (the caller claims any hedge token before
/// requeueing); `hedge_fire` receives a clone of the batch plus the freshly
/// installed claim token.
pub(crate) fn tick<T: Clone>(
    watches: &[WorkerWatch<'_, T>],
    policy: &SupervisorPolicy,
    now: f64,
    est: &dyn Fn(usize) -> f64,
    steal: &dyn Fn(PendingEntry<T>),
    hedge_fire: &dyn Fn(T, Arc<AtomicBool>),
    stats: &SupervisorStats,
) {
    for watch in watches {
        let est = est(watch.group);
        for slot in watch.slots {
            let mut fired: Option<PendingEntry<T>> = None;
            let mut hedged: Option<(T, Arc<AtomicBool>)> = None;
            {
                let _order = gcnp_tensor::lockcheck::acquire("pending.slot");
                let mut guard = relock(slot.0.lock());
                if let Some(entry) = guard.as_mut() {
                    let busy = now - entry.since;
                    if policy.watchdog.is_some_and(|bound| busy > bound) {
                        fired = guard.take();
                    } else if let Some(k) = policy.hedge {
                        if est > 0.0 && busy > k * est && entry.hedgeable && entry.hedge.is_none() {
                            let token = Arc::new(AtomicBool::new(false));
                            entry.hedge = Some(Arc::clone(&token));
                            hedged = Some((entry.item.clone(), token));
                        }
                    }
                }
            }
            // Both actions run outside the slot lock: `steal` requeues (and
            // may sleep through retry backoff) and `hedge_fire` touches the
            // dispatch queue.
            if let Some(entry) = fired {
                stats.restarts.fetch_add(1, Ordering::Relaxed);
                (watch.teardown)();
                steal(entry);
            } else if let Some((item, token)) = hedged {
                stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
                hedge_fire(item, token);
            }
        }
    }
}

/// The supervisor loop: scan at the policy cadence until `done` reports
/// that every worker has exited.
#[allow(clippy::too_many_arguments)]
pub(crate) fn supervise<T: Clone>(
    watches: &[WorkerWatch<'_, T>],
    policy: &SupervisorPolicy,
    clock: &dyn Fn() -> f64,
    est: &dyn Fn(usize) -> f64,
    done: &dyn Fn() -> bool,
    steal: &dyn Fn(PendingEntry<T>),
    hedge_fire: &dyn Fn(T, Arc<AtomicBool>),
    stats: &SupervisorStats,
) {
    let interval = policy.interval();
    while !done() {
        tick(watches, policy, clock(), est, steal, hedge_fire, stats);
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn no_teardown() -> &'static (dyn Fn() + Sync) {
        &|| {}
    }

    #[test]
    fn pending_slot_round_trips_and_steals() {
        let slot: PendingSlot<u32> = PendingSlot::new();
        assert!(slot.finish().is_none());
        slot.begin(&7, 1.5, true);
        let entry = slot.finish().expect("entry published");
        assert_eq!(entry.item, 7);
        assert!((entry.since - 1.5).abs() < 1e-12);
        assert!(entry.hedge.is_none());
        // A second finish sees the slot already drained (the steal case).
        assert!(slot.finish().is_none());
    }

    #[test]
    fn watchdog_steals_exactly_once_within_bound() {
        let slot: PendingSlot<u32> = PendingSlot::new();
        slot.begin(&3, 0.0, true);
        let policy = SupervisorPolicy {
            watchdog: Some(0.010),
            hedge: None,
        };
        let stats = SupervisorStats::default();
        let stolen = Mutex::new(Vec::new());
        let torn = AtomicUsize::new(0);
        let teardown = || {
            torn.fetch_add(1, Ordering::Relaxed);
        };
        let watches = [WorkerWatch {
            slots: [&slot, &slot],
            group: 0,
            teardown: &teardown,
        }];
        let steal = |e: PendingEntry<u32>| relock(stolen.lock()).push(e.item);
        let hedge = |_: u32, _: Arc<AtomicBool>| {};

        // Inside the bound: nothing fires.
        tick(&watches, &policy, 0.005, &|_| 0.0, &steal, &hedge, &stats);
        assert!(relock(stolen.lock()).is_empty());
        // One tick past the bound: stolen, torn down, counted — once, even
        // though the worker appears in two slots and we tick again after.
        tick(&watches, &policy, 0.011, &|_| 0.0, &steal, &hedge, &stats);
        tick(&watches, &policy, 0.020, &|_| 0.0, &steal, &hedge, &stats);
        assert_eq!(*relock(stolen.lock()), vec![3]);
        assert_eq!(torn.load(Ordering::Relaxed), 1);
        assert_eq!(stats.restarts.load(Ordering::Relaxed), 1);
        assert!(slot.finish().is_none());
    }

    #[test]
    fn hedge_fires_once_and_respects_eligibility() {
        let slot: PendingSlot<u32> = PendingSlot::new();
        slot.begin(&9, 0.0, true);
        let policy = SupervisorPolicy {
            watchdog: None,
            hedge: Some(3.0),
        };
        let stats = SupervisorStats::default();
        let fired = AtomicU64::new(0);
        let tokens = Mutex::new(Vec::new());
        let watches = [WorkerWatch {
            slots: [&slot, &slot],
            group: 0,
            teardown: no_teardown(),
        }];
        let steal = |_: PendingEntry<u32>| {};
        let hedge = |item: u32, token: Arc<AtomicBool>| {
            fired.fetch_add(1, Ordering::Relaxed);
            assert_eq!(item, 9);
            relock(tokens.lock()).push(token);
        };

        // est == 0 (cold fleet) never hedges.
        tick(&watches, &policy, 10.0, &|_| 0.0, &steal, &hedge, &stats);
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        // Busy 10s > 3 × 1s: hedge fires, token installed, and repeat ticks
        // don't re-fire on the same entry.
        tick(&watches, &policy, 10.0, &|_| 1.0, &steal, &hedge, &stats);
        tick(&watches, &policy, 20.0, &|_| 1.0, &steal, &hedge, &stats);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(stats.hedges_fired.load(Ordering::Relaxed), 1);
        let entry = slot.finish().expect("still pending");
        let token = entry.hedge.expect("token installed");
        assert!(Arc::ptr_eq(&token, &relock(tokens.lock())[0]));

        // A hedge duplicate (hedgeable = false) is never hedged again.
        slot.begin(&9, 0.0, false);
        tick(&watches, &policy, 30.0, &|_| 1.0, &steal, &hedge, &stats);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hedge_bound_reads_the_watched_workers_group() {
        // Two workers busy equally long on groups with different estimates:
        // only the one whose own group's bound is exceeded hedges.
        let (fast, slow): (PendingSlot<u32>, PendingSlot<u32>) =
            (PendingSlot::new(), PendingSlot::new());
        fast.begin(&1, 0.0, true);
        slow.begin(&2, 0.0, true);
        let policy = SupervisorPolicy {
            watchdog: None,
            hedge: Some(2.0),
        };
        let stats = SupervisorStats::default();
        let hedged = Mutex::new(Vec::new());
        let watches = [
            WorkerWatch {
                slots: [&fast, &fast],
                group: 0,
                teardown: no_teardown(),
            },
            WorkerWatch {
                slots: [&slow, &slow],
                group: 1,
                teardown: no_teardown(),
            },
        ];
        let steal = |_: PendingEntry<u32>| {};
        let hedge = |item: u32, _: Arc<AtomicBool>| relock(hedged.lock()).push(item);
        // Busy 1 s: past 2 × 0.1 s (group 0), inside 2 × 1 s (group 1).
        let est = |g: usize| if g == 0 { 0.1 } else { 1.0 };
        tick(&watches, &policy, 1.0, &est, &steal, &hedge, &stats);
        assert_eq!(*relock(hedged.lock()), vec![1]);
    }

    #[test]
    fn watchdog_wins_over_hedging_on_the_same_tick() {
        let slot: PendingSlot<u32> = PendingSlot::new();
        slot.begin(&4, 0.0, true);
        let policy = SupervisorPolicy {
            watchdog: Some(0.5),
            hedge: Some(2.0),
        };
        let stats = SupervisorStats::default();
        let stolen = AtomicU64::new(0);
        let hedged = AtomicU64::new(0);
        let watches = [WorkerWatch {
            slots: [&slot, &slot],
            group: 0,
            teardown: no_teardown(),
        }];
        let steal = |_: PendingEntry<u32>| {
            stolen.fetch_add(1, Ordering::Relaxed);
        };
        let hedge = |_: u32, _: Arc<AtomicBool>| {
            hedged.fetch_add(1, Ordering::Relaxed);
        };
        // Past both thresholds: the steal takes priority (the batch is
        // requeued, so duplicating it as well would double-serve).
        tick(&watches, &policy, 1.0, &|_| 0.1, &steal, &hedge, &stats);
        assert_eq!(stolen.load(Ordering::Relaxed), 1);
        assert_eq!(hedged.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn policy_interval_stays_inside_the_bound() {
        let p = SupervisorPolicy {
            watchdog: Some(0.04),
            hedge: None,
        };
        assert!(p.interval() <= Duration::from_millis(10));
        assert!(p.interval() >= Duration::from_millis(1));
        let loose = SupervisorPolicy {
            watchdog: Some(10.0),
            hedge: None,
        };
        assert_eq!(loose.interval(), Duration::from_millis(20));
        assert!(SupervisorPolicy::default().interval() >= Duration::from_millis(1));
    }
}
