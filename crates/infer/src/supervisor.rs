//! Supervision layer for the serving fleets: the watchdog.
//!
//! The stage-pair executor has surfaces that can wedge without
//! dying — a front stage asleep inside `prepare`, a back stage stuck behind a
//! straggling GEMM, a `StageQueue` that lost a wakeup. The supervisor is a
//! single low-frequency thread per fleet that watches every worker's
//! *pending slot* (the batch it is currently busy on, published before the
//! stage body runs). A batch busy past the watchdog bound is stolen from its
//! slot and handed to the caller, which requeues it through the existing
//! retry path, and the worker's stage pair is torn down (barrier killed,
//! queue closed) so the per-worker manager can respawn a fresh generation.
//! The wedged thread, when it eventually wakes, finds its slot empty and
//! abandons the attempt without double-resolving.
//!
//! The ownership invariant that makes recovery lossless: the attempt whose
//! [`PendingSlot::finish`] returns its entry owns the batch, and a watchdog
//! steal empties the slot.
//!
//! Everything here is deliberately generic over the batch type so the state
//! machine is unit-testable without spinning up a fleet (see the tests at
//! the bottom).

use crate::pipeline::relock;
use std::sync::Mutex;
use std::time::Duration;

/// One in-flight batch, published by a worker for the supervisor to watch.
pub(crate) struct PendingEntry<T> {
    item: T,
    /// Fleet-clock seconds when the stage body started on this batch.
    since: f64,
}

/// A worker's published in-flight batch. `begin` before the stage body,
/// `finish` after: `None` from `finish` means the supervisor stole the
/// batch and this attempt's outcome is void.
pub(crate) struct PendingSlot<T>(Mutex<Option<PendingEntry<T>>>); // lock: pending.slot

impl<T: Clone> PendingSlot<T> {
    pub(crate) fn new() -> Self {
        Self(Mutex::new(None))
    }

    pub(crate) fn begin(&self, item: &T, since: f64) {
        let _order = gcnp_tensor::lockcheck::acquire("pending.slot");
        *relock(self.0.lock()) = Some(PendingEntry {
            item: item.clone(),
            since,
        });
    }

    pub(crate) fn finish(&self) -> Option<PendingEntry<T>> {
        let _order = gcnp_tensor::lockcheck::acquire("pending.slot");
        relock(self.0.lock()).take()
    }
}

/// One supervised worker: its two stage slots (front, back) and the
/// teardown hook the watchdog fires after a steal.
pub(crate) struct WorkerWatch<'w, T> {
    pub(crate) slots: [&'w PendingSlot<T>; 2],
    pub(crate) teardown: &'w (dyn Fn() + Sync),
}

/// Scan cadence for a watchdog bound of `bound` seconds: a quarter of it,
/// clamped to [1, 20] ms so detection latency stays well inside the bound
/// without burning a core.
fn interval(bound: f64) -> Duration {
    Duration::from_secs_f64((bound / 4.0).clamp(0.001, 0.02))
}

/// A single supervision scan over every worker slot at fleet-clock `now`:
/// every batch busy longer than `bound` seconds is taken from its slot, its
/// worker torn down, and the batch handed to `steal`.
fn tick<T: Clone>(watches: &[WorkerWatch<'_, T>], bound: f64, now: f64, steal: &dyn Fn(T)) {
    for watch in watches {
        for slot in watch.slots {
            let stolen = {
                let _order = gcnp_tensor::lockcheck::acquire("pending.slot");
                let mut guard = relock(slot.0.lock());
                if guard.as_ref().is_some_and(|e| now - e.since > bound) {
                    guard.take()
                } else {
                    None
                }
            };
            // Outside the slot lock: `steal` requeues, and may sleep through
            // retry backoff.
            if let Some(entry) = stolen {
                (watch.teardown)();
                steal(entry.item);
            }
        }
    }
}

/// The supervisor loop: scan at the cadence of the watchdog `bound` until
/// `done` reports that every worker has exited.
pub(crate) fn supervise<T: Clone>(
    watches: &[WorkerWatch<'_, T>],
    bound: f64,
    clock: &dyn Fn() -> f64,
    done: &dyn Fn() -> bool,
    steal: &dyn Fn(T),
) {
    while !done() {
        tick(watches, bound, clock(), steal);
        std::thread::sleep(interval(bound));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pending_slot_round_trips_and_steals() {
        let slot: PendingSlot<u32> = PendingSlot::new();
        assert!(slot.finish().is_none());
        slot.begin(&7, 1.5);
        let entry = slot.finish().expect("entry published");
        assert_eq!(entry.item, 7);
        assert!((entry.since - 1.5).abs() < 1e-12);
        // A second finish sees the slot already drained (the steal case).
        assert!(slot.finish().is_none());
    }

    #[test]
    fn watchdog_steals_exactly_once_within_bound() {
        let slot: PendingSlot<u32> = PendingSlot::new();
        slot.begin(&3, 0.0);
        let stolen = Mutex::new(Vec::new());
        let torn = AtomicUsize::new(0);
        let teardown = || {
            torn.fetch_add(1, Ordering::Relaxed);
        };
        let watches = [WorkerWatch {
            slots: [&slot, &slot],
            teardown: &teardown,
        }];
        let steal = |item: u32| relock(stolen.lock()).push(item);

        // Inside the bound: nothing fires.
        tick(&watches, 0.010, 0.005, &steal);
        assert!(relock(stolen.lock()).is_empty());
        // One tick past the bound: stolen and torn down — once, even though
        // the worker appears in two slots and we tick again after.
        tick(&watches, 0.010, 0.011, &steal);
        tick(&watches, 0.010, 0.020, &steal);
        assert_eq!(*relock(stolen.lock()), vec![3]);
        assert_eq!(torn.load(Ordering::Relaxed), 1);
        assert!(slot.finish().is_none());
    }

    #[test]
    fn interval_stays_inside_the_bound() {
        assert!(interval(0.04) <= Duration::from_millis(10));
        assert!(interval(0.04) >= Duration::from_millis(1));
        assert_eq!(interval(10.0), Duration::from_millis(20));
        assert_eq!(interval(1e-6), Duration::from_millis(1));
    }
}
