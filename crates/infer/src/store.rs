//! The hidden-feature store (§3.3.2).
//!
//! Stores `h⁽ˡ⁾` rows of visited nodes per middle layer. During batched
//! inference, a supporting node whose hidden feature is stored aggregates
//! directly from the store instead of expanding to its own neighbors —
//! ideally collapsing batched complexity to full-inference complexity
//! (`d → 1` in Eq. 3).
//!
//! Layout: each level of each stripe is one dense slab, `slots × width`
//! floats plus a filled mark and a [`row_checksum`] per slot, allocated by
//! the stripe's first `put` at that level. Width is a property of the
//! level: the first `put` into an empty level fixes it, and a `put` of
//! another width into a non-empty level is a typed
//! [`ServingError::InvariantViolation`] (`store.put.width`), so every row a
//! level serves has the width the engine checks once per batch
//! ([`FeatureStore::level_width`]).
//!
//! Concurrency: reads dominate (every batch probes the store) and, with
//! multi-worker serving, several engine replicas hit the store at once. The
//! store is therefore **lock-striped**: node ids are sharded across
//! [`N_STRIPES`] independent `RwLock`-protected shards (`stripe = node mod
//! N_STRIPES`), so concurrent writers to different nodes rarely contend and
//! readers never block readers. The engine reads through
//! [`FeatureStore::probe`]: one counted lookup per supporting node that
//! lends a verified row to a closure under the stripe's read guard, so the
//! expansion that asks "is it stored?" stages the row in the same step.
//!
//! Integrity: `put` stores a [`row_checksum`] with every row, and every
//! read — [`FeatureStore::probe`], [`FeatureStore::with_row`] and the
//! quarantine's re-check under the write guard — verifies it. The checksum
//! is a lane-parallel weighted sum of the row's bit patterns with odd
//! weights, so any change confined to one element (a flipped bit anywhere
//! in the row) is a mismatch, and it costs a few nanoseconds per row, so it
//! stays on the hit path.
//!
//! Crash tolerance: stripe guards recover from lock poisoning (a worker
//! that panics while writing must not brick the store shared by the
//! surviving replicas) — see `FeatureStore::read_stripe` for why recovery
//! is sound.

use crate::error::{ServingError, ServingResult};
use crate::metrics::StoreMetrics;
use gcnp_obs::MetricsRegistry;
use gcnp_tensor::Matrix;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of lock stripes; power of two so `node & (N_STRIPES - 1)` selects
/// the stripe. 16 keeps contention negligible for typical worker counts
/// (≤ 16 replicas) at ~1 KiB of lock overhead.
pub const N_STRIPES: usize = 16;

/// Corruption events on one stripe before its circuit breaker trips and the
/// whole stripe is bypassed (every probe misses, forcing re-gather from
/// level-0). Quarantining individual rows handles isolated flips; a stripe
/// that keeps producing mismatches is treated as bad memory.
pub const STRIPE_BREAKER_THRESHOLD: u32 = 3;

/// The integrity checksum every stored row carries: a lane-parallel
/// weighted sum of its bit patterns that changes under any change confined
/// to one element (see [`gcnp_tensor::checksum`]). `put` writes it, and
/// every read and the quarantine's re-check verify it.
pub use gcnp_tensor::row_checksum;

/// One level's rows owned by one stripe: a dense slab. Nodes are mapped to
/// local slots by `node / N_STRIPES`.
struct StripeLevel {
    /// Row width of the slab; `None` until the stripe's first `put` at this
    /// level allocates it.
    width: Option<usize>,
    /// `slots × width` floats, row-major; slot `local` holds a row when
    /// `filled[local]` is set.
    rows: Vec<f32>,
    filled: Vec<bool>,
    /// [`row_checksum`] of each filled slot, written with it under the same
    /// guard; meaningless while the slot is empty.
    sums: Vec<u64>,
    count: usize,
}

impl StripeLevel {
    fn new(slots: usize) -> Self {
        Self {
            width: None,
            rows: Vec::new(),
            filled: vec![false; slots],
            sums: vec![0; slots],
            count: 0,
        }
    }

    /// The row in slot `local`, if one is stored.
    // audit: allow(no-fail-stop) — callers pass slots of nodes < n_nodes, which every stripe level holds
    fn row(&self, local: usize) -> Option<&[f32]> {
        let w = self.width?;
        self.filled[local].then(|| &self.rows[local * w..(local + 1) * w])
    }
}

struct Stripe {
    levels: Vec<StripeLevel>,
}

/// Level-wide state, readable without a stripe lock.
struct Level {
    /// Width of every row stored at this level; meaningful while `len > 0`.
    width: AtomicUsize,
    /// Rows stored across all stripes (changed under the stripe's write
    /// guard, alongside the stripe's own count).
    len: AtomicUsize,
}

/// A stripe guard carrying its runtime lock-order token (`lock-order`
/// feature): the token lives exactly as long as the guard, so the tracker
/// sees `store.stripe` on the acquisition stack whenever a stripe is held.
struct OrderedGuard<G> {
    guard: G,
    _order: gcnp_tensor::lockcheck::Token,
}

impl<G: std::ops::Deref> std::ops::Deref for OrderedGuard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for OrderedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// Stored hidden features for the middle layers of an `L`-layer model,
/// sharded across [`N_STRIPES`] lock stripes keyed by node id.
pub struct FeatureStore {
    stripes: Vec<RwLock<Stripe>>, // lock: store.stripe
    levels: Vec<Level>,
    n_nodes: usize,
    n_levels: usize,
    /// Per-stripe corruption event counts; a stripe whose count reaches
    /// [`STRIPE_BREAKER_THRESHOLD`] is bypassed entirely (circuit breaker).
    corruptions: Vec<AtomicU32>,
    /// Checksum mismatches observed on read (each is also quarantined).
    detected: AtomicU64,
    /// Rows evicted because their checksum no longer matched.
    quarantined: AtomicU64,
    /// Optional hit/miss/evict/write counters (see
    /// [`FeatureStore::attach_metrics`]); unset stores count nothing.
    metrics: OnceLock<StoreMetrics>,
}

#[inline]
fn stripe_of(node: usize) -> usize {
    node & (N_STRIPES - 1)
}

#[inline]
fn local_of(node: usize) -> usize {
    node / N_STRIPES
}

/// The typed error of a `put` whose row is not its level's width.
fn width_error(level: usize, width: usize, got: usize) -> ServingError {
    ServingError::InvariantViolation {
        check: "store.put.width",
        detail: format!("level {level} holds rows of width {width}; a put of width {got}"),
    }
}

impl FeatureStore {
    /// Acquire stripe `idx`'s read guard, recovering from poison. A stripe
    /// is only poisoned when a thread panicked *while holding the write
    /// guard*; no write path here can panic between its first write and
    /// the point where the slot's row, mark and checksum agree again (the
    /// row is copied into a slab already sized for it, and every index is
    /// validated first), so the data behind a poisoned lock is still
    /// consistent — a worker crash must not brick the shared store for the
    /// surviving replicas. Each recovery is counted in
    /// `store.poison_recovered`.
    // lock: acquires store.stripe
    #[inline]
    fn read_stripe(&self, idx: usize) -> OrderedGuard<RwLockReadGuard<'_, Stripe>> {
        let order = gcnp_tensor::lockcheck::acquire("store.stripe");
        let lock = &self.stripes[idx & (N_STRIPES - 1)]; // audit: allow(no-fail-stop) — masked into 0..N_STRIPES and the store holds exactly N_STRIPES stripes
        let guard = lock.read().unwrap_or_else(|e| {
            if let Some(m) = self.metrics.get() {
                m.poison_recovered.inc();
            }
            e.into_inner()
        });
        OrderedGuard {
            guard,
            _order: order,
        }
    }

    /// Acquire stripe `idx`'s write guard, recovering from poison (see
    /// `FeatureStore::read_stripe`).
    // lock: acquires store.stripe
    #[inline]
    fn write_stripe(&self, idx: usize) -> OrderedGuard<RwLockWriteGuard<'_, Stripe>> {
        let order = gcnp_tensor::lockcheck::acquire("store.stripe");
        let lock = &self.stripes[idx & (N_STRIPES - 1)]; // audit: allow(no-fail-stop) — masked into 0..N_STRIPES and the store holds exactly N_STRIPES stripes
        let guard = lock.write().unwrap_or_else(|e| {
            if let Some(m) = self.metrics.get() {
                m.poison_recovered.inc();
            }
            e.into_inner()
        });
        OrderedGuard {
            guard,
            _order: order,
        }
    }

    /// An empty store for `n_nodes` nodes and `n_levels` middle layers
    /// (levels are 1-based: level `l` stores `h⁽ˡ⁾`). No slab is allocated
    /// until a row is stored.
    pub fn new(n_nodes: usize, n_levels: usize) -> Self {
        let stripes = (0..N_STRIPES)
            .map(|i| {
                // Nodes i, i + N_STRIPES, … below n_nodes.
                let slots = (n_nodes + N_STRIPES - 1 - i) / N_STRIPES;
                RwLock::new(Stripe {
                    levels: (0..n_levels).map(|_| StripeLevel::new(slots)).collect(),
                })
            })
            .collect();
        Self {
            stripes,
            levels: (0..n_levels)
                .map(|_| Level {
                    width: AtomicUsize::new(0),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            n_nodes,
            n_levels,
            corruptions: (0..N_STRIPES).map(|_| AtomicU32::new(0)).collect(),
            detected: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    /// Attach per-level hit/miss/evict/write counters resolved from
    /// `registry` (names `store.{hit|miss|evict|write}.l{level}` plus
    /// `store.poison_recovered`). First call wins; later calls are ignored —
    /// the fleet shares one store and one registry, so re-attachment is a
    /// no-op rather than an error.
    pub fn attach_metrics(&self, registry: &Arc<MetricsRegistry>) {
        let _ = self.metrics.set(StoreMetrics::new(registry, self.n_levels));
    }

    /// Number of nodes the store covers.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of middle layers the store covers.
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// True when `(level, node)` addresses a slot of this store.
    fn in_bounds(&self, level: usize, node: usize) -> bool {
        node < self.n_nodes && level != 0 && level <= self.n_levels
    }

    /// Count one in-bounds lookup as a hit or a miss.
    fn count(&self, level: usize, hit: bool) {
        if let Some(m) = self.metrics.get() {
            if hit {
                m.hit(level);
            } else {
                m.miss(level);
            }
        }
    }

    /// True when `h⁽ˡᵉᵛᵉˡ⁾` of `node` is stored (level 1-based). In-bounds
    /// probes count toward `store.{hit|miss}.l{level}` (out-of-bounds probes
    /// are caller bugs, not cache misses).
    pub fn has(&self, level: usize, node: usize) -> bool {
        if !self.in_bounds(level, node) {
            return false;
        }
        let hit = !self.stripe_bypassed(stripe_of(node)) && {
            let stripe = self.read_stripe(stripe_of(node));
            stripe.levels[level - 1].filled[local_of(node)] // audit: allow(no-fail-stop) — level/node bounds checked above
        };
        self.count(level, hit);
        hit
    }

    /// The engine's read: look `h⁽ˡᵉᵛᵉˡ⁾` of `node` up once, counted as one
    /// hit or miss like [`FeatureStore::has`], and on a hit lend the
    /// verified row to `stage` under the stripe's read guard. A row whose
    /// checksum no longer matches is quarantined and reads as a miss, so
    /// the caller computes the node instead of failing the batch.
    pub fn probe(&self, level: usize, node: usize, stage: impl FnOnce(&[f32])) -> bool {
        if !self.in_bounds(level, node) {
            return false;
        }
        let hit = self.lend(level, node, stage).is_some();
        self.count(level, hit);
        hit
    }

    /// Lend the stored row to `f` under the stripe's read guard, without
    /// counting the read. Returns `None` (without calling `f`) when the row
    /// is absent, when its stripe's circuit breaker is open, or when the
    /// row's [`row_checksum`] no longer matches — a mismatched row is
    /// quarantined (evicted and counted) instead of served, so corrupted
    /// data can never reach a caller.
    pub fn with_row<R>(&self, level: usize, node: usize, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        if !self.in_bounds(level, node) {
            return None;
        }
        self.lend(level, node, f)
    }

    /// [`FeatureStore::with_row`] for in-bounds coordinates.
    fn lend<R>(&self, level: usize, node: usize, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        if self.stripe_bypassed(stripe_of(node)) {
            return None;
        }
        {
            let stripe = self.read_stripe(stripe_of(node));
            let l = &stripe.levels[level - 1]; // audit: allow(no-fail-stop) — level bounds checked by every caller
            let local = local_of(node);
            match l.row(local) {
                None => return None,
                Some(row) if row_checksum(row) == l.sums[local] => return Some(f(row)), // audit: allow(no-fail-stop) — same validated slot
                Some(_) => {} // checksum mismatch: fall through, guard drops
            }
        }
        self.quarantine(level, node);
        None
    }

    /// The width of every row stored at `level`, or `None` while the level
    /// is empty (or outside the store): the one width check a batch makes
    /// per level instead of one per row.
    pub fn level_width(&self, level: usize) -> Option<usize> {
        let l = self.levels.get(level.checked_sub(1)?)?;
        (l.len.load(Ordering::Acquire) > 0).then(|| l.width.load(Ordering::Acquire))
    }

    /// True when `stripe`'s circuit breaker is open.
    fn stripe_bypassed(&self, stripe: usize) -> bool {
        self.corruptions
            .get(stripe)
            .is_some_and(|c| c.load(Ordering::Acquire) >= STRIPE_BREAKER_THRESHOLD)
    }

    /// Empty slot `local` of `l` (level `level`), which holds a row.
    // audit: allow(no-fail-stop) — callers pass a validated level and a filled slot
    fn vacate(&self, l: &mut StripeLevel, level: usize, local: usize) {
        l.filled[local] = false;
        l.count -= 1;
        self.levels[level - 1].len.fetch_sub(1, Ordering::AcqRel);
    }

    /// Evict a row whose checksum failed, under the write guard (re-checked
    /// there: a concurrent `put` may have replaced the row since the read).
    fn quarantine(&self, level: usize, node: usize) {
        self.detected.fetch_add(1, Ordering::Relaxed);
        let still_corrupt = {
            let mut stripe = self.write_stripe(stripe_of(node));
            let l = &mut stripe.levels[level - 1]; // audit: allow(no-fail-stop) — bounds validated by the only caller (lend)
            let local = local_of(node);
            let corrupt = l
                .row(local)
                .is_some_and(|row| row_checksum(row) != l.sums[local]); // audit: allow(no-fail-stop) — same validated slot
            if corrupt {
                self.vacate(l, level, local);
            }
            corrupt
        };
        if !still_corrupt {
            return;
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.corruptions.get(stripe_of(node)) {
            c.fetch_add(1, Ordering::AcqRel);
        }
        if let Some(m) = self.metrics.get() {
            m.corruption_detected.inc();
            m.corruption_quarantined.inc();
        }
    }

    /// `(detected, quarantined)` checksum-mismatch events so far —
    /// obs-independent, so chaos acceptance tests hold in `obs-off` builds.
    pub fn corruption_counts(&self) -> (u64, u64) {
        (
            self.detected.load(Ordering::Relaxed),
            self.quarantined.load(Ordering::Relaxed),
        )
    }

    /// Number of stripes whose circuit breaker is currently open.
    pub fn bypassed_stripes(&self) -> usize {
        (0..N_STRIPES).filter(|&s| self.stripe_bypassed(s)).count()
    }

    /// Fault hook for [`crate::Fault::RowFlip`]: flip one bit of one
    /// resident row, chosen deterministically from `seed`, *without*
    /// updating its checksum — exactly what silent memory corruption looks
    /// like. Returns the `(level, node)` hit, or `None` when the store holds
    /// no rows. The next read of that row ([`FeatureStore::probe`] or
    /// [`FeatureStore::with_row`]) detects the mismatch and quarantines it.
    pub fn inject_bit_flip(&self, seed: u64) -> Option<(usize, usize)> {
        let total: usize = self
            .levels
            .iter()
            .map(|l| l.len.load(Ordering::Acquire))
            .sum();
        if total == 0 {
            return None;
        }
        let mut k = (seed % total as u64) as usize;
        for i in 0..N_STRIPES {
            let mut stripe = self.write_stripe(i);
            for (li, l) in stripe.levels.iter_mut().enumerate() {
                if k >= l.count {
                    k -= l.count;
                    continue;
                }
                let Some(w) = l.width else {
                    continue;
                };
                let mut held = l.filled.iter().enumerate().filter(|&(_, &f)| f);
                let Some((local, _)) = held.nth(k) else {
                    continue;
                };
                let row = l.rows.get_mut(local * w..(local + 1) * w)?;
                let elem = (seed >> 8) as usize % row.len().max(1);
                if let Some(v) = row.get_mut(elem) {
                    *v = f32::from_bits(v.to_bits() ^ (1 << ((seed >> 16) % 23)));
                }
                return Some((li + 1, local * N_STRIPES + i));
            }
        }
        None
    }

    /// Copy the stored row, if present. Prefer [`FeatureStore::probe`] in
    /// hot loops; this allocates per hit.
    pub fn get(&self, level: usize, node: usize) -> Option<Vec<f32>> {
        self.with_row(level, node, |row| row.to_vec())
    }

    /// Store (or overwrite) one node's hidden feature row. A write that
    /// addresses a level or node outside the store's bounds, or whose row is
    /// not the width of the rows its level already holds, is a typed
    /// [`ServingError::InvariantViolation`] (`store.put.bounds`,
    /// `store.put.width`), not a worker panic — a store sized or filled for
    /// a different graph or model must degrade, not abort. The first `put`
    /// into an empty level fixes the level's width.
    pub fn put(&self, level: usize, node: usize, row: &[f32]) -> ServingResult<()> {
        if !self.in_bounds(level, node) {
            return Err(ServingError::InvariantViolation {
                check: "store.put.bounds",
                detail: format!(
                    "level {level} node {node} outside store bounds ({} levels, {} nodes)",
                    self.n_levels, self.n_nodes
                ),
            });
        }
        let w = row.len();
        let lvl = &self.levels[level - 1]; // audit: allow(no-fail-stop) — level bounds validated above
        let fixed = lvl.width.load(Ordering::Acquire);
        if fixed != w {
            if lvl.len.load(Ordering::Acquire) > 0 {
                return Err(width_error(level, fixed, w));
            }
            lvl.width.store(w, Ordering::Release);
        }
        if let Some(m) = self.metrics.get() {
            m.write(level);
        }
        let sum = row_checksum(row);
        let mut stripe = self.write_stripe(stripe_of(node));
        let l = &mut stripe.levels[level - 1]; // audit: allow(no-fail-stop) — level bounds validated above
        if l.width != Some(w) {
            // A racing put of another width reached this stripe first.
            if let (Some(held), true) = (l.width, l.count > 0) {
                return Err(width_error(level, held, w));
            }
            l.rows = vec![0.0; l.filled.len() * w];
            l.width = Some(w);
        }
        let local = local_of(node);
        // audit: allow(no-fail-stop) — every node < n_nodes has a slot of width w in its stripe's slab
        l.rows[local * w..(local + 1) * w].copy_from_slice(row);
        // audit: allow(no-fail-stop) — same validated slot
        l.sums[local] = sum;
        // audit: allow(no-fail-stop) — same validated slot
        if !l.filled[local] {
            l.filled[local] = true; // audit: allow(no-fail-stop) — same validated slot
            l.count += 1;
            lvl.len.fetch_add(1, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Bulk-load rows of `h` for `nodes` at `level` (offline pre-population,
    /// e.g. training + validation nodes after training). Rejects a
    /// node-list/matrix arity mismatch as a typed error.
    pub fn put_rows(&self, level: usize, nodes: &[usize], h: &Matrix) -> ServingResult<()> {
        if nodes.len() != h.rows() {
            return Err(ServingError::InvariantViolation {
                check: "store.put_rows.arity",
                detail: format!("{} nodes vs {} matrix rows", nodes.len(), h.rows()),
            });
        }
        for (i, &v) in nodes.iter().enumerate() {
            self.put(level, v, h.row(i))?;
        }
        Ok(())
    }

    /// Invalidate one node's stored row at `level`, returning whether a row
    /// was actually removed. This is the incremental-invalidation primitive
    /// of graph accretion (see `crate::shard::ShardedStore::accrete`): a new
    /// edge dirties only the affected L-hop reverse neighborhoods, and each
    /// dirty `(level, node)` pair is dropped here instead of `clear()`ing
    /// the store. Out-of-bounds coordinates are a no-op `false` — callers
    /// walk dirty sets derived from a *newer* graph than the store was
    /// sized for, and unknown nodes trivially have nothing to invalidate.
    pub fn remove(&self, level: usize, node: usize) -> bool {
        if !self.in_bounds(level, node) {
            return false;
        }
        let removed = {
            let mut stripe = self.write_stripe(stripe_of(node));
            let l = &mut stripe.levels[level - 1]; // audit: allow(no-fail-stop) — level bounds validated above
            let local = local_of(node);
            let held = l.filled[local]; // audit: allow(no-fail-stop) — every node < n_nodes has a slot
            if held {
                self.vacate(l, level, local);
            }
            held
        };
        if removed {
            if let Some(m) = self.metrics.get() {
                m.evict(level, 1);
            }
        }
        removed
    }

    /// Number of stored rows at `level` (summed across stripes); 0 for a
    /// level the store does not cover.
    pub fn len(&self, level: usize) -> usize {
        level
            .checked_sub(1)
            .and_then(|l| self.levels.get(l))
            .map_or(0, |l| l.len.load(Ordering::Acquire))
    }

    /// True when nothing is stored at `level`.
    pub fn is_empty(&self, level: usize) -> bool {
        self.len(level) == 0
    }

    /// Drop everything, slabs included: every level's width is free again.
    pub fn clear(&self) {
        for i in 0..N_STRIPES {
            let mut stripe = self.write_stripe(i);
            for (lvl, l) in self.levels.iter().zip(stripe.levels.iter_mut()) {
                lvl.len.fetch_sub(l.count, Ordering::AcqRel);
                *l = StripeLevel::new(l.filled.len());
            }
        }
        for c in &self.corruptions {
            c.store(0, Ordering::Release);
        }
    }

    /// Heap bytes of the allocated row slabs: a stripe's slab at a level
    /// holds every slot of the stripe once its first row is stored.
    pub fn nbytes(&self) -> usize {
        (0..N_STRIPES)
            .map(|i| {
                let stripe = self.read_stripe(i);
                stripe
                    .levels
                    .iter()
                    .map(|l| l.rows.len() * 4)
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn put_get_roundtrip() {
        let s = FeatureStore::new(10, 2);
        assert!(!s.has(1, 3));
        s.put(1, 3, &[1.0, 2.0]).unwrap();
        assert!(s.has(1, 3));
        assert_eq!(s.get(1, 3), Some(vec![1.0, 2.0]));
        assert!(!s.has(2, 3), "levels are independent");
        assert_eq!(s.len(1), 1);
    }

    #[test]
    fn with_row_lends_without_copy() {
        let s = FeatureStore::new(40, 1);
        s.put(1, 33, &[3.0, 4.0]).unwrap();
        let norm = s.with_row(1, 33, |row| row.iter().map(|v| v * v).sum::<f32>());
        assert_eq!(norm, Some(25.0));
        assert_eq!(
            s.with_row(1, 7, |_| unreachable!("absent row must not call f")),
            None::<()>
        );
    }

    #[test]
    fn overwrite_does_not_double_count() {
        let s = FeatureStore::new(4, 1);
        s.put(1, 0, &[1.0]).unwrap();
        s.put(1, 0, &[2.0]).unwrap();
        assert_eq!(s.len(1), 1);
        assert_eq!(s.get(1, 0), Some(vec![2.0]));
    }

    #[test]
    fn bulk_load_from_matrix() {
        let s = FeatureStore::new(6, 1);
        let h = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        s.put_rows(1, &[5, 1], &h).unwrap();
        assert_eq!(s.get(1, 5), Some(vec![1., 2., 3.]));
        assert_eq!(s.get(1, 1), Some(vec![4., 5., 6.]));
        assert_eq!(s.len(1), 2);
    }

    #[test]
    fn remove_evicts_one_row() {
        let s = FeatureStore::new(4, 2);
        s.put(1, 0, &[1.0]).unwrap();
        s.put(1, 1, &[2.0]).unwrap();
        s.put(2, 0, &[3.0]).unwrap();
        assert!(s.remove(1, 0), "a stored row is removed");
        assert!(!s.remove(1, 0), "removing twice is a no-op");
        assert!(!s.remove(1, 99), "out of bounds is a no-op");
        assert!(!s.has(1, 0), "removed row evicted");
        assert!(s.has(1, 1), "its neighbour kept");
        assert!(s.has(2, 0), "the same node at another level kept");
        assert_eq!(s.len(1), 1);
    }

    #[test]
    fn clear_resets() {
        let s = FeatureStore::new(4, 2);
        s.put(1, 0, &[1.0]).unwrap();
        s.put(2, 1, &[2.0]).unwrap();
        s.clear();
        assert_eq!(s.len(1) + s.len(2), 0);
        assert_eq!(s.nbytes(), 0);
    }

    #[test]
    fn nbytes_counts_rows() {
        let s = FeatureStore::new(4, 1);
        s.put(1, 0, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.nbytes(), 12);
    }

    #[test]
    fn covers_every_stripe() {
        // Nodes spanning all residues mod N_STRIPES land in distinct shards
        // and every one is retrievable.
        let n = 3 * N_STRIPES + 5;
        let s = FeatureStore::new(n, 1);
        for v in 0..n {
            s.put(1, v, &[v as f32]).unwrap();
        }
        assert_eq!(s.len(1), n);
        for v in 0..n {
            assert_eq!(s.get(1, v), Some(vec![v as f32]));
        }
    }

    /// Poison recovery: a thread that panics while holding a stripe's write
    /// guard poisons the `RwLock`; the store must keep serving (reads,
    /// writes, len, removal) on that stripe instead of propagating the
    /// poison panic to every surviving worker.
    #[test]
    fn poisoned_stripe_still_serves() {
        let store = Arc::new(FeatureStore::new(2 * N_STRIPES, 1));
        let registry = Arc::new(MetricsRegistry::new());
        store.attach_metrics(&registry);
        store.put(1, 0, &[1.0, 2.0]).unwrap();
        store.put(1, N_STRIPES, &[3.0, 4.0]).unwrap(); // same stripe as node 0
        let s = Arc::clone(&store);
        let crash = std::thread::spawn(move || {
            let _guard = s.stripes[stripe_of(0)].write().unwrap();
            panic!("injected crash while holding the stripe 0 write guard");
        });
        assert!(crash.join().is_err(), "the crashing thread must panic");
        assert!(store.stripes[stripe_of(0)].is_poisoned());

        // Reads on the poisoned stripe recover and see consistent data.
        assert_eq!(store.get(1, 0), Some(vec![1.0, 2.0]));
        assert_eq!(
            store.with_row(1, N_STRIPES, |r| r[0]),
            Some(3.0),
            "second row on the poisoned stripe is intact"
        );
        // Writes, bookkeeping and removal keep working too.
        store.put(1, 0, &[9.0, 9.0]).unwrap();
        assert_eq!(store.get(1, 0), Some(vec![9.0, 9.0]));
        assert_eq!(store.len(1), 2);
        assert!(store.nbytes() > 0);
        assert!(store.remove(1, 0) && store.remove(1, N_STRIPES));
        assert_eq!(store.len(1), 0, "removal works on the poisoned stripe");
        if gcnp_obs::enabled() {
            let snap = registry.snapshot();
            assert!(
                snap.counters["store.poison_recovered"] > 0,
                "every recovered acquisition on the poisoned stripe is counted"
            );
            assert_eq!(snap.counters["store.write.l1"], 3, "three puts");
            assert_eq!(snap.counters["store.evict.l1"], 2, "both rows evicted");
        }
    }

    #[test]
    fn metrics_count_hits_misses_and_writes() {
        let store = FeatureStore::new(64, 2);
        let registry = Arc::new(MetricsRegistry::new());
        store.attach_metrics(&registry);
        store.put(1, 3, &[1.0]).unwrap();
        assert!(store.has(1, 3)); // hit
        assert!(!store.has(1, 4)); // miss
        assert!(!store.has(2, 3)); // miss on the other level
        assert!(!store.has(1, 999)); // out of bounds: NOT counted
        store.with_row(1, 3, |_| ()); // an uncounted read
        let mut staged = Vec::new();
        assert!(store.probe(1, 3, |row| staged.extend_from_slice(row))); // hit
        assert!(!store.probe(2, 4, |_| unreachable!("a miss stages nothing")));
        assert!(!store.probe(1, 999, |_| ())); // out of bounds: NOT counted
        assert_eq!(staged, vec![1.0]);
        if !gcnp_obs::enabled() {
            return;
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counters["store.hit.l1"], 2);
        assert_eq!(snap.counters["store.miss.l1"], 1);
        assert_eq!(snap.counters["store.miss.l2"], 2);
        assert_eq!(snap.counters["store.write.l1"], 1);
        assert_eq!(snap.counters["store.poison_recovered"], 0);
        // Second attach is a no-op, not a panic, and counting continues.
        store.attach_metrics(&registry);
        assert!(store.has(1, 3));
        assert_eq!(registry.snapshot().counters["store.hit.l1"], 3);
    }

    /// Storm test: writers (`put`/`remove`) race readers
    /// (`get`/`has`/`with_row`) across stripes; afterwards `len()`
    /// bookkeeping must agree with what is actually retrievable.
    #[test]
    fn concurrent_storm_keeps_len_consistent() {
        const NODES: usize = 512;
        const WRITERS: usize = 4;
        const READERS: usize = 4;
        let store = Arc::new(FeatureStore::new(NODES, 2));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut x = (w as u64 + 1) * 0x9e37_79b9;
                    for i in 0..4000u32 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let node = (x >> 33) as usize % NODES;
                        let level = 1 + (x as usize & 1);
                        if i % 3 == 0 {
                            store.remove(level, node);
                        } else {
                            store.put(level, node, &[i as f32, w as f32]).unwrap();
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            for r in 0..READERS {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut x = (r as u64 + 101) * 0x51_7cc1;
                    while !stop.load(Ordering::Relaxed) {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let node = (x >> 33) as usize % NODES;
                        let level = 1 + (x as usize & 1);
                        if store.has(level, node) {
                            // A has/get race may miss (row evicted between the
                            // calls); the row must simply never be malformed.
                            if let Some(row) = store.get(level, node) {
                                assert_eq!(row.len(), 2);
                            }
                        }
                        store.with_row(level, node, |row| assert_eq!(row.len(), 2));
                    }
                });
            }
        });

        // Bookkeeping check: len() must equal the number of retrievable rows.
        for level in 1..=2 {
            let retrievable = (0..NODES).filter(|&v| store.has(level, v)).count();
            assert_eq!(
                store.len(level),
                retrievable,
                "len() out of sync at level {level}"
            );
        }
    }

    /// Widths on both sides of every split the kernel makes: the eight-lane
    /// body, its scalar tail, and rows with no full lane at all.
    const SPLIT_WIDTHS: [usize; 10] = [1, 7, 8, 9, 31, 32, 33, 64, 128, 130];

    /// A row salted with zeros, NaNs and subnormals.
    fn checksum_row(width: usize) -> Vec<f32> {
        (0..width)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -(i as f32) / 3.0,
                2 => f32::from_bits(i as u32), // subnormal
                3 => f32::NAN,
                _ => i as f32 * 1.5e3,
            })
            .collect()
    }

    /// Every single-bit flip, and random other bit patterns, within one
    /// element of a row change its checksum.
    #[test]
    fn checksum_detects_single_bit_flips() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for width in SPLIT_WIDTHS {
            let row = checksum_row(width);
            let base = row_checksum(&row);
            for elem in 0..width {
                let flips = (0..32).map(|bit| row[elem].to_bits() ^ (1 << bit));
                let random = (0..16).map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u32
                });
                for bits in flips.chain(random) {
                    if bits == row[elem].to_bits() {
                        continue;
                    }
                    let mut changed = row.clone();
                    changed[elem] = f32::from_bits(bits);
                    assert_ne!(
                        row_checksum(&changed),
                        base,
                        "element {elem} of a {width}-wide row set to {bits:#010x}"
                    );
                }
            }
        }
        assert_ne!(row_checksum(&[]), row_checksum(&[0.0]), "length is hashed");
    }

    #[test]
    fn corrupted_row_is_quarantined_not_served() {
        let store = FeatureStore::new(64, 1);
        let registry = Arc::new(MetricsRegistry::new());
        store.attach_metrics(&registry);
        store.put(1, 5, &[1.0, 2.0, 3.0]).unwrap();
        store.put(1, 6, &[4.0, 5.0, 6.0]).unwrap();
        let hit = store.inject_bit_flip(0x1234);
        assert!(hit.is_some(), "a resident row must be flipped");
        let (level, node) = hit.unwrap();
        assert_eq!(level, 1);
        // The corrupted row reads as absent (quarantined on first touch)…
        assert_eq!(store.with_row(level, node, |r| r.to_vec()), None);
        assert!(!store.has(level, node), "quarantined row is gone");
        assert_eq!(store.corruption_counts(), (1, 1));
        // …while the untouched row still serves, checksum-verified.
        let other = if node == 5 { 6 } else { 5 };
        assert!(store.with_row(1, other, |r| r.len() == 3).unwrap_or(false));
        assert_eq!(store.len(1), 1);
        // Re-putting the quarantined node serves again.
        store.put(level, node, &[9.0, 9.0, 9.0]).unwrap();
        assert_eq!(store.get(level, node), Some(vec![9.0, 9.0, 9.0]));
        if gcnp_obs::enabled() {
            let snap = registry.snapshot();
            assert_eq!(snap.counters["store.corruption.detected"], 1);
            assert_eq!(snap.counters["store.corruption.quarantined"], 1);
        }
    }

    #[test]
    fn stripe_breaker_trips_after_repeated_corruption() {
        let n = 4 * N_STRIPES;
        let store = FeatureStore::new(n, 1);
        // All rows on stripe 0, so every corruption lands there.
        let stripe0: Vec<usize> = (0..4).map(|i| i * N_STRIPES).collect();
        for &v in &stripe0 {
            store.put(1, v, &[v as f32, 1.0]).unwrap();
        }
        for round in 0..STRIPE_BREAKER_THRESHOLD {
            let (_, node) = store.inject_bit_flip(round as u64 * 977).unwrap();
            assert_eq!(store.with_row(1, node, |r| r.len()), None);
        }
        assert_eq!(store.bypassed_stripes(), 1, "stripe 0's breaker is open");
        // The breaker bypasses even healthy rows on the bad stripe…
        let survivor = stripe0
            .iter()
            .copied()
            .find(|&v| store.len(1) > 0 && store.get(1, v).is_none());
        assert!(survivor.is_some() || store.len(1) == 0);
        for &v in &stripe0 {
            assert!(!store.has(1, v), "bypassed stripe reads as absent");
            assert_eq!(store.with_row(1, v, |r| r.len()), None);
        }
        // …and other stripes are unaffected.
        store.put(1, 1, &[7.0, 1.0]).unwrap();
        assert!(store.has(1, 1));
        assert_eq!(
            store.corruption_counts(),
            (
                u64::from(STRIPE_BREAKER_THRESHOLD),
                u64::from(STRIPE_BREAKER_THRESHOLD)
            )
        );
    }

    #[test]
    fn bit_flip_on_empty_store_is_a_noop() {
        let store = FeatureStore::new(8, 1);
        assert_eq!(store.inject_bit_flip(42), None);
        assert_eq!(store.corruption_counts(), (0, 0));
    }

    #[test]
    fn width_is_a_property_of_the_level() {
        let s = FeatureStore::new(40, 2);
        assert_eq!(s.level_width(1), None, "an empty level has no width");
        s.put(1, 3, &[1.0, 2.0]).unwrap();
        assert_eq!(s.level_width(1), Some(2));
        // Another stripe, same level: the level's width still applies.
        let err = s.put(1, 4, &[1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(
            err,
            ServingError::InvariantViolation {
                check: "store.put.width",
                ..
            }
        ));
        assert!(!s.has(1, 4), "the refused row is not stored");
        s.put(2, 4, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.level_width(2), Some(3), "levels are independent");
        // An emptied level takes a new width, in every stripe.
        assert!(s.remove(1, 3));
        assert_eq!(s.level_width(1), None);
        s.put(1, 3, &[5.0; 4]).unwrap();
        s.put(1, 20, &[6.0; 4]).unwrap();
        assert_eq!(s.get(1, 3), Some(vec![5.0; 4]));
        assert_eq!(s.level_width(1), Some(4));
        s.clear();
        s.put(1, 3, &[7.0]).unwrap();
        assert_eq!(s.level_width(1), Some(1));
    }

    #[test]
    fn nbytes_counts_allocated_slabs() {
        // 40 nodes: stripes 0..8 hold three slots each, the rest two.
        let s = FeatureStore::new(40, 2);
        assert_eq!(s.nbytes(), 0, "nothing allocated before a put");
        s.put(1, 0, &[1.0, 2.0]).unwrap();
        assert_eq!(s.nbytes(), 3 * 2 * 4, "stripe 0's whole slab at level 1");
        s.put(1, 16, &[1.0, 2.0]).unwrap();
        assert_eq!(s.nbytes(), 3 * 2 * 4, "same slab");
        s.put(1, 15, &[1.0, 2.0]).unwrap();
        s.put(2, 15, &[1.0; 5]).unwrap();
        assert_eq!(s.nbytes(), (3 * 2 + 2 * 2 + 2 * 5) * 4);
        let full = FeatureStore::new(40, 1);
        for v in 0..40 {
            full.put(1, v, &[v as f32; 3]).unwrap();
        }
        assert_eq!(full.nbytes(), 40 * 3 * 4, "a full level is n_nodes rows");
    }

    #[test]
    fn probe_quarantines_a_flipped_row_as_a_miss() {
        let store = FeatureStore::new(64, 1);
        store.put(1, 5, &[1.0, 2.0, 3.0]).unwrap();
        let (level, node) = store.inject_bit_flip(0x1234).unwrap();
        assert_eq!((level, node), (1, 5));
        assert!(!store.probe(1, 5, |_| unreachable!("never served")));
        assert_eq!(store.corruption_counts(), (1, 1));
        assert_eq!(store.len(1), 0);
    }

    /// Flip one bit of a stored row in place, leaving its checksum stale.
    fn flip_stored(store: &FeatureStore, level: usize, node: usize, elem: usize, bit: u32) {
        let mut stripe = store.stripes[stripe_of(node)].write().unwrap();
        let l = &mut stripe.levels[level - 1];
        let w = l.width.unwrap();
        let v = &mut l.rows[local_of(node) * w + elem];
        *v = f32::from_bits(v.to_bits() ^ (1 << bit));
    }

    #[test]
    fn probe_quarantines_a_flip_in_every_lane_class() {
        const W: usize = 33;
        let store = FeatureStore::new(64, 1);
        // First lane, a middle lane and the scalar tail, each at a low
        // mantissa, the top exponent and the sign bit; one stripe per flip,
        // so no breaker trips.
        let flips: Vec<(usize, u32)> = [0, 13, 32]
            .into_iter()
            .flat_map(|elem| [0, 30, 31].map(|bit| (elem, bit)))
            .collect();
        for (node, _) in flips.iter().enumerate() {
            store.put(1, node, &checksum_row(W)).unwrap();
        }
        for (node, &(elem, bit)) in flips.iter().enumerate() {
            flip_stored(&store, 1, node, elem, bit);
            assert!(
                !store.probe(1, node, |_| unreachable!("never served")),
                "flip of bit {bit} in element {elem}"
            );
            let n = node as u64 + 1;
            assert_eq!(store.corruption_counts(), (n, n));
            assert_eq!(store.len(1), flips.len() - node - 1);
        }
        assert_eq!(store.bypassed_stripes(), 0);
    }
}
