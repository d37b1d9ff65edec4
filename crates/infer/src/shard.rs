//! Sharded hidden-feature store for millions-of-nodes serving.
//!
//! [`ShardedStore`] partitions one logical [`FeatureStore`] into `S` shards
//! by a caller-supplied node → shard assignment (typically a hash partition
//! with optional greedy edge-cut refinement from `gcnp-datasets`). Each
//! shard is a full striped `FeatureStore` sized to **its own** node count
//! (dense local ids, no `S×` memory blow-up), so all of the per-stripe
//! machinery — lock striping, checksums, quarantine, circuit breakers,
//! poison recovery — applies per shard unchanged.
//!
//! The router role: an engine pinned to shard `k` resolves cross-shard
//! L-hop neighbors through [`ShardedStore::probe`], and accounts each
//! per-level batched fetch through [`ShardedStore::note_remote_fetch`] —
//! one `shard.remote.requests` per (engine shard → owner shard) pair per
//! level per batch (the unit a real deployment would ship as one batched
//! RPC), plus the rows and payload bytes it carried. Because every shard's
//! rows are reachable from every engine, the union of stored rows is
//! *identical* to the single-store engine's — sharded logits are bitwise
//! equal by construction (pinned in `tests/shard_equivalence.rs`).
//!
//! Graph accretion: [`ShardedStore::accrete`] appends edges mid-stream and
//! incrementally invalidates only the affected L-hop reverse
//! neighborhoods. The dirty sets follow the dependency cone of the stored
//! levels: `h⁽ˡ⁺¹⁾(w)` aggregates `h⁽ˡ⁾` over `w` and its neighbors, so a
//! changed adjacency row dirties level 1 at its endpoints and each further
//! level adds the in-neighbors of the previous dirty set (`D₁ =
//! endpoints`, `Dₗ₊₁ = Dₗ ∪ in-nbrs(Dₗ)`). Everything outside the cone
//! keeps its rows — no `clear()`. The epoch counter is the visibility
//! barrier: each row removal happens under its stripe's write lock before
//! the epoch bump is published with `Release`, so once a reader observes
//! the new epoch (or `accrete` returns), no invalidated row is readable.

use crate::error::{ServingError, ServingResult};
use crate::metrics::ShardMetrics;
use crate::store::FeatureStore;
use gcnp_obs::MetricsRegistry;
use gcnp_sparse::CsrMatrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// `S` shard-local [`FeatureStore`]s behind one logical store interface.
pub struct ShardedStore {
    /// Node → owning shard.
    assign: Vec<u32>,
    /// Node → dense local id within its shard.
    local: Vec<u32>,
    /// Shard → global ids in local order (the inverse of `local`).
    owned: Vec<Vec<u32>>,
    shards: Vec<FeatureStore>,
    n_levels: usize,
    /// Accretion epoch, bumped with `Release` after each completed
    /// invalidation pass (see the module docs on the visibility barrier).
    epoch: AtomicU64,
    metrics: OnceLock<ShardMetrics>,
}

/// What one [`ShardedStore::accrete`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccretionReport {
    /// Directed adjacency entries appended.
    pub edges: usize,
    /// Dirty-set size per store level (index 0 = level 1). Level `l+1`'s
    /// set always contains level `l`'s.
    pub dirty_per_level: Vec<usize>,
    /// Rows actually removed (dirty nodes with nothing resident cost 0).
    pub removed: usize,
    /// Epoch after the bump — reads observing this epoch cannot see any
    /// row this call invalidated.
    pub epoch: u64,
}

impl ShardedStore {
    /// Build from a node → shard assignment (`assign[v] < n_shards` for all
    /// `v`) with `n_levels` stored middle layers per shard.
    ///
    /// # Panics
    /// Panics on zero shards or an out-of-range assignment — constructor
    /// misuse is a programmer error; stores are built once at startup.
    pub fn new(assign: &[u32], n_shards: usize, n_levels: usize) -> Self {
        // audit: allow(no-fail-stop) — constructor misuse is a programmer error; stores are built once at startup, not per request
        assert!(n_shards > 0, "ShardedStore: zero shards");
        let mut local = vec![0u32; assign.len()];
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        for (v, &s) in assign.iter().enumerate() {
            // audit: allow(no-fail-stop) — constructor misuse is a programmer error (see above)
            assert!(
                (s as usize) < n_shards,
                "ShardedStore: node {v} assigned to shard {s} of {n_shards}"
            );
            let bucket = &mut owned[s as usize];
            local[v] = bucket.len() as u32;
            bucket.push(v as u32);
        }
        let shards = owned
            .iter()
            .map(|nodes| FeatureStore::new(nodes.len(), n_levels))
            .collect();
        Self {
            assign: assign.to_vec(),
            local,
            owned,
            shards,
            n_levels,
            epoch: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn n_nodes(&self) -> usize {
        self.assign.len()
    }

    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// The shard owning `node`, or `None` out of range.
    pub fn owner(&self, node: usize) -> Option<usize> {
        self.assign.get(node).map(|&s| s as usize)
    }

    /// Borrow one shard's underlying store (benches and tests; the serving
    /// path routes through the logical interface below).
    pub fn shard(&self, i: usize) -> &FeatureStore {
        &self.shards[i]
    }

    /// Attach the shard metrics bundle (`shard.remote.*`,
    /// `store.shard{i}.*`) and each shard's own per-level store counters to
    /// `registry`. The shards share counter *names* (`store.hit.l{level}`,
    /// …), so the registry's aggregate store counters keep working across
    /// the fleet exactly as with one store. First call wins, as with
    /// [`FeatureStore::attach_metrics`].
    pub fn attach_metrics(&self, registry: &Arc<MetricsRegistry>) {
        let _ = self
            .metrics
            .set(ShardMetrics::new(registry, self.shards.len()));
        for s in &self.shards {
            s.attach_metrics(registry);
        }
    }

    /// Route a probe to the owning shard (counts `store.shard{i}.hits` /
    /// `.misses` on top of the shard store's own per-level counters).
    pub fn has(&self, level: usize, node: usize) -> bool {
        let Some(&s) = self.assign.get(node) else {
            return false;
        };
        // audit: allow(no-fail-stop) — assign values are validated < n_shards at construction
        let hit = self.shards[s as usize].has(level, self.local[node] as usize);
        if let Some(m) = self.metrics.get() {
            m.probe(s as usize, hit);
        }
        hit
    }

    /// The engine's one lookup, routed to the owning shard: counted like
    /// [`ShardedStore::has`], and a hit lends the verified row to `stage`
    /// (see [`FeatureStore::probe`]).
    pub fn probe(&self, level: usize, node: usize, stage: impl FnOnce(&[f32])) -> bool {
        let Some(&s) = self.assign.get(node) else {
            return false;
        };
        // audit: allow(no-fail-stop) — assign values are validated < n_shards at construction
        let hit = self.shards[s as usize].probe(level, self.local[node] as usize, stage);
        if let Some(m) = self.metrics.get() {
            m.probe(s as usize, hit);
        }
        hit
    }

    /// Copy-free, uncounted read through the owning shard (see
    /// [`FeatureStore::with_row`]).
    pub fn with_row<R>(&self, level: usize, node: usize, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        let &s = self.assign.get(node)?;
        // audit: allow(no-fail-stop) — assign values are validated < n_shards at construction
        self.shards[s as usize].with_row(level, self.local[node] as usize, f)
    }

    /// The width of the rows any shard holds at `level` other than
    /// `expected`, if one does: each shard fixes its own level widths, so a
    /// batch checks every shard once.
    pub fn wrong_width(&self, level: usize, expected: usize) -> Option<usize> {
        self.shards
            .iter()
            .filter_map(|s| s.level_width(level))
            .find(|&w| w != expected)
    }

    /// Write through to the owning shard. Out-of-range nodes are the same
    /// typed error as [`FeatureStore::put`]'s bounds check.
    pub fn put(&self, level: usize, node: usize, row: &[f32]) -> ServingResult<()> {
        let Some(&s) = self.assign.get(node) else {
            return Err(ServingError::InvariantViolation {
                check: "shard.put.bounds",
                detail: format!(
                    "node {node} outside the sharded store ({} nodes)",
                    self.assign.len()
                ),
            });
        };
        // audit: allow(no-fail-stop) — assign values are validated < n_shards at construction
        self.shards[s as usize].put(level, self.local[node] as usize, row)
    }

    /// Invalidate one node's row at `level` in its owning shard.
    pub fn remove(&self, level: usize, node: usize) -> bool {
        let Some(&s) = self.assign.get(node) else {
            return false;
        };
        // audit: allow(no-fail-stop) — assign values are validated < n_shards at construction
        self.shards[s as usize].remove(level, self.local[node] as usize)
    }

    /// Stored rows at `level`, summed across shards.
    pub fn len(&self, level: usize) -> usize {
        self.shards.iter().map(|s| s.len(level)).sum()
    }

    /// True when nothing is stored at `level` in any shard.
    pub fn is_empty(&self, level: usize) -> bool {
        self.len(level) == 0
    }

    /// Heap bytes of the shards' allocated row slabs (see
    /// [`FeatureStore::nbytes`]).
    pub fn nbytes(&self) -> usize {
        self.shards.iter().map(|s| s.nbytes()).sum()
    }

    /// Rows resident in shard `i`, summed over levels.
    pub fn resident_rows(&self, i: usize) -> usize {
        self.shards
            .get(i)
            .map_or(0, |s| (1..=self.n_levels).map(|l| s.len(l)).sum())
    }

    /// Publish `store.shard{i}.resident_rows` gauges from the current
    /// resident counts. Called at the end of serving runs and after
    /// `accrete` (not per `put` — gauge refresh takes every stripe's read
    /// lock once per shard).
    pub fn refresh_gauges(&self) {
        if let Some(m) = self.metrics.get() {
            for i in 0..self.shards.len() {
                m.set_resident(i, self.resident_rows(i));
            }
        }
    }

    /// Account one per-level batched fetch of stored rows issued by the
    /// engine pinned to shard `home`: one `shard.remote.requests` per
    /// distinct remote owner shard, plus the rows and payload bytes. Rows
    /// owned by `home` are local and cost nothing.
    pub fn note_remote_fetch(&self, home: usize, nodes: &[usize], width: usize) {
        let Some(m) = self.metrics.get() else {
            return;
        };
        if nodes.is_empty() {
            return;
        }
        let mut per_shard = vec![0u64; self.shards.len()];
        for &v in nodes {
            if let Some(&s) = self.assign.get(v) {
                if s as usize != home {
                    per_shard[s as usize] += 1; // audit: allow(no-fail-stop) — assign values are validated < n_shards at construction
                }
            }
        }
        let mut requests = 0u64;
        let mut rows = 0u64;
        for &n in &per_shard {
            if n > 0 {
                requests += 1;
                rows += n;
            }
        }
        if requests > 0 {
            m.remote_requests.add(requests);
            m.remote_rows.add(rows);
            m.remote_bytes.add(rows * width as u64 * 4);
        }
    }

    /// Flip one bit of one resident row across the whole sharded store,
    /// chosen deterministically from `seed` over the union of resident rows
    /// (the sharded analogue of [`FeatureStore::inject_bit_flip`]). Returns
    /// the global `(level, node)` hit.
    pub fn inject_bit_flip(&self, seed: u64) -> Option<(usize, usize)> {
        let counts: Vec<usize> = (0..self.shards.len())
            .map(|i| self.resident_rows(i))
            .collect();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let mut k = (seed % total as u64) as usize;
        for (i, (&c, shard)) in counts.iter().zip(&self.shards).enumerate() {
            if k >= c {
                k -= c;
                continue;
            }
            // Reshape the seed so the shard's own `seed % resident` picks
            // our k-th row while the element/bit choices stay seeded.
            let local_seed = (seed / total.max(1) as u64) * c.max(1) as u64 + k as u64;
            let (level, local) = shard.inject_bit_flip(local_seed)?;
            let node = self.owned.get(i)?.get(local).copied()? as usize;
            return Some((level, node));
        }
        None
    }

    /// The current accretion epoch (`Acquire`; pairs with the `Release`
    /// bump at the end of [`ShardedStore::accrete`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Append `edges` (directed adjacency entries; pass both directions for
    /// an undirected edge) and incrementally invalidate the affected L-hop
    /// reverse neighborhoods.
    ///
    /// `rev_adj` is the reverse adjacency of the **post-accretion** graph
    /// (for symmetric graphs, the adjacency itself; otherwise
    /// [`CsrMatrix::transpose`]). It may cover more nodes than the store —
    /// accreted nodes beyond the store's capacity dirty their neighborhoods
    /// but have no rows of their own to drop.
    ///
    /// Caller contract: the graph the engines serve against must be swapped
    /// to the post-accretion snapshot *before* new-edge traffic is routed,
    /// and `accrete` must not run concurrently with batches that write back
    /// rows derived from the old graph (the fig6-style stream accretes
    /// between windows, where this holds trivially).
    pub fn accrete(&self, edges: &[(u32, u32)], rev_adj: &CsrMatrix) -> AccretionReport {
        let n = rev_adj.n_rows().max(self.assign.len());
        let mut dirty = vec![false; n];
        // D₁: every node whose adjacency row changed. Both endpoints are
        // included — over-invalidation is always safe, and for the
        // undirected graphs served here both rows did change.
        let mut all: Vec<usize> = Vec::new();
        let mut frontier: Vec<usize> = Vec::new();
        for &(u, v) in edges {
            for w in [u as usize, v as usize] {
                if let Some(d) = dirty.get_mut(w) {
                    if !*d {
                        *d = true;
                        all.push(w);
                        frontier.push(w);
                    }
                }
            }
        }
        let mut removed = 0usize;
        let mut dirty_per_level = Vec::with_capacity(self.n_levels);
        for level in 1..=self.n_levels {
            for &w in &all {
                if self.remove(level, w) {
                    removed += 1;
                }
            }
            dirty_per_level.push(all.len());
            if level == self.n_levels {
                break;
            }
            // Dₗ₊₁ = Dₗ ∪ in-nbrs(Dₗ): only the new frontier needs walking.
            let mut next = Vec::new();
            for &w in &frontier {
                if w >= rev_adj.n_rows() {
                    continue;
                }
                for &p in rev_adj.row_indices(w) {
                    let p = p as usize;
                    if let Some(d) = dirty.get_mut(p) {
                        if !*d {
                            *d = true;
                            all.push(p);
                            next.push(p);
                        }
                    }
                }
            }
            frontier = next;
        }
        // Visibility barrier: all removals above completed under their
        // stripe write locks before this bump publishes the new epoch.
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.refresh_gauges();
        AccretionReport {
            edges: edges.len(),
            dirty_per_level,
            removed,
            epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_robin(n: usize, s: usize) -> Vec<u32> {
        (0..n).map(|v| (v % s) as u32).collect()
    }

    #[test]
    fn routes_puts_and_reads_to_owner_shards() {
        let store = ShardedStore::new(&round_robin(10, 3), 3, 2);
        assert_eq!(store.n_shards(), 3);
        assert_eq!(store.n_nodes(), 10);
        for v in 0..10 {
            store.put(1, v, &[v as f32, 1.0]).unwrap();
        }
        assert_eq!(store.len(1), 10);
        assert_eq!(store.len(2), 0);
        for v in 0..10 {
            assert!(store.has(1, v));
            assert_eq!(store.with_row(1, v, |r| r[0]), Some(v as f32));
        }
        // Shard 0 owns nodes 0,3,6,9; the others hold the rest.
        assert_eq!(store.resident_rows(0), 4);
        assert_eq!(store.resident_rows(1), 3);
        assert_eq!(store.resident_rows(2), 3);
        assert_eq!(store.nbytes(), 10 * 2 * 4);
        assert!(!store.has(1, 99), "out of range reads as absent");
        assert!(
            store.put(1, 99, &[0.0]).is_err(),
            "out of range put is typed"
        );
    }

    #[test]
    fn accrete_invalidates_reverse_cone_only() {
        // Path graph 0-1-2-3-4 (symmetric), 2 stored levels.
        let n = 5;
        let mut edges = Vec::new();
        for v in 0..4u32 {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        let store = ShardedStore::new(&round_robin(n, 2), 2, 2);
        for level in 1..=2 {
            for v in 0..n {
                store.put(level, v, &[v as f32]).unwrap();
            }
        }
        // New edge 3-4 duplicates an existing one structurally; use a fresh
        // edge 0-4 instead: D₁ = {0,4}; D₂ = D₁ ∪ in-nbrs = {0,4,1,3}.
        edges.push((0, 4));
        edges.push((4, 0));
        let adj = CsrMatrix::adjacency(n, &edges);
        let e0 = store.epoch();
        let rep = store.accrete(&[(0, 4), (4, 0)], &adj);
        assert_eq!(rep.dirty_per_level, vec![2, 4]);
        assert_eq!(rep.removed, 2 + 4);
        assert_eq!(rep.epoch, e0 + 1);
        assert_eq!(store.epoch(), e0 + 1);
        // Level 1: only the endpoints dropped.
        assert!(!store.has(1, 0) && !store.has(1, 4));
        assert!(store.has(1, 1) && store.has(1, 2) && store.has(1, 3));
        // Level 2: endpoints plus their in-neighbors; node 2 survives.
        assert!(!store.has(2, 0) && !store.has(2, 1) && !store.has(2, 3) && !store.has(2, 4));
        assert!(store.has(2, 2));
    }

    #[test]
    fn bit_flip_routes_into_some_shard_and_reports_global_id() {
        let store = ShardedStore::new(&round_robin(8, 2), 2, 1);
        assert_eq!(store.inject_bit_flip(7), None, "empty store has no rows");
        for v in 0..8 {
            store.put(1, v, &[1.0, 2.0]).unwrap();
        }
        let mut hit_nodes = std::collections::BTreeSet::new();
        // One injection per resident row (seeds 0..8 enumerate the union) —
        // an even number of same-bit flips on one row would cancel out.
        for seed in 0..8u64 {
            let (level, node) = store.inject_bit_flip(seed).unwrap();
            assert_eq!(level, 1);
            assert!(node < 8);
            hit_nodes.insert(node);
        }
        assert_eq!(hit_nodes.len(), 8, "seeds enumerate every resident row");
        // A flipped row is quarantined on next read, somewhere.
        let readable = (0..8)
            .filter(|&v| store.with_row(1, v, |_| ()).is_some())
            .count();
        assert!(readable < 8, "at least one corrupted row was quarantined");
    }
}
