//! Metric bundles wiring [`gcnp_obs`] through the inference stack.
//!
//! Hot paths never look metrics up by name: each bundle resolves its
//! counters/histograms from the shared [`MetricsRegistry`] once at
//! construction and the record sites touch pre-resolved `Arc`s (a relaxed
//! atomic op each — and compiled-out no-ops without the `obs` feature).
//!
//! Naming scheme (dots group, Prometheus exposition maps them to `_`):
//!
//! * `engine.stage.{expand|relabel|store_probe|spmm|gemm|write_back}.seconds`
//!   — per-batch **busy** time of each [`crate::BatchedEngine`] stage. Under
//!   the pipelined executor the front and back stages of consecutive batches
//!   overlap, so these are no longer disjoint slices of one wall clock —
//!   each histogram records the time its stage actually ran (inter-stage
//!   queue wait excluded), and per-stage busy time is bounded by the run's
//!   wall clock rather than tiling it;
//! * `engine.batch.seconds` / `engine.batch.size` / `engine.batches`;
//! * `engine.dispatch.{dense|int8}` — branch transforms run on the f32 /
//!   int8 kernel (one of the two per engine, fixed at construction; only
//!   the benchmark's traced replay builds an int8 engine). A
//!   warm batch of a GraphSAGE model dispatches `branches − 2`: layer 1's
//!   two branches read per-engine tables. A batch that meets layer-1 nodes
//!   no earlier batch computed also fills the `k = 0` table, one more
//!   `dense` dispatch in either precision (`branches − 1`);
//! * `engine.l1_table.{hit|fill}` — level-1 rows read from layer 1's
//!   output table (nodes whose layer-1 aggregation samples nothing): rows an
//!   earlier batch filled, and rows this batch computed into it;
//! * `serving.tier{i}.served` — requests served on ladder tier `i`;
//! * `store.{hit|miss|evict|write}.l{level}` + `store.poison_recovered`;
//! * `serving.*` — loop counters (shed, retries, recoveries, tier switches),
//!   the `serving.queue.depth` / `serving.batch.size` distributions, the
//!   `serving.pipeline.occupancy` gauge (fraction of stage-thread time spent
//!   busy), and `serving.dispatch.wakeups` (condvar wakeups of blocked
//!   workers — the event-driven replacement for dispatch polling);
//! * `supervisor.watchdog.restarts` — wedged stage pairs the watchdog stole
//!   a batch from, tore down and respawned (the supervisor's one action),
//!   and `serving.panics.unexpected` — worker panics without the injected
//!   fault marker.

use gcnp_obs::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
use std::sync::Arc;

/// The instrumented stages of one batched-inference pass, in execution
/// order. `stage_breakdown` reports them in this order too.
pub const STAGES: [&str; 6] = [
    "expand",
    "relabel",
    "store_probe",
    "spmm",
    "gemm",
    "write_back",
];

/// Pre-resolved metrics of one [`crate::BatchedEngine`]. Engines on a fleet
/// should share one registry (same metric names accumulate across replicas).
pub struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    /// Per-batch busy seconds of each stage, in [`STAGES`] order
    /// (`engine.stage.{name}.seconds`):
    /// - `expand`: building the [`gcnp_sparse::BatchSupport`] expansion, and
    ///   everything else `prepare` does before its first store read;
    /// - `relabel`: writing hidden levels' computed and staged rows into
    ///   their node-indexed tables, and handing over the logits (the name is
    ///   kept from the relabel table this stage once maintained);
    /// - `store_probe`: reading stored hidden-feature rows;
    /// - `spmm`: sparse aggregation (gather / mean over neighbors);
    /// - `gemm`: dense transforms (matmul, combine, bias, activation);
    /// - `write_back`: writing hidden features back to the store.
    pub(crate) stages: [Arc<Histogram>; STAGES.len()],
    /// End-to-end seconds per batch (including injected straggle time).
    pub batch_seconds: Arc<Histogram>,
    /// Deduplicated targets per batch.
    pub batch_size: Arc<Histogram>,
    /// Batches completed successfully.
    pub batches: Arc<Counter>,
    /// Branch GEMMs executed on the dense blocked f32 kernel
    /// (`engine.dispatch.dense`) — every per-batch transform of an f32
    /// engine, and every layer-1 `k = 0` table fill in either precision.
    pub dispatch_dense: Arc<Counter>,
    /// Branch GEMMs executed on the blocked int8 kernel
    /// (`engine.dispatch.int8`) — every per-batch transform of a
    /// quantized-tier engine.
    pub dispatch_int8: Arc<Counter>,
    /// Level-1 rows read from layer 1's output table that an earlier batch
    /// filled (`engine.l1_table.hit`).
    pub l1_table_hit: Arc<Counter>,
    /// Level-1 rows a batch computed into that table on first read
    /// (`engine.l1_table.fill`). `hit + fill` is the batch's tabled rows.
    pub l1_table_fill: Arc<Counter>,
}

impl EngineMetrics {
    pub fn new(registry: &Arc<MetricsRegistry>) -> Arc<Self> {
        Arc::new(Self {
            registry: Arc::clone(registry),
            stages: STAGES.map(|s| registry.histogram(&format!("engine.stage.{s}.seconds"))),
            batch_seconds: registry.histogram("engine.batch.seconds"),
            batch_size: registry.histogram("engine.batch.size"),
            batches: registry.counter("engine.batches"),
            dispatch_dense: registry.counter("engine.dispatch.dense"),
            dispatch_int8: registry.counter("engine.dispatch.int8"),
            l1_table_hit: registry.counter("engine.l1_table.hit"),
            l1_table_fill: registry.counter("engine.l1_table.fill"),
        })
    }

    /// The registry this bundle records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

/// Pre-resolved metrics of the fleet executor ([`crate::serve_multi`],
/// [`crate::serve_sharded`], [`crate::serve_tiered`]).
pub struct ServingMetrics {
    /// Requests served to completion.
    pub served: Arc<Counter>,
    /// Requests shed on admission (bounded queue full).
    pub shed_queue: Arc<Counter>,
    /// Requests shed at batch formation (projected past deadline).
    pub shed_deadline: Arc<Counter>,
    /// Requests shed after a batch exhausted its retries (or the fleet died).
    pub shed_exhausted: Arc<Counter>,
    /// Served requests whose measured latency exceeded the deadline.
    pub deadline_miss: Arc<Counter>,
    /// Degradation-ladder tier switches.
    pub tier_switches: Arc<Counter>,
    /// Micro-batches dispatched to an engine.
    pub batches: Arc<Counter>,
    /// Batch re-executions after failures/recoveries.
    pub retries: Arc<Counter>,
    /// Worker panics caught and recovered.
    pub recoveries: Arc<Counter>,
    /// Clean `try_infer` errors handled without losing the worker.
    pub failures: Arc<Counter>,
    /// Workers retired by panics.
    pub workers_lost: Arc<Counter>,
    /// Queue depth sampled at each batch formation.
    pub queue_depth: Arc<Histogram>,
    /// Requests per dispatched micro-batch.
    pub batch_size: Arc<Histogram>,
    /// Active ladder tier (0 = unpruned).
    pub tier: Arc<Gauge>,
    /// Fraction of available stage-thread time the fleet spent busy, 0..=1
    /// (see [`crate::MultiServingReport::pipeline_occupancy`] for the
    /// denominator).
    pub pipeline_occupancy: Arc<Gauge>,
    /// Condvar wakeups of blocked dispatch-queue consumers over the run —
    /// the observable replacing the old 100 µs polling loop (which "woke"
    /// ~10 000×/s while idle).
    pub dispatch_wakeups: Arc<Counter>,
    /// Wedged stage pairs the watchdog tore down and respawned
    /// (`supervisor.watchdog.restarts`).
    pub watchdog_restarts: Arc<Counter>,
    /// Worker panics whose payload did not carry the injected-fault marker —
    /// i.e. genuine bugs surfacing through the recovery path
    /// (`serving.panics.unexpected`).
    pub panics_unexpected: Arc<Counter>,
}

impl ServingMetrics {
    pub fn new(registry: &Arc<MetricsRegistry>) -> Self {
        Self {
            served: registry.counter("serving.served"),
            shed_queue: registry.counter("serving.shed.queue"),
            shed_deadline: registry.counter("serving.shed.deadline"),
            shed_exhausted: registry.counter("serving.shed.exhausted"),
            deadline_miss: registry.counter("serving.deadline_miss"),
            tier_switches: registry.counter("serving.tier_switches"),
            batches: registry.counter("serving.batches"),
            retries: registry.counter("serving.retries"),
            recoveries: registry.counter("serving.recoveries"),
            failures: registry.counter("serving.failures"),
            workers_lost: registry.counter("serving.workers_lost"),
            queue_depth: registry.histogram("serving.queue.depth"),
            batch_size: registry.histogram("serving.batch.size"),
            tier: registry.gauge("serving.tier"),
            pipeline_occupancy: registry.gauge("serving.pipeline.occupancy"),
            dispatch_wakeups: registry.counter("serving.dispatch.wakeups"),
            watchdog_restarts: registry.counter("supervisor.watchdog.restarts"),
            panics_unexpected: registry.counter("serving.panics.unexpected"),
        }
    }
}

/// Pre-resolved metrics of one [`crate::FeatureStore`], per level (levels
/// are 1-based like the store API; out-of-range levels fall back to a
/// catch-all slot rather than panicking).
pub struct StoreMetrics {
    /// `store.hit.l{level}`: probes that found a stored row.
    hits: Vec<Arc<Counter>>,
    /// `store.miss.l{level}`: probes that found nothing.
    misses: Vec<Arc<Counter>>,
    /// `store.evict.l{level}`: rows dropped by the staleness policy.
    evicts: Vec<Arc<Counter>>,
    /// `store.write.l{level}`: rows written (insert or overwrite).
    writes: Vec<Arc<Counter>>,
    /// Stripe-guard acquisitions that recovered a poisoned lock.
    pub poison_recovered: Arc<Counter>,
    /// Checksum mismatches caught on read (`store.corruption.detected`).
    pub corruption_detected: Arc<Counter>,
    /// Corrupted rows evicted so they re-gather from level-0
    /// (`store.corruption.quarantined`).
    pub corruption_quarantined: Arc<Counter>,
}

impl StoreMetrics {
    pub fn new(registry: &Arc<MetricsRegistry>, n_levels: usize) -> Self {
        let per_level = |what: &str| {
            (1..=n_levels.max(1))
                .map(|l| registry.counter(&format!("store.{what}.l{l}")))
                .collect()
        };
        Self {
            hits: per_level("hit"),
            misses: per_level("miss"),
            evicts: per_level("evict"),
            writes: per_level("write"),
            poison_recovered: registry.counter("store.poison_recovered"),
            corruption_detected: registry.counter("store.corruption.detected"),
            corruption_quarantined: registry.counter("store.corruption.quarantined"),
        }
    }

    #[inline]
    fn at(slots: &[Arc<Counter>], level: usize) -> Option<&Arc<Counter>> {
        slots.get(level.saturating_sub(1)).or(slots.last())
    }

    #[inline]
    pub fn hit(&self, level: usize) {
        if let Some(c) = Self::at(&self.hits, level) {
            c.inc();
        }
    }

    #[inline]
    pub fn miss(&self, level: usize) {
        if let Some(c) = Self::at(&self.misses, level) {
            c.inc();
        }
    }

    #[inline]
    pub fn evict(&self, level: usize, n: u64) {
        if let Some(c) = Self::at(&self.evicts, level) {
            c.add(n);
        }
    }

    #[inline]
    pub fn write(&self, level: usize) {
        if let Some(c) = Self::at(&self.writes, level) {
            c.inc();
        }
    }
}

/// Pre-resolved metrics of one [`crate::shard::ShardedStore`]:
///
/// * `shard.remote.{requests,rows,bytes}` — router traffic. One *request*
///   per (engine shard → owner shard) pair per level per batch (the unit a
///   real deployment would send as one batched RPC), with the rows and
///   payload bytes it carried;
/// * `store.shard{i}.{hits,misses}` — per-shard probe outcomes, so a shard
///   with poor locality is visible next to its peers;
/// * `store.shard{i}.resident_rows` — rows resident per shard (capacity
///   skew), refreshed by [`crate::shard::ShardedStore::refresh_gauges`].
pub struct ShardMetrics {
    pub remote_requests: Arc<Counter>,
    pub remote_rows: Arc<Counter>,
    pub remote_bytes: Arc<Counter>,
    hits: Vec<Arc<Counter>>,
    misses: Vec<Arc<Counter>>,
    resident: Vec<Arc<Gauge>>,
}

impl ShardMetrics {
    pub fn new(registry: &Arc<MetricsRegistry>, n_shards: usize) -> Self {
        Self {
            remote_requests: registry.counter("shard.remote.requests"),
            remote_rows: registry.counter("shard.remote.rows"),
            remote_bytes: registry.counter("shard.remote.bytes"),
            hits: (0..n_shards)
                .map(|i| registry.counter(&format!("store.shard{i}.hits")))
                .collect(),
            misses: (0..n_shards)
                .map(|i| registry.counter(&format!("store.shard{i}.misses")))
                .collect(),
            resident: (0..n_shards)
                .map(|i| registry.gauge(&format!("store.shard{i}.resident_rows")))
                .collect(),
        }
    }

    #[inline]
    pub fn probe(&self, shard: usize, hit: bool) {
        let slots = if hit { &self.hits } else { &self.misses };
        if let Some(c) = slots.get(shard) {
            c.inc();
        }
    }

    #[inline]
    pub fn set_resident(&self, shard: usize, rows: usize) {
        if let Some(g) = self.resident.get(shard) {
            g.set(rows as f64);
        }
    }
}

/// One row of the per-stage latency breakdown derived from a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Batches that recorded this stage.
    pub batches: u64,
    /// Summed stage wall time, milliseconds.
    pub total_ms: f64,
    /// Mean stage wall time per batch, milliseconds.
    pub mean_ms: f64,
    /// Fraction of the summed time across all stages (0..=1).
    pub share: f64,
}

/// Derive the per-stage breakdown from a snapshot containing
/// `engine.stage.*.seconds` histograms. Stages absent from the snapshot (or
/// never hit) report zeros; `share` is relative to the stage-sum, so the
/// rows always total 1.0 when any stage recorded time.
pub fn stage_breakdown(snap: &Snapshot) -> Vec<StageRow> {
    let mut rows: Vec<StageRow> = STAGES
        .iter()
        .map(|&stage| {
            let h = snap
                .histograms
                .get(&format!("engine.stage.{stage}.seconds"));
            let (count, sum) = h.map_or((0, 0.0), |h| (h.count, h.sum));
            StageRow {
                stage,
                batches: count,
                total_ms: sum * 1e3,
                mean_ms: if count == 0 {
                    0.0
                } else {
                    sum * 1e3 / count as f64
                },
                share: 0.0,
            }
        })
        .collect();
    let total: f64 = rows.iter().map(|r| r.total_ms).sum();
    if total > 0.0 {
        for r in rows.iter_mut() {
            r.share = r.total_ms / total;
        }
    }
    rows
}

/// Render the breakdown as an aligned text table (for CLI / bench output).
pub fn format_stage_table(rows: &[StageRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>8} {:>12} {:>10} {:>7}\n",
        "stage", "batches", "total_ms", "mean_ms", "share"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>8} {:>12.3} {:>10.4} {:>6.1}%\n",
            r.stage,
            r.batches,
            r.total_ms,
            r.mean_ms,
            r.share * 100.0
        ));
    }
    let total: f64 = rows.iter().map(|r| r.total_ms).sum();
    out.push_str(&format!("{:<12} {:>8} {:>12.3}\n", "total", "", total));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_breakdown_orders_and_normalizes() {
        let reg = Arc::new(MetricsRegistry::new());
        let em = EngineMetrics::new(&reg);
        let stage = |name| &em.stages[STAGES.iter().position(|&s| s == name).unwrap()];
        stage("expand").observe(0.003);
        stage("gemm").observe(0.006);
        stage("gemm").observe(0.003);
        let rows = stage_breakdown(&reg.snapshot());
        assert_eq!(rows.len(), STAGES.len());
        for (row, &name) in rows.iter().zip(&STAGES) {
            assert_eq!(row.stage, name);
        }
        if !gcnp_obs::enabled() {
            assert!(rows.iter().all(|r| r.total_ms == 0.0));
            return;
        }
        let share_sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to 1");
        let gemm = rows.iter().find(|r| r.stage == "gemm").unwrap();
        assert_eq!(gemm.batches, 2);
        assert!((gemm.total_ms - 9.0).abs() < 1e-9);
        assert!((gemm.mean_ms - 4.5).abs() < 1e-9);
        assert!(gemm.share > 0.5);
        let table = format_stage_table(&rows);
        assert!(table.contains("gemm"));
        assert!(table.contains("total"));
    }

    #[test]
    fn store_metrics_clamp_out_of_range_levels() {
        let reg = Arc::new(MetricsRegistry::new());
        let sm = StoreMetrics::new(&reg, 2);
        sm.hit(1);
        sm.hit(2);
        sm.hit(99); // clamps to the last slot instead of panicking
        sm.miss(0); // level 0 clamps to the first slot
        let snap = reg.snapshot();
        if gcnp_obs::enabled() {
            assert_eq!(snap.counters["store.hit.l1"], 1);
            assert_eq!(snap.counters["store.hit.l2"], 2);
            assert_eq!(snap.counters["store.miss.l1"], 1);
        }
    }

    #[test]
    fn bundles_share_named_metrics_across_replicas() {
        let reg = Arc::new(MetricsRegistry::new());
        let a = EngineMetrics::new(&reg);
        let b = EngineMetrics::new(&reg);
        a.batches.inc();
        b.batches.inc();
        let expect = if gcnp_obs::enabled() { 2 } else { 0 };
        assert_eq!(reg.snapshot().counters["engine.batches"], expect);
    }
}
