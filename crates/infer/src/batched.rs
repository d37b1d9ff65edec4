//! Batched inference with supporting-node expansion, hop fan-out caps, and
//! the hidden-feature store (§2.2.2, §3.3.2).
//!
//! Unlike full inference, only the features actually reachable from the
//! batch targets are read and transformed. Aggregation is a uniform mean
//! over the (possibly capped) neighbor sample, matching GraphSAGE's `D⁻¹A`
//! semantics when uncapped; each aggregated row is one
//! [`gcnp_tensor::row_sum`] (the register-tiled kernel CSR SpMM also runs
//! on) over the node's neighbor list with `scale = 1 / deg`, reading every
//! level's rows by node id where they lie.
//!
//! # Every level is a table indexed by node id
//!
//! The raw attributes are never copied per batch, and no batch reads them
//! through a neighbour list: layer 1's every branch reads a per-engine
//! table indexed by node id instead. Every hidden level is a per-engine
//! `n_nodes × width` table in the back stage's scratch, indexed by node id
//! too: a batch writes its computed rows and its staged store rows into
//! their nodes' slots, and layer `li + 1` reads level `li` in place, as
//! layer 1 reads its tables. No level is assembled per batch and no node id
//! is relabelled. A slot is read only by the batch that wrote it, or, at
//! level 1, while it holds a tabled row (below). The output layer computes
//! exactly the deduplicated targets, in order, so its rows are the logits.
//! A hidden level's `k = 0` branch builds no operand at all: its GEMM takes
//! the level's table and the computed nodes' ids
//! ([`Matrix::matmul_packed_rows_into`]) and broadcasts each row from where
//! it lies — the product is the gather — and under `Concat` every branch's
//! GEMM stores into its own column window of the layer's combined output —
//! the product is the concatenation. (`gather_selected` builds an operand
//! only where a kernel needs one as a tensor: the int8 precision, which
//! serves nothing and stays for the benchmark's traced replay.)
//!
//! Level 0 is the static attribute matrix, so `mean(X_N)·W = mean((X·W)_N)`
//! and `X·W` does not depend on the batch: each `k = 1` branch of layer 1
//! gets a **projection table** `P = X · W` (`n_nodes × out_dim`), computed
//! once at engine construction on the f32 packed GEMM whatever the
//! engine's precision and whatever the branch's widths. A batch then sums
//! `out_dim`-wide rows of `P` (64 columns on the unpruned reddit-sim model,
//! 3 on the 4×-pruned one, instead of 602 attribute channels) and stores
//! the mean straight into the branch's column window: that branch runs no
//! GEMM. Each row of the table is bitwise the row a per-batch
//! [`Matrix::matmul_packed_rows_into`] would produce for that node (every
//! output row is its own fma chain), so a node's logits still depend only on
//! the graph, never on its batch-mates. Against the aggregate-then-transform
//! order they move by rounding only (≤ 1e-4;
//! `project_first_stays_within_rounding_of_aggregate_first`). A branch
//! wider out than in (products-sim's 100 → 128) sums wider rows than its
//! attributes would be, but per batch that costs adds only, while
//! aggregating first would add a per-batch GEMM; the table's one-off build
//! is `n_nodes × in_dim × out_dim` MACs either way. Hidden levels keep
//! aggregate-then-transform whatever the widths: there `|V_in| ≫ |V_out|`
//! and the input changes every batch. (The full-graph pass, where every
//! node is a target, still chooses its order by Eq. 2's `min`,
//! [`gcnp_models::Branch::projects_first`].)
//!
//! Layer 1's `k = 0` branch reads a table too, `X·W_self`, indexed by node
//! id — but one filled on first touch, not at construction. The table and its filled bitmap live in the
//! back stage's scratch. A batch runs one GEMM over just the computed nodes
//! whose rows are not yet filled (reading them in place, on the f32 pack
//! whatever the engine's precision), writes each row into the table and
//! only then marks it, and copies every computed node's row into the
//! branch's column window (adds it under `Mean`). A warm batch runs no
//! layer-1 GEMM, and its logits are bitwise a cold one's: each table row is
//! the row the per-batch GEMM would write. The table is not built eagerly
//! because an engine's construction would then pay `n_nodes × in_dim ×
//! out_dim` MACs up front, which a workload that rebuilds engines per
//! window (`stream_accrete`) pays inside its timed section; on first touch
//! an engine pays only for the nodes it serves. Rows depend only on the
//! attributes and the weights, so a batch that dies mid-fill leaves
//! nothing to reset.
//!
//! # Layer 1's output is a table wherever nothing is sampled
//!
//! The third table is layer 1's output `h⁽¹⁾` itself. A level-1 node whose
//! layer-1 aggregation samples nothing — its cap at layer 1's hop is `None`
//! or at least its degree, or layer 1 reads no graph — has a level-1 row
//! that depends only on the graph, the attributes and the weights, like the
//! rows of the two operand tables. Such a node is **tabled** unless the
//! store holds it (the store is probed first): expansion neither computes
//! nor expands it, just as for a store hit, and layer 2 reads its row where
//! it lies, in its slot of level 1's table; no batch copies it. A row is
//! filled on first read: the batch that first meets a tabled node no
//! earlier batch filled computes it with layer 1's own per-row body over
//! the node's whole adjacency row — the list expansion gives a node it
//! does not sample — and marks it only after writing it, so a tabled row
//! is bitwise the row computing the node
//! would give (`tabled_rows_are_bitwise_the_computed_rows`). The decision
//! reads only the node's degree against the cap, never back-stage state,
//! and a node that samples nothing draws no random number, so the stage
//! pair and `try_infer` see the same support, the same fills and the same
//! counters, and every sampled neighbour list is what it was without the
//! table. Under `StorePolicy::Roots` / `AllVisited` a tabled row is written
//! back like a computed one. This table differs from the store (§3.3.2) in
//! three ways: it is exact (only unsampled rows are marked in it, and a
//! sampled row or a store row unmarks the slot it lands in), it belongs to
//! one engine and is never shared or invalidated (a graph or weight change
//! builds a new engine), and it needs no checksum or lock, because only the
//! back stage touches it.
//!
//! # Two-stage decomposition
//!
//! Every batch is served in two stages that share no mutable state. The
//! engine is three parts — the read-only `EngineCore` (model, packs,
//! projection tables, graph, caps, store view, policy, seed, faults,
//! metrics), the front's `FrontScratch` and the back's `BackScratch` — and
//! `BatchedEngine::split` lends them at once, one shared borrow and two
//! exclusive ones, so nothing is copied to run the stages apart:
//!
//! * **prepare** (front end): fault draw, target validation, one width
//!   check per store level, and neighborhood expansion ([`BatchSupport`]),
//!   whose "is it stored?" question is one counted store lookup per node
//!   that also stages the row it finds into an owned buffer (a level-1 miss
//!   that samples nothing is tabled instead of computed); then **layer
//!   1's neighbour branches** — the `k = 1` mean over the projection
//!   table's rows, which *is* the branch's product, a pure function of the
//!   support and read-only data — built row by row until the hand-off
//!   (`HandOff`), everything staged in `PreparedBatch`;
//! * **execute** (back end): the neighbour-mean rows prepare left, layer
//!   1's `k = 0` table read (after the GEMM that fills the rows no earlier
//!   batch did, reading them in place), the store of each neighbour product
//!   into its column window, the fill of the tabled rows no earlier batch
//!   filled, then every hidden level's aggregation (reading the level
//!   below in place), GEMMs and combine, the writes of its computed and
//!   staged rows into their slots, and store write-backs; the output
//!   layer's rows are the target logits.
//!
//! The seam sits between a batch's irregular memory reads and its FMAs,
//! and it moves. Level 0's neighbour mean is the largest irregular read of
//! a batch and needs nothing execute produces, so the stage pair lets the
//! front stage build its rows, in chunks, only until the back stage waits
//! on an empty queue; execute builds the remaining rows, with the same
//! per-row body, into the same buffer. Which stage builds a row is decided
//! at run time by the back's idleness, and each row depends only on its
//! own neighbours, so every hand-off row gives the same bits
//! (`stage_split_is_bitwise_at_every_hand_off_row`); `try_infer` builds
//! every row in prepare. The `k = 0` read stays behind the seam: as a
//! gather moved forward it over-filled the front stage (6–18 % less drain
//! throughput on the 2-vCPU reference box), and its table is back scratch,
//! which only `execute` touches — so filling it needs no lock and no
//! change to the stage pair's protocol. Layer 1's output table sits behind
//! the seam for the same reason: prepare decides which nodes are tabled
//! from their degree alone, and never reads which rows are filled.
//!
//! [`BatchedEngine::try_infer`] runs them back-to-back on the caller's
//! thread. The stage pair in [`crate::pipeline`] runs the front
//! stage of batch N+1 concurrently with the back stage of batch N on
//! separate threads, both reading the one core — which is why the split
//! routes every front-stage buffer through the owned, `Send`
//! `PreparedBatch`, and why the back end hands spent front-pool buffers
//! back through an explicit `spent` list
//! instead of recycling into a shared pool. Staging the store reads in the
//! front stage also means a store level of the wrong width surfaces as a
//! typed error *before* any GEMM or write-back runs (fail before side
//! effects), while a row whose checksum fails is quarantined at its one
//! lookup and its node computed from level 0 in the same attempt.

use gcnp_models::{Branch, CombineMode, GnnModel, PackedModel, QuantPackedModel};
use gcnp_sparse::{BatchSupport, CsrMatrix, LayerSupport};
use gcnp_tensor::{parallel_row_chunks, qgemm_packed_into, row_sum, Matrix, PackedB, ScratchPool};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{ServingError, ServingResult};
use crate::faults::{Fault, FaultInjector};
use crate::metrics::{EngineMetrics, STAGES};
use crate::shard::ShardedStore;
use crate::store::FeatureStore;

/// Numeric precision an engine runs its branch transforms in. Every engine
/// the product serves is `F32`; `Int8` stays only because the benchmark's
/// traced replay (`benchmark/src/adapter.rs`, `Replayer::new`) builds an
/// int8 engine to price the `qgemm` kernel, and goes with that replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// f32 blocked GEMM.
    F32,
    /// Blocked int8 GEMM over per-column-quantized packed weights.
    Int8,
}

/// The engine's weight-pack cache in its chosen precision.
pub(crate) enum WeightPacks<'m> {
    F32(PackedModel<'m>),
    /// The int8 packs, and an f32 pack of every layer-1 branch: layer 1's
    /// tables are f32 in every precision. Only the benchmark's traced
    /// replay builds it (see [`Precision`]).
    Int8(QuantPackedModel<'m>, Vec<PackedB>),
}

impl WeightPacks<'_> {
    /// The f32 pack of layer 1's branch `bi`, which that branch's table is
    /// built on whatever the engine's precision.
    fn layer_one_f32(&self, bi: usize) -> &PackedB {
        match self {
            // audit: allow(no-fail-stop) — packs are built 1:1 with model branches at construction
            WeightPacks::F32(pm) => &pm.branch_packs(0)[bi],
            // audit: allow(no-fail-stop) — same: one f32 pack per layer-1 branch
            WeightPacks::Int8(_, packs) => &packs[bi],
        }
    }

    /// Bytes of weight data every batch streams through (the per-batch
    /// memory metric's weight term): 4 bytes per f32 weight, 1 per int8.
    /// Layer 1's weights are not among them: a batch reads its branches'
    /// tables instead, and only a batch that fills `k = 0` rows reads that
    /// branch's weights (4 bytes each, in either precision).
    fn weight_bytes(&self, model: &GnnModel) -> usize {
        let tabled: usize = model.layers.first().map_or(0, |layer| {
            layer.branches.iter().map(|b| b.weight.len()).sum()
        });
        let per_weight = match self {
            WeightPacks::F32(_) => 4,
            WeightPacks::Int8(..) => 1,
        };
        (model.n_weights() - tabled) * per_weight
    }
}

/// The engine's store binding: none, one [`FeatureStore`], or one shard of a
/// [`ShardedStore`] (the engine serves targets owned by `shard`; reads and
/// write-backs route to each row's owner, and cross-shard fetches are
/// accounted through the router counters).
///
/// All methods treat `None` as an always-empty, write-discarding store, so
/// the hot paths need no `if let` at every site — a `put` against `None` is
/// a silent no-op `Ok(())`, a probe always misses.
#[derive(Clone, Copy)]
pub(crate) enum StoreView<'a> {
    None,
    Single(&'a FeatureStore),
    Shard {
        store: &'a ShardedStore,
        shard: usize,
    },
}

impl<'a> StoreView<'a> {
    fn from_option(store: Option<&'a FeatureStore>) -> Self {
        match store {
            None => StoreView::None,
            Some(s) => StoreView::Single(s),
        }
    }

    /// True when some store backs this view.
    fn active(&self) -> bool {
        !matches!(self, StoreView::None)
    }

    /// One counted lookup; a hit lends the verified row to `stage`.
    fn probe(&self, level: usize, node: usize, stage: impl FnOnce(&[f32])) -> bool {
        match self {
            StoreView::None => false,
            StoreView::Single(s) => s.probe(level, node, stage),
            StoreView::Shard { store, .. } => store.probe(level, node, stage),
        }
    }

    /// The width of the rows stored at `level`, when it is not `expected`.
    fn wrong_width(&self, level: usize, expected: usize) -> Option<usize> {
        match self {
            StoreView::None => None,
            StoreView::Single(s) => s.level_width(level).filter(|&w| w != expected),
            StoreView::Shard { store, .. } => store.wrong_width(level, expected),
        }
    }

    fn put(&self, level: usize, node: usize, row: &[f32]) -> ServingResult<()> {
        match self {
            StoreView::None => Ok(()),
            StoreView::Single(s) => s.put(level, node, row),
            StoreView::Shard { store, .. } => store.put(level, node, row),
        }
    }

    fn inject_bit_flip(&self, seed: u64) -> Option<(usize, usize)> {
        match self {
            StoreView::None => None,
            StoreView::Single(s) => s.inject_bit_flip(seed),
            StoreView::Shard { store, .. } => store.inject_bit_flip(seed),
        }
    }

    /// Account one per-level batched fetch of stored rows against the shard
    /// router's counters (no-op for unsharded views: a single store has no
    /// remote rows).
    fn note_remote(&self, nodes: &[usize], width: usize) {
        if let StoreView::Shard { store, shard } = self {
            store.note_remote_fetch(*shard, nodes, width);
        }
    }
}

/// What the engine writes back to the store after each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorePolicy {
    /// Never write (read-only store, or no store at all).
    None,
    /// Store the hidden features of the batch's **root** (target) nodes —
    /// the paper's recommended balance point (§3.3.2).
    Roots,
    /// Store every hidden feature computed in the batch (maximum reuse,
    /// maximum write traffic).
    AllVisited,
}

/// Per-batch instrumentation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchResult {
    /// Logits for the deduplicated targets, in [`BatchResult::targets`] order.
    pub logits: Matrix,
    pub targets: Vec<usize>,
    /// Wall-clock seconds for this batch (gather + compute + store I/O; in
    /// the pipelined executor this also spans the inter-stage queue wait).
    pub seconds: f64,
    /// MACs actually executed: every per-batch branch transform
    /// (`computed × in_dim × out_dim`) and aggregation (one add per edge per
    /// channel). Layer 1's branches run no transform: a neighbour branch —
    /// its projection table was built with the engine — costs `|E₁| ×
    /// out_dim` adds over the table's rows, and a `k = 0` branch copies its
    /// rows. Only the batch that fills `k = 0` rows pays
    /// their transform, `filled × in_dim × out_dim`, so a warm batch counts
    /// none. A tabled level-1 row (see the module docs) costs what layer 1
    /// runs for it in the batch that fills it — its neighbour adds over its
    /// whole adjacency row, and its `k = 0` fill — and nothing when an
    /// earlier batch filled it. So the count depends on the engine's batch
    /// history: it is deterministic in batch order, and the stage pair and
    /// `try_infer` give the same count for the same sequence.
    pub macs: u64,
    /// Bytes of features touched plus weights — the paper's per-batch memory
    /// metric. The sum of: the weights a batch transforms with (4 bytes
    /// each, 1 under int8; layer 1's weights are not read); the table bytes
    /// layer 1 reads, per branch `computed × out_dim × 4` for a `k = 0`
    /// branch and `supporting × out_dim × 4` for a `k = 1` branch (rows of
    /// its projection table); for a batch that fills `k = 0` rows, the
    /// filled nodes' attribute bytes (`filled × in_dim × 4`) and that
    /// branch's f32 weights; every staged store row; and every layer's
    /// output table. A tabled level-1 row counts, in the batch that fills
    /// it, the table rows its fill reads (its `k = 0` row, and the
    /// projection rows of it and its neighbours that no computed row of the
    /// batch reads) and its output row — in a batch where every tabled row
    /// is filled, exactly what computing them would count; once filled, one
    /// row read in place (`width × 4`). Deterministic in batch order, like
    /// [`Self::macs`].
    pub mem_bytes: usize,
    /// Distinct level-0 nodes the batch's expansion reaches: the nodes whose
    /// table rows its computed level-1 rows read. A tabled node is not
    /// expanded, so neither it nor its neighbours count unless a computed
    /// row reads them, whether or not the batch fills its row; the count
    /// depends only on the support, not on the engine's history.
    pub n_supporting: usize,
    /// Store reads that avoided expansion.
    pub store_hits: usize,
}

/// Batched-inference engine: the read-only state both stages share, and
/// each stage's own scratch.
pub struct BatchedEngine<'a> {
    core: EngineCore<'a>,
    front: FrontScratch,
    back: BackScratch,
}

/// The engine's read-only state, lent by [`BatchedEngine::split`] to both
/// pipeline stages at once: everything `prepare` and `execute` read and
/// neither writes.
pub(crate) struct EngineCore<'a> {
    model: &'a GnnModel,
    /// Weight-pack cache: every branch weight packed once at construction
    /// (f32 or int8 per the engine's [`Precision`]), so per-batch GEMMs skip
    /// the operand-pack step entirely.
    packed: WeightPacks<'a>,
    /// Layer 1's projection tables, one slot per layer-1 branch, built once
    /// at construction and indexed by node id: `features · W` for a `k = 1`
    /// branch (`n_nodes × out_dim × 4` bytes); `None` for a `k = 0` branch,
    /// whose table the back stage fills on first touch.
    projections: Vec<Option<Matrix>>,
    /// Raw (unnormalized) adjacency; the engine applies mean aggregation.
    adj: &'a CsrMatrix,
    features: &'a Matrix,
    /// Per-hop fan-out caps (`[None, Some(32)]` = the paper's setting).
    caps: Vec<Option<usize>>,
    store: StoreView<'a>,
    policy: StorePolicy,
    seed: u64,
    /// Optional fault-injection hook (chaos testing); `None` costs one
    /// branch per batch.
    faults: Option<Arc<FaultInjector>>,
    /// Optional per-stage instrumentation (see [`crate::metrics`]); `None`
    /// (or an `obs-off` build) skips all clock reads.
    metrics: Option<Arc<EngineMetrics>>,
    /// Compute every level-1 row, as if nothing were tabled (tests compare
    /// the two).
    #[cfg(test)]
    untabled: bool,
}

/// Front-stage (prepare) scratch, owned by the engine and mutably borrowed
/// by one prepare at a time.
#[derive(Default)]
pub(crate) struct FrontScratch {
    /// Batches prepared so far: batch `n`'s sampling seed is `seed ^ n`.
    counter: u64,
    /// Matrix free list: staged store reads are drawn from here; the back
    /// end returns them via its `spent` list (double-buffered circulation
    /// under the pipelined executor).
    pub(crate) pool: ScratchPool,
    /// Stored rows per level in the last batch: the capacity each level's
    /// staging buffer is taken with.
    staged_rows: Vec<usize>,
}

/// Reusable back-stage scratch, owned by the engine and mutably borrowed
/// (never moved) for the duration of each execute. Nothing in it needs a
/// reset after a batch that panicked or errored out: a level slot is read
/// only by the batch that wrote it, or, at level 1, while it is marked
/// filled, and every mark is set only after its row is written.
#[derive(Default)]
pub(crate) struct BackScratch {
    /// Matrix free list: aggregated operands and hidden layers' combined
    /// outputs are drawn from (and returned to) this pool instead of
    /// hitting the allocator once per intermediate per batch.
    pool: ScratchPool,
    /// Layer 1's `k = 0` products, one slot per layer-1 branch (a `k = 1`
    /// slot stays empty): `X·W_self` by node id, filled on first touch.
    self_tables: Vec<SelfTable>,
    /// Every hidden level as an `n_nodes × width` table indexed by node id
    /// (`levels[li - 1]` is level `li`, layer `li`'s output). A batch
    /// writes its computed and its staged store rows into their nodes'
    /// slots, and layer `li + 1` reads level `li` where it lies. Level 1's
    /// table is also layer 1's output table: a tabled node's row (see the
    /// module docs) stays in its slot across batches while `filled` marks
    /// it.
    levels: Vec<Matrix>,
    /// `filled[v]`: level 1's slot `v` holds node `v`'s tabled row. Set
    /// only after the row is written, and cleared before a computed or a
    /// store row lands in the slot.
    filled: Vec<bool>,
    /// Per-node marks for set membership within one step (the projection
    /// rows a level-1 fill reads, the `Roots` a level holds); all clear
    /// between steps.
    marks: Vec<bool>,
}

/// One layer-1 `k = 0` branch's product `X·W_self` as a table, allocated
/// and filled on first touch: row `v` is node `v`'s product once
/// `filled[v]` is set. A row depends only on the attributes and the weights
/// and is marked only after it is written, so a batch that dies mid-fill
/// leaves no row a later batch could misread, and the table is never reset.
#[derive(Default)]
pub(crate) struct SelfTable {
    /// `n_nodes × out_dim`, row-major.
    rows: Vec<f32>,
    filled: Vec<bool>,
    /// The computed nodes whose rows a batch fills (reused list).
    misses: Vec<usize>,
}

/// Stages charged by the engine's [`StageClock`], in [`STAGES`] order: a
/// stage's discriminant is its index there.
#[derive(Clone, Copy)]
enum Stage {
    Expand,
    Relabel,
    StoreProbe,
    Spmm,
    Gemm,
    WriteBack,
}

/// Contiguous-lap stage stopwatch: each `lap(stage)` charges the time since
/// the previous lap to `stage`, so the per-stage sums cover the
/// instrumented span with no gaps and no double counting. Under the
/// pipelined executor the clock travels inside [`PreparedBatch`] and is
/// [`StageClock::resume`]d when the back stage picks the batch up, so the
/// recorded per-stage times are **busy** time — the inter-stage queue wait
/// is never charged to any stage.
pub(crate) struct StageClock {
    last: Instant,
    /// Seconds charged to each stage, indexed by [`Stage`].
    seconds: [f64; STAGES.len()],
}

impl StageClock {
    fn start(at: Instant) -> Self {
        Self {
            last: at,
            seconds: [0.0; STAGES.len()],
        }
    }

    fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        // audit: allow(no-fail-stop) — `Stage` has one variant per `STAGES` entry, in order
        self.seconds[stage as usize] += now.duration_since(self.last).as_secs_f64();
        self.last = now;
    }

    /// Restart the lap baseline without charging the elapsed gap to any
    /// stage — called by the back stage after the batch crossed the
    /// inter-stage queue.
    fn resume(&mut self) {
        self.last = Instant::now();
    }

    fn record(&self, m: &EngineMetrics) {
        for (histogram, &seconds) in m.stages.iter().zip(&self.seconds) {
            histogram.observe(seconds);
        }
    }
}

/// Lap helper for the optional clock (one branch when uninstrumented).
#[inline]
fn lap(clock: &mut Option<StageClock>, stage: Stage) {
    if let Some(c) = clock.as_mut() {
        c.lap(stage);
    }
}

/// A batch after its front-end stage: everything the back end needs, fully
/// owned and `Send`, so it can cross the inter-stage queue of the pipelined
/// executor (see [`crate::pipeline`]).
pub(crate) struct PreparedBatch {
    pub(crate) support: BatchSupport,
    /// Staged store reads per level: `staged[li - 1]` holds the rows of
    /// `support.layers[li - 1].stored` in order, `None` when that level has
    /// no stored rows. Front-pool buffers; the back end retires them
    /// through its `spent` list. (Level 0 is not staged: execute reads the
    /// attributes in place.)
    staged: Vec<Option<Matrix>>,
    /// Layer 1's neighbour-branch means, one slot per layer-1 branch: for a
    /// `k = 1` branch, the computed nodes' means over their neighbours'
    /// projection-table rows (`computed × out_dim`, the branch's product);
    /// `None` for a `k = 0` branch (it reads its own table). Front-pool
    /// buffers, retired through `spent` like `staged`. Rows `..means_done`
    /// were built by prepare; execute builds the rest in place.
    aggregated: Vec<Option<Matrix>>,
    /// The hand-off row of layer 1's neighbour means (see [`HandOff`]).
    means_done: usize,
    /// Level-1 nodes whose layer-1 aggregation samples nothing and the
    /// store did not hold, in probe order: neither computed nor expanded,
    /// execute reads their rows from the engine's level-1 table.
    tabled: Vec<usize>,
    /// A store-miss storm was drawn: the back end must skip write-backs,
    /// exactly as if the store were absent.
    bypass_store: bool,
    /// The fault drawn for this attempt. Fault draws key on the batch
    /// attempt (one draw in prepare per attempt, regardless of which stage
    /// the effect lands in): `Panic` already fired in prepare, `StoreMiss`
    /// is latched into `bypass_store`, and `Straggle` is applied by the
    /// back end at the end of execute.
    fault: Fault,
    /// Feature bytes touched so far (weights + layer 1's table reads + store
    /// reads; see [`BatchResult::mem_bytes`]).
    mem_bytes: usize,
    store_hits: usize,
    /// Batch admission instant: [`BatchResult::seconds`] spans prepare, any
    /// inter-stage queue wait, and execute.
    t0: Instant,
    /// Stage stopwatch carried across the queue (see [`StageClock`]).
    clock: Option<StageClock>,
    /// Busy seconds prepare itself took. The serving worker's back stage
    /// adds them to execute's, so the compute estimate covers the whole
    /// batch.
    front_seconds: f64,
}

impl PreparedBatch {
    /// The fault drawn for this attempt. The pipelined front routes
    /// `QueueWedge` through the quiet (no-wakeup) stage push based on this,
    /// and the back scales its compute-estimate feed by a `ClockSkew`.
    pub(crate) fn fault(&self) -> Fault {
        self.fault
    }

    /// Busy seconds the front stage spent preparing this batch.
    pub(crate) fn front_seconds(&self) -> f64 {
        self.front_seconds
    }

    /// Every front-pool buffer the batch still holds.
    fn buffers(&mut self) -> impl Iterator<Item = Matrix> + '_ {
        self.staged
            .iter_mut()
            .chain(&mut self.aggregated)
            .filter_map(Option::take)
    }

    /// Return this batch's front-pool buffers to `pool` — the abandon path
    /// when a supervisor steal voids the attempt after prepare finished.
    pub(crate) fn recycle_into(mut self, pool: &mut ScratchPool) {
        for m in self.buffers() {
            pool.recycle(m);
        }
    }
}

/// Rows of layer 1's neighbour means `prepare` builds between two looks at
/// the back stage's idleness.
const MEAN_CHUNK_ROWS: usize = 64;

/// Where `prepare` stops building layer 1's neighbour means and leaves the
/// remaining rows to `execute`. Each mean row depends only on its own
/// neighbours, so every hand-off row gives the same bits.
#[derive(Clone, Copy)]
pub(crate) enum HandOff<'a> {
    /// Build every row in prepare: the one-thread path.
    Never,
    /// Build in [`MEAN_CHUNK_ROWS`]-row chunks until the back stage is
    /// waiting on an empty inter-stage queue (the stage pair's flag).
    WhenIdle(&'a AtomicBool),
    /// Stop at this row (tests pin every hand-off row).
    #[cfg(test)]
    AtRow(usize),
}

impl<'a> BatchedEngine<'a> {
    /// Create an f32 engine. `store = None` disables the hidden-feature
    /// reuse.
    ///
    /// Every constructor packs the weights and builds, for each `k = 1`
    /// branch of layer 1, its projection table `features · W` — a one-time
    /// `n_nodes × in_dim × out_dim` MACs and `n_nodes × out_dim × 4` bytes
    /// per branch (unpruned reddit-sim: 12 000 × 602 × 64, 3 MB, ≈ 13 ms on
    /// one core of the 2-vCPU reference box), which no
    /// [`BatchResult::macs`] counts. Batches then read that branch at
    /// `out_dim` width and run no GEMM for it. Layer 1's `k = 0` branch gets
    /// the same kind of table, `X·W_self`, but not here: the back stage
    /// fills its rows on first touch, and a batch pays the transform only
    /// for the computed nodes no earlier batch filled. Layer 1's output rows
    /// of the nodes it aggregates without sampling are a first-touch table
    /// too (see the module docs).
    pub fn new(
        model: &'a GnnModel,
        adj: &'a CsrMatrix,
        features: &'a Matrix,
        caps: Vec<Option<usize>>,
        store: Option<&'a FeatureStore>,
        policy: StorePolicy,
        seed: u64,
    ) -> Self {
        Self::new_with_precision(
            model,
            adj,
            features,
            caps,
            store,
            policy,
            seed,
            Precision::F32,
        )
    }

    /// Create an engine pinned to one shard of a [`ShardedStore`]: reads
    /// and write-backs route to each row's owner shard, and per-level
    /// cross-shard fetches are accounted on the `shard.remote.*` counters.
    /// Because every shard's rows are reachable through the router, the
    /// logits are bitwise-identical to an unsharded engine over the union
    /// store (pinned in `tests/shard_equivalence.rs`).
    #[allow(clippy::too_many_arguments)]
    pub fn new_sharded(
        model: &'a GnnModel,
        adj: &'a CsrMatrix,
        features: &'a Matrix,
        caps: Vec<Option<usize>>,
        store: &'a ShardedStore,
        shard: usize,
        policy: StorePolicy,
        seed: u64,
    ) -> Self {
        // audit: allow(no-fail-stop) — constructor misuse is a programmer error; engines are built once at startup, not per request
        assert!(
            shard < store.n_shards(),
            "BatchedEngine::new_sharded: shard {shard} of {}",
            store.n_shards()
        );
        Self::with_view(
            model,
            adj,
            features,
            caps,
            StoreView::Shard { store, shard },
            policy,
            seed,
            Precision::F32,
        )
    }

    /// Create an engine whose branch transforms run in the given
    /// [`Precision`]: `F32` packs the weights for the blocked f32 GEMM,
    /// `Int8` quantizes them per column and packs for the blocked int8
    /// kernel. The product serves f32 only ([`BatchedEngine::new`]); this
    /// constructor stays for the benchmark's traced replay.
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_precision(
        model: &'a GnnModel,
        adj: &'a CsrMatrix,
        features: &'a Matrix,
        caps: Vec<Option<usize>>,
        store: Option<&'a FeatureStore>,
        policy: StorePolicy,
        seed: u64,
        precision: Precision,
    ) -> Self {
        Self::with_view(
            model,
            adj,
            features,
            caps,
            StoreView::from_option(store),
            policy,
            seed,
            precision,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn with_view(
        model: &'a GnnModel,
        adj: &'a CsrMatrix,
        features: &'a Matrix,
        caps: Vec<Option<usize>>,
        store: StoreView<'a>,
        policy: StorePolicy,
        seed: u64,
        precision: Precision,
    ) -> Self {
        for layer in &model.layers {
            // audit: allow(no-fail-stop) — constructor misuse is a programmer error; engines are built once at startup, not per request
            assert!(
                layer.branches.iter().all(|b| b.k <= 1),
                "BatchedEngine: only k ∈ {{0,1}} branches supported (GraphSAGE-style)"
            );
        }
        // audit: allow(no-fail-stop) — constructor misuse is a programmer error (see above)
        assert!(!model.jk, "BatchedEngine: JK models not supported");
        let layer_one: &[Branch] = model.layers.first().map_or(&[], |l| &l.branches);
        let packed = match precision {
            Precision::F32 => WeightPacks::F32(PackedModel::new(model)),
            Precision::Int8 => WeightPacks::Int8(
                QuantPackedModel::new(model),
                layer_one.iter().map(|b| PackedB::pack(&b.weight)).collect(),
            ),
        };
        // Layer 1's neighbour branches are transformed here, in f32
        // whatever the precision (int8 quantizes per-batch transforms
        // only), so batches aggregate their products.
        let projections = layer_one
            .iter()
            .enumerate()
            .map(|(bi, b)| (b.k == 1).then(|| projection_table(features, packed.layer_one_f32(bi))))
            .collect();
        let n_nodes = adj.n_rows();
        // Zeroed, so a table's pages are first touched by the batches that
        // write them.
        let hidden = model
            .layers
            .split_last()
            .map(|(_, h)| h)
            .unwrap_or_default();
        let levels = hidden
            .iter()
            .map(|l| Matrix::zeros(n_nodes, l.out_dim()))
            .collect();
        Self {
            core: EngineCore {
                model,
                packed,
                projections,
                adj,
                features,
                caps,
                store,
                policy,
                seed,
                faults: None,
                metrics: None,
                #[cfg(test)]
                untabled: false,
            },
            front: FrontScratch::default(),
            back: BackScratch {
                pool: ScratchPool::new(),
                // Empty slots: a table is allocated by the first batch
                // that reads it.
                self_tables: layer_one.iter().map(|_| SelfTable::default()).collect(),
                levels,
                filled: vec![false; n_nodes],
                marks: vec![false; n_nodes],
            },
        }
    }

    /// Attach a fault injector (see [`crate::faults`]). Fleet replicas
    /// should share one `Arc` so the attempt counter is global.
    pub fn set_faults(&mut self, faults: Arc<FaultInjector>) {
        self.core.faults = Some(faults);
    }

    /// Attach a metrics bundle (see [`crate::metrics`]). Fleet replicas
    /// should build their bundles from one shared
    /// [`gcnp_obs::MetricsRegistry`] so per-stage timings accumulate across
    /// workers. A `None`-metrics engine (the default) reads no clocks.
    pub fn set_metrics(&mut self, metrics: Arc<EngineMetrics>) {
        self.core.metrics = Some(metrics);
    }

    /// The attached metrics bundle, if any.
    pub fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.core.metrics.as_ref()
    }

    /// Lend the engine's three parts at once: the read-only core both
    /// pipeline stages share, and each stage's own scratch. The pipelined
    /// executor runs `prepare` (front) and `execute` (back) on different
    /// threads against one engine through these borrows.
    pub(crate) fn split(&mut self) -> (&EngineCore<'a>, &mut FrontScratch, &mut BackScratch) {
        (&self.core, &mut self.front, &mut self.back)
    }

    /// Serve one batch of target nodes, panicking on any serving error —
    /// the fail-stop wrapper kept for offline/batch callers. Real-time
    /// serving paths use [`BatchedEngine::try_infer`].
    pub fn infer(&mut self, targets: &[usize]) -> BatchResult {
        self.try_infer(targets)
            // audit: allow(no-fail-stop) — documented fail-stop wrapper for offline callers; serving paths use try_infer
            .unwrap_or_else(|e| panic!("BatchedEngine::infer: {e}"))
    }

    /// Serve one batch of target nodes, surfacing recoverable failures
    /// (bad targets, stale/mismatched store rows) as [`ServingError`]s
    /// instead of panicking. After an error *or* a caught panic the engine
    /// stays usable: the next call rebuilds its scratch state.
    ///
    /// This is the one-thread path: prepare and execute run back-to-back on
    /// the caller's thread, so outputs are identical to the stage pair's
    /// by construction (both run exactly this code).
    pub fn try_infer(&mut self, targets: &[usize]) -> ServingResult<BatchResult> {
        let (core, front, back) = self.split();
        let prep = core.prepare(targets, front, HandOff::Never)?;
        let mut spent = Vec::new();
        let res = core.execute(prep, back, &mut spent);
        // Front-originated buffers circulate back to the front pool (the
        // pipelined executor routes this return trip through a rail between
        // the stage threads instead).
        for m in spent {
            front.pool.recycle(m);
        }
        res
    }
}

impl EngineCore<'_> {
    /// True when batches write to a store: the stage pair must then
    /// serialize batch N+1's store probes (prepare) behind batch N's
    /// write-backs (execute) to keep outputs identical to `try_infer`'s.
    pub(crate) fn needs_store_barrier(&self) -> bool {
        self.store.active() && !matches!(self.policy, StorePolicy::None)
    }

    /// The largest degree of a level-1 node whose layer-1 aggregation
    /// samples nothing: the cap at layer 1's hop, unbounded when that hop is
    /// uncapped or layer 1 reads no graph. `None` when level 1 is the
    /// output, which is never tabled.
    fn level_one_table_degree(&self) -> Option<usize> {
        let layers = &self.model.layers;
        #[cfg(test)]
        if self.untabled {
            return None;
        }
        if layers.len() < 2 {
            return None;
        }
        if !layers[0].uses_graph() {
            return Some(usize::MAX);
        }
        // Layer 1 expands at the last hop: one per graph layer.
        let hop = layers.iter().filter(|l| l.uses_graph()).count();
        Some(
            self.caps
                .get(hop - 1)
                .copied()
                .flatten()
                .unwrap_or(usize::MAX),
        )
    }

    /// Front-end stage: draw the attempt's fault, validate targets, check
    /// each store level's width, expand the supporting-node structure —
    /// reading every stored row it meets into owned buffers as it goes, one
    /// lookup per node — and build layer 1's neighbour-branch means over
    /// each branch's projection-table rows: the batch's largest irregular
    /// read, and a pure function of the support and read-only tables.
    /// `hand_off` says where the means stop; `execute` builds the rows left.
    /// Attribute rows themselves are not copied: the `k = 0` table's fill in
    /// execute reads them in place.
    pub(crate) fn prepare(
        &self,
        targets: &[usize],
        front: &mut FrontScratch,
        hand_off: HandOff<'_>,
    ) -> ServingResult<PreparedBatch> {
        let t0 = Instant::now();
        let fault = match &self.faults {
            None => Fault::None,
            Some(inj) => inj.next_fault(),
        };
        if matches!(fault, Fault::Panic) {
            // audit: allow(no-fail-stop) — chaos-injected worker crash; serve_multi recovers it via catch_unwind
            panic!("gcnp-faults: injected worker panic");
        }
        if let Fault::StageStall { seconds } = fault {
            // A wedged front stage: go silent mid-prepare (capped like
            // Straggle so a chaos schedule cannot hang a test job). The
            // supervisor's watchdog must detect this and steal the batch.
            std::thread::sleep(std::time::Duration::from_secs_f64(seconds.clamp(0.0, 1.0)));
        }
        let n_nodes = self.adj.n_rows();
        for &v in targets {
            if v >= n_nodes {
                return Err(ServingError::TargetOutOfRange { node: v, n_nodes });
            }
        }
        // Enforced under `strict-invariants`, compiled out otherwise: a
        // feature matrix sized for a different graph must surface as a typed
        // error here, not as an out-of-bounds panic inside a gather kernel.
        gcnp_tensor::shape_contract!(
            "engine.features.rows",
            self.features.rows() == n_nodes,
            "feature matrix has {} rows but the graph has {n_nodes} nodes",
            self.features.rows()
        );
        // A store-miss storm serves the batch as if the store were cold:
        // every probe misses, reads and write-backs are skipped.
        let bypass_store = matches!(fault, Fault::StoreMiss);
        let store = if bypass_store {
            StoreView::None
        } else {
            self.store
        };
        // Level `li`'s rows are layer `li`'s output, `widths[li - 1]` wide.
        // Width is a property of a store level, so one check per level
        // covers every row this batch reads — before any buffer is taken.
        let widths: Vec<usize> = self.model.layers.iter().map(|l| l.out_dim()).collect();
        let n_layers = widths.len();
        for (li, &width) in widths.iter().enumerate().take(n_layers.saturating_sub(1)) {
            if let Some(got) = store.wrong_width(li + 1, width) {
                return Err(ServingError::StoreWidthMismatch {
                    level: li + 1,
                    expected: width,
                    got,
                });
            }
        }
        front.counter += 1;
        let batch_seed = self.seed ^ front.counter;
        if matches!(fault, Fault::RowFlip) {
            // Corrupt one resident store row (deterministic in the batch
            // seed). If this batch needs the row, its probe finds the
            // checksum off, quarantines the row and reads it as a miss, so
            // the node is computed from level 0 in this same attempt.
            self.store.inject_bit_flip(batch_seed);
        }
        // Stage clock: only when a bundle is attached AND `obs` is compiled
        // in (the `enabled()` check const-folds the whole thing away in
        // obs-off builds, clock reads included).
        let mut clock = self
            .metrics
            .as_ref()
            .filter(|_| gcnp_obs::enabled())
            .map(|_| StageClock::start(Instant::now()));
        let graph_flags: Vec<bool> = self.model.layers.iter().map(|l| l.uses_graph()).collect();
        // One buffer per stored level, filled as the probes answer: a hit
        // appends its row, in the order `LayerSupport::stored` lists it.
        front.staged_rows.resize(n_layers, 0);
        let mut staging: Vec<Vec<f32>> = (0..n_layers)
            .map(|l| {
                if store.active() && l + 1 < n_layers {
                    front.pool.take_vec(front.staged_rows[l] * widths[l]) // audit: allow(no-fail-stop) — both hold one entry per layer
                } else {
                    Vec::new() // the output layer is never stored
                }
            })
            .collect();
        // A row of another width, met only if a put raced the level check.
        let mut torn = None;
        // Level 1's store hits and tabled nodes, each in probe order. A
        // tabled node answers "stored" too, so it is neither computed nor
        // expanded; it draws no sample either way, so the RNG stream and
        // every sampled neighbour list stay those of an engine without it.
        let table_degree = self.level_one_table_degree();
        let (mut hits, mut tabled) = (Vec::new(), Vec::new());
        let mut support = BatchSupport::build(
            self.adj,
            targets,
            &graph_flags,
            &self.caps,
            batch_seed,
            |level, node| {
                let hit = store.probe(level, node, |row| {
                    match (staging.get_mut(level - 1), widths.get(level - 1)) {
                        (Some(buf), Some(&w)) if row.len() == w => buf.extend_from_slice(row),
                        _ => {
                            torn.get_or_insert((level, row.len()));
                        }
                    }
                });
                if level != 1 {
                    return hit;
                }
                if hit {
                    hits.push(node);
                } else if table_degree.is_some_and(|d| self.adj.degree(node) <= d) {
                    tabled.push(node);
                } else {
                    return false;
                }
                true
            },
        );
        if let Some(ls) = support.layers.first_mut() {
            ls.stored = hits;
        }

        // Trap NaN/Inf attribute rows at the engine boundary (before any
        // kernel consumes them) so a poisoned row degrades into a typed,
        // retryable error. The rows are scanned where they live; without
        // `strict-invariants` nothing is read.
        let mut failed = torn.map(|(level, got)| ServingError::StoreWidthMismatch {
            level,
            expected: widths.get(level - 1).copied().unwrap_or(0),
            got,
        });
        if failed.is_none() && gcnp_tensor::check::enabled() {
            failed = support.input_nodes.iter().find_map(|&v| {
                gcnp_tensor::check::assert_finite(
                    "engine.features.finite",
                    "level-0 feature rows",
                    self.features.row(v),
                )
                .err()
                .map(ServingError::from)
            });
        }
        if let Some(err) = failed {
            for buf in staging {
                front.pool.recycle_vec(buf);
            }
            return Err(err);
        }
        let mut mem_bytes: usize = self.packed.weight_bytes(self.model);
        // Layer 1's memory term is the table rows its branches read: the
        // computed nodes' for `k = 0` (execute adds what a fill reads), the
        // supporting nodes' for `k = 1`.
        if let (Some(layer), Some(ls)) = (self.model.layers.first(), support.layers.first()) {
            for branch in &layer.branches {
                let rows = match branch.k {
                    0 => ls.compute.len(),
                    _ => support.input_nodes.len(),
                };
                mem_bytes += rows * branch.out_dim() * 4;
            }
        }
        lap(&mut clock, Stage::Expand); // the store reads included

        // The staged rows, as one matrix per level that has any.
        let mut store_hits = 0usize;
        let mut staged: Vec<Option<Matrix>> = Vec::with_capacity(n_layers);
        for ((ls, buf), (&width, hint)) in support
            .layers
            .iter()
            .zip(staging)
            .zip(widths.iter().zip(front.staged_rows.iter_mut()))
        {
            *hint = ls.stored.len();
            if ls.stored.is_empty() {
                front.pool.recycle_vec(buf);
                staged.push(None);
                continue;
            }
            store_hits += ls.stored.len();
            mem_bytes += ls.stored.len() * width * 4;
            // Router accounting: the rows of this level owned by other
            // shards traveled as one batched fetch per remote owner.
            store.note_remote(&ls.stored, width);
            staged.push(Some(Matrix::from_vec(ls.stored.len(), width, buf)));
        }
        lap(&mut clock, Stage::StoreProbe);

        // Last, with no error return left: layer 1's neighbour branches,
        // each the mean of its projection table's rows, in chunks until the
        // hand-off.
        let mut aggregated: Vec<Option<Matrix>> = Vec::new();
        let mut means_done = 0;
        if let (Some(layer), Some(ls)) = (self.model.layers.first(), support.layers.first()) {
            let n = ls.compute.len();
            aggregated.extend(layer.branches.iter().map(|branch| {
                (branch.k == 1).then(|| front.pool.take_matrix(n, branch.out_dim()))
            }));
            while means_done < n {
                let end = match hand_off {
                    HandOff::Never => n,
                    // audit: allow(atomic-ordering) — the idle hint orders nothing: it only picks the hand-off row, and every row gives the same bits
                    HandOff::WhenIdle(idle) if idle.load(Ordering::Relaxed) => break,
                    HandOff::WhenIdle(_) => (means_done + MEAN_CHUNK_ROWS).min(n),
                    #[cfg(test)]
                    HandOff::AtRow(row) if row <= means_done => break,
                    #[cfg(test)]
                    HandOff::AtRow(row) => row.min(n),
                };
                self.layer_one_means(ls, &mut aggregated, means_done..end);
                means_done = end;
            }
            lap(&mut clock, Stage::Spmm);
        }

        Ok(PreparedBatch {
            support,
            staged,
            aggregated,
            means_done,
            tabled,
            bypass_store,
            fault,
            mem_bytes,
            store_hits,
            t0,
            clock,
            front_seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// Rows `rows` of layer 1's neighbour means, into each `k = 1` branch's
    /// buffer in `aggregated` (a slot already taken is skipped): the one
    /// per-row body both stages run, whichever builds a row.
    fn layer_one_means(
        &self,
        ls: &LayerSupport,
        aggregated: &mut [Option<Matrix>],
        rows: Range<usize>,
    ) {
        for (table, slot) in self.projections.iter().zip(aggregated) {
            if let (Some(mat), Some(out)) = (table, slot) {
                mean_rows(mat, ls, out, rows.clone());
            }
        }
    }

    /// Fill the rows of `nodes` no earlier batch filled in each of layer 1's
    /// `k = 0` tables, allocating a table on first touch: one f32 GEMM per
    /// branch over just those nodes' attribute rows, read in place — the pack
    /// and kernel a per-batch transform runs, so each row is bitwise the one
    /// it would write — copied into the table and only then marked. `cost`
    /// gains the fill's MACs and what it reads (attribute rows and the
    /// branch's weights): nothing for a warm batch.
    // audit: allow(no-fail-stop) — node ids come from BatchSupport over this graph and index tables of n_nodes rows
    fn fill_self_tables(
        &self,
        nodes: [&[usize]; 2],
        self_tables: &mut [SelfTable],
        pool: &mut ScratchPool,
        cost: &mut Cost,
    ) {
        let Some(layer) = self.model.layers.first() else {
            return;
        };
        let n_nodes = self.adj.n_rows();
        for ((bi, branch), table) in layer.branches.iter().enumerate().zip(self_tables) {
            if branch.k != 0 {
                continue;
            }
            let width = branch.out_dim();
            if table.filled.len() != n_nodes {
                table.rows = vec![0.0; n_nodes * width];
                table.filled = vec![false; n_nodes];
            }
            let SelfTable {
                rows,
                filled,
                misses,
            } = table;
            misses.clear();
            misses.extend(
                nodes
                    .iter()
                    .flat_map(|g| g.iter())
                    .copied()
                    .filter(|&v| !filled[v]),
            );
            if misses.is_empty() {
                continue;
            }
            let mut fresh = pool.take_matrix(misses.len(), width);
            let pack = self.packed.layer_one_f32(bi);
            self.features
                .matmul_packed_rows_into(Some(misses), pack, &mut fresh, 0);
            if let Some(m) = &self.metrics {
                m.dispatch_dense.inc();
            }
            for (i, &v) in misses.iter().enumerate() {
                rows[v * width..(v + 1) * width].copy_from_slice(fresh.row(i));
                filled[v] = true;
            }
            pool.recycle(fresh);
            let n = misses.len();
            cost.macs += (n * branch.in_dim() * width) as u64;
            cost.mem_bytes += (n * branch.in_dim() + branch.weight.len()) * 4;
        }
    }

    /// The tabled nodes no earlier batch filled in level 1's table, as the
    /// support layer 1 computes them over:
    /// each node's whole adjacency row, the list expansion gives a node it
    /// does not sample. `None` when every row is filled. Under
    /// `strict-invariants` the attribute rows the fill reads — the nodes and
    /// their neighbours, which `prepare` did not scan — are scanned here,
    /// before any kernel consumes them or any row is written.
    // audit: allow(no-fail-stop) — tabled nodes come from BatchSupport over this graph; the marks hold n_nodes entries
    fn level_one_misses(
        &self,
        tabled: &[usize],
        filled: &[bool],
    ) -> ServingResult<Option<LayerSupport>> {
        let Some(layer) = self.model.layers.first().filter(|_| !tabled.is_empty()) else {
            return Ok(None);
        };
        let compute: Vec<usize> = tabled.iter().copied().filter(|&v| !filled[v]).collect();
        if compute.is_empty() {
            return Ok(None);
        }
        let mut neigh_indptr = Vec::with_capacity(compute.len() + 1);
        let mut neigh_ids = Vec::new();
        neigh_indptr.push(0);
        for &v in &compute {
            if layer.uses_graph() {
                neigh_ids.extend(self.adj.row_indices(v).iter().map(|&u| u as usize));
            }
            neigh_indptr.push(neigh_ids.len());
        }
        if gcnp_tensor::check::enabled() {
            for &v in compute.iter().chain(&neigh_ids) {
                gcnp_tensor::check::assert_finite(
                    "engine.features.finite",
                    "level-0 feature rows",
                    self.features.row(v),
                )?;
            }
        }
        Ok(Some(LayerSupport {
            layer: 1,
            compute,
            neigh_indptr,
            neigh_ids,
            stored: Vec::new(),
        }))
    }

    /// Compute the rows of `fill` ([`EngineCore::level_one_misses`]) into
    /// their slots of level 1's table with layer 1's own body
    /// ([`EngineCore::layer_output`]), so each is bitwise the row computing
    /// the node would give; mark each only after it is written, and return
    /// how many were filled. `cost` gains the fill's MACs and bytes; a
    /// projection row counts once per batch, so beside the batch's
    /// `input_nodes` (whose rows prepare counted) only the new ones count.
    #[allow(clippy::too_many_arguments)]
    // audit: allow(no-fail-stop) — fill nodes, their neighbours and the input nodes are node ids of this graph; the table and marks hold n_nodes rows
    fn fill_level_one(
        &self,
        fill: LayerSupport,
        input_nodes: &[usize],
        (level, filled, seen): (&mut Matrix, &mut [bool], &mut [bool]),
        self_tables: &[SelfTable],
        pool: &mut ScratchPool,
        clock: &mut Option<StageClock>,
        cost: &mut Cost,
    ) -> ServingResult<usize> {
        let Some(layer) = self.model.layers.first() else {
            return Ok(0);
        };
        // The table rows it reads: its own `k = 0` rows, and the `k = 1`
        // rows of the nodes among them and their neighbours that the batch's
        // computed rows do not read.
        let reads = || fill.compute.iter().chain(&fill.neigh_ids);
        for &v in input_nodes {
            seen[v] = true;
        }
        let mut new_rows = 0;
        for &v in reads() {
            new_rows += usize::from(!seen[v]);
            seen[v] = true;
        }
        for &v in input_nodes.iter().chain(reads()) {
            seen[v] = false;
        }
        for branch in &layer.branches {
            let rows = if branch.k == 0 {
                fill.compute.len()
            } else {
                new_rows
            };
            cost.mem_bytes += rows * branch.out_dim() * 4;
        }
        let n = fill.compute.len();
        let mut aggregated: Vec<Option<Matrix>> = layer
            .branches
            .iter()
            .map(|b| (b.k == 1).then(|| pool.take_matrix(n, b.out_dim())))
            .collect();
        self.layer_one_means(&fill, &mut aggregated, 0..n);
        lap(clock, Stage::Spmm);
        let out = self.layer_output(1, &fill, None, &aggregated, self_tables, pool, clock, cost)?;
        for (i, &v) in fill.compute.iter().enumerate() {
            level.row_mut(v).copy_from_slice(out.row(i));
            filled[v] = true;
        }
        pool.recycle(out);
        for m in aggregated.into_iter().flatten() {
            pool.recycle(m);
        }
        if let Some(m) = &self.metrics {
            m.l1_table_fill.add(n as u64);
        }
        Ok(n)
    }

    /// Back-end stage: transform, write each hidden level into its table,
    /// and write back, for a prepared batch; the output layer's rows are
    /// the target logits. Layer 1's neighbour-branch means arrive built, its
    /// `k = 0` branch reads its table, and its tabled rows lie in level 1's
    /// table (each table filling the rows no earlier batch did); hidden
    /// levels aggregate here.
    ///
    /// Buffers that originated in the front pool (the staged store reads,
    /// layer 1's neighbour-branch means) are pushed onto `spent` instead of
    /// this stage's pool — on error returns too — so the caller can
    /// circulate them back to the front stage.
    pub(crate) fn execute(
        &self,
        mut prep: PreparedBatch,
        back: &mut BackScratch,
        spent: &mut Vec<Matrix>,
    ) -> ServingResult<BatchResult> {
        let res = self.execute_levels(&mut prep, back, spent);
        // Whatever an early error return left in the batch.
        spent.extend(prep.buffers());
        res
    }

    fn execute_levels(
        &self,
        prep: &mut PreparedBatch,
        back: &mut BackScratch,
        spent: &mut Vec<Matrix>,
    ) -> ServingResult<BatchResult> {
        let (bypass_store, fault, store_hits, t0) =
            (prep.bypass_store, prep.fault, prep.store_hits, prep.t0);
        let PreparedBatch {
            support,
            staged,
            aggregated,
            means_done,
            tabled: level_one_nodes,
            clock,
            ..
        } = prep;
        let mut cost = Cost {
            macs: 0,
            mem_bytes: prep.mem_bytes,
        };
        let store = if bypass_store {
            StoreView::None
        } else {
            self.store
        };
        if let Some(c) = clock.as_mut() {
            c.resume(); // the inter-stage queue wait is not a stage
        }
        let BackScratch {
            pool,
            self_tables,
            levels,
            filled,
            marks,
        } = back;
        let n_layers = self.model.layers.len();
        // Layer 1's neighbour means: the rows prepare handed off.
        if let Some(ls) = support.layers.first() {
            if *means_done < ls.compute.len() {
                let rows = *means_done..ls.compute.len();
                self.layer_one_means(ls, aggregated, rows);
                lap(clock, Stage::Spmm);
            }
        }
        let mut logits = None;
        for li in 1..=n_layers {
            // audit: allow(no-fail-stop) — li ranges over 1..=n_layers and support has one entry per layer
            let ls = &support.layers[li - 1];
            // Level 1's tabled nodes, and the ones among them no earlier
            // batch filled: layer 1 computes those after the batch's own
            // rows, with one `k = 0` table fill for both.
            let tabled: &[usize] = if li == 1 { level_one_nodes } else { &[] };
            let fill = self.level_one_misses(tabled, filled)?;
            if li == 1 {
                let fill_nodes = fill.as_ref().map_or(&[][..], |f| &f.compute[..]);
                self.fill_self_tables([&ls.compute, fill_nodes], self_tables, pool, &mut cost);
                lap(clock, Stage::Gemm);
            }
            // Level `li - 1` where it lies; level 0 (`None`) is read
            // through layer 1's tables.
            let below = li.checked_sub(2).and_then(|l| levels.get(l));
            let out = self.layer_output(
                li,
                ls,
                below,
                aggregated,
                self_tables,
                pool,
                clock,
                &mut cost,
            )?;
            // The output layer computes exactly the deduplicated targets,
            // in order: its rows are the logits.
            let Some(level) = levels.get_mut(li - 1) else {
                debug_assert_eq!(ls.compute, support.targets);
                logits = Some(out);
                lap(clock, Stage::Relabel);
                break;
            };
            let filled_now = match fill {
                Some(fill) => {
                    let input = &support.input_nodes;
                    let table = (&mut *level, &mut filled[..], &mut marks[..]);
                    self.fill_level_one(fill, input, table, self_tables, pool, clock, &mut cost)?
                }
                None => 0,
            };

            // --- write the level's rows into their nodes' slots ------------
            // Computed rows, then staged store rows; a tabled row already
            // lies in its slot. At level 1 a slot is unmarked before another
            // row lands in it, so a filled row is only ever read as written.
            for (i, &v) in ls.compute.iter().enumerate() {
                if li == 1 {
                    filled[v] = false; // audit: allow(no-fail-stop) — computed nodes come from BatchSupport over this graph
                }
                level.row_mut(v).copy_from_slice(out.row(i));
            }
            pool.recycle(out);
            if !ls.stored.is_empty() {
                // The store rows were already read (and width-checked) in
                // prepare; they arrive in the staged buffer.
                let rows = staged
                    .get_mut(li - 1)
                    .and_then(Option::take)
                    .ok_or_else(|| ServingError::InvariantViolation {
                        check: "engine.staged.level",
                        detail: format!("level {li} has stored rows but no staged buffer"),
                    })?;
                gcnp_tensor::shape_contract!(
                    "engine.staged.width",
                    rows.cols() == level.cols(),
                    "staged level-{li} rows are {} wide but the level table is {}",
                    rows.cols(),
                    level.cols()
                );
                for (j, &v) in ls.stored.iter().enumerate() {
                    if li == 1 {
                        filled[v] = false; // audit: allow(no-fail-stop) — stored nodes come from BatchSupport over this graph
                    }
                    level.row_mut(v).copy_from_slice(rows.row(j));
                }
                spent.push(rows);
            }
            if !tabled.is_empty() {
                // A row filled this batch was counted by its fill; a warm
                // row is read in place.
                let warm = tabled.len() - filled_now;
                cost.mem_bytes += warm * level.cols() * 4;
                if let Some(m) = &self.metrics {
                    m.l1_table_hit.add(warm as u64);
                }
            }
            lap(clock, Stage::Relabel);

            // --- write-back policy (middle levels only) -------------------
            // Every row but a store hit's: the computed and the tabled.
            let written = || ls.compute.iter().chain(tabled);
            match self.policy {
                StorePolicy::None => {}
                StorePolicy::Roots => {
                    // Only the targets this level holds: a target stored at
                    // a level above may be absent here, its slot stale.
                    for &v in written() {
                        marks[v] = true; // audit: allow(no-fail-stop) — computed and tabled nodes come from BatchSupport over this graph
                    }
                    let targets = support.targets.iter().copied();
                    let roots: Vec<usize> = targets.filter(|&v| marks[v]).collect(); // audit: allow(no-fail-stop) — targets were range-checked in prepare
                    for &v in written() {
                        marks[v] = false; // audit: allow(no-fail-stop) — as above
                    }
                    for v in roots {
                        store.put(li, v, level.row(v))?;
                    }
                }
                StorePolicy::AllVisited => {
                    for &v in written() {
                        store.put(li, v, level.row(v))?;
                    }
                }
            }
            lap(clock, Stage::WriteBack);
        }
        let logits = logits.unwrap_or_else(|| Matrix::zeros(support.targets.len(), 0));
        if let (Some(c), Some(m)) = (clock.as_ref(), &self.metrics) {
            c.record(m);
            m.batches.inc();
            m.batch_size.observe(support.targets.len() as f64);
        }

        let mut seconds = t0.elapsed().as_secs_f64();
        if let Fault::Straggle { multiplier } = fault {
            // Stall for (multiplier - 1)x the batch's own serving time,
            // capped at 1 s so a chaos schedule cannot hang a test job.
            let stall = (seconds * (multiplier - 1.0)).min(1.0);
            if stall > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(stall));
            }
            seconds = t0.elapsed().as_secs_f64();
        }
        if let Some(m) = &self.metrics {
            // End-to-end batch time, including injected straggle — so a
            // chaos run's batch distribution shows the stall the stage
            // timings (busy time only) do not.
            m.batch_seconds.observe(seconds);
            m.scratch_resident.set(pool.retained_bytes() as f64);
        }

        Ok(BatchResult {
            logits,
            targets: support.targets.clone(),
            seconds,
            macs: cost.macs,
            mem_bytes: cost.mem_bytes,
            n_supporting: support.n_input_nodes(),
            store_hits,
        })
    }

    /// Layer `li`'s output rows for `ls.compute`: each branch's product into
    /// its column window of one matrix (under `Mean` the first product lands
    /// at column 0 and the later ones are added in branch order), then the
    /// combine's scale, the bias and the activation — the one per-row body
    /// every computed row runs, a level-1 table fill's included. A hidden
    /// layer's matrix is pooled; the output layer's is fresh, because it
    /// leaves with the batch as the logits. `below` is the node-indexed
    /// table of the level below; `None` is level 0, which layer 1 reads
    /// through its tables: the `k = 0` table, and for each `k = 1` branch the
    /// mean in `aggregated`.
    #[allow(clippy::too_many_arguments)]
    fn layer_output(
        &self,
        li: usize,
        ls: &LayerSupport,
        below: Option<&Matrix>,
        aggregated: &[Option<Matrix>],
        self_tables: &[SelfTable],
        pool: &mut ScratchPool,
        clock: &mut Option<StageClock>,
        cost: &mut Cost,
    ) -> ServingResult<Matrix> {
        let layer = &self.model.layers[li - 1]; // audit: allow(no-fail-stop) — callers pass 1 ≤ li ≤ n_layers
        if layer.branches.is_empty() && layer.combine == CombineMode::Mean {
            return Err(ServingError::InvariantViolation {
                check: "engine.combine.branches",
                detail: format!("layer {li} has no branches to combine"),
            });
        }
        let (n, width) = (ls.compute.len(), layer.out_dim());
        let mut out = if li == self.model.layers.len() {
            Matrix::zeros(n, width)
        } else {
            pool.take_matrix(n, width)
        };
        let mut col0 = 0;
        for (bi, branch) in layer.branches.iter().enumerate() {
            let add = bi > 0 && layer.combine == CombineMode::Mean;
            match (below, branch.k) {
                (None, 0) => {
                    // Layer 1's self branch copies its table's rows, filled
                    // for these nodes ([`EngineCore::fill_self_tables`]).
                    let table =
                        self_tables
                            .get(bi)
                            .ok_or_else(|| ServingError::InvariantViolation {
                                check: "engine.self_table.branch",
                                detail: format!("layer 1 branch {bi} has no table slot"),
                            })?;
                    read_self_rows(table, &ls.compute, branch.out_dim(), (&mut out, col0, add));
                }
                (None, _) => {
                    // Layer 1's neighbour branch arrives as its product: the
                    // mean of its projection table's rows. Adds only: one
                    // per edge per table column.
                    let mean = aggregated.get(bi).and_then(Option::as_ref).ok_or_else(|| {
                        ServingError::InvariantViolation {
                            check: "engine.aggregated.branch",
                            detail: format!(
                                "layer 1 branch {bi} aggregates but no product was built"
                            ),
                        }
                    })?;
                    cost.macs += (ls.neigh_ids.len() * branch.out_dim()) as u64;
                    if add {
                        out.add_assign(mean);
                    } else {
                        store_window(&mut out, col0, mean);
                    }
                }
                (Some(src), k) => {
                    // A `k = 0` branch builds no operand: its GEMM reads the
                    // computed nodes' rows where they lie.
                    let built = (k == 1).then(|| aggregate_mean(src, ls, pool));
                    // Aggregation adds: one MAC-equivalent per edge per channel.
                    if k == 1 {
                        cost.macs += (ls.neigh_ids.len() * branch.in_dim()) as u64;
                    }
                    cost.macs += (ls.compute.len() * branch.in_dim() * branch.out_dim()) as u64;
                    lap(clock, Stage::Spmm);
                    // Pre-packed weights (no per-call operand pack).
                    let operand = match &built {
                        Some(m) => (m, None),
                        None => (src, Some(ls.compute.as_slice())),
                    };
                    if add {
                        let mut prod = pool.take_matrix(ls.compute.len(), branch.out_dim());
                        self.transform(li, bi, operand, &mut prod, 0, pool);
                        out.add_assign(&prod);
                        pool.recycle(prod);
                    } else {
                        self.transform(li, bi, operand, &mut out, col0, pool);
                    }
                    if let Some(m) = built {
                        pool.recycle(m);
                    }
                }
            }
            if !add {
                col0 += branch.out_dim();
            }
            lap(clock, Stage::Gemm);
        }
        if layer.combine == CombineMode::Mean {
            out.scale_assign(1.0 / layer.branches.len() as f32);
        }
        out.bias_relu_assign(
            layer.bias.as_ref().map(|b| b.row(0)),
            layer.activation == gcnp_models::Activation::Relu,
        );
        cost.mem_bytes += out.nbytes();
        lap(clock, Stage::Gemm); // combine + bias + activation
        Ok(out)
    }

    /// `out[..][col0 .. col0 + out_dim] = operand · W` for branch `bi` of layer
    /// `li` (1-based), on the one kernel of the engine's precision. The
    /// operand is `mat`, or the rows `ids` of it (node ids of a level table)
    /// read in place, which the f32 GEMM multiplies as they lie and stores
    /// straight into the window.
    fn transform(
        &self,
        li: usize,
        bi: usize,
        (mat, ids): (&Matrix, Option<&[usize]>),
        out: &mut Matrix,
        col0: usize,
        pool: &mut ScratchPool,
    ) {
        match &self.packed {
            WeightPacks::F32(pm) => {
                // audit: allow(no-fail-stop) — packs are built 1:1 with model branches at construction
                mat.matmul_packed_rows_into(ids, &pm.branch_packs(li - 1)[bi], out, col0);
                if let Some(m) = &self.metrics {
                    m.dispatch_dense.inc();
                }
            }
            WeightPacks::Int8(qm, _) => {
                // The int8 kernel quantizes its operand as one tensor and
                // fills a whole matrix: gather a row-indexed operand first,
                // take the product in a pooled buffer, copy it into the
                // window.
                // audit: allow(no-fail-stop) — packs are built 1:1 with model branches at construction
                let pack = &qm.branch_packs(li - 1)[bi];
                let built = ids.map(|ids| gather_selected(mat, ids, pool));
                let x = built.as_ref().unwrap_or(mat);
                let mut prod = pool.take_matrix(x.rows(), pack.n());
                qgemm_packed_into(x, pack, &mut prod);
                if let Some(m) = &self.metrics {
                    m.dispatch_int8.inc();
                }
                store_window(out, col0, &prod);
                pool.recycle(prod);
                if let Some(b) = built {
                    pool.recycle(b);
                }
            }
        }
    }
}

/// What a batch has run so far: its [`BatchResult::macs`] and
/// [`BatchResult::mem_bytes`].
struct Cost {
    macs: u64,
    mem_bytes: usize,
}

/// Layer 1's `k = 0` rows of the `compute` nodes, `width` wide, from their
/// filled `table` into `out`'s window at `col0`, or added to it under `add`
/// (under `Mean` every branch product spans the whole row).
// audit: allow(no-fail-stop) — node ids come from BatchSupport over this graph, their rows were filled for this batch, and `out` has one row per computed node and holds the branch's window
fn read_self_rows(
    table: &SelfTable,
    compute: &[usize],
    width: usize,
    (out, col0, add): (&mut Matrix, usize, bool),
) {
    let col0 = if add { 0 } else { col0 };
    for (i, &v) in compute.iter().enumerate() {
        debug_assert!(table.filled[v], "node {v}'s k = 0 row is not filled");
        let src = &table.rows[v * width..(v + 1) * width];
        let dst = &mut out.row_mut(i)[col0..col0 + width];
        if add {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        } else {
            dst.copy_from_slice(src);
        }
    }
}

/// `out[i][col0 .. col0 + part.cols()] = part[i]` for every row of `part`.
fn store_window(out: &mut Matrix, col0: usize, part: &Matrix) {
    for i in 0..part.rows() {
        // audit: allow(no-fail-stop) — `out` is `layer.out_dim()` wide (or this branch's own product), which holds every branch's window
        out.row_mut(i)[col0..col0 + part.cols()].copy_from_slice(part.row(i));
    }
}

/// A layer-1 neighbour branch's projection table: `src · W` over every row
/// of the attributes `src`, on the branch's f32 `pack`, so each row is the
/// one a per-batch
/// [`Matrix::matmul_packed_rows_into`] would produce for that node. A
/// non-finite attribute row gives a non-finite table row, never a panic:
/// under `strict-invariants`, where the GEMM nets its output, such a row is
/// projected as zeros and then filled with NaN, and `prepare`'s raw-row scan
/// rejects every batch that would read it.
fn projection_table(src: &Matrix, pack: &PackedB) -> Matrix {
    let mut table = Matrix::zeros(src.rows(), pack.n());
    let non_finite: Vec<usize> = if gcnp_tensor::check::enabled() {
        (0..src.rows())
            .filter(|&v| gcnp_tensor::check::first_non_finite(src.row(v)).is_some())
            .collect()
    } else {
        Vec::new()
    };
    if non_finite.is_empty() {
        src.matmul_packed_into(pack, &mut table);
        return table;
    }
    let mut finite = src.clone();
    for &v in &non_finite {
        finite.row_mut(v).fill(0.0);
    }
    finite.matmul_packed_into(pack, &mut table);
    for &v in &non_finite {
        table.row_mut(v).fill(f32::NAN);
    }
    table
}

/// Gather the rows of `nodes` from the node-indexed table `src`: the int8
/// kernel's operand, so it stays as long as [`Precision::Int8`] does.
fn gather_selected(src: &Matrix, nodes: &[usize], pool: &mut ScratchPool) -> Matrix {
    let mut out = pool.take_matrix(nodes.len(), src.cols());
    for (i, &v) in nodes.iter().enumerate() {
        out.row_mut(i).copy_from_slice(src.row(v));
    }
    out
}

/// Mean-aggregate the (capped) neighbor rows of the node-indexed table
/// `src` for each computed node into a pooled buffer (see [`mean_rows`]).
fn aggregate_mean(src: &Matrix, ls: &LayerSupport, pool: &mut ScratchPool) -> Matrix {
    let n = ls.compute.len();
    let mut out = pool.take_matrix(n, src.cols());
    mean_rows(src, ls, &mut out, 0..n);
    out
}

/// Rows `rows` of the mean over the (capped) neighbor rows of the
/// node-indexed table `src`, into the zeroed rows of `out`: one [`row_sum`]
/// per computed node with `scale = 1 / deg`, reading each row in place. Nodes without neighbors get zeros (matching row-normalized
/// SpMM on isolated nodes). Parallel across computed nodes; each output row
/// accumulates its neighbors in support order regardless of thread count or
/// of the range it was built in, so results are bitwise identical across
/// `GCNP_THREADS` settings and hand-off rows.
fn mean_rows(src: &Matrix, ls: &LayerSupport, out: &mut Matrix, rows: Range<usize>) {
    let width = src.cols();
    // audit: allow(no-fail-stop) — `out` holds one row per computed node and `rows` lies within them
    let part = &mut out.as_mut_slice()[rows.start * width..rows.end * width];
    parallel_row_chunks(part, rows.len(), width, |start, chunk| {
        for (r, dst) in chunk.chunks_mut(width).enumerate() {
            let nbrs = ls.neighbors(rows.start + start + r);
            let inv = 1.0 / nbrs.len().max(1) as f32;
            row_sum(dst, src, nbrs, None, inv);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnp_models::zoo;
    use gcnp_sparse::Normalization;
    use gcnp_tensor::init::seeded_rng;

    fn ring(n: usize) -> CsrMatrix {
        let mut e = Vec::new();
        for i in 0..n as u32 {
            let j = (i + 1) % n as u32;
            e.push((i, j));
            e.push((j, i));
        }
        CsrMatrix::adjacency(n, &e)
    }

    fn setup() -> (CsrMatrix, Matrix, GnnModel) {
        let adj = ring(30);
        let x = Matrix::rand_uniform(30, 6, -1.0, 1.0, &mut seeded_rng(3));
        let model = zoo::graphsage(6, 8, 4, 7);
        (adj, x, model)
    }

    /// A 128-node ring whose attribute rows are ≥ 98 % zeros (two non-dyadic
    /// non-zeros of 96, so an fma chain and a multiply-then-add can round
    /// apart) under a 96 → 16 → 4 GraphSAGE.
    fn sparse_setup() -> (CsrMatrix, Matrix, GnnModel) {
        let (n, d) = (128, 96);
        let mut x = Matrix::zeros(n, d);
        for v in 0..n {
            x.set(v, v % d, 0.3);
            x.set(v, (v * 7 + 3) % d, 0.7);
        }
        (ring(n), x, zoo::graphsage(d, 16, 4, 11))
    }

    /// `model` with its two GraphSAGE layers combining by mean instead of
    /// concatenation — half the width, so the layer after each keeps the
    /// first half of its weight rows.
    fn mean_combine(model: &GnnModel) -> GnnModel {
        let mut mean = model.clone();
        for li in 0..2 {
            let half: Vec<usize> = (0..mean.layers[li].branches[0].out_dim()).collect();
            let layer = &mut mean.layers[li];
            layer.combine = CombineMode::Mean;
            layer.bias = layer.bias.as_ref().map(|b| b.select_cols(&half));
            for b in &mut mean.layers[li + 1].branches {
                b.weight = b.weight.select_rows(&half);
            }
        }
        mean
    }

    /// `model` pruned by the batched scheme at η = 1/2 (a few epochs).
    fn scheme_pruned(model: &GnnModel, adj: &CsrMatrix, x: &Matrix) -> GnnModel {
        let cfg = gcnp_core::PrunerConfig {
            beta_epochs: 3,
            w_epochs: 3,
            ..Default::default()
        };
        let norm = adj.normalized(Normalization::Row);
        let scheme = gcnp_core::Scheme::BatchedInference;
        gcnp_core::prune_model(model, &norm, x, 0.5, scheme, &cfg).0
    }

    #[test]
    fn batched_equals_full_inference_without_caps() {
        // With no fan-out caps and no store, batched inference must produce
        // exactly the full-inference embeddings for the targets — for the
        // unpruned model, for one pruned by the batched scheme, for one
        // whose layer 1 is wider out than in, under Mean, and for a
        // 64-target batch over nearly-empty attribute rows.
        let (adj, x, model) = setup();
        let pruned = scheme_pruned(&model, &adj, &x);
        assert_eq!(
            (
                pruned.layers[0].branches[1].in_dim(),
                pruned.layers[1].branches[1].in_dim()
            ),
            (6, 4),
            "the batched scheme prunes layer 2's input and leaves the attributes whole"
        );
        let widening = zoo::graphsage(6, 16, 4, 8);
        let mean = mean_combine(&model);
        let (sparse_adj, sparse_x, sparse_model) = sparse_setup();
        let few = [4usize, 17, 25];
        let many: Vec<usize> = (0..64).collect();
        for (name, adj, x, model, targets) in [
            ("unpruned", &adj, &x, &model, &few[..]),
            ("batched-scheme pruned", &adj, &x, &pruned, &few[..]),
            ("wider out than in", &adj, &x, &widening, &few[..]),
            ("Mean combine", &adj, &x, &mean, &few[..]),
            (
                "sparse attributes",
                &sparse_adj,
                &sparse_x,
                &sparse_model,
                &many[..],
            ),
        ] {
            let norm = adj.normalized(Normalization::Row);
            let full = model.forward_full(Some(&norm), x);
            let mut engine = BatchedEngine::new(model, adj, x, vec![], None, StorePolicy::None, 0);
            let res = engine.infer(targets);
            for (i, &t) in targets.iter().enumerate() {
                for c in 0..4 {
                    assert!(
                        (res.logits.get(i, c) - full.get(t, c)).abs() < 1e-4,
                        "{name}: target {t} class {c}: {} vs {}",
                        res.logits.get(i, c),
                        full.get(t, c)
                    );
                }
            }
            assert_eq!(res.store_hits, 0, "{name}");
            assert!(res.macs > 0, "{name}");
        }
    }

    #[test]
    fn store_reuse_matches_recomputation_when_fresh() {
        let (adj, x, model) = setup();
        // Populate the store with exact full-inference hidden features.
        let norm = adj.normalized(Normalization::Row);
        let hs = model.forward_collect(Some(&norm), &x);
        let store = FeatureStore::new(30, 2);
        let all: Vec<usize> = (0..30).collect();
        store.put_rows(1, &all, &hs[0]).unwrap();
        store.put_rows(2, &all, &hs[1]).unwrap();
        let mut engine =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
        let res = engine.infer(&[10, 11]);
        let full = model.forward_full(Some(&norm), &x);
        for (i, &t) in [10usize, 11].iter().enumerate() {
            for c in 0..4 {
                assert!((res.logits.get(i, c) - full.get(t, c)).abs() < 1e-4);
            }
        }
        assert!(res.store_hits > 0, "store must be used");
        // With everything stored, only the targets' own rows are computed.
        assert_eq!(res.n_supporting, 0, "no raw attributes needed");
    }

    #[test]
    fn store_reduces_supporting_nodes() {
        // Every level-1 row computed: uncapped, the ring's rows would all be
        // tabled, and a tabled node is not expanded either.
        let (adj, x, model) = setup();
        let mut plain = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        plain.core.untabled = true;
        let baseline = plain.infer(&[0, 1, 2]);

        let norm = adj.normalized(Normalization::Row);
        let hs = model.forward_collect(Some(&norm), &x);
        let store = FeatureStore::new(30, 2);
        // Store h^(1) for half the nodes.
        let half: Vec<usize> = (0..15).collect();
        store.put_rows(1, &half, &hs[0].gather_rows(&half)).unwrap();
        let mut with_store =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
        with_store.core.untabled = true;
        let res = with_store.infer(&[0, 1, 2]);
        assert!(
            res.n_supporting < baseline.n_supporting,
            "{} vs {}",
            res.n_supporting,
            baseline.n_supporting
        );
        assert!(res.macs < baseline.macs);
    }

    #[test]
    fn roots_policy_populates_store() {
        let (adj, x, model) = setup();
        let store = FeatureStore::new(30, 2);
        let mut engine = BatchedEngine::new(
            &model,
            &adj,
            &x,
            vec![],
            Some(&store),
            StorePolicy::Roots,
            0,
        );
        engine.infer(&[5, 6]);
        assert!(
            store.has(1, 5) && store.has(1, 6),
            "roots stored at level 1"
        );
        assert!(store.has(2, 5), "roots stored at level 2");
        assert!(!store.has(1, 7), "non-roots not stored");
        // Second serve of the same nodes hits the store.
        let res = engine.infer(&[5, 6]);
        assert!(res.store_hits > 0);
    }

    #[test]
    fn fanout_caps_reduce_work() {
        // Dense graph so caps bite.
        let mut edges = Vec::new();
        for i in 0..40u32 {
            for j in 0..40u32 {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        let adj = CsrMatrix::adjacency(40, &edges);
        let x = Matrix::rand_uniform(40, 6, -1.0, 1.0, &mut seeded_rng(5));
        let model = zoo::graphsage(6, 8, 4, 9);
        let mut uncapped = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let mut capped = BatchedEngine::new(
            &model,
            &adj,
            &x,
            vec![None, Some(4)],
            None,
            StorePolicy::None,
            0,
        );
        let a = uncapped.infer(&[0]);
        let b = capped.infer(&[0]);
        assert!(b.macs < a.macs, "{} vs {}", b.macs, a.macs);
    }

    #[test]
    fn pruned_model_runs_batched() {
        // The full-inference scheme narrows every hidden interface.
        let (adj, x, model) = setup();
        let cfg = gcnp_core::PrunerConfig {
            beta_epochs: 3,
            w_epochs: 3,
            ..Default::default()
        };
        let norm = adj.normalized(Normalization::Row);
        let scheme = gcnp_core::Scheme::FullInference;
        let (pruned, _) = gcnp_core::prune_model(&model, &norm, &x, 0.5, scheme, &cfg);
        let mut engine = BatchedEngine::new(&pruned, &adj, &x, vec![], None, StorePolicy::None, 0);
        let res = engine.infer(&[3, 4]);
        assert_eq!(res.logits.shape(), (2, 4));
        assert!(res.logits.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Reference with a materialised level 0: copy every supporting node's
    /// attribute row into a per-batch level-0 table and reach it through a
    /// node → row index. Every operand is built (the `k = 0` gather
    /// included), every branch product is a whole matrix of its own —
    /// layer 1's `k = 0` product on the f32 pack in either precision, as
    /// its table is — and the combine is a separate pass —
    /// `concat_cols_into`, or copy-add-scale for `Mean`. Layer 1's
    /// neighbour branches project the row of every supporting node through
    /// the branch's f32 pack and then take the mean in neighbour-list order
    /// — or, with `aggregate_first`, take the mean of the attribute rows
    /// and then multiply, the order every hidden level runs in.
    /// Computes the logits of the engine's *next* batch without serving it
    /// (read-only store policies only).
    fn materialised_level_zero_logits(
        engine: &mut BatchedEngine<'_>,
        targets: &[usize],
        aggregate_first: bool,
    ) -> Matrix {
        let batch_seed = engine.core.seed ^ (engine.front.counter + 1);
        let (core, _, _) = engine.split();
        let f32_packs = PackedModel::new(core.model);
        let flags: Vec<bool> = core.model.layers.iter().map(|l| l.uses_graph()).collect();
        let mut stored = std::collections::HashMap::new();
        let support =
            BatchSupport::build(core.adj, targets, &flags, &core.caps, batch_seed, |l, v| {
                core.store
                    .probe(l, v, |row| drop(stored.insert((l, v), row.to_vec())))
            });
        let mut table = core.features.gather_rows(&support.input_nodes);
        let mut index: std::collections::HashMap<usize, usize> = support
            .input_nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        for (li, (layer, ls)) in core.model.layers.iter().zip(&support.layers).enumerate() {
            let mut parts = Vec::new();
            for (bi, branch) in layer.branches.iter().enumerate() {
                // A projected branch averages rows of `X · W` and needs no
                // product afterwards.
                let projected = (li == 0 && branch.k == 1 && !aggregate_first)
                    .then(|| table.matmul_packed(&f32_packs.branch_packs(0)[bi]));
                let rows = projected.as_ref().unwrap_or(&table);
                let mut gathered = Matrix::zeros(ls.compute.len(), rows.cols());
                for (r, &v) in ls.compute.iter().enumerate() {
                    let dst = gathered.row_mut(r);
                    if branch.k == 0 {
                        dst.copy_from_slice(rows.row(index[&v]));
                        continue;
                    }
                    let nbrs = ls.neighbors(r);
                    for &u in nbrs {
                        for (d, &s) in dst.iter_mut().zip(rows.row(index[&u])) {
                            *d += s;
                        }
                    }
                    if !nbrs.is_empty() {
                        let inv = 1.0 / nbrs.len() as f32;
                        for d in dst.iter_mut() {
                            *d *= inv;
                        }
                    }
                }
                if projected.is_some() {
                    parts.push(gathered);
                    continue;
                }
                let mut prod = Matrix::zeros(gathered.rows(), branch.out_dim());
                match &core.packed {
                    // Layer 1's `k = 0` table is f32 in every precision.
                    _ if li == 0 && branch.k == 0 => {
                        gathered.matmul_packed_into(&f32_packs.branch_packs(0)[bi], &mut prod)
                    }
                    WeightPacks::F32(pm) => {
                        gathered.matmul_packed_into(&pm.branch_packs(li)[bi], &mut prod)
                    }
                    WeightPacks::Int8(qm, _) => {
                        qgemm_packed_into(&gathered, &qm.branch_packs(li)[bi], &mut prod)
                    }
                }
                parts.push(prod);
            }
            let refs: Vec<&Matrix> = parts.iter().collect();
            let mut out = Matrix::zeros(ls.compute.len(), layer.out_dim());
            match layer.combine {
                CombineMode::Concat => Matrix::concat_cols_into(&refs, &mut out),
                CombineMode::Mean => {
                    out.as_mut_slice().copy_from_slice(parts[0].as_slice());
                    for p in &parts[1..] {
                        out.add_assign(p);
                    }
                    out.scale_assign(1.0 / parts.len() as f32);
                }
            }
            if let Some(b) = &layer.bias {
                out.add_row_vector_assign(b.row(0));
            }
            if matches!(layer.activation, gcnp_models::Activation::Relu) {
                out.relu_assign();
            }
            // Level table: computed rows first, then the stored rows.
            index.clear();
            let mut next = Matrix::zeros(ls.compute.len() + ls.stored.len(), out.cols());
            for (i, &v) in ls.compute.iter().enumerate() {
                next.row_mut(i).copy_from_slice(out.row(i));
                index.insert(v, i);
            }
            for (j, &v) in ls.stored.iter().enumerate() {
                let i = ls.compute.len() + j;
                next.row_mut(i).copy_from_slice(&stored[&(li + 1, v)]);
                index.insert(v, i);
            }
            table = next;
        }
        let rows: Vec<usize> = support.targets.iter().map(|v| index[v]).collect();
        table.gather_rows(&rows)
    }

    /// Ring with chords over nodes 0..59; node 59 has no neighbours.
    fn chords_and_an_isolated_node() -> CsrMatrix {
        let n = 60;
        let mut edges = Vec::new();
        for i in 0..(n - 1) as u32 {
            for hop in [1u32, 7] {
                let j = (i + hop) % (n - 1) as u32;
                edges.push((i, j));
                edges.push((j, i));
            }
        }
        CsrMatrix::adjacency(n, &edges)
    }

    /// `model` with random biases, which the combine order shows in.
    fn biased(mut model: GnnModel) -> GnnModel {
        for layer in &mut model.layers {
            let bias = layer.bias.as_mut().expect("zoo layers carry a bias");
            *bias = Matrix::rand_uniform(1, bias.cols(), -0.5, 0.5, &mut seeded_rng(22));
        }
        model
    }

    /// Two batches, the second on recycled scratch and level tables that
    /// still hold the first batch's rows; both serve the isolated node.
    const BATCHES: [&[usize]; 2] = [&[3, 59, 20, 41, 20], &[59, 8, 33, 9]];

    #[test]
    fn in_place_reads_are_bitwise_identical_to_a_materialised_level_zero() {
        let adj = chords_and_an_isolated_node();
        let x = Matrix::rand_uniform(adj.n_rows(), 6, -1.0, 1.0, &mut seeded_rng(21));
        let caps = vec![None, Some(2)];
        let base = biased(zoo::graphsage(6, 8, 4, 7));
        for model in [mean_combine(&base), base] {
            in_place_matches_materialised(&model, &adj, &x, caps.clone());
        }
    }

    #[test]
    fn project_first_stays_within_rounding_of_aggregate_first() {
        // Layer 1's neighbour branches compute `mean((X·W)_N)` where every
        // other branch computes `mean(X_N)·W`: the same sum in another float
        // order. Against that order — the reference's `aggregate_first` arm —
        // the logits may move by rounding only.
        let adj = chords_and_an_isolated_node();
        let n = adj.n_rows();
        let x = Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut seeded_rng(21));
        let wide_x = Matrix::rand_uniform(n, 150, -1.0, 1.0, &mut seeded_rng(23));
        let base = biased(zoo::graphsage(6, 8, 4, 7));
        let pruned = scheme_pruned(&base, &adj, &x);
        let wide = biased(zoo::graphsage(150, 64, 8, 24));
        // 6 → 2 × 8: layer 1's neighbour branch is wider out than in, and
        // reads its projection table all the same.
        let widening = biased(zoo::graphsage(6, 16, 4, 8));
        let mut worst = 0.0f32;
        for (name, model, x) in [
            ("unpruned", &base, &x),
            ("unpruned, 150 attributes", &wide, &wide_x),
            ("batched-scheme pruned", &pruned, &x),
            ("wider out than in", &widening, &x),
            ("Mean combine", &mean_combine(&base), &x),
        ] {
            let caps = vec![None, Some(2)];
            let mut engine = BatchedEngine::new(model, &adj, x, caps, None, StorePolicy::None, 5);
            for targets in BATCHES {
                let want = materialised_level_zero_logits(&mut engine, targets, true);
                let got = engine.infer(targets).logits;
                let diff = got.max_abs_diff(&want);
                assert!(diff <= 1e-4, "{name} {targets:?}: max |Δ| = {diff:e}");
                worst = worst.max(diff);
            }
        }
        println!("max |logit difference| against aggregate-first: {worst:e}");
    }

    fn in_place_matches_materialised(
        model: &GnnModel,
        adj: &CsrMatrix,
        x: &Matrix,
        caps: Vec<Option<usize>>,
    ) {
        let n = adj.n_rows();
        let combine = model.layers[0].combine;

        // Two stores holding the same rows, warmed by a root write-through
        // pass: a single store and a 2-shard view.
        let warm: Vec<usize> = (0..n).step_by(2).collect();
        let single = FeatureStore::new(n, 2);
        BatchedEngine::new(model, adj, x, vec![], Some(&single), StorePolicy::Roots, 1)
            .infer(&warm);
        let assign: Vec<u32> = (0..n as u32).map(|v| v % 2).collect();
        let sharded = ShardedStore::new(&assign, 2, 2);
        BatchedEngine::new_sharded(model, adj, x, vec![], &sharded, 0, StorePolicy::Roots, 1)
            .infer(&warm);

        let engines = vec![
            (
                "fan-out caps",
                false,
                BatchedEngine::new(model, adj, x, caps.clone(), None, StorePolicy::None, 5),
            ),
            (
                "warm read-only store",
                true,
                BatchedEngine::new(model, adj, x, vec![], Some(&single), StorePolicy::None, 5),
            ),
            (
                "sharded store view, caps",
                true,
                BatchedEngine::new_sharded(
                    model,
                    adj,
                    x,
                    caps.clone(),
                    &sharded,
                    1,
                    StorePolicy::None,
                    5,
                ),
            ),
            (
                "int8, caps, warm store",
                true,
                BatchedEngine::new_with_precision(
                    model,
                    adj,
                    x,
                    caps,
                    Some(&single),
                    StorePolicy::None,
                    5,
                    Precision::Int8,
                ),
            ),
        ];
        for (name, stored, mut engine) in engines {
            for targets in BATCHES {
                let want = materialised_level_zero_logits(&mut engine, targets, false);
                let got = engine.infer(targets);
                assert_eq!(
                    got.store_hits > 0,
                    stored,
                    "{combine:?} {name}: staged store rows"
                );
                assert_eq!(got.logits.shape(), want.shape(), "{combine:?} {name}");
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got.logits),
                    bits(&want),
                    "{combine:?} {name}: {targets:?}"
                );
                assert!(
                    got.logits.as_slice().iter().any(|&v| v != 0.0),
                    "{name}: the comparison must cover real compute"
                );
            }
        }
    }

    #[test]
    fn accounting_counts_what_layer_one_runs() {
        // Ring of 30, targets {3, 4, 20}, no caps, no store: level 1 needs
        // the 7 nodes within one hop, over the 11 within two; layer 2 and
        // the classifier compute the 3 targets. Every ring node has two
        // neighbours, so layer 1 samples nothing and all 7 are tabled. Each
        // model serves the batch cold, then once more warm, on an engine
        // that computes every level-1 row and on one that reads them from
        // layer 1's output table.
        let (adj, x, model) = setup();
        // SAGE 6 → 16 → 16 → 4: layer 1's branches are 8 wide, wider out
        // than in.
        let widening = zoo::graphsage(6, 16, 4, 7);
        let infer = |m: &GnnModel, untabled: bool| {
            let mut engine = BatchedEngine::new(m, &adj, &x, vec![], None, StorePolicy::None, 0);
            engine.core.untabled = untabled;
            (engine.infer(&[3, 4, 20]), engine.infer(&[3, 4, 20]))
        };
        // SAGE 6 → 8 → 8 → 4 (164 weights) has 4-wide layer-1 and layer-2
        // branches, the widening one (452 weights) 8-wide; `h` is the width
        // of levels 1 and 2.
        for (m, w, n_weights) in [(&model, 4, 164), (&widening, 8, 452)] {
            let h = 2 * w;
            assert_eq!(m.n_weights(), n_weights);
            // Layer 1: the k = 0 table's fill of the 7 rows (7 × 6 × w) and
            // one add per edge per table column (14 edges × w); no transform
            // of the k = 1 branch. Layer 2: k = 0 (3 × h × w), k = 1 (6 edges
            // × h + 3 × h × w). Classifier: 3 × h × 4.
            let fill = 7 * 6 * w;
            let layer_one = fill + 14 * w;
            let above = 3 * h * w + 6 * h + 3 * h * w + 3 * h * 4;
            // Weights every batch transforms with (all but layer 1's two
            // 6 × w branches); the fill's 6 × w weights and 7 attribute rows
            // × 6; the k = 0 branch's 7 table rows × w and the k = 1
            // branch's 11 × w; level 1's 7 rows; the two layer outputs above.
            let weights = n_weights - 2 * 6 * w;
            let fill_floats = 6 * w + 7 * 6;
            let layer_one_floats = fill_floats + 7 * w + 11 * w + 7 * h;
            let above_floats = 3 * h + 3 * 4;
            let ((cold, warm), (tabled_cold, tabled_warm)) = (infer(m, true), infer(m, false));
            // Cold, both engines run the same work: every tabled row is a
            // fill, which runs layer 1's own body. The tabled engine's
            // expansion reaches no level-0 node: it stops at level 1.
            for res in [&cold, &tabled_cold] {
                assert_eq!(res.macs, (layer_one + above) as u64);
                assert_eq!(
                    res.mem_bytes,
                    (weights + layer_one_floats + above_floats) * 4
                );
            }
            assert_eq!((cold.n_supporting, tabled_cold.n_supporting), (11, 0));
            // A warm repeat that computes every row fills nothing: no k = 0
            // transform, no attributes.
            assert_eq!(warm.macs, (layer_one - fill + above) as u64);
            assert_eq!(
                warm.mem_bytes,
                (weights + layer_one_floats - fill_floats + above_floats) * 4
            );
            // One that reads the table runs nothing on layer 1: it copies
            // the 7 rows (7 × h floats) and reads no level-0 row.
            assert_eq!(tabled_warm.n_supporting, 0);
            assert_eq!(tabled_warm.macs, above as u64);
            assert_eq!(tabled_warm.mem_bytes, (weights + 7 * h + above_floats) * 4);
        }
    }

    #[test]
    fn projection_table_takes_non_finite_features_without_panicking() {
        // Constructing an engine projects every attribute row: a NaN
        // attribute must not panic there, whatever the widths. It is trapped per
        // batch under `strict-invariants` and served as-is otherwise.
        let (adj, mut x, model) = setup();
        x.set(5, 2, f32::NAN); // two hops from target 3: read only through a table
        let widening = zoo::graphsage(6, 16, 4, 8);
        for model in [&model, &widening] {
            let mut engine =
                BatchedEngine::new(model, &adj, &x, vec![], None, StorePolicy::None, 0);
            match engine.try_infer(&[3]) {
                Err(ServingError::InvariantViolation { check, .. }) => {
                    assert!(gcnp_tensor::check::enabled());
                    assert_eq!(check, "engine.features.finite");
                }
                Ok(_) => assert!(!gcnp_tensor::check::enabled()),
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_logits() {
        // Acceptance: batched inference must be numerically identical (well
        // under 1e-5) between GCNP_THREADS=1 and 8 — chunk boundaries only
        // partition rows, they never reorder per-row accumulation.
        fn star(n: usize) -> CsrMatrix {
            let mut e = Vec::new();
            for i in 1..n as u32 {
                e.push((0, i));
                e.push((i, 0));
            }
            CsrMatrix::adjacency(n, &e)
        }
        for adj in [ring(64), star(64)] {
            let n = adj.n_rows();
            let x = Matrix::rand_uniform(n, 12, -1.0, 1.0, &mut seeded_rng(11));
            let model = zoo::graphsage(12, 16, 5, 13);
            let targets: Vec<usize> = (0..n).step_by(3).collect();
            let infer_with = |threads: usize| {
                gcnp_tensor::set_num_threads(threads);
                let mut engine =
                    BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
                engine.infer(&targets).logits
            };
            let serial = infer_with(1);
            let parallel = infer_with(8);
            gcnp_tensor::set_num_threads(0);
            for r in 0..serial.rows() {
                for c in 0..serial.cols() {
                    let (a, b) = (serial.get(r, c), parallel.get(r, c));
                    assert!(
                        (a - b).abs() <= 1e-5,
                        "row {r} col {c}: {a} (1 thread) vs {b} (8 threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_targets_dedupe() {
        let (adj, x, model) = setup();
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let res = engine.infer(&[7, 7, 8]);
        assert_eq!(res.targets, vec![7, 8]);
        assert_eq!(res.logits.rows(), 2);
    }

    #[test]
    fn try_infer_rejects_out_of_range_target() {
        let (adj, x, model) = setup();
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let err = engine.try_infer(&[3, 99]).unwrap_err();
        assert_eq!(
            err,
            crate::ServingError::TargetOutOfRange {
                node: 99,
                n_nodes: 30
            }
        );
        // The same engine still serves valid requests afterwards.
        let ok = engine.try_infer(&[3]).unwrap();
        assert_eq!(ok.targets, vec![3]);
    }

    #[test]
    fn try_infer_reports_store_width_mismatch() {
        let (adj, x, model) = setup();
        let store = FeatureStore::new(30, 2);
        store.put(1, 11, &[1.0, 2.0]).unwrap(); // model expects width-8 hidden rows
        let mut engine =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
        // Target 10 aggregates neighbor 11 from the store at level 1.
        let err = engine.try_infer(&[10]).unwrap_err();
        assert_eq!(
            err,
            crate::ServingError::StoreWidthMismatch {
                level: 1,
                expected: 8,
                got: 2
            }
        );
    }

    #[test]
    fn a_level_of_the_wrong_width_fails_every_batch() {
        // Width belongs to a store level, so the batch checks it once per
        // level, before expansion: a batch that never reads the wrong-width
        // row is refused too.
        let (adj, x, model) = setup();
        let store = FeatureStore::new(30, 2);
        store.put(1, 25, &[1.0, 2.0]).unwrap();
        let mut engine =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
        let err = engine.try_infer(&[3]).unwrap_err();
        assert_eq!(
            err,
            ServingError::StoreWidthMismatch {
                level: 1,
                expected: 8,
                got: 2
            }
        );
    }

    #[test]
    fn engine_survives_mid_batch_panic() {
        // An injected panic fires mid-batch, on scratch whose level tables
        // hold an earlier batch's rows: the next call on the same engine
        // must serve correct logits from the scratch as the panic left it,
        // because `serve_multi` retries batches on recovered workers.
        let (adj, x, model) = setup();
        let plan = crate::FaultPlan {
            panics: 1,
            horizon: 2, // one of the first two attempts panics
            ..Default::default()
        };
        let faults = plan.build().unwrap();
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        engine.set_faults(Arc::clone(&faults));
        let targets = vec![4usize, 17, 25];
        let mut crashed = false;
        for _ in 0..2 {
            let attempt = std::panic::AssertUnwindSafe(|| engine.try_infer(&[5, 16]));
            crashed |= std::panic::catch_unwind(attempt).is_err();
        }
        assert!(crashed, "one attempt must panic");
        let retry = engine.try_infer(&targets).unwrap();
        let fresh = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0)
            .infer(&targets);
        assert_eq!(logit_bits(&retry.logits), logit_bits(&fresh.logits));
        let norm = adj.normalized(Normalization::Row);
        let full = model.forward_full(Some(&norm), &x);
        for (i, &t) in targets.iter().enumerate() {
            for c in 0..4 {
                assert!(
                    (retry.logits.get(i, c) - full.get(t, c)).abs() < 1e-4,
                    "post-panic retry diverged at target {t} class {c}"
                );
            }
        }
    }

    #[test]
    fn store_miss_storm_bypasses_the_store() {
        // Under a StoreMiss fault the engine must behave exactly like a
        // store-less engine for that batch: full expansion, zero hits, and
        // no write-backs land.
        let (adj, x, model) = setup();
        let norm = adj.normalized(Normalization::Row);
        let hs = model.forward_collect(Some(&norm), &x);
        let store = FeatureStore::new(30, 2);
        let all: Vec<usize> = (0..30).collect();
        store.put_rows(1, &all, &hs[0]).unwrap();
        store.put_rows(2, &all, &hs[1]).unwrap();
        let plan = crate::FaultPlan {
            storms: 1,
            horizon: 1,
            ..Default::default()
        };
        let mut engine = BatchedEngine::new(
            &model,
            &adj,
            &x,
            vec![],
            Some(&store),
            StorePolicy::AllVisited,
            0,
        );
        engine.set_faults(plan.build().unwrap());
        let stormed = engine.try_infer(&[10, 11]).unwrap();
        assert_eq!(stormed.store_hits, 0, "storm batch must miss everything");
        let warm = engine.try_infer(&[10, 11]).unwrap();
        assert!(warm.store_hits > 0, "next batch hits the store again");
    }

    #[test]
    fn stage_busy_times_bounded_by_batch_and_wall_clock() {
        // Overlap-safe replacement for the old "stage sums tile batch
        // compute within ≤10%" invariant (false once stages overlap): the
        // per-stage histograms record *busy* time, so (a) their sum never
        // exceeds the summed per-batch serving time, (b) each stage's total
        // is bounded by the run's wall clock, and (c) every stage still
        // records exactly once per batch.
        if !gcnp_obs::enabled() {
            return;
        }
        let n = 512;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for d in [1u32, 7, 31] {
                let j = (i + d) % n as u32;
                edges.push((i, j));
                edges.push((j, i));
            }
        }
        let adj = CsrMatrix::adjacency(n, &edges);
        let x = Matrix::rand_uniform(n, 32, -1.0, 1.0, &mut seeded_rng(17));
        let model = zoo::graphsage(32, 64, 8, 19);
        let store = FeatureStore::new(n, 2);
        let registry = Arc::new(gcnp_obs::MetricsRegistry::new());
        let mut engine = BatchedEngine::new(
            &model,
            &adj,
            &x,
            vec![],
            Some(&store),
            StorePolicy::Roots,
            0,
        );
        engine.set_metrics(crate::EngineMetrics::new(&registry));

        let wall_start = Instant::now();
        let mut total_batch_seconds = 0.0f64;
        let n_batches = 8u64;
        for b in 0..n_batches as usize {
            let targets: Vec<usize> = (b * 17..b * 17 + 32).map(|v| v % n).collect();
            total_batch_seconds += engine.try_infer(&targets).unwrap().seconds;
        }
        let wall = wall_start.elapsed().as_secs_f64();

        let snap = registry.snapshot();
        assert_eq!(snap.counters["engine.batches"], n_batches);
        let batch_hist = &snap.histograms["engine.batch.seconds"];
        assert_eq!(batch_hist.count, n_batches);
        let stage_sum: f64 = crate::STAGES
            .iter()
            .map(|s| snap.histograms[&format!("engine.stage.{s}.seconds")].sum)
            .sum();
        // Busy time can only be a subset of the per-batch serving time
        // (prologue, queue wait, and straggle are never charged to stages).
        assert!(
            stage_sum <= total_batch_seconds + 1e-6,
            "stage busy sum {stage_sum:.6}s must not exceed batch seconds \
             {total_batch_seconds:.6}s"
        );
        for s in crate::STAGES {
            let h = &snap.histograms[&format!("engine.stage.{s}.seconds")];
            assert_eq!(h.count, n_batches, "stage {s} must record once per batch");
            assert!(
                h.sum <= wall + 1e-6,
                "stage {s} busy time {:.6}s cannot exceed the wall clock {wall:.6}s",
                h.sum
            );
        }
        // The sequential path still accounts for the bulk of its serving
        // time in stages (sanity that the clock is not dropping laps).
        assert!(
            stage_sum >= 0.5 * total_batch_seconds,
            "sequential stage busy sum {stage_sum:.6}s should dominate batch \
             seconds {total_batch_seconds:.6}s"
        );
    }

    #[test]
    fn straggler_fault_stretches_wall_time_only() {
        // One warm engine serves the same batch throughout: the stall is
        // `(multiplier - 1) x` the straggled batch's own serving time, so it
        // must outlast the fastest un-faulted batch whatever the host does.
        let (adj, x, model) = setup();
        let plan = crate::FaultPlan {
            stragglers: 1,
            straggle_multiplier: 20.0,
            horizon: 1,
            ..Default::default()
        };
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let baseline = engine.try_infer(&[4, 17]).unwrap(); // also warms the pools
        let fastest = (0..5)
            .map(|_| engine.try_infer(&[4, 17]).unwrap().seconds)
            .fold(baseline.seconds, f64::min);
        engine.set_faults(plan.build().unwrap());
        let straggled = engine.try_infer(&[4, 17]).unwrap();
        assert!(
            straggled.seconds > fastest,
            "straggler batch ({:.6}s) must be slower than an un-faulted one ({fastest:.6}s)",
            straggled.seconds,
        );
        // Logits are unaffected — the fault only stalls the clock.
        assert_eq!(straggled.logits.as_slice(), baseline.logits.as_slice());
    }

    #[test]
    fn front_pool_buffers_stay_in_circulation() {
        // Ring of 30 with h¹ stored for the odd nodes: every batch stages
        // three store rows and carries one neighbour-branch product, all drawn
        // from the front pool. Between batches the pool must hold every one
        // of them again, whatever the batch before ran into.
        let (adj, x, model) = setup();
        let norm = adj.normalized(Normalization::Row);
        let hs = model.forward_collect(Some(&norm), &x);
        let store = FeatureStore::new(30, 2);
        let odd: Vec<usize> = (1..30).step_by(2).collect();
        store.put_rows(1, &odd, &hs[0].gather_rows(&odd)).unwrap();
        let mut engine =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
        // Every level-1 row computed, so layer 1 has a product to carry.
        engine.core.untabled = true;
        let targets = [10usize, 12];
        engine.try_infer(&targets).unwrap();
        let steady = engine.front.pool.retained_bytes();
        assert!(steady > 0);

        for batch in 1..50 {
            match batch {
                // A prepared batch abandoned by a watchdog steal.
                10 => {
                    let (core, front, _) = engine.split();
                    let prep = core.prepare(&targets, front, HandOff::Never).unwrap();
                    assert!(front.pool.retained_bytes() < steady, "buffers are out");
                    prep.recycle_into(&mut front.pool);
                }
                // The same, abandoned after a partial split: one row of
                // layer 1's means built, the rest left to an execute that
                // never runs.
                15 => {
                    let (core, front, _) = engine.split();
                    let prep = core.prepare(&targets, front, HandOff::AtRow(1)).unwrap();
                    assert_eq!(prep.means_done, 1);
                    prep.recycle_into(&mut front.pool);
                }
                // A store level of the wrong width: refused by the batch's
                // level check, before any buffer is taken.
                20 => {
                    store.clear();
                    store.put(1, 13, &[1.0, 2.0]).unwrap();
                    let err = engine.try_infer(&targets).unwrap_err();
                    assert!(matches!(err, ServingError::StoreWidthMismatch { .. }));
                    store.clear();
                    store.put_rows(1, &odd, &hs[0].gather_rows(&odd)).unwrap();
                }
                // An execute that errors out before it reaches the staged rows.
                30 => {
                    let (core, front, back) = engine.split();
                    let mut prep = core.prepare(&targets, front, HandOff::Never).unwrap();
                    let operand = prep.aggregated.iter_mut().find_map(Option::take);
                    front.pool.recycle(operand.expect("layer 1 aggregates"));
                    let mut spent = Vec::new();
                    let err = core.execute(prep, back, &mut spent).unwrap_err();
                    assert!(matches!(
                        err,
                        ServingError::InvariantViolation {
                            check: "engine.aggregated.branch",
                            ..
                        }
                    ));
                    assert!(!spent.is_empty(), "the staged store rows come back");
                    for m in spent {
                        front.pool.recycle(m);
                    }
                }
                // An injected worker panic.
                40 => {
                    let plan = crate::FaultPlan {
                        panics: 1,
                        horizon: 1,
                        ..Default::default()
                    };
                    engine.set_faults(plan.build().unwrap());
                    let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.try_infer(&targets)
                    }));
                    assert!(crash.is_err());
                }
                _ => {
                    engine.try_infer(&targets).unwrap();
                }
            }
            assert_eq!(
                engine.front.pool.retained_bytes(),
                steady,
                "after batch {batch}"
            );
        }
    }

    #[test]
    fn back_pool_is_steady_after_warm_up() {
        // Every back-stage intermediate — aggregates and the hidden
        // layers' combined outputs — is leased
        // from the back pool and returned to it, so once the pool has seen
        // a batch's shapes no further batch grows, shrinks or reshuffles
        // it. A buffer allocated outside the pool and recycled into it
        // shows up here as a retained count that climbs every batch.
        let (adj, x, model) = setup();
        assert_eq!(model.layers[0].combine, CombineMode::Concat);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let targets = [3usize, 11, 12, 27];
        for _ in 0..3 {
            engine.try_infer(&targets).unwrap();
        }
        let steady = (
            engine.back.pool.retained(),
            engine.back.pool.retained_bytes(),
        );
        assert!(steady.0 > 0);
        for batch in 0..20 {
            engine.try_infer(&targets).unwrap();
            let now = (
                engine.back.pool.retained(),
                engine.back.pool.retained_bytes(),
            );
            assert_eq!(now, steady, "after batch {batch}");
        }
    }

    #[test]
    fn quantized_engine_approximates_f32_logits() {
        let (adj, x, model) = setup();
        let mut f32e = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let mut q8e = BatchedEngine::new_with_precision(
            &model,
            &adj,
            &x,
            vec![],
            None,
            StorePolicy::None,
            0,
            Precision::Int8,
        );
        let targets = vec![4usize, 17, 25];
        let a = f32e.infer(&targets);
        let b = q8e.infer(&targets);
        // Per-column symmetric int8 weights + per-row activation scales keep
        // the logits close; exact values differ by quantization noise.
        let mut max_abs = 0.0f32;
        let mut denom = 0.0f32;
        for i in 0..targets.len() {
            for c in 0..4 {
                max_abs = max_abs.max((a.logits.get(i, c) - b.logits.get(i, c)).abs());
                denom = denom.max(a.logits.get(i, c).abs());
            }
        }
        assert!(
            max_abs <= 0.05 * denom.max(1.0),
            "int8 logits drifted: max |Δ| = {max_abs}, max |f32| = {denom}"
        );
        // The quantized tier's weight footprint is 4x smaller, which the
        // per-batch memory accounting must reflect.
        assert!(
            b.mem_bytes < a.mem_bytes,
            "int8 mem {} must undercut f32 mem {}",
            b.mem_bytes,
            a.mem_bytes
        );
    }

    #[test]
    fn dispatch_counters_classify_kernel_choices() {
        if !gcnp_obs::enabled() {
            return; // counters are no-ops in obs-off builds
        }
        let (adj, x, model) = setup();
        let registry = Arc::new(gcnp_obs::MetricsRegistry::new());
        let metrics = crate::EngineMetrics::new(&registry);
        // A warm batch dispatches one GEMM per branch, bar layer 1's two:
        // the aggregation branch's product is the mean of its projection
        // table's rows, the self branch's is its table's rows. A batch that
        // meets rows no earlier one filled adds the table's f32 fill.
        let branches: u64 = model.layers.iter().map(|l| l.branches.len() as u64).sum();
        assert_eq!(model.layers[0].branches.len(), 2);
        let warm = branches - 2;
        let targets = [4, 17, 25];

        // An f32 engine runs every branch transform of a batch, and the
        // fill, on the dense blocked kernel.
        let mut dense = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        dense.set_metrics(Arc::clone(&metrics));
        dense.infer(&targets);
        assert_eq!(metrics.dispatch_dense.get(), warm + 1);
        dense.infer(&targets);
        assert_eq!(metrics.dispatch_dense.get(), 2 * warm + 1);
        assert_eq!(metrics.dispatch_int8.get(), 0);

        // An int8 engine runs every branch transform on the quantized
        // kernel; the fill stays on the dense one.
        let mut q8 = BatchedEngine::new_with_precision(
            &model,
            &adj,
            &x,
            vec![],
            None,
            StorePolicy::None,
            0,
            Precision::Int8,
        );
        q8.set_metrics(Arc::clone(&metrics));
        q8.infer(&targets);
        assert_eq!(metrics.dispatch_int8.get(), warm);
        assert_eq!(metrics.dispatch_dense.get(), 2 * warm + 2);
        q8.infer(&targets);
        assert_eq!(metrics.dispatch_int8.get(), 2 * warm);
        assert_eq!(metrics.dispatch_dense.get(), 2 * warm + 2);
    }

    /// f32 only: the int8 precision quantizes each operand as one tensor, so its
    /// logits depend on the batch by design.
    #[test]
    fn f32_logits_do_not_depend_on_batch_mates() {
        // Uncapped, no store: a node's logits are a function of the graph,
        // whichever targets it is served beside — bit for bit, because each
        // output row of the one dense kernel is its own fma chain.
        let (adj, x, model) = sparse_setup();
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
        let t = 37;
        let alone = engine.infer(&[t]);
        let batch: Vec<usize> = (0..64).collect();
        let beside = engine.infer(&batch);
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(alone.logits.row(0)), bits(beside.logits.row(t)));
    }

    /// Rows of layer 1's `k = 0` tables filled so far.
    fn filled_rows(engine: &BatchedEngine<'_>) -> usize {
        let tables = engine.back.self_tables.iter();
        tables
            .map(|t| t.filled.iter().filter(|&&f| f).count())
            .sum()
    }

    fn logit_bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn self_table_reads_are_bitwise_across_warmth_and_threads() {
        // Layer 1's `k = 0` rows come from a table filled on first touch: a
        // cold batch fills every computed node's row, a half-warm one only
        // the rows no earlier batch filled, a warm repeat none. Each must be
        // bitwise the materialised reference's per-batch GEMM, on one
        // kernel thread or four.
        let adj = chords_and_an_isolated_node();
        let x = Matrix::rand_uniform(adj.n_rows(), 6, -1.0, 1.0, &mut seeded_rng(21));
        let base = biased(zoo::graphsage(6, 8, 4, 7));
        // Under Mean with the self branch second, its rows are added to the
        // neighbour branch's product instead of stored into a window.
        let mut added = mean_combine(&base);
        added.layers[0].branches.swap(0, 1);
        let widening = biased(zoo::graphsage(6, 16, 4, 8));
        let (cold, half): (&[usize], &[usize]) = (&[3, 59, 20], &[20, 22, 44]);
        for threads in [1, 4] {
            gcnp_tensor::set_num_threads(threads);
            for (name, model) in [
                ("unpruned", &base),
                ("wider out than in", &widening),
                ("added under Mean", &added),
            ] {
                // Every level-1 row computed: tabled rows would fill the
                // `k = 0` table only through layer 1's output table.
                let engine = || {
                    let mut e =
                        BatchedEngine::new(model, &adj, &x, vec![], None, StorePolicy::None, 5);
                    e.core.untabled = true;
                    e
                };
                let mut fresh = engine();
                fresh.infer(half);
                let half_computed = filled_rows(&fresh);

                let mut engine = engine();
                let mut served = Vec::new();
                for targets in [cold, half, cold] {
                    let before = filled_rows(&engine);
                    let want = materialised_level_zero_logits(&mut engine, targets, false);
                    let got = engine.infer(targets);
                    assert_eq!(
                        logit_bits(&got.logits),
                        logit_bits(&want),
                        "{name}, {threads} threads, {targets:?} after {before} filled rows"
                    );
                    served.push((got.macs, filled_rows(&engine) - before));
                }
                let [(cold_macs, cold_fill), (_, half_fill), (warm_macs, warm_fill)] = served[..]
                else {
                    unreachable!("three batches")
                };
                assert!(
                    0 < half_fill && half_fill < half_computed,
                    "{name}: the second batch is half warm ({half_fill} of {half_computed})"
                );
                // The warm repeat runs exactly the cold batch's work but its
                // fill: `filled × in_dim × out_dim` MACs of the self branch.
                let own = model.layers[0].branches.iter().find(|b| b.k == 0).unwrap();
                assert_eq!(warm_fill, 0, "{name}");
                assert_eq!(
                    cold_macs - warm_macs,
                    (cold_fill * own.in_dim() * own.out_dim()) as u64,
                    "{name}"
                );
            }
        }
        gcnp_tensor::set_num_threads(0);
    }

    #[test]
    fn recovery_never_serves_a_half_written_self_table_row() {
        // Panics, store-miss storms and row flips interleave with batches,
        // then one execute errors out after layer 1's `k = 0` fill and
        // another with level 1 half written. Nothing is reset: a `k = 0` row
        // depends only on the attributes and the weights and is marked after
        // it is written, and a level slot is read only by the batch that
        // writes it. So the recovered engine's logits are a fresh engine's,
        // bit for bit.
        let (adj, x, model) = setup();
        let norm = adj.normalized(Normalization::Row);
        let hs = model.forward_collect(Some(&norm), &x);
        let store = FeatureStore::new(30, 2);
        let odd: Vec<usize> = (1..30).step_by(2).collect();
        store.put_rows(1, &odd, &hs[0].gather_rows(&odd)).unwrap();
        let plan = crate::FaultPlan {
            panics: 2,
            storms: 2,
            row_flips: 2,
            horizon: 10,
            seed: 3,
            ..Default::default()
        };
        let faults = plan.build().unwrap();
        let mut engine =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
        // Every level-1 row computed, so the failing execute below meets a
        // computed node's fill.
        engine.core.untabled = true;
        engine.set_faults(Arc::clone(&faults));
        for b in 0..10 {
            let targets = [(b * 3) % 30, (b * 7 + 1) % 30];
            let attempt = std::panic::AssertUnwindSafe(|| engine.try_infer(&targets));
            let _ = std::panic::catch_unwind(attempt);
        }
        assert_eq!(
            faults.fired(),
            [2, 0, 2, 0, 2, 0, 0],
            "the whole plan fired"
        );

        // An execute that errors after the fill: layer 1's neighbour
        // product goes missing, so the batch dies at the branch after the
        // self branch has written and marked its rows. An even target is
        // not in the store, so layer 1 computes it.
        let unfilled = |e: &BatchedEngine<'_>, v: usize| !e.back.self_tables[0].filled[v];
        let v = (0..30).step_by(2).find(|&v| unfilled(&engine, v));
        let targets = [v.expect("the schedule left an even node unfilled")];
        let before = filled_rows(&engine);
        let (core, front, back) = engine.split();
        let mut prep = core.prepare(&targets, front, HandOff::Never).unwrap();
        let operand = prep.aggregated.iter_mut().find_map(Option::take);
        front.pool.recycle(operand.expect("layer 1 aggregates"));
        let mut spent = Vec::new();
        assert!(core.execute(prep, back, &mut spent).is_err());
        for m in spent {
            front.pool.recycle(m);
        }
        assert!(filled_rows(&engine) > before, "it filled rows first");

        // An execute that errors between level 1's computed rows and its
        // store rows: its staged buffer goes missing.
        let targets = [4, 17, 25];
        let (core, front, back) = engine.split();
        let mut prep = core.prepare(&targets, front, HandOff::Never).unwrap();
        assert!(!prep.support.layers[0].compute.is_empty());
        let rows = prep.staged[0].take();
        front
            .pool
            .recycle(rows.expect("odd level-1 rows are stored"));
        let mut spent = Vec::new();
        let err = core.execute(prep, back, &mut spent).unwrap_err();
        assert!(err.to_string().contains("engine.staged.level"), "{err}");
        for m in spent {
            front.pool.recycle(m);
        }

        let all: Vec<usize> = (0..30).collect();
        let recovered = engine.try_infer(&all).unwrap();
        let fresh =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0)
                .infer(&all);
        assert_eq!(logit_bits(&recovered.logits), logit_bits(&fresh.logits));
    }

    #[test]
    fn stage_split_is_bitwise_at_every_hand_off_row() {
        // The stage pair hands layer 1's neighbour means from prepare to
        // execute at whatever row the back stage goes idle. Forced to every
        // kind of row — none built in prepare, one, half, all — a batch must
        // serve `try_infer`'s logits and accounting bit for bit, on one
        // kernel thread or four.
        let adj = chords_and_an_isolated_node();
        let n = adj.n_rows();
        let x = Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut seeded_rng(21));
        let base = biased(zoo::graphsage(6, 8, 4, 7));
        let pruned = scheme_pruned(&base, &adj, &x);
        let store = FeatureStore::new(n, 2);
        let warm: Vec<usize> = (0..n).step_by(2).collect();
        BatchedEngine::new(
            &pruned,
            &adj,
            &x,
            vec![],
            Some(&store),
            StorePolicy::Roots,
            1,
        )
        .infer(&warm);
        let mean = mean_combine(&base);
        let targets: &[usize] = &[3, 59, 20, 41, 8, 33, 9];
        for threads in [1, 4] {
            gcnp_tensor::set_num_threads(threads);
            for (name, model, store) in [
                ("unpruned", &base, None),
                ("batched-scheme pruned, warm store", &pruned, Some(&store)),
                ("Mean combine", &mean, None),
            ] {
                let caps = vec![None, Some(3)];
                let engine = || {
                    BatchedEngine::new(model, &adj, &x, caps.clone(), store, StorePolicy::None, 5)
                };
                let want = engine().try_infer(targets).unwrap();
                assert_eq!(want.store_hits > 0, store.is_some(), "{name}");
                let mut probe = engine();
                let (core, front, _) = probe.split();
                let prep = core.prepare(targets, front, HandOff::Never).unwrap();
                let rows = prep.support.layers[0].compute.len();
                assert_eq!(
                    prep.means_done, rows,
                    "try_infer builds every row in prepare"
                );
                assert!(rows >= 4, "{name}: {rows} rows");
                for row in [0, 1, rows / 2, rows] {
                    let mut engine = engine();
                    let (core, front, back) = engine.split();
                    let prep = core.prepare(targets, front, HandOff::AtRow(row)).unwrap();
                    assert_eq!(prep.means_done, row);
                    let mut spent = Vec::new();
                    let got = core.execute(prep, back, &mut spent).unwrap();
                    let at = format!("{name}, {threads} threads, hand-off at row {row} of {rows}");
                    assert_eq!(logit_bits(&got.logits), logit_bits(&want.logits), "{at}");
                    assert_eq!(
                        (got.macs, got.mem_bytes, got.store_hits, got.n_supporting),
                        (
                            want.macs,
                            want.mem_bytes,
                            want.store_hits,
                            want.n_supporting
                        ),
                        "{at}"
                    );
                }
            }
        }
        gcnp_tensor::set_num_threads(0);
    }

    #[test]
    fn one_store_lookup_per_needed_node() {
        // Expansion asks the store once per node a level needs, and that
        // one lookup stages the row: hits plus misses at each level are
        // exactly the level's stored and computed nodes — and at level 1 its
        // tabled ones, misses that layer 1 aggregates without sampling.
        if !gcnp_obs::enabled() {
            return; // counters are no-ops in obs-off builds
        }
        let (adj, x, model) = setup();
        let norm = adj.normalized(Normalization::Row);
        let hs = model.forward_collect(Some(&norm), &x);
        let store = FeatureStore::new(30, 2);
        let registry = Arc::new(gcnp_obs::MetricsRegistry::new());
        store.attach_metrics(&registry);
        let odd: Vec<usize> = (1..30).step_by(2).collect();
        store.put_rows(1, &odd, &hs[0].gather_rows(&odd)).unwrap();
        let thirds: Vec<usize> = (0..30).step_by(3).collect();
        store
            .put_rows(2, &thirds, &hs[1].gather_rows(&thirds))
            .unwrap();
        let mut engine =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
        let (core, front, back) = engine.split();
        let prep = core
            .prepare(&[3, 10, 17, 24], front, HandOff::Never)
            .unwrap();
        let tabled = [prep.tabled.len(), 0];
        assert!(tabled[0] > 0, "the uncapped ring tables level 1's misses");
        let needed: Vec<(usize, usize)> = prep.support.layers[..2]
            .iter()
            .zip(tabled)
            .map(|(ls, tabled)| (ls.stored.len(), ls.compute.len() + tabled))
            .collect();
        let res = core.execute(prep, back, &mut Vec::new()).unwrap();
        let snap = registry.snapshot();
        for (l, &(stored, computed)) in needed.iter().enumerate() {
            let (hit, miss) = (
                snap.counters[&format!("store.hit.l{}", l + 1)],
                snap.counters[&format!("store.miss.l{}", l + 1)],
            );
            assert_eq!(
                (hit, miss),
                (stored as u64, computed as u64),
                "level {}",
                l + 1
            );
        }
        assert!(
            needed.iter().all(|&(stored, _)| stored > 0),
            "both levels hit"
        );
        assert_eq!(
            res.store_hits,
            needed.iter().map(|&(s, _)| s).sum::<usize>()
        );
    }

    /// [`chords_and_an_isolated_node`] plus a hub: node 0 also links every
    /// third node, so the spokes have degree 5 and node 0 has 23, every other
    /// node of the ring 4, and node 59 none — both sides of a cap of 4.
    fn chords_and_a_hub() -> CsrMatrix {
        let chords = chords_and_an_isolated_node();
        let n = chords.n_rows();
        let mut edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| chords.row_indices(v).iter().map(move |&u| (v as u32, u)))
            .collect();
        for spoke in (3..n as u32 - 1).step_by(3) {
            edges.push((0, spoke));
            edges.push((spoke, 0));
        }
        CsrMatrix::adjacency(n, &edges)
    }

    /// Every stored row of `store`'s levels `1..=levels`, as bits.
    fn stored_bits(store: &FeatureStore, levels: usize) -> Vec<Option<Vec<u32>>> {
        let mut rows = Vec::new();
        for level in 1..=levels {
            for v in 0..store.n_nodes() {
                let mut row = None;
                store.probe(level, v, |r| {
                    row = Some(r.iter().map(|x| x.to_bits()).collect())
                });
                rows.push(row);
            }
        }
        rows
    }

    #[test]
    fn tabled_rows_are_bitwise_the_computed_rows() {
        // An engine that reads level-1 rows from layer 1's output table
        // serves each batch of a cold, a half-warm and a warm pass with the
        // logits and store hits of one that computes every row, bit for bit,
        // and writes the same rows back. It expands fewer nodes; cold, every
        // tabled row is a fill, and both run the same work.
        let adj = chords_and_a_hub();
        let n = adj.n_rows();
        let x = Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut seeded_rng(21));
        let base = biased(zoo::graphsage(6, 8, 4, 7));
        let mut rng = seeded_rng(31);
        let relu = gcnp_models::Activation::Relu;
        let classifier = |rng: &mut rand::rngs::StdRng| {
            gcnp_models::BranchLayer::dense(
                Matrix::glorot(8, 4, rng),
                Some(Matrix::zeros(1, 4)),
                gcnp_models::Activation::None,
            )
        };
        let deep = biased(GnnModel::new(vec![
            zoo::sage_layer(6, 8, relu, &mut rng),
            zoo::sage_layer(8, 8, relu, &mut rng),
            zoo::sage_layer(8, 8, relu, &mut rng),
            classifier(&mut rng),
        ]));
        let dense_first = biased(GnnModel::new(vec![
            gcnp_models::BranchLayer::dense(
                Matrix::glorot(6, 8, &mut rng),
                Some(Matrix::zeros(1, 8)),
                relu,
            ),
            zoo::sage_layer(8, 8, relu, &mut rng),
            classifier(&mut rng),
        ]));
        // Layer 1 samples the hub and its spokes, and nothing else.
        let caps = vec![Some(4); 3];
        let work: [&[usize]; 3] = [
            &[3, 59, 20, 41, 7],
            &[20, 22, 44, 9, 0],
            &[3, 59, 20, 41, 7],
        ];
        let warm_targets: Vec<usize> = (0..n).step_by(2).collect();
        for threads in [1, 4] {
            gcnp_tensor::set_num_threads(threads);
            for (name, model) in [
                ("Concat", &base),
                ("Mean combine", &mean_combine(&base)),
                ("three graph layers", &deep),
                ("dense first layer", &dense_first),
            ] {
                let levels = model.n_layers() - 1;
                let mut probe =
                    BatchedEngine::new(model, &adj, &x, caps.clone(), None, StorePolicy::None, 5);
                let (core, front, _) = probe.split();
                let prep = core.prepare(work[0], front, HandOff::Never).unwrap();
                let computed = prep.support.layers[0].compute.len();
                assert!(!prep.tabled.is_empty(), "{name}: level 1 tables nodes");
                assert_eq!(
                    computed > 0,
                    model.layers[0].uses_graph(),
                    "{name}: and samples others"
                );

                let warm = FeatureStore::new(n, levels);
                BatchedEngine::new(model, &adj, &x, vec![], Some(&warm), StorePolicy::Roots, 1)
                    .infer(&warm_targets);
                let roots = [FeatureStore::new(n, levels), FeatureStore::new(n, levels)];
                for (store_name, stores, policy) in [
                    ("no store", [None, None], StorePolicy::None),
                    ("warm read-only store", [Some(&warm); 2], StorePolicy::None),
                    (
                        "roots write-through",
                        [Some(&roots[0]), Some(&roots[1])],
                        StorePolicy::Roots,
                    ),
                ] {
                    let at = format!("{name}, {store_name}, {threads} threads");
                    let [mut tabled, mut computed] = stores
                        .map(|s| BatchedEngine::new(model, &adj, &x, caps.clone(), s, policy, 5));
                    computed.core.untabled = true;
                    let mut expanded = [0, 0];
                    for (b, targets) in work.iter().enumerate() {
                        let (got, want) = (tabled.infer(targets), computed.infer(targets));
                        let at = format!("{at}, batch {b}");
                        assert_eq!(logit_bits(&got.logits), logit_bits(&want.logits), "{at}");
                        assert_eq!(got.store_hits, want.store_hits, "{at}");
                        if b == 0 {
                            let cost = |r: &BatchResult| (r.macs, r.mem_bytes);
                            assert_eq!(
                                cost(&got),
                                cost(&want),
                                "{at}: a cold batch runs the same work"
                            );
                        }
                        expanded[0] += got.n_supporting;
                        expanded[1] += want.n_supporting;
                    }
                    assert!(
                        expanded[0] < expanded[1],
                        "{at}: tabled nodes are not expanded"
                    );
                    let filled = tabled.back.filled.iter().filter(|&&f| f).count();
                    assert!(filled > 0, "{at}: rows were tabled");
                    assert!(!computed.back.filled.contains(&true), "{at}");
                    if policy == StorePolicy::Roots {
                        let [a, b] = roots.each_ref().map(|s| stored_bits(s, levels));
                        assert!(a.iter().any(Option::is_some), "{at}: rows were written");
                        assert_eq!(a, b, "{at}: stored rows");
                    }
                }
            }
        }
        gcnp_tensor::set_num_threads(0);
    }
    #[test]
    fn a_store_row_unmarks_the_tabled_slot_it_lands_in() {
        // Level 1's table holds a filled node's row in its slot. When that
        // node is a store hit, the store row lands in the same slot, which
        // must lose its mark first: once the store drops the row, the node
        // is tabled again and must be refilled, not read as the store left
        // it. The store row here differs from the tabled one, as a row from
        // another engine or another model version may.
        let (adj, x, model) = setup();
        let width = model.layers[0].out_dim();
        let store = FeatureStore::new(adj.n_rows(), 2);
        let mut engine = BatchedEngine::new(
            &model,
            &adj,
            &x,
            vec![],
            Some(&store),
            StorePolicy::Roots,
            0,
        );
        // Uncapped, so level 1 tables every miss: node 5's row is filled.
        engine.infer(&[5]);
        assert!(engine.back.filled[5] && store.has(1, 5) && store.has(2, 5));
        engine.core.policy = StorePolicy::None;
        store.put(1, 5, &vec![7.0; width]).unwrap();
        // Node 6's layer 2 reads node 5 at level 1: a store hit now.
        let hit = engine.infer(&[6]);
        assert_eq!(hit.store_hits, 1);
        let unmarked = !engine.back.filled[5];
        assert!(store.remove(1, 5));
        let refilled = engine.infer(&[6]);
        let fresh =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0)
                .infer(&[6]);
        assert_eq!(logit_bits(&refilled.logits), logit_bits(&fresh.logits));
        assert_ne!(logit_bits(&hit.logits), logit_bits(&fresh.logits));
        assert!(unmarked, "the store row unmarked the slot");
        assert!(engine.back.filled[5], "node 5 was tabled and filled again");
    }

    #[test]
    fn roots_writes_back_only_rows_a_level_holds() {
        // Under `Roots` with three layers, a target stored at level 2 is not
        // computed there, so level 1 need not hold it: its level-1 slot is
        // whatever an earlier batch left, and nothing may be written back
        // from it. A target level 1 does hold, tabled here, is written back.
        let (adj, x, model) = setup();
        let norm = adj.normalized(Normalization::Row);
        let hs = model.forward_collect(Some(&norm), &x);
        let store = FeatureStore::new(adj.n_rows(), 2);
        store.put(2, 0, hs[1].row(0)).unwrap();
        let mut engine =
            BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
        // Node 0's level-1 slot gets a row: it is node 1's neighbour.
        engine.infer(&[1]);
        assert!(engine.back.filled[0]);
        engine.core.policy = StorePolicy::Roots;
        // The ring keeps node 10 and its neighbours away from node 0.
        let res = engine.infer(&[0, 10]);
        assert_eq!(res.store_hits, 1);
        assert!(!store.has(1, 0), "node 0 is absent from level 1");
        assert!(store.has(1, 10) && store.has(2, 10));
    }
}
