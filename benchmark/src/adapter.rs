//! Every call into the product lives in this file.
//!
//! The benchmark measures the serving stack through its *public* API only.
//! `benchmark/README.md` lists the symbols used here; a refactor that
//! renames or removes one of them migrates this one file and nothing else.
//! Nothing here names `ServingConfig::{pipeline, watchdog, hedge}`, so the
//! benchmark always runs the product's default executor.

use crate::spans::Spans;
use gcnp_core::{prune_model, PrunerConfig, Scheme};
use gcnp_datasets::{DatasetKind, GrowingGraph, Partition, SpamStream};
use gcnp_infer::{
    serve_multi, serve_sharded, stage_breakdown, BatchedEngine, CostModel, EngineMetrics,
    FullEngine, MultiServingReport, Precision, ServingConfig, ShardedStore, StorePolicy,
};
use gcnp_models::{zoo, PackedModel, QuantPackedModel, TrainConfig, Trainer};
use gcnp_obs::MetricsRegistry;
use gcnp_sparse::{BatchSupport, CsrMatrix, Normalization};
use gcnp_tensor::init::seeded_rng;
use gcnp_tensor::{qgemm_packed_into, Matrix, PackedB, QuantPackedB};
use rand::RngExt;
use std::sync::Arc;
use std::time::Instant;

pub use gcnp_core::Scheme as PruneScheme;
pub use gcnp_datasets::{Dataset, DatasetKind as Kind};
pub use gcnp_infer::{FeatureStore, StorePolicy as Policy};
pub use gcnp_models::GnnModel;

pub type Registry = Arc<MetricsRegistry>;

/// Hop fan-out caps of the paper's Table 4 setting.
pub fn caps() -> Vec<Option<usize>> {
    vec![None, Some(32)]
}

/// The pruning budget every pruned workload uses (the paper's "4×").
pub const BUDGET: f32 = 0.25;

// ---------------------------------------------------------------------------
// Machine and kernel-thread settings
// ---------------------------------------------------------------------------

pub fn set_kernel_threads(n: usize) {
    gcnp_tensor::set_num_threads(n);
}

/// The GEMM microkernel the product dispatches to on this CPU.
pub fn gemm_path() -> String {
    format!("{:?}", gcnp_tensor::gemm_path())
}

// ---------------------------------------------------------------------------
// datasets / models / core: set-up inputs
// ---------------------------------------------------------------------------

pub fn generate(kind: DatasetKind, scale: f64, seed: u64) -> Dataset {
    kind.generate_scaled(scale, seed)
}

pub fn oversample(base: &Dataset, factor: usize, seed: u64) -> Dataset {
    gcnp_datasets::oversample(base, factor, seed)
}

pub fn hidden_dim(kind: DatasetKind) -> usize {
    kind.hidden_dim()
}

pub fn n_nodes(data: &Dataset) -> usize {
    data.n_nodes()
}

pub fn n_layers(model: &GnnModel) -> usize {
    model.n_layers()
}

/// The stream of `big` cut into (about) `n_windows` equal time windows:
/// the nodes arriving in each window and the directed edges that become
/// visible in it.
#[allow(clippy::type_complexity)]
pub fn stream_windows(big: &Dataset, n_windows: usize) -> (Vec<Vec<usize>>, Vec<Vec<(u32, u32)>>) {
    let max_ts = big
        .timestamps
        .as_ref()
        .and_then(|t| t.iter().max().copied())
        .expect("stream dataset carries timestamps");
    let minutes = max_ts / n_windows as u32 + 1;
    let nodes: Vec<Vec<usize>> = SpamStream::new(big, minutes).map(|w| w.nodes).collect();
    let stream = SpamStream::new(big, minutes);
    let deltas = (0..nodes.len()).map(|w| stream.edge_delta(w)).collect();
    (nodes, deltas)
}

/// Hash partition plus two greedy refinement passes; returns the assignment
/// and the share of directed edges that cross shards.
pub fn partition(adj: &CsrMatrix, shards: usize, seed: u64) -> (Vec<u32>, f64) {
    let mut part = Partition::hash(adj.n_rows(), shards, seed);
    part.refine_greedy(adj, 2);
    let cut = part.edge_cut(adj) as f64 / adj.nnz().max(1) as f64;
    (part.assign, cut)
}

/// A GraphSAGE reference model trained for `steps` GraphSAINT steps.
pub fn train_reference(data: &Dataset, hidden: usize, steps: usize, seed: u64) -> GnnModel {
    let mut model = zoo::graphsage(data.attr_dim(), hidden, data.n_classes(), seed);
    let cfg = TrainConfig {
        steps,
        eval_every: steps.max(1), // one validation, at the end
        seed,
        ..Default::default()
    };
    Trainer::train_saint(&mut model, data, &cfg);
    model
}

/// LASSO channel pruning at [`BUDGET`] on the training graph (paper §3.1).
/// `epochs` bounds both sub-problems; widths depend only on the budget.
pub fn prune(
    model: &GnnModel,
    data: &Dataset,
    scheme: Scheme,
    epochs: usize,
    seed: u64,
) -> GnnModel {
    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);
    let cfg = PrunerConfig {
        beta_epochs: epochs,
        w_epochs: epochs,
        seed,
        ..Default::default()
    };
    prune_model(model, &tadj, &tx, BUDGET, scheme, &cfg).0
}

/// Pack every branch weight once; returns `(seconds, packed bytes)`.
pub fn pack(model: &GnnModel) -> (f64, usize) {
    let t0 = Instant::now();
    let packed = PackedModel::new(model);
    (t0.elapsed().as_secs_f64(), packed.packed_bytes())
}

pub fn row_normalized(adj: &CsrMatrix) -> CsrMatrix {
    adj.normalized(Normalization::Row)
}

/// The paper's offline store: hidden features of train + validation nodes
/// from one full-graph pass. Returns the store, the rows written and the
/// seconds spent in `put_rows` alone.
pub fn offline_store(model: &GnnModel, data: &Dataset) -> (FeatureStore, usize, f64) {
    let adj = row_normalized(&data.adj);
    let hidden = FullEngine::new(model, Some(&adj)).hidden(&data.features);
    let n_levels = model.n_layers() - 1;
    let store = FeatureStore::new(data.n_nodes(), n_levels);
    let mut offline: Vec<usize> = data.train.iter().chain(&data.val).copied().collect();
    offline.sort_unstable();
    let mut put_s = 0.0;
    for level in 1..=n_levels {
        let rows = hidden[level - 1].gather_rows(&offline);
        let t0 = Instant::now();
        store
            .put_rows(level, &offline, &rows)
            .expect("offline rows fit the store");
        put_s += t0.elapsed().as_secs_f64();
    }
    (store, offline.len() * n_levels, put_s)
}

pub fn store_mb(store: &FeatureStore) -> f64 {
    store.nbytes() as f64 / 1e6
}

// ---------------------------------------------------------------------------
// infer: engines and serving
// ---------------------------------------------------------------------------

/// The store an engine reads: none, one store, or one shard of a sharded one.
#[derive(Clone, Copy)]
pub enum StoreRef<'a> {
    None,
    Single(&'a FeatureStore),
    Shard(&'a ShardedStore, usize),
}

impl StoreRef<'_> {
    fn has(&self, level: usize, node: usize) -> bool {
        match self {
            StoreRef::None => false,
            StoreRef::Single(s) => s.has(level, node),
            StoreRef::Shard(s, _) => s.has(level, node),
        }
    }

    fn touch_row(&self, level: usize, node: usize) -> Option<f32> {
        let first = |row: &[f32]| row.first().copied().unwrap_or(0.0);
        match self {
            StoreRef::None => None,
            StoreRef::Single(s) => s.with_row(level, node, first),
            StoreRef::Shard(s, _) => s.with_row(level, node, first),
        }
    }
}

pub fn engine<'a>(
    model: &'a GnnModel,
    adj: &'a CsrMatrix,
    features: &'a Matrix,
    store: StoreRef<'a>,
    policy: StorePolicy,
    seed: u64,
) -> BatchedEngine<'a> {
    match store {
        StoreRef::None => BatchedEngine::new(model, adj, features, caps(), None, policy, seed),
        StoreRef::Single(s) => {
            BatchedEngine::new(model, adj, features, caps(), Some(s), policy, seed)
        }
        StoreRef::Shard(s, k) => {
            BatchedEngine::new_sharded(model, adj, features, caps(), s, k, policy, seed)
        }
    }
}

/// A metrics registry; attached to engines and stores in the traced run only.
pub fn new_registry() -> Arc<MetricsRegistry> {
    Arc::new(MetricsRegistry::new())
}

pub fn attach_registry(registry: &Arc<MetricsRegistry>, engines: &mut [BatchedEngine<'_>]) {
    for e in engines.iter_mut() {
        e.set_metrics(EngineMetrics::new(registry));
    }
}

/// Engine-stage shares (in `gcnp_infer::STAGES` order) and the share of
/// branch products the runtime density probe sent to the sparse kernel.
pub fn stage_shares(registry: &MetricsRegistry) -> (Vec<(&'static str, f64)>, f64) {
    let snap = registry.snapshot();
    let shares = stage_breakdown(&snap)
        .iter()
        .map(|r| (r.stage, r.share))
        .collect();
    let c = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    let (dense, sparse) = (c("engine.dispatch.dense"), c("engine.dispatch.sparse"));
    let total = dense + sparse;
    (shares, if total > 0.0 { sparse / total } else { 0.0 })
}

/// Rows other shards' engines fetched, from the shard router's counter.
pub fn remote_rows(registry: &MetricsRegistry) -> f64 {
    registry
        .snapshot()
        .counters
        .get("shard.remote.rows")
        .copied()
        .unwrap_or(0) as f64
}

/// Load and admission settings of one serving call.
#[derive(Debug, Clone, Copy)]
pub struct ServeParams {
    /// Requests per second of the Poisson arrival trace.
    pub rate: f64,
    /// Replay arrivals in real time (open loop) instead of draining.
    pub pace: bool,
    pub max_batch: usize,
    /// Seconds a request may wait for batch-mates.
    pub max_wait: f64,
    pub deadline: Option<f64>,
    pub queue_cap: Option<usize>,
    pub n_requests: usize,
    pub seed: u64,
}

impl ServeParams {
    fn config(&self) -> ServingConfig {
        ServingConfig {
            arrival_rate: self.rate,
            max_batch: self.max_batch,
            max_wait: self.max_wait,
            n_requests: self.n_requests,
            seed: self.seed,
            deadline: self.deadline,
            queue_cap: self.queue_cap,
            pace: self.pace,
            ..Default::default()
        }
    }
}

/// What one serving call did, timed by the benchmark's own clock.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub wall_s: f64,
    pub n_requests: usize,
    pub served: usize,
    /// Requests the product shed: retries exhausted, queue full, deadline.
    pub shed: usize,
    pub shed_queue: usize,
    /// Requests neither served nor shed — must be zero.
    pub lost: usize,
    pub n_batches: usize,
    pub mean_batch_size: f64,
    pub occupancy: f64,
    pub retries: usize,
    /// Latency from scheduled arrival to commit, as the product reports it.
    pub p50_ms: f64,
    pub p95_ms: f64,
}

fn served(wall_s: f64, r: &MultiServingReport) -> Served {
    let accounted = r.served + r.shed + r.shed_queue + r.shed_deadline;
    Served {
        wall_s,
        n_requests: r.n_requests,
        served: r.served,
        shed: r.shed + r.shed_queue + r.shed_deadline,
        shed_queue: r.shed_queue,
        lost: r.n_requests.abs_diff(accounted),
        n_batches: r.n_batches,
        mean_batch_size: r.mean_batch_size,
        occupancy: r.pipeline_occupancy,
        retries: r.retries,
        p50_ms: r.p50_ms,
        p95_ms: r.p95_ms,
    }
}

pub fn serve(
    engines: &mut [BatchedEngine<'_>],
    pool: &[usize],
    p: &ServeParams,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let rep = serve_multi(engines, pool, &p.config()).map_err(|e| format!("serve_multi: {e}"))?;
    Ok(served(t0.elapsed().as_secs_f64(), &rep))
}

pub fn serve_by_shard(
    engines: &mut [BatchedEngine<'_>],
    assign: &[u32],
    pool: &[usize],
    p: &ServeParams,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let rep = serve_sharded(engines, assign, pool, &p.config())
        .map_err(|e| format!("serve_sharded: {e}"))?;
    Ok(served(t0.elapsed().as_secs_f64(), &rep))
}

/// The arrival trace `serve_multi` / `serve_sharded` derive from
/// `(seed, rate, n_requests, pool)`: seconds of scheduled arrival and the
/// requested node. Mirrors the product's private trace generator draw for
/// draw, so the traced run replays the very requests the workload served;
/// should the product change its generator, the replay still draws from the
/// same distribution.
pub fn arrival_trace(pool: &[usize], p: &ServeParams) -> Vec<(f64, usize)> {
    let mut rng = seeded_rng(p.seed);
    let mut t = 0.0f64;
    (0..p.n_requests)
        .map(|_| {
            let u: f64 = rng.random_range(f64::EPSILON..1.0);
            t += -u.ln() / p.rate;
            (t, pool[rng.random_range(0..pool.len())])
        })
        .collect()
}

// ---------------------------------------------------------------------------
// infer.shard: the growing graph
// ---------------------------------------------------------------------------

/// Graph and sharded store of the stream workload, grown window by window.
pub struct Growing {
    graph: GrowingGraph,
    pub store: ShardedStore,
}

impl Growing {
    pub fn new(n_nodes: usize, assign: &[u32], shards: usize, n_levels: usize) -> Self {
        Self {
            graph: GrowingGraph::new(n_nodes),
            store: ShardedStore::new(assign, shards, n_levels),
        }
    }

    pub fn attach_registry(&self, registry: &Arc<MetricsRegistry>) {
        self.store.attach_metrics(registry);
    }

    pub fn adj(&self) -> &CsrMatrix {
        self.graph.adj()
    }

    /// Append the window's edges to the graph snapshot.
    pub fn grow(&mut self, delta: &[(u32, u32)]) {
        self.graph.accrete(delta);
    }

    /// Invalidate the stored rows the new edges made stale; returns the
    /// number of rows removed. The stream graph is symmetric, so the
    /// adjacency is its own reverse.
    pub fn invalidate(&self, delta: &[(u32, u32)]) -> usize {
        self.store.accrete(delta, self.graph.adj()).removed
    }
}

// ---------------------------------------------------------------------------
// infer.full
// ---------------------------------------------------------------------------

pub fn full_engine<'a>(model: &'a GnnModel, adj_norm: &'a CsrMatrix) -> FullEngine<'a> {
    FullEngine::new(model, Some(adj_norm))
}

/// One full-graph forward pass.
pub fn full_pass(engine: &FullEngine<'_>, x: &Matrix) -> Matrix {
    engine.logits(x)
}

/// Analytic kMACs per node of a full pass (paper Eq. 2) from
/// `FullEngine::run`, with the seconds of its one timed pass.
pub fn full_run(engine: &FullEngine<'_>, x: &Matrix) -> (f64, f64) {
    let r = engine.run(x, 0, 1);
    (r.seconds, r.kmacs_per_node)
}

// ---------------------------------------------------------------------------
// Verification before timing
// ---------------------------------------------------------------------------

/// Uncapped, store-less batched logits against full-graph logits on
/// `targets`; returns the largest absolute difference.
pub fn batched_vs_full(model: &GnnModel, data: &Dataset, targets: &[usize]) -> Result<f32, String> {
    let adj = row_normalized(&data.adj);
    let full = FullEngine::new(model, Some(&adj)).logits(&data.features);
    let mut engine = BatchedEngine::new(
        model,
        &data.adj,
        &data.features,
        vec![],
        None,
        StorePolicy::None,
        0,
    );
    let res = engine
        .try_infer(targets)
        .map_err(|e| format!("try_infer: {e}"))?;
    Ok(full.gather_rows(&res.targets).max_abs_diff(&res.logits))
}

/// Two consecutive batches (the second reads rows the first wrote) through
/// an engine over a 2-shard store and one over a single store must agree
/// bit for bit.
pub fn sharded_equals_single(
    model: &GnnModel,
    adj: &CsrMatrix,
    features: &Matrix,
    assign: &[u32],
    targets: &[usize],
    seed: u64,
) -> Result<bool, String> {
    let n_levels = model.n_layers() - 1;
    let single = FeatureStore::new(adj.n_rows(), n_levels);
    let sharded = ShardedStore::new(assign, 2, n_levels);
    let mut a = engine(
        model,
        adj,
        features,
        StoreRef::Single(&single),
        StorePolicy::Roots,
        seed,
    );
    let mut b = engine(
        model,
        adj,
        features,
        StoreRef::Shard(&sharded, 0),
        StorePolicy::Roots,
        seed,
    );
    let half = targets.len() / 2;
    for part in [&targets[..half], targets] {
        let ra = a.try_infer(part).map_err(|e| format!("single: {e}"))?;
        let rb = b.try_infer(part).map_err(|e| format!("sharded: {e}"))?;
        let same = ra.targets == rb.targets
            && ra
                .logits
                .as_slice()
                .iter()
                .zip(rb.logits.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Packed full-graph logits against the unpacked reference forward pass.
pub fn packed_vs_reference(model: &GnnModel, adj_norm: &CsrMatrix, x: &Matrix) -> f32 {
    let packed = FullEngine::new(model, Some(adj_norm)).logits(x);
    model.forward_full(Some(adj_norm), x).max_abs_diff(&packed)
}

// ---------------------------------------------------------------------------
// Layer replays (traced run)
// ---------------------------------------------------------------------------

/// Seconds, floating-point (or integer) operations and computed bytes moved
/// of one kernel call. Bytes are computed from shapes, not measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernel {
    pub secs: f64,
    pub ops: f64,
    pub bytes: f64,
}

impl std::ops::AddAssign for Kernel {
    fn add_assign(&mut self, o: Kernel) {
        self.secs += o.secs;
        self.ops += o.ops;
        self.bytes += o.bytes;
    }
}

/// `Matrix::matmul_packed_into` at `rows × pack.k() × pack.n()`. Operand
/// values do not change the blocked kernel's work, so a constant fill
/// stands in for the gathered features.
pub fn gemm(rows: usize, pack: &PackedB) -> Kernel {
    let (k, n) = (pack.k(), pack.n());
    let lhs = Matrix::filled(rows, k, 0.5);
    let mut out = Matrix::filled(rows, n, 1.0); // touched before the clock starts
    let t0 = Instant::now();
    lhs.matmul_packed_into(pack, &mut out);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    Kernel {
        secs,
        ops: 2.0 * (rows * k * n) as f64,
        bytes: 4.0 * (rows * k + k * n + rows * n) as f64,
    }
}

/// `qgemm_packed_into` at the same shape (int8 weights: one byte each).
pub fn qgemm(rows: usize, pack: &QuantPackedB) -> Kernel {
    let (k, n) = (pack.k(), pack.n());
    let lhs = Matrix::filled(rows, k, 0.5);
    let mut out = Matrix::filled(rows, n, 1.0); // touched before the clock starts
    let t0 = Instant::now();
    qgemm_packed_into(&lhs, pack, &mut out);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    Kernel {
        secs,
        ops: 2.0 * (rows * k * n) as f64,
        bytes: (4 * rows * k + k * n + 4 * rows * n) as f64,
    }
}

/// `CsrMatrix::spmm_into` of `a` against a dense `a.n_cols() × width`
/// operand, into a buffer allocated (and touched) beforehand.
pub fn spmm(a: &CsrMatrix, width: usize) -> Kernel {
    let rhs = Matrix::filled(a.n_cols(), width, 0.5);
    let mut out = Matrix::filled(a.n_rows(), width, 1.0); // non-zero fill touches every page now
    let t0 = Instant::now();
    a.spmm_into(&rhs, &mut out);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    Kernel {
        secs,
        ops: 2.0 * (a.nnz() * width) as f64,
        // per stored entry: one rhs row read plus index and value; plus the output
        bytes: (a.nnz() * (4 * width + 8) + 4 * a.n_rows() * width) as f64,
    }
}

/// GEMM and int8 GEMM of every branch of every layer at `rows(layer)` rows.
pub fn model_gemms(model: &GnnModel, rows: impl Fn(usize) -> usize) -> (Kernel, Kernel) {
    let packed = PackedModel::new(model);
    let qpacked = QuantPackedModel::new(model);
    let (mut f, mut q) = (Kernel::default(), Kernel::default());
    for li in 0..model.n_layers() {
        for (p, qp) in packed.branch_packs(li).iter().zip(qpacked.branch_packs(li)) {
            f += gemm(rows(li), p);
            q += qgemm(rows(li), qp);
        }
    }
    (f, q)
}

/// Width of the operand a layer aggregates over the graph, if it does.
pub fn aggregated_width(model: &GnnModel, layer: usize) -> Option<usize> {
    model.layers[layer]
        .branches
        .iter()
        .find(|b| b.k == 1)
        .map(|b| b.in_dim())
}

/// What replaying one batch through each layer's public functions measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchReplay {
    pub targets: usize,
    /// Direct `try_infer` on the workload's own engine configuration.
    pub try_s: f64,
    /// The part of `try_s` the replayed children do not cover.
    pub other_s: f64,
    pub macs: f64,
    pub mem_bytes: f64,
    pub supporting: f64,
    pub store_hits: f64,
    pub expand_s: f64,
    pub agg_edges: f64,
    pub probe_s: f64,
    pub probes: f64,
    pub probe_hits: f64,
    pub spmm: Kernel,
    pub gemm: Kernel,
    pub qgemm: Kernel,
    /// Direct `try_infer` on an int8 engine over the same batch.
    pub int8_try_s: f64,
}

/// Everything a batch replay needs: the model in both precisions, the graph
/// and two read-only engines (f32 and int8) over the workload's store.
pub struct Replayer<'a> {
    model: &'a GnnModel,
    packed: PackedModel<'a>,
    qpacked: QuantPackedModel<'a>,
    adj: &'a CsrMatrix,
    store: StoreRef<'a>,
    seed: u64,
    direct: BatchedEngine<'a>,
    int8: BatchedEngine<'a>,
}

impl<'a> Replayer<'a> {
    pub fn new(
        model: &'a GnnModel,
        adj: &'a CsrMatrix,
        features: &'a Matrix,
        store: StoreRef<'a>,
        seed: u64,
    ) -> Self {
        let single = match store {
            StoreRef::Single(s) => Some(s),
            _ => None,
        };
        // The int8 constructor takes only an unsharded store; over a shard
        // the int8 engine runs store-less (its batch time is an upper bound).
        let int8 = BatchedEngine::new_with_precision(
            model,
            adj,
            features,
            caps(),
            single,
            StorePolicy::None,
            seed,
            Precision::Int8,
        );
        Self {
            model,
            packed: PackedModel::new(model),
            qpacked: QuantPackedModel::new(model),
            adj,
            store,
            seed,
            direct: engine(model, adj, features, store, StorePolicy::None, seed),
            int8,
        }
    }

    /// MACs per target the analytic cost model (paper Eq. 3) predicts.
    pub fn costmodel_macs_per_target(&self) -> f64 {
        CostModel::new(self.adj.n_rows(), self.adj.avg_degree())
            .batched_macs_per_node(self.model, caps().iter().flatten().copied().min())
    }

    /// Serve `targets` directly, then replay the batch through
    /// `BatchSupport::build`, the store's `with_row`, `CsrMatrix::spmm` and
    /// the packed GEMMs, recording each as a child span of the direct call.
    pub fn replay(
        &mut self,
        targets: &[usize],
        batch: u64,
        spans: &mut Spans,
    ) -> Result<BatchReplay, String> {
        let (id, res) = spans.record("try_infer", None, Some(batch), || {
            self.direct.try_infer(targets)
        });
        let res = res.map_err(|e| format!("replay try_infer: {e}"))?;
        if res.logits.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(format!("replay batch {batch}: non-finite logits"));
        }
        let mut out = BatchReplay {
            targets: res.targets.len(),
            try_s: spans.all[id].dur_ns() as f64 * 1e-9,
            macs: res.macs as f64,
            mem_bytes: res.mem_bytes as f64,
            supporting: res.n_supporting as f64,
            store_hits: res.store_hits as f64,
            ..Default::default()
        };

        let flags: Vec<bool> = self.model.layers.iter().map(|l| l.uses_graph()).collect();
        let store = self.store;
        let t0 = Instant::now();
        let support = BatchSupport::build(
            self.adj,
            targets,
            &flags,
            &caps(),
            self.seed ^ batch,
            |l, v| store.has(l, v),
        );
        out.expand_s = t0.elapsed().as_secs_f64();
        spans.replayed_child("expand", id, out.expand_s);
        out.agg_edges = support
            .layers
            .iter()
            .map(|l| l.neigh_ids.len())
            .sum::<usize>() as f64;

        // Probe set: every node needed at a stored (middle) level; empty
        // when the workload has no store.
        let n_layers = support.layers.len();
        let probe_set: Vec<(usize, usize)> = support.layers[..n_layers - 1]
            .iter()
            .filter(|_| !matches!(store, StoreRef::None))
            .flat_map(|ls| {
                ls.stored
                    .iter()
                    .chain(&ls.compute)
                    .map(move |&v| (ls.layer, v))
            })
            .collect();
        let t0 = Instant::now();
        let hits = probe_set
            .iter()
            .filter(|&&(l, v)| store.touch_row(l, v).is_some())
            .count();
        out.probe_s = t0.elapsed().as_secs_f64();
        spans.replayed_child("store_probe", id, out.probe_s);
        out.probes = probe_set.len() as f64;
        out.probe_hits = hits as f64;

        // Aggregation: each graph layer's capped neighbour lists as a CSR
        // over the rows of the level below.
        let mut row_of = vec![u32::MAX; self.adj.n_rows()];
        let mut below: Vec<usize> = support.input_nodes.clone();
        for (li, ls) in support.layers.iter().enumerate() {
            if let Some(width) = aggregated_width(self.model, li) {
                for (r, &v) in below.iter().enumerate() {
                    row_of[v] = r as u32;
                }
                let edges: Vec<(u32, u32, f32)> = (0..ls.compute.len())
                    .flat_map(|i| {
                        let nbrs = ls.neighbors(i);
                        let w = 1.0 / nbrs.len().max(1) as f32;
                        nbrs.iter().map(move |&u| (i as u32, u, w))
                    })
                    .map(|(i, u, w)| (i, row_of[u], w))
                    .collect();
                let a = CsrMatrix::from_edges(ls.compute.len(), below.len(), &edges);
                let k = spmm(&a, width);
                spans.replayed_child("spmm", id, k.secs);
                out.spmm += k;
            }
            below = ls.compute.iter().chain(&ls.stored).copied().collect();
        }

        for (li, ls) in support.layers.iter().enumerate() {
            for (p, qp) in self
                .packed
                .branch_packs(li)
                .iter()
                .zip(self.qpacked.branch_packs(li))
            {
                let k = gemm(ls.compute.len(), p);
                spans.replayed_child("gemm", id, k.secs);
                out.gemm += k;
                out.qgemm += qgemm(ls.compute.len(), qp);
            }
        }
        out.other_s = spans.self_time_ns(id) as f64 * 1e-9;

        let (iid, r8) = spans.record("try_infer_int8", None, Some(batch), || {
            self.int8.try_infer(targets)
        });
        r8.map_err(|e| format!("replay int8 try_infer: {e}"))?;
        out.int8_try_s = spans.all[iid].dur_ns() as f64 * 1e-9;
        Ok(out)
    }
}
