//! The six workloads: frozen parameters, set-up, verification before timing,
//! the timed phase and the traced run.
//!
//! Ground rules: one process per workload, load generated in-process, one
//! kernel thread and one serving worker unless a workload states otherwise,
//! and nothing random except through `--seed` (traffic) and [`DATA_SEED`]
//! (datasets and models). Request counts and paced rates below are frozen;
//! they change only by a `benchmark` issue followed by a fresh baseline (see
//! README.md).

use crate::adapter::{
    self, BatchReplay, Kernel, Kind, Policy, PruneScheme, ServeParams, Served, StoreRef,
};
use crate::catalog::Catalog;
use crate::spans::Spans;
use crate::{probes, procfs, stats};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DrainFullNostore,
    DrainPrunedStore,
    PacedSteady,
    PacedOverload,
    StreamAccrete,
    FullGraph,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::DrainFullNostore,
        Workload::DrainPrunedStore,
        Workload::PacedSteady,
        Workload::PacedOverload,
        Workload::StreamAccrete,
        Workload::FullGraph,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Workload::DrainFullNostore => "drain_full_nostore",
            Workload::DrainPrunedStore => "drain_pruned_store",
            Workload::PacedSteady => "paced_steady",
            Workload::PacedOverload => "paced_overload",
            Workload::StreamAccrete => "stream_accrete",
            Workload::FullGraph => "full_graph",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Serves the 4×-pruned model over the pre-populated read-only store
    /// (the paper's "4× w/"); otherwise the unpruned model with no store.
    fn pruned_with_store(&self) -> bool {
        matches!(self, Workload::DrainPrunedStore | Workload::PacedSteady)
    }

    /// Offered load exceeds capacity by design, so shed requests are the
    /// measured outcome (`served_share`), not failures.
    fn sheds_by_design(&self) -> bool {
        matches!(self, Workload::PacedOverload)
    }

    /// Whether `latency_*_ms` on this workload only restates
    /// `throughput_rps`. The benchmark contract has every workload report
    /// every end-to-end metric, so these rows exist; `compare` prints them
    /// without a verdict. A drained trace has all arrived at t ≈ 0, so a
    /// request's latency is its place in the queue ÷ throughput (the product
    /// documents such percentiles as "only relative"); a full-graph pass has
    /// no requests, its latency is the time of a pass pair.
    pub fn latency_is_derived(&self) -> bool {
        matches!(
            self,
            Workload::DrainFullNostore | Workload::DrainPrunedStore | Workload::FullGraph
        )
    }
}

/// The tail `latency_p95_ms` reports, on every workload.
const TAIL: f64 = 0.95;

// ---------------------------------------------------------------------------
// Frozen parameters
// ---------------------------------------------------------------------------

/// `paced_steady` arrival rate: the rate at which the pruned+store config,
/// paced, at `max_batch = 64`, `max_wait = 2 ms`, keeps 40 % of one core
/// busy, measured once on the seed commit (README.md "Calibration"). Never
/// recalibrated at run time: a faster build must see the same offered load.
const PACED_STEADY_RPS: f64 = 3000.0;

/// `paced_overload` arrival rate: 200 % of the drained capacity of the
/// unpruned store-less config at the same batching.
const PACED_OVERLOAD_RPS: f64 = 8200.0;

const STREAM_SHARDS: usize = 2;

/// Seed of the datasets, the models trained and pruned on them and the
/// shard partition. These are part of each workload's frozen definition,
/// like its request counts: graphs drawn from different seeds differ in
/// serving cost by ±20 %, which would drown every bound. `--seed` draws
/// the traffic instead — which nodes are requested, when they arrive, and
/// the engines' neighbour sampling.
const DATA_SEED: u64 = 42;

/// Sizes of one run. [`FULL`] is frozen; [`SMOKE`] shrinks every workload
/// so all six finish in well under 30 s.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Dataset scale (node-count multiplier of the registry sizes).
    data_scale: f64,
    train_steps: usize,
    prune_epochs: usize,
    /// Times set-up runs; `setup_s` is the first quartile (of three, the fastest).
    setups: usize,
    /// `oversample` factor of yelpchi-sim for the stream.
    stream_factor: usize,
    stream_windows: usize,
    /// Divisor of every per-repetition request count.
    shrink: usize,
    /// Least timed repetitions, whatever `--seconds` says. From seven up
    /// one stalled repetition moves neither the median nor the quartiles.
    min_reps: usize,
    /// Most batches the traced run replays layer by layer.
    replays: usize,
}

pub const FULL: Sizes = Sizes {
    data_scale: 1.0,
    train_steps: 20,
    prune_epochs: 10,
    setups: 3,
    stream_factor: 10,
    stream_windows: 120,
    shrink: 1,
    min_reps: 7,
    replays: 12,
};

pub const SMOKE: Sizes = Sizes {
    data_scale: 0.25,
    train_steps: 4,
    prune_epochs: 2,
    setups: 1,
    stream_factor: 2,
    stream_windows: 24,
    shrink: 8,
    min_reps: 1,
    replays: 2,
};

fn serving_params(w: Workload, seed: u64, shrink: usize) -> ServeParams {
    let drain = ServeParams {
        rate: 1e6, // the whole trace has arrived within milliseconds
        pace: false,
        max_batch: 512,
        max_wait: 0.02,
        deadline: None,
        queue_cap: None,
        n_requests: 0,
        seed,
    };
    let paced = ServeParams {
        pace: true,
        max_batch: 64,
        max_wait: 0.002,
        // 2.5 s of arrivals per repetition. A serving call starts with a
        // cold compute estimate and an empty queue and ends draining a full
        // one; at 1.5 s that start and end move `paced_overload`'s served
        // share by 12 % between repetitions of one run and its p95 by 40 %,
        // and at 1 s the first batches of a call are 5 % of `paced_steady`'s
        // requests and set its p95 (4 to 119 ms in one run).
        n_requests: 20_000 / shrink,
        ..drain
    };
    match w {
        Workload::DrainFullNostore => ServeParams {
            n_requests: 5_120 / shrink, // 10 batches, ≈ 1 s
            ..drain
        },
        Workload::DrainPrunedStore => ServeParams {
            n_requests: 20_480 / shrink, // 40 batches, ≈ 0.7 s
            ..drain
        },
        Workload::PacedSteady => ServeParams {
            rate: PACED_STEADY_RPS,
            n_requests: 7_500 / shrink,
            ..paced
        },
        Workload::PacedOverload => ServeParams {
            rate: PACED_OVERLOAD_RPS,
            // No deadline: the product seeds its compute estimate from the
            // cost model (≈ 1.8 s for 64 reddit-sim targets), so any useful
            // deadline sheds every request of a cold fleet and the estimate
            // never learns (README.md "Findings"). The bounded queue alone
            // limits latency here.
            queue_cap: Some(1024),
            ..paced
        },
        Workload::StreamAccrete | Workload::FullGraph => drain,
    }
}

/// Pass pairs (unpruned, then 4×-pruned) in one `full_graph` repetition, ≈ 0.7 s.
const FULL_GRAPH_PAIRS: usize = 3;

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in catalogue order.
    pub metrics: Vec<(String, f64)>,
    /// Interquartile range ÷ median over the repetitions, per end-to-end metric.
    pub spreads: Vec<(String, f64)>,
    /// Sample counts and other lines for the human reader.
    pub notes: Vec<String>,
    /// Chrome-trace JSON of the traced run.
    pub trace: Option<serde::Value>,
}

/// One timed repetition.
struct Rep {
    wall_s: f64,
    /// Process CPU seconds over the repetition; [`timed_phase`] fills it in.
    cpu_s: f64,
    attempted: usize,
    served: usize,
    failed: usize,
    p50_ms: f64,
    p95_ms: f64,
}

impl Rep {
    fn of(s: &Served, sheds_by_design: bool) -> Rep {
        Rep {
            wall_s: s.wall_s,
            cpu_s: 0.0,
            attempted: s.n_requests,
            served: s.served,
            failed: s.lost + if sheds_by_design { 0 } else { s.shed },
            p50_ms: s.p50_ms,
            p95_ms: s.p95_ms,
        }
    }
}

/// Repeat `rep` until `seconds` have been measured and at least `min_reps`
/// repetitions are in, reading the process CPU clock around each.
fn timed_phase(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
        let cpu0 = procfs::cpu_seconds();
        let mut r = rep()?;
        r.cpu_s = procfs::cpu_seconds() - cpu0;
        reps.push(r);
    }
    Ok(reps)
}

/// `samples` is the number of latency samples behind one repetition's
/// percentiles, `unit` what one sample is.
fn end_to_end(reps: &[Rep], setup_secs: &[f64], samples: usize, unit: &str) -> Outcome {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let defs = Catalog::load().end_to_end;
    let series: Vec<(&str, Vec<f64>)> = vec![
        ("throughput_rps", per_rep(&|r| r.served as f64 / r.wall_s)),
        ("latency_p50_ms", per_rep(&|r| r.p50_ms)),
        ("latency_p95_ms", per_rep(&|r| r.p95_ms)),
        (
            "served_share",
            per_rep(&|r| r.served as f64 / r.attempted.max(1) as f64),
        ),
        (
            "cpu_ms_per_req",
            per_rep(&|r| r.cpu_s * 1e3 / r.served.max(1) as f64),
        ),
        ("setup_s", setup_secs.to_vec()),
    ];
    let beyond = stats::beyond(samples, TAIL);
    Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: series
            .iter()
            .zip(&defs)
            .map(|((n, v), def)| {
                assert_eq!(*n, def.name, "series follow the catalogue's order");
                (n.to_string(), stats::good_quartile(v, def.higher_is_better))
            })
            .collect(),
        spreads: series
            .iter()
            .map(|(n, v)| (n.to_string(), stats::spread(v)))
            .collect(),
        notes: vec![
            format!(
                "{} repetitions after one discarded, {} set-ups; each value is the quartile \
                 of the repetitions on the metric's good side, .spread their interquartile \
                 range over their median",
                reps.len(),
                setup_secs.len(),
            ),
            format!(
                "latency percentiles are over {samples} {unit} per repetition; p95 leaves \
                 {beyond} beyond{}",
                if stats::supports(samples, TAIL) {
                    String::new()
                } else {
                    format!(
                        " (fewer than {}: {} over all repetitions)",
                        stats::MIN_BEYOND,
                        beyond * reps.len()
                    )
                }
            ),
            format!("repetition seconds: {:.3?}", per_rep(&|r| r.wall_s)),
            format!("repetition cpu seconds: {:.2?}", per_rep(&|r| r.cpu_s)),
            format!("repetition p50 ms: {:.2?}", per_rep(&|r| r.p50_ms)),
            format!("repetition p95 ms: {:.2?}", per_rep(&|r| r.p95_ms)),
        ],
        trace: None,
    }
}

/// Per-layer metrics in catalogue order, every declared name present
/// (0 = the workload does not exercise that layer).
struct Layers(Vec<(String, f64)>);

impl Layers {
    fn new() -> Self {
        let declared = Catalog::load().per_layer;
        Layers(declared.into_iter().map(|m| (m.name, 0.0)).collect())
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        let slot = self.0.iter_mut().find(|(n, _)| n == name);
        &mut slot
            .unwrap_or_else(|| {
                panic!("per-layer metric `{name}` is not declared in BENCHMARK.json")
            })
            .1
    }

    fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    fn setup_costs(&mut self, c: &Costs) {
        self.set("datasets.generate_s", c.generate_s);
        self.set("datasets.partition_s", c.partition_s);
        self.set("datasets.edge_cut_share", c.edge_cut_share);
        self.set("core.prune_s", c.prune_s);
        self.set("models.pack_ms", c.pack_s * 1e3);
        self.set("models.packed_mb", c.packed_bytes as f64 / 1e6);
        self.set(
            "infer.store.put_ns_per_row",
            ratio(c.put_s * 1e9, c.put_rows as f64),
        );
        self.set("infer.store.resident_mb", c.resident_mb);
    }

    fn machine(&mut self) {
        self.set("tensor.peak_fma_gflops", probes::peak_fma_gflops());
        self.set("tensor.triad_gbps", probes::triad_gbps());
    }

    fn kernels(&mut self, gemm: Kernel, qgemm: Kernel, spmm: Kernel, batches: f64) {
        self.set("tensor.gemm_ms_per_batch", gemm.secs * 1e3 / batches);
        self.set("tensor.gemm_gflops", ratio(gemm.ops, gemm.secs) / 1e9);
        self.set("tensor.gemm_mb_per_batch", gemm.bytes / 1e6 / batches);
        self.set("tensor.qgemm_gops", ratio(qgemm.ops, qgemm.secs) / 1e9);
        self.set("tensor.qgemm_over_gemm", ratio(gemm.secs, qgemm.secs));
        self.set("sparse.spmm_ms_per_batch", spmm.secs * 1e3 / batches);
        self.set("sparse.spmm_gflops", ratio(spmm.ops, spmm.secs) / 1e9);
        self.set("sparse.spmm_gbps", ratio(spmm.bytes, spmm.secs) / 1e9);
    }

    fn replays(&mut self, r: &[BatchReplay], costmodel_macs_per_target: f64) {
        let n = r.len().max(1) as f64;
        let sum = |f: &dyn Fn(&BatchReplay) -> f64| r.iter().map(f).sum::<f64>();
        let fold = |f: &dyn Fn(&BatchReplay) -> Kernel| {
            r.iter().fold(Kernel::default(), |mut acc, b| {
                acc += f(b);
                acc
            })
        };
        let targets = sum(&|b| b.targets as f64);
        self.kernels(fold(&|b| b.gemm), fold(&|b| b.qgemm), fold(&|b| b.spmm), n);
        self.set("sparse.expand_ms_per_batch", sum(&|b| b.expand_s) * 1e3 / n);
        self.set(
            "sparse.supporting_per_target",
            ratio(sum(&|b| b.supporting), targets),
        );
        self.set("sparse.agg_edges_per_batch", sum(&|b| b.agg_edges) / n);
        let try_ms: Vec<f64> = r.iter().map(|b| b.try_s * 1e3).collect();
        let int8_ms: Vec<f64> = r.iter().map(|b| b.int8_try_s * 1e3).collect();
        let macs_per_target = ratio(sum(&|b| b.macs), targets);
        self.set("infer.batched.batch_ms_p50", stats::median(&try_ms));
        self.set("infer.batched.int8_batch_ms_p50", stats::median(&int8_ms));
        self.set("infer.batched.kmacs_per_target", macs_per_target / 1e3);
        self.set(
            "infer.batched.mem_mb_per_batch",
            sum(&|b| b.mem_bytes) / 1e6 / n,
        );
        self.set(
            "infer.batched.store_hits_per_target",
            ratio(sum(&|b| b.store_hits), targets),
        );
        self.set(
            "infer.batched.costmodel_residual",
            ratio(macs_per_target, costmodel_macs_per_target),
        );
        self.set(
            "infer.batched.other_ms_per_batch",
            sum(&|b| b.other_s) * 1e3 / n,
        );
        self.set(
            "infer.store.probe_ns",
            ratio(sum(&|b| b.probe_s) * 1e9, sum(&|b| b.probes)),
        );
        self.set(
            "infer.store.hit_ratio",
            ratio(sum(&|b| b.probe_hits), sum(&|b| b.probes)),
        );
    }

    fn registry(&mut self, shares: &[(&'static str, f64)], sparse_share: f64) {
        for (stage, share) in shares {
            self.set(&format!("infer.batched.stage_share.{stage}"), *share);
        }
        self.set("infer.batched.dispatch_sparse_share", sparse_share);
    }

    /// Serving-layer metrics over the traced serving calls. `direct_s` is
    /// the direct `try_infer` time of the batches those `wall_s` seconds
    /// served; `arrivals_s` is how long their arrival traces last.
    fn serving(&mut self, calls: &[Served], direct_s: f64, wall_s: f64, arrivals_s: f64) {
        let n = calls.len().max(1) as f64;
        let sum = |f: &dyn Fn(&Served) -> f64| calls.iter().map(f).sum::<f64>();
        let batches = sum(&|s| s.n_batches as f64);
        self.set("infer.serving.n_batches", batches / n);
        self.set(
            "infer.serving.mean_batch_size",
            ratio(sum(&|s| s.mean_batch_size * s.n_batches as f64), batches),
        );
        self.set("infer.serving.occupancy", sum(&|s| s.occupancy) / n);
        self.set(
            "infer.serving.shed_queue",
            sum(&|s| s.shed_queue as f64) / n,
        );
        self.set("infer.serving.retries", sum(&|s| s.retries as f64) / n);
        self.set(
            "infer.serving.overhead_share",
            1.0 - ratio(direct_s, wall_s),
        );
        let p50: Vec<f64> = calls.iter().map(|s| s.p50_ms).collect();
        let batch_ms = *self.slot("infer.batched.batch_ms_p50");
        self.set(
            "infer.serving.queue_wait_ms_p50",
            stats::median(&p50) - batch_ms,
        );
        self.set(
            "infer.serving.drain_tail_ms",
            (sum(&|s| s.wall_s) - arrivals_s) * 1e3 / n,
        );
    }

    /// Close the traced run: the tracing overhead from the untraced and
    /// traced repetitions' wall seconds, and the totals over both.
    fn outcome(
        mut self,
        untraced: &[Rep],
        traced: &[Rep],
        spans: &Spans,
        notes: Vec<String>,
    ) -> Outcome {
        let wall = |reps: &[Rep]| stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        self.set(
            "trace.overhead_share",
            ratio(wall(traced), wall(untraced)) - 1.0,
        );
        let all = untraced.iter().chain(traced);
        Outcome {
            attempted: all.clone().map(|r| r.attempted).sum(),
            failed: all.map(|r| r.failed).sum(),
            metrics: self.0,
            spreads: Vec::new(),
            notes,
            trace: Some(spans.chrome_trace()),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Up to `k` indices of `0..n`, evenly spaced.
fn evenly(n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    (0..k).map(|i| i * n / k).collect()
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// What set-up spent per layer (the traced run reports these).
#[derive(Debug, Clone, Copy, Default)]
struct Costs {
    generate_s: f64,
    partition_s: f64,
    edge_cut_share: f64,
    prune_s: f64,
    pack_s: f64,
    packed_bytes: usize,
    put_rows: usize,
    put_s: f64,
    resident_mb: f64,
}

/// Run `build` `n` times; keep the last result, its spans and costs, and
/// every set-up time (`setup_s` is their first quartile).
fn set_up<T>(
    n: usize,
    mut build: impl FnMut(&mut Spans, &mut Costs) -> T,
) -> (T, Spans, Costs, Vec<f64>) {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take()); // free the previous inputs before building the next
        let (mut spans, mut costs) = (Spans::new(), Costs::default());
        let root = spans.open("setup", None, None);
        let inputs = build(&mut spans, &mut costs);
        secs.push(spans.close(root));
        kept = Some((inputs, spans, costs));
    }
    let (inputs, spans, costs) = kept.expect("set-up ran at least once");
    (inputs, spans, costs, secs)
}

/// Train the reference model and, when asked, prune it; time the pack.
fn models(
    data: &adapter::Dataset,
    hidden: usize,
    prune: Option<PruneScheme>,
    a: &RunArgs,
    spans: &mut Spans,
    costs: &mut Costs,
) -> (adapter::GnnModel, Option<adapter::GnnModel>) {
    let (_, reference) = spans.record("models.train", Some(0), None, || {
        adapter::train_reference(data, hidden, a.sizes.train_steps, DATA_SEED)
    });
    let pruned = prune.map(|scheme| {
        let (id, m) = spans.record("core.prune", Some(0), None, || {
            adapter::prune(&reference, data, scheme, a.sizes.prune_epochs, DATA_SEED)
        });
        costs.prune_s = spans.secs(id);
        m
    });
    let served = pruned.as_ref().unwrap_or(&reference);
    let (id, (_, bytes)) = spans.record("models.pack", Some(0), None, || adapter::pack(served));
    costs.pack_s = spans.secs(id);
    costs.packed_bytes = bytes;
    (reference, pruned)
}

fn generate(kind: Kind, a: &RunArgs, spans: &mut Spans, costs: &mut Costs) -> adapter::Dataset {
    let (id, data) = spans.record("datasets.generate", Some(0), None, || {
        adapter::generate(kind, a.sizes.data_scale, DATA_SEED)
    });
    costs.generate_s = spans.secs(id);
    data
}

// ---------------------------------------------------------------------------
// The four serving workloads (reddit-sim, Table 4 setting)
// ---------------------------------------------------------------------------

struct ServingInputs {
    data: adapter::Dataset,
    model: adapter::GnnModel,
    store: Option<adapter::FeatureStore>,
}

fn run_serving(w: Workload, a: &RunArgs) -> Result<Outcome, String> {
    adapter::set_kernel_threads(1);
    let (inputs, mut spans, costs, setup_secs) = set_up(a.sizes.setups, |spans, costs| {
        let data = generate(Kind::RedditSim, a, spans, costs);
        let scheme = w
            .pruned_with_store()
            .then_some(PruneScheme::BatchedInference);
        let (reference, pruned) = models(
            &data,
            adapter::hidden_dim(Kind::RedditSim),
            scheme,
            a,
            spans,
            costs,
        );
        let model = pruned.unwrap_or(reference);
        let store = w.pruned_with_store().then(|| {
            let (_, (store, rows, put_s)) =
                spans.record("infer.store.populate", Some(0), None, || {
                    adapter::offline_store(&model, &data)
                });
            (costs.put_rows, costs.put_s, costs.resident_mb) =
                (rows, put_s, adapter::store_mb(&store));
            store
        });
        ServingInputs { data, model, store }
    });
    let ServingInputs { data, model, store } = &inputs;

    // Verify before timing: uncapped store-less batched logits = full-graph logits.
    let probe = &data.test[..data.test.len().min(256)];
    let diff = adapter::batched_vs_full(model, data, probe)?;
    if diff.is_nan() || diff > 1e-4 {
        return Err(format!(
            "verify: batched vs full logits differ by {diff} on {} test nodes",
            probe.len()
        ));
    }

    let store_ref = store.as_ref().map_or(StoreRef::None, StoreRef::Single);
    let pool = &data.test;
    let base = serving_params(w, a.seed, a.sizes.shrink);
    // Read-only store (`Policy::None`), so the hit rate is stationary.
    let mut engines = vec![adapter::engine(
        model,
        &data.adj,
        &data.features,
        store_ref,
        Policy::None,
        a.seed,
    )];
    // Repetition `k` serves the trace drawn from `seed + k`: which nodes a
    // trace asks for moves its cost by several per cent (10 % between seeds
    // for the 10 240 requests of `drain_full_nostore`), and a run's value is
    // taken over many traces where one trace served again and again would
    // carry its cost into every repetition. The traced run stays
    // on the trace of `seed` itself, the one it replays layer by layer.
    let mut k = 0;
    let mut rep = || -> Result<Rep, String> {
        let params = ServeParams {
            seed: base.seed.wrapping_add(k),
            ..base
        };
        k += u64::from(!a.trace);
        Ok(Rep::of(
            &adapter::serve(&mut engines, pool, &params)?,
            w.sheds_by_design(),
        ))
    };
    // Warm-up: one whole repetition, discarded. The first one or two seconds
    // of serving run up to twice as slow as the rest (scratch pools grow,
    // the allocator's arenas and the page tables fill).
    rep()?;

    if !a.trace {
        let reps = timed_phase(a.seconds, a.sizes.min_reps, &mut rep)?;
        let served = reps.iter().map(|r| r.served).sum::<usize>() / reps.len();
        return Ok(end_to_end(&reps, &setup_secs, served, "requests"));
    }

    // Traced run: a quarter of the time untraced, a quarter with a registry
    // attached, the rest replaying batches layer by layer.
    let untraced = timed_phase(a.seconds / 4.0, 1, &mut rep)?;
    let registry = adapter::new_registry();
    adapter::attach_registry(&registry, &mut engines);
    let mut calls: Vec<Served> = Vec::new();
    let traced = timed_phase(a.seconds / 4.0, 1, || {
        let (_, s) = spans.record("serve_multi", None, None, || {
            adapter::serve(&mut engines, pool, &base)
        });
        let s = s?;
        calls.push(s);
        Ok(Rep::of(&s, w.sheds_by_design()))
    })?;
    drop(engines);
    let peak_rss_mb = procfs::peak_rss_mb(); // before the replays allocate

    // The batches repetition 0 formed: the arrival trace cut at `max_batch`
    // when drained (every window fills), at the reported mean batch size
    // when paced.
    let arrivals = adapter::arrival_trace(pool, &base);
    let size = if base.pace {
        (calls[0].mean_batch_size.round() as usize).max(1)
    } else {
        base.max_batch
    };
    let nodes: Vec<usize> = arrivals.iter().map(|&(_, v)| v).collect();
    let batches: Vec<&[usize]> = nodes.chunks(size).collect();
    let mut replayer = adapter::Replayer::new(model, &data.adj, &data.features, store_ref, a.seed);
    let t0 = Instant::now();
    let mut replays = Vec::new();
    for b in evenly(batches.len(), a.sizes.replays * 512 / base.max_batch) {
        replays.push(replayer.replay(batches[b], b as u64, &mut spans)?);
        if replays.len() >= 4 && t0.elapsed().as_secs_f64() > a.seconds / 2.0 {
            break;
        }
    }

    let mut layers = Layers::new();
    layers.setup_costs(&costs);
    layers.machine();
    layers.replays(&replays, replayer.costmodel_macs_per_target());
    layers.set("peak_rss_mb", peak_rss_mb);
    let (shares, sparse_share) = adapter::stage_shares(&registry);
    layers.registry(&shares, sparse_share);
    let mean_try_s = replays.iter().map(|r| r.try_s).sum::<f64>() / replays.len() as f64;
    let arrivals_s = arrivals.last().map_or(0.0, |&(t, _)| t);
    layers.serving(
        &calls,
        mean_try_s * calls[0].n_batches as f64,
        calls[0].wall_s,
        arrivals_s * calls.len() as f64,
    );
    let notes = vec![format!(
        "replayed {} of {} batches of repetition 0 ({} targets each)",
        replays.len(),
        batches.len(),
        size
    )];
    Ok(layers.outcome(&untraced, &traced, &spans, notes))
}

// ---------------------------------------------------------------------------
// stream_accrete (Fig. 6 on a growing graph, S = 2 shards)
// ---------------------------------------------------------------------------

struct StreamInputs {
    big: adapter::Dataset,
    model: adapter::GnnModel,
    /// Nodes arriving in each window, and the edges it makes visible.
    windows: Vec<Vec<usize>>,
    deltas: Vec<Vec<(u32, u32)>>,
    assign: Vec<u32>,
}

/// What the traced pass collects beside the window times.
#[derive(Default)]
struct StreamTrace {
    spans: Spans,
    calls: Vec<Served>,
    invalidate_s: f64,
    rows_invalidated: usize,
    replays: Vec<BatchReplay>,
    /// `serve_sharded` wall seconds of the windows whose batches were replayed.
    replayed_wall_s: f64,
    costmodel_macs_per_target: f64,
    /// Windows to replay.
    sample: Vec<usize>,
}

/// One pass over the first `limit` windows from a cold store and an empty
/// graph: per window, timed, grow the graph, invalidate stale rows, rebuild
/// both sharded engines, drain the window's nodes.
fn stream_pass(
    inp: &StreamInputs,
    seed: u64,
    limit: usize,
    registry: Option<&adapter::Registry>,
    mut trace: Option<&mut StreamTrace>,
) -> Result<Rep, String> {
    let n_levels = adapter::n_layers(&inp.model) - 1;
    let mut g = adapter::Growing::new(
        adapter::n_nodes(&inp.big),
        &inp.assign,
        STREAM_SHARDS,
        n_levels,
    );
    if let Some(r) = registry {
        g.attach_registry(r);
    }
    let mut window_ms = Vec::with_capacity(limit);
    let (mut attempted, mut served, mut failed) = (0, 0, 0);
    for w in 0..limit.min(inp.windows.len()) {
        let (nodes, delta) = (&inp.windows[w], &inp.deltas[w]);
        let params = ServeParams {
            n_requests: nodes.len(),
            seed: seed.wrapping_add(w as u64),
            ..serving_params(Workload::StreamAccrete, seed, 1)
        };
        // Timed, first part: the graph grows and stale rows are invalidated.
        let t0 = Instant::now();
        let span = trace
            .as_mut()
            .map(|t| t.spans.open("window.accrete", None, Some(w as u64)));
        g.grow(delta);
        let t1 = Instant::now();
        let removed = g.invalidate(delta);
        let invalidate_s = t1.elapsed().as_secs_f64();
        let accrete_s = t0.elapsed().as_secs_f64();
        if let Some(t) = trace.as_mut() {
            t.spans.close(span.expect("opened with the trace"));
            t.invalidate_s += invalidate_s;
            t.rows_invalidated += removed;
            if t.sample.contains(&w) && !nodes.is_empty() {
                // Untimed: replay the per-shard sub-batches this window is
                // about to serve, read-only, against the store as it stands.
                let arrivals = adapter::arrival_trace(nodes, &params);
                for k in 0..STREAM_SHARDS {
                    let mine: Vec<usize> = arrivals
                        .iter()
                        .map(|&(_, v)| v)
                        .filter(|&v| inp.assign[v] as usize == k)
                        .collect();
                    let store = StoreRef::Shard(&g.store, k);
                    let mut replayer =
                        adapter::Replayer::new(&inp.model, g.adj(), &inp.big.features, store, seed);
                    t.costmodel_macs_per_target = replayer.costmodel_macs_per_target();
                    for chunk in mine.chunks(params.max_batch) {
                        let id = (w * STREAM_SHARDS + k) as u64;
                        t.replays.push(replayer.replay(chunk, id, &mut t.spans)?);
                    }
                }
            }
        }
        // Timed, second part: rebuild both engines (weights re-pack) and
        // drain the window's nodes.
        let t2 = Instant::now();
        let span = trace
            .as_mut()
            .map(|t| t.spans.open("window.serve", None, Some(w as u64)));
        let mut engines: Vec<_> = (0..STREAM_SHARDS)
            .map(|k| {
                let store = StoreRef::Shard(&g.store, k);
                adapter::engine(
                    &inp.model,
                    g.adj(),
                    &inp.big.features,
                    store,
                    Policy::Roots,
                    seed,
                )
            })
            .collect();
        if let Some(r) = registry {
            adapter::attach_registry(r, &mut engines);
        }
        let call = if nodes.is_empty() {
            None
        } else {
            Some(adapter::serve_by_shard(
                &mut engines,
                &inp.assign,
                nodes,
                &params,
            )?)
        };
        drop(engines);
        window_ms.push((accrete_s + t2.elapsed().as_secs_f64()) * 1e3);
        if let Some(s) = &call {
            attempted += s.n_requests;
            served += s.served;
            failed += s.lost + s.shed;
        }
        if let Some(t) = trace.as_mut() {
            t.spans.close(span.expect("opened with the trace"));
            if let Some(s) = call {
                t.calls.push(s);
                if t.sample.contains(&w) {
                    t.replayed_wall_s += s.wall_s;
                }
            }
        }
    }
    let sorted = stats::sorted(window_ms.clone());
    Ok(Rep {
        wall_s: window_ms.iter().sum::<f64>() / 1e3,
        cpu_s: 0.0,
        attempted,
        served,
        failed,
        p50_ms: stats::percentile(&sorted, 0.5),
        p95_ms: stats::percentile(&sorted, TAIL),
    })
}

fn run_stream(a: &RunArgs) -> Result<Outcome, String> {
    adapter::set_kernel_threads(1);
    let (inp, mut spans, costs, setup_secs) = set_up(a.sizes.setups, |spans, costs| {
        let (id, big) = spans.record("datasets.generate", Some(0), None, || {
            let base = adapter::generate(Kind::YelpChiSim, a.sizes.data_scale, DATA_SEED);
            // Models train on the base graph; serving-time graphs only grow.
            (
                adapter::oversample(&base, a.sizes.stream_factor, DATA_SEED),
                base,
            )
        });
        costs.generate_s = spans.secs(id);
        let (big, base) = big;
        let scheme = Some(PruneScheme::BatchedInference);
        let (_, pruned) = models(
            &base,
            adapter::hidden_dim(Kind::YelpChiSim),
            scheme,
            a,
            spans,
            costs,
        );
        let (windows, deltas) = adapter::stream_windows(&big, a.sizes.stream_windows);
        let (id, (assign, cut)) = spans.record("datasets.partition", Some(0), None, || {
            adapter::partition(&big.adj, STREAM_SHARDS, DATA_SEED)
        });
        (costs.partition_s, costs.edge_cut_share) = (spans.secs(id), cut);
        StreamInputs {
            big,
            model: pruned.expect("the stream serves the pruned model"),
            windows,
            deltas,
            assign,
        }
    });

    // Verify before timing: on the graph half-way through the stream, an
    // engine over the 2-shard store equals one over a single store, bitwise.
    let mid = inp.windows.len() / 2;
    let mut g = adapter::Growing::new(adapter::n_nodes(&inp.big), &inp.assign, STREAM_SHARDS, 1);
    g.grow(&inp.deltas[..=mid].concat());
    let probe = &inp.windows[mid];
    if !adapter::sharded_equals_single(
        &inp.model,
        g.adj(),
        &inp.big.features,
        &inp.assign,
        probe,
        a.seed,
    )? {
        return Err(format!(
            "verify: sharded engine differs from single-store engine on window {mid}"
        ));
    }
    drop(g);

    let n = inp.windows.len();
    stream_pass(&inp, a.seed, n, None, None)?; // warm-up: one whole pass, discarded
    if !a.trace {
        // Pass `k` samples neighbours and orders each window's arrivals
        // from `seed + k`, as the serving workloads' repetitions do.
        let mut k = 0;
        let reps = timed_phase(a.seconds, a.sizes.min_reps, || {
            k += 1;
            stream_pass(&inp, a.seed.wrapping_add(k), n, None, None)
        })?;
        return Ok(end_to_end(&reps, &setup_secs, n, "windows"));
    }

    let untraced = stream_pass(&inp, a.seed, n, None, None)?;
    let peak_rss_mb = procfs::peak_rss_mb(); // before the replays allocate
    let registry = adapter::new_registry();
    // Replay the middle window of each of a few equal stretches of the stream.
    let stretches = (a.sizes.replays / 2).max(1);
    let mut t = StreamTrace {
        sample: evenly(n, stretches)
            .into_iter()
            .map(|w| w + n / (2 * stretches))
            .collect(),
        ..Default::default()
    };
    let traced = stream_pass(&inp, a.seed, n, Some(&registry), Some(&mut t))?;
    // Window spans follow the set-up spans in one trace file.
    let offset = spans.all.len();
    spans.all.extend(t.spans.all.iter().cloned().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));

    let mut layers = Layers::new();
    layers.setup_costs(&costs);
    layers.machine();
    layers.replays(&t.replays, t.costmodel_macs_per_target);
    layers.set("peak_rss_mb", peak_rss_mb);
    let (shares, sparse_share) = adapter::stage_shares(&registry);
    layers.registry(&shares, sparse_share);
    let direct_s: f64 = t.replays.iter().map(|r| r.try_s).sum();
    // All of a window's requests have arrived within a millisecond.
    layers.serving(&t.calls, direct_s, t.replayed_wall_s, 0.0);
    let windows = n as f64;
    let batches: f64 = t.calls.iter().map(|s| s.n_batches as f64).sum();
    layers.set(
        "infer.shard.accrete_ms_per_window",
        t.invalidate_s * 1e3 / windows,
    );
    layers.set(
        "infer.shard.rows_invalidated_per_window",
        t.rows_invalidated as f64 / windows,
    );
    layers.set(
        "infer.shard.remote_rows_per_batch",
        ratio(adapter::remote_rows(&registry), batches),
    );
    layers.set("infer.shard.batches_per_window", batches / windows);
    layers.set(
        "infer.shard.mean_batch_size",
        ratio(traced.served as f64, batches),
    );
    let notes = vec![format!(
        "replayed {} sub-batches of {} windows",
        t.replays.len(),
        t.sample.len()
    )];
    Ok(layers.outcome(&[untraced], &[traced], &spans, notes))
}

// ---------------------------------------------------------------------------
// full_graph (Table 3)
// ---------------------------------------------------------------------------

fn run_full(a: &RunArgs) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The one workload with the kernel thread pool on.
    adapter::set_kernel_threads(nproc);
    let (inp, mut spans, costs, setup_secs) = set_up(a.sizes.setups, |spans, costs| {
        let data = generate(Kind::ProductsSim, a, spans, costs);
        let scheme = Some(PruneScheme::FullInference);
        let (reference, pruned) = models(
            &data,
            adapter::hidden_dim(Kind::ProductsSim),
            scheme,
            a,
            spans,
            costs,
        );
        let adj = adapter::row_normalized(&data.adj);
        (data, adj, reference, pruned.expect("full_graph prunes"))
    });
    let (data, adj, reference, pruned) = &inp;
    let x = &data.features;

    // Verify before timing: packed logits = the unpacked reference forward.
    for (name, model) in [("unpruned", reference), ("pruned", pruned)] {
        let diff = adapter::packed_vs_reference(model, adj, x);
        if diff.is_nan() || diff > 1e-4 {
            return Err(format!(
                "verify: packed {name} logits differ from the reference by {diff}"
            ));
        }
    }
    let engines = [
        adapter::full_engine(reference, adj),
        adapter::full_engine(pruned, adj),
    ];
    // Kernels are bitwise deterministic: every timed pass must reproduce these.
    let expected = [
        adapter::full_pass(&engines[0], x),
        adapter::full_pass(&engines[1], x),
    ];

    let n = adapter::n_nodes(data);
    // One repetition: `pairs` times an unpruned pass, then a 4x-pruned pass.
    let pairs = (FULL_GRAPH_PAIRS / a.sizes.shrink).max(1);
    let rep = || {
        let (mut pair_ms, mut wrong) = (Vec::with_capacity(pairs), 0);
        let t0 = Instant::now();
        for _ in 0..pairs {
            let t1 = Instant::now();
            let got = [
                adapter::full_pass(&engines[0], x),
                adapter::full_pass(&engines[1], x),
            ];
            pair_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            wrong += usize::from(got != expected);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let sorted = stats::sorted(pair_ms);
        Ok(Rep {
            wall_s,
            cpu_s: 0.0,
            attempted: 2 * n * pairs,
            served: 2 * n * pairs,
            failed: 2 * n * wrong,
            p50_ms: stats::percentile(&sorted, 0.5),
            p95_ms: stats::percentile(&sorted, TAIL),
        })
    };
    rep()?; // warm-up: one whole repetition, discarded
    if !a.trace {
        let reps = timed_phase(a.seconds, a.sizes.min_reps, rep)?;
        return Ok(end_to_end(&reps, &setup_secs, pairs, "pass pairs"));
    }

    let untraced = timed_phase(a.seconds / 4.0, 1, rep)?;
    let traced = timed_phase(a.seconds / 4.0, 1, || {
        spans.record("full_pass_pairs", None, None, rep).1
    })?;
    let mut layers = Layers::new();
    layers.set("peak_rss_mb", procfs::peak_rss_mb()); // before the probes allocate
    layers.setup_costs(&costs);
    layers.machine();
    // Kernels at whole-graph shapes: every layer transforms all `n` rows,
    // every graph layer aggregates over the whole adjacency.
    let (gemm, qgemm) = adapter::model_gemms(reference, |_| n);
    let mut spmm = Kernel::default();
    for li in 0..adapter::n_layers(reference) {
        if let Some(width) = adapter::aggregated_width(reference, li) {
            spmm += adapter::spmm(adj, width);
        }
    }
    layers.kernels(gemm, qgemm, spmm, 1.0);
    let (_, (secs, kmacs)) = spans.record("FullEngine::run", None, None, || {
        adapter::full_run(&engines[0], x)
    });
    layers.set("infer.full.pass_ms", secs * 1e3);
    layers.set("infer.full.kmacs_per_node", kmacs);
    layers.set(
        "infer.full.gflops",
        2.0 * kmacs * 1e3 * n as f64 / secs / 1e9,
    );
    let notes = vec![format!("kernel threads: {nproc}")];
    Ok(layers.outcome(&untraced, &traced, &spans, notes))
}

pub fn run(w: Workload, a: &RunArgs) -> Result<Outcome, String> {
    match w {
        Workload::StreamAccrete => run_stream(a),
        Workload::FullGraph => run_full(a),
        _ => run_serving(w, a),
    }
}
