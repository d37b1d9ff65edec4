//! Subcommand implementations. Each takes parsed [`Args`] and returns a
//! human-readable summary (printed by `main`) or an error string.

use crate::args::Args;
use gcnp_core::{prune_model, PruneMethod, PrunerConfig, Scheme};
use gcnp_datasets::{oversample, parse_spam_factor, Dataset, DatasetKind, Partition};
use gcnp_infer::{
    format_stage_table, serve_multi, serve_sharded, serve_tiered, stage_breakdown, BatchedEngine,
    EngineMetrics, FaultPlan, FeatureStore, FullEngine, LadderPolicy, QuantizedGnn, ServingConfig,
    ServingResult, ShardedStore, StorePolicy,
};
use gcnp_models::{zoo, BranchLayer, GnnModel, Metrics, TrainConfig, Trainer};
use gcnp_obs::MetricsRegistry;
use gcnp_sparse::Normalization;
use gcnp_tensor::Matrix;
use std::fs;
use std::sync::Arc;

fn read_json<T: serde::de::DeserializeOwned>(path: &str, what: &str) -> Result<T, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {what} {path}: {e}"))
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    read_json(path, "dataset")
}

/// A model file, or with `quantized` a file `gcnp quantize` wrote,
/// dequantized to f32 ([`QuantizedGnn::to_model`]) so that it runs exactly
/// the code an f32 model file runs. Refused by name: a model with no layers,
/// a branch weight whose values are not `rows × cols`, and a bias that is
/// not `1 × ` its layer's output width.
fn load_model(path: &str, quantized: bool) -> Result<GnnModel, String> {
    let model = if quantized {
        read_json::<QuantizedGnn>(path, "quantized model")?
            .to_model()
            .map_err(|e| format!("model {path}: {e}"))?
    } else {
        read_json::<GnnModel>(path, "model")?
    };
    if model.layers.is_empty() {
        return Err(format!("model {path} has no layers"));
    }
    for (li, layer) in model.layers.iter().enumerate() {
        for (bi, w) in layer.branches.iter().map(|b| &b.weight).enumerate() {
            if w.rows().checked_mul(w.cols()) != Some(w.len()) {
                return Err(format!(
                    "model {path}: layer {} branch {bi}: a {} × {} weight carries {} values",
                    li + 1,
                    w.rows(),
                    w.cols(),
                    w.len()
                ));
            }
        }
        let out = layer.out_dim();
        if let Some(b) = layer
            .bias
            .as_ref()
            .filter(|b| (b.rows(), b.cols(), b.len()) != (1, out, out))
        {
            return Err(format!(
                "model {path}: layer {}'s bias is {} × {} with {} values, but the layer \
                 outputs {out} channels",
                li + 1,
                b.rows(),
                b.cols(),
                b.len()
            ));
        }
    }
    Ok(model)
}

/// [`load_model`], refused unless its widths fit `data` ([`check_widths`]).
fn load_model_for(path: &str, quantized: bool, data: &Dataset) -> Result<GnnModel, String> {
    let model = load_model(path, quantized)?;
    check_widths(&model.layers, model.jk, data.attr_dim())
        .map_err(|e| format!("model {path}: {e}"))?;
    Ok(model)
}

/// Refuse, before any batched engine is built, a model it cannot serve: a
/// Jumping-Knowledge model (the engine serves one level table at a time
/// and has no JK classifier, which reads every earlier layer's output), or
/// a branch that aggregates more than one hop (the engine expands one hop
/// per layer). Full-graph `eval` serves both.
fn check_batchable(model: &GnnModel, path: &str) -> Result<(), String> {
    if model.jk {
        return Err(format!(
            "model {path}: Jumping-Knowledge (JK) models are not supported by the batched engine \
             (full-graph `eval` serves them)"
        ));
    }
    for (li, layer) in model.layers.iter().enumerate() {
        if let Some((bi, b)) = layer.branches.iter().enumerate().find(|(_, b)| b.k > 1) {
            return Err(format!(
                "model {path}: layer {} branch {bi} aggregates k = {} hops, but the batched \
                 engine serves k ≤ 1 only (full-graph `eval` serves it)",
                li + 1,
                b.k
            ));
        }
    }
    Ok(())
}

/// A branch whose weight reads another number of channels than its layer
/// is fed.
#[derive(Debug, PartialEq)]
struct WidthMismatch {
    /// 1-based layer index.
    layer: usize,
    branch: usize,
    /// The rows of the branch's weight.
    reads: usize,
    /// The dataset's attributes for layer 1, the previous layer's outputs
    /// (all earlier layers' under Jumping Knowledge) after it.
    fed: usize,
}

impl std::fmt::Display for WidthMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let source = match self.layer {
            1 => "the dataset's attributes".to_string(),
            l => format!("layer {}'s outputs", l - 1),
        };
        write!(
            f,
            "layer {} branch {} reads {} input channels but {source} are {} wide",
            self.layer, self.branch, self.reads, self.fed
        )
    }
}

/// Check that layer 1 reads `attr_dim` channels and every later layer as
/// many as the layer before it emits (under Jumping Knowledge, the last
/// layer all earlier layers' outputs), so a model trained or pruned for
/// other data is refused by name instead of failing inside a kernel.
fn check_widths(layers: &[BranchLayer], jk: bool, attr_dim: usize) -> Result<(), WidthMismatch> {
    let mut fed = attr_dim;
    for (li, layer) in layers.iter().enumerate() {
        if jk && li > 0 && li + 1 == layers.len() {
            fed = layers[..li].iter().map(|l| l.out_dim()).sum();
        }
        for (bi, b) in layer.branches.iter().enumerate() {
            if b.in_dim() != fed {
                return Err(WidthMismatch {
                    layer: li + 1,
                    branch: bi,
                    reads: b.in_dim(),
                    fed,
                });
            }
        }
        fed = layer.out_dim();
    }
    Ok(())
}

fn save<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    fs::write(path, json).map_err(|e| format!("write {path}: {e}"))
}

fn dataset_kind(name: &str) -> Result<DatasetKind, String> {
    DatasetKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown dataset {name}; available: {}",
                DatasetKind::ALL.map(|k| k.name()).join(", ")
            )
        })
}

/// `gcnp generate --dataset <name> [--scale f] [--seed n] [--spam-factor n]
///  --out file`
///
/// `--spam-factor n` over-samples the generated graph n× with fresh
/// timestamps (the fig6 spam-stream scaling knob) and shares its parser —
/// and therefore its error messages — with `GCNP_SPAM_FACTOR`.
pub fn generate(args: &Args) -> Result<String, String> {
    args.only(&["dataset", "scale", "seed", "out", "spam-factor"])?;
    let kind = dataset_kind(args.require("dataset")?)?;
    let scale: f64 = args.get_or("scale", 1.0)?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!("--scale must be finite and > 0, got {scale}"));
    }
    let seed: u64 = args.get_or("seed", 42)?;
    let out = args.require("out")?;
    let mut data = kind.generate_scaled(scale, seed);
    if let Some(spec) = args.get("spam-factor") {
        let factor = parse_spam_factor(spec).map_err(|e| format!("--spam-factor: {e}"))?;
        data = oversample(&data, factor, seed);
    }
    save(out, &data)?;
    Ok(format!(
        "wrote {} ({} nodes, {} edges, {} attrs, {} classes) to {out}",
        data.name,
        data.n_nodes(),
        data.adj.nnz(),
        data.attr_dim(),
        data.n_classes()
    ))
}

/// `gcnp train --data file [--hidden n] [--steps n] [--lr f] [--seed n]
///  [--eval-every n] [--patience n] --out file`
pub fn train(args: &Args) -> Result<String, String> {
    args.only(&[
        "data",
        "hidden",
        "seed",
        "steps",
        "lr",
        "eval-every",
        "patience",
        "out",
    ])?;
    let hidden: usize = args.get_or("hidden", 128)?;
    if hidden == 0 {
        return Err("--hidden must be at least 1".into());
    }
    let data = load_dataset(args.require("data")?)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let cfg = TrainConfig {
        steps: args.get_or("steps", 200)?,
        lr: args.get_or("lr", 0.01)?,
        eval_every: args.get_or("eval-every", 15)?,
        patience: args.get_or("patience", 5)?,
        seed,
        ..Default::default()
    };
    let out = args.require("out")?;
    let mut model = zoo::graphsage(data.attr_dim(), hidden, data.n_classes(), seed);
    let stats = Trainer::train_saint(&mut model, &data, &cfg);
    save(out, &model)?;
    Ok(format!(
        "trained GraphSAGE({hidden}) for {} steps in {:.1}s, val F1 {:.3}; model -> {out}",
        stats.steps_run, stats.seconds, stats.best_val_f1
    ))
}

/// `gcnp prune --data file --model file --budget f [--scheme full|batched]
///  [--method lasso|maxres|random] [--seed n] [--retrain] --out file`
pub fn prune(args: &Args) -> Result<String, String> {
    args.only(&[
        "data", "model", "budget", "scheme", "method", "seed", "retrain", "out",
    ])?;
    let budget: f32 = args.get_or("budget", 0.25)?;
    if !(budget > 0.0 && budget <= 1.0) {
        return Err(format!("--budget must be in (0, 1], got {budget}"));
    }
    let data = load_dataset(args.require("data")?)?;
    let model = load_model_for(args.require("model")?, false, &data)?;
    let scheme = match args.get("scheme").unwrap_or("full") {
        "full" => Scheme::FullInference,
        "batched" => Scheme::BatchedInference,
        other => return Err(format!("unknown scheme {other} (full|batched)")),
    };
    let method = match args.get("method").unwrap_or("lasso") {
        "lasso" => PruneMethod::Lasso,
        "maxres" => PruneMethod::MaxResponse,
        "random" => PruneMethod::Random,
        other => return Err(format!("unknown method {other} (lasso|maxres|random)")),
    };
    let out = args.require("out")?;
    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);
    let cfg = PrunerConfig {
        method,
        seed: args.get_or("seed", 0)?,
        ..Default::default()
    };
    let (mut pruned, report) = prune_model(&model, &tadj, &tx, budget, scheme, &cfg);
    let mut msg = format!(
        "pruned {:?}/{:?} @ budget {budget}: {} -> {} weights in {:.1}s",
        scheme, method, report.weights_before, report.weights_after, report.seconds
    );
    if args.has("retrain") {
        let tcfg = TrainConfig {
            seed: args.get_or("seed", 0)?,
            ..Default::default()
        };
        let stats = Trainer::train_saint(&mut pruned, &data, &tcfg);
        msg.push_str(&format!(
            "; retrained to val F1 {:.3} in {:.1}s",
            stats.best_val_f1, stats.seconds
        ));
    }
    save(out, &pruned)?;
    msg.push_str(&format!("; model -> {out}"));
    Ok(msg)
}

/// `gcnp quantize --model file --out file`
pub fn quantize(args: &Args) -> Result<String, String> {
    args.only(&["model", "out"])?;
    let path = args.require("model")?;
    let model = load_model(path, false)?;
    let out = args.require("out")?;
    let q = QuantizedGnn::try_from_model(&model).map_err(|e| format!("model {path}: {e}"))?;
    save(out, &q)?;
    Ok(format!(
        "quantized to int8: {} weight bytes ({} f32); model -> {out}",
        q.weight_bytes(),
        model.n_weights() * 4
    ))
}

/// The paper's offline store fill: hidden features of the train +
/// validation nodes from one full-graph pass, handed row by row to `put` —
/// a single store's, or a sharded store's (which routes each row to its
/// owner shard).
fn prewarm(
    model: &GnnModel,
    data: &Dataset,
    put: impl Fn(usize, usize, &[f32]) -> ServingResult<()>,
) -> Result<(), String> {
    let adj = data.adj.normalized(Normalization::Row);
    let hs = FullEngine::new(model, Some(&adj)).hidden(&data.features);
    for level in 1..model.n_layers() {
        for &v in data.train.iter().chain(&data.val) {
            put(level, v, hs[level - 1].row(v)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `gcnp eval --data file --model file [--batched] [--store] [--batch n]
///  [--cap n] [--seed n] [--quantized]`
///
/// `--quantized` reads a file `gcnp quantize` wrote: it is dequantized at
/// load and then evaluated like any model file, batched or not.
pub fn eval(args: &Args) -> Result<String, String> {
    args.only(&[
        "data",
        "model",
        "batched",
        "store",
        "batch",
        "cap",
        "seed",
        "quantized",
    ])?;
    let batch: usize = args.get_or("batch", 512)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let data = load_dataset(args.require("data")?)?;
    let model_path = args.require("model")?;
    let quantized = args.has("quantized");
    let model = load_model_for(model_path, quantized, &data)?;
    let kind = if quantized { "quantized " } else { "" };
    if !args.has("batched") {
        let adj = data.adj.normalized(Normalization::Row);
        let engine = FullEngine::new(&model, Some(&adj));
        let res = engine.run(&data.features, 1, 3);
        let f1 = Metrics::f1_micro_full(&res.logits, &data.labels, &data.test);
        return Ok(format!(
            "{kind}full inference: test F1 {f1:.3}, {:.0} kMACs/node, {:.1} MB, {:.2} kN/s",
            res.kmacs_per_node,
            res.memory_bytes as f64 / 1e6,
            res.throughput / 1e3
        ));
    }
    // Batched path.
    check_batchable(&model, model_path)?;
    let store_holder = FeatureStore::new(data.n_nodes(), model.n_layers() - 1);
    let store = if args.has("store") {
        prewarm(&model, &data, |level, v, row| {
            store_holder.put(level, v, row)
        })?;
        Some(&store_holder)
    } else {
        None
    };
    let mut engine = BatchedEngine::new(
        &model,
        &data.adj,
        &data.features,
        vec![None, Some(args.get_or("cap", 32)?)],
        store,
        if store.is_some() {
            StorePolicy::Roots
        } else {
            StorePolicy::None
        },
        args.get_or("seed", 0)?,
    );
    let mut lat = Vec::new();
    let mut macs = 0u64;
    let mut preds: Vec<(usize, Vec<f32>)> = Vec::new();
    for chunk in data.test.chunks(batch) {
        let res = engine.infer(chunk);
        lat.push(res.seconds * 1e3);
        macs += res.macs;
        for (i, &t) in res.targets.iter().enumerate() {
            preds.push((t, res.logits.row(i).to_vec()));
        }
    }
    let idx: Vec<usize> = preds.iter().map(|(t, _)| *t).collect();
    let mut logits = Matrix::zeros(preds.len(), data.n_classes());
    for (r, (_, row)) in preds.iter().enumerate() {
        logits.row_mut(r).copy_from_slice(row);
    }
    let f1 = Metrics::f1_micro(&logits, &data.labels, &idx);
    lat.sort_by(f64::total_cmp);
    let median_ms = lat.get(lat.len() / 2).copied().unwrap_or(0.0);
    Ok(format!(
        "{kind}batched inference (batch {batch}{}): test F1 {f1:.3}, {:.0} kMACs/target, median {:.1} ms/batch",
        if store.is_some() { ", w/ store" } else { "" },
        macs as f64 / data.test.len() as f64 / 1e3,
        median_ms
    ))
}

/// Persist a metrics snapshot: JSON exposition to `path`, Prometheus text
/// to `path.prom`. Returns the epilogue appended to the serve summary
/// (file locations plus the engine stage-breakdown table, when any stage
/// histograms recorded samples).
fn write_metrics(path: &str, registry: &Arc<MetricsRegistry>) -> Result<String, String> {
    let snap = registry.snapshot();
    fs::write(path, snap.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    let prom = format!("{path}.prom");
    fs::write(&prom, snap.to_prometheus()).map_err(|e| format!("write {prom}: {e}"))?;
    let stages = stage_breakdown(&snap);
    let mut msg = format!("\nmetrics -> {path} (+ {prom})");
    if !stages.is_empty() {
        msg.push('\n');
        msg.push_str(&format_stage_table(&stages));
    }
    Ok(msg)
}

/// `gcnp serve --data file --model file [--rate f] [--requests n]
///  [--max-batch n] [--max-wait-ms f] [--store] [--workers n]
///  [--deadline-ms f] [--queue-cap n] [--retry-cap n] [--faults spec]
///  [--watchdog-ms f] [--ladder] [--shards n] [--pace] [--seed n]
///  [--metrics-out file]`
///
/// Every run is the fleet executor, and every worker a two-stage pair
/// (batch N+1's aggregation overlaps batch N's GEMMs). `--workers n`
/// replicas (default 1) share one feature store; worker panics are
/// recovered and counted. The summary reports served requests per
/// wall-clock second, p50 / p99 latency and the stage threads' busy share
/// (occupancy). `--pace` replays the arrival trace in real time so the
/// percentiles are wall-clock meaningful. `--faults` injects a
/// deterministic chaos schedule (see [`gcnp_infer::FaultPlan::parse`]),
/// `--deadline-ms`/`--queue-cap` turn on deadline and admission shedding,
/// and `--watchdog-ms f` arms the supervisor: a batch busy longer than
/// `f` ms is stolen and requeued, and its stage pair respawned.
///
/// `--ladder` (one worker, no shards) serves through a full → pruned-2x →
/// pruned-4x ladder via `serve_tiered`, one f32 engine per tier; with
/// `--store` each tier reads its own store, pre-warmed from its own model.
/// `--shards n` (n > 1, exclusive with `--workers`) hash-partitions the
/// graph (plus two greedy edge-cut refinement passes), gives each shard
/// its own feature-store slice and worker, and routes every request to its
/// target's owner shard via `serve_sharded`; `--store` pre-warm rows go to
/// their owner shards.
///
/// `--metrics-out file` attaches a `gcnp-obs` registry to the engines and
/// store, writes the end-of-run snapshot as JSON to `file` and Prometheus
/// text to `file.prom` (with shards: router traffic `shard.remote.*` and
/// residency gauges `store.shard{i}.resident_rows`), and appends a
/// per-stage engine timing table to the summary.
pub fn serve(args: &Args) -> Result<String, String> {
    // Validate the options and the chaos spec before any file I/O so typos
    // fail instantly.
    args.only(&[
        "data",
        "model",
        "rate",
        "requests",
        "max-batch",
        "max-wait-ms",
        "store",
        "workers",
        "deadline-ms",
        "queue-cap",
        "retry-cap",
        "faults",
        "watchdog-ms",
        "ladder",
        "shards",
        "pace",
        "seed",
        "metrics-out",
    ])?;
    let faults = match args.get("faults") {
        None => None,
        Some(spec) => Some(
            FaultPlan::parse(spec)
                .and_then(|p| p.build())
                .map_err(|e| e.to_string())?,
        ),
    };
    let shards: usize = args.get_or("shards", 1)?;
    let workers: usize = args.get_or("workers", 1)?;
    if shards == 0 || workers == 0 {
        let flag = if shards == 0 { "--shards" } else { "--workers" };
        return Err(format!("{flag} must be at least 1"));
    }
    if shards > 1 && workers > 1 {
        return Err(
            "--shards and --workers are mutually exclusive: each shard owns one worker".into(),
        );
    }
    let n_fleet = shards.max(workers);
    let ladder = args.has("ladder");
    if ladder && n_fleet > 1 {
        return Err("--ladder is one server switching models: no --workers/--shards".into());
    }
    let data = load_dataset(args.require("data")?)?;
    let model_path = args.require("model")?;
    let model = load_model_for(model_path, false, &data)?;
    check_batchable(&model, model_path)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let cfg = ServingConfig {
        arrival_rate: args.get_or("rate", 500.0)?,
        max_batch: args.get_or("max-batch", 64)?,
        max_wait: args.get_or::<f64>("max-wait-ms", 20.0)? / 1e3,
        n_requests: args.get_or("requests", 1000)?,
        seed,
        deadline: args.get_opt::<f64>("deadline-ms")?.map(|ms| ms / 1e3),
        queue_cap: args.get_opt("queue-cap")?,
        retry_cap: args.get_or("retry-cap", 3)?,
        pace: args.has("pace"),
        watchdog: args.get_opt::<f64>("watchdog-ms")?.map(|ms| ms / 1e3),
    };
    // One registry shared by every engine replica / tier and the store.
    let metrics = args
        .get("metrics-out")
        .map(|p| (p.to_string(), Arc::new(MetricsRegistry::new())));

    // A fleet (one replica per worker, or one engine per shard) serves the
    // model as is; a ladder builds its tiers from successively heavier
    // batched-scheme pruning of it.
    let tier_models: Vec<GnnModel> = if ladder {
        let (tadj, tnodes) = data.train_adj();
        let tadj = tadj.normalized(Normalization::Row);
        let tx = data.features.gather_rows(&tnodes);
        let pcfg = PrunerConfig {
            beta_epochs: 10,
            w_epochs: 10,
            batch_size: 128,
            seed,
            ..Default::default()
        };
        [0.5f32, 0.25]
            .iter()
            .map(|&b| prune_model(&model, &tadj, &tx, b, Scheme::BatchedInference, &pcfg).0)
            .collect()
    } else {
        vec![]
    };
    // The model each engine serves: the fleet's replicas, then the ladder's
    // pruned tiers.
    let mut specs: Vec<&GnnModel> = vec![&model; n_fleet];
    specs.extend(&tier_models);

    // The stores: one per shard behind a partition, or one the fleet's
    // replicas share. Stored rows are one model's features, so each ladder
    // tier reads its own, pre-warmed from its own model.
    let n_levels = model.n_layers() - 1;
    let part = (shards > 1).then(|| {
        let mut part = Partition::hash(data.n_nodes(), shards, seed);
        let moved = part.refine_greedy(&data.adj, 2);
        (part, moved)
    });
    let sharded = part
        .as_ref()
        .map(|(part, _)| ShardedStore::new(&part.assign, shards, n_levels));
    let n_single = if !args.has("store") || sharded.is_some() {
        0
    } else if ladder {
        specs.len()
    } else {
        1
    };
    let singles: Vec<FeatureStore> = (0..n_single)
        .map(|_| FeatureStore::new(data.n_nodes(), n_levels))
        .collect();
    let policy = if args.has("store") {
        if let Some(s) = &sharded {
            prewarm(&model, &data, |level, v, row| s.put(level, v, row))?;
        }
        for (s, m) in singles.iter().zip(&specs) {
            prewarm(m, &data, |level, v, row| s.put(level, v, row))?;
        }
        StorePolicy::Roots
    } else {
        StorePolicy::None
    };
    if let Some((_, reg)) = &metrics {
        if let Some(s) = &sharded {
            s.attach_metrics(reg);
        }
        for s in &singles {
            s.attach_metrics(reg);
        }
    }

    let mut engines: Vec<BatchedEngine<'_>> = specs
        .into_iter()
        .enumerate()
        .map(|(k, m)| {
            let caps = vec![None, Some(32)];
            // Fleet replicas sample with distinct seeds; ladder rungs share one.
            let seed = if n_fleet > 1 { seed ^ k as u64 } else { seed };
            let (adj, x) = (&data.adj, &data.features);
            let mut e = match &sharded {
                Some(s) => BatchedEngine::new_sharded(m, adj, x, caps, s, k, policy, seed),
                None => {
                    let store = singles.get(if ladder { k } else { 0 });
                    BatchedEngine::new(m, adj, x, caps, store, policy, seed)
                }
            };
            if let Some(inj) = &faults {
                e.set_faults(Arc::clone(inj));
            }
            if let Some((_, reg)) = &metrics {
                e.set_metrics(EngineMetrics::new(reg));
            }
            e
        })
        .collect();

    let n_engines = engines.len();
    let (rep, fleet) = match &part {
        Some((part, moved)) => (
            serve_sharded(&mut engines, &part.assign, &data.test, &cfg),
            format!(
                "{shards} shards ({moved} nodes moved by refinement, edge cut {})",
                part.edge_cut(&data.adj)
            ),
        ),
        None if ladder => (
            serve_tiered(&mut engines, &data.test, &cfg, &LadderPolicy::default()),
            format!("{n_engines} ladder tiers"),
        ),
        None => (
            serve_multi(&mut engines, &data.test, &cfg),
            format!(
                "{n_engines} worker{}",
                if n_engines == 1 { "" } else { "s" }
            ),
        ),
    };
    let rep = rep.map_err(|e| e.to_string())?;
    let mut msg = format!(
        "served {}/{} requests in {} batches (mean size {:.1}) on {fleet}: {:.0} req/s wall-clock, p50 {:.1} ms, p99 {:.1} ms, occupancy {:.2}",
        rep.served,
        rep.n_requests,
        rep.n_batches,
        rep.mean_batch_size,
        rep.throughput,
        rep.p50_ms,
        rep.p99_ms,
        rep.pipeline_occupancy
    );
    if rep.shed_queue + rep.shed_deadline + rep.deadline_misses > 0 {
        msg.push_str(&format!(
            "; shed {} at admission + {} past deadline, {} served late",
            rep.shed_queue, rep.shed_deadline, rep.deadline_misses
        ));
    }
    if rep.shed + rep.recoveries + rep.failures + rep.retries > 0 {
        msg.push_str(&format!(
            "; shed {}, recovered {} panics ({} workers lost), {} clean failures, {} retries",
            rep.shed, rep.recoveries, rep.workers_lost, rep.failures, rep.retries
        ));
    }
    if rep.watchdog_restarts > 0 {
        msg.push_str(&format!(
            "; supervisor: {} watchdog restarts",
            rep.watchdog_restarts
        ));
    }
    if ladder {
        msg.push_str(&format!(
            "; ladder traffic {:?} across {} switches",
            rep.group_served, rep.tier_switches
        ));
    }
    if let Some((path, reg)) = &metrics {
        if let Some(s) = &sharded {
            s.refresh_gauges();
        }
        msg.push_str(&write_metrics(path, reg)?);
    }
    Ok(msg)
}

/// Dispatch a parsed command line.
pub fn run(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "generate" => generate(args),
        "train" => train(args),
        "prune" => prune(args),
        "quantize" => quantize(args),
        "eval" => eval(args),
        "serve" => serve(args),
        other => Err(format!(
            "unknown command {other}; available: generate, train, prune, quantize, eval, serve"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    /// `json` with the first `key` array (of numbers) cut to its first
    /// `keep` entries.
    fn cut_first_array(json: &str, key: &str, keep: usize) -> String {
        let tag = format!("\"{key}\":[");
        let open = json.find(&tag).unwrap() + tag.len();
        let close = open + json[open..].find(']').unwrap();
        let kept: Vec<&str> = json[open..close].split(',').take(keep).collect();
        format!("{}{}{}", &json[..open], kept.join(","), &json[close..])
    }

    #[test]
    fn pipeline_generate_train_prune_eval_serve() {
        let dir = std::env::temp_dir().join("gcnp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.join("d.json").display().to_string();
        let m = dir.join("m.json").display().to_string();
        let p = dir.join("p.json").display().to_string();
        let q = dir.join("q.json").display().to_string();

        let msg = run(&parse(&format!(
            "generate --dataset yelpchi-sim --scale 0.05 --seed 1 --out {d}"
        )))
        .unwrap();
        assert!(msg.contains("yelpchi-sim"));

        let msg = run(&parse(&format!(
            "train --data {d} --hidden 16 --steps 30 --eval-every 10 --out {m}"
        )))
        .unwrap();
        assert!(msg.contains("val F1"));

        let msg = run(&parse(&format!(
            "prune --data {d} --model {m} --budget 0.5 --scheme batched --out {p}"
        )))
        .unwrap();
        assert!(msg.contains("weights"));

        let msg = run(&parse(&format!("eval --data {d} --model {p}"))).unwrap();
        assert!(msg.contains("test F1"));
        let msg = run(&parse(&format!(
            "eval --data {d} --model {p} --batched --store"
        )))
        .unwrap();
        assert!(msg.contains("w/ store"));

        let msg = run(&parse(&format!("quantize --model {p} --out {q}"))).unwrap();
        assert!(msg.contains("int8"));
        let msg = run(&parse(&format!("eval --data {d} --model {q} --quantized"))).unwrap();
        assert!(msg.contains("quantized full inference: test F1"), "{msg}");
        let msg = run(&parse(&format!(
            "eval --data {d} --model {q} --quantized --batched --store"
        )))
        .unwrap();
        assert!(msg.contains("quantized batched inference"), "{msg}");
        assert!(msg.contains("w/ store"), "{msg}");

        let mx = dir.join("metrics.json").display().to_string();
        let msg = run(&parse(&format!(
            "serve --data {d} --model {p} --requests 50 --rate 200 --store --metrics-out {mx}"
        )))
        .unwrap();
        assert!(msg.contains("p99"));
        assert!(msg.contains("metrics ->"), "{msg}");
        let json = std::fs::read_to_string(&mx).unwrap();
        let prom = std::fs::read_to_string(format!("{mx}.prom")).unwrap();
        if gcnp_obs::enabled() {
            // The snapshot carries engine stage timings, store counters and
            // serving counters; the summary ends with the stage table.
            assert!(json.contains("\"engine.batches\""), "{json}");
            assert!(json.contains("\"engine.stage.spmm.seconds\""), "{json}");
            assert!(json.contains("\"serving.served\""), "{json}");
            assert!(json.contains("\"store.hit.l1\""), "{json}");
            assert!(prom.contains("engine_batch_seconds_bucket"), "{prom}");
            assert!(prom.contains("serving_served"), "{prom}");
            assert!(msg.contains("spmm"), "{msg}");
        }

        // Overload with a deadline and a bounded queue: the report accounts
        // for shedding instead of pretending everything was served on time.
        let msg = run(&parse(&format!(
            "serve --data {d} --model {p} --requests 60 --rate 50000 --max-batch 8 \
             --deadline-ms 5 --queue-cap 24"
        )))
        .unwrap();
        assert!(msg.contains("p99"));

        // Chaos flags: one injected panic on two workers is recovered, not
        // fatal (retry cap covers it, so every request is still served).
        let mw = dir.join("metrics_multi.json").display().to_string();
        let msg = run(&parse(&format!(
            "serve --data {d} --model {p} --requests 60 --workers 2 \
             --faults panics=1,stragglers=2,horizon=6,seed=3 --metrics-out {mw}"
        )))
        .unwrap();
        assert!(msg.contains("served 60/60"), "{msg}");
        assert!(msg.contains("recovered 1 panics"), "{msg}");
        let json = std::fs::read_to_string(&mw).unwrap();
        if gcnp_obs::enabled() {
            assert!(json.contains("\"serving.recoveries\""), "{json}");
        }

        // Supervision flags: a 400 ms stage stall under a 50 ms watchdog is
        // stolen and re-served — the summary reports the restart and the
        // run stays lossless.
        let msg = run(&parse(&format!(
            "serve --data {d} --model {p} --requests 60 --workers 2 \
             --watchdog-ms 50 --faults stalls=1,stall-ms=400,horizon=1,seed=5"
        )))
        .unwrap();
        assert!(msg.contains("served 60/60"), "{msg}");
        assert!(msg.contains("watchdog restarts"), "{msg}");

        // One worker runs the same fleet, paced and supervised.
        let msg = run(&parse(&format!(
            "serve --data {d} --model {p} --requests 40 --rate 2000 --pace \
             --watchdog-ms 500"
        )))
        .unwrap();
        assert!(msg.contains("served 40/40"), "{msg}");
        assert!(msg.contains("on 1 worker:"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ladder_serve_reports_tier_traffic() {
        let dir = std::env::temp_dir().join("gcnp_cli_ladder_test");
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.join("d.json").display().to_string();
        let m = dir.join("m.json").display().to_string();
        run(&parse(&format!(
            "generate --dataset yelpchi-sim --scale 0.05 --seed 2 --out {d}"
        )))
        .unwrap();
        run(&parse(&format!(
            "train --data {d} --hidden 16 --steps 20 --eval-every 10 --out {m}"
        )))
        .unwrap();
        let msg = run(&parse(&format!(
            "serve --data {d} --model {m} --requests 60 --rate 20000 --max-batch 8 --ladder"
        )))
        .unwrap();
        // Three f32 tiers: the full model, then 2x- and 4x-pruned.
        assert!(msg.contains("on 3 ladder tiers"), "{msg}");
        let traffic = msg
            .split("ladder traffic [")
            .nth(1)
            .and_then(|t| t.split(']').next());
        assert_eq!(traffic.map(|t| t.split(", ").count()), Some(3), "{msg}");
        // Under overload with a store, the pruned tiers serve too: each
        // reads rows of its own width, so no batch fails on a store row
        // the full model wrote.
        let msg = run(&parse(&format!(
            "serve --data {d} --model {m} --requests 400 --rate 200000 --max-batch 8 \
             --ladder --store"
        )))
        .unwrap();
        assert!(msg.contains("served 400/400"), "{msg}");
        assert!(!msg.contains("clean failures"), "{msg}");
        // Everything was served, so traffic off tier 0 is pruned traffic.
        assert!(msg.contains("ladder traffic ["), "{msg}");
        assert!(!msg.contains("ladder traffic [400,"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_serve_and_spam_factor_flags() {
        let dir = std::env::temp_dir().join("gcnp_cli_shard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.join("d.json").display().to_string();
        let m = dir.join("m.json").display().to_string();
        let msg = run(&parse(&format!(
            "generate --dataset yelpchi-sim --scale 0.05 --spam-factor 2 --seed 3 --out {d}"
        )))
        .unwrap();
        assert!(msg.contains("400 nodes"), "oversampled 2x: {msg}");
        run(&parse(&format!(
            "train --data {d} --hidden 16 --steps 20 --eval-every 10 --out {m}"
        )))
        .unwrap();

        let mx = dir.join("metrics_sharded.json").display().to_string();
        let msg = run(&parse(&format!(
            "serve --data {d} --model {m} --requests 60 --rate 20000 --max-batch 8 \
             --shards 2 --store --metrics-out {mx}"
        )))
        .unwrap();
        assert!(msg.contains("served 60/60"), "{msg}");
        assert!(msg.contains("on 2 shards"), "{msg}");
        if gcnp_obs::enabled() {
            let json = std::fs::read_to_string(&mx).unwrap();
            assert!(json.contains("\"shard.remote.requests\""), "{json}");
            assert!(json.contains("\"store.shard0.resident_rows\""), "{json}");
            assert!(json.contains("\"store.shard1.resident_rows\""), "{json}");
        }

        // Typed flag errors: a spam-factor typo aborts instead of silently
        // generating the un-scaled graph, and shards/workers don't compose.
        assert!(run(&parse(&format!(
            "generate --dataset yelpchi-sim --spam-factor 1O0 --out {d}"
        )))
        .is_err());
        assert!(run(&parse(&format!(
            "serve --data {d} --model {m} --requests 10 --shards 2 --workers 2"
        )))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_and_bad_inputs() {
        assert!(run(&parse("frobnicate")).is_err());
        assert!(
            run(&parse(
                "serve --data x.json --model y.json --faults frobs=1"
            ))
            .is_err(),
            "bad fault spec is rejected before any file I/O matters"
        );
        // A ladder is one server switching models: with a multi-worker or
        // sharded fleet it is refused by name, not silently ignored.
        for fleet in ["--workers 2", "--shards 2"] {
            let err = run(&parse(&format!(
                "serve --data x.json --model y.json --ladder {fleet}"
            )))
            .unwrap_err();
            assert!(err.contains("--ladder"), "{fleet}: {err}");
        }
        // One worker is a fleet too: its pacing and supervision flags pass
        // validation, and the run fails only on the missing data file.
        for flag in ["--pace", "--watchdog-ms 50"] {
            let err = run(&parse(&format!(
                "serve --data x.json --model y.json {flag}"
            )))
            .unwrap_err();
            assert!(err.contains("read x.json"), "{flag}: {err}");
        }
        // An option the command does not read is refused by name before
        // any file I/O — a removed flag and a typo alike.
        for (flag, name) in [
            ("--hedge 4", "--hedge"),
            ("--watchdg-ms 50", "--watchdg-ms"),
        ] {
            let err = run(&parse(&format!(
                "serve --data x.json --model y.json {flag}"
            )))
            .unwrap_err();
            assert!(
                err.contains(name) && !err.contains("read x.json"),
                "{flag}: {err}"
            );
        }
        // A value no run can use is refused by name before any file I/O:
        // a pruning budget outside (0, 1] and an empty evaluation batch
        // (both panicked inside the work they started).
        for (cmd, name) in [
            ("prune --budget 0 --out z.json", "--budget"),
            ("prune --budget 1.5 --out z.json", "--budget"),
            ("prune --budget nan --out z.json", "--budget"),
            ("eval --batched --batch 0", "--batch"),
            ("serve --workers 0", "--workers"),
            ("serve --shards 0", "--shards"),
        ] {
            let (cmd, rest) = cmd.split_once(' ').unwrap();
            let err = run(&parse(&format!(
                "{cmd} --data x.json --model y.json {rest}"
            )))
            .unwrap_err();
            assert!(
                err.contains(name) && !err.contains("read x.json"),
                "{cmd} {rest}: {err}"
            );
        }
        let err = run(&parse("train --data x.json --hidden 0 --out z.json")).unwrap_err();
        assert!(
            err.contains("--hidden") && !err.contains("read x.json"),
            "{err}"
        );
        // A scale that names no graph is refused, not clamped to a toy one.
        let toy = std::env::temp_dir().join("gcnp_cli_bad_scale_test.json");
        for scale in ["0", "-1", "nan", "inf"] {
            let err = run(&parse(&format!(
                "generate --dataset flickr-sim --scale {scale} --out {}",
                toy.display()
            )))
            .unwrap_err();
            assert!(err.contains("--scale"), "{scale}: {err}");
            assert!(!toy.exists(), "{scale}: nothing is written");
        }
        // A model whose widths do not fit the data — here layer 1's
        // neighbour branch reads 2 channels, the shape a pruned file from
        // before pruned models were compact loads as — is refused by name,
        // with both widths, by every command that runs it on the data.
        let dir = std::env::temp_dir().join("gcnp_cli_bad_inputs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.join("d.json").display().to_string();
        let m = dir.join("m.json").display().to_string();
        run(&parse(&format!(
            "generate --dataset yelpchi-sim --scale 0.05 --seed 2 --out {d}"
        )))
        .unwrap();
        let attr_dim = load_dataset(&d).unwrap().attr_dim();
        let mut narrow = zoo::graphsage(attr_dim, 16, 2, 1);
        let b = &mut narrow.layers[0].branches[1];
        b.weight = b.weight.select_rows(&[0, 1]);
        save(&m, &narrow).unwrap();
        let want = format!("layer 1 branch 1 reads 2 input channels but the dataset's attributes are {attr_dim} wide");
        for cmd in [
            "serve --requests 10 --ladder",
            "serve --requests 10",
            "eval",
            "eval --batched",
            "prune --out",
        ] {
            let (name, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
            let rest = rest.replace("--out", &format!("--out {m}.pruned"));
            let err = run(&parse(&format!("{name} --data {d} --model {m} {rest}"))).unwrap_err();
            assert!(err.contains(&want), "{cmd}: {err}");
        }
        // A quantized file is dequantized at load and checked like any
        // model file, batched or not.
        let q = format!("{m}.int8");
        run(&parse(&format!("quantize --model {m} --out {q}"))).unwrap();
        for flags in ["--quantized", "--quantized --batched"] {
            let err = run(&parse(&format!("eval --data {d} --model {q} {flags}"))).unwrap_err();
            assert!(err.contains(&want), "eval {flags}: {err}");
        }
        // Each later layer must read what the one before it emits.
        let mut inner = zoo::graphsage(attr_dim, 16, 2, 1);
        let b = &mut inner.layers[1].branches[0];
        b.weight = b.weight.select_rows(&[0, 1, 2]);
        assert_eq!(
            check_widths(&inner.layers, inner.jk, attr_dim)
                .unwrap_err()
                .to_string(),
            "layer 2 branch 0 reads 3 input channels but layer 1's outputs are 16 wide"
        );
        let jk = zoo::jk(attr_dim, 16, 2, 1);
        assert_eq!(check_widths(&jk.layers, jk.jk, attr_dim), Ok(()));
        // A well-formed Jumping-Knowledge model: full inference serves it;
        // the batched engine and the int8 model do not, and each command
        // that would build one refuses it by name instead of panicking.
        let j = format!("{m}.jk");
        save(&j, &jk).unwrap();
        let msg = run(&parse(&format!("eval --data {d} --model {j}"))).unwrap();
        assert!(msg.contains("full inference"), "{msg}");
        for cmd in [
            format!("eval --data {d} --model {j} --batched"),
            format!("serve --data {d} --model {j} --requests 100"),
            format!("quantize --model {j} --out {j}.int8"),
        ] {
            let err = run(&parse(&cmd)).unwrap_err();
            assert!(err.contains("Jumping-Knowledge (JK)"), "{cmd}: {err}");
        }
        // A branch aggregating two hops: full inference serves it; the
        // batched engine, which expands one hop per layer, is never built
        // for it.
        let mut two_hop = zoo::graphsage(attr_dim, 16, 2, 1);
        two_hop.layers[0].branches[1].k = 2;
        let k2 = format!("{m}.k2");
        save(&k2, &two_hop).unwrap();
        let msg = run(&parse(&format!("eval --data {d} --model {k2}"))).unwrap();
        assert!(msg.contains("full inference"), "{msg}");
        for cmd in ["eval --batched", "serve --requests 50"] {
            let (name, rest) = cmd.split_once(' ').unwrap();
            let err = run(&parse(&format!("{name} --data {d} --model {k2} {rest}"))).unwrap_err();
            assert!(
                err.contains("layer 1 branch 1 aggregates k = 2 hops"),
                "{cmd}: {err}"
            );
        }
        // A model without layers is refused by name by every command that
        // loads one, and a quantized file without layers too.
        let e = format!("{m}.empty");
        save(&e, &GnnModel::new(vec![])).unwrap();
        for cmd in [
            format!("eval --data {d} --model {e}"),
            format!("eval --data {d} --model {e} --batched"),
            format!("serve --data {d} --model {e} --requests 50"),
            format!("quantize --model {e} --out {e}.int8"),
        ] {
            let err = run(&parse(&cmd)).unwrap_err();
            assert!(
                err.contains(&format!("model {e} has no layers")),
                "{cmd}: {err}"
            );
        }
        assert!(!std::path::Path::new(&format!("{e}.int8")).exists());
        fs::write(&e, r#"{"layers":[]}"#).unwrap();
        let err = run(&parse(&format!("eval --data {d} --model {e} --quantized"))).unwrap_err();
        assert!(err.contains("the model has no layers"), "{err}");
        // A quantized weight whose values or scales were cut short is
        // refused by layer and branch instead of panicking or serving.
        let good = zoo::graphsage(attr_dim, 16, 2, 1);
        save(&m, &good).unwrap();
        run(&parse(&format!("quantize --model {m} --out {q}"))).unwrap();
        let text = fs::read_to_string(&q).unwrap();
        for (key, keep, what) in [
            ("data", 10, "carries 10 values"),
            ("scales", 2, "and 2 scales"),
        ] {
            fs::write(&q, cut_first_array(&text, key, keep)).unwrap();
            let err = run(&parse(&format!("eval --data {d} --model {q} --quantized"))).unwrap_err();
            assert!(
                err.contains("layer 1 branch 0: a ") && err.contains(what),
                "{key}: {err}"
            );
        }
        // A non-finite admission window is refused by the serving config:
        // with it no arrival is ever past a window's close.
        for wait in ["nan", "inf"] {
            let cmd = format!("serve --data {d} --model {m} --requests 50 --max-wait-ms {wait}");
            let err = run(&parse(&cmd)).unwrap_err();
            assert!(err.contains("max_wait must be"), "{wait}: {err}");
        }
        // So is an f32 weight cut short, and a bias narrower than its
        // layer's output, by every command that runs the model (they
        // panicked in a kernel, or served on with a dead worker).
        save(&m, &good).unwrap();
        let text = fs::read_to_string(&m).unwrap();
        fs::write(&m, cut_first_array(&text, "data", 10)).unwrap();
        let w = &good.layers[0].branches[0].weight;
        let out = good.layers[0].out_dim();
        let mut narrow_bias = good.clone();
        let keep: Vec<usize> = (0..out - 2).collect();
        narrow_bias.layers[0].bias = Some(Matrix::zeros(1, out).select_cols(&keep));
        let nb = format!("{m}.bias");
        save(&nb, &narrow_bias).unwrap();
        let (rows, cols, narrow) = (w.rows(), w.cols(), out - 2);
        for (file, want) in [
            (
                &m,
                format!("layer 1 branch 0: a {rows} × {cols} weight carries 10 values"),
            ),
            (
                &nb,
                format!(
                    "layer 1's bias is 1 × {narrow} with {narrow} values, but the layer \
                     outputs {out} channels"
                ),
            ),
        ] {
            for cmd in ["eval", "eval --batched", "serve --requests 50"] {
                let (name, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
                let err =
                    run(&parse(&format!("{name} --data {d} --model {file} {rest}"))).unwrap_err();
                assert!(err.contains(&want), "{cmd} {file}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(run(&parse("generate --dataset nope --out /tmp/x.json")).is_err());
        assert!(run(&parse(
            "prune --data missing.json --model also-missing.json --out /tmp/x"
        ))
        .is_err());
        assert!(run(&parse("eval --data missing.json --model missing.json")).is_err());
    }
}
