//! Table 4: pruned **batched inference** (batch 512, hop-2 fan-out 32) on
//! Arxiv/Reddit/Yelp/Products-sim — F1-Micro, measured #kMACs/node,
//! per-batch memory, latency and improvement, with and without the stored
//! hidden features.
//!
//! Each row's latency is the median over [`REPS`] repetitions, run with and
//! without the store alternately (a fresh engine each time, and a freshly
//! built store for every repetition with it, because `StorePolicy::Roots`
//! writes back), reported with its interquartile range. A budget whose two
//! rows' ranges overlap is marked `~`: the table cannot order them.
//!
//! ```sh
//! cargo run --release -p gcnp-bench --bin table4_batched_inference
//! ```

use gcnp_bench::harness::{fnum, print_table, StageJson};
use gcnp_bench::{pipeline, Ctx};
use gcnp_core::{PruneMethod, Scheme};
use gcnp_datasets::{Dataset, DatasetKind};
use gcnp_infer::{
    format_stage_table, stage_breakdown, BatchedEngine, EngineMetrics, FeatureStore, FullEngine,
    StorePolicy,
};
use gcnp_models::{GnnModel, Metrics};
use gcnp_obs::{median, percentile, MetricsRegistry};
use gcnp_sparse::Normalization;
use gcnp_tensor::Matrix;
use serde::Serialize;
use std::sync::Arc;

const BATCH: usize = 512;
const HOP2_CAP: usize = 32;
/// Repetitions of every row.
const REPS: usize = 5;

#[derive(Serialize)]
struct Row {
    dataset: String,
    budget: String,
    store: bool,
    f1_micro: f64,
    kmacs_per_node: f64,
    mem_mb: f64,
    /// Median over the repetitions of each repetition's median batch
    /// latency.
    latency_ms: f64,
    latency_q1_ms: f64,
    latency_q3_ms: f64,
    /// Every repetition's median batch latency, in run order.
    latency_runs_ms: Vec<f64>,
    lat_impr: f64,
    /// The w/ and w/o rows of this budget have overlapping IQRs.
    iqr_overlap: bool,
}

/// One row's repetitions: the first one's F1, kMACs/node and memory (every
/// repetition must repeat its F1 and kMACs), and each one's median latency.
struct Runs {
    f1: f64,
    kmacs: f64,
    mem: f64,
    lat: Vec<f64>,
}

impl Runs {
    fn new(reps: &[(f64, f64, f64, f64)]) -> Self {
        let (f1, kmacs, mem, _) = reps[0];
        for r in reps {
            assert_eq!((r.0, r.1), (f1, kmacs), "a repetition changed the result");
        }
        Runs {
            f1,
            kmacs,
            mem,
            lat: reps.iter().map(|r| r.3).collect(),
        }
    }

    /// `(q1, median, q3)` of the repetitions' latencies.
    fn quartiles(&self) -> (f64, f64, f64) {
        let mut v = self.lat.clone();
        v.sort_by(f64::total_cmp);
        (
            percentile(&v, 0.25),
            percentile(&v, 0.5),
            percentile(&v, 0.75),
        )
    }
}

#[derive(Serialize)]
struct Out {
    rows: Vec<Row>,
    /// Per-stage engine timing accumulated over every serving run above
    /// (`gcnp-obs` stage histograms; `share` is the fraction of stage time).
    stage_breakdown: Vec<StageJson>,
}

/// Serve the whole test set in batches; returns (F1, kMACs/target, max
/// per-batch memory MB, median latency ms).
fn serve(
    model: &GnnModel,
    data: &Dataset,
    store: Option<&FeatureStore>,
    seed: u64,
    registry: &Arc<MetricsRegistry>,
) -> (f64, f64, f64, f64) {
    let mut engine = BatchedEngine::new(
        model,
        &data.adj,
        &data.features,
        vec![None, Some(HOP2_CAP)],
        store,
        if store.is_some() {
            StorePolicy::Roots
        } else {
            StorePolicy::None
        },
        seed,
    );
    engine.set_metrics(EngineMetrics::new(registry));
    let mut lat = Vec::new();
    let mut macs = 0u64;
    let mut mem_max = 0usize;
    let mut preds: Vec<(usize, Vec<f32>)> = Vec::with_capacity(data.test.len());
    for chunk in data.test.chunks(BATCH) {
        let res = engine.infer(chunk);
        lat.push(res.seconds);
        macs += res.macs;
        mem_max = mem_max.max(res.mem_bytes);
        for (i, &t) in res.targets.iter().enumerate() {
            preds.push((t, res.logits.row(i).to_vec()));
        }
    }
    let classes = data.n_classes();
    let mut logits = Matrix::zeros(preds.len(), classes);
    let idx: Vec<usize> = preds.iter().map(|(t, _)| *t).collect();
    for (r, (_, row)) in preds.iter().enumerate() {
        logits.row_mut(r).copy_from_slice(row);
    }
    let f1 = Metrics::f1_micro(&logits, &data.labels, &idx);
    let median_lat = median(lat) * 1e3;
    let kmacs = macs as f64 / data.test.len() as f64 / 1e3;
    (f1, kmacs, mem_max as f64 / 1e6, median_lat)
}

/// Pre-populate the store with hidden features of train + validation nodes
/// (the paper's offline store policy).
fn build_store(model: &GnnModel, data: &Dataset) -> FeatureStore {
    let adj = data.adj.normalized(Normalization::Row);
    let engine = FullEngine::new(model, Some(&adj));
    let hs = engine.hidden(&data.features);
    let n_levels = model.n_layers() - 1;
    let store = FeatureStore::new(data.n_nodes(), n_levels);
    let mut offline: Vec<usize> = data.train.iter().chain(&data.val).copied().collect();
    offline.sort_unstable();
    for level in 1..=n_levels {
        store
            .put_rows(level, &offline, &hs[level - 1].gather_rows(&offline))
            .unwrap();
    }
    store
}

fn main() {
    let ctx = Ctx::new("table4_batched_inference");
    let kinds = [
        DatasetKind::ArxivSim,
        DatasetKind::RedditSim,
        DatasetKind::YelpSim,
        DatasetKind::ProductsSim,
    ];
    let mut rows: Vec<Row> = Vec::new();
    // One registry across every serving run: the end-of-run breakdown shows
    // where the table's total batch time went.
    let registry = Arc::new(MetricsRegistry::new());
    for kind in kinds {
        let data = pipeline::dataset(&ctx, kind);
        let reference = pipeline::reference_model(&ctx, kind, &data);
        let mut base_lat = f64::NAN;
        for (budget, label) in pipeline::BUDGETS {
            let pruned = pipeline::pruned_model(
                &ctx,
                kind,
                &data,
                &reference,
                budget,
                Scheme::BatchedInference,
                PruneMethod::Lasso,
            );
            // Without and with stored hidden features (train+val offline,
            // roots online), alternated; the store is rebuilt every time.
            let (mut without, mut with) = (Vec::new(), Vec::new());
            for _ in 0..REPS {
                without.push(serve(&pruned.model, &data, None, ctx.seed, &registry));
                let store = build_store(&pruned.model, &data);
                with.push(serve(
                    &pruned.model,
                    &data,
                    Some(&store),
                    ctx.seed,
                    &registry,
                ));
            }
            let (without, with) = (Runs::new(&without), Runs::new(&with));
            let (q1_wo, lat_wo, q3_wo) = without.quartiles();
            let (q1_w, lat_w, q3_w) = with.quartiles();
            if budget >= 1.0 {
                base_lat = lat_wo;
            }
            let iqr_overlap = q1_wo <= q3_w && q1_w <= q3_wo;
            for (store, runs, (q1, lat, q3)) in [
                (false, without, (q1_wo, lat_wo, q3_wo)),
                (true, with, (q1_w, lat_w, q3_w)),
            ] {
                rows.push(Row {
                    dataset: data.name.clone(),
                    budget: label.into(),
                    store,
                    f1_micro: runs.f1,
                    kmacs_per_node: runs.kmacs,
                    mem_mb: runs.mem,
                    latency_ms: lat,
                    latency_q1_ms: q1,
                    latency_q3_ms: q3,
                    latency_runs_ms: runs.lat,
                    lat_impr: base_lat / lat,
                    iqr_overlap,
                });
            }
        }
    }
    print_table(
        &[
            "Dataset",
            "Budget",
            "Store",
            "F1-Micro",
            "kMACs/node",
            "Mem(MB)",
            "Lat(ms)",
            "IQR(ms)",
            "",
            "Impr.",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.budget.clone(),
                    if r.store { "w/".into() } else { "w/o".into() },
                    fnum(r.f1_micro, 3),
                    fnum(r.kmacs_per_node, 0),
                    fnum(r.mem_mb, 1),
                    fnum(r.latency_ms, 1),
                    format!("{}–{}", fnum(r.latency_q1_ms, 1), fnum(r.latency_q3_ms, 1)),
                    if r.iqr_overlap {
                        "~".into()
                    } else {
                        String::new()
                    },
                    format!("{}x", fnum(r.lat_impr, 2)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let pairs: Vec<&[Row]> = rows.chunks(2).collect();
    let faster = pairs
        .iter()
        .filter(|p| p[1].latency_ms < p[0].latency_ms)
        .count();
    let overlapping = pairs.iter().filter(|p| p[0].iqr_overlap).count();
    println!(
        "w/ beats w/o at the median on {faster} of {} budgets; {overlapping} have overlapping IQRs (~)",
        pairs.len()
    );
    let stages = stage_breakdown(&registry.snapshot());
    println!("-- engine stage breakdown (all runs) --");
    print!("{}", format_stage_table(&stages));
    ctx.write_json(&Out {
        rows,
        stage_breakdown: stages.iter().map(StageJson::from).collect(),
    });
}
