//! Shared train → prune → retrain plumbing with on-disk caching.

use gcnp_core::{prune_model, PruneMethod, PrunerConfig, Scheme};
use gcnp_datasets::{Dataset, DatasetKind};
use gcnp_models::{zoo, GnnModel, TrainConfig, Trainer};
use gcnp_sparse::Normalization;
use serde::{Deserialize, Serialize};

use crate::harness::Ctx;

/// The pruning budgets of the paper's tables: reference, 2×, 4×, 8×.
pub const BUDGETS: [(f32, &str); 4] = [(1.0, "-"), (0.5, "2x"), (0.25, "4x"), (0.125, "8x")];

/// Training configuration used for the reference models (§4 of the paper,
/// sized for the scaled datasets).
pub fn train_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        steps: 200,
        eval_every: 15,
        patience: 5,
        lr: 0.01,
        dropout: 0.1,
        saint_roots: 512,
        walk_len: 2,
        seed,
    }
}

/// Pruning configuration (paper §4: batch 1024, ADAM on both sub-problems).
pub fn prune_cfg(method: PruneMethod, seed: u64) -> PrunerConfig {
    PrunerConfig {
        method,
        batch_size: 1024,
        seed,
        ..Default::default()
    }
}

/// A cached trained model plus its training cost.
#[derive(Serialize, Deserialize)]
pub struct CachedModel {
    pub model: GnnModel,
    pub seconds: f64,
    pub val_f1: f64,
}

/// Generate the dataset for `kind` at the context's scale.
pub fn dataset(ctx: &Ctx, kind: DatasetKind) -> Dataset {
    kind.generate_scaled(ctx.scale, ctx.seed)
}

/// Train (or load) the reference GraphSAGE model for a dataset.
pub fn reference_model(ctx: &Ctx, kind: DatasetKind, data: &Dataset) -> CachedModel {
    let key = format!("ref_{}", kind.name());
    if let Some(c) = ctx.cache_get::<CachedModel>(&key) {
        println!("  [cache] reference model for {}", kind.name());
        return c;
    }
    println!("  training reference model for {} ...", kind.name());
    let mut model = zoo::graphsage(
        data.attr_dim(),
        kind.hidden_dim(),
        data.n_classes(),
        ctx.seed,
    );
    let stats = Trainer::train_saint(&mut model, data, &train_cfg(ctx.seed));
    let cached = CachedModel {
        model,
        seconds: stats.seconds,
        val_f1: stats.best_val_f1,
    };
    ctx.cache_put(&key, &cached);
    println!("    val F1 {:.3} in {:.1}s", cached.val_f1, cached.seconds);
    cached
}

/// Revision of what [`prune_model`] returns, part of every pruned-model
/// cache key: bump it whenever a scheme's output changes shape or meaning,
/// so no entry an older build wrote is ever served. Revision 1: pruned
/// models are compact (no runtime channel lists) and the batched scheme
/// leaves layer 1's attributes whole.
const SCHEME_REVISION: u32 = 1;

/// A cached pruned + retrained model with its costs.
#[derive(Serialize, Deserialize)]
pub struct CachedPruned {
    pub model: GnnModel,
    pub prune_seconds: f64,
    pub retrain_seconds: f64,
    pub val_f1: f64,
}

/// Prune the reference model at `budget` under `scheme` and retrain
/// (or load the cached result). `budget = 1.0` returns the reference.
pub fn pruned_model(
    ctx: &Ctx,
    kind: DatasetKind,
    data: &Dataset,
    reference: &CachedModel,
    budget: f32,
    scheme: Scheme,
    method: PruneMethod,
) -> CachedPruned {
    if budget >= 1.0 {
        return CachedPruned {
            model: reference.model.clone(),
            prune_seconds: 0.0,
            retrain_seconds: 0.0,
            val_f1: reference.val_f1,
        };
    }
    let key = format!(
        "pruned_r{SCHEME_REVISION}_{}_{:?}_{:?}_b{}",
        kind.name(),
        scheme,
        method,
        (budget * 1000.0) as u32
    );
    if let Some(c) = ctx.cache_get::<CachedPruned>(&key) {
        println!("  [cache] pruned {} @ {budget}", kind.name());
        return c;
    }
    println!(
        "  pruning {} @ budget {budget} ({scheme:?}, {method:?}) ...",
        kind.name()
    );
    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);
    let (mut model, report) = prune_model(
        &reference.model,
        &tadj,
        &tx,
        budget,
        scheme,
        &prune_cfg(method, ctx.seed),
    );
    let stats = Trainer::train_saint(&mut model, data, &train_cfg(ctx.seed));
    let cached = CachedPruned {
        model,
        prune_seconds: report.seconds,
        retrain_seconds: stats.seconds,
        val_f1: stats.best_val_f1,
    };
    ctx.cache_put(&key, &cached);
    println!(
        "    pruned in {:.1}s, retrained to val F1 {:.3} in {:.1}s",
        cached.prune_seconds, cached.val_f1, cached.retrain_seconds
    );
    cached
}
