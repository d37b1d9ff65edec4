//! # gcnp — facade crate
//!
//! Re-exports the whole GCNP workspace behind one dependency, mirroring the
//! paper's system: *Accelerating Large Scale Real-Time GNN Inference using
//! Channel Pruning* (Zhou et al., VLDB 2021).
//!
//! The full pipeline — train, prune, retrain, serve — in one example:
//!
//! ```no_run
//! use gcnp::prelude::*;
//!
//! // A benchmark graph (synthetic stand-in for Reddit; see DESIGN.md §1).
//! let data = DatasetKind::RedditSim.generate(42);
//!
//! // Train the reference 2-layer GraphSAGE with GraphSAINT sampling.
//! let mut model = zoo::graphsage(data.attr_dim(), 128, data.n_classes(), 0);
//! Trainer::train_saint(&mut model, &data, &TrainConfig::default());
//!
//! // LASSO channel pruning at 4x (keep 1/4 of the channels), then retrain.
//! let (tadj, tnodes) = data.train_adj();
//! let tadj = tadj.normalized(Normalization::Row);
//! let tx = data.features.gather_rows(&tnodes);
//! let (mut pruned, _report) = prune_model(
//!     &model, &tadj, &tx, 0.25, Scheme::BatchedInference, &PrunerConfig::default());
//! Trainer::train_saint(&mut pruned, &data, &TrainConfig::default());
//!
//! // Real-time serving with the hidden-feature store and hop-2 cap of 32.
//! let store = FeatureStore::new(data.n_nodes(), pruned.n_layers() - 1);
//! let mut engine = BatchedEngine::new(
//!     &pruned, &data.adj, &data.features,
//!     vec![None, Some(32)], Some(&store), StorePolicy::Roots, 0);
//! let result = engine.infer(&data.test[..512]);
//! println!("F1 {:.3} in {:.1} ms",
//!     Metrics::f1_micro(&result.logits, &data.labels, &result.targets),
//!     result.seconds * 1e3);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the binaries regenerating every table and figure of
//! the paper.

pub use gcnp_autograd as autograd;
pub use gcnp_core as prune;
pub use gcnp_datasets as datasets;
pub use gcnp_infer as infer;
pub use gcnp_models as models;
pub use gcnp_sparse as sparse;
pub use gcnp_tensor as tensor;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use gcnp_autograd::{Adam, SharedAdj, Tape, Var};
    pub use gcnp_core::{
        lasso_prune, prune_model, prune_single_layer, LassoOutcome, PruneMethod, PruneReport,
        PrunerConfig, Scheme,
    };
    pub use gcnp_datasets::{Dataset, DatasetKind, GrowingGraph, Labels, Partition, SpamStream};
    pub use gcnp_infer::{
        run_batches, serve_multi, serve_sharded, serve_tiered, AccretionReport, BatchResult,
        BatchedEngine, CostModel, Fault, FaultInjector, FaultPlan, FeatureStore, FullEngine,
        LadderPolicy, MultiServingReport, QuantizedGnn, ServingConfig, ServingError, ServingResult,
        ShardedStore, StorePolicy,
    };
    pub use gcnp_models::{
        zoo, Activation, Branch, BranchLayer, CombineMode, GnnModel, Metrics, TrainConfig, Trainer,
    };
    pub use gcnp_sparse::{CsrMatrix, Normalization};
    pub use gcnp_tensor::Matrix;
}
