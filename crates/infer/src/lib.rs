//! # gcnp-infer
//!
//! Inference engines for pruned and unpruned GNN models.
//!
//! * [`FullEngine`] — full-graph (all nodes) layer-by-layer inference with
//!   MAC counting and wall-clock throughput, the paper's *full inference*
//!   scenario (Table 3);
//! * [`BatchedEngine`] — per-batch inference over the supporting-node
//!   structure of [`gcnp_sparse::BatchSupport`], with hop fan-out caps and
//!   the hidden-feature store (§3.3.2), the paper's *batched inference*
//!   scenario (Table 4);
//! * [`FeatureStore`] — stored hidden features of visited nodes, which lets
//!   neighbors aggregate directly instead of expanding further (turning the
//!   `d^(L−1)` of Eq. 3 toward 1);
//! * [`CostModel`] — the analytic per-node complexity and memory of
//!   Eqs. 2–3, reproducing the paper's #kMACs/node and Mem. columns.

//! * [`serve_multi`] / [`serve_sharded`] / [`serve_tiered`] — one fleet
//!   executor under three routings (any worker, owner shard, degradation
//!   ladder);
//! * [`ServingError`] / [`faults`] — the overload-resilience layer: typed
//!   serving errors, bounded admission with deadlines, worker panic
//!   recovery, the pruning-tiered degradation ladder, and deterministic
//!   fault injection (see DESIGN.md "Failure model & degradation ladder").

pub mod batched;
pub mod costmodel;
pub mod error;
pub mod faults;
pub mod full;
pub mod metrics;
pub mod pipeline;
pub mod quantized;
pub mod serving;
pub mod shard;
pub mod store;
pub(crate) mod supervisor;
pub mod timing;

pub use batched::{BatchResult, BatchedEngine, Precision, StorePolicy};
pub use costmodel::CostModel;
pub use error::{ServingError, ServingResult};
pub use faults::{Fault, FaultInjector, FaultPlan};
pub use full::{FullEngine, FullResult};
pub use metrics::{
    format_stage_table, stage_breakdown, EngineMetrics, ServingMetrics, ShardMetrics, StageRow,
    StoreMetrics, STAGES,
};
pub use pipeline::run_batches;
pub use quantized::QuantizedGnn;
pub use serving::{
    serve_multi, serve_sharded, serve_tiered, LadderPolicy, MultiServingReport, ServingConfig,
};
pub use shard::{AccretionReport, ShardedStore};
pub use store::FeatureStore;
pub use timing::time_it;
