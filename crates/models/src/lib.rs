//! # gcnp-models
//!
//! The GNN model zoo and training substrate.
//!
//! Everything is built on the paper's Eq. (1):
//!
//! ```text
//! h⁽ⁱ⁾ = σ( ‖ₖ₌ₖ′..ᴷ  Ãᵏ h⁽ⁱ⁻¹⁾ Wₖ⁽ⁱ⁾ )
//! ```
//!
//! [`BranchLayer`] implements one such layer; [`GnnModel`] stacks them.
//! Specializations: `K′=K=1` → GCN, `K′=0,K=1` → GraphSAGE, `K′=0,K=2` →
//! MixHop, `K′=K=0` → dense/MLP layers. A pruned model is a narrower one of
//! the same shape: its weights are compacted, never masked.
//!
//! Additional architectures for the paper's comparison experiments (Fig. 1,
//! Table 5) live in [`zoo`]: GAT (fused attention op), PPRGo (approximate
//! PageRank aggregation), SGC/SIGN (precomputed propagation), JK (jumping
//! knowledge), MLP, and TinyGNN-style distillation.
//!
//! Training follows the paper's §4: GraphSAINT random-walk subgraph steps
//! with ADAM, early-stopped on validation F1 ([`Trainer`]).

pub mod layer;
pub mod metrics;
pub mod model;
pub mod packed;
pub mod train;
pub mod zoo;

pub use layer::{Activation, Branch, BranchLayer, CombineMode};
pub use metrics::Metrics;
pub use model::GnnModel;
pub use packed::{PackedModel, QuantPackedModel};
pub use train::{LossKind, TrainConfig, TrainStats, Trainer};
pub use zoo::{AppnpModel, GatModel, PprgoModel};
