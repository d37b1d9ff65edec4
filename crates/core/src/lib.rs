//! # gcnp-core
//!
//! The paper's primary contribution: **channel pruning for GNN inference**.
//!
//! A *channel* is a column of the hidden feature matrix `h⁽ⁱ⁾`. Pruning the
//! input channels of layer *i* removes columns of `h⁽ⁱ⁻¹⁾` — and therefore
//! output columns of layer *i−1*'s weights — shrinking every GEMM the
//! inference engine executes.
//!
//! * [`lasso`] — the single-branch / single-layer LASSO formulation
//!   (Eqs. 4–9): alternating β-step (channel selection with an increasing
//!   L1 penalty) and Ŵ-step (least-squares weight reconstruction), plus the
//!   Max-Response and Random selection baselines,
//! * [`scheme`] — end-to-end pruning, output layer → input layer, with the
//!   full-inference scheme (constant budget everywhere except the raw
//!   attributes) and the batched-inference scheme (all of layer 2's input,
//!   §3.3.2, leaving layer 1's attributes whole),
//! * retraining is the standard [`gcnp_models::Trainer`] run on the pruned
//!   model — a pruned model is a compact, narrower model of the same
//!   architecture.

pub mod lasso;
pub mod scheme;

/// Re-export of the runtime invariant layer so downstream code can write
/// `gcnp_core::check::assert_finite(..)` without a direct gcnp-tensor dep.
pub use gcnp_tensor::check;

pub use lasso::{
    lasso_prune, ridge_solve, select_channels, LassoOutcome, PruneMethod, PrunerConfig,
};
pub use scheme::{prune_model, prune_single_layer, LayerReport, PruneReport, Scheme};
