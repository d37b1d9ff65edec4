//! Instrumented full-graph inference (the paper's *full inference*).
//!
//! The pass executes Eq. 2's `min`: a graph branch no wider out than in
//! transforms every node first and aggregates the `out_dim`-wide product,
//! any other aggregates first. On products-sim's SAGE-256 that makes layer
//! 2 sum 128-wide rows instead of 256-wide ones, and after 4× pruning the
//! two layers sum rows as wide as their neighbour branches' outputs (14 and
//! 16 on the benchmark's model) instead of 100 and 64 — so pruning shrinks
//! the aggregation as well as the GEMMs, as the `CostModel` this engine
//! reports already priced.

use gcnp_models::{GnnModel, PackedModel};
use gcnp_sparse::CsrMatrix;
use gcnp_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

use crate::costmodel::CostModel;
use crate::timing::time_it;

/// Result of a timed full-inference run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullResult {
    pub logits: Matrix,
    /// Median seconds per complete forward pass.
    pub seconds: f64,
    /// Target nodes per second (all nodes are targets in full inference).
    pub throughput: f64,
    /// Analytic kMACs per node (Eq. 2).
    pub kmacs_per_node: f64,
    /// Analytic memory bytes (Eq. 2).
    pub memory_bytes: usize,
}

/// Full-inference engine: computes embeddings for **all** nodes layer by
/// layer with batched SpMM aggregation (§2.2.1). Weights are packed once at
/// construction (the weight-pack cache) so repeated passes skip the per-GEMM
/// operand-pack step, and every pass computes in the buffers the first one
/// sized (see [`PackedModel::forward_reusing`]) — keep the engine across
/// passes. The `RefCell` around those buffers makes the engine `!Sync`.
///
/// Each graph branch runs in the order Eq. 2's `min` prices
/// ([`gcnp_models::Branch::projects_first`]): one no wider out than in
/// multiplies first and aggregates `out_dim`-wide rows. Logits therefore
/// match [`GnnModel::forward_full`] bit for bit only when no layer projects,
/// and within 1e-4 otherwise; they are bitwise the same on any kernel thread
/// count and from a reused or a fresh engine.
pub struct FullEngine<'a> {
    model: &'a GnnModel,
    packed: RefCell<PackedModel<'a>>,
    /// Normalized adjacency (`None` for pure MLPs).
    adj: Option<&'a CsrMatrix>,
}

impl<'a> FullEngine<'a> {
    /// Create an engine over a model and its normalized adjacency.
    ///
    /// # Panics
    /// Panics if a layer aggregates over the graph and `adj` is `None`.
    pub fn new(model: &'a GnnModel, adj: Option<&'a CsrMatrix>) -> Self {
        if let Some(i) = model.layers.iter().position(|l| l.uses_graph()) {
            assert!(
                adj.is_some(),
                "FullEngine::new: layer {i} aggregates over the graph but no adjacency was given"
            );
        }
        Self {
            model,
            packed: RefCell::new(PackedModel::new(model)),
            adj,
        }
    }

    /// One untimed forward pass.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        let mut packed = self.packed.borrow_mut();
        let outputs = packed.forward_reusing(self.adj, x);
        outputs.pop().expect("model has layers")
    }

    /// All hidden layers (for populating a [`crate::FeatureStore`]).
    pub fn hidden(&self, x: &Matrix) -> Vec<Matrix> {
        let mut packed = self.packed.borrow_mut();
        std::mem::take(packed.forward_reusing(self.adj, x))
    }

    /// Timed run: `warmup` unmeasured passes, then the median of `iters`
    /// measured passes, plus the analytic costs.
    pub fn run(&self, x: &Matrix, warmup: usize, iters: usize) -> FullResult {
        let logits = self.logits(x);
        let seconds = time_it(warmup, iters, || self.logits(x));
        let n = x.rows();
        let cm = CostModel::new(n, self.adj.map_or(0.0, CsrMatrix::avg_degree));
        FullResult {
            throughput: n as f64 / seconds,
            kmacs_per_node: cm.full_kmacs_per_node(self.model),
            memory_bytes: cm.full_memory_bytes(self.model),
            seconds,
            logits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnp_models::zoo;
    use gcnp_sparse::Normalization;
    use gcnp_tensor::init::seeded_rng;

    fn setup() -> (CsrMatrix, Matrix, GnnModel) {
        let adj = CsrMatrix::adjacency(
            20,
            &(0u32..19)
                .flat_map(|i| [(i, i + 1), (i + 1, i)])
                .collect::<Vec<_>>(),
        )
        .normalized(Normalization::Row);
        let x = Matrix::rand_uniform(20, 6, -1.0, 1.0, &mut seeded_rng(1));
        let model = zoo::graphsage(6, 8, 3, 2);
        (adj, x, model)
    }

    #[test]
    fn run_produces_costs_and_logits() {
        let (adj, x, model) = setup();
        let engine = FullEngine::new(&model, Some(&adj));
        let res = engine.run(&x, 0, 2);
        assert_eq!(res.logits.shape(), (20, 3));
        assert!(res.seconds > 0.0);
        assert!(res.throughput > 0.0);
        assert!(res.kmacs_per_node > 0.0);
        assert!(res.memory_bytes > 0);
    }

    #[test]
    fn logits_match_model_forward() {
        // 6 → 4 and 8 → 4 neighbour branches: both graph layers project,
        // so the logits are the plain forward's up to rounding — and the
        // same bits on one kernel thread or four.
        let (adj, x, model) = setup();
        let engine = FullEngine::new(&model, Some(&adj));
        let diff = engine
            .logits(&x)
            .max_abs_diff(&model.forward_full(Some(&adj), &x));
        assert!(diff <= 1e-4, "max |Δ| = {diff:e}");
        let on = |threads| {
            gcnp_tensor::set_num_threads(threads);
            FullEngine::new(&model, Some(&adj)).logits(&x)
        };
        let (one, four) = (on(1), on(4));
        gcnp_tensor::set_num_threads(0);
        assert_eq!(one, four);

        // 6 → 16 per branch: layer 1 aggregates first and is the plain
        // forward's bit for bit (layer 2, 32 → 16, projects).
        let wide = zoo::graphsage(6, 32, 3, 2);
        assert!(!wide.layers[0].branches[1].projects_first());
        let engine = FullEngine::new(&wide, Some(&adj));
        assert_eq!(
            engine.hidden(&x)[0],
            wide.forward_collect(Some(&adj), &x)[0],
            "a layer that does not project is bitwise"
        );
    }

    #[test]
    fn hidden_returns_every_layer() {
        let (adj, x, model) = setup();
        let engine = FullEngine::new(&model, Some(&adj));
        assert_eq!(engine.hidden(&x).len(), 3);
    }

    #[test]
    fn a_reused_engine_answers_like_a_fresh_one() {
        // `logits` takes the last buffer out of the workspace and `hidden`
        // all of them; whatever order they come in, the next pass must
        // neither panic on the `RefCell` nor read a stale element.
        let (adj, x, model) = setup();
        let x2 = Matrix::rand_uniform(20, 6, -1.0, 1.0, &mut seeded_rng(3));
        let fresh_logits = |x: &Matrix| FullEngine::new(&model, Some(&adj)).logits(x);
        let fresh_hidden = |x: &Matrix| FullEngine::new(&model, Some(&adj)).hidden(x);
        let engine = FullEngine::new(&model, Some(&adj));
        assert_eq!(engine.logits(&x), fresh_logits(&x));
        assert_eq!(engine.logits(&x), fresh_logits(&x));
        assert_eq!(engine.hidden(&x2), fresh_hidden(&x2));
        assert_eq!(engine.logits(&x2), fresh_logits(&x2));
        assert_eq!(engine.hidden(&x), fresh_hidden(&x));
        let plain = model.forward_collect(Some(&adj), &x);
        for (got, want) in engine.hidden(&x).iter().zip(&plain) {
            let diff = got.max_abs_diff(want);
            assert!(diff <= 1e-4, "max |Δ| = {diff:e}");
        }
    }

    #[test]
    fn workspace_follows_a_changed_row_count() {
        // No adjacency pins an MLP's row count: the same engine serves 20
        // rows, then 7, then 20 again, each on re-shaped buffers.
        let model = zoo::mlp(6, 8, 3, 4);
        let engine = FullEngine::new(&model, None);
        for (rows, seed) in [(20, 5), (7, 6), (20, 7), (31, 8)] {
            let x = Matrix::rand_uniform(rows, 6, -1.0, 1.0, &mut seeded_rng(seed));
            assert_eq!(
                engine.logits(&x),
                model.forward_full(None, &x),
                "{rows} rows"
            );
            assert_eq!(
                engine.hidden(&x),
                model.forward_collect(None, &x),
                "{rows} rows"
            );
        }
    }

    #[test]
    #[should_panic(expected = "layer 0 aggregates over the graph but no adjacency was given")]
    fn graph_model_without_adjacency_is_refused_at_construction() {
        let (_, _, model) = setup();
        let _ = FullEngine::new(&model, None);
    }
}
