//! End-to-end pruning schemes (§3.3).
//!
//! Pruning the input channels of layer *i* also removes the matching output
//! columns of layer *i−1*'s weights and bias, so the sweep runs **output
//! layer → input layer**, and every job leaves a compact model: each branch
//! reads its whole input, and a pruned model is simply a narrower one.
//! Layer 0's input, the raw node attributes, is never pruned: nothing
//! produces it. Two schemes:
//!
//! * [`Scheme::FullInference`] — constant budget η on every layer's input
//!   except the raw node attributes (layer 0). Computation shrinks between
//!   η² and η per layer, memory between η and 1 (§3.3.1).
//! * [`Scheme::BatchedInference`] — attack the neighbor-explosion term
//!   (Eq. 3): prune the *whole* second layer's input with budget η, which
//!   narrows every first-layer branch's output. The paper (§3.3.2) also
//!   prunes the first layer's aggregation inputs, because its aggregation
//!   ran at the attribute width. The batched engine's first layer instead
//!   reads an `out_dim`-wide projection table indexed by node id whatever
//!   its input width, so pruning those attributes would save only the
//!   table's one-off construction; this scheme leaves them whole.

use gcnp_models::{CombineMode, GnnModel};
use gcnp_sparse::CsrMatrix;
use gcnp_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::lasso::{lasso_prune, LassoOutcome, PrunerConfig};

/// Which inference scenario the pruned model targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    FullInference,
    BatchedInference,
}

/// Per-layer pruning record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerReport {
    /// Index of the layer whose input channels were pruned.
    pub layer: usize,
    /// Branch indices that were pruned (all of the layer's: β is shared).
    pub branches: Vec<usize>,
    pub kept: usize,
    pub total: usize,
    pub rel_error: f32,
    pub lambda_final: f32,
    pub beta_zero_frac: f32,
    pub seconds: f64,
}

/// Outcome of an end-to-end pruning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PruneReport {
    pub scheme: Scheme,
    pub budget: f32,
    pub layers: Vec<LayerReport>,
    /// Total pruning wall-clock (the paper reports 2.4–32 s; §4.2).
    pub seconds: f64,
    /// Parameter count before / after.
    pub weights_before: usize,
    pub weights_after: usize,
}

/// Prune `model` end-to-end with the given scheme and budget η ∈ (0, 1].
///
/// `adj_train` must be the normalized adjacency of the **training graph**
/// and `x_train` the training nodes' attributes — the paper optimizes on the
/// training graph to avoid information leak (§3.1).
///
/// Returns the pruned (compact) model and a [`PruneReport`].
pub fn prune_model(
    model: &GnnModel,
    adj_train: &CsrMatrix,
    x_train: &Matrix,
    budget: f32,
    scheme: Scheme,
    cfg: &PrunerConfig,
) -> (GnnModel, PruneReport) {
    assert!(
        budget > 0.0 && budget <= 1.0,
        "prune_model: budget must be in (0,1]"
    );
    assert!(
        !model.jk,
        "prune_model: JK models need per-layer budgets; not supported"
    );
    let t0 = std::time::Instant::now();
    let mut pruned = model.clone();
    let weights_before = model.n_weights();

    // Hidden features of the original model on the training graph; the
    // input of layer i is hs[i-1]. Earlier layers' inputs are untouched
    // while the reverse sweep works on layer i, so these stay valid.
    let hs = model.forward_collect(Some(adj_train), x_train);

    // The layers whose inputs are pruned, output side first.
    let n = model.layers.len();
    let jobs: Vec<usize> = match scheme {
        Scheme::FullInference => (1..n).rev().collect(),
        Scheme::BatchedInference => {
            assert!(n >= 2, "prune_model: batched scheme expects >= 2 layers");
            vec![1]
        }
    };

    let mut reports = Vec::with_capacity(jobs.len());
    for li in jobs {
        let lt0 = std::time::Instant::now();
        let input = &hs[li - 1];
        let c = input.cols();
        let n_keep = ((budget * c as f32).floor() as usize).clamp(1, c);
        let outcome = prune_layer_inputs(&mut pruned, adj_train, input, li, n_keep, cfg);
        reports.push(LayerReport {
            layer: li,
            branches: (0..pruned.layers[li].branches.len()).collect(),
            kept: outcome.keep.len(),
            total: c,
            rel_error: outcome.rel_error,
            lambda_final: outcome.lambda_final,
            beta_zero_frac: outcome.beta_zero_frac,
            seconds: lt0.elapsed().as_secs_f64(),
        });
    }

    let report = PruneReport {
        scheme,
        budget,
        layers: reports,
        seconds: t0.elapsed().as_secs_f64(),
        weights_before,
        weights_after: pruned.n_weights(),
    };
    (pruned, report)
}

/// Prune the input channels of `model.layers[li]` (`li ≥ 1`; β shared
/// across its branches) down to `n_keep`, regressing on `input`, the
/// layer's input on the training graph, then remove the same channels from
/// layer `li − 1`'s outputs. The model computes the same function as
/// selecting the kept channels before each branch's GEMM would.
fn prune_layer_inputs(
    model: &mut GnnModel,
    adj_train: &CsrMatrix,
    input: &Matrix,
    li: usize,
    n_keep: usize,
    cfg: &PrunerConfig,
) -> LassoOutcome {
    assert!(
        li >= 1,
        "prune: layer 0 reads the raw attributes, which no layer produces"
    );
    let branches = &model.layers[li].branches;
    // Branches whose outputs were entirely pruned by an earlier (more
    // output-side) job have zero-width weights: they contribute nothing to
    // the LASSO objective, so they only get their rows sliced.
    let active: Vec<usize> = (0..branches.len())
        .filter(|&b| branches[b].weight.cols() > 0)
        .collect();
    let outcome = if active.is_empty() {
        // Nothing to regress against: keep an arbitrary channel subset.
        let c = input.cols();
        LassoOutcome {
            keep: (0..n_keep).collect(),
            beta: (0..c).map(|i| if i < n_keep { 1.0 } else { 0.0 }).collect(),
            weights: Vec::new(),
            lambda_final: 0.0,
            beta_epochs_run: 0,
            rel_error: 0.0,
            beta_zero_frac: 0.0,
        }
    } else {
        // Per-branch X_k = Ãᵏ · input via progressive powers.
        let max_k = active.iter().map(|&b| branches[b].k).max().unwrap_or(0);
        let mut powers: Vec<Matrix> = vec![input.clone()];
        for _ in 0..max_k {
            let next = adj_train.spmm(powers.last().unwrap());
            powers.push(next);
        }
        let xs: Vec<Matrix> = active
            .iter()
            .map(|&b| powers[branches[b].k].clone())
            .collect();
        let ws: Vec<Matrix> = active.iter().map(|&b| branches[b].weight.clone()).collect();
        lasso_prune(&xs, &ws, n_keep, cfg)
    };
    for (bi, branch) in model.layers[li].branches.iter_mut().enumerate() {
        branch.weight = match active.iter().position(|&b| b == bi) {
            Some(slot) => outcome.weights[slot].clone(),
            None => branch.weight.select_rows(&outcome.keep),
        };
    }
    shrink_layer_outputs(model, li - 1, &outcome.keep);
    outcome
}

/// Remove all output channels of `model.layers[li]` except `keep` (given as
/// positions in the layer's combined output).
fn shrink_layer_outputs(model: &mut GnnModel, li: usize, keep: &[usize]) {
    let layer = &mut model.layers[li];
    match layer.combine {
        CombineMode::Concat => {
            // Map combined positions to (branch, local column).
            let widths: Vec<usize> = layer.branches.iter().map(|b| b.weight.cols()).collect();
            let mut per_branch: Vec<Vec<usize>> = vec![Vec::new(); widths.len()];
            for &pos in keep {
                let mut off = 0;
                let mut found = false;
                for (bi, &w) in widths.iter().enumerate() {
                    if pos < off + w {
                        per_branch[bi].push(pos - off);
                        found = true;
                        break;
                    }
                    off += w;
                }
                assert!(
                    found,
                    "shrink_layer_outputs: keep position {pos} out of range"
                );
            }
            for (branch, cols) in layer.branches.iter_mut().zip(&per_branch) {
                branch.weight = branch.weight.select_cols(cols);
            }
        }
        CombineMode::Mean => {
            // Every branch shares the output channels: keep the same columns.
            for branch in &mut layer.branches {
                branch.weight = branch.weight.select_cols(keep);
            }
        }
    }
    if let Some(bias) = &mut layer.bias {
        *bias = bias.select_cols(keep);
    }
}

/// Single-layer pruning for the Fig. 4 experiment: prune the input channels
/// of `model.layers[li]` (`li ≥ 1`, shared across its branches) down to
/// `n_keep` and drop them from layer `li − 1`'s outputs, leaving every
/// other layer's weights untouched. Returns the pruned copy and the LASSO
/// outcome.
pub fn prune_single_layer(
    model: &GnnModel,
    adj_train: &CsrMatrix,
    x_train: &Matrix,
    li: usize,
    n_keep: usize,
    cfg: &PrunerConfig,
) -> (GnnModel, LassoOutcome) {
    let mut pruned = model.clone();
    let hs = model.forward_collect(Some(adj_train), x_train);
    let input = li.checked_sub(1).map_or(x_train, |i| &hs[i]);
    let outcome = prune_layer_inputs(&mut pruned, adj_train, input, li, n_keep, cfg);
    (pruned, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lasso::PruneMethod;
    use gcnp_datasets::SynthConfig;
    use gcnp_models::zoo;
    use gcnp_sparse::Normalization;

    fn fast_cfg() -> PrunerConfig {
        PrunerConfig {
            beta_epochs: 15,
            w_epochs: 15,
            batch_size: 128,
            lr_beta: 0.02,
            lr_w: 0.02,
            ..Default::default()
        }
    }

    fn setup() -> (gcnp_datasets::Dataset, GnnModel, CsrMatrix, Matrix) {
        let data = SynthConfig {
            nodes: 300,
            classes: 3,
            communities: 3,
            attr_dim: 24,
            noise: 0.5,
            ..Default::default()
        }
        .generate(21);
        let model = zoo::graphsage(24, 16, 3, 5);
        let (tadj, tnodes) = data.train_adj();
        let adj = tadj.normalized(Normalization::Row);
        let x = data.features.gather_rows(&tnodes);
        (data, model, adj, x)
    }

    #[test]
    fn full_scheme_shrinks_dimensions() {
        let (_, model, adj, x) = setup();
        let (pruned, report) =
            prune_model(&model, &adj, &x, 0.5, Scheme::FullInference, &fast_cfg());
        // hidden 16 -> 8 at both internal interfaces.
        // Layer 0 branches: 24 -> 8 output cols split across 2 branches.
        let l0_out: usize = pruned.layers[0]
            .branches
            .iter()
            .map(|b| b.weight.cols())
            .sum();
        assert_eq!(l0_out, 8);
        // Layer 1 consumes 8 channels, emits 8 (pruned by classifier job).
        for b in &pruned.layers[1].branches {
            assert_eq!(b.weight.rows(), 8);
        }
        let l1_out: usize = pruned.layers[1]
            .branches
            .iter()
            .map(|b| b.weight.cols())
            .sum();
        assert_eq!(l1_out, 8);
        // Classifier consumes 8 channels, still emits 3 classes.
        assert_eq!(pruned.layers[2].branches[0].weight.shape(), (8, 3));
        assert_eq!(report.layers.len(), 2);
        assert!(report.weights_after < report.weights_before);
    }

    #[test]
    fn pruned_model_forward_works() {
        let (data, model, adj, x) = setup();
        let (pruned, _) = prune_model(&model, &adj, &x, 0.25, Scheme::FullInference, &fast_cfg());
        let full_adj = data.adj.normalized(Normalization::Row);
        let out = pruned.forward_full(Some(&full_adj), &data.features);
        assert_eq!(out.shape(), (300, 3));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn budget_one_is_lossless() {
        let (data, model, adj, x) = setup();
        let (pruned, _) = prune_model(&model, &adj, &x, 1.0, Scheme::FullInference, &fast_cfg());
        let full_adj = data.adj.normalized(Normalization::Row);
        let a = model.forward_full(Some(&full_adj), &data.features);
        let b = pruned.forward_full(Some(&full_adj), &data.features);
        assert!(a.approx_eq(&b, 1e-4), "budget 1.0 must not change outputs");
    }

    #[test]
    fn batched_scheme_prunes_layer1_neighbor_branch_only() {
        let (_, model, adj, x) = setup();
        let (pruned, report) =
            prune_model(&model, &adj, &x, 0.5, Scheme::BatchedInference, &fast_cfg());
        // Layer 0: both branches read every attribute with their trained
        // weights; the layer-1 job only dropped output columns, whose
        // surviving values are untouched.
        let l0_out: usize = pruned.layers[0]
            .branches
            .iter()
            .map(|b| b.weight.cols())
            .sum();
        assert_eq!(l0_out, 8);
        for (b, orig) in pruned.layers[0]
            .branches
            .iter()
            .zip(&model.layers[0].branches)
        {
            assert_eq!(b.weight.rows(), 24);
            let col = |m: &Matrix, j: usize| (0..m.rows()).map(|r| m.get(r, j)).collect::<Vec<_>>();
            for j in 0..b.weight.cols() {
                let survivor = col(&b.weight, j);
                assert!(
                    (0..orig.weight.cols()).any(|o| col(&orig.weight, o) == survivor),
                    "layer 0 branch k = {}: column {j} is a trained column",
                    b.k
                );
            }
        }
        // Layer 1: whole input pruned (8 of 16 channels), compacted.
        for b in &pruned.layers[1].branches {
            assert_eq!(b.weight.rows(), 8);
        }
        // Classifier untouched.
        assert_eq!(pruned.layers[2].branches[0].weight.shape(), (16, 3));
        assert_eq!(report.layers.len(), 1);
    }

    #[test]
    fn reports_capture_budgets() {
        let (_, model, adj, x) = setup();
        let (_, report) = prune_model(&model, &adj, &x, 0.25, Scheme::FullInference, &fast_cfg());
        for lr in &report.layers {
            assert_eq!(lr.kept, lr.total / 4);
            assert!(lr.seconds >= 0.0);
        }
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn single_layer_pruning_keeps_other_layers() {
        let (data, model, adj, x) = setup();
        let (pruned, outcome) = prune_single_layer(&model, &adj, &x, 1, 4, &fast_cfg());
        assert_eq!(outcome.keep.len(), 4);
        // Layer 0 reads every attribute and emits the 4 kept channels;
        // the classifier is untouched.
        assert_eq!(pruned.layers[0].out_dim(), 4);
        assert_eq!(pruned.layers[0].branches[0].weight.rows(), 24);
        assert_eq!(
            pruned.layers[2].branches[0].weight,
            model.layers[2].branches[0].weight
        );
        // Bit for bit the select-then-multiply forward: the unpruned layer
        // 0, then layer 1 selecting its kept channels before each GEMM.
        let full_adj = data.adj.normalized(Normalization::Row);
        let h0 = model.layers[0].forward(Some(&full_adj), &data.features);
        let z1 = full_adj.spmm(&h0);
        let layer1 = &pruned.layers[1];
        let parts: Vec<Matrix> = layer1
            .branches
            .iter()
            .map(|b| {
                let z = if b.k == 0 { &h0 } else { &z1 };
                z.select_cols(&outcome.keep).matmul(&b.weight)
            })
            .collect();
        let pre = Matrix::concat_cols_all(&parts.iter().collect::<Vec<_>>())
            .add_row_vector(layer1.bias.as_ref().unwrap().row(0));
        let want = model.layers[2].forward(Some(&full_adj), &pre.relu());
        let got = pruned.forward_full(Some(&full_adj), &data.features);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn max_response_and_random_also_run_end_to_end() {
        let (_, model, adj, x) = setup();
        for method in [PruneMethod::MaxResponse, PruneMethod::Random] {
            let cfg = PrunerConfig {
                method,
                ..fast_cfg()
            };
            let (pruned, _) = prune_model(&model, &adj, &x, 0.5, Scheme::FullInference, &cfg);
            assert_eq!(pruned.layers[2].branches[0].weight.rows(), 8);
        }
    }

    #[test]
    fn mean_combine_architecture_prunes() {
        // The paper's Eq. 9 averaging variant: branch outputs are averaged,
        // so output channels are shared across branches and propagation
        // slices the SAME columns in every branch.
        use gcnp_models::{Activation, Branch, BranchLayer, CombineMode};
        use gcnp_tensor::init::seeded_rng;
        let (data, _, adj, x) = setup();
        let mut rng = seeded_rng(31);
        let layer = |fi: usize, fo: usize, act, rng: &mut _| BranchLayer {
            branches: vec![
                Branch::new(0, Matrix::glorot(fi, fo, rng)),
                Branch::new(1, Matrix::glorot(fi, fo, rng)),
            ],
            bias: Some(Matrix::zeros(1, fo)),
            combine: CombineMode::Mean,
            activation: act,
        };
        let model = GnnModel::new(vec![
            layer(24, 12, Activation::Relu, &mut rng),
            layer(12, 12, Activation::Relu, &mut rng),
            gcnp_models::BranchLayer::dense(
                Matrix::glorot(12, 3, &mut rng),
                None,
                Activation::None,
            ),
        ]);
        let (pruned, _) = prune_model(&model, &adj, &x, 0.5, Scheme::FullInference, &fast_cfg());
        // Both branches of layer 0 keep the same 6 output columns.
        assert_eq!(pruned.layers[0].branches[0].weight.cols(), 6);
        assert_eq!(pruned.layers[0].branches[1].weight.cols(), 6);
        assert_eq!(pruned.layers[1].branches[0].weight.rows(), 6);
        let full_adj = data.adj.normalized(Normalization::Row);
        let out = pruned.forward_full(Some(&full_adj), &data.features);
        assert_eq!(out.shape(), (300, 3));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn invalid_budget_rejected() {
        let (_, model, adj, x) = setup();
        let _ = prune_model(&model, &adj, &x, 0.0, Scheme::FullInference, &fast_cfg());
    }
}
