//! Int8 model files (the paper's §5 edge-device motivation).
//!
//! [`QuantizedGnn`] freezes a trained (possibly pruned) [`GnnModel`] into
//! per-column int8 weights: the format `gcnp quantize` writes. It is a
//! storage format, not a serving precision: [`QuantizedGnn::to_model`]
//! dequantizes it into a [`GnnModel`] at load, and that model runs exactly
//! the code an f32 model file runs. Pruning and quantization compose in the
//! file: 4× pruning × 4× weight compression ≈ 16× smaller weights.

use crate::error::{ServingError, ServingResult};
use gcnp_models::{Activation, Branch, BranchLayer, CombineMode, GnnModel};
use gcnp_tensor::{Matrix, QuantMatrix};
use serde::{Deserialize, Serialize};

/// One quantized branch: its aggregation order and int8 weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QuantBranch {
    k: usize,
    weight: QuantMatrix,
}

/// One quantized layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QuantLayer {
    branches: Vec<QuantBranch>,
    bias: Option<Matrix>,
    combine: CombineMode,
    activation: Activation,
}

/// A model frozen to int8 weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedGnn {
    layers: Vec<QuantLayer>,
}

impl QuantizedGnn {
    /// Quantize a trained model's weights (biases stay f32 — they are tiny
    /// and added post-accumulation, as on real int8 accelerators).
    ///
    /// NaN/inf weights are refused as a typed
    /// [`ServingError::InvariantViolation`] instead of silently folding
    /// garbage into the quantization scales (a single NaN weight poisons
    /// its whole column's scale); a no-op check without
    /// `strict-invariants`. A Jumping-Knowledge model, which the file
    /// format cannot describe, is refused the same way (`quantize.jk`).
    pub fn try_from_model(model: &GnnModel) -> ServingResult<Self> {
        if model.jk {
            return Err(ServingError::InvariantViolation {
                check: "quantize.jk",
                detail: "Jumping-Knowledge (JK) models are not supported".into(),
            });
        }
        let mut layers = Vec::with_capacity(model.layers.len());
        for l in &model.layers {
            let mut branches = Vec::with_capacity(l.branches.len());
            for b in &l.branches {
                branches.push(QuantBranch {
                    k: b.k,
                    weight: QuantMatrix::try_quantize(&b.weight)?,
                });
            }
            layers.push(QuantLayer {
                branches,
                bias: l.bias.clone(),
                combine: l.combine,
                activation: l.activation,
            });
        }
        Ok(Self { layers })
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total weight bytes (≈ ¼ of the f32 model): §5's footprint number.
    pub fn weight_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.branches.iter().map(|b| b.weight.nbytes()).sum::<usize>()
                    + l.bias.as_ref().map_or(0, Matrix::nbytes)
            })
            .sum()
    }

    /// Load the file as an f32 [`GnnModel`]: each weight dequantized, each
    /// bias, combine mode and activation as stored, no Jumping Knowledge.
    ///
    /// Refuses a model with no layers (`quantize.layers`), and a weight
    /// whose values are not `rows × cols` or whose scales are not `cols`
    /// (`quant.shape`), naming the layer (1-based) and the branch.
    pub fn to_model(&self) -> ServingResult<GnnModel> {
        if self.layers.is_empty() {
            return Err(ServingError::InvariantViolation {
                check: "quantize.layers",
                detail: "the model has no layers".into(),
            });
        }
        let mut layers = Vec::with_capacity(self.layers.len());
        for (li, l) in self.layers.iter().enumerate() {
            let mut branches = Vec::with_capacity(l.branches.len());
            for (bi, b) in l.branches.iter().enumerate() {
                let weight =
                    b.weight
                        .dequantize()
                        .map_err(|e| ServingError::InvariantViolation {
                            check: e.check,
                            detail: format!("layer {} branch {bi}: {}", li + 1, e.detail),
                        })?;
                branches.push(Branch::new(b.k, weight));
            }
            layers.push(BranchLayer {
                branches,
                bias: l.bias.clone(),
                combine: l.combine,
                activation: l.activation,
            });
        }
        Ok(GnnModel::new(layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FullEngine;
    use gcnp_models::zoo;
    use gcnp_sparse::{CsrMatrix, Normalization};
    use gcnp_tensor::init::seeded_rng;

    fn setup() -> (CsrMatrix, Matrix, GnnModel) {
        let mut edges = Vec::new();
        for i in 0..30u32 {
            edges.push((i, (i + 1) % 30));
            edges.push(((i + 1) % 30, i));
        }
        let adj = CsrMatrix::adjacency(30, &edges).normalized(Normalization::Row);
        let x = Matrix::rand_uniform(30, 8, -1.0, 1.0, &mut seeded_rng(1));
        (adj, x, zoo::graphsage(8, 8, 3, 2))
    }

    /// The logits a quantized file serves: dequantized at load, then the
    /// full-graph engine an f32 model file runs on.
    fn dequantized_logits(model: &GnnModel, adj: &CsrMatrix, x: &Matrix) -> Matrix {
        let loaded = QuantizedGnn::try_from_model(model)
            .unwrap()
            .to_model()
            .unwrap();
        FullEngine::new(&loaded, Some(adj)).logits(x)
    }

    #[test]
    fn quantized_tracks_f32_logits() {
        let (adj, x, model) = setup();
        let exact = model.forward_full(Some(&adj), &x);
        let approx = dequantized_logits(&model, &adj, &x);
        let scale = exact.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(
            exact.max_abs_diff(&approx) < 0.1 * scale,
            "int8 deviation {} vs scale {}",
            exact.max_abs_diff(&approx),
            scale
        );
    }

    #[test]
    fn quantized_predictions_mostly_agree() {
        let (adj, x, model) = setup();
        let exact = model.forward_full(Some(&adj), &x).argmax_rows();
        let approx = dequantized_logits(&model, &adj, &x).argmax_rows();
        let agree = exact.iter().zip(&approx).filter(|(a, b)| a == b).count();
        assert!(agree >= 28, "only {agree}/30 predictions agree");
    }

    #[test]
    fn weight_memory_shrinks_4x() {
        let (_, _, model) = setup();
        let q = QuantizedGnn::try_from_model(&model).unwrap();
        let f32_bytes = model.n_weights() * 4;
        assert!(
            q.weight_bytes() < f32_bytes / 2,
            "{} vs {}",
            q.weight_bytes(),
            f32_bytes
        );
    }

    #[test]
    fn to_model_keeps_all_but_the_weight_bits() {
        let (_, _, model) = setup();
        let loaded = QuantizedGnn::try_from_model(&model)
            .unwrap()
            .to_model()
            .unwrap();
        assert!(!loaded.jk);
        assert_eq!(loaded.layers.len(), model.layers.len());
        for (l, m) in loaded.layers.iter().zip(&model.layers) {
            assert_eq!(l.bias, m.bias);
            assert_eq!(l.combine, m.combine);
            assert_eq!(l.activation, m.activation);
            for (b, mb) in l.branches.iter().zip(&m.branches) {
                assert_eq!(b.k, mb.k);
                // Within half a quantization step of the f32 weight.
                let step = mb
                    .weight
                    .as_slice()
                    .iter()
                    .fold(0f32, |a, v| a.max(v.abs()))
                    / 127.0;
                assert!(b.weight.max_abs_diff(&mb.weight) <= step / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn to_model_refuses_a_model_without_layers() {
        let empty = QuantizedGnn::try_from_model(&GnnModel::new(vec![])).unwrap();
        let err = empty.to_model().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invariant `quantize.layers` violated: the model has no layers"
        );
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    fn try_from_model_traps_nan_weights() {
        let (_, _, mut model) = setup();
        model.layers[0].branches[0].weight.set(1, 2, f32::NAN);
        let err = QuantizedGnn::try_from_model(&model).unwrap_err();
        match err {
            crate::ServingError::InvariantViolation { check, .. } => {
                assert_eq!(check, "quant.weights.finite");
            }
            other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }

    #[test]
    fn quantized_pruned_model_runs() {
        let (adj, x, model) = setup();
        let cfg = gcnp_core::PrunerConfig {
            beta_epochs: 3,
            w_epochs: 3,
            ..Default::default()
        };
        let scheme = gcnp_core::Scheme::BatchedInference;
        let (pruned, _) = gcnp_core::prune_model(&model, &adj, &x, 0.5, scheme, &cfg);
        let out = dequantized_logits(&pruned, &adj, &x);
        assert_eq!(out.shape(), (30, 3));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}
