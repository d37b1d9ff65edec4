//! Int8 quantized inference (the paper's §5 edge-device motivation).
//!
//! [`QuantizedGnn`] freezes a trained (possibly pruned) [`GnnModel`] into
//! per-column int8 weights and runs full inference with i32-accumulated
//! GEMMs. Aggregation (`Ã·H`) stays in f32 — on a real accelerator it is
//! bandwidth-bound and benefits from the pruned feature width rather than
//! weight quantization. Pruning and quantization compose: 4× pruning × 4×
//! weight compression ≈ 16× smaller weight memory.

use crate::error::ServingResult;
use gcnp_models::{Activation, CombineMode, GnnModel};
use gcnp_sparse::CsrMatrix;
use gcnp_tensor::{qgemm_packed_into, Matrix, QuantMatrix, QuantPackedB};
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

/// A frozen int8 inference model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedGnn {
    layers: Vec<QuantLayer>,
}

impl QuantizedGnn {
    /// Quantize a trained model's weights (biases stay f32 — they are tiny
    /// and added post-accumulation, as on real int8 accelerators).
    ///
    /// Panics on a Jumping-Knowledge model, and on NaN/inf weights under
    /// `strict-invariants`; see [`QuantizedGnn::try_from_model`] for the
    /// fallible form.
    pub fn from_model(model: &GnnModel) -> Self {
        assert!(!model.jk, "QuantizedGnn: JK models not supported");
        let layers = model
            .layers
            .iter()
            .map(|l| QuantLayer {
                branches: l
                    .branches
                    .iter()
                    .map(|b| QuantBranch {
                        k: b.k,
                        weight: QuantMatrix::quantize(&b.weight),
                    })
                    .collect(),
                bias: l.bias.clone(),
                combine: l.combine,
                activation: l.activation,
            })
            .collect();
        Self { layers }
    }

    /// [`QuantizedGnn::from_model`], netting NaN/inf weights into a typed
    /// [`crate::ServingError::InvariantViolation`] instead of silently
    /// folding garbage into the quantization scales (a single NaN weight
    /// poisons its whole column's scale). No-op check without
    /// `strict-invariants`. A Jumping-Knowledge model, which the int8
    /// forward pass does not run, is refused the same way
    /// (`quantize.jk`).
    pub fn try_from_model(model: &GnnModel) -> ServingResult<Self> {
        if model.jk {
            return Err(crate::ServingError::InvariantViolation {
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

    /// Total weight bytes (≈ ¼ of the f32 model).
    pub fn weight_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.branches.iter().map(|b| b.weight.nbytes()).sum::<usize>()
                    + l.bias.as_ref().map_or(0, Matrix::nbytes)
            })
            .sum()
    }

    /// Full inference with blocked int8 GEMMs: each branch's stored
    /// [`QuantMatrix`] is repacked into the panel layout once per call and
    /// run through [`qgemm_packed_into`] (bitwise identical to the naive
    /// `qmatmul` reference — same quantization grid, exact integer
    /// accumulation, shared dequant).
    pub fn forward_full(&self, adj: Option<&CsrMatrix>, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            let max_k = layer.branches.iter().map(|b| b.k).max().unwrap_or(0);
            assert!(max_k == 0 || adj.is_some(), "graph layer needs adjacency");
            let mut powers: Vec<Matrix> = vec![h.clone()];
            for _ in 0..max_k {
                let next = adj.unwrap().spmm(powers.last().unwrap());
                powers.push(next);
            }
            let parts: Vec<Matrix> = layer
                .branches
                .iter()
                .map(|b| {
                    let pb = QuantPackedB::from_quant(&b.weight);
                    let z = &powers[b.k];
                    let mut out = Matrix::zeros(z.rows(), pb.n());
                    qgemm_packed_into(z, &pb, &mut out);
                    out
                })
                .collect();
            let refs: Vec<&Matrix> = parts.iter().collect();
            let mut out = match layer.combine {
                CombineMode::Concat => Matrix::concat_cols_all(&refs),
                CombineMode::Mean => {
                    let mut acc = parts[0].clone();
                    for p in &parts[1..] {
                        acc.add_assign(p);
                    }
                    acc.scale(1.0 / parts.len() as f32)
                }
            };
            if let Some(b) = &layer.bias {
                out = out.add_row_vector(b.row(0));
            }
            h = match layer.activation {
                Activation::Relu => out.relu(),
                Activation::None => out,
            };
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnp_models::zoo;
    use gcnp_sparse::Normalization;
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

    #[test]
    fn quantized_tracks_f32_logits() {
        let (adj, x, model) = setup();
        let exact = model.forward_full(Some(&adj), &x);
        let q = QuantizedGnn::from_model(&model);
        let approx = q.forward_full(Some(&adj), &x);
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
        let q = QuantizedGnn::from_model(&model);
        let approx = q.forward_full(Some(&adj), &x).argmax_rows();
        let agree = exact.iter().zip(&approx).filter(|(a, b)| a == b).count();
        assert!(agree >= 28, "only {agree}/30 predictions agree");
    }

    #[test]
    fn weight_memory_shrinks_4x() {
        let (_, _, model) = setup();
        let q = QuantizedGnn::from_model(&model);
        let f32_bytes = model.n_weights() * 4;
        assert!(
            q.weight_bytes() < f32_bytes / 2,
            "{} vs {}",
            q.weight_bytes(),
            f32_bytes
        );
    }

    #[test]
    fn try_from_model_accepts_finite_weights() {
        let (adj, x, model) = setup();
        let q = QuantizedGnn::try_from_model(&model).unwrap();
        // The fallible path quantizes onto the same grid as `from_model`.
        let a = QuantizedGnn::from_model(&model).forward_full(Some(&adj), &x);
        let b = q.forward_full(Some(&adj), &x);
        assert_eq!(a.as_slice(), b.as_slice());
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
        let q = QuantizedGnn::from_model(&pruned);
        let out = q.forward_full(Some(&adj), &x);
        assert_eq!(out.shape(), (30, 3));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}
