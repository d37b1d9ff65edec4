//! Stacked GNN models.

use gcnp_autograd::{SharedAdj, Tape, Var};
use gcnp_sparse::CsrMatrix;
use gcnp_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::layer::BranchLayer;

/// A stack of [`BranchLayer`]s.
///
/// When `jk` is set, the final layer (the classifier) consumes the
/// concatenation of all previous layer outputs — the Jumping Knowledge
/// architecture (Xu et al., 2018). Otherwise each layer feeds the next.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnnModel {
    pub layers: Vec<BranchLayer>,
    pub jk: bool,
}

impl GnnModel {
    /// A plain sequential stack.
    pub fn new(layers: Vec<BranchLayer>) -> Self {
        Self { layers, jk: false }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count.
    pub fn n_weights(&self) -> usize {
        self.layers.iter().map(BranchLayer::n_weights).sum()
    }

    /// Largest aggregation order used anywhere (receptive-field depth
    /// contribution per layer).
    pub fn uses_graph(&self) -> bool {
        self.layers.iter().any(BranchLayer::uses_graph)
    }

    /// Full-graph inference: forward all nodes through every layer.
    /// `adj` may be `None` for pure-MLP models.
    pub fn forward_full(&self, adj: Option<&CsrMatrix>, x: &Matrix) -> Matrix {
        self.forward_collect(adj, x)
            .pop()
            .expect("model has layers")
    }

    /// Like [`GnnModel::forward_full`] but returns every layer's
    /// post-activation output `h⁽¹⁾..h⁽ᴸ⁾` (the pruner and the hidden-feature
    /// store need the intermediate hidden features).
    pub fn forward_collect(&self, adj: Option<&CsrMatrix>, x: &Matrix) -> Vec<Matrix> {
        assert!(!self.layers.is_empty(), "forward_collect: empty model");
        let mut outputs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let out = if i == 0 {
                layer.forward(adj, x)
            } else if self.jk && i == n - 1 {
                let refs: Vec<&Matrix> = outputs.iter().collect();
                layer.forward(adj, &Matrix::concat_cols_all(&refs))
            } else {
                layer.forward(adj, &outputs[i - 1])
            };
            outputs.push(out);
        }
        outputs
    }

    /// Register all parameters on a tape (layer order, weights then bias).
    pub fn register_params(&self, t: &mut Tape) -> Vec<Var> {
        self.layers
            .iter()
            .flat_map(|l| l.register_params(t))
            .collect()
    }

    /// Tape forward for training; `pvars` from [`GnnModel::register_params`].
    pub fn forward_tape(
        &self,
        t: &mut Tape,
        adj: Option<&SharedAdj>,
        x: Var,
        pvars: &[Var],
    ) -> Var {
        let mut offset = 0;
        let mut outputs: Vec<Var> = Vec::with_capacity(self.layers.len());
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let input = if i == 0 {
                x
            } else if self.jk && i == n - 1 {
                t.concat_cols(&outputs)
            } else {
                outputs[i - 1]
            };
            let np = layer.n_params();
            let out = layer.forward_tape(t, adj, input, &pvars[offset..offset + np]);
            offset += np;
            outputs.push(out);
        }
        *outputs.last().unwrap()
    }

    /// Mutable parameter references in registration order.
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, Branch, CombineMode};
    use gcnp_sparse::Normalization;
    use gcnp_tensor::init::seeded_rng;

    fn adj() -> CsrMatrix {
        CsrMatrix::adjacency(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (2, 1)])
            .normalized(Normalization::Row)
    }

    fn sage(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
        let mut rng = seeded_rng(seed);
        let l1 = BranchLayer {
            branches: vec![
                Branch::new(0, Matrix::glorot(fin, hidden / 2, &mut rng)),
                Branch::new(1, Matrix::glorot(fin, hidden / 2, &mut rng)),
            ],
            bias: Some(Matrix::zeros(1, hidden)),
            combine: CombineMode::Concat,
            activation: Activation::Relu,
        };
        let l2 = BranchLayer {
            branches: vec![
                Branch::new(0, Matrix::glorot(hidden, hidden / 2, &mut rng)),
                Branch::new(1, Matrix::glorot(hidden, hidden / 2, &mut rng)),
            ],
            bias: Some(Matrix::zeros(1, hidden)),
            combine: CombineMode::Concat,
            activation: Activation::Relu,
        };
        let cls = BranchLayer::dense(
            Matrix::glorot(hidden, classes, &mut rng),
            Some(Matrix::zeros(1, classes)),
            Activation::None,
        );
        GnnModel::new(vec![l1, l2, cls])
    }

    #[test]
    fn forward_shapes() {
        let m = sage(6, 8, 3, 1);
        let x = Matrix::rand_uniform(4, 6, -1.0, 1.0, &mut seeded_rng(2));
        let out = m.forward_full(Some(&adj()), &x);
        assert_eq!(out.shape(), (4, 3));
        let hs = m.forward_collect(Some(&adj()), &x);
        assert_eq!(hs.len(), 3);
        assert_eq!(hs[0].shape(), (4, 8));
        assert_eq!(hs[1].shape(), (4, 8));
    }

    #[test]
    fn tape_matches_plain() {
        let m = sage(6, 8, 3, 3);
        let a = adj();
        let x = Matrix::rand_uniform(4, 6, -1.0, 1.0, &mut seeded_rng(4));
        let plain = m.forward_full(Some(&a), &x);
        let shared = SharedAdj::new(a);
        let mut t = Tape::new();
        let xv = t.constant(x);
        let pvars = m.register_params(&mut t);
        let out = m.forward_tape(&mut t, Some(&shared), xv, &pvars);
        assert!(t.value(out).approx_eq(&plain, 1e-5));
    }

    #[test]
    fn jk_concatenates_all_hidden() {
        let mut rng = seeded_rng(5);
        let l1 = BranchLayer::dense(Matrix::glorot(6, 4, &mut rng), None, Activation::Relu);
        let l2 = BranchLayer::dense(Matrix::glorot(4, 4, &mut rng), None, Activation::Relu);
        let cls = BranchLayer::dense(Matrix::glorot(8, 2, &mut rng), None, Activation::None);
        let m = GnnModel {
            layers: vec![l1, l2, cls],
            jk: true,
        };
        let x = Matrix::rand_uniform(3, 6, -1.0, 1.0, &mut rng);
        // Classifier input dim is 4 + 4 = 8 -> must not panic, output 3x2.
        assert_eq!(m.forward_full(None, &x).shape(), (3, 2));
    }

    #[test]
    fn params_mut_matches_registration_order() {
        let mut m = sage(6, 8, 3, 6);
        let n: usize = m.layers.iter().map(|l| l.n_params()).sum();
        assert_eq!(m.params_mut().len(), n);
        let mut t = Tape::new();
        assert_eq!(m.register_params(&mut t).len(), n);
    }
}
