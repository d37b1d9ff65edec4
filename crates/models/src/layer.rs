//! One GNN layer of the paper's Eq. (1).

use gcnp_autograd::{SharedAdj, Tape, Var};
use gcnp_sparse::CsrMatrix;
use gcnp_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    Relu,
    /// Identity — used by output layers (logits) and by the pruning target
    /// `h′⁽ⁱ⁾` (the paper optimizes pre-activation outputs, §3.1).
    None,
}

/// How branch outputs are combined (the `‖` of Eq. 1 or an average).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CombineMode {
    Concat,
    Mean,
}

/// One aggregation order `k`: output contribution `(Ãᵏ H) · W`. A pruned
/// branch is a narrower one: the pruner removes the dropped channels from
/// the weight's rows and from the producing layer's outputs alike, so every
/// branch reads its whole input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Branch {
    /// Aggregation order (0 = self features, 1 = one-hop mean, …).
    pub k: usize,
    /// Weight matrix, `in_dim × out_dim`.
    pub weight: Matrix,
}

impl Branch {
    /// A branch of order `k` with weight `weight`.
    pub fn new(k: usize, weight: Matrix) -> Self {
        Self { k, weight }
    }

    /// Output width of this branch.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Number of input channels read.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Eq. 2's `min` as a decision: a graph branch no wider out than in
    /// transforms first and aggregates its `out_dim`-wide product
    /// (`Ãᵏ·(H·W)`), since `k·d·f_out ≤ k·d·f_in`; every other branch
    /// aggregates first (`(Ãᵏ·H)·W`). A tie goes to projecting: Eq. 2 is
    /// indifferent there. A pure function of the shapes, read by the
    /// full-graph pass; the batched engine's layer 1 projects whatever the
    /// widths, because its input is the static attribute matrix.
    pub fn projects_first(&self) -> bool {
        self.k >= 1 && self.out_dim() <= self.in_dim()
    }
}

/// One layer: a set of branches over increasing aggregation order, combined
/// and activated. Dense layers are branches with `k = 0` only (§3.3 of the
/// paper treats them as GNN layers with `K′ = K = 0`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BranchLayer {
    pub branches: Vec<Branch>,
    /// Optional bias, `1 × out_dim_total`.
    pub bias: Option<Matrix>,
    pub combine: CombineMode,
    pub activation: Activation,
}

impl BranchLayer {
    /// A dense (non-graph) layer: `k = 0` branch only.
    pub fn dense(weight: Matrix, bias: Option<Matrix>, activation: Activation) -> Self {
        Self {
            branches: vec![Branch::new(0, weight)],
            bias,
            combine: CombineMode::Concat,
            activation,
        }
    }

    /// Total output width.
    pub fn out_dim(&self) -> usize {
        match self.combine {
            CombineMode::Concat => self.branches.iter().map(Branch::out_dim).sum(),
            CombineMode::Mean => self.branches.first().map_or(0, Branch::out_dim),
        }
    }

    /// Largest aggregation order used by any branch.
    pub fn max_k(&self) -> usize {
        self.branches.iter().map(|b| b.k).max().unwrap_or(0)
    }

    /// True when any branch aggregates over the graph (`k ≥ 1`).
    pub fn uses_graph(&self) -> bool {
        self.max_k() >= 1
    }

    /// Plain (no-tape) forward: `input` is `h⁽ⁱ⁻¹⁾`, `adj` the normalized
    /// adjacency (`None` allowed for pure dense layers). Returns
    /// post-activation output. `pre_activation` of the same computation is
    /// available via [`BranchLayer::forward_pre`].
    pub fn forward(&self, adj: Option<&CsrMatrix>, input: &Matrix) -> Matrix {
        let pre = self.forward_pre(adj, input);
        match self.activation {
            Activation::Relu => pre.relu(),
            Activation::None => pre,
        }
    }

    /// Pre-activation forward (`h′⁽ⁱ⁾` in the paper) — the quantity the
    /// LASSO pruner regresses against.
    pub fn forward_pre(&self, adj: Option<&CsrMatrix>, input: &Matrix) -> Matrix {
        let parts = self.branch_outputs(adj, input);
        let refs: Vec<&Matrix> = parts.iter().collect();
        let mut out = match self.combine {
            CombineMode::Concat => Matrix::concat_cols_all(&refs),
            CombineMode::Mean => {
                let mut acc = parts[0].clone();
                for p in &parts[1..] {
                    acc.add_assign(p);
                }
                acc.scale(1.0 / parts.len() as f32)
            }
        };
        if let Some(b) = &self.bias {
            out = out.add_row_vector(b.row(0));
        }
        out
    }

    /// Per-branch pre-combination outputs `(Ãᵏ H) · Wₖ`.
    pub fn branch_outputs(&self, adj: Option<&CsrMatrix>, input: &Matrix) -> Vec<Matrix> {
        let max_k = self.max_k();
        assert!(
            max_k == 0 || adj.is_some(),
            "branch_outputs: graph layer needs adjacency"
        );
        // Progressive powers: z_k = Ã^k · input (`powers[k - 1]`; z_0 is
        // the input itself).
        let mut powers: Vec<Matrix> = Vec::with_capacity(max_k);
        for _ in 0..max_k {
            let next = adj.unwrap().spmm(powers.last().unwrap_or(input));
            powers.push(next);
        }
        self.branches
            .iter()
            .map(|b| {
                let z = if b.k == 0 { input } else { &powers[b.k - 1] };
                z.matmul(&b.weight)
            })
            .collect()
    }

    /// Tape forward for training. `pvars` must contain one Var per branch
    /// weight followed by the bias Var when present, in order — as produced
    /// by [`BranchLayer::register_params`].
    pub fn forward_tape(
        &self,
        t: &mut Tape,
        adj: Option<&SharedAdj>,
        input: Var,
        pvars: &[Var],
    ) -> Var {
        assert_eq!(
            pvars.len(),
            self.n_params(),
            "forward_tape: wrong param count"
        );
        let max_k = self.max_k();
        assert!(
            max_k == 0 || adj.is_some(),
            "forward_tape: graph layer needs adjacency"
        );
        let mut powers: Vec<Var> = Vec::with_capacity(max_k + 1);
        powers.push(input);
        for _ in 0..max_k {
            let prev = *powers.last().unwrap();
            powers.push(t.spmm(adj.unwrap(), prev));
        }
        let mut parts = Vec::with_capacity(self.branches.len());
        for (b, &w) in self.branches.iter().zip(pvars) {
            parts.push(t.matmul(powers[b.k], w));
        }
        let mut out = match self.combine {
            CombineMode::Concat => {
                if parts.len() == 1 {
                    parts[0]
                } else {
                    t.concat_cols(&parts)
                }
            }
            CombineMode::Mean => {
                let mut acc = parts[0];
                for &p in &parts[1..] {
                    acc = t.add(acc, p);
                }
                t.scale(acc, 1.0 / parts.len() as f32)
            }
        };
        if self.bias.is_some() {
            out = t.add_bias(out, pvars[self.branches.len()]);
        }
        match self.activation {
            Activation::Relu => t.relu(out),
            Activation::None => out,
        }
    }

    /// Register this layer's parameters on a tape (weights then bias).
    pub fn register_params(&self, t: &mut Tape) -> Vec<Var> {
        let mut vars: Vec<Var> = self
            .branches
            .iter()
            .map(|b| t.param(b.weight.clone()))
            .collect();
        if let Some(b) = &self.bias {
            vars.push(t.param(b.clone()));
        }
        vars
    }

    /// Number of parameter tensors (branch weights + optional bias).
    pub fn n_params(&self) -> usize {
        self.branches.len() + usize::from(self.bias.is_some())
    }

    /// Mutable references to this layer's parameters, same order as
    /// [`BranchLayer::register_params`].
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut v: Vec<&mut Matrix> = self.branches.iter_mut().map(|b| &mut b.weight).collect();
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    /// Total scalar parameter count (for model-size reporting).
    pub fn n_weights(&self) -> usize {
        self.branches.iter().map(|b| b.weight.len()).sum::<usize>()
            + self.bias.as_ref().map_or(0, Matrix::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnp_sparse::Normalization;
    use gcnp_tensor::init::seeded_rng;

    fn tiny_adj() -> CsrMatrix {
        CsrMatrix::adjacency(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).normalized(Normalization::Row)
    }

    fn sage_layer(fin: usize, fout: usize, seed: u64) -> BranchLayer {
        let mut rng = seeded_rng(seed);
        BranchLayer {
            branches: vec![
                Branch::new(0, Matrix::glorot(fin, fout, &mut rng)),
                Branch::new(1, Matrix::glorot(fin, fout, &mut rng)),
            ],
            bias: Some(Matrix::zeros(1, 2 * fout)),
            combine: CombineMode::Concat,
            activation: Activation::Relu,
        }
    }

    #[test]
    fn sage_layer_shapes() {
        let layer = sage_layer(4, 5, 1);
        let adj = tiny_adj();
        let x = Matrix::rand_uniform(3, 4, -1.0, 1.0, &mut seeded_rng(2));
        let out = layer.forward(Some(&adj), &x);
        assert_eq!(out.shape(), (3, 10));
        assert!(out.as_slice().iter().all(|&v| v >= 0.0), "post-ReLU");
    }

    #[test]
    fn dense_layer_ignores_graph() {
        let w = Matrix::eye(3);
        let layer = BranchLayer::dense(w, None, Activation::None);
        let x = Matrix::rand_uniform(2, 3, -1.0, 1.0, &mut seeded_rng(3));
        assert!(layer.forward(None, &x).approx_eq(&x, 1e-6));
        assert!(!layer.uses_graph());
    }

    #[test]
    fn tape_and_plain_forward_agree() {
        let layer = sage_layer(4, 3, 5);
        let adj = tiny_adj();
        let x = Matrix::rand_uniform(3, 4, -1.0, 1.0, &mut seeded_rng(6));
        let plain = layer.forward(Some(&adj), &x);

        let shared = SharedAdj::new(adj);
        let mut t = Tape::new();
        let xv = t.constant(x);
        let pvars = layer.register_params(&mut t);
        let out = layer.forward_tape(&mut t, Some(&shared), xv, &pvars);
        assert!(t.value(out).approx_eq(&plain, 1e-5));
    }

    #[test]
    fn mean_combine_averages_branches() {
        let mut rng = seeded_rng(9);
        let w = Matrix::glorot(4, 3, &mut rng);
        let layer = BranchLayer {
            branches: vec![Branch::new(0, w.clone()), Branch::new(0, w.clone())],
            bias: None,
            combine: CombineMode::Mean,
            activation: Activation::None,
        };
        let x = Matrix::rand_uniform(3, 4, -1.0, 1.0, &mut rng);
        let out = layer.forward(None, &x);
        assert!(
            out.approx_eq(&x.matmul(&w), 1e-5),
            "mean of identical branches"
        );
        assert_eq!(layer.out_dim(), 3);
    }

    #[test]
    fn projects_first_is_eq2_min() {
        let b = |k, rows, cols| Branch::new(k, Matrix::zeros(rows, cols));
        assert!(b(1, 6, 4).projects_first(), "narrower out than in");
        assert!(b(2, 4, 4).projects_first(), "a tie projects");
        assert!(!b(1, 4, 6).projects_first(), "wider out than in");
        assert!(!b(0, 6, 4).projects_first(), "no graph, nothing to order");
    }

    #[test]
    fn param_counts() {
        let layer = sage_layer(4, 5, 10);
        assert_eq!(layer.n_params(), 3);
        assert_eq!(layer.n_weights(), 4 * 5 * 2 + 10);
    }
}
