//! The tape: define-by-run op recording and reverse-mode backward.

use gcnp_sparse::CsrMatrix;
use gcnp_tensor::Matrix;
use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::Arc;

/// A sparse adjacency shared by forward (`Ã`) and backward (`Ãᵀ`) passes.
///
/// The transpose is computed once at construction so every `spmm` backward
/// is a plain forward SpMM on the reversed graph.
#[derive(Clone)]
pub struct SharedAdj {
    fwd: Arc<CsrMatrix>,
    bwd: Arc<CsrMatrix>,
}

impl SharedAdj {
    /// Wrap an adjacency matrix, precomputing its transpose.
    pub fn new(m: CsrMatrix) -> Self {
        let bwd = m.transpose();
        Self {
            fwd: Arc::new(m),
            bwd: Arc::new(bwd),
        }
    }

    /// The forward adjacency.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.fwd
    }

    /// The transposed adjacency used by backward.
    pub fn transposed(&self) -> &CsrMatrix {
        &self.bwd
    }
}

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

enum Op {
    Leaf,
    MatMul(Var, Var),
    Spmm(SharedAdj, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Hadamard(Var, Var),
    AddBias(Var, Var),
    ConcatCols(Vec<Var>),
    Relu(Var),
    LeakyRelu(Var, f32),
    Scale(Var, f32),
    ScaleCols {
        x: Var,
        beta: Var,
    },
    Dropout {
        x: Var,
        mask: Matrix,
    },
    GatherRows {
        x: Var,
        idx: Vec<usize>,
    },
    SoftmaxXent {
        logits: Var,
        labels: Vec<usize>,
        probs: Matrix,
    },
    BceLogits {
        logits: Var,
        targets: Matrix,
    },
    Mse {
        pred: Var,
        target: Matrix,
    },
    L1(Var),
    AttnAggregate {
        h: Var,
        s: Var,
        d: Var,
        adj: SharedAdj,
        alpha: Vec<f32>,
        z: Vec<f32>,
        slope: f32,
    },
}

struct Node {
    value: Matrix,
    op: Op,
    needs_grad: bool,
}

/// A reverse-mode autodiff tape over dense `f32` matrices.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Register a constant (no gradient tracked).
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf, false)
    }

    /// Register a trainable parameter (gradient tracked).
    pub fn param(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf, true)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The scalar value of a 1×1 node (loss values).
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar: node is not 1x1");
        m.get(0, 0)
    }

    /// The gradient accumulated for `v` by the last [`Tape::backward`] call.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(Option::as_ref)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- ops -----------------------------------------------------------

    /// Dense GEMM `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// Sparse aggregation `Ã · x` — the GNN propagation op.
    pub fn spmm(&mut self, adj: &SharedAdj, x: Var) -> Var {
        let v = adj.matrix().spmm(self.value(x));
        let ng = self.needs(x);
        self.push(v, Op::Spmm(adj.clone(), x), ng)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng)
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Hadamard(a, b), ng)
    }

    /// Broadcast-add a `1×c` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        assert_eq!(self.value(bias).rows(), 1, "add_bias: bias must be 1xC");
        let v = self.value(x).add_row_vector(self.value(bias).row(0));
        let ng = self.needs(x) || self.needs(bias);
        self.push(v, Op::AddBias(x, bias), ng)
    }

    /// Horizontal concatenation of branch outputs (the `‖` of Eq. 1).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: empty");
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::concat_cols_all(&mats);
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push(v, Op::ConcatCols(parts.to_vec()), ng)
    }

    /// ReLU activation.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.value(x).relu();
        let ng = self.needs(x);
        self.push(v, Op::Relu(x), ng)
    }

    /// LeakyReLU activation (GAT attention scores).
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let v = self.value(x).map(|t| if t > 0.0 { t } else { slope * t });
        let ng = self.needs(x);
        self.push(v, Op::LeakyRelu(x, slope), ng)
    }

    /// Scalar multiple `alpha * x`.
    pub fn scale(&mut self, x: Var, alpha: f32) -> Var {
        let v = self.value(x).scale(alpha);
        let ng = self.needs(x);
        self.push(v, Op::Scale(x, alpha), ng)
    }

    /// Channel mask `x ⊙ β` where `beta` is a trainable `1×c` row — Eq. 4 of
    /// the paper. Column `j` of `x` is scaled by `β_j`.
    pub fn scale_cols(&mut self, x: Var, beta: Var) -> Var {
        assert_eq!(self.value(beta).rows(), 1, "scale_cols: beta must be 1xC");
        assert_eq!(
            self.value(beta).cols(),
            self.value(x).cols(),
            "scale_cols: channel count mismatch"
        );
        let v = self.value(x).scale_cols(self.value(beta).row(0));
        let ng = self.needs(x) || self.needs(beta);
        self.push(v, Op::ScaleCols { x, beta }, ng)
    }

    /// Inverted dropout with keep-scaling; `p` is the drop probability.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut StdRng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout: p must be in [0,1)");
        if p == 0.0 {
            return x;
        }
        let keep = 1.0 - p;
        let (r, c) = self.value(x).shape();
        let mask = Matrix::from_vec(
            r,
            c,
            (0..r * c)
                .map(|_| {
                    if rng.random_range(0.0..1.0) < p {
                        0.0
                    } else {
                        1.0 / keep
                    }
                })
                .collect(),
        );
        let v = self.value(x).hadamard(&mask);
        let ng = self.needs(x);
        self.push(v, Op::Dropout { x, mask }, ng)
    }

    /// Gather rows `idx` of `x` (loss restriction to labelled nodes).
    pub fn gather_rows(&mut self, x: Var, idx: &[usize]) -> Var {
        let v = self.value(x).gather_rows(idx);
        let ng = self.needs(x);
        self.push(
            v,
            Op::GatherRows {
                x,
                idx: idx.to_vec(),
            },
            ng,
        )
    }

    /// Mean softmax cross-entropy of `logits` against integer class labels.
    pub fn softmax_xent(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lv = self.value(logits);
        assert_eq!(
            lv.rows(),
            labels.len(),
            "softmax_xent: label count mismatch"
        );
        assert!(!labels.is_empty(), "softmax_xent: empty batch");
        let probs = lv.softmax_rows();
        let mut loss = 0.0f32;
        for (r, &y) in labels.iter().enumerate() {
            debug_assert!(y < lv.cols());
            loss -= probs.get(r, y).max(1e-12).ln();
        }
        loss /= labels.len() as f32;
        let ng = self.needs(logits);
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::SoftmaxXent {
                logits,
                labels: labels.to_vec(),
                probs,
            },
            ng,
        )
    }

    /// Mean binary cross-entropy with logits against a 0/1 target matrix
    /// (multi-label classification, e.g. the Yelp dataset).
    pub fn bce_logits(&mut self, logits: Var, targets: Matrix) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.shape(), targets.shape(), "bce_logits: shape mismatch");
        // Numerically stable: max(z,0) - z*y + ln(1 + exp(-|z|)).
        let mut loss = 0.0f32;
        for (z, y) in lv.as_slice().iter().zip(targets.as_slice()) {
            loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
        }
        loss /= lv.len() as f32;
        let ng = self.needs(logits);
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::BceLogits { logits, targets },
            ng,
        )
    }

    /// Mean squared error against a constant target — the LASSO data term
    /// `‖Y − ŷ‖²` of Eqs. 5–7 (mean-normalized for stable step sizes).
    pub fn mse(&mut self, pred: Var, target: Matrix) -> Var {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "mse: shape mismatch");
        let loss = pv.sub(&target).frobenius_sq() / pv.len() as f32;
        let ng = self.needs(pred);
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::Mse { pred, target },
            ng,
        )
    }

    /// L1 norm `Σ|x|` — the LASSO penalty `λ‖β‖₁` (scale with
    /// [`Tape::scale`] and combine with [`Tape::add`]).
    pub fn l1(&mut self, x: Var) -> Var {
        let loss: f32 = self.value(x).as_slice().iter().map(|v| v.abs()).sum();
        let ng = self.needs(x);
        self.push(Matrix::from_vec(1, 1, vec![loss]), Op::L1(x), ng)
    }

    /// Fused single-head graph attention aggregation (the GAT baseline):
    ///
    /// `out_i = Σ_{j∈N(i)} α_ij h_j`, with
    /// `α_ij = softmax_j( LeakyReLU(s_i + d_j) )`,
    /// where `s = (XW)·a_src` and `d = (XW)·a_dst` are `n×1` score columns.
    /// Nodes without neighbors produce zero rows.
    pub fn attn_aggregate(&mut self, adj: &SharedAdj, h: Var, s: Var, d: Var, slope: f32) -> Var {
        let a = adj.matrix();
        let n = a.n_rows();
        let hv = self.value(h);
        let sv = self.value(s);
        let dv = self.value(d);
        assert_eq!(hv.rows(), n, "attn_aggregate: h row mismatch");
        assert_eq!(sv.shape(), (n, 1), "attn_aggregate: s must be n x 1");
        assert_eq!(dv.shape(), (n, 1), "attn_aggregate: d must be n x 1");
        let f = hv.cols();
        let mut z = vec![0f32; a.nnz()];
        let mut alpha = vec![0f32; a.nnz()];
        let mut out = Matrix::zeros(n, f);
        for i in 0..n {
            let (start, end) = (a.indptr()[i], a.indptr()[i + 1]);
            if start == end {
                continue;
            }
            let si = sv.get(i, 0);
            let mut max = f32::NEG_INFINITY;
            for (e, &j) in (start..end).zip(a.row_indices(i)) {
                let raw = si + dv.get(j as usize, 0);
                z[e] = raw;
                let act = if raw > 0.0 { raw } else { slope * raw };
                alpha[e] = act;
                max = max.max(act);
            }
            let mut sum = 0.0f32;
            for aij in &mut alpha[start..end] {
                *aij = (*aij - max).exp();
                sum += *aij;
            }
            let out_row = out.row_mut(i);
            for (e, &j) in (start..end).zip(a.row_indices(i)) {
                alpha[e] /= sum;
                let hj = hv.row(j as usize);
                for (o, &hv_) in out_row.iter_mut().zip(hj) {
                    *o += alpha[e] * hv_;
                }
            }
        }
        let ng = self.needs(h) || self.needs(s) || self.needs(d);
        self.push(
            out,
            Op::AttnAggregate {
                h,
                s,
                d,
                adj: adj.clone(),
                alpha,
                z,
                slope,
            },
            ng,
        )
    }

    // ---- backward ------------------------------------------------------

    /// Run reverse-mode accumulation from `loss` (must be 1×1). Gradients are
    /// then available through [`Tape::grad`].
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        let n = self.nodes.len();
        let mut grads: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for i in (0..n).rev() {
            let Some(g) = grads[i].take() else { continue };
            if !self.nodes[i].needs_grad {
                // Keep leaf grads for inspection even when unused downstream.
                grads[i] = Some(g);
                continue;
            }
            // Helper to accumulate into a parent, respecting needs_grad.
            macro_rules! acc {
                ($var:expr, $val:expr) => {{
                    let v: Var = $var;
                    if self.nodes[v.0].needs_grad {
                        let m: Matrix = $val;
                        match &mut grads[v.0] {
                            Some(existing) => existing.add_assign(&m),
                            slot => *slot = Some(m),
                        }
                    }
                }};
            }
            match &self.nodes[i].op {
                Op::Leaf => {
                    grads[i] = Some(g);
                    continue;
                }
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.nodes[a.0].needs_grad {
                        acc!(a, g.matmul_a_bt(&self.nodes[b.0].value));
                    }
                    if self.nodes[b.0].needs_grad {
                        acc!(b, self.nodes[a.0].value.matmul_at_b(&g));
                    }
                }
                Op::Spmm(adj, x) => {
                    let x = *x;
                    let adj = adj.clone();
                    acc!(x, adj.transposed().spmm(&g));
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    acc!(a, g.clone());
                    acc!(b, g.clone());
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    acc!(a, g.clone());
                    acc!(b, g.scale(-1.0));
                }
                Op::Hadamard(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.nodes[a.0].needs_grad {
                        acc!(a, g.hadamard(&self.nodes[b.0].value));
                    }
                    if self.nodes[b.0].needs_grad {
                        acc!(b, g.hadamard(&self.nodes[a.0].value));
                    }
                }
                Op::AddBias(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    acc!(x, g.clone());
                    if self.nodes[bias.0].needs_grad {
                        let sums = g.col_sums();
                        let c = sums.len();
                        acc!(bias, Matrix::from_vec(1, c, sums));
                    }
                }
                Op::ConcatCols(parts) => {
                    let parts = parts.clone();
                    let widths: Vec<usize> = parts
                        .iter()
                        .map(|&p| self.nodes[p.0].value.cols())
                        .collect();
                    let pieces = g.split_cols(&widths);
                    for (p, piece) in parts.into_iter().zip(pieces) {
                        acc!(p, piece);
                    }
                }
                Op::Relu(x) => {
                    let x = *x;
                    let mask = self.nodes[x.0]
                        .value
                        .map(|t| if t > 0.0 { 1.0 } else { 0.0 });
                    acc!(x, g.hadamard(&mask));
                }
                Op::LeakyRelu(x, slope) => {
                    let (x, slope) = (*x, *slope);
                    let mask = self.nodes[x.0]
                        .value
                        .map(|t| if t > 0.0 { 1.0 } else { slope });
                    acc!(x, g.hadamard(&mask));
                }
                Op::Scale(x, alpha) => {
                    let (x, alpha) = (*x, *alpha);
                    acc!(x, g.scale(alpha));
                }
                Op::ScaleCols { x, beta } => {
                    let (x, beta) = (*x, *beta);
                    if self.nodes[x.0].needs_grad {
                        let b = self.nodes[beta.0].value.row(0).to_vec();
                        acc!(x, g.scale_cols(&b));
                    }
                    if self.nodes[beta.0].needs_grad {
                        let prod = g.hadamard(&self.nodes[x.0].value);
                        let sums = prod.col_sums();
                        let c = sums.len();
                        acc!(beta, Matrix::from_vec(1, c, sums));
                    }
                }
                Op::Dropout { x, mask } => {
                    let x = *x;
                    let mask = mask.clone();
                    acc!(x, g.hadamard(&mask));
                }
                Op::GatherRows { x, idx } => {
                    let x = *x;
                    let idx = idx.clone();
                    let (r, c) = self.nodes[x.0].value.shape();
                    let mut dx = Matrix::zeros(r, c);
                    for (o, &src) in idx.iter().enumerate() {
                        gcnp_tensor::ops::axpy(dx.row_mut(src), g.row(o), 1.0);
                    }
                    acc!(x, dx);
                }
                Op::SoftmaxXent {
                    logits,
                    labels,
                    probs,
                } => {
                    let logits = *logits;
                    let scale = g.get(0, 0) / labels.len() as f32;
                    let mut dl = probs.clone();
                    for (r, &y) in labels.iter().enumerate() {
                        let v = dl.get(r, y);
                        dl.set(r, y, v - 1.0);
                    }
                    dl.scale_assign(scale);
                    acc!(logits, dl);
                }
                Op::BceLogits { logits, targets } => {
                    let logits = *logits;
                    let scale = g.get(0, 0) / targets.len() as f32;
                    let dl = self.nodes[logits.0]
                        .value
                        .sigmoid()
                        .sub(targets)
                        .scale(scale);
                    acc!(logits, dl);
                }
                Op::Mse { pred, target } => {
                    let pred = *pred;
                    let scale = 2.0 * g.get(0, 0) / target.len() as f32;
                    let dp = self.nodes[pred.0].value.sub(target).scale(scale);
                    acc!(pred, dp);
                }
                Op::L1(x) => {
                    let x = *x;
                    let scale = g.get(0, 0);
                    let dx = self.nodes[x.0].value.map(|t| {
                        if t > 0.0 {
                            scale
                        } else if t < 0.0 {
                            -scale
                        } else {
                            0.0
                        }
                    });
                    acc!(x, dx);
                }
                Op::AttnAggregate {
                    h,
                    s,
                    d,
                    adj,
                    alpha,
                    z,
                    slope,
                } => {
                    let (h, s, d, slope) = (*h, *s, *d, *slope);
                    let adj = adj.clone();
                    let alpha = alpha.clone();
                    let z = z.clone();
                    let a = adj.matrix();
                    let n = a.n_rows();
                    let hv = &self.nodes[h.0].value;
                    let f = hv.cols();
                    let mut dh = Matrix::zeros(n, f);
                    let mut ds = Matrix::zeros(n, 1);
                    let mut dd = Matrix::zeros(n, 1);
                    for i in 0..n {
                        let (start, end) = (a.indptr()[i], a.indptr()[i + 1]);
                        if start == end {
                            continue;
                        }
                        let gi = g.row(i);
                        // dα_ij = <g_i, h_j>; softmax backward per row.
                        let mut dalpha = vec![0f32; end - start];
                        let mut common = 0.0f32;
                        for (t, &j) in a.row_indices(i).iter().enumerate() {
                            let da = gcnp_tensor::ops::dot(gi, hv.row(j as usize));
                            dalpha[t] = da;
                            common += alpha[start + t] * da;
                        }
                        for (t, &j) in a.row_indices(i).iter().enumerate() {
                            let e = start + t;
                            let de = alpha[e] * (dalpha[t] - common);
                            let dz = if z[e] > 0.0 { de } else { slope * de };
                            ds.set(i, 0, ds.get(i, 0) + dz);
                            let jj = j as usize;
                            dd.set(jj, 0, dd.get(jj, 0) + dz);
                            gcnp_tensor::ops::axpy(dh.row_mut(jj), gi, alpha[e]);
                        }
                    }
                    acc!(h, dh);
                    acc!(s, ds);
                    acc!(d, dd);
                }
            }
            grads[i] = Some(g);
        }
        if gcnp_tensor::check::enabled() {
            // Under `strict-invariants`, trap non-finite gradients at the
            // tape boundary — a NaN here poisons every optimizer step after.
            for (i, g) in grads.iter().enumerate() {
                if let Some(g) = g {
                    gcnp_tensor::check::guard_finite(
                        "tape.backward.finite",
                        &format!("gradient of tape node {i}"),
                        g.as_slice(),
                    );
                }
            }
        }
        self.grads = grads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnp_tensor::init::seeded_rng;

    #[test]
    fn scalar_accessor() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(1, 1, vec![3.5]));
        assert_eq!(t.scalar(a), 3.5);
    }

    #[test]
    fn linear_regression_gradient_descends() {
        // One GD step on ||XW - Y||^2 must reduce the loss.
        let mut rng = seeded_rng(11);
        let x = Matrix::rand_uniform(16, 4, -1.0, 1.0, &mut rng);
        let w_true = Matrix::rand_uniform(4, 2, -1.0, 1.0, &mut rng);
        let y = x.matmul(&w_true);
        let mut w = Matrix::zeros(4, 2);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let mut t = Tape::new();
            let xv = t.constant(x.clone());
            let wv = t.param(w.clone());
            let pred = t.matmul(xv, wv);
            let loss = t.mse(pred, y.clone());
            let lv = t.scalar(loss);
            t.backward(loss);
            w.add_scaled_assign(t.grad(wv).unwrap(), -0.5);
            assert!(lv <= last + 1e-6, "loss must not increase: {lv} > {last}");
            last = lv;
        }
        assert!(last < 1e-3, "converged loss {last}");
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut t = Tape::new();
        let x = t.param(Matrix::filled(2, 2, 1.0));
        let mut rng = seeded_rng(0);
        let y = t.dropout(x, 0.0, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut t = Tape::new();
        let x = t.param(Matrix::filled(50, 50, 1.0));
        let mut rng = seeded_rng(1);
        let y = t.dropout(x, 0.5, &mut rng);
        let vals = t.value(y).as_slice();
        assert!(vals.iter().all(|&v| v == 0.0 || v == 2.0));
        let kept = vals.iter().filter(|&&v| v != 0.0).count();
        assert!((kept as f32 / vals.len() as f32 - 0.5).abs() < 0.1);
    }

    #[test]
    fn softmax_xent_of_perfect_logits_is_small() {
        let mut t = Tape::new();
        let logits = t.param(Matrix::from_vec(2, 3, vec![20., 0., 0., 0., 0., 20.]));
        let loss = t.softmax_xent(logits, &[0, 2]);
        assert!(t.scalar(loss) < 1e-6);
    }

    #[test]
    fn bce_logits_matches_reference() {
        let mut t = Tape::new();
        let logits = t.param(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let loss = t.bce_logits(logits, Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        // -ln(0.5) for both entries
        assert!((t.scalar(loss) - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn l1_value_and_sign_grad() {
        let mut t = Tape::new();
        let x = t.param(Matrix::from_vec(1, 3, vec![2.0, -3.0, 0.0]));
        let loss = t.l1(x);
        assert_eq!(t.scalar(loss), 5.0);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[1.0, -1.0, 0.0]);
    }

    #[test]
    fn grads_accumulate_across_reuse() {
        // y = x + x => dy/dx = 2
        let mut t = Tape::new();
        let x = t.param(Matrix::from_vec(1, 1, vec![3.0]));
        let y = t.add(x, x);
        let loss = t.mse(y, Matrix::from_vec(1, 1, vec![0.0]));
        t.backward(loss);
        // d/dx (2x)^2 = 8x = 24
        assert!((t.grad(x).unwrap().get(0, 0) - 24.0).abs() < 1e-4);
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 1, vec![3.0]));
        let w = t.param(Matrix::from_vec(1, 1, vec![2.0]));
        let y = t.matmul(x, w);
        let loss = t.mse(y, Matrix::from_vec(1, 1, vec![0.0]));
        t.backward(loss);
        assert!(t.grad(x).is_none());
        assert!(t.grad(w).is_some());
    }
}
