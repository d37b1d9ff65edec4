//! The model zoo: constructors for every architecture in the paper's
//! comparison experiments (Fig. 1 and Table 5).

use gcnp_autograd::{Adam, AdamConfig, SharedAdj, Tape, Var};
use gcnp_datasets::{Dataset, Labels};
use gcnp_sparse::ppr::{ppr_matrix, PprConfig};
use gcnp_sparse::{CsrMatrix, Normalization};
use gcnp_tensor::init::seeded_rng;
use gcnp_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::layer::{Activation, Branch, BranchLayer, CombineMode};
use crate::metrics::Metrics;
use crate::model::GnnModel;
use crate::train::{TrainConfig, TrainStats};

/// A GraphSAGE layer (Eq. 1 with `K′=0, K=1`, concat): `fin → fout`
/// via two `fout/2`-wide branches.
pub fn sage_layer(
    fin: usize,
    fout: usize,
    act: Activation,
    rng: &mut rand::rngs::StdRng,
) -> BranchLayer {
    assert!(fout.is_multiple_of(2), "sage_layer: fout must be even");
    BranchLayer {
        branches: vec![
            Branch::new(0, Matrix::glorot(fin, fout / 2, rng)),
            Branch::new(1, Matrix::glorot(fin, fout / 2, rng)),
        ],
        bias: Some(Matrix::zeros(1, fout)),
        combine: CombineMode::Concat,
        activation: act,
    }
}

/// The paper's reference architecture (§4): 2 GraphSAGE layers + a dense
/// classifier (itself "a GNN layer with K′=K=0", §3.3).
pub fn graphsage(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
    let mut rng = seeded_rng(seed);
    let l1 = sage_layer(fin, hidden, Activation::Relu, &mut rng);
    let l2 = sage_layer(hidden, hidden, Activation::Relu, &mut rng);
    let cls = BranchLayer::dense(
        Matrix::glorot(hidden, classes, &mut rng),
        Some(Matrix::zeros(1, classes)),
        Activation::None,
    );
    GnnModel::new(vec![l1, l2, cls])
}

/// Vanilla GCN (Eq. 1 with `K′=K=1`): 2 graph layers + dense classifier.
/// Use with a symmetrically normalized adjacency with self-loops.
pub fn gcn(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
    let mut rng = seeded_rng(seed);
    let layer = |fi: usize, fo: usize, act, rng: &mut _| BranchLayer {
        branches: vec![Branch::new(1, Matrix::glorot(fi, fo, rng))],
        bias: Some(Matrix::zeros(1, fo)),
        combine: CombineMode::Concat,
        activation: act,
    };
    let l1 = layer(fin, hidden, Activation::Relu, &mut rng);
    let l2 = layer(hidden, hidden, Activation::Relu, &mut rng);
    let cls = BranchLayer::dense(
        Matrix::glorot(hidden, classes, &mut rng),
        Some(Matrix::zeros(1, classes)),
        Activation::None,
    );
    GnnModel::new(vec![l1, l2, cls])
}

/// MixHop (Eq. 1 with `K′=0, K=2`): one mixed layer + dense classifier,
/// giving the same two-hop receptive field as the other baselines.
pub fn mixhop(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
    let mut rng = seeded_rng(seed);
    let per = (hidden / 3).max(1);
    let l1 = BranchLayer {
        branches: (0..=2)
            .map(|k| Branch::new(k, Matrix::glorot(fin, per, &mut rng)))
            .collect(),
        bias: Some(Matrix::zeros(1, 3 * per)),
        combine: CombineMode::Concat,
        activation: Activation::Relu,
    };
    let cls = BranchLayer::dense(
        Matrix::glorot(3 * per, classes, &mut rng),
        Some(Matrix::zeros(1, classes)),
        Activation::None,
    );
    GnnModel::new(vec![l1, cls])
}

/// Jumping Knowledge network: 2 GraphSAGE layers whose outputs are
/// concatenated into the classifier.
pub fn jk(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
    let mut rng = seeded_rng(seed);
    let l1 = sage_layer(fin, hidden, Activation::Relu, &mut rng);
    let l2 = sage_layer(hidden, hidden, Activation::Relu, &mut rng);
    let cls = BranchLayer::dense(
        Matrix::glorot(2 * hidden, classes, &mut rng),
        Some(Matrix::zeros(1, classes)),
        Activation::None,
    );
    GnnModel {
        layers: vec![l1, l2, cls],
        jk: true,
    }
}

/// 2-layer MLP (the paper's MLP-2 baseline, Table 5) — no graph access.
pub fn mlp(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
    let mut rng = seeded_rng(seed);
    let l1 = BranchLayer::dense(
        Matrix::glorot(fin, hidden, &mut rng),
        Some(Matrix::zeros(1, hidden)),
        Activation::Relu,
    );
    let cls = BranchLayer::dense(
        Matrix::glorot(hidden, classes, &mut rng),
        Some(Matrix::zeros(1, classes)),
        Activation::None,
    );
    GnnModel::new(vec![l1, cls])
}

/// TinyGNN-style 1-layer student (one SAGE hop + classifier), to be
/// distilled from a 2-layer teacher via
/// [`crate::train::Trainer::train_full_batch`]'s `distill` argument.
pub fn tinygnn_student(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
    let mut rng = seeded_rng(seed);
    let l1 = sage_layer(fin, hidden, Activation::Relu, &mut rng);
    let cls = BranchLayer::dense(
        Matrix::glorot(hidden, classes, &mut rng),
        Some(Matrix::zeros(1, classes)),
        Activation::None,
    );
    GnnModel::new(vec![l1, cls])
}

/// SGC feature pre-processing: `Ãᵏ · X` (Wu et al., 2019). The returned
/// matrix replaces the node attributes; the model is a single dense layer.
pub fn sgc_features(adj_norm: &CsrMatrix, x: &Matrix, k: usize) -> Matrix {
    let mut z = x.clone();
    for _ in 0..k {
        z = adj_norm.spmm(&z);
    }
    z
}

/// SGC head: one linear layer on the pre-propagated features.
pub fn sgc_model(fin: usize, classes: usize, seed: u64) -> GnnModel {
    let mut rng = seeded_rng(seed);
    GnnModel::new(vec![BranchLayer::dense(
        Matrix::glorot(fin, classes, &mut rng),
        Some(Matrix::zeros(1, classes)),
        Activation::None,
    )])
}

/// SIGN feature pre-processing with `(r,0,0)` operators: `[X ‖ ÃX ‖ … ‖ ÃʳX]`.
pub fn sign_features(adj_norm: &CsrMatrix, x: &Matrix, r: usize) -> Matrix {
    let mut parts: Vec<Matrix> = Vec::with_capacity(r + 1);
    parts.push(x.clone());
    for _ in 0..r {
        let next = adj_norm.spmm(parts.last().unwrap());
        parts.push(next);
    }
    let refs: Vec<&Matrix> = parts.iter().collect();
    Matrix::concat_cols_all(&refs)
}

/// SIGN head: an MLP over the concatenated propagated features. SIGN's
/// feed-forward layers are wide (the paper reports 460/675 hidden units),
/// which is why its per-node compute tops Table 5.
pub fn sign_model(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
    mlp(fin, hidden, classes, seed)
}

/// GIN-style sum aggregation operator: `A + (1+ε)·I` — feed to
/// [`gin`] layers *unnormalized* so neighborhoods are summed, the
/// injectivity trick of Xu et al. (2019). Eq. 1 covers GIN by "alternating
/// the normalized adjacency matrix" (§2.1).
pub fn gin_adjacency(adj: &CsrMatrix, eps: f32) -> CsrMatrix {
    assert_eq!(adj.n_rows(), adj.n_cols(), "gin_adjacency: square required");
    let mut edges: Vec<(u32, u32, f32)> = Vec::with_capacity(adj.nnz() + adj.n_rows());
    for r in 0..adj.n_rows() {
        for (c, v) in adj.row_iter(r) {
            if c as usize != r {
                edges.push((r as u32, c, v));
            }
        }
        edges.push((r as u32, r as u32, 1.0 + eps));
    }
    CsrMatrix::from_edges(adj.n_rows(), adj.n_cols(), &edges)
}

/// GIN: two sum-aggregation layers + dense classifier. Use with
/// [`gin_adjacency`] (NOT a normalized adjacency).
pub fn gin(fin: usize, hidden: usize, classes: usize, seed: u64) -> GnnModel {
    // Architecturally identical to GCN per Eq. 1; the aggregation operator
    // carries the GIN semantics.
    gcn(fin, hidden, classes, seed)
}

// ---------------------------------------------------------------------------
// APPNP
// ---------------------------------------------------------------------------

/// APPNP (Klicpera et al., 2019): an MLP on raw attributes whose logits are
/// propagated by `K` personalized-PageRank power iterations,
/// `Z ← (1−α)·Ã·Z + α·H`. The iterative sibling of the PPRGo baseline.
#[derive(Debug, Clone)]
pub struct AppnpModel {
    pub head: GnnModel,
    pub alpha: f32,
    pub k: usize,
}

impl AppnpModel {
    /// Fresh model with an `fin → hidden → classes` head.
    pub fn new(fin: usize, hidden: usize, classes: usize, alpha: f32, k: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "AppnpModel: alpha in [0,1]");
        Self {
            head: mlp(fin, hidden, classes, seed),
            alpha,
            k,
        }
    }

    /// Full inference: MLP then K propagation steps.
    pub fn forward_full(&self, adj_norm: &CsrMatrix, x: &Matrix) -> Matrix {
        let h = self.head.forward_full(None, x);
        let mut z = h.clone();
        for _ in 0..self.k {
            z = adj_norm.spmm(&z).scale(1.0 - self.alpha);
            z.add_scaled_assign(&h, self.alpha);
        }
        z
    }

    /// Full-batch training on the training graph.
    pub fn train(&mut self, data: &Dataset, cfg: &TrainConfig) -> TrainStats {
        let t0 = std::time::Instant::now();
        let (train_adj, train_nodes) = data.train_adj();
        let train_shared = SharedAdj::new(train_adj.normalized(Normalization::Row));
        let train_x = data.features.gather_rows(&train_nodes);
        let full_norm = data.adj.normalized(Normalization::Row);
        let mut opt = Adam::new(AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        });
        let mut best_f1 = -1.0f64;
        let mut best: Option<Vec<Matrix>> = None;
        let mut strikes = 0;
        let mut steps_run = 0;
        let mut last_loss = f32::NAN;
        for step in 1..=cfg.steps {
            steps_run = step;
            let mut tape = Tape::new();
            let xv = tape.constant(train_x.clone());
            let pvars = self.head.register_params(&mut tape);
            let h = self.head.forward_tape(&mut tape, None, xv, &pvars);
            let mut z = h;
            for _ in 0..self.k {
                let prop = tape.spmm(&train_shared, z);
                let prop = tape.scale(prop, 1.0 - self.alpha);
                let tele = tape.scale(h, self.alpha);
                z = tape.add(prop, tele);
            }
            let loss = match &data.labels {
                Labels::Single(y, _) => {
                    let yl: Vec<usize> = train_nodes.iter().map(|&v| y[v]).collect();
                    tape.softmax_xent(z, &yl)
                }
                Labels::Multi(y) => tape.bce_logits(z, y.gather_rows(&train_nodes)),
            };
            last_loss = tape.scalar(loss);
            tape.backward(loss);
            let grads: Vec<Option<&Matrix>> = pvars.iter().map(|&v| tape.grad(v)).collect();
            opt.step(&mut self.head.params_mut(), &grads);

            if step % cfg.eval_every == 0 || step == cfg.steps {
                let logits = self.forward_full(&full_norm, &data.features);
                let f1 = Metrics::f1_micro_full(&logits, &data.labels, &data.val);
                if f1 > best_f1 {
                    best_f1 = f1;
                    best = Some(
                        self.head
                            .params_mut()
                            .iter()
                            .map(|p| (**p).clone())
                            .collect(),
                    );
                    strikes = 0;
                } else {
                    strikes += 1;
                    if strikes >= cfg.patience {
                        break;
                    }
                }
            }
        }
        if let Some(b) = best {
            for (p, b) in self.head.params_mut().into_iter().zip(b) {
                *p = b;
            }
        }
        TrainStats {
            steps_run,
            best_val_f1: best_f1.max(0.0),
            final_train_loss: last_loss,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

// ---------------------------------------------------------------------------
// GAT
// ---------------------------------------------------------------------------

/// Single-head Graph Attention Network (Veličković et al., 2018): two
/// attention layers and a dense classifier. Single-head is enough to
/// reproduce GAT's Fig. 1 position (top accuracy, lowest throughput).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatModel {
    pub w1: Matrix,
    pub a_src1: Matrix,
    pub a_dst1: Matrix,
    pub w2: Matrix,
    pub a_src2: Matrix,
    pub a_dst2: Matrix,
    pub w_cls: Matrix,
    pub b_cls: Matrix,
    /// LeakyReLU slope for attention scores.
    pub slope: f32,
}

impl GatModel {
    /// Fresh Glorot-initialized model.
    pub fn new(fin: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        Self {
            w1: Matrix::glorot(fin, hidden, &mut rng),
            a_src1: Matrix::glorot(hidden, 1, &mut rng),
            a_dst1: Matrix::glorot(hidden, 1, &mut rng),
            w2: Matrix::glorot(hidden, hidden, &mut rng),
            a_src2: Matrix::glorot(hidden, 1, &mut rng),
            a_dst2: Matrix::glorot(hidden, 1, &mut rng),
            w_cls: Matrix::glorot(hidden, classes, &mut rng),
            b_cls: Matrix::zeros(1, classes),
            slope: 0.2,
        }
    }

    /// Mutable parameter list (stable order).
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![
            &mut self.w1,
            &mut self.a_src1,
            &mut self.a_dst1,
            &mut self.w2,
            &mut self.a_src2,
            &mut self.a_dst2,
            &mut self.w_cls,
            &mut self.b_cls,
        ]
    }

    /// Register parameters on a tape in the [`GatModel::params_mut`] order.
    pub fn register_params(&self, t: &mut Tape) -> Vec<Var> {
        [
            &self.w1,
            &self.a_src1,
            &self.a_dst1,
            &self.w2,
            &self.a_src2,
            &self.a_dst2,
            &self.w_cls,
            &self.b_cls,
        ]
        .into_iter()
        .map(|m| t.param(m.clone()))
        .collect()
    }

    /// Tape forward (adjacency should include self-loops so every node
    /// attends at least to itself).
    pub fn forward_tape(&self, t: &mut Tape, adj: &SharedAdj, x: Var, p: &[Var]) -> Var {
        let (w1, a_src1, a_dst1, w2, a_src2, a_dst2, w_cls, b_cls) =
            (p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]);
        let h = t.matmul(x, w1);
        let s = t.matmul(h, a_src1);
        let d = t.matmul(h, a_dst1);
        let h = t.attn_aggregate(adj, h, s, d, self.slope);
        let h = t.relu(h);
        let h = t.matmul(h, w2);
        let s = t.matmul(h, a_src2);
        let d = t.matmul(h, a_dst2);
        let h = t.attn_aggregate(adj, h, s, d, self.slope);
        let h = t.relu(h);
        let logits = t.matmul(h, w_cls);
        t.add_bias(logits, b_cls)
    }

    /// Plain inference (runs the tape with constants; no gradients kept).
    pub fn forward_full(&self, adj: &SharedAdj, x: &Matrix) -> Matrix {
        let mut t = Tape::new();
        let xv = t.constant(x.clone());
        let p: Vec<Var> = [
            &self.w1,
            &self.a_src1,
            &self.a_dst1,
            &self.w2,
            &self.a_src2,
            &self.a_dst2,
            &self.w_cls,
            &self.b_cls,
        ]
        .into_iter()
        .map(|m| t.constant(m.clone()))
        .collect();
        let out = self.forward_tape(&mut t, adj, xv, &p);
        t.value(out).clone()
    }

    /// Full-batch training on the training graph with validation-F1 early
    /// stopping on the full graph.
    pub fn train(&mut self, data: &Dataset, cfg: &TrainConfig) -> TrainStats {
        let t0 = std::time::Instant::now();
        let (train_adj, train_nodes) = data.train_adj();
        let train_shared = SharedAdj::new(train_adj.with_self_loops());
        let full_shared = SharedAdj::new(data.adj.with_self_loops());
        let train_x = data.features.gather_rows(&train_nodes);
        let mut opt = Adam::new(AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        });
        let mut best_f1 = -1.0f64;
        let mut best: Option<Vec<Matrix>> = None;
        let mut strikes = 0;
        let mut steps_run = 0;
        let mut last_loss = f32::NAN;
        for step in 1..=cfg.steps {
            steps_run = step;
            let mut tape = Tape::new();
            let xv = tape.constant(train_x.clone());
            let pvars = self.register_params(&mut tape);
            let logits = self.forward_tape(&mut tape, &train_shared, xv, &pvars);
            let loss = match &data.labels {
                Labels::Single(y, _) => {
                    let yl: Vec<usize> = train_nodes.iter().map(|&v| y[v]).collect();
                    tape.softmax_xent(logits, &yl)
                }
                Labels::Multi(y) => tape.bce_logits(logits, y.gather_rows(&train_nodes)),
            };
            last_loss = tape.scalar(loss);
            tape.backward(loss);
            let grads: Vec<Option<&Matrix>> = pvars.iter().map(|&v| tape.grad(v)).collect();
            opt.step(&mut self.params_mut(), &grads);

            if step % cfg.eval_every == 0 || step == cfg.steps {
                let logits = self.forward_full(&full_shared, &data.features);
                let f1 = Metrics::f1_micro_full(&logits, &data.labels, &data.val);
                if f1 > best_f1 {
                    best_f1 = f1;
                    best = Some(self.params_mut().iter().map(|p| (**p).clone()).collect());
                    strikes = 0;
                } else {
                    strikes += 1;
                    if strikes >= cfg.patience {
                        break;
                    }
                }
            }
        }
        if let Some(b) = best {
            for (p, b) in self.params_mut().into_iter().zip(b) {
                *p = b;
            }
        }
        TrainStats {
            steps_run,
            best_val_f1: best_f1.max(0.0),
            final_train_loss: last_loss,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

// ---------------------------------------------------------------------------
// PPRGo
// ---------------------------------------------------------------------------

/// PPRGo (Bojchevski et al., 2020): an MLP on raw attributes whose logits
/// are aggregated over each target's approximate-PPR neighborhood.
#[derive(Debug, Clone)]
pub struct PprgoModel {
    /// The feature MLP `f(X)`.
    pub head: GnnModel,
    pub ppr: PprConfig,
}

impl PprgoModel {
    /// Fresh model with an `fin → hidden → classes` head.
    pub fn new(fin: usize, hidden: usize, classes: usize, ppr: PprConfig, seed: u64) -> Self {
        Self {
            head: mlp(fin, hidden, classes, seed),
            ppr,
        }
    }

    /// Predict logits for `targets`: `Π_targets · f(X)` (two-pass inference).
    pub fn predict(&self, adj: &CsrMatrix, x: &Matrix, targets: &[usize]) -> Matrix {
        let pi = ppr_matrix(adj, targets, &self.ppr);
        let f = self.head.forward_full(None, x);
        pi.spmm(&f)
    }

    /// Train the head so that PPR-aggregated logits classify the training
    /// nodes, using the training graph for PPR (no information leak).
    pub fn train(&mut self, data: &Dataset, cfg: &TrainConfig) -> TrainStats {
        let t0 = std::time::Instant::now();
        let (train_adj, train_nodes) = data.train_adj();
        let train_x = data.features.gather_rows(&train_nodes);
        // Π over training nodes (rows: train node i, cols: train graph).
        let all_train: Vec<usize> = (0..train_nodes.len()).collect();
        let pi = SharedAdj::new(ppr_matrix(&train_adj, &all_train, &self.ppr));
        let mut opt = Adam::new(AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        });
        let mut best_f1 = -1.0f64;
        let mut best: Option<Vec<Matrix>> = None;
        let mut strikes = 0;
        let mut steps_run = 0;
        let mut last_loss = f32::NAN;
        for step in 1..=cfg.steps {
            steps_run = step;
            let mut tape = Tape::new();
            let xv = tape.constant(train_x.clone());
            let pvars = self.head.register_params(&mut tape);
            let f = self.head.forward_tape(&mut tape, None, xv, &pvars);
            let logits = tape.spmm(&pi, f);
            let loss = match &data.labels {
                Labels::Single(y, _) => {
                    let yl: Vec<usize> = train_nodes.iter().map(|&v| y[v]).collect();
                    tape.softmax_xent(logits, &yl)
                }
                Labels::Multi(y) => tape.bce_logits(logits, y.gather_rows(&train_nodes)),
            };
            last_loss = tape.scalar(loss);
            tape.backward(loss);
            let grads: Vec<Option<&Matrix>> = pvars.iter().map(|&v| tape.grad(v)).collect();
            opt.step(&mut self.head.params_mut(), &grads);

            if step % cfg.eval_every == 0 || step == cfg.steps {
                let logits = self.predict(&data.adj, &data.features, &data.val);
                let f1 = Metrics::f1_micro(&logits, &data.labels, &data.val);
                if f1 > best_f1 {
                    best_f1 = f1;
                    best = Some(
                        self.head
                            .params_mut()
                            .iter()
                            .map(|p| (**p).clone())
                            .collect(),
                    );
                    strikes = 0;
                } else {
                    strikes += 1;
                    if strikes >= cfg.patience {
                        break;
                    }
                }
            }
        }
        if let Some(b) = best {
            for (p, b) in self.head.params_mut().into_iter().zip(b) {
                *p = b;
            }
        }
        TrainStats {
            steps_run,
            best_val_f1: best_f1.max(0.0),
            final_train_loss: last_loss,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::Trainer;
    use gcnp_datasets::SynthConfig;

    fn tiny() -> Dataset {
        SynthConfig {
            nodes: 240,
            classes: 3,
            communities: 3,
            attr_dim: 12,
            noise: 0.5,
            ..Default::default()
        }
        .generate(3)
    }

    #[test]
    fn constructors_produce_consistent_shapes() {
        let d = tiny();
        let adj_row = d.adj.normalized(Normalization::Row);
        let adj_sym = d.adj.with_self_loops().normalized(Normalization::Symmetric);
        for (name, m, adj) in [
            ("sage", graphsage(12, 8, 3, 1), &adj_row),
            ("gcn", gcn(12, 8, 3, 1), &adj_sym),
            ("mixhop", mixhop(12, 9, 3, 1), &adj_row),
            ("jk", jk(12, 8, 3, 1), &adj_row),
            ("mlp", mlp(12, 8, 3, 1), &adj_row),
            ("tiny", tinygnn_student(12, 8, 3, 1), &adj_row),
        ] {
            let out = m.forward_full(Some(adj), &d.features);
            assert_eq!(out.shape(), (240, 3), "{name}");
        }
    }

    #[test]
    fn sgc_and_sign_features() {
        let d = tiny();
        let adj = d.adj.with_self_loops().normalized(Normalization::Symmetric);
        let z = sgc_features(&adj, &d.features, 2);
        assert_eq!(z.shape(), d.features.shape());
        let s = sign_features(&adj, &d.features, 2);
        assert_eq!(s.shape(), (240, 36));
        // First block of SIGN features is the raw attributes.
        assert_eq!(&s.row(5)[..12], d.features.row(5));
    }

    #[test]
    fn gat_trains_above_chance() {
        let d = tiny();
        let mut gat = GatModel::new(12, 8, 3, 5);
        let cfg = TrainConfig {
            steps: 40,
            eval_every: 10,
            lr: 0.02,
            ..Default::default()
        };
        let stats = gat.train(&d, &cfg);
        assert!(stats.best_val_f1 > 0.5, "GAT val F1 {}", stats.best_val_f1);
    }

    #[test]
    fn gat_forward_is_deterministic() {
        let d = tiny();
        let gat = GatModel::new(12, 8, 3, 5);
        let adj = SharedAdj::new(d.adj.with_self_loops());
        let a = gat.forward_full(&adj, &d.features);
        let b = gat.forward_full(&adj, &d.features);
        assert_eq!(a, b);
    }

    #[test]
    fn pprgo_trains_above_chance() {
        let d = tiny();
        let mut m = PprgoModel::new(12, 8, 3, PprConfig::default(), 7);
        let cfg = TrainConfig {
            steps: 50,
            eval_every: 10,
            lr: 0.02,
            ..Default::default()
        };
        let stats = m.train(&d, &cfg);
        assert!(
            stats.best_val_f1 > 0.5,
            "PPRGo val F1 {}",
            stats.best_val_f1
        );
        let logits = m.predict(&d.adj, &d.features, &d.test);
        assert_eq!(logits.shape(), (d.test.len(), 3));
    }

    #[test]
    fn gin_adjacency_has_weighted_diagonal() {
        let adj = CsrMatrix::adjacency(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let g = gin_adjacency(&adj, 0.5);
        for r in 0..3 {
            let diag = g
                .row_iter(r)
                .find(|&(c, _)| c as usize == r)
                .map(|(_, v)| v);
            assert_eq!(diag, Some(1.5));
        }
        // Off-diagonal edges preserved with weight 1.
        assert!(g.row_iter(0).any(|(c, v)| c == 1 && v == 1.0));
    }

    #[test]
    fn gin_trains_above_chance() {
        let d = tiny();
        let mut model = gin(12, 8, 3, 3);
        let gin_adj = gin_adjacency(&d.adj, 0.1);
        let cfg = TrainConfig {
            steps: 60,
            eval_every: 10,
            dropout: 0.0,
            ..Default::default()
        };
        let stats = Trainer::train_full_batch(
            &mut model,
            Some(&gin_adj),
            &d.features,
            &d.labels,
            &d.train,
            &d.val,
            &cfg,
            None,
        );
        assert!(stats.best_val_f1 > 0.5, "GIN val F1 {}", stats.best_val_f1);
    }

    #[test]
    fn appnp_trains_above_chance() {
        let d = tiny();
        let mut m = AppnpModel::new(12, 8, 3, 0.2, 3, 5);
        let cfg = TrainConfig {
            steps: 50,
            eval_every: 10,
            lr: 0.02,
            ..Default::default()
        };
        let stats = m.train(&d, &cfg);
        assert!(
            stats.best_val_f1 > 0.5,
            "APPNP val F1 {}",
            stats.best_val_f1
        );
        let adj = d.adj.normalized(Normalization::Row);
        assert_eq!(m.forward_full(&adj, &d.features).shape(), (240, 3));
    }

    #[test]
    fn appnp_alpha_one_is_pure_mlp() {
        let d = tiny();
        let m = AppnpModel::new(12, 8, 3, 1.0, 4, 7);
        let adj = d.adj.normalized(Normalization::Row);
        let propagated = m.forward_full(&adj, &d.features);
        let plain = m.head.forward_full(None, &d.features);
        assert!(
            propagated.approx_eq(&plain, 1e-4),
            "alpha=1 ignores the graph"
        );
    }

    #[test]
    fn distillation_improves_student_toward_teacher() {
        let d = tiny();
        // Teacher: train briefly.
        let mut teacher = graphsage(12, 8, 3, 9);
        let cfg = TrainConfig {
            steps: 50,
            eval_every: 10,
            saint_roots: 40,
            dropout: 0.0,
            ..Default::default()
        };
        Trainer::train_saint(&mut teacher, &d, &cfg);
        let adj = d.adj.normalized(Normalization::Row);
        let teacher_logits = teacher.forward_full(Some(&adj), &d.features);
        // Student distilled with teacher supervision.
        let mut student = tinygnn_student(12, 8, 3, 11);
        let stats = Trainer::train_full_batch(
            &mut student,
            Some(&adj),
            &d.features,
            &d.labels,
            &d.train,
            &d.val,
            &cfg,
            Some((&teacher_logits, 0.5)),
        );
        assert!(
            stats.best_val_f1 > 0.5,
            "student val F1 {}",
            stats.best_val_f1
        );
    }
}
