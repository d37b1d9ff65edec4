//! Packed-weight forward passes — the weight-pack cache.
//!
//! GEMM spends a per-call pack step laying the right-hand operand out in
//! cache-friendly panels (see `gcnp_tensor::gemm`). Model weights are
//! constant across every inference batch, so [`PackedModel`] packs each
//! branch weight **once** and the engines reuse the panels for the process
//! lifetime of the model borrow.
//!
//! Invalidation is structural, not tracked: a `PackedModel` holds `&GnnModel`
//! for its own lifetime, so the borrow checker rules out mutating (and thus
//! staling) the source weights while any pack exists. Retraining or pruning
//! a model means dropping the engines and re-packing — exactly the lifecycle
//! the serving layer already has (engines are rebuilt per deployed tier).
//!
//! A full-graph pass computes in a workspace the `PackedModel` keeps:
//! every layer reads its input where it lies (the caller's `x`, or the
//! previous layer's output) and every result is written once, into a buffer
//! that outlives the pass — see [`PackedModel::forward_reusing`].
//!
//! The pass runs the order Eq. 2's `min` prices. A graph branch no wider
//! out than in ([`Branch::projects_first`]) multiplies first and sums
//! `out_dim`-wide rows, `Ãᵏ·(H·W)`; every other branch sums its input and
//! then multiplies, `(Ãᵏ·H)·W`, as [`GnnModel::forward_collect`]
//! does. So a layer with no projecting branch is bitwise the plain
//! forward's, and a layer with one differs from it by rounding only (≤ 1e-4
//! on the logits). The plain forward stays aggregate-first: it is the
//! reference, and pruning and training read it. Every pass is bitwise the
//! same on 1 or 4 kernel threads and on a reused or a fresh workspace.

use gcnp_sparse::CsrMatrix;
use gcnp_tensor::{Matrix, PackedB, QuantPackedB};

use crate::layer::{Activation, Branch, BranchLayer, CombineMode};
use crate::model::GnnModel;

/// A [`GnnModel`] with every branch weight pre-packed for the GEMM fast
/// path. Forward results are the plain model's, bit for bit up to the first
/// layer with a projecting branch and within rounding after it (see the
/// module docs).
pub struct PackedModel<'m> {
    model: &'m GnnModel,
    /// `packs[layer][branch]`, parallel to `model.layers[..].branches[..]`.
    packs: Vec<Vec<PackedB>>,
    /// Buffers of [`PackedModel::forward_reusing`]; empty until its first pass.
    ws: Workspace,
}

impl<'m> PackedModel<'m> {
    /// Pack every branch weight of `model`.
    pub fn new(model: &'m GnnModel) -> Self {
        let packs = model
            .layers
            .iter()
            .map(|l| {
                l.branches
                    .iter()
                    .map(|b| PackedB::pack(&b.weight))
                    .collect()
            })
            .collect();
        Self {
            model,
            packs,
            ws: Workspace::default(),
        }
    }

    /// The source model.
    pub fn model(&self) -> &'m GnnModel {
        self.model
    }

    /// Packed weights for one layer (parallel to its `branches`).
    pub fn branch_packs(&self, layer: usize) -> &[PackedB] {
        &self.packs[layer]
    }

    /// Bytes held by all packed panels.
    pub fn packed_bytes(&self) -> usize {
        self.packs
            .iter()
            .flat_map(|l| l.iter().map(PackedB::packed_bytes))
            .sum()
    }

    /// Full-graph inference over packed weights; mirrors
    /// [`GnnModel::forward_full`].
    pub fn forward_full(&self, adj: Option<&CsrMatrix>, x: &Matrix) -> Matrix {
        self.forward_collect(adj, x)
            .pop()
            .expect("model has layers")
    }

    /// Every layer's post-activation output over packed weights; mirrors
    /// [`GnnModel::forward_collect`]. One pass of
    /// [`PackedModel::forward_reusing`] on a throw-away workspace.
    pub fn forward_collect(&self, adj: Option<&CsrMatrix>, x: &Matrix) -> Vec<Matrix> {
        let mut ws = Workspace::default();
        ws.forward(self.model, &self.packs, adj, x);
        ws.outputs
    }

    /// [`PackedModel::forward_collect`] computed in buffers this model keeps
    /// between passes: the returned vector holds every layer's output, and
    /// whatever the caller leaves in it (by `pop`, `mem::take`, or not at
    /// all) is the storage the next pass writes, so a caller that takes only
    /// the logits makes every later pass allocate only those.
    pub fn forward_reusing(&mut self, adj: Option<&CsrMatrix>, x: &Matrix) -> &mut Vec<Matrix> {
        self.ws.forward(self.model, &self.packs, adj, x);
        &mut self.ws.outputs
    }
}

/// A [`GnnModel`] with every branch weight quantized to int8 and packed for
/// the blocked quantized GEMM — the weight cache behind the serving ladder's
/// `quantized` tier; weights occupy ≈¼ of the f32 pack.
pub struct QuantPackedModel<'m> {
    model: &'m GnnModel,
    /// `packs[layer][branch]`, parallel to `model.layers[..].branches[..]`.
    packs: Vec<Vec<QuantPackedB>>,
}

impl<'m> QuantPackedModel<'m> {
    /// Quantize and pack every branch weight of `model`.
    pub fn new(model: &'m GnnModel) -> Self {
        let packs = model
            .layers
            .iter()
            .map(|l| {
                l.branches
                    .iter()
                    .map(|b| QuantPackedB::pack(&b.weight))
                    .collect()
            })
            .collect();
        Self { model, packs }
    }

    /// The source model.
    pub fn model(&self) -> &'m GnnModel {
        self.model
    }

    /// Quantized packed weights for one layer (parallel to its `branches`).
    pub fn branch_packs(&self, layer: usize) -> &[QuantPackedB] {
        &self.packs[layer]
    }

    /// Bytes held by all quantized panels and scales.
    pub fn packed_bytes(&self) -> usize {
        self.packs
            .iter()
            .flat_map(|l| l.iter().map(QuantPackedB::packed_bytes))
            .sum()
    }
}

/// The buffers of one full-graph pass, kept from pass to pass. Each is given
/// its shape by [`reshape`] right before the kernel that overwrites all of
/// it and is never zeroed in between: no element is read before the pass
/// that reads it has written it.
#[derive(Default)]
struct Workspace {
    /// Layer `i`'s post-activation output, `n × layers[i].out_dim()`.
    outputs: Vec<Matrix>,
    scratch: Scratch,
}

/// What a layer computes through on the way to its output; shared by all
/// layers, so each buffer grows to its widest use.
struct Scratch {
    /// `agg[k - 1]` is `z_k = Ã·z_{k-1}` of the layer being computed.
    agg: Vec<Matrix>,
    /// A projecting branch's product `H·W`, and its hops but the last; a
    /// Mean layer's second and later aggregate-first products, on their way
    /// into the sum.
    prod: Matrix,
    /// A projecting branch's next hop: the one after `prod` when `k ≥ 2`,
    /// and the last one when a Mean layer adds it into the sum.
    hop: Matrix,
}

impl Default for Scratch {
    fn default() -> Self {
        Self {
            agg: Vec::new(),
            prod: empty(),
            hop: empty(),
        }
    }
}

fn empty() -> Matrix {
    Matrix::zeros(0, 0)
}

impl Workspace {
    /// Compute every layer of `model` over `x` into `self.outputs`.
    fn forward(
        &mut self,
        model: &GnnModel,
        packs: &[Vec<PackedB>],
        adj: Option<&CsrMatrix>,
        x: &Matrix,
    ) {
        let n = model.layers.len();
        assert!(n > 0, "forward_collect: empty model");
        self.outputs.resize_with(n, empty);
        for (i, (layer, packs)) in model.layers.iter().zip(packs).enumerate() {
            let (done, rest) = self.outputs.split_at_mut(i);
            // Jumping Knowledge: the classifier reads every earlier output
            // side by side — the one copy a pass still makes.
            let jk_input = (model.jk && i > 0 && i == n - 1)
                .then(|| Matrix::concat_cols_all(&done.iter().collect::<Vec<_>>()));
            let input = match (&jk_input, done.last()) {
                (Some(all), _) => all,
                (None, Some(prev)) => prev,
                (None, None) => x,
            };
            layer_forward_packed(layer, packs, adj, input, &mut rest[0], &mut self.scratch);
        }
    }
}

/// Give `m` the shape `rows × cols` on the storage it already has (grown
/// only when too small); its contents are unspecified and the caller
/// overwrites every element. Under `strict-invariants` they are NaN, so an
/// element a kernel's window missed trips the kernels' own finite guards
/// (or the equivalence tests) instead of passing for a stale value.
fn reshape(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        let mut buf = std::mem::replace(m, empty()).into_vec();
        buf.resize(rows * cols, 0.0);
        *m = Matrix::from_vec(rows, cols, buf);
    }
    if gcnp_tensor::check::enabled() {
        m.as_mut_slice().fill(f32::NAN);
    }
}

/// One layer forward over packed branch weights into `out`. A branch that
/// aggregates first runs [`BranchLayer::forward`]'s arithmetic; one that
/// [projects first](Branch::projects_first) runs `Ãᵏ·(H·W)`, the same sum
/// in another float order.
fn layer_forward_packed(
    layer: &BranchLayer,
    packs: &[PackedB],
    adj: Option<&CsrMatrix>,
    input: &Matrix,
    out: &mut Matrix,
    scratch: &mut Scratch,
) {
    debug_assert_eq!(layer.branches.len(), packs.len());
    let Scratch { agg, prod, hop } = scratch;
    let aggregates_first = |b: &&Branch| b.k >= 1 && !b.projects_first();
    let max_k = layer
        .branches
        .iter()
        .filter(aggregates_first)
        .map(|b| b.k)
        .max()
        .unwrap_or(0);

    // Progressive powers of the aggregate-first branches: z_k = Ã^k · input.
    if max_k > 0 {
        let adj = adj.expect("layer_forward_packed: graph layer needs adjacency");
        if agg.len() < max_k {
            agg.resize_with(max_k, empty);
        }
        for k in 0..max_k {
            let (done, rest) = agg.split_at_mut(k);
            let src = done.last().unwrap_or(input);
            reshape(&mut rest[0], adj.n_rows(), src.cols());
            adj.spmm_into(src, &mut rest[0]);
        }
    }

    // Concat is the store of each branch's last kernel: its GEMM, or a
    // projecting branch's last hop, lands in the branch's column window.
    // Mean keeps the plain forward's float sequence: the first branch's
    // result lands in `out`, later ones are added to it in branch order,
    // then one scale.
    let n = input.rows();
    reshape(out, n, layer.out_dim());
    let mut col0 = 0;
    for (bi, (b, pack)) in layer.branches.iter().zip(packs).enumerate() {
        let add = bi > 0 && layer.combine == CombineMode::Mean;
        let projects = b.projects_first();
        let operand = if b.k == 0 || projects {
            input
        } else {
            &agg[b.k - 1]
        };
        if projects || add {
            reshape(prod, n, b.out_dim());
            operand.matmul_packed_rows_into(None, pack, prod, 0);
        } else {
            operand.matmul_packed_rows_into(None, pack, out, col0);
        }
        if projects {
            // `k` passes at `out_dim` width; the last one is the branch's
            // result.
            let adj = adj.expect("layer_forward_packed: graph layer needs adjacency");
            for _ in 1..b.k {
                reshape(hop, n, b.out_dim());
                adj.spmm_into(prod, hop);
                std::mem::swap(prod, hop);
            }
            if add {
                reshape(hop, n, b.out_dim());
                adj.spmm_into(prod, hop);
                out.add_assign(hop);
            } else {
                adj.spmm_window_into(prod, out, col0);
            }
        } else if add {
            out.add_assign(prod);
        }
        if !add {
            col0 += b.out_dim();
        }
    }
    if layer.combine == CombineMode::Mean {
        out.scale_assign(1.0 / layer.branches.len() as f32);
    }
    out.bias_relu_assign(
        layer.bias.as_ref().map(|b| b.row(0)),
        layer.activation == Activation::Relu,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Branch;
    use crate::zoo;
    use gcnp_sparse::Normalization;
    use gcnp_tensor::init::seeded_rng;

    fn adj() -> CsrMatrix {
        CsrMatrix::adjacency(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 0)])
            .normalized(Normalization::Row)
    }

    /// The packed pass's contract with the plain forward: every layer before
    /// the first one with a projecting branch bit for bit, every layer from
    /// it on within 1e-4 (the same sums in another float order).
    fn assert_plain_contract(model: &GnnModel, got: &[Matrix], plain: &[Matrix], what: &str) {
        let first_projecting = model
            .layers
            .iter()
            .position(|l| l.branches.iter().any(Branch::projects_first))
            .unwrap_or(model.layers.len());
        assert_eq!(got.len(), plain.len(), "{what}");
        for (i, (g, p)) in got.iter().zip(plain).enumerate() {
            if i < first_projecting {
                assert_eq!(g, p, "{what}, layer {i}: bitwise");
            } else {
                let diff = g.max_abs_diff(p);
                assert!(diff <= 1e-4, "{what}, layer {i}: max |Δ| = {diff:e}");
            }
        }
    }

    #[test]
    fn packed_forward_matches_plain_model() {
        // 6 → 4 and 8 → 4 neighbour branches: both graph layers project.
        let model = zoo::graphsage(6, 8, 3, 11);
        let a = adj();
        let x = Matrix::rand_uniform(5, 6, -1.0, 1.0, &mut seeded_rng(12));
        let packed = PackedModel::new(&model);
        let plain = model.forward_collect(Some(&a), &x);
        let via_pack = packed.forward_collect(Some(&a), &x);
        assert_plain_contract(&model, &via_pack, &plain, "sage");
        assert_eq!(
            packed.forward_full(Some(&a), &x),
            via_pack[2],
            "forward_full is the last of forward_collect"
        );
        assert!(packed.packed_bytes() > 0);
    }

    /// A 23-node graph (not a multiple of the GEMM's 6-row tile) with
    /// uneven degrees, and 150-wide features (past `row_sum`'s 64-column
    /// tile, with an 8-column and a scalar tail).
    fn ragged() -> (CsrMatrix, Matrix) {
        let edges: Vec<(u32, u32)> = (0u32..23)
            .flat_map(|i| [(i, (i + 1) % 23), ((i * 7 + 3) % 23, i), (i, (i * i) % 23)])
            .collect();
        let a = CsrMatrix::adjacency(23, &edges).normalized(Normalization::Row);
        let x = Matrix::rand_uniform(23, 150, -1.0, 1.0, &mut seeded_rng(41));
        (a, x)
    }

    /// `model` with non-zero biases (the zoo initialises them to zero).
    fn biased(mut model: GnnModel, seed: u64) -> GnnModel {
        let mut rng = seeded_rng(seed);
        for l in &mut model.layers {
            l.bias = Some(Matrix::rand_uniform(1, l.out_dim(), -0.5, 0.5, &mut rng));
        }
        model
    }

    #[test]
    fn selecting_channels_commutes_with_aggregation_bitwise() {
        // What the pruner's propagation rests on: a channel's sum does not
        // depend on which tile of the row it sits in, so a layer that drops
        // output channels leaves the survivors' sums bit for bit.
        let (a, x) = ragged();
        let keep: Vec<usize> = (0..150).filter(|c| c % 2 == 1 || *c > 140).collect();
        for threads in [1, 4] {
            gcnp_tensor::set_num_threads(threads);
            assert_eq!(
                a.spmm(&x.select_cols(&keep)),
                a.spmm(&x).select_cols(&keep),
                "{threads} threads"
            );
        }
        gcnp_tensor::set_num_threads(0);
    }

    #[test]
    fn packed_forward_matches_plain_for_every_layer_shape() {
        let (a, x) = ragged();
        let mut rng = seeded_rng(51);
        let mean = {
            let l1 = BranchLayer {
                branches: (0..3)
                    .map(|k| Branch::new(k % 2, Matrix::glorot(150, 10, &mut rng)))
                    .collect(),
                bias: None,
                combine: CombineMode::Mean,
                activation: Activation::Relu,
            };
            let cls = BranchLayer::dense(Matrix::glorot(10, 4, &mut rng), None, Activation::None);
            GnnModel::new(vec![l1, cls])
        };
        // k = 1 is narrower out than in and projects; k = 2 is wider and
        // aggregates first.
        let mixed = {
            let l1 = BranchLayer {
                branches: [(0, 10), (1, 10), (2, 160)]
                    .into_iter()
                    .map(|(k, out)| Branch::new(k, Matrix::glorot(150, out, &mut rng)))
                    .collect(),
                bias: None,
                combine: CombineMode::Concat,
                activation: Activation::Relu,
            };
            let cls = BranchLayer::dense(Matrix::glorot(180, 4, &mut rng), None, Activation::None);
            GnnModel::new(vec![l1, cls])
        };
        let cases: Vec<(&str, GnnModel)> = vec![
            ("sage", zoo::graphsage(150, 16, 5, 52)),
            ("sage, wider out than in", zoo::graphsage(150, 320, 5, 58)),
            ("mean", mean),
            ("mixhop", zoo::mixhop(150, 21, 5, 53)),
            ("k = 1 projects, k = 2 aggregates first", mixed),
            ("single branch", zoo::gcn(150, 16, 5, 54)),
            ("jk", zoo::jk(150, 16, 5, 55)),
            ("mlp", zoo::mlp(150, 16, 5, 56)),
        ];
        let mut one_thread = Vec::new();
        for threads in [1, 4] {
            gcnp_tensor::set_num_threads(threads);
            for (ci, (name, model)) in cases.iter().enumerate() {
                let model = biased(model.clone(), 57);
                let plain = model.forward_collect(Some(&a), &x);
                let mut packed = PackedModel::new(&model);
                let fresh = packed.forward_collect(Some(&a), &x);
                let what = format!("{name}, {threads} threads");
                assert_plain_contract(&model, &fresh, &plain, &what);
                // The kept workspace: first pass sizes it, second reuses it.
                for pass in 0..2 {
                    assert_eq!(
                        *packed.forward_reusing(Some(&a), &x),
                        fresh,
                        "{what}, reusing pass {pass}"
                    );
                }
                if threads == 1 {
                    one_thread.push(fresh);
                } else {
                    assert_eq!(fresh, one_thread[ci], "{name}: 1 vs {threads} threads");
                }
            }
        }
        gcnp_tensor::set_num_threads(0);
    }

    #[test]
    fn workspace_follows_a_second_graph() {
        // One kept workspace, two graphs of different size: buffers are
        // re-shaped, not trusted, so neither direction leaves a stale row.
        let (big, x_big) = ragged();
        let small = adj();
        let x_small = Matrix::rand_uniform(5, 150, -1.0, 1.0, &mut seeded_rng(71));
        let model = biased(zoo::graphsage(150, 16, 5, 72), 73);
        let mut packed = PackedModel::new(&model);
        for (a, x) in [(&big, &x_big), (&small, &x_small), (&big, &x_big)] {
            let what = format!("{} nodes", x.rows());
            let fresh = PackedModel::new(&model).forward_collect(Some(a), x);
            assert_eq!(*packed.forward_reusing(Some(a), x), fresh, "{what}");
            assert_plain_contract(&model, &fresh, &model.forward_collect(Some(a), x), &what);
        }
    }

    #[test]
    fn workspace_is_steady_after_warm_up() {
        // One pass sizes every buffer; later passes over the same shapes
        // write the same storage (the analogue of the batched engine's
        // `back_pool_is_steady_after_warm_up`). Layer 1's neighbour branch
        // is wider out than in (150 → 160) and aggregates first (`agg`);
        // layer 2's (320 → 160) projects (`prod`); `hop` stays unshaped.
        let (a, x) = ragged();
        let model = zoo::graphsage(150, 320, 5, 61);
        let mut packed = PackedModel::new(&model);
        let ptrs = |ws: &Workspace| -> Vec<*const f32> {
            let Scratch { agg, prod, hop } = &ws.scratch;
            ws.outputs
                .iter()
                .chain(agg)
                .chain([prod, hop])
                .map(|m| m.as_slice().as_ptr())
                .collect()
        };
        let first = packed.forward_reusing(Some(&a), &x).clone();
        let warm = ptrs(&packed.ws);
        assert_eq!(warm.len(), 3 + 1 + 2);
        for _ in 0..3 {
            assert_eq!(*packed.forward_reusing(Some(&a), &x), first);
            assert_eq!(ptrs(&packed.ws), warm);
        }
    }

    /// Run `layer` alone on a fresh scratch and read the plan off it: the
    /// widths its powers `agg` were shaped to, and those of `prod` and `hop`
    /// (0 = never shaped). The layer's output is returned too.
    fn plan(
        layer: &BranchLayer,
        packs: &[PackedB],
        a: &CsrMatrix,
        input: &Matrix,
    ) -> (Vec<usize>, usize, usize, Matrix) {
        let mut scratch = Scratch::default();
        let mut out = empty();
        layer_forward_packed(layer, packs, Some(a), input, &mut out, &mut scratch);
        let agg = scratch.agg.iter().map(Matrix::cols).collect();
        (agg, scratch.prod.cols(), scratch.hop.cols(), out)
    }

    #[test]
    fn each_sage_layer_aggregates_at_the_narrower_of_its_widths() {
        // products-sim's shapes: 100 attributes under SAGE-256 (two 128-wide
        // branches per layer), and under a SAGE-64, the width the
        // full-inference scheme leaves at η = 1/4 (here two 32-wide
        // branches; the pruner splits the 64 channels unevenly).
        let (a, wide) = ragged();
        let x = wide.select_cols(&(0..100).collect::<Vec<_>>());
        type Widths = (Vec<usize>, usize);
        let cases: [(&str, usize, [Widths; 2]); 2] = [
            // Layer 1 sums 100-wide rows, then multiplies (100 ≤ 128);
            // layer 2 multiplies, then sums 128-wide rows (128 < 256).
            ("unpruned", 256, [(vec![100], 0), (vec![], 128)]),
            // Both layers multiply first and sum 32-wide rows.
            ("4× pruned", 64, [(vec![], 32), (vec![], 32)]),
        ];
        for (name, hidden, want) in cases {
            let model = zoo::graphsage(100, hidden, 47, 81);
            let packed = PackedModel::new(&model);
            let hs = packed.forward_collect(Some(&a), &x);
            for (li, input) in [&x, &hs[0]].into_iter().enumerate() {
                let (agg, prod, hop, out) =
                    plan(&model.layers[li], packed.branch_packs(li), &a, input);
                assert_eq!((agg, prod), want[li], "{name}, layer {}", li + 1);
                assert_eq!(hop, 0, "{name}, layer {}: one hop, into its window", li + 1);
                assert_eq!(out, hs[li], "{name}, layer {}", li + 1);
            }
        }
    }

    #[test]
    fn mean_and_two_hop_branches_project_at_their_output_width() {
        let (a, x) = ragged();
        let mut rng = seeded_rng(91);
        // Mean over k = 0, 1, 2, each 150 → 10, no bias, no activation: the
        // neighbour branches multiply first, and each is added into the
        // sum after its last hop.
        let mean = BranchLayer {
            branches: (0..3)
                .map(|k| Branch::new(k, Matrix::glorot(150, 10, &mut rng)))
                .collect(),
            bias: None,
            combine: CombineMode::Mean,
            activation: Activation::None,
        };
        let model = GnnModel::new(vec![mean]);
        let packed = PackedModel::new(&model);
        let p = packed.branch_packs(0);
        let (agg, prod, hop, out) = plan(&model.layers[0], p, &a, &x);
        assert_eq!((agg, prod, hop), (vec![], 10, 10));
        // Bit for bit `(X·W₀ + Ã·(X·W₁) + Ã·(Ã·(X·W₂))) / 3`, in that order.
        let mut want = x.matmul_packed(&p[0]);
        want.add_assign(&a.spmm(&x.matmul_packed(&p[1])));
        want.add_assign(&a.spmm(&a.spmm(&x.matmul_packed(&p[2]))));
        want.scale_assign(1.0 / 3.0);
        assert_eq!(out, want, "Mean");

        // MixHop's layer, 150 → 3 × 7 under Concat: both graph branches
        // multiply first, and the k = 2 one takes its second hop from `hop`
        // into its window.
        let model = zoo::mixhop(150, 21, 5, 93);
        let packed = PackedModel::new(&model);
        let p = packed.branch_packs(0);
        let (agg, prod, hop, out) = plan(&model.layers[0], p, &a, &x);
        assert_eq!((agg, prod, hop), (vec![], 7, 7));
        let mut want = Matrix::concat_cols_all(&[
            &x.matmul_packed(&p[0]),
            &a.spmm(&x.matmul_packed(&p[1])),
            &a.spmm(&a.spmm(&x.matmul_packed(&p[2]))),
        ]);
        want.relu_assign();
        assert_eq!(out, want, "MixHop");
    }

    #[test]
    fn jk_model_packs_and_matches() {
        let mut rng = seeded_rng(31);
        let l1 = BranchLayer::dense(Matrix::glorot(6, 4, &mut rng), None, Activation::Relu);
        let l2 = BranchLayer::dense(Matrix::glorot(4, 4, &mut rng), None, Activation::Relu);
        let cls = BranchLayer::dense(Matrix::glorot(8, 2, &mut rng), None, Activation::None);
        let model = GnnModel {
            layers: vec![l1, l2, cls],
            jk: true,
        };
        let x = Matrix::rand_uniform(3, 6, -1.0, 1.0, &mut rng);
        let packed = PackedModel::new(&model);
        assert_eq!(packed.forward_full(None, &x), model.forward_full(None, &x));
    }
}
