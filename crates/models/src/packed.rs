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

use gcnp_sparse::CsrMatrix;
use gcnp_tensor::{parallel_row_chunks, Matrix, PackedB, QuantPackedB};

use crate::layer::{Activation, Branch, BranchLayer, CombineMode};
use crate::model::GnnModel;

/// Pack one branch weight, folding the channel-pruning mask into the pack
/// step: a branch whose `keep` list is shorter than its stored weight holds
/// the **full-width masked** weight (`W` with dead input channels still
/// present), and only the kept rows are packed — pruned channels are never
/// packed, so the GEMM never multiplies them. Compacted branches (weight
/// already `keep.len()` rows, the `prune_model` output) pack as-is.
fn pack_branch(b: &Branch) -> PackedB {
    match &b.keep {
        Some(keep) if b.weight.rows() != keep.len() => PackedB::pack_rows(&b.weight, keep),
        _ => PackedB::pack(&b.weight),
    }
}

/// Int8 sibling of [`pack_branch`]: quantization scales are computed over
/// the kept rows only, so a mask-folded pack is bit-identical to packing the
/// compacted weight.
fn qpack_branch(b: &Branch) -> QuantPackedB {
    match &b.keep {
        Some(keep) if b.weight.rows() != keep.len() => QuantPackedB::pack_rows(&b.weight, keep),
        _ => QuantPackedB::pack(&b.weight),
    }
}

/// A [`GnnModel`] with every branch weight pre-packed for the GEMM fast
/// path. Forward results are identical to the plain model's (the packed
/// kernel performs the same fused multiply-add chain).
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
            .map(|l| l.branches.iter().map(pack_branch).collect())
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
/// `quantized` tier. Pruning masks fold into the pack exactly as in
/// [`PackedModel`]; weights occupy ≈¼ of the f32 pack.
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
            .map(|l| l.branches.iter().map(qpack_branch).collect())
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
    /// The kept columns of a branch operand (`select_cols`).
    sel: Matrix,
    /// A Mean layer's second and later branch products, on their way into
    /// the sum.
    prod: Matrix,
}

impl Default for Scratch {
    fn default() -> Self {
        Self {
            agg: Vec::new(),
            sel: empty(),
            prod: empty(),
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

/// `out = src[:, keep]`, the values [`Matrix::select_cols`] returns.
fn select_cols_into(src: &Matrix, keep: &[usize], out: &mut Matrix) {
    assert!(
        keep.iter().all(|&c| c < src.cols()),
        "select_cols: column out of bounds"
    );
    let w = keep.len();
    reshape(out, src.rows(), w);
    parallel_row_chunks(out.as_mut_slice(), src.rows(), w, |start, chunk| {
        for (r, dst) in chunk.chunks_exact_mut(w).enumerate() {
            let row = src.row(start + r);
            for (d, &c) in dst.iter_mut().zip(keep) {
                *d = row[c];
            }
        }
    });
}

/// One layer forward over packed branch weights into `out`;
/// arithmetic-identical to [`BranchLayer::forward`].
fn layer_forward_packed(
    layer: &BranchLayer,
    packs: &[PackedB],
    adj: Option<&CsrMatrix>,
    input: &Matrix,
    out: &mut Matrix,
    scratch: &mut Scratch,
) {
    debug_assert_eq!(layer.branches.len(), packs.len());
    let Scratch { agg, sel, prod } = scratch;
    let max_k = layer.max_k();

    // Select, then aggregate: when every graph branch keeps the same
    // channels, only those go through the SpMM. `row_sum` sums each channel
    // on its own, in list order, so `Ã·(X[:, keep])` is `(Ã·X)[:, keep]` bit
    // for bit. Branches with differing lists (no model in the repo builds
    // one) aggregate at full width and select per branch, as the plain
    // forward does.
    let mut graph_keeps = layer.branches.iter().filter(|b| b.k >= 1).map(|b| &b.keep);
    let shared_keep = match graph_keeps.next() {
        Some(Some(first)) if graph_keeps.all(|k| k.as_ref() == Some(first)) => Some(first),
        _ => None,
    };

    // Progressive powers: z_k = Ã^k · input.
    if max_k > 0 {
        let adj = adj.expect("layer_forward_packed: graph layer needs adjacency");
        if agg.len() < max_k {
            agg.resize_with(max_k, empty);
        }
        let z0 = match shared_keep {
            Some(keep) => {
                select_cols_into(input, keep, sel);
                &*sel
            }
            None => input,
        };
        for k in 0..max_k {
            let (done, rest) = agg.split_at_mut(k);
            let src = done.last().unwrap_or(z0);
            reshape(&mut rest[0], adj.n_rows(), src.cols());
            adj.spmm_into(src, &mut rest[0]);
        }
    }

    // Concat is the GEMM's store: each product lands in its column window.
    // Mean keeps the plain forward's float sequence: the first product lands
    // in `out`, later ones are added to it in branch order, then one scale.
    reshape(out, input.rows(), layer.out_dim());
    let mut col0 = 0;
    for (bi, (b, pack)) in layer.branches.iter().zip(packs).enumerate() {
        let z = if b.k == 0 { input } else { &agg[b.k - 1] };
        let operand = match &b.keep {
            Some(keep) if b.k == 0 || shared_keep.is_none() => {
                select_cols_into(z, keep, sel);
                &*sel
            }
            _ => z,
        };
        if bi == 0 || layer.combine == CombineMode::Concat {
            operand.matmul_packed_rows_into(None, pack, out, col0);
            col0 += b.out_dim();
        } else {
            reshape(prod, input.rows(), b.out_dim());
            operand.matmul_packed_rows_into(None, pack, prod, 0);
            out.add_assign(prod);
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

    #[test]
    fn packed_forward_matches_plain_model() {
        let model = zoo::graphsage(6, 8, 3, 11);
        let a = adj();
        let x = Matrix::rand_uniform(5, 6, -1.0, 1.0, &mut seeded_rng(12));
        let packed = PackedModel::new(&model);
        assert_eq!(
            packed.forward_full(Some(&a), &x),
            model.forward_full(Some(&a), &x),
            "packed weights must not change the forward pass"
        );
        let plain = model.forward_collect(Some(&a), &x);
        let via_pack = packed.forward_collect(Some(&a), &x);
        assert_eq!(plain.len(), via_pack.len());
        for (p, q) in plain.iter().zip(&via_pack) {
            assert_eq!(p, q);
        }
        assert!(packed.packed_bytes() > 0);
    }

    #[test]
    fn pruned_model_outputs_unchanged_by_kernel_path() {
        // Satellite pin: pruned models (keep lists + compacted weights) must
        // produce the same outputs through the blocked/packed kernels as
        // through the plain forward — pruning semantics come from
        // `select_cols`, not from skipping zeros inside the GEMM.
        let mut model = zoo::graphsage(6, 8, 3, 21);
        let keep = vec![0, 2, 5];
        for layer in &mut model.layers {
            for b in &mut layer.branches {
                if b.in_dim() == 6 {
                    let w = b.weight.select_rows(&keep);
                    *b = Branch {
                        k: b.k,
                        weight: w,
                        keep: Some(keep.clone()),
                    };
                }
            }
        }
        let a = adj();
        let x = Matrix::rand_uniform(5, 6, -1.0, 1.0, &mut seeded_rng(22));
        let plain = model.forward_full(Some(&a), &x);
        let packed = PackedModel::new(&model);
        assert_eq!(packed.forward_full(Some(&a), &x), plain);
        // The masked-equivalent computation: zero the pruned channels and run
        // the unpruned weights through the dense kernel.
        let model_full = zoo::graphsage(6, 8, 3, 21);
        let mask: Vec<f32> = (0..6)
            .map(|i| if keep.contains(&i) { 1.0 } else { 0.0 })
            .collect();
        let masked_first: Matrix = {
            // First-layer check only: compacted GEMM == masked full GEMM.
            let z = x.clone();
            let zm = z.scale_cols(&mask);
            let l = &model_full.layers[0];
            let b0 = &l.branches[0];
            zm.matmul(&b0.weight)
        };
        let compact = x
            .select_cols(&keep)
            .matmul(&model.layers[0].branches[0].weight);
        assert!(
            compact.approx_eq(&masked_first, 1e-5),
            "compacted pruned GEMM must equal the masked full-width GEMM"
        );
    }

    #[test]
    fn masked_branch_folds_into_pack() {
        // A branch holding the full-width masked weight (dead channels still
        // present) with a keep list must pack only the kept rows — identical
        // panels, identical forward pass, smaller pack than the full weight.
        let mut compact_model = zoo::graphsage(6, 8, 3, 33);
        let mut masked_model = zoo::graphsage(6, 8, 3, 33);
        let keep = vec![1, 3, 4];
        for (cm, mm) in compact_model
            .layers
            .iter_mut()
            .zip(&mut masked_model.layers)
        {
            for (cb, mb) in cm.branches.iter_mut().zip(mm.branches.iter_mut()) {
                if cb.in_dim() == 6 {
                    cb.weight = cb.weight.select_rows(&keep);
                    cb.keep = Some(keep.clone());
                    // The masked twin keeps the full-width weight.
                    mb.keep = Some(keep.clone());
                }
            }
        }
        let a = adj();
        let x = Matrix::rand_uniform(5, 6, -1.0, 1.0, &mut seeded_rng(34));
        let compact = PackedModel::new(&compact_model);
        let masked = PackedModel::new(&masked_model);
        assert_eq!(
            compact.packed_bytes(),
            masked.packed_bytes(),
            "mask-folded pack must not pack pruned channels"
        );
        assert_eq!(
            masked.forward_full(Some(&a), &x),
            compact.forward_full(Some(&a), &x),
            "masked and compacted models must agree bitwise through the pack"
        );
        // Int8 twin: scales over kept rows only ⇒ identical quantized packs.
        let qc = QuantPackedModel::new(&compact_model);
        let qm = QuantPackedModel::new(&masked_model);
        assert_eq!(qc.packed_bytes(), qm.packed_bytes());
        // At these toy widths the per-column scales and pair padding eat
        // into the 4x; the int8 pack must still be strictly smaller.
        assert!(qc.packed_bytes() < compact.packed_bytes());
        assert_eq!(
            qc.branch_packs(0).len(),
            compact_model.layers[0].branches.len()
        );
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

    /// Prune branch `bi` of layer 0 to `keep`, compacting its weight.
    fn pruned(mut model: GnnModel, bi: usize, keep: &[usize]) -> GnnModel {
        let b = &mut model.layers[0].branches[bi];
        b.weight = b.weight.select_rows(keep);
        b.keep = Some(keep.to_vec());
        model
    }

    #[test]
    fn selecting_channels_commutes_with_aggregation_bitwise() {
        // What select-then-aggregate rests on: a channel's sum does not
        // depend on which tile of the row it sits in.
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
        let keep: Vec<usize> = (0..150).step_by(4).collect();
        let other: Vec<usize> = (1..150).step_by(3).collect();
        let mean = {
            let mut rng = seeded_rng(51);
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
        // (name, the model the packed path runs, the model the plain
        // reference runs when it is not the same one: it cannot multiply a
        // full-width masked weight, so it gets the compacted twin).
        let sage = || zoo::graphsage(150, 16, 5, 52);
        let mixhop = || zoo::mixhop(150, 21, 5, 53);
        let mut masked = sage();
        masked.layers[0].branches[1].keep = Some(keep.clone());
        let cases: Vec<(&str, GnnModel, Option<GnnModel>)> = vec![
            ("sage", sage(), None),
            ("mean", mean, None),
            ("mixhop", mixhop(), None),
            ("keep on k = 1", pruned(sage(), 1, &keep), None),
            (
                "masked keep on k = 1",
                masked,
                Some(pruned(sage(), 1, &keep)),
            ),
            (
                "keep on k = 0 and k = 1",
                pruned(pruned(sage(), 0, &other), 1, &keep),
                None,
            ),
            (
                "one keep list on k = 1 and k = 2",
                pruned(pruned(mixhop(), 1, &keep), 2, &keep),
                None,
            ),
            (
                "two keep lists on k = 1 and k = 2",
                pruned(pruned(mixhop(), 1, &keep), 2, &other),
                None,
            ),
            ("single branch", zoo::gcn(150, 16, 5, 54), None),
            ("jk", zoo::jk(150, 16, 5, 55), None),
            ("mlp", zoo::mlp(150, 16, 5, 56), None),
        ];
        for threads in [1, 4] {
            gcnp_tensor::set_num_threads(threads);
            for (name, model, reference) in &cases {
                let reference = biased(reference.as_ref().unwrap_or(model).clone(), 57);
                let model = biased(model.clone(), 57);
                let plain = reference.forward_collect(Some(&a), &x);
                let mut packed = PackedModel::new(&model);
                assert_eq!(
                    packed.forward_collect(Some(&a), &x),
                    plain,
                    "{name}, {threads} threads"
                );
                // The kept workspace: first pass sizes it, second reuses it.
                for pass in 0..2 {
                    assert_eq!(
                        *packed.forward_reusing(Some(&a), &x),
                        plain,
                        "{name}, {threads} threads, reusing pass {pass}"
                    );
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
        let keep: Vec<usize> = (0..150).step_by(4).collect();
        let model = biased(pruned(zoo::graphsage(150, 16, 5, 72), 1, &keep), 73);
        let mut packed = PackedModel::new(&model);
        for (a, x) in [(&big, &x_big), (&small, &x_small), (&big, &x_big)] {
            assert_eq!(
                *packed.forward_reusing(Some(a), x),
                model.forward_collect(Some(a), x),
                "{} nodes",
                x.rows()
            );
        }
    }

    #[test]
    fn workspace_is_steady_after_warm_up() {
        // One pass sizes every buffer; later passes over the same shapes
        // write the same storage (the analogue of the batched engine's
        // `back_pool_is_steady_after_warm_up`).
        let (a, x) = ragged();
        let keep: Vec<usize> = (0..150).step_by(4).collect();
        let model = pruned(zoo::graphsage(150, 16, 5, 61), 1, &keep);
        let mut packed = PackedModel::new(&model);
        let ptrs = |ws: &Workspace| -> Vec<*const f32> {
            let Scratch { agg, sel, prod } = &ws.scratch;
            ws.outputs
                .iter()
                .chain(agg)
                .chain([sel, prod])
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
