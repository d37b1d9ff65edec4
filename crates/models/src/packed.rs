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

use gcnp_sparse::CsrMatrix;
use gcnp_tensor::{Matrix, PackedB, QuantPackedB};

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
}

impl<'m> PackedModel<'m> {
    /// Pack every branch weight of `model`.
    pub fn new(model: &'m GnnModel) -> Self {
        let packs = model
            .layers
            .iter()
            .map(|l| l.branches.iter().map(pack_branch).collect())
            .collect();
        Self { model, packs }
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
    /// [`GnnModel::forward_collect`].
    pub fn forward_collect(&self, adj: Option<&CsrMatrix>, x: &Matrix) -> Vec<Matrix> {
        assert!(
            !self.model.layers.is_empty(),
            "forward_collect: empty model"
        );
        let mut outputs: Vec<Matrix> = Vec::with_capacity(self.model.layers.len());
        let n = self.model.layers.len();
        for (i, (layer, packs)) in self.model.layers.iter().zip(&self.packs).enumerate() {
            let input = if i == 0 {
                x.clone()
            } else if self.model.jk && i == n - 1 {
                let refs: Vec<&Matrix> = outputs.iter().collect();
                Matrix::concat_cols_all(&refs)
            } else {
                outputs[i - 1].clone()
            };
            outputs.push(layer_forward_packed(layer, packs, adj, &input));
        }
        outputs
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

/// One layer forward over packed branch weights; arithmetic-identical to
/// [`BranchLayer::forward`].
fn layer_forward_packed(
    layer: &BranchLayer,
    packs: &[PackedB],
    adj: Option<&CsrMatrix>,
    input: &Matrix,
) -> Matrix {
    debug_assert_eq!(layer.branches.len(), packs.len());
    let max_k = layer.max_k();
    assert!(
        max_k == 0 || adj.is_some(),
        "layer_forward_packed: graph layer needs adjacency"
    );
    let mut powers: Vec<Matrix> = Vec::with_capacity(max_k + 1);
    powers.push(input.clone());
    for _ in 0..max_k {
        let next = adj.unwrap().spmm(powers.last().unwrap());
        powers.push(next);
    }
    let parts: Vec<Matrix> = layer
        .branches
        .iter()
        .zip(packs)
        .map(|(b, pb)| {
            let z = &powers[b.k];
            match &b.keep {
                Some(keep) => z.select_cols(keep).matmul_packed(pb),
                None => z.matmul_packed(pb),
            }
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
        out.add_row_vector_assign(b.row(0));
    }
    if layer.activation == Activation::Relu {
        out.relu_assign();
    }
    out
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
