//! Matrix kernels: GEMM in the three backprop orientations, elementwise maps,
//! and the row/column-wise reductions the pruning framework needs.
//!
//! The GEMM orientations all route through the cache-blocked, register-tiled
//! kernels in [`crate::gemm`] (packed operands, runtime-dispatched AVX2/FMA
//! microkernel); transposed orientations fold the transpose into operand
//! packing instead of materializing a copy. Parallelism is over output-row
//! chunks via [`crate::parallel`]. The row-indexed product
//! ([`Matrix::matmul_packed_rows_into`]) names its source rows by id alone,
//! row `ids[i]` of `self`, as [`crate::row_sum`] does, and validates them
//! the same way before it reads or writes anything.

use crate::gemm::{self, View};
use crate::matrix::Matrix;
use crate::parallel::parallel_row_chunks;
use crate::rowsum::resolve;
use std::cell::RefCell;

thread_local! {
    /// Per-thread element offsets of a row-indexed product's source rows,
    /// reused across calls like the GEMM pack buffers.
    static ROW_OFFSETS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Matrix {
    /// `self · other` — the workhorse GEMM, cache-blocked and register-tiled.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    ///
    /// Shapes: `self` is `(m, k)` and `other` `(k, n)`; the result is `(m, n)`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: {}x{} · {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), other.cols());
        let mut out = Matrix::zeros(m, n);
        gemm::gemm_into(
            View::normal(self),
            View::normal(other),
            m,
            k,
            n,
            out.as_mut_slice(),
        );
        crate::check::guard_finite("tensor.matmul.finite", "matmul output", out.as_slice());
        out
    }

    /// `selfᵀ · other` (e.g. `∂W = Xᵀ · ∂Y` in linear-layer backward). The
    /// transpose is folded into operand packing — no transposed copy of
    /// `self` is materialized.
    ///
    /// Shapes: `self` is `(n, p)` and `other` `(n, q)`; the result is `(p, q)`.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows(), other.rows(), "matmul_at_b: row mismatch");
        let (m, k, n) = (self.cols(), self.rows(), other.cols());
        let mut out = Matrix::zeros(m, n);
        gemm::gemm_into(
            View::transposed(self),
            View::normal(other),
            m,
            k,
            n,
            out.as_mut_slice(),
        );
        crate::check::guard_finite(
            "tensor.matmul_at_b.finite",
            "matmul_at_b output",
            out.as_slice(),
        );
        out
    }

    /// `self · otherᵀ` (e.g. `∂X = ∂Y · Wᵀ`). The transpose of `other` is
    /// folded into the B-panel pack step.
    ///
    /// Shapes: `self` is `(m, k)` and `other` `(n, k)`; the result is `(m, n)`.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols(), other.cols(), "matmul_a_bt: col mismatch");
        let (m, k, n) = (self.rows(), self.cols(), other.rows());
        let mut out = Matrix::zeros(m, n);
        gemm::gemm_into(
            View::normal(self),
            View::transposed(other),
            m,
            k,
            n,
            out.as_mut_slice(),
        );
        crate::check::guard_finite(
            "tensor.matmul_a_bt.finite",
            "matmul_a_bt output",
            out.as_slice(),
        );
        out
    }

    /// `self · pack` against a [`crate::PackedB`] weight pack, skipping the
    /// per-call B-pack step (the weight-pack cache fast path).
    ///
    /// Shapes: `self` is `(m, k)` with `k == pack.k()`; the result is
    /// `(m, pack.n())`.
    pub fn matmul_packed(&self, pack: &crate::PackedB) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), pack.n());
        self.matmul_packed_into(pack, &mut out);
        out
    }

    /// [`Matrix::matmul_packed`] writing into caller-provided storage (e.g. a
    /// [`crate::ScratchPool`] matrix); `out` is fully overwritten. The
    /// every-row, full-width case of [`Matrix::matmul_packed_rows_into`].
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    ///
    /// Shapes: `self` is `(m, k)` with `k == pack.k()`; `out` must be
    /// `(m, pack.n())`.
    pub fn matmul_packed_into(&self, pack: &crate::PackedB, out: &mut Matrix) {
        assert_eq!(out.cols(), pack.n(), "matmul_packed: output shape mismatch");
        self.matmul_packed_rows_into(None, pack, out, 0);
    }

    /// `out[i][col0 .. col0 + n] = row_i · pack`, the product read and
    /// written where the data lives: `row_i` is row `i` of `self` when
    /// `rows` is `None`, else row `ids[i]` for `rows = Some(ids)`, the way
    /// [`crate::row_sum`] names its source rows — so the GEMM is the gather
    /// (ids may repeat and come in any order); and `out` may be wider than
    /// the product, which fills its column window and leaves every other
    /// column untouched, so the GEMM is the concatenation. Bitwise equal to
    /// gathering the rows, [`Matrix::matmul_packed`], and copying the
    /// product into the window.
    ///
    /// # Panics
    /// Panics, before reading a row or writing an element, on
    /// inner-dimension or output-shape mismatch, a window past `out`'s
    /// width, or an id outside `self`.
    ///
    /// Shapes: `self` is `(r, k)` with `k == pack.k()`; `out` is `(m, w)` with `m` = `ids.len()` (`r` when `rows` is `None`) and `col0 + pack.n() <= w`; every id is `< r`.
    pub fn matmul_packed_rows_into(
        &self,
        rows: Option<&[usize]>,
        pack: &crate::PackedB,
        out: &mut Matrix,
        col0: usize,
    ) {
        assert_eq!(
            self.cols(),
            pack.k(),
            "matmul_packed: {}x{} · packed {}x{}",
            self.rows(),
            self.cols(),
            pack.k(),
            pack.n()
        );
        let m = rows.map_or(self.rows(), <[usize]>::len);
        assert!(
            out.rows() == m && col0 + pack.n() <= out.cols(),
            "matmul_packed: output shape mismatch"
        );
        let ldc = out.cols();
        match rows {
            None => {
                gemm::gemm_packed_into(View::normal(self), pack, m, out.as_mut_slice(), ldc, col0)
            }
            Some(ids) => ROW_OFFSETS.with(|cell| {
                let mut offsets = cell.borrow_mut();
                resolve(&mut offsets, pack.k(), self, ids, None);
                let a = View::indexed(self, &offsets);
                gemm::gemm_packed_into(a, pack, m, out.as_mut_slice(), ldc, col0);
            }),
        }
        if crate::check::enabled() {
            for i in 0..m {
                crate::check::guard_finite(
                    "tensor.matmul_packed.finite",
                    "matmul_packed output",
                    &out.row(i)[col0..col0 + pack.n()],
                );
            }
        }
    }

    /// Elementwise sum into a new matrix.
    ///
    /// Shapes: `self` and `other` must share one shape.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference into a new matrix.
    ///
    /// Shapes: `self` and `other` must share one shape.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product into a new matrix.
    ///
    /// Shapes: `self` and `other` must share one shape.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// `self += alpha * other` in place (axpy).
    ///
    /// Shapes: `self` and `other` must share one shape.
    pub fn add_scaled_assign(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign: shape mismatch"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Elementwise in-place sum.
    ///
    /// Shapes: `self` and `other` must share one shape.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.add_scaled_assign(other, 1.0);
    }

    /// Multiply every element by a scalar, returning a new matrix.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Multiply every element by a scalar in place.
    pub fn scale_assign(&mut self, alpha: f32) {
        for v in self.as_mut_slice() {
            *v *= alpha;
        }
    }

    /// Apply a function elementwise into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice().iter().map(|&v| f(v)).collect(),
        )
    }

    /// Combine elementwise with another matrix into a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    ///
    /// Shapes: `self` and `other` must share one shape; the result matches it.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_with: shape mismatch");
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// ReLU into a new matrix.
    pub fn relu(&self) -> Matrix {
        self.map(|v| v.max(0.0))
    }

    /// Elementwise sigmoid into a new matrix.
    pub fn sigmoid(&self) -> Matrix {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Scale column `j` by `factors[j]` — the `H ⊙ β` channel-mask operation
    /// of the LASSO pruning formulation (Eq. 4 of the paper).
    ///
    /// # Panics
    /// Panics if `factors.len() != cols`.
    ///
    /// Shapes: `factors.len()` must equal `self.cols()`.
    pub fn scale_cols(&self, factors: &[f32]) -> Matrix {
        assert_eq!(
            factors.len(),
            self.cols(),
            "scale_cols: factor length mismatch"
        );
        let cols = self.cols();
        let mut out = self.clone();
        for row in out.as_mut_slice().chunks_exact_mut(cols) {
            for (v, &f) in row.iter_mut().zip(factors) {
                *v *= f;
            }
        }
        out
    }

    /// Broadcast-add a row vector to every row (bias addition).
    ///
    /// Shapes: `bias.len()` must equal `self.cols()`.
    pub fn add_row_vector(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols(), "add_row_vector: length mismatch");
        let cols = self.cols();
        let mut out = self.clone();
        for row in out.as_mut_slice().chunks_exact_mut(cols) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        out
    }

    /// Broadcast-add a row vector to every row in place (allocation-free
    /// bias addition for scratch-pooled intermediates).
    ///
    /// Shapes: `bias.len()` must equal `self.cols()`.
    pub fn add_row_vector_assign(&mut self, bias: &[f32]) {
        assert_eq!(
            bias.len(),
            self.cols(),
            "add_row_vector_assign: length mismatch"
        );
        let cols = self.cols();
        for row in self.as_mut_slice().chunks_exact_mut(cols) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// ReLU in place.
    pub fn relu_assign(&mut self) {
        for v in self.as_mut_slice() {
            *v = v.max(0.0);
        }
    }

    /// A layer's epilogue as one in-place sweep: broadcast-add `bias` to
    /// every row, then ReLU when `relu` — per element `*v += b` then
    /// `v.max(0.0)`, the expressions of [`Matrix::add_row_vector_assign`]
    /// and [`Matrix::relu_assign`], so bitwise equal to calling the pair.
    /// Row chunks run on the kernel pool (inline at one thread).
    ///
    /// Shapes: `bias.len()` must equal `self.cols()` when given.
    pub fn bias_relu_assign(&mut self, bias: Option<&[f32]>, relu: bool) {
        let (rows, cols) = self.shape();
        if let Some(b) = bias {
            assert_eq!(b.len(), cols, "bias_relu_assign: length mismatch");
        }
        if bias.is_none() && !relu {
            return;
        }
        parallel_row_chunks(self.as_mut_slice(), rows, cols, |_, chunk| {
            if let Some(bias) = bias {
                for row in chunk.chunks_exact_mut(cols) {
                    for (v, &b) in row.iter_mut().zip(bias) {
                        *v += b;
                        if relu {
                            *v = v.max(0.0);
                        }
                    }
                }
            } else {
                for v in chunk {
                    *v = v.max(0.0);
                }
            }
        });
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn frobenius_sq(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }

    /// Per-column sums (length `cols`).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols()];
        for row in self.rows_iter() {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Per-row L1 norms (length `rows`). Rows of a weight matrix index input
    /// channels, so this is the "Max Res." channel-importance statistic.
    pub fn row_l1_norms(&self) -> Vec<f32> {
        self.rows_iter()
            .map(|r| r.iter().map(|v| v.abs()).sum())
            .collect()
    }

    /// Row-wise softmax into a new matrix (numerically stabilized).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for row in out.as_mut_slice().chunks_exact_mut(self.cols().max(1)) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Index of the per-row maximum (argmax) for each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map_or(0, |(i, _)| i)
            })
            .collect()
    }
}

/// Dot product of two equal-length slices.
///
/// Shapes: `a` and `b` must have equal lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `dst += alpha * src` over slices.
///
/// Shapes: `dst` and `src` must have equal lengths.
pub fn axpy(dst: &mut [f32], src: &[f32], alpha: f32) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn seq(rows: usize, cols: usize, mul: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * mul).sin()).collect(),
        )
    }

    #[test]
    fn matmul_matches_naive() {
        let a = seq(13, 7, 0.3);
        let b = seq(7, 11, 0.7);
        assert!(a.matmul(&b).approx_eq(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_identity() {
        let a = seq(5, 5, 0.9);
        assert!(a.matmul(&Matrix::eye(5)).approx_eq(&a, 1e-6));
        assert!(Matrix::eye(5).matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn at_b_and_a_bt_match_explicit_transpose() {
        let a = seq(9, 4, 0.2);
        let b = seq(9, 6, 0.5);
        assert!(a
            .matmul_at_b(&b)
            .approx_eq(&naive_matmul(&a.transpose(), &b), 1e-4));
        let c = seq(3, 6, 0.4);
        assert!(b
            .matmul_a_bt(&c)
            .approx_eq(&naive_matmul(&b, &c.transpose()), 1e-4));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scale_cols_is_diag_right_multiply() {
        let a = seq(4, 3, 0.6);
        let beta = [2.0, 0.0, -1.0];
        let mut diag = Matrix::zeros(3, 3);
        for (i, &b) in beta.iter().enumerate() {
            diag.set(i, i, b);
        }
        assert!(a.scale_cols(&beta).approx_eq(&a.matmul(&diag), 1e-5));
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.5, -0.1]);
        assert_eq!(a.relu().as_slice(), &[0.0, 0.0, 2.5, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = seq(5, 7, 1.3);
        let s = a.softmax_rows();
        for row in s.rows_iter() {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_rows_stable_for_large_logits() {
        let a = Matrix::from_vec(1, 3, vec![1000.0, 1001.0, 999.0]);
        let s = a.softmax_rows();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!((s.as_slice().iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_rows_finds_max() {
        let a = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.3, 5.0, -1.0, 2.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reductions_on_zero_col_matrix() {
        // Regression for the rows_iter zero-column bug: these reductions
        // must see all n rows of an n×0 matrix, not none.
        let a = Matrix::zeros(3, 0);
        assert_eq!(a.col_sums(), Vec::<f32>::new());
        assert_eq!(
            a.row_l1_norms(),
            vec![0.0; 3],
            "one (empty) L1 norm per row"
        );
        assert_eq!(a.argmax_rows(), vec![0; 3], "one argmax per row");
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.frobenius_sq(), 30.0);
        assert_eq!(a.row_l1_norms(), vec![3.0, 7.0]);
        assert_eq!(a.col_sums(), vec![4.0, -6.0]);
    }

    #[test]
    fn bias_broadcast() {
        let a = Matrix::zeros(2, 3);
        let b = a.add_row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(b.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn packed_matmul_matches_plain() {
        let a = seq(17, 23, 0.21);
        let b = seq(23, 14, 0.43);
        let pack = crate::PackedB::pack(&b);
        let packed = a.matmul_packed(&pack);
        let plain = a.matmul(&b);
        assert!(packed.approx_eq(&plain, 1e-5));
        let mut into = Matrix::zeros(17, 14);
        a.matmul_packed_into(&pack, &mut into);
        assert_eq!(into.as_slice(), packed.as_slice());
    }

    #[test]
    fn in_place_bias_and_relu_match_allocating_forms() {
        let a = seq(6, 4, 0.8);
        let bias = [0.5, -1.0, 0.0, 2.0];
        let mut inplace = a.clone();
        inplace.add_row_vector_assign(&bias);
        assert_eq!(inplace.as_slice(), a.add_row_vector(&bias).as_slice());
        inplace.relu_assign();
        assert_eq!(
            inplace.as_slice(),
            a.add_row_vector(&bias).relu().as_slice()
        );
        // The fused sweep equals the pair for every (bias, relu) combination,
        // whatever the kernel thread count (6 rows over 4 threads is ragged).
        for threads in [1, 4] {
            crate::set_num_threads(threads);
            for (bias, relu) in [
                (Some(&bias[..]), true),
                (Some(&bias[..]), false),
                (None, true),
                (None, false),
            ] {
                let mut pair = a.clone();
                if let Some(b) = bias {
                    pair.add_row_vector_assign(b);
                }
                if relu {
                    pair.relu_assign();
                }
                let mut fused = a.clone();
                fused.bias_relu_assign(bias, relu);
                assert_eq!(fused, pair, "bias {bias:?}, relu {relu}, {threads} threads");
            }
        }
        crate::set_num_threads(0);
    }

    #[test]
    fn axpy_and_dot() {
        let mut d = vec![1.0, 2.0];
        axpy(&mut d, &[10.0, 20.0], 0.5);
        assert_eq!(d, vec![6.0, 12.0]);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
