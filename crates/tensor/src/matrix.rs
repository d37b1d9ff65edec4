//! The dense row-major `f32` matrix type used throughout the workspace.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// Row-major layout keeps per-node feature vectors contiguous, which is the
/// access pattern of every GNN kernel in this workspace (gather a node's row,
/// aggregate rows, multiply rows against weight matrices).
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create an identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    ///
    /// Shapes: `data` is flat row-major with `data.len() == rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices. Yields exactly `rows()` items even for
    /// zero-column matrices (`chunks_exact` over empty data would yield
    /// none, silently dropping every row from reductions like `col_sums`).
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |r| &self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// A new matrix containing rows `range` (half-open).
    pub fn row_block(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows);
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Gather the given rows into a new matrix (rows may repeat).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i));
        }
        out
    }

    /// Select a subset of columns into a new matrix.
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        for &c in cols {
            assert!(c < self.cols, "select_cols: column {c} out of bounds");
        }
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (o, &c) in cols.iter().enumerate() {
                dst[o] = src[c];
            }
        }
        out
    }

    /// Select a subset of rows (used when dropping pruned input channels from
    /// a weight matrix, whose rows index input channels).
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        self.gather_rows(rows)
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    ///
    /// Shapes: `self` is `(r, c1)` and `other` `(r, c2)`; the result is `(r, c1 + c2)`.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Horizontal concatenation of many matrices.
    ///
    /// Shapes: every part shares one row count `r`; the result is `(r, sum of part cols)`.
    pub fn concat_cols_all(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols_all: empty input");
        let total: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(parts[0].rows, total);
        Matrix::concat_cols_into(parts, &mut out);
        out
    }

    /// [`Matrix::concat_cols_all`] into a caller-provided output. `out` is
    /// fully overwritten.
    ///
    /// Shapes: every part is `(r, c_i)` and `out` must be `(r, sum of c_i)`.
    pub fn concat_cols_into(parts: &[&Matrix], out: &mut Matrix) {
        let total: usize = parts.iter().map(|p| p.cols).sum();
        assert_eq!(out.cols, total, "concat_cols_into: output width mismatch");
        for p in parts {
            assert_eq!(p.rows, out.rows, "concat_cols_into: row mismatch");
        }
        for r in 0..out.rows {
            let dst = out.row_mut(r);
            let mut off = 0;
            for p in parts {
                dst[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
    }

    /// Vertical concatenation of many matrices.
    ///
    /// Shapes: every part shares one column count `c`; the result is `(sum of part rows, c)`.
    pub fn concat_rows_all(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows_all: empty input");
        let cols = parts[0].cols;
        let total: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(total * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows_all: col mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix::from_vec(total, cols, data)
    }

    /// Split into column blocks of the given widths.
    ///
    /// # Panics
    /// Panics if the widths do not sum to `cols`.
    pub fn split_cols(&self, widths: &[usize]) -> Vec<Matrix> {
        assert_eq!(
            widths.iter().sum::<usize>(),
            self.cols,
            "split_cols: widths mismatch"
        );
        let mut parts: Vec<Matrix> = widths
            .iter()
            .map(|&w| Matrix::zeros(self.rows, w))
            .collect();
        for r in 0..self.rows {
            let src = self.row(r);
            let mut off = 0;
            for (p, &w) in parts.iter_mut().zip(widths) {
                p.row_mut(r).copy_from_slice(&src[off..off + w]);
                off += w;
            }
        }
        parts
    }

    /// Approximate equality within `tol` (absolute, elementwise).
    ///
    /// Shapes: any; matrices of different shapes compare unequal.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute elementwise difference.
    ///
    /// Shapes: `self` and `other` must share one shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Estimated heap footprint in bytes.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let cols = self.cols.min(8);
            let vals: Vec<String> = self.row(r)[..cols]
                .iter()
                .map(|v| format!("{v:>9.4}"))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                vals.join(", "),
                if self.cols > cols { ", …" } else { "" }
            )?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.col(1), vec![2., 5.]);
    }

    #[test]
    fn rows_iter_yields_every_row() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[1., 2.][..], &[3., 4.][..], &[5., 6.][..]]);
    }

    #[test]
    fn rows_iter_zero_cols_yields_empty_rows() {
        // Regression: `chunks_exact` over the empty backing slice yielded
        // zero items, making n×0 matrices look like 0×0 to every reduction.
        let m = Matrix::zeros(4, 0);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 4, "n×0 matrix must still have n rows");
        assert!(rows.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn rows_iter_zero_rows_is_empty() {
        let m = Matrix::zeros(0, 5);
        assert_eq!(m.rows_iter().count(), 0);
    }

    #[test]
    fn eye_is_identity() {
        let i = Matrix::eye(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_blocked() {
        // Exceed the 32x32 block to exercise the blocked path.
        let n = 70;
        let m = Matrix::from_vec(n, n + 3, (0..n * (n + 3)).map(|i| i as f32).collect());
        let t = m.transpose();
        for r in 0..n {
            for c in 0..n + 3 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn concat_and_split_are_inverse() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 1, vec![9., 8.]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1., 2., 9.]);
        let parts = c.split_cols(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_rows_stacks_vertically() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_rows_all(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5., 6.]);
    }

    #[test]
    fn gather_rows_allows_repeats() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5., 6.]);
        assert_eq!(g.row(1), &[1., 2.]);
        assert_eq!(g.row(2), &[5., 6.]);
    }

    #[test]
    fn select_cols_picks_and_reorders() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let s = m.select_cols(&[2, 0]);
        assert_eq!(s.row(0), &[3., 1.]);
        assert_eq!(s.row(1), &[6., 4.]);
    }

    #[test]
    fn row_block_extracts_contiguous_rows() {
        let m = Matrix::from_vec(4, 2, (0..8).map(|i| i as f32).collect());
        let b = m.row_block(1, 3);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.row(0), &[2., 3.]);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1.0005);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
    }
}
