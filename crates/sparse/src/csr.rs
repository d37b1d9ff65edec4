//! Compressed-sparse-row matrices and SpMM (`Ã · H`), one
//! [`gcnp_tensor::row_sum`] per output row.
//!
//! `CsrMatrix` doubles as the graph adjacency representation: node `u`'s
//! out-neighbors are `indices[indptr[u]..indptr[u+1]]`. Indices are `u32`
//! (4 bytes) because graph node ids fit comfortably and halving index memory
//! matters for SpMM bandwidth on large graphs.

use gcnp_tensor::{parallel_row_chunks, row_sum, Matrix};
use serde::{Deserialize, Serialize};

/// Adjacency normalization mode for GNN propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Normalization {
    /// `Ã = D⁻¹A` — mean aggregation, used by GraphSAGE (the paper's §2.2).
    Row,
    /// `Ã = D⁻½ A D⁻½` — symmetric normalization, used by GCN/SGC/SIGN.
    Symmetric,
}

/// A CSR sparse matrix with `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from an (unsorted, possibly duplicated) edge list; duplicate
    /// `(row, col)` entries have their values summed.
    pub fn from_edges(n_rows: usize, n_cols: usize, edges: &[(u32, u32, f32)]) -> Self {
        let mut counts = vec![0usize; n_rows + 1];
        for &(r, _, _) in edges {
            assert!((r as usize) < n_rows, "from_edges: row {r} out of bounds");
            counts[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; edges.len()];
        let mut vals = vec![0f32; edges.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in edges {
            assert!((c as usize) < n_cols, "from_edges: col {c} out of bounds");
            let p = cursor[r as usize];
            cols[p] = c;
            vals[p] = v;
            cursor[r as usize] += 1;
        }
        // Sort each row and merge duplicates in place.
        let mut out_indptr = vec![0usize; n_rows + 1];
        let mut out_cols = Vec::with_capacity(edges.len());
        let mut out_vals = Vec::with_capacity(edges.len());
        for r in 0..n_rows {
            let (s, e) = (counts[r], counts[r + 1]);
            let mut row: Vec<(u32, f32)> = cols[s..e]
                .iter()
                .copied()
                .zip(vals[s..e].iter().copied())
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in row {
                if out_cols.len() > out_indptr[r] && *out_cols.last().unwrap() == c {
                    *out_vals.last_mut().unwrap() += v;
                } else {
                    out_cols.push(c);
                    out_vals.push(v);
                }
            }
            out_indptr[r + 1] = out_cols.len();
        }
        Self {
            n_rows,
            n_cols,
            indptr: out_indptr,
            indices: out_cols,
            values: out_vals,
        }
    }

    /// Build an unweighted adjacency (all values 1.0) from `(src, dst)` pairs.
    pub fn adjacency(n: usize, edges: &[(u32, u32)]) -> Self {
        let weighted: Vec<(u32, u32, f32)> = edges.iter().map(|&(s, d)| (s, d, 1.0)).collect();
        // Duplicate edges in the input should stay weight-1 adjacency entries,
        // so clamp merged values back to 1.0.
        let mut m = Self::from_edges(n, n, &weighted);
        for v in &mut m.values {
            *v = 1.0;
        }
        m
    }

    /// Construct directly from raw CSR parts.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent (wrong lengths, non-monotone
    /// `indptr`, column out of bounds, or unsorted row indices).
    ///
    /// Shapes: `indptr.len() == n_rows + 1`, `indices.len() == values.len() == nnz`, every column `< n_cols`.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), n_rows + 1, "from_parts: indptr length");
        assert_eq!(
            indices.len(),
            values.len(),
            "from_parts: indices/values length"
        );
        assert_eq!(
            *indptr.last().unwrap_or(&0),
            indices.len(),
            "from_parts: nnz mismatch"
        );
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "from_parts: indptr not monotone");
        }
        for r in 0..n_rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "from_parts: row {r} not strictly sorted");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < n_cols, "from_parts: col out of bounds");
            }
        }
        Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// An empty `n_rows × n_cols` matrix.
    pub fn empty(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            indptr: vec![0; n_rows + 1],
            indices: vec![],
            values: vec![],
        }
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Out-degree (stored entries) of row `r`.
    #[inline]
    pub fn degree(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Average number of stored entries per row.
    pub fn avg_degree(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n_rows as f64
        }
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Values of row `r`.
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f32] {
        &self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Iterate `(col, value)` over row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.row_indices(r)
            .iter()
            .copied()
            .zip(self.row_values(r).iter().copied())
    }

    /// The raw `indptr` array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Sparse·dense product `self · rhs` — the GNN aggregation kernel
    /// `Ã · H`. Parallel across output rows; each row is one
    /// [`gcnp_tensor::row_sum`] over the row's columns and values, so the
    /// output row accumulates in registers, tile by tile, across the whole
    /// neighbor list.
    ///
    /// # Panics
    /// Panics if `rhs.rows() != n_cols`.
    ///
    /// Shapes: `self` is `(n_rows, n_cols)` sparse and `rhs` `(n_cols, f)` dense; the result is `(n_rows, f)`.
    pub fn spmm(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.n_rows, rhs.cols());
        self.spmm_into(rhs, &mut out);
        out
    }

    /// [`CsrMatrix::spmm`] into a caller-provided output. `out` is fully
    /// overwritten.
    ///
    /// Shapes: `self` is `(n_rows, n_cols)` sparse, `rhs` `(n_cols, f)` dense, and `out` must be `(n_rows, f)`.
    pub fn spmm_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.n_rows, rhs.cols()),
            "spmm_into: output shape mismatch"
        );
        self.spmm_window_into(rhs, out, 0);
    }

    /// [`CsrMatrix::spmm_into`] storing into the column window
    /// `out[.., col0 .. col0 + f]` of a wider output — the same
    /// [`gcnp_tensor::row_sum`] per row, with a shifted destination. The
    /// window is fully overwritten; the other columns are not touched.
    ///
    /// Shapes: `self` is `(n_rows, n_cols)` sparse, `rhs` `(n_cols, f)` dense, and `out` must be `(n_rows, ≥ col0 + f)`.
    pub fn spmm_window_into(&self, rhs: &Matrix, out: &mut Matrix, col0: usize) {
        assert_eq!(rhs.rows(), self.n_cols, "spmm: dimension mismatch");
        let (f, stride) = (rhs.cols(), out.cols());
        assert!(
            out.rows() == self.n_rows && col0 + f <= stride,
            "spmm_window_into: output shape mismatch"
        );
        parallel_row_chunks(out.as_mut_slice(), self.n_rows, stride, |start, chunk| {
            for (r, out_row) in chunk.chunks_mut(stride).enumerate() {
                let row = start + r;
                let (ids, weights) = (self.row_indices(row), self.row_values(row));
                let dst = &mut out_row[col0..col0 + f];
                row_sum(dst, rhs, ids, Some(weights), 1.0);
                gcnp_tensor::check::guard_finite("sparse.spmm.finite", "spmm output row", dst);
            }
        });
    }

    /// Dense transpose-free CSR transpose (CSC-to-CSR flip).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.n_rows {
            for (c, v) in self.row_iter(r) {
                let p = cursor[c as usize];
                indices[p] = r as u32;
                values[p] = v;
                cursor[c as usize] += 1;
            }
        }
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr: counts,
            indices,
            values,
        }
    }

    /// Add unit self-loops (entries on the diagonal); existing diagonal
    /// entries are overwritten with 1.0.
    pub fn with_self_loops(&self) -> CsrMatrix {
        assert_eq!(
            self.n_rows, self.n_cols,
            "with_self_loops: matrix must be square"
        );
        let mut edges: Vec<(u32, u32, f32)> = Vec::with_capacity(self.nnz() + self.n_rows);
        for r in 0..self.n_rows {
            for (c, v) in self.row_iter(r) {
                if c as usize != r {
                    edges.push((r as u32, c, v));
                }
            }
            edges.push((r as u32, r as u32, 1.0));
        }
        CsrMatrix::from_edges(self.n_rows, self.n_cols, &edges)
    }

    /// Normalize the adjacency for GNN propagation.
    ///
    /// Isolated nodes (zero degree) keep all-zero rows: their aggregation
    /// contributes nothing, matching mean-aggregator semantics.
    pub fn normalized(&self, mode: Normalization) -> CsrMatrix {
        assert_eq!(
            self.n_rows, self.n_cols,
            "normalized: matrix must be square"
        );
        let mut out = self.clone();
        match mode {
            Normalization::Row => {
                for r in 0..self.n_rows {
                    let (s, e) = (self.indptr[r], self.indptr[r + 1]);
                    let deg: f32 = self.values[s..e].iter().sum();
                    if deg > 0.0 {
                        for v in &mut out.values[s..e] {
                            *v /= deg;
                        }
                    }
                }
            }
            Normalization::Symmetric => {
                // Degree of the undirected interpretation: row sums.
                let mut deg = vec![0f32; self.n_rows];
                for (r, d) in deg.iter_mut().enumerate() {
                    *d = self.row_values(r).iter().sum();
                }
                let inv_sqrt: Vec<f32> = deg
                    .iter()
                    .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
                    .collect();
                for r in 0..self.n_rows {
                    let (s, e) = (self.indptr[r], self.indptr[r + 1]);
                    for (i, v) in out.values[s..e].iter_mut().enumerate() {
                        let c = self.indices[s + i] as usize;
                        *v *= inv_sqrt[r] * inv_sqrt[c];
                    }
                }
            }
        }
        out
    }

    /// Extract the induced submatrix on `nodes` (rows and columns), with node
    /// `nodes[i]` relabelled to `i`. Used by the GraphSAINT subgraph trainer.
    pub fn induced(&self, nodes: &[usize]) -> CsrMatrix {
        let mut relabel = vec![u32::MAX; self.n_cols];
        for (new, &old) in nodes.iter().enumerate() {
            relabel[old] = new as u32;
        }
        let mut indptr = vec![0usize; nodes.len() + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (new, &old) in nodes.iter().enumerate() {
            for (c, v) in self.row_iter(old) {
                let nc = relabel[c as usize];
                if nc != u32::MAX {
                    indices.push(nc);
                    values.push(v);
                }
            }
            // Keep row sorted: relabelling is not order-preserving.
            let s = indptr[new];
            let mut row: Vec<(u32, f32)> = indices[s..]
                .iter()
                .copied()
                .zip(values[s..].iter().copied())
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (i, (c, v)) in row.into_iter().enumerate() {
                indices[s + i] = c;
                values[s + i] = v;
            }
            indptr[new + 1] = indices.len();
        }
        CsrMatrix {
            n_rows: nodes.len(),
            n_cols: nodes.len(),
            indptr,
            indices,
            values,
        }
    }

    /// Estimated heap footprint in bytes (index + value arrays).
    pub fn nbytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }

    /// Materialize as a dense matrix (tests / tiny graphs only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            for (c, v) in self.row_iter(r) {
                m.set(r, c as usize, v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // 0 -> 1, 2 ; 1 -> 0 ; 2 -> (none) ; 3 -> 2
        CsrMatrix::adjacency(4, &[(0, 1), (0, 2), (1, 0), (3, 2)])
    }

    #[test]
    fn from_edges_sorts_and_merges() {
        let m = CsrMatrix::from_edges(2, 3, &[(0, 2, 1.0), (0, 1, 2.0), (0, 2, 3.0)]);
        assert_eq!(m.row_indices(0), &[1, 2]);
        assert_eq!(m.row_values(0), &[2.0, 4.0]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.degree(1), 0);
    }

    #[test]
    fn adjacency_dedupes_to_unit_weight() {
        let m = CsrMatrix::adjacency(2, &[(0, 1), (0, 1)]);
        assert_eq!(m.row_values(0), &[1.0]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let h = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let got = m.spmm(&h);
        let want = m.to_dense().matmul(&h);
        assert!(got.approx_eq(&want, 1e-5));
    }

    #[test]
    fn spmm_wide_features_bitwise_match_unblocked_order() {
        // Above 64 features a row spans several register tiles plus both
        // tails; the per-element neighbor accumulation order is unchanged,
        // so the result must be bitwise identical to a plain row-at-a-time
        // walk — weighted, and with a neighbor-less row (3) in the middle.
        let m = CsrMatrix::adjacency(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 5),
                (1, 3),
                (2, 0),
                (2, 4),
                (4, 4),
                (5, 0),
            ],
        )
        .normalized(Normalization::Row);
        let f = 128 + 37;
        let h = Matrix::rand_uniform(6, f, -1.0, 1.0, &mut gcnp_tensor::init::seeded_rng(7));
        // spmm_into fully overwrites a dirty output.
        let mut got = Matrix::filled(6, f, f32::NAN);
        m.spmm_into(&h, &mut got);
        let mut want = Matrix::zeros(6, f);
        for r in 0..6 {
            let row = want.row_mut(r);
            for (c, v) in m.row_iter(r) {
                for (o, &s) in row.iter_mut().zip(h.row(c as usize)) {
                    *o += v * s;
                }
            }
        }
        assert_eq!(got.as_slice(), want.as_slice(), "tiling changed bits");
        assert!(got.row(3).iter().all(|&v| v == 0.0));
        // Into a column window of a wider output: the window holds the same
        // bits, every other column keeps what it held.
        let mut wide = Matrix::filled(6, f + 9, 7.0);
        m.spmm_window_into(&h, &mut wide, 4);
        for r in 0..6 {
            let row = wide.row(r);
            assert_eq!(&row[4..4 + f], want.row(r), "window, row {r}");
            assert!(row[..4].iter().chain(&row[4 + f..]).all(|&v| v == 7.0));
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 4);
        assert!(t.to_dense().approx_eq(&m.to_dense().transpose(), 1e-6));
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_normalization_rows_sum_to_one() {
        let n = sample().normalized(Normalization::Row);
        for r in 0..n.n_rows() {
            let s: f32 = n.row_values(r).iter().sum();
            if n.degree(r) > 0 {
                assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
            }
        }
    }

    #[test]
    fn symmetric_normalization_values() {
        // Undirected edge 0-1 plus self loops; degrees 2,2.
        let m = CsrMatrix::adjacency(2, &[(0, 1), (1, 0)]).with_self_loops();
        let n = m.normalized(Normalization::Symmetric);
        // each entry = 1/sqrt(2)/sqrt(2) = 0.5
        assert!(n.to_dense().approx_eq(&Matrix::filled(2, 2, 0.5), 1e-6));
    }

    #[test]
    fn isolated_nodes_stay_zero() {
        let n = sample().normalized(Normalization::Row);
        assert_eq!(n.degree(2), 0);
        let h = Matrix::filled(4, 1, 1.0);
        let out = n.spmm(&h);
        assert_eq!(out.get(2, 0), 0.0);
    }

    #[test]
    fn with_self_loops_sets_diagonal() {
        let m = sample().with_self_loops();
        for r in 0..4 {
            assert!(m.row_iter(r).any(|(c, v)| c as usize == r && v == 1.0));
        }
        // idempotent on nnz
        assert_eq!(m.with_self_loops().nnz(), m.nnz());
    }

    #[test]
    fn induced_subgraph_relabels() {
        let m = sample();
        // Take nodes [0, 2]: edge 0->2 survives as 0->1.
        let s = m.induced(&[0, 2]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row_indices(0), &[1]);
        assert_eq!(s.degree(1), 0);
    }

    #[test]
    fn induced_keeps_rows_sorted() {
        // Reversed node order forces relabel inversion.
        let m = CsrMatrix::adjacency(3, &[(0, 1), (0, 2)]);
        let s = m.induced(&[2, 1, 0]);
        // node 0 is new index 2 with edges to new 1 and new 0.
        assert_eq!(s.row_indices(2), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "from_parts")]
    fn from_parts_validates() {
        let _ = CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::empty(3, 3);
        assert_eq!(m.nnz(), 0);
        let out = m.spmm(&Matrix::filled(3, 2, 1.0));
        assert_eq!(out, Matrix::zeros(3, 2));
    }
}
