//! The row-sum kernel: every neighbour aggregation in the stack.
//!
//! [`row_sum`] computes one output row
//!
//! ```text
//! dst[c] = scale · Σ_j w_j · src[row_j][c]
//! ```
//!
//! over a list of source rows — a CSR row's columns and values (`Ã · H`),
//! or a batch node's sampled neighbours with `scale = 1 / deg` (the mean
//! aggregator). The output row is cut into 64-column tiles; a tile lives in
//! eight `f32x8` accumulators for the whole neighbour list and is stored
//! once, so an edge costs one load of the source row and nothing else —
//! adding one neighbour row at a time into the output row would re-load and
//! re-store that row per edge.
//!
//! **Determinism.** Each channel starts from `0.0` and takes its terms in
//! list order with a separate multiply and add — never a fused one — and one
//! final multiply by `scale`. That is the float sequence of a row-at-a-time
//! loop (`*o += w * s`, then `*o *= scale`), so the scalar body, the AVX2
//! twin and that loop (the tests' reference) agree bit for bit, for any
//! tiling and any thread count (callers split output rows, never a row's
//! list).
//!
//! A source row is named by its id alone: row `ids[j]` of `src`. Row ids
//! are validated once per call, while they are resolved to element offsets
//! and before anything is read through them or written to `dst`.

use crate::matrix::Matrix;
use std::cell::RefCell;

/// Columns per register tile: eight 8-lane accumulators.
const TILE: usize = 64;
/// Lanes of one AVX2 `f32x8` vector (the narrow tile).
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// A row id in a neighbour list: CSR column indices are `u32`, batch
/// supports carry `usize` node ids.
pub trait RowId: Copy {
    fn index(self) -> usize;
}

impl RowId for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl RowId for usize {
    #[inline]
    fn index(self) -> usize {
        self
    }
}

thread_local! {
    /// Per-thread element offsets (`row · stride`) of the list being summed,
    /// reused across calls like the GEMM pack buffers.
    static OFFSETS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// `dst[c] = scale · Σ_j weights[j] · src[ids[j]][c]` for `c < dst.len()`,
/// where absent `weights` are all `1.0` (no multiply is issued). `dst` is
/// fully overwritten; an empty list yields `0.0 · scale`.
///
/// # Panics
/// Panics, before reading any row or writing `dst`, if `dst` is wider than
/// a `src` row, the weights do not pair up with the ids, or an id falls
/// outside `src`.
///
/// Shapes: `src` is `(n, stride)` and `dst.len() <= stride`; `weights`, when given, has `ids.len()` entries; every id is `< n`.
pub fn row_sum<I: RowId>(
    dst: &mut [f32],
    src: &Matrix,
    ids: &[I],
    weights: Option<&[f32]>,
    scale: f32,
) {
    row_sum_with(true, dst, src, ids, weights, scale);
}

/// [`row_sum`] on a chosen twin: the AVX2 one when `simd` is set and the CPU
/// has it, else the scalar body. The equivalence tests pin each twin
/// through this.
fn row_sum_with<I: RowId>(
    simd: bool,
    dst: &mut [f32],
    src: &Matrix,
    ids: &[I],
    weights: Option<&[f32]>,
    scale: f32,
) {
    OFFSETS.with(|cell| {
        let mut offsets = cell.borrow_mut();
        resolve(&mut offsets, dst.len(), src, ids, weights);
        let data = src.as_slice();
        #[cfg(target_arch = "x86_64")]
        if simd && simd_available() {
            // SAFETY: avx2 was detected on this CPU just above, and `resolve`
            // established the twin's precondition: every offset is
            // `row · stride` with `row < src.rows()` and `dst.len() <=
            // stride`, so `offset + dst.len() <= data.len()`.
            unsafe { row_sum_avx2(dst, data, &offsets, weights, scale) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        row_sum_scalar(dst, data, &offsets, weights, scale);
    });
}

/// True when the CPU runs the AVX2 twins of [`row_sum`] and
/// [`crate::checksum::row_checksum`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn simd_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn simd_available() -> bool {
    false
}

/// Validate one call and turn its ids into element offsets into
/// `src.as_slice()`. Everything either twin later indexes with is checked
/// here, once, before any row is read. The row-indexed GEMM
/// ([`Matrix::matmul_packed_rows_into`]) resolves its row ids through this
/// too, with `width` the depth it reads of each row.
pub(crate) fn resolve<I: RowId>(
    offsets: &mut Vec<usize>,
    width: usize,
    src: &Matrix,
    ids: &[I],
    weights: Option<&[f32]>,
) {
    let (rows, stride) = src.shape();
    assert!(
        width <= stride,
        "row_sum: dst is {width} wide but src rows are {stride}"
    );
    if let Some(w) = weights {
        assert_eq!(w.len(), ids.len(), "row_sum: weights do not match ids");
    }
    offsets.clear();
    for &id in ids {
        let row = id.index();
        assert!(row < rows, "row {row} out of range ({rows} rows)");
        offsets.push(row * stride);
    }
}

/// Scalar body: the tile's accumulators are a stack array, each channel a
/// sequential mul-then-add chain over the list.
// Indexed on purpose: an unoptimised build (the profile `cargo test` runs,
// wall-clock calibrated serving tests included) executes iterator adaptors
// as nested calls, which made narrow rows 1.5× slower than these loops;
// optimised builds compile both forms alike.
#[allow(clippy::needless_range_loop)]
fn row_sum_scalar(
    dst: &mut [f32],
    src: &[f32],
    offsets: &[usize],
    weights: Option<&[f32]>,
    scale: f32,
) {
    for (t, tile) in dst.chunks_mut(TILE).enumerate() {
        let (col, w) = (t * TILE, tile.len());
        let mut acc = [0.0f32; TILE];
        for (j, &o) in offsets.iter().enumerate() {
            let row = &src[o + col..o + col + w];
            match weights {
                None => {
                    for c in 0..w {
                        acc[c] += row[c];
                    }
                }
                Some(ws) => {
                    let wj = ws[j];
                    for c in 0..w {
                        acc[c] += wj * row[c];
                    }
                }
            }
        }
        for c in 0..w {
            tile[c] = acc[c] * scale;
        }
    }
}

/// AVX2 twin: 64-column tiles in eight `f32x8` accumulators, then 8-column
/// tiles in one, then the scalar body for the last `< 8` columns. `vmulps`
/// and `vaddps` round exactly like the scalar `*` and `+` and are never
/// contracted (fma is not enabled here), so the twins agree bitwise.
///
/// # Safety
/// The CPU must support avx2 and `offset + dst.len() <= src.len()` must
/// hold for every offset.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` per target_feature and the offset precondition above;
// every pointer below stays inside the ranges that precondition covers.
unsafe fn row_sum_avx2(
    dst: &mut [f32],
    src: &[f32],
    offsets: &[usize],
    weights: Option<&[f32]>,
    scale: f32,
) {
    let n = dst.len();
    let mut col = 0;
    while col + TILE <= n {
        // SAFETY: columns `col..col + 64` lie inside `dst`, hence (by the
        // precondition) inside every source row at `offset + col`.
        unsafe { tile_avx2::<{ TILE / LANES }>(dst, src, col, offsets, weights, scale) };
        col += TILE;
    }
    while col + LANES <= n {
        // SAFETY: as above for the 8 columns `col..col + 8`.
        unsafe { tile_avx2::<1>(dst, src, col, offsets, weights, scale) };
        col += LANES;
    }
    row_sum_scalar(&mut dst[col..], &src[col..], offsets, weights, scale);
}

/// One register tile of `V` vectors: columns `col..col + 8·V` of the output.
///
/// # Safety
/// avx2 must be available, `col + 8·V <= dst.len()` and every
/// `offset + col + 8·V <= src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
// SAFETY: `unsafe fn` per target_feature and the range precondition above.
unsafe fn tile_avx2<const V: usize>(
    dst: &mut [f32],
    src: &[f32],
    col: usize,
    offsets: &[usize],
    weights: Option<&[f32]>,
    scale: f32,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    debug_assert!(col + V * LANES <= dst.len());
    // SAFETY: each load reads 8 floats at `offset + col + 8·t`, `t < V`,
    // which the caller guarantees is inside `src`; each store writes 8
    // floats at `col + 8·t` inside `dst`.
    unsafe {
        let base = src.as_ptr().add(col);
        let mut acc = [_mm256_setzero_ps(); V];
        match weights {
            None => {
                for &o in offsets {
                    let row = base.add(o);
                    for (t, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_add_ps(*a, _mm256_loadu_ps(row.add(t * LANES)));
                    }
                }
            }
            Some(w) => {
                for (&o, &wj) in offsets.iter().zip(w) {
                    let row = base.add(o);
                    let wj = _mm256_set1_ps(wj);
                    for (t, a) in acc.iter_mut().enumerate() {
                        let term = _mm256_mul_ps(wj, _mm256_loadu_ps(row.add(t * LANES)));
                        *a = _mm256_add_ps(*a, term);
                    }
                }
            }
        }
        let s = _mm256_set1_ps(scale);
        let out = dst.as_mut_ptr().add(col);
        for (t, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(t * LANES), _mm256_mul_ps(*a, s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use rand::RngExt;

    /// The loop the kernel replaced, kept as the reference: one source row
    /// at a time added into the whole output row, then one scaling pass.
    fn row_at_a_time(
        dst: &mut [f32],
        src: &Matrix,
        rows: &[usize],
        weights: Option<&[f32]>,
        scale: f32,
    ) {
        dst.fill(0.0);
        for (j, &r) in rows.iter().enumerate() {
            let w = weights.map_or(1.0, |w| w[j]);
            for (o, &s) in dst.iter_mut().zip(src.row(r)) {
                match weights {
                    None => *o += s,
                    Some(_) => *o += w * s,
                }
            }
        }
        for o in dst.iter_mut() {
            *o *= scale;
        }
    }

    /// Uniform values salted with the floats whose sign or exponent a
    /// reordered or fused add chain would get wrong.
    fn table(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded_rng(seed);
        let specials = [-0.0f32, 0.0, 1.0e-40, -3.0e-39, f32::MIN_POSITIVE, 1.0e30];
        let data = (0..rows * cols)
            .map(|_| match rng.random_range(0..8usize) {
                0 => specials[rng.random_range(0..specials.len())],
                _ => rng.random_range(-1.0f32..1.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn twins_match_the_row_at_a_time_loop_bitwise() {
        let widths: &[usize] = if cfg!(miri) {
            &[0, 1, 7, 9, 65, 73]
        } else {
            &[0, 1, 7, 8, 9, 63, 64, 65, 128, 150, 602]
        };
        let n_rows = if cfg!(miri) { 5 } else { 23 };
        let long: Vec<usize> = (0..3 * n_rows).map(|i| (i * 7 + 3) % n_rows).collect();
        let lists: [&[usize]; 4] = [&[], &[2], &[4, 1, 4, 4, 0, 1], &long];
        for (wi, &width) in widths.iter().enumerate() {
            // The last column of a wider table must never be read.
            for stride in [width, width + 3] {
                let src = table(n_rows, stride, 11 + wi as u64);
                for rows in lists {
                    let ws: Vec<f32> = (0..rows.len()).map(|j| 0.25 + j as f32 / 3.0).collect();
                    for weights in [None, Some(ws.as_slice())] {
                        for scale in [1.0, 1.0 / rows.len().max(1) as f32] {
                            let mut want = vec![f32::NAN; width];
                            row_at_a_time(&mut want, &src, rows, weights, scale);
                            let ids_u32: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
                            for simd in [false, true] {
                                let ctx = format!(
                                    "width {width} stride {stride} list {} weighted {} scale {scale} simd {simd}",
                                    rows.len(),
                                    weights.is_some()
                                );
                                let mut got = vec![f32::NAN; width];
                                row_sum_with(simd, &mut got, &src, rows, weights, scale);
                                assert_eq!(bits(&got), bits(&want), "usize ids, {ctx}");
                                got.fill(f32::NAN);
                                row_sum_with(simd, &mut got, &src, &ids_u32, weights, scale);
                                assert_eq!(bits(&got), bits(&want), "u32 ids, {ctx}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// One invalid call per check in `resolve`, on a table so small that a
    /// twin reading through the bad id would leave the allocation.
    fn invalid_call<I: RowId>(simd: bool, case: &str, dst: &mut Vec<f32>, ids: [I; 2]) {
        let src = table(3, 8, 1);
        match case {
            // `ids[1]` is row 3 of a 3-row table.
            "row" => row_sum_with(simd, dst, &src, &ids, None, 1.0),
            "wide" => {
                dst.push(f32::NAN);
                row_sum_with(simd, dst, &src, &ids[..1], None, 1.0)
            }
            "weights" => row_sum_with(simd, dst, &src, &ids, Some(&[1.0]), 1.0),
            _ => unreachable!(),
        }
    }

    fn invalid_usize(simd: bool, case: &str) {
        invalid_call(simd, case, &mut vec![f32::NAN; 8], [0usize, 3]);
    }

    #[test]
    fn bad_calls_are_rejected_before_dst_is_written() {
        let nan_bits = f32::NAN.to_bits();
        for case in ["row", "wide", "weights"] {
            for simd in [false, true] {
                for u32_ids in [false, true] {
                    let mut dst = vec![f32::NAN; 8];
                    let caught =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match u32_ids {
                            false => invalid_call(simd, case, &mut dst, [0usize, 3]),
                            true => invalid_call(simd, case, &mut dst, [0u32, 3]),
                        }));
                    let ctx = format!("{case} simd {simd} u32 ids {u32_ids}");
                    assert!(caught.is_err(), "{ctx}: must be rejected");
                    assert!(
                        dst.iter().all(|x| x.to_bits() == nan_bits),
                        "{ctx}: rejected after a write"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 3 out of range (3 rows)")]
    fn out_of_range_row_panics_scalar() {
        invalid_usize(false, "row");
    }

    #[test]
    #[should_panic(expected = "row 3 out of range (3 rows)")]
    fn out_of_range_row_panics_simd() {
        invalid_usize(true, "row");
    }

    #[test]
    #[should_panic(expected = "dst is 9 wide but src rows are 8")]
    fn dst_wider_than_stride_panics_scalar() {
        invalid_usize(false, "wide");
    }

    #[test]
    #[should_panic(expected = "dst is 9 wide but src rows are 8")]
    fn dst_wider_than_stride_panics_simd() {
        invalid_usize(true, "wide");
    }

    #[test]
    #[should_panic(expected = "weights do not match ids")]
    fn mismatched_weights_panic() {
        invalid_usize(true, "weights");
    }
}
