//! Symmetric per-column int8 quantization and the blocked int8 GEMM.
//!
//! The paper motivates pruned models with "energy-efficient devices like
//! mobile processors and FPGA" (§5). [`QuantMatrix`] is the storage
//! format of `gcnp quantize`'s model files, which load by
//! [`QuantMatrix::dequantize`] and then serve in f32. Nothing the product
//! serves runs the int8 GEMM below: its one caller outside this crate's
//! tests is the benchmark's traced replay (`benchmark/src/adapter.rs`),
//! through the batched engine's int8 precision. Weights are quantized per
//! output column (symmetric, zero-point 0), activations per tensor,
//! products accumulate in integers and dequantize back to f32.
//!
//! Two kernels share that arithmetic:
//!
//! * [`qmatmul`] — the naive i-k-j reference. Kept as the equivalence
//!   oracle and for one-shot products without a pack.
//! * [`qgemm_packed_into`] — the production path: a cache-blocked GEMM
//!   against a [`QuantPackedB`] weight pack (the int8 sibling of
//!   [`PackedB`](crate::PackedB)), with a runtime-dispatched AVX2
//!   `pmaddwd`-style microkernel and a scalar fallback that is
//!   **bitwise identical in its i32/i64 accumulation** (integer adds are
//!   exact, so tile order cannot perturb results).
//!
//! **Overflow discipline.** A single i8×i8 product is bounded by
//! `127² = 16129`, so an i32 accumulator overflows once the inner dim
//! exceeds `i32::MAX / 16129 ≈ 133 152`. Both kernels therefore
//! accumulate i32 only within one `KC`-deep block (`KC · 16129 ≪ i32::MAX`)
//! and fold each block into an i64 total, making every inner dimension
//! safe. Dequantization multiplies the i64 total by the two scales in f64
//! and rounds to f32 once.

use crate::check::{assert_finite, guard_finite, CheckError};
use crate::gemm::{gemm_path, GemmPath, KC};
use crate::matrix::Matrix;
use crate::parallel::parallel_row_chunks_aligned;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// The int8 kernel's own tile: an `8 × 8` register tile (one `madd_epi16`
/// i32x8 accumulator per row) over `64`-row blocks. The pack layout and the
/// microkernels are written for these values, so they do not follow the f32
/// kernel's `MR`/`NR`/`MC` when that is re-tiled; only the slab depth `KC`
/// is shared.
#[doc(hidden)]
pub const QMR: usize = 8;
#[doc(hidden)]
pub const QNR: usize = 8;
#[doc(hidden)]
pub const QMC: usize = 64;

/// An int8-quantized matrix with per-column scales (weights) — symmetric
/// quantization: `q = round(x / scale)`, `x ≈ q * scale`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    /// Dequantization scale per column.
    scales: Vec<f32>,
}

/// Per-column symmetric scales of `m`: `max_abs / 127`, with all-zero
/// columns pinned to scale 1.0 so dequantization never divides by zero.
fn column_scales(m: &Matrix) -> Vec<f32> {
    let mut scales = vec![0f32; m.cols()];
    for p in 0..m.rows() {
        for (c, &v) in m.row(p).iter().enumerate() {
            scales[c] = scales[c].max(v.abs());
        }
    }
    for s in &mut scales {
        *s = if *s > 0.0 { *s / 127.0 } else { 1.0 };
    }
    scales
}

/// Round to nearest, ties to even — the hardware rounding mode of both
/// `cvtss2si` (here) and `cvtps2dq` (the vectorized activation pass), so the
/// scalar and SIMD quantizers agree bitwise. The baseline x86-64 target has
/// no `roundss`, which turns `f32::round_ties_even` into a per-element
/// `rintf` libcall; the conversion instruction is one cycle instead.
#[inline]
fn round_to_i32(v: f32) -> i32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: sse2 is a baseline x86_64 target feature; `cvtss2si` rounds
    // per MXCSR, which Rust fixes to nearest-even.
    unsafe {
        use std::arch::x86_64::{_mm_cvtss_si32, _mm_set_ss};
        _mm_cvtss_si32(_mm_set_ss(v))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        v.round_ties_even() as i32
    }
}

#[inline]
fn quantize_one(v: f32, scale: f32) -> i8 {
    round_to_i32(v / scale).clamp(-127, 127) as i8
}

/// Quantize a contiguous f32 slice into sign-extended i16 with one shared
/// per-tensor scale: the hot per-call pass of [`qgemm_packed_into`]. On
/// x86-64 the body is hand-vectorized SSE2 (`divps` → `cvtps2dq` →
/// `packssdw` → i16 clamp), element-for-element identical to the scalar
/// [`quantize_one`] tail: IEEE division is correctly rounded in both, and
/// `cvtps2dq`/`cvtss2si` share the nearest-even mode.
fn quantize_slice_i16(src: &[f32], scale: f32, dst: &mut [i16]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    #[cfg(target_arch = "x86_64")]
    let done = src.len() / 8 * 8;
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{
            __m128i, _mm_cvtps_epi32, _mm_div_ps, _mm_loadu_ps, _mm_max_epi16, _mm_min_epi16,
            _mm_packs_epi32, _mm_set1_epi16, _mm_set1_ps, _mm_storeu_si128,
        };
        // SAFETY: sse2 is a baseline x86_64 target feature; every 16-byte
        // load/store stays within `src[..done]` / `dst[..done]`.
        unsafe {
            let s = _mm_set1_ps(scale);
            let lo = _mm_set1_epi16(-127);
            let hi = _mm_set1_epi16(127);
            for i in (0..done).step_by(8) {
                let a = _mm_cvtps_epi32(_mm_div_ps(_mm_loadu_ps(src.as_ptr().add(i)), s));
                let b = _mm_cvtps_epi32(_mm_div_ps(_mm_loadu_ps(src.as_ptr().add(i + 4)), s));
                // `packssdw` saturates i32→i16; the clamp then tightens to
                // ±127, matching the scalar `round_to_i32(..).clamp`.
                let w = _mm_min_epi16(_mm_max_epi16(_mm_packs_epi32(a, b), lo), hi);
                _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, w);
            }
        }
    }
    for (d, &v) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = quantize_one(v, scale) as i16;
    }
}

impl QuantMatrix {
    /// Quantize a weight matrix per output column.
    ///
    /// Non-finite weights are trapped by the `strict-invariants` build
    /// (`f32::max` silently drops NaN, so an unchecked NaN would corrupt
    /// the scale and quantize to garbage); fallible callers should prefer
    /// [`QuantMatrix::try_quantize`].
    ///
    /// Shapes: `m` is `(r, c)`; the quantized matrix is `(r, c)` with one scale per column.
    pub fn quantize(m: &Matrix) -> QuantMatrix {
        guard_finite("quant.weights.finite", "weight matrix", m.as_slice());
        Self::quantize_unchecked(m)
    }

    /// [`QuantMatrix::quantize`] returning a typed [`CheckError`] instead of
    /// panicking on non-finite weights (serving engines convert it into
    /// `ServingError::InvariantViolation`). A no-op check without the
    /// `strict-invariants` feature.
    ///
    /// Shapes: `m` is `(r, c)`; the quantized matrix is `(r, c)` with one scale per column.
    pub fn try_quantize(m: &Matrix) -> Result<QuantMatrix, CheckError> {
        assert_finite("quant.weights.finite", "weight matrix", m.as_slice())?;
        Ok(Self::quantize_unchecked(m))
    }

    fn quantize_unchecked(m: &Matrix) -> QuantMatrix {
        let (rows, cols) = m.shape();
        let scales = column_scales(m);
        let mut data = vec![0i8; rows * cols];
        for r in 0..rows {
            for (c, &v) in m.row(r).iter().enumerate() {
                data[r * cols + c] = quantize_one(v, scales[c]);
            }
        }
        QuantMatrix {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Dequantize back to f32: how a quantized model file is loaded.
    /// Refuses (`quant.shape`) a matrix whose values are not `rows × cols`
    /// or whose scales are not `cols` — shapes quantizing never makes, but
    /// a deserialized file can carry.
    pub fn dequantize(&self) -> Result<Matrix, CheckError> {
        let values = self.rows.checked_mul(self.cols);
        if values != Some(self.data.len()) || self.scales.len() != self.cols {
            return Err(CheckError {
                check: "quant.shape",
                detail: format!(
                    "a {} × {} weight carries {} values and {} scales",
                    self.rows,
                    self.cols,
                    self.data.len(),
                    self.scales.len()
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            let src = &self.data[r * self.cols..(r + 1) * self.cols];
            for ((v, &q), &s) in row.iter_mut().zip(src).zip(&self.scales) {
                *v = q as f32 * s;
            }
        }
        Ok(out)
    }

    /// Heap bytes (4× smaller than the f32 original, plus scales).
    pub fn nbytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }
}

/// Per-tensor symmetric activation quantization scale for `x`.
///
/// Shapes: `x` is any matrix; the scale is per-tensor (scalar).
pub fn activation_scale(x: &Matrix) -> f32 {
    // Eight independent accumulators let the max-reduction vectorize;
    // `f32::max` is associative (and no lane is NaN past the finite guard),
    // so the result is identical to a sequential fold.
    let mut lanes = [0.0f32; 8];
    let (chunks, tail) = x.as_slice().split_at(x.as_slice().len() / 8 * 8);
    for ch in chunks.chunks_exact(8) {
        for (m, v) in lanes.iter_mut().zip(ch) {
            *m = m.max(v.abs());
        }
    }
    let max = tail
        .iter()
        .fold(lanes.iter().fold(0.0f32, |m, &v| m.max(v)), |m, v| {
            m.max(v.abs())
        });
    if max > 0.0 {
        max / 127.0
    } else {
        1.0
    }
}

/// Dequantize an integer dot-product total: one f64 product of the i64
/// accumulator with both scales, rounded to f32 once. All quantized kernels
/// share this so their outputs are bitwise comparable.
#[inline]
fn dequant(acc: i64, sx: f32, sw: f32) -> f32 {
    (acc as f64 * sx as f64 * sw as f64) as f32
}

/// Quantized GEMM reference: `x · w` where `x` is f32 (quantized on the fly
/// per tensor) and `w` is int8 per-column. Accumulates i32 within each
/// `KC`-deep block of the inner dimension and folds blocks into i64 (the
/// i32-only variant overflows past `k ≈ 133 000`; see the module docs),
/// then dequantizes to f32. This is the arithmetic an int8 edge accelerator
/// would perform; [`qgemm_packed_into`] is the blocked production kernel.
///
/// Shapes: `x` is `(m, k)` and `w` `(k, n)`; the result is `(m, n)`.
pub fn qmatmul(x: &Matrix, w: &QuantMatrix) -> Matrix {
    assert_eq!(x.cols(), w.rows, "qmatmul: inner dimension mismatch");
    guard_finite("quant.activations.finite", "activations", x.as_slice());
    let sx = activation_scale(x);
    let (m, k, n) = (x.rows(), x.cols(), w.cols);
    // Quantize activations row-block on the fly.
    let mut xq = vec![0i8; m * k];
    for (q, &v) in xq.iter_mut().zip(x.as_slice()) {
        *q = quantize_one(v, sx);
    }
    let mut out = Matrix::zeros(m, n);
    let mut acc = vec![0i32; n];
    let mut total = vec![0i64; n];
    for i in 0..m {
        let xrow = &xq[i * k..(i + 1) * k];
        total.fill(0);
        // i32 accumulators per output column, safe for one KC-deep block;
        // each block folds into the i64 totals before the next begins.
        for (bi, block) in xrow.chunks(KC).enumerate() {
            acc.fill(0);
            for (kk, &xv) in block.iter().enumerate() {
                if xv == 0 {
                    continue;
                }
                let krow = bi * KC + kk;
                let wrow = &w.data[krow * n..(krow + 1) * n];
                let xv = xv as i32;
                for (a, &wv) in acc.iter_mut().zip(wrow) {
                    *a += xv * wv as i32;
                }
            }
            for (t, &a) in total.iter_mut().zip(&acc) {
                *t += a as i64;
            }
        }
        let orow = out.row_mut(i);
        for ((o, &t), &sw) in orow.iter_mut().zip(&total).zip(&w.scales) {
            *o = dequant(t, sx, sw);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Blocked int8 GEMM: QuantPackedB + microkernels + driver
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread quantized packed-A buffer: sign-extended i16 depth pairs,
    /// pair-interleaved per row so the AVX2 kernel broadcasts each row's
    /// `(x₂ₚ, x₂ₚ₊₁)` with a single 4-byte `vpbroadcastd` from memory.
    static QPACK_A_BUF: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
    /// Per-thread i64 accumulator spanning one output row chunk.
    static QACC64_BUF: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
    /// Caller-thread buffer holding the whole activation matrix quantized
    /// once per call (row-major, sign-extended i16) in one contiguous,
    /// vectorizable pass; the per-block pack is then a pure integer reorder.
    static QX_BUF: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
}

/// Whether the int8 microkernel may use AVX2. Rides the f32 dispatcher so
/// [`crate::set_gemm_path`] pins the quantized kernels too (the equivalence
/// suite relies on this); `BlockedScalar` forces the scalar kernel.
fn quant_simd() -> bool {
    gemm_path() == GemmPath::BlockedSimd
}

/// An int8 weight pack with per-column scales: the quantized sibling of
/// [`PackedB`](crate::PackedB). Columns are packed into `QNR`-wide panels
/// grouped by `KC`-deep slab — the f32 pack's scheme at this kernel's own
/// panel width — but within a panel consecutive **depth pairs** are
/// interleaved (`b[p][j]`, `b[p+1][j]` adjacent) so the AVX2 microkernel can
/// consume them with one `pmaddwd`.
/// Odd slab depths zero-pad the trailing pair.
///
/// Engines build one per branch weight at construction and reuse it across
/// every batch.
pub struct QuantPackedB {
    k: usize,
    n: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantPackedB {
    /// Quantize and pack `b` for repeated use as the right-hand operand.
    ///
    /// Shapes: `b` is `(k, n)`; `qgemm_packed_into` requires `x.cols() == k` and yields `(x.rows(), n)`.
    pub fn pack(b: &Matrix) -> QuantPackedB {
        guard_finite("quant.pack.finite", "weight matrix", b.as_slice());
        let (k, n) = (b.rows(), b.cols());
        let scales = column_scales(b);
        let data = pack_layout(k, n, |p, col| quantize_one(b.row(p)[col], scales[col]));
        QuantPackedB { k, n, data, scales }
    }

    /// Re-lay an already-quantized [`QuantMatrix`] into packed panels,
    /// reusing its values and scales verbatim (no re-quantization), so a
    /// deserialized quantized model runs on the blocked kernel.
    ///
    /// Shapes: `q` is `(k, n)`; the pack multiplies as the right operand of
    /// an `(m, k) · (k, n)` product.
    pub fn from_quant(q: &QuantMatrix) -> QuantPackedB {
        let (k, n) = (q.rows, q.cols);
        let data = pack_layout(k, n, |p, col| q.data[p * n + col]);
        QuantPackedB {
            k,
            n,
            data,
            scales: q.scales.clone(),
        }
    }

    /// Shared (inner) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-column dimension of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-column dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes held by the packed panels plus scales (≈¼ of the f32 pack).
    pub fn packed_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Panel `t` of the slab starting at depth `ks` (slab depth `kl`), as
    /// `kl.div_ceil(2)` depth-pair rows of `QNR·2` interleaved bytes.
    #[inline]
    fn panel(&self, ks: usize, kl: usize, t: usize) -> &[i8] {
        let n_panels = self.n.div_ceil(QNR);
        let pairs = kl.div_ceil(2);
        let at = ks * n_panels * QNR + t * pairs * QNR * 2;
        &self.data[at..at + pairs * QNR * 2]
    }
}

/// Lay `k × n` int8 values (yielded by `get(p, col)`) into the paired-depth
/// panel format described on [`QuantPackedB`].
fn pack_layout(k: usize, n: usize, get: impl Fn(usize, usize) -> i8) -> Vec<i8> {
    let n_panels = n.div_ceil(QNR);
    let mut len = 0usize;
    let mut ks = 0;
    while ks < k {
        let kl = KC.min(k - ks);
        len += n_panels * kl.div_ceil(2) * QNR * 2;
        ks += kl;
    }
    let mut data = vec![0i8; len];
    let mut ks = 0;
    while ks < k {
        let kl = KC.min(k - ks);
        let pairs = kl.div_ceil(2);
        // `KC` is even, so every preceding (full) slab holds exactly
        // `kl · n_panels · QNR` bytes and the slab base is the same
        // expression as the f32 pack's.
        let slab_base = ks * n_panels * QNR;
        for p in 0..kl {
            for t in 0..n_panels {
                let cols = QNR.min(n - t * QNR);
                let pbase = slab_base + t * pairs * QNR * 2;
                for j in 0..cols {
                    data[pbase + (p / 2) * QNR * 2 + j * 2 + (p % 2)] = get(ks + p, t * QNR + j);
                }
            }
        }
        ks += kl;
    }
    data
}

/// Scalar int8 microkernel: `acc[i][j] += Σ_p a[p][i]·b[p][j]` over the
/// packed strip/panel, consuming depth **pairs** exactly like the AVX2
/// kernel (`x0·b0 + x1·b1` per step). Integer adds are exact, so this is
/// bitwise identical to [`qmicrokernel_avx2`] by construction.
fn qmicrokernel_scalar(pairs: usize, a: &[i16], b: &[i8], acc: &mut [i32; QMR * QNR]) {
    debug_assert!(a.len() >= pairs * QMR * 2 && b.len() >= pairs * QNR * 2);
    for pp in 0..pairs {
        let arow = &a[pp * QMR * 2..(pp + 1) * QMR * 2];
        let bp = &b[pp * QNR * 2..(pp + 1) * QNR * 2];
        for i in 0..QMR {
            let (x0, x1) = (arow[i * 2] as i32, arow[i * 2 + 1] as i32);
            if x0 == 0 && x1 == 0 {
                continue;
            }
            let row = &mut acc[i * QNR..i * QNR + QNR];
            for (j, o) in row.iter_mut().enumerate() {
                *o += x0 * bp[2 * j] as i32 + x1 * bp[2 * j + 1] as i32;
            }
        }
    }
}

/// AVX2 int8 microkernel: sign-extend one packed depth-pair row of `b` to
/// i16 (`_mm256_cvtepi8_epi16`), broadcast each output row's pre-extended
/// activation pair with one 4-byte `vpbroadcastd`, and `_mm256_madd_epi16`
/// (pmaddwd) the pair products straight into eight i32 accumulators per
/// tile row. The pairwise i16 multiply-add is exact in i32
/// (`2·127² = 32258` per step), so the result is bitwise identical to
/// [`qmicrokernel_scalar`].
///
/// # Safety
/// Caller must ensure avx2 is available (checked at dispatch via
/// `is_x86_feature_detected!`) and that `a`/`b` hold at least `pairs·QMR·2` /
/// `pairs·QNR·2` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` per target_feature; all memory access below is through
// checked-slice-derived pointers kept in bounds by the asserted lengths.
unsafe fn qmicrokernel_avx2(pairs: usize, a: &[i16], b: &[i8], acc: &mut [i32; QMR * QNR]) {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_madd_epi16,
        _mm256_set1_epi32, _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
    };
    assert!(a.len() >= pairs * QMR * 2 && b.len() >= pairs * QNR * 2);
    // SAFETY: every load reads 16 bytes at offsets `pp·QNR·2` (< pairs·QNR·2,
    // asserted above) from `b` and one unaligned i32 (the little-endian
    // `(x₂ₚ, x₂ₚ₊₁)` i16 pair) at i16 offset `pp·QMR·2 + i·2` from `a`;
    // stores write the 64-int `acc` array at offsets 0, 8, .., 56.
    unsafe {
        let mut c: [__m256i; QMR] = [_mm256_setzero_si256(); QMR];
        for pp in 0..pairs {
            let bw = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                b.as_ptr().add(pp * QNR * 2) as *const __m128i
            ));
            let ap = a.as_ptr().add(pp * QMR * 2) as *const i32;
            for (i, ci) in c.iter_mut().enumerate() {
                let av = _mm256_set1_epi32(core::ptr::read_unaligned(ap.add(i)));
                *ci = _mm256_add_epi32(*ci, _mm256_madd_epi16(av, bw));
            }
        }
        for (i, ci) in c.iter().enumerate() {
            _mm256_storeu_si256(acc.as_mut_ptr().add(i * QNR) as *mut __m256i, *ci);
        }
    }
}

#[inline]
fn run_qmicrokernel(simd: bool, pairs: usize, a: &[i16], b: &[i8], acc: &mut [i32; QMR * QNR]) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only set when `gemm_path()` resolved to
        // `BlockedSimd`, which requires `is_x86_feature_detected!` to have
        // confirmed avx2 on this CPU; slice lengths are asserted inside.
        unsafe { qmicrokernel_avx2(pairs, a, b, acc) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    qmicrokernel_scalar(pairs, a, b, acc);
}

/// Reorder rows `i0..i0+mc` / depth `p0..p0+kc` of the pre-quantized
/// activations `xq` (row-major `… × k` i16) into `QMR`-row strips of
/// **depth pairs**: within a pair-row, row `i`'s `(x₂ₚ, x₂ₚ₊₁)` sit
/// adjacent, so the AVX2 kernel broadcasts them with one 4-byte load. Odd
/// depths zero-pad the trailing phantom lane, so the paired microkernels
/// never branch on the boundary. Quantization happened once up front
/// ([`qgemm_packed_into`]); this pass moves integers only.
fn qpack_a(xq: &[i16], k: usize, i0: usize, mc: usize, p0: usize, kc: usize, buf: &mut Vec<i16>) {
    let strips = mc.div_ceil(QMR);
    let pairs = kc.div_ceil(2);
    buf.clear();
    buf.resize(strips * pairs * QMR * 2, 0);
    for s in 0..strips {
        let rows = QMR.min(mc - s * QMR);
        let base = s * pairs * QMR * 2;
        for i in 0..rows {
            let row = (i0 + s * QMR + i) * k;
            let src = &xq[row + p0..row + p0 + kc];
            for (p, &v) in src.iter().enumerate() {
                buf[base + (p / 2) * QMR * 2 + i * 2 + (p % 2)] = v;
            }
        }
    }
}

/// Blocked int8 GEMM over one contiguous chunk of output rows. Same loop
/// order as the f32 driver (`KC` slab → `QMC` row block → panel → `QMR`
/// strip); each microkernel tile's i32 partial folds into a
/// chunk-wide i64 accumulator, dequantized once after the last slab.
fn qgemm_rows(
    xq: &[i16],
    pb: &QuantPackedB,
    sx: f32,
    start: usize,
    rows: usize,
    out: &mut [f32],
    simd: bool,
) {
    let (k, n) = (pb.k, pb.n);
    let n_panels = n.div_ceil(QNR);
    QPACK_A_BUF.with(|acell| {
        QACC64_BUF.with(|ccell| {
            let mut abuf = acell.borrow_mut();
            let mut acc64 = ccell.borrow_mut();
            acc64.clear();
            acc64.resize(rows * n, 0i64);
            let mut ks = 0;
            while ks < k {
                let kl = KC.min(k - ks);
                let pairs = kl.div_ceil(2);
                let mut ic = 0;
                while ic < rows {
                    let ml = QMC.min(rows - ic);
                    qpack_a(xq, k, start + ic, ml, ks, kl, &mut abuf);
                    let strips = ml.div_ceil(QMR);
                    for t in 0..n_panels {
                        let bpanel = pb.panel(ks, kl, t);
                        let cols = QNR.min(n - t * QNR);
                        for s in 0..strips {
                            let apanel = &abuf[s * pairs * 2 * QMR..(s + 1) * pairs * 2 * QMR];
                            let mut acc = [0i32; QMR * QNR];
                            run_qmicrokernel(simd, pairs, apanel, bpanel, &mut acc);
                            let tile_rows = QMR.min(ml - s * QMR);
                            for i in 0..tile_rows {
                                let r0 = (ic + s * QMR + i) * n + t * QNR;
                                let orow = &mut acc64[r0..r0 + cols];
                                let arow = &acc[i * QNR..i * QNR + cols];
                                for (o, &v) in orow.iter_mut().zip(arow) {
                                    *o += v as i64;
                                }
                            }
                        }
                    }
                    ic += ml;
                }
                ks += kl;
            }
            for (row, arow) in out.chunks_exact_mut(n).zip(acc64.chunks_exact(n)) {
                for ((o, &t), &sw) in row.iter_mut().zip(arow).zip(&pb.scales) {
                    *o = dequant(t, sx, sw);
                }
            }
        });
    });
}

/// Blocked int8 GEMM against a cached [`QuantPackedB`]: `out = x · pack`,
/// with `x` quantized per tensor on the fly. Accumulates i32 per `KC` slab,
/// folds slabs into i64 (overflow-safe for any inner dimension), and
/// dequantizes once. Fully overwrites `out`. Results are bitwise identical
/// across thread counts and across the scalar/AVX2 microkernels, and
/// bitwise equal to [`qmatmul`] against the equivalently quantized matrix.
///
/// Shapes: `x` is `(m, k)`, the pack `(k, n)`; `out` must be `(m, n)`.
pub fn qgemm_packed_into(x: &Matrix, pb: &QuantPackedB, out: &mut Matrix) {
    assert_eq!(x.cols(), pb.k, "qgemm: inner dimension mismatch");
    assert_eq!(
        out.shape(),
        (x.rows(), pb.n),
        "qgemm: output shape mismatch"
    );
    guard_finite("quant.activations.finite", "activations", x.as_slice());
    let (m, n) = (x.rows(), pb.n);
    if m == 0 || n == 0 {
        return;
    }
    if pb.k == 0 {
        out.as_mut_slice().fill(0.0);
        return;
    }
    let sx = activation_scale(x);
    let simd = quant_simd();
    QX_BUF.with(|xcell| {
        let mut xq = xcell.borrow_mut();
        xq.clear();
        xq.resize(x.as_slice().len(), 0i16);
        // One contiguous quantization pass over the whole operand — this is
        // the only floating-point work per element; the per-block packs
        // downstream are integer reorders.
        quantize_slice_i16(x.as_slice(), sx, &mut xq);
        let xq: &[i16] = &xq;
        parallel_row_chunks_aligned(out.as_mut_slice(), m, n, QMR, |start, chunk| {
            let rows = chunk.len() / n;
            qgemm_rows(xq, pb, sx, start, rows, chunk, simd);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn quantize_dequantize_small_error() {
        let m = Matrix::rand_uniform(20, 10, -2.0, 2.0, &mut seeded_rng(1));
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize().unwrap();
        // Max error is one quantization step = scale ≈ 2/127.
        assert!(m.max_abs_diff(&back) <= 2.0 / 127.0 + 1e-6);
    }

    #[test]
    fn dequantize_refuses_a_malformed_shape() {
        let q = QuantMatrix::quantize(&Matrix::filled(4, 3, 0.5));
        let short_data = QuantMatrix {
            data: q.data[..10].to_vec(),
            ..q.clone()
        };
        let short_scales = QuantMatrix {
            scales: q.scales[..2].to_vec(),
            ..q.clone()
        };
        for (bad, detail) in [
            (short_data, "a 4 × 3 weight carries 10 values and 3 scales"),
            (
                short_scales,
                "a 4 × 3 weight carries 12 values and 2 scales",
            ),
        ] {
            let err = bad.dequantize().unwrap_err();
            assert_eq!((err.check, err.detail.as_str()), ("quant.shape", detail));
        }
    }

    #[test]
    fn qmatmul_close_to_f32() {
        let mut rng = seeded_rng(2);
        let x = Matrix::rand_uniform(16, 12, -1.0, 1.0, &mut rng);
        let w = Matrix::rand_uniform(12, 8, -1.0, 1.0, &mut rng);
        let exact = x.matmul(&w);
        let quant = qmatmul(&x, &QuantMatrix::quantize(&w));
        // Relative error of int8 GEMM stays a few percent of the magnitude.
        let scale = exact.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(
            exact.max_abs_diff(&quant) < 0.05 * scale,
            "err {}",
            exact.max_abs_diff(&quant)
        );
    }

    #[test]
    fn zero_matrix_quantizes_cleanly() {
        let z = Matrix::zeros(4, 4);
        let q = QuantMatrix::quantize(&z);
        assert_eq!(q.dequantize().unwrap(), z);
        let x = Matrix::filled(2, 4, 1.0);
        assert_eq!(qmatmul(&x, &q), Matrix::zeros(2, 4));
    }

    #[test]
    fn memory_is_quarter_of_f32() {
        let m = Matrix::rand_uniform(100, 64, -1.0, 1.0, &mut seeded_rng(3));
        let q = QuantMatrix::quantize(&m);
        assert!(q.nbytes() < m.nbytes() / 3);
        let p = QuantPackedB::pack(&m);
        let fp = crate::PackedB::pack(&m);
        assert!(p.packed_bytes() < fp.packed_bytes() / 3);
    }

    #[test]
    fn saturation_clamps() {
        // One huge outlier sets the scale; others quantize to ~0.
        let mut m = Matrix::zeros(2, 1);
        m.set(0, 0, 1270.0);
        m.set(1, 0, 0.4);
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize().unwrap();
        assert!((back.get(0, 0) - 1270.0).abs() < 1e-3);
        assert!(back.get(1, 0).abs() <= 10.0); // one step = 10
    }

    /// Satellite regression: at inner dims past `i32::MAX / 127² ≈ 133 152`
    /// a pure-i32 accumulator wraps negative. Both kernels must survive the
    /// boundary via their per-KC-block i64 folding.
    #[test]
    fn i32_overflow_boundary_survives() {
        // All-ones operands quantize to q = 127 exactly, so the integer
        // total is k · 127² = 140 000 · 16129 ≈ 2.258e9 > i32::MAX.
        let k = 140_000;
        let x = Matrix::filled(1, k, 1.0);
        let w = Matrix::filled(k, 1, 1.0);
        let expected = k as f64; // Σ 1·1
        let naive = qmatmul(&x, &QuantMatrix::quantize(&w));
        let mut blocked = Matrix::zeros(1, 1);
        qgemm_packed_into(&x, &QuantPackedB::pack(&w), &mut blocked);
        for got in [naive.get(0, 0), blocked.get(0, 0)] {
            assert!(
                (got as f64 - expected).abs() / expected < 1e-3,
                "overflow wrapped the accumulator: got {got}, want ≈{expected}"
            );
            assert!(got > 0.0, "a wrapped i32 total would be negative");
        }
    }

    #[test]
    fn qgemm_matches_qmatmul_bitwise() {
        // Same quantization grid + same dequant formula + exact integer
        // accumulation ⇒ the blocked kernel must reproduce the naive
        // reference bit for bit, tile order notwithstanding.
        let mut rng = seeded_rng(7);
        for (m, k, n) in [(1, 1, 1), (7, 13, 5), (33, 300, 17), (64, 257, 40)] {
            let x = Matrix::rand_uniform(m, k, -1.5, 1.5, &mut rng);
            let w = Matrix::rand_uniform(k, n, -1.0, 1.0, &mut rng);
            let naive = qmatmul(&x, &QuantMatrix::quantize(&w));
            let mut blocked = Matrix::zeros(m, n);
            qgemm_packed_into(&x, &QuantPackedB::pack(&w), &mut blocked);
            assert_eq!(naive.as_slice(), blocked.as_slice(), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn from_quant_matches_pack() {
        // Packing a pre-quantized matrix must reproduce the direct pack
        // exactly — same grid, same scales, same panel bytes.
        let w = Matrix::rand_uniform(300, 9, -2.0, 2.0, &mut seeded_rng(11));
        let direct = QuantPackedB::pack(&w);
        let relaid = QuantPackedB::from_quant(&QuantMatrix::quantize(&w));
        assert_eq!(direct.scales, relaid.scales);
        assert_eq!(direct.data, relaid.data);
    }

    #[test]
    fn qgemm_empty_and_degenerate_shapes() {
        let x = Matrix::zeros(0, 5);
        let w = Matrix::rand_uniform(5, 3, -1.0, 1.0, &mut seeded_rng(4));
        let mut out = Matrix::zeros(0, 3);
        qgemm_packed_into(&x, &QuantPackedB::pack(&w), &mut out);
        // k = 0: output is all zeros.
        let x0 = Matrix::zeros(4, 0);
        let w0 = Matrix::zeros(0, 3);
        let mut out0 = Matrix::filled(4, 3, 9.0);
        qgemm_packed_into(&x0, &QuantPackedB::pack(&w0), &mut out0);
        assert!(out0.as_slice().iter().all(|&v| v == 0.0));
    }

    #[cfg(feature = "strict-invariants")]
    mod strict {
        use super::*;

        #[test]
        fn quantize_traps_nan_weights() {
            let mut m = Matrix::zeros(2, 2);
            m.set(1, 1, f32::NAN);
            let err = QuantMatrix::try_quantize(&m).unwrap_err();
            assert_eq!(err.check, "quant.weights.finite");
            let caught = std::panic::catch_unwind(|| QuantMatrix::quantize(&m));
            let msg = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("quant.weights.finite"), "{msg}");
        }

        #[test]
        fn pack_traps_nonfinite_weights() {
            let mut m = Matrix::zeros(4, 2);
            m.set(0, 0, f32::INFINITY);
            let caught = std::panic::catch_unwind(|| QuantPackedB::pack(&m));
            assert!(caught.is_err());
        }
    }
}
