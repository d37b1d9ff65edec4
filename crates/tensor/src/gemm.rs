//! Cache-blocked, register-tiled GEMM: `B` packed, `A` read where it lies,
//! `C` stored where it belongs.
//!
//! The Goto/BLIS decomposition of `C = A · B`, with BLIS's unpacked ("sup")
//! treatment of the left operand — the serving shapes are tall and skinny
//! (`m` in the thousands, `n` = 128 or 32), so a packed copy of `A` is read
//! back a handful of times and never repays its strided scatter:
//!
//! * the shared dimension is cut into `KC`-deep slabs;
//! * `B` columns are packed into `NR`-column panels (k-major); one panel,
//!   `KC·NR` floats, stays L1-resident across an `MC`-row block's strips;
//! * a row-major `A` is **not packed**: the microkernel broadcasts each
//!   element from its source row through `MR` row offsets, which need not be
//!   consecutive — a row-indexed product
//!   ([`Matrix::matmul_packed_rows_into`](crate::Matrix::matmul_packed_rows_into))
//!   is the gather. Only a transposed `A` (`AᵀB`, training), whose rows are
//!   strided in the source, is packed into `MR`-lane k-major strips;
//! * the innermost unit is an `MR×NR` register tile, accumulated by one of
//!   three twin microkernels and stored straight into `C` at its row stride
//!   `ldc`, which need not equal `n`: a product can fill a column window of
//!   a wider output.
//!
//! **Microkernel twins.** The same tile, read from the same `TileIn`, has
//! three bodies: `f32::mul_add` (scalar), AVX2/FMA (two `ymm` accumulators
//! per tile row) and AVX-512F (one `zmm` accumulator per tile row). The
//! AVX-512 twin also runs two adjacent panels as one `MR × 2·NR` tile where
//! the product has them: one panel gives it six independent fma chains,
//! fewer than FMA latency × two ports needs, and two give twelve. The
//! dispatcher ([`gemm_path`]) picks the widest the CPU reports at run time —
//! AVX-512F (taken only where avx2+fma are present too), then AVX2+FMA, then
//! scalar; [`set_gemm_path`] forces one, and a forced path the CPU lacks
//! falls back down the same order.
//!
//! Transposed orientations (`AᵀB`, `ABᵀ`) fold the transpose into the pack
//! step: the packer reads the source with a strided `View` instead of
//! materializing a transposed copy first.
//!
//! **Determinism.** For a given shape, every path that the auto dispatcher
//! can pick on its own produces an identical sequence of per-element fused
//! multiply-adds over `k` (a chain from `0.0` inside each `KC` slab, slabs
//! added in ascending `ks` order), so results are bitwise identical across
//! thread counts and across the three microkernels. Tile shape, where
//! `A` is read from and where `C` lives are not part of that contract, and
//! `tests/gemm_equivalence.rs` pins golden output hashes so a re-tile that
//! perturbs a bit fails loudly. The reference every kernel is held to is the
//! f64 triple loop in that suite; no reference kernel is compiled into the
//! library.

use crate::matrix::Matrix;
use crate::parallel::{parallel_row_chunks, parallel_row_chunks_aligned};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Microkernel tile height (rows of `A` per register tile).
pub const MR: usize = 6;
/// Microkernel tile width (columns of `B` per register tile and per packed
/// panel): two AVX2 `f32x8` vectors, so a tile is twelve `ymm` accumulators
/// fed by two `B` loads and six broadcasts per depth step. It is one AVX-512
/// `f32x16`, so that twin takes two panels per tile where it can.
pub const NR: usize = 16;
/// Rows of `A` per block (a multiple of `MR`). One B panel is swept over the
/// block's `MC / MR` strips while it sits in L1, and the block's `MC·KC`
/// floats = 96 KiB of `A` stay L2-resident across the panels.
pub const MC: usize = 96;
/// Depth of one slab. `KC·NR` floats = 16 KiB per B panel, L1-resident.
pub const KC: usize = 256;

/// Below this many scalar multiply-adds (`m·k·n`), packing overhead beats
/// blocking gains and the auto dispatcher uses a plain fused i-k-j loop.
/// When `k ≤ KC` the small path's per-element fma chain is identical to the
/// blocked one, so the cutover does not perturb results at typical GNN layer
/// depths. Forced paths ([`set_gemm_path`]) always take the blocked kernels.
const BLOCKED_MIN_FLOPS: usize = 1 << 16;

/// Dense GEMM implementation selector. See [`set_gemm_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPath {
    /// Blocked + packed kernels with the scalar `f32::mul_add` microkernel.
    BlockedScalar,
    /// Blocked + packed kernels with the AVX2/FMA microkernel. Resolves to
    /// [`GemmPath::BlockedScalar`] when the CPU lacks avx2+fma.
    BlockedSimd,
    /// Blocked + packed kernels with the AVX-512F microkernel. Resolves to
    /// the best path the CPU has ([`GemmPath::BlockedSimd`], then
    /// [`GemmPath::BlockedScalar`]) when it lacks avx512f or avx2+fma.
    BlockedAvx512,
}

/// 0 = auto (the widest path detected), otherwise `GemmPath as u8 + 1`.
static PATH_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force a specific GEMM implementation (`None` restores auto-dispatch).
/// The equivalence suite uses it to pin each microkernel. Forcing a path
/// also disables the small-shape shortcut so tiny shapes exercise the
/// packed kernels.
pub fn set_gemm_path(path: Option<GemmPath>) {
    let v = match path {
        None => 0,
        Some(GemmPath::BlockedScalar) => 1,
        Some(GemmPath::BlockedSimd) => 2,
        Some(GemmPath::BlockedAvx512) => 3,
    };
    PATH_OVERRIDE.store(v, Ordering::Relaxed);
}

fn forced_path() -> Option<GemmPath> {
    match PATH_OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(GemmPath::BlockedScalar),
        2 => Some(GemmPath::BlockedSimd),
        3 => Some(GemmPath::BlockedAvx512),
        _ => None,
    }
}

/// The GEMM implementation calls will resolve to right now: the forced
/// override if one is set, otherwise the widest the CPU reports —
/// [`GemmPath::BlockedAvx512`] with avx512f (and avx2+fma),
/// [`GemmPath::BlockedSimd`] with avx2+fma, [`GemmPath::BlockedScalar`]
/// otherwise. A forced path without CPU support degrades down that order.
pub fn gemm_path() -> GemmPath {
    match forced_path().unwrap_or(GemmPath::BlockedAvx512) {
        GemmPath::BlockedAvx512 if avx512_available() => GemmPath::BlockedAvx512,
        GemmPath::BlockedAvx512 | GemmPath::BlockedSimd if simd_available() => {
            GemmPath::BlockedSimd
        }
        _ => GemmPath::BlockedScalar,
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// AVX-512F, on a CPU that also has what [`GemmPath::BlockedSimd`] needs, so
/// every path above scalar can also run the AVX2 int8 kernel (`quant.rs`).
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    simd_available() && std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_available() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

/// A borrowed row-major operand, optionally read transposed. `ld` is the
/// stored row stride; a transposed view of a stored `(r, c)` matrix exposes
/// the logical `(c, r)` operand without copying.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    ld: usize,
    trans: bool,
    /// Element offset of each logical row, when the rows are not the stored
    /// ones in order (never with `trans`).
    rows: Option<&'a [usize]>,
}

impl<'a> View<'a> {
    pub(crate) fn normal(m: &'a Matrix) -> Self {
        View {
            data: m.as_slice(),
            ld: m.cols(),
            trans: false,
            rows: None,
        }
    }

    /// Logical transpose of `m`: element `(r, c)` reads `m[c][r]`.
    pub(crate) fn transposed(m: &'a Matrix) -> Self {
        View {
            trans: true,
            ..View::normal(m)
        }
    }

    /// Logical row `i` is the stored row starting at element `offsets[i]`.
    /// Every offset must be `row · m.cols()` for a `row < m.rows()`
    /// ([`crate::rowsum::resolve`] produces exactly that); the kernels
    /// re-check what they index either way.
    pub(crate) fn indexed(m: &'a Matrix, offsets: &'a [usize]) -> Self {
        View {
            rows: Some(offsets),
            ..View::normal(m)
        }
    }

    /// Element offset of logical row `i` of a non-transposed view.
    #[inline]
    fn row_at(&self, i: usize) -> usize {
        match self.rows {
            Some(offsets) => offsets[i],
            None => i * self.ld,
        }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f32 {
        if self.trans {
            self.data[c * self.ld + r]
        } else {
            self.data[self.row_at(r) + c]
        }
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread packed-A buffer for transposed left operands (`AᵀB`, the
    /// training backward pass) — the only `A` that is packed. Reused across
    /// GEMM calls (persistent pool workers keep theirs alive for the process
    /// lifetime).
    static PACK_A_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-B buffer for calls without a [`PackedB`] cache.
    static PACK_B_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Pack rows `i0..i0+mc` / depth `p0..p0+kc` of the transposed operand `a`
/// into `MR`-lane strips, k-major within each strip (`buf[strip][p][lane]`).
/// Logical `A[r][p] = data[p·ld + r]`: for fixed `p` a strip's rows are
/// contiguous in the source, so packing the transpose is a straight slab
/// copy — no transposed intermediate needed. Lanes past the operand edge are
/// zero-filled. (A row-major `A` is never packed: the microkernel reads it in
/// place.)
fn pack_a(a: View, i0: usize, mc: usize, p0: usize, kc: usize, buf: &mut Vec<f32>) {
    debug_assert!(a.trans);
    let strips = mc.div_ceil(MR);
    buf.clear();
    buf.resize(strips * kc * MR, 0.0);
    for s in 0..strips {
        let rows = MR.min(mc - s * MR);
        let base = s * kc * MR;
        for p in 0..kc {
            let src_at = (p0 + p) * a.ld + i0 + s * MR;
            let src = &a.data[src_at..src_at + rows];
            buf[base + p * MR..base + p * MR + rows].copy_from_slice(src);
        }
    }
}

/// Pack all of `b` (`k × n` logical) into `NR`-column panels grouped by
/// `KC`-deep slab: slab `ks` starts at `ks · n_panels · NR`, panel `t` within
/// it is `kl · NR` floats laid out k-major. Columns past `n` are zero-filled.
fn pack_b_into(b: View, k: usize, n: usize, buf: &mut Vec<f32>) {
    let n_panels = n.div_ceil(NR);
    buf.clear();
    buf.resize(k * n_panels * NR, 0.0);
    let mut ks = 0;
    while ks < k {
        let kl = KC.min(k - ks);
        let block_base = ks * n_panels * NR;
        for t in 0..n_panels {
            let cols = NR.min(n - t * NR);
            let pbase = block_base + t * kl * NR;
            if b.trans {
                // Logical B[p][j] = data[j·ld + p]: each packed column is a
                // contiguous run of the stored row j.
                for j in 0..cols {
                    let src_at = (t * NR + j) * b.ld + ks;
                    let src = &b.data[src_at..src_at + kl];
                    for (p, &v) in src.iter().enumerate() {
                        buf[pbase + p * NR + j] = v;
                    }
                }
            } else {
                for p in 0..kl {
                    let src_at = (ks + p) * b.ld + t * NR;
                    let src = &b.data[src_at..src_at + cols];
                    buf[pbase + p * NR..pbase + p * NR + cols].copy_from_slice(src);
                }
            }
        }
        ks += kl;
    }
}

/// Borrowed packed-B panels (either a thread-local pack of this call's `B`
/// or a cached [`PackedB`]).
#[derive(Clone, Copy)]
struct PackedPanels<'a> {
    k: usize,
    n: usize,
    data: &'a [f32],
}

impl PackedPanels<'_> {
    /// Panels `t..t + w` of the slab starting at depth `ks` (slab depth
    /// `kl`): adjacent in the pack, so one slice of `w · kl · NR` floats.
    #[inline]
    fn panels(&self, ks: usize, kl: usize, t: usize, w: usize) -> &[f32] {
        let n_panels = self.n.div_ceil(NR);
        let at = ks * n_panels * NR + t * kl * NR;
        &self.data[at..at + w * kl * NR]
    }
}

/// A right-hand GEMM operand packed once into cache-friendly panels, for
/// reuse across many products against the same matrix (the weight-pack
/// cache: model weights are constant across batches, so engines pack each
/// branch weight at construction and skip the pack step on every batch).
///
/// A `PackedB` borrows nothing — invalidation is structural: it is built
/// from a `&Matrix` snapshot, and engines that cache one hold the model
/// borrow for their lifetime, so the source weights cannot change while the
/// pack is alive.
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Pack `b` for repeated use as the right-hand operand.
    ///
    /// Shapes: `b` is `(k, n)`; `a.matmul_packed(&pack)` requires
    /// `a.cols() == k` and yields `(a.rows(), n)`.
    pub fn pack(b: &Matrix) -> PackedB {
        let mut data = Vec::new();
        pack_b_into(View::normal(b), b.rows(), b.cols(), &mut data);
        PackedB {
            k: b.rows(),
            n: b.cols(),
            data,
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

    /// Bytes held by the packed panels (capacity-independent).
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    fn panels(&self) -> PackedPanels<'_> {
        PackedPanels {
            k: self.k,
            n: self.n,
            data: &self.data,
        }
    }
}

// ---------------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------------

/// What one microkernel call multiplies: row `i` of the tile reads
/// `a[rows[i] + p·step]` for `p` over the depth of the B panel `b` (`kc·NR`
/// floats; the AVX-512 twin also takes two adjacent panels, `2·kc·NR`).
/// `rows` are element offsets into `a` — the source rows themselves at the
/// slab's depth (`step` 1), or the lanes of a packed transposed strip
/// (`step` `MR`).
#[derive(Clone, Copy)]
struct TileIn<'a> {
    a: &'a [f32],
    rows: [usize; MR],
    step: usize,
    b: &'a [f32],
}

/// One `MR×NR` tile over one `KC` slab: `c[i][j] (+)= Σ_p a_i[p] · b[p][j]`,
/// each element a sequential fma chain over `p` from `0.0`. Tile row `i`
/// lands at `c[i·ldc ..][..NR]`: stored when `first` (the first slab), added
/// to what is there otherwise.
fn microkernel_scalar(t: TileIn, c: &mut [f32], ldc: usize, first: bool) {
    let mut acc = [0.0f32; MR * NR];
    for (p, bv) in t.b.chunks_exact(NR).enumerate() {
        for (i, &r) in t.rows.iter().enumerate() {
            let ai = t.a[r + p * t.step];
            let row = &mut acc[i * NR..i * NR + NR];
            for (o, &bj) in row.iter_mut().zip(bv) {
                *o = ai.mul_add(bj, *o);
            }
        }
    }
    writeback(&acc, NR, c, 0, (MR, NR), ldc, first);
}

/// AVX2/FMA twin of [`microkernel_scalar`]: twelve `f32x8` accumulators (two
/// per tile row), two `B` loads and six broadcasts per depth step, and the
/// tile stored (or loaded, added and stored) without leaving the registers.
/// `_mm256_fmadd_ps` rounds once like `f32::mul_add`, the per-element order
/// over `p` is the scalar twin's, and `vaddps` is its `+=`, so the two
/// kernels agree bitwise.
///
/// # Safety
/// Caller must ensure avx2 and fma are available (checked at dispatch via
/// `is_x86_feature_detected!`). Every range the kernel touches is asserted
/// against the slices' lengths before the first access.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe fn` per target_feature; all memory access below is through
// slice-derived pointers kept in bounds by the asserted lengths.
unsafe fn microkernel_avx2(t: TileIn, c: &mut [f32], ldc: usize, first: bool) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    const H: usize = NR / 2;
    let kc = t.b.len() / NR;
    assert!(kc > 0 && c.len() >= (MR - 1) * ldc + NR);
    assert!(t.rows.iter().all(|&r| r + (kc - 1) * t.step < t.a.len()));
    // SAFETY: `b` is read 8 floats at a time at `p·NR` and `p·NR + 8` for
    // `p < kc = b.len() / NR`; `a` one float at `rows[i] + p·step`, at most
    // `rows[i] + (kc − 1)·step`; `c` 8 floats at `i·ldc` and `i·ldc + 8`, at
    // most `(MR − 1)·ldc + NR` — the last two bounds asserted just above.
    unsafe {
        let ap = t.rows.map(|r| t.a.as_ptr().add(r));
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for p in 0..kc {
            let bp = t.b.as_ptr().add(p * NR);
            let (b0, b1) = (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(H)));
            for (row, ai) in acc.iter_mut().zip(ap) {
                let av = _mm256_set1_ps(*ai.add(p * t.step));
                row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                row[1] = _mm256_fmadd_ps(av, b1, row[1]);
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (h, &v) in row.iter().enumerate() {
                let cp = c.as_mut_ptr().add(i * ldc + h * H);
                let sum = if first {
                    v
                } else {
                    _mm256_add_ps(_mm256_loadu_ps(cp), v)
                };
                _mm256_storeu_ps(cp, sum);
            }
        }
    }
}

/// AVX-512F twin of [`microkernel_scalar`] over `W` adjacent B panels (`W`
/// = 1 or 2): an `MR × W·NR` tile in `MR·W` `f32x16` accumulators, `W` `B`
/// loads and six broadcasts per depth step, stored (or loaded, added and
/// stored) from the registers. `W = 1` is the scalar twin's tile; `W = 2`
/// is two of them side by side, which gives twelve independent fma chains
/// where one panel's six cannot cover FMA latency × two ports.
/// `_mm512_fmadd_ps` rounds once like `f32::mul_add`, the per-element order
/// over `p` is the scalar twin's, and `vaddps` is its `+=`, so the three
/// kernels agree bitwise.
///
/// # Safety
/// Caller must ensure avx512f is available (checked at dispatch via
/// `is_x86_feature_detected!`). Every range the kernel touches is asserted
/// against the slices' lengths before the first access.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: `unsafe fn` per target_feature; all memory access below is through
// slice-derived pointers kept in bounds by the asserted lengths.
unsafe fn microkernel_avx512<const W: usize>(t: TileIn, c: &mut [f32], ldc: usize, first: bool) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    const { assert!(NR == 16, "one zmm register holds a panel's row") };
    let kc = t.b.len() / (W * NR);
    assert!(kc > 0 && c.len() >= (MR - 1) * ldc + W * NR);
    assert!(t.rows.iter().all(|&r| r + (kc - 1) * t.step < t.a.len()));
    // SAFETY: panel `h < W` of `b` starts at `h·kc·NR` and is read 16 floats
    // at a time at `p·NR` for `p < kc = b.len() / (W·NR)`; `a` one float at
    // `rows[i] + p·step`, at most `rows[i] + (kc − 1)·step`; `c` 16 floats at
    // `i·ldc + h·NR`, at most `(MR − 1)·ldc + W·NR` — the last two bounds
    // asserted just above.
    unsafe {
        let ap = t.rows.map(|r| t.a.as_ptr().add(r));
        let mut acc = [[_mm512_setzero_ps(); W]; MR];
        let mut b = [_mm512_setzero_ps(); W];
        for p in 0..kc {
            for (h, bh) in b.iter_mut().enumerate() {
                *bh = _mm512_loadu_ps(t.b.as_ptr().add((h * kc + p) * NR));
            }
            for (row, ai) in acc.iter_mut().zip(ap) {
                let av = _mm512_set1_ps(*ai.add(p * t.step));
                for (o, &bh) in row.iter_mut().zip(&b) {
                    *o = _mm512_fmadd_ps(av, bh, *o);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (h, &v) in row.iter().enumerate() {
                let cp = c.as_mut_ptr().add(i * ldc + h * NR);
                let sum = if first {
                    v
                } else {
                    _mm512_add_ps(_mm512_loadu_ps(cp), v)
                };
                _mm512_storeu_ps(cp, sum);
            }
        }
    }
}

/// Run the `path` twin of the microkernel over `w` adjacent panels (`w` = 2
/// only on the AVX-512 twin). `path` is what [`gemm_path`] resolved to, so a
/// SIMD path names a feature set the CPU has.
#[inline]
fn run_microkernel(path: GemmPath, w: usize, t: TileIn, c: &mut [f32], ldc: usize, first: bool) {
    debug_assert!(w == 1 || (w == 2 && path == GemmPath::BlockedAvx512));
    #[cfg(target_arch = "x86_64")]
    match path {
        GemmPath::BlockedAvx512 => {
            // SAFETY: `gemm_path()` resolves to `BlockedAvx512` only after
            // `is_x86_feature_detected!` confirmed avx512f on this CPU; slice
            // lengths are asserted inside.
            unsafe {
                match w {
                    2 => microkernel_avx512::<2>(t, c, ldc, first),
                    _ => microkernel_avx512::<1>(t, c, ldc, first),
                }
            };
            return;
        }
        // SAFETY: `gemm_path()` resolves to `BlockedSimd` only after
        // `is_x86_feature_detected!` confirmed avx2+fma on this CPU; slice
        // lengths are asserted inside.
        GemmPath::BlockedSimd => return unsafe { microkernel_avx2(t, c, ldc, first) },
        GemmPath::BlockedScalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = path;
    microkernel_scalar(t, c, ldc, first);
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

/// Write the top-left `dims` of a tile (rows `tile_ld` apart) into `out` at
/// element `at`, rows `ldc` apart. The first `KC` slab stores (no pre-zeroed
/// `C` needed); later slabs accumulate.
fn writeback(
    tile: &[f32],
    tile_ld: usize,
    out: &mut [f32],
    at: usize,
    dims: (usize, usize),
    ldc: usize,
    first: bool,
) {
    let (tile_rows, tile_cols) = dims;
    for i in 0..tile_rows {
        let orow = &mut out[at + i * ldc..at + i * ldc + tile_cols];
        let trow = &tile[i * tile_ld..i * tile_ld + tile_cols];
        if first {
            orow.copy_from_slice(trow);
        } else {
            for (o, &v) in orow.iter_mut().zip(trow) {
                *o += v;
            }
        }
    }
}

/// Blocked GEMM over one contiguous chunk of output rows (`start..` of the
/// logical product; `out` holds them `ldc` apart and the product fills
/// columns `col0..col0 + n` of each). Loop order: `KC` slab → `MC` row block
/// → B panel → `MR` strip, so a panel is swept over the block's strips while
/// it sits in L1 and the block's `A` rows are re-read from L2 per panel. The
/// AVX-512 twin takes two adjacent full panels per sweep where the product
/// has them (an `MR × 2·NR` tile, 32 KiB of B in L1), and one otherwise.
/// Full tiles go from registers straight into `out`; ragged edge tiles
/// (`rows < MR`, repeating the last row, or `cols < NR`, the panel's zero
/// padding) go through a stack tile.
fn gemm_blocked_rows(
    a: View,
    pb: PackedPanels,
    start: usize,
    out: &mut [f32],
    ldc: usize,
    col0: usize,
    path: GemmPath,
) {
    let (k, n) = (pb.k, pb.n);
    let rows = out.len() / ldc;
    PACK_A_BUF.with(|cell| {
        let mut abuf = cell.borrow_mut();
        let mut ks = 0;
        while ks < k {
            let kl = KC.min(k - ks);
            let first = ks == 0;
            let mut ic = 0;
            while ic < rows {
                let ml = MC.min(rows - ic);
                // Where tile row `i` of strip `s` starts in `adata`: a lane
                // of the packed transposed strip, or the source row itself.
                let (adata, step) = if a.trans {
                    pack_a(a, start + ic, ml, ks, kl, &mut abuf);
                    (abuf.as_slice(), MR)
                } else {
                    (a.data, 1)
                };
                let row_at = |s: usize, i: usize| match a.trans {
                    true => s * kl * MR + i,
                    false => a.row_at(start + ic + s * MR + i) + ks,
                };
                let mut t = 0;
                while t < n.div_ceil(NR) {
                    let pair = path == GemmPath::BlockedAvx512 && n >= (t + 2) * NR;
                    let w = if pair { 2 } else { 1 };
                    let cols = (w * NR).min(n - t * NR);
                    for s in 0..ml.div_ceil(MR) {
                        let tile_rows = MR.min(ml - s * MR);
                        let tile = TileIn {
                            a: adata,
                            rows: std::array::from_fn(|i| row_at(s, i.min(tile_rows - 1))),
                            step,
                            b: pb.panels(ks, kl, t, w),
                        };
                        let at = (ic + s * MR) * ldc + col0 + t * NR;
                        if tile_rows == MR && cols == w * NR {
                            run_microkernel(path, w, tile, &mut out[at..], ldc, first);
                        } else {
                            let mut edge = [0.0f32; MR * 2 * NR];
                            let edge = &mut edge[..MR * w * NR];
                            run_microkernel(path, w, tile, edge, w * NR, true);
                            writeback(edge, w * NR, out, at, (tile_rows, cols), ldc, first);
                        }
                    }
                    t += w;
                }
                ic += ml;
            }
            ks += kl;
        }
    });
}

/// Parallel blocked GEMM against pre-packed panels into columns
/// `col0..col0 + n` of the `m × ldc` buffer `out`. Chunk boundaries align to
/// `MR` so strips never straddle threads; per-row arithmetic is
/// chunk-independent, keeping results bitwise identical across thread counts.
fn gemm_blocked(
    a: View,
    pb: PackedPanels,
    m: usize,
    out: &mut [f32],
    ldc: usize,
    col0: usize,
    path: GemmPath,
) {
    parallel_row_chunks_aligned(out, m, ldc, MR, |start, chunk| {
        gemm_blocked_rows(a, pb, start, chunk, ldc, col0, path);
    });
}

/// Fused i-k-j loop for shapes too small to amortize packing. Per-element
/// fma chain over `k` — identical to the blocked kernels whenever `k ≤ KC`.
fn gemm_small(a: View, b: View, m: usize, k: usize, n: usize, out: &mut [f32]) {
    out.fill(0.0);
    parallel_row_chunks(out, m, n, |start, chunk| {
        for (r, out_row) in chunk.chunks_mut(n).enumerate() {
            let i = start + r;
            if b.trans {
                for (j, o) in out_row.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc = a.at(i, kk).mul_add(b.at(kk, j), acc);
                    }
                    *o = acc;
                }
            } else {
                for kk in 0..k {
                    let aik = a.at(i, kk);
                    let b_row = &b.data[kk * b.ld..kk * b.ld + n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o = aik.mul_add(bv, *o);
                    }
                }
            }
        }
    });
}

/// Dispatch one GEMM (`out = A·B`, operands possibly viewed transposed) to
/// the active path. `out` is fully overwritten.
pub(crate) fn gemm_into(a: View, b: View, m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    if forced_path().is_none() && m * k * n < BLOCKED_MIN_FLOPS {
        return gemm_small(a, b, m, k, n, out);
    }
    let path = gemm_path();
    PACK_B_BUF.with(|cell| {
        let mut bbuf = cell.borrow_mut();
        pack_b_into(b, k, n, &mut bbuf);
        let pb = PackedPanels { k, n, data: &bbuf };
        gemm_blocked(a, pb, m, out, n, 0, path);
    });
}

/// Dispatch one GEMM against a cached [`PackedB`], skipping the per-call B
/// pack entirely: columns `col0..col0 + pack.n` of the `m × ldc` buffer
/// `out` become `A·pack`, the others are left as they are.
pub(crate) fn gemm_packed_into(
    a: View,
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    ldc: usize,
    col0: usize,
) {
    let n = pb.n;
    assert!(
        out.len() == m * ldc && col0 + n <= ldc,
        "gemm: output window out of bounds"
    );
    if m == 0 || n == 0 {
        return;
    }
    let window = |i: usize| i * ldc + col0..i * ldc + col0 + n;
    if pb.k == 0 {
        return (0..m).for_each(|i| out[window(i)].fill(0.0));
    }
    gemm_blocked(a, pb.panels(), m, out, ldc, col0, gemm_path());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: usize, cols: usize, mul: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * mul).sin()).collect(),
        )
    }

    /// Reconstruct the row-major source matrix from a pack's panels.
    fn unpack(pb: &PackedB) -> Matrix {
        let mut out = Matrix::zeros(pb.k, pb.n);
        let panels = pb.panels();
        let mut ks = 0;
        while ks < pb.k {
            let kl = KC.min(pb.k - ks);
            for t in 0..pb.n.div_ceil(NR) {
                let cols = NR.min(pb.n - t * NR);
                let panel = panels.panels(ks, kl, t, 1);
                for p in 0..kl {
                    let row = out.row_mut(ks + p);
                    row[t * NR..t * NR + cols].copy_from_slice(&panel[p * NR..p * NR + cols]);
                }
            }
            ks += kl;
        }
        out
    }

    #[test]
    fn packed_roundtrip_restores_source() {
        for (k, n) in [(1, 1), (7, 5), (KC, NR), (KC + 3, 2 * NR + 1), (300, 19)] {
            let b = seq(k, n, 0.37);
            let packed = PackedB::pack(&b);
            assert_eq!(packed.k(), k);
            assert_eq!(packed.n(), n);
            assert_eq!(unpack(&packed).as_slice(), b.as_slice(), "k={k} n={n}");
        }
    }

    #[test]
    fn pack_a_folds_transpose() {
        // Packing a transposed view must lay out the materialized
        // transpose: `buf[strip][p][lane] = mt[strip·MR + lane][p]`, lanes
        // past the edge zero.
        let m = seq(11, 9, 0.23);
        let mt = m.transpose();
        let mut via_view = Vec::new();
        pack_a(
            View::transposed(&m),
            0,
            mt.rows(),
            0,
            mt.cols(),
            &mut via_view,
        );
        let (rows, kc) = mt.shape();
        assert_eq!(via_view.len(), rows.div_ceil(MR) * kc * MR);
        for (at, &v) in via_view.iter().enumerate() {
            let (s, p, lane) = (at / (kc * MR), at / MR % kc, at % MR);
            let r = s * MR + lane;
            let want = if r < rows { mt.get(r, p) } else { 0.0 };
            assert_eq!(v, want, "strip {s} depth {p} lane {lane}");
        }
        let (mut bv, mut bc) = (Vec::new(), Vec::new());
        pack_b_into(View::transposed(&m), mt.rows(), mt.cols(), &mut bv);
        pack_b_into(View::normal(&mt), mt.rows(), mt.cols(), &mut bc);
        assert_eq!(bv, bc);
    }

    #[test]
    fn path_override_roundtrip() {
        // `PATH_OVERRIDE` is process-global and this binary's other tests run
        // on sibling threads while it is flipped. That is harmless: the three
        // paths are bitwise twins and `gemm_packed_into` has no small-shape
        // shortcut, so two packed products that straddle a flip (what
        // `ops.rs::packed_matmul_matches_plain` compares bitwise) read the
        // same bits; `gemm_into`'s shortcut keeps the same fma chain for
        // `k ≤ KC`. The guard puts auto-dispatch back even if an assert below
        // fails.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_gemm_path(None);
            }
        }
        let _restore = Restore;
        // What each forced path falls back to, down the dispatch order.
        let simd = if simd_available() {
            GemmPath::BlockedSimd
        } else {
            GemmPath::BlockedScalar
        };
        let best = if avx512_available() {
            GemmPath::BlockedAvx512
        } else {
            simd
        };
        assert_eq!(gemm_path(), best, "auto picks the widest twin");
        set_gemm_path(Some(GemmPath::BlockedScalar));
        assert_eq!(gemm_path(), GemmPath::BlockedScalar);
        set_gemm_path(Some(GemmPath::BlockedSimd));
        assert_eq!(gemm_path(), simd, "forced SIMD degrades without avx2+fma");
        set_gemm_path(Some(GemmPath::BlockedAvx512));
        assert_eq!(
            gemm_path(),
            best,
            "forced AVX-512 degrades to the best twin"
        );
        set_gemm_path(None);
        assert_eq!(gemm_path(), best);
    }
}
