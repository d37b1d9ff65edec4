//! Equivalence suite for the blocked int8 GEMM.
//!
//! Pins two properties across tile-boundary shapes:
//!
//! 1. the scalar and AVX2 int8 microkernels are **bitwise** identical —
//!    both consume the same depth pairs with exact integer arithmetic, so
//!    there is no rounding slack to hide a packing or tail bug in;
//! 2. the dequantized blocked output stays within the analytic quantization
//!    error bound of an exact f64 reference product (per-column symmetric
//!    weights at 127 steps, per-row activation scales at 127 steps).

use gcnp_tensor::gemm::KC;
use gcnp_tensor::init::seeded_rng;
use gcnp_tensor::quant::{QMC as MC, QMR as MR, QNR as NR};
use gcnp_tensor::{
    qgemm_packed_into, qmatmul, set_gemm_path, GemmPath, Matrix, QuantMatrix, QuantPackedB,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// The GEMM path override is process-global (and also selects the int8
/// microkernel); every test that sets it holds this lock.
static PATH_LOCK: Mutex<()> = Mutex::new(());

/// Lock + force a path; restores auto-dispatch on drop (panic included).
struct ForcedPath<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl<'a> ForcedPath<'a> {
    fn lock() -> Self {
        let guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        Self { _guard: guard }
    }
}

impl Drop for ForcedPath<'_> {
    fn drop(&mut self) {
        set_gemm_path(None);
    }
}

fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = seeded_rng(seed);
    let mut x = Matrix::rand_uniform(m, k, -1.0, 1.0, &mut rng);
    let w = Matrix::rand_uniform(k, n, -1.0, 1.0, &mut rng);
    // Exact zeros, as post-ReLU activations have.
    for v in x.as_mut_slice() {
        if v.abs() < 0.25 {
            *v = 0.0;
        }
    }
    (x, w)
}

/// Exact f64 reference product.
fn reference(x: &Matrix, w: &Matrix) -> Vec<f64> {
    let (m, k) = x.shape();
    let n = w.cols();
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for p in 0..k {
            let xv = x.get(i, p) as f64;
            for j in 0..n {
                c[i * n + j] += xv * w.get(p, j) as f64;
            }
        }
    }
    c
}

/// Analytic per-element error bound of the symmetric int8 scheme against the
/// exact product: with a per-tensor activation scale `sx = max|x|/127` and a
/// per-column weight scale `sw = max|w₋ⱼ|/127`, each of the `k` terms carries
/// quantization error at most `|x|·sw/2 + sx/2·|w| + sx·sw/4` (plus one f32
/// rounding of the final value).
fn error_bound(x: &Matrix, w: &Matrix, i: usize, j: usize) -> f64 {
    let k = x.cols();
    let xmax_tensor = x
        .as_slice()
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs() as f64));
    let xmax_row = x.row(i).iter().fold(0.0f64, |m, &v| m.max(v.abs() as f64));
    let wmax = (0..k).fold(0.0f64, |m, p| m.max(w.get(p, j).abs() as f64));
    let sx = xmax_tensor / 127.0;
    let sw = wmax / 127.0;
    let per_term = xmax_row * sw / 2.0 + sx * wmax / 2.0 + sx * sw / 4.0;
    k as f64 * per_term + 1e-6
}

/// Run one shape through both microkernels and the reference checks.
/// Caller holds the lock.
fn check_shape(m: usize, k: usize, n: usize, seed: u64) {
    let (x, w) = operands(m, k, n, seed);
    let q = QuantMatrix::quantize(&w);
    let pb = QuantPackedB::from_quant(&q);
    let tag = format!("{m}x{k}x{n}");

    let run = |path: GemmPath| {
        set_gemm_path(Some(path));
        let mut out = Matrix::zeros(m, n);
        qgemm_packed_into(&x, &pb, &mut out);
        out
    };
    let scalar = run(GemmPath::BlockedScalar);
    let simd = run(GemmPath::BlockedSimd);
    // Integer accumulation is exact on both microkernels: any difference is
    // a packing/tail bug, so the comparison is bitwise. (Without avx2 the
    // forced SIMD path degrades to scalar and this is trivially true.)
    assert_eq!(
        scalar.as_slice(),
        simd.as_slice(),
        "{tag}: AVX2 int8 kernel must be bitwise identical to scalar"
    );
    // The naive reference kernel shares the quantization grid and dequant
    // formula, so it too is bitwise identical.
    set_gemm_path(None);
    let naive = qmatmul(&x, &q);
    assert_eq!(
        scalar.as_slice(),
        naive.as_slice(),
        "{tag}: blocked int8 GEMM must match the naive qmatmul bitwise"
    );

    // Dequantized output lands inside the analytic quantization envelope of
    // the exact product.
    let want = reference(&x, &w);
    for i in 0..m {
        for j in 0..n {
            let got = scalar.get(i, j) as f64;
            let err = (got - want[i * n + j]).abs();
            let bound = error_bound(&x, &w, i, j);
            assert!(
                err <= bound,
                "{tag}: ({i},{j}): got {got}, exact {}, err {err:.3e} > bound {bound:.3e}",
                want[i * n + j]
            );
        }
    }
}

/// Tile-boundary dimension values.
const DIMS: &[usize] = &[0, 1, MR - 1, MR, MR + 1, 2 * NR + 3, MC - 1, MC, MC + 1];

#[test]
fn boundary_grid_scalar_simd_and_reference() {
    let _forced = ForcedPath::lock();
    for &m in &DIMS[..5] {
        for &k in &DIMS[..5] {
            for &n in &DIMS[..5] {
                check_shape(m, k, n, (m * 10_000 + k * 100 + n) as u64);
            }
        }
    }
}

#[test]
fn kc_slab_boundaries() {
    let _forced = ForcedPath::lock();
    // Depths straddling the KC slab edge exercise the multi-slab i64 fold
    // (and the odd-depth zero-pad of the pair-interleaved panels).
    for k in [KC - 1, KC, KC + 1, KC + MR + 3] {
        check_shape(5, k, 9, 7_700 + k as u64);
        check_shape(MR + 1, k, NR + 1, 8_800 + k as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_adversarial_shapes(
        mi in 0usize..9,
        ki in 0usize..9,
        ni in 0usize..9,
        jitter in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let _forced = ForcedPath::lock();
        let m = DIMS[mi] + jitter;
        let k = DIMS[ki] + (jitter ^ 1);
        let n = DIMS[ni] + (jitter ^ 2);
        check_shape(m, k, n, seed);
    }
}
