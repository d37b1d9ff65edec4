//! Equivalence suite for the blocked GEMM rewrite.
//!
//! Pins three properties across adversarial shapes and all three operand
//! orientations (`A·B`, `Aᵀ·B`, `A·Bᵀ`):
//!
//! 1. every blocked path (scalar and SIMD microkernels, packed-B fast path)
//!    matches an independent f64 triple-loop reference to fma-rounding
//!    tolerance;
//! 2. the scalar and SIMD microkernels are **bitwise** identical (both run
//!    the same sequential per-element fma chain over `k`);
//! 3. for `k ≤ KC` the auto dispatcher (which may take the small-shape fused
//!    loop) is bitwise identical to the forced blocked kernels, so engines
//!    that `assert_eq!` against plain forwards stay exact.
//!
//! Shapes are drawn from the tile-boundary set {0, 1, MR−1, MR, MR+1, MC±1,
//! non-multiples} plus `KC`-straddling depths, the spots where panel edge
//! handling goes wrong.
//!
//! Two more properties ride on the same shapes:
//!
//! 4. golden output hashes pin the blocked kernels **to the commit that
//!    introduced them**, not only to each other — a re-tile or a `KC` change
//!    that perturbs one bit fails here instead of drifting;
//! 5. the row-indexed, column-windowed product
//!    ([`Matrix::matmul_packed_rows_into`]) is bitwise the gather, the
//!    product and the copy it replaces, touches nothing outside its window,
//!    and validates every id before it writes;
//! 6. each output row is its own: a row of the row-indexed product is
//!    bitwise the same row of the whole-matrix product, whichever rows share
//!    its call and at any thread count — what lets the batched engine's
//!    per-engine projection table stand in for a per-batch product.

use gcnp_tensor::gemm::{KC, MC, MR, NR};
use gcnp_tensor::init::seeded_rng;
use gcnp_tensor::{set_gemm_path, set_num_threads, GemmPath, Matrix, PackedB};
use proptest::prelude::*;
use std::sync::Mutex;

/// The GEMM path override is process-global; every test that sets it holds
/// this lock so parallel test threads cannot observe each other's forcing.
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

/// Independent reference: f64 triple loop over logical `A (m×k) · B (k×n)`.
fn reference(a: &Matrix, b: &Matrix) -> Vec<f64> {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a.get(i, p) as f64;
            for j in 0..n {
                c[i * n + j] += av * b.get(p, j) as f64;
            }
        }
    }
    c
}

fn assert_close(got: &Matrix, want: &[f64], k: usize, what: &str) {
    assert_eq!(got.as_slice().len(), want.len(), "{what}: length");
    let tol = 1e-5f64 * (k as f64 + 1.0);
    for (i, (&g, &w)) in got.as_slice().iter().zip(want).enumerate() {
        let err = (g as f64 - w).abs();
        assert!(
            err <= tol * w.abs().max(1.0),
            "{what}: flat index {i}: got {g}, reference {w} (err {err:.3e}, tol {tol:.3e})"
        );
    }
}

/// Random operands with a sprinkling of exact zeros (post-ReLU activations
/// are full of them; a zero term must contribute nothing on every path).
fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = seeded_rng(seed);
    let mut a = Matrix::rand_uniform(m, k, -1.0, 1.0, &mut rng);
    let b = Matrix::rand_uniform(k, n, -1.0, 1.0, &mut rng);
    for v in a.as_mut_slice() {
        if v.abs() < 0.25 {
            *v = 0.0;
        }
    }
    (a, b)
}

/// Run one shape through every path and orientation. Caller holds the lock.
fn check_shape(m: usize, k: usize, n: usize, seed: u64) {
    let (a, b) = operands(m, k, n, seed);
    let at = a.transpose(); // (k, m): at.matmul_at_b(&b) == a · b
    let bt = b.transpose(); // (n, k): a.matmul_a_bt(&bt) == a · b
    let want = reference(&a, &b);
    let tag = format!("{m}x{k}x{n}");

    let run = |path: GemmPath| {
        set_gemm_path(Some(path));
        let ab = a.matmul(&b);
        let atb = at.matmul_at_b(&b);
        let abt = a.matmul_a_bt(&bt);
        let packed = a.matmul_packed(&PackedB::pack(&b));
        (ab, atb, abt, packed)
    };

    let (s_ab, s_atb, s_abt, s_packed) = run(GemmPath::BlockedScalar);
    assert_close(&s_ab, &want, k, &format!("{tag} scalar A·B"));
    assert_close(&s_atb, &want, k, &format!("{tag} scalar Aᵀ·B"));
    assert_close(&s_abt, &want, k, &format!("{tag} scalar A·Bᵀ"));
    assert_eq!(
        s_packed, s_ab,
        "{tag}: packed-B fast path must be bitwise identical to per-call pack"
    );

    // Scalar vs SIMD: identical fma chain ⇒ bitwise equal. On CPUs without
    // avx2+fma the forced SIMD path degrades to scalar and this is trivially
    // true — the suite still pins the dispatch plumbing.
    let (v_ab, v_atb, v_abt, v_packed) = run(GemmPath::BlockedSimd);
    assert_eq!(v_ab, s_ab, "{tag}: SIMD A·B must be bitwise scalar");
    assert_eq!(v_atb, s_atb, "{tag}: SIMD Aᵀ·B must be bitwise scalar");
    assert_eq!(v_abt, s_abt, "{tag}: SIMD A·Bᵀ must be bitwise scalar");
    assert_eq!(
        v_packed, s_packed,
        "{tag}: SIMD packed must be bitwise scalar"
    );

    // Auto dispatch (small-shape fused loop allowed) is bitwise identical to
    // the blocked kernels whenever the depth fits one KC slab.
    if k <= KC {
        set_gemm_path(None);
        assert_eq!(
            a.matmul(&b),
            s_ab,
            "{tag}: auto dispatch must match forced blocked bitwise for k ≤ KC"
        );
    }
}

/// Tile-boundary dimension values.
const DIMS: &[usize] = &[0, 1, MR - 1, MR, MR + 1, 2 * NR + 3, MC - 1, MC, MC + 1];

#[test]
fn boundary_grid_all_orientations() {
    let _forced = ForcedPath::lock();
    // Small exhaustive grid over the nastiest edges (0/1/tile±1).
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
    // Depths straddling the KC slab edge exercise the multi-slab
    // accumulate path (first slab stores, later slabs accumulate).
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

/// FNV-1a over the output's bit patterns.
fn hash(out: &Matrix) -> u64 {
    out.as_slice().iter().fold(0xcbf29ce484222325, |h, v| {
        (h ^ v.to_bits() as u64).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn golden_hashes_pin_the_blocked_kernels() {
    // Values of the 8 × 8 packed-A kernel this one replaced; the contract
    // (per element, an fma chain over `p` inside a `KC` slab, slabs added in
    // ascending order) makes them independent of tile shape, A layout,
    // microkernel twin and thread count.
    let mut golden = vec![
        (513, 256, 41, 0xc348557dc7484ace),
        (700, 256, 128, 0x33687dd21d3586cc),
        (4096, 150, 32, 0xd58a6ec79a076030),
        (7, 300, 19, 0xcd4bb28d1651197d),
    ];
    if !cfg!(debug_assertions) {
        // The unpruned serving shape: minutes on the unoptimised scalar twin.
        golden.push((4781, 602, 128, 0x1881b31937d988d4u64));
    }
    let _forced = ForcedPath::lock();
    for (m, k, n, want) in golden {
        let a = Matrix::rand_uniform(m, k, -1.0, 1.0, &mut seeded_rng(1));
        let b = Matrix::rand_uniform(k, n, -1.0, 1.0, &mut seeded_rng(2));
        let pack = PackedB::pack(&b);
        for path in [GemmPath::BlockedScalar, GemmPath::BlockedSimd] {
            set_gemm_path(Some(path));
            for threads in [1, 4] {
                set_num_threads(threads);
                let got = hash(&a.matmul_packed(&pack));
                set_num_threads(0);
                assert_eq!(
                    got, want,
                    "{m}x{k}x{n} {path:?} threads={threads}: {got:016x} != {want:016x}"
                );
            }
        }
    }
}

/// The row-indexed, column-windowed product against its materialised
/// reference, under both microkernels. `ids` index `src`. Caller holds the
/// lock.
fn check_rows_window(src: &Matrix, ids: &[usize], b: &Matrix, col0: usize, pad: usize) {
    let pack = PackedB::pack(b);
    let (m, n) = (ids.len(), b.cols());
    // A NaN with a payload no product produces: any write outside the
    // window, or a window element left unwritten, shows up bit for bit.
    let fill = f32::from_bits(0x7fc0_beef);
    for path in [GemmPath::BlockedScalar, GemmPath::BlockedSimd] {
        set_gemm_path(Some(path));
        let want = src.select_rows(ids).matmul_packed(&pack);
        let mut out = Matrix::filled(m, col0 + n + pad, fill);
        src.matmul_packed_rows_into(Some(ids), &pack, &mut out, col0);
        for i in 0..m {
            for (c, v) in out.row(i).iter().enumerate() {
                let want = match c.checked_sub(col0) {
                    Some(j) if j < n => want.get(i, j),
                    _ => fill,
                };
                assert_eq!(v.to_bits(), want.to_bits(), "{path:?} row {i} col {c}");
            }
        }
    }
}

#[test]
fn rows_window_accumulates_only_its_window_across_kc_slabs() {
    let _forced = ForcedPath::lock();
    // Later slabs load-add-store into `out`: with `ldc ≠ n` they must add
    // into the window's columns and nothing else.
    for k in [KC - 1, KC + 1, 2 * KC + 5] {
        let src = Matrix::rand_uniform(MR + 3, k, -1.0, 1.0, &mut seeded_rng(k as u64));
        let b = Matrix::rand_uniform(k, 2 * NR + 3, -1.0, 1.0, &mut seeded_rng(9));
        let ids: Vec<usize> = (0..2 * MR + 1).map(|i| (i * 5) % src.rows()).collect();
        check_rows_window(&src, &ids, &b, 3, 2);
        check_rows_window(&src, &ids, &b, 0, 0);
    }
}

#[test]
fn rows_window_rejects_bad_ids_before_writing() {
    let _forced = ForcedPath::lock();
    let src = Matrix::rand_uniform(4, 5, -1.0, 1.0, &mut seeded_rng(5));
    let pack = PackedB::pack(&Matrix::rand_uniform(5, 3, -1.0, 1.0, &mut seeded_rng(6)));
    let ids: &[usize] = &[0, 4]; // row 4 lies outside src
    let mut out = Matrix::filled(ids.len(), 3, 7.0);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        src.matmul_packed_rows_into(Some(ids), &pack, &mut out, 0)
    }));
    assert!(caught.is_err(), "{ids:?} must be rejected");
    assert!(
        out.as_slice().iter().all(|&v| v == 7.0),
        "{ids:?}: rejected after a write"
    );
}

#[test]
fn indexed_rows_equal_the_rows_of_the_whole_product() {
    let _forced = ForcedPath::lock();
    // A ragged row count past one `MC` block; depths inside one `KC` slab
    // and across three; widths of one partial `NR` panel, a ragged two and
    // four whole ones.
    let m = MC + MR + 1;
    let lists: [Vec<usize>; 4] = [
        vec![m - 1],
        vec![7, 2, MC + 3, 0, 64],
        (0..2 * MR + 1)
            .map(|i| (i * 37) % m)
            .chain([5, 5])
            .collect(),
        (0..m).rev().collect(),
    ];
    for k in [6, 150, 602] {
        for n in [3, 29, 64] {
            let src = Matrix::rand_uniform(m, k, -1.0, 1.0, &mut seeded_rng((k * n) as u64));
            let pack = PackedB::pack(&Matrix::rand_uniform(k, n, -1.0, 1.0, &mut seeded_rng(3)));
            for path in [GemmPath::BlockedScalar, GemmPath::BlockedSimd] {
                set_gemm_path(Some(path));
                for threads in [1, 4] {
                    set_num_threads(threads);
                    let whole = src.matmul_packed(&pack);
                    for ids in &lists {
                        let mut out = Matrix::zeros(ids.len(), n);
                        src.matmul_packed_rows_into(Some(ids), &pack, &mut out, 0);
                        for (i, &v) in ids.iter().enumerate() {
                            let bits =
                                |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(out.row(i)),
                                bits(whole.row(v)),
                                "{k}x{n} {path:?} threads={threads}: row {v} of {} ids",
                                ids.len()
                            );
                        }
                    }
                    set_num_threads(0);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rows_window_equals_gather_product_and_copy(
        mi in 0usize..9,
        ki in 1usize..9,
        ni in 0usize..9,
        col0 in 0usize..20,
        pad in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let _forced = ForcedPath::lock();
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let mut rng = seeded_rng(seed);
        let src = Matrix::rand_uniform(MC / 2 + 1, k, -1.0, 1.0, &mut rng);
        let b = Matrix::rand_uniform(k, n, -1.0, 1.0, &mut rng);
        // Duplicated, unordered ids.
        let span = src.rows();
        let ids: Vec<usize> = (0..m).map(|i| (i * 7 + seed as usize % 5) % span).collect();
        check_rows_window(&src, &ids, &b, col0, pad);
    }
}

#[cfg(feature = "strict-invariants")]
mod strict {
    use super::*;

    /// `guard_finite` must net the blocked kernels: a NaN operand surfaces
    /// as the named invariant panic, not as silent NaN propagation.
    #[test]
    fn blocked_gemm_output_is_netted() {
        let _forced = ForcedPath::lock();
        for path in [GemmPath::BlockedScalar, GemmPath::BlockedSimd] {
            set_gemm_path(Some(path));
            let mut a = Matrix::rand_uniform(MR + 1, 5, -1.0, 1.0, &mut seeded_rng(3));
            let b = Matrix::rand_uniform(5, NR + 2, -1.0, 1.0, &mut seeded_rng(4));
            a.set(2, 3, f32::NAN);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.matmul(&b)));
            let msg = match caught {
                Ok(_) => panic!("NaN slipped through the {path:?} blocked GEMM un-netted"),
                Err(e) => *e.downcast::<String>().expect("panic carries a message"),
            };
            assert!(
                msg.contains("tensor.matmul.finite"),
                "panic must name the invariant, got: {msg}"
            );
        }
    }
}
