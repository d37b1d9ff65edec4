//! The row checksum behind the hidden-feature store's integrity check.
//!
//! [`row_checksum`] hashes one row's `f32` bit patterns as
//!
//! ```text
//! h = fin(len · P1 + Σ_i bits(x_i) · w_i  mod 2^64),   w_i = W0 + i · STEP  (mod 2^32)
//! ```
//!
//! where every weight is an odd `u32` (`W0` odd, `STEP` even) and `fin` is a
//! bijective xorshift–multiply finalizer. It is not a cryptographic hash; it
//! exists to turn silent corruption of a stored row into a mismatch.
//!
//! **Guarantee.** A change confined to one element `i` moves the bits by
//! some `δ` with `0 < |δ| < 2^32`, so the sum moves by `δ · w_i`, and
//! `0 < |δ · w_i| < 2^64`: the sum, hence `h`, always changes. Any flip of
//! any bits of one element is caught, not just with high probability. Two
//! single-bit flips in different elements of a row shorter than `2^31` are
//! caught too (`2^a · w_i = 2^b · w_j` needs `a = b` and `w_i = w_j`, and
//! the weights of such a row are distinct). A change of length is caught
//! because `P1` is odd.
//!
//! **Determinism.** Each product `u32 × u32` fits in a `u64` and the sum is
//! modular, so any split of the row into lanes gives the same bits. The
//! scalar body and the AVX2 twin (eight lanes: `_mm256_mul_epu32` on the
//! even and on the odd `u32` lanes) therefore agree bit for bit, on every
//! width and every bit pattern, NaN and subnormal included.

/// The length multiplier; odd, so rows of different lengths start apart.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
/// Weight of element 0; odd.
const W0: u32 = 0x9E37_79B1;
/// Weight increment per element; even, so every weight stays odd.
const STEP: u32 = 0x85EB_CA6C;
const _: () = assert!(W0 & 1 == 1 && STEP & 1 == 0, "every weight must be odd");
/// Lanes of one AVX2 vector of `u32` bit patterns.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// The checksum of `row` (see the module docs for its form and guarantee).
///
/// Shapes: `row` is any length, `0` included; the length is hashed.
pub fn row_checksum(row: &[f32]) -> u64 {
    row_checksum_with(true, row)
}

/// [`row_checksum`] on a chosen twin: the AVX2 one when `simd` is set and
/// the CPU has it, else the scalar body. The equivalence tests pin each
/// twin through this.
fn row_checksum_with(simd: bool, row: &[f32]) -> u64 {
    let seed = (row.len() as u64).wrapping_mul(P1);
    #[cfg(target_arch = "x86_64")]
    if simd && crate::rowsum::simd_available() {
        // SAFETY: avx2 was detected on this CPU just above; the twin reads
        // only inside `row`.
        return fin(seed.wrapping_add(unsafe { weighted_sum_avx2(row) }));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    fin(seed.wrapping_add(weighted_sum_scalar(row, 0)))
}

/// The bijective finalizer: xorshifts and odd multipliers only, so distinct
/// sums stay distinct checksums.
fn fin(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// `Σ_j bits(row[j]) · w_(first + j) mod 2^64`: the scalar body, and the
/// AVX2 twin's tail from element `first` of the whole row on.
fn weighted_sum_scalar(row: &[f32], first: usize) -> u64 {
    let mut w = W0.wrapping_add((first as u32).wrapping_mul(STEP));
    let mut sum = 0u64;
    for x in row {
        sum = sum.wrapping_add(u64::from(x.to_bits()) * u64::from(w));
        w = w.wrapping_add(STEP);
    }
    sum
}

/// AVX2 twin: eight `u32` lanes per step, the even lanes multiplied by
/// `vpmuludq` directly and the odd lanes after a 32-bit shift, each into its
/// own four `u64` accumulators; the last `< 8` elements go to the scalar
/// body.
///
/// # Safety
/// The CPU must support avx2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` per target_feature; every load below stays inside
// `row`.
unsafe fn weighted_sum_avx2(row: &[f32]) -> u64 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_loadu_si256, _mm256_mul_epu32,
        _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setzero_si256, _mm256_srli_epi64,
        _mm256_storeu_si256,
    };
    let blocks = row.len() / LANES;
    let lane = |j: u32| W0.wrapping_add(j.wrapping_mul(STEP)) as i32;
    let mut w = _mm256_setr_epi32(
        lane(0),
        lane(1),
        lane(2),
        lane(3),
        lane(4),
        lane(5),
        lane(6),
        lane(7),
    );
    let stride = _mm256_set1_epi32(STEP.wrapping_mul(LANES as u32) as i32);
    let mut even = _mm256_setzero_si256();
    let mut odd = _mm256_setzero_si256();
    let mut lanes = [0u64; 4];
    // SAFETY: block `b < blocks` reads the 8 floats `8·b..8·b + 8`, inside
    // `row`; the store writes the 32 bytes of `lanes`.
    unsafe {
        let src = row.as_ptr().cast::<__m256i>();
        for b in 0..blocks {
            let x = _mm256_loadu_si256(src.add(b));
            even = _mm256_add_epi64(even, _mm256_mul_epu32(x, w));
            let (x_hi, w_hi) = (_mm256_srli_epi64(x, 32), _mm256_srli_epi64(w, 32));
            odd = _mm256_add_epi64(odd, _mm256_mul_epu32(x_hi, w_hi));
            w = _mm256_add_epi32(w, stride);
        }
        _mm256_storeu_si256(
            lanes.as_mut_ptr().cast::<__m256i>(),
            _mm256_add_epi64(even, odd),
        );
    }
    let head = lanes.iter().fold(0u64, |s, &l| s.wrapping_add(l));
    let done = blocks * LANES;
    head.wrapping_add(weighted_sum_scalar(&row[done..], done))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use rand::{Rng, RngExt};

    /// Random bit patterns salted with NaNs, infinities, signed zeros and
    /// subnormals.
    fn row(width: usize, seed: u64) -> Vec<f32> {
        let mut rng = seeded_rng(seed);
        let specials = [
            f32::NAN.to_bits(),
            0xFFC0_0001, // negative NaN with payload
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            (-0.0f32).to_bits(),
            0,
            1,           // smallest subnormal
            0x807F_FFFF, // largest negative subnormal
            u32::MAX,
        ];
        (0..width)
            .map(|_| {
                let bits = match rng.random_range(0..4usize) {
                    0 => specials[rng.random_range(0..specials.len())],
                    _ => rng.next_u32(),
                };
                f32::from_bits(bits)
            })
            .collect()
    }

    /// The definition, one element at a time with the weight recomputed
    /// from its index.
    fn reference(row: &[f32]) -> u64 {
        let sum = row.iter().enumerate().fold(0u64, |s, (i, x)| {
            let w = W0.wrapping_add((i as u32).wrapping_mul(STEP));
            s.wrapping_add(u64::from(x.to_bits()) * u64::from(w))
        });
        fin((row.len() as u64).wrapping_mul(P1).wrapping_add(sum))
    }

    #[test]
    fn twins_agree_bitwise_at_every_width() {
        let max = if cfg!(miri) { 19 } else { 130 };
        for width in 0..=max {
            for seed in 0..3u64 {
                let r = row(width, 1000 * width as u64 + seed);
                let want = reference(&r);
                assert_eq!(row_checksum_with(false, &r), want, "scalar, width {width}");
                assert_eq!(row_checksum_with(true, &r), want, "simd, width {width}");
                // A row that starts mid-allocation: unaligned loads.
                if width > 0 {
                    let tail = &r[1..];
                    assert_eq!(
                        row_checksum_with(true, tail),
                        row_checksum_with(false, tail),
                        "unaligned, width {}",
                        width - 1
                    );
                }
            }
        }
    }
}
