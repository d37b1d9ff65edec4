//! Machine probes: a measured roofline to read kernel rates against.
//! Neither probe calls the product.

use std::time::Instant;

/// Best-of-`tries` seconds of `f` (interference only ever slows a probe).
fn best_of(tries: usize, mut f: impl FnMut()) -> f64 {
    (0..tries)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

const FMA_ITERS: usize = 2_000_000;
/// Independent accumulator registers: enough to cover FMA latency × ports.
const FMA_CHAINS: usize = 10;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
/// # Safety
/// The caller must have checked that the CPU supports AVX2 and FMA.
unsafe fn fma_avx2(iters: usize) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(1.000_000_1);
    let b = _mm256_set1_ps(1e-9);
    let mut acc = [_mm256_set1_ps(1.0); FMA_CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for x in acc {
        sum = _mm256_add_ps(sum, x);
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}

/// Single-thread peak fused-multiply-add rate, GFLOP/s (2 flops per lane).
/// Without AVX2+FMA the probe runs a scalar chain and reports that rate.
pub fn peak_fma_gflops() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        let secs = best_of(3, || {
            // SAFETY: AVX2 and FMA support was checked on the line above.
            std::hint::black_box(unsafe { fma_avx2(std::hint::black_box(FMA_ITERS)) });
        });
        return (FMA_ITERS * FMA_CHAINS * 8 * 2) as f64 / secs / 1e9;
    }
    let secs = best_of(3, || {
        let mut acc = [1.0f32; FMA_CHAINS];
        for _ in 0..std::hint::black_box(FMA_ITERS) {
            for x in acc.iter_mut() {
                *x = *x * 1.000_000_1 + 1e-9;
            }
        }
        std::hint::black_box(acc);
    });
    (FMA_ITERS * FMA_CHAINS * 2) as f64 / secs / 1e9
}

/// STREAM-style triad `a[i] = b[i] + s·c[i]` over arrays far larger than the
/// caches; GB/s counting the three arrays once each, as STREAM does.
pub fn triad_gbps() -> f64 {
    const N: usize = 8 << 20; // 32 MiB per array
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let secs = best_of(3, || {
        let s = std::hint::black_box(3.0f32);
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        std::hint::black_box(&a);
    });
    (3 * N * 4) as f64 / secs / 1e9
}
