//! # gcnp-tensor
//!
//! Dense `f32` matrix kernels underpinning the GCNP GNN stack.
//!
//! The crate provides a single row-major [`Matrix`] type plus the handful of
//! kernels a GNN training / pruning / inference pipeline actually needs:
//!
//! * cache-blocked, register-tiled GEMM ([`gemm`]) in the three orientations
//!   required by backpropagation (`A·B`, `Aᵀ·B`, `A·Bᵀ`), with packed
//!   operands, a runtime-dispatched AVX2/FMA microkernel, and a
//!   [`PackedB`] weight-pack cache for products repeated against a constant
//!   right-hand side,
//! * a blocked int8 GEMM ([`quant`]) against a [`QuantPackedB`] weight pack
//!   with a runtime-dispatched AVX2 `pmaddwd` microkernel, overflow-safe
//!   i32→i64 accumulation, and a bitwise-identical scalar fallback,
//! * the row-sum kernel ([`rowsum`]) behind every neighbour aggregation —
//!   CSR SpMM and the batched engine's mean aggregator alike:
//!   `dst[c] = scale · Σ_j w_j · src[row_j][c]` accumulated in 64-column
//!   register tiles across the whole neighbour list, with a
//!   runtime-dispatched AVX2 twin and a bitwise-identical scalar body,
//! * the row checksum ([`checksum`]) that guards every hidden-feature store
//!   read: a modular weighted sum of the row's bit patterns with odd
//!   weights, so any change confined to one element changes it, with a
//!   runtime-dispatched AVX2 twin and a bitwise-identical scalar body,
//! * elementwise and row/column-wise operations,
//! * seeded random initializers (uniform, normal, Glorot),
//! * a persistent worker pool for row-parallel kernels.
//!
//! Everything is deterministic given a seed, which the experiment harness
//! relies on for reproducibility, and every kernel is bitwise identical
//! across thread counts and across its scalar/SIMD twins. The two float
//! kernels round differently from each other, each consistently: GEMM is a
//! per-element **fused** multiply-add chain over `k` (`f32::mul_add` /
//! `vfmadd`), aggregation a per-channel **separate** multiply then add in
//! neighbour order (`*` then `+` / `vmulps` then `vaddps`, never
//! contracted) — the sequence of the row-at-a-time loops it replaced, so
//! moving an aggregation onto the kernel changes no bit of any output.

pub mod check;
pub mod checksum;
pub mod gemm;
pub mod init;
pub mod lockcheck;
pub mod lockgraph;
pub mod matrix;
pub mod ops;
pub mod parallel;
pub mod quant;
pub mod rowsum;

pub use check::CheckError;
pub use checksum::row_checksum;
pub use gemm::{gemm_path, set_gemm_path, GemmPath, PackedB};
pub use matrix::Matrix;
pub use parallel::{
    num_threads, parallel_row_chunks, parallel_row_chunks_aligned, set_num_threads,
};
pub use quant::{activation_scale, qgemm_packed_into, qmatmul, QuantMatrix, QuantPackedB};
pub use rowsum::row_sum;
