//! # gcnp-bench
//!
//! The experiment harness. Each binary in `src/bin/` regenerates one table
//! or figure of the paper (see DESIGN.md §4 for the index); shared
//! train/prune/retrain plumbing lives in [`pipeline`], result persistence
//! and table formatting in [`harness`]. Nothing here times a kernel or the
//! serving stack: wall-clock numbers come from the `benchmark/` package.
//!
//! All binaries honor two environment variables:
//!
//! * `GCNP_SCALE` — multiplies dataset node counts (default 1.0),
//! * `GCNP_SEED` — base RNG seed (default 42).
//!
//! Trained and pruned models are cached under `results/cache/` keyed by
//! dataset, scale, seed and configuration, so experiment binaries can be
//! re-run cheaply and share reference models.

pub mod harness;
pub mod pipeline;

pub use harness::Ctx;
