//! @generated by `gcnp-audit --emit-lock-graph` — do not edit.
//!
//! Static lock-order graph extracted from the `// lock:` site registry.
//! Regenerate after adding a lock or changing acquisition order:
//!
//! ```text
//! cargo run -p gcnp-audit -- --emit-lock-graph crates/tensor/src/lockgraph.rs
//! ```

/// Registered lock names, sorted; index = node id.
#[rustfmt::skip]
pub static LOCK_NODES: &[&str] = &[
    "dispatch.state",
    "fleet.ledger",
    "latch.state",
    "link.state",
    "obs.counters",
    "obs.gauges",
    "obs.histograms",
    "pending.slot",
    "pool.jobs",
    "pool.spawned",
    "store.stripe",
];

/// Transitive closure of the acquisition-order graph as sorted
/// `(from, to)` node-index pairs: a static path from → to exists.
/// Acquiring `to` while holding `from` is therefore an inversion iff
/// `(to, from)` is present here.
#[rustfmt::skip]
pub static LOCK_ORDER_PATHS: &[(u16, u16)] = &[
    (4, 5),
    (4, 6),
    (5, 6),
];
