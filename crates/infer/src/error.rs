//! Typed errors for the serving path.
//!
//! The paper's deployment scenario (Table 1: live recommendation and spam
//! detection) cannot afford fail-stop semantics: a malformed request or a
//! stale store row must degrade into a *counted* failure, not a process
//! abort. This module is the error vocabulary shared by
//! [`crate::BatchedEngine::try_infer`] and the fleet executor
//! ([`crate::serving::serve_multi`] and its siblings): recoverable conditions surface as
//! [`ServingError`] values; `panic!` is reserved for programmer errors
//! (constructor misuse) and injected faults (see [`crate::faults`]).

use std::fmt;

/// Result alias used across the serving layer.
pub type ServingResult<T> = Result<T, ServingError>;

/// A recoverable serving-path failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// The request pool is empty — there is nothing to sample requests from.
    EmptyPool,
    /// A multi-worker call received zero engine replicas.
    NoEngines,
    /// A [`crate::ServingConfig`] field is out of range; the message names it.
    InvalidConfig(String),
    /// A request targets a node id outside the graph.
    TargetOutOfRange { node: usize, n_nodes: usize },
    /// A stored hidden-feature row has the wrong width for its level —
    /// the store was populated for a different model.
    StoreWidthMismatch {
        level: usize,
        expected: usize,
        got: usize,
    },
    /// A row the support builder saw in the store vanished before it was
    /// read (e.g. a concurrent [`crate::FeatureStore::remove`] by graph
    /// accretion).
    /// The batch can be retried; the rebuilt support will expand the node.
    MissingStoredRow { level: usize, node: usize },
    /// Malformed fault-injection spec (CLI `--faults`); the message explains.
    InvalidFaultSpec(String),
    /// A runtime invariant tripped: a store write addressed out-of-bounds
    /// slots, or (under `strict-invariants`) a shape contract or finiteness
    /// check failed at the engine boundary. `check` is the stable check
    /// identifier (e.g. `"engine.features.finite"`).
    InvariantViolation { check: &'static str, detail: String },
}

impl From<gcnp_tensor::CheckError> for ServingError {
    fn from(e: gcnp_tensor::CheckError) -> Self {
        ServingError::InvariantViolation {
            check: e.check,
            detail: e.detail,
        }
    }
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::EmptyPool => write!(f, "empty request pool"),
            ServingError::NoEngines => write!(f, "need at least one engine replica"),
            ServingError::InvalidConfig(msg) => write!(f, "invalid serving config: {msg}"),
            ServingError::TargetOutOfRange { node, n_nodes } => {
                write!(f, "target node {node} out of range (graph has {n_nodes} nodes)")
            }
            ServingError::StoreWidthMismatch {
                level,
                expected,
                got,
            } => write!(
                f,
                "stored feature width mismatch at level {level}: expected {expected}, got {got}"
            ),
            ServingError::MissingStoredRow { level, node } => write!(
                f,
                "stored row for node {node} at level {level} vanished mid-batch (concurrent eviction?)"
            ),
            ServingError::InvalidFaultSpec(msg) => write!(f, "invalid fault spec: {msg}"),
            ServingError::InvariantViolation { check, detail } => {
                write!(f, "invariant `{check}` violated: {detail}")
            }
        }
    }
}

impl std::error::Error for ServingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServingError::StoreWidthMismatch {
            level: 2,
            expected: 16,
            got: 8,
        };
        let msg = e.to_string();
        assert!(msg.contains("level 2") && msg.contains("16") && msg.contains('8'));
        assert!(ServingError::EmptyPool.to_string().contains("empty"));
        assert!(ServingError::TargetOutOfRange {
            node: 9,
            n_nodes: 4
        }
        .to_string()
        .contains("9"));
    }
}
