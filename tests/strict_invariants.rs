//! Runtime invariant layer under `--features strict-invariants`.
//!
//! Corrupted inputs must surface as typed [`ServingError::InvariantViolation`]
//! values at the engine boundary — never as panics — so the serving loop can
//! count them and keep going. Run with:
//! `cargo test -q --features strict-invariants --test strict_invariants`
#![cfg(feature = "strict-invariants")]

use gcnp::prelude::*;

fn ring(n: usize) -> CsrMatrix {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i as u32, ((i + 1) % n) as u32));
        edges.push((((i + 1) % n) as u32, i as u32));
    }
    CsrMatrix::adjacency(n, &edges)
}

#[test]
fn nan_feature_row_yields_typed_error_not_panic() {
    let n = 12;
    let adj = ring(n);
    let mut rng = gcnp_tensor::init::seeded_rng(7);
    let model = zoo::graphsage(8, 8, 3, 7);
    let clean = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut rng);
    // (poisoned node, targets): a node inside the batch's support; and one
    // two hops from the only target, whose row the batch reads only through
    // the aggregation branch's projection table — the engine builds that
    // table from the poisoned matrix without panicking.
    for (name, node, targets) in [
        ("in the support", 3, &[2usize, 3, 4][..]),
        ("read only through the table", 0, &[2][..]),
    ] {
        let mut x = clean.clone();
        x.set(node, 2, f32::NAN);
        let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 7);
        let err = engine
            .try_infer(targets)
            .expect_err("NaN input must be rejected");
        match err {
            ServingError::InvariantViolation { check, detail } => {
                assert_eq!(check, "engine.features.finite", "{name}");
                assert!(
                    detail.contains("NaN"),
                    "{name}: detail should name NaN: {detail}"
                );
            }
            other => panic!("{name}: expected InvariantViolation, got {other:?}"),
        }
    }
}

#[test]
fn mis_shaped_feature_matrix_yields_typed_error_not_panic() {
    let n = 12;
    let adj = ring(n);
    let mut rng = gcnp_tensor::init::seeded_rng(9);
    // One row short: the graph has 12 nodes, the matrix 11 rows.
    let x = Matrix::rand_uniform(n - 1, 8, -1.0, 1.0, &mut rng);
    let model = zoo::graphsage(8, 8, 3, 9);
    let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 9);
    let err = engine
        .try_infer(&[0, 1])
        .expect_err("shape mismatch must be rejected");
    match err {
        ServingError::InvariantViolation { check, .. } => {
            assert_eq!(check, "engine.features.rows");
        }
        other => panic!("expected InvariantViolation, got {other:?}"),
    }
}

#[test]
fn engine_stays_usable_after_invariant_violation() {
    let n = 12;
    let adj = ring(n);
    let mut rng = gcnp_tensor::init::seeded_rng(11);
    let x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut rng);
    let model = zoo::graphsage(8, 8, 3, 11);

    // First engine: wrong shape fails, then a fresh engine over good data
    // (same model) still serves — the error path must not poison state.
    let short = Matrix::rand_uniform(n - 1, 8, -1.0, 1.0, &mut rng);
    let mut bad = BatchedEngine::new(&model, &adj, &short, vec![], None, StorePolicy::None, 11);
    assert!(bad.try_infer(&[0]).is_err());

    let mut good = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 11);
    let res = good.try_infer(&[0, 5]).expect("clean batch serves");
    assert_eq!(res.targets, vec![0, 5]);
    assert!(res.logits.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn store_put_out_of_bounds_is_typed() {
    let store = FeatureStore::new(8, 2);
    let row = Matrix::filled(1, 4, 1.0);
    let err = store
        .put(1, 99, row.row(0))
        .expect_err("out-of-range node must be rejected");
    assert!(matches!(
        err,
        ServingError::InvariantViolation {
            check: "store.put.bounds",
            ..
        }
    ));
}

#[test]
fn nan_row_read_only_by_a_table_fill_is_never_marked() {
    // Uncapped on a ring, layer 1 samples nothing: every level-1 row is
    // read from layer 1's output table, so the batch's expansion lists no
    // level-0 node and the only reader of node 0's row is the fill of its
    // neighbour 1's row. The fill scans the rows it reads before it writes
    // one, so the batch fails typed; the row is not marked, so serving the
    // same target again fails the same way, while a batch that reads no
    // poisoned row still serves.
    let n = 12;
    let adj = ring(n);
    let mut rng = gcnp_tensor::init::seeded_rng(13);
    let model = zoo::graphsage(8, 8, 3, 13);
    let mut x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut rng);
    x.set(0, 5, f32::NAN);
    let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 13);
    let fails = |engine: &mut BatchedEngine<'_>| match engine.try_infer(&[2]) {
        Err(ServingError::InvariantViolation { check, .. }) => check,
        other => panic!("expected InvariantViolation, got {other:?}"),
    };
    assert_eq!(fails(&mut engine), "engine.features.finite");
    let far = engine.try_infer(&[7]).expect("rows 5..=9 are clean");
    assert_eq!(far.n_supporting, 0, "every level-1 row is tabled");
    assert_eq!(fails(&mut engine), "engine.features.finite");
}
