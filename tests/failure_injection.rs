//! Failure-injection and edge-case tests across crate boundaries: empty
//! graphs, isolated nodes, degenerate budgets, zero-signal features, and
//! serialization round-trips.

use gcnp::prelude::*;
use gcnp_datasets::SynthConfig;

#[test]
fn inference_on_edgeless_graph() {
    // A graph with no edges: every aggregation is zero; the model must
    // still produce finite logits (it degenerates to the self branch).
    let adj = CsrMatrix::empty(10, 10);
    let x = Matrix::filled(10, 6, 0.5);
    let model = zoo::graphsage(6, 8, 3, 1);
    let norm = adj.normalized(Normalization::Row);
    let out = model.forward_full(Some(&norm), &x);
    assert_eq!(out.shape(), (10, 3));
    assert!(out.as_slice().iter().all(|v| v.is_finite()));

    // Batched inference agrees.
    let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
    let res = engine.infer(&[0, 5]);
    for (i, &t) in res.targets.iter().enumerate() {
        for c in 0..3 {
            assert!((res.logits.get(i, c) - out.get(t, c)).abs() < 1e-4);
        }
    }
}

#[test]
fn isolated_target_in_connected_graph() {
    // Node 4 has no edges; the rest form a path.
    let adj = CsrMatrix::adjacency(5, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
    let x = Matrix::filled(5, 4, 1.0);
    let model = zoo::graphsage(4, 8, 2, 2);
    let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
    let res = engine.infer(&[4]);
    assert_eq!(res.logits.rows(), 1);
    assert!(res.logits.as_slice().iter().all(|v| v.is_finite()));
    // An isolated node's layer-1 aggregation samples nothing, so its
    // level-1 row is tabled: the batch expands no level-0 node, and the
    // fill reads the target's own row only. Served again, the row is a
    // copy and the logits are the same bits.
    assert_eq!(res.n_supporting, 0);
    let again = engine.infer(&[4]);
    assert_eq!(again.logits.as_slice(), res.logits.as_slice());
    assert!(again.macs < res.macs, "the warm row costs no fill");
}

#[test]
fn pruning_with_all_zero_channels() {
    // Channels that are exactly zero everywhere must be pruned first and
    // the reconstruction must stay exact.
    let mut rng = gcnp_tensor::init::seeded_rng(3);
    let mut x = Matrix::rand_uniform(64, 8, -1.0, 1.0, &mut rng);
    for r in 0..64 {
        x.set(r, 2, 0.0);
        x.set(r, 6, 0.0);
    }
    let w = Matrix::rand_uniform(8, 3, -1.0, 1.0, &mut rng);
    let cfg = PrunerConfig {
        beta_epochs: 20,
        w_epochs: 20,
        batch_size: 32,
        ..Default::default()
    };
    let out = lasso_prune(std::slice::from_ref(&x), std::slice::from_ref(&w), 6, &cfg);
    assert!(
        !out.keep.contains(&2) && !out.keep.contains(&6),
        "zero channels pruned: {:?}",
        out.keep
    );
    assert!(out.rel_error < 1e-3, "rel error {}", out.rel_error);
}

#[test]
fn minimum_budget_keeps_one_channel() {
    // A budget that rounds to zero channels must clamp to one.
    let data = SynthConfig {
        nodes: 100,
        classes: 2,
        communities: 2,
        attr_dim: 8,
        ..Default::default()
    }
    .generate(4);
    let model = zoo::graphsage(8, 4, 2, 5);
    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);
    let cfg = PrunerConfig {
        beta_epochs: 3,
        w_epochs: 3,
        batch_size: 32,
        ..Default::default()
    };
    // budget 0.01 of 4 hidden channels -> floor 0 -> clamped to 1.
    let (pruned, report) = prune_model(&model, &tadj, &tx, 0.01, Scheme::FullInference, &cfg);
    for lr in &report.layers {
        assert_eq!(lr.kept, 1);
    }
    let adj = data.adj.normalized(Normalization::Row);
    let out = pruned.forward_full(Some(&adj), &data.features);
    assert!(out.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn store_rejects_wrong_width() {
    // Reading a stored row of the wrong width must fail loudly, not corrupt —
    // as a typed error on the fallible path, so serving loops can shed the
    // request instead of dying.
    let adj = CsrMatrix::adjacency(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
    let x = Matrix::filled(4, 4, 1.0);
    let model = zoo::graphsage(4, 8, 2, 6);
    let store = FeatureStore::new(4, 2);
    store.put(1, 1, &[1.0, 2.0]).unwrap(); // wrong width: layer 1 emits 8 channels
    let mut engine =
        BatchedEngine::new(&model, &adj, &x, vec![], Some(&store), StorePolicy::None, 0);
    assert_eq!(
        engine.try_infer(&[0]).unwrap_err(),
        ServingError::StoreWidthMismatch {
            level: 1,
            expected: 8,
            got: 2
        }
    );
    // The infallible wrapper keeps the old fail-loud contract.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.infer(&[0])));
    assert!(result.is_err(), "width mismatch must panic via infer()");
}

#[test]
fn multilabel_dataset_with_rare_positives_trains() {
    let data = SynthConfig {
        nodes: 200,
        classes: 20,
        communities: 4,
        attr_dim: 16,
        multi_label: true,
        ..Default::default()
    }
    .generate(7);
    let mut model = zoo::graphsage(16, 8, 20, 8);
    let cfg = TrainConfig {
        steps: 20,
        eval_every: 10,
        saint_roots: 40,
        ..Default::default()
    };
    let stats = Trainer::train_saint(&mut model, &data, &cfg);
    assert!(stats.final_train_loss.is_finite());
}

#[test]
fn model_serde_round_trip() {
    let data = SynthConfig {
        nodes: 80,
        classes: 2,
        communities: 2,
        attr_dim: 8,
        ..Default::default()
    }
    .generate(9);
    let model = zoo::graphsage(8, 4, 2, 10);
    let json = serde_json::to_string(&model).expect("serialize");
    let back: GnnModel = serde_json::from_str(&json).expect("deserialize");
    let adj = data.adj.normalized(Normalization::Row);
    assert_eq!(
        model.forward_full(Some(&adj), &data.features),
        back.forward_full(Some(&adj), &data.features)
    );
}

#[test]
fn pruned_model_serde_round_trip() {
    let data = SynthConfig {
        nodes: 100,
        classes: 2,
        communities: 2,
        attr_dim: 12,
        ..Default::default()
    }
    .generate(11);
    let model = zoo::graphsage(12, 8, 2, 12);
    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);
    let cfg = PrunerConfig {
        beta_epochs: 3,
        w_epochs: 3,
        batch_size: 32,
        ..Default::default()
    };
    let (pruned, _) = prune_model(&model, &tadj, &tx, 0.5, Scheme::BatchedInference, &cfg);
    let back: GnnModel = serde_json::from_str(&serde_json::to_string(&pruned).unwrap()).unwrap();
    let adj = data.adj.normalized(Normalization::Row);
    assert_eq!(
        pruned.forward_full(Some(&adj), &data.features),
        back.forward_full(Some(&adj), &data.features)
    );
}

#[test]
fn single_node_batch_and_repeated_serving() {
    let data = SynthConfig {
        nodes: 150,
        classes: 3,
        communities: 3,
        attr_dim: 8,
        ..Default::default()
    }
    .generate(13);
    let model = zoo::graphsage(8, 8, 3, 14);
    let store = FeatureStore::new(150, 2);
    let mut engine = BatchedEngine::new(
        &model,
        &data.adj,
        &data.features,
        vec![None, Some(4)],
        Some(&store),
        StorePolicy::Roots,
        0,
    );
    // Single-node batches, served repeatedly: results must be identical
    // once the node's own features are stored (fresh store = exact rows).
    let a = engine.infer(&[42]);
    let b = engine.infer(&[42]);
    assert_eq!(a.logits.shape(), (1, 3));
    // b reads the stored h-levels for node 42, which were computed from the
    // capped neighborhood in pass a; outputs stay finite and close.
    assert!(b.logits.as_slice().iter().all(|v| v.is_finite()));
    assert!(b.store_hits > 0);
}

#[test]
fn empty_target_slice_is_rejected_gracefully() {
    let data = SynthConfig {
        nodes: 50,
        classes: 2,
        communities: 2,
        attr_dim: 8,
        ..Default::default()
    }
    .generate(15);
    let model = zoo::graphsage(8, 4, 2, 16);
    let mut engine = BatchedEngine::new(
        &model,
        &data.adj,
        &data.features,
        vec![],
        None,
        StorePolicy::None,
        0,
    );
    let res = engine.infer(&[]);
    assert_eq!(res.logits.rows(), 0);
    assert_eq!(res.targets.len(), 0);
}
