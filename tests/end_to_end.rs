//! Cross-crate integration tests: the full train → prune → retrain → serve
//! pipeline, and the equivalences the paper's method relies on.

use gcnp::prelude::*;
use gcnp_datasets::SynthConfig;

fn small_dataset(seed: u64) -> Dataset {
    SynthConfig {
        nodes: 400,
        classes: 4,
        communities: 4,
        attr_dim: 32,
        noise: 0.5,
        ..Default::default()
    }
    .generate(seed)
}

fn trained_model(data: &Dataset, seed: u64) -> GnnModel {
    let mut model = zoo::graphsage(data.attr_dim(), 16, data.n_classes(), seed);
    let cfg = TrainConfig {
        steps: 60,
        eval_every: 10,
        saint_roots: 60,
        dropout: 0.0,
        ..Default::default()
    };
    Trainer::train_saint(&mut model, data, &cfg);
    model
}

#[test]
fn train_prune_retrain_preserves_accuracy() {
    let data = small_dataset(1);
    let model = trained_model(&data, 2);
    let adj = data.adj.normalized(Normalization::Row);
    let base_f1 = Trainer::evaluate(&model, Some(&adj), &data.features, &data.labels, &data.test);
    assert!(base_f1 > 0.8, "reference model must learn: {base_f1}");

    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);
    let cfg = PrunerConfig {
        beta_epochs: 20,
        w_epochs: 20,
        batch_size: 128,
        ..Default::default()
    };
    let (mut pruned, report) = prune_model(&model, &tadj, &tx, 0.25, Scheme::FullInference, &cfg);
    assert!(report.weights_after < report.weights_before / 2);

    let tcfg = TrainConfig {
        steps: 80,
        eval_every: 10,
        saint_roots: 60,
        dropout: 0.0,
        ..Default::default()
    };
    Trainer::train_saint(&mut pruned, &data, &tcfg);
    let pruned_f1 = Trainer::evaluate(
        &pruned,
        Some(&adj),
        &data.features,
        &data.labels,
        &data.test,
    );
    assert!(
        pruned_f1 > base_f1 - 0.1,
        "4x pruning + retraining must roughly preserve F1: {pruned_f1} vs {base_f1}"
    );
}

#[test]
fn batched_inference_matches_full_inference_logits() {
    let data = small_dataset(3);
    let model = trained_model(&data, 4);
    let adj = data.adj.normalized(Normalization::Row);
    let full = model.forward_full(Some(&adj), &data.features);

    let mut engine = BatchedEngine::new(
        &model,
        &data.adj,
        &data.features,
        vec![], // no caps: exact equality expected
        None,
        StorePolicy::None,
        0,
    );
    let targets: Vec<usize> = data.test.iter().take(50).copied().collect();
    let res = engine.infer(&targets);
    for (i, &t) in res.targets.iter().enumerate() {
        for c in 0..data.n_classes() {
            let (a, b) = (res.logits.get(i, c), full.get(t, c));
            assert!((a - b).abs() < 1e-3, "node {t} class {c}: {a} vs {b}");
        }
    }
}

#[test]
fn store_round_trip_preserves_batched_logits() {
    let data = small_dataset(5);
    let model = trained_model(&data, 6);
    let adj = data.adj.normalized(Normalization::Row);
    let engine = FullEngine::new(&model, Some(&adj));
    let hs = engine.hidden(&data.features);

    // Exact hidden features stored for every node: batched logits with the
    // store must equal full-inference logits.
    let store = FeatureStore::new(data.n_nodes(), model.n_layers() - 1);
    let all: Vec<usize> = (0..data.n_nodes()).collect();
    for level in 1..model.n_layers() {
        store.put_rows(level, &all, &hs[level - 1]).unwrap();
    }
    let mut bengine = BatchedEngine::new(
        &model,
        &data.adj,
        &data.features,
        vec![],
        Some(&store),
        StorePolicy::None,
        0,
    );
    let targets: Vec<usize> = data.test.iter().take(30).copied().collect();
    let res = bengine.infer(&targets);
    let full = &hs[model.n_layers() - 1];
    for (i, &t) in res.targets.iter().enumerate() {
        for c in 0..data.n_classes() {
            assert!((res.logits.get(i, c) - full.get(t, c)).abs() < 1e-3);
        }
    }
    // And it must have been cheaper than the plain path.
    assert_eq!(res.n_supporting, 0);
}

#[test]
fn pruned_batched_model_serves_with_store() {
    let data = small_dataset(7);
    let model = trained_model(&data, 8);
    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);
    let cfg = PrunerConfig {
        beta_epochs: 10,
        w_epochs: 10,
        batch_size: 128,
        ..Default::default()
    };
    let (pruned, _) = prune_model(&model, &tadj, &tx, 0.5, Scheme::BatchedInference, &cfg);

    let store = FeatureStore::new(data.n_nodes(), pruned.n_layers() - 1);
    let mut engine = BatchedEngine::new(
        &pruned,
        &data.adj,
        &data.features,
        vec![None, Some(8)],
        Some(&store),
        StorePolicy::Roots,
        0,
    );
    // Serve twice: the second pass must hit the store and be cheaper.
    let targets: Vec<usize> = data.test.iter().take(64).copied().collect();
    let first = engine.infer(&targets);
    let second = engine.infer(&targets);
    assert!(second.store_hits > 0);
    assert!(
        second.macs < first.macs,
        "{} vs {}",
        second.macs,
        first.macs
    );
    // Logits stay finite and classify above chance.
    let f1 = Metrics::f1_micro(&second.logits, &data.labels, &second.targets);
    assert!(f1 > 0.5, "pruned+store F1 {f1}");
}

#[test]
fn lasso_beats_random_end_to_end() {
    let data = small_dataset(9);
    let model = trained_model(&data, 10);
    let adj = data.adj.normalized(Normalization::Row);
    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);

    // Without retraining, at an aggressive budget, LASSO reconstruction
    // should lose less accuracy than random channel selection (Fig. 4).
    // Random is averaged over several draws — one lucky subset must not
    // flip the comparison.
    let eval = |method: PruneMethod, seed: u64| {
        let cfg = PrunerConfig {
            method,
            beta_epochs: 20,
            w_epochs: 20,
            batch_size: 128,
            seed,
            ..Default::default()
        };
        let (pruned, _) = prune_model(&model, &tadj, &tx, 0.25, Scheme::FullInference, &cfg);
        Trainer::evaluate(
            &pruned,
            Some(&adj),
            &data.features,
            &data.labels,
            &data.test,
        )
    };
    let lasso = eval(PruneMethod::Lasso, 0);
    let random_seeds = [0u64, 1, 2];
    let random = random_seeds
        .iter()
        .map(|&s| eval(PruneMethod::Random, s))
        .sum::<f64>()
        / random_seeds.len() as f64;
    assert!(
        lasso >= random - 0.02,
        "LASSO ({lasso}) must not lose to mean Random ({random}) by more than noise"
    );
}

#[test]
fn cost_model_tracks_measured_macs() {
    // The analytic batched cost (Eq. 3) and the engine's measured MACs
    // should agree within a small factor (the analytic model uses average
    // degree, the engine sees actual neighborhoods). Eq. 3 prices every
    // batch's layer-1 aggregation. With no caps layer 1 samples nothing, so
    // the engine runs that aggregation once per node: in the first pass,
    // which fills layer 1's output table (and its `k = 0` table, a
    // transform Eq. 3 does not price). A warm pass reads every level-1 row
    // from the table and runs only the layers above, below Eq. 3.
    let data = small_dataset(11);
    let model = trained_model(&data, 12);
    let cm = CostModel::new(data.n_nodes(), data.adj.avg_degree());
    let analytic = cm.batched_macs_per_node(&model, None);
    let mut engine = BatchedEngine::new(
        &model,
        &data.adj,
        &data.features,
        vec![],
        None,
        StorePolicy::None,
        0,
    );
    let targets: Vec<usize> = data.test.iter().take(100).copied().collect();
    let cold = engine.infer(&targets);
    let warm = engine.infer(&targets);
    let per_target = |macs: u64| macs as f64 / targets.len() as f64;
    let measured = per_target(cold.macs);
    let ratio = measured / analytic;
    assert!(
        (0.2..5.0).contains(&ratio),
        "analytic {analytic} vs measured {measured} (ratio {ratio})"
    );
    assert!(
        per_target(warm.macs) < analytic,
        "the warm pass runs no layer-1 work: {} vs {analytic}",
        per_target(warm.macs)
    );
}

#[test]
fn spam_stream_serving_pipeline() {
    // A miniature Figure-6 run: stream windows through a batched engine.
    let base = SynthConfig {
        nodes: 300,
        classes: 2,
        communities: 4,
        attr_dim: 24,
        noise: 0.5,
        timestamp_days: 3,
        ..Default::default()
    }
    .generate(13);
    let model = trained_model(&base, 14);
    let big = gcnp_datasets::oversample(&base, 2, 15);
    let store = FeatureStore::new(big.n_nodes(), model.n_layers() - 1);
    let mut engine = BatchedEngine::new(
        &model,
        &big.adj,
        &big.features,
        vec![None, Some(16)],
        Some(&store),
        StorePolicy::Roots,
        0,
    );
    let mut served = 0usize;
    for window in SpamStream::new(&big, 120) {
        if window.nodes.is_empty() {
            continue;
        }
        let res = engine.infer(&window.nodes);
        assert_eq!(res.logits.rows(), res.targets.len());
        served += res.targets.len();
    }
    assert_eq!(
        served,
        big.n_nodes(),
        "every review gets served exactly once"
    );
    assert!(store.len(1) > 0, "roots accumulated in the store");
}
