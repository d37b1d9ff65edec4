//! Edge-device deployment scenario: batched inference under a tight memory
//! budget (§4.3 — "the memory usage … makes it possible to perform
//! inference on edge devices like mobiles").
//!
//! Compares the per-batch working-set of the reference model against the
//! 8×-pruned model with stored hidden features, and checks both against a
//! hypothetical 64 MB device budget.
//!
//! ```sh
//! cargo run --release --example edge_device
//! ```

use gcnp::prelude::*;

const DEVICE_BUDGET_MB: f64 = 64.0;

fn main() {
    let data = DatasetKind::ArxivSim.generate_scaled(0.5, 3);
    println!("graph: {} nodes, {} attrs", data.n_nodes(), data.attr_dim());

    let mut model = zoo::graphsage(data.attr_dim(), 128, data.n_classes(), 1);
    let cfg = TrainConfig {
        steps: 100,
        eval_every: 10,
        ..Default::default()
    };
    Trainer::train_saint(&mut model, &data, &cfg);

    let (tadj, tnodes) = data.train_adj();
    let tadj = tadj.normalized(Normalization::Row);
    let tx = data.features.gather_rows(&tnodes);
    let (mut pruned, _) = prune_model(
        &model,
        &tadj,
        &tx,
        0.125,
        Scheme::BatchedInference,
        &PrunerConfig::default(),
    );
    Trainer::train_saint(&mut pruned, &data, &cfg);

    // Populate the store offline (server side) with train+val features.
    let adj = data.adj.normalized(Normalization::Row);
    let engine = FullEngine::new(&pruned, Some(&adj));
    let hs = engine.hidden(&data.features);
    let store = FeatureStore::new(data.n_nodes(), pruned.n_layers() - 1);
    let mut offline: Vec<usize> = data.train.iter().chain(&data.val).copied().collect();
    offline.sort_unstable();
    for level in 1..pruned.n_layers() {
        store
            .put_rows(level, &offline, &hs[level - 1].gather_rows(&offline))
            .unwrap();
    }

    // Int8 weight quantization composes with pruning in the model file
    // shipped to the device, which dequantizes it at load.
    let quant = gcnp_infer::QuantizedGnn::try_from_model(&pruned).expect("finite weights");
    let loaded = quant.to_model().expect("a well-formed quantized model");
    let qlogits = FullEngine::new(&loaded, Some(&adj)).logits(&data.features);
    let qf1 = Metrics::f1_micro_full(&qlogits, &data.labels, &data.test);
    println!(
        "int8 8x model file: test F1 {:.3}, weights {:.2} MB (f32 reference {:.2} MB)",
        qf1,
        quant.weight_bytes() as f64 / 1e6,
        model.n_weights() as f64 * 4.0 / 1e6
    );

    let batch: Vec<usize> = data.test.iter().take(512).copied().collect();
    for (name, m, st) in [
        ("reference (no store)", &model, None),
        ("8x pruned (no store)", &pruned, None),
        ("8x pruned + store", &pruned, Some(&store)),
    ] {
        let mut engine = BatchedEngine::new(
            m,
            &data.adj,
            &data.features,
            vec![None, Some(32)],
            st,
            StorePolicy::None,
            0,
        );
        let res = engine.infer(&batch);
        let f1 = Metrics::f1_micro(&res.logits, &data.labels, &res.targets);
        let mb = res.mem_bytes as f64 / 1e6;
        println!(
            "{name:<22} F1 {:.3} | batch mem {:>6.1} MB | {:>5.1} ms | fits {DEVICE_BUDGET_MB} MB device: {}",
            f1,
            mb,
            res.seconds * 1e3,
            if mb <= DEVICE_BUDGET_MB { "YES" } else { "no" }
        );
    }
}
