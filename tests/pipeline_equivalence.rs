//! Equivalence of the stage-pair executor (`run_batches`, and the fleet
//! worker built on the same link) to the engine's one-thread reference,
//! `BatchedEngine::try_infer`: bitwise identical outputs across engine
//! configurations, pinned serving counters under fault injection,
//! thread-count invariance, and overlap-aware occupancy accounting. See
//! DESIGN.md "Pipelined batched executor".

use gcnp::prelude::*;
use gcnp_tensor::init::seeded_rng;

fn chord_graph(n: usize) -> CsrMatrix {
    let mut e = Vec::new();
    for i in 0..n as u32 {
        for hop in [1u32, 5] {
            let j = (i + hop) % n as u32;
            e.push((i, j));
            e.push((j, i));
        }
    }
    CsrMatrix::adjacency(n, &e)
}

fn batches(n_nodes: usize, n_batches: usize, batch: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = seeded_rng(seed);
    (0..n_batches)
        .map(|_| {
            (0..batch)
                .map(|_| rand::RngExt::random_range(&mut rng, 0..n_nodes))
                .collect()
        })
        .collect()
}

/// The reference side: prepare then execute on this thread, batch by batch.
fn try_infer_loop(engine: &mut BatchedEngine<'_>, work: &[Vec<usize>]) -> Vec<BatchResult> {
    work.iter().map(|b| engine.try_infer(b).unwrap()).collect()
}

fn assert_bitwise_equal(seq: &[BatchResult], pip: &[BatchResult], what: &str) {
    assert_eq!(seq.len(), pip.len(), "{what}: batch count");
    for (i, (s, p)) in seq.iter().zip(pip).enumerate() {
        assert_eq!(s.targets, p.targets, "{what}: batch {i} targets");
        assert_eq!(
            s.logits.as_slice(),
            p.logits.as_slice(),
            "{what}: batch {i} logits must be bitwise identical"
        );
        assert_eq!(s.macs, p.macs, "{what}: batch {i} macs");
        assert_eq!(s.mem_bytes, p.mem_bytes, "{what}: batch {i} mem");
        assert_eq!(s.n_supporting, p.n_supporting, "{what}: batch {i} support");
        assert_eq!(s.store_hits, p.store_hits, "{what}: batch {i} store hits");
    }
}

/// Acceptance: the pipelined executor produces bitwise-identical
/// `BatchResult` outputs to a one-thread `try_infer` loop across engine
/// configurations — no store, write-through store (with the inter-batch
/// visibility barrier), a pre-warmed read-only store, fan-out caps, and the
/// model shapes that move what the front stage builds for layer 1.
#[test]
fn pipelined_outputs_are_bitwise_identical_across_configs() {
    let n = 120;
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut seeded_rng(2));
    let model = zoo::graphsage(8, 12, 4, 19);
    let work = batches(n, 10, 9, 33);
    // A runtime `keep` on layer 1's aggregation branch, as
    // `Scheme::BatchedInference` leaves it: served from the engine's
    // projection table.
    let mut pruned = model.clone();
    let keep = vec![6usize, 1, 4, 3];
    let agg = &mut pruned.layers[0].branches[1];
    agg.weight = agg.weight.select_rows(&keep);
    agg.keep = Some(keep);
    // The front stage builds layer 1's neighbour-branch product: a first
    // layer with nothing to aggregate, and a model whose only layer stores
    // the product and emits the logits.
    let mut rng = seeded_rng(23);
    let dense_first = GnnModel::new(vec![
        BranchLayer::dense(
            Matrix::glorot(8, 12, &mut rng),
            Some(Matrix::zeros(1, 12)),
            Activation::Relu,
        ),
        zoo::sage_layer(12, 12, Activation::Relu, &mut rng),
        BranchLayer::dense(Matrix::glorot(12, 4, &mut rng), None, Activation::None),
    ]);
    let one_layer = GnnModel::new(vec![zoo::sage_layer(8, 4, Activation::None, &mut rng)]);

    // Each config builds a fresh pair of identically-seeded engines (and
    // identically pre-warmed stores) and compares full outputs.
    type Cfg<'m> = (
        &'static str,
        Option<bool>,
        StorePolicy,
        Vec<Option<usize>>,
        &'m GnnModel,
    );
    let configs: Vec<Cfg> = vec![
        ("no store", None, StorePolicy::None, vec![], &model),
        (
            "write-through roots",
            Some(false),
            StorePolicy::Roots,
            vec![],
            &model,
        ),
        (
            "warm read-only store",
            Some(true),
            StorePolicy::None,
            vec![],
            &model,
        ),
        (
            "fan-out caps",
            None,
            StorePolicy::None,
            vec![Some(6); 4],
            &model,
        ),
        (
            "pruned, runtime keep",
            Some(true),
            StorePolicy::None,
            vec![Some(6); 4],
            &pruned,
        ),
        (
            "dense first layer",
            Some(true),
            StorePolicy::None,
            vec![],
            &dense_first,
        ),
        (
            "one layer, caps",
            None,
            StorePolicy::None,
            vec![Some(3)],
            &one_layer,
        ),
    ];
    for (name, store_kind, policy, caps, model) in configs {
        type Serve = fn(&mut BatchedEngine<'_>, &[Vec<usize>]) -> Vec<BatchResult>;
        let run = |serve: Serve| -> Vec<BatchResult> {
            let store = store_kind.map(|warm| {
                let s = FeatureStore::new(n, model.n_layers() - 1);
                if warm {
                    // Pre-warm by running the batches once with root
                    // write-backs, then serve read-only against it.
                    let mut w = BatchedEngine::new(
                        model,
                        &adj,
                        &x,
                        vec![],
                        Some(&s),
                        StorePolicy::Roots,
                        7,
                    );
                    for b in &work {
                        w.try_infer(b).unwrap();
                    }
                }
                s
            });
            let mut engine =
                BatchedEngine::new(model, &adj, &x, caps.clone(), store.as_ref(), policy, 7);
            serve(&mut engine, &work)
        };
        let seq = run(try_infer_loop);
        let pip = run(|engine, work| run_batches(engine, work).unwrap());
        assert_bitwise_equal(&seq, &pip, name);
        assert!(
            seq.iter().any(|r| r.macs > 0),
            "{name}: the comparison must cover real compute"
        );
    }
}

/// Thread-count invariance: the pipelined executor under `GCNP_THREADS=4`
/// worth of kernel parallelism produces the same bits as a single-threaded
/// `try_infer` loop — stage overlap composes with intra-batch parallelism
/// without changing results.
#[test]
fn pipelined_is_thread_count_invariant() {
    let n = 100;
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, 10, -1.0, 1.0, &mut seeded_rng(4));
    let model = zoo::graphsage(10, 16, 3, 23);
    let work = batches(n, 8, 12, 41);

    gcnp_tensor::set_num_threads(1);
    let mut e1 = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
    let seq1 = try_infer_loop(&mut e1, &work);

    gcnp_tensor::set_num_threads(4);
    let mut e4 = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
    let pip4 = run_batches(&mut e4, &work).unwrap();
    gcnp_tensor::set_num_threads(0);

    assert_bitwise_equal(&seq1, &pip4, "1-thread try_infer vs 4-thread pipelined");
}

/// Chaos counters: a seeded fault schedule (panics + stragglers + store-miss
/// storms) yields exactly the deterministic serving counters the schedule
/// implies — the values a one-thread-per-worker executor produced on this
/// trace before the stage pair became the only worker loop, so recovery
/// semantics do not depend on which stage hosts the fault — nor, run twice,
/// on how the four workers interleave (the modes the name is left with).
#[test]
fn chaos_counters_are_identical_across_modes() {
    let n = 200;
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut seeded_rng(6));
    let model = zoo::graphsage(8, 12, 4, 29);
    let store = FeatureStore::new(n, model.n_layers() - 1);
    let pool: Vec<usize> = (0..n).collect();

    let run = || {
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 32,
            n_requests: 320,
            seed: 13,
            ..Default::default()
        };
        let plan = FaultPlan {
            panics: 2,
            stragglers: 3,
            straggle_multiplier: 1.5,
            storms: 2,
            horizon: 12,
            seed: 99,
            ..Default::default()
        };
        let inj = plan.build().unwrap();
        let mut engines: Vec<BatchedEngine<'_>> = (0..4)
            .map(|w| {
                let mut e = BatchedEngine::new(
                    &model,
                    &adj,
                    &x,
                    vec![],
                    Some(&store),
                    StorePolicy::Roots,
                    w as u64,
                );
                e.set_faults(std::sync::Arc::clone(&inj));
                e
            })
            .collect();
        let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
        (rep.counters(), inj.fired())
    };
    // 4 workers, 320 requests in 10 pre-arrived batches, all served; each
    // of the 2 panics is one recovery and one retry, nothing is shed or
    // fails cleanly.
    let pinned = (4, 320, 10, 320, 0, 2, 0, 2);
    for _ in 0..2 {
        let (counters, fired) = run();
        assert_eq!(
            counters, pinned,
            "deterministic counters must not depend on worker interleaving"
        );
        assert_eq!(fired, [2, 3, 2, 0, 0, 0, 0], "the full schedule fires");
    }
}

/// Overlap-aware accounting: per-stage busy time can never exceed the
/// stage-thread wall budget, so the occupancy gauge is a true fraction in
/// (0, 1] — and a worker's busy time may legitimately exceed its wall
/// share (that's the overlap).
#[test]
fn stage_busy_accounting_stays_within_wall_clock() {
    let n = 150;
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut seeded_rng(8));
    let model = zoo::graphsage(8, 16, 4, 31);
    let pool: Vec<usize> = (0..n).collect();
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 16,
        n_requests: 320,
        seed: 17,
        ..Default::default()
    };
    let mut engines: Vec<BatchedEngine<'_>> = (0..2)
        .map(|w| BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, w))
        .collect();
    let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
    assert_eq!(rep.served, 320);
    assert!(
        rep.pipeline_occupancy > 0.0 && rep.pipeline_occupancy <= 1.0,
        "occupancy {} must be a fraction of stage-thread time",
        rep.pipeline_occupancy
    );
    assert!(rep.wall_seconds > 0.0, "wall {}", rep.wall_seconds);
}
