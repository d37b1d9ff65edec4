//! Sharded-serving acceptance suites (see DESIGN.md §14):
//!
//! * **Equivalence** — a sharded store behind `BatchedEngine::new_sharded`
//!   produces *bitwise-identical* logits to a single-store engine over the
//!   union of the same rows, for shard counts 1/2/4, on fixed and arbitrary
//!   (proptest) graphs; and `serve_sharded` at one shard reproduces
//!   `serve_multi`'s deterministic counters exactly, including under a
//!   second-generation fault grammar.
//! * **Accretion** — `ShardedStore::accrete` invalidates exactly the L-hop
//!   reverse dependency cone of the new edges: surviving rows bitwise-match
//!   a full recompute on the post-accretion graph (a stale read is
//!   impossible), and rows outside the cone survive (no `clear()`).

use gcnp::prelude::*;
use gcnp_tensor::init::seeded_rng;
use proptest::prelude::*;
use rand::RngExt;

fn chord_graph(n: usize) -> CsrMatrix {
    let mut e = Vec::new();
    for i in 0..n as u32 {
        for hop in [1u32, 7] {
            let j = (i + hop) % n as u32;
            e.push((i, j));
            e.push((j, i));
        }
    }
    CsrMatrix::adjacency(n, &e)
}

/// Populate a single store and a sharded store with the *same* rows (exact
/// hidden features of every 3rd node), so their unions are identical.
fn mirror_stores(hs: &[Matrix], n_layers: usize, single: &FeatureStore, sharded: &ShardedStore) {
    for level in 1..n_layers {
        let h = &hs[level - 1];
        for v in (0..h.rows()).step_by(3) {
            single.put(level, v, h.row(v)).unwrap();
            sharded.put(level, v, h.row(v)).unwrap();
        }
    }
}

/// Drive the same sub-batch sequence through a single-store engine and the
/// per-shard engines, asserting bitwise-equal logits after every batch
/// (write-backs included: both sides run `StorePolicy::Roots`, so stores
/// evolve in lockstep and later batches read earlier batches' rows).
fn assert_bitwise_equivalent(
    adj: &CsrMatrix,
    x: &Matrix,
    model: &GnnModel,
    hs: &[Matrix],
    n_shards: usize,
    seed: u64,
) {
    let n = adj.n_rows();
    let p = Partition::hash(n, n_shards, seed);
    let single = FeatureStore::new(n, model.n_layers() - 1);
    let sharded = ShardedStore::new(&p.assign, n_shards, model.n_layers() - 1);
    mirror_stores(hs, model.n_layers(), &single, &sharded);

    let mut base = BatchedEngine::new(model, adj, x, vec![], Some(&single), StorePolicy::Roots, 0);
    let mut shard_engines: Vec<BatchedEngine<'_>> = (0..n_shards)
        .map(|s| {
            BatchedEngine::new_sharded(model, adj, x, vec![], &sharded, s, StorePolicy::Roots, 0)
        })
        .collect();

    // Three rounds over sliding windows so reuse kicks in mid-run.
    for round in 0..3usize {
        for chunk in (0..n).collect::<Vec<_>>().chunks(17 + round) {
            for (s, shard_engine) in shard_engines.iter_mut().enumerate() {
                let sub: Vec<usize> = chunk
                    .iter()
                    .copied()
                    .filter(|&v| p.assign[v] as usize == s)
                    .collect();
                if sub.is_empty() {
                    continue;
                }
                let a = base.infer(&sub);
                let b = shard_engine.infer(&sub);
                assert_eq!(a.targets, b.targets);
                assert_eq!(
                    a.logits.as_slice(),
                    b.logits.as_slice(),
                    "logits diverge at {n_shards} shards (round {round}, shard {s})"
                );
                assert_eq!(a.store_hits, b.store_hits, "reuse diverges");
                assert_eq!(a.n_supporting, b.n_supporting, "expansion diverges");
            }
        }
    }
    // The stores evolved in lockstep too: same resident totals per level.
    for level in 1..model.n_layers() {
        assert_eq!(single.len(level), sharded.len(level), "level {level}");
    }
    assert_eq!(single.nbytes(), sharded.nbytes());
}

/// Acceptance: shard counts 1, 2 and 4 all serve bitwise-identical logits
/// to the single-store engine, with identical reuse and expansion counters.
#[test]
fn sharded_logits_bitwise_equal_across_shard_counts() {
    let n = 120;
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut seeded_rng(11));
    let model = zoo::graphsage(8, 16, 4, 7);
    let norm = adj.normalized(Normalization::Row);
    let hs = model.forward_collect(Some(&norm), &x);
    for n_shards in [1, 2, 4] {
        assert_bitwise_equivalent(&adj, &x, &model, &hs, n_shards, 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The bitwise-equivalence property holds on arbitrary graphs and
    /// partition seeds, not just the fixed chord graph.
    #[test]
    fn sharded_equivalence_holds_on_arbitrary_graphs(
        n in 12usize..48,
        gseed in 0u64..200,
        pseed in 0u64..50,
    ) {
        let mut edges = Vec::new();
        let mut rng = seeded_rng(gseed);
        for v in 0..n as u32 {
            edges.push((v, (v + 1) % n as u32));
            edges.push(((v + 1) % n as u32, v));
            let w: usize = rng.random_range(0..n);
            if w as u32 != v {
                edges.push((v, w as u32));
                edges.push((w as u32, v));
            }
        }
        let adj = CsrMatrix::adjacency(n, &edges);
        let x = Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut rng);
        let model = zoo::graphsage(6, 8, 3, gseed);
        let norm = adj.normalized(Normalization::Row);
        let hs = model.forward_collect(Some(&norm), &x);
        for n_shards in [2, 4] {
            assert_bitwise_equivalent(&adj, &x, &model, &hs, n_shards, pseed);
        }
    }
}

fn serving_setup(n: usize) -> (CsrMatrix, Matrix, GnnModel) {
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut seeded_rng(11));
    let model = zoo::graphsage(8, 16, 4, 13);
    (adj, x, model)
}

/// `serve_sharded` at one shard is `serve_multi` at one worker: identical
/// deterministic counters, clean and under a gen-2 fault schedule.
#[test]
fn one_shard_serving_matches_single_worker_serve_multi() {
    let n = 200;
    let (adj, x, model) = serving_setup(n);
    let pool: Vec<usize> = (0..n).collect();
    let assign = Partition::hash(n, 1, 0).assign;
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: 300,
        seed: 21,
        ..Default::default()
    };
    let run = |plan: Option<&FaultPlan>, sharded: bool| -> MultiServingReport {
        let levels = model.n_layers() - 1;
        let single = FeatureStore::new(n, levels);
        let shards = ShardedStore::new(&assign, 1, levels);
        let inj = plan.map(|p| p.build().unwrap());
        let mut engine = if sharded {
            BatchedEngine::new_sharded(&model, &adj, &x, vec![], &shards, 0, StorePolicy::Roots, 0)
        } else {
            BatchedEngine::new(
                &model,
                &adj,
                &x,
                vec![],
                Some(&single),
                StorePolicy::Roots,
                0,
            )
        };
        if let Some(inj) = &inj {
            engine.set_faults(std::sync::Arc::clone(inj));
        }
        let mut engines = vec![engine];
        if sharded {
            serve_sharded(&mut engines, &assign, &pool, &cfg).unwrap()
        } else {
            serve_multi(&mut engines, &pool, &cfg).unwrap()
        }
    };
    let clean_multi = run(None, false);
    let clean_shard = run(None, true);
    assert_eq!(clean_multi.counters(), clean_shard.counters(), "clean");
    assert_eq!(clean_shard.served, 300);

    // Gen-2 grammar: silent row corruption, clock skew, a store-miss
    // storm. Same seeded schedule on both paths.
    let plan = FaultPlan {
        row_flips: 2,
        skews: 2,
        skew: 3.0,
        storms: 1,
        horizon: clean_multi.n_batches as u64 + 4,
        seed: 77,
        ..Default::default()
    };
    let chaos_multi = run(Some(&plan), false);
    let chaos_shard = run(Some(&plan), true);
    assert_eq!(chaos_multi.counters(), chaos_shard.counters(), "chaos");
    assert_eq!(
        chaos_shard.served + chaos_shard.shed,
        300,
        "every request served or shed"
    );
}

/// Sharded serving at 2 and 4 shards is lossless and deterministic under
/// the gen-2 fault grammar, with served/shed equal to the single-store
/// fleet's (everything served: the retry cap absorbs the whole schedule).
#[test]
fn sharded_serving_is_lossless_and_deterministic_under_gen2_faults() {
    let n = 240;
    let (adj, x, model) = serving_setup(n);
    let pool: Vec<usize> = (0..n).collect();
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: 400,
        seed: 9,
        ..Default::default()
    };
    let plan = FaultPlan {
        row_flips: 3,
        skews: 2,
        skew: 2.5,
        storms: 1,
        horizon: 64,
        seed: 31,
        ..Default::default()
    };

    // Single-store baseline for the served/shed comparison.
    let levels = model.n_layers() - 1;
    let single = FeatureStore::new(n, levels);
    let inj = plan.build().unwrap();
    let mut base = vec![{
        let mut e = BatchedEngine::new(
            &model,
            &adj,
            &x,
            vec![],
            Some(&single),
            StorePolicy::Roots,
            0,
        );
        e.set_faults(std::sync::Arc::clone(&inj));
        e
    }];
    let baseline = serve_multi(&mut base, &pool, &cfg).unwrap();
    assert_eq!(baseline.served, 400, "retry cap absorbs the schedule");

    for n_shards in [2usize, 4] {
        let p = Partition::hash(n, n_shards, 3);
        let run = || -> MultiServingReport {
            let store = ShardedStore::new(&p.assign, n_shards, levels);
            let inj = plan.build().unwrap();
            let mut engines: Vec<BatchedEngine<'_>> = (0..n_shards)
                .map(|s| {
                    let mut e = BatchedEngine::new_sharded(
                        &model,
                        &adj,
                        &x,
                        vec![],
                        &store,
                        s,
                        StorePolicy::Roots,
                        s as u64,
                    );
                    e.set_faults(std::sync::Arc::clone(&inj));
                    e
                })
                .collect();
            serve_sharded(&mut engines, &p.assign, &pool, &cfg).unwrap()
        };
        let a = run();
        assert_eq!(a.n_workers, n_shards);
        assert_eq!(
            a.served + a.shed + a.shed_queue + a.shed_deadline,
            400,
            "{n_shards} shards: nothing lost"
        );
        assert_eq!(
            (a.served, a.shed),
            (baseline.served, baseline.shed),
            "{n_shards} shards: served/shed match the single-store fleet"
        );
        // Re-running the same seed must reproduce the *request accounting*
        // exactly. The fault-side tallies (retries/recoveries) are not
        // compared: the shared injector schedules faults by global attempt
        // index, and which shard's batch occupies an index depends on
        // worker interleaving once S >= 2.
        let b = run();
        assert_eq!(
            b.served + b.shed + b.shed_queue + b.shed_deadline,
            400,
            "{n_shards} shards: nothing lost on re-run"
        );
        assert_eq!(
            (a.served, a.shed, a.n_requests, a.n_workers),
            (b.served, b.shed, b.n_requests, b.n_workers),
            "{n_shards} shards: same-seed runs serve identically"
        );
    }
}

/// A dead shard takes only its own traffic with it. Shard 0's replica
/// panics on its first attempt (only its engine carries the injector), so
/// its queue is aborted: every request routed there is shed and counted,
/// while shard 1 — its own queue, its own liveness — serves all of its own.
#[test]
fn dead_shard_sheds_its_routed_requests_and_its_sibling_serves_on() {
    let n = 200;
    let (adj, x, model) = serving_setup(n);
    let pool: Vec<usize> = (0..n).collect();
    let p = Partition::hash(n, 2, 3);
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: 300,
        seed: 5,
        ..Default::default()
    };
    // The seeded trace, draw for draw (an exponential gap, then the
    // target): how many requests the dispatcher routes to shard 0.
    let mut rng = seeded_rng(cfg.seed);
    let routed_to_dead = (0..cfg.n_requests)
        .filter(|_| {
            let _gap: f64 = rng.random_range(f64::EPSILON..1.0);
            p.assign[pool[rng.random_range(0..pool.len())]] == 0
        })
        .count();
    assert!(routed_to_dead > 0 && routed_to_dead < cfg.n_requests);

    let store = ShardedStore::new(&p.assign, 2, model.n_layers() - 1);
    let storm = FaultPlan {
        panics: 4,
        horizon: 4,
        seed: 1,
        ..Default::default()
    }
    .build()
    .unwrap();
    let mut engines: Vec<BatchedEngine<'_>> = (0..2)
        .map(|s| {
            BatchedEngine::new_sharded(
                &model,
                &adj,
                &x,
                vec![],
                &store,
                s,
                StorePolicy::Roots,
                s as u64,
            )
        })
        .collect();
    engines[0].set_faults(storm);
    let rep = serve_sharded(&mut engines, &p.assign, &pool, &cfg).unwrap();
    assert_eq!(rep.workers_lost, 1, "shard 0's replica died");
    assert_eq!(rep.shed, routed_to_dead, "its traffic is shed");
    assert_eq!(
        rep.served,
        cfg.n_requests - routed_to_dead,
        "shard 1 serves all of its own"
    );
    assert_eq!(rep.shed_queue + rep.shed_deadline, 0);
}

/// Accretion acceptance: appending edges invalidates exactly the reverse
/// L-hop dependency cone — every surviving row bitwise-matches a full
/// recompute on the post-accretion graph (stale reads are impossible), rows
/// outside the cone survive, and the report pins the per-level dirty sizes.
#[test]
fn accretion_invalidates_only_the_dependency_cone() {
    let n = 60;
    let model = zoo::graphsage(6, 8, 3, 1);
    let levels = model.n_layers() - 1; // 2 stored levels
    let x = Matrix::rand_uniform(n, 6, -1.0, 1.0, &mut seeded_rng(4));

    // The pre-accretion snapshot, built through the growing graph.
    let mut growing = GrowingGraph::new(n);
    let mut init = Vec::new();
    for i in 0..n as u32 {
        for hop in [1u32, 7] {
            let j = (i + hop) % n as u32;
            init.push((i, j));
            init.push((j, i));
        }
    }
    let adj0 = growing.accrete(&init).clone();
    let hs0 = model.forward_collect(Some(&adj0.normalized(Normalization::Row)), &x);

    let p = Partition::hash(n, 3, 8);
    let store = ShardedStore::new(&p.assign, 3, levels);
    for level in 1..=levels {
        for v in 0..n {
            store.put(level, v, hs0[level - 1].row(v)).unwrap();
        }
    }
    assert_eq!(store.len(1), n);
    let epoch0 = store.epoch();

    // Accrete two fresh edges mid-stream.
    let new_edges: Vec<(u32, u32)> = vec![(0, 30), (30, 0), (5, 45), (45, 5)];
    let adj1 = growing.accrete(&new_edges).clone();
    let report = store.accrete(&new_edges, &adj1); // symmetric: adj is its own reverse

    // Independently derive the expected cone on the post-accretion graph.
    let d1: std::collections::BTreeSet<usize> = [0usize, 30, 5, 45].into_iter().collect();
    let mut d2 = d1.clone();
    for &v in &d1 {
        for &u in adj1.row_indices(v) {
            d2.insert(u as usize);
        }
    }
    assert_eq!(report.dirty_per_level, vec![d1.len(), d2.len()]);
    assert_eq!(
        report.removed,
        d1.len() + d2.len(),
        "all dirty rows were resident"
    );
    assert_eq!(report.epoch, epoch0 + 1);
    assert_eq!(store.epoch(), report.epoch, "visibility barrier published");

    // Level 1: exactly D1 invalidated. Level 2: exactly D2.
    for v in 0..n {
        assert_eq!(store.has(1, v), !d1.contains(&v), "level 1 node {v}");
        assert_eq!(store.has(2, v), !d2.contains(&v), "level 2 node {v}");
    }

    // No stale reads: every surviving row bitwise-equals the full
    // recompute on the new graph. And the walk was necessary: inside the
    // cone the recompute genuinely differs from the stale values.
    let hs1 = model.forward_collect(Some(&adj1.normalized(Normalization::Row)), &x);
    for level in 1..=levels {
        for v in 0..n {
            if let Some(row) = store.with_row(level, v, |r| r.to_vec()) {
                assert_eq!(
                    row.as_slice(),
                    hs1[level - 1].row(v),
                    "level {level} node {v}"
                );
            }
        }
    }
    let stale_somewhere = d1.iter().any(|&v| hs0[0].row(v) != hs1[0].row(v));
    assert!(
        stale_somewhere,
        "the accreted edges must actually change some invalidated row"
    );

    // Serving on the post-accretion graph mixes surviving rows with fresh
    // recomputation of the cone — results match full inference.
    let mut engines: Vec<BatchedEngine<'_>> = (0..3)
        .map(|s| {
            BatchedEngine::new_sharded(&model, &adj1, &x, vec![], &store, s, StorePolicy::Roots, 0)
        })
        .collect();
    let full = model.forward_full(Some(&adj1.normalized(Normalization::Row)), &x);
    for (s, engine) in engines.iter_mut().enumerate() {
        let targets: Vec<usize> = (0..n).filter(|&v| p.assign[v] as usize == s).collect();
        let res = engine.infer(&targets);
        assert!(res.store_hits > 0, "surviving rows are reused");
        for (i, &t) in res.targets.iter().enumerate() {
            for c in 0..3 {
                assert!(
                    (res.logits.get(i, c) - full.get(t, c)).abs() < 1e-3,
                    "node {t} class {c}"
                );
            }
        }
    }
}
