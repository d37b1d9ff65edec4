//! Self-healing serving: the supervision layer (the watchdog), corruption
//! quarantine recovery, the second-generation fault kinds, and the cold
//! start of the fleet's compute estimate. See DESIGN.md "Supervision &
//! self-healing".
//!
//! The deterministic *detection-latency* bound (a wedged batch is stolen
//! within the watchdog bound, on a fake clock) is unit-tested in
//! `crates/infer/src/supervisor.rs`; the tests here drive the same state
//! machine end to end through `serve_multi` under injected faults and
//! assert the recovery is lossless.

use gcnp::prelude::*;
use gcnp_tensor::init::seeded_rng;

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

fn setup(n: usize, dim: usize, hidden: usize) -> (CsrMatrix, Matrix, GnnModel) {
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, dim, -1.0, 1.0, &mut seeded_rng(11));
    let model = zoo::graphsage(dim, hidden, 4, 13);
    (adj, x, model)
}

fn fleet<'a>(
    n_workers: usize,
    model: &'a GnnModel,
    adj: &'a CsrMatrix,
    x: &'a Matrix,
    store: Option<&'a FeatureStore>,
    inj: Option<&std::sync::Arc<FaultInjector>>,
) -> Vec<BatchedEngine<'a>> {
    (0..n_workers)
        .map(|w| {
            let policy = if store.is_some() {
                StorePolicy::Roots
            } else {
                StorePolicy::None
            };
            let mut e = BatchedEngine::new(model, adj, x, vec![], store, policy, w as u64);
            if let Some(inj) = inj {
                e.set_faults(std::sync::Arc::clone(inj));
            }
            e
        })
        .collect()
}

/// Tentpole acceptance: a stage wedged by a deterministic `StageStall` far
/// past the watchdog bound is detected, its batch stolen and requeued, and
/// the stage pair torn down and respawned — the run
/// stays lossless and the stolen batch is eventually served. The routing
/// is one more input: two replicas behind one queue (`serve_multi`), or two
/// owner shards with a queue each (`serve_sharded`), where the stolen batch
/// must re-enter its own shard's queue.
#[test]
fn watchdog_recovers_a_wedged_stage() {
    let (adj, x, model) = setup(120, 8, 16);
    let pool: Vec<usize> = (0..120).collect();
    let assign = Partition::hash(120, 2, 0).assign;
    for sharded in [false, true] {
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 32,
            n_requests: 240,
            seed: 19,
            watchdog: Some(0.1),
            ..Default::default()
        };
        // The very first attempt goes silent for 600 ms — six watchdog
        // bounds, so detection is guaranteed (the scan cadence is a
        // quarter of the bound) while normal sub-millisecond batches
        // stay far inside it.
        let plan = FaultPlan {
            stalls: 1,
            stall_ms: 600.0,
            horizon: 1,
            seed: 23,
            ..Default::default()
        };
        let inj = plan.build().unwrap();
        let shards = ShardedStore::new(&assign, 2, model.n_layers() - 1);
        let rep = if sharded {
            let mut engines: Vec<BatchedEngine<'_>> = (0..2)
                .map(|s| {
                    let mut e = BatchedEngine::new_sharded(
                        &model,
                        &adj,
                        &x,
                        vec![],
                        &shards,
                        s,
                        StorePolicy::None,
                        s as u64,
                    );
                    e.set_faults(std::sync::Arc::clone(&inj));
                    e
                })
                .collect();
            serve_sharded(&mut engines, &assign, &pool, &cfg).unwrap()
        } else {
            let mut engines = fleet(2, &model, &adj, &x, None, Some(&inj));
            serve_multi(&mut engines, &pool, &cfg).unwrap()
        };
        let tag = format!("sharded={sharded}");
        assert_eq!(inj.fired(), [0, 0, 0, 1, 0, 0, 0], "{tag}: the stall fired");
        assert!(
            rep.watchdog_restarts >= 1,
            "{tag}: the watchdog must steal the wedged batch (restarts {})",
            rep.watchdog_restarts
        );
        assert_eq!(rep.served + rep.shed, 240, "{tag}: recovery loses nothing");
        assert_eq!(rep.shed, 0, "{tag}: the stolen batch is re-served");
        assert!(
            rep.retries >= 1,
            "{tag}: the steal requeues through the retry path"
        );
        assert_eq!(rep.failures, 0, "{tag}: a steal is not a failure");
    }
}

/// One attempt owns a batch: 50× stragglers on one engine under a watchdog
/// bound above the straggle cap run exactly once each — the injector draws
/// one attempt per dispatched batch, nothing is retried or stolen, and
/// every request is served.
#[test]
fn stragglers_run_once_under_the_watchdog() {
    let (adj, x, model) = setup(200, 8, 16);
    let pool: Vec<usize> = (0..200).collect();
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: 320,
        seed: 29,
        // Above the 1 s cap on an injected straggle.
        watchdog: Some(5.0),
        ..Default::default()
    };
    let plan = FaultPlan {
        stragglers: 4,
        straggle_multiplier: 50.0,
        horizon: 8,
        seed: 31,
        ..Default::default()
    };
    let inj = plan.build().unwrap();
    let mut engines = fleet(1, &model, &adj, &x, None, Some(&inj));
    let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
    assert_eq!(inj.fired()[1], 4, "all stragglers fired");
    assert_eq!(
        inj.attempts(),
        rep.n_batches as u64,
        "one attempt per batch"
    );
    assert_eq!(rep.retries, 0);
    assert_eq!(rep.watchdog_restarts, 0);
    assert_eq!(rep.served, cfg.n_requests);
}

/// Corruption quarantine acceptance: a deterministic bit flip in a resident
/// store row is caught by the per-row checksum, the attempt fails with the
/// typed-retryable `MissingStoredRow`, and the retry re-gathers the evicted
/// row from level 0 — producing logits bitwise identical to the fault-free
/// run.
#[test]
fn row_flip_retry_serves_bitwise_identical_logits() {
    // A 2-layer model keeps the store single-level, so every resident row
    // is staged on a repeat batch and the injected flip is always read
    // (with the 3-layer reference model, a flip in the shadowed level-1
    // rows would sit dormant behind the level-2 reads).
    let adj = chord_graph(120);
    let x = Matrix::rand_uniform(120, 8, -1.0, 1.0, &mut seeded_rng(11));
    let model = zoo::tinygnn_student(8, 16, 4, 13);
    let targets: Vec<usize> = (0..48).collect();

    // Warm a store with the batch's own roots, then serve the same batch
    // again so every staged read hits store-resident rows.
    let run = |inject: bool| -> (Vec<f32>, usize) {
        let store = FeatureStore::new(120, model.n_layers() - 1);
        let mut e = BatchedEngine::new(
            &model,
            &adj,
            &x,
            vec![],
            Some(&store),
            StorePolicy::Roots,
            5,
        );
        e.try_infer(&targets).unwrap(); // warm: all 48 roots now resident
        if inject {
            let plan = FaultPlan {
                row_flips: 1,
                horizon: 1,
                seed: 3,
                ..Default::default()
            };
            e.set_faults(plan.build().unwrap());
            // The flipped row is one of the staged roots, so the checksum
            // fails this attempt with the typed-retryable error (and the
            // row is quarantined out of the store).
            let res = e.try_infer(&targets);
            assert!(
                matches!(res, Err(ServingError::MissingStoredRow { .. })),
                "corrupted read must surface as MissingStoredRow"
            );
        }
        let res = e.try_infer(&targets).unwrap();
        (res.logits.as_slice().to_vec(), res.store_hits)
    };

    let (clean, clean_hits) = run(false);
    let (healed, healed_hits) = run(true);
    assert!(clean_hits > 0, "the clean re-serve must hit the store");
    assert_eq!(
        healed_hits,
        clean_hits - 1,
        "exactly the quarantined row is re-gathered from level 0"
    );
    assert_eq!(
        clean, healed,
        "re-gathered data serves bitwise-identical logits"
    );
}

/// All seven fault kinds — panic, straggle, store-miss, stage-stall,
/// row-flip, clock-skew, queue-wedge — injected into one schedule, run with
/// and without the supervisor (the two modes of the name): zero requests
/// lost or duplicated, and every fault fires.
#[test]
fn all_seven_fault_kinds_are_lossless_in_both_modes() {
    let (adj, x, model) = setup(300, 8, 16);
    let pool: Vec<usize> = (0..300).collect();
    let plan = FaultPlan {
        panics: 2,
        stragglers: 2,
        straggle_multiplier: 1.5,
        storms: 1,
        stalls: 1,
        stall_ms: 40.0,
        row_flips: 1,
        skews: 1,
        skew: 3.0,
        wedges: 1,
        horizon: 12, // 480 requests / 32 per batch = 15 attempts minimum
        seed: 41,
    };
    for supervised in [false, true] {
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 32,
            n_requests: 480,
            seed: 37,
            // Supervised pass: watchdog far above the 40 ms stall — the
            // supervisor thread runs but recovery still comes from the
            // retry path.
            watchdog: supervised.then_some(0.5),
            ..Default::default()
        };
        let store = FeatureStore::new(300, model.n_layers() - 1);
        let inj = plan.build().unwrap();
        let mut engines = fleet(4, &model, &adj, &x, Some(&store), Some(&inj));
        let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
        let tag = format!("supervised={supervised}");
        assert_eq!(
            inj.fired(),
            [2, 2, 1, 1, 1, 1, 1],
            "{tag}: the schedule fired"
        );
        assert_eq!(
            rep.served + rep.shed,
            480,
            "{tag}: nothing lost, nothing duplicated"
        );
        assert_eq!(rep.shed, 0, "{tag}: the retry cap covers every fault");
        assert_eq!(rep.recoveries, 2, "{tag}: both panics recovered");
        assert_eq!(rep.workers_lost, 2, "{tag}");
        assert!(rep.retries >= 2, "{tag}: panicked batches retried");
        if !supervised {
            assert_eq!(rep.watchdog_restarts, 0, "{tag}: supervisor off");
        }
    }
}

/// A cold fleet's compute estimate is zero, so a generous deadline sheds
/// nothing: the first batch of a deadline run is never spuriously shed.
#[test]
fn cold_fleet_admits_its_trace_under_a_generous_deadline() {
    let (adj, x, model) = setup(100, 6, 8);
    let pool: Vec<usize> = (0..100).collect();
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: 96,
        seed: 7,
        deadline: Some(1.0),
        ..Default::default()
    };
    let mut engines = fleet(2, &model, &adj, &x, None, None);
    let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
    assert_eq!(rep.shed_deadline, 0, "no spurious cold-start shedding");
    assert_eq!(rep.served, 96, "cold fleet admits its trace");
    assert_eq!(rep.shed, 0);
}

/// A deep SAGE model on the complete graph over 40 nodes. The cost model
/// expands `degree^hops` supporting nodes per target and the engine at most
/// `n`, so an analytic estimate over-prices its batches a few hundred times.
fn complete_graph_deep_model() -> (CsrMatrix, Matrix, GnnModel) {
    let n = 40;
    let complete: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|i| (0..n as u32).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    let adj = CsrMatrix::adjacency(n, &complete);
    let mut rng = seeded_rng(11);
    let x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut rng);
    let mut layers = vec![zoo::sage_layer(8, 16, Activation::Relu, &mut rng)];
    layers.extend((0..3).map(|_| zoo::sage_layer(16, 16, Activation::Relu, &mut rng)));
    (adj, x, GnnModel::new(layers))
}

/// Regression (cold fleet + deadline shed 100 %): a cold estimate above
/// the deadline used to shed every window, so no batch ever ran and the
/// estimate never got its first measurement. The estimate now starts at
/// zero, so a pre-arrived burst under a deadline a few measured batches
/// long serves its first windows and sheds only what the measurement
/// projects past the deadline.
#[test]
fn cold_seed_above_the_deadline_cannot_shed_every_window() {
    let (adj, x, model) = complete_graph_deep_model();
    let pool: Vec<usize> = (0..adj.n_rows()).collect();

    let mut probe = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
    probe.try_infer(&pool[..32]).unwrap(); // warm the first-touch tables
    let measured = probe.try_infer(&pool[..32]).unwrap().seconds;
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: 320,
        seed: 7,
        deadline: Some(4.0 * measured),
        ..Default::default()
    };

    let mut engines = fleet(1, &model, &adj, &x, None, None);
    let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
    assert!(
        rep.served > 0,
        "serve_multi: a cold fleet shed every window"
    );
    assert_eq!(
        rep.served + rep.shed + rep.shed_queue + rep.shed_deadline,
        320
    );
}

/// A paced cold start is priced by what the fleet measures: at 200 req/s
/// with a 2 ms window a batch of this model takes a few milliseconds, so
/// every request is served well inside 100 ms. Any seed the dispatcher's
/// virtual clock advances by before the first measurement is latency the
/// first requests wait out (a cost-model seed here is ≈ 0.33 s).
#[test]
fn paced_cold_start_is_priced_by_measurement() {
    let (adj, x, model) = complete_graph_deep_model();
    let pool: Vec<usize> = (0..adj.n_rows()).collect();
    let cfg = ServingConfig {
        arrival_rate: 200.0,
        max_batch: 32,
        max_wait: 0.002,
        n_requests: 20,
        seed: 7,
        pace: true,
        ..Default::default()
    };
    let mut engines = fleet(1, &model, &adj, &x, None, None);
    let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
    assert_eq!(rep.served, 20);
    assert!(
        rep.p99_ms < 100.0,
        "p99 {} ms over {} batches: the cold start waited on a guess",
        rep.p99_ms,
        rep.n_batches
    );
}

// --- gen-2 fault matrix -------------------------------------------------
//
// One small lossless run per fault kind; the CI chaos job selects these by
// the `gen2_` prefix.

fn gen2_case(mutate: impl Fn(&mut FaultPlan), expect_fired: [usize; 7]) {
    let (adj, x, model) = setup(120, 8, 16);
    let store = FeatureStore::new(120, model.n_layers() - 1);
    let pool: Vec<usize> = (0..120).collect();
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: 160, // 5 batch attempts minimum, horizon is 4
        seed: 43,
        ..Default::default()
    };
    let mut plan = FaultPlan {
        horizon: 4,
        seed: 47,
        ..Default::default()
    };
    mutate(&mut plan);
    let inj = plan.build().unwrap();
    let mut engines = fleet(2, &model, &adj, &x, Some(&store), Some(&inj));
    let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
    assert_eq!(rep.served + rep.shed, 160, "lossless");
    assert_eq!(rep.shed, 0);
    assert_eq!(inj.fired(), expect_fired, "schedule fired");
}

#[test]
fn gen2_stall_pipelined() {
    gen2_case(
        |p| {
            p.stalls = 1;
            p.stall_ms = 30.0;
        },
        [0, 0, 0, 1, 0, 0, 0],
    );
}

#[test]
fn gen2_rowflip_pipelined() {
    gen2_case(|p| p.row_flips = 1, [0, 0, 0, 0, 1, 0, 0]);
}

#[test]
fn gen2_skew_pipelined() {
    gen2_case(
        |p| {
            p.skews = 1;
            p.skew = 3.0;
        },
        [0, 0, 0, 0, 0, 1, 0],
    );
}

#[test]
fn gen2_wedge_pipelined() {
    gen2_case(|p| p.wedges = 1, [0, 0, 0, 0, 0, 0, 1]);
}
