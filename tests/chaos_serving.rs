//! Chaos and overload tests for the serving layer: deterministic fault
//! injection into multi-worker serving, the pruning-tiered degradation
//! ladder under overload, and serving edge cases. See DESIGN.md "Failure
//! model & degradation ladder".

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

/// Acceptance: a seeded schedule injecting 3 worker panics, 5 straggler
/// batches and 2 store-miss storms into a 4-worker `serve_multi` run loses
/// nothing (served + shed == submitted, shed == 0 since the retry cap
/// covers every panic), the recovery/retry counters match the schedule
/// exactly, and two same-seed runs produce identical reports.
#[test]
fn chaos_run_is_lossless_and_deterministic() {
    let (adj, x, model) = setup(300, 8, 16);
    let pool: Vec<usize> = (0..300).collect();
    let cfg = ServingConfig {
        arrival_rate: 1e6, // pre-arrived: batch formation is purely size-capped
        max_batch: 64,
        n_requests: 400,
        seed: 21,
        ..Default::default()
    };

    // Learn the (deterministic) batch count of this trace from a fault-free
    // run, then size the fault horizon so the whole schedule fires:
    // attempts = batches + one retry per panic.
    let store = FeatureStore::new(300, model.n_layers() - 1);
    let mk_engines = |faults: Option<&std::sync::Arc<FaultInjector>>| -> Vec<BatchedEngine<'_>> {
        (0..4)
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
                if let Some(inj) = faults {
                    e.set_faults(std::sync::Arc::clone(inj));
                }
                e
            })
            .collect()
    };
    let clean = serve_multi(&mut mk_engines(None), &pool, &cfg).unwrap();
    assert_eq!(clean.served, 400);
    assert_eq!(
        clean.shed + clean.recoveries + clean.failures + clean.retries + clean.workers_lost,
        0
    );

    let plan = FaultPlan {
        panics: 3,
        stragglers: 5,
        straggle_multiplier: 2.0,
        storms: 2,
        horizon: clean.n_batches as u64 + 3,
        seed: 77,
        ..Default::default()
    };
    assert!(
        clean.n_batches >= 7,
        "trace must be long enough to absorb the 10-fault schedule"
    );
    let run = || {
        let inj = plan.build().unwrap();
        let rep = serve_multi(&mut mk_engines(Some(&inj)), &pool, &cfg).unwrap();
        (rep, inj.fired(), inj.attempts())
    };
    let (a, fired_a, attempts_a) = run();

    // Nothing lost, every fault in the schedule fired, counters match it.
    assert_eq!(a.served + a.shed, 400, "every request served or shed");
    assert_eq!(a.shed, 0, "retry cap covers all three panics");
    assert_eq!(
        fired_a,
        [3, 5, 2, 0, 0, 0, 0],
        "full schedule fired: {fired_a:?}"
    );
    assert_eq!(a.recoveries, 3, "one recovery per injected panic");
    assert_eq!(a.retries, 3, "each panicked batch retried once per failure");
    assert_eq!(a.workers_lost, 3, "each panic retires one of the 4 workers");
    assert_eq!(a.failures, 0, "panics are not clean failures");
    assert_eq!(a.n_batches, clean.n_batches);
    assert_eq!(
        attempts_a,
        clean.n_batches as u64 + 3,
        "attempts = batches + retried panics"
    );

    // Same seed ⇒ identical report (all deterministic fields).
    let (b, fired_b, attempts_b) = run();
    assert_eq!(a.counters(), b.counters(), "same-seed chaos runs agree");
    assert_eq!(a.workers_lost, b.workers_lost);
    assert_eq!(fired_a, fired_b);
    assert_eq!(attempts_a, attempts_b);
}

/// If every worker dies, the leftover queue is shed and accounted — the
/// run terminates with served + shed == submitted instead of hanging.
#[test]
fn fleet_wipeout_sheds_the_remaining_queue() {
    let (adj, x, model) = setup(100, 6, 8);
    let pool: Vec<usize> = (0..100).collect();
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 8,
        n_requests: 200,
        seed: 3,
        retry_cap: 0, // a panicked batch is shed immediately
        ..Default::default()
    };
    // Both workers panic on their very first attempts.
    let plan = FaultPlan {
        panics: 2,
        horizon: 2,
        seed: 5,
        ..Default::default()
    };
    let inj = plan.build().unwrap();
    let mut engines: Vec<BatchedEngine<'_>> = (0..2)
        .map(|w| {
            let mut e =
                BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, w as u64);
            e.set_faults(std::sync::Arc::clone(&inj));
            e
        })
        .collect();
    let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
    assert_eq!(rep.workers_lost, 2, "the whole fleet dies");
    assert_eq!(rep.served, 0);
    assert_eq!(rep.shed, 200, "every request is explicitly shed, none lost");
    assert_eq!(rep.recoveries, 2);
    assert_eq!(rep.retries, 0, "retry_cap 0 sheds without re-queueing");
}

/// Acceptance: under an overload trace with a deadline, the degradation
/// ladder moves traffic to pruned tiers and keeps the p99 of *served*
/// requests below the deadline, while the same trace on the full model
/// alone misses it. The full tier is slow by construction — a fault plan
/// attached to its engine alone stalls every one of its batch attempts for
/// `STALL_MS`, four times the deadline — so the claim rests on no timing
/// calibration of this machine.
#[test]
fn ladder_keeps_p99_under_deadline_where_full_model_misses() {
    const STALL_MS: f64 = 200.0;
    let (adj, x, model) = setup(512, 16, 64);
    let norm = adj.normalized(Normalization::Row);
    let pcfg = PrunerConfig {
        beta_epochs: 8,
        w_epochs: 8,
        batch_size: 64,
        ..Default::default()
    };
    let (tier2, _) = prune_model(&model, &norm, &x, 0.5, Scheme::BatchedInference, &pcfg);
    let (tier4, _) = prune_model(&model, &norm, &x, 0.125, Scheme::BatchedInference, &pcfg);
    let pool: Vec<usize> = (0..512).collect();
    let deadline = STALL_MS / 4.0 / 1e3;

    let cfg = ServingConfig {
        arrival_rate: 1e6, // overload: everything arrives at once
        max_batch: 64,
        n_requests: 600,
        seed: 9,
        deadline: Some(deadline),
        ..Default::default()
    };
    let ladder = LadderPolicy {
        step_down_depth: 64,
        step_up_depth: 8,
        min_dwell: 4,
    };
    let engine = |m| BatchedEngine::new(m, &adj, &x, vec![], None, StorePolicy::None, 0);
    let slow_full = || {
        let stalls = FaultPlan {
            stalls: 16,
            horizon: 16,
            stall_ms: STALL_MS,
            ..Default::default()
        };
        let mut e = engine(&model);
        e.set_faults(stalls.build().unwrap());
        e
    };

    let mut tiers = [slow_full(), engine(&tier2), engine(&tier4)];
    let with = serve_tiered(&mut tiers, &pool, &cfg, &ladder).unwrap();
    assert_eq!(
        with.served + with.shed + with.shed_queue + with.shed_deadline,
        600
    );
    assert!(
        with.served > 0,
        "the ladder serves at least the first batches"
    );
    let pruned_traffic: usize = with.group_served[1..].iter().sum();
    assert!(
        pruned_traffic > with.group_served[0],
        "overload must push traffic to pruned tiers: {:?}",
        with.group_served
    );
    assert_eq!(
        with.deadline_misses, 0,
        "every request the ladder serves makes its deadline"
    );
    assert!(
        with.p99_ms < deadline * 1e3,
        "ladder p99 {:.3} ms must beat the {:.3} ms deadline (tiers {:?})",
        with.p99_ms,
        deadline * 1e3,
        with.group_served
    );

    // Same trace, ladder disabled: the full model's first batch alone blows
    // the deadline, so the p99 of served requests misses it.
    let without = serve_multi(&mut [slow_full()], &pool, &cfg).unwrap();
    assert_eq!(
        without.served + without.shed + without.shed_queue + without.shed_deadline,
        600
    );
    assert!(
        without.deadline_misses > 0,
        "the un-laddered full model serves its first batch past the deadline"
    );
    assert!(
        without.p99_ms > deadline * 1e3,
        "full-model p99 {:.3} ms should miss the {:.3} ms deadline",
        without.p99_ms,
        deadline * 1e3
    );
}

/// Serving edge cases: the fleet completes with full request accounting.
#[test]
fn edge_cases_complete_with_full_accounting() {
    let (adj, x, model) = setup(60, 6, 8);
    let pool: Vec<usize> = (0..60).collect();
    let single = [7usize];
    let cases = [
        (
            "max_batch=1",
            ServingConfig {
                max_batch: 1,
                n_requests: 40,
                ..Default::default()
            },
        ),
        (
            "max_wait=0",
            ServingConfig {
                max_wait: 0.0,
                n_requests: 40,
                ..Default::default()
            },
        ),
        (
            "n_requests<max_batch",
            ServingConfig {
                max_batch: 64,
                n_requests: 5,
                ..Default::default()
            },
        ),
    ];
    for (name, cfg) in &cases {
        for pool in [&pool[..], &single[..]] {
            let mut engines: Vec<BatchedEngine<'_>> = (0..2)
                .map(|w| {
                    BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, w as u64)
                })
                .collect();
            let rep = serve_multi(&mut engines, pool, cfg).unwrap();
            assert_eq!(
                rep.served + rep.shed,
                cfg.n_requests,
                "serve_multi accounting for {name}"
            );
        }
    }
    // max_batch=1 really does one request per batch.
    let mut engine = BatchedEngine::new(&model, &adj, &x, vec![], None, StorePolicy::None, 0);
    let rep = serve_multi(std::slice::from_mut(&mut engine), &pool, &cases[0].1).unwrap();
    assert_eq!(rep.served, 40, "nothing to shed");
    assert_eq!(rep.n_batches, 40);
    assert_eq!(rep.mean_batch_size, 1.0);
}

/// Soak test for the CI chaos job (run with `--include-ignored`): several
/// seeds, heavier schedules spanning all seven fault kinds, supervision on
/// for half the seeds — always lossless.
#[test]
#[ignore = "soak test; run explicitly in the CI chaos job"]
fn chaos_soak_across_seeds() {
    let (adj, x, model) = setup(300, 8, 16);
    let store = FeatureStore::new(300, model.n_layers() - 1);
    let pool: Vec<usize> = (0..300).collect();
    for seed in 0..5u64 {
        // Turn the supervisor on for alternating seeds so both the bare
        // retry path and the watchdog path soak.
        let supervised = seed % 2 == 1;
        let cfg = ServingConfig {
            arrival_rate: 1e6,
            max_batch: 32,
            n_requests: 1000,
            seed,
            watchdog: supervised.then_some(0.25),
            ..Default::default()
        };
        let plan = FaultPlan {
            panics: 3,
            stragglers: 8,
            straggle_multiplier: 2.0,
            storms: 4,
            stalls: 2,
            stall_ms: 20.0,
            row_flips: 2,
            skews: 2,
            skew: 3.0,
            wedges: 2,
            horizon: 30,
            seed: seed ^ 0xc0ffee,
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
                    w ^ seed,
                );
                e.set_faults(std::sync::Arc::clone(&inj));
                e
            })
            .collect();
        let rep = serve_multi(&mut engines, &pool, &cfg).unwrap();
        assert_eq!(
            rep.served + rep.shed,
            1000,
            "seed {seed}: every request served or shed"
        );
        assert_eq!(rep.recoveries, 3, "seed {seed}: all panics recovered");
        assert!(rep.workers_lost <= 3, "seed {seed}: fleet survives");
        assert_eq!(
            inj.fired()[3..],
            [2, 2, 2, 2],
            "seed {seed}: the gen-2 schedule fired in full"
        );
    }
}
