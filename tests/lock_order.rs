//! Runtime lock-order validation under `--features lock-order`.
//!
//! The tracker in `gcnp_tensor::lockcheck` checks every registered
//! acquisition against the statically-extracted graph in
//! `gcnp_tensor::lockgraph`. These tests prove both directions: a
//! deliberately inverted acquisition panics with the typed message, and a
//! fully supervised, fault-injected serving run drives every instrumented
//! site without tripping the tracker. Run with:
//! `cargo test -q --features lock-order --test lock_order`
#![cfg(feature = "lock-order")]

use gcnp::prelude::*;
use gcnp_tensor::init::seeded_rng;
use gcnp_tensor::lockcheck;
use gcnp_tensor::lockgraph::{LOCK_NODES, LOCK_ORDER_PATHS};
use std::panic::{self, AssertUnwindSafe};

/// Run `f` with the default panic hook silenced, returning the payload of
/// the panic it raised (the tests below *expect* panics; the hook would
/// spam the test log with backtraces otherwise).
fn panic_message(f: impl FnOnce() + panic::UnwindSafe) -> String {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let caught = panic::catch_unwind(f);
    panic::set_hook(hook);
    match caught {
        Ok(()) => String::new(),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    }
}

#[test]
fn a_deliberate_inversion_is_caught() {
    // The static graph orders `from` before `to` for every closure path;
    // acquiring them in the opposite order must trip the tracker.
    let &(from, to) = LOCK_ORDER_PATHS
        .first()
        .expect("the workspace graph has at least one ordered pair");
    let later = LOCK_NODES[to as usize];
    let earlier = LOCK_NODES[from as usize];
    let msg = panic_message(AssertUnwindSafe(|| {
        let _second = lockcheck::acquire(later);
        let _first = lockcheck::acquire(earlier); // inverted — must panic
    }));
    assert!(
        msg.contains("lock-order inversion"),
        "expected the typed inversion panic, got: {msg:?}"
    );
    assert!(
        msg.contains(earlier) && msg.contains(later),
        "the panic names both locks: {msg:?}"
    );
}

#[test]
fn graph_order_and_disjoint_reacquisition_stay_green() {
    // Acquiring along a graph path is fine, and releasing between
    // acquisitions resets the thread's held set.
    let &(from, to) = LOCK_ORDER_PATHS.first().expect("non-empty closure");
    let first = lockcheck::acquire(LOCK_NODES[from as usize]);
    let second = lockcheck::acquire(LOCK_NODES[to as usize]);
    drop(second);
    drop(first);
    // The previously "inverted" order is legal once nothing is held.
    let only = lockcheck::acquire(LOCK_NODES[to as usize]);
    drop(only);
    let only = lockcheck::acquire(LOCK_NODES[from as usize]);
    drop(only);
}

#[test]
fn an_unregistered_name_is_rejected() {
    let msg = panic_message(|| {
        let _t = lockcheck::acquire("no.such.lock");
    });
    assert!(
        msg.contains("unregistered lock"),
        "expected the typed registry panic, got: {msg:?}"
    );
}

fn chord_graph(n: usize) -> CsrMatrix {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i as u32, ((i + 1) % n) as u32));
        edges.push((((i + 1) % n) as u32, i as u32));
        edges.push((i as u32, ((i + n / 3) % n) as u32));
    }
    CsrMatrix::adjacency(n, &edges)
}

/// End-to-end: a supervised, fault-injected pipelined run exercises every
/// instrumented site (the stage link, dispatch, pending slots, pool,
/// latches, the fleet ledger, store stripes) with the tracker live — any
/// inversion on a real path would panic the run.
#[test]
fn supervised_faulted_serving_runs_clean_under_the_tracker() {
    let n = 200;
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, 8, -1.0, 1.0, &mut seeded_rng(11));
    let model = zoo::graphsage(8, 16, 4, 13);
    let pool: Vec<usize> = (0..n).collect();
    let plan = FaultPlan {
        panics: 1,
        stragglers: 1,
        straggle_multiplier: 1.5,
        stalls: 1,
        stall_ms: 40.0,
        row_flips: 1,
        horizon: 8,
        seed: 41,
        ..Default::default()
    };
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: 320,
        seed: 37,
        watchdog: Some(0.5),
        ..Default::default()
    };
    let store = FeatureStore::new(n, model.n_layers() - 1);
    let inj = plan.build().unwrap();
    let mut engines: Vec<BatchedEngine> = (0..3)
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
    assert_eq!(rep.served + rep.shed, 320, "the tracked run stays lossless");
}
