//! Self-healing chaos soak: all seven fault kinds — worker panic,
//! straggler, store-miss storm, stage stall, store-row bit flip, clock
//! skew, queue wedge — injected into `serve_multi`, with the supervision
//! layer (watchdog + hedging) both off and on.
//!
//! ```sh
//! cargo run --release -p gcnp-bench --bin chaos_soak            # full
//! cargo run --release -p gcnp-bench --bin chaos_soak -- --smoke # CI
//! ```
//!
//! Every run is a hard gate: the full fault schedule must fire, no request
//! may be lost or double-counted (`served + shed == submitted`), the retry
//! cap must cover every injected fault (`shed == 0`), and the hedge ledger
//! must balance (`fired == won + wasted`). Writes
//! `results/BENCH_chaos.json` and re-parses it before exiting, so a smoke
//! run doubles as a schema check.

use gcnp_bench::harness::{fnum, print_table};
use gcnp_bench::Ctx;
use gcnp_infer::{serve_multi, BatchedEngine, FaultPlan, FeatureStore, ServingConfig, StorePolicy};
use gcnp_models::zoo;
use gcnp_sparse::CsrMatrix;
use gcnp_tensor::init::seeded_rng;
use gcnp_tensor::Matrix;
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct RunRow {
    supervised: bool,
    seed: u64,
    n_requests: usize,
    served: usize,
    shed: usize,
    recoveries: usize,
    retries: usize,
    workers_lost: usize,
    watchdog_restarts: usize,
    hedges_fired: usize,
    hedges_won: usize,
    hedges_wasted: usize,
    /// (panics, stragglers, storms) fired.
    fired_panics: usize,
    fired_stragglers: usize,
    fired_storms: usize,
    /// (stalls, row flips, skews, wedges) fired.
    fired_stalls: usize,
    fired_row_flips: usize,
    fired_skews: usize,
    fired_wedges: usize,
    p99_ms: f64,
    wall_seconds: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    smoke: bool,
    nodes: usize,
    workers: usize,
    runs: usize,
    total_requests: usize,
    total_served: usize,
    total_shed: usize,
    rows: Vec<RunRow>,
}

fn chord_graph(n: usize) -> CsrMatrix {
    let mut e = Vec::new();
    for i in 0..n as u32 {
        for hop in [1u32, 7, 31] {
            let j = (i + hop) % n as u32;
            e.push((i, j));
            e.push((j, i));
        }
    }
    CsrMatrix::adjacency(n, &e)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = Ctx::new("BENCH_chaos");

    // Injected worker panics are part of the schedule; keep their default
    // backtrace spew out of the soak output while leaving every other
    // panic (a genuine bug, a failed gate in a worker thread) visible.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("gcnp-faults:"));
        if !injected {
            default_hook(info);
        }
    }));
    let (n, dim, hidden, n_requests, horizon, seeds) = if smoke {
        (300, 8, 16, 640, 18, 1u64)
    } else {
        (1000, 16, 32, 2000, 40, 3u64)
    };
    let adj = chord_graph(n);
    let x = Matrix::rand_uniform(n, dim, -1.0, 1.0, &mut seeded_rng(ctx.seed));
    let model = zoo::graphsage(dim, hidden, 4, ctx.seed);
    let pool: Vec<usize> = (0..n).collect();
    let workers: usize = 4;

    let mut rows: Vec<RunRow> = Vec::new();
    let mut table = Vec::new();
    for seed in 0..seeds {
        for supervised in [false, true] {
            let cfg = ServingConfig {
                arrival_rate: 1e6,
                max_batch: 32,
                n_requests,
                seed: ctx.seed ^ seed,
                watchdog: supervised.then_some(0.2),
                hedge: supervised.then_some(4.0),
                ..Default::default()
            };
            // All seven fault kinds in one schedule. The horizon stays
            // below the trace's minimum attempt count so every fault is
            // guaranteed to fire.
            let plan = FaultPlan {
                panics: 3,
                stragglers: 4,
                straggle_multiplier: 2.0,
                storms: 2,
                stalls: 2,
                stall_ms: 25.0,
                row_flips: 2,
                skews: 2,
                skew: 3.0,
                wedges: 2,
                horizon,
                seed: seed ^ 0xc0ffee,
            };
            let inj = plan.build().expect("valid plan");
            let store = FeatureStore::new(n, model.n_layers() - 1);
            let mut engines: Vec<BatchedEngine<'_>> = (0..workers)
                .map(|w| {
                    let mut e = BatchedEngine::new(
                        &model,
                        &adj,
                        &x,
                        vec![],
                        Some(&store),
                        StorePolicy::Roots,
                        ctx.seed ^ w as u64,
                    );
                    e.set_faults(std::sync::Arc::clone(&inj));
                    e
                })
                .collect();
            let rep = serve_multi(&mut engines, &pool, &cfg).expect("chaos run");
            let tag = format!("supervised={supervised}/seed={seed}");

            // Hard gates: zero lost or duplicated requests, the full
            // schedule fired, the retry cap absorbed every fault, and
            // the hedge ledger balances.
            assert_eq!(rep.served + rep.shed, n_requests, "{tag}: lossless");
            assert_eq!(rep.shed, 0, "{tag}: retry cap covers the schedule");
            let fired = inj.fired();
            let gen2 = inj.fired_gen2();
            assert_eq!(fired, (3, 4, 2), "{tag}: gen-1 schedule fired");
            assert_eq!(gen2, (2, 2, 2, 2), "{tag}: gen-2 schedule fired");
            assert_eq!(
                rep.hedges_fired,
                rep.hedges_won + rep.hedges_wasted,
                "{tag}: hedge ledger balances"
            );
            if !supervised {
                assert_eq!(rep.watchdog_restarts, 0, "{tag}: supervisor off");
                assert_eq!(rep.hedges_fired, 0, "{tag}: supervisor off");
            }

            table.push(vec![
                supervised.to_string(),
                seed.to_string(),
                rep.served.to_string(),
                rep.recoveries.to_string(),
                rep.retries.to_string(),
                rep.watchdog_restarts.to_string(),
                format!(
                    "{}/{}/{}",
                    rep.hedges_fired, rep.hedges_won, rep.hedges_wasted
                ),
                fnum(rep.p99_ms, 2),
                fnum(rep.wall_seconds * 1e3, 0),
            ]);
            rows.push(RunRow {
                supervised,
                seed,
                n_requests,
                served: rep.served,
                shed: rep.shed,
                recoveries: rep.recoveries,
                retries: rep.retries,
                workers_lost: rep.workers_lost,
                watchdog_restarts: rep.watchdog_restarts,
                hedges_fired: rep.hedges_fired,
                hedges_won: rep.hedges_won,
                hedges_wasted: rep.hedges_wasted,
                fired_panics: fired.0,
                fired_stragglers: fired.1,
                fired_storms: fired.2,
                fired_stalls: gen2.0,
                fired_row_flips: gen2.1,
                fired_skews: gen2.2,
                fired_wedges: gen2.3,
                p99_ms: rep.p99_ms,
                wall_seconds: rep.wall_seconds,
            });
        }
    }

    print_table(
        &[
            "supervised",
            "seed",
            "served",
            "recov",
            "retries",
            "restarts",
            "hedge f/w/w",
            "p99 ms",
            "wall ms",
        ],
        &table,
    );

    let report = Report {
        smoke,
        nodes: n,
        workers,
        runs: rows.len(),
        total_requests: rows.iter().map(|r| r.n_requests).sum(),
        total_served: rows.iter().map(|r| r.served).sum(),
        total_shed: rows.iter().map(|r| r.shed).sum(),
        rows,
    };
    println!(
        "chaos soak: {} runs, {} requests, {} served, {} shed — all lossless",
        report.runs, report.total_requests, report.total_served, report.total_shed
    );
    ctx.write_json(&report);

    // Schema check: the written record must round-trip.
    let path = ctx.results_dir.join(format!("{}.json", ctx.name));
    let text = std::fs::read_to_string(&path).expect("read back result json");
    let parsed: Report = serde_json::from_str(&text).expect("re-parse result json");
    assert_eq!(parsed.runs, parsed.rows.len());
    assert_eq!(parsed.total_served, parsed.total_requests);
}
