//! Sharded serving at growing-graph scale: served throughput vs shard
//! count on the over-sampled YelpCHI-sim spam graph (§4.3.1 scenario).
//!
//! ```sh
//! cargo run --release -p gcnp-bench --bin sharded_scaling             # full
//! cargo run --release -p gcnp-bench --bin sharded_scaling -- --smoke  # CI
//! ```
//!
//! Honors `GCNP_SPAM_FACTOR` (default 20; the acceptance run uses 100).
//! For each shard count S ∈ {1, 2, 4} the graph is hash-partitioned and
//! greedily refined, each shard gets its own striped [`FeatureStore`] slice
//! of a [`ShardedStore`] plus one serving worker, and the same pre-arrived
//! request trace is served through `serve_sharded`. Kernels are pinned to
//! one thread so the shard workers *are* the parallelism: on a multi-core
//! host served throughput should rise monotonically 1 → 4 shards, while on
//! a single-core host the workers time-share one CPU and the report's
//! `cores` / `scaling_capable` fields mark the run as exempt.
//!
//! The report also carries the shard-router traffic
//! (`shard.remote.{requests,rows,bytes}`), per-shard residency, and one
//! timed `accrete` of a real spam-stream edge delta with its per-level
//! dirty-set sizes — the incremental-invalidation cost that replaces a
//! store `clear()` on graph growth.
//!
//! Writes `results/BENCH_sharding.json` and re-parses it before exiting,
//! so a smoke run doubles as a schema check.

use gcnp_bench::harness::{fnum, print_table};
use gcnp_bench::{pipeline, Ctx};
use gcnp_datasets::{oversample, spam_factor_from_env, DatasetKind, GrowingGraph, Partition};
use gcnp_infer::{serve_sharded, BatchedEngine, ServingConfig, ShardedStore, StorePolicy};
use gcnp_models::zoo;
use gcnp_obs::MetricsRegistry;
use gcnp_tensor::set_num_threads;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const HOP2_CAP: usize = 32;

#[derive(Serialize, Deserialize)]
struct ShardRow {
    shards: usize,
    /// Nodes moved by greedy edge-cut refinement.
    refine_moved: usize,
    /// Cross-shard directed edges after refinement.
    edge_cut: usize,
    /// `edge_cut / nnz` (0 for S = 1).
    cut_fraction: f64,
    n_requests: usize,
    served: usize,
    shed: usize,
    n_batches: usize,
    p50_ms: f64,
    p99_ms: f64,
    wall_seconds: f64,
    throughput: f64,
    /// Batched (engine shard → owner shard) row fetches per level.
    remote_requests: u64,
    remote_rows: u64,
    remote_bytes: u64,
    store_hits: u64,
    store_misses: u64,
    /// Rows resident per shard after the run (capacity skew).
    resident_rows: Vec<usize>,
    store_nbytes: usize,
}

#[derive(Serialize, Deserialize)]
struct AccretionRow {
    /// Directed edges in the accreted spam-stream delta.
    delta_edges: usize,
    /// Dirty-set size per stored level (level 1 first).
    dirty_per_level: Vec<usize>,
    /// Rows actually invalidated (resident ∩ dirty).
    removed: usize,
    /// Store rows resident before the accretion.
    resident_before: usize,
    seconds: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    smoke: bool,
    spam_factor: usize,
    nodes: usize,
    edges: usize,
    dim: usize,
    hidden: usize,
    /// Hardware threads available to the run.
    cores: usize,
    /// Whether the host can actually run shard workers in parallel
    /// (`cores >= 2`); single-core runs are exempt from the monotonicity
    /// acceptance check.
    scaling_capable: bool,
    /// Served throughput non-decreasing across `rows` (1 → 4 shards).
    /// Meaningful only when `scaling_capable`.
    throughput_monotonic: bool,
    rows: Vec<ShardRow>,
    accretion: AccretionRow,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = Ctx::new("BENCH_sharding");
    // Typed: a typo like `GCNP_SPAM_FACTOR=1O0` must abort with a message,
    // not silently bench the default 20x graph while claiming 100x.
    let factor = spam_factor_from_env().unwrap_or_else(|e| {
        eprintln!("sharded_scaling: {e}");
        std::process::exit(2);
    });
    let base = pipeline::dataset(&ctx, DatasetKind::YelpChiSim);
    println!("over-sampling yelpchi-sim x{factor} ...");
    let big = oversample(&base, factor, ctx.seed);
    let n = big.n_nodes();
    println!("  scaled graph: {n} nodes, {} edges", big.adj.nnz());

    let (hidden, n_requests, repeats) = if smoke { (32, 300, 1) } else { (64, 1200, 3) };
    let dim = big.attr_dim();
    let model = zoo::graphsage(dim, hidden, base.n_classes(), ctx.seed);
    let n_levels = model.n_layers() - 1;
    // Pre-arrived trace over an even sample of the graph — identical for
    // every shard count, so batch formation (and therefore the logits) is
    // the same work routed differently.
    let pool: Vec<usize> = (0..n_requests.min(n))
        .map(|i| i * n / n_requests.min(n))
        .collect();
    let cfg = ServingConfig {
        arrival_rate: 1e6,
        max_batch: 32,
        n_requests: pool.len(),
        seed: ctx.seed,
        ..Default::default()
    };

    // Single-threaded kernels: shard workers are the only parallelism, so
    // throughput-vs-S isolates the sharding itself.
    set_num_threads(1);
    let mut rows: Vec<ShardRow> = Vec::new();
    let mut table = Vec::new();
    for &s in &SHARD_COUNTS {
        let mut part = Partition::hash(n, s, ctx.seed);
        let refine_moved = part.refine_greedy(&big.adj, 2);
        let edge_cut = part.edge_cut(&big.adj);

        let mut best: Option<ShardRow> = None;
        for _ in 0..repeats {
            let registry = Arc::new(MetricsRegistry::new());
            let store = ShardedStore::new(&part.assign, s, n_levels);
            store.attach_metrics(&registry);
            let mut engines: Vec<BatchedEngine<'_>> = (0..s)
                .map(|k| {
                    BatchedEngine::new_sharded(
                        &model,
                        &big.adj,
                        &big.features,
                        vec![None, Some(HOP2_CAP)],
                        &store,
                        k,
                        StorePolicy::Roots,
                        ctx.seed,
                    )
                })
                .collect();
            // Warm each shard's store slice with its own quarter of the
            // trace under AllVisited, so supporting rows (not just roots)
            // are resident and the timed run probes stored rows — including
            // rows owned by *other* shards, the router traffic being
            // measured.
            for k in 0..s {
                let mut warm = BatchedEngine::new_sharded(
                    &model,
                    &big.adj,
                    &big.features,
                    vec![None, Some(HOP2_CAP)],
                    &store,
                    k,
                    StorePolicy::AllVisited,
                    ctx.seed,
                );
                let mine: Vec<usize> = pool[..pool.len() / 4]
                    .iter()
                    .copied()
                    .filter(|&v| part.assign[v] as usize == k)
                    .collect();
                for chunk in mine.chunks(64) {
                    warm.try_infer(chunk).expect("store warmup");
                }
            }
            let warm = registry.snapshot();
            let rep = serve_sharded(&mut engines, &part.assign, &pool, &cfg).expect("sharded run");
            let snap = registry.snapshot().diff(&warm);
            store.refresh_gauges();
            let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            let per_shard = |prefix: &str| {
                (0..s)
                    .map(|i| counter(&format!("store.shard{i}.{prefix}")))
                    .sum::<u64>()
            };
            let row = ShardRow {
                shards: s,
                refine_moved,
                edge_cut,
                cut_fraction: edge_cut as f64 / big.adj.nnz().max(1) as f64,
                n_requests: rep.n_requests,
                served: rep.served,
                shed: rep.shed,
                n_batches: rep.n_batches,
                p50_ms: rep.p50_ms,
                p99_ms: rep.p99_ms,
                wall_seconds: rep.wall_seconds,
                throughput: rep.throughput,
                remote_requests: counter("shard.remote.requests"),
                remote_rows: counter("shard.remote.rows"),
                remote_bytes: counter("shard.remote.bytes"),
                store_hits: per_shard("hits"),
                store_misses: per_shard("misses"),
                resident_rows: (0..s).map(|i| store.resident_rows(i)).collect(),
                store_nbytes: store.nbytes(),
            };
            if best.as_ref().is_none_or(|b| row.throughput > b.throughput) {
                best = Some(row);
            }
        }
        let row = best.expect("at least one repeat");
        table.push(vec![
            s.to_string(),
            row.edge_cut.to_string(),
            row.served.to_string(),
            row.n_batches.to_string(),
            fnum(row.p99_ms, 2),
            fnum(row.throughput, 0),
            row.remote_requests.to_string(),
            row.remote_rows.to_string(),
        ]);
        rows.push(row);
    }
    set_num_threads(0);

    print_table(
        &[
            "shards",
            "edge cut",
            "served",
            "batches",
            "p99 ms",
            "req/s",
            "remote reqs",
            "remote rows",
        ],
        &table,
    );

    // One window of real stream growth against the S=4 store: the cost of
    // incremental invalidation, not a full clear.
    let accretion = {
        let part = Partition::hash(n, 4, ctx.seed);
        let store = ShardedStore::new(&part.assign, 4, n_levels);
        // Resident rows to invalidate: every node, cheap dummy payload
        // (invalidation walks ids, never reads feature values).
        for level in 1..=n_levels {
            for v in 0..n {
                store.put(level, v, &[0.0; 8]).expect("populate");
            }
        }
        let resident_before: usize = (1..=n_levels).map(|l| store.len(l)).sum();
        let stream = gcnp_datasets::SpamStream::new(&big, 30);
        // Replay the graph known after the first day, then accrete the next
        // window's delta against it.
        let mut grown = GrowingGraph::new(n);
        let mut delta: Vec<(u32, u32)> = Vec::new();
        let windows_per_day = (24 * 60 / 30) as usize;
        for w in 0..windows_per_day {
            grown.accrete(&stream.edge_delta(w));
        }
        let mut w = windows_per_day;
        while delta.is_empty() && w < stream.n_windows() {
            delta = stream.edge_delta(w);
            w += 1;
        }
        let rev_adj = grown.accrete(&delta).clone();
        let t0 = Instant::now();
        let rep = store.accrete(&delta, &rev_adj);
        let seconds = t0.elapsed().as_secs_f64();
        println!(
            "accrete: {} delta edges -> dirty {:?}, {} rows invalidated of {} in {} ms",
            rep.edges,
            rep.dirty_per_level,
            rep.removed,
            resident_before,
            fnum(seconds * 1e3, 2)
        );
        AccretionRow {
            delta_edges: rep.edges,
            dirty_per_level: rep.dirty_per_level,
            removed: rep.removed,
            resident_before,
            seconds,
        }
    };

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let throughput_monotonic = rows.windows(2).all(|w| w[1].throughput >= w[0].throughput);
    println!(
        "throughput 1->4 shards: {} on {cores} core(s){}",
        if throughput_monotonic {
            "monotonic"
        } else {
            "NOT monotonic"
        },
        if cores < 2 {
            " — single core: shard workers time-share, scaling impossible (exempt)"
        } else {
            ""
        }
    );

    let report = Report {
        smoke,
        spam_factor: factor,
        nodes: n,
        edges: big.adj.nnz(),
        dim,
        hidden,
        cores,
        scaling_capable: cores >= 2,
        throughput_monotonic,
        rows,
        accretion,
    };
    ctx.write_json(&report);

    // Schema check: the written record must round-trip.
    let path = ctx.results_dir.join(format!("{}.json", ctx.name));
    let text = std::fs::read_to_string(&path).expect("read back result json");
    let parsed: Report = serde_json::from_str(&text).expect("re-parse result json");
    assert_eq!(parsed.rows.len(), SHARD_COUNTS.len());
    assert!(parsed.rows.iter().all(|r| r.served > 0));
    assert!(parsed.accretion.removed <= parsed.accretion.resident_before);
}
