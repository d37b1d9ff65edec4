//! The `gcnp` command-line tool. See crate docs / `gcnp help`.

use gcnp_cli::args::Args;
use gcnp_cli::commands;

const USAGE: &str = "\
gcnp — channel-pruned GNN inference (VLDB'21 reproduction)

USAGE: gcnp <command> [--option value | --switch]...

COMMANDS
  generate  --dataset <name> [--scale f] [--seed n] --out <file>
            synthesize a benchmark graph (flickr-sim, arxiv-sim, reddit-sim,
            yelp-sim, products-sim, yelpchi-sim)
  train     --data <file> [--hidden n] [--steps n] [--lr f] --out <file>
            GraphSAINT-train the reference 2-layer GraphSAGE
  prune     --data <file> --model <file> [--budget f] [--scheme full|batched]
            [--method lasso|maxres|random] [--retrain] --out <file>
            LASSO channel pruning (the paper's method)
  quantize  --model <file> --out <file>
            freeze weights to int8 for edge deployment
  eval      --data <file> --model <file> [--batched [--store] [--batch n]]
            [--quantized]
            test-set F1 + cost metrics under either inference scenario
  serve     --data <file> --model <file> [--rate f] [--requests n]
            [--max-batch n] [--max-wait-ms f] [--store] [--workers n]
            [--deadline-ms f] [--queue-cap n] [--retry-cap n] [--shards n]
            [--pace] [--watchdog-ms f] [--faults spec]
            [--ladder] [--metrics-out file]
            serve a Poisson request trace on a fleet of engine workers with
            panic recovery; reports throughput, latency percentiles and
            shed/recovery accounting (--workers n: replicas, default 1;
            --shards n: one worker per graph shard; --pace: replay arrivals
            in real time; --watchdog-ms: steal and requeue a batch busy
            longer than this, respawning its stage pair;
            --deadline-ms/--queue-cap: shed stale or over-capacity requests;
            --ladder (one worker): degrade through pruned model tiers under
            load; --faults e.g. \"panics=3,stragglers=5,horizon=40,seed=7\":
            deterministic chaos)
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{USAGE}");
        return;
    }
    let result = Args::parse(argv).and_then(|args| commands::run(&args));
    match result {
        Ok(msg) => println!("{msg}"),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
