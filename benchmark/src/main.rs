//! The repo's benchmark: one wall-clock, open-loop, layer-attributed
//! measurement of pruned-GNN serving. See README.md beside Cargo.toml.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (what BENCHMARK.json runs)
//! benchmark run [--seed 42] [--seconds S] [--trace] [--smoke]         all six, one process each
//! benchmark compare a.json b.json                                    verdict per metric × workload
//! benchmark aa [--seed 42] [--seconds S] [--smoke]                    run twice, interleaved, compare
//! ```

mod adapter;
mod catalog;
mod compare;
mod probes;
mod procfs;
mod spans;
mod stats;
mod workload;

use catalog::{Catalog, MetricDef};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Outcome, RunArgs, Workload};

/// Line prefix of the per-metric spreads a workload process prints before
/// its result line, for `run` to collect.
const DETAIL: &str = "#detail ";

/// `benchmark/out/`: traces and result files (ignored by git).
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Value of `--name <value>`, if given.
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == name)?;
        self.args.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metrics_value(o: &Outcome, defs: &[MetricDef], with_spread: bool) -> Value {
    Value::Map(
        o.metrics
            .iter()
            .zip(defs)
            .map(|((name, value), def)| {
                assert_eq!(name, &def.name, "metrics are emitted in catalogue order");
                let mut m = vec![
                    ("value", Value::Float(*value)),
                    ("unit", Value::Str(def.unit.clone())),
                ];
                if with_spread {
                    if let Some((_, s)) = o.spreads.iter().find(|(n, _)| n == name) {
                        m.push(("spread", Value::Float(*s)));
                    }
                }
                (name.clone(), map(m))
            })
            .collect(),
    )
}

/// Run one workload in this process and print its result; the last line of
/// standard output is the one JSON object the driver reads.
fn one_workload(flags: &Flags) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".into());
    }
    let name = flags.value("--workload").ok_or("--workload needs a name")?;
    let w = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let cat = Catalog::load();
    let args = RunArgs {
        seed: flags.parsed("--seed", 42)?,
        seconds: flags.parsed("--seconds", cat.run_seconds)?,
        trace: flags.parsed::<u8>("--trace", 0)? != 0,
        sizes: if flags.has("--smoke") {
            workload::SMOKE
        } else {
            workload::FULL
        },
    };
    let o = workload::run(w, &args)?;
    let defs = if args.trace {
        &cat.per_layer
    } else {
        &cat.end_to_end
    };
    println!(
        "== {name} (seed {}, {} s, trace {}) ==",
        args.seed, args.seconds, args.trace as u8
    );
    for ((n, v), def) in o.metrics.iter().zip(defs) {
        let spread = o.spreads.iter().find(|(s, _)| s == n);
        println!(
            "{n:<42} {v:>16.6} {:<8}{}",
            def.unit,
            spread.map_or(String::new(), |(_, s)| format!(" {n}.spread {s:.4}"))
        );
    }
    for note in &o.notes {
        println!("{note}");
    }
    if let Some(trace) = &o.trace {
        let path = out_dir().join(format!("trace-{name}-seed{}.json", args.seed));
        let text = serde_json::to_string(trace).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let detail = metrics_value(&o, defs, true);
    println!(
        "{DETAIL}{}",
        serde_json::to_string(&detail).map_err(|e| e.to_string())?
    );
    let result = map(vec![
        ("correct", Value::Bool(o.failed == 0)),
        ("attempted", Value::Int(o.attempted as i128)),
        ("failed", Value::Int(o.failed as i128)),
        ("metrics", metrics_value(&o, defs, false)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on.
fn stamp(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Value {
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    map(vec![
        (
            "git_rev",
            Value::Str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("profile", Value::Str("release".into())),
        (
            "nproc",
            Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i128),
        ),
        ("avx2", Value::Bool(avx2)),
        ("fma", Value::Bool(fma)),
        ("gemm_path", Value::Str(adapter::gemm_path())),
        // Workloads pin kernel threads themselves; the variable is recorded
        // so a stray setting is visible next to the numbers.
        (
            "GCNP_THREADS",
            std::env::var("GCNP_THREADS").map_or(Value::Null, Value::Str),
        ),
        ("seed", Value::Int(seed as i128)),
        ("seconds", Value::Float(seconds)),
        ("trace", Value::Bool(trace)),
        ("smoke", Value::Bool(smoke)),
    ])
}

/// What `run` and `aa` take from the command line.
struct RunFlags {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl RunFlags {
    fn parse(flags: &Flags) -> Result<Self, String> {
        let smoke = flags.has("--smoke");
        let default_seconds = if smoke {
            1.0
        } else {
            Catalog::load().run_seconds
        };
        Ok(Self {
            seed: flags.parsed("--seed", 42)?,
            seconds: flags.parsed("--seconds", default_seconds)?,
            trace: flags.has("--trace"),
            smoke,
        })
    }
}

/// Run one workload in a fresh process (so peak memory and CPU time are
/// the workload's own), echo what it printed for the reader, and return its
/// result object with the spreads beside the values.
fn spawn_workload(w: Workload, f: &RunFlags) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", w.name(), "--seed", &f.seed.to_string()])
        .args(["--seconds", &f.seconds.to_string()])
        .args(["--trace", if f.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if f.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    for line in lines
        .iter()
        .filter(|l| !l.starts_with(DETAIL) && !l.starts_with('{'))
    {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!("workload {} failed ({})", w.name(), out.status));
    }
    let last = lines.last().ok_or("workload printed nothing")?;
    let mut result =
        serde_json::parse_value(last).map_err(|e| format!("{}: result line: {e}", w.name()))?;
    let detail = lines
        .iter()
        .find_map(|l| l.strip_prefix(DETAIL))
        .ok_or("workload printed no detail line")?;
    let detail =
        serde_json::parse_value(detail).map_err(|e| format!("{}: detail line: {e}", w.name()))?;
    if let Value::Map(entries) = &mut result {
        entries.retain(|(k, _)| k != "metrics");
        entries.push(("metrics".into(), detail));
    }
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("workload {} reported failed operations", w.name()));
    }
    Ok(result)
}

/// Write the stamped result file of one set of workload results and check
/// that it reads back as written.
fn write_result(workloads: Vec<Value>, f: &RunFlags, tag: &str) -> Result<PathBuf, String> {
    let named = Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .zip(workloads)
        .collect();
    let doc = map(vec![
        ("stamp", stamp(f.seed, f.seconds, f.trace, f.smoke)),
        ("workloads", Value::Map(named)),
    ]);
    let path = out_dir().join(format!(
        "run-seed{}{}{}{tag}.json",
        f.seed,
        if f.trace { "-trace" } else { "" },
        if f.smoke { "-smoke" } else { "" }
    ));
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    let back = load(&path)?;
    if back
        .get("workloads")
        .map(|w| matches!(w, Value::Map(m) if m.len() == Workload::ALL.len()))
        != Some(true)
    {
        return Err(format!(
            "{}: re-parsed result lacks workloads",
            path.display()
        ));
    }
    println!("result written to {}", path.display());
    Ok(path)
}

/// Run all six workloads and write the result file.
fn run_all(flags: &Flags) -> Result<(), String> {
    let f = RunFlags::parse(flags)?;
    let results = Workload::ALL
        .iter()
        .map(|&w| spawn_workload(w, &f))
        .collect::<Result<Vec<_>, _>>()?;
    write_result(results, &f, "").map(|_| ())
}

/// Two sets of runs of the same code, compared by the rule `compare`
/// applies. The sets are interleaved workload by workload, the side that
/// goes first alternating, so that a drift of the machine's speed lands on
/// both sides alike.
fn aa(flags: &Flags) -> Result<(), String> {
    let f = RunFlags::parse(flags)?;
    let mut sides = [Vec::new(), Vec::new()];
    for (i, &w) in Workload::ALL.iter().enumerate() {
        for side in [i % 2, 1 - i % 2] {
            sides[side].push(spawn_workload(w, &f)?);
        }
    }
    let [a, b] = sides;
    let a = write_result(a, &f, "-aa1")?;
    let b = write_result(b, &f, "-aa2")?;
    compare_files(&a, &b)
}

fn load(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result files; fails on any `worse`.
fn compare_files(a: &std::path::Path, b: &std::path::Path) -> Result<(), String> {
    let verdicts = compare::compare(&load(a)?, &load(b)?, &Catalog::load());
    let count = |v| verdicts.iter().filter(|&&x| x == v).count();
    let (worse, unresolved) = (
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{} pairs: {worse} worse, {unresolved} unresolved",
        verdicts.len()
    );
    if worse > 0 {
        return Err(format!(
            "{worse} metric × workload pairs are worse than the base by more than their bound"
        ));
    }
    Ok(())
}

fn dispatch(flags: &Flags) -> Result<(), String> {
    match flags.args.first().map(String::as_str) {
        Some("run") => run_all(flags),
        Some("compare") => match &flags.args[1..] {
            [a, b] => compare_files(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare a.json b.json".into()),
        },
        Some("aa") => aa(flags),
        _ if flags.has("--workload") => one_workload(flags),
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | compare a b | aa".into()),
    }
}

fn main() -> ExitCode {
    let flags = Flags {
        args: std::env::args().skip(1).collect(),
    };
    match dispatch(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
