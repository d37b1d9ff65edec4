//! `compare a.json b.json`: one row per (end-to-end metric × workload) with
//! both values, the ratio with its base stated, the bound and a verdict.

use crate::catalog::{Catalog, MetricDef};
use crate::workload::Workload;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Either side's repetitions spread (interquartile range ÷ median)
    /// wider than the bound, so a difference of that size cannot be told
    /// from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's value and its in-run spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// `b` against base `a`: worse when `b` is past the bound in the metric's
/// bad direction; unresolved when either spread exceeds the bound.
pub fn verdict(def: &MetricDef, a: Side, b: Side) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    let worse = if def.higher_is_better {
        b.value < a.value * (1.0 - bound)
    } else {
        b.value > a.value * (1.0 + bound)
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn side(run: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = run
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let num = |k: &str| match m.get(k) {
        Some(Value::Float(f)) => Some(*f),
        Some(Value::Int(i)) => Some(*i as f64),
        _ => None,
    };
    Some(Side {
        value: num("value")?,
        spread: num("spread").unwrap_or(0.0),
    })
}

/// Whether the row only restates `throughput_rps` of the same workload
/// (see [`Workload::latency_is_derived`]); such rows are printed, not judged.
fn derived(workload: &str, metric: &str) -> bool {
    metric.starts_with("latency_")
        && Workload::from_name(workload).is_some_and(|w| w.latency_is_derived())
}

/// Print the comparison table of two `run` result files; returns every
/// verdict given. A pair missing from either file is reported and skipped.
pub fn compare(a: &Value, b: &Value, cat: &Catalog) -> Vec<Verdict> {
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b / a", "bound"
    );
    let mut verdicts = Vec::new();
    for w in Workload::ALL.iter().map(|w| w.name()) {
        for def in &cat.end_to_end {
            let (Some(sa), Some(sb)) = (side(a, w, &def.name), side(b, w, &def.name)) else {
                println!("{w:<20} {:<16} missing from one side", def.name);
                continue;
            };
            let row = format!(
                "{w:<20} {:<16} {:>14.4} {:>14.4} {:>9.4}",
                def.name,
                sa.value,
                sb.value,
                sb.value / sa.value
            );
            if derived(w, &def.name) {
                println!("{row} {:>6}  derived from throughput_rps, not judged", "-");
                continue;
            }
            let v = verdict(def, sa, sb);
            println!(
                "{row} {:>6.2}  {}{}",
                def.bound.unwrap_or(0.0),
                v.label(),
                if v == Verdict::Unresolved {
                    format!(" (spread a {:.2}, b {:.2})", sa.spread, sb.spread)
                } else {
                    String::new()
                }
            );
            verdicts.push(v);
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let thr = def(true, 0.10);
        assert_eq!(verdict(&thr, s(100.0, 0.0), s(95.0, 0.0)), Verdict::Ok);
        assert_eq!(verdict(&thr, s(100.0, 0.0), s(89.0, 0.0)), Verdict::Worse);
        assert_eq!(verdict(&thr, s(100.0, 0.0), s(150.0, 0.0)), Verdict::Ok);
        let lat = def(false, 0.10);
        assert_eq!(verdict(&lat, s(10.0, 0.0), s(10.9, 0.0)), Verdict::Ok);
        assert_eq!(verdict(&lat, s(10.0, 0.0), s(11.1, 0.0)), Verdict::Worse);
        assert_eq!(verdict(&lat, s(10.0, 0.0), s(5.0, 0.0)), Verdict::Ok);
    }

    #[test]
    fn wide_spread_on_either_side_is_unresolved() {
        let lat = def(false, 0.10);
        assert_eq!(
            verdict(&lat, s(10.0, 0.11), s(20.0, 0.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lat, s(10.0, 0.0), s(10.0, 0.2)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&lat, s(10.0, 0.10), s(10.0, 0.10)), Verdict::Ok);
    }

    #[test]
    fn latency_rows_that_restate_throughput_are_not_judged() {
        assert!(derived("drain_full_nostore", "latency_p95_ms"));
        assert!(derived("full_graph", "latency_p50_ms"));
        assert!(!derived("paced_steady", "latency_p95_ms"));
        assert!(!derived("stream_accrete", "latency_p50_ms"));
        assert!(!derived("drain_full_nostore", "throughput_rps"));
    }

    #[test]
    fn sides_are_read_from_run_files() {
        let run = serde_json::parse_value(
            r#"{"workloads":{"w":{"metrics":{"m":{"value":2,"unit":"u","spread":0.5},"n":{"value":1.5,"unit":"u"}}}}}"#,
        )
        .unwrap();
        assert_eq!(side(&run, "w", "m"), Some(s(2.0, 0.5)));
        assert_eq!(side(&run, "w", "n"), Some(s(1.5, 0.0)));
        assert_eq!(side(&run, "w", "absent"), None);
        assert_eq!(side(&run, "x", "m"), None);
    }
}
