//! The metric catalogue: `BENCHMARK.json` at the repo root, compiled in, is
//! the one list of metric names, units, directions and bounds, and of the
//! workloads the driver runs (four of the code's six, README.md "Workloads").
//! The benchmark emits exactly the metrics it declares.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Catalog {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: `{key}` must be a string, got {other:?}"),
    }
}

fn number(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Float(f)) => Some(*f),
        Some(Value::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

fn list<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json: `{key}` must be a list, got {other:?}"),
    }
}

fn metric(v: &Value) -> MetricDef {
    MetricDef {
        name: text(v, "name"),
        unit: text(v, "unit"),
        higher_is_better: text(v, "better") == "higher",
        bound: number(v, "bound"),
    }
}

impl Catalog {
    pub fn load() -> Self {
        let root = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Self {
            run_seconds: number(&root, "run_seconds").expect("run_seconds"),
            end_to_end: list(&root, "end_to_end").iter().map(metric).collect(),
            per_layer: list(&root, "per_layer").iter().map(metric).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn catalogue_matches_the_code() {
        let c = Catalog::load();
        // The driver runs a subset of the code's workloads, in its order.
        let root = serde_json::parse_value(BENCHMARK_JSON).unwrap();
        let listed: Vec<String> = list(&root, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let known: Vec<&str> = Workload::ALL
            .iter()
            .map(|w| w.name())
            .filter(|n| listed.iter().any(|w| w == n))
            .collect();
        assert_eq!(listed, known);
        assert!(listed.len() >= 2);
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let mut all: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
    }
}
