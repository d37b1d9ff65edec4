//! Experiment context: result persistence and table formatting.

use gcnp_infer::StageRow;
use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Serializable form of an engine stage-breakdown row, emitted by the
/// experiment binaries alongside their main result tables.
#[derive(Debug, Clone, Serialize)]
pub struct StageJson {
    /// Stage name (one of [`gcnp_infer::STAGES`]).
    pub stage: String,
    /// Batches that recorded this stage.
    pub batches: u64,
    /// Summed stage wall time, milliseconds.
    pub total_ms: f64,
    /// Mean stage wall time per batch, milliseconds.
    pub mean_ms: f64,
    /// Fraction of the summed time across all stages (0..=1).
    pub share: f64,
}

impl From<&StageRow> for StageJson {
    fn from(r: &StageRow) -> Self {
        Self {
            stage: r.stage.to_string(),
            batches: r.batches,
            total_ms: r.total_ms,
            mean_ms: r.mean_ms,
            share: r.share,
        }
    }
}

/// Context shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Experiment id (e.g. `table3_full_inference`).
    pub name: String,
    /// `results/` in the workspace root.
    pub results_dir: PathBuf,
    /// Dataset scale factor (`GCNP_SCALE`, default 1.0).
    pub scale: f64,
    /// Base seed (`GCNP_SEED`, default 42).
    pub seed: u64,
}

impl Ctx {
    /// Create a context, reading `GCNP_SCALE` / `GCNP_SEED` from the
    /// environment and creating the results directories.
    pub fn new(name: &str) -> Self {
        let scale = std::env::var("GCNP_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0);
        let seed = std::env::var("GCNP_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        let results_dir = workspace_root().join("results");
        fs::create_dir_all(results_dir.join("cache")).expect("create results dirs");
        println!("== {name} (scale={scale}, seed={seed}) ==");
        Self {
            name: name.to_string(),
            results_dir,
            scale,
            seed,
        }
    }

    /// Persist a JSON record for EXPERIMENTS.md generation.
    pub fn write_json<T: Serialize>(&self, value: &T) {
        let path = self.results_dir.join(format!("{}.json", self.name));
        let json = serde_json::to_string_pretty(value).expect("serialize result");
        fs::write(&path, json).expect("write result json");
        println!("results written to {}", path.display());
    }

    /// Path for a cache entry. The scale factor is encoded losslessly via its
    /// IEEE-754 bit pattern: the old `(scale * 1000.0) as u64` truncation
    /// collided distinct scales (e.g. 0.0014 vs 0.0019 both mapped to `d1`,
    /// and every scale below 0.001 mapped to `d0`), silently serving one
    /// run's cached results to another.
    pub fn cache_path(&self, key: &str) -> PathBuf {
        self.results_dir.join("cache").join(format!(
            "{key}_s{}_d{:016x}.json",
            self.seed,
            self.scale.to_bits()
        ))
    }

    /// Load a cached value if present.
    pub fn cache_get<T: serde::de::DeserializeOwned>(&self, key: &str) -> Option<T> {
        let path = self.cache_path(key);
        let data = fs::read_to_string(path).ok()?;
        serde_json::from_str(&data).ok()
    }

    /// Store a value in the cache.
    pub fn cache_put<T: Serialize>(&self, key: &str, value: &T) {
        let path = self.cache_path(key);
        fs::write(path, serde_json::to_string(value).expect("serialize cache"))
            .expect("write cache");
    }
}

/// Locate the workspace root (directory containing the top-level Cargo.toml
/// with a `[workspace]` section), falling back to the current directory.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}

/// Render an ASCII table: header row + data rows, columns auto-sized.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!(" {c:>w$} |"));
        }
        s
    };
    let sep: String = {
        let mut s = String::from("|");
        for w in &widths {
            s.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        s
    };
    println!(
        "{}",
        line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!("{sep}");
    for row in rows {
        println!("{}", line(row));
    }
}

/// Format a float with the given precision, or `-` for NaN.
pub fn fnum(v: f64, prec: usize) -> String {
    if v.is_nan() {
        "-".into()
    } else {
        format!("{v:.prec$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with_scale(scale: f64) -> Ctx {
        Ctx {
            name: "test".into(),
            results_dir: PathBuf::from("/tmp/results"),
            scale,
            seed: 42,
        }
    }

    #[test]
    fn cache_path_distinguishes_close_scales() {
        // Regression: `(scale * 1000.0) as u64` mapped 0.0014 and 0.0019 to
        // the same `d1` suffix and every sub-0.001 scale to `d0`.
        let pairs = [(0.0014, 0.0019), (0.0001, 0.0009), (1.0, 1.0004)];
        for (a, b) in pairs {
            assert_ne!(
                ctx_with_scale(a).cache_path("k"),
                ctx_with_scale(b).cache_path("k"),
                "scales {a} and {b} must not share a cache file"
            );
        }
    }

    #[test]
    fn cache_path_stable_for_equal_scales() {
        assert_eq!(
            ctx_with_scale(0.25).cache_path("k"),
            ctx_with_scale(0.25).cache_path("k")
        );
        // Different seeds still get distinct entries.
        let mut other = ctx_with_scale(0.25);
        other.seed = 43;
        assert_ne!(ctx_with_scale(0.25).cache_path("k"), other.cache_path("k"));
    }
}
